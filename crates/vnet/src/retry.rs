//! The one retry ladder of the paper's two recovery layers (§4.2).
//!
//! "The kernel retransmits the request until it receives a reply or
//! decides the receiver has failed"; the client then re-queries and
//! retries the operation. Both loops climb the same bounded exponential
//! ladder, [`BackoffPolicy`], and differ only in their *budget* rule:
//!
//! * the kernel charges a timeout for every lost transmission, the last
//!   one included ([`give_up_cost`](BackoffPolicy::give_up_cost)) — its
//!   ladder is the constant [`RETRANSMIT`](crate::RETRANSMIT);
//! * the client pauses after every failure except the last, then surfaces
//!   the error ([`delay`](BackoffPolicy::delay),
//!   [`worst_case_total`](BackoffPolicy::worst_case_total)).

use std::time::Duration;

/// A bounded exponential ladder: rung `n` is `min(base * factor^(n-1),
/// cap)`, and at most `max_attempts` attempts are made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Total attempts allowed (first try + retries).
    pub max_attempts: u32,
    /// The first rung of the ladder.
    pub base: Duration,
    /// Multiplier between consecutive rungs.
    pub factor: u32,
    /// Ceiling on any rung.
    pub cap: Duration,
}

impl Default for BackoffPolicy {
    /// The client's default: a modest ladder of four attempts.
    fn default() -> Self {
        BackoffPolicy {
            max_attempts: 4,
            base: Duration::from_millis(2),
            factor: 2,
            cap: Duration::from_millis(50),
        }
    }
}

impl BackoffPolicy {
    /// A patient policy for crash-recovery loops (EXP-11): many attempts
    /// with a generous cap, still strictly bounded.
    pub const fn recovery() -> Self {
        BackoffPolicy {
            max_attempts: 16,
            base: Duration::from_millis(10),
            factor: 2,
            cap: Duration::from_millis(100),
        }
    }

    /// The `n`-th rung (1-based): `base * factor^(n-1)`, capped.
    pub fn nth(&self, n: u32) -> Duration {
        let mut d = self.base;
        for _ in 1..n {
            d = d.saturating_mul(self.factor).min(self.cap);
        }
        d.min(self.cap)
    }

    /// The kernel's budget: every lost transmission, the last included,
    /// costs its rung, so an exhausted ladder costs the sum of all
    /// `max_attempts` rungs. This bounds how long any single `Send` can
    /// stall on a dead link.
    pub fn give_up_cost(&self) -> Duration {
        (1..=self.max_attempts).map(|n| self.nth(n)).sum()
    }

    /// The client's budget: the pause after `failed_attempts` failures
    /// (1-based), or `None` once the attempt budget is spent — the final
    /// failure yields no pause and the caller surfaces the error.
    pub fn delay(&self, failed_attempts: u32) -> Option<Duration> {
        (failed_attempts < self.max_attempts).then(|| self.nth(failed_attempts))
    }

    /// The most time a client can spend pausing between retries: the sum
    /// of every delay the policy will ever yield.
    pub fn worst_case_total(&self) -> Duration {
        (1..self.max_attempts).map(|n| self.nth(n)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    const P: BackoffPolicy = BackoffPolicy {
        max_attempts: 5,
        base: Duration::from_millis(10),
        factor: 2,
        cap: Duration::from_millis(30),
    };

    #[test]
    fn nth_doubles_then_caps() {
        let rungs: Vec<_> = [1, 2, 3, 4, 9].map(|n| P.nth(n)).into();
        assert_eq!(rungs, [ms(10), ms(20), ms(30), ms(30), ms(30)]);
        // The kernel charges every lost attempt, the last included.
        assert_eq!(P.give_up_cost(), ms(120));
    }

    #[test]
    fn delays_double_then_cap_then_stop() {
        // The client pauses after every failure but the last.
        let delays: Vec<_> = (1..=5).map(|n| P.delay(n)).collect();
        assert_eq!(
            delays,
            [Some(ms(10)), Some(ms(20)), Some(ms(30)), Some(ms(30)), None]
        );
        assert_eq!(P.worst_case_total(), ms(90));
    }

    #[test]
    fn base_above_cap_is_clamped_immediately() {
        let p = BackoffPolicy {
            base: ms(90),
            ..crate::RETRANSMIT
        };
        assert_eq!(p.nth(1), ms(80));
    }

    #[test]
    fn delays_are_monotone_and_bounded() {
        let p = BackoffPolicy::recovery();
        let mut prev = Duration::ZERO;
        let mut n = 0u32;
        let mut total = Duration::ZERO;
        while let Some(d) = p.delay(n + 1) {
            assert!(d >= prev, "delay ladder must be monotone");
            assert!(d <= p.cap);
            prev = d;
            total += d;
            n += 1;
        }
        assert_eq!(n, p.max_attempts - 1);
        assert_eq!(total, p.worst_case_total());
        assert!(total <= p.cap * (p.max_attempts - 1));
    }
}
