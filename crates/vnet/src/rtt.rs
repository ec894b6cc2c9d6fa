//! Adaptive round-trip-time estimation: SRTT/RTTVAR smoothing with Karn's
//! rule and exponential backoff, in the style of period BSD TCP
//! (Jacobson's 1988 gains, Karn & Partridge 1987 sample discipline).
//!
//! The paper's kernel retransmits on a fixed ladder; this estimator is
//! the optional adaptive alternative for that one layer, switched on per
//! plane by [`FaultConfig::with_adaptive`]. Its bounds come from the
//! kernel's ladder [`RETRANSMIT`]: the RTO starts at its base and never
//! exceeds its cap, and a floor of [`MIN_RTO`](RttEstimator::MIN_RTO)
//! keeps a zero-variance estimate from spin-retransmitting. An estimator
//! with no samples therefore climbs exactly the static ladder.
//!
//! All arithmetic is integer nanoseconds with shift-based gains
//! (`err/8`, `|err|/4`), so the estimator is bit-deterministic and safe
//! to fold into the simulation's event hash.
//!
//! [`FaultConfig::with_adaptive`]: crate::FaultConfig::with_adaptive

use crate::RETRANSMIT;
use std::time::Duration;

/// SRTT/RTTVAR estimator with Karn's rule.
///
/// * `observe(sample, retransmitted=false)`: first sample sets
///   `SRTT = R`, `RTTVAR = R/2`; later samples apply Jacobson's gains
///   `SRTT += err/8`, `RTTVAR += (|err| - RTTVAR)/4`.
/// * `observe(_, retransmitted=true)`: discarded (Karn's rule — the
///   sample is ambiguous: it may time the retransmission, not the
///   original).
/// * `on_timeout()`: doubles the effective RTO (exponential backoff),
///   undone by the next accepted sample.
/// * `rto()`: `SRTT + 4*RTTVAR`, clamped to `[MIN_RTO, RETRANSMIT.cap]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RttEstimator {
    srtt_ns: Option<u64>,
    rttvar_ns: u64,
    /// Consecutive-timeout backoff exponent (Karn: keep the backed-off
    /// RTO until a sample from an unretransmitted exchange arrives).
    backoff: u32,
}

/// Cap on the backoff exponent: bounding the shift keeps the arithmetic
/// total, and every shifted RTO is clamped to `RETRANSMIT.cap` anyway.
const MAX_BACKOFF: u32 = 6;

impl RttEstimator {
    /// Floor under the computed RTO.
    pub const MIN_RTO: Duration = Duration::from_millis(1);

    /// Feeds one round-trip sample. Samples from retransmitted exchanges
    /// are discarded per Karn's rule.
    pub fn observe(&mut self, sample: Duration, retransmitted: bool) {
        if retransmitted {
            return;
        }
        self.backoff = 0;
        let s = sample.as_nanos().min(u128::from(u64::MAX)) as u64;
        match self.srtt_ns {
            None => {
                self.srtt_ns = Some(s);
                self.rttvar_ns = s / 2;
            }
            Some(m) => {
                let err = s as i64 - m as i64;
                let srtt = (m as i64 + err / 8).max(0) as u64;
                let var = self.rttvar_ns as i64;
                self.rttvar_ns = (var + (err.abs() - var) / 4).max(0) as u64;
                self.srtt_ns = Some(srtt);
            }
        }
    }

    /// Signals an exhausted exchange: the next ladder starts from a
    /// doubled RTO.
    pub fn on_timeout(&mut self) {
        self.backoff = (self.backoff + 1).min(MAX_BACKOFF);
    }

    /// The smoothed round-trip estimate, if any sample was accepted yet.
    pub fn srtt(&self) -> Option<Duration> {
        self.srtt_ns.map(Duration::from_nanos)
    }

    /// The mean-deviation estimate.
    pub fn rttvar(&self) -> Duration {
        Duration::from_nanos(self.rttvar_ns)
    }

    /// The base retransmission timeout `SRTT + 4*RTTVAR`, clamped to
    /// `[MIN_RTO, RETRANSMIT.cap]`; `RETRANSMIT.base` before the first
    /// sample. The
    /// timeout-backoff exponent is *not* applied here — see
    /// [`ladder`](Self::ladder).
    pub fn rto(&self) -> Duration {
        let raw = match self.srtt_ns {
            Some(m) => Duration::from_nanos(m.saturating_add(self.rttvar_ns.saturating_mul(4))),
            None => RETRANSMIT.base,
        };
        raw.clamp(Self::MIN_RTO, RETRANSMIT.cap)
    }

    /// The timeout for transmission `attempt` (1-based) of one exchange:
    /// the current RTO shifted left by the accumulated timeout backoff
    /// plus the in-exchange attempt index, capped at `RETRANSMIT.cap` — the
    /// adaptive replacement for the static ladder's
    /// [`nth`](crate::BackoffPolicy::nth).
    pub fn ladder(&self, attempt: u32) -> Duration {
        let shift = (self.backoff + attempt.saturating_sub(1)).min(MAX_BACKOFF);
        let rto = self.rto();
        rto.saturating_mul(1u32 << shift).min(RETRANSMIT.cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn first_sample_initializes_srtt_and_var() {
        let mut e = RttEstimator::default();
        assert_eq!(e.rto(), ms(5));
        e.observe(ms(4), false);
        assert_eq!(e.srtt(), Some(ms(4)));
        assert_eq!(e.rttvar(), ms(2));
        assert_eq!(e.rto(), ms(12)); // 4 + 4*2
    }

    #[test]
    fn constant_samples_shrink_variance_toward_zero() {
        let mut e = RttEstimator::default();
        for _ in 0..64 {
            e.observe(ms(3), false);
        }
        assert_eq!(e.srtt(), Some(ms(3)));
        assert!(e.rttvar() < Duration::from_micros(10), "{:?}", e.rttvar());
        // RTO collapses onto SRTT but respects the floor.
        assert!(e.rto() >= RttEstimator::MIN_RTO);
        assert!(e.rto() < ms(4));
    }

    #[test]
    fn karn_discards_retransmitted_samples() {
        let mut a = RttEstimator::default();
        let mut b = a;
        a.observe(ms(3), false);
        b.observe(ms(3), false);
        b.observe(ms(40), true); // must not move the estimate
        assert_eq!(a, b);
    }

    #[test]
    fn timeouts_double_the_rto_until_a_clean_sample() {
        let mut e = RttEstimator::default();
        e.observe(ms(2), false); // srtt 2, var 1 -> rto 6
        assert_eq!(e.ladder(1), ms(6));
        e.on_timeout();
        assert_eq!(e.ladder(1), ms(12));
        e.on_timeout();
        assert_eq!(e.ladder(1), ms(24));
        // In-exchange attempts stack on the timeout backoff, capped.
        assert_eq!(e.ladder(2), ms(48));
        assert_eq!(e.ladder(5), ms(80));
        // A clean sample resets the backoff (and shrinks the variance:
        // rttvar 1 ms -> 0.75 ms, so RTO is 2 + 4*0.75 = 5 ms).
        e.observe(ms(2), false);
        assert_eq!(e.ladder(1), ms(5));
    }
}
