//! EXP-11 — The fault plane: `Open` latency and kernel retransmission
//! under message loss, and client recovery after a prefix-server crash.
//!
//! The paper's failure arguments (§2.2, §4.2) are qualitative: datagram
//! loss is masked by kernel retransmission, and a crashed name server is
//! recovered from by re-resolving with `GetPid` rather than by consulting
//! a (possibly stale) name cache. This experiment quantifies both on the
//! deterministic fault plane ([`vnet::FaultConfig`]):
//!
//! * a loss sweep p ∈ {0, 0.001, 0.01, 0.05} over the EXP-4 prefix-route
//!   `Open` cases — at p = 0 the rows must reproduce the paper's 5.14 ms
//!   (server local) and 7.69 ms (server remote);
//! * a prefix-server crash at a scheduled virtual time, a standby that
//!   restarts it `Δ` later with its table preloaded, and a client that
//!   retries with [`BackoffPolicy::recovery`] until the re-resolved server
//!   answers — recovery time is bounded below by `Δ`.
//!
//! Everything is seeded: equal seeds give bit-equal latencies, retry
//! counts and event hashes (enforced by the `vcheck` determinism gate).

use crate::exp4::{measure_open, OpenCase};
use crate::report::{ms, ExpReport, ExpRow};
use crate::world::{boot_world_with, login_bindings, sleep_until};
use std::time::Duration;
use vnaming::BackoffPolicy;
use vnet::{FaultConfig, Params1984};
use vproto::{ContextId, ContextPair};
use vruntime::NameClient;
use vservers::{prefix_server, PrefixConfig};

/// Default seed for the experiment's fault schedule.
pub const EXP11_SEED: u64 = 0x1984_0511;

/// The loss rates swept by the experiment.
pub const LOSS_RATES: [f64; 4] = [0.0, 0.001, 0.01, 0.05];

/// One point of the loss sweep.
#[derive(Debug, Clone, Copy)]
pub struct LossPoint {
    /// Per-transmission loss probability on remote hops.
    pub loss_p: f64,
    /// Mean prefix-route `Open`, target server local, in ms.
    pub open_local_ms: f64,
    /// Mean prefix-route `Open`, target server remote, in ms.
    pub open_remote_ms: f64,
    /// Kernel retransmissions over the whole sweep point.
    pub retransmits: u64,
    /// Remote transmissions dropped by the plane.
    pub drops: u64,
}

/// Measures the two prefix-route `Open` cases of EXP-4 under loss rate
/// `loss_p`, `iters` opens each, on a fresh world seeded with `seed`.
pub fn measure_loss_point(seed: u64, loss_p: f64, iters: u32) -> LossPoint {
    let world = boot_world_with(
        Params1984::ethernet_3mbit(),
        Some(FaultConfig::lossless(seed).with_loss(loss_p)),
    );
    let open_local_ms = ms(measure_open(&world, OpenCase::PrefixLocal, iters));
    let open_remote_ms = ms(measure_open(&world, OpenCase::PrefixRemote, iters));
    let stats = world.domain.fault_stats();
    LossPoint {
        loss_p,
        open_local_ms,
        open_remote_ms,
        retransmits: stats.retransmits,
        drops: stats.drops,
    }
}

/// Outcome of the crash/recovery measurement.
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    /// The restart delay Δ the standby waited before re-running the
    /// prefix server.
    pub restart_delay: Duration,
    /// Crash → first successful prefix-route `Open` on the restarted
    /// server. Necessarily ≥ `restart_delay`.
    pub recovery: Duration,
    /// Client-level retries spent during the outage.
    pub retries: u64,
    /// Transactions the client abandoned (must be 0: the budget of
    /// [`BackoffPolicy::recovery`] outlasts Δ).
    pub gave_up: u64,
}

/// Crashes the world's prefix server at a scheduled virtual time, restarts
/// it `restart_delay` later from a standby with its table preloaded (the
/// user's "login script" bindings), and measures how long a retrying
/// client takes to complete `Open("[remote]paper.txt")` again.
pub fn measure_recovery(seed: u64, restart_delay: Duration) -> Recovery {
    let world = boot_world_with(
        Params1984::ethernet_3mbit(),
        Some(FaultConfig::lossless(seed)),
    );
    let t0 = world.domain.run();
    let t_crash = t0 + Duration::from_millis(10);
    let t_restart = t_crash + restart_delay;
    world.domain.schedule_crash(world.prefix, t_crash);

    // The standby: sleeps through the outage, then re-runs the prefix
    // server with the standard bindings preloaded — soft state rebuilt
    // at boot, no re-add window (paper §6: prefixes come from the user's
    // profile, so a restart can replay them).
    let local_fs = world.local_fs;
    let preload_direct = login_bindings(local_fs, world.remote_fs);
    let wake = t_restart.as_duration();
    world
        .domain
        .spawn(world.workstation, "prefix-standby", move |ctx| {
            sleep_until(ctx, wake);
            prefix_server(
                ctx,
                PrefixConfig {
                    preload_direct,
                    ..PrefixConfig::default()
                },
            );
        });

    // The client: starts just after the crash, retries with the recovery
    // backoff until the re-registered server answers the GetPid re-query.
    let crash_at = t_crash.as_duration();
    let (success_at, stats) = world.client(move |ctx| {
        sleep_until(ctx, crash_at + Duration::from_millis(1));
        let mut client = NameClient::new(ctx, ContextPair::new(local_fs, ContextId::DEFAULT));
        client.set_retry_policy(BackoffPolicy::recovery());
        client
            .read_file("[remote]paper.txt")
            .expect("open succeeds once the prefix server is restarted");
        (ctx.now(), client.retry_stats())
    });

    Recovery {
        restart_delay,
        recovery: success_at - crash_at,
        retries: stats.retries,
        gave_up: stats.gave_up,
    }
}

/// Runs EXP-11.
pub fn run() -> ExpReport {
    let mut rep = ExpReport::new(
        "EXP-11",
        "Fault plane: Open under message loss, recovery after prefix-server crash",
    );
    for p in LOSS_RATES {
        let pt = measure_loss_point(EXP11_SEED, p, 20);
        if p == 0.0 {
            // The lossless plane must reproduce EXP-4's prefix rows.
            rep.push(ExpRow::with_paper(
                format!("open [prefix] local, p={p}"),
                OpenCase::PrefixLocal.paper_ms(),
                pt.open_local_ms,
                "ms",
            ));
            rep.push(ExpRow::with_paper(
                format!("open [prefix] remote, p={p}"),
                OpenCase::PrefixRemote.paper_ms(),
                pt.open_remote_ms,
                "ms",
            ));
        } else {
            rep.push(ExpRow::measured_only(
                format!("open [prefix] local, p={p}"),
                pt.open_local_ms,
                "ms",
            ));
            rep.push(ExpRow::measured_only(
                format!("open [prefix] remote, p={p}"),
                pt.open_remote_ms,
                "ms",
            ));
        }
        rep.push(ExpRow::measured_only(
            format!("kernel retransmits, p={p}"),
            pt.retransmits as f64,
            "msgs",
        ));
    }
    let rec = measure_recovery(EXP11_SEED, Duration::from_millis(200));
    rep.push(ExpRow::measured_only(
        "prefix crash -> restart delay",
        ms(rec.restart_delay),
        "ms",
    ));
    rep.push(ExpRow::measured_only(
        "prefix crash -> first successful open",
        ms(rec.recovery),
        "ms",
    ));
    rep.push(ExpRow::measured_only(
        "client retries during outage",
        rec.retries as f64,
        "tries",
    ));
    rep.note(
        "loss applies to remote hops only; the prefix-local route is all-local, so its \
         latency is loss-independent once the one-time GetPid binding is done",
    );
    rep.note(
        "loss is masked by the kernel's retransmission ladder (5 ms base, x2 backoff, \
         5 attempts) — clients see latency, not failure, until the ladder is exhausted",
    );
    rep.note(
        "recovery = crash -> first successful open through the restarted server; \
         bounded below by the restart delay, the excess is the client's backoff quantum",
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_rows_match_exp4_within_2pct() {
        let pt = measure_loss_point(EXP11_SEED, 0.0, 20);
        for (measured, paper) in [
            (pt.open_local_ms, OpenCase::PrefixLocal.paper_ms()),
            (pt.open_remote_ms, OpenCase::PrefixRemote.paper_ms()),
        ] {
            let dev = (measured - paper) / paper * 100.0;
            assert!(
                dev.abs() < 2.0,
                "measured {measured} paper {paper} ({dev:+.1}%)"
            );
        }
        assert_eq!(pt.retransmits, 0);
        assert_eq!(pt.drops, 0);
    }

    #[test]
    fn local_route_is_loss_independent() {
        // Loss only touches remote hops; the prefix-local open path is
        // all-local, so across the sweep it moves only by the one-time
        // GetPid binding broadcast, amortized over the iterations.
        let points: Vec<LossPoint> = LOSS_RATES
            .iter()
            .map(|&p| measure_loss_point(EXP11_SEED, p, 20))
            .collect();
        let base = points[0].open_local_ms;
        for pt in &points {
            assert!(
                (pt.open_local_ms - base).abs() / base < 0.05,
                "p={}: local {} vs lossless {}",
                pt.loss_p,
                pt.open_local_ms,
                base
            );
        }
    }

    #[test]
    fn loss_degrades_remote_latency_and_costs_retransmits() {
        let p_lo = measure_loss_point(EXP11_SEED, 0.001, 200);
        let p_hi = measure_loss_point(EXP11_SEED, 0.05, 200);
        assert!(p_hi.retransmits > p_lo.retransmits, "{p_hi:?} vs {p_lo:?}");
        assert!(p_hi.drops >= p_hi.retransmits);
        let p0 = measure_loss_point(EXP11_SEED, 0.0, 200);
        assert!(
            p_hi.open_remote_ms > p0.open_remote_ms,
            "retransmission must cost latency: {} vs {}",
            p_hi.open_remote_ms,
            p0.open_remote_ms
        );
    }

    #[test]
    fn recovery_is_bounded_below_by_restart_delay_and_uses_retries() {
        let delta = Duration::from_millis(200);
        let rec = measure_recovery(EXP11_SEED, delta);
        assert!(
            rec.recovery >= delta,
            "recovered in {:?} before the restart at {:?}",
            rec.recovery,
            delta
        );
        // The outage is survived by retrying, not by luck, and the
        // recovery budget never runs out.
        assert!(rec.retries >= 1, "{rec:?}");
        assert_eq!(rec.gave_up, 0, "{rec:?}");
        // Recovery is prompt: restart delay plus at most a couple of
        // backoff quanta (100 ms cap) and the failed attempts' own
        // GetPid broadcast costs — far below the policy's full budget.
        assert!(rec.recovery < delta + Duration::from_millis(300), "{rec:?}");
    }

    #[test]
    fn equal_seeds_give_equal_measurements() {
        let a = measure_loss_point(0xFA17, 0.01, 50);
        let b = measure_loss_point(0xFA17, 0.01, 50);
        assert_eq!(a.open_remote_ms, b.open_remote_ms);
        assert_eq!(a.retransmits, b.retransmits);
        assert_eq!(a.drops, b.drops);
    }
}
