//! EXP-12 — Partition-tolerant naming: resolution across partition→heal
//! timelines, asymmetric link cuts, a replica rescue after a prefix-server
//! crash, and the adaptive RTT-estimated retransmission ladder.
//!
//! EXP-11 measured *loss* — independent per-message drops the kernel's
//! retransmission ladder masks. This experiment measures *partitions*:
//! correlated, directed unreachability, where every retransmission of the
//! ladder is severed too and the kernel cannot tell a dead host from an
//! alive-but-unreachable one (the paper's §2.2/§4.2 failure model never
//! distinguishes them). Four questions:
//!
//! * **Width sweep** — a symmetric workstation↔server cut of width
//!   W ∈ {0, 60, 200} ms. At W = 0 the degraded-mode machinery must be
//!   latency-free: the prefix-route `Open` rows must reproduce EXP-4's
//!   5.14 / 7.69 ms. A 60 ms cut is *narrower than the kernel's ladder
//!   span* (attempts at +0/5/15/35/75 ms), so a forward started inside it
//!   rides through the heal and resolution stays `Fresh` — slow, not
//!   degraded. A 200 ms cut outlives the ladder: the prefix server's
//!   forward burns all 155 ms, arms a suspicion, and the client's retry is
//!   answered from the prefix table tagged [`Staleness::Suspect`] instead
//!   of erroring.
//! * **Asymmetric cut** — only server→workstation (the reply direction) is
//!   severed. Requests deliver, so the prefix server's forward *succeeds*
//!   and no suspicion ever arms; the client's own name cache is what
//!   rescues resolution, again tagged `Suspect`.
//! * **Replica rescue** — the workstation prefix server crashes. `GetPid`
//!   rebinding fails (the replica registers local-only on the server
//!   machine), so the one road left is the multicast to the replica
//!   group, answered degraded by the non-authoritative replica.
//! * **Adaptive ladder** — under 5% loss, the Jacobson/Karn estimator
//!   ([`vnet::RttEstimator`]) converges its RTO to the observed RTT and
//!   recovers lost remote opens faster than the static 5 ms-base ladder.
//!
//! Everything is seeded and scheduled: equal seeds give bit-equal
//! latencies, staleness tags and kernel event hashes (partition-severed
//! attempts fold into the hash as their own event kind), enforced by the
//! `vcheck` determinism gate.

use crate::exp4::{measure_open, OpenCase};
use crate::report::{ms, ExpReport, ExpRow};
use crate::world::{boot_world_cfg, boot_world_with, sleep_until, SimWorld, WorldConfig};
use std::time::Duration;
use vnaming::BackoffPolicy;
use vnet::{FaultConfig, Params1984, Partition, RttConfig};
use vproto::{ContextId, ContextPair, OpenMode};
use vruntime::{NameClient, Staleness};
use vservers::DegradedPrefixConfig;

/// Default seed for the experiment's fault schedules.
pub const EXP12_SEED: u64 = 0x1984_0C12;

/// Symmetric partition widths swept (0 ms is the control point).
pub const PARTITION_WIDTHS: [Duration; 3] = [
    Duration::ZERO,
    Duration::from_millis(60),
    Duration::from_millis(200),
];

/// The standard world with degraded-mode resolution on the workstation
/// prefix server, under a lossless seeded plane (partitions are scheduled
/// per run; they draw no randomness), with `replicas` prefix replicas.
fn degraded_world(seed: u64, replicas: usize) -> SimWorld {
    boot_world_cfg(WorldConfig {
        faults: Some(FaultConfig::lossless(seed)),
        degraded: Some(DegradedPrefixConfig::default()),
        replicas,
        ..WorldConfig::new(Params1984::ethernet_3mbit())
    })
}

/// The control measurement: the degraded world with nothing scheduled.
/// Returns the two prefix-route `Open` means (ms) — these must reproduce
/// EXP-4, i.e. degraded mode costs nothing while the network is healthy.
pub fn measure_control(seed: u64, iters: u32) -> (f64, f64) {
    let world = degraded_world(seed, 0);
    let local = ms(measure_open(&world, OpenCase::PrefixLocal, iters));
    let remote = ms(measure_open(&world, OpenCase::PrefixRemote, iters));
    (local, remote)
}

/// Outcome of one symmetric-partition run.
#[derive(Debug, Clone, Copy)]
pub struct PartitionOutcome {
    /// The cut's width.
    pub width: Duration,
    /// Elapsed time of a `resolve("[remote]")` issued 5 ms into the cut.
    pub resolve_during: Duration,
    /// How that resolution was answered (`None` = it failed outright).
    pub staleness: Option<Staleness>,
    /// Suspect bindings the client accumulated over the run.
    pub suspects: u64,
    /// Transmission attempts the plane severed.
    pub partition_drops: u64,
    /// An `Open` issued after the heal and the suspicion TTL: the
    /// authoritative path must be back to normal latency.
    pub open_after_heal: Duration,
    /// Kernel event-stream hash at quiescence (determinism witness).
    pub event_hash: u64,
}

/// Cuts workstation↔server symmetrically for `width`, starting 20 ms
/// after boot, and drives a degraded-mode client across the timeline:
/// a warm resolve before the cut, one during, one `Open` after the heal.
pub fn measure_partition(seed: u64, width: Duration) -> PartitionOutcome {
    let world = degraded_world(seed, 0);
    let t0 = world.domain.run();
    let cut_start = t0 + Duration::from_millis(20);
    world.domain.schedule_partition(Partition::between(
        world.workstation,
        world.server_machine,
        cut_start,
        Some(cut_start + width),
    ));
    let cut_at = cut_start.as_duration();
    let local_fs = world.local_fs;
    let (resolve_during, staleness, open_after_heal, stats) = world.client(move |ctx| {
        let mut client = NameClient::new(ctx, ContextPair::new(local_fs, ContextId::DEFAULT));
        client.enable_degraded_mode();
        // Warm resolution while the network is whole: Fresh, fills the
        // name cache the degraded fallback may later need.
        client.resolve("[remote]").expect("pre-cut resolve");
        sleep_until(ctx, cut_at + Duration::from_millis(5));
        let t = ctx.now();
        let during = client.resolve("[remote]").ok();
        let resolve_during = ctx.now() - t;
        // Past the heal and the suspicion TTL: the next request probes the
        // authoritative path again.
        sleep_until(ctx, cut_at + width + Duration::from_millis(80));
        let t = ctx.now();
        client
            .open("[remote]paper.txt", OpenMode::Read)
            .expect("post-heal open");
        let open_after_heal = ctx.now() - t;
        (
            resolve_during,
            during.map(|b| b.staleness),
            open_after_heal,
            client.degraded_stats(),
        )
    });
    PartitionOutcome {
        width,
        resolve_during,
        staleness,
        suspects: stats.suspect_bindings,
        partition_drops: world.domain.fault_stats().partition_drops,
        open_after_heal,
        event_hash: world.domain.event_hash(),
    }
}

/// Outcome of the asymmetric (reply-direction) cut.
#[derive(Debug, Clone, Copy)]
pub struct AsymmetricOutcome {
    /// Elapsed time of the during-cut resolution.
    pub resolve_during: Duration,
    /// How it was answered (`None` = it failed outright).
    pub staleness: Option<Staleness>,
    /// Resolutions rescued by the client's own name cache.
    pub cache_fallbacks: u64,
    /// Kernel event-stream hash at quiescence.
    pub event_hash: u64,
}

/// Severs only server→workstation for `width`: requests deliver, replies
/// do not. The prefix server's forward succeeds, so suspicion never arms —
/// the client's name cache is the only degraded path that can answer.
pub fn measure_asymmetric(seed: u64, width: Duration) -> AsymmetricOutcome {
    let world = degraded_world(seed, 0);
    let t0 = world.domain.run();
    let cut_start = t0 + Duration::from_millis(20);
    world.domain.schedule_partition(Partition::one_way(
        world.server_machine,
        world.workstation,
        cut_start,
        Some(cut_start + width),
    ));
    let cut_at = cut_start.as_duration();
    let local_fs = world.local_fs;
    let (resolve_during, staleness, stats) = world.client(move |ctx| {
        let mut client = NameClient::new(ctx, ContextPair::new(local_fs, ContextId::DEFAULT));
        client.enable_degraded_mode();
        // Two attempts are enough to prove the authoritative path is out;
        // each one burns the replier's full ladder (~155 ms), so a bigger
        // budget only pads the measurement.
        client.set_retry_policy(BackoffPolicy {
            max_attempts: 2,
            ..BackoffPolicy::default()
        });
        client.resolve("[remote]").expect("pre-cut resolve");
        sleep_until(ctx, cut_at + Duration::from_millis(5));
        let t = ctx.now();
        let during = client.resolve("[remote]").ok();
        (
            ctx.now() - t,
            during.map(|b| b.staleness),
            client.degraded_stats(),
        )
    });
    AsymmetricOutcome {
        resolve_during,
        staleness,
        cache_fallbacks: stats.cache_fallbacks,
        event_hash: world.domain.event_hash(),
    }
}

/// Outcome of the prefix-crash replica rescue.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaOutcome {
    /// Elapsed time of the post-crash resolution.
    pub resolve: Duration,
    /// How it was answered (`None` = it failed outright).
    pub staleness: Option<Staleness>,
    /// Resolutions rescued by the replica-group multicast.
    pub replica_fallbacks: u64,
    /// Kernel event-stream hash at quiescence.
    pub event_hash: u64,
}

/// Crashes the workstation prefix server, then resolves from a client
/// booted after the crash: local discovery and `GetPid` rebinding both
/// fail (the replica is invisible to discovery by design), so the
/// multicast to the replica group is what answers — `Suspect`, because
/// nobody authoritative vouched for it.
pub fn measure_replica_rescue(seed: u64) -> ReplicaOutcome {
    let world = degraded_world(seed, 1);
    let t0 = world.domain.run();
    let t_crash = t0 + Duration::from_millis(10);
    world.domain.schedule_crash(world.prefix, t_crash);
    let crash_at = t_crash.as_duration();
    let local_fs = world.local_fs;
    let group = world.replica_group.expect("replica world has a group");
    let (resolve, staleness, stats) = world.client(move |ctx| {
        sleep_until(ctx, crash_at + Duration::from_millis(1));
        let mut client = NameClient::new(ctx, ContextPair::new(local_fs, ContextId::DEFAULT));
        client.enable_degraded_mode();
        client.set_replica_group(group);
        let t = ctx.now();
        let b = client.resolve("[remote]").ok();
        (
            ctx.now() - t,
            b.map(|b| b.staleness),
            client.degraded_stats(),
        )
    });
    ReplicaOutcome {
        resolve,
        staleness,
        replica_fallbacks: stats.replica_fallbacks,
        event_hash: world.domain.event_hash(),
    }
}

/// Outcome of the static-vs-adaptive ladder comparison.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveOutcome {
    /// Mean remote `Open` under loss with the static ladder, ms.
    pub static_ms: f64,
    /// Same workload with the adaptive RTT-estimated ladder, ms.
    pub adaptive_ms: f64,
    /// The estimator's converged SRTT, ms (None if it never sampled).
    pub srtt_ms: Option<f64>,
}

/// Measures `OpenCase::CurrentRemote` (the case whose sends sample RTT)
/// under loss rate `loss_p`, once per ladder. Same seed both times, so
/// the loss pattern is identical and only the pacing differs.
pub fn measure_adaptive_gain(seed: u64, loss_p: f64, iters: u32) -> AdaptiveOutcome {
    let static_world = boot_world_with(
        Params1984::ethernet_3mbit(),
        Some(FaultConfig::lossless(seed).with_loss(loss_p)),
    );
    let static_ms = ms(measure_open(&static_world, OpenCase::CurrentRemote, iters));
    let adaptive_world = boot_world_with(
        Params1984::ethernet_3mbit(),
        Some(
            FaultConfig::lossless(seed)
                .with_loss(loss_p)
                .with_adaptive(RttConfig::default()),
        ),
    );
    let adaptive_ms = ms(measure_open(
        &adaptive_world,
        OpenCase::CurrentRemote,
        iters,
    ));
    AdaptiveOutcome {
        static_ms,
        adaptive_ms,
        srtt_ms: adaptive_world.domain.srtt().map(ms),
    }
}

/// Runs EXP-12.
pub fn run() -> ExpReport {
    let mut rep = ExpReport::new(
        "EXP-12",
        "Partition-tolerant naming: degraded resolution across partition/heal, adaptive retransmission",
    );
    let (local, remote) = measure_control(EXP12_SEED, 20);
    rep.push(ExpRow::with_paper(
        "open [prefix] local, no partition",
        OpenCase::PrefixLocal.paper_ms(),
        local,
        "ms",
    ));
    rep.push(ExpRow::with_paper(
        "open [prefix] remote, no partition",
        OpenCase::PrefixRemote.paper_ms(),
        remote,
        "ms",
    ));
    for width in PARTITION_WIDTHS {
        let out = measure_partition(EXP12_SEED, width);
        let w = width.as_millis();
        let tag = match out.staleness {
            Some(Staleness::Fresh) => "fresh",
            Some(Staleness::Suspect) => "suspect",
            None => "failed",
        };
        rep.push(ExpRow::measured_only(
            format!("resolve [remote] during {w} ms cut ({tag})"),
            ms(out.resolve_during),
            "ms",
        ));
        rep.push(ExpRow::measured_only(
            format!("attempts severed, {w} ms cut"),
            out.partition_drops as f64,
            "msgs",
        ));
        rep.push(ExpRow::measured_only(
            format!("open [remote] after {w} ms cut heals"),
            ms(out.open_after_heal),
            "ms",
        ));
    }
    let asym = measure_asymmetric(EXP12_SEED, Duration::from_millis(400));
    rep.push(ExpRow::measured_only(
        "resolve during asymmetric cut (replies severed)",
        ms(asym.resolve_during),
        "ms",
    ));
    rep.push(ExpRow::measured_only(
        "cache fallbacks, asymmetric cut",
        asym.cache_fallbacks as f64,
        "count",
    ));
    let rescue = measure_replica_rescue(EXP12_SEED);
    rep.push(ExpRow::measured_only(
        "resolve after prefix crash (replica multicast)",
        ms(rescue.resolve),
        "ms",
    ));
    rep.push(ExpRow::measured_only(
        "replica fallbacks, prefix crash",
        rescue.replica_fallbacks as f64,
        "count",
    ));
    let ad = measure_adaptive_gain(EXP12_SEED, 0.05, 200);
    rep.push(ExpRow::measured_only(
        "open remote, 5% loss, static ladder",
        ad.static_ms,
        "ms",
    ));
    rep.push(ExpRow::measured_only(
        "open remote, 5% loss, adaptive ladder",
        ad.adaptive_ms,
        "ms",
    ));
    rep.push(ExpRow::measured_only(
        "converged SRTT, adaptive ladder",
        ad.srtt_ms.unwrap_or(0.0),
        "ms",
    ));
    rep.note(
        "a cut narrower than the kernel ladder span (75 ms to the last attempt) is masked \
         by retransmission: resolution stays fresh, just slower; a cut wider than the \
         155 ms ladder arms a suspicion and the retry is answered suspect from the \
         prefix table instead of erroring",
    );
    rep.note(
        "the asymmetric cut severs only replies, so the prefix server's forward succeeds \
         and no suspicion arms — the client's own name cache is the fallback that answers",
    );
    rep.note(
        "suspect means served without the authority vouching (prefix table, client cache, \
         or replica); the kernel itself cannot distinguish dead from unreachable",
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_rows_match_exp4_within_2pct() {
        let (local, remote) = measure_control(EXP12_SEED, 20);
        for (measured, paper) in [
            (local, OpenCase::PrefixLocal.paper_ms()),
            (remote, OpenCase::PrefixRemote.paper_ms()),
        ] {
            let dev = (measured - paper) / paper * 100.0;
            assert!(
                dev.abs() < 2.0,
                "measured {measured} paper {paper} ({dev:+.1}%)"
            );
        }
    }

    #[test]
    fn zero_width_cut_changes_nothing() {
        let out = measure_partition(EXP12_SEED, Duration::ZERO);
        assert_eq!(out.staleness, Some(Staleness::Fresh), "{out:?}");
        assert_eq!(out.suspects, 0, "{out:?}");
        assert_eq!(out.partition_drops, 0, "{out:?}");
    }

    #[test]
    fn narrow_cut_is_masked_by_the_ladder() {
        let out = measure_partition(EXP12_SEED, Duration::from_millis(60));
        // The forward started inside the cut rides its retransmission
        // ladder through the heal: fresh, not degraded — but it paid for
        // the severed attempts in latency.
        assert_eq!(out.staleness, Some(Staleness::Fresh), "{out:?}");
        assert_eq!(out.suspects, 0, "{out:?}");
        assert!(out.partition_drops > 0, "{out:?}");
        assert!(
            out.resolve_during > Duration::from_millis(50),
            "riding the ladder through the heal must cost real time: {out:?}"
        );
    }

    #[test]
    fn wide_cut_resolves_suspect_instead_of_erroring() {
        let out = measure_partition(EXP12_SEED, Duration::from_millis(200));
        // The acceptance criterion: during a cut wider than the kernel
        // ladder, resolution still succeeds — served degraded, tagged
        // suspect — rather than surfacing a timeout.
        assert_eq!(out.staleness, Some(Staleness::Suspect), "{out:?}");
        assert!(out.suspects >= 1, "{out:?}");
        assert!(out.partition_drops > 0, "{out:?}");
        // And after heal + TTL the authoritative path is back to normal
        // (a plain remote prefix open, well under the ladder span).
        assert!(out.open_after_heal < Duration::from_millis(20), "{out:?}");
    }

    #[test]
    fn asymmetric_cut_falls_back_to_the_name_cache() {
        let out = measure_asymmetric(EXP12_SEED, Duration::from_millis(400));
        assert_eq!(out.staleness, Some(Staleness::Suspect), "{out:?}");
        assert_eq!(out.cache_fallbacks, 1, "{out:?}");
    }

    #[test]
    fn prefix_crash_is_rescued_by_the_replica_multicast() {
        let out = measure_replica_rescue(EXP12_SEED);
        assert_eq!(out.staleness, Some(Staleness::Suspect), "{out:?}");
        assert_eq!(out.replica_fallbacks, 1, "{out:?}");
    }

    #[test]
    fn adaptive_ladder_beats_the_static_one_under_loss() {
        let ad = measure_adaptive_gain(EXP12_SEED, 0.05, 200);
        assert!(
            ad.adaptive_ms < ad.static_ms,
            "adaptive {} vs static {}",
            ad.adaptive_ms,
            ad.static_ms
        );
        // The estimator converged to something in the right ballpark for
        // a remote open transaction (and well under the 5 ms initial RTO).
        let srtt = ad.srtt_ms.expect("remote sends sampled RTT");
        assert!(srtt > 0.5 && srtt < 5.0, "srtt {srtt}");
    }

    #[test]
    fn equal_seeds_give_equal_event_hashes() {
        let w = Duration::from_millis(200);
        assert_eq!(
            measure_partition(EXP12_SEED, w).event_hash,
            measure_partition(EXP12_SEED, w).event_hash
        );
        assert_eq!(
            measure_asymmetric(EXP12_SEED, w).event_hash,
            measure_asymmetric(EXP12_SEED, w).event_hash
        );
        assert_eq!(
            measure_replica_rescue(EXP12_SEED).event_hash,
            measure_replica_rescue(EXP12_SEED).event_hash
        );
    }
}
