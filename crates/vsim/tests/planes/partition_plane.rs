//! Partition-plane tests. Partitions themselves draw no randomness (they
//! are pure schedules), so the degraded-resolution outcomes are
//! seed-independent even when a lossy plane runs underneath — which is
//! exactly what these tests pin.

use crate::seed;
use std::time::Duration;
use vnet::{FaultConfig, FaultStats, Params1984, Partition};
use vproto::{ContextId, ContextPair, OpenMode};
use vruntime::{DegradedStats, NameClient, Staleness};
use vservers::DegradedPrefixConfig;
use vsim::exp12::{measure_asymmetric, measure_replica_rescue};
use vsim::world::{boot_world_cfg, sleep_until, WorldConfig};

/// A canned scenario combining a lossy plane with a 200 ms symmetric
/// workstation↔server cut: a warm resolve, a during-cut resolve (which
/// must be served degraded), and a post-heal open. Returns everything
/// observable.
fn partitioned_lossy_scenario(s: u64) -> (u64, FaultStats, Option<Staleness>, DegradedStats) {
    let world = boot_world_cfg(WorldConfig {
        faults: Some(FaultConfig::lossless(s).with_loss(0.02)),
        degraded: Some(DegradedPrefixConfig::default()),
        ..WorldConfig::new(Params1984::ethernet_3mbit())
    });
    let t0 = world.domain.run();
    let cut = t0 + Duration::from_millis(20);
    world.domain.schedule_partition(Partition::between(
        world.workstation,
        world.server_machine,
        cut,
        Some(cut + Duration::from_millis(200)),
    ));
    let cut_at = cut.as_duration();
    let local_fs = world.local_fs;
    let (staleness, dstats) = world.client(move |ctx| {
        let mut client = NameClient::new(ctx, ContextPair::new(local_fs, ContextId::DEFAULT));
        client.enable_degraded_mode();
        client.resolve("[remote]").expect("pre-cut resolve");
        sleep_until(ctx, cut_at + Duration::from_millis(5));
        let during = client.resolve("[remote]").ok();
        sleep_until(ctx, cut_at + Duration::from_millis(300));
        client
            .open("[remote]paper.txt", OpenMode::Read)
            .expect("post-heal open");
        (during.map(|b| b.staleness), client.degraded_stats())
    });
    (
        world.domain.event_hash(),
        world.domain.fault_stats(),
        staleness,
        dstats,
    )
}

#[test]
fn equal_seeds_produce_equal_event_hashes_under_partitions() {
    let s = seed();
    let a = partitioned_lossy_scenario(s);
    let b = partitioned_lossy_scenario(s);
    assert_eq!(a, b, "same seed, same schedule: every observable differs");
}

#[test]
fn resolution_during_a_partition_is_suspect_not_a_timeout() {
    // The PR's acceptance criterion: while a single host is unreachable,
    // name resolution still succeeds — served degraded and honestly
    // tagged — instead of surfacing the kernel's timeout. Holds for any
    // seed: the cut severs every retransmission regardless of loss draws.
    let (_, _, staleness, dstats) = partitioned_lossy_scenario(seed());
    assert_eq!(staleness, Some(Staleness::Suspect), "{dstats:?}");
    assert!(dstats.suspect_bindings >= 1, "{dstats:?}");
    assert_eq!(dstats.authority_failures, 0, "{dstats:?}");
}

#[test]
fn partition_accounting_balances() {
    // The extended conservation law: every remote attempt the plane took
    // away — by loss or by severance — is accounted for as a retransmit
    // wait or an exhausted ladder. No silent drops.
    let (_, kernel, _, _) = partitioned_lossy_scenario(seed());
    assert!(kernel.partition_drops > 0, "{kernel:?}");
    assert_eq!(
        kernel.drops + kernel.partition_drops,
        kernel.retransmits + kernel.exhausted * 5,
        "{kernel:?}"
    );
}

#[test]
fn asymmetric_cut_is_rescued_by_the_name_cache() {
    // Replies severed, requests delivered: the prefix server never sees a
    // forward fail, so only the client-side cache can answer.
    let out = measure_asymmetric(seed(), Duration::from_millis(400));
    assert_eq!(out.staleness, Some(Staleness::Suspect), "{out:?}");
    assert_eq!(out.cache_fallbacks, 1, "{out:?}");
}

#[test]
fn prefix_crash_is_rescued_by_the_replica_for_any_seed() {
    let out = measure_replica_rescue(seed());
    assert_eq!(out.staleness, Some(Staleness::Suspect), "{out:?}");
    assert_eq!(out.replica_fallbacks, 1, "{out:?}");
}
