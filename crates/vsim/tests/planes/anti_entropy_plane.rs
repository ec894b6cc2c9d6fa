//! Anti-entropy tests. Sync rounds are ordinary scheduled messages and
//! partition heals are pure schedules, so one-round convergence is
//! seed-independent even with a lossy plane underneath — which is exactly
//! what these tests pin.

use crate::seed;
use std::time::Duration;
use vnet::{FaultConfig, Params1984, Partition};
use vproto::{ContextId, ContextPair};
use vruntime::{sync_status, NameClient, Staleness};
use vservers::DegradedPrefixConfig;
use vsim::exp13::{
    measure_convergence, measure_fresh_rescue, measure_periodic, measure_restart_recovery,
};
use vsim::world::{boot_world_cfg, sleep_until, WorldConfig};

#[test]
fn one_sync_round_converges_for_any_seed() {
    // The PR's acceptance criterion, seed-independent: after the
    // heal-scheduled round the replica's table hashes identical to the
    // authority's, the resolve through it is Fresh, and the authority
    // answered zero binding queries to get there.
    let out = measure_convergence(seed(), Duration::from_millis(200), 8);
    assert!(out.hash_equal, "{out:?}");
    assert_eq!(out.rounds, 1, "{out:?}");
    assert_eq!(out.staleness, Some(Staleness::Fresh), "{out:?}");
    assert_eq!(out.authority_queries, 0, "{out:?}");
}

#[test]
fn equal_seeds_produce_equal_event_hashes_under_sync() {
    let s = seed();
    let w = Duration::from_millis(60);
    let a = measure_convergence(s, w, 1);
    let b = measure_convergence(s, w, 1);
    assert_eq!(a, b, "same seed, same schedule: every observable differs");
}

#[test]
fn crash_rescue_is_fresh_for_any_seed() {
    let out = measure_fresh_rescue(seed());
    assert_eq!(out.staleness, Some(Staleness::Fresh), "{out:?}");
    assert_eq!(out.fresh_from_replica, 1, "{out:?}");
}

#[test]
fn restart_recovery_converges_in_one_round_for_any_seed() {
    let out = measure_restart_recovery(seed());
    assert_eq!(out.rounds, 1, "{out:?}");
    assert!(out.hash_equal, "{out:?}");
}

#[test]
fn periodic_sync_catches_silent_divergence_for_any_seed() {
    let out = measure_periodic(seed());
    assert!(out.hash_equal, "{out:?}");
    assert!(out.periods_to_converge <= 1.0, "{out:?}");
}

/// Regression test: a suspicion whose TTL has elapsed must be swept even
/// when no query for that prefix ever arrives again. (The original code
/// only consulted the TTL lazily, on the next query for the same prefix —
/// a server could report armed suspicions forever.)
#[test]
fn suspect_ttl_expires_without_another_binding_query() {
    let world = boot_world_cfg(WorldConfig {
        faults: Some(FaultConfig::lossless(seed())),
        degraded: Some(DegradedPrefixConfig::default()),
        ..WorldConfig::new(Params1984::ethernet_3mbit())
    });
    let t0 = world.domain.run();
    let cut = t0 + Duration::from_millis(20);
    // A cut wider than the kernel's 155 ms ladder: the authority's
    // forward times out and arms a suspicion.
    world.domain.schedule_partition(Partition::between(
        world.workstation,
        world.server_machine,
        cut,
        Some(cut + Duration::from_millis(200)),
    ));
    let cut_at = cut.as_duration();
    let local_fs = world.local_fs;
    let authority = world.prefix;
    let (armed, after_ttl) = world.client(move |ctx| {
        let mut client = NameClient::new(ctx, ContextPair::new(local_fs, ContextId::DEFAULT));
        client.enable_degraded_mode();
        client.resolve("[remote]").expect("pre-cut resolve");
        sleep_until(ctx, cut_at + Duration::from_millis(5));
        // This resolve burns the forward ladder and arms the suspicion;
        // the degraded retry that answers it does not clear it.
        let _ = client.resolve("[remote]");
        let armed = sync_status(ctx, authority);
        // Sleep past heal + suspect TTL (50 ms) without issuing a single
        // further binding query, then poke the server with an *unrelated*
        // message: the sweep must have expired the entry.
        ctx.sleep(Duration::from_millis(400));
        let after_ttl = sync_status(ctx, authority);
        (armed, after_ttl)
    });
    let armed = armed.expect("authority answered status while suspect");
    let after_ttl = after_ttl.expect("authority answered status after TTL");
    assert!(armed.suspects >= 1, "suspicion never armed: {armed:?}");
    assert_eq!(after_ttl.suspects, 0, "{after_ttl:?}");
    assert!(
        after_ttl.suspects_expired >= 1,
        "TTL sweep never ran: {after_ttl:?}"
    );
}
