//! Tests for the Merkle anti-entropy walk. Three things are pinned here,
//! all seed-independent by construction (the walk rides ordinary scheduled
//! messages):
//!
//! * **Gossip rides the walk.** With the authority partitioned away, the
//!   cold replica converges to its warm peer over gossip — and its
//!   `probe_rounds` counter, observed *inside* the cut, proves the round
//!   was a Merkle subtree walk rather than a whole-table digest.
//! * **Merkle ≡ flat, in-world.** The same partition→heal scenario run
//!   over the walk and over the legacy flat digest (the test-only
//!   differential oracle) adopts the same entries and converges to the
//!   same hash — only the probe counter tells them apart.
//! * **Determinism.** Equal seeds give equal observables on both paths.

use crate::seed;
use vnet::{FaultConfig, Params1984};
use vproto::{ContextId, ContextPair};
use vruntime::{sync_status, NameClient, Staleness};
use vservers::DegradedPrefixConfig;
use vsim::exp13::{measure_convergence_with, CUT_WIDTHS, DIVERGENCES};
use vsim::exp14::measure_gossip_convergence;
use vsim::world::{boot_world_cfg, WorldConfig};

#[test]
fn gossip_over_merkle_converges_under_a_dead_authority_for_any_seed() {
    // The cold replica hash-matches its warm peer while the authority is
    // unreachable, the probe counter witnesses that the gossip round was
    // a Merkle walk, and everything adopted answers Suspect until the
    // post-heal authority round vouches.
    let out = measure_gossip_convergence(seed());
    assert!(out.authority_down, "{out:?}");
    assert!(out.hash_equal_replicas, "{out:?}");
    assert!(out.gossip_rounds >= 1, "{out:?}");
    assert!(
        out.probe_rounds_during_cut > 0,
        "gossip never drove a subtree probe: {out:?}"
    );
    assert_eq!(
        out.staleness_during_cut,
        Some(Staleness::Suspect),
        "{out:?}"
    );
    assert_eq!(out.staleness_after_heal, Some(Staleness::Fresh), "{out:?}");
}

#[test]
fn merkle_and_flat_paths_converge_identically_for_any_seed() {
    // The in-world differential: every cut-width × divergence cell of the
    // EXP-13 matrix, run over the walk and over the flat oracle, adopts
    // the same entries, converges in one round, and ends hash-equal to
    // the authority — the probe counter is the only divergence.
    let s = seed();
    for width in CUT_WIDTHS {
        for divergence in DIVERGENCES {
            let merkle = measure_convergence_with(s, width, divergence, false);
            let flat = measure_convergence_with(s, width, divergence, true);
            assert!(merkle.hash_equal, "{merkle:?}");
            assert!(flat.hash_equal, "{flat:?}");
            assert_eq!(merkle.adopted, flat.adopted, "{merkle:?} vs {flat:?}");
            assert_eq!(merkle.rounds, 1, "{merkle:?}");
            assert_eq!(flat.rounds, 1, "{flat:?}");
            assert_eq!(merkle.staleness, Some(Staleness::Fresh), "{merkle:?}");
            assert_eq!(flat.staleness, Some(Staleness::Fresh), "{flat:?}");
            assert!(merkle.probe_rounds > 0, "walk never probed: {merkle:?}");
            assert_eq!(flat.probe_rounds, 0, "oracle probed: {flat:?}");
        }
    }
}

#[test]
fn client_sync_pull_rides_the_walk_for_any_seed() {
    // The client-API surface of the walk: `NameClient::sync_pull` asks a
    // replica to reconcile now, and the summary it returns reflects a
    // Merkle round — entries adopted, a nonzero authority epoch, not via
    // gossip — while the replica's probe counter and table hash witness
    // that the walk ran and converged.
    let world = boot_world_cfg(WorldConfig {
        faults: Some(FaultConfig::lossless(seed())),
        degraded: Some(DegradedPrefixConfig::default()),
        replicas: 1,
        ..WorldConfig::new(Params1984::ethernet_3mbit())
    });
    world.domain.run();
    let replica = world.replicas[0];
    let authority = world.prefix;
    let (local_fs, remote_fs) = (world.local_fs, world.remote_fs);
    // Authority-side churn the replica has not seen yet.
    world
        .domain
        .client(world.workstation, move |ctx| {
            let client = NameClient::new(ctx, ContextPair::new(local_fs, ContextId::DEFAULT));
            client
                .add_prefix("pulled", ContextPair::new(remote_fs, ContextId::DEFAULT))
                .expect("authority add");
        })
        .expect("churn driver completed");
    let (summary, rec, auth) = world
        .domain
        .client(world.server_machine, move |ctx| {
            let client = NameClient::new(ctx, ContextPair::new(local_fs, ContextId::DEFAULT));
            let summary = client.sync_pull(replica).expect("sync_pull");
            let rec = sync_status(ctx, replica).expect("replica status");
            let auth = sync_status(ctx, authority).expect("authority status");
            (summary, rec, auth)
        })
        .expect("pull driver completed");
    assert!(summary.adopted >= 1, "{summary:?}");
    assert!(summary.epoch > 0, "{summary:?}");
    assert!(!summary.via_gossip, "{summary:?}");
    assert!(rec.probe_rounds > 0, "round never probed: {rec:?}");
    assert_eq!(rec.table_hash, auth.table_hash, "{rec:?} vs {auth:?}");
}

#[test]
fn equal_seeds_produce_equal_merkle_observables() {
    let s = seed();
    assert_eq!(
        measure_gossip_convergence(s),
        measure_gossip_convergence(s),
        "same seed, same schedule: every observable differs"
    );
    let width = CUT_WIDTHS[1];
    let divergence = DIVERGENCES[1];
    assert_eq!(
        measure_convergence_with(s, width, divergence, false),
        measure_convergence_with(s, width, divergence, false),
        "merkle path: same seed, same schedule, different observables"
    );
    assert_eq!(
        measure_convergence_with(s, width, divergence, true),
        measure_convergence_with(s, width, divergence, true),
        "flat oracle: same seed, same schedule, different observables"
    );
}
