//! Gossip and tombstone-GC tests. Gossip probes, digest rounds, and GC
//! all ride ordinary scheduled messages, so authority-down convergence and
//! the bounded-tombstone sawtooth are seed-independent — which is exactly
//! what these tests pin.

use crate::seed;
use vruntime::Staleness;
use vsim::exp14::{is_sawtooth, measure_gossip_convergence, measure_tombstone_bound, CHURN_OPS};

#[test]
fn gossip_converges_replicas_under_a_dead_authority_for_any_seed() {
    // The PR's first acceptance criterion, seed-independent: the cold
    // replica hash-matches its gossip peer while the authority is still
    // partitioned away, and the data it adopted answers Suspect until the
    // post-heal authority round flips it Fresh.
    let out = measure_gossip_convergence(seed());
    assert!(out.authority_down, "{out:?}");
    assert!(out.hash_equal_replicas, "{out:?}");
    assert!(out.gossip_adopted >= 3, "{out:?}");
    assert_eq!(
        out.staleness_during_cut,
        Some(Staleness::Suspect),
        "{out:?}"
    );
    assert_eq!(out.staleness_after_heal, Some(Staleness::Fresh), "{out:?}");
}

#[test]
fn tombstone_count_is_a_bounded_sawtooth_for_any_seed() {
    // The second acceptance criterion: under sustained define/delete
    // churn with both replicas pulling periodically, the authority's
    // tombstone count stays bounded (peak below the delete total), is
    // non-monotonic (the horizon GC visibly collects), and drains to
    // zero once every watermark passes the last delete.
    let out = measure_tombstone_bound(seed());
    assert!(out.peak < CHURN_OPS, "{out:?}");
    assert!(is_sawtooth(&out.samples), "{out:?}");
    assert_eq!(out.final_tombstones, 0, "{out:?}");
    assert!(out.hash_equal, "{out:?}");
}

#[test]
fn equal_seeds_produce_equal_gossip_observables() {
    let s = seed();
    assert_eq!(
        measure_gossip_convergence(s),
        measure_gossip_convergence(s),
        "same seed, same schedule: every observable differs"
    );
    assert_eq!(
        measure_tombstone_bound(s),
        measure_tombstone_bound(s),
        "same seed, same schedule: every observable differs"
    );
}
