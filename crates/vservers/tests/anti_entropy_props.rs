//! Property tests: anti-entropy convergence of the versioned prefix table.
//!
//! The convergence argument in DESIGN.md rests on properties of
//! [`vservers::SyncTable`] that must hold for *every* interleaving of
//! authority churn, (possibly failing) sync rounds, replica↔replica
//! gossip, and tombstone GC — not just the schedules the experiments
//! happen to drive:
//!
//! 1. per-prefix epochs never regress, on any table, at any step (a
//!    prefix may *disappear*, but only a tombstone at or below that
//!    table's GC horizon);
//! 2. once connectivity returns, a bounded number of successful rounds
//!    makes every replica hash identical to the authority — with all
//!    mutually-adopted tombstones collected;
//! 3. a failed round (digest lost, or reply lost) changes nothing at the
//!    replica — partial application is impossible by construction;
//! 4. GC safety: a tombstone is collected only after every known
//!    replica's watermark passed it, and a collected delete is never
//!    resurrected — not by a sync round, not by gossip from a peer that
//!    missed the delete;
//! 5. the Merkle walk is a pure optimisation: under the *same* schedule,
//!    Merkle rounds and legacy flat-digest rounds leave every table
//!    byte-identical (same digests, same `table_hash`, same watermarks
//!    and horizons) at every step;
//! 6. a Merkle walk aborted at *any* probe — not just the two fates the
//!    flat path can express — is invisible at the puller.
//!
//! 7. the sharded snapshot view is a pure read-path optimisation: a
//!    [`vservers::ShardedTable`] driven by the same schedule (publishing
//!    after every op, as the server's loop does) keeps its inner table
//!    byte-identical to a plain [`vservers::SyncTable`] — same digests,
//!    `table_hash`, and per-shard Merkle roots — and its snapshot always
//!    answers exactly what the table's live set answers;
//! 8. publication is atomic: a reader holding a [`vservers::ResolverHandle`]
//!    never observes part of a mutation batch — entries written together
//!    before one `publish` appear together or not at all, even across
//!    shard boundaries and from a concurrent thread.
//!
//! Replicas here drift under an arbitrary seeded schedule: defines and
//! deletes land at the authority while sync and gossip rounds succeed or
//! fail according to the generated fate of each round. Properties 1–4
//! predate the Merkle digest and run *unmodified* against it: the round
//! helpers below drive [`vservers::merkle_round`] (the production path),
//! with [`vservers::flat_round`] retained as the differential oracle.

use proptest::prelude::*;
use std::collections::BTreeMap;
use vproto::SyncBinding;
use vservers::{flat_round, merkle_round, RoundFate, RoundKind, ShardedTable, SyncTable};

/// A small prefix pool so generated schedules collide on names (the
/// interesting case: redefinitions, delete-then-redefine, stale preloads).
const PREFIX_POOL: u8 = 8;

fn name(i: u8) -> Vec<u8> {
    format!("p{}", i % PREFIX_POOL).into_bytes()
}

fn bind(target: u32) -> SyncBinding {
    SyncBinding {
        logical: target.is_multiple_of(2),
        target,
        context: target ^ 0x5a,
    }
}

/// One step of a generated schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// The authority defines (or redefines) a prefix.
    Define(u8, u32),
    /// The authority deletes a prefix (stamping a tombstone if known).
    Delete(u8),
    /// A replica attempts a sync round; `fate` is the round's seeded
    /// outcome: 0 = success, 1 = digest lost in flight (nothing happens
    /// anywhere), 2 = reply lost (the authority saw the digest, the
    /// replica applies nothing).
    Sync { replica: u8, fate: u8 },
    /// Replica `to` runs one gossip round against the other replica.
    Gossip { to: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u32>()).prop_map(|(i, t)| Op::Define(i, t)),
        any::<u8>().prop_map(Op::Delete),
        (any::<u8>(), 0u8..3).prop_map(|(r, fate)| Op::Sync {
            replica: r % 2,
            fate
        }),
        any::<u8>().prop_map(|d| Op::Gossip { to: d % 2 }),
    ]
}

/// Maps a schedule's seeded fate code to a wire fate. `1` (digest lost in
/// flight) kills the very first request; `2` (reply lost) delivers every
/// request but drops the final reply — the responder's side effects
/// complete, the puller applies nothing.
fn fate_of(code: u8) -> RoundFate {
    match code {
        1 => RoundFate {
            drop_request_at: Some(0),
            lose_final_reply: false,
        },
        2 => RoundFate {
            drop_request_at: None,
            lose_final_reply: true,
        },
        _ => RoundFate::DELIVERED,
    }
}

/// One pull round exactly as `prefix.rs` runs it — over the production
/// Merkle walk. The authority records the replica's watermark and collects
/// at the recomputed horizon; on a delivered round the replica atomically
/// adopts the delta, advances its watermark to the authority's epoch, and
/// collects at the advertised horizon.
fn sync_round(
    auth: &mut SyncTable,
    replica: &mut SyncTable,
    replica_id: u32,
    fate: u8,
    now_ns: u64,
) {
    merkle_round(
        auth,
        replica,
        RoundKind::Authority { replica_id },
        now_ns,
        fate_of(fate),
    );
}

/// One gossip round exactly as `prefix.rs` runs it: a Merkle walk against
/// a peer replica, applied unverified. Watermarks and horizons do not
/// move — gossip spreads data, not certainty.
fn gossip_round(peer: &mut SyncTable, replica: &mut SyncTable, now_ns: u64) {
    merkle_round(
        peer,
        replica,
        RoundKind::Gossip,
        now_ns,
        RoundFate::DELIVERED,
    );
}

/// The legacy whole-table digest round, kept as the differential oracle.
fn flat_sync_round(
    auth: &mut SyncTable,
    replica: &mut SyncTable,
    replica_id: u32,
    fate: u8,
    now_ns: u64,
) {
    flat_round(
        auth,
        replica,
        RoundKind::Authority { replica_id },
        now_ns,
        fate_of(fate),
    );
}

/// The legacy flat gossip round, kept as the differential oracle.
fn flat_gossip_round(peer: &mut SyncTable, replica: &mut SyncTable, now_ns: u64) {
    flat_round(
        peer,
        replica,
        RoundKind::Gossip,
        now_ns,
        RoundFate::DELIVERED,
    );
}

/// Snapshot of every `(prefix, epoch)` pair, tombstones included.
fn epochs(t: &SyncTable) -> BTreeMap<Vec<u8>, u64> {
    t.digest()
        .into_iter()
        .map(|d| (d.prefix, d.epoch))
        .collect()
}

/// Asserts no prefix moved to an older epoch, and none disappeared except
/// by tombstone GC (epoch at or below the table's current GC horizon).
fn check_monotone(
    before: &BTreeMap<Vec<u8>, u64>,
    after: &BTreeMap<Vec<u8>, u64>,
    gc_horizon: u64,
) -> Result<(), TestCaseError> {
    for (prefix, e_before) in before {
        match after.get(prefix) {
            Some(e_after) => prop_assert!(
                e_after >= e_before,
                "epoch regressed for {:?}: {} -> {}",
                prefix,
                e_before,
                e_after
            ),
            None => prop_assert!(
                *e_before <= gc_horizon,
                "{:?} vanished at epoch {} above the GC horizon {}",
                prefix,
                e_before,
                gc_horizon
            ),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline property: replicas diverging under an arbitrary
    /// schedule of authority churn, lossy sync rounds, and gossip
    /// converge to the authority's exact table hash once rounds stop
    /// failing — and epochs never regress anywhere along the way (prefix
    /// disappearance is legal only through horizon GC).
    #[test]
    fn replicas_converge_after_heal_for_any_schedule(
        preload_a in proptest::collection::vec(any::<u8>(), 0..6),
        preload_b in proptest::collection::vec(any::<u8>(), 0..6),
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let mut auth = SyncTable::new();
        let mut reps = [SyncTable::new(), SyncTable::new()];
        for i in preload_a {
            reps[0].preload(name(i), bind(u32::from(i)));
        }
        for i in preload_b {
            reps[1].preload(name(i), bind(u32::from(i)));
        }

        let mut now_ns: u64 = 1_000;
        let mut snaps = [epochs(&auth), epochs(&reps[0]), epochs(&reps[1])];
        for op in &ops {
            now_ns += 1_000;
            match *op {
                Op::Define(i, t) => auth.define(name(i), bind(t), now_ns),
                Op::Delete(i) => {
                    auth.tombstone(&name(i), now_ns);
                }
                Op::Sync { replica, fate } => {
                    let r = replica as usize;
                    sync_round(&mut auth, &mut reps[r], r as u32, fate, now_ns);
                }
                Op::Gossip { to } => {
                    let (a, b) = reps.split_at_mut(1);
                    match to {
                        0 => gossip_round(&mut b[0], &mut a[0], now_ns),
                        _ => gossip_round(&mut a[0], &mut b[0], now_ns),
                    }
                }
            }
            let next = [epochs(&auth), epochs(&reps[0]), epochs(&reps[1])];
            let horizons = [auth.gc_horizon(), reps[0].gc_horizon(), reps[1].gc_horizon()];
            for ((before, after), h) in snaps.iter().zip(next.iter()).zip(horizons) {
                check_monotone(before, after, h)?;
            }
            snaps = next;
        }

        // The heal: successful rounds only. Alternating rounds are needed
        // because watermarks propagate with one round of lag (a replica
        // reports its *pre-round* watermark), so the GC horizon takes a
        // few rounds to catch every table up to the same cut. Convergence
        // within this bounded pass is the property.
        for &r in &[0usize, 1, 0, 1, 0, 1] {
            now_ns += 1_000;
            sync_round(&mut auth, &mut reps[r], r as u32, 0, now_ns);
        }
        prop_assert_eq!(reps[0].table_hash(), auth.table_hash());
        prop_assert_eq!(reps[1].table_hash(), auth.table_hash());

        // With both watermarks caught up to the authority's epoch, the
        // horizon equals it and every tombstone is provably adopted:
        // boundedness means they are all gone, not merely stable.
        prop_assert_eq!(auth.tombstone_len(), 0);
        prop_assert_eq!(reps[0].tombstone_len(), 0);

        // Converged means drained: one more round has nothing to move.
        for rep in reps.iter_mut() {
            now_ns += 1_000;
            let delta = auth.delta_for(&rep.digest(), true, now_ns);
            prop_assert!(delta.is_empty(), "post-convergence delta: {:?}", delta);
        }

        // Epoch 0 is reserved for preloads: nothing the authority ever
        // stamped or retained sits at 0.
        prop_assert!(epochs(&auth).values().all(|&e| e > 0));
    }

    /// Redefining the same prefix always moves it strictly forward, even
    /// when virtual time stands still — the `max(previous + 1, now)` stamp.
    #[test]
    fn redefinition_epochs_strictly_increase(
        targets in proptest::collection::vec(any::<u32>(), 2..20),
        now in any::<u32>(),
    ) {
        let mut t = SyncTable::new();
        let mut last = 0u64;
        for tg in targets {
            t.define(b"p", bind(tg), u64::from(now));
            let e = epochs(&t).get(b"p".as_slice()).copied().unwrap_or(0);
            prop_assert!(e > last, "stamp did not advance: {} then {}", last, e);
            last = e;
        }
    }

    /// A failed round is invisible at the replica: whether the digest or
    /// the reply was lost, the replica's reconcilable contents are
    /// untouched (no partial application).
    #[test]
    fn failed_rounds_change_nothing_at_the_replica(
        defs in proptest::collection::vec((any::<u8>(), any::<u32>()), 1..20),
        fate in 1u8..3,
    ) {
        let mut auth = SyncTable::new();
        let mut rep = SyncTable::new();
        rep.preload(name(3), bind(3));
        let mut now_ns = 1_000;
        for (i, t) in defs {
            now_ns += 1_000;
            auth.define(name(i), bind(t), now_ns);
        }
        let before = rep.table_hash();
        sync_round(&mut auth, &mut rep, 0, fate, now_ns + 1_000);
        prop_assert_eq!(rep.table_hash(), before);
    }

    /// GC safety under arbitrary churn/loss/gossip schedules: whenever the
    /// authority collects a tombstone, every replica it knows about has
    /// provably adopted the delete (nothing older is live there), and a
    /// collected delete can never come back — at the authority or at any
    /// replica whose watermark passed it — unless a genuinely newer
    /// definition re-creates the name.
    #[test]
    fn tombstones_collect_only_behind_every_watermark_and_stay_dead(
        preload_a in proptest::collection::vec(any::<u8>(), 0..6),
        preload_b in proptest::collection::vec(any::<u8>(), 0..6),
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        let mut auth = SyncTable::new();
        let mut reps = [SyncTable::new(), SyncTable::new()];
        for i in preload_a {
            reps[0].preload(name(i), bind(u32::from(i)));
        }
        for i in preload_b {
            reps[1].preload(name(i), bind(u32::from(i)));
        }

        // Oracle state: which replicas the authority has heard from, and
        // every tombstone it has collected (prefix → highest collected
        // epoch).
        let mut known = [false, false];
        let mut collected: BTreeMap<Vec<u8>, u64> = BTreeMap::new();

        let mut now_ns: u64 = 1_000;
        for op in &ops {
            now_ns += 1_000;
            match *op {
                Op::Define(i, t) => auth.define(name(i), bind(t), now_ns),
                Op::Delete(i) => {
                    auth.tombstone(&name(i), now_ns);
                }
                Op::Sync { replica, fate } => {
                    let r = replica as usize;
                    if fate != 1 {
                        known[r] = true;
                        // What the authority is about to collect this
                        // round, given the watermark it is about to learn.
                        auth.record_watermark(r as u32, reps[r].watermark());
                        let horizon = auth.horizon();
                        let about_to_collect: Vec<(Vec<u8>, u64)> = auth
                            .digest()
                            .into_iter()
                            .filter(|d| d.tombstone && d.epoch <= horizon && d.epoch > 0)
                            .map(|d| (d.prefix, d.epoch))
                            .collect();
                        // Safety at the moment of collection: every known
                        // replica has adopted each collected delete —
                        // nothing older than the tombstone is live there.
                        for (prefix, epoch) in &about_to_collect {
                            for (k, rep) in reps.iter().enumerate() {
                                if !known[k] {
                                    continue;
                                }
                                prop_assert!(
                                    rep.watermark() >= *epoch,
                                    "collected {:?}@{} ahead of replica {}'s watermark {}",
                                    prefix, epoch, k, rep.watermark()
                                );
                                if let Some(e) = rep.lookup(prefix) {
                                    prop_assert!(
                                        e.epoch > *epoch,
                                        "replica {} still lives {:?}@{} under collected tombstone @{}",
                                        k, prefix, e.epoch, epoch
                                    );
                                }
                            }
                            let slot = collected.entry(prefix.clone()).or_insert(0);
                            *slot = (*slot).max(*epoch);
                        }
                    }
                    sync_round(&mut auth, &mut reps[r], r as u32, fate, now_ns);
                }
                Op::Gossip { to } => {
                    let (a, b) = reps.split_at_mut(1);
                    match to {
                        0 => gossip_round(&mut b[0], &mut a[0], now_ns),
                        _ => gossip_round(&mut a[0], &mut b[0], now_ns),
                    }
                }
            }

            // No resurrection, ever: once (prefix, epoch) is collected,
            // any live entry for that prefix — at the authority, or at a
            // replica whose watermark passed the delete — must be a
            // strictly newer definition. Gossip from a lagging peer must
            // not slip an older live copy back in.
            for (prefix, epoch) in &collected {
                if let Some(e) = auth.lookup(prefix) {
                    prop_assert!(
                        e.epoch > *epoch,
                        "authority resurrected {:?}@{} under collected tombstone @{}",
                        prefix, e.epoch, epoch
                    );
                }
                for (k, rep) in reps.iter().enumerate() {
                    if rep.watermark() < *epoch {
                        continue; // never saw the delete; heals at its next round
                    }
                    if let Some(e) = rep.lookup(prefix) {
                        prop_assert!(
                            e.epoch > *epoch,
                            "replica {} resurrected {:?}@{} under collected tombstone @{}",
                            k, prefix, e.epoch, epoch
                        );
                    }
                }
            }
        }

        // The heal: after enough successful alternating rounds, collected
        // deletes are gone *everywhere* (not live on any table) and the
        // three tables agree exactly.
        for &r in &[0usize, 1, 0, 1, 0, 1] {
            now_ns += 1_000;
            sync_round(&mut auth, &mut reps[r], r as u32, 0, now_ns);
        }
        prop_assert_eq!(reps[0].table_hash(), auth.table_hash());
        prop_assert_eq!(reps[1].table_hash(), auth.table_hash());
        for (prefix, epoch) in &collected {
            for t in [&auth, &reps[0], &reps[1]] {
                if let Some(e) = t.lookup(prefix) {
                    prop_assert!(
                        e.epoch > *epoch,
                        "{:?} live@{} post-heal under collected tombstone @{}",
                        prefix, e.epoch, epoch
                    );
                }
            }
        }
    }

    /// The tentpole's equivalence claim, checked differentially: two
    /// worlds driven by the *same* arbitrary churn/loss/partition schedule
    /// — one syncing over Merkle walks, one over legacy flat digests —
    /// stay byte-identical at every step. Digests pin prefixes, epochs
    /// and tombstone flags; `table_hash` covers binding contents;
    /// watermark, GC horizon and max epoch pin the GC machinery. Checked
    /// at the authority and at both replicas after every single op.
    #[test]
    fn merkle_and_flat_rounds_are_byte_identical(
        preloads in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..8),
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let mut m_auth = SyncTable::new();
        let mut m_reps = [SyncTable::new(), SyncTable::new()];
        for &(r, i) in &preloads {
            m_reps[usize::from(r) % 2].preload(name(i), bind(u32::from(i)));
        }
        let mut f_auth = m_auth.clone();
        let mut f_reps = m_reps.clone();

        fn identical(m: &mut SyncTable, f: &mut SyncTable, who: &str) -> Result<(), TestCaseError> {
            prop_assert!(m.digest() == f.digest(), "digest diverged at {}", who);
            prop_assert!(m.table_hash() == f.table_hash(), "hash diverged at {}", who);
            prop_assert!(m.watermark() == f.watermark(), "watermark diverged at {}", who);
            prop_assert!(m.gc_horizon() == f.gc_horizon(), "horizon diverged at {}", who);
            prop_assert!(m.max_epoch() == f.max_epoch(), "epoch diverged at {}", who);
            Ok(())
        }

        let mut now_ns: u64 = 1_000;
        for op in &ops {
            now_ns += 1_000;
            match *op {
                Op::Define(i, t) => {
                    m_auth.define(name(i), bind(t), now_ns);
                    f_auth.define(name(i), bind(t), now_ns);
                }
                Op::Delete(i) => {
                    m_auth.tombstone(&name(i), now_ns);
                    f_auth.tombstone(&name(i), now_ns);
                }
                Op::Sync { replica, fate } => {
                    let r = replica as usize;
                    sync_round(&mut m_auth, &mut m_reps[r], r as u32, fate, now_ns);
                    flat_sync_round(&mut f_auth, &mut f_reps[r], r as u32, fate, now_ns);
                }
                Op::Gossip { to } => {
                    let (ma, mb) = m_reps.split_at_mut(1);
                    let (fa, fb) = f_reps.split_at_mut(1);
                    match to {
                        0 => {
                            gossip_round(&mut mb[0], &mut ma[0], now_ns);
                            flat_gossip_round(&mut fb[0], &mut fa[0], now_ns);
                        }
                        _ => {
                            gossip_round(&mut ma[0], &mut mb[0], now_ns);
                            flat_gossip_round(&mut fa[0], &mut fb[0], now_ns);
                        }
                    }
                }
            }
            identical(&mut m_auth, &mut f_auth, "authority")?;
            identical(&mut m_reps[0], &mut f_reps[0], "replica 0")?;
            identical(&mut m_reps[1], &mut f_reps[1], "replica 1")?;
        }

        // Heal both worlds with successful rounds: they converge to the
        // same fixed point, and each world's replicas match its authority.
        for &r in &[0usize, 1, 0, 1, 0, 1] {
            now_ns += 1_000;
            sync_round(&mut m_auth, &mut m_reps[r], r as u32, 0, now_ns);
            flat_sync_round(&mut f_auth, &mut f_reps[r], r as u32, 0, now_ns);
        }
        identical(&mut m_auth, &mut f_auth, "authority post-heal")?;
        let root = m_auth.table_hash();
        prop_assert_eq!(m_reps[0].table_hash(), root);
        prop_assert_eq!(m_reps[1].table_hash(), root);
        prop_assert_eq!(f_reps[0].table_hash(), root);
        prop_assert_eq!(f_reps[1].table_hash(), root);
    }

    /// A Merkle walk aborted at *any* probe index — or losing only its
    /// final reply — is invisible at the puller whenever the round
    /// reports failure: table bytes, hash, watermark, and horizon are all
    /// untouched. (The flat path can only fail at two points; the walk
    /// has one per probe, and every one must be atomic.)
    #[test]
    fn aborted_merkle_walks_are_invisible_at_the_puller(
        defs in proptest::collection::vec((any::<u8>(), any::<u32>()), 2..30),
        warm in any::<bool>(),
        drop_at in 0u32..8,
        lose_reply in any::<bool>(),
    ) {
        let mut auth = SyncTable::new();
        let mut rep = SyncTable::new();
        rep.preload(name(3), bind(3));
        let mut now_ns: u64 = 1_000;
        let half = defs.len() / 2;
        for &(i, t) in &defs[..half] {
            now_ns += 1_000;
            auth.define(name(i), bind(t), now_ns);
        }
        if warm {
            // A half-synced replica: the doomed walk below has matching
            // subtrees to skip and diverging ones to descend.
            now_ns += 1_000;
            sync_round(&mut auth, &mut rep, 0, 0, now_ns);
        }
        for &(i, t) in &defs[half..] {
            now_ns += 1_000;
            auth.define(name(i), bind(t), now_ns);
        }

        let digest_before = rep.digest();
        let hash_before = rep.table_hash();
        let watermark_before = rep.watermark();
        let horizon_before = rep.gc_horizon();

        let fate = if lose_reply {
            RoundFate { drop_request_at: None, lose_final_reply: true }
        } else {
            RoundFate { drop_request_at: Some(drop_at), lose_final_reply: false }
        };
        now_ns += 1_000;
        let (out, _stats) = merkle_round(
            &mut auth,
            &mut rep,
            RoundKind::Authority { replica_id: 0 },
            now_ns,
            fate,
        );
        match out {
            None => {
                prop_assert_eq!(rep.digest(), digest_before);
                prop_assert_eq!(rep.table_hash(), hash_before);
                prop_assert_eq!(rep.watermark(), watermark_before);
                prop_assert_eq!(rep.gc_horizon(), horizon_before);
            }
            // Only a drop aimed past the walk's actual end can deliver.
            Some(_) => prop_assert!(!lose_reply),
        }
    }

    /// The read-path equivalence claim, checked differentially: a
    /// [`ShardedTable`] authority (publishing after every op, exactly as
    /// the server's receive loop does) and a plain [`SyncTable`] authority
    /// driven by the *same* arbitrary churn/loss/gossip schedule stay
    /// byte-identical — same digests, same `table_hash`, same per-shard
    /// Merkle roots — and at every step the published snapshot answers
    /// exactly what the table's live set answers, both one name at a time
    /// and through `resolve_batch`.
    #[test]
    fn sharded_view_matches_unsharded_table_for_any_schedule(
        preloads in proptest::collection::vec(any::<u8>(), 0..6),
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let mut s_auth = ShardedTable::new();
        let mut p_auth = SyncTable::new();
        let mut s_rep = SyncTable::new();
        let mut p_rep = SyncTable::new();
        for &i in &preloads {
            s_rep.preload(name(i), bind(u32::from(i)));
            p_rep.preload(name(i), bind(u32::from(i)));
        }

        let pool: Vec<Vec<u8>> = (0..PREFIX_POOL).map(name).collect();
        let mut last_epoch = 0u64;
        let mut now_ns: u64 = 1_000;
        for op in &ops {
            now_ns += 1_000;
            match *op {
                Op::Define(i, t) => {
                    s_auth.table_mut().define(name(i), bind(t), now_ns);
                    p_auth.define(name(i), bind(t), now_ns);
                }
                Op::Delete(i) => {
                    s_auth.table_mut().tombstone(&name(i), now_ns);
                    p_auth.tombstone(&name(i), now_ns);
                }
                Op::Sync { fate, .. } => {
                    sync_round(s_auth.table_mut(), &mut s_rep, 0, fate, now_ns);
                    sync_round(&mut p_auth, &mut p_rep, 0, fate, now_ns);
                }
                Op::Gossip { .. } => {
                    // One replica here, so gossip pulls authority→replica
                    // unverified — the adoption path snapshots must track.
                    gossip_round(s_auth.table_mut(), &mut s_rep, now_ns);
                    gossip_round(&mut p_auth, &mut p_rep, now_ns);
                }
            }
            s_auth.publish();

            // The wrapped table is byte-identical to the plain one.
            prop_assert!(s_auth.table().digest() == p_auth.digest(), "digest diverged");
            prop_assert_eq!(s_auth.table_mut().table_hash(), p_auth.table_hash());
            prop_assert_eq!(s_auth.table_mut().shard_roots(), p_auth.shard_roots());
            prop_assert!(s_rep.digest() == p_rep.digest(), "replica digest diverged");
            prop_assert_eq!(s_rep.table_hash(), p_rep.table_hash());

            // The snapshot serves exactly the table's live set: every pool
            // name agrees entry-for-entry, the live counts match, and the
            // batched path equals the single-name path.
            let snap = s_auth.snapshot();
            prop_assert_eq!(snap.live_len(), s_auth.table().live_len());
            let refs: Vec<&[u8]> = pool.iter().map(Vec::as_slice).collect();
            let batch = snap.resolve_batch(&refs);
            for (p, batched) in pool.iter().zip(batch) {
                let table_view = s_auth
                    .table()
                    .lookup(p)
                    .and_then(|e| e.binding.map(|b| (b, e.verified)));
                let snap_view = snap.lookup(p).map(|e| (e.binding, e.verified));
                prop_assert!(snap_view == table_view, "snapshot diverged on {:?}", p);
                prop_assert!(
                    batched.map(|e| (e.binding, e.verified)) == table_view,
                    "batch diverged on {:?}",
                    p
                );
            }
            prop_assert!(snap.epoch() >= last_epoch, "publication epoch regressed");
            last_epoch = snap.epoch();
        }
    }
}

/// Publication atomicity under a live concurrent reader: a writer thread
/// redefines two prefixes — placed in *different* shards — to the same
/// round number and publishes once per round; a reader spinning on a
/// [`vservers::ResolverHandle`] must never catch the pair half-updated.
/// One publish swaps in a whole internally consistent snapshot, so a torn
/// read here would mean a batch leaked across the atomic swap.
#[test]
fn concurrent_reader_never_observes_a_half_published_batch() {
    const ROUNDS: u32 = 20_000;
    // Two names verified to land in different shards, so atomicity is
    // cross-shard, not an artifact of sharing one map.
    let (left, right) = (b"storage".to_vec(), b"printer".to_vec());
    assert_ne!(
        SyncTable::shard_of(&left),
        SyncTable::shard_of(&right),
        "pick names hashing to different shards"
    );

    let mut sharded = ShardedTable::new();
    let handle = sharded.reader();
    let torn = std::sync::atomic::AtomicU32::new(0);
    let done = std::sync::atomic::AtomicBool::new(false);
    let observed = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut seen = 0u64;
            while !done.load(std::sync::atomic::Ordering::Acquire) {
                let snap = handle.snapshot();
                let l = snap.lookup(&left).map(|e| e.binding.target);
                let r = snap.lookup(&right).map(|e| e.binding.target);
                if l != r {
                    torn.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                seen += 1;
            }
            seen
        });

        let mut now_ns = 1_000u64;
        for round in 0..ROUNDS {
            now_ns += 1_000;
            sharded
                .table_mut()
                .define(left.clone(), bind(round), now_ns);
            sharded
                .table_mut()
                .define(right.clone(), bind(round), now_ns);
            sharded.publish();
        }
        done.store(true, std::sync::atomic::Ordering::Release);
        reader.join().expect("reader thread")
    });

    assert_eq!(
        torn.load(std::sync::atomic::Ordering::Relaxed),
        0,
        "reader caught a half-published define pair"
    );
    assert!(observed > 0, "reader never sampled a snapshot");
    let last = sharded.snapshot();
    assert_eq!(
        last.lookup(&left).map(|e| e.binding.target),
        Some(ROUNDS - 1)
    );
    assert_eq!(
        last.lookup(&right).map(|e| e.binding.target),
        Some(ROUNDS - 1)
    );
}
