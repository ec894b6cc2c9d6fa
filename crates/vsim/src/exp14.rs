//! EXP-14 — Replica↔replica gossip and the bounded-tombstone GC horizon.
//!
//! EXP-13 closed the replica-freshness loop *through the authority*: one
//! digest → delta → apply round per heal makes a replica hash-identical
//! to the authoritative table. Two holes remained, and this experiment
//! measures the machinery that closes them:
//!
//! * **Gossip while the authority is down** — with the authority
//!   partitioned away, replicas run the same digest → delta rounds
//!   *against each other* over the replica multicast group (phase-1 probe
//!   picks a peer, the round itself is unicast). A cold replica converges
//!   to its synced peer — equal [`vservers::SyncTable::table_hash`] —
//!   entirely inside the cut window, but everything it adopts stays
//!   *Suspect* until the first post-heal authority round vouches for it:
//!   gossip spreads data, only the authority spreads certainty.
//!   Gossip triggers are **staggered** (distinct offsets per replica off
//!   [`vkernel::SimDomain::cut_times`]) by more than a whole round: two
//!   replicas with overlapping rounds would interlock inside
//!   `send_group`, since each is blocked sending while the other's probe
//!   waits in its queue — and a round is now a multi-probe Merkle walk,
//!   not a single digest exchange.
//! * **Tombstones stay bounded under churn** — deletes are kept as
//!   tombstones so reconciliation can propagate them, but an unbounded
//!   graveyard is a slow leak (Demers et al.'s death-certificate
//!   problem). The authority tracks each replica's synced watermark from
//!   its digests, computes the GC horizon = min watermark across known
//!   replicas, and drops tombstones at or below it; replicas collect on
//!   the horizon each delta advertises. Under sustained define/delete
//!   churn with periodic replica pulls, the live tombstone count must be
//!   a *sawtooth* — non-monotonic, peak well below the total number of
//!   deletes — and must drain to zero once churn stops and every replica
//!   syncs past the last delete.
//!
//! Everything is seeded and scheduled; equal seeds give bit-equal
//! counters and kernel event hashes.

use crate::report::{ExpReport, ExpRow};
use crate::world::{boot_world_cfg, sleep_until, SimWorld, WorldConfig};
use std::time::Duration;
use vnet::{FaultConfig, Params1984, Partition};
use vproto::{ContextId, ContextPair, Message, RequestCode};
use vruntime::{sync_status, NameClient, Staleness};
use vservers::DegradedPrefixConfig;

/// Default seed for the experiment's fault schedules.
pub const EXP14_SEED: u64 = 0x1984_0C14;

/// Define/delete pairs the churn driver issues in the tombstone scenario.
pub const CHURN_OPS: u32 = 16;

/// The gossip world: degraded-mode authority on the workstation, the
/// preloaded replica plus one *cold* replica (empty boot table) on the
/// server machine, all replicas in one multicast group with anti-entropy
/// pointed at the authority.
fn gossip_world(seed: u64) -> SimWorld {
    boot_world_cfg(WorldConfig {
        faults: Some(FaultConfig::lossless(seed)),
        degraded: Some(DegradedPrefixConfig::default()),
        replicas: 2,
        ..WorldConfig::new(Params1984::ethernet_3mbit())
    })
}

/// Outcome of the authority-down gossip-convergence scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GossipOutcome {
    /// Gossip rounds the cold replica completed (must be ≥ 1).
    pub gossip_rounds: u32,
    /// Entries the cold replica adopted from its gossip peer (the whole
    /// table: ≥ 3).
    pub gossip_adopted: u32,
    /// Cold replica's table hash == peer replica's, observed *inside* the
    /// cut window.
    pub hash_equal_replicas: bool,
    /// The convergence observation really happened while the authority
    /// was unreachable (virtual now < heal time).
    pub authority_down: bool,
    /// How a resolve through the cold replica answered during the cut —
    /// must be `Suspect`: gossip never vouches.
    pub staleness_during_cut: Option<Staleness>,
    /// The same resolve after the post-heal authority round — must be
    /// `Fresh`: the authority vouched for what gossip delivered.
    pub staleness_after_heal: Option<Staleness>,
    /// Entries the post-heal authority round promoted unverified →
    /// verified at the cold replica.
    pub promoted_after_heal: u32,
    /// Merkle subtree probes the cold replica's rounds drove, observed
    /// inside the cut — the witness that gossip itself rode the walk (a
    /// flat-digest gossip round would leave this 0).
    pub probe_rounds_during_cut: u32,
    /// Kernel event-stream hash at quiescence (determinism witness).
    pub event_hash: u64,
}

/// Syncs the preloaded replica once, cuts the workstation (authority) off
/// for 140 ms, and schedules **staggered** gossip triggers inside the cut
/// window off [`vkernel::SimDomain::cut_times`]: the cold replica gossips
/// at cut+5 ms, the preloaded one at cut+30 ms. The stagger must exceed a
/// whole gossip round, which is now a multi-probe Merkle walk rather than
/// one exchange — overlapping rounds interlock in `send_group`, each
/// replica blocked sending a probe while the other's probe waits
/// unreceived in its mailbox. The cut itself starts at t0+50 ms, past the
/// end of the vouch round's walk (one request/reply per tree level,
/// ~40 ms from its t0+5 ms trigger), so the partition never severs a walk
/// in flight. A driver on the server machine checks replica↔replica
/// convergence while the authority is still unreachable, then verifies
/// the post-heal authority round flips Suspect to Fresh.
pub fn measure_gossip_convergence(seed: u64) -> GossipOutcome {
    let world = gossip_world(seed);
    let t0 = world.domain.run();
    let (peer, cold) = (world.replicas[0], world.replicas[1]);
    // Vouch the preloaded replica's table before the cut, so gossip has a
    // stamped (epoch > 0) table to spread — gossip deltas never carry
    // epoch-0 preloads.
    world.domain.notify_at(
        t0 + Duration::from_millis(5),
        peer,
        Message::request(RequestCode::SyncPull),
    );
    let cut_start = t0 + Duration::from_millis(50);
    let heal = cut_start + Duration::from_millis(140);
    world.domain.schedule_partition(Partition::between(
        world.workstation,
        world.server_machine,
        cut_start,
        Some(heal),
    ));
    // Staggered gossip inside each cut window, read off the plane's own
    // partition schedule.
    for t in world.domain.cut_times() {
        world.domain.notify_at(
            t + Duration::from_millis(5),
            cold,
            Message::request(RequestCode::SyncGossip),
        );
        world.domain.notify_at(
            t + Duration::from_millis(30),
            peer,
            Message::request(RequestCode::SyncGossip),
        );
    }
    // The authority vouches after the heal, as in EXP-13.
    for t in world.domain.heal_times() {
        world.domain.notify_at(
            t + Duration::from_millis(1),
            cold,
            Message::request(RequestCode::SyncPull),
        );
    }
    let cut_at = cut_start.as_duration();
    let heal_at = heal.as_duration();
    let local_fs = world.local_fs;
    let (rec, hash_equal_replicas, authority_down, during, after, promoted) = world
        .domain
        .client(world.server_machine, move |ctx| {
            sleep_until(ctx, cut_at + Duration::from_millis(12));
            let mut rec = sync_status(ctx, cold);
            let mut polls = 0;
            while rec.is_none_or(|r| r.gossip_rounds == 0) && polls < 100 {
                ctx.sleep(Duration::from_millis(1));
                rec = sync_status(ctx, cold);
                polls += 1;
            }
            // Everything observed from here to the resolve happens while
            // the authority is still cut off.
            let authority_down = ctx.now() < heal_at;
            let peer_rec = sync_status(ctx, peer);
            let hash_equal_replicas = match (rec, peer_rec) {
                (Some(c), Some(p)) => c.table_hash == p.table_hash,
                _ => false,
            };
            // Resolve through the cold replica: everything it knows came
            // over gossip, so the answer must carry the staleness flag.
            let client = NameClient::new(ctx, ContextPair::new(local_fs, ContextId::DEFAULT));
            client.set_prefix_server(cold);
            let during = client.resolve("[remote]").ok().map(|b| b.staleness);
            // Past the heal, the scheduled authority round vouches.
            sleep_until(ctx, heal_at + Duration::from_millis(2));
            let mut vouched = sync_status(ctx, cold);
            let mut polls = 0;
            while vouched.is_none_or(|r| r.rounds == 0) && polls < 100 {
                ctx.sleep(Duration::from_millis(1));
                vouched = sync_status(ctx, cold);
                polls += 1;
            }
            let after = client.resolve("[remote]").ok().map(|b| b.staleness);
            let promoted = vouched.map_or(0, |r| r.promoted);
            (
                rec,
                hash_equal_replicas,
                authority_down,
                during,
                after,
                promoted,
            )
        })
        .expect("driver completed");
    GossipOutcome {
        gossip_rounds: rec.map_or(0, |r| r.gossip_rounds),
        gossip_adopted: rec.map_or(0, |r| r.gossip_adopted),
        hash_equal_replicas,
        authority_down,
        staleness_during_cut: during,
        staleness_after_heal: after,
        promoted_after_heal: promoted,
        probe_rounds_during_cut: rec.map_or(0, |r| r.probe_rounds),
        event_hash: world.domain.event_hash(),
    }
}

/// Outcome of the define/delete churn scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct TombstoneBoundOutcome {
    /// Authority tombstone counts sampled every few ms through the churn
    /// and drain phases.
    pub samples: Vec<u32>,
    /// Peak of `samples` — must stay well below [`CHURN_OPS`].
    pub peak: u32,
    /// Tombstones the authority's horizon GC dropped, cumulative.
    pub gc_dropped: u32,
    /// The authority's final GC horizon (> 0 once every replica's
    /// watermark passed a delete).
    pub final_horizon: u64,
    /// Authority tombstones left after churn stopped and both replicas
    /// synced past the last delete — must be 0.
    pub final_tombstones: u32,
    /// Authority and both replicas hash-identical at quiescence.
    pub hash_equal: bool,
    /// Kernel event-stream hash at quiescence (determinism witness).
    pub event_hash: u64,
}

/// Sustained churn: the authority defines and immediately deletes
/// [`CHURN_OPS`] scratch prefixes, 4 ms apart, while both replicas pull
/// every 10 ms (staggered 3 ms from each other). Each pull advances that
/// replica's watermark; each digest the authority receives updates its
/// watermark map, re-computes the horizon, and collects. A driver samples
/// the authority's tombstone count every few ms: the curve must be a
/// bounded sawtooth, and must end at zero.
pub fn measure_tombstone_bound(seed: u64) -> TombstoneBoundOutcome {
    let world = gossip_world(seed);
    let t0 = world.domain.run();
    let (peer, cold) = (world.replicas[0], world.replicas[1]);
    let (local_fs, remote_fs, authority) = (world.local_fs, world.remote_fs, world.prefix);
    let t0_d = t0.as_duration();
    // The churn: define + delete, so every pair leaves one tombstone.
    world.domain.spawn(world.workstation, "churn", move |ctx| {
        sleep_until(ctx, t0_d + Duration::from_millis(5));
        let client = NameClient::new(ctx, ContextPair::new(local_fs, ContextId::DEFAULT));
        for i in 0..CHURN_OPS {
            client
                .add_prefix(
                    &format!("churn{i}"),
                    ContextPair::new(remote_fs, ContextId::DEFAULT),
                )
                .expect("churn add");
            client
                .delete_prefix(&format!("churn{i}"))
                .expect("churn delete");
            ctx.sleep(Duration::from_millis(4));
        }
    });
    // Periodic, staggered pulls from both replicas: the watermark traffic
    // that feeds the authority's horizon. The schedule runs well past the
    // churn (each define/delete pair costs ~9 ms of simulated traffic, so
    // the churn spans ~150 ms) — the drain phase needs a few rounds after
    // the last delete for every watermark to pass it.
    for k in 0..24u32 {
        world.domain.notify_at(
            t0 + Duration::from_millis(10) + Duration::from_millis(10) * k,
            peer,
            Message::request(RequestCode::SyncPull),
        );
        world.domain.notify_at(
            t0 + Duration::from_millis(13) + Duration::from_millis(10) * k,
            cold,
            Message::request(RequestCode::SyncPull),
        );
    }
    let (samples, auth_rec, peer_rec, cold_rec) = world
        .domain
        .client(world.workstation, move |ctx| {
            sleep_until(ctx, t0_d + Duration::from_millis(8));
            let mut samples = Vec::new();
            for _ in 0..70 {
                if let Some(r) = sync_status(ctx, authority) {
                    samples.push(r.tombstones);
                }
                ctx.sleep(Duration::from_millis(2));
            }
            // Settle past the last scheduled pull before the final reads.
            sleep_until(ctx, t0_d + Duration::from_millis(280));
            (
                samples,
                sync_status(ctx, authority),
                sync_status(ctx, peer),
                sync_status(ctx, cold),
            )
        })
        .expect("driver completed");
    let peak = samples.iter().copied().max().unwrap_or(0);
    let hash_equal = match (auth_rec, peer_rec, cold_rec) {
        (Some(a), Some(p), Some(c)) => a.table_hash == p.table_hash && p.table_hash == c.table_hash,
        _ => false,
    };
    TombstoneBoundOutcome {
        samples,
        peak,
        gc_dropped: auth_rec.map_or(0, |r| r.gc_dropped),
        final_horizon: auth_rec.map_or(0, |r| r.gc_horizon),
        final_tombstones: auth_rec.map_or(u32::MAX, |r| r.tombstones),
        hash_equal,
        event_hash: world.domain.event_hash(),
    }
}

/// `true` iff the sample curve ever *decreases* — the GC sawtooth, as
/// opposed to the monotone ramp an unbounded graveyard draws.
pub fn is_sawtooth(samples: &[u32]) -> bool {
    samples.windows(2).any(|w| w[1] < w[0])
}

/// Runs EXP-14.
pub fn run() -> ExpReport {
    let mut rep = ExpReport::new(
        "EXP-14",
        "Replica gossip under a dead authority; tombstone GC bounded by the watermark horizon",
    );
    let gossip = measure_gossip_convergence(EXP14_SEED);
    let tag = if gossip.hash_equal_replicas && gossip.authority_down {
        "identical, authority down"
    } else {
        "DIVERGED"
    };
    rep.push(ExpRow::measured_only(
        format!("gossip rounds to converge cold replica ({tag})"),
        f64::from(gossip.gossip_rounds),
        "rounds",
    ));
    rep.push(ExpRow::measured_only(
        "entries adopted over gossip (held Suspect)",
        f64::from(gossip.gossip_adopted),
        "entries",
    ));
    rep.push(ExpRow::measured_only(
        "entries vouched by first post-heal authority round",
        f64::from(gossip.promoted_after_heal),
        "entries",
    ));
    let bound = measure_tombstone_bound(EXP14_SEED);
    rep.push(ExpRow::measured_only(
        format!("peak tombstones under {CHURN_OPS} define/delete pairs"),
        f64::from(bound.peak),
        "tombstones",
    ));
    rep.push(ExpRow::measured_only(
        "tombstones collected by the horizon GC",
        f64::from(bound.gc_dropped),
        "tombstones",
    ));
    rep.push(ExpRow::measured_only(
        "tombstones left once every watermark passed the last delete",
        f64::from(bound.final_tombstones),
        "tombstones",
    ));
    rep.note(
        "with the authority partitioned away, replicas reconcile against each other over \
         the replica group (staggered probe → unicast digest round); a cold replica hashes \
         identical to its peer inside the cut window, but every adopted entry answers \
         Suspect until the first post-heal authority round vouches for the table",
    );
    rep.note(
        "the authority GC-collects a tombstone only when the minimum synced watermark over \
         every known replica has passed its epoch, and replicas collect on the horizon \
         each delta advertises — so the tombstone count is a bounded sawtooth under churn \
         and drains to zero when churn stops, instead of growing without bound",
    );
    rep.note(
        "watermarks move only on complete authority rounds (never on gossip), and the \
         delta's epoch header is stamped after the delta is built, so a watermark never \
         claims coverage of a tombstone the replica did not receive",
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_replica_converges_over_gossip_while_authority_is_down() {
        let out = measure_gossip_convergence(EXP14_SEED);
        assert!(out.authority_down, "{out:?}");
        assert!(out.hash_equal_replicas, "{out:?}");
        assert!(out.gossip_rounds >= 1, "{out:?}");
        // The whole table (three login-script bindings) came over gossip.
        assert!(out.gossip_adopted >= 3, "{out:?}");
    }

    #[test]
    fn gossip_adoptions_stay_suspect_until_the_authority_vouches() {
        let out = measure_gossip_convergence(EXP14_SEED);
        assert_eq!(
            out.staleness_during_cut,
            Some(Staleness::Suspect),
            "{out:?}"
        );
        assert_eq!(out.staleness_after_heal, Some(Staleness::Fresh), "{out:?}");
        assert!(out.promoted_after_heal >= 3, "{out:?}");
    }

    #[test]
    fn tombstones_stay_bounded_and_drain_under_churn() {
        let out = measure_tombstone_bound(EXP14_SEED);
        // Bounded: the peak never approaches the total number of deletes.
        assert!(out.peak < CHURN_OPS, "graveyard grew unbounded: {out:?}");
        // Non-monotonic: the curve is a sawtooth, not a ramp.
        assert!(is_sawtooth(&out.samples), "no GC ever observed: {out:?}");
        assert!(out.gc_dropped >= CHURN_OPS / 2, "{out:?}");
        // Drained: once both watermarks pass the last delete, nothing is
        // left to hold.
        assert_eq!(out.final_tombstones, 0, "{out:?}");
        assert!(out.final_horizon > 0, "{out:?}");
        assert!(out.hash_equal, "{out:?}");
    }

    #[test]
    fn equal_seeds_give_equal_event_hashes() {
        assert_eq!(
            measure_gossip_convergence(EXP14_SEED).event_hash,
            measure_gossip_convergence(EXP14_SEED).event_hash
        );
        assert_eq!(
            measure_tombstone_bound(EXP14_SEED).event_hash,
            measure_tombstone_bound(EXP14_SEED).event_hash
        );
    }
}
