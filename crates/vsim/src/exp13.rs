//! EXP-13 — Anti-entropy reconciliation between prefix replicas:
//! convergence after partition heals, crash rescues that stay *fresh*, and
//! periodic sync catching silent divergence.
//!
//! EXP-12 established the degraded-mode floor: a replica can always answer
//! a binding query, but only tagged [`Staleness::Suspect`] — nobody
//! authoritative vouched for its table. This experiment measures the
//! machinery that removes the tag. Replicas keep a *versioned* table
//! ([`vservers::SyncTable`]): every entry carries an epoch stamped at the
//! authority, deletes are retained as tombstones, and one `SyncPull`
//! round (digest → delta → apply) makes a replica's table hash-identical
//! to the authority's. Four questions:
//!
//! * **Convergence vs cut width and divergence size** — cut the replica
//!   off for W ∈ {60, 200} ms while the authority takes D ∈ {1, 8}
//!   add/delete operations, then let the heal-scheduled sync round run
//!   ([`vkernel::SimDomain::heal_times`] +
//!   [`vkernel::SimDomain::notify_at`]). The replica must be bytewise
//!   identical to the authority (equal table hashes) within **one**
//!   round, a few tens of milliseconds after the heal, whatever W and D
//!   were (the Merkle walk pays one request/reply per diverging tree
//!   level — latency buys divergence-bound bandwidth).
//! * **Zero queries to clear Suspect** — after the round, a client
//!   resolving through the replica gets [`Staleness::Fresh`] and the
//!   authority's binding-query counter does not move: anti-entropy, not
//!   client traffic, is what restored trust.
//! * **Fresh crash rescue** — the EXP-12 replica-rescue scenario
//!   (authority crashes, multicast to the replica group answers), but run
//!   *after* one sync round: the rescue now comes back `Fresh`. Same
//!   failure, same fallback — the replica is simply no longer guessing.
//! * **Restart & silent divergence** — a crashed replica restarted by a
//!   supervisor re-learns the whole table in one post-restart round; and
//!   with no fault event at all (divergence the fault plane never sees), a
//!   bounded periodic sync schedule catches it within one period.
//! * **Table-size sweep (Merkle digest)** — reconcile a *fixed* divergence
//!   at table sizes 10³→10⁶ names over the Merkle subtree walk and over
//!   the legacy flat digest: Merkle round cost (bytes on the wire, work
//!   units) must stay within 2× across the whole sweep while the flat
//!   oracle grows linearly with the table.
//! * **Merkle ≡ flat, in-world** — the same heal-scheduled convergence run
//!   with the replica's anti-entropy flipped to the flat oracle
//!   ([`vservers::DegradedPrefixConfig::flat_sync`]) adopts the same
//!   entries and reaches the same hash; only the Merkle path reports
//!   probe rounds.
//!
//! Everything is seeded and scheduled; equal seeds give bit-equal
//! latencies, counters and kernel event hashes (sync rounds are ordinary
//! messages, so they fold into the hash like any other traffic).

use crate::report::{ms, ExpReport, ExpRow};
use crate::world::{boot_world_cfg, login_bindings, sleep_until, SimWorld, WorldConfig};
use std::time::Duration;
use vnet::{FaultConfig, Params1984, Partition};
use vproto::{ContextId, ContextPair, Message, RequestCode, SyncBinding};
use vruntime::{sync_status, NameClient, Staleness};
use vservers::{
    flat_round, merkle_round, prefix_server, DegradedPrefixConfig, PrefixConfig, RoundFate,
    RoundKind, RoundStats, SyncTable,
};

/// Default seed for the experiment's fault schedules.
pub const EXP13_SEED: u64 = 0x1984_0C13;

/// Cut widths swept against divergence sizes.
pub const CUT_WIDTHS: [Duration; 2] = [Duration::from_millis(60), Duration::from_millis(200)];

/// Divergence sizes (authority-side operations during the cut) swept.
pub const DIVERGENCES: [u32; 2] = [1, 8];

/// Table sizes swept against a fixed divergence (Merkle walk vs flat
/// oracle).
pub const SWEEP_SIZES: [u32; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// Authority-side redefinitions applied at every sweep size (plus one
/// delete, so the reconciled delta always carries a tombstone).
pub const SWEEP_DIVERGENCE: u32 = 4;

/// Largest table the linear flat oracle is driven at: one flat round at
/// 10⁶ names encodes the entire table twice for a 5-entry delta, which
/// buys the sweep nothing beyond the 10⁵ point already on the line.
pub const FLAT_SWEEP_CAP: u32 = 100_000;

/// The standard world with a syncing replica: degraded-mode authority on
/// the workstation, non-authoritative replica on the server machine with
/// its anti-entropy peer pointed at the authority. `flat_sync` flips every
/// prefix server to the legacy flat-digest path (the differential oracle).
fn sync_world(seed: u64, flat_sync: bool) -> SimWorld {
    boot_world_cfg(WorldConfig {
        faults: Some(FaultConfig::lossless(seed)),
        degraded: Some(DegradedPrefixConfig {
            flat_sync,
            ..DegradedPrefixConfig::default()
        }),
        replicas: 1,
        flat_sync,
        ..WorldConfig::new(Params1984::ethernet_3mbit())
    })
}

/// Outcome of one partition→heal convergence run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceOutcome {
    /// The cut's width.
    pub width: Duration,
    /// Authority-side operations taken during the cut.
    pub divergence: u32,
    /// Heal → first completed sync round observed at the replica.
    pub sync_latency: Duration,
    /// Sync rounds the replica completed (must be exactly 1).
    pub rounds: u32,
    /// Delta entries the replica adopted in that round.
    pub adopted: u32,
    /// Replica table hash == authority table hash after the round.
    pub hash_equal: bool,
    /// How a post-sync resolve through the replica was answered.
    pub staleness: Option<Staleness>,
    /// Authority binding queries consumed by that resolve (must be 0:
    /// anti-entropy cleared Suspect without any client→authority probe).
    pub authority_queries: u32,
    /// Merkle subtree probes the replica's rounds drove (0 on the flat
    /// oracle path — the witness that the walk, not the legacy digest,
    /// carried the round).
    pub probe_rounds: u32,
    /// Kernel event-stream hash at quiescence (determinism witness).
    pub event_hash: u64,
}

/// Cuts workstation↔server for `width` starting 20 ms after boot, drives
/// `divergence` adds (plus one delete, so the delta carries a tombstone)
/// at the authority *during* the cut, and schedules the anti-entropy
/// round off the fault plane's heal schedule. A driver on the server
/// machine polls the replica's `SyncStatus` from the heal onward and then
/// runs the acceptance checks.
pub fn measure_convergence(seed: u64, width: Duration, divergence: u32) -> ConvergenceOutcome {
    measure_convergence_with(seed, width, divergence, false)
}

/// [`measure_convergence`], with the anti-entropy path selectable:
/// `flat_sync` runs the same scenario over the legacy flat digest — the
/// in-world differential oracle for the Merkle walk.
pub fn measure_convergence_with(
    seed: u64,
    width: Duration,
    divergence: u32,
    flat_sync: bool,
) -> ConvergenceOutcome {
    let world = sync_world(seed, flat_sync);
    let t0 = world.domain.run();
    let cut_start = t0 + Duration::from_millis(20);
    let heal = cut_start + width;
    world.domain.schedule_partition(Partition::between(
        world.workstation,
        world.server_machine,
        cut_start,
        Some(heal),
    ));
    let replica = world.replicas[0];
    // Heal-triggered anti-entropy: the wiring reads the plane's partition
    // schedule and books one SyncPull per heal, 1 ms after connectivity
    // returns.
    for t in world.domain.heal_times() {
        world.domain.notify_at(
            t + Duration::from_millis(1),
            replica,
            Message::request(RequestCode::SyncPull),
        );
    }
    let cut_at = cut_start.as_duration();
    let heal_at = heal.as_duration();
    let (local_fs, remote_fs) = (world.local_fs, world.remote_fs);
    // The divergence: authority-side table churn the replica cannot see.
    world
        .domain
        .spawn(world.workstation, "diverge", move |ctx| {
            sleep_until(ctx, cut_at + Duration::from_millis(2));
            let client = NameClient::new(ctx, ContextPair::new(local_fs, ContextId::DEFAULT));
            for i in 0..divergence {
                client
                    .add_prefix(
                        &format!("scratch{i}"),
                        ContextPair::new(remote_fs, ContextId::DEFAULT),
                    )
                    .expect("divergence add");
            }
            client.delete_prefix("scratch0").expect("divergence delete");
        });
    let authority = world.prefix;
    let (sync_latency, rec, hash_equal, staleness, authority_queries) = world
        .domain
        .client(world.server_machine, move |ctx| {
            sleep_until(ctx, heal_at);
            let t_heal = ctx.now();
            let mut rec = sync_status(ctx, replica);
            let mut polls = 0;
            while rec.is_none_or(|r| r.rounds == 0) && polls < 400 {
                ctx.sleep(Duration::from_millis(1));
                rec = sync_status(ctx, replica);
                polls += 1;
            }
            let sync_latency = ctx.now() - t_heal;
            let auth_before = sync_status(ctx, authority);
            // The acceptance check: a resolve through the replica (the
            // local prefix server on this machine) answers Fresh and
            // never touches the authority.
            let client = NameClient::new(ctx, ContextPair::new(local_fs, ContextId::DEFAULT));
            let staleness = client.resolve("[remote]").ok().map(|b| b.staleness);
            let auth_after = sync_status(ctx, authority);
            let hash_equal = match (rec, auth_after) {
                (Some(r), Some(a)) => r.table_hash == a.table_hash,
                _ => false,
            };
            let authority_queries = match (auth_before, auth_after) {
                (Some(b), Some(a)) => a.binding_queries - b.binding_queries,
                _ => u32::MAX,
            };
            (sync_latency, rec, hash_equal, staleness, authority_queries)
        })
        .expect("driver completed");
    ConvergenceOutcome {
        width,
        divergence,
        sync_latency,
        rounds: rec.map_or(0, |r| r.rounds),
        adopted: rec.map_or(0, |r| r.adopted),
        hash_equal,
        staleness,
        authority_queries,
        probe_rounds: rec.map_or(0, |r| r.probe_rounds),
        event_hash: world.domain.event_hash(),
    }
}

/// Outcome of the post-sync crash rescue.
#[derive(Debug, Clone, Copy)]
pub struct FreshRescueOutcome {
    /// Elapsed time of the post-crash resolution.
    pub resolve: Duration,
    /// How it was answered — must be `Fresh` (contrast EXP-12).
    pub staleness: Option<Staleness>,
    /// Replica-rescued resolutions that came back fresh.
    pub fresh_from_replica: u64,
    /// Kernel event-stream hash at quiescence.
    pub event_hash: u64,
}

/// EXP-12's replica-rescue scenario run *after* one anti-entropy round:
/// the authority syncs the replica at +5 ms, crashes at +45 ms (past the
/// end of the multi-probe Merkle walk), and the client's multicast
/// fallback is answered by a replica whose table is vouched for —
/// `Fresh`, not `Suspect`.
pub fn measure_fresh_rescue(seed: u64) -> FreshRescueOutcome {
    let world = sync_world(seed, false);
    let t0 = world.domain.run();
    let replica = world.replicas[0];
    world.domain.notify_at(
        t0 + Duration::from_millis(5),
        replica,
        Message::request(RequestCode::SyncPull),
    );
    let t_crash = t0 + Duration::from_millis(45);
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
    FreshRescueOutcome {
        resolve,
        staleness,
        fresh_from_replica: stats.fresh_from_replica,
        event_hash: world.domain.event_hash(),
    }
}

/// Outcome of the replica crash → supervisor restart → one-round
/// re-learn scenario.
#[derive(Debug, Clone, Copy)]
pub struct RestartOutcome {
    /// Sync rounds the restarted replica completed (must be 1).
    pub rounds: u32,
    /// Entries it adopted in that round (the whole table).
    pub adopted: u32,
    /// Restarted replica's table hash == authority's.
    pub hash_equal: bool,
    /// Kernel event-stream hash at quiescence.
    pub event_hash: u64,
}

/// Crashes the replica, restarts it via the supervisor pattern (a process
/// spawned at boot that sleeps past the crash and runs a fresh replica
/// body), and schedules one post-restart sync round — the crash-recovery
/// analogue of the heal trigger. One round must rebuild the whole table.
pub fn measure_restart_recovery(seed: u64) -> RestartOutcome {
    let world = sync_world(seed, false);
    let t0 = world.domain.run();
    let replica = world.replicas[0];
    let t_crash = t0 + Duration::from_millis(10);
    let t_restart = t_crash + Duration::from_millis(5);
    world.domain.schedule_crash(replica, t_crash);
    let authority = world.prefix;
    let preload_direct = login_bindings(world.local_fs, world.remote_fs);
    let restart_at = t_restart.as_duration();
    // The supervisor: becomes the replacement replica after the crash. Its
    // preloads are the login-script bindings (epoch 0, unverified) — the
    // sync round is what re-earns trust.
    let new_replica = world
        .domain
        .spawn(world.server_machine, "replica-supervisor", move |ctx| {
            sleep_until(ctx, restart_at);
            prefix_server(
                ctx,
                PrefixConfig {
                    preload_direct,
                    degraded: Some(DegradedPrefixConfig {
                        authoritative: false,
                        sync_peer: Some(authority),
                        ..DegradedPrefixConfig::default()
                    }),
                    ..PrefixConfig::default()
                },
            )
        });
    world.domain.notify_at(
        t_restart + Duration::from_millis(1),
        new_replica,
        Message::request(RequestCode::SyncPull),
    );
    let (rec, auth) = world
        .domain
        .client(world.server_machine, move |ctx| {
            sleep_until(ctx, restart_at + Duration::from_millis(10));
            (sync_status(ctx, new_replica), sync_status(ctx, authority))
        })
        .expect("driver completed");
    RestartOutcome {
        rounds: rec.map_or(0, |r| r.rounds),
        adopted: rec.map_or(0, |r| r.adopted),
        hash_equal: matches!((rec, auth), (Some(r), Some(a)) if r.table_hash == a.table_hash),
        event_hash: world.domain.event_hash(),
    }
}

/// Outcome of the periodic-sync (silent divergence) scenario.
#[derive(Debug, Clone, Copy)]
pub struct PeriodicOutcome {
    /// Sync rounds completed by the bounded periodic schedule.
    pub rounds: u32,
    /// Replica hash == authority hash when the divergence-catching round
    /// has run.
    pub hash_equal: bool,
    /// Heal-free divergence → convergence delay, as a multiple of the
    /// period (must be ≤ 1.0: caught within one period).
    pub periods_to_converge: f64,
    /// Kernel event-stream hash at quiescence.
    pub event_hash: u64,
}

/// Divergence with *no* fault event: the authority's table changes while
/// the network is healthy, so no heal or recovery ever schedules a sync.
/// A bounded periodic schedule (here 3 rounds, 100 ms apart — bounded so
/// the virtual-time run still quiesces, and long enough that one
/// multi-probe walk fits well inside a period) must catch it within one
/// period.
pub fn measure_periodic(seed: u64) -> PeriodicOutcome {
    let period = Duration::from_millis(100);
    let world = sync_world(seed, false);
    let t0 = world.domain.run();
    let replica = world.replicas[0];
    for k in 1..=3u32 {
        world.domain.notify_at(
            t0 + period * k,
            replica,
            Message::request(RequestCode::SyncPull),
        );
    }
    let (local_fs, remote_fs, authority) = (world.local_fs, world.remote_fs, world.prefix);
    let t0_d = t0.as_duration();
    // Silent divergence, 80 ms in: between periodic ticks, no fault.
    let diverge_at = t0_d + Duration::from_millis(80);
    world
        .domain
        .spawn(world.workstation, "diverge", move |ctx| {
            sleep_until(ctx, diverge_at);
            let client = NameClient::new(ctx, ContextPair::new(local_fs, ContextId::DEFAULT));
            client
                .add_prefix("silent", ContextPair::new(remote_fs, ContextId::DEFAULT))
                .expect("silent add");
        });
    let (rec, auth, caught_at) = world
        .domain
        .client(world.server_machine, move |ctx| {
            // Poll from the divergence point until the replica's table
            // covers it (hash can only match after a periodic round).
            sleep_until(ctx, diverge_at);
            let mut caught_at = ctx.now();
            let mut rec = sync_status(ctx, replica);
            let mut auth = sync_status(ctx, authority);
            let mut polls = 0;
            while polls < 200 {
                if let (Some(r), Some(a)) = (rec, auth) {
                    if r.rounds > 0 && r.table_hash == a.table_hash {
                        caught_at = ctx.now();
                        break;
                    }
                }
                ctx.sleep(Duration::from_millis(2));
                rec = sync_status(ctx, replica);
                auth = sync_status(ctx, authority);
                polls += 1;
            }
            (rec, auth, caught_at)
        })
        .expect("driver completed");
    let delay = caught_at.saturating_sub(diverge_at);
    PeriodicOutcome {
        rounds: rec.map_or(0, |r| r.rounds),
        hash_equal: matches!((rec, auth), (Some(r), Some(a)) if r.table_hash == a.table_hash),
        periods_to_converge: delay.as_nanos() as f64 / period.as_nanos() as f64,
        event_hash: world.domain.event_hash(),
    }
}

/// One rung of the table-size sweep: wire/CPU cost of reconciling the
/// fixed [`SWEEP_DIVERGENCE`] at `names` table entries.
#[derive(Debug, Clone, Copy)]
pub struct SweepRow {
    /// Table size (names at the authority).
    pub names: u32,
    /// Cost of one Merkle subtree-walk round.
    pub merkle: RoundStats,
    /// Cost of one legacy flat-digest round (`None` above
    /// [`FLAT_SWEEP_CAP`]).
    pub flat: Option<RoundStats>,
    /// Both paths left the replica hash-identical to the authority — and
    /// to each other.
    pub hash_equal: bool,
}

fn sweep_name(i: u32) -> Vec<u8> {
    format!("n{i:07}").into_bytes()
}

fn sweep_bind(i: u32) -> SyncBinding {
    SyncBinding {
        logical: i.is_multiple_of(2),
        target: i,
        context: i ^ 0x5a,
    }
}

/// Builds an authority table of `names` entries, warms an identical
/// replica, applies the fixed divergence ([`SWEEP_DIVERGENCE`]
/// redefinitions plus one delete) at the authority, then reconciles once
/// over the Merkle walk and once — from the same pre-round snapshot —
/// over the flat oracle. Transport-free: the tables talk through the real
/// wire records ([`merkle_round`]/[`flat_round`] encode every payload),
/// so bytes mean wire bytes, without simulating 10⁶ IPC deliveries.
pub fn measure_sweep_rung(names: u32) -> SweepRow {
    let mut auth = SyncTable::new();
    let mut now: u64 = 1_000;
    for i in 0..names {
        now += 17;
        auth.define(sweep_name(i), sweep_bind(i), now);
    }
    // The one O(table) Merkle build happens here, before cloning, so the
    // replica inherits warm hash caches (as a long-running server would).
    let _ = auth.table_hash();
    let mut replica = auth.clone();
    // A delivered warm-up round records the replica's watermark at the
    // authority; the tables are already identical, so it is a single
    // matching root probe.
    now += 17;
    merkle_round(
        &mut auth,
        &mut replica,
        RoundKind::Authority { replica_id: 0 },
        now,
        RoundFate::DELIVERED,
    );
    // The fixed divergence, invisible to the replica.
    for i in 0..SWEEP_DIVERGENCE {
        now += 17;
        auth.define(sweep_name(i), sweep_bind(i ^ 0x00be_ef00), now);
    }
    now += 17;
    auth.tombstone(&sweep_name(0), now);

    let flat_snapshot = (names <= FLAT_SWEEP_CAP).then(|| (auth.clone(), replica.clone()));
    now += 17;
    let (_, merkle) = merkle_round(
        &mut auth,
        &mut replica,
        RoundKind::Authority { replica_id: 0 },
        now,
        RoundFate::DELIVERED,
    );
    let mut hash_equal = replica.table_hash() == auth.table_hash();
    let flat = flat_snapshot.map(|(mut flat_auth, mut flat_rep)| {
        let (_, stats) = flat_round(
            &mut flat_auth,
            &mut flat_rep,
            RoundKind::Authority { replica_id: 0 },
            now,
            RoundFate::DELIVERED,
        );
        hash_equal = hash_equal
            && flat_rep.table_hash() == flat_auth.table_hash()
            && flat_rep.table_hash() == replica.table_hash();
        stats
    });
    SweepRow {
        names,
        merkle,
        flat,
        hash_equal,
    }
}

/// Runs the whole [`SWEEP_SIZES`] sweep.
pub fn measure_sweep() -> Vec<SweepRow> {
    SWEEP_SIZES.iter().map(|&n| measure_sweep_rung(n)).collect()
}

/// Runs EXP-13.
pub fn run() -> ExpReport {
    let mut rep = ExpReport::new(
        "EXP-13",
        "Anti-entropy reconciliation between prefix replicas: one-round convergence, fresh rescues",
    );
    for width in CUT_WIDTHS {
        for divergence in DIVERGENCES {
            let out = measure_convergence(EXP13_SEED, width, divergence);
            let w = width.as_millis();
            let tag = if out.hash_equal {
                "identical"
            } else {
                "DIVERGED"
            };
            rep.push(ExpRow::measured_only(
                format!("sync latency after {w} ms cut, {divergence} ops ({tag})"),
                ms(out.sync_latency),
                "ms",
            ));
            rep.push(ExpRow::measured_only(
                format!("entries adopted, {w} ms cut, {divergence} ops"),
                f64::from(out.adopted),
                "entries",
            ));
            rep.push(ExpRow::measured_only(
                format!("authority queries to clear Suspect, {w} ms cut, {divergence} ops"),
                f64::from(out.authority_queries),
                "count",
            ));
        }
    }
    let rescue = measure_fresh_rescue(EXP13_SEED);
    rep.push(ExpRow::measured_only(
        "resolve after authority crash (synced replica)",
        ms(rescue.resolve),
        "ms",
    ));
    rep.push(ExpRow::measured_only(
        "fresh replica rescues, authority crash",
        rescue.fresh_from_replica as f64,
        "count",
    ));
    let restart = measure_restart_recovery(EXP13_SEED);
    rep.push(ExpRow::measured_only(
        "rounds to rebuild restarted replica",
        f64::from(restart.rounds),
        "rounds",
    ));
    rep.push(ExpRow::measured_only(
        "entries re-learned after restart",
        f64::from(restart.adopted),
        "entries",
    ));
    let periodic = measure_periodic(EXP13_SEED);
    rep.push(ExpRow::measured_only(
        "periods to catch silent divergence",
        periodic.periods_to_converge,
        "periods",
    ));
    let sweep = measure_sweep();
    for row in &sweep {
        let tag = if row.hash_equal {
            "identical"
        } else {
            "DIVERGED"
        };
        rep.push(ExpRow::measured_only(
            format!("merkle round bytes @ {} names ({tag})", row.names),
            row.merkle.bytes() as f64,
            "bytes",
        ));
        rep.push(ExpRow::measured_only(
            format!("merkle probes @ {} names", row.names),
            f64::from(row.merkle.probes),
            "probes",
        ));
        rep.push(ExpRow::measured_only(
            format!("merkle work units @ {} names", row.names),
            row.merkle.work() as f64,
            "units",
        ));
        if let Some(flat) = row.flat {
            rep.push(ExpRow::measured_only(
                format!("flat round bytes @ {} names", row.names),
                flat.bytes() as f64,
                "bytes",
            ));
        }
    }
    if let (Some(first), Some(last)) = (sweep.first(), sweep.last()) {
        rep.push(ExpRow::measured_only(
            "merkle bytes growth, 1e3 to 1e6 names (bound: 2x)",
            last.merkle.bytes() as f64 / first.merkle.bytes() as f64,
            "x",
        ));
        rep.push(ExpRow::measured_only(
            "merkle work growth, 1e3 to 1e6 names (bound: 2x)",
            last.merkle.work() as f64 / first.merkle.work() as f64,
            "x",
        ));
    }
    let flat_first = sweep.first().and_then(|r| r.flat);
    let flat_last = sweep
        .iter()
        .rev()
        .find_map(|r| r.flat.map(|f| (r.names, f)));
    if let (Some(f0), Some((n, fl))) = (flat_first, flat_last) {
        rep.push(ExpRow::measured_only(
            format!("flat bytes growth, 1e3 to {n} names (linear)"),
            fl.bytes() as f64 / f0.bytes() as f64,
            "x",
        ));
    }
    let diff_m = measure_convergence_with(EXP13_SEED, Duration::from_millis(200), 8, false);
    let diff_f = measure_convergence_with(EXP13_SEED, Duration::from_millis(200), 8, true);
    rep.push(ExpRow::measured_only(
        "merkle vs flat adopted delta, in-world (must be 0)",
        f64::from(diff_m.adopted.abs_diff(diff_f.adopted)),
        "entries",
    ));
    rep.push(ExpRow::measured_only(
        "replica probe rounds, merkle path (200 ms cut)",
        f64::from(diff_m.probe_rounds),
        "probes",
    ));
    rep.note(
        "the sync digest is a Merkle tree over the table (fanout 16, 5 levels, root = \
         table_hash): a round walks only diverging subtrees, so bytes and work track the \
         divergence, not the table — within 2x from 1e3 to 1e6 names while the flat \
         oracle's whole-table digest grows linearly",
    );
    rep.note(
        "one digest→delta→apply round after each heal makes the replica's versioned table \
         hash-identical to the authority's — tombstones propagate deletes, per-entry epochs \
         stamped at the authority decide every conflict, and the round is atomic",
    );
    rep.note(
        "clearing Suspect costs zero client→authority queries: the round itself is the \
         authority vouching for the table, so post-sync binding queries answer Fresh from \
         the replica (EXP-12's rescue was Suspect; the same rescue is now Fresh)",
    );
    rep.note(
        "sync triggers are scheduled events — partition heals (heal_times + notify_at), \
         crash recoveries (post-restart pull), and a bounded periodic schedule for \
         divergence no fault event announces",
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_round_converges_for_every_width_and_divergence() {
        for width in CUT_WIDTHS {
            for divergence in DIVERGENCES {
                let out = measure_convergence(EXP13_SEED, width, divergence);
                assert!(out.hash_equal, "{out:?}");
                assert_eq!(out.rounds, 1, "{out:?}");
                // The delta covers at least the divergence ops (plus the
                // replica's unverified preloads).
                assert!(out.adopted >= divergence, "{out:?}");
                // The walk pays one request/reply per diverging tree
                // level (6 at full depth), so the bound is wider than the
                // flat path's single exchange — but still one round, not
                // a retry ladder.
                assert!(
                    out.sync_latency < Duration::from_millis(50),
                    "convergence must take tens of milliseconds, not another ladder: {out:?}"
                );
            }
        }
    }

    #[test]
    fn post_sync_resolve_is_fresh_with_zero_authority_queries() {
        let out = measure_convergence(EXP13_SEED, Duration::from_millis(200), 8);
        // The acceptance criterion: after the heal-scheduled round, the
        // replica answers Fresh and the authority's binding-query counter
        // never moves — anti-entropy cleared Suspect, not client probes.
        assert_eq!(out.staleness, Some(Staleness::Fresh), "{out:?}");
        assert_eq!(out.authority_queries, 0, "{out:?}");
    }

    #[test]
    fn crash_rescue_after_sync_is_fresh_not_suspect() {
        let out = measure_fresh_rescue(EXP13_SEED);
        assert_eq!(out.staleness, Some(Staleness::Fresh), "{out:?}");
        assert_eq!(out.fresh_from_replica, 1, "{out:?}");
    }

    #[test]
    fn restarted_replica_relearns_the_table_in_one_round() {
        let out = measure_restart_recovery(EXP13_SEED);
        assert_eq!(out.rounds, 1, "{out:?}");
        assert!(out.hash_equal, "{out:?}");
        // The whole table (three login-script bindings) was re-earned.
        assert!(out.adopted >= 3, "{out:?}");
    }

    #[test]
    fn periodic_sync_catches_silent_divergence_within_one_period() {
        let out = measure_periodic(EXP13_SEED);
        assert!(out.hash_equal, "{out:?}");
        assert!(out.rounds >= 1, "{out:?}");
        assert!(out.periods_to_converge <= 1.0, "{out:?}");
    }

    #[test]
    fn sweep_cost_is_divergence_bound_not_table_bound() {
        let sweep = measure_sweep();
        for row in &sweep {
            assert!(row.hash_equal, "{row:?}");
            // The walk is depth-bounded: one probe per tree level at most.
            assert!(row.merkle.probes <= 6, "{row:?}");
        }
        let (first, last) = (&sweep[0], &sweep[sweep.len() - 1]);
        assert_eq!(first.names, 1_000);
        assert_eq!(last.names, 1_000_000);
        // The acceptance bound: Merkle round cost within 2x across three
        // orders of magnitude of table growth, at fixed divergence.
        assert!(
            last.merkle.bytes() as f64 <= 2.0 * first.merkle.bytes() as f64,
            "merkle bytes not divergence-bound: {first:?} -> {last:?}"
        );
        assert!(
            last.merkle.work() as f64 <= 2.0 * first.merkle.work() as f64,
            "merkle work not divergence-bound: {first:?} -> {last:?}"
        );
        // The flat oracle grows linearly with the table (within the cap).
        let f0 = sweep[0].flat.expect("flat oracle runs at 1e3");
        let f2 = sweep[2].flat.expect("flat oracle runs at 1e5");
        assert!(
            f2.bytes() >= 50 * f0.bytes(),
            "flat oracle should grow ~linearly: {f0:?} -> {f2:?}"
        );
        assert!(sweep[3].flat.is_none(), "flat oracle capped at 1e5");
    }

    #[test]
    fn merkle_and_flat_worlds_converge_identically() {
        let w = Duration::from_millis(200);
        let m = measure_convergence_with(EXP13_SEED, w, 8, false);
        let f = measure_convergence_with(EXP13_SEED, w, 8, true);
        assert!(m.hash_equal, "{m:?}");
        assert!(f.hash_equal, "{f:?}");
        assert_eq!(m.adopted, f.adopted, "{m:?} vs {f:?}");
        assert_eq!(m.rounds, 1, "{m:?}");
        assert_eq!(f.rounds, 1, "{f:?}");
        assert_eq!(m.staleness, Some(Staleness::Fresh), "{m:?}");
        assert_eq!(f.staleness, Some(Staleness::Fresh), "{f:?}");
        assert_eq!(m.authority_queries, 0, "{m:?}");
        assert_eq!(f.authority_queries, 0, "{f:?}");
        // The witness that the Merkle walk carried the round — and that
        // the oracle flag really forces the legacy path.
        assert!(m.probe_rounds > 0, "{m:?}");
        assert_eq!(f.probe_rounds, 0, "{f:?}");
    }

    #[test]
    fn equal_seeds_give_equal_event_hashes() {
        let w = Duration::from_millis(200);
        assert_eq!(
            measure_convergence(EXP13_SEED, w, 8).event_hash,
            measure_convergence(EXP13_SEED, w, 8).event_hash
        );
        assert_eq!(
            measure_convergence_with(EXP13_SEED, w, 8, true).event_hash,
            measure_convergence_with(EXP13_SEED, w, 8, true).event_hash
        );
        assert_eq!(
            measure_fresh_rescue(EXP13_SEED).event_hash,
            measure_fresh_rescue(EXP13_SEED).event_hash
        );
        assert_eq!(
            measure_restart_recovery(EXP13_SEED).event_hash,
            measure_restart_recovery(EXP13_SEED).event_hash
        );
        assert_eq!(
            measure_periodic(EXP13_SEED).event_hash,
            measure_periodic(EXP13_SEED).event_hash
        );
    }
}
