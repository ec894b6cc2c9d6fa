//! EXP-10 — Ablations of two design choices the paper argues for.
//!
//! **(a) Forwarding vs client-driven iteration** (§5.4): V forwards a
//! partially interpreted request from server to server while the client
//! stays blocked. The alternative — the client maps the context first
//! (`QueryName`), then sends the operation directly — costs a full extra
//! transaction. Both are measured for a prefix-routed open.
//!
//! **(b) Client-side name caching** (§2.2): "Caching the name in the client
//! would introduce inconsistency problems and only benefit the few
//! applications that reuse names." The cache (off by default in
//! [`vruntime::NameClient`]) is measured for both halves of that sentence:
//! the latency benefit on reuse, and the stale-binding failures after a
//! server is restarted.

use crate::report::{ms, ExpReport, ExpRow};
use crate::world::boot_world;
use std::time::Duration;
use vkernel::SimDomain;
use vnet::Params1984;
use vproto::{ContextId, ContextPair, OpenMode, Scope};
use vruntime::NameClient;
use vservers::{file_server, prefix_server, FileServerConfig, PrefixConfig};

/// Measures a prefix-routed open done by forwarding (the V way) vs by
/// client-driven iteration (map first, then open directly).
pub fn measure_forward_vs_iterate(params: Params1984) -> (Duration, Duration) {
    let world = boot_world(params);
    let local_fs = world.local_fs;
    world.client(move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(local_fs, ContextId::DEFAULT));
        let iters = 20u32;
        // (1) Forwarded: one send, interpreted along the way.
        let t0 = ctx.now();
        for _ in 0..iters {
            client.open("[local]paper.txt", OpenMode::Read).unwrap();
        }
        let forwarded = (ctx.now() - t0) / iters;
        // (2) Iterated: QueryName transaction, then a direct open.
        let t1 = ctx.now();
        for _ in 0..iters {
            let pair = client.query_name("[local]").unwrap();
            let direct = NameClient::new(ctx, pair);
            direct.open("paper.txt", OpenMode::Read).unwrap();
        }
        let iterated = (ctx.now() - t1) / iters;
        (forwarded, iterated)
    })
}

/// Outcome of the caching ablation.
#[derive(Debug, Clone, Copy)]
pub struct CacheOutcome {
    /// Mean open latency without the cache.
    pub uncached: Duration,
    /// Mean open latency with a warm cache.
    pub cached: Duration,
    /// Opens that failed against a stale binding after the server restart.
    pub stale_failures: u64,
    /// Opens that a per-use prefix lookup (no cache) got right after the
    /// restart.
    pub uncached_failures: u64,
}

/// Measures the cache's speedup on reuse and its inconsistency after a
/// server crash/restart with a changed pid.
pub fn measure_cache(params: Params1984) -> CacheOutcome {
    let domain = SimDomain::new(params);
    let ws = domain.add_host();
    let sm = domain.add_host();
    let spawn_fs = |label: &str| {
        let cfg = FileServerConfig {
            service_scope: Some(Scope::Both),
            preload: vec![("paper.txt".into(), b"x".to_vec())],
            ..FileServerConfig::default()
        };
        domain.spawn(sm, label, move |ctx| file_server(ctx, cfg))
    };
    let fs_v1 = spawn_fs("fs-v1");
    domain.spawn(ws, "prefix", |ctx| {
        prefix_server(ctx, PrefixConfig::default())
    });
    domain.run();
    // A *logical* prefix: the prefix server re-resolves it per use, so the
    // per-use path stays correct across restarts; the client cache is what
    // goes stale.
    domain
        .client(ws, move |ctx| {
            let client = NameClient::new(ctx, ContextPair::new(fs_v1, ContextId::DEFAULT));
            client
                .add_logical_prefix("fs", vproto::ServiceId::FILE_SERVER, ContextId::DEFAULT)
                .unwrap();
        })
        .unwrap();

    let iters = 20u32;
    let (uncached, cached) = domain
        .client(ws, move |ctx| {
            let mut client = NameClient::new(ctx, ContextPair::new(fs_v1, ContextId::DEFAULT));
            let t0 = ctx.now();
            for _ in 0..iters {
                client.open("[fs]paper.txt", OpenMode::Read).unwrap();
            }
            let uncached = (ctx.now() - t0) / iters;
            client.enable_name_cache();
            client.open("[fs]paper.txt", OpenMode::Read).unwrap(); // warm
            let t1 = ctx.now();
            for _ in 0..iters {
                client.open("[fs]paper.txt", OpenMode::Read).unwrap();
            }
            let cached = (ctx.now() - t1) / iters;
            (uncached, cached)
        })
        .expect("latency phase");

    // Crash and restart the file server with a new pid.
    domain.kill(fs_v1);
    let _fs_v2 = spawn_fs("fs-v2");
    domain.run();

    let (stale_failures, uncached_failures) = domain
        .client(ws, move |ctx| {
            // A client that cached the old binding before the crash.
            let mut caching = NameClient::new(ctx, ContextPair::new(fs_v1, ContextId::DEFAULT));
            caching.enable_name_cache();
            // Plant the stale entry the pre-crash client would have held.
            caching.plant_cache_entry(b"fs", ContextPair::new(fs_v1, ContextId::DEFAULT));
            let mut stale = 0u64;
            for _ in 0..10 {
                // First failure invalidates; the retry path goes through
                // the prefix server. Count how many ATTEMPTS hit the stale
                // binding (the recovery cost of caching).
                let before = caching.cache_stats().invalidations;
                caching.open("[fs]paper.txt", OpenMode::Read).unwrap();
                stale += caching.cache_stats().invalidations - before;
            }
            let plain = NameClient::new(ctx, ContextPair::new(fs_v1, ContextId::DEFAULT));
            let mut uncached_failures = 0u64;
            for _ in 0..10 {
                if plain.open("[fs]paper.txt", OpenMode::Read).is_err() {
                    uncached_failures += 1;
                }
            }
            (stale, uncached_failures)
        })
        .expect("consistency phase");

    CacheOutcome {
        uncached,
        cached,
        stale_failures,
        uncached_failures,
    }
}

/// Runs EXP-10.
pub fn run() -> ExpReport {
    let mut rep = ExpReport::new(
        "EXP-10",
        "ablations: forwarding vs iteration (§5.4); client name cache (§2.2)",
    );
    let (forwarded, iterated) = measure_forward_vs_iterate(Params1984::ethernet_3mbit());
    rep.push(ExpRow::measured_only(
        "prefix open, forwarded (the V design)",
        ms(forwarded),
        "ms",
    ));
    rep.push(ExpRow::measured_only(
        "prefix open, client-iterated (map, then open)",
        ms(iterated),
        "ms",
    ));
    let c = measure_cache(Params1984::ethernet_3mbit());
    rep.push(ExpRow::measured_only(
        "open via logical prefix, uncached",
        ms(c.uncached),
        "ms",
    ));
    rep.push(ExpRow::measured_only(
        "open via logical prefix, warm client cache",
        ms(c.cached),
        "ms",
    ));
    rep.push(ExpRow::measured_only(
        "stale-binding hits after restart (cached client, 10 opens)",
        c.stale_failures as f64,
        "events",
    ));
    rep.push(ExpRow::measured_only(
        "failures after restart (per-use interpretation, 10 opens)",
        c.uncached_failures as f64,
        "events",
    ));
    rep.note("both halves of the paper's §2.2 sentence hold: caching helps reuse (it skips the ~4 ms prefix-server processing) and it is exactly what breaks when a server is recreated with a new pid");
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwarding_beats_client_iteration() {
        let (forwarded, iterated) = measure_forward_vs_iterate(Params1984::ethernet_3mbit());
        assert!(forwarded < iterated, "{forwarded:?} vs {iterated:?}");
        // The gap is roughly one transaction plus one prefix processing.
        let gap_ms = ms(iterated - forwarded);
        assert!((0.5..8.0).contains(&gap_ms), "gap {gap_ms} ms");
    }

    #[test]
    fn cache_helps_reuse_but_dangles_on_restart() {
        let c = measure_cache(Params1984::ethernet_3mbit());
        assert!(c.cached < c.uncached, "{c:?}");
        // The cached client hit the stale binding at least once; the
        // per-use client never failed.
        assert!(c.stale_failures >= 1, "{c:?}");
        assert_eq!(c.uncached_failures, 0, "{c:?}");
    }

    #[test]
    fn cache_recovers_after_invalidation() {
        // Implicit in measure_cache (all opens unwrap); re-check the stats
        // shape: exactly one invalidation, then hits again.
        let c = measure_cache(Params1984::ethernet_3mbit());
        assert_eq!(c.stale_failures, 1, "one stale hit, then recovery: {c:?}");
    }
}
