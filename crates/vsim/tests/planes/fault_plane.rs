//! Fault-plane tests: loss, retry budgets and crash recovery.

use crate::seed;
use std::time::Duration;
use vnaming::BackoffPolicy;
use vnet::{FaultConfig, FaultStats, Params1984};
use vproto::{ContextId, ContextPair, OpenMode};
use vruntime::{NameClient, RetryStats};
use vservers::{prefix_server, PrefixConfig};
use vsim::world::{boot_world_with, sleep_until};

/// A canned lossy scenario: 50 prefix-route opens of a remote file.
/// Returns everything observable: the domain's event hash, the kernel's
/// fault accounting, the number of successful opens, and the client's
/// retry counters.
fn lossy_scenario(seed: u64, loss_p: f64) -> (u64, FaultStats, u64, RetryStats) {
    let world = boot_world_with(
        Params1984::ethernet_3mbit(),
        Some(FaultConfig::lossless(seed).with_loss(loss_p)),
    );
    let local_fs = world.local_fs;
    let (successes, retry_stats) = world.client(move |ctx| {
        let client = NameClient::new(ctx, ContextPair::new(local_fs, ContextId::DEFAULT));
        let mut successes = 0u64;
        for _ in 0..50 {
            if client.open("[remote]paper.txt", OpenMode::Read).is_ok() {
                successes += 1;
            }
        }
        (successes, client.retry_stats())
    });
    (
        world.domain.event_hash(),
        world.domain.fault_stats(),
        successes,
        retry_stats,
    )
}

#[test]
fn equal_seeds_produce_equal_event_hashes() {
    let s = seed();
    let a = lossy_scenario(s, 0.02);
    let b = lossy_scenario(s, 0.02);
    assert_eq!(a, b, "same seed, same workload: every observable differs");
}

#[test]
fn retries_are_bounded_under_heavy_loss() {
    let (_, kernel, successes, retries) = lossy_scenario(seed(), 0.2);
    let policy = BackoffPolicy::default();
    // Every open costs at least one attempt and at most the policy budget:
    // a retry storm is structurally impossible.
    assert!(retries.attempts >= 50, "{retries:?}");
    assert!(
        retries.attempts <= 50 * policy.max_attempts as u64,
        "{retries:?}"
    );
    assert_eq!(retries.attempts - 50, retries.retries, "{retries:?}");
    // Under pure loss the only failure mode is a timed-out transaction;
    // every open either succeeded or exhausted its budget.
    assert_eq!(successes + retries.gave_up, 50, "{retries:?}");
    // The kernel's ladder accounting balances (partition_drops is zero
    // here — no cut is scheduled — but the extended law is what holds).
    assert_eq!(
        kernel.drops + kernel.partition_drops,
        kernel.retransmits + kernel.exhausted * 5,
        "{kernel:?}"
    );
}

#[test]
fn stale_client_binding_recovers_via_broadcast_requery() {
    // A client that bound the prefix server's pid before a crash must
    // recover through the broadcast GetPid re-query (paper §4.2: caches
    // are hints, re-resolution is the recovery), not by luck of timing.
    let world = boot_world_with(
        Params1984::ethernet_3mbit(),
        Some(FaultConfig::lossless(seed())),
    );
    let t0 = world.domain.run();
    let t_crash = t0 + Duration::from_millis(50);
    let t_restart = t_crash + Duration::from_millis(50);
    world.domain.schedule_crash(world.prefix, t_crash);

    let (local_fs, remote_fs) = (world.local_fs, world.remote_fs);
    let wake = t_restart.as_duration();
    world
        .domain
        .spawn(world.workstation, "prefix-standby", move |ctx| {
            sleep_until(ctx, wake);
            prefix_server(
                ctx,
                PrefixConfig {
                    preload_direct: vec![(
                        "remote".into(),
                        ContextPair::new(remote_fs, ContextId::DEFAULT),
                    )],
                    ..PrefixConfig::default()
                },
            );
        });

    let resume = t_restart + Duration::from_millis(50);
    let resume_at = resume.as_duration();
    let stats = world.client(move |ctx| {
        let mut client = NameClient::new(ctx, ContextPair::new(local_fs, ContextId::DEFAULT));
        client.set_retry_policy(BackoffPolicy::recovery());
        // Bind the original prefix server's pid...
        client.open("[remote]paper.txt", OpenMode::Read).unwrap();
        // ...sleep through the crash and the restart...
        sleep_until(ctx, resume_at);
        // ...and open again: the bound pid is stale (the server at it is
        // dead), so the client must re-query and rebind.
        client.open("[remote]paper.txt", OpenMode::Read).unwrap();
        client.retry_stats()
    });
    assert!(stats.retries >= 1, "{stats:?}");
    assert!(
        stats.rebinds >= 1,
        "stale binding never re-queried: {stats:?}"
    );
    assert_eq!(stats.gave_up, 0, "{stats:?}");
}
