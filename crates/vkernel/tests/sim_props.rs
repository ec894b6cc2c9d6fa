//! Property-based tests of the virtual-time kernel: for *any* randomly
//! generated workload, repeated runs must produce identical virtual
//! timings, and basic conservation properties must hold.

use bytes::Bytes;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use vkernel::SimDomain;
use vnet::{FaultConfig, Params1984, Partition, SimTime, RETRANSMIT};
use vproto::{LogicalHost, Message, RequestCode};

/// One step of a generated client script.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Transact with server `s % n_servers`, with a payload of `len` bytes.
    Send { s: u8, len: u16 },
    /// Sleep for `ms` milliseconds.
    Sleep { ms: u8 },
    /// Charge local work.
    Charge { us: u16 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 0u16..2048).prop_map(|(s, len)| Op::Send { s, len }),
        (0u8..20).prop_map(|ms| Op::Sleep { ms }),
        (0u16..5000).prop_map(|us| Op::Charge { us }),
    ]
}

#[derive(Debug, Clone)]
struct Workload {
    n_servers: usize,
    n_hosts: usize,
    scripts: Vec<Vec<Op>>,
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    (
        1usize..4,
        1usize..4,
        proptest::collection::vec(proptest::collection::vec(arb_op(), 0..12), 1..5),
    )
        .prop_map(|(n_servers, n_hosts, scripts)| Workload {
            n_servers,
            n_hosts,
            scripts,
        })
}

/// Executes the workload and returns (final virtual time, per-client
/// elapsed times, total transactions completed).
fn execute(w: &Workload) -> (u64, Vec<u64>, u64) {
    execute_with(w, None).0
}

/// Executes the workload, optionally under a fault plane, and returns the
/// summary of [`execute`] plus the domain's event hash and fault stats.
fn execute_with(
    w: &Workload,
    faults: Option<FaultConfig>,
) -> ((u64, Vec<u64>, u64), u64, vnet::FaultStats) {
    let domain = match faults {
        Some(cfg) => SimDomain::with_faults(Params1984::ethernet_3mbit(), cfg),
        None => SimDomain::new(Params1984::ethernet_3mbit()),
    };
    let hosts: Vec<_> = (0..w.n_hosts).map(|_| domain.add_host()).collect();
    let servers: Vec<_> = (0..w.n_servers)
        .map(|i| {
            domain.spawn(hosts[i % hosts.len()], "echo", |ctx| {
                while let Ok(rx) = ctx.receive() {
                    let msg = rx.msg;
                    let payload = ctx.move_from(&rx).unwrap_or_default();
                    ctx.reply(rx, msg, payload).ok();
                }
            })
        })
        .collect();
    domain.run();

    let results: Vec<Arc<parking_lot::Mutex<(u64, u64)>>> = w
        .scripts
        .iter()
        .enumerate()
        .map(|(i, script)| {
            let slot = Arc::new(parking_lot::Mutex::new((0u64, 0u64)));
            let out = Arc::clone(&slot);
            let script = script.clone();
            let servers = servers.clone();
            domain.spawn(hosts[i % hosts.len()], "client", move |ctx| {
                let t0 = ctx.now();
                let mut txns = 0u64;
                for op in script {
                    match op {
                        Op::Send { s, len } => {
                            let target = servers[s as usize % servers.len()];
                            let payload = Bytes::from(vec![0u8; len as usize]);
                            if ctx
                                .send(
                                    target,
                                    Message::request(RequestCode::Echo),
                                    payload,
                                    len as usize,
                                )
                                .is_ok()
                            {
                                txns += 1;
                            }
                        }
                        Op::Sleep { ms } => ctx.sleep(Duration::from_millis(ms as u64)),
                        Op::Charge { us } => ctx.charge(Duration::from_micros(us as u64)),
                    }
                }
                *out.lock() = ((ctx.now() - t0).as_nanos() as u64, txns);
            });
            slot
        })
        .collect();
    let end = domain.run();
    let mut elapsed = Vec::new();
    let mut total_txns = 0;
    for slot in results {
        let (e, t) = *slot.lock();
        elapsed.push(e);
        total_txns += t;
    }
    (
        (end.as_nanos(), elapsed, total_txns),
        domain.event_hash(),
        domain.fault_stats(),
    )
}

/// An arbitrary partition window over the workload's possible hosts: a
/// cut naming a host the workload never created simply never matches.
fn arb_partition() -> impl Strategy<Value = Partition> {
    (1u16..4, 1u16..4, 0u64..100, 0u64..100, any::<bool>()).prop_map(
        |(a, b, start_ms, width_ms, symmetric)| {
            let start = SimTime::ZERO + Duration::from_millis(start_ms);
            let heal = Some(start + Duration::from_millis(width_ms));
            Partition {
                from: LogicalHost::new(a),
                to: LogicalHost::new(b),
                start,
                heal,
                symmetric,
            }
        },
    )
}

/// An arbitrary fault plane: seed, loss/duplication probabilities, jitter,
/// and up to two scheduled partitions.
fn arb_faults() -> impl Strategy<Value = FaultConfig> {
    (
        any::<u64>(),
        0.0f64..0.3,
        0.0f64..0.2,
        0u64..2000,
        proptest::collection::vec(arb_partition(), 0..3),
        any::<bool>(),
    )
        .prop_map(
            |(seed, loss, dup, jitter_us, partitions, adaptive)| FaultConfig {
                adaptive,
                partitions,
                ..FaultConfig::lossless(seed)
                    .with_loss(loss)
                    .with_dup(dup)
                    .with_jitter(Duration::from_micros(jitter_us))
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Determinism: any workload produces bit-identical virtual timings on
    /// every run.
    #[test]
    fn arbitrary_workloads_are_deterministic(w in arb_workload()) {
        let a = execute(&w);
        let b = execute(&w);
        prop_assert_eq!(a, b);
    }

    /// Fault determinism: equal fault seeds (with equal workloads) produce
    /// bit-identical virtual timings, event hashes, and fault statistics.
    #[test]
    fn equal_fault_seeds_are_deterministic(w in arb_workload(), cfg in arb_faults()) {
        let a = execute_with(&w, Some(cfg.clone()));
        let b = execute_with(&w, Some(cfg));
        prop_assert_eq!(a, b);
    }

    /// Fault accounting is conserved: every lost attempt — dropped on the
    /// wire or severed by a partition — is either eventually retransmitted
    /// to success or part of an exhausted ladder of exactly `max_attempts`
    /// losses. No drop goes unaccounted, so no transaction can be silently
    /// swallowed by the plane, partitions included.
    #[test]
    fn fault_accounting_is_conserved(w in arb_workload(), cfg in arb_faults()) {
        let max = u64::from(RETRANSMIT.max_attempts);
        let (_, _, stats) = execute_with(&w, Some(cfg));
        prop_assert_eq!(
            stats.drops + stats.partition_drops,
            stats.retransmits + stats.exhausted * max
        );
    }

    /// Conservation: every send to a live echo server completes, and each
    /// client's elapsed time is at least the sum of its own sleeps/charges.
    #[test]
    fn time_is_monotone_and_work_completes(w in arb_workload()) {
        let (end, elapsed, txns) = execute(&w);
        let expected_txns: u64 = w
            .scripts
            .iter()
            .flatten()
            .filter(|op| matches!(op, Op::Send { .. }))
            .count() as u64;
        prop_assert_eq!(txns, expected_txns);
        for (script, e) in w.scripts.iter().zip(&elapsed) {
            let floor: u64 = script
                .iter()
                .map(|op| match op {
                    Op::Sleep { ms } => *ms as u64 * 1_000_000,
                    Op::Charge { us } => *us as u64 * 1_000,
                    Op::Send { .. } => 770_000, // at least a local txn
                })
                .sum();
            prop_assert!(*e >= floor, "elapsed {} < floor {}", e, floor);
            prop_assert!(end >= *e);
        }
    }
}
