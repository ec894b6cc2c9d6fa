//! Per-layer figures, measured from outside: each one times calls into a
//! layer's public functions, on inputs shaped like the workloads'. They
//! are reported by the traced run and never gated; their job is to say
//! *which* layer an end-to-end number moved because of.

use crate::load::{binding_of, uniform_ring, NameTable};
use crate::stats::{median_f64, resident_mb, time_ns};
use crate::worlds::{
    boot_open_world, echo_server, forward_server, open_file_path, table_entries, Scale,
    OPEN_PREFIXES, W_ECHO_REPLY_LEN,
};
use bytes::Bytes;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use vcentral::{central_name_server, object_store, CentralClient};
use vkernel::{Domain, Ipc, SimDomain};
use vnaming::{build_csname_request, resolve, ComponentSpace, CsRequest, Outcome, Step};
use vnet::{FaultConfig, FaultPlane, Params1984, SimTime};
use vproto::{
    ContextId, CsName, LogicalHost, Message, OpenMode, Pid, RequestCode, ResolveAnswer,
    ResolveBatchMsg, ResolveBatchReply, SyncBinding, RESOLVE_NOT_FOUND, RESOLVE_OK,
};
use vservers::{merkle_round, RoundFate, RoundKind, ShardedTable, SyncTable};

/// Loss rate of the `sim_lossy_open` fault plane.
pub const SIM_LOSS: f64 = 0.05;

pub fn sim_faults(seed: u64) -> FaultConfig {
    FaultConfig::lossless(seed).with_loss(SIM_LOSS)
}

/// Everything the sweep measures. Field names are the metric names with
/// the layer prefix dropped; units are in the name.
#[derive(Debug, Default)]
pub struct Layers {
    // vkernel — thread kernel
    pub txn_echo_ns: f64,
    pub txn_payload1k_ns: f64,
    pub txn_forward_ns: f64,
    // vkernel — virtual-time kernel
    pub sim_txn_wall_ns: f64,
    pub sim_boot_us: f64,
    // vnet
    pub fault_transmit_ns: f64,
    // vproto
    pub batch_req_codec_ns: f64,
    pub batch_reply_codec_ns: f64,
    // vnaming
    pub request_build_ns: f64,
    pub request_parse_ns: f64,
    pub resolve_depth3_ns: f64,
    // vservers
    pub snapshot_probe_ns: f64,
    pub snapshot_batch64_ns: f64,
    pub define_ns: f64,
    pub tombstone_ns: f64,
    pub publish_dirty_shard_us: f64,
    pub table_build_s: f64,
    pub bytes_per_name: f64,
    pub merkle_round_us: f64,
    pub prefix_loop_self_ns: f64,
    // vio, vcentral
    pub open_direct_us: f64,
    pub release_us: f64,
    pub central_open_us: f64,
    // Transactions and server work shaped like one workload's operation:
    // what the budget apportions a `vkernel.txn` span with.
    pub txn_resolve1_ns: f64,
    pub txn_resolve64_ns: f64,
    pub txn_forward_open_ns: f64,
    pub replay_resolve1_ns: f64,
    pub replay_resolve64_ns: f64,
    pub replay_open_prefix_ns: f64,
    /// What a direct open / release costs beyond an echo transaction.
    pub file_open_self_ns: f64,
    pub file_release_self_ns: f64,
}

const ROUNDS: usize = 7;

fn request_of(reply_len: usize) -> Message {
    let mut msg = Message::request(RequestCode::Echo);
    msg.set_word(W_ECHO_REPLY_LEN, reply_len as u16);
    msg
}

/// One `Send` … `Reply` to `to`, `req_len` bytes out, `reply_len` back:
/// nanoseconds per transaction over one round of `iters`.
fn txn_ns(ctx: &dyn Ipc, iters: usize, to: Pid, req_len: usize, reply_len: usize) -> f64 {
    let payload = Bytes::from(vec![7u8; req_len]);
    let msg = request_of(reply_len);
    time_ns(1, iters, || {
        let r = ctx.send(to, msg, payload.clone(), reply_len);
        assert_eq!(r.expect("echo transaction").data.len(), reply_len);
    })
}

/// Wire sizes of a `ResolveBatch` of `n` eight-byte names and its reply.
fn resolve_shape(n: usize) -> (usize, usize) {
    let req = ResolveBatchMsg {
        names: vec![b"n0000000".to_vec(); n],
    };
    let reply = ResolveBatchReply {
        answers: vec![
            ResolveAnswer {
                status: RESOLVE_OK,
                pid: 1,
                context: 1,
                staleness: 0
            };
            n
        ],
    };
    (req.encode().len(), reply.encode().len())
}

fn sim_kernel(l: &mut Layers, iters: usize, seed: u64) {
    let domain = SimDomain::new(Params1984::ethernet_3mbit());
    let host = domain.add_host();
    let echo = domain.spawn(host, "echo", echo_server);
    l.sim_txn_wall_ns = domain
        .client(host, move |ctx| {
            let mut rounds: Vec<f64> = (0..ROUNDS)
                .map(|_| txn_ns(ctx, iters, echo, 0, 0))
                .collect();
            median_f64(&mut rounds)
        })
        .expect("sim echo client ran");
    drop(domain);

    let mut boots: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let w =
                vsim::world::boot_world_with(Params1984::ethernet_3mbit(), Some(sim_faults(seed)));
            let us = t0.elapsed().as_secs_f64() * 1e6;
            drop(w);
            us
        })
        .collect();
    l.sim_boot_us = median_f64(&mut boots);

    let mut plane = FaultPlane::new(sim_faults(seed));
    let (a, b) = (LogicalHost::new(1), LogicalHost::new(2));
    l.fault_transmit_ns = time_ns(ROUNDS, iters * 10, || {
        let _ = black_box(plane.transmit(a, b, SimTime::ZERO));
    });
}

fn codecs(l: &mut Layers, iters: usize) {
    let names = NameTable::new('n', 64);
    let req = ResolveBatchMsg {
        names: (0..64).map(|i| names.get(i).as_bytes().to_vec()).collect(),
    };
    l.batch_req_codec_ns = time_ns(ROUNDS, iters, || {
        let wire = black_box(&req).encode();
        black_box(ResolveBatchMsg::decode(&wire).expect("own encoding decodes"));
    }) / 64.0;
    let reply = ResolveBatchReply {
        answers: (0..64)
            .map(|i| ResolveAnswer {
                status: RESOLVE_OK,
                pid: 0x0001_0000 + i,
                context: i,
                staleness: 0,
            })
            .collect(),
    };
    l.batch_reply_codec_ns = time_ns(ROUNDS, iters, || {
        let wire = black_box(&reply).encode();
        black_box(ResolveBatchReply::decode(&wire).expect("own encoding decodes"));
    }) / 64.0;
}

/// `d0/d1/f00.txt` … as three hash-map levels: the shape of the path the
/// file servers resolve in `open_forward`.
struct Depth3 {
    levels: [HashMap<Vec<u8>, Step<u32>>; 3],
}

impl ComponentSpace for Depth3 {
    type Object = u32;
    fn step(&self, ctx: ContextId, component: &[u8]) -> Step<u32> {
        self.levels
            .get(ctx.raw() as usize)
            .and_then(|m| m.get(component).cloned())
            .unwrap_or(Step::NotFound)
    }
    fn valid_context(&self, ctx: ContextId) -> bool {
        (ctx.raw() as usize) < self.levels.len()
    }
}

fn naming(l: &mut Layers, iters: usize) {
    let full = format!("[p0123]{}", open_file_path(7));
    l.request_build_ns = time_ns(ROUNDS, iters, || {
        let name = CsName::from(black_box(full.as_str()));
        black_box(build_csname_request(
            RequestCode::CreateInstance,
            ContextId::DEFAULT,
            &name,
            &[],
        ));
    });
    let (msg, payload) = build_csname_request(
        RequestCode::CreateInstance,
        ContextId::DEFAULT,
        &CsName::from(full.as_str()),
        &[],
    );
    l.request_parse_ns = time_ns(ROUNDS, iters, || {
        let req = CsRequest::parse(black_box(&msg), &payload).expect("own request parses");
        let rest = CsName::from(req.remaining());
        black_box(rest.parse_prefix().expect("bracketed name").rest_index);
    });
    let space = Depth3 {
        levels: [
            HashMap::from([(b"d0".to_vec(), Step::Context(ContextId::new(1)))]),
            HashMap::from([(b"d1".to_vec(), Step::Context(ContextId::new(2)))]),
            (0..64u32)
                .map(|f| (format!("f{f:02}.txt").into_bytes(), Step::Object(f)))
                .collect(),
        ],
    };
    let path = open_file_path(7).into_bytes();
    l.resolve_depth3_ns = time_ns(ROUNDS, iters, || {
        let out = resolve(&space, black_box(&path), 0, ContextId::new(0), b'/');
        assert!(matches!(out, Outcome::Done { .. }));
    });

    // The prefix server's share of an open, replayed in-process: parse the
    // request, parse the prefix, probe a table of the same 1000 prefixes.
    let mut table = SyncTable::new();
    for p in 0..OPEN_PREFIXES {
        table.define(
            format!("p{p:04}").into_bytes(),
            direct(binding_of(p)),
            1_000 + u64::from(p),
        );
    }
    let sharded = ShardedTable::from_table(table);
    l.replay_open_prefix_ns = time_ns(ROUNDS, iters, || {
        let req = CsRequest::parse(black_box(&msg), &payload).expect("own request parses");
        let rest = CsName::from(req.remaining());
        let parsed = rest.parse_prefix().expect("bracketed name");
        assert!(sharded.snapshot().lookup(parsed.prefix).is_some());
    });
}

fn direct(pair: vproto::ContextPair) -> SyncBinding {
    SyncBinding {
        logical: false,
        target: pair.server.raw(),
        context: pair.context.raw(),
    }
}

/// What the prefix server does between `move_from` and `reply` for one
/// `ResolveBatch`, replayed in-process on a table of identical contents.
fn replay_resolve(sharded: &ShardedTable, wire: &[u8]) -> Vec<u8> {
    let batch = ResolveBatchMsg::decode(wire).expect("own encoding decodes");
    let refs: Vec<&[u8]> = batch.names.iter().map(Vec::as_slice).collect();
    let answers = sharded
        .snapshot()
        .resolve_batch(&refs)
        .into_iter()
        .map(|hit| match hit {
            Some(e) => ResolveAnswer {
                status: RESOLVE_OK,
                pid: e.binding.target,
                context: e.binding.context,
                staleness: u16::from(!e.verified),
            },
            None => ResolveAnswer {
                status: RESOLVE_NOT_FOUND,
                pid: 0,
                context: 0,
                staleness: 0,
            },
        })
        .collect();
    ResolveBatchReply { answers }.encode()
}

fn big_table(l: &mut Layers, scale: Scale, seed: u64) {
    let iters = scale.layer_iters;
    let entries = table_entries(scale, None);
    let rss0 = resident_mb();
    let t0 = Instant::now();
    let mut table = SyncTable::new();
    let mut now = 1_000u64;
    for (name, pair) in entries {
        now += 17;
        table.define(name.into_bytes(), direct(pair), now);
    }
    let mut sharded = ShardedTable::from_table(table);
    l.table_build_s = t0.elapsed().as_secs_f64();
    if let (Some(a), Some(b)) = (rss0, resident_mb()) {
        l.bytes_per_name = (b - a) * 1e6 / f64::from(scale.table);
    }

    let names = NameTable::new('n', scale.table);
    let ring = uniform_ring(seed ^ 0x1A7E, scale.table, 1 << 16);
    let probes: Vec<&[u8]> = ring.iter().map(|&i| names.get(i).as_bytes()).collect();
    let snap = sharded.snapshot();
    let mut at = 0usize;
    l.snapshot_probe_ns = time_ns(ROUNDS, iters * 10, || {
        at = (at + 1) % probes.len();
        assert!(black_box(snap.lookup(probes[at])).is_some());
    });
    let mut chunks = probes.chunks_exact(64).cycle();
    l.snapshot_batch64_ns = time_ns(ROUNDS, iters, || {
        let chunk = chunks.next().expect("cycle never ends");
        black_box(snap.resolve_batch(chunk));
    }) / 64.0;
    let wires: Vec<(Vec<u8>, Vec<u8>)> = probes
        .chunks_exact(64)
        .map(|c| {
            let msg = |names: &[&[u8]]| ResolveBatchMsg {
                names: names.iter().map(|n| n.to_vec()).collect(),
            };
            (msg(&c[..1]).encode(), msg(c).encode())
        })
        .collect();
    let mut wires = wires.iter().cycle();
    let mut next = || wires.next().expect("cycle never ends");
    l.replay_resolve1_ns = time_ns(ROUNDS, iters, || {
        black_box(replay_resolve(&sharded, &next().0));
    });
    l.replay_resolve64_ns = time_ns(ROUNDS, iters, || {
        black_box(replay_resolve(&sharded, &next().1));
    });
    drop(snap);

    // Writes: fresh names, defined then tombstoned; publish in between is
    // left out of both so each figure is the table operation alone.
    let fresh = NameTable::new('x', (ROUNDS * iters) as u32);
    let mut k = 0u32;
    l.define_ns = time_ns(ROUNDS, iters, || {
        now += 17;
        let pair = binding_of(k);
        sharded
            .table_mut()
            .define(fresh.get(k).as_bytes().to_vec(), direct(pair), now);
        k += 1;
    });
    k = 0;
    l.tombstone_ns = time_ns(ROUNDS, iters, || {
        now += 17;
        black_box(sharded.table_mut().tombstone(fresh.get(k).as_bytes(), now));
        k += 1;
    });
    sharded.publish();
    let mut publishes: Vec<f64> = (0..ROUNDS as u32)
        .map(|r| {
            let t0 = Instant::now();
            now += 17;
            sharded.table_mut().define(
                names.get(r).as_bytes().to_vec(),
                direct(binding_of(r)),
                now,
            );
            sharded.publish();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    l.publish_dirty_shard_us = median_f64(&mut publishes);

    // One anti-entropy round over a single divergent entry, as the
    // `sync_round` criterion bench shapes it: warm hash caches on both
    // sides, one converging round first, then define + round per sample.
    let auth = sharded.table_mut();
    let _ = auth.table_hash();
    let mut replica = auth.clone();
    now += 17;
    let kind = RoundKind::Authority { replica_id: 0 };
    merkle_round(auth, &mut replica, kind, now, RoundFate::DELIVERED);
    let mut r = 0u32;
    l.merkle_round_us = time_ns(ROUNDS, iters.min(200), || {
        now += 17;
        auth.define(
            names.get(r % scale.table).as_bytes().to_vec(),
            direct(binding_of(r ^ 0x00be_ef00)),
            now,
        );
        r += 1;
        now += 17;
        let (applied, _) = merkle_round(auth, &mut replica, kind, now, RoundFate::DELIVERED);
        assert!(applied.is_some());
    }) / 1e3;
}

/// Median over rounds of `a[r] - b[r]`: a difference between two costs
/// that were measured back to back, round by round, so that a disturbance
/// of the box lands on both or on neither.
fn median_diff(a: &[f64], b: &[f64]) -> f64 {
    let mut d: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    median_f64(&mut d)
}

/// Every thread-kernel figure, from one `open_forward` world with an echo
/// process and a relay added to it. The timers are interleaved round by
/// round — echo, payload, forward, …, open, release, then again — rather
/// than run one after another, because what a same-core hand-off costs on
/// a shared box drifts by more, over a second, than the differences the
/// budget is made of.
fn thread_kernel(l: &mut Layers, iters: usize) {
    let w = boot_open_world();
    let (prefix, fs) = (w.prefix, w.servers[0]);
    let echo = w.domain.spawn(w.host, "echo", echo_server);
    let relay = w
        .domain
        .spawn(w.host, "relay", move |ctx| forward_server(ctx, echo));
    let path = CsName::from(open_file_path(7).as_str());
    let open_name_len = format!("[p0000]{}", open_file_path(0)).len();
    let (r1, r64) = (resolve_shape(1), resolve_shape(64));
    // (destination, request bytes, reply bytes) of each timed transaction.
    let shapes = [
        (echo, 0, 0),
        (echo, 1024, 0),
        (relay, 0, 0),
        (echo, r1.0, r1.1),
        (echo, r64.0, r64.1),
        (relay, open_name_len, 0),
        // `Echo` to a real prefix server: the receive loop's own cost.
        (prefix, 0, 0),
    ];
    let rounds = w.domain.client(w.host, move |ctx| {
        let mut rounds: [Vec<f64>; 9] = Default::default();
        for _ in 0..ROUNDS {
            for (k, &(to, req_len, reply_len)) in shapes.iter().enumerate() {
                rounds[k].push(txn_ns(ctx, iters, to, req_len, reply_len));
            }
            let (mut open, mut release) = (Duration::ZERO, Duration::ZERO);
            for _ in 0..iters {
                let t0 = Instant::now();
                let o = vio::open_at(ctx, fs, ContextId::DEFAULT, &path, OpenMode::Read)
                    .expect("direct open");
                let t1 = Instant::now();
                vio::release(ctx, o.server, o.instance).expect("release");
                open += t1 - t0;
                release += t1.elapsed();
            }
            rounds[7].push(open.as_nanos() as f64 / iters as f64);
            rounds[8].push(release.as_nanos() as f64 / iters as f64);
        }
        rounds
    });
    w.domain.shutdown();
    let med = |k: usize| median_f64(&mut rounds[k].clone());
    l.txn_echo_ns = med(0);
    l.txn_payload1k_ns = med(1);
    l.txn_forward_ns = med(2);
    l.txn_resolve1_ns = med(3);
    l.txn_resolve64_ns = med(4);
    l.txn_forward_open_ns = med(5);
    l.prefix_loop_self_ns = median_diff(&rounds[6], &rounds[0]);
    l.open_direct_us = med(7) / 1e3;
    l.release_us = med(8) / 1e3;
    l.file_open_self_ns = median_diff(&rounds[7], &rounds[0]);
    l.file_release_self_ns = median_diff(&rounds[8], &rounds[0]);
}

fn central(l: &mut Layers, iters: usize) {
    let domain = Domain::new();
    let host = domain.add_host();
    domain.spawn(host, "central-ns", central_name_server);
    let store = domain.spawn(host, "store", object_store);
    l.central_open_us = domain.client(host, move |ctx| {
        let client = loop {
            // The name server registers asynchronously.
            match CentralClient::new(ctx) {
                Ok(c) => break c,
                Err(_) => std::thread::yield_now(),
            }
        };
        client
            .create(store, "paper.txt", b"V naming, central copy")
            .expect("central create");
        let mut opens = Vec::new();
        for _ in 0..ROUNDS * iters {
            let t0 = Instant::now();
            let (server, instance, _) = client.open("paper.txt").expect("central open");
            opens.push(t0.elapsed().as_secs_f64() * 1e6);
            vio::release(ctx, server, instance).expect("release");
        }
        median_f64(&mut opens)
    });
    domain.shutdown();
}

/// Runs every layer timer once.
pub fn sweep(scale: Scale, seed: u64) -> Layers {
    let mut l = Layers::default();
    let iters = scale.layer_iters;
    thread_kernel(&mut l, iters);
    sim_kernel(&mut l, iters, seed);
    codecs(&mut l, iters);
    naming(&mut l, iters);
    big_table(&mut l, scale, seed);
    central(&mut l, iters);
    l
}
