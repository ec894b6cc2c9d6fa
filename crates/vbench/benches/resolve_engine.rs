//! Microbenchmarks of the pure name-handling engine (no IPC): the
//! resolution procedure of §5.4, prefix parsing, descriptor encoding, and
//! glob matching — the CPU work a CSNH server does per request.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::HashMap;
use vnaming::{match_pattern, resolve, ComponentSpace, DirectoryBuilder, Outcome, Step};
use vproto::{ContextId, CsName, DescriptorTag, ObjectDescriptor, SyncBinding};
use vservers::{ShardedTable, SyncTable};

/// A synthetic n-level deep, k-wide name space.
struct Tree {
    levels: Vec<HashMap<Vec<u8>, Step<u32>>>,
}

impl Tree {
    fn new(depth: usize, width: usize) -> Tree {
        let mut levels = Vec::new();
        for level in 0..depth {
            let mut m = HashMap::new();
            for i in 0..width {
                let name = format!("d{i:03}").into_bytes();
                if level + 1 < depth {
                    m.insert(name, Step::Context(ContextId::new(level as u32 + 1)));
                } else {
                    m.insert(name, Step::Object(i as u32));
                }
            }
            levels.push(m);
        }
        Tree { levels }
    }
}

impl ComponentSpace for Tree {
    type Object = u32;
    fn step(&self, ctx: ContextId, comp: &[u8]) -> Step<u32> {
        self.levels
            .get(ctx.raw() as usize)
            .and_then(|m| m.get(comp).cloned())
            .unwrap_or(Step::NotFound)
    }
    fn valid_context(&self, ctx: ContextId) -> bool {
        (ctx.raw() as usize) < self.levels.len()
    }
}

fn bench_resolution(c: &mut Criterion) {
    let mut group = c.benchmark_group("resolve");
    for depth in [2usize, 8, 32] {
        let tree = Tree::new(depth, 64);
        let name: Vec<u8> = (0..depth)
            .map(|_| "d001".to_string())
            .collect::<Vec<_>>()
            .join("/")
            .into_bytes();
        group.bench_with_input(BenchmarkId::new("path_depth", depth), &depth, |b, _| {
            b.iter(|| {
                let out = resolve(&tree, &name, 0, ContextId::new(0), b'/');
                assert!(matches!(out, Outcome::Done { .. }));
            })
        });
    }
    group.finish();
}

fn bench_prefix_parse(c: &mut Criterion) {
    let name = CsName::from("[storage-server-7]projects/v/naming/resolve.rs");
    c.bench_function("prefix_parse", |b| {
        b.iter(|| {
            let p = name.parse_prefix().unwrap();
            assert_eq!(p.prefix, b"storage-server-7");
        })
    });
}

fn bench_descriptor_codec(c: &mut Criterion) {
    let d = ObjectDescriptor::new(DescriptorTag::File, CsName::from("naming.mss"))
        .with_owner(CsName::from("cheriton"))
        .with_size(40_960)
        .with_modified(123_456);
    let encoded = d.encode();
    c.bench_function("descriptor/encode", |b| b.iter(|| d.encode()));
    c.bench_function("descriptor/decode", |b| {
        b.iter(|| ObjectDescriptor::decode_one(&encoded).unwrap())
    });

    let mut builder = DirectoryBuilder::new();
    for i in 0..128 {
        builder.push(&ObjectDescriptor::new(
            DescriptorTag::File,
            CsName::from(format!("file{i:04}")),
        ));
    }
    let dir = builder.finish();
    c.bench_function("descriptor/decode_directory_128", |b| {
        b.iter(|| ObjectDescriptor::decode_directory(&dir).unwrap())
    });

    // Pin the per-entry cost of a directory decode at (or under) the
    // single-record cost: the loop shares one validated reader and one
    // pre-sized output vector, so an entry inside a directory must not pay
    // more than a lone decode_one. Best-of-N timings to shed noise; the 1.2
    // slack absorbs timer granularity, not a rescan.
    #[expect(
        clippy::disallowed_types,
        reason = "a wall-clock benchmark compares wall-clock costs"
    )]
    let best_ns = |f: &mut dyn FnMut()| {
        (0..5)
            .map(|_| {
                let start = std::time::Instant::now();
                for _ in 0..256 {
                    f();
                }
                start.elapsed().as_nanos() / 256
            })
            .min()
            .expect("five rounds")
    };
    let single = best_ns(&mut || {
        ObjectDescriptor::decode_one(&encoded).unwrap();
    });
    let directory = best_ns(&mut || {
        ObjectDescriptor::decode_directory(&dir).unwrap();
    });
    let per_entry = directory / 128;
    assert!(
        per_entry <= single.max(1) * 6 / 5,
        "directory decode re-validates per entry: {per_entry} ns/entry vs {single} ns single decode"
    );
}

/// The prefix-table resolve hot path at 10⁶ names. Table and snapshot are
/// the same shards now, so both series probe the same bytes: `unsharded`
/// (the name BENCH_10 recorded the old ordered map under) is the writer's
/// `SyncTable::lookup`, one name at a time; `sharded` is the published
/// snapshot, batched shard-by-shard the way the server's `ResolveBatch`
/// burst runs. Both run the identical 4096-probe workload per iteration.
fn bench_resolve_table(c: &mut Criterion) {
    const N: u32 = 1_000_000;
    const PROBES: usize = 4096;
    const BATCH: usize = 64;
    let name = |i: u32| format!("n{i:07}").into_bytes();
    let mut table = SyncTable::new();
    let mut now = 1_000u64;
    for i in 0..N {
        now += 17;
        table.define(
            name(i),
            SyncBinding {
                logical: false,
                target: i,
                context: i ^ 0x5a,
            },
            now,
        );
    }
    // A pseudo-random probe set (fixed seed), so neither variant enjoys
    // sequential locality the server would never see.
    let mut seed = 0x9E37_79B9u64;
    let probes: Vec<Vec<u8>> = (0..PROBES)
        .map(|_| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            name(((seed >> 33) as u32) % N)
        })
        .collect();
    let refs: Vec<&[u8]> = probes.iter().map(Vec::as_slice).collect();

    let mut group = c.benchmark_group("resolve_table");
    group.bench_with_input(BenchmarkId::new("unsharded", N), &N, |b, _| {
        b.iter(|| {
            let mut hits = 0usize;
            for p in &refs {
                if table.lookup(p).is_some() {
                    hits += 1;
                }
            }
            assert_eq!(hits, PROBES);
        })
    });

    let sharded = ShardedTable::from_table(table);
    let snap = sharded.snapshot();
    group.bench_with_input(BenchmarkId::new("sharded", N), &N, |b, _| {
        b.iter(|| {
            let mut hits = 0usize;
            for chunk in refs.chunks(BATCH) {
                hits += snap.resolve_batch(chunk).iter().flatten().count();
            }
            assert_eq!(hits, PROBES);
        })
    });
    group.finish();
}

fn bench_glob(c: &mut Criterion) {
    let cases: [(&[u8], &[u8]); 3] = [
        (b"naming.mss", b"*.mss"),
        (b"a-rather-long-file-name.tar.gz", b"*-file-*.tar.?z"),
        (b"aaaaaaaaaaaaaaaaaaaab", b"a*a*a*b"),
    ];
    c.bench_function("glob_match", |b| {
        b.iter(|| {
            for (name, pat) in cases {
                assert!(match_pattern(name, pat));
            }
        })
    });
}

criterion_group!(
    benches,
    bench_resolution,
    bench_prefix_parse,
    bench_descriptor_codec,
    bench_resolve_table,
    bench_glob
);
criterion_main!(benches);
