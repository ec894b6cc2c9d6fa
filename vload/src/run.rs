//! The run shape shared by every workload: set up (repeatedly, median
//! reported), warm up, measure in a closed loop, verify, summarise.
//!
//! Callers in V block in `Send` until the `Reply`, so the load is a
//! **closed loop** with one client process: the next operation is issued
//! when the previous one returns.

use crate::drivers::{ChurnDriver, Driver, NoTrace, OpenDriver, ResolveDriver, SPAN_TXN};
use crate::layers::{self, sim_faults, Layers};
use crate::load::{
    churn_hash, churn_preloaded, churn_ring, open_ring, ring_hash, uniform_ring, LoadHash,
    NameTable,
};
use crate::stats::{median_f64, median_u64, quantile_sorted, resident_mb, spin_ns, timer_ns};
use crate::trace::TraceBuf;
use crate::worlds::{
    boot_open_world, boot_table_world, open_file_path, open_file_size, table_entries, Scale,
    OPEN_FILES, OPEN_PREFIXES,
};
use std::time::{Duration, Instant};
use vkernel::{Domain, Ipc};
use vnet::Params1984;
use vproto::{ContextId, ContextPair, LogicalHost, Pid};
use vruntime::NameClient;
use vsim::SimWorld;

/// The five workloads, in the order `--all` runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ResolveSingle,
    ResolveBatch64,
    OpenForward,
    ChurnMixed,
    SimLossyOpen,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ResolveSingle,
        Workload::ResolveBatch64,
        Workload::OpenForward,
        Workload::ChurnMixed,
        Workload::SimLossyOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ResolveSingle => "resolve_single",
            Workload::ResolveBatch64 => "resolve_batch64",
            Workload::OpenForward => "open_forward",
            Workload::ChurnMixed => "churn_mixed",
            Workload::SimLossyOpen => "sim_lossy_open",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Samples of one phase. Times are nanoseconds on the recorder's clock.
pub struct Recorder {
    t0: Instant,
    keep: bool,
    /// `(start, end)` of every operation, when kept.
    pub ops: Vec<(u64, u64)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Recorder {
    /// `capacity` samples are reserved and their pages touched now, so
    /// that recording a sample never takes a page fault inside an
    /// operation's timed interval.
    pub fn new(keep: bool, capacity: usize) -> Self {
        let mut ops = Vec::new();
        if keep {
            ops.resize(capacity, (0, 0));
            ops.clear();
        }
        Recorder {
            t0: Instant::now(),
            keep,
            ops,
            attempted: 0,
            failed: 0,
        }
    }

    #[inline]
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    #[inline]
    fn record(&mut self, start: u64, end: u64, ok: bool) {
        if self.keep {
            self.ops.push((start, end));
        }
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Median latency in ns over every kept sample.
    pub fn p50_ns(&self) -> f64 {
        let mut lat: Vec<u64> = self.ops.iter().map(|(s, e)| e - s).collect();
        median_u64(&mut lat) as f64
    }

    /// Per window of `window_ns` (the first `n`), the latencies in ns of
    /// the operations that completed in it, sorted.
    pub fn windows(&self, window_ns: u64, n: usize) -> Vec<Vec<u64>> {
        let mut windows = vec![Vec::new(); n];
        for &(start, end) in &self.ops {
            if let Some(w) = windows.get_mut((end / window_ns) as usize) {
                w.push(end - start);
            }
        }
        for w in &mut windows {
            w.sort_unstable();
        }
        windows
    }
}

/// How a phase performs its operations.
pub enum Mode {
    /// Through `NameClient` — the only mode end-to-end metrics come from.
    Client,
    /// Unrolled from `vload`'s own code, spans discarded.
    Unrolled,
    /// Unrolled, spans recorded.
    Traced(TraceBuf),
}

impl Mode {
    fn slot(&self) -> usize {
        match self {
            Mode::Client => 0,
            Mode::Unrolled => 1,
            Mode::Traced(_) => 2,
        }
    }
}

enum Stop {
    /// When an operation ends at or after this instant on the recorder's clock.
    At(u64),
    /// After this many operations.
    After(usize),
}

/// The closed loop, run from inside the client V process. Returns the
/// index after the last operation performed. A traced loop also ends when
/// the span buffer cannot hold another operation.
fn drive<D: Driver>(
    ipc: &dyn Ipc,
    current: ContextPair,
    d: &mut D,
    mode: &mut Mode,
    rec: &mut Recorder,
    first: usize,
    stop: Stop,
) -> usize {
    let nc = NameClient::new(ipc, current);
    let mut i = first;
    loop {
        let start = rec.now();
        let ok = match mode {
            Mode::Client => d.op(&nc, i),
            Mode::Unrolled => d.unrolled(ipc, &mut NoTrace, i),
            Mode::Traced(tb) => d.unrolled(ipc, tb, i),
        };
        let end = rec.now();
        rec.record(start, end, ok);
        i += 1;
        let done = match stop {
            Stop::At(t) => end >= t,
            Stop::After(n) => i - first >= n,
        };
        if done || matches!(mode, Mode::Traced(tb) if !tb.has_room()) {
            return i;
        }
    }
}

/// A booted world plus its pre-generated load, ready to run phases.
trait Bench {
    /// Runs operations until `until_ns` on `rec`'s clock.
    fn run_phase(&mut self, mode: Mode, rec: Recorder, until_ns: u64) -> (Mode, Recorder);
    fn load_hash(&self) -> u64;
    fn teardown(self: Box<Self>);
}

/// Apportioning of the `vkernel.txn` spans of one operation.
struct Shares {
    kernel_ns: f64,
    server_ns: f64,
}

struct ThreadBench<D: Driver> {
    domain: Domain,
    host: LogicalHost,
    driver: Option<D>,
    cursor: usize,
}

impl<D: Driver> Bench for ThreadBench<D> {
    fn run_phase(&mut self, mut mode: Mode, mut rec: Recorder, until_ns: u64) -> (Mode, Recorder) {
        let mut d = self
            .driver
            .take()
            .expect("driver is returned by every phase");
        let first = self.cursor;
        // No file server is the "current context" of these clients: every
        // name they use is bracketed and routes through the prefix server.
        let current = ContextPair::new(Pid::NULL, ContextId::DEFAULT);
        let (d, mode, rec, next) = self.domain.client(self.host, move |ctx| {
            let next = drive(
                ctx,
                current,
                &mut d,
                &mut mode,
                &mut rec,
                first,
                Stop::At(until_ns),
            );
            (d, mode, rec, next)
        });
        self.driver = Some(d);
        self.cursor = next;
        (mode, rec)
    }

    fn load_hash(&self) -> u64 {
        self.driver.as_ref().map_or(0, Driver::load_hash)
    }

    fn teardown(self: Box<Self>) {
        self.domain.shutdown();
    }
}

/// The budget's estimate of what the kernel and the servers each
/// contribute to the median operation of `w`, from the layer sweep.
fn shares(w: Workload, l: &Layers) -> Shares {
    match w {
        // The median operation of the churn mix is a single-name read.
        Workload::ResolveSingle | Workload::ChurnMixed => Shares {
            kernel_ns: l.txn_resolve1_ns,
            server_ns: l.replay_resolve1_ns + l.prefix_loop_self_ns,
        },
        Workload::ResolveBatch64 => Shares {
            kernel_ns: l.txn_resolve64_ns,
            server_ns: l.replay_resolve64_ns + l.prefix_loop_self_ns,
        },
        // An open is a forwarded transaction plus a plain one (the
        // release). The file server's own work is what a direct open and a
        // release cost beyond an echo transaction, less the request
        // building a direct open does on the client's side.
        Workload::OpenForward => Shares {
            kernel_ns: l.txn_forward_open_ns + l.txn_echo_ns,
            server_ns: l.replay_open_prefix_ns
                + l.prefix_loop_self_ns
                + (l.file_open_self_ns - l.request_build_ns)
                + l.file_release_self_ns,
        },
        // Two client `Send`s on the virtual-time kernel. The simulated
        // servers' own wall-clock work cannot be timed from outside the
        // baton, so the gap of this workload's budget *is* that work.
        Workload::SimLossyOpen => Shares {
            kernel_ns: 2.0 * l.sim_txn_wall_ns,
            server_ns: 0.0,
        },
    }
}

fn setup_resolve(seed: u64, scale: Scale, batch: usize) -> Box<dyn Bench> {
    let w = boot_table_world(table_entries(scale, None));
    let ring = uniform_ring(seed, scale.table, scale.ring);
    Box::new(ThreadBench {
        driver: Some(ResolveDriver {
            names: NameTable::new('n', scale.table),
            load_hash: ring_hash(&ring),
            ring,
            batch,
            prefix: w.prefix,
        }),
        domain: w.domain,
        host: w.host,
        cursor: 0,
    })
}

fn setup_churn(seed: u64, scale: Scale) -> Box<dyn Bench> {
    let w = boot_table_world(table_entries(scale, Some(seed)));
    let ring = churn_ring(seed, scale.table, scale.churn);
    Box::new(ThreadBench {
        driver: Some(ChurnDriver {
            base: NameTable::new('n', scale.table),
            churn: NameTable::new('c', scale.churn),
            model: ChurnDriver::initial_model(scale.churn, &churn_preloaded(seed, scale.churn)),
            load_hash: churn_hash(&ring),
            ring,
            prefix: w.prefix,
        }),
        domain: w.domain,
        host: w.host,
        cursor: 0,
    })
}

fn setup_open(seed: u64, scale: Scale) -> Box<dyn Bench> {
    let w = boot_open_world();
    let names = (0..OPEN_PREFIXES)
        .flat_map(|p| (0..OPEN_FILES).map(move |f| format!("[p{p:04}]{}", open_file_path(f))))
        .collect();
    let expect = (0..OPEN_PREFIXES)
        .flat_map(|p| {
            let s = p % 2;
            (0..OPEN_FILES).map(move |f| (w.servers[s as usize], open_file_size(s, f)))
        })
        .collect();
    let ring = open_ring(seed, OPEN_PREFIXES, OPEN_FILES, scale.ring);
    Box::new(ThreadBench {
        driver: Some(OpenDriver {
            names,
            expect,
            load_hash: ring_hash(&ring),
            ring,
            prefix: w.prefix,
        }),
        domain: w.domain,
        host: w.host,
        cursor: 0,
    })
}

/// `sim_lossy_open`: the standard simulated installation under 5 % loss.
/// A world serves a fixed script of opens and is then dropped and booted
/// again, so boot and teardown of the virtual-time kernel are part of the
/// workload. Every world is built from the same seed and runs the same
/// script, so every world must end with the same event hash.
struct SimBench {
    seed: u64,
    world_ops: usize,
    /// The world booted by set-up, used by the first pass.
    ready: Option<SimWorld>,
    /// Event hash of the first complete world of each mode.
    reference: [Option<u64>; 3],
    load_hash: u64,
}

const SIM_NAMES: [&str; 2] = ["[remote]paper.txt", "[local]paper.txt"];

impl SimBench {
    fn boot(seed: u64) -> SimWorld {
        vsim::world::boot_world_with(Params1984::ethernet_3mbit(), Some(sim_faults(seed)))
    }

    /// The script is fixed but for its length and the fault seed.
    fn script_hash(seed: u64, world_ops: usize) -> u64 {
        let mut h = LoadHash::new();
        h.words(&[seed as u32, (seed >> 32) as u32, world_ops as u32]);
        for i in 0..world_ops {
            h.word((i % SIM_NAMES.len()) as u32);
        }
        h.finish()
    }

    fn driver(&self, w: &SimWorld) -> OpenDriver {
        // Contents are fixed by `vsim::world`; their lengths are what an
        // open of each copy must report.
        let sizes = [
            b"V naming, remote copy".len() as u64,
            b"V naming, local copy".len() as u64,
        ];
        OpenDriver {
            names: SIM_NAMES.map(String::from).to_vec(),
            expect: vec![(w.remote_fs, sizes[0]), (w.local_fs, sizes[1])],
            ring: (0..SIM_NAMES.len() as u32).collect(),
            prefix: w.prefix,
            load_hash: self.load_hash,
        }
    }
}

impl Bench for SimBench {
    fn run_phase(&mut self, mut mode: Mode, mut rec: Recorder, until_ns: u64) -> (Mode, Recorder) {
        loop {
            let w = self
                .ready
                .take()
                .unwrap_or_else(|| SimBench::boot(self.seed));
            let mut d = self.driver(&w);
            let current = ContextPair::new(w.local_fs, ContextId::DEFAULT);
            let n = self.world_ops;
            let done;
            (mode, rec, done) = w.client(move |ctx| {
                let done = drive(ctx, current, &mut d, &mut mode, &mut rec, 0, Stop::After(n));
                (mode, rec, done)
            });
            // Only a world that ran the whole script can be compared.
            if done == n {
                let hash = w.domain.event_hash();
                let reference = self.reference[mode.slot()].get_or_insert(hash);
                if *reference != hash {
                    eprintln!("vload: sim world diverged: {hash:#x} != {reference:#x}");
                    rec.failed = (rec.failed + n as u64).min(rec.attempted);
                }
            }
            drop(w);
            let full = matches!(&mode, Mode::Traced(tb) if !tb.has_room());
            if rec.now() >= until_ns || full {
                return (mode, rec);
            }
        }
    }

    fn load_hash(&self) -> u64 {
        self.load_hash
    }

    fn teardown(self: Box<Self>) {}
}

fn setup(w: Workload, seed: u64, scale: Scale) -> Box<dyn Bench> {
    match w {
        Workload::ResolveSingle => setup_resolve(seed, scale, 1),
        Workload::ResolveBatch64 => setup_resolve(seed, scale, crate::drivers::MAX_BATCH),
        Workload::OpenForward => setup_open(seed, scale),
        Workload::ChurnMixed => setup_churn(seed, scale),
        Workload::SimLossyOpen => Box::new(SimBench {
            seed,
            world_ops: scale.sim_world_ops,
            ready: Some(SimBench::boot(seed)),
            reference: [None; 3],
            load_hash: SimBench::script_hash(seed, scale.sim_world_ops),
        }),
    }
}

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub scale: Scale,
    pub warmup: Duration,
    pub measure: Duration,
    pub trace: bool,
}

/// Windows the measured phase is cut into.
pub const WINDOWS: usize = 20;
/// Sample slots reserved, and pre-touched, per measured second.
const SAMPLES_PER_S: usize = 400_000;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Not part of the contract's result line; printed beside it.
    pub notes: Vec<(&'static str, String)>,
}

fn phase(bench: &mut dyn Bench, mode: Mode, keep: bool, len: Duration) -> (Mode, Recorder) {
    let rec = Recorder::new(keep, len.as_secs_f64().ceil() as usize * SAMPLES_PER_S);
    bench.run_phase(mode, rec, len.as_nanos() as u64)
}

/// How many times a run sets its workload up; `setup_s` is the median.
/// Three for the worlds that take a second to build; more for the cheap
/// ones, so that a sub-millisecond boot is a median of dozens.
fn setups(w: Workload) -> usize {
    match w {
        Workload::ResolveSingle | Workload::ResolveBatch64 | Workload::ChurnMixed => 3,
        Workload::OpenForward => 9,
        Workload::SimLossyOpen => 33,
    }
}

/// Starts and joins a handful of overlapping threads, so that the thread
/// machinery (stack cache, per-thread allocator state) is in the same
/// state whenever the first world boots. Without it `VmRSS` after the
/// first `sim_lossy_open` boot read 3.15 or 3.35 MB, depending on whether
/// that world's own first threads happened to overlap.
fn prime_threads() {
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| std::thread::sleep(Duration::from_millis(2)));
        }
    });
}

/// Sets the workload up [`setups`] times, keeping the last. Returns it
/// with the median set-up time in seconds, and `VmRSS` in MB as read right
/// after the *first* set-up: the footprint of one world in a fresh
/// process, before any sample buffer exists. Later readings add whatever
/// the allocator kept of the worlds torn down before — which depends on
/// how the next world's threads interleaved in it, and now and then is a
/// megabyte more.
fn setup_timed(plan: &Plan) -> (Box<dyn Bench>, f64, f64) {
    prime_threads();
    let mut times = Vec::new();
    let mut resident = None;
    let mut bench = None;
    for _ in 0..setups(plan.workload) {
        if let Some(prev) = bench.take() {
            Bench::teardown(prev);
        }
        let t0 = Instant::now();
        bench = Some(setup(plan.workload, plan.seed, plan.scale));
        times.push(t0.elapsed().as_secs_f64());
        resident = resident.or_else(resident_mb);
    }
    (
        bench.expect("at least one set-up"),
        median_f64(&mut times),
        resident.unwrap_or(0.0),
    )
}

/// The untraced run: every end-to-end metric.
fn run_end_to_end(plan: &Plan) -> Outcome {
    let spin_before = spin_ns();
    let (mut bench, setup_s, resident) = setup_timed(plan);

    let (mode, warm) = phase(bench.as_mut(), Mode::Client, false, plan.warmup);
    let (_, rec) = phase(bench.as_mut(), mode, true, plan.measure);
    let spin_after = spin_ns();
    let load_hash = bench.load_hash();
    bench.teardown();

    // On a shared box the whole machine slows by a fifth for seconds at a
    // time (a neighbour on the sibling hyperthread), often for more than
    // half of a run, so not even the median window is safe. Every timing
    // figure is therefore the *best-quartile* window: the 75th-percentile
    // window for throughput, the 25th-percentile window for latencies —
    // what the system does when the box leaves it alone, which is what
    // two commits can be compared on. The whole-phase and median-window
    // figures are printed beside the result for anyone who wants them.
    let window_ns = plan.measure.as_nanos() as u64 / WINDOWS as u64;
    let windows = rec.windows(window_ns, WINDOWS);
    let over_windows = |q: f64, f: &dyn Fn(&[u64]) -> u64| {
        let mut per: Vec<u64> = windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| f(w))
            .collect();
        per.sort_unstable();
        quantile_sorted(&per, q)
    };
    let per_s = |count: u64| count as f64 * 1e9 / window_ns as f64;
    let count = |w: &[u64]| w.len() as u64;
    let p50 = |w: &[u64]| quantile_sorted(w, 0.5);
    let p99 = |w: &[u64]| quantile_sorted(w, 0.99);
    let mut all: Vec<u64> = windows.concat();
    all.sort_unstable();
    Outcome {
        attempted: warm.attempted + rec.attempted,
        failed: warm.failed + rec.failed,
        metrics: vec![
            m("ops_per_s", "op/s", per_s(over_windows(0.75, &count))),
            m("op_p50_us", "us", over_windows(0.25, &p50) as f64 / 1e3),
            m("op_p99_us", "us", over_windows(0.25, &p99) as f64 / 1e3),
            m("setup_s", "s", setup_s),
            m("resident_mb", "MB", resident),
        ],
        notes: vec![
            ("load_hash", format!("{load_hash:#018x}")),
            ("latency_samples", rec.ops.len().to_string()),
            ("pinned", u8::from(crate::pin::is_pinned()).to_string()),
            ("aslr_off", u8::from(crate::pin::aslr_off()).to_string()),
            ("spin_before_ns", format!("{spin_before:.0}")),
            ("spin_after_ns", format!("{spin_after:.0}")),
            (
                "median_window",
                format!(
                    "ops_per_s={} op_p50_us={} op_p99_us={}",
                    per_s(over_windows(0.5, &count)),
                    over_windows(0.5, &p50) as f64 / 1e3,
                    over_windows(0.5, &p99) as f64 / 1e3
                ),
            ),
            (
                "whole_phase",
                format!(
                    "ops_per_s={} op_p50_us={} op_p99_us={}",
                    all.len() as f64 / plan.measure.as_secs_f64(),
                    p50(&all) as f64 / 1e3,
                    p99(&all) as f64 / 1e3
                ),
            ),
        ],
    }
}

/// Median over operations of (total, time inside `vkernel.txn` spans).
fn op_split(tb: &TraceBuf) -> (f64, f64) {
    let (mut totals, mut txns) = tb.per_op(SPAN_TXN);
    (median_u64(&mut totals) as f64, median_u64(&mut txns) as f64)
}

/// The traced run: every per-layer metric. Three short phases on one
/// world — through `NameClient`, unrolled, unrolled with spans — then the
/// layer sweep, then the budget.
fn run_traced(plan: &Plan, trace_path: &std::path::Path) -> Outcome {
    let spin_before = spin_ns();
    let mut bench = setup(plan.workload, plan.seed, plan.scale);
    let each = plan.measure / 5;

    let (mode, warm) = phase(bench.as_mut(), Mode::Client, false, plan.warmup);
    let (_, client) = phase(bench.as_mut(), mode, true, each);
    let (_, unrolled) = phase(bench.as_mut(), Mode::Unrolled, true, each);
    let (mode, traced) = phase(bench.as_mut(), Mode::Traced(TraceBuf::new()), true, each);
    let Mode::Traced(tb) = mode else {
        unreachable!("a phase returns the mode it was given")
    };
    let spin_after = spin_ns();

    let load_hash = bench.load_hash();
    bench.teardown();
    let l = layers::sweep(plan.scale, plan.seed);
    let shares = shares(plan.workload, &l);
    if let Err(e) = tb.write_json(trace_path, plan.workload.name(), plan.seed) {
        eprintln!("vload: could not write {}: {e}", trace_path.display());
    }

    let client_p50 = client.p50_ns();
    let unrolled_p50 = unrolled.p50_ns();
    let traced_p50 = traced.p50_ns();
    let (span_op, span_txn) = op_split(&tb);
    // The budget: what this process does around the transaction (measured
    // by the spans), plus the kernel's and the servers' shares of it
    // (measured on their own by the sweep), against what a client sees.
    let client_self = span_op - span_txn;
    let budget = client_self + shares.kernel_ns + shares.server_ns;
    let recs = [&warm, &client, &unrolled, &traced];
    Outcome {
        attempted: recs.iter().map(|r| r.attempted).sum(),
        failed: recs.iter().map(|r| r.failed).sum(),
        metrics: vec![
            m("vkernel.txn_echo_ns", "ns", l.txn_echo_ns),
            m("vkernel.txn_payload1k_ns", "ns", l.txn_payload1k_ns),
            m("vkernel.txn_forward_ns", "ns", l.txn_forward_ns),
            m("vkernel.sim_txn_wall_ns", "ns", l.sim_txn_wall_ns),
            m("vkernel.sim_boot_us", "us", l.sim_boot_us),
            m("vnet.fault_transmit_ns", "ns", l.fault_transmit_ns),
            m("vproto.batch_req_codec_ns", "ns", l.batch_req_codec_ns),
            m("vproto.batch_reply_codec_ns", "ns", l.batch_reply_codec_ns),
            m("vnaming.request_build_ns", "ns", l.request_build_ns),
            m("vnaming.request_parse_ns", "ns", l.request_parse_ns),
            m("vnaming.resolve_depth3_ns", "ns", l.resolve_depth3_ns),
            m("vservers.snapshot_probe_ns", "ns", l.snapshot_probe_ns),
            m("vservers.snapshot_batch64_ns", "ns", l.snapshot_batch64_ns),
            m("vservers.define_ns", "ns", l.define_ns),
            m("vservers.tombstone_ns", "ns", l.tombstone_ns),
            m(
                "vservers.publish_dirty_shard_us",
                "us",
                l.publish_dirty_shard_us,
            ),
            m("vservers.table_build_s", "s", l.table_build_s),
            m("vservers.bytes_per_name", "B", l.bytes_per_name),
            m("vservers.merkle_round_us", "us", l.merkle_round_us),
            m("vservers.prefix_loop_self_ns", "ns", l.prefix_loop_self_ns),
            m("vio.open_direct_us", "us", l.open_direct_us),
            m("vio.release_us", "us", l.release_us),
            m("vcentral.open_us", "us", l.central_open_us),
            m("vruntime.stub_self_ns", "ns", client_p50 - unrolled_p50),
            m("trace.client_op_p50_ns", "ns", client_p50),
            m("trace.unrolled_op_p50_ns", "ns", unrolled_p50),
            m("trace.traced_op_p50_ns", "ns", traced_p50),
            m("trace.span_txn_p50_ns", "ns", span_txn),
            m("trace.span_client_self_p50_ns", "ns", client_self),
            m("trace.kernel_share_ns", "ns", shares.kernel_ns),
            m("trace.server_share_ns", "ns", shares.server_ns),
            m("trace.spans", "count", tb.len() as f64),
            m(
                "harness.pinned",
                "count",
                f64::from(u8::from(crate::pin::is_pinned())),
            ),
            m(
                "harness.aslr_off",
                "count",
                f64::from(u8::from(crate::pin::aslr_off())),
            ),
            m("harness.spin_before_ns", "ns", spin_before),
            m("harness.spin_after_ns", "ns", spin_after),
            m("harness.timer_ns", "ns", timer_ns()),
            m(
                "harness.trace_overhead_share",
                "ratio",
                (traced_p50 - unrolled_p50) / client_p50,
            ),
            m(
                "harness.budget_gap_share",
                "ratio",
                (client_p50 - budget).abs() / client_p50,
            ),
        ],
        notes: vec![
            ("load_hash", format!("{load_hash:#018x}")),
            ("trace_file", trace_path.display().to_string()),
        ],
    }
}

pub fn run(plan: &Plan, trace_path: &std::path::Path) -> Outcome {
    if plan.trace {
        run_traced(plan, trace_path)
    } else {
        run_end_to_end(plan)
    }
}
