//! The virtual-time kernel: a deterministic discrete-event simulation of a V
//! domain on 1984 hardware.
//!
//! Every process is still an OS thread running ordinary blocking code, but a
//! baton-passing scheduler ensures exactly one runs at a time, in increasing
//! virtual-time order. Each process carries a *local clock*; IPC primitives
//! charge the calibrated costs from [`vnet::NetModel`] and deliver messages
//! at the resulting virtual arrival times. Independent client/server pairs
//! therefore overlap in virtual time even though execution is serialized,
//! and repeated runs produce identical timings — which is what lets the
//! `vsim` experiments regenerate the paper's milliseconds.
//!
//! The baton (see DESIGN.md §3.3) moves one wake at a time. Each process
//! thread records its `Thread` handle in its `ProcState` before it first
//! waits. Whoever puts the baton down picks the next holder under the state
//! lock (`SimCore::schedule` returns a `Wake`), drops the lock, unparks
//! that one thread, and parks until `current` names it again. Parked
//! bystanders are never touched, so a transaction costs the same with 0 or
//! 512 idle processes. The `Condvar` is only for threads inside
//! [`SimDomain::run`]: they are woken when the baton is put down with
//! nothing ready, and at shutdown. Shutdown unparks every thread through its
//! `JoinHandle`, which also reaches processes killed while parked.
//!
//! Cost accounting rules (see DESIGN.md §4):
//!
//! * `Send`/`Forward`: one hop (CPU + wire + payload copy), arrival at the
//!   target's kernel; local hops cost CPU only.
//! * `Reply`: one hop priced by the accumulated `MoveTo` data plus reply
//!   data — bulk results ride the reply, packetized.
//! * `MoveFrom`: a memory copy locally; the calibrated short-segment fetch
//!   (or a packetized bulk transfer) when the sender is remote.
//! * `GetPid`: a kernel-table probe locally, a network broadcast otherwise.

use crate::api::{GroupId, Ipc, PathInner, Received, Reply};
use crate::error::IpcError;
use crate::group::GroupTable;
use crate::invariants::{InvariantLedger, TxnKind};
use crate::registry::{LookupPath, Registry};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};
use std::sync::{Arc, Weak};
use std::thread::Thread;
use std::time::Duration;
use vnet::{
    Exhausted, FaultConfig, FaultPlane, FaultStats, NetModel, Params1984, Partition, SimTime,
    Transmit,
};
use vproto::{Fnv1a, LogicalHost, Message, Pid, Scope, ServiceId};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ready,
    Running,
    BlockedRecv,
    BlockedSend,
}

struct SimEnvelope {
    from: Pid,
    msg: Message,
    payload: Bytes,
    txn_id: u64,
}

struct TxnState {
    sender: Pid,
    cap: usize,
    buf: Vec<u8>,
    outstanding: usize,
    done: bool,
}

struct ProcState {
    status: Status,
    host: LogicalHost,
    local_time: u64,
    mailbox: BTreeMap<(u64, u64), SimEnvelope>,
    resume: Option<Result<Reply, IpcError>>,
    /// Transactions received but not yet replied/forwarded — failed over to
    /// the blocked senders if this process dies while holding them.
    holding: Vec<u64>,
    /// The process's own thread, recorded under the state lock before it
    /// first waits; `None` until then, and then nobody needs a wake: the
    /// thread looks at `current` before it ever parks.
    thread: Option<Thread>,
}

/// Whom a scheduling decision must wake. Decided under the state lock,
/// issued by [`SimCore::wake`] after the lock is dropped.
#[must_use = "issue it with `SimCore::wake` once the state lock is dropped"]
enum Wake {
    /// The new holder of the baton has not started waiting yet.
    Nobody,
    /// The thread of the process that now holds the baton.
    Process(Thread),
    /// The baton was put down with nothing ready: `run()` must look.
    Drivers,
}

struct SimState {
    current: Option<Pid>,
    ready: BinaryHeap<Reverse<(u64, u64, u32)>>,
    procs: HashMap<Pid, ProcState>,
    txns: HashMap<u64, TxnState>,
    hosts: HashSet<LogicalHost>,
    next_host: u16,
    next_local: HashMap<LogicalHost, u16>,
    next_seq: u64,
    next_txn: u64,
    clock_max: u64,
    /// FNV-1a hash over the ordered stream of scheduler events (deliveries,
    /// sender resumptions, and every fault-plane event: retransmissions,
    /// suppressed duplicates, scheduled crashes, timeouts,
    /// partition-severed attempts). Two runs of the same workload must
    /// produce the same hash — the determinism gate `vcheck` enforces this.
    event_hash: Fnv1a,
    /// The seeded fault plane; `None` (the default) is a perfectly
    /// reliable network, bit-identical to the pre-fault-plane kernel.
    faults: Option<FaultPlane>,
    /// Scheduled transient crashes, ordered by virtual time: executed at
    /// the next scheduling point not preceded by an earlier ready process.
    crashes: BinaryHeap<Reverse<(u64, u64, u32)>>,
    shutdown: bool,
}

impl SimState {
    fn seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Folds one scheduler event into the domain's event-stream hash.
    fn note_event(&mut self, tag: u64, a: u64, b: u64, c: u64) {
        for word in [tag, a, b, c] {
            self.event_hash.write(&word.to_le_bytes());
        }
    }

    /// Picks the ready process with the smallest resume time and makes it
    /// current; clears `current` when nothing is ready.
    fn schedule_next(&mut self) -> Wake {
        loop {
            match self.ready.pop() {
                Some(Reverse((t, _, pid_raw))) => {
                    let pid = Pid::from_raw(pid_raw);
                    match self.procs.get_mut(&pid) {
                        Some(p) if p.status == Status::Ready => {
                            p.status = Status::Running;
                            p.local_time = p.local_time.max(t);
                            self.clock_max = self.clock_max.max(p.local_time);
                            self.current = Some(pid);
                            return p.thread.clone().map_or(Wake::Nobody, Wake::Process);
                        }
                        // Stale entry (process died); keep popping.
                        _ => continue,
                    }
                }
                None => {
                    self.current = None;
                    return Wake::Drivers;
                }
            }
        }
    }

    /// Completes a transaction, waking the blocked sender at `at`.
    fn resume_sender(&mut self, txn_id: u64, result: Result<Reply, IpcError>, at: u64) {
        let sender = match self.txns.get_mut(&txn_id) {
            Some(txn) if !txn.done => {
                txn.done = true;
                txn.sender
            }
            _ => return,
        };
        self.note_event(1, at, u64::from(sender.raw()), txn_id);
        if let Some(p) = self.procs.get_mut(&sender) {
            if p.status == Status::BlockedSend {
                p.resume = Some(result);
                p.status = Status::Ready;
                let t = at.max(p.local_time);
                let seq = self.seq();
                self.ready.push(Reverse((t, seq, sender.raw())));
            }
        }
    }

    /// Delivers an envelope to `to` at virtual time `arrival`; on a dead
    /// target, fails the transaction if no other member can still answer.
    fn deliver(&mut self, to: Pid, env: SimEnvelope, arrival: u64) -> bool {
        let alive = self.procs.contains_key(&to);
        if !alive {
            let txn_id = env.txn_id;
            if let Some(txn) = self.txns.get_mut(&txn_id) {
                txn.outstanding = txn.outstanding.saturating_sub(1);
                if txn.outstanding == 0 && !txn.done {
                    self.resume_sender(txn_id, Err(IpcError::ProcessDied), arrival);
                }
            }
            return false;
        }
        self.note_event(
            2,
            arrival,
            u64::from(env.from.raw()) << 32 | u64::from(to.raw()),
            env.txn_id,
        );
        let seq = self.seq();
        let seq2 = self.seq();
        let p = self.procs.get_mut(&to).expect("checked alive");
        p.mailbox.insert((arrival, seq), env);
        if p.status == Status::BlockedRecv {
            let t = arrival.max(p.local_time);
            p.status = Status::Ready;
            self.ready.push(Reverse((t, seq2, to.raw())));
        }
        true
    }

    fn quiescent(&self) -> bool {
        self.current.is_none() && self.ready.is_empty()
    }

    /// Runs the fault-plane trials for one remote transmission `from → to`
    /// starting at virtual time `at` (partitions are checked per attempt
    /// against that clock). Local hops (and fault-free domains) always
    /// deliver cleanly and consume no randomness.
    fn fault_transmit(
        &mut self,
        local: bool,
        from: LogicalHost,
        to: LogicalHost,
        at: u64,
    ) -> Result<Transmit, Exhausted> {
        if local {
            return Ok(Transmit::default());
        }
        match self.faults.as_mut() {
            Some(plane) => plane.transmit(from, to, SimTime::from_nanos(at)),
            None => Ok(Transmit::default()),
        }
    }

    /// Folds a successful transmission's fault events (retransmissions,
    /// partition-severed attempts, suppressed duplicate) into the event
    /// stream.
    fn note_transmit(&mut self, at: u64, who: Pid, txn_id: u64, trial: Transmit) {
        if trial.retransmits > 0 {
            self.note_event(3, at, u64::from(who.raw()), u64::from(trial.retransmits));
        }
        if trial.duplicate {
            self.note_event(4, at, u64::from(who.raw()), txn_id);
        }
        if trial.partition_drops > 0 {
            self.note_partition(at, who, trial.partition_drops);
        }
    }

    /// Folds partition-severed transmission attempts into the event stream
    /// (tag 8: the deterministic record that a link was cut).
    fn note_partition(&mut self, at: u64, who: Pid, drops: u32) {
        self.note_event(8, at, u64::from(who.raw()), u64::from(drops));
    }

    /// Feeds a round trip measured to destination host `to` into that
    /// destination's adaptive RTT estimator, if the plane is adaptive.
    /// Called under the state lock in scheduler order, so every
    /// estimator's trajectory is deterministic.
    fn observe_rtt(&mut self, to: LogicalHost, rtt: Duration, retransmitted: bool) {
        if let Some(plane) = self.faults.as_mut() {
            plane.observe_rtt(to, rtt, retransmitted);
        }
    }
}

struct SimCore {
    net: NetModel,
    state: Mutex<SimState>,
    cv: Condvar,
    registry: Registry,
    groups: GroupTable,
    ledger: InvariantLedger,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl SimCore {
    /// Removes `pid` at virtual time `at`: registrations and group
    /// memberships are dropped, pending transactions fail over to their
    /// blocked senders. Shared by `SimDomain::kill` and scheduled crashes.
    /// The caller holds the state lock; registry/group/ledger locks are
    /// independent and never re-enter the scheduler.
    fn execute_kill(&self, st: &mut SimState, pid: Pid, at: u64) {
        self.registry.unregister_pid(pid);
        self.groups.remove_everywhere(pid);
        self.ledger.on_process_exit(
            pid,
            self.registry.registered_anywhere(pid),
            self.groups.member_anywhere(pid),
        );
        st.clock_max = st.clock_max.max(at);
        st.note_event(5, at, u64::from(pid.raw()), 0);
        if let Some(proc_state) = st.procs.remove(&pid) {
            let pending: Vec<u64> = proc_state
                .mailbox
                .into_values()
                .map(|e| e.txn_id)
                .chain(proc_state.holding)
                .collect();
            for txn_id in pending {
                if let Some(txn) = st.txns.get_mut(&txn_id) {
                    txn.outstanding = txn.outstanding.saturating_sub(1);
                    if txn.outstanding == 0 && !txn.done {
                        st.resume_sender(txn_id, Err(IpcError::ProcessDied), at);
                    }
                }
            }
        }
    }

    /// Executes every scheduled crash that precedes the next ready
    /// process (crashes happen in virtual-time order, like any other
    /// event), then picks the next process to run.
    fn schedule(&self, st: &mut SimState) -> Wake {
        loop {
            let due = match (st.crashes.peek(), st.ready.peek()) {
                (Some(&Reverse((ct, _, _))), Some(&Reverse((rt, _, _)))) => ct <= rt,
                (Some(_), None) => true,
                _ => false,
            };
            if !due {
                break;
            }
            let Reverse((at, _, pid_raw)) = st.crashes.pop().expect("peeked above");
            self.execute_kill(st, Pid::from_raw(pid_raw), at);
        }
        st.schedule_next()
    }

    /// Issues a wake decided under the state lock. Call it without the lock.
    fn wake(&self, wake: Wake) {
        match wake {
            Wake::Nobody => {}
            Wake::Process(thread) => thread.unpark(),
            Wake::Drivers => self.cv.notify_all(),
        }
    }

    /// Parks until `pid` holds the baton; `Err(Shutdown)` once the domain
    /// is shutting down. Park tokens are per thread, so a stray one (from
    /// shutdown, or from a wake that found the thread already running)
    /// costs one more look at `current`.
    fn wait_for_baton(&self, st: &mut MutexGuard<'_, SimState>, pid: Pid) -> Result<(), IpcError> {
        while st.current != Some(pid) && !st.shutdown {
            MutexGuard::unlocked(st, std::thread::park);
        }
        if st.shutdown {
            Err(IpcError::Shutdown)
        } else {
            Ok(())
        }
    }

    /// `pid` puts the baton down: picks the next holder, wakes it with the
    /// lock dropped, and parks until `pid` holds the baton again. When the
    /// scheduler picks `pid` itself, nothing is woken and nothing parks.
    fn pass_baton(&self, st: &mut MutexGuard<'_, SimState>, pid: Pid) -> Result<(), IpcError> {
        let wake = self.schedule(st);
        if st.current != Some(pid) {
            MutexGuard::unlocked(st, || self.wake(wake));
        }
        self.wait_for_baton(st, pid)
    }

    fn shutdown_and_join(&self) {
        self.state.lock().shutdown = true;
        self.cv.notify_all();
        let handles: Vec<_> = self.threads.lock().drain(..).collect();
        // Through the handles, not `ProcState`: a process killed while
        // parked has no `ProcState` left, and still has to see `shutdown`.
        for h in &handles {
            h.thread().unpark();
        }
        let me = std::thread::current().id();
        for h in handles {
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
        self.ledger.assert_all_resolved();
    }
}

struct OwnerToken {
    core: Weak<SimCore>,
}

impl Drop for OwnerToken {
    fn drop(&mut self) {
        if let Some(core) = self.core.upgrade() {
            core.shutdown_and_join();
        }
    }
}

pub(crate) struct SimPath {
    core: Weak<SimCore>,
    txn_id: u64,
    sender_host: LogicalHost,
    holder: Pid,
    consumed: bool,
}

impl Drop for SimPath {
    fn drop(&mut self) {
        if self.consumed {
            return;
        }
        if let Some(core) = self.core.upgrade() {
            let mut st = core.state.lock();
            if let Some(p) = st.procs.get_mut(&self.holder) {
                p.holding.retain(|&t| t != self.txn_id);
            }
            if let Some(txn) = st.txns.get_mut(&self.txn_id) {
                txn.outstanding = txn.outstanding.saturating_sub(1);
                if txn.outstanding == 0 && !txn.done {
                    let at = st.clock_max;
                    st.resume_sender(self.txn_id, Err(IpcError::ProcessDied), at);
                }
            }
        }
    }
}

/// A V domain under deterministic virtual time.
///
/// Spawn servers and clients exactly as on [`crate::Domain`]; then call
/// [`SimDomain::run`] to drive the event loop until quiescence (only
/// processes blocked in `Receive` remain). Virtual time persists across
/// `run` calls, so an experiment can interleave setup, measurement, and
/// fault injection.
///
/// # Examples
///
/// Reproduce the paper's §3.1 message transaction (2.56 ms remote):
///
/// ```
/// use vkernel::{SimDomain, Ipc};
/// use vnet::Params1984;
/// use vproto::{Message, RequestCode};
/// use bytes::Bytes;
/// use std::time::Duration;
///
/// let domain = SimDomain::new(Params1984::ethernet_3mbit());
/// let (a, b) = (domain.add_host(), domain.add_host());
/// let server = domain.spawn(b, "echo", |ctx| {
///     while let Ok(rx) = ctx.receive() {
///         let msg = rx.msg;
///         ctx.reply(rx, msg, Bytes::new()).ok();
///     }
/// });
/// let elapsed = domain
///     .client(a, move |ctx| {
///         let t0 = ctx.now();
///         ctx.send(server, Message::request(RequestCode::Echo), Bytes::new(), 0)
///             .unwrap();
///         ctx.now() - t0
///     })
///     .unwrap();
/// assert_eq!(elapsed, Duration::from_micros(2560));
/// ```
#[derive(Clone)]
pub struct SimDomain {
    core: Arc<SimCore>,
    _owner: Arc<OwnerToken>,
}

impl SimDomain {
    /// Creates a virtual-time domain with the given hardware parameters
    /// and a perfectly reliable network.
    pub fn new(params: Params1984) -> Self {
        Self::build(params, None)
    }

    /// Creates a virtual-time domain whose remote links run the seeded
    /// fault plane: message loss behind the kernel's bounded
    /// retransmission ladder, duplicate suppression, and delivery jitter.
    /// Local (same-host) IPC stays reliable. Equal seeds with equal
    /// workloads produce equal event hashes.
    pub fn with_faults(params: Params1984, faults: FaultConfig) -> Self {
        Self::build(params, Some(FaultPlane::new(faults)))
    }

    fn build(params: Params1984, faults: Option<FaultPlane>) -> Self {
        let core = Arc::new(SimCore {
            net: NetModel::new(params),
            state: Mutex::new(SimState {
                current: None,
                ready: BinaryHeap::new(),
                procs: HashMap::new(),
                txns: HashMap::new(),
                hosts: HashSet::new(),
                next_host: 0,
                next_local: HashMap::new(),
                next_seq: 0,
                next_txn: 0,
                clock_max: 0,
                event_hash: Fnv1a::new(),
                faults,
                crashes: BinaryHeap::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            registry: Registry::new(),
            groups: GroupTable::new(),
            ledger: InvariantLedger::new(),
            threads: Mutex::new(Vec::new()),
        });
        let owner = Arc::new(OwnerToken {
            core: Arc::downgrade(&core),
        });
        SimDomain {
            core,
            _owner: owner,
        }
    }

    /// Adds a logical host (a simulated workstation) to the domain.
    pub fn add_host(&self) -> LogicalHost {
        let mut st = self.core.state.lock();
        st.next_host += 1;
        let host = LogicalHost::new(st.next_host);
        st.hosts.insert(host);
        host
    }

    /// Spawns a V process on `host`; it becomes runnable at the spawner's
    /// virtual time (time zero when spawned from outside the simulation).
    pub fn spawn<F>(&self, host: LogicalHost, name: &str, f: F) -> Pid
    where
        F: FnOnce(&dyn Ipc) + Send + 'static,
    {
        let mut st = self.core.state.lock();
        let counter = st.next_local.entry(host).or_insert(0);
        *counter += 1;
        let pid = Pid::new(host, *counter);
        self.core.ledger.on_pid_alloc(pid);
        st.hosts.insert(host);
        // A process spawned by a running process starts at the spawner's
        // time; one spawned from outside the simulation starts "now" (the
        // high-water clock), never in the past of running servers.
        let spawn_time = st
            .current
            .and_then(|cur| st.procs.get(&cur))
            .map(|p| p.local_time)
            .unwrap_or(st.clock_max);
        st.procs.insert(
            pid,
            ProcState {
                status: Status::Ready,
                host,
                local_time: spawn_time,
                mailbox: BTreeMap::new(),
                resume: None,
                holding: Vec::new(),
                thread: None,
            },
        );
        let seq = st.seq();
        st.ready.push(Reverse((spawn_time, seq, pid.raw())));
        drop(st);

        let weak = Arc::downgrade(&self.core);
        let thread_name = format!("vsim-{name}-{pid}");
        let handle = std::thread::Builder::new()
            .name(thread_name)
            .spawn(move || {
                let Some(core) = weak.upgrade() else { return };
                let ctx = SimCtx {
                    core: Arc::clone(&core),
                    pid,
                    host,
                };
                // Wait until scheduled for the first time.
                {
                    let mut st = core.state.lock();
                    if let Some(p) = st.procs.get_mut(&pid) {
                        p.thread = Some(std::thread::current());
                    }
                    if core.wait_for_baton(&mut st, pid).is_err() {
                        return;
                    }
                }
                f(&ctx);
                ctx.exit();
            })
            .expect("spawn sim process thread");
        let mut threads = self.core.threads.lock();
        // Reap the processes that have exited, so a long-lived domain
        // keeps only its live threads' stacks mapped.
        for done in threads.extract_if(.., |h| h.is_finished()) {
            let _ = done.join();
        }
        threads.push(handle);
        pid
    }

    /// Runs the simulation until quiescence (no runnable process remains)
    /// and returns the high-water virtual clock.
    pub fn run(&self) -> SimTime {
        let mut st = self.core.state.lock();
        while !st.shutdown {
            if st.current.is_some() {
                // A process holds the baton; it wakes the drivers when it
                // puts the baton down with nothing ready.
                self.core.cv.wait(&mut st);
            } else if st.quiescent() && st.crashes.is_empty() {
                break;
            } else {
                let wake = self.core.schedule(&mut st);
                MutexGuard::unlocked(&mut st, || self.core.wake(wake));
            }
        }
        let procs_max = st.procs.values().map(|p| p.local_time).max().unwrap_or(0);
        st.clock_max = st.clock_max.max(procs_max);
        SimTime::from_nanos(st.clock_max)
    }

    /// Spawns `f` as a client on `host`, runs the simulation to quiescence,
    /// and returns `f`'s result (`None` if the client did not complete).
    pub fn client<T, F>(&self, host: LogicalHost, f: F) -> Option<T>
    where
        T: Send + 'static,
        F: FnOnce(&dyn Ipc) -> T + Send + 'static,
    {
        let slot = Arc::new(Mutex::new(None));
        let out = Arc::clone(&slot);
        self.spawn(host, "client", move |ctx| {
            *out.lock() = Some(f(ctx));
        });
        self.run();
        let mut guard = slot.lock();
        guard.take()
    }

    /// Kills `pid` immediately: it disappears from the domain, its pending
    /// transactions fail, and its registrations are removed.
    pub fn kill(&self, pid: Pid) {
        let mut st = self.core.state.lock();
        let at = st.clock_max;
        self.core.execute_kill(&mut st, pid, at);
    }

    /// Schedules a transient crash: `pid` is killed when virtual time
    /// reaches `at`, interleaved deterministically with ordinary events
    /// (the crash executes at the first scheduling point with no earlier
    /// ready process). Model restart by spawning a supervisor process that
    /// sleeps past `at` and re-runs the server body — its fresh `SetPid`
    /// registration is what clients re-discover by broadcast re-query.
    pub fn schedule_crash(&self, pid: Pid, at: SimTime) {
        let mut st = self.core.state.lock();
        let seq = st.seq();
        st.crashes.push(Reverse((at.as_nanos(), seq, pid.raw())));
    }

    /// Schedules a network partition: a directed (or symmetric) host-pair
    /// cut over a virtual-time window, interleaved deterministically with
    /// ordinary events. A domain built without faults gets a lossless
    /// plane holding only the partition schedule, so `schedule_partition`
    /// on a fault-free domain changes nothing but the severed links.
    pub fn schedule_partition(&self, p: Partition) {
        let mut st = self.core.state.lock();
        st.faults
            .get_or_insert_with(|| FaultPlane::new(FaultConfig::lossless(0)))
            .add_partition(p);
    }

    /// The largest smoothed round-trip estimate across all destinations
    /// the adaptive fault plane has sampled (the RTT picture is kept per
    /// destination host).
    pub fn srtt(&self) -> Option<Duration> {
        self.core
            .state
            .lock()
            .faults
            .as_ref()
            .and_then(|p| p.rtt_estimators().filter_map(|(_, e)| e.srtt()).max())
    }

    /// The sorted, deduplicated heal times of every partition scheduled on
    /// the fault plane (unhealed cuts contribute nothing). Experiment
    /// wiring uses this with [`notify_at`](Self::notify_at) to trigger an
    /// anti-entropy round as soon as connectivity returns.
    pub fn heal_times(&self) -> Vec<SimTime> {
        let st = self.core.state.lock();
        let mut out: Vec<SimTime> = st
            .faults
            .as_ref()
            .map(|p| {
                p.config()
                    .partitions
                    .iter()
                    .filter_map(|c| c.heal)
                    .collect()
            })
            .unwrap_or_default();
        out.sort();
        out.dedup();
        out
    }

    /// The sorted, deduplicated *start* times of every partition scheduled
    /// on the fault plane — the mirror of [`heal_times`](Self::heal_times).
    /// Experiment wiring uses this with [`notify_at`](Self::notify_at) to
    /// schedule replica↔replica gossip rounds *inside* the cut window,
    /// when the authority is unreachable and peer reconciliation is the
    /// only anti-entropy left.
    pub fn cut_times(&self) -> Vec<SimTime> {
        let st = self.core.state.lock();
        let mut out: Vec<SimTime> = st
            .faults
            .as_ref()
            .map(|p| p.config().partitions.iter().map(|c| c.start).collect())
            .unwrap_or_default();
        out.sort();
        out.dedup();
        out
    }

    /// Spawns a notifier process on `to`'s host that sleeps until virtual
    /// time `at` and then sends `msg` (no payload) to `to`, ignoring the
    /// outcome. The notification is an ordinary simulated send, so it is
    /// folded into the event hash and priced by the cost model like any
    /// other message. Used to schedule heal-triggered or periodic
    /// anti-entropy rounds without breaking determinism.
    pub fn notify_at(&self, at: SimTime, to: Pid, msg: Message) {
        let host = {
            let st = self.core.state.lock();
            st.procs
                .get(&to)
                .map(|p| p.host)
                .unwrap_or_else(|| to.logical_host())
        };
        self.spawn(host, "notify", move |ctx| {
            let target = Duration::from_nanos(at.as_nanos());
            let now = ctx.now();
            if target > now {
                ctx.sleep(target - now);
            }
            let _ = ctx.send(to, msg, Bytes::new(), 256);
        });
    }

    /// A snapshot of the fault-plane counters (all zero for a fault-free
    /// domain).
    pub fn fault_stats(&self) -> FaultStats {
        self.core
            .state
            .lock()
            .faults
            .as_ref()
            .map(|p| p.stats())
            .unwrap_or_default()
    }

    /// Returns the high-water virtual clock reached so far.
    pub fn virtual_now(&self) -> SimTime {
        SimTime::from_nanos(self.core.state.lock().clock_max)
    }

    /// Returns the FNV-1a hash of the ordered scheduler event stream so
    /// far (every message delivery and sender resumption, with its virtual
    /// time and transaction id).
    ///
    /// Two runs of the same deterministic workload must yield identical
    /// hashes; `vcheck`'s determinism gate runs workloads twice and fails
    /// on divergence.
    pub fn event_hash(&self) -> u64 {
        self.core.state.lock().event_hash.finish()
    }

    /// Returns the domain's service registry (for inspection in tests).
    pub fn registry(&self) -> &Registry {
        &self.core.registry
    }

    /// Returns the network cost model used by this domain.
    pub fn net(&self) -> NetModel {
        self.core.net.clone()
    }
}

/// Kernel interface handed to each process on the simulation kernel.
struct SimCtx {
    core: Arc<SimCore>,
    pid: Pid,
    host: LogicalHost,
}

impl SimCtx {
    fn exit(&self) {
        self.core.registry.unregister_pid(self.pid);
        self.core.groups.remove_everywhere(self.pid);
        self.core.ledger.on_process_exit(
            self.pid,
            self.core.registry.registered_anywhere(self.pid),
            self.core.groups.member_anywhere(self.pid),
        );
        let mut st = self.core.state.lock();
        if let Some(proc_state) = st.procs.remove(&self.pid) {
            let at = proc_state.local_time;
            let pending: Vec<u64> = proc_state
                .mailbox
                .into_values()
                .map(|e| e.txn_id)
                .chain(proc_state.holding)
                .collect();
            for txn_id in pending {
                if let Some(txn) = st.txns.get_mut(&txn_id) {
                    txn.outstanding = txn.outstanding.saturating_sub(1);
                    if txn.outstanding == 0 && !txn.done {
                        st.resume_sender(txn_id, Err(IpcError::ProcessDied), at);
                    }
                }
            }
        }
        if st.current == Some(self.pid) {
            let wake = self.core.schedule(&mut st);
            drop(st);
            self.core.wake(wake);
        }
    }

    fn my_time(&self, st: &SimState) -> u64 {
        st.procs.get(&self.pid).map(|p| p.local_time).unwrap_or(0)
    }

    fn advance(&self, st: &mut SimState, d: Duration) -> u64 {
        match st.procs.get_mut(&self.pid) {
            Some(p) => {
                p.local_time += d.as_nanos() as u64;
                let t = p.local_time;
                st.clock_max = st.clock_max.max(t);
                t
            }
            // The process was killed out from under us; keep going until the
            // next blocking operation observes it.
            None => st.clock_max,
        }
    }

    fn host_of(&self, st: &SimState, pid: Pid) -> LogicalHost {
        st.procs
            .get(&pid)
            .map(|p| p.host)
            .unwrap_or_else(|| pid.logical_host())
    }
}

impl Ipc for SimCtx {
    fn my_pid(&self) -> Pid {
        self.pid
    }

    fn host(&self) -> LogicalHost {
        self.host
    }

    fn send(
        &self,
        to: Pid,
        msg: Message,
        payload: Bytes,
        recv_cap: usize,
    ) -> Result<Reply, IpcError> {
        if to == self.pid {
            return Err(IpcError::BadOperation("send to self would deadlock"));
        }
        let mut st = self.core.state.lock();
        if st.shutdown {
            return Err(IpcError::Shutdown);
        }
        if !st.procs.contains_key(&to) {
            return Err(IpcError::NoProcess);
        }
        let local = self.host_of(&st, to) == self.host;
        let hop = self.core.net.hop_cost(local, payload.len());

        st.next_txn += 1;
        let txn_id = st.next_txn;
        self.core.ledger.on_send_open(txn_id, TxnKind::Single);
        let t_send = self.my_time(&st);
        let to_host = self.host_of(&st, to);
        let trial = match st.fault_transmit(local, self.host, to_host, t_send) {
            Ok(t) => t,
            Err(e) => {
                // Every transmission of the request was lost — to the wire
                // or to a partition: the sender sat out the whole
                // retransmission ladder and the kernel reports a timeout.
                // A partitioned receiver is alive yet unreachable, but the
                // sender cannot tell (that is the point of the model).
                // Nothing was delivered, so the transaction resolves right
                // here — still exactly once.
                let now = self.advance(&mut st, e.wasted);
                if e.partition_drops > 0 {
                    st.note_partition(now, self.pid, e.partition_drops);
                }
                st.note_event(6, now, u64::from(self.pid.raw()), txn_id);
                self.core.ledger.on_sender_resolved(txn_id);
                return Err(IpcError::Timeout);
            }
        };
        let arrival = self.my_time(&st) + (hop + trial.delay).as_nanos() as u64;
        st.note_transmit(arrival, self.pid, txn_id, trial);
        st.txns.insert(
            txn_id,
            TxnState {
                sender: self.pid,
                cap: recv_cap,
                buf: Vec::new(),
                outstanding: 1,
                done: false,
            },
        );
        let env = SimEnvelope {
            from: self.pid,
            msg,
            payload,
            txn_id,
        };
        st.deliver(to, env, arrival);
        if let Some(p) = st.procs.get_mut(&self.pid) {
            p.status = Status::BlockedSend;
        }
        let waited = self.core.pass_baton(&mut st, self.pid);
        // The transaction is over for the sender either way — normally, or
        // because the whole domain is shutting down.
        self.core.ledger.on_sender_resolved(txn_id);
        st.txns.remove(&txn_id);
        waited?;
        let result = st
            .procs
            .get_mut(&self.pid)
            .and_then(|p| p.resume.take())
            .unwrap_or(Err(IpcError::ProcessDied));
        if !local && result.is_ok() {
            // A completed remote transaction is a round-trip sample for
            // the adaptive RTT estimator; per Karn's rule a sample from a
            // retransmitted exchange is flagged (and discarded there).
            let rtt = Duration::from_nanos(self.my_time(&st).saturating_sub(t_send));
            st.observe_rtt(
                to_host,
                rtt,
                trial.retransmits > 0 || trial.partition_drops > 0,
            );
        }
        result
    }

    fn send_group(&self, group: GroupId, msg: Message, payload: Bytes) -> Result<Reply, IpcError> {
        let members = self
            .core
            .groups
            .members(group)
            .ok_or(IpcError::NoSuchGroup)?;
        let members: Vec<Pid> = members.into_iter().filter(|&m| m != self.pid).collect();
        if members.is_empty() {
            return Err(IpcError::NoReply);
        }
        let mut st = self.core.state.lock();
        if st.shutdown {
            return Err(IpcError::Shutdown);
        }
        let other_hosts = st.hosts.len().saturating_sub(1);
        let cost = self.core.net.multicast_send_cost(other_hosts);
        let arrival = self.my_time(&st) + cost.as_nanos() as u64;

        st.next_txn += 1;
        let txn_id = st.next_txn;
        self.core.ledger.on_send_open(txn_id, TxnKind::Group);
        st.txns.insert(
            txn_id,
            TxnState {
                sender: self.pid,
                cap: 0,
                buf: Vec::new(),
                outstanding: members.len(),
                done: false,
            },
        );
        let mut delivered = 0usize;
        for member in &members {
            // Multicast is best-effort (one datagram, no retransmission):
            // each remote member's copy is lost independently — to the
            // wire or to a partition; a lost member simply never answers,
            // like a dead one.
            let member_host = self.host_of(&st, *member);
            let local = member_host == self.host;
            let send_at = SimTime::from_nanos(self.my_time(&st));
            let from = self.host;
            let lost = !local
                && st
                    .faults
                    .as_mut()
                    .is_some_and(|plane| !plane.multicast_delivered(from, member_host, send_at));
            if lost {
                st.note_event(7, arrival, u64::from(member.raw()), txn_id);
                if let Some(txn) = st.txns.get_mut(&txn_id) {
                    txn.outstanding = txn.outstanding.saturating_sub(1);
                }
                continue;
            }
            let env = SimEnvelope {
                from: self.pid,
                msg,
                payload: payload.clone(),
                txn_id,
            };
            if st.deliver(*member, env, arrival) {
                delivered += 1;
            }
        }
        if delivered == 0 {
            st.txns.remove(&txn_id);
            self.core.ledger.on_sender_resolved(txn_id);
            return Err(IpcError::NoReply);
        }
        if let Some(p) = st.procs.get_mut(&self.pid) {
            p.status = Status::BlockedSend;
        }
        let waited = self.core.pass_baton(&mut st, self.pid);
        self.core.ledger.on_sender_resolved(txn_id);
        let result = st
            .procs
            .get_mut(&self.pid)
            .and_then(|p| p.resume.take())
            .unwrap_or(Err(IpcError::NoReply));
        st.txns.remove(&txn_id);
        waited?;
        result.map_err(|e| {
            if e == IpcError::ProcessDied {
                IpcError::NoReply
            } else {
                e
            }
        })
    }

    fn receive(&self) -> Result<Received, IpcError> {
        let mut st = self.core.state.lock();
        loop {
            if st.shutdown {
                return Err(IpcError::Shutdown);
            }
            let popped = {
                let p = st.procs.get_mut(&self.pid).ok_or(IpcError::Killed)?;
                match p.mailbox.first_key_value().map(|(k, _)| *k) {
                    Some(key) => {
                        let env = p.mailbox.remove(&key).expect("key just seen");
                        p.local_time = p.local_time.max(key.0);
                        p.holding.push(env.txn_id);
                        Some(env)
                    }
                    None => None,
                }
            };
            match popped {
                Some(env) => {
                    let sender_host = self.host_of(&st, env.from);
                    st.clock_max = st.clock_max.max(self.my_time(&st));
                    return Ok(Received {
                        from: env.from,
                        msg: env.msg,
                        payload: env.payload,
                        path: PathInner::Sim(SimPath {
                            core: Arc::downgrade(&self.core),
                            txn_id: env.txn_id,
                            sender_host,
                            holder: self.pid,
                            consumed: false,
                        }),
                    });
                }
                None => {
                    if let Some(p) = st.procs.get_mut(&self.pid) {
                        p.status = Status::BlockedRecv;
                    }
                    self.core.pass_baton(&mut st, self.pid)?;
                }
            }
        }
    }

    fn reply(&self, rx: Received, msg: Message, data: Bytes) -> Result<(), IpcError> {
        let mut path = match rx.path {
            PathInner::Sim(p) => p,
            PathInner::Thread(_) => {
                return Err(IpcError::BadOperation("thread token on sim kernel"))
            }
        };
        let mut st = self.core.state.lock();
        path.consumed = true;
        let txn_id = path.txn_id;
        self.core.ledger.on_reply(txn_id);
        if let Some(p) = st.procs.get_mut(&self.pid) {
            p.holding.retain(|&t| t != txn_id);
        }
        let (sender, cap, buf_len, done) = match st.txns.get(&txn_id) {
            Some(t) => (t.sender, t.cap, t.buf.len(), t.done),
            None => return Ok(()), // sender gone; discard like the real kernel
        };
        let sender_host = self.host_of(&st, sender);
        let local = sender_host == self.host;
        let total = buf_len + data.len();
        let hop = self.core.net.hop_cost(local, total);
        let t_reply = self.my_time(&st);
        let trial = match st.fault_transmit(local, self.host, sender_host, t_reply) {
            Ok(t) => t,
            Err(e) => {
                // The reply never got through — lost on the wire or severed
                // by a partition (the asymmetric case: the request arrived,
                // the answer cannot): the replier's kernel burned its
                // ladder, and the sender's own retransmissions cannot
                // recover a lost *reply* (the server already answered).
                // Fail the blocked sender with a timeout — exactly one
                // resolution, as the ledger demands.
                let now = self.advance(&mut st, e.wasted);
                if e.partition_drops > 0 {
                    st.note_partition(now, self.pid, e.partition_drops);
                }
                st.note_event(6, now, u64::from(self.pid.raw()), txn_id);
                if let Some(t) = st.txns.get_mut(&txn_id) {
                    t.outstanding = t.outstanding.saturating_sub(1);
                }
                if !done {
                    st.resume_sender(txn_id, Err(IpcError::Timeout), now);
                }
                return Err(IpcError::Timeout);
            }
        };
        let now = self.advance(&mut st, hop + trial.delay);
        st.note_transmit(now, self.pid, txn_id, trial);
        if let Some(t) = st.txns.get_mut(&txn_id) {
            t.outstanding = t.outstanding.saturating_sub(1);
        }
        if done {
            return Ok(()); // group transaction already answered
        }
        let result = if total > cap {
            Err(IpcError::BufferOverflow)
        } else {
            let mut buf = match st.txns.get_mut(&txn_id) {
                Some(t) => std::mem::take(&mut t.buf),
                None => Vec::new(),
            };
            buf.extend_from_slice(&data);
            Ok(Reply {
                msg,
                data: Bytes::from(buf),
            })
        };
        let failed = result.is_err();
        st.resume_sender(txn_id, result, now);
        if failed {
            Err(IpcError::BufferOverflow)
        } else {
            Ok(())
        }
    }

    fn forward(&self, rx: Received, to: Pid, msg: Message) -> Result<(), IpcError> {
        let mut path = match rx.path {
            PathInner::Sim(p) => p,
            PathInner::Thread(_) => {
                return Err(IpcError::BadOperation("thread token on sim kernel"))
            }
        };
        let mut st = self.core.state.lock();
        path.consumed = true;
        let txn_id = path.txn_id;
        self.core.ledger.on_forward(txn_id);
        if let Some(p) = st.procs.get_mut(&self.pid) {
            p.holding.retain(|&t| t != txn_id);
        }
        let to_host = self.host_of(&st, to);
        let local = to_host == self.host;
        let hop = self.core.net.hop_cost(local, rx.payload.len());
        let t_fwd = self.my_time(&st);
        let trial = match st.fault_transmit(local, self.host, to_host, t_fwd) {
            Ok(t) => t,
            Err(e) => {
                // The forwarded request never arrived (lost or severed by a
                // partition); with no other outstanding delivery the
                // blocked sender times out.
                let now = self.advance(&mut st, e.wasted);
                if e.partition_drops > 0 {
                    st.note_partition(now, self.pid, e.partition_drops);
                }
                st.note_event(6, now, u64::from(self.pid.raw()), txn_id);
                if let Some(txn) = st.txns.get_mut(&txn_id) {
                    txn.outstanding = txn.outstanding.saturating_sub(1);
                    if txn.outstanding == 0 && !txn.done {
                        st.resume_sender(txn_id, Err(IpcError::Timeout), now);
                    }
                }
                return Err(IpcError::Timeout);
            }
        };
        let now = self.advance(&mut st, hop + trial.delay);
        st.note_transmit(now, self.pid, txn_id, trial);
        let env = SimEnvelope {
            from: rx.from,
            msg,
            payload: rx.payload,
            txn_id,
        };
        if st.deliver(to, env, now) {
            Ok(())
        } else {
            Err(IpcError::NoProcess)
        }
    }

    fn move_from(&self, rx: &Received) -> Result<Bytes, IpcError> {
        let path = match &rx.path {
            PathInner::Sim(p) => p,
            PathInner::Thread(_) => {
                return Err(IpcError::BadOperation("thread token on sim kernel"))
            }
        };
        let mut st = self.core.state.lock();
        let len = rx.payload.len();
        let cost = if path.sender_host == self.host {
            self.core.net.copy_cost(len)
        } else if len <= self.core.net.params().max_data_per_packet {
            self.core.net.params().t_remote_name_fetch + self.core.net.copy_cost(len)
        } else {
            self.core.net.bulk_cost(false, len)
        };
        self.advance(&mut st, cost);
        Ok(rx.payload.clone())
    }

    fn move_to(&self, rx: &mut Received, data: &[u8]) -> Result<(), IpcError> {
        let path = match &mut rx.path {
            PathInner::Sim(p) => p,
            PathInner::Thread(_) => {
                return Err(IpcError::BadOperation("thread token on sim kernel"))
            }
        };
        let mut st = self.core.state.lock();
        match st.txns.get_mut(&path.txn_id) {
            Some(t) => {
                if t.buf.len() + data.len() > t.cap {
                    return Err(IpcError::BufferOverflow);
                }
                t.buf.extend_from_slice(data);
                Ok(())
            }
            None => Err(IpcError::ProcessDied),
        }
    }

    fn set_pid(&self, service: ServiceId, scope: Scope) {
        self.core.registry.register(service, self.pid, scope);
        let mut st = self.core.state.lock();
        let cost = self.core.net.params().t_getpid_local;
        self.advance(&mut st, cost);
    }

    fn get_pid(&self, service: ServiceId, scope: Scope) -> Option<Pid> {
        let found = self.core.registry.lookup(service, scope, self.host);
        let mut st = self.core.state.lock();
        let params = self.core.net.params().clone();
        let other_hosts = st.hosts.len().saturating_sub(1);
        let broadcast = matches!(found, Some((_, LookupPath::Broadcast)))
            || (found.is_none() && scope.searches_remote());
        let cost = if broadcast {
            params.t_getpid_local + self.core.net.broadcast_query_cost(other_hosts)
        } else {
            params.t_getpid_local
        };
        // A broadcast query is a remote transmission like any other: under
        // the fault plane it can be retransmitted, severed by a partition,
        // or (rarely) time out — in each case the caller sees a miss and
        // must re-query.
        if broadcast {
            let responder = found.map(|(pid, _)| self.host_of(&st, pid));
            let to_host = responder.unwrap_or(self.host);
            let t_query = self.my_time(&st);
            match st.fault_transmit(false, self.host, to_host, t_query) {
                Ok(trial) => {
                    let now = self.advance(&mut st, cost + trial.delay);
                    st.note_transmit(now, self.pid, 0, trial);
                    // The answer travels the reverse direction: under an
                    // asymmetric cut the responder hears the query but its
                    // answer never arrives, so the querier still sees a
                    // miss after sitting out its ladder.
                    if let Some(resp) = responder {
                        let answer_cut = resp != self.host
                            && st.faults.as_ref().is_some_and(|p| {
                                p.severed(resp, self.host, SimTime::from_nanos(now))
                            });
                        if answer_cut {
                            let wait = st
                                .faults
                                .as_ref()
                                .map(|p| p.give_up_cost(resp))
                                .unwrap_or_default();
                            let at = self.advance(&mut st, wait);
                            st.note_event(6, at, u64::from(self.pid.raw()), 0);
                            return None;
                        }
                    }
                }
                Err(e) => {
                    let now = self.advance(&mut st, cost + e.wasted);
                    if e.partition_drops > 0 {
                        st.note_partition(now, self.pid, e.partition_drops);
                    }
                    st.note_event(6, now, u64::from(self.pid.raw()), 0);
                    return None;
                }
            }
        } else {
            self.advance(&mut st, cost);
        }
        found.map(|(pid, _)| pid)
    }

    fn create_group(&self) -> GroupId {
        self.core.groups.create()
    }

    fn join_group(&self, group: GroupId) -> Result<(), IpcError> {
        if self.core.groups.join(group, self.pid) {
            Ok(())
        } else {
            Err(IpcError::NoSuchGroup)
        }
    }

    fn leave_group(&self, group: GroupId) -> Result<(), IpcError> {
        if self.core.groups.leave(group, self.pid) {
            Ok(())
        } else {
            Err(IpcError::NoSuchGroup)
        }
    }

    fn charge(&self, work: Duration) {
        let mut st = self.core.state.lock();
        self.advance(&mut st, work);
    }

    fn sleep(&self, d: Duration) {
        let mut st = self.core.state.lock();
        if st.shutdown {
            return;
        }
        let t = self.advance(&mut st, d);
        if let Some(p) = st.procs.get_mut(&self.pid) {
            p.status = Status::Ready;
        }
        let seq = st.seq();
        st.ready.push(Reverse((t, seq, self.pid.raw())));
        let _ = self.core.pass_baton(&mut st, self.pid);
    }

    fn now(&self) -> Duration {
        let st = self.core.state.lock();
        Duration::from_nanos(self.my_time(&st))
    }

    fn net(&self) -> Option<NetModel> {
        Some(self.core.net.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exited_processes_are_reaped_at_spawn() {
        let domain = SimDomain::new(Params1984::ethernet_3mbit());
        let host = domain.add_host();
        let mut most = 0;
        for i in 0..10_000u32 {
            assert_eq!(domain.client(host, move |_| i), Some(i));
            most = most.max(domain.core.threads.lock().len());
        }
        // The last client may still be unwinding when the next one spawns;
        // without reaping, every handle ever spawned would be kept.
        assert!(most <= 8, "{most} thread handles retained");
    }
}
