//! The real-thread kernel: every V process is an OS thread, IPC is a
//! blocking rendezvous through [`crate::rendezvous`] — a mailbox per
//! process and one reusable reply cell per sender.
//!
//! This kernel gives real parallelism and wall-clock performance: the
//! Criterion benches, the stress tests and `vload`'s four thread workloads
//! (`resolve_single`, `resolve_batch64`, `open_forward`, `churn_mixed`)
//! run on it. It keeps no cost model — [`Ipc::charge`] and [`Ipc::net`]
//! are the trait's defaults — so every 1984 millisecond comes from
//! [`crate::SimDomain`]. Both implement [`Ipc`], so all servers and stubs
//! run unchanged on either.

#![expect(
    clippy::disallowed_types,
    reason = "the real-thread kernel's clock is the wall clock: `Ipc::now` reads it here"
)]

use crate::api::{GroupId, Ipc, PathInner, Received, Reply};
use crate::error::IpcError;
use crate::group::GroupTable;
use crate::invariants::{InvariantLedger, TxnKind};
use crate::registry::Registry;
use crate::rendezvous::{Mailbox, ReplyCell, ReplyHandle};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};
use vproto::{LogicalHost, Message, Pid, Scope, ServiceId};

struct Envelope {
    from: Pid,
    msg: Message,
    payload: Bytes,
    /// Carries the transaction id, unique for the domain's lifetime.
    reply: ReplyHandle,
    cap: usize,
    prebuf: Vec<u8>,
}

impl Envelope {
    fn into_received(self) -> Received {
        Received {
            from: self.from,
            msg: self.msg,
            payload: self.payload,
            path: PathInner::Thread(ThreadPath {
                reply: self.reply,
                cap: self.cap,
                buf: self.prebuf,
            }),
        }
    }
}

struct JoinEntry {
    thread_id: std::thread::ThreadId,
    handle: std::thread::JoinHandle<()>,
}

struct DomainCore {
    processes: RwLock<HashMap<Pid, Arc<Mailbox<Envelope>>>>,
    registry: Registry,
    groups: GroupTable,
    alloc: Mutex<Alloc>,
    threads: Mutex<Vec<JoinEntry>>,
    next_txn: AtomicU64,
    /// Debug-build rendezvous invariant checks; shared (strongly) with every
    /// process context so resolutions recorded during teardown still land.
    ledger: Arc<InvariantLedger>,
    start: Instant,
}

impl DomainCore {
    fn mailbox_of(&self, pid: Pid) -> Result<Arc<Mailbox<Envelope>>, IpcError> {
        self.processes
            .read()
            .get(&pid)
            .cloned()
            .ok_or(IpcError::NoProcess)
    }

    fn poison_all(&self) {
        let mailboxes: Vec<_> = self.processes.write().drain().map(|(_, m)| m).collect();
        for mailbox in mailboxes {
            mailbox.close();
        }
    }

    fn join_all(&self) {
        let me = std::thread::current().id();
        let handles: Vec<JoinEntry> = self.threads.lock().drain(..).collect();
        for entry in handles {
            if entry.thread_id != me {
                let _ = entry.handle.join();
            }
        }
    }
}

impl Drop for DomainCore {
    fn drop(&mut self) {
        self.poison_all();
        self.join_all();
        self.ledger.assert_all_resolved();
    }
}

#[derive(Default)]
struct Alloc {
    next_host: u16,
    next_local: HashMap<LogicalHost, u16>,
}

pub(crate) struct ThreadPath {
    reply: ReplyHandle,
    cap: usize,
    buf: Vec<u8>,
}

/// A V domain running on real OS threads.
///
/// A domain is a set of logical hosts over which kernel operations are
/// transparent — "basically one V-System installation" (paper §4.1). Create
/// hosts with [`Domain::add_host`], processes with [`Domain::spawn`], and
/// drive request/response work from tests with [`Domain::client`].
///
/// Dropping the last `Domain` handle (process threads hold only weak
/// references) poisons every process and joins their threads; server loops
/// written as `while let Ok(rx) = ctx.receive()` exit cleanly. Call
/// [`Domain::shutdown`] for explicit teardown.
///
/// # Examples
///
/// See [`Ipc`] for a complete echo transaction.
#[derive(Clone)]
pub struct Domain {
    core: Arc<DomainCore>,
}

impl Domain {
    /// Creates an empty domain.
    pub fn new() -> Self {
        Domain {
            core: Arc::new(DomainCore {
                processes: RwLock::new(HashMap::new()),
                registry: Registry::new(),
                groups: GroupTable::new(),
                alloc: Mutex::new(Alloc::default()),
                threads: Mutex::new(Vec::new()),
                next_txn: AtomicU64::new(0),
                ledger: Arc::new(InvariantLedger::new()),
                start: Instant::now(),
            }),
        }
    }

    /// Adds a logical host to the domain and returns its identifier.
    pub fn add_host(&self) -> LogicalHost {
        let mut alloc = self.core.alloc.lock();
        alloc.next_host += 1;
        LogicalHost::new(alloc.next_host)
    }

    fn alloc_pid(&self, host: LogicalHost) -> Pid {
        let mut alloc = self.core.alloc.lock();
        let counter = alloc.next_local.entry(host).or_insert(0);
        *counter += 1;
        let pid = Pid::new(host, *counter);
        self.core.ledger.on_pid_alloc(pid);
        pid
    }

    /// Spawns a V process on `host` running `f`. The process's kernel
    /// interface is the `&dyn Ipc` passed to the closure.
    pub fn spawn<F>(&self, host: LogicalHost, name: &str, f: F) -> Pid
    where
        F: FnOnce(&dyn Ipc) + Send + 'static,
    {
        let pid = self.alloc_pid(host);
        let mailbox = Arc::new(Mailbox::new());
        self.core
            .processes
            .write()
            .insert(pid, Arc::clone(&mailbox));
        let weak = Arc::downgrade(&self.core);
        let ledger = Arc::clone(&self.core.ledger);
        let thread_name = format!("v-{name}-{pid}");
        let handle = std::thread::Builder::new()
            .name(thread_name)
            .spawn(move || {
                mailbox.bind_owner();
                let ctx = ProcessCtx {
                    core: weak.clone(),
                    pid,
                    host,
                    mailbox,
                    cell: ReplyCell::for_current_thread(),
                    ledger,
                };
                f(&ctx);
                if let Some(core) = weak.upgrade() {
                    core.processes.write().remove(&pid);
                    core.registry.unregister_pid(pid);
                    core.groups.remove_everywhere(pid);
                    core.ledger.on_process_exit(
                        pid,
                        core.registry.registered_anywhere(pid),
                        core.groups.member_anywhere(pid),
                    );
                }
            })
            .expect("spawn V process thread");
        self.core.threads.lock().push(JoinEntry {
            thread_id: handle.thread().id(),
            handle,
        });
        pid
    }

    /// Runs `f` as a short-lived client process on `host` and returns its
    /// result. Convenient for tests and benchmarks.
    pub fn client<T, F>(&self, host: LogicalHost, f: F) -> T
    where
        T: Send + 'static,
        F: FnOnce(&dyn Ipc) -> T + Send + 'static,
    {
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.spawn(host, "client", move |ctx| {
            let _ = tx.send(f(ctx));
        });
        rx.recv().expect("client process completed")
    }

    /// Kills `pid`: new sends to it fail immediately; the process itself
    /// observes [`IpcError::Killed`] at its next `Receive`. Used to inject
    /// server-crash faults (paper §2.2's consistency discussion, §4.2's
    /// rebinding).
    pub fn kill(&self, pid: Pid) {
        let mailbox = self.core.processes.write().remove(&pid);
        self.core.registry.unregister_pid(pid);
        self.core.groups.remove_everywhere(pid);
        self.core.ledger.on_process_exit(
            pid,
            self.core.registry.registered_anywhere(pid),
            self.core.groups.member_anywhere(pid),
        );
        if let Some(mailbox) = mailbox {
            mailbox.close();
        }
    }

    /// Returns the domain's service registry (for inspection in tests).
    pub fn registry(&self) -> &Registry {
        &self.core.registry
    }

    /// Poisons every process and joins all threads. Must not be called from
    /// inside a V process of this domain.
    pub fn shutdown(&self) {
        self.core.poison_all();
        self.core.join_all();
        self.core.ledger.assert_all_resolved();
    }
}

impl Default for Domain {
    fn default() -> Self {
        Domain::new()
    }
}

/// Kernel interface handed to each process on the thread kernel.
struct ProcessCtx {
    core: Weak<DomainCore>,
    pid: Pid,
    host: LogicalHost,
    mailbox: Arc<Mailbox<Envelope>>,
    /// Where this process blocks for the answer to its own `Send`s.
    cell: Arc<ReplyCell>,
    /// Strong handle so invariant resolutions recorded while the domain is
    /// tearing down (core no longer upgradable) are not lost.
    ledger: Arc<InvariantLedger>,
}

impl ProcessCtx {
    fn core(&self) -> Result<Arc<DomainCore>, IpcError> {
        self.core.upgrade().ok_or(IpcError::Shutdown)
    }

    fn thread_path(rx: Received) -> Result<(Pid, Bytes, ThreadPath), IpcError> {
        match rx.path {
            PathInner::Thread(path) => Ok((rx.from, rx.payload, path)),
            PathInner::Sim(_) => Err(IpcError::BadOperation("sim token on thread kernel")),
        }
    }
}

impl Drop for ProcessCtx {
    /// The process is gone, however it left: refuse new envelopes and drop
    /// the ones nobody will receive, so their senders see `ProcessDied`.
    fn drop(&mut self) {
        self.mailbox.close();
        while let Ok(Some(orphan)) = self.mailbox.try_pop() {
            drop(orphan);
        }
    }
}

impl Ipc for ProcessCtx {
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
        let core = self.core()?;
        let mailbox = core.mailbox_of(to)?;
        let txn = core.next_txn.fetch_add(1, Ordering::Relaxed) + 1;
        drop(core);
        self.ledger.on_send_open(txn, TxnKind::Single);
        // A refused envelope is dropped on the spot, which abandons the
        // cell: the wait below returns at once either way.
        let delivered = mailbox
            .push(Envelope {
                from: self.pid,
                msg,
                payload,
                reply: self.cell.arm(txn, IpcError::ProcessDied),
                cap: recv_cap,
                prebuf: Vec::new(),
            })
            .is_ok();
        drop(mailbox);
        let result = self.cell.wait();
        self.ledger.on_sender_resolved(txn);
        if delivered {
            result
        } else {
            Err(IpcError::NoProcess)
        }
    }

    fn send_group(&self, group: GroupId, msg: Message, payload: Bytes) -> Result<Reply, IpcError> {
        let core = self.core()?;
        let members = core.groups.members(group).ok_or(IpcError::NoSuchGroup)?;
        let members: Vec<Pid> = members.into_iter().filter(|&m| m != self.pid).collect();
        if members.is_empty() {
            return Err(IpcError::NoReply);
        }
        let txn = core.next_txn.fetch_add(1, Ordering::Relaxed) + 1;
        self.ledger.on_send_open(txn, TxnKind::Group);
        // One handle per member reached; the first answer wins, and when
        // the last handle goes unanswered the cell reports `NoReply`.
        let first = self.cell.arm(txn, IpcError::NoReply);
        for member in members {
            if let Ok(mailbox) = core.mailbox_of(member) {
                let _ = mailbox.push(Envelope {
                    from: self.pid,
                    msg,
                    payload: payload.clone(),
                    reply: first.fan_out(),
                    cap: 0,
                    prebuf: Vec::new(),
                });
            }
        }
        drop(first);
        drop(core);
        let result = self.cell.wait();
        self.ledger.on_sender_resolved(txn);
        result
    }

    fn receive(&self) -> Result<Received, IpcError> {
        self.mailbox
            .pop()
            .map(Envelope::into_received)
            .ok_or(IpcError::Killed)
    }

    fn reply(&self, rx: Received, msg: Message, data: Bytes) -> Result<(), IpcError> {
        let (_, _, path) = Self::thread_path(rx)?;
        let total = path.buf.len() + data.len();
        let outcome = if total > path.cap {
            Err(IpcError::BufferOverflow)
        } else {
            Ok(())
        };
        let result = outcome.map(|()| {
            // With no `move_to` segment ahead of it, `data` is the reply
            // buffer as it stands: hand it through instead of copying it.
            let data = if path.buf.is_empty() {
                data
            } else {
                let mut buf = path.buf;
                buf.extend_from_slice(&data);
                Bytes::from(buf)
            };
            Reply { msg, data }
        });
        self.ledger.on_reply(path.reply.txn());
        // If a group transaction was already answered, or the sender is
        // gone, the reply is simply discarded, as in the real kernel.
        path.reply.complete(result);
        outcome
    }

    fn forward(&self, rx: Received, to: Pid, msg: Message) -> Result<(), IpcError> {
        // Every early return below drops the reply handle, which resumes
        // the blocked sender with `ProcessDied`.
        let (from, payload, path) = Self::thread_path(rx)?;
        let mailbox = self.core()?.mailbox_of(to)?;
        self.ledger.on_forward(path.reply.txn());
        mailbox
            .push(Envelope {
                from,
                msg,
                payload,
                reply: path.reply,
                cap: path.cap,
                prebuf: path.buf,
            })
            .map_err(|_| IpcError::NoProcess)
    }

    fn move_from(&self, rx: &Received) -> Result<Bytes, IpcError> {
        Ok(rx.payload.clone())
    }

    fn move_to(&self, rx: &mut Received, data: &[u8]) -> Result<(), IpcError> {
        let path = match &mut rx.path {
            PathInner::Thread(p) => p,
            PathInner::Sim(_) => return Err(IpcError::BadOperation("sim token on thread kernel")),
        };
        if path.buf.len() + data.len() > path.cap {
            return Err(IpcError::BufferOverflow);
        }
        path.buf.extend_from_slice(data);
        Ok(())
    }

    fn set_pid(&self, service: ServiceId, scope: Scope) {
        if let Ok(core) = self.core() {
            core.registry.register(service, self.pid, scope);
        }
    }

    fn get_pid(&self, service: ServiceId, scope: Scope) -> Option<Pid> {
        self.core()
            .ok()?
            .registry
            .lookup(service, scope, self.host)
            .map(|(pid, _)| pid)
    }

    fn create_group(&self) -> GroupId {
        self.core().map(|c| c.groups.create()).unwrap_or(GroupId(0))
    }

    fn join_group(&self, group: GroupId) -> Result<(), IpcError> {
        if self.core()?.groups.join(group, self.pid) {
            Ok(())
        } else {
            Err(IpcError::NoSuchGroup)
        }
    }

    fn leave_group(&self, group: GroupId) -> Result<(), IpcError> {
        if self.core()?.groups.leave(group, self.pid) {
            Ok(())
        } else {
            Err(IpcError::NoSuchGroup)
        }
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }

    fn now(&self) -> Duration {
        self.core
            .upgrade()
            .map(|c| c.start.elapsed())
            .unwrap_or_default()
    }
}
