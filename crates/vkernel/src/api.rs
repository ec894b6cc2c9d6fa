//! The kernel IPC interface shared by every process, on either kernel
//! (paper §3.1, Figure 1).
//!
//! V interprocess communication is a synchronous rendezvous: a sender
//! `Send`s a 32-byte message and blocks until the receiver `Reply`s. The
//! receiver may `Forward` the message to a third process, in which case it
//! appears as though the sender originally sent to that process. While the
//! sender is blocked, the recipient can read the sender's memory with
//! `MoveFrom` and write it with `MoveTo` — modeled here as the request
//! payload and a bounded reply buffer.

use crate::error::IpcError;
use bytes::Bytes;
use std::fmt;
use std::time::Duration;
use vnet::NetModel;
use vproto::{LogicalHost, Message, Pid, Scope, ServiceId};

/// Identifier of a process group (multicast destination, paper §2.3/§7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u32);

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "group{}", self.0)
    }
}

/// The outcome of a completed message transaction: the 32-byte reply message
/// plus any data the replier moved into the sender's receive buffer.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The reply message (reply code in word 0).
    pub msg: Message,
    /// Data written via `MoveTo`/reply data, in order.
    pub data: Bytes,
}

/// A received request: the message, the sender, and the (private) reply
/// path.
///
/// `Received` is a *linear* token: every transaction must end in exactly one
/// [`Ipc::reply`] or [`Ipc::forward`]. Dropping it unreplied unblocks the
/// sender with [`IpcError::ProcessDied`] — mirroring what the real kernel
/// does when a receiver vanishes mid-transaction.
pub struct Received {
    /// The blocked sender's pid.
    pub from: Pid,
    /// The request message. Servers may inspect it freely; to rewrite it
    /// (e.g. updating the name-index field before forwarding, paper §5.4)
    /// pass a modified copy to [`Ipc::forward`] or [`Ipc::reply`].
    pub msg: Message,
    pub(crate) payload: Bytes,
    pub(crate) path: PathInner,
}

impl Received {
    /// Length in bytes of the request payload (the sender's segment).
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }
}

impl fmt::Debug for Received {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Received")
            .field("from", &self.from)
            .field("msg", &self.msg)
            .field("payload_len", &self.payload.len())
            .finish()
    }
}

pub(crate) enum PathInner {
    Thread(crate::thread::ThreadPath),
    Sim(crate::sim::SimPath),
}

/// The kernel interface available to every V process.
///
/// Implemented by the real-thread kernel ([`crate::Domain`]) and the
/// virtual-time kernel ([`crate::SimDomain`]); servers and client stubs are
/// written once against `&dyn Ipc` and run unchanged on both.
///
/// # Examples
///
/// An echo server and a client (the paper's Figure 1 transaction):
///
/// ```
/// use vkernel::{Domain, Ipc};
/// use vproto::{LogicalHost, Message, RequestCode, ReplyCode};
/// use bytes::Bytes;
///
/// let domain = Domain::new();
/// let host = domain.add_host();
/// let server = domain.spawn(host, "echo", |ctx| {
///     while let Ok(rx) = ctx.receive() {
///         let msg = rx.msg;
///         ctx.reply(rx, msg, Bytes::new()).ok();
///     }
/// });
/// let reply = domain.client(host, move |ctx| {
///     ctx.send(server, Message::request(RequestCode::Echo), Bytes::new(), 0)
/// })?;
/// assert_eq!(reply.msg.request_code(), Some(RequestCode::Echo));
/// # Ok::<(), vkernel::IpcError>(())
/// ```
pub trait Ipc {
    /// Returns the pid of the calling process.
    fn my_pid(&self) -> Pid;

    /// Returns the logical host the calling process runs on.
    fn host(&self) -> LogicalHost;

    /// Sends `msg` (plus `payload`, the sender's readable segment) to `to`
    /// and blocks until a reply arrives. `recv_cap` bounds how many bytes
    /// the replier may move back.
    ///
    /// # Errors
    ///
    /// * [`IpcError::NoProcess`] — `to` names no live process.
    /// * [`IpcError::ProcessDied`] — the receiver died mid-transaction.
    /// * [`IpcError::BufferOverflow`] — the replier exceeded `recv_cap`.
    /// * [`IpcError::Shutdown`] — the domain is shutting down.
    fn send(
        &self,
        to: Pid,
        msg: Message,
        payload: Bytes,
        recv_cap: usize,
    ) -> Result<Reply, IpcError>;

    /// Multicasts `msg` to every member of `group` and blocks until the
    /// *first* reply; later replies are discarded (paper §7's group send).
    /// The sender itself never receives the multicast. Reply data is not
    /// supported on group sends.
    ///
    /// # Errors
    ///
    /// * [`IpcError::NoSuchGroup`] — the group does not exist.
    /// * [`IpcError::NoReply`] — no member replied (all dead or dropped).
    fn send_group(&self, group: GroupId, msg: Message, payload: Bytes) -> Result<Reply, IpcError>;

    /// Blocks until a request arrives.
    ///
    /// # Errors
    ///
    /// * [`IpcError::Killed`] — the process was killed.
    /// * [`IpcError::Shutdown`] — the domain is shutting down.
    fn receive(&self) -> Result<Received, IpcError>;

    /// Completes a transaction: moves `data` into the sender's receive
    /// buffer (after any earlier [`Ipc::move_to`] bytes) and unblocks the
    /// sender with `msg`.
    ///
    /// # Errors
    ///
    /// Returns [`IpcError::BufferOverflow`] (and delivers the same error to
    /// the sender) if the accumulated data exceeds the sender's capacity.
    fn reply(&self, rx: Received, msg: Message, data: Bytes) -> Result<(), IpcError>;

    /// Forwards the transaction to `to` carrying (a possibly rewritten)
    /// `msg`; the original sender stays blocked and `to` will reply directly
    /// to it, exactly as if the sender had sent there originally (§3.1).
    ///
    /// # Errors
    ///
    /// Returns [`IpcError::NoProcess`] if `to` names no live process; the
    /// blocked sender then receives [`IpcError::ProcessDied`].
    fn forward(&self, rx: Received, to: Pid, msg: Message) -> Result<(), IpcError>;

    /// Reads the sender's segment (`MoveFrom`, §3.1). On the virtual-time
    /// kernel this charges the calibrated transfer cost — cheap locally,
    /// a real network fetch when the sender is remote.
    fn move_from(&self, rx: &Received) -> Result<Bytes, IpcError>;

    /// Appends `data` to the sender's receive buffer (`MoveTo`, §3.1) ahead
    /// of the eventual reply.
    ///
    /// # Errors
    ///
    /// Returns [`IpcError::BufferOverflow`] if the buffer would exceed the
    /// sender's declared capacity (the transaction stays open).
    fn move_to(&self, rx: &mut Received, data: &[u8]) -> Result<(), IpcError>;

    /// Registers the calling process as providing `service` within `scope`
    /// (`SetPid`, paper §4.2).
    fn set_pid(&self, service: ServiceId, scope: Scope);

    /// Looks up the pid registered for `service` within `scope` (`GetPid`,
    /// paper §4.2): the local kernel table first, then — if the scope allows
    /// — a broadcast to other kernels.
    fn get_pid(&self, service: ServiceId, scope: Scope) -> Option<Pid>;

    /// Creates a new, empty process group.
    fn create_group(&self) -> GroupId;

    /// Adds the calling process to `group`.
    ///
    /// # Errors
    ///
    /// Returns [`IpcError::NoSuchGroup`] if the group does not exist.
    fn join_group(&self, group: GroupId) -> Result<(), IpcError>;

    /// Removes the calling process from `group`.
    ///
    /// # Errors
    ///
    /// Returns [`IpcError::NoSuchGroup`] if the group does not exist.
    fn leave_group(&self, group: GroupId) -> Result<(), IpcError>;

    /// Accounts `work` of processing time to the calling process. The
    /// simulation kernel advances the local virtual clock; by default (the
    /// real-thread kernel) the work is not modelled and this does nothing.
    fn charge(&self, work: Duration) {
        let _ = work;
    }

    /// Sleeps for `d`: wall-clock on the thread kernel, virtual time (with a
    /// scheduling yield) on the simulation kernel.
    fn sleep(&self, d: Duration);

    /// Time elapsed since the domain started (wall or virtual).
    fn now(&self) -> Duration;

    /// The network cost model: `Some` under the simulation kernel, `None`
    /// by default (the real-thread kernel, which has none). Servers use it
    /// to charge protocol-specific processing costs.
    fn net(&self) -> Option<NetModel> {
        None
    }
}
