//! The one server loop, and the I/O arms every CSNH server shares.
//!
//! Every server has the same shape (paper §5.3–5.4): receive; for a CSname
//! request, fetch and parse the name before looking at the operation; then
//! reply or forward. [`serve`] is that shape, written once: it owns the
//! crate's only `receive` and makes every `reply` and `forward`. A server
//! supplies the handlers of [`Server`], and what a handler returns — an
//! [`Answer`] or a bare failure code — says how the transaction ends.
//!
//! The module is public for the one other crate that runs servers: the §2
//! baseline, `vcentral`, uses the loop and the I/O arms, so EXP-7 compares
//! two naming models on one server loop.

use bytes::Bytes;
use vio::{serve_read, InstanceTable};
use vkernel::{Ipc, IpcError, Received};
use vnaming::{check_forward_budget, CsRequest, FailReason};
use vproto::{
    fields, name_word, ContextId, ContextPair, InstanceId, Message, ObjectDescriptor, OpenMode,
    Pid, ReplyCode, RequestCode,
};

/// How a handler ends the transaction it was given.
pub enum Answer {
    /// Reply with this message and no data.
    Reply(Message),
    /// Reply with this message and a data segment.
    Data(Message, Vec<u8>),
    /// Forward the CSname request to the server of context `to`, where
    /// interpretation continues at byte `index` of the name (paper §5.4).
    Forward {
        /// The context whose server interprets the rest of the name.
        to: ContextPair,
        /// Where in the name interpretation continues.
        index: usize,
    },
    /// Leave the sender blocked: the transaction waits under its call's
    /// token until a later handler resumes it (the pipe server's read of an
    /// empty pipe).
    Park,
}

/// A handler's result: an answer, or the failure code to reply with.
pub type Handled = Result<Answer, ReplyCode>;

/// Replies with a bare code, success or not.
pub(crate) fn reply(code: ReplyCode) -> Handled {
    Ok(Answer::Reply(Message::reply(code)))
}

/// Replies with a name-interpretation failure, carrying the byte index at
/// which interpretation stopped (paper §7's error-reporting problem).
pub(crate) fn reply_fail(fail: FailReason) -> Handled {
    let mut m = Message::reply(fail.code);
    m.set_count(fields::W_FAIL_INDEX, fail.index);
    Ok(Answer::Reply(m))
}

/// Replies `Ok` with an encoded descriptor as the data.
pub(crate) fn reply_descriptor(d: &ObjectDescriptor) -> Handled {
    Ok(Answer::Data(Message::ok(), d.encode()))
}

/// One received request as its handler sees it: everything except the
/// right to answer it, which stays with [`serve`].
pub struct Call<'a> {
    pub(crate) ctx: &'a dyn Ipc,
    /// The request message.
    pub msg: Message,
    /// The sender.
    pub from: Pid,
    rx: &'a Received,
    token: u64,
    resumed: Vec<(u64, Message, Vec<u8>)>,
}

impl Call<'_> {
    /// The sender's segment (`MoveFrom`). On the virtual-time kernel this
    /// advances the clock, so handlers fetch it where the protocol reads it.
    ///
    /// # Errors
    ///
    /// [`ReplyCode::BadArgs`] when the segment cannot be read.
    pub fn data(&self) -> Result<Bytes, ReplyCode> {
        self.ctx.move_from(self.rx).map_err(|_| ReplyCode::BadArgs)
    }

    /// The instance an I/O request names.
    pub fn instance(&self) -> InstanceId {
        InstanceId(self.msg.word(fields::W_IO_INSTANCE))
    }

    /// The key this transaction waits under if its handler answers
    /// [`Answer::Park`].
    pub(crate) fn token(&self) -> u64 {
        self.token
    }

    /// Answers the transaction parked under `token`. The reply goes out
    /// once the handler returns, before the handler's own answer.
    pub(crate) fn resume(&mut self, token: u64, msg: Message, data: Vec<u8>) {
        self.resumed.push((token, msg, data));
    }
}

/// A CSNH server: its handlers and hooks, run by [`serve`].
pub trait Server {
    /// A CSname request, its name already fetched and parsed — paper §5.3:
    /// interpretation begins with the name, not the operation code.
    fn name_op(&mut self, _call: &mut Call, _req: CsRequest) -> Handled {
        Err(ReplyCode::UnknownRequest)
    }

    /// Any other request.
    fn op(&mut self, _call: &mut Call) -> Handled {
        Err(ReplyCode::UnknownRequest)
    }

    /// Runs as each request arrives, before anything else — in particular
    /// before a `MoveFrom` advances the virtual clock.
    fn arrived(&mut self, _ctx: &dyn Ipc) {}

    /// The kernel's verdict on a forward a handler asked for. Not called
    /// when the forward budget was already spent: that request was answered
    /// `ForwardLoop` without contacting anyone, so what became of the reply
    /// says nothing about the intended target.
    fn forwarded(&mut self, _ctx: &dyn Ipc, _verdict: Result<(), IpcError>) {}
}

/// Runs `server` until the domain shuts down or the process is killed.
/// Every request gets exactly one answer, except those parked until a
/// later handler resumes them.
#[expect(
    clippy::disallowed_methods,
    reason = "the one server loop: every receive, reply and forward of a server is here"
)]
pub fn serve(ctx: &dyn Ipc, server: &mut impl Server) {
    let mut parked: Vec<(u64, Received)> = Vec::new();
    let mut token = 0u64;
    loop {
        let Ok(rx) = ctx.receive() else { return };
        server.arrived(ctx);
        token += 1;
        let mut call = Call {
            ctx,
            msg: rx.msg,
            from: rx.from,
            rx: &rx,
            token,
            resumed: Vec::new(),
        };
        let answer = if rx.msg.is_csname_request() {
            call.data()
                .and_then(|payload| CsRequest::parse(&rx.msg, &payload))
                .and_then(|req| server.name_op(&mut call, req))
        } else {
            server.op(&mut call)
        };
        let resumed = call.resumed;
        let reply = match answer {
            Ok(Answer::Reply(msg)) => Some((rx, msg, Vec::new())),
            Ok(Answer::Data(msg, data)) => Some((rx, msg, data)),
            Err(code) => Some((rx, Message::reply(code), Vec::new())),
            Ok(Answer::Park) => {
                parked.push((token, rx));
                None
            }
            Ok(Answer::Forward { to, index }) => {
                let mut msg = rx.msg;
                match check_forward_budget(&mut msg).and_then(|()| name_word(index)) {
                    Err(code) => Some((rx, Message::reply(code), Vec::new())),
                    Ok(index) => {
                        msg.set_context_id(to.context);
                        msg.set_name_index(index);
                        let verdict = ctx.forward(rx, to.server, msg);
                        server.forwarded(ctx, verdict);
                        None
                    }
                }
            }
        };
        for (waiting, msg, data) in resumed {
            if let Some(i) = parked.iter().position(|(t, _)| *t == waiting) {
                let (_, rx) = parked.swap_remove(i);
                let _ = ctx.reply(rx, msg, Bytes::from(data));
            }
        }
        if let Some((rx, msg, data)) = reply {
            let _ = ctx.reply(rx, msg, Bytes::from(data));
        }
    }
}

/// What an open instance refers to: one of the server's objects, or a
/// context directory image fabricated when it was opened (paper §5.6).
pub enum Handle<T> {
    /// One of the server's objects, as the server keys it.
    Object(T),
    /// A listing of a context, fixed when the instance was opened.
    Directory {
        /// The encoded descriptor records.
        image: Vec<u8>,
        /// The context listed.
        ctx: ContextId,
    },
}

/// The reply to a successful `CreateInstance`: the instance, the object's
/// size and the pid of the server that will serve it.
pub fn open_reply(call: &Call, inst: InstanceId, size: u64) -> Handled {
    let mut m = Message::ok();
    m.set_word(fields::W_INSTANCE, inst.0)
        .set_word32(fields::W_SIZE_LO, size as u32)
        .set_pid_at(fields::W_PID_LO, call.ctx.my_pid());
    Ok(Answer::Reply(m))
}

/// Opens a directory instance over `image`, a listing of context `ctx`.
pub(crate) fn open_directory<T>(
    call: &Call,
    instances: &mut InstanceTable<Handle<T>>,
    image: Vec<u8>,
    ctx: ContextId,
) -> Handled {
    let size = image.len() as u64;
    let inst = instances.open(
        call.from,
        OpenMode::Directory,
        Handle::Directory { image, ctx },
    );
    open_reply(call, inst, size)
}

/// `ReadInstance`: the requested window of the instance's bytes — an
/// object's, as `object` finds them, or a directory's image.
pub fn read<'a, T>(
    call: &Call,
    instances: &'a InstanceTable<Handle<T>>,
    object: impl FnOnce(&'a T) -> Option<&'a [u8]>,
) -> Handled {
    let bytes = match &instances.check(call.instance(), false)?.state {
        Handle::Object(key) => object(key).ok_or(ReplyCode::InvalidInstance)?,
        Handle::Directory { image, .. } => image,
    };
    let offset = u64::from(call.msg.word32(fields::W_IO_OFFSET_LO));
    let count = usize::from(call.msg.word(fields::W_IO_COUNT));
    let window = serve_read(bytes, offset, count)?.to_vec();
    let mut m = Message::ok();
    m.set_count(fields::W_IO_COUNT, window.len());
    Ok(Answer::Data(m, window))
}

/// The reply to an accepted `WriteInstance` of `n` bytes. A refused write
/// is a bare failure code: its count word stays 0.
pub fn written(n: usize) -> Handled {
    let mut m = Message::ok();
    m.set_count(fields::W_IO_COUNT, n);
    Ok(Answer::Reply(m))
}

/// `ReleaseInstance`.
pub fn release<T>(call: &Call, instances: &mut InstanceTable<T>) -> Handled {
    match instances.release(call.instance()) {
        Some(_) => reply(ReplyCode::Ok),
        None => Err(ReplyCode::InvalidInstance),
    }
}

/// A server whose objects are byte arrays named by their CSname — the
/// terminal, mail, printer and internet servers. It supplies the CSname
/// operations and the two object accessors; [`serve_flat`] supplies the
/// instance table and the I/O protocol.
pub(crate) trait FlatObjects {
    /// A CSname request, as [`Server::name_op`]; opened objects go in
    /// `instances` as [`Handle::Object`] of their name.
    fn name_op(
        &mut self,
        call: &mut Call,
        req: CsRequest,
        instances: &mut InstanceTable<Handle<Vec<u8>>>,
    ) -> Handled;

    /// The bytes of object `name`, if it still exists.
    fn object(&self, name: &[u8]) -> Option<&[u8]>;

    /// Appends one accepted write to object `name`.
    fn append(&mut self, name: &[u8], data: &[u8]) -> Result<(), ReplyCode>;
}

struct Flat<S> {
    objects: S,
    instances: InstanceTable<Handle<Vec<u8>>>,
}

impl<S: FlatObjects> Server for Flat<S> {
    fn name_op(&mut self, call: &mut Call, req: CsRequest) -> Handled {
        self.objects.name_op(call, req, &mut self.instances)
    }

    fn op(&mut self, call: &mut Call) -> Handled {
        match call.msg.request_code() {
            Some(RequestCode::ReadInstance) => {
                read(call, &self.instances, |name| self.objects.object(name))
            }
            Some(RequestCode::WriteInstance) => {
                let data = call.data()?;
                match &self.instances.check(call.instance(), true)?.state {
                    Handle::Object(name) => self.objects.append(name, &data)?,
                    Handle::Directory { .. } => return Err(ReplyCode::BadMode),
                }
                written(data.len())
            }
            Some(RequestCode::ReleaseInstance) => release(call, &mut self.instances),
            _ => Err(ReplyCode::UnknownRequest),
        }
    }
}

/// Runs a flat-object server (see [`FlatObjects`]).
pub(crate) fn serve_flat(ctx: &dyn Ipc, objects: impl FlatObjects) {
    serve(
        ctx,
        &mut Flat {
            objects,
            instances: InstanceTable::new(),
        },
    );
}

/// A simple logical clock for `modified` stamps: servers count operations.
/// (The simulated domain epoch; real time is irrelevant to the protocol.)
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct OpClock(u64);

impl OpClock {
    pub(crate) fn tick(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }
}
