//! The **centralized name server** baseline (paper §2.1) and the machinery
//! needed to compare it with V's distributed name interpretation (§2.2).
//!
//! In the centralized model, a distinguished name server maps every name in
//! the system to a low-level identifier, and object servers are reached by
//! that identifier — "an additional level of naming is required between the
//! name server and other system servers". This crate implements that model
//! faithfully so EXP-7 can measure the paper's §2.2 claims:
//!
//! * **Efficiency** — every name reference pays an extra transaction with
//!   the name server.
//! * **Consistency** — deleting an object is a two-server operation; a
//!   crash between the steps leaves a *dangling name* the name server
//!   still hands out.
//! * **Reliability** — if the name server is down, perfectly healthy
//!   objects become unreachable because they cannot be named.
//!
//! The pieces: [`central_name_server`] (the global name → (server, id)
//! registry), [`object_store`] (an object server reachable only by
//! low-level id), and [`CentralClient`] (the client-side protocol, with
//! fault-injection hooks for the consistency experiment).
//!
//! Both servers run on `vservers::common::serve`, the one server loop of
//! the distributed model (DESIGN.md §3.2), so EXP-7 compares two ways of
//! naming, not two ways of writing a server: the name server is a CSname
//! handler over its flat map, and the object store uses the shared I/O
//! arms with the same 16 MiB object cap as the file server.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A server answers a bad request with a reply code; it does not die.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
// One server loop: `vservers::common::serve` makes every receive, reply
// and forward (the calls `clippy.toml` lists in `disallowed-methods`).
#![deny(clippy::disallowed_methods)]

use bytes::Bytes;
use std::collections::HashMap;
use vio::{serve_write, InstanceTable, IoError};
use vkernel::Ipc;
use vnaming::{build_csname_request, CsRequest};
use vproto::{
    fields, name_word, ContextId, CsName, InstanceId, Message, ObjectId, OpenMode, Pid, ReplyCode,
    RequestCode, Scope, ServiceId,
};
use vservers::common::{
    open_reply, read, release, serve, written, Answer, Call, Handle, Handled, Server,
};

/// Runs the centralized name server: a flat map from full CSnames to
/// (object-server pid, low-level object id) pairs.
///
/// Protocol:
/// * `AddContextName name` + (W_TARGET_PID, W_TARGET_CTX=object id) —
///   register.
/// * `DeleteContextName name` — unregister.
/// * `QueryName name` — look up; reply carries the pair.
pub fn central_name_server(ctx: &dyn Ipc) {
    ctx.set_pid(ServiceId::CENTRAL_NAME_SERVER, Scope::Both);
    serve(
        ctx,
        &mut NameServer {
            names: HashMap::new(),
        },
    );
}

struct NameServer {
    names: HashMap<Vec<u8>, (Pid, ObjectId)>,
}

impl Server for NameServer {
    fn name_op(&mut self, call: &mut Call, req: CsRequest) -> Handled {
        let name = req.remaining();
        match call.msg.request_code() {
            Some(RequestCode::AddContextName) => {
                let server = call.msg.pid_at(fields::W_TARGET_PID_LO);
                let oid = ObjectId(call.msg.word32(fields::W_TARGET_CTX_LO));
                self.names.insert(name.to_vec(), (server, oid));
                Ok(Answer::Reply(Message::ok()))
            }
            Some(RequestCode::DeleteContextName) => {
                self.names.remove(name).ok_or(ReplyCode::NotFound)?;
                Ok(Answer::Reply(Message::ok()))
            }
            Some(RequestCode::QueryName) => {
                let (server, oid) = self.names.get(name).ok_or(ReplyCode::NotFound)?;
                // Same reply schema as the distributed QueryName: the
                // implementing server in the pid field, the low-level id in
                // the object-id field.
                let mut m = Message::ok();
                m.set_pid_at(fields::W_PID_LO, *server)
                    .set_word32(fields::W_OBJECT_ID_LO, oid.0);
                Ok(Answer::Reply(m))
            }
            _ => Err(ReplyCode::UnknownRequest),
        }
    }
}

/// Runs an object store: objects are reachable **only** by low-level id —
/// names live elsewhere, in the central name server.
///
/// Protocol: `OpenById`, `RemoveById`, then the ordinary I/O operations on
/// the returned instance. `CreateInstance` with an empty name creates an
/// anonymous object (the creator must register its name centrally).
pub fn object_store(ctx: &dyn Ipc) {
    serve(
        ctx,
        &mut ObjectStore {
            objects: HashMap::new(),
            next: 0,
            instances: InstanceTable::new(),
        },
    );
}

struct ObjectStore {
    objects: HashMap<ObjectId, Vec<u8>>,
    next: u32,
    instances: InstanceTable<Handle<ObjectId>>,
}

impl Server for ObjectStore {
    /// `CreateInstance` is a CSname operation, so the anonymous create
    /// arrives here, its (empty) name already fetched.
    fn name_op(&mut self, call: &mut Call, _req: CsRequest) -> Handled {
        if call.msg.request_code() != Some(RequestCode::CreateInstance) {
            return Err(ReplyCode::UnknownRequest);
        }
        self.next += 1;
        let oid = ObjectId(self.next);
        self.objects.insert(oid, Vec::new());
        let inst = self
            .instances
            .open(call.from, OpenMode::Create, Handle::Object(oid));
        let mut answer = open_reply(call, inst, 0)?;
        if let Answer::Reply(m) = &mut answer {
            m.set_word32(fields::W_OBJECT_ID_LO, oid.0);
        }
        Ok(answer)
    }

    fn op(&mut self, call: &mut Call) -> Handled {
        match call.msg.request_code() {
            Some(RequestCode::OpenById) => {
                let oid = ObjectId(call.msg.word32(fields::W_INVERT_ID_LO));
                // A missing id is the dangling-name outcome: the central
                // server said this id exists, but the object is gone.
                let size = self.objects.get(&oid).ok_or(ReplyCode::NotFound)?.len();
                let inst = self
                    .instances
                    .open(call.from, OpenMode::Write, Handle::Object(oid));
                open_reply(call, inst, size as u64)
            }
            Some(RequestCode::RemoveById) => {
                let oid = ObjectId(call.msg.word32(fields::W_INVERT_ID_LO));
                self.objects.remove(&oid).ok_or(ReplyCode::NotFound)?;
                Ok(Answer::Reply(Message::ok()))
            }
            Some(RequestCode::ReadInstance) => read(call, &self.instances, |oid| {
                self.objects.get(oid).map(Vec::as_slice)
            }),
            Some(RequestCode::WriteInstance) => {
                let data = call.data()?;
                let Handle::Object(oid) = &self.instances.check(call.instance(), true)?.state
                else {
                    return Err(ReplyCode::BadMode);
                };
                let content = self
                    .objects
                    .get_mut(oid)
                    .ok_or(ReplyCode::InvalidInstance)?;
                let offset = u64::from(call.msg.word32(fields::W_IO_OFFSET_LO));
                serve_write(content, offset, &data)?;
                written(data.len())
            }
            Some(RequestCode::ReleaseInstance) => release(call, &mut self.instances),
            _ => Err(ReplyCode::UnknownRequest),
        }
    }
}

/// Which step of the two-server delete to crash after (fault injection for
/// the paper's §2.2 consistency argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeleteCrash {
    /// Complete both steps (no fault).
    None,
    /// Crash after deleting the object but before unregistering the name:
    /// leaves a **dangling name** in the central server.
    AfterObjectDelete,
    /// Crash after unregistering but before deleting: leaks the object
    /// (unreachable garbage).
    AfterUnregister,
}

/// A request to the central name server about `name`. A name longer than
/// a name-length word can say is refused with `IllegalName` before
/// anything is sent.
fn name_request(op: RequestCode, name: &str) -> Result<(Message, Bytes), IoError> {
    name_word(name.len())?;
    let name = CsName::from(name);
    Ok(build_csname_request(op, ContextId::DEFAULT, &name, &[]))
}

/// Client-side protocol for the centralized model.
pub struct CentralClient<'a> {
    ipc: &'a dyn Ipc,
    name_server: Pid,
}

impl<'a> CentralClient<'a> {
    /// Creates a client; the central name server is found via `GetPid` —
    /// which is itself the paper's §4.2 point that even a "well-known" name
    /// server needs the service-naming mechanism to be found.
    pub fn new(ipc: &'a dyn Ipc) -> Result<Self, IoError> {
        let name_server = ipc
            .get_pid(ServiceId::CENTRAL_NAME_SERVER, Scope::Both)
            .ok_or(IoError::Server(ReplyCode::NoServer))?;
        Ok(CentralClient { ipc, name_server })
    }

    /// Registers `name` → (`server`, `oid`) in the central name server.
    ///
    /// # Errors
    ///
    /// Propagates transport failures and server refusals.
    pub fn register(&self, name: &str, server: Pid, oid: ObjectId) -> Result<(), IoError> {
        let (mut msg, payload) = name_request(RequestCode::AddContextName, name)?;
        msg.set_pid_at(fields::W_TARGET_PID_LO, server);
        msg.set_word32(fields::W_TARGET_CTX_LO, oid.0);
        let reply = self.ipc.send(self.name_server, msg, payload, 0)?;
        if reply.msg.reply_code().is_ok() {
            Ok(())
        } else {
            Err(IoError::Server(reply.msg.reply_code()))
        }
    }

    /// Looks `name` up in the central name server.
    ///
    /// # Errors
    ///
    /// [`ReplyCode::NotFound`] when unregistered; transport failures when
    /// the name server is down (the paper's reliability point).
    pub fn lookup(&self, name: &str) -> Result<(Pid, ObjectId), IoError> {
        let (msg, payload) = name_request(RequestCode::QueryName, name)?;
        let reply = self.ipc.send(self.name_server, msg, payload, 0)?;
        if !reply.msg.reply_code().is_ok() {
            return Err(IoError::Server(reply.msg.reply_code()));
        }
        Ok((
            reply.msg.pid_at(fields::W_PID_LO),
            ObjectId(reply.msg.word32(fields::W_OBJECT_ID_LO)),
        ))
    }

    /// Creates an object on `store`, writes `data`, and registers `name`.
    ///
    /// # Errors
    ///
    /// Propagates failures from either server.
    pub fn create(&self, store: Pid, name: &str, data: &[u8]) -> Result<ObjectId, IoError> {
        name_word(name.len())?;
        let mut msg = Message::request(RequestCode::CreateInstance);
        msg.set_mode(OpenMode::Create);
        let reply = self.ipc.send(store, msg, Bytes::new(), 0)?;
        if !reply.msg.reply_code().is_ok() {
            return Err(IoError::Server(reply.msg.reply_code()));
        }
        let oid = ObjectId(reply.msg.word32(fields::W_OBJECT_ID_LO));
        let inst = InstanceId(reply.msg.word(fields::W_INSTANCE));
        vio::write_at(self.ipc, store, inst, 0, data)?;
        vio::release(self.ipc, store, inst)?;
        self.register(name, store, oid)?;
        Ok(oid)
    }

    /// Opens `name` via the two-step centralized procedure: central lookup,
    /// then open-by-id at the object server.
    ///
    /// # Errors
    ///
    /// A dangling registration surfaces as [`ReplyCode::NotFound`] *from
    /// the object server* — the inconsistency the paper warns about.
    pub fn open(&self, name: &str) -> Result<(Pid, InstanceId, u64), IoError> {
        let (server, oid) = self.lookup(name)?;
        let mut msg = Message::request(RequestCode::OpenById);
        msg.set_word32(fields::W_INVERT_ID_LO, oid.0);
        let reply = self.ipc.send(server, msg, Bytes::new(), 0)?;
        if !reply.msg.reply_code().is_ok() {
            return Err(IoError::Server(reply.msg.reply_code()));
        }
        Ok((
            server,
            InstanceId(reply.msg.word(fields::W_INSTANCE)),
            reply.msg.word32(fields::W_SIZE_LO) as u64,
        ))
    }

    /// Reads the whole object behind `name`.
    ///
    /// # Errors
    ///
    /// Propagates lookup/open/read failures.
    pub fn read(&self, name: &str) -> Result<Vec<u8>, IoError> {
        let (server, inst, size) = self.open(name)?;
        let data = vio::read_at(self.ipc, server, inst, 0, size as usize)?;
        vio::release(self.ipc, server, inst)?;
        Ok(data.to_vec())
    }

    /// Deletes `name`: a **two-server** operation (object server + name
    /// server), with an optional injected crash between the steps.
    ///
    /// # Errors
    ///
    /// Propagates failures from whichever steps actually ran.
    pub fn delete(&self, name: &str, crash: DeleteCrash) -> Result<(), IoError> {
        match crash {
            DeleteCrash::None => {
                self.delete_object_step(name)?;
                self.unregister_step(name)
            }
            DeleteCrash::AfterObjectDelete => self.delete_object_step(name),
            DeleteCrash::AfterUnregister => self.unregister_step(name),
        }
    }

    fn delete_object_step(&self, name: &str) -> Result<(), IoError> {
        let (server, oid) = self.lookup(name)?;
        let mut msg = Message::request(RequestCode::RemoveById);
        msg.set_word32(fields::W_INVERT_ID_LO, oid.0);
        let reply = self.ipc.send(server, msg, Bytes::new(), 0)?;
        if reply.msg.reply_code().is_ok() {
            Ok(())
        } else {
            Err(IoError::Server(reply.msg.reply_code()))
        }
    }

    fn unregister_step(&self, name: &str) -> Result<(), IoError> {
        let (msg, payload) = name_request(RequestCode::DeleteContextName, name)?;
        let reply = self.ipc.send(self.name_server, msg, payload, 0)?;
        if reply.msg.reply_code().is_ok() {
            Ok(())
        } else {
            Err(IoError::Server(reply.msg.reply_code()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vkernel::Domain;

    fn boot() -> (Domain, vproto::LogicalHost, Pid) {
        let domain = Domain::new();
        let host = domain.add_host();
        domain.spawn(host, "central-names", |ctx| central_name_server(ctx));
        let store = domain.spawn(host, "object-store", |ctx| object_store(ctx));
        while domain
            .registry()
            .lookup(ServiceId::CENTRAL_NAME_SERVER, Scope::Both, host)
            .is_none()
        {
            std::thread::yield_now();
        }
        (domain, host, store)
    }

    #[test]
    fn create_lookup_read_roundtrip() {
        let (domain, host, store) = boot();
        domain.client(host, move |ctx| {
            let client = CentralClient::new(ctx).unwrap();
            client
                .create(store, "docs/paper.txt", b"centralized")
                .unwrap();
            assert_eq!(client.read("docs/paper.txt").unwrap(), b"centralized");
        });
    }

    #[test]
    fn clean_delete_removes_both_sides() {
        let (domain, host, store) = boot();
        domain.client(host, move |ctx| {
            let client = CentralClient::new(ctx).unwrap();
            client.create(store, "tmp/x", b"data").unwrap();
            client.delete("tmp/x", DeleteCrash::None).unwrap();
            let err = client.read("tmp/x").unwrap_err();
            assert_eq!(err.reply_code(), Some(ReplyCode::NotFound));
        });
    }

    #[test]
    fn crash_between_steps_leaves_dangling_name() {
        // The paper's §2.2 consistency scenario.
        let (domain, host, store) = boot();
        domain.client(host, move |ctx| {
            let client = CentralClient::new(ctx).unwrap();
            client.create(store, "tmp/doomed", b"data").unwrap();
            client
                .delete("tmp/doomed", DeleteCrash::AfterObjectDelete)
                .unwrap();
            // The name server still answers the lookup...
            assert!(client.lookup("tmp/doomed").is_ok(), "name dangles");
            // ...but opening the object fails at the object server.
            let err = client.open("tmp/doomed").unwrap_err();
            assert_eq!(err.reply_code(), Some(ReplyCode::NotFound));
        });
    }

    #[test]
    fn crash_after_unregister_leaks_object() {
        let (domain, host, store) = boot();
        domain.client(host, move |ctx| {
            let client = CentralClient::new(ctx).unwrap();
            let oid = client.create(store, "tmp/leaky", b"data").unwrap();
            client
                .delete("tmp/leaky", DeleteCrash::AfterUnregister)
                .unwrap();
            // The name is gone...
            assert!(client.lookup("tmp/leaky").is_err());
            // ...but the object still exists, reachable only by raw id.
            let mut msg = Message::request(RequestCode::OpenById);
            msg.set_word32(fields::W_INVERT_ID_LO, oid.0);
            let reply = ctx.send(store, msg, Bytes::new(), 0).unwrap();
            assert!(reply.msg.reply_code().is_ok(), "object leaked");
        });
    }

    #[test]
    fn an_object_store_write_past_16_mib_is_refused_and_changes_nothing() {
        let (domain, host, store) = boot();
        domain.client(host, move |ctx| {
            let client = CentralClient::new(ctx).unwrap();
            client.create(store, "obj", b"head").unwrap();
            let (server, inst, _) = client.open("obj").unwrap();
            let past = vio::MAX_FILE_BYTES as u64 + 1;
            let err = vio::write_at(ctx, server, inst, past, b"x").unwrap_err();
            assert_eq!(err.reply_code(), Some(ReplyCode::NoServerResources));
            assert_eq!(client.read("obj").unwrap(), b"head");
        });
    }

    #[test]
    fn a_refused_object_store_write_reports_no_byte_count() {
        let (domain, host, store) = boot();
        domain.client(host, move |ctx| {
            let client = CentralClient::new(ctx).unwrap();
            client.create(store, "obj", b"head").unwrap();
            let (server, inst, _) = client.open("obj").unwrap();
            vio::release(ctx, server, inst).unwrap();
            let mut msg = Message::request(RequestCode::WriteInstance);
            msg.set_word(fields::W_IO_INSTANCE, inst.0)
                .set_word(fields::W_IO_COUNT, 6);
            let reply = ctx
                .send(server, msg, Bytes::from_static(b"denied"), 0)
                .unwrap();
            assert_eq!(reply.msg.reply_code(), ReplyCode::InvalidInstance);
            assert_eq!(reply.msg.word(fields::W_IO_COUNT), 0);
        });
    }

    #[test]
    fn an_overlong_name_is_refused_before_it_is_sent() {
        let (domain, host, store) = boot();
        domain.client(host, move |ctx| {
            let client = CentralClient::new(ctx).unwrap();
            let long = "a".repeat(usize::from(u16::MAX) + 1);
            for err in [
                client.lookup(&long).unwrap_err(),
                client.create(store, &long, b"x").unwrap_err(),
                client
                    .delete(&long, DeleteCrash::AfterUnregister)
                    .unwrap_err(),
            ] {
                assert_eq!(err.reply_code(), Some(ReplyCode::IllegalName));
            }
        });
    }

    #[test]
    fn name_server_death_makes_objects_unreachable() {
        // The paper's §2.2 reliability point: the object's server is fine,
        // but nothing can be *named*.
        let domain = Domain::new();
        let host = domain.add_host();
        let ns = domain.spawn(host, "central-names", |ctx| central_name_server(ctx));
        let store = domain.spawn(host, "object-store", |ctx| object_store(ctx));
        while domain
            .registry()
            .lookup(ServiceId::CENTRAL_NAME_SERVER, Scope::Both, host)
            .is_none()
        {
            std::thread::yield_now();
        }
        domain.client(host, move |ctx| {
            let client = CentralClient::new(ctx).unwrap();
            client.create(store, "survivor", b"still here").unwrap();
            client.read("survivor").unwrap();
        });
        domain.kill(ns);
        domain.client(host, move |ctx| {
            // New clients cannot even find the name server.
            assert!(CentralClient::new(ctx).is_err());
        });
    }
}
