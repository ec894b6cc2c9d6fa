//! The internet server (paper §6: "an Internet server that runs a V
//! kernel-based implementation of IP/TCP").
//!
//! The physical network stack is out of scope; what matters for the naming
//! paper is that **TCP connections are named objects in a context**, listed
//! by the same directory machinery as files and terminals. Connections here
//! are simulated loopbacks: written bytes become readable, state follows a
//! tiny open/established/closed automaton.

use crate::common::{
    open_directory, open_reply, reply, reply_descriptor, serve_flat, Call, FlatObjects, Handle,
    Handled,
};
use std::collections::BTreeMap;
use vio::InstanceTable;
use vkernel::Ipc;
use vnaming::{CsRequest, DirectoryBuilder};
use vproto::{
    ContextId, CsName, DescriptorExt, DescriptorTag, ObjectDescriptor, ObjectId, OpenMode,
    ReplyCode, RequestCode, Scope, ServiceId,
};

/// Connection states reported in descriptors.
const STATE_ESTABLISHED: u16 = 1;
const STATE_CLOSED: u16 = 2;

/// Configuration for an [`internet_server`] process.
#[derive(Debug, Clone)]
pub struct InternetConfig {
    /// Registration scope.
    pub scope: Scope,
}

impl Default for InternetConfig {
    fn default() -> Self {
        InternetConfig { scope: Scope::Both }
    }
}

struct Conn {
    id: ObjectId,
    remote_host: u32,
    remote_port: u16,
    state: u16,
    buffer: Vec<u8>,
}

/// Parses a connection name of the form `a.b.c.d:port`.
fn parse_conn_name(name: &[u8]) -> Option<(u32, u16)> {
    let s = std::str::from_utf8(name).ok()?;
    let (host, port) = s.split_once(':')?;
    let port: u16 = port.parse().ok()?;
    let mut addr: u32 = 0;
    let mut octets = 0;
    for part in host.split('.') {
        let o: u8 = part.parse().ok()?;
        addr = (addr << 8) | o as u32;
        octets += 1;
    }
    if octets != 4 {
        return None;
    }
    Some((addr, port))
}

#[derive(Default)]
struct Conns {
    conns: BTreeMap<Vec<u8>, Conn>,
    next_obj: u32,
}

/// Runs an internet (TCP) server until the domain shuts down.
pub fn internet_server(ctx: &dyn Ipc, config: InternetConfig) {
    ctx.set_pid(ServiceId::INTERNET_SERVER, config.scope);
    serve_flat(ctx, Conns::default());
}

impl FlatObjects for Conns {
    fn name_op(
        &mut self,
        call: &mut Call,
        req: CsRequest,
        instances: &mut InstanceTable<Handle<Vec<u8>>>,
    ) -> Handled {
        let name = req.remaining();
        match call.msg.request_code() {
            Some(RequestCode::CreateInstance) if name.is_empty() => {
                let mut b = DirectoryBuilder::new();
                for (n, c) in &self.conns {
                    b.push(&conn_descriptor(n, c));
                }
                open_directory(call, instances, b.finish(), ContextId::DEFAULT)
            }
            Some(RequestCode::CreateInstance) => {
                let mode = call.msg.mode().unwrap_or(OpenMode::Read);
                if !self.conns.contains_key(name) {
                    if mode != OpenMode::Create {
                        return Err(ReplyCode::NotFound);
                    }
                    let (remote_host, remote_port) =
                        parse_conn_name(name).ok_or(ReplyCode::IllegalName)?;
                    self.next_obj += 1;
                    let conn = Conn {
                        id: ObjectId(self.next_obj),
                        remote_host,
                        remote_port,
                        state: STATE_ESTABLISHED,
                        buffer: Vec::new(),
                    };
                    self.conns.insert(name.to_vec(), conn);
                }
                let size = self.conns[name].buffer.len() as u64;
                let inst = instances.open(call.from, mode, Handle::Object(name.to_vec()));
                open_reply(call, inst, size)
            }
            Some(RequestCode::QueryObject) => match self.conns.get(name) {
                Some(c) => reply_descriptor(&conn_descriptor(name, c)),
                None => Err(ReplyCode::NotFound),
            },
            Some(RequestCode::RemoveObject) => {
                // Closing a connection: it lingers as CLOSED until the
                // next remove, then disappears (a nod to TIME_WAIT).
                match self.conns.get_mut(name) {
                    Some(c) if c.state == STATE_ESTABLISHED => c.state = STATE_CLOSED,
                    Some(_) => {
                        self.conns.remove(name);
                    }
                    None => return Err(ReplyCode::NotFound),
                }
                reply(ReplyCode::Ok)
            }
            _ => Err(ReplyCode::UnknownRequest),
        }
    }

    fn object(&self, name: &[u8]) -> Option<&[u8]> {
        self.conns.get(name).map(|c| &c.buffer[..])
    }

    fn append(&mut self, name: &[u8], data: &[u8]) -> Result<(), ReplyCode> {
        match self.conns.get_mut(name) {
            Some(c) if c.state == STATE_ESTABLISHED => {
                c.buffer.extend_from_slice(data);
                Ok(())
            }
            Some(_) => Err(ReplyCode::BadMode),
            None => Err(ReplyCode::InvalidInstance),
        }
    }
}

fn conn_descriptor(name: &[u8], c: &Conn) -> ObjectDescriptor {
    ObjectDescriptor::new(DescriptorTag::TcpConnection, CsName::from(name))
        .with_object_id(c.id)
        .with_size(c.buffer.len() as u64)
        .with_ext(DescriptorExt::TcpConnection {
            remote_host: c.remote_host,
            remote_port: c.remote_port,
            state: c.state,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conn_name_parsing() {
        assert_eq!(parse_conn_name(b"10.0.0.1:25"), Some((0x0A000001, 25)));
        assert_eq!(
            parse_conn_name(b"255.255.255.255:65535"),
            Some((u32::MAX, 65535))
        );
        assert_eq!(parse_conn_name(b"10.0.0:25"), None);
        assert_eq!(parse_conn_name(b"10.0.0.1"), None);
        assert_eq!(parse_conn_name(b"10.0.0.256:1"), None);
        assert_eq!(parse_conn_name(b"host:1"), None);
        assert_eq!(parse_conn_name(&[0xFF, 0xFE]), None);
    }
}
