//! The internet server (paper §6: "an Internet server that runs a V
//! kernel-based implementation of IP/TCP").
//!
//! The physical network stack is out of scope; what matters for the naming
//! paper is that **TCP connections are named objects in a context**, listed
//! by the same directory machinery as files and terminals. Connections here
//! are simulated loopbacks: written bytes become readable, state follows a
//! tiny open/established/closed automaton.

use crate::common::{count_word, reply_code, reply_data, reply_descriptor};
use std::collections::BTreeMap;
use vio::{serve_read, InstanceTable};
use vkernel::Ipc;
use vnaming::{CsRequest, DirectoryBuilder};
use vproto::{
    fields, CsName, DescriptorExt, DescriptorTag, InstanceId, Message, ObjectDescriptor, ObjectId,
    OpenMode, ReplyCode, RequestCode, Scope, ServiceId,
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

/// Runs an internet (TCP) server until the domain shuts down.
pub fn internet_server(ctx: &dyn Ipc, config: InternetConfig) {
    let mut conns: BTreeMap<Vec<u8>, Conn> = BTreeMap::new();
    let mut instances: InstanceTable<Vec<u8>> = InstanceTable::new();
    let mut dir_instances: InstanceTable<Vec<u8>> = InstanceTable::new();
    let mut next_obj = 0u32;
    ctx.set_pid(ServiceId::INTERNET_SERVER, config.scope);

    while let Ok(rx) = ctx.receive() {
        let msg = rx.msg;
        if msg.is_csname_request() {
            let payload = match ctx.move_from(&rx) {
                Ok(p) => p,
                Err(_) => continue,
            };
            let req = match CsRequest::parse(&msg, &payload) {
                Ok(r) => r,
                Err(code) => {
                    reply_code(ctx, rx, code);
                    continue;
                }
            };
            let name = req.remaining().to_vec();
            match msg.request_code() {
                Some(RequestCode::CreateInstance) => {
                    if name.is_empty() {
                        let mut b = DirectoryBuilder::new();
                        for (n, c) in &conns {
                            b.push(&conn_descriptor(n, c));
                        }
                        let snapshot = b.finish();
                        let size = snapshot.len() as u64;
                        let inst = dir_instances.open(rx.from, OpenMode::Directory, snapshot);
                        let mut m = Message::ok();
                        m.set_word(fields::W_INSTANCE, inst.0)
                            .set_word32(fields::W_SIZE_LO, size as u32)
                            .set_pid_at(fields::W_PID_LO, ctx.my_pid());
                        reply_data(ctx, rx, m, Vec::new());
                        continue;
                    }
                    let mode = msg.mode().unwrap_or(OpenMode::Read);
                    if !conns.contains_key(&name) {
                        if mode == OpenMode::Create {
                            match parse_conn_name(&name) {
                                Some((remote_host, remote_port)) => {
                                    next_obj += 1;
                                    conns.insert(
                                        name.clone(),
                                        Conn {
                                            id: ObjectId(next_obj),
                                            remote_host,
                                            remote_port,
                                            state: STATE_ESTABLISHED,
                                            buffer: Vec::new(),
                                        },
                                    );
                                }
                                None => {
                                    reply_code(ctx, rx, ReplyCode::IllegalName);
                                    continue;
                                }
                            }
                        } else {
                            reply_code(ctx, rx, ReplyCode::NotFound);
                            continue;
                        }
                    }
                    let size = conns[&name].buffer.len() as u64;
                    let inst = instances.open(rx.from, mode, name);
                    let mut m = Message::ok();
                    m.set_word(fields::W_INSTANCE, inst.0)
                        .set_word32(fields::W_SIZE_LO, size as u32)
                        .set_pid_at(fields::W_PID_LO, ctx.my_pid());
                    reply_data(ctx, rx, m, Vec::new());
                }
                Some(RequestCode::QueryObject) => match conns.get(&name) {
                    Some(c) => reply_descriptor(ctx, rx, &conn_descriptor(&name, c)),
                    None => reply_code(ctx, rx, ReplyCode::NotFound),
                },
                Some(RequestCode::RemoveObject) => {
                    // Closing a connection: it lingers as CLOSED until the
                    // next remove, then disappears (a nod to TIME_WAIT).
                    let code = match conns.get_mut(&name) {
                        Some(c) if c.state == STATE_ESTABLISHED => {
                            c.state = STATE_CLOSED;
                            ReplyCode::Ok
                        }
                        Some(_) => {
                            conns.remove(&name);
                            ReplyCode::Ok
                        }
                        None => ReplyCode::NotFound,
                    };
                    reply_code(ctx, rx, code);
                }
                _ => reply_code(ctx, rx, ReplyCode::UnknownRequest),
            }
            continue;
        }
        match msg.request_code() {
            Some(RequestCode::WriteInstance) => {
                let id = InstanceId(msg.word(fields::W_IO_INSTANCE));
                let data = match ctx.move_from(&rx) {
                    Ok(d) => d,
                    Err(_) => continue,
                };
                let code = match instances.check(id, true) {
                    Ok(inst) => match conns.get_mut(&inst.state) {
                        Some(c) if c.state == STATE_ESTABLISHED => {
                            c.buffer.extend_from_slice(&data);
                            ReplyCode::Ok
                        }
                        Some(_) => ReplyCode::BadMode,
                        None => ReplyCode::InvalidInstance,
                    },
                    Err(c) => c,
                };
                let mut m = Message::reply(code);
                m.set_word(fields::W_IO_COUNT, count_word(data.len()));
                reply_data(ctx, rx, m, Vec::new());
            }
            Some(RequestCode::ReadInstance) => {
                let id = InstanceId(msg.word(fields::W_IO_INSTANCE));
                let offset = msg.word32(fields::W_IO_OFFSET_LO) as u64;
                let count = msg.word(fields::W_IO_COUNT) as usize;
                let window: Result<Vec<u8>, ReplyCode> =
                    if let Ok(inst) = instances.check(id, false) {
                        match conns.get(&inst.state) {
                            Some(c) => serve_read(&c.buffer, offset, count).map(|w| w.to_vec()),
                            None => Err(ReplyCode::InvalidInstance),
                        }
                    } else if let Ok(inst) = dir_instances.check(id, false) {
                        serve_read(&inst.state, offset, count).map(|w| w.to_vec())
                    } else {
                        Err(ReplyCode::InvalidInstance)
                    };
                match window {
                    Ok(w) => {
                        let mut m = Message::ok();
                        m.set_word(fields::W_IO_COUNT, count_word(w.len()));
                        reply_data(ctx, rx, m, w);
                    }
                    Err(code) => reply_code(ctx, rx, code),
                }
            }
            Some(RequestCode::ReleaseInstance) => {
                let id = InstanceId(msg.word(fields::W_IO_INSTANCE));
                let code = if instances.release(id).is_some() || dir_instances.release(id).is_some()
                {
                    ReplyCode::Ok
                } else {
                    ReplyCode::InvalidInstance
                };
                reply_code(ctx, rx, code);
            }
            _ => reply_code(ctx, rx, ReplyCode::UnknownRequest),
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
