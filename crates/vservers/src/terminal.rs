//! The virtual (graphics) terminal server (paper §3, §6).
//!
//! Terminals are *temporary* objects (paper §4.3): created on demand, named
//! by short instance ids internally and by CSnames for user convenience,
//! gone when destroyed. The server demonstrates that the same protocol that
//! names disk files also names transient, memory-resident objects.

use crate::common::{count_word, reply_code, reply_data, reply_descriptor};
use std::collections::BTreeMap;
use vio::{serve_read, InstanceTable};
use vkernel::Ipc;
use vnaming::{CsRequest, DirectoryBuilder};
use vproto::{
    fields, ContextId, CsName, DescriptorExt, DescriptorTag, InstanceId, Message, ObjectDescriptor,
    ObjectId, OpenMode, ReplyCode, RequestCode, Scope, ServiceId,
};

/// Configuration for a [`terminal_server`] process.
#[derive(Debug, Clone)]
pub struct TerminalConfig {
    /// Registration scope (virtual terminal servers are per-workstation,
    /// hence `Local` by default — paper §6).
    pub scope: Scope,
    /// Geometry assigned to new terminals.
    pub columns: u16,
    /// Geometry assigned to new terminals.
    pub rows: u16,
}

impl Default for TerminalConfig {
    fn default() -> Self {
        TerminalConfig {
            scope: Scope::Local,
            columns: 80,
            rows: 24,
        }
    }
}

struct Term {
    id: ObjectId,
    screen: Vec<u8>,
    modified: u64,
}

/// Runs a virtual terminal server until the domain shuts down.
pub fn terminal_server(ctx: &dyn Ipc, config: TerminalConfig) {
    let mut terms: BTreeMap<Vec<u8>, Term> = BTreeMap::new();
    let mut instances: InstanceTable<Vec<u8>> = InstanceTable::new(); // name or snapshot key
    let mut dir_instances: InstanceTable<Vec<u8>> = InstanceTable::new();
    let mut next_obj = 0u32;
    let mut clock = 0u64;
    ctx.set_pid(ServiceId::TERMINAL_SERVER, config.scope);

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
                    let mode = msg.mode().unwrap_or(OpenMode::Read);
                    if name.is_empty() {
                        // Context directory of terminals.
                        let mut b = DirectoryBuilder::new();
                        for (n, t) in &terms {
                            b.push(&descriptor(n, t, &config));
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
                    if !terms.contains_key(&name) {
                        if mode == OpenMode::Create {
                            next_obj += 1;
                            clock += 1;
                            terms.insert(
                                name.clone(),
                                Term {
                                    id: ObjectId(next_obj),
                                    screen: Vec::new(),
                                    modified: clock,
                                },
                            );
                        } else {
                            reply_code(ctx, rx, ReplyCode::NotFound);
                            continue;
                        }
                    }
                    let size = terms[&name].screen.len() as u64;
                    let inst = instances.open(rx.from, mode, name);
                    let mut m = Message::ok();
                    m.set_word(fields::W_INSTANCE, inst.0)
                        .set_word32(fields::W_SIZE_LO, size as u32)
                        .set_pid_at(fields::W_PID_LO, ctx.my_pid());
                    reply_data(ctx, rx, m, Vec::new());
                }
                Some(RequestCode::QueryObject) => match terms.get(&name) {
                    Some(t) => reply_descriptor(ctx, rx, &descriptor(&name, t, &config)),
                    None => reply_code(ctx, rx, ReplyCode::NotFound),
                },
                Some(RequestCode::RemoveObject) => {
                    let code = if terms.remove(&name).is_some() {
                        ReplyCode::Ok
                    } else {
                        ReplyCode::NotFound
                    };
                    reply_code(ctx, rx, code);
                }
                Some(RequestCode::QueryName) if name.is_empty() => {
                    let mut m = Message::ok();
                    m.set_context_id(ContextId::DEFAULT);
                    m.set_pid_at(fields::W_PID_LO, ctx.my_pid());
                    reply_data(ctx, rx, m, Vec::new());
                }
                _ => reply_code(ctx, rx, ReplyCode::UnknownRequest),
            }
            continue;
        }
        match msg.request_code() {
            Some(RequestCode::ReadInstance) => {
                let id = InstanceId(msg.word(fields::W_IO_INSTANCE));
                let offset = msg.word32(fields::W_IO_OFFSET_LO) as u64;
                let count = msg.word(fields::W_IO_COUNT) as usize;
                // Terminal instance or directory instance?
                let window: Result<Vec<u8>, ReplyCode> =
                    if let Ok(inst) = instances.check(id, false) {
                        match terms.get(&inst.state) {
                            Some(t) => serve_read(&t.screen, offset, count).map(|w| w.to_vec()),
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
            Some(RequestCode::WriteInstance) => {
                let id = InstanceId(msg.word(fields::W_IO_INSTANCE));
                let data = match ctx.move_from(&rx) {
                    Ok(d) => d,
                    Err(_) => continue,
                };
                let code = match instances.check(id, true) {
                    Ok(inst) => match terms.get_mut(&inst.state) {
                        Some(t) => {
                            clock += 1;
                            t.screen.extend_from_slice(&data);
                            t.modified = clock;
                            ReplyCode::Ok
                        }
                        None => ReplyCode::InvalidInstance,
                    },
                    Err(c) => c,
                };
                let mut m = Message::reply(code);
                m.set_word(fields::W_IO_COUNT, count_word(data.len()));
                reply_data(ctx, rx, m, Vec::new());
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

fn descriptor(name: &[u8], t: &Term, config: &TerminalConfig) -> ObjectDescriptor {
    ObjectDescriptor::new(DescriptorTag::Terminal, CsName::from(name))
        .with_object_id(t.id)
        .with_size(t.screen.len() as u64)
        .with_modified(t.modified)
        .with_ext(DescriptorExt::Terminal {
            columns: config.columns,
            rows: config.rows,
        })
}
