//! The program manager (paper §3, §6): programs in execution as a context.
//!
//! The paper's single "list directory" command displays "programs in
//! execution" through exactly the same typed-descriptor interface as disk
//! files. The program manager owns that context: executing a program adds
//! an entry (with the root pid of the new program), termination removes it.

use crate::common::{count_word, reply_code, reply_data, reply_descriptor};
use std::collections::BTreeMap;
use vio::{serve_read, InstanceTable};
use vkernel::Ipc;
use vnaming::{CsRequest, DirectoryBuilder};
use vproto::{
    fields, CsName, DescriptorExt, DescriptorTag, InstanceId, Message, ObjectDescriptor, ObjectId,
    OpenMode, Pid, ReplyCode, RequestCode, Scope, ServiceId,
};

/// Configuration for a [`program_manager`] process.
#[derive(Debug, Clone)]
pub struct ProgramConfig {
    /// Registration scope (one program manager per workstation: `Local`).
    pub scope: Scope,
}

impl Default for ProgramConfig {
    fn default() -> Self {
        ProgramConfig {
            scope: Scope::Local,
        }
    }
}

struct Program {
    id: ObjectId,
    pid: Pid,
    started: u64,
}

/// Runs a program manager until the domain shuts down.
///
/// Protocol use:
/// * `CreateObject name` (with a `Program` descriptor carrying the root
///   pid in its extension) — register a program in execution.
/// * `RemoveObject name` — the program terminated.
/// * `CreateInstance ""` (directory mode) — list programs in execution.
/// * `QueryObject name` — one program's descriptor.
pub fn program_manager(ctx: &dyn Ipc, config: ProgramConfig) {
    let mut programs: BTreeMap<Vec<u8>, Program> = BTreeMap::new();
    let mut dir_instances: InstanceTable<Vec<u8>> = InstanceTable::new();
    let mut next_obj = 0u32;
    let mut clock = 0u64;
    ctx.set_pid(ServiceId::PROGRAM_MANAGER, config.scope);

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
                Some(RequestCode::CreateObject) => {
                    if name.is_empty() {
                        reply_code(ctx, rx, ReplyCode::IllegalName);
                        continue;
                    }
                    if programs.contains_key(&name) {
                        reply_code(ctx, rx, ReplyCode::NameInUse);
                        continue;
                    }
                    let pid = ObjectDescriptor::decode_one(&req.extra)
                        .ok()
                        .and_then(|d| match d.ext {
                            DescriptorExt::Program { pid } => Some(pid),
                            _ => None,
                        })
                        .unwrap_or(rx.from);
                    clock += 1;
                    next_obj += 1;
                    programs.insert(
                        name,
                        Program {
                            id: ObjectId(next_obj),
                            pid,
                            started: clock,
                        },
                    );
                    reply_code(ctx, rx, ReplyCode::Ok);
                }
                Some(RequestCode::RemoveObject) => {
                    let code = if programs.remove(&name).is_some() {
                        ReplyCode::Ok
                    } else {
                        ReplyCode::NotFound
                    };
                    reply_code(ctx, rx, code);
                }
                Some(RequestCode::QueryObject) => match programs.get(&name) {
                    Some(p) => reply_descriptor(ctx, rx, &program_descriptor(&name, p)),
                    None => reply_code(ctx, rx, ReplyCode::NotFound),
                },
                Some(RequestCode::CreateInstance) if name.is_empty() => {
                    let pattern = if req.extra.is_empty() {
                        None
                    } else {
                        Some(req.extra.clone())
                    };
                    let mut b = match pattern {
                        Some(p) => DirectoryBuilder::with_pattern(p),
                        None => DirectoryBuilder::new(),
                    };
                    for (n, p) in &programs {
                        b.push(&program_descriptor(n, p));
                    }
                    let snapshot = b.finish();
                    let size = snapshot.len() as u64;
                    let inst = dir_instances.open(rx.from, OpenMode::Directory, snapshot);
                    let mut m = Message::ok();
                    m.set_word(fields::W_INSTANCE, inst.0)
                        .set_word32(fields::W_SIZE_LO, size as u32)
                        .set_pid_at(fields::W_PID_LO, ctx.my_pid());
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
                match dir_instances
                    .check(id, false)
                    .and_then(|inst| serve_read(&inst.state, offset, count).map(|w| w.to_vec()))
                {
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
                let code = if dir_instances.release(id).is_some() {
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

fn program_descriptor(name: &[u8], p: &Program) -> ObjectDescriptor {
    ObjectDescriptor::new(DescriptorTag::Program, CsName::from(name))
        .with_object_id(p.id)
        .with_modified(p.started)
        .with_ext(DescriptorExt::Program { pid: p.pid })
}
