//! The program manager (paper §3, §6): programs in execution as a context.
//!
//! The paper's single "list directory" command displays "programs in
//! execution" through exactly the same typed-descriptor interface as disk
//! files. The program manager owns that context: executing a program adds
//! an entry (with the root pid of the new program), termination removes it.

use crate::common::{
    open_directory, read, release, reply, reply_descriptor, serve, Call, Handle, Handled, Server,
};
use std::collections::BTreeMap;
use std::convert::Infallible;
use vio::InstanceTable;
use vkernel::Ipc;
use vnaming::{CsRequest, DirectoryBuilder};
use vproto::{
    ContextId, CsName, DescriptorExt, DescriptorTag, ObjectDescriptor, ObjectId, Pid, ReplyCode,
    RequestCode, Scope, ServiceId,
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

struct Programs {
    programs: BTreeMap<Vec<u8>, Program>,
    /// Directory listings only: a program is not opened for I/O.
    instances: InstanceTable<Handle<Infallible>>,
    next_obj: u32,
    clock: u64,
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
    ctx.set_pid(ServiceId::PROGRAM_MANAGER, config.scope);
    serve(
        ctx,
        &mut Programs {
            programs: BTreeMap::new(),
            instances: InstanceTable::new(),
            next_obj: 0,
            clock: 0,
        },
    );
}

impl Server for Programs {
    fn name_op(&mut self, call: &mut Call, req: CsRequest) -> Handled {
        let name = req.remaining();
        match call.msg.request_code() {
            Some(RequestCode::CreateObject) => {
                if name.is_empty() {
                    return Err(ReplyCode::IllegalName);
                }
                if self.programs.contains_key(name) {
                    return Err(ReplyCode::NameInUse);
                }
                let pid = ObjectDescriptor::decode_one(&req.extra)
                    .ok()
                    .and_then(|d| match d.ext {
                        DescriptorExt::Program { pid } => Some(pid),
                        _ => None,
                    })
                    .unwrap_or(call.from);
                self.clock += 1;
                self.next_obj += 1;
                let program = Program {
                    id: ObjectId(self.next_obj),
                    pid,
                    started: self.clock,
                };
                self.programs.insert(name.to_vec(), program);
                reply(ReplyCode::Ok)
            }
            Some(RequestCode::RemoveObject) => match self.programs.remove(name) {
                Some(_) => reply(ReplyCode::Ok),
                None => Err(ReplyCode::NotFound),
            },
            Some(RequestCode::QueryObject) => match self.programs.get(name) {
                Some(p) => reply_descriptor(&program_descriptor(name, p)),
                None => Err(ReplyCode::NotFound),
            },
            Some(RequestCode::CreateInstance) if name.is_empty() => {
                let mut b = if req.extra.is_empty() {
                    DirectoryBuilder::new()
                } else {
                    DirectoryBuilder::with_pattern(req.extra.clone())
                };
                for (n, p) in &self.programs {
                    b.push(&program_descriptor(n, p));
                }
                open_directory(call, &mut self.instances, b.finish(), ContextId::DEFAULT)
            }
            _ => Err(ReplyCode::UnknownRequest),
        }
    }

    fn op(&mut self, call: &mut Call) -> Handled {
        match call.msg.request_code() {
            Some(RequestCode::ReadInstance) => read(call, &self.instances, |n| match *n {}),
            Some(RequestCode::ReleaseInstance) => release(call, &mut self.instances),
            _ => Err(ReplyCode::UnknownRequest),
        }
    }
}

fn program_descriptor(name: &[u8], p: &Program) -> ObjectDescriptor {
    ObjectDescriptor::new(DescriptorTag::Program, CsName::from(name))
        .with_object_id(p.id)
        .with_modified(p.started)
        .with_ext(DescriptorExt::Program { pid: p.pid })
}
