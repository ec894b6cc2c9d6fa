//! The virtual (graphics) terminal server (paper §3, §6).
//!
//! Terminals are *temporary* objects (paper §4.3): created on demand, named
//! by short instance ids internally and by CSnames for user convenience,
//! gone when destroyed. The server demonstrates that the same protocol that
//! names disk files also names transient, memory-resident objects.

use crate::common::{
    open_directory, open_reply, reply, reply_descriptor, serve_flat, Answer, Call, FlatObjects,
    Handle, Handled,
};
use std::collections::BTreeMap;
use vio::InstanceTable;
use vkernel::Ipc;
use vnaming::{CsRequest, DirectoryBuilder};
use vproto::{
    fields, ContextId, CsName, DescriptorExt, DescriptorTag, Message, ObjectDescriptor, ObjectId,
    OpenMode, ReplyCode, RequestCode, Scope, ServiceId,
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

struct Terminals {
    terms: BTreeMap<Vec<u8>, Term>,
    next_obj: u32,
    clock: u64,
    config: TerminalConfig,
}

/// Runs a virtual terminal server until the domain shuts down.
pub fn terminal_server(ctx: &dyn Ipc, config: TerminalConfig) {
    ctx.set_pid(ServiceId::TERMINAL_SERVER, config.scope);
    serve_flat(
        ctx,
        Terminals {
            terms: BTreeMap::new(),
            next_obj: 0,
            clock: 0,
            config,
        },
    );
}

impl FlatObjects for Terminals {
    fn name_op(
        &mut self,
        call: &mut Call,
        req: CsRequest,
        instances: &mut InstanceTable<Handle<Vec<u8>>>,
    ) -> Handled {
        let name = req.remaining();
        match call.msg.request_code() {
            Some(RequestCode::CreateInstance) if name.is_empty() => {
                // Context directory of terminals.
                let mut b = DirectoryBuilder::new();
                for (n, t) in &self.terms {
                    b.push(&descriptor(n, t, &self.config));
                }
                open_directory(call, instances, b.finish(), ContextId::DEFAULT)
            }
            Some(RequestCode::CreateInstance) => {
                let mode = call.msg.mode().unwrap_or(OpenMode::Read);
                if !self.terms.contains_key(name) {
                    if mode != OpenMode::Create {
                        return Err(ReplyCode::NotFound);
                    }
                    self.next_obj += 1;
                    self.clock += 1;
                    let term = Term {
                        id: ObjectId(self.next_obj),
                        screen: Vec::new(),
                        modified: self.clock,
                    };
                    self.terms.insert(name.to_vec(), term);
                }
                let size = self.terms[name].screen.len() as u64;
                let inst = instances.open(call.from, mode, Handle::Object(name.to_vec()));
                open_reply(call, inst, size)
            }
            Some(RequestCode::QueryObject) => match self.terms.get(name) {
                Some(t) => reply_descriptor(&descriptor(name, t, &self.config)),
                None => Err(ReplyCode::NotFound),
            },
            Some(RequestCode::RemoveObject) => match self.terms.remove(name) {
                Some(_) => reply(ReplyCode::Ok),
                None => Err(ReplyCode::NotFound),
            },
            Some(RequestCode::QueryName) if name.is_empty() => {
                let mut m = Message::ok();
                m.set_context_id(ContextId::DEFAULT);
                m.set_pid_at(fields::W_PID_LO, call.ctx.my_pid());
                Ok(Answer::Reply(m))
            }
            _ => Err(ReplyCode::UnknownRequest),
        }
    }

    fn object(&self, name: &[u8]) -> Option<&[u8]> {
        self.terms.get(name).map(|t| &t.screen[..])
    }

    fn append(&mut self, name: &[u8], data: &[u8]) -> Result<(), ReplyCode> {
        let t = self.terms.get_mut(name).ok_or(ReplyCode::InvalidInstance)?;
        self.clock += 1;
        t.screen.extend_from_slice(data);
        t.modified = self.clock;
        Ok(())
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
