//! The pipe server — pipes are among the data sources and sinks the V I/O
//! protocol unifies (paper §3.2).
//!
//! Pipes are the one server here that needs *deferred replies*: a read on
//! an empty pipe must block the reader until a writer produces data. The
//! synchronous V model supports this naturally — the server simply holds
//! the received-but-unanswered transaction (the reader stays blocked in its
//! `Send`) and keeps serving other requests; the eventual `Reply` releases
//! the reader. No special kernel support is involved.

use crate::common::{open_reply, reply, serve, written, Answer, Call, Handled, Server};
use std::collections::{BTreeMap, VecDeque};
use vio::InstanceTable;
use vkernel::Ipc;
use vnaming::CsRequest;
use vproto::{fields, Message, OpenMode, ReplyCode, RequestCode, Scope, ServiceId};

/// Configuration for a [`pipe_server`] process.
#[derive(Debug, Clone)]
pub struct PipeConfig {
    /// Registration scope (pipes are per-workstation plumbing: `Local`).
    pub scope: Scope,
    /// Maximum buffered bytes per pipe before writers are refused.
    pub capacity: usize,
}

impl Default for PipeConfig {
    fn default() -> Self {
        PipeConfig {
            scope: Scope::Local,
            capacity: 4096,
        }
    }
}

/// A blocked reader: its parked transaction plus how much it asked for.
struct PendingRead {
    token: u64,
    count: usize,
}

struct Pipe {
    buffer: VecDeque<u8>,
    writers: usize,
    readers: usize,
    /// Whether a writer has ever opened this pipe: reads block (rather
    /// than report end-of-file) until the first writer appears.
    had_writer: bool,
    pending: VecDeque<PendingRead>,
}

impl Pipe {
    fn new() -> Pipe {
        Pipe {
            buffer: VecDeque::new(),
            writers: 0,
            readers: 0,
            had_writer: false,
            pending: VecDeque::new(),
        }
    }
}

#[derive(Debug, Clone)]
struct End {
    name: Vec<u8>,
    writer: bool,
}

/// Satisfies as many blocked readers as the buffer (or writer EOF) allows.
fn drain_pending(call: &mut Call, pipe: &mut Pipe) {
    while !pipe.pending.is_empty() {
        if pipe.buffer.is_empty() {
            if pipe.writers == 0 && pipe.had_writer {
                // EOF: release every waiter empty-handed.
                for p in std::mem::take(&mut pipe.pending) {
                    call.resume(p.token, Message::reply(ReplyCode::EndOfFile), Vec::new());
                }
            }
            return;
        }
        let Some(p) = pipe.pending.pop_front() else {
            return;
        };
        let take = p.count.min(pipe.buffer.len());
        let data: Vec<u8> = pipe.buffer.drain(..take).collect();
        let mut m = Message::ok();
        m.set_count(fields::W_IO_COUNT, data.len());
        call.resume(p.token, m, data);
    }
}

struct Pipes {
    pipes: BTreeMap<Vec<u8>, Pipe>,
    instances: InstanceTable<End>,
    capacity: usize,
}

/// Runs a pipe server until the domain shuts down.
///
/// Protocol: `CreateInstance name` in `Read` mode opens (or creates) the
/// read end, `Write`/`Create`/`Append` the write end. Reads block while the
/// pipe is empty and some writer is open; they return end-of-file once the
/// last writer releases and the buffer drains. Writes beyond the capacity
/// are refused with [`ReplyCode::NoServerResources`].
pub fn pipe_server(ctx: &dyn Ipc, config: PipeConfig) {
    ctx.set_pid(ServiceId::PIPE_SERVER, config.scope);
    serve(
        ctx,
        &mut Pipes {
            pipes: BTreeMap::new(),
            instances: InstanceTable::new(),
            capacity: config.capacity,
        },
    );
}

impl Server for Pipes {
    fn name_op(&mut self, call: &mut Call, req: CsRequest) -> Handled {
        let name = req.remaining();
        match call.msg.request_code() {
            Some(RequestCode::CreateInstance) => {
                if name.is_empty() {
                    return Err(ReplyCode::IllegalName);
                }
                let mode = call.msg.mode().unwrap_or(OpenMode::Read);
                let pipe = self.pipes.entry(name.to_vec()).or_insert_with(Pipe::new);
                let writer = mode.writes();
                if writer {
                    pipe.writers += 1;
                    pipe.had_writer = true;
                } else {
                    pipe.readers += 1;
                }
                let end = End {
                    name: name.to_vec(),
                    writer,
                };
                let inst = self.instances.open(call.from, mode, end);
                open_reply(call, inst, 0)
            }
            Some(RequestCode::RemoveObject) => {
                let mut pipe = self.pipes.remove(name).ok_or(ReplyCode::NotFound)?;
                pipe.writers = 0;
                pipe.had_writer = true; // force EOF for waiters
                drain_pending(call, &mut pipe);
                reply(ReplyCode::Ok)
            }
            _ => Err(ReplyCode::UnknownRequest),
        }
    }

    fn op(&mut self, call: &mut Call) -> Handled {
        match call.msg.request_code() {
            Some(RequestCode::WriteInstance) => {
                let data = call.data()?;
                let inst = self.instances.check(call.instance(), true)?;
                let pipe = self
                    .pipes
                    .get_mut(&inst.state.name)
                    .ok_or(ReplyCode::InvalidInstance)?;
                if pipe.buffer.len() + data.len() > self.capacity {
                    return Err(ReplyCode::NoServerResources);
                }
                pipe.buffer.extend(data.iter());
                drain_pending(call, pipe);
                written(data.len())
            }
            Some(RequestCode::ReadInstance) => {
                let count = usize::from(call.msg.word(fields::W_IO_COUNT));
                let end = &self.instances.check(call.instance(), false)?.state;
                if end.writer {
                    return Err(ReplyCode::BadMode);
                }
                let pipe = self
                    .pipes
                    .get_mut(&end.name)
                    .ok_or(ReplyCode::InvalidInstance)?;
                // Defer the reply: enqueue, then satisfy whatever is
                // possible right now.
                pipe.pending.push_back(PendingRead {
                    token: call.token(),
                    count,
                });
                drain_pending(call, pipe);
                Ok(Answer::Park)
            }
            Some(RequestCode::ReleaseInstance) => {
                let end = self
                    .instances
                    .release(call.instance())
                    .ok_or(ReplyCode::InvalidInstance)?;
                if let Some(pipe) = self.pipes.get_mut(&end.name) {
                    if end.writer {
                        pipe.writers = pipe.writers.saturating_sub(1);
                        drain_pending(call, pipe);
                    } else {
                        pipe.readers = pipe.readers.saturating_sub(1);
                    }
                    if pipe.writers == 0
                        && pipe.readers == 0
                        && pipe.buffer.is_empty()
                        && pipe.pending.is_empty()
                    {
                        self.pipes.remove(&end.name);
                    }
                }
                reply(ReplyCode::Ok)
            }
            _ => Err(ReplyCode::UnknownRequest),
        }
    }
}
