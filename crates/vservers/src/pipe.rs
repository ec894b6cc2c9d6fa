//! The pipe server — pipes are among the data sources and sinks the V I/O
//! protocol unifies (paper §3.2).
//!
//! Pipes are the one server here that needs *deferred replies*: a read on
//! an empty pipe must block the reader until a writer produces data. The
//! synchronous V model supports this naturally — the server simply holds
//! the received-but-unanswered transaction (the reader stays blocked in its
//! `Send`) and keeps serving other requests; the eventual `Reply` releases
//! the reader. No special kernel support is involved.

use crate::common::{count_word, reply_code, reply_data};
use bytes::Bytes;
use std::collections::{BTreeMap, VecDeque};
use vio::InstanceTable;
use vkernel::{Ipc, Received};
use vnaming::CsRequest;
use vproto::{fields, InstanceId, Message, OpenMode, ReplyCode, RequestCode, Scope, ServiceId};

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

/// A blocked reader: the held transaction plus how much it asked for.
struct PendingRead {
    rx: Received,
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
fn drain_pending(ctx: &dyn Ipc, pipe: &mut Pipe) {
    while !pipe.pending.is_empty() {
        if pipe.buffer.is_empty() {
            if pipe.writers == 0 && pipe.had_writer {
                // EOF: release every waiter empty-handed.
                let pending = std::mem::take(&mut pipe.pending);
                for p in pending {
                    reply_code(ctx, p.rx, ReplyCode::EndOfFile);
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
        m.set_word(fields::W_IO_COUNT, count_word(data.len()));
        reply_data(ctx, p.rx, m, data);
    }
}

/// Runs a pipe server until the domain shuts down.
///
/// Protocol: `CreateInstance name` in `Read` mode opens (or creates) the
/// read end, `Write`/`Create`/`Append` the write end. Reads block while the
/// pipe is empty and some writer is open; they return end-of-file once the
/// last writer releases and the buffer drains. Writes beyond the capacity
/// are refused with [`ReplyCode::NoServerResources`].
pub fn pipe_server(ctx: &dyn Ipc, config: PipeConfig) {
    let mut pipes: BTreeMap<Vec<u8>, Pipe> = BTreeMap::new();
    let mut instances: InstanceTable<End> = InstanceTable::new();
    ctx.set_pid(ServiceId::PIPE_SERVER, config.scope);

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
                        reply_code(ctx, rx, ReplyCode::IllegalName);
                        continue;
                    }
                    let mode = msg.mode().unwrap_or(OpenMode::Read);
                    let pipe = pipes.entry(name.clone()).or_insert_with(Pipe::new);
                    let writer = mode.writes();
                    if writer {
                        pipe.writers += 1;
                        pipe.had_writer = true;
                    } else {
                        pipe.readers += 1;
                    }
                    let inst = instances.open(rx.from, mode, End { name, writer });
                    let mut m = Message::ok();
                    m.set_word(fields::W_INSTANCE, inst.0)
                        .set_pid_at(fields::W_PID_LO, ctx.my_pid());
                    reply_data(ctx, rx, m, Vec::new());
                }
                Some(RequestCode::RemoveObject) => {
                    match pipes.remove(&name) {
                        Some(mut pipe) => {
                            pipe.writers = 0;
                            pipe.had_writer = true; // force EOF for waiters
                            drain_pending(ctx, &mut pipe);
                            reply_code(ctx, rx, ReplyCode::Ok);
                        }
                        None => reply_code(ctx, rx, ReplyCode::NotFound),
                    }
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
                let outcome = match instances.check(id, true) {
                    Ok(inst) => match pipes.get_mut(&inst.state.name) {
                        Some(pipe) if pipe.buffer.len() + data.len() > config.capacity => {
                            Err(ReplyCode::NoServerResources)
                        }
                        Some(pipe) => {
                            pipe.buffer.extend(data.iter());
                            drain_pending(ctx, pipe);
                            Ok(data.len())
                        }
                        None => Err(ReplyCode::InvalidInstance),
                    },
                    Err(c) => Err(c),
                };
                match outcome {
                    Ok(n) => {
                        let mut m = Message::ok();
                        m.set_word(fields::W_IO_COUNT, count_word(n));
                        reply_data(ctx, rx, m, Vec::new());
                    }
                    Err(code) => reply_code(ctx, rx, code),
                }
            }
            Some(RequestCode::ReadInstance) => {
                let id = InstanceId(msg.word(fields::W_IO_INSTANCE));
                let count = msg.word(fields::W_IO_COUNT) as usize;
                let name = match instances.check(id, false) {
                    Ok(inst) if !inst.state.writer => inst.state.name.clone(),
                    Ok(_) => {
                        reply_code(ctx, rx, ReplyCode::BadMode);
                        continue;
                    }
                    Err(c) => {
                        reply_code(ctx, rx, c);
                        continue;
                    }
                };
                match pipes.get_mut(&name) {
                    Some(pipe) => {
                        // Defer the reply: enqueue, then satisfy whatever is
                        // possible right now.
                        pipe.pending.push_back(PendingRead { rx, count });
                        drain_pending(ctx, pipe);
                    }
                    None => reply_code(ctx, rx, ReplyCode::InvalidInstance),
                }
            }
            Some(RequestCode::ReleaseInstance) => {
                let id = InstanceId(msg.word(fields::W_IO_INSTANCE));
                match instances.release(id) {
                    Some(end) => {
                        if let Some(pipe) = pipes.get_mut(&end.name) {
                            if end.writer {
                                pipe.writers = pipe.writers.saturating_sub(1);
                                drain_pending(ctx, pipe);
                            } else {
                                pipe.readers = pipe.readers.saturating_sub(1);
                            }
                            if pipe.writers == 0
                                && pipe.readers == 0
                                && pipe.buffer.is_empty()
                                && pipe.pending.is_empty()
                            {
                                pipes.remove(&end.name);
                            }
                        }
                        reply_code(ctx, rx, ReplyCode::Ok);
                    }
                    None => reply_code(ctx, rx, ReplyCode::InvalidInstance),
                }
            }
            _ => {
                let _ = ctx.reply(rx, Message::reply(ReplyCode::UnknownRequest), Bytes::new());
            }
        }
    }
}
