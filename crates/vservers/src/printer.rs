//! The printer server (paper §6's "V kernel-based laser printer server").
//!
//! Print jobs are named objects in a queue context: created by opening a
//! fresh name for writing, fed via the I/O protocol, and visible — with
//! their queue position — through the same context-directory mechanism as
//! every other object type.

use crate::common::{count_word, reply_code, reply_data, reply_descriptor};
use std::collections::BTreeMap;
use vio::{serve_read, InstanceTable};
use vkernel::Ipc;
use vnaming::{CsRequest, DirectoryBuilder};
use vproto::{
    fields, CsName, DescriptorExt, DescriptorTag, InstanceId, Message, ObjectDescriptor, ObjectId,
    OpenMode, ReplyCode, RequestCode, Scope, ServiceId,
};

/// Configuration for a [`printer_server`] process.
#[derive(Debug, Clone)]
pub struct PrinterConfig {
    /// Registration scope (printers are public: `Both` by default).
    pub scope: Scope,
}

impl Default for PrinterConfig {
    fn default() -> Self {
        PrinterConfig { scope: Scope::Both }
    }
}

struct Job {
    id: ObjectId,
    data: Vec<u8>,
    submitted: u64,
    /// Order key within the queue.
    seq: u64,
}

/// Runs a printer server until the domain shuts down.
///
/// `RemoveObject` on the job at the head of the queue models the printer
/// finishing (or an operator cancelling) a job; every job behind it moves
/// up one position in the fabricated directory.
pub fn printer_server(ctx: &dyn Ipc, config: PrinterConfig) {
    let mut jobs: BTreeMap<Vec<u8>, Job> = BTreeMap::new();
    let mut instances: InstanceTable<Vec<u8>> = InstanceTable::new();
    let mut dir_instances: InstanceTable<Vec<u8>> = InstanceTable::new();
    let mut next_obj = 0u32;
    let mut clock = 0u64;
    ctx.set_pid(ServiceId::PRINT_SERVER, config.scope);

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
                        // Queue directory, ordered by submission.
                        let mut ordered: Vec<(&Vec<u8>, &Job)> = jobs.iter().collect();
                        ordered.sort_by_key(|(_, j)| j.seq);
                        let mut b = DirectoryBuilder::new();
                        for (pos, (n, j)) in ordered.iter().enumerate() {
                            b.push(&job_descriptor(n, j, pos as u32));
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
                    if !jobs.contains_key(&name) {
                        if mode == OpenMode::Create {
                            clock += 1;
                            next_obj += 1;
                            jobs.insert(
                                name.clone(),
                                Job {
                                    id: ObjectId(next_obj),
                                    data: Vec::new(),
                                    submitted: clock,
                                    seq: clock,
                                },
                            );
                        } else {
                            reply_code(ctx, rx, ReplyCode::NotFound);
                            continue;
                        }
                    }
                    let size = jobs[&name].data.len() as u64;
                    let inst = instances.open(rx.from, mode, name);
                    let mut m = Message::ok();
                    m.set_word(fields::W_INSTANCE, inst.0)
                        .set_word32(fields::W_SIZE_LO, size as u32)
                        .set_pid_at(fields::W_PID_LO, ctx.my_pid());
                    reply_data(ctx, rx, m, Vec::new());
                }
                Some(RequestCode::QueryObject) => {
                    let mut ordered: Vec<(&Vec<u8>, &Job)> = jobs.iter().collect();
                    ordered.sort_by_key(|(_, j)| j.seq);
                    match ordered.iter().position(|(n, _)| **n == name) {
                        Some(pos) => {
                            let j = &jobs[&name];
                            reply_descriptor(ctx, rx, &job_descriptor(&name, j, pos as u32));
                        }
                        None => reply_code(ctx, rx, ReplyCode::NotFound),
                    }
                }
                Some(RequestCode::RemoveObject) => {
                    let code = if jobs.remove(&name).is_some() {
                        ReplyCode::Ok
                    } else {
                        ReplyCode::NotFound
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
                    Ok(inst) => match jobs.get_mut(&inst.state) {
                        Some(j) => {
                            j.data.extend_from_slice(&data);
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
            Some(RequestCode::ReadInstance) => {
                let id = InstanceId(msg.word(fields::W_IO_INSTANCE));
                let offset = msg.word32(fields::W_IO_OFFSET_LO) as u64;
                let count = msg.word(fields::W_IO_COUNT) as usize;
                let window: Result<Vec<u8>, ReplyCode> =
                    if let Ok(inst) = instances.check(id, false) {
                        match jobs.get(&inst.state) {
                            Some(j) => serve_read(&j.data, offset, count).map(|w| w.to_vec()),
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

fn job_descriptor(name: &[u8], j: &Job, position: u32) -> ObjectDescriptor {
    ObjectDescriptor::new(DescriptorTag::PrintJob, CsName::from(name))
        .with_object_id(j.id)
        .with_size(j.data.len() as u64)
        .with_modified(j.submitted)
        .with_ext(DescriptorExt::PrintJob {
            queue_position: position,
        })
}
