//! The printer server (paper §6's "V kernel-based laser printer server").
//!
//! Print jobs are named objects in a queue context: created by opening a
//! fresh name for writing, fed via the I/O protocol, and visible — with
//! their queue position — through the same context-directory mechanism as
//! every other object type.

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

#[derive(Default)]
struct Queue {
    jobs: BTreeMap<Vec<u8>, Job>,
    next_obj: u32,
    clock: u64,
}

impl Queue {
    /// The jobs in submission order.
    fn ordered(&self) -> Vec<(&Vec<u8>, &Job)> {
        let mut ordered: Vec<(&Vec<u8>, &Job)> = self.jobs.iter().collect();
        ordered.sort_by_key(|(_, j)| j.seq);
        ordered
    }
}

/// Runs a printer server until the domain shuts down.
///
/// `RemoveObject` on the job at the head of the queue models the printer
/// finishing (or an operator cancelling) a job; every job behind it moves
/// up one position in the fabricated directory.
pub fn printer_server(ctx: &dyn Ipc, config: PrinterConfig) {
    ctx.set_pid(ServiceId::PRINT_SERVER, config.scope);
    serve_flat(ctx, Queue::default());
}

impl FlatObjects for Queue {
    fn name_op(
        &mut self,
        call: &mut Call,
        req: CsRequest,
        instances: &mut InstanceTable<Handle<Vec<u8>>>,
    ) -> Handled {
        let name = req.remaining();
        match call.msg.request_code() {
            Some(RequestCode::CreateInstance) if name.is_empty() => {
                // Queue directory, ordered by submission.
                let mut b = DirectoryBuilder::new();
                for (pos, (n, j)) in self.ordered().into_iter().enumerate() {
                    b.push(&job_descriptor(n, j, pos as u32));
                }
                open_directory(call, instances, b.finish(), ContextId::DEFAULT)
            }
            Some(RequestCode::CreateInstance) => {
                let mode = call.msg.mode().unwrap_or(OpenMode::Read);
                if !self.jobs.contains_key(name) {
                    if mode != OpenMode::Create {
                        return Err(ReplyCode::NotFound);
                    }
                    self.clock += 1;
                    self.next_obj += 1;
                    let job = Job {
                        id: ObjectId(self.next_obj),
                        data: Vec::new(),
                        submitted: self.clock,
                        seq: self.clock,
                    };
                    self.jobs.insert(name.to_vec(), job);
                }
                let size = self.jobs[name].data.len() as u64;
                let inst = instances.open(call.from, mode, Handle::Object(name.to_vec()));
                open_reply(call, inst, size)
            }
            Some(RequestCode::QueryObject) => {
                match self
                    .ordered()
                    .into_iter()
                    .enumerate()
                    .find(|(_, (n, _))| *n == name)
                {
                    Some((pos, (_, j))) => reply_descriptor(&job_descriptor(name, j, pos as u32)),
                    None => Err(ReplyCode::NotFound),
                }
            }
            Some(RequestCode::RemoveObject) => match self.jobs.remove(name) {
                Some(_) => reply(ReplyCode::Ok),
                None => Err(ReplyCode::NotFound),
            },
            _ => Err(ReplyCode::UnknownRequest),
        }
    }

    fn object(&self, name: &[u8]) -> Option<&[u8]> {
        self.jobs.get(name).map(|j| &j.data[..])
    }

    fn append(&mut self, name: &[u8], data: &[u8]) -> Result<(), ReplyCode> {
        let job = self.jobs.get_mut(name).ok_or(ReplyCode::InvalidInstance)?;
        job.data.extend_from_slice(data);
        Ok(())
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
