//! The operations: what one "op" of each workload is, through
//! `NameClient` as a user program would issue it, and the same operation
//! *unrolled* — performed from here through the public functions of the
//! layers below the stub — so that spans can be recorded around each
//! layer without touching the layers.
//!
//! Every operation verifies its answer against what the generator knows
//! must come back. A wrong answer is a failed operation.

use crate::load::{binding_of, ChurnOp, NameTable};
use crate::trace::TraceBuf;
use crate::worlds::{churn_initial, CHURN_PID};
use bytes::Bytes;
use vio::IoError;
use vkernel::Ipc;
use vnaming::build_csname_request;
use vproto::{
    fields, ContextId, ContextPair, CsName, InstanceId, Message, OpenMode, Pid, RequestCode,
    ResolveBatchMsg, ResolveBatchReply, RESOLVE_NOT_FOUND, RESOLVE_OK,
};
use vruntime::{BatchOutcome, Binding, NameClient, Staleness};

/// Where an unrolled operation reports its spans. [`NoTrace`] compiles the
/// reporting away, which is how the cost of tracing itself is measured.
pub trait Tracer {
    fn now(&self) -> u64;
    fn span(&mut self, parent: Option<u32>, request: u32, name: &'static str, t: (u64, u64))
        -> u32;
}

pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline]
    fn now(&self) -> u64 {
        0
    }
    #[inline]
    fn span(&mut self, _: Option<u32>, _: u32, _: &'static str, _: (u64, u64)) -> u32 {
        0
    }
}

impl Tracer for TraceBuf {
    #[inline]
    fn now(&self) -> u64 {
        TraceBuf::now(self)
    }
    #[inline]
    fn span(
        &mut self,
        parent: Option<u32>,
        request: u32,
        name: &'static str,
        t: (u64, u64),
    ) -> u32 {
        self.push(parent, request, name, t.0, t.1)
    }
}

/// The span every operation's other spans hang from.
pub const SPAN_OP: &str = "op";
/// One `Send` … `Reply` as the client sees it; everything the kernel and
/// the servers do happens inside a span of this name.
pub const SPAN_TXN: &str = "vkernel.txn";

pub trait Driver: Send + 'static {
    /// Operation `i` of the stream through `NameClient`, verified.
    fn op(&mut self, nc: &NameClient<'_>, i: usize) -> bool;
    /// The same operation unrolled, verified, reporting spans to `t`.
    fn unrolled<T: Tracer>(&mut self, ipc: &dyn Ipc, t: &mut T, i: usize) -> bool;
    /// FNV hash of the pre-generated stream.
    fn load_hash(&self) -> u64;
}

fn bound(target: ContextPair) -> BatchOutcome {
    BatchOutcome::Bound(Binding {
        target,
        staleness: Staleness::Fresh,
    })
}

/// One `ResolveBatch` transaction, unrolled: encode, send, decode and
/// compare each answer with `expect` (`None` = must be unbound).
fn unrolled_resolve<T: Tracer>(
    ipc: &dyn Ipc,
    t: &mut T,
    request: u32,
    prefix: Pid,
    names: &[&str],
    expect: impl Fn(usize) -> Option<ContextPair>,
) -> bool {
    let a0 = t.now();
    let batch = ResolveBatchMsg {
        names: names.iter().map(|n| n.as_bytes().to_vec()).collect(),
    };
    let payload = Bytes::from(batch.encode());
    let msg = Message::request(RequestCode::ResolveBatch);
    let a1 = t.now();
    let reply = ipc.send(prefix, msg, payload, 16 * names.len() + 64);
    let a2 = t.now();
    let ok = (|| {
        let reply = reply.ok()?;
        reply.msg.reply_code().is_ok().then_some(())?;
        let decoded = ResolveBatchReply::decode(&reply.data).ok()?;
        (decoded.answers.len() == names.len()).then_some(())?;
        let all = decoded
            .answers
            .iter()
            .enumerate()
            .all(|(k, a)| match expect(k) {
                Some(pair) => {
                    a.status == RESOLVE_OK
                        && a.staleness == 0
                        && a.pid == pair.server.raw()
                        && a.context == pair.context.raw()
                }
                None => a.status == RESOLVE_NOT_FOUND,
            });
        all.then_some(())
    })()
    .is_some();
    let a3 = t.now();
    let root = t.span(None, request, SPAN_OP, (a0, a3));
    t.span(Some(root), request, "vproto.encode", (a0, a1));
    t.span(Some(root), request, SPAN_TXN, (a1, a2));
    t.span(Some(root), request, "vproto.decode", (a2, a3));
    ok
}

/// Largest batch a resolve operation carries.
pub const MAX_BATCH: usize = 64;

/// `resolve_single` and `resolve_batch64`: one `resolve_batch` of `batch`
/// names drawn uniformly from the table.
pub struct ResolveDriver {
    pub names: NameTable,
    /// Table indices; operation `i` resolves `ring[i*batch .. (i+1)*batch]`.
    pub ring: Vec<u32>,
    pub batch: usize,
    pub prefix: Pid,
    pub load_hash: u64,
}

impl ResolveDriver {
    fn picks(&self, i: usize) -> &[u32] {
        let ops = self.ring.len() / self.batch;
        let at = (i % ops) * self.batch;
        &self.ring[at..at + self.batch]
    }

    fn names_of<'a>(&'a self, picks: &[u32], buf: &'a mut [&'a str; MAX_BATCH]) -> &'a [&'a str] {
        for (slot, &p) in buf.iter_mut().zip(picks) {
            *slot = self.names.get(p);
        }
        &buf[..picks.len()]
    }
}

impl Driver for ResolveDriver {
    fn op(&mut self, nc: &NameClient<'_>, i: usize) -> bool {
        let picks = self.picks(i);
        let mut buf = [""; MAX_BATCH];
        match nc.resolve_batch(self.names_of(picks, &mut buf)) {
            Ok(out) => {
                out.len() == picks.len()
                    && out
                        .iter()
                        .zip(picks)
                        .all(|(o, &p)| *o == bound(binding_of(p)))
            }
            Err(_) => false,
        }
    }

    fn unrolled<T: Tracer>(&mut self, ipc: &dyn Ipc, t: &mut T, i: usize) -> bool {
        let picks = self.picks(i);
        let mut buf = [""; MAX_BATCH];
        let names = self.names_of(picks, &mut buf);
        unrolled_resolve(ipc, t, i as u32, self.prefix, names, |k| {
            Some(binding_of(picks[k]))
        })
    }

    fn load_hash(&self) -> u64 {
        self.load_hash
    }
}

/// `churn_mixed`: reads against the big table interleaved with prefix
/// definitions and deletions, checked against a model kept here.
pub struct ChurnDriver {
    pub base: NameTable,
    pub churn: NameTable,
    pub ring: Vec<ChurnOp>,
    /// What each churn name is bound to right now (`None` = unbound):
    /// the preload, then every write this driver has had acknowledged.
    pub model: Vec<Option<u32>>,
    pub prefix: Pid,
    pub load_hash: u64,
}

impl ChurnDriver {
    pub fn initial_model(churn: u32, preloaded: &[u32]) -> Vec<Option<u32>> {
        let mut model = vec![None; churn as usize];
        for &i in preloaded {
            model[i as usize] = Some(churn_initial(i).context.raw());
        }
        model
    }

    fn expected(&self, i: u32) -> Option<ContextPair> {
        self.model[i as usize].map(|ctx| ContextPair::new(CHURN_PID, ContextId::new(ctx)))
    }

    /// Applies an acknowledged write to the model.
    fn wrote(&mut self, i: u32, ctx: Option<u32>, acked: bool) -> bool {
        if acked {
            self.model[i as usize] = ctx;
        }
        acked
    }
}

/// One add/delete-prefix transaction, unrolled.
fn unrolled_define<T: Tracer>(
    ipc: &dyn Ipc,
    t: &mut T,
    request: u32,
    prefix: Pid,
    name: &str,
    target: Option<ContextPair>,
) -> bool {
    let a0 = t.now();
    let code = match target {
        Some(_) => RequestCode::AddContextName,
        None => RequestCode::DeleteContextName,
    };
    let (mut msg, payload) =
        build_csname_request(code, ContextId::DEFAULT, &CsName::from(name), &[]);
    if let Some(pair) = target {
        msg.set_pid_at(fields::W_TARGET_PID_LO, pair.server);
        msg.set_word32(fields::W_TARGET_CTX_LO, pair.context.raw());
        msg.set_word(fields::W_LOGICAL, 0);
    }
    let a1 = t.now();
    let reply = ipc.send(prefix, msg, payload, 0);
    let a2 = t.now();
    let ok = reply.is_ok_and(|r| r.msg.reply_code().is_ok());
    let a3 = t.now();
    let root = t.span(None, request, SPAN_OP, (a0, a3));
    t.span(Some(root), request, "vnaming.build", (a0, a1));
    t.span(Some(root), request, SPAN_TXN, (a1, a2));
    t.span(Some(root), request, "vio.check", (a2, a3));
    ok
}

impl Driver for ChurnDriver {
    fn op(&mut self, nc: &NameClient<'_>, i: usize) -> bool {
        let read = |name: &str, want: Option<ContextPair>| {
            nc.resolve_batch(&[name])
                .is_ok_and(|out| out == [want.map_or(BatchOutcome::NotFound, bound)])
        };
        match self.ring[i % self.ring.len()] {
            ChurnOp::ReadBase(b) => read(self.base.get(b), Some(binding_of(b))),
            ChurnOp::ReadChurn(c) => read(self.churn.get(c), self.expected(c)),
            ChurnOp::Add { i: c, ctx } => {
                let pair = ContextPair::new(CHURN_PID, ContextId::new(ctx));
                let acked = nc.add_prefix(self.churn.get(c), pair).is_ok();
                self.wrote(c, Some(ctx), acked)
            }
            ChurnOp::Delete(c) => {
                let acked = nc.delete_prefix(self.churn.get(c)).is_ok();
                self.wrote(c, None, acked)
            }
        }
    }

    fn unrolled<T: Tracer>(&mut self, ipc: &dyn Ipc, t: &mut T, i: usize) -> bool {
        let req = i as u32;
        match self.ring[i % self.ring.len()] {
            ChurnOp::ReadBase(b) => {
                unrolled_resolve(ipc, t, req, self.prefix, &[self.base.get(b)], |_| {
                    Some(binding_of(b))
                })
            }
            ChurnOp::ReadChurn(c) => {
                let want = self.expected(c);
                unrolled_resolve(ipc, t, req, self.prefix, &[self.churn.get(c)], |_| want)
            }
            ChurnOp::Add { i: c, ctx } => {
                let pair = ContextPair::new(CHURN_PID, ContextId::new(ctx));
                let acked =
                    unrolled_define(ipc, t, req, self.prefix, self.churn.get(c), Some(pair));
                self.wrote(c, Some(ctx), acked)
            }
            ChurnOp::Delete(c) => {
                let acked = unrolled_define(ipc, t, req, self.prefix, self.churn.get(c), None);
                self.wrote(c, None, acked)
            }
        }
    }

    fn load_hash(&self) -> u64 {
        self.load_hash
    }
}

/// `open_forward` and `sim_lossy_open`: `Open("[prefix]path", Read)` then
/// close — the operation the paper's §6 table measures.
pub struct OpenDriver {
    /// Every name the stream can open.
    pub names: Vec<String>,
    /// Per name: the server that must end up implementing the instance,
    /// and the size it must report.
    pub expect: Vec<(Pid, u64)>,
    /// Indices into `names`.
    pub ring: Vec<u32>,
    pub prefix: Pid,
    pub load_hash: u64,
}

impl Driver for OpenDriver {
    fn op(&mut self, nc: &NameClient<'_>, i: usize) -> bool {
        let pick = self.ring[i % self.ring.len()] as usize;
        let opened: Result<(Pid, u64), IoError> =
            nc.open(&self.names[pick], OpenMode::Read).and_then(|h| {
                let seen = (h.server(), h.size());
                h.close(nc.ipc()).map(|()| seen)
            });
        opened == Ok(self.expect[pick])
    }

    fn unrolled<T: Tracer>(&mut self, ipc: &dyn Ipc, t: &mut T, i: usize) -> bool {
        let req = i as u32;
        let pick = self.ring[i % self.ring.len()] as usize;
        let a0 = t.now();
        // The stub's calibrated cost on the virtual-time kernel, as
        // `NameClient::open` charges it; nothing on the thread kernel.
        if let Some(net) = ipc.net() {
            ipc.charge(net.params().t_stub_open);
        }
        let name = CsName::from(self.names[pick].as_str());
        let (mut msg, payload) =
            build_csname_request(RequestCode::CreateInstance, ContextId::DEFAULT, &name, &[]);
        msg.set_mode(OpenMode::Read);
        let a1 = t.now();
        let reply = ipc.send(self.prefix, msg, payload, 0);
        let a2 = t.now();
        let opened = reply.ok().filter(|r| r.msg.reply_code().is_ok()).map(|r| {
            (
                r.msg.pid_at(fields::W_PID_LO),
                InstanceId(r.msg.word(fields::W_INSTANCE)),
                u64::from(r.msg.word32(fields::W_SIZE_LO)),
            )
        });
        let a3 = t.now();
        let Some((server, instance, size)) = opened else {
            let root = t.span(None, req, SPAN_OP, (a0, a3));
            t.span(Some(root), req, "vnaming.build", (a0, a1));
            t.span(Some(root), req, SPAN_TXN, (a1, a2));
            t.span(Some(root), req, "vio.decode", (a2, a3));
            return false;
        };
        let mut release = Message::request(RequestCode::ReleaseInstance);
        release.set_word(fields::W_IO_INSTANCE, instance.0);
        let a4 = t.now();
        let released = ipc.send(server, release, Bytes::new(), 0);
        let a5 = t.now();
        let ok = released.is_ok_and(|r| r.msg.reply_code().is_ok())
            && (server, size) == self.expect[pick];
        let a6 = t.now();
        let root = t.span(None, req, SPAN_OP, (a0, a6));
        t.span(Some(root), req, "vnaming.build", (a0, a1));
        t.span(Some(root), req, SPAN_TXN, (a1, a2));
        t.span(Some(root), req, "vio.decode", (a2, a3));
        t.span(Some(root), req, "vio.release_build", (a3, a4));
        t.span(Some(root), req, SPAN_TXN, (a4, a5));
        t.span(Some(root), req, "vio.check", (a5, a6));
        ok
    }

    fn load_hash(&self) -> u64 {
        self.load_hash
    }
}
