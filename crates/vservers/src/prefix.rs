//! The per-user context prefix server (paper §5.8, §6).
//!
//! "V makes available standard context prefix servers, which provide each
//! user with locally defined character string names for contexts on servers
//! of interest." A context prefix is the part of a CSname parsed by this
//! server to decide where to forward the request; the syntax is `[prefix]`
//! with the prefix terminated by the closing `]`.
//!
//! Entries are either *direct* — a concrete (server-pid, context-id) pair —
//! or *logical*: a (service, well-known-context) pair re-resolved via
//! `GetPid` on every use (paper §6), which is how generic services get
//! character string names and how rebinding after a server crash works
//! without updating the prefix table.
//!
//! With [`DegradedPrefixConfig`] the server also resolves *degraded*: when
//! forwarding through a direct entry times out (the bound host is alive
//! yet unreachable — a partition, which the kernel cannot tell from a
//! crash), the prefix is marked suspect for a TTL, and while suspect a
//! `QueryName` for the bare prefix is answered straight from the table
//! with the staleness flag set ([`vproto::fields::W_STALENESS`]) instead
//! of timing out again. Non-authoritative replicas (`authoritative:
//! false`) always answer from their table this way and can join a
//! multicast replica group, which is the client's last-resort fallback.

use crate::common::{
    open_directory, read, release, reply, reply_descriptor, serve, Answer, Call, Handle, Handled,
    Server,
};
use crate::shard::Name;
use crate::suspect::SuspectSet;
use crate::sync::{ApplyOutcome, MerkleWalk, SyncTable, TombstoneOutcome, VersionedEntry};
use bytes::Bytes;
use std::convert::Infallible;
use std::time::Duration;
use vio::InstanceTable;
use vkernel::{GroupId, Ipc, IpcError};
use vnaming::{CsRequest, DirectoryBuilder};
use vproto::{
    fields, ContextId, ContextPair, CsName, DescriptorExt, DescriptorTag, Message,
    ObjectDescriptor, OpenMode, Pid, ReplyCode, RequestCode, ResolveAnswer, ResolveBatchMsg,
    ResolveBatchReply, Scope, ServiceId, SyncBinding, SyncDeltaMsg, SyncDigestMsg, SyncEntry,
    SyncProbeMsg, SyncProbeReply, SyncStatusRec, RESOLVE_NOT_FOUND, RESOLVE_NO_SERVER, RESOLVE_OK,
};

/// One prefix table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PrefixTarget {
    /// Forward to a concrete (server, context) pair.
    Direct(ContextPair),
    /// Re-resolve the service via `GetPid` on each use (paper §6).
    Logical {
        service: ServiceId,
        context: ContextId,
    },
}

impl PrefixTarget {
    /// The wire form carried in anti-entropy deltas.
    fn to_binding(self) -> SyncBinding {
        match self {
            PrefixTarget::Direct(pair) => SyncBinding {
                logical: false,
                target: pair.server.raw(),
                context: pair.context.raw(),
            },
            PrefixTarget::Logical { service, context } => SyncBinding {
                logical: true,
                target: service.raw(),
                context: context.raw(),
            },
        }
    }

    /// Where requests through this entry go right now. A logical entry is
    /// re-resolved via `GetPid` on every use (paper §6) — the binding names
    /// a service, not a pid, which is what lets it survive server
    /// restarts; `None` when no server currently offers the service.
    fn locate(self, ctx: &dyn Ipc) -> Option<ContextPair> {
        match self {
            PrefixTarget::Direct(pair) => Some(pair),
            PrefixTarget::Logical { service, context } => Some(ContextPair::new(
                ctx.get_pid(service, Scope::Both)?,
                context,
            )),
        }
    }

    /// The resolvable form of a wire binding.
    fn from_binding(b: &SyncBinding) -> Self {
        if b.logical {
            PrefixTarget::Logical {
                service: ServiceId::new(b.target),
                context: ContextId::new(b.context),
            }
        } else {
            PrefixTarget::Direct(ContextPair::new(
                Pid::from_raw(b.target),
                ContextId::new(b.context),
            ))
        }
    }
}

/// The reply to a `SyncPull`/`SyncGossip` whose round completed. The three
/// counts are advisory message words and saturate like every other sync
/// count ([`Message::set_count`]) — a cold replica adopting 70 000 entries
/// reports 65 535, not 4 464; the exact cumulative figures are the u32
/// fields of `SyncStatusRec`.
fn round_reply(out: ApplyOutcome, table: &SyncTable, via_gossip: bool) -> Message {
    let mut m = Message::ok();
    m.set_count(fields::W_SYNC_ADOPTED, out.adopted as usize)
        .set_count(fields::W_SYNC_DROPPED, out.dropped_live as usize)
        .set_count(fields::W_SYNC_PROMOTED, out.promoted as usize)
        .set_word32(fields::W_SYNC_EPOCH_LO, table.max_epoch() as u32)
        .set_word(fields::W_SYNC_GOSSIP, u16::from(via_gossip));
    m
}

/// Degraded-mode resolution settings for a [`prefix_server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradedPrefixConfig {
    /// How long a prefix stays suspect after a forward times out. While
    /// suspect, bare-prefix `QueryName`s are answered from the table
    /// (staleness flagged) instead of re-forwarding; when the TTL
    /// expires, the next request probes the bound server again.
    pub suspect_ttl: Duration,
    /// `true` (the default) forwards first and only answers degraded
    /// while a suspicion is armed. `false` marks a *replica*: every
    /// bare-prefix `QueryName` is answered from the table with the
    /// staleness flag — the replica never claims authority.
    pub authoritative: bool,
    /// A multicast group to join at boot, so clients can reach any
    /// surviving replica with one `send_group` when the authoritative
    /// server is unreachable.
    pub replica_group: Option<GroupId>,
    /// The authoritative peer this server reconciles against when it
    /// receives a `SyncPull`: one digest → delta → apply round per pull.
    /// `None` (the default) disables anti-entropy — a `SyncPull` answers
    /// `NoServer`.
    pub sync_peer: Option<Pid>,
    /// **Test-only differential oracle.** `true` drives this server's
    /// `SyncPull`/`SyncGossip` rounds over the legacy whole-table
    /// flat-digest path instead of the Merkle walk; responders always
    /// serve both. The harnesses flip this to prove the two paths leave
    /// byte-identical tables — production configs leave it `false`.
    pub flat_sync: bool,
}

impl Default for DegradedPrefixConfig {
    fn default() -> Self {
        DegradedPrefixConfig {
            suspect_ttl: Duration::from_millis(50),
            authoritative: true,
            replica_group: None,
            sync_peer: None,
            flat_sync: false,
        }
    }
}

/// Configuration for a [`prefix_server`] process.
#[derive(Debug, Clone)]
pub struct PrefixConfig {
    /// Registration scope for [`ServiceId::CONTEXT_PREFIX`]. Per-user
    /// prefix servers are `Local` — each workstation runs its own
    /// (paper §6).
    pub scope: Scope,
    /// Direct prefixes installed at boot — the user's "login script"
    /// bindings, which is what lets a *restarted* prefix server come back
    /// with its soft-state table already rebuilt (EXP-11 recovery).
    ///
    /// Consumed at boot: each name is dropped once the table has copied
    /// it, so the server keeps no second copy of the list.
    pub preload_direct: Vec<(String, ContextPair)>,
    /// Logical prefixes installed at boot: (prefix, service,
    /// well-known-context), re-resolved via `GetPid` on each use. Consumed
    /// at boot like `preload_direct`.
    pub preload_logical: Vec<(String, ServiceId, ContextId)>,
    /// Degraded-mode resolution; `None` (the default) times out like the
    /// paper's protocol.
    pub degraded: Option<DegradedPrefixConfig>,
}

impl Default for PrefixConfig {
    fn default() -> Self {
        PrefixConfig {
            scope: Scope::Local,
            preload_direct: Vec::new(),
            preload_logical: Vec::new(),
            degraded: None,
        }
    }
}

/// Estimated resident size of a prefix table with the given entries —
/// the reproduction's analogue of the paper's "4.5 kilobytes of code plus
/// 2.6 kilobytes of data" (§6), reported by EXP-5.
pub fn prefix_footprint_bytes(n_entries: usize, total_name_bytes: usize) -> usize {
    use std::mem::size_of;
    // Per entry: a name handle (the size of a `Vec` header), the binding,
    // and 16 bytes for the stored hash and epoch; plus the name bytes. An
    // estimate of the useful payload, not of the slot array's slack.
    n_entries * (size_of::<Vec<u8>>() + size_of::<ContextPair>() + size_of::<u32>() * 2 + 16)
        + total_name_bytes
}

struct PrefixServer {
    /// The one copy of the bindings. The server is its only reader and its
    /// only writer, one request at a time (paper §5.3–5.4), so a resolve
    /// reads it as the last handler left it, never half-way through a
    /// sync round; and since nothing else holds its pages, a define or a
    /// tombstone is a store into its slot.
    table: SyncTable,
    /// Directory listings only: a prefix is not opened for I/O.
    instances: InstanceTable<Handle<Infallible>>,
    /// Suspect prefixes, indexed by name and by TTL expiry.
    suspects: SuspectSet,
    /// Cumulative anti-entropy bookkeeping, kept in the record `SyncStatus`
    /// reports it in; the table-derived fields are filled in at reply time.
    counters: SyncStatusRec,
    degraded: Option<DegradedPrefixConfig>,
    authoritative: bool,
    /// The prefix of the request forwarded last, held as the table's own
    /// name for it, and its entry: what the kernel's verdict on that
    /// forward is about.
    forwarding: Option<(Name, PrefixTarget)>,
}

/// Runs a context prefix server until the domain shuts down.
///
/// Implements the optional add/delete context-name operations (paper §5.7),
/// routing of every bracketed CSname request, a context directory of the
/// prefixes themselves, and the inverse (server, context) → `[prefix]`
/// mapping.
pub fn prefix_server(ctx: &dyn Ipc, config: PrefixConfig) {
    let PrefixConfig {
        scope,
        preload_direct,
        preload_logical,
        degraded,
    } = config;
    // An authoritative server's preloads are first-hand: stamped at boot
    // time and verified. A replica's preloads are hearsay (epoch 0,
    // unverified) until a sync round or a successful probe vouches for
    // them.
    let authoritative = degraded.is_none_or(|d| d.authoritative);
    let boot_ns = ctx.now().as_nanos() as u64;
    let mut table = SyncTable::new();
    let direct = preload_direct
        .into_iter()
        .map(|(name, pair)| (name, PrefixTarget::Direct(pair)));
    let logical = preload_logical
        .into_iter()
        .map(|(name, service, context)| (name, PrefixTarget::Logical { service, context }));
    for (name, target) in direct.chain(logical) {
        let b = target.to_binding();
        if authoritative {
            table.define(name, b, boot_ns);
        } else {
            table.preload(name, b);
        }
    }
    let mut server = PrefixServer {
        table,
        instances: InstanceTable::new(),
        suspects: SuspectSet::default(),
        counters: SyncStatusRec::default(),
        degraded,
        authoritative,
        forwarding: None,
    };
    ctx.set_pid(ServiceId::CONTEXT_PREFIX, scope);
    if let Some(group) = degraded.and_then(|d| d.replica_group) {
        let _ = ctx.join_group(group);
    }
    serve(ctx, &mut server);
}

impl Server for PrefixServer {
    /// Sweeps expired suspicions on every request — a suspicion whose TTL
    /// elapsed must clear even if no query for that prefix ever arrives
    /// again (any message wakes the sweep). The TTL-ordered index pops
    /// exactly the expired entries: O(expired), not O(armed). With none
    /// armed there is nothing to expire, and the clock is not read.
    fn arrived(&mut self, ctx: &dyn Ipc) {
        if let Some(now_ns) = self.suspicion_clock(ctx) {
            self.counters.suspects_expired += self.suspects.expire(now_ns);
        }
    }

    /// Routes a CSname request: a definition, an operation on the prefix
    /// context itself, or — the hot path — a forward through the table.
    fn name_op(&mut self, call: &mut Call, req: CsRequest) -> Handled {
        let ctx = call.ctx;
        let msg = call.msg;
        let remaining = req.remaining();
        // Add/delete with a bracketed name and a nonempty remainder are
        // meant for the server behind the prefix (e.g. creating a
        // cross-server link in a file server directory) — those fall
        // through to forwarding below.
        let op = msg.request_code();
        let is_definition = matches!(
            op,
            Some(RequestCode::AddContextName) | Some(RequestCode::DeleteContextName)
        ) && match CsName::from(remaining).parse_prefix() {
            Some(p) => remaining[p.rest_index..].is_empty(),
            None => true,
        };
        match op {
            Some(RequestCode::AddContextName) if is_definition => {
                // The optional definition operation (paper §5.7): bind a
                // prefix to an existing context.
                let name = strip_brackets(remaining);
                if name.is_empty() || name.contains(&b'[') || name.contains(&b']') {
                    return Err(ReplyCode::IllegalName);
                }
                let target = if msg.word(fields::W_LOGICAL) != 0 {
                    PrefixTarget::Logical {
                        service: ServiceId::new(msg.word32(fields::W_TARGET_PID_LO)),
                        context: ContextId::new(msg.word32(fields::W_TARGET_CTX_LO)),
                    }
                } else {
                    PrefixTarget::Direct(ContextPair::new(
                        msg.pid_at(fields::W_TARGET_PID_LO),
                        ContextId::new(msg.word32(fields::W_TARGET_CTX_LO)),
                    ))
                };
                let now_ns = ctx.now().as_nanos() as u64;
                self.table.define(name, target.to_binding(), now_ns);
                return reply(ReplyCode::Ok);
            }
            Some(RequestCode::DeleteContextName) if is_definition => {
                // Deletion is a stamped tombstone, not a removal: sync
                // rounds must propagate the delete rather than resurrect the
                // binding. A name this table never held is a no-op —
                // nothing to propagate, and stamping anyway would grow the
                // table without bound under delete-of-unknown churn.
                let name = strip_brackets(remaining);
                let now_ns = ctx.now().as_nanos() as u64;
                return match self.table.tombstone(name, now_ns) {
                    TombstoneOutcome::DroppedLive => reply(ReplyCode::Ok),
                    TombstoneOutcome::AlreadyDead | TombstoneOutcome::Unknown => {
                        Err(ReplyCode::NotFound)
                    }
                };
            }
            _ => {}
        }

        if remaining.is_empty() {
            // The name denotes the prefix context itself.
            return self.own_context(call, &req);
        }
        let parsed = CsName::from(remaining);
        let (prefix, rest_index) = match parsed.parse_prefix() {
            Some(p) => (p.prefix, p.rest_index),
            // Not a bracketed name: this server defines no other bindings.
            None => return Err(ReplyCode::IllegalName),
        };

        // The measured cost of the paper's §6 table lives here: parsing the
        // prefix, scanning the table, rewriting and forwarding the message.
        if let Some(net) = ctx.net() {
            ctx.charge(net.params().t_prefix_processing);
        }

        // The hot path: one hashed probe of the table. A tombstone answers
        // like a miss.
        let Some((
            name,
            VersionedEntry {
                binding: Some(binding),
                verified,
                ..
            },
        )) = self.table.lookup_named(prefix)
        else {
            return Err(ReplyCode::NotFound);
        };
        // The table's own name, kept for the verdict on the forward: a copy
        // or a reference-count bump, never an allocation.
        let name = name.clone();
        let target = PrefixTarget::from_binding(&binding);

        let binding_query =
            op == Some(RequestCode::QueryName) && remaining[rest_index..].is_empty();
        if binding_query {
            self.count_binding_queries(1);
        }

        // Degraded-mode resolution: a bare-prefix `QueryName` asks only for
        // the binding, which this table already knows. While the bound host
        // is suspect (a recent forward timed out — unreachable, not
        // necessarily dead), or always on a non-authoritative replica,
        // answer it from the table with the staleness flag set instead of
        // burning another retransmission ladder. Only direct entries
        // qualify: a logical entry's authority is `GetPid`, which has its
        // own recovery. An entry the authority has vouched for (verified,
        // no suspicion armed) answers *fresh*: anti-entropy is what lets a
        // replica hand out first-class bindings without a probe to the
        // authority.
        if let Some(d) = self.degraded {
            let suspect_armed = self
                .suspicion_clock(ctx)
                .is_some_and(|now_ns| self.suspects.is_armed(prefix, now_ns));
            if binding_query && (suspect_armed || !d.authoritative) {
                if let PrefixTarget::Direct(pair) = target {
                    let staleness = u16::from(!verified || suspect_armed);
                    let mut m = Message::ok();
                    m.set_context_id(pair.context);
                    m.set_pid_at(fields::W_PID_LO, pair.server);
                    m.set_word(fields::W_STALENESS, staleness);
                    return Ok(Answer::Reply(m));
                }
            }
        }

        let to = target.locate(ctx).ok_or(ReplyCode::NoServer)?;
        let index = req.index + rest_index;
        self.forwarding = Some((name, target));
        Ok(Answer::Forward { to, index })
    }

    fn op(&mut self, call: &mut Call) -> Handled {
        let ctx = call.ctx;
        let msg = call.msg;
        match msg.request_code() {
            Some(RequestCode::ReadInstance) => read(call, &self.instances, |n| match *n {}),
            Some(RequestCode::ReleaseInstance) => release(call, &mut self.instances),
            Some(RequestCode::GetContextName) => {
                // Inverse mapping: (server, context) → "[prefix]" (§5.7).
                let server = msg.pid_at(fields::W_TARGET_PID_LO);
                let target_ctx = ContextId::new(msg.word32(fields::W_TARGET_CTX_LO));
                let looking_for = ContextPair::new(server, target_ctx);
                // Several names may be bound to the pair: the first in name
                // order answers.
                let found = self.table.first_live_name(|b| {
                    matches!(PrefixTarget::from_binding(b),
                        PrefixTarget::Direct(pair) if pair == looking_for)
                });
                // Paper §6: "there is no guarantee that there is an inverse
                // mapping".
                let name = found.ok_or(ReplyCode::NotFound)?;
                let mut out = Vec::with_capacity(name.len() + 2);
                out.push(b'[');
                out.extend_from_slice(name);
                out.push(b']');
                Ok(Answer::Data(Message::ok(), out))
            }
            Some(RequestCode::Echo) => Ok(Answer::Reply(msg)),
            Some(RequestCode::ResolveBatch) => self.resolve_batch(call),
            Some(RequestCode::SyncPull) => {
                // One anti-entropy round against the configured authority:
                // digest out, delta back, apply atomically. A successful
                // round is the authority vouching for the whole table, so
                // armed suspicions clear, everything becomes verified, and
                // the synced watermark advances to the authority's epoch.
                // If the authority is unreachable (partitioned or crashed)
                // and a replica group is configured, fall back to one
                // gossip round against a peer replica — adopted entries
                // stay Suspect and the watermark does not move.
                let (d, peer) = self
                    .degraded
                    .and_then(|d| Some((d, d.sync_peer?)))
                    .ok_or(ReplyCode::NoServer)?;
                let counters = &mut self.counters;
                let table = &mut self.table;
                let applied =
                    authority_round(ctx, table, peer, d.flat_sync, counters, &mut self.suspects)
                        .map(|out| (out, false))
                        .or_else(|| {
                            let group = d.replica_group?;
                            let out = gossip_round(ctx, table, group, d.flat_sync, counters)?;
                            Some((out, true))
                        });
                // Nothing was applied: the round is atomic, the peer just
                // wasn't reachable this time. That is a transient condition,
                // so answer `Retry` — `NoServer` is reserved for
                // anti-entropy not being configured at all.
                let (out, via_gossip) = applied.ok_or(ReplyCode::Retry)?;
                Ok(Answer::Reply(round_reply(out, &self.table, via_gossip)))
            }
            Some(RequestCode::SyncGossip) => {
                if msg.word(fields::W_SYNC_PHASE) == 1 {
                    // Probe (multicast on the replica group): group replies
                    // carry no payload, so just volunteer this server's pid
                    // — the prober runs the digest round unicast.
                    let mut m = Message::ok();
                    m.set_pid_at(fields::W_PID_LO, ctx.my_pid());
                    return Ok(Answer::Reply(m));
                }
                // Trigger (unicast): run one gossip round now.
                let (d, group) = self
                    .degraded
                    .and_then(|d| Some((d, d.replica_group?)))
                    .ok_or(ReplyCode::NoServer)?;
                // `Retry`: transient, no peer answered this round's probe.
                let out =
                    gossip_round(ctx, &mut self.table, group, d.flat_sync, &mut self.counters)
                        .ok_or(ReplyCode::Retry)?;
                Ok(Answer::Reply(round_reply(out, &self.table, true)))
            }
            Some(RequestCode::SyncDigest) => {
                let payload = call.data()?;
                let digest = SyncDigestMsg::decode(&payload).map_err(|_| ReplyCode::BadArgs)?;
                // The flat-digest oracle's responder: the digest doubles as
                // the sender's watermark ack, exactly as a probe does on the
                // Merkle path.
                let now_ns = ctx.now().as_nanos() as u64;
                let (delta, gc_dropped) = self.table.answer_digest(
                    &digest,
                    self.authoritative,
                    Some(call.from.raw()),
                    now_ns,
                );
                self.counters.gc_dropped += gc_dropped;
                let mut m = Message::ok();
                m.set_count(fields::W_SYNC_COUNT, delta.entries.len());
                Ok(Answer::Data(m, delta.encode()))
            }
            Some(RequestCode::SyncProbe) => {
                // One step of a puller's Merkle walk. The responder's role
                // mirrors the flat `SyncDigest` handler: an authoritative
                // server records the probe's watermark and GCs behind the
                // fresh horizon on *every* probe (both operations are
                // idempotent and monotone, so a multi-probe round leaves
                // the same state one digest would), then answers child
                // hashes for the probed interior nodes and the delta for
                // the probed leaf buckets.
                let payload = call.data()?;
                let probe = SyncProbeMsg::decode(&payload).map_err(|_| ReplyCode::BadArgs)?;
                let now_ns = ctx.now().as_nanos() as u64;
                let (reply, gc_dropped) = self.table.answer_probe(
                    &probe,
                    self.authoritative,
                    Some(call.from.raw()),
                    now_ns,
                );
                self.counters.gc_dropped += gc_dropped;
                let mut m = Message::ok();
                m.set_count(fields::W_SYNC_COUNT, reply.entries.len())
                    .set_count(fields::W_SYNC_NODES, reply.nodes.len());
                Ok(Answer::Data(m, reply.encode()))
            }
            Some(RequestCode::SyncStatus) => {
                let table = &mut self.table;
                let rec = SyncStatusRec {
                    epoch: table.max_epoch(),
                    live_entries: table.live_len() as u32,
                    tombstones: table.tombstone_len() as u32,
                    suspects: self.suspects.len() as u32,
                    table_hash: table.table_hash(),
                    watermark: table.watermark(),
                    gc_horizon: table.gc_horizon(),
                    ..self.counters
                };
                Ok(Answer::Data(Message::ok(), rec.encode()))
            }
            _ => Err(ReplyCode::UnknownRequest),
        }
    }

    fn forwarded(&mut self, ctx: &dyn Ipc, verdict: Result<(), IpcError>) {
        let Some((prefix, target)) = self.forwarding.take() else {
            return;
        };
        match verdict {
            Err(IpcError::NoProcess) => {
                // The bound server is permanently gone (not a transient loss
                // timeout): a direct entry is now a stale binding, so
                // tombstone it — the next definition re-binds, and sync
                // rounds propagate the removal. Logical entries stay; they
                // re-resolve via `GetPid` and survive restarts by design.
                if matches!(target, PrefixTarget::Direct(_)) {
                    let now_ns = ctx.now().as_nanos() as u64;
                    self.table.tombstone(&prefix, now_ns);
                }
            }
            Err(IpcError::Timeout) => {
                // The bound host did not answer the kernel's full ladder: it
                // may be alive yet unreachable (a partition). Arm a suspicion
                // so binding queries are served degraded until the TTL
                // expires — then the next request probes again. The *current*
                // request is already resolved as a timeout for its sender;
                // the client's retry is what lands on the degraded path.
                if let Some(d) = self.degraded {
                    let until = ctx.now() + d.suspect_ttl;
                    self.suspects.arm(prefix.to_vec(), until.as_nanos() as u64);
                }
            }
            // The path works again; any armed suspicion is disproved.
            Ok(()) => self.suspects.disarm(&prefix),
            Err(_) => {}
        }
    }
}

impl PrefixServer {
    /// Counts `n` binding queries answered from the table. Saturating, never
    /// wrapping: the counter is 32 bits on the wire and readers subtract two
    /// readings of it, so it must not fall back below an earlier one.
    fn count_binding_queries(&mut self, n: usize) {
        let n = u32::try_from(n).unwrap_or(u32::MAX);
        self.counters.binding_queries = self.counters.binding_queries.saturating_add(n);
    }

    /// The virtual or real time to test suspicions against: `None` while
    /// none is armed, when every name is unsuspected at any time — so a
    /// server that has armed nothing never reads the clock.
    fn suspicion_clock(&self, ctx: &dyn Ipc) -> Option<u64> {
        (!self.suspects.is_empty()).then(|| ctx.now().as_nanos() as u64)
    }

    /// Answers one `ResolveBatch` request from the table.
    ///
    /// The whole batch is resolved inside this one handler, so it observes
    /// one table state: no write or sync round runs between two of its
    /// names. The batched probe ([`SyncTable::resolve_batch`]) overlaps the
    /// names' cache misses instead of taking them one after another.
    fn resolve_batch(&mut self, call: &Call) -> Handled {
        let ctx = call.ctx;
        let now_ns = self.suspicion_clock(ctx);
        let payload = call.data()?;
        let names = ResolveBatchMsg::decode_names(&payload).map_err(|_| ReplyCode::BadArgs)?;
        self.count_binding_queries(names.len());
        let answers: Vec<ResolveAnswer> = self
            .table
            .resolve_batch(&names)
            .into_iter()
            .zip(&names)
            .map(|(hit, name)| {
                let answer = |status, pid, context, staleness| ResolveAnswer {
                    status,
                    pid,
                    context,
                    staleness,
                };
                let Some(entry) = hit else {
                    return answer(RESOLVE_NOT_FOUND, 0, 0, 0);
                };
                let armed = now_ns.is_some_and(|now_ns| self.suspects.is_armed(name, now_ns));
                let staleness = u16::from(!entry.verified || armed);
                match PrefixTarget::from_binding(&entry.binding).locate(ctx) {
                    Some(to) => answer(RESOLVE_OK, to.server.raw(), to.context.raw(), staleness),
                    None => answer(RESOLVE_NO_SERVER, 0, 0, staleness),
                }
            })
            .collect();
        let reply = ResolveBatchReply { answers };
        let mut m = Message::ok();
        m.set_count(fields::W_SYNC_COUNT, reply.answers.len());
        Ok(Answer::Data(m, reply.encode()))
    }

    /// Operations on the prefix server's own (single) context: directory
    /// listing, query, mapping.
    fn own_context(&mut self, call: &mut Call, req: &CsRequest) -> Handled {
        let table = &self.table;
        match call.msg.request_code() {
            Some(RequestCode::CreateInstance)
                if matches!(
                    call.msg.mode(),
                    Some(OpenMode::Directory) | Some(OpenMode::Read)
                ) =>
            {
                let mut b = if req.extra.is_empty() {
                    DirectoryBuilder::new()
                } else {
                    DirectoryBuilder::with_pattern(req.extra.clone())
                };
                for (name, binding, _) in table.live_iter() {
                    let (pair, logical) = match PrefixTarget::from_binding(&binding) {
                        PrefixTarget::Direct(pair) => (pair, 0u32),
                        PrefixTarget::Logical { service, context } => {
                            (ContextPair::new(Pid::NULL, context), service.raw())
                        }
                    };
                    let d = ObjectDescriptor::new(
                        DescriptorTag::ContextPrefix,
                        CsName::from(name.to_vec()),
                    )
                    .with_ext(DescriptorExt::ContextPrefix {
                        target: pair,
                        logical_service: logical,
                    });
                    b.push(&d);
                }
                open_directory(call, &mut self.instances, b.finish(), ContextId::DEFAULT)
            }
            Some(RequestCode::QueryName) => {
                let mut m = Message::ok();
                m.set_context_id(ContextId::DEFAULT);
                m.set_pid_at(fields::W_PID_LO, call.ctx.my_pid());
                Ok(Answer::Reply(m))
            }
            Some(RequestCode::QueryObject) => reply_descriptor(
                &ObjectDescriptor::new(DescriptorTag::Directory, CsName::from("[]"))
                    .with_size(table.live_len() as u64)
                    .with_ext(DescriptorExt::Directory {
                        context: ContextId::DEFAULT,
                        entries: table.live_len() as u32,
                    }),
            ),
            _ => Err(ReplyCode::UnknownRequest),
        }
    }
}

/// One pull round against the configured authority: fetch the delta, then
/// adopt it as vouched.
///
/// On success the authority has vouched for the whole table: everything
/// becomes verified, armed suspicions clear, the synced watermark advances
/// to the authority's epoch header, and tombstones at or below the
/// advertised GC horizon are collected. On any failure (unreachable peer,
/// error reply, undecodable payload) nothing changes — the round is atomic.
fn authority_round(
    ctx: &dyn Ipc,
    table: &mut SyncTable,
    peer: Pid,
    flat_sync: bool,
    counters: &mut SyncStatusRec,
    suspects: &mut SuspectSet,
) -> Option<ApplyOutcome> {
    let (delta, epoch, horizon) = fetch_delta(ctx, table, peer, flat_sync, counters)?;
    let (out, gc_dropped) = table.adopt(&delta, epoch, horizon, true);
    counters.gc_dropped += gc_dropped;
    counters.rounds += 1;
    counters.adopted += out.adopted;
    counters.dropped += out.dropped_live;
    counters.promoted += out.promoted;
    suspects.clear();
    Some(out)
}

/// One replica↔replica gossip round (Grapevine-style: peers reconcile
/// without a live authority). Multicasts a phase-1 probe on the replica
/// group, then fetches the delta unicast from the first peer that answers.
/// Adopted entries stay unverified — *Suspect*, served with the staleness
/// flag — until an authority round vouches for them, and the synced
/// watermark does not move: gossip spreads data, only the authority
/// spreads certainty.
fn gossip_round(
    ctx: &dyn Ipc,
    table: &mut SyncTable,
    group: GroupId,
    flat_sync: bool,
    counters: &mut SyncStatusRec,
) -> Option<ApplyOutcome> {
    let peer = gossip_peer(ctx, group)?;
    let (delta, epoch, horizon) = fetch_delta(ctx, table, peer, flat_sync, counters)?;
    let (out, _) = table.adopt(&delta, epoch, horizon, false);
    counters.gossip_rounds += 1;
    counters.gossip_adopted += out.adopted;
    Some(out)
}

/// Solicits a gossip peer: multicasts a phase-1 `SyncGossip` probe on the
/// replica group and returns the first pid that volunteers (rejecting a
/// null pid and this server itself).
fn gossip_peer(ctx: &dyn Ipc, group: GroupId) -> Option<Pid> {
    let mut probe = Message::request(RequestCode::SyncGossip);
    probe.set_word(fields::W_SYNC_PHASE, 1);
    let reply = ctx.send_group(group, probe, Bytes::new()).ok()?;
    if !reply.msg.reply_code().is_ok() {
        return None;
    }
    let peer = reply.msg.pid_at(fields::W_PID_LO);
    if peer == Pid::NULL || peer == ctx.my_pid() {
        return None;
    }
    Some(peer)
}

/// The most reply bytes a puller accepts in one exchange of a sync round:
/// room for a delta of some 10⁵ entries (a level of child hashes at 10⁶
/// names is 8.6 MB). A peer that answers with more fails the round — it
/// is retried, nothing is applied — rather than growing the puller without
/// bound.
const SYNC_RECV_CAP: usize = 1 << 24;

/// One request/reply exchange of a sync round: the reply payload, or
/// `None` for an unreachable peer or an error reply.
fn sync_call(ctx: &dyn Ipc, peer: Pid, req: Message, payload: Vec<u8>) -> Option<Bytes> {
    let reply = ctx
        .send(peer, req, Bytes::from(payload), SYNC_RECV_CAP)
        .ok()?;
    reply.msg.reply_code().is_ok().then_some(reply.data)
}

/// Fetches from `peer` the delta that brings `table` up to date, with the
/// responder's epoch/horizon header — the one step in which a round on the
/// Merkle path differs from one on the flat-digest oracle. The table is
/// only read; any unreachable peer, error reply, or undecodable payload
/// kills the whole round and the caller applies nothing.
///
/// The Merkle path sends `SyncProbe` requests until the walk's diverging
/// frontier drains, so its cost is proportional to divergence (an in-sync
/// round is a single root-hash probe). The oracle (`flat_sync`, test-only)
/// ships the whole-table digest in one `SyncDigest`.
fn fetch_delta(
    ctx: &dyn Ipc,
    table: &mut SyncTable,
    peer: Pid,
    flat_sync: bool,
    counters: &mut SyncStatusRec,
) -> Option<(Vec<SyncEntry>, u64, u64)> {
    if flat_sync {
        let digest = SyncDigestMsg {
            watermark: table.watermark(),
            entries: table.digest(),
        };
        let mut req = Message::request(RequestCode::SyncDigest);
        req.set_count(fields::W_SYNC_COUNT, digest.entries.len());
        let delta = SyncDeltaMsg::decode(&sync_call(ctx, peer, req, digest.encode())?).ok()?;
        return Some((delta.entries, delta.epoch, delta.horizon));
    }
    let mut walk = MerkleWalk::start();
    while let Some(probe) = walk.next_probe(table) {
        let mut req = Message::request(RequestCode::SyncProbe);
        req.set_count(fields::W_SYNC_NODES, probe.nodes.len() + probe.leaves.len());
        let reply = SyncProbeReply::decode(&sync_call(ctx, peer, req, probe.encode())?).ok()?;
        counters.probe_rounds += 1;
        walk.absorb(table, &reply);
    }
    Some(walk.finish())
}

fn strip_brackets(name: &[u8]) -> &[u8] {
    if name.first() == Some(&b'[') && name.last() == Some(&b']') && name.len() >= 2 {
        &name[1..name.len() - 1]
    } else {
        name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binding_query_count_saturates() {
        let mut server = PrefixServer {
            table: SyncTable::new(),
            instances: InstanceTable::new(),
            suspects: SuspectSet::default(),
            counters: SyncStatusRec::default(),
            degraded: None,
            authoritative: true,
            forwarding: None,
        };
        server.count_binding_queries(64);
        assert_eq!(server.counters.binding_queries, 64);
        server.counters.binding_queries = u32::MAX - 1;
        server.count_binding_queries(64);
        assert_eq!(server.counters.binding_queries, u32::MAX);
        server.count_binding_queries(1);
        assert_eq!(server.counters.binding_queries, u32::MAX);
        server.counters.binding_queries = 7;
        server.count_binding_queries(usize::MAX);
        assert_eq!(server.counters.binding_queries, u32::MAX);
    }
}
