//! The [`NameClient`] run-time library.

use bytes::Bytes;
use std::cell::{Cell, RefCell};
use vio::{FileHandle, IoError, OpenOutcome};
use vkernel::{GroupId, Ipc, IpcError};
use vnaming::{build_csname_request, BackoffPolicy};
use vproto::{
    fields, name_word, ContextId, ContextPair, CsName, Message, ObjectDescriptor, OpenMode, Pid,
    ReplyCode, RequestCode, ResolveBatchMsg, ResolveBatchReply, Scope, ServiceId, SyncStatusRec,
    RESOLVE_NO_SERVER, RESOLVE_OK,
};

fn check(code: ReplyCode) -> Result<(), IoError> {
    if code.is_ok() {
        Ok(())
    } else {
        Err(IoError::Server(code))
    }
}

/// Whether a failed name transaction is worth retrying: transport-level
/// failures (a loss timeout, a vanished or crashed server, an unanswered
/// multicast) and the transient server answers — "no server for this
/// service" and the explicit `Retry` a sync round answers when its peer was
/// unreachable — are. Definitive server answers (not found, access, ...),
/// a reply too large for the receive buffer, and domain teardown are not:
/// a retry would meet them again.
fn retryable(err: &IoError) -> bool {
    match err {
        IoError::Ipc(e) => matches!(
            e,
            IpcError::Timeout | IpcError::NoProcess | IpcError::ProcessDied | IpcError::NoReply
        ),
        IoError::Server(code) => matches!(code, ReplyCode::NoServer | ReplyCode::Retry),
    }
}

/// Reads a prefix server's `SyncStatus` record — its versioned-table
/// summary (epoch, entry counts, table hash, watermark, GC horizon,
/// sync/gossip counters) — in one transaction from `ipc`. `None` if the
/// server cannot be reached or the record cannot be decoded.
pub fn sync_status(ipc: &dyn Ipc, server: Pid) -> Option<SyncStatusRec> {
    let reply = ipc
        .send(
            server,
            Message::request(RequestCode::SyncStatus),
            Bytes::new(),
            4096,
        )
        .ok()?;
    if !reply.msg.reply_code().is_ok() {
        return None;
    }
    SyncStatusRec::decode(&reply.data).ok()
}

/// The standard run-time routines of paper §6, bound to one process and one
/// current context.
///
/// # Examples
///
/// See the `quickstart` example and the crate-level docs; construction
/// requires a running domain with a prefix server and at least one CSNH
/// server.
pub struct NameClient<'a> {
    ipc: &'a dyn Ipc,
    prefix_server: Cell<Option<Pid>>,
    current: ContextPair,
    cache: Option<RefCell<NameCache>>,
    retry: BackoffPolicy,
    retry_stats: Cell<RetryStats>,
    degraded: bool,
    replica_group: Cell<Option<GroupId>>,
    degraded_stats: Cell<DegradedStats>,
}

/// How much a resolved binding should be trusted (degraded-mode naming).
///
/// The kernel cannot distinguish a dead host from an alive-but-unreachable
/// one; a [`Suspect`](Staleness::Suspect) binding is the naming layer's
/// honest answer during that ambiguity — served from a cache or a
/// non-authoritative replica rather than the authority, and possibly stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Staleness {
    /// Answered by the authoritative server along a live path.
    Fresh,
    /// Served from a cache or replica while the authority is unreachable.
    Suspect,
}

/// A resolved prefix binding plus how much to trust it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Binding {
    /// The (server, context) pair the name maps to.
    pub target: ContextPair,
    /// Whether the authority vouched for it.
    pub staleness: Staleness,
}

/// One per-name outcome of [`NameClient::resolve_batch`].
///
/// `NotFound` and `NoServer` are per-name conditions, not transaction
/// failures: one unmapped prefix must not sink the other 999 answers in
/// the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOutcome {
    /// The prefix resolved; the binding and its trust level.
    Bound(Binding),
    /// The server's table holds no live binding for the prefix.
    NotFound,
    /// A logical binding whose service has no registered provider.
    NoServer,
}

/// Counters for degraded-mode resolution (EXP-12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DegradedStats {
    /// Bindings returned tagged [`Staleness::Suspect`].
    pub suspect_bindings: u64,
    /// Resolutions rescued by the client-side name cache.
    pub cache_fallbacks: u64,
    /// Resolutions rescued by a multicast to the replica group.
    pub replica_fallbacks: u64,
    /// Replica-rescued resolutions that came back [`Staleness::Fresh`]:
    /// the replica's binding was vouched for by anti-entropy with the
    /// authority (verified, no suspicion armed), so nothing degrades.
    pub fresh_from_replica: u64,
    /// Resolutions that failed even after every degraded fallback.
    pub authority_failures: u64,
}

/// Client-side prefix→context cache — the design the paper *rejects* in
/// §2.2 ("Caching the name in the client would introduce inconsistency
/// problems and only benefit the few applications that reuse names").
/// Implemented here, off by default, so EXP-10 can measure both halves of
/// that sentence.
#[derive(Debug, Default)]
struct NameCache {
    entries: std::collections::HashMap<Vec<u8>, ContextPair>,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl NameCache {
    fn lookup(&mut self, prefix: &[u8]) -> Option<ContextPair> {
        match self.entries.get(prefix) {
            Some(pair) => {
                self.hits += 1;
                Some(*pair)
            }
            None => None,
        }
    }
}

/// Counters for the client's bounded retry layer (EXP-11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryStats {
    /// Name transactions attempted (first tries + retries).
    pub attempts: u64,
    /// Retries after a retryable failure.
    pub retries: u64,
    /// Prefix-server rebindings via `GetPid` re-query that found a new
    /// server pid (the paper's §4.2 recovery).
    pub rebinds: u64,
    /// Transactions abandoned with the retry budget exhausted.
    pub gave_up: u64,
}

/// The summary a prefix replica answers after one `SyncPull` anti-entropy
/// round: what the atomic delta application did, the epoch the replica
/// converged to, and whether a gossip peer (rather than the authority)
/// served the round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SyncPullSummary {
    /// Entries adopted from the peer's delta.
    pub adopted: u32,
    /// Live entries dropped by remote tombstones.
    pub dropped: u32,
    /// Suspect entries promoted back to fresh.
    pub promoted: u32,
    /// The replica's maximum entry epoch after the round (low 32 bits).
    pub epoch: u32,
    /// True when a gossip peer served the round instead of the authority.
    pub via_gossip: bool,
}

/// Cache statistics for the ablation experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests routed via a cached binding.
    pub hits: u64,
    /// Requests that went through the prefix server.
    pub misses: u64,
    /// Stale entries dropped after a transport failure.
    pub invalidations: u64,
}

impl<'a> NameClient<'a> {
    /// Creates a client with an explicit current context; discovers the
    /// workstation's context prefix server via `GetPid` (local first, as
    /// each workstation runs its own — paper §6).
    pub fn new(ipc: &'a dyn Ipc, current: ContextPair) -> Self {
        let prefix_server = ipc
            .get_pid(ServiceId::CONTEXT_PREFIX, Scope::Local)
            .or_else(|| ipc.get_pid(ServiceId::CONTEXT_PREFIX, Scope::Both));
        NameClient {
            ipc,
            prefix_server: Cell::new(prefix_server),
            current,
            cache: None,
            retry: BackoffPolicy::default(),
            retry_stats: Cell::new(RetryStats::default()),
            degraded: false,
            replica_group: Cell::new(None),
            degraded_stats: Cell::new(DegradedStats::default()),
        }
    }

    /// Replaces the client's retry policy (default: a modest bounded
    /// exponential backoff; `max_attempts: 1` turns retries off).
    pub fn set_retry_policy(&mut self, policy: BackoffPolicy) {
        self.retry = policy;
    }

    /// Counters from the bounded retry layer.
    pub fn retry_stats(&self) -> RetryStats {
        self.retry_stats.get()
    }

    fn bump(&self, f: impl FnOnce(&mut RetryStats)) {
        let mut s = self.retry_stats.get();
        f(&mut s);
        self.retry_stats.set(s);
    }

    /// Re-discovers the prefix server — the broadcast re-query of paper
    /// §4.2, used when a cached pid went stale (server crash/restart).
    /// Returns `true` if a live server (new or unchanged) was found.
    fn rebind_prefix_server(&self) -> bool {
        let fresh = self
            .ipc
            .get_pid(ServiceId::CONTEXT_PREFIX, Scope::Local)
            .or_else(|| self.ipc.get_pid(ServiceId::CONTEXT_PREFIX, Scope::Both));
        if fresh.is_some() {
            self.prefix_server.set(fresh);
        }
        fresh.is_some()
    }

    /// Enables the client-side name cache the paper argues against (§2.2) —
    /// used by the EXP-10 ablation. Cached prefix bindings route requests
    /// straight to the remembered (server, context), bypassing the prefix
    /// server; transport failures invalidate the entry and retry through
    /// the prefix server.
    pub fn enable_name_cache(&mut self) {
        self.cache = Some(std::cell::RefCell::new(NameCache::default()));
    }

    /// Enables degraded-mode resolution (EXP-12): when the authoritative
    /// path for a `[prefix]` mapping fails at the transport level,
    /// [`resolve`](Self::resolve) falls back to the client name cache and
    /// then to a multicast of the replica group, returning the binding
    /// tagged [`Staleness::Suspect`] instead of surfacing the timeout.
    /// Implies the client name cache (fresh resolutions are remembered so
    /// there is something to fall back on).
    pub fn enable_degraded_mode(&mut self) {
        self.degraded = true;
        if self.cache.is_none() {
            self.enable_name_cache();
        }
    }

    /// Names the process group joined by non-authoritative prefix replicas,
    /// used as the multicast fallback of degraded-mode resolution.
    pub fn set_replica_group(&mut self, group: GroupId) {
        self.replica_group.set(Some(group));
    }

    /// Counters from degraded-mode resolution (zeroes when disabled).
    pub fn degraded_stats(&self) -> DegradedStats {
        self.degraded_stats.get()
    }

    fn bump_degraded(&self, f: impl FnOnce(&mut DegradedStats)) {
        let mut s = self.degraded_stats.get();
        f(&mut s);
        self.degraded_stats.set(s);
    }

    /// Plants a cache entry directly — experiment support for simulating a
    /// client that cached a binding before a server crash (EXP-10).
    pub fn plant_cache_entry(&mut self, prefix: &[u8], target: ContextPair) {
        if let Some(cache) = &self.cache {
            cache.borrow_mut().entries.insert(prefix.to_vec(), target);
        }
    }

    /// Cache statistics (zeroes when the cache is disabled).
    pub fn cache_stats(&self) -> CacheStats {
        match &self.cache {
            Some(c) => {
                let c = c.borrow();
                CacheStats {
                    hits: c.hits,
                    misses: c.misses,
                    invalidations: c.invalidations,
                }
            }
            None => CacheStats::default(),
        }
    }

    /// Creates a client whose current context is resolved from `initial`
    /// (typically `"[home]"`), the way a newly executed program is passed
    /// its current context (paper §6).
    ///
    /// # Errors
    ///
    /// Fails if the prefix server is missing or the name does not map.
    pub fn login(ipc: &'a dyn Ipc, initial: &str) -> Result<Self, IoError> {
        let mut client = NameClient::new(ipc, ContextPair::new(Pid::NULL, ContextId::DEFAULT));
        let pair = client.query_name(initial)?;
        client.current = pair;
        Ok(client)
    }

    /// The current context (the analogue of the Unix working directory).
    pub fn current_context(&self) -> ContextPair {
        self.current
    }

    /// The discovered prefix server, if any.
    pub fn prefix_server(&self) -> Option<Pid> {
        self.prefix_server.get()
    }

    /// Pins the prefix server this client routes bracketed names through,
    /// overriding `GetPid` discovery. Experiment drivers use this to aim a
    /// client at a *specific* replica (e.g. to watch it answer Suspect
    /// from gossip-adopted entries while the authority is down).
    pub fn set_prefix_server(&self, server: Pid) {
        self.prefix_server.set(Some(server));
    }

    /// Drives one anti-entropy round on a prefix replica. The server walks
    /// its authority's Merkle digest tree (subtree probes, §5.8 degraded
    /// operation) — or exchanges the legacy flat digest under the test-only
    /// oracle flag — and applies the resulting delta atomically before
    /// answering. `Retry` (mapped to `Err`) means no peer was reachable
    /// this round; nothing was applied.
    pub fn sync_pull(&self, server: Pid) -> Result<SyncPullSummary, IoError> {
        let reply = self
            .ipc
            .send(
                server,
                Message::request(RequestCode::SyncPull),
                Bytes::new(),
                4096,
            )
            .map_err(IoError::Ipc)?;
        check(reply.msg.reply_code())?;
        Ok(SyncPullSummary {
            adopted: u32::from(reply.msg.word(fields::W_SYNC_ADOPTED)),
            dropped: u32::from(reply.msg.word(fields::W_SYNC_DROPPED)),
            promoted: u32::from(reply.msg.word(fields::W_SYNC_PROMOTED)),
            epoch: reply.msg.word32(fields::W_SYNC_EPOCH_LO),
            via_gossip: reply.msg.word(fields::W_SYNC_GOSSIP) != 0,
        })
    }

    /// The single common routine that checks for `[` (paper §6): decides
    /// which server interprets `name` and in which starting context.
    fn route(&self, name: &CsName) -> Result<(Pid, ContextId), IoError> {
        if name.has_prefix_syntax() {
            match self.prefix_server.get() {
                Some(pid) => Ok((pid, ContextId::DEFAULT)),
                None => Err(IoError::Server(ReplyCode::NoServer)),
            }
        } else {
            if self.current.server.is_null() {
                return Err(IoError::Server(ReplyCode::InvalidContext));
            }
            Ok((self.current.server, self.current.context))
        }
    }

    /// Sends a CSname request along the routed path and returns the reply.
    fn csname_transaction(
        &self,
        op: RequestCode,
        name: &CsName,
        extra: &[u8],
        tune: impl FnOnce(&mut Message) + Copy,
        recv_cap: usize,
    ) -> Result<(Message, Bytes), IoError> {
        self.csname_transaction_routed(op, name, extra, tune, recv_cap, true)
    }

    fn csname_transaction_routed(
        &self,
        op: RequestCode,
        name: &CsName,
        extra: &[u8],
        tune: impl FnOnce(&mut Message) + Copy,
        recv_cap: usize,
        use_cache: bool,
    ) -> Result<(Message, Bytes), IoError> {
        // A name too long for its length word is refused here, not sent
        // truncated to some other name.
        name_word(name.len())?;
        // Cached route first (EXP-10 ablation; off by default).
        if let Some((server, ctx, index)) = self.cached_route_maybe(name, use_cache)? {
            let (mut msg, payload) = build_csname_request(op, ctx, name, extra);
            msg.set_name_index(name_word(index)?);
            tune(&mut msg);
            match self.ipc.send(server, msg, payload, recv_cap) {
                Ok(reply) => {
                    check(reply.msg.reply_code())?;
                    return Ok((reply.msg, reply.data));
                }
                Err(_) => {
                    // The paper's predicted inconsistency: the cached
                    // binding went stale. Invalidate and fall through to
                    // the prefix server.
                    self.invalidate_cached(name);
                }
            }
        }
        // The bounded retry loop: transport failures and transient
        // "no server" answers retransmit the whole transaction after a
        // pause from the retry ladder, rebinding the prefix server by
        // broadcast re-query first. On success the path costs exactly one
        // transaction — the retry layer is free when nothing fails.
        let mut failed = 0u32;
        loop {
            self.bump(|s| s.attempts += 1);
            let err = match self.route(name) {
                Ok((server, ctx)) => {
                    let (mut msg, payload) = build_csname_request(op, ctx, name, extra);
                    tune(&mut msg);
                    match self.ipc.send(server, msg, payload, recv_cap) {
                        Ok(reply) => match check(reply.msg.reply_code()) {
                            Ok(()) => return Ok((reply.msg, reply.data)),
                            Err(e) => e,
                        },
                        Err(e) => IoError::Ipc(e),
                    }
                }
                Err(e) => e,
            };
            if !retryable(&err) {
                return Err(err);
            }
            failed += 1;
            let Some(delay) = self.retry.delay(failed) else {
                self.bump(|s| s.gave_up += 1);
                return Err(err);
            };
            self.bump(|s| s.retries += 1);
            if name.has_prefix_syntax() {
                let before = self.prefix_server.get();
                if self.rebind_prefix_server() && self.prefix_server.get() != before {
                    self.bump(|s| s.rebinds += 1);
                }
            }
            self.ipc.sleep(delay);
        }
    }

    /// Resolves a bracketed name through the cache, filling it on a miss.
    /// `Ok(None)` when the cache is off or the name is not bracketed.
    fn cached_route_maybe(
        &self,
        name: &CsName,
        use_cache: bool,
    ) -> Result<Option<(Pid, ContextId, usize)>, IoError> {
        if !use_cache {
            return Ok(None);
        }
        let Some(cache) = &self.cache else {
            return Ok(None);
        };
        let Some(parse) = name.parse_prefix() else {
            return Ok(None);
        };
        let prefix = parse.prefix.to_vec();
        let rest_index = parse.rest_index;
        if let Some(pair) = cache.borrow_mut().lookup(&prefix) {
            return Ok(Some((pair.server, pair.context, rest_index)));
        }
        // Miss: one mapping transaction through the prefix server, cached.
        let mut bare = Vec::with_capacity(prefix.len() + 2);
        bare.push(b'[');
        bare.extend_from_slice(&prefix);
        bare.push(b']');
        let (server, ctx) = self.route(name)?;
        let (msg, payload) =
            build_csname_request(RequestCode::QueryName, ctx, &CsName::from(bare), &[]);
        let reply = self.ipc.send(server, msg, payload, 0)?;
        check(reply.msg.reply_code())?;
        let pair = ContextPair::new(reply.msg.pid_at(fields::W_PID_LO), reply.msg.context_id());
        let mut c = cache.borrow_mut();
        c.misses += 1;
        c.entries.insert(prefix, pair);
        Ok(Some((pair.server, pair.context, rest_index)))
    }

    fn invalidate_cached(&self, name: &CsName) {
        if let (Some(cache), Some(parse)) = (&self.cache, name.parse_prefix()) {
            let mut c = cache.borrow_mut();
            if c.entries.remove(parse.prefix).is_some() {
                c.invalidations += 1;
            }
        }
    }

    /// Opens `name` (the paper's measured `Open`, §6). The returned handle
    /// points at whichever server actually implements the object, after any
    /// forwarding.
    ///
    /// # Errors
    ///
    /// Propagates transport failures and server reply codes.
    pub fn open(&self, name: &str, mode: OpenMode) -> Result<FileHandle, IoError> {
        // The client stub cost of building the request and decoding the
        // reply (calibrated from the paper's 1.21 ms local open).
        if let Some(net) = self.ipc.net() {
            self.ipc.charge(net.params().t_stub_open);
        }
        let name = CsName::from(name);
        let (msg, _) = self.csname_transaction(
            RequestCode::CreateInstance,
            &name,
            &[],
            |m| {
                m.set_mode(mode);
            },
            0,
        )?;
        Ok(FileHandle::new(OpenOutcome {
            server: msg.pid_at(fields::W_PID_LO),
            instance: vproto::InstanceId(msg.word(fields::W_INSTANCE)),
            size: msg.word32(fields::W_SIZE_LO) as u64,
        }))
    }

    /// Maps a context name to its (server-pid, context-id) pair — the
    /// standard `QueryName` operation of paper §5.7.
    ///
    /// # Errors
    ///
    /// [`ReplyCode::NotAContext`] if the name denotes a non-context object.
    pub fn query_name(&self, name: &str) -> Result<ContextPair, IoError> {
        let name = CsName::from(name);
        let (msg, _) = self.csname_transaction(RequestCode::QueryName, &name, &[], |_| {}, 0)?;
        Ok(ContextPair::new(
            msg.pid_at(fields::W_PID_LO),
            msg.context_id(),
        ))
    }

    /// Maps a context name like [`query_name`](Self::query_name), but
    /// reports how trustworthy the answer is — the degraded-mode entry
    /// point (EXP-12).
    ///
    /// The authoritative path is always tried first (with the usual retry
    /// budget, skipping the EXP-10 cache fast path so the authority really
    /// is asked). A binding the prefix server served from its own table
    /// while the authority is suspect comes back [`Staleness::Suspect`].
    /// If the transaction itself fails at the transport level and degraded
    /// mode is on, the client falls back to its name cache and then to a
    /// multicast of the replica group, again tagged `Suspect`. Fresh
    /// resolutions refresh the cache so later partitions have something to
    /// fall back on.
    ///
    /// # Errors
    ///
    /// Propagates the authoritative path's error once every enabled
    /// fallback has also failed.
    pub fn resolve(&self, name: &str) -> Result<Binding, IoError> {
        let csname = CsName::from(name);
        match self.csname_transaction_routed(RequestCode::QueryName, &csname, &[], |_| {}, 0, false)
        {
            Ok((msg, _)) => {
                let target = ContextPair::new(msg.pid_at(fields::W_PID_LO), msg.context_id());
                if msg.word(fields::W_STALENESS) != 0 {
                    self.bump_degraded(|s| s.suspect_bindings += 1);
                    return Ok(Binding {
                        target,
                        staleness: Staleness::Suspect,
                    });
                }
                if let (Some(cache), Some(parse)) = (&self.cache, csname.parse_prefix()) {
                    cache
                        .borrow_mut()
                        .entries
                        .insert(parse.prefix.to_vec(), target);
                }
                Ok(Binding {
                    target,
                    staleness: Staleness::Fresh,
                })
            }
            Err(err) if self.degraded && retryable(&err) => self.degraded_resolve(&csname, err),
            Err(err) => Err(err),
        }
    }

    /// The fallback chain behind [`resolve`](Self::resolve): name cache
    /// first (cheap, local), then one multicast round to the replica
    /// group. Anything found is `Suspect` by construction — nobody
    /// authoritative vouched for it.
    fn degraded_resolve(&self, name: &CsName, err: IoError) -> Result<Binding, IoError> {
        if let (Some(cache), Some(parse)) = (&self.cache, name.parse_prefix()) {
            let cached = cache.borrow().entries.get(parse.prefix).copied();
            if let Some(target) = cached {
                self.bump_degraded(|s| {
                    s.cache_fallbacks += 1;
                    s.suspect_bindings += 1;
                });
                return Ok(Binding {
                    target,
                    staleness: Staleness::Suspect,
                });
            }
        }
        if let Some(group) = self.replica_group.get() {
            let (msg, payload) =
                build_csname_request(RequestCode::QueryName, ContextId::DEFAULT, name, &[]);
            if let Ok(reply) = self.ipc.send_group(group, msg, payload) {
                if reply.msg.reply_code().is_ok() {
                    // A replica that has reconciled with the authority
                    // (anti-entropy) answers with the staleness flag
                    // clear: its binding is vouched for and counts as
                    // fresh. An unsynced replica still answers, honestly
                    // tagged suspect.
                    let staleness = if reply.msg.word(fields::W_STALENESS) == 0 {
                        Staleness::Fresh
                    } else {
                        Staleness::Suspect
                    };
                    self.bump_degraded(|s| {
                        s.replica_fallbacks += 1;
                        match staleness {
                            Staleness::Fresh => s.fresh_from_replica += 1,
                            Staleness::Suspect => s.suspect_bindings += 1,
                        }
                    });
                    return Ok(Binding {
                        target: ContextPair::new(
                            reply.msg.pid_at(fields::W_PID_LO),
                            reply.msg.context_id(),
                        ),
                        staleness,
                    });
                }
            }
        }
        self.bump_degraded(|s| s.authority_failures += 1);
        Err(err)
    }

    /// Resolves many bare prefixes in a single `ResolveBatch` transaction
    /// against the prefix server — one IPC rendezvous instead of one per
    /// name, and the server answers the whole batch from one published
    /// table snapshot, so the answers are mutually consistent.
    ///
    /// Prefixes are bare names (no surrounding brackets). Answers come
    /// back in request order; per-name misses are [`BatchOutcome`]
    /// variants, not errors.
    ///
    /// # Errors
    ///
    /// Fails only at the transaction level: no prefix server discovered,
    /// transport failure, or a malformed reply.
    pub fn resolve_batch(&self, prefixes: &[&str]) -> Result<Vec<BatchOutcome>, IoError> {
        let server = self
            .prefix_server
            .get()
            .ok_or(IoError::Server(ReplyCode::NoServer))?;
        let batch = ResolveBatchMsg {
            names: prefixes.iter().map(|p| p.as_bytes().to_vec()).collect(),
        };
        let msg = Message::request(RequestCode::ResolveBatch);
        // 12 payload bytes per answer plus the count header, with slack.
        let recv_cap = 16 * prefixes.len() + 64;
        let reply = self
            .ipc
            .send(server, msg, Bytes::from(batch.encode()), recv_cap)
            .map_err(IoError::Ipc)?;
        check(reply.msg.reply_code())?;
        let decoded = ResolveBatchReply::decode(&reply.data)
            .map_err(|_| IoError::Server(ReplyCode::BadArgs))?;
        if decoded.answers.len() != prefixes.len() {
            return Err(IoError::Server(ReplyCode::BadArgs));
        }
        Ok(decoded
            .answers
            .into_iter()
            .map(|a| match a.status {
                RESOLVE_OK => {
                    let staleness = if a.staleness == 0 {
                        Staleness::Fresh
                    } else {
                        self.bump_degraded(|s| s.suspect_bindings += 1);
                        Staleness::Suspect
                    };
                    BatchOutcome::Bound(Binding {
                        target: ContextPair::new(Pid::from_raw(a.pid), ContextId::new(a.context)),
                        staleness,
                    })
                }
                RESOLVE_NO_SERVER => BatchOutcome::NoServer,
                // RESOLVE_NOT_FOUND and anything future-unknown.
                _ => BatchOutcome::NotFound,
            })
            .collect())
    }

    /// Gets the description record of the named object (paper §5.5).
    ///
    /// # Errors
    ///
    /// Propagates server reply codes; decode failures map to
    /// [`ReplyCode::BadArgs`].
    pub fn query(&self, name: &str) -> Result<ObjectDescriptor, IoError> {
        let name = CsName::from(name);
        let (_, data) =
            self.csname_transaction(RequestCode::QueryObject, &name, &[], |_| {}, 4096)?;
        ObjectDescriptor::decode_one(&data).map_err(|_| IoError::Server(ReplyCode::BadArgs))
    }

    /// Overwrites the modifiable parts of the named object's description
    /// (paper §5.5) — e.g. access-control bits.
    ///
    /// # Errors
    ///
    /// Propagates server reply codes.
    pub fn modify(&self, name: &str, descriptor: &ObjectDescriptor) -> Result<(), IoError> {
        let name = CsName::from(name);
        self.csname_transaction(
            RequestCode::ModifyObject,
            &name,
            &descriptor.encode(),
            |_| {},
            0,
        )?;
        Ok(())
    }

    /// Deletes the named object — the uniform `Delete(object_name)` of the
    /// paper's introduction.
    ///
    /// # Errors
    ///
    /// Propagates server reply codes ([`ReplyCode::NotEmpty`] for non-empty
    /// directories, ...).
    pub fn remove(&self, name: &str) -> Result<(), IoError> {
        let name = CsName::from(name);
        self.csname_transaction(RequestCode::RemoveObject, &name, &[], |_| {}, 0)?;
        Ok(())
    }

    /// Renames an object within one server. The new name is interpreted in
    /// the same starting context as the old one (after any prefix routing),
    /// so renaming `[home]a/b.txt` to `a/c.txt` keeps the file in `a`,
    /// while a bare `c.txt` moves it to the `[home]` context itself.
    ///
    /// # Errors
    ///
    /// Propagates server reply codes ([`ReplyCode::NameInUse`], ...); a
    /// name longer than a name-length word can say is refused with
    /// [`ReplyCode::IllegalName`] before anything is sent.
    pub fn rename(&self, old: &str, new: &str) -> Result<(), IoError> {
        let old_name = CsName::from(old);
        let new_bytes = new.as_bytes().to_vec();
        // The new name follows the old one in the segment.
        let new_index = name_word(old_name.len())?;
        let new_len = name_word(new_bytes.len())?;
        self.csname_transaction(
            RequestCode::RenameObject,
            &old_name,
            &new_bytes,
            |m| {
                m.set_word(fields::W_NAME2_INDEX, new_index)
                    .set_word(fields::W_NAME2_LEN, new_len);
            },
            0,
        )?;
        Ok(())
    }

    /// Creates a directory (a new context) at `name`.
    ///
    /// # Errors
    ///
    /// Propagates server reply codes.
    pub fn make_directory(&self, name: &str) -> Result<(), IoError> {
        let template = ObjectDescriptor::new(vproto::DescriptorTag::Directory, CsName::new())
            .with_ext(vproto::DescriptorExt::Directory {
                context: ContextId::DEFAULT,
                entries: 0,
            })
            .encode();
        let name = CsName::from(name);
        self.csname_transaction(RequestCode::CreateObject, &name, &template, |_| {}, 0)?;
        Ok(())
    }

    /// Changes the current context — the analogue of `chdir` (paper §6).
    ///
    /// # Errors
    ///
    /// Propagates mapping failures; on failure the current context is
    /// unchanged.
    pub fn change_context(&mut self, name: &str) -> Result<ContextPair, IoError> {
        let pair = self.query_name(name)?;
        self.current = pair;
        Ok(pair)
    }

    /// Determines the CSname of the current context by asking its server
    /// for the inverse mapping (paper §5.7/§6 — with all the caveats the
    /// paper lists about inverting a many-to-one mapping).
    ///
    /// # Errors
    ///
    /// [`ReplyCode::InvalidContext`] if the context died with its server.
    pub fn current_context_name(&self) -> Result<CsName, IoError> {
        let mut msg = Message::request(RequestCode::GetContextName);
        msg.set_word32(fields::W_INVERT_ID_LO, self.current.context.raw());
        let reply = self
            .ipc
            .send(self.current.server, msg, Bytes::new(), 4096)?;
        check(reply.msg.reply_code())?;
        Ok(CsName::from(reply.data.to_vec()))
    }

    /// Reads the context directory for `name` (paper §5.6): every object's
    /// description record, optionally server-filtered by a glob `pattern` —
    /// the paper's proposed extension.
    ///
    /// # Errors
    ///
    /// Propagates open/read failures; undecodable directories map to
    /// [`ReplyCode::BadArgs`].
    pub fn list_directory(
        &self,
        name: &str,
        pattern: Option<&str>,
    ) -> Result<Vec<ObjectDescriptor>, IoError> {
        let csname = CsName::from(name);
        let (msg, _) = self.csname_transaction(
            RequestCode::CreateInstance,
            &csname,
            pattern.map(|p| p.as_bytes()).unwrap_or(&[]),
            |m| {
                m.set_mode(OpenMode::Directory);
            },
            0,
        )?;
        let mut handle = FileHandle::new(OpenOutcome {
            server: msg.pid_at(fields::W_PID_LO),
            instance: vproto::InstanceId(msg.word(fields::W_INSTANCE)),
            size: msg.word32(fields::W_SIZE_LO) as u64,
        });
        let bytes = handle.read_to_end(self.ipc)?;
        handle.close(self.ipc)?;
        ObjectDescriptor::decode_directory(&bytes).map_err(|_| IoError::Server(ReplyCode::BadArgs))
    }

    /// Defines a context prefix bound to a concrete (server, context) pair
    /// (the optional `AddContextName` of paper §5.7).
    ///
    /// # Errors
    ///
    /// [`ReplyCode::NoServer`] if no prefix server was found.
    pub fn add_prefix(&self, prefix: &str, target: ContextPair) -> Result<(), IoError> {
        self.add_prefix_raw(prefix, |m| {
            m.set_pid_at(fields::W_TARGET_PID_LO, target.server);
            m.set_word32(fields::W_TARGET_CTX_LO, target.context.raw());
            m.set_word(fields::W_LOGICAL, 0);
        })
    }

    /// Defines a *logical* context prefix: a (service, well-known-context)
    /// pair re-resolved via `GetPid` on each use (paper §6).
    ///
    /// # Errors
    ///
    /// [`ReplyCode::NoServer`] if no prefix server was found.
    pub fn add_logical_prefix(
        &self,
        prefix: &str,
        service: ServiceId,
        context: ContextId,
    ) -> Result<(), IoError> {
        self.add_prefix_raw(prefix, |m| {
            m.set_word32(fields::W_TARGET_PID_LO, service.raw());
            m.set_word32(fields::W_TARGET_CTX_LO, context.raw());
            m.set_word(fields::W_LOGICAL, 1);
        })
    }

    fn add_prefix_raw(&self, prefix: &str, tune: impl FnOnce(&mut Message)) -> Result<(), IoError> {
        let server = self
            .prefix_server
            .get()
            .ok_or(IoError::Server(ReplyCode::NoServer))?;
        let name = CsName::from(prefix);
        let (mut msg, payload) =
            build_csname_request(RequestCode::AddContextName, ContextId::DEFAULT, &name, &[]);
        tune(&mut msg);
        let reply = self.ipc.send(server, msg, payload, 0)?;
        check(reply.msg.reply_code())
    }

    /// Creates a cross-server link: a directory entry at `name` pointing to
    /// a context on another server — the curved arrow of the paper's
    /// Figure 4. Routed like any other CSname operation, so the entry can
    /// be created on whichever server implements the parent directory.
    ///
    /// # Errors
    ///
    /// Propagates server reply codes ([`ReplyCode::NameInUse`], ...).
    pub fn add_link(&self, name: &str, target: ContextPair) -> Result<(), IoError> {
        let csname = CsName::from(name);
        self.csname_transaction(
            RequestCode::AddContextName,
            &csname,
            &[],
            |m| {
                m.set_pid_at(fields::W_TARGET_PID_LO, target.server);
                m.set_word32(fields::W_TARGET_CTX_LO, target.context.raw());
                m.set_word(fields::W_LOGICAL, 0);
            },
            0,
        )?;
        Ok(())
    }

    /// Removes a context prefix definition (paper §5.7).
    ///
    /// # Errors
    ///
    /// [`ReplyCode::NotFound`] if the prefix is not defined.
    pub fn delete_prefix(&self, prefix: &str) -> Result<(), IoError> {
        let server = self
            .prefix_server
            .get()
            .ok_or(IoError::Server(ReplyCode::NoServer))?;
        let name = CsName::from(prefix);
        let (msg, payload) = build_csname_request(
            RequestCode::DeleteContextName,
            ContextId::DEFAULT,
            &name,
            &[],
        );
        let reply = self.ipc.send(server, msg, payload, 0)?;
        check(reply.msg.reply_code())
    }

    /// Explains a failing name: where interpretation stopped and which
    /// component was at fault — addressing the paper's §7 deficiency that
    /// "if a name lookup fails after the name has been forwarded through a
    /// series of servers, it is difficult to properly inform the user".
    ///
    /// Returns `Ok(None)` if the name actually resolves.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn diagnose(&self, name: &str) -> Result<Option<String>, IoError> {
        let csname = CsName::from(name);
        let (server, ctx) = self.route(&csname)?;
        let (msg, payload) = build_csname_request(RequestCode::QueryObject, ctx, &csname, &[]);
        let reply = self.ipc.send(server, msg, payload, 4096)?;
        let code = reply.msg.reply_code();
        if code.is_ok() {
            return Ok(None);
        }
        let index = reply.msg.word(fields::W_FAIL_INDEX) as usize;
        let bytes = csname.as_bytes();
        let upto = index.min(bytes.len());
        // The failing component runs from `index` to the next separator.
        let end = bytes[upto..]
            .iter()
            .position(|&b| b == b'/')
            .map(|i| upto + i)
            .unwrap_or(bytes.len());
        let component = String::from_utf8_lossy(&bytes[upto..end]);
        let interpreted = String::from_utf8_lossy(&bytes[..upto]);
        Ok(Some(format!(
            "{code} at byte {index}: interpreted {interpreted:?}, failed on component {component:?}"
        )))
    }

    /// Convenience: writes `data` to `name`, creating the object if absent.
    ///
    /// # Errors
    ///
    /// Propagates open/write failures.
    pub fn write_file(&self, name: &str, data: &[u8]) -> Result<(), IoError> {
        let mut handle = self.open(name, OpenMode::Create)?;
        handle.write_next(self.ipc, data)?;
        handle.close(self.ipc)
    }

    /// Convenience: reads all of `name`.
    ///
    /// # Errors
    ///
    /// Propagates open/read failures.
    pub fn read_file(&self, name: &str) -> Result<Vec<u8>, IoError> {
        let mut handle = self.open(name, OpenMode::Read)?;
        let data = handle.read_to_end(self.ipc)?;
        handle.close(self.ipc)?;
        Ok(data)
    }

    /// The kernel interface this client runs over.
    pub fn ipc(&self) -> &dyn Ipc {
        self.ipc
    }
}
