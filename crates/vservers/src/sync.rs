//! The versioned prefix table behind anti-entropy reconciliation.
//!
//! Prefix servers are soft-state caches of naming information (paper §5.5),
//! so replicas drift: a partition or crash window hides the authority's
//! adds and deletes. [`SyncTable`] makes that drift *reconcilable* by
//! versioning every entry with a per-entry **epoch** stamped at the
//! authority and keeping deletes as **tombstones** instead of removals.
//! A replica then converges in one pull round: it sends the authority its
//! `(prefix, epoch, tombstone?)` [digest](SyncTable::digest), the authority
//! answers with the [delta](SyncTable::delta_for) of everything newer
//! (fresh tombstones included for prefixes it never defined), and the
//! replica [applies](SyncTable::apply) entries that out-rank its own —
//! after which the two tables hash identically ([`SyncTable::table_hash`]).
//!
//! Epoch stamps are `max(previous + 1, virtual-now-ns)`: monotonic within
//! one incarnation, and — because virtual time only moves forward — a
//! *restarted* authority's fresh stamps still out-rank everything it
//! handed out before the crash. Epoch 0 is reserved for preloaded,
//! never-verified replica entries, so any authoritative entry wins over a
//! preload.
//!
//! # One copy of the bindings
//!
//! The table owns [`SHARD_COUNT`] `Arc<Shard>`s (see [`crate::shard`]) and
//! nothing else holds a binding: a shard is the unit of storage, one
//! root-child Merkle subtree, and the unit of publication at once. Every
//! content mutation is one `put` or one `remove` here, each one
//! `Shard::insert`/`Shard::remove` through `Arc::make_mut`. On a shard
//! nothing else holds — the prefix server's own table — that is a store
//! into the slot. On a shard a snapshot still holds it copies the shard's
//! top of at most 32 directory pointers, and the shard then copies only the
//! one directory of 32 page pointers and the one 5 KB page it writes. The
//! only side indexes are `tombs` and `unverified`, written in those two
//! functions and holding the shard's own names (a short name inline, a
//! long one by its shared allocation, never a fresh copy); the Merkle tree
//! keeps hashes of *interior* nodes only — a leaf's hash is folded on
//! demand from the contiguous run of records that is its bucket.
//!
//! # Bounded tombstones: watermarks and the GC horizon
//!
//! Tombstones exist only to propagate deletes; once **every** replica has
//! adopted one, retaining it buys nothing. Following the death-certificate
//! discipline of Demers et al.'s epidemic algorithms, the table bounds
//! them:
//!
//! * each replica tracks a **synced watermark** ([`SyncTable::watermark`])
//!   — the highest authority epoch it has fully reconciled through, set
//!   only by a complete, successful authority round
//!   ([`SyncTable::note_synced`]), never by gossip;
//! * the authority records the watermark each replica reports in its
//!   digests ([`SyncTable::record_watermark`]) and computes the **GC
//!   horizon** = the minimum watermark across known replicas
//!   ([`SyncTable::horizon`]) — every tombstone at or below it is provably
//!   adopted everywhere;
//! * both sides drop tombstones at or below the horizon
//!   ([`SyncTable::gc_below`]); replicas learn the horizon from the
//!   authority's delta replies.
//!
//! The horizon is 0 (nothing collected) until every known replica has
//! completed at least one full round — a replica that has never reported
//! pins the horizon at 0 simply by being unknown.
//!
//! # The Merkle digest: round cost proportional to divergence
//!
//! A flat digest ships the whole `(prefix, epoch)` list every round, so a
//! steady-state round costs O(table) even when nothing diverged — a dead
//! end at millions of names. The table is therefore also a **Merkle
//! tree**:
//!
//! * every entry hashes into one of [`MERKLE_LEAVES`] leaf buckets by the
//!   top bits of the FNV-1a hash of its prefix ([`SyncTable::bucket_of`])
//!   — a *deterministic* child ordering both sides compute independently;
//! * a leaf's hash folds its bucket's entries in name order; an interior
//!   node's hash folds its [`MERKLE_FANOUT`] child hashes. Empty subtrees
//!   hash to 0 at every level, so a table that shrinks to nothing hashes
//!   like one that was never touched;
//! * node ids are **stable** (packed `level << 24 | index`,
//!   [`merkle_node_id`]) and dirtiness propagates upward lazily: editing
//!   one entry invalidates its leaf's ancestors only —
//!   [`SyncTable::table_hash`] *is* the Merkle root.
//!
//! A reconciliation round is then a **walk** ([`MerkleWalk`]): starting at
//! the root, the puller probes the responder for child hashes of diverging
//! interior nodes ([`vproto::SyncProbeMsg`]) and descends only where the
//! hashes differ, bottoming out in per-bucket digests whose deltas the
//! responder computes with the same filter/minting/skew rules as the flat
//! path ([`SyncTable::delta_for_leaves`]). Equal subtrees are never
//! walked, so bandwidth and CPU scale with divergence, not table size.
//! The flat path ([`SyncTable::delta_for`]) is retained as the
//! differential-testing oracle: a Merkle round and a flat round must leave
//! byte-identical tables (see `tests/anti_entropy_props.rs`).

use crate::shard::{batch_probe, bucket_of_hash, shard_of_hash, Name, Record, Shard, SnapEntry};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use vproto::{
    fnv1a, Fnv1a, SyncBinding, SyncDeltaMsg, SyncDigestEntry, SyncDigestMsg, SyncEntry,
    SyncLeafDigest, SyncNodeRec, SyncProbeMsg, SyncProbeReply,
};

/// How far beyond virtual-now a digest epoch may claim to be before the
/// authority rejects it as corrupt or hostile (60 virtual seconds).
///
/// Honest epochs are stamped at `max(prev + 1, now_ns)` on the authority
/// itself, so a remote epoch materially ahead of the authority's own clock
/// cannot have come from any legitimate stamp. Without this bound a single
/// poisoned digest entry would be written into `next_epoch` and inflate
/// every stamp the authority hands out for the rest of its life.
pub const MAX_EPOCH_SKEW_NS: u64 = 60_000_000_000;

/// Merkle tree fan-out: each interior node has this many children, and
/// each level of the walk consumes four bits of the prefix hash.
pub const MERKLE_FANOUT: u32 = 16;

/// Leaf depth: the root is level 0, leaves are level `MERKLE_LEVELS`.
/// A complete walk is at most `MERKLE_LEVELS + 1` probe round-trips.
pub const MERKLE_LEVELS: u32 = 5;

/// Number of leaf buckets (`MERKLE_FANOUT ^ MERKLE_LEVELS`). Chosen so a
/// million-name table still averages ~1 entry per bucket: the leaf digests
/// a diverging walk bottoms out in stay O(divergence).
pub const MERKLE_LEAVES: u32 = MERKLE_FANOUT.pow(MERKLE_LEVELS);

/// The packed node id of the Merkle root (level 0, index 0).
pub const MERKLE_ROOT: u32 = 0;

/// Number of table shards. Equal to [`MERKLE_FANOUT`] on purpose: shard
/// `s` covers exactly the leaf buckets under the root's child `s`, so a
/// shard boundary *is* a Merkle subtree boundary — the shard a publish
/// hands over and the subtree a sync walk descends never straddle each
/// other.
pub const SHARD_COUNT: usize = MERKLE_FANOUT as usize;

/// Bits to drop from a leaf-bucket index to get its shard: every level
/// below the root contributes four bits.
const SHARD_SHIFT: u32 = 4 * (MERKLE_LEVELS - 1);

/// The shard a leaf bucket belongs to (its top four index bits — the
/// root-child subtree it lives under).
pub const fn shard_of_bucket(bucket: u32) -> usize {
    (bucket >> SHARD_SHIFT) as usize
}

/// Packs a `(level, index)` pair into a stable 32-bit Merkle node id:
/// `level` in the top byte, `index` in the low 24 bits. Both replicas
/// derive the same id for the same subtree with no negotiation.
pub const fn merkle_node_id(level: u32, index: u32) -> u32 {
    (level << 24) | (index & 0x00FF_FFFF)
}

/// The tree level encoded in a packed node id (0 = root).
pub const fn merkle_level(node: u32) -> u32 {
    node >> 24
}

/// The within-level index encoded in a packed node id.
pub const fn merkle_index(node: u32) -> u32 {
    node & 0x00FF_FFFF
}

/// The packed id of child `k` of interior node `node`.
pub const fn merkle_child(node: u32, k: u32) -> u32 {
    merkle_node_id(
        merkle_level(node) + 1,
        merkle_index(node) * MERKLE_FANOUT + k,
    )
}

/// `true` if the packed id names a leaf bucket.
pub const fn merkle_is_leaf(node: u32) -> bool {
    merkle_level(node) == MERKLE_LEVELS
}

/// `true` if the packed id names a node that exists in the tree shape
/// (level in range, index within that level's width). Hostile ids fail
/// here and are ignored rather than walked.
pub const fn merkle_node_valid(node: u32) -> bool {
    let level = merkle_level(node);
    level <= MERKLE_LEVELS && merkle_index(node) < MERKLE_FANOUT.pow(level)
}

/// One versioned prefix-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionedEntry {
    /// The binding, or `None` for a tombstone (deleted at `epoch`).
    pub binding: Option<SyncBinding>,
    /// The entry's version: 0 for a preload, otherwise an authority stamp.
    pub epoch: u64,
    /// `true` once the entry is first-hand (defined here) or vouched for
    /// by the authority in a sync round. Unverified entries answer
    /// binding queries with the staleness flag set.
    pub verified: bool,
}

/// What [`SyncTable::tombstone`] found when asked to delete a prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TombstoneOutcome {
    /// A live entry existed and was tombstoned.
    DroppedLive,
    /// The prefix was already a tombstone; it was re-stamped (the delete
    /// still needs to out-rank whatever replicas hold).
    AlreadyDead,
    /// The prefix was never defined here: the delete is a no-op, the
    /// table is untouched. Stamping a tombstone for a name nobody ever
    /// bound would grow the table forever under delete-of-unknown churn.
    Unknown,
}

/// What one [`SyncTable::apply`] round did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ApplyOutcome {
    /// Delta entries adopted (they out-ranked the local version).
    pub adopted: u32,
    /// Live local entries dropped by an adopted tombstone.
    pub dropped_live: u32,
    /// Entries that went unverified → verified.
    pub promoted: u32,
}

/// A versioned, tombstone-retaining prefix table.
#[derive(Debug, Clone, Default)]
pub struct SyncTable {
    /// The records. Shared with published snapshots (and clones of this
    /// table) until a mutation copies the page it touches; written in place
    /// while nothing shares them.
    shards: [Arc<Shard>; SHARD_COUNT],
    next_epoch: u64,
    /// Replica side: the highest authority epoch fully reconciled through.
    synced: u64,
    /// The highest GC horizon this table has collected at.
    gc_horizon: u64,
    /// Authority side: per-replica synced watermarks, keyed by the
    /// replica's raw pid, learned from the digests replicas send.
    watermarks: BTreeMap<u32, u64>,
    /// The cached interior of the Merkle tree over `shards`: packed node id
    /// → hash. Only nonzero hashes are stored — an absent node *is* the
    /// empty-subtree hash 0, which keeps an emptied table bit-identical to
    /// a never-touched one (and an empty table allocation-free). Leaf
    /// hashes are not stored at all: they are folded from the shard's
    /// records when a parent is recomputed or a walk asks for them.
    nodes: BTreeMap<u32, u64>,
    /// Indices of the level-(`MERKLE_LEVELS`−1) nodes with a leaf bucket
    /// whose entries changed since the last flush. Hashes are recomputed
    /// lazily, ancestors-of-dirty-leaves only, on the next read
    /// ([`SyncTable::merkle_flush`] via `table_hash`/`merkle_children`).
    dirty: BTreeSet<u32>,
    /// The tombstones, by epoch. Keeps [`SyncTable::gc_below`]
    /// proportional to what it collects — the Merkle walk GCs on every
    /// probe, so an O(table) scan there would silently re-introduce the
    /// table-bound cost the walk exists to avoid.
    tombs: BTreeSet<(u64, Name)>,
    /// Names whose entry is currently unverified, so a vouching round
    /// promotes in O(promoted) instead of rescanning the table.
    unverified: BTreeSet<Name>,
}

/// Folds one table entry into an FNV-1a accumulator — the per-entry
/// encoding both the Merkle leaf hashes and (transitively) the table root
/// commit to: name length + name + epoch + tombstone/binding fields. The
/// `verified` bit is local bookkeeping and excluded.
fn fold_entry(h: &mut Fnv1a, name: &[u8], e: &VersionedEntry) {
    h.write(&(name.len() as u64).to_le_bytes());
    h.write(name);
    h.write(&e.epoch.to_le_bytes());
    match &e.binding {
        None => h.write(&[1]),
        Some(b) => {
            h.write(&[0, u8::from(b.logical)]);
            h.write(&b.target.to_le_bytes());
            h.write(&b.context.to_le_bytes());
        }
    }
}

/// Combines child hashes into an interior-node hash. All-empty children
/// combine to the empty hash 0 (the sentinel that makes empty subtrees
/// indistinguishable from never-populated ones); otherwise an FNV-1a fold
/// of the child hashes in child order.
fn combine_children(children: &[u64; MERKLE_FANOUT as usize]) -> u64 {
    if children.iter().all(|&c| c == 0) {
        return 0;
    }
    let mut h = Fnv1a::new();
    for c in children {
        h.write(&c.to_le_bytes());
    }
    h.finish()
}

fn digest_entry(rec: &Record) -> SyncDigestEntry {
    let entry = rec.entry();
    SyncDigestEntry {
        prefix: rec.name.to_vec(),
        epoch: entry.epoch,
        tombstone: entry.binding.is_none(),
    }
}

impl SyncTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stamps and returns a fresh epoch: monotonic, never 0, and at least
    /// the current virtual time so post-restart stamps out-rank pre-crash
    /// ones. Saturating: a gossip delta can carry any epoch up to
    /// `u64::MAX` into `next_epoch`, and a stamp past it stays there
    /// rather than panicking or wrapping below the epochs already issued.
    fn stamp(&mut self, now_ns: u64) -> u64 {
        self.next_epoch = self.next_epoch.saturating_add(1).max(now_ns).max(1);
        self.next_epoch
    }

    /// The leaf bucket a prefix hashes into: the top bits of its FNV-1a
    /// hash, so both sides of a sync round bucket identically with no
    /// negotiation.
    pub fn bucket_of(prefix: &[u8]) -> u32 {
        bucket_of_hash(fnv1a(prefix))
    }

    /// The shard a prefix belongs to: the top four bits of its leaf
    /// bucket, i.e. the Merkle root-child subtree it hashes under.
    pub fn shard_of(prefix: &[u8]) -> usize {
        shard_of_hash(fnv1a(prefix))
    }

    /// The shards, for publication: a snapshot is a clone of this array.
    pub(crate) fn shards(&self) -> &[Arc<Shard>; SHARD_COUNT] {
        &self.shards
    }

    /// The sixteen root-child hashes — one per shard, since shard and
    /// subtree boundaries coincide. Two tables agree on shard `s` iff
    /// `shard_roots()[s]` matches.
    pub fn shard_roots(&mut self) -> [u64; SHARD_COUNT] {
        self.merkle_flush();
        self.children_of(0, 0)
    }

    /// The record under `prefix`, tombstones included.
    fn get(&self, prefix: &[u8]) -> Option<&Record> {
        let hash = fnv1a(prefix);
        self.shards[shard_of_hash(hash)].get(hash, prefix)
    }

    /// Every record (live and tombstoned) in name order.
    fn sorted_records(&self) -> Vec<&Record> {
        let mut all: Vec<&Record> = self.shards.iter().flat_map(|s| s.records()).collect();
        all.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        all
    }

    /// The records of one leaf bucket (a range scan of its shard).
    fn bucket(&self, bucket: u32) -> impl Iterator<Item = &Record> {
        self.shards[shard_of_bucket(bucket)].under(bucket, 1)
    }

    /// Inserts (or overwrites) an entry. *Every* content mutation funnels
    /// through here or through [`SyncTable::remove`]: the shard's top, the
    /// directory and the page written are copied if a snapshot still shares
    /// them, the side indexes follow, and the touched leaf's ancestors are
    /// invalidated — unless only the `verified` bit changed, which the tree
    /// does not hash.
    fn put(&mut self, prefix: &[u8], entry: VersionedEntry) {
        let hash = fnv1a(prefix);
        let shard = Arc::make_mut(&mut self.shards[shard_of_hash(hash)]);
        let (name, old) = shard.insert(hash, prefix, entry);
        if let Some(dead) = old.filter(|o| o.binding.is_none()) {
            self.tombs.remove(&(dead.epoch, name.clone()));
        }
        if entry.binding.is_none() {
            self.tombs.insert((entry.epoch, name.clone()));
        }
        if entry.verified {
            self.unverified.remove(name);
        } else {
            self.unverified.insert(name.clone());
        }
        if old.map(|o| (o.epoch, o.binding)) != Some((entry.epoch, entry.binding)) {
            self.dirty.insert(bucket_of_hash(hash) / MERKLE_FANOUT);
        }
    }

    /// Removes an entry outright (tombstone GC) — the counterpart of
    /// [`SyncTable::put`].
    fn remove(&mut self, prefix: &[u8]) {
        let hash = fnv1a(prefix);
        let shard = Arc::make_mut(&mut self.shards[shard_of_hash(hash)]);
        let Some(rec) = shard.remove(hash, prefix) else {
            return;
        };
        self.unverified.remove(&rec.name);
        self.tombs.remove(&(rec.entry().epoch, rec.name));
        self.dirty.insert(bucket_of_hash(hash) / MERKLE_FANOUT);
    }

    /// Defines (or redefines) a prefix first-hand: stamped and verified.
    /// The table copies the name's bytes only if it has not stored it yet.
    pub fn define(&mut self, prefix: impl AsRef<[u8]>, binding: SyncBinding, now_ns: u64) {
        let epoch = self.stamp(now_ns);
        self.put(
            prefix.as_ref(),
            VersionedEntry {
                binding: Some(binding),
                epoch,
                verified: true,
            },
        );
    }

    /// Preloads a prefix at epoch 0, unverified — a replica's boot-time
    /// copy, out-ranked by any authoritative stamp.
    pub fn preload(&mut self, prefix: impl AsRef<[u8]>, binding: SyncBinding) {
        self.put(
            prefix.as_ref(),
            VersionedEntry {
                binding: Some(binding),
                epoch: 0,
                verified: false,
            },
        );
    }

    /// Deletes a prefix by writing a freshly stamped tombstone — but only
    /// if the table has ever heard of it. Deleting an unknown name is a
    /// no-op ([`TombstoneOutcome::Unknown`]): there is no binding to
    /// propagate a delete for, and stamping one anyway would let a stream
    /// of bogus deletes grow the table without bound. Known names (live
    /// or already dead) are (re-)stamped so the delete out-ranks every
    /// replica's copy.
    pub fn tombstone(&mut self, prefix: &[u8], now_ns: u64) -> TombstoneOutcome {
        let outcome = match self.get(prefix) {
            None => return TombstoneOutcome::Unknown,
            Some(rec) if rec.entry().binding.is_some() => TombstoneOutcome::DroppedLive,
            Some(_) => TombstoneOutcome::AlreadyDead,
        };
        let epoch = self.stamp(now_ns);
        self.put(
            prefix,
            VersionedEntry {
                binding: None,
                epoch,
                verified: true,
            },
        );
        outcome
    }

    /// Looks up a live binding (tombstones answer `None`).
    pub fn lookup(&self, prefix: &[u8]) -> Option<VersionedEntry> {
        self.lookup_named(prefix).map(|(_, entry)| entry)
    }

    /// [`SyncTable::lookup`], with the name the binding is stored under: a
    /// caller that keeps the name clones this one — a copy if it is inline,
    /// a reference-count bump if it is on the heap — and allocates none.
    pub(crate) fn lookup_named(&self, prefix: &[u8]) -> Option<(&Name, VersionedEntry)> {
        let rec = self.get(prefix)?;
        let entry = rec.entry();
        entry.binding.is_some().then_some((&rec.name, entry))
    }

    /// Resolves a batch of prefixes against the table as it stands, with
    /// the batched probe a snapshot runs
    /// ([`Snapshot::resolve_batch`](crate::shard::Snapshot::resolve_batch));
    /// tombstones answer `None`.
    pub fn resolve_batch(&self, names: &[&[u8]]) -> Vec<Option<SnapEntry>> {
        batch_probe(&self.shards, names)
    }

    /// The least live name, in name order, whose binding satisfies `wanted`
    /// — what `live_iter().find(..)` answers, from one unsorted pass over
    /// the records instead of a sort of the whole table.
    pub fn first_live_name(&self, mut wanted: impl FnMut(&SyncBinding) -> bool) -> Option<&[u8]> {
        self.shards
            .iter()
            .flat_map(|s| s.records())
            .filter(|rec| rec.entry().binding.as_ref().is_some_and(&mut wanted))
            .map(|rec| &*rec.name)
            .min()
    }

    /// Iterates live `(prefix, binding, verified)` entries in name order.
    pub fn live_iter(&self) -> impl Iterator<Item = (&[u8], SyncBinding, bool)> {
        self.sorted_records().into_iter().filter_map(|rec| {
            let entry = rec.entry();
            Some((&*rec.name, entry.binding?, entry.verified))
        })
    }

    /// Marks every entry verified — used when the authority has just
    /// vouched for the whole table (a successful sync round). Walks the
    /// unverified index, not the table, so a steady-state round (nothing
    /// to promote) costs nothing. Not a content change (the tree excludes
    /// the verified bit), but snapshots serve it as the staleness flag —
    /// the `put` copies any page a snapshot shares, so it re-publishes.
    pub fn mark_all_verified(&mut self) -> u32 {
        let mut promoted = 0;
        while let Some(rec) = self.unverified.first().and_then(|name| self.get(name)) {
            let (name, entry) = (rec.name.clone(), rec.entry());
            self.put(
                &name,
                VersionedEntry {
                    verified: true,
                    ..entry
                },
            );
            promoted += 1;
        }
        promoted
    }

    /// The number of live entries.
    pub fn live_len(&self) -> usize {
        self.shards.iter().map(|s| s.live_len()).sum()
    }

    /// The number of retained tombstones.
    pub fn tombstone_len(&self) -> usize {
        self.tombs.len()
    }

    /// The tombstone index, for tests of what its names share.
    #[cfg(test)]
    pub(crate) fn tombs(&self) -> &BTreeSet<(u64, Name)> {
        &self.tombs
    }

    /// The highest epoch stamped or adopted so far. O(1): every write
    /// path keeps `next_epoch` at least as high as every entry's epoch
    /// (stamps set it, adoption and minting max into it, preloads are
    /// epoch 0), and the walk reads this on every probe.
    pub fn max_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// Replica side: the synced watermark — the highest authority epoch
    /// this table has fully reconciled through. 0 until the first
    /// complete, successful authority round. Gossip never moves it.
    pub fn watermark(&self) -> u64 {
        self.synced
    }

    /// Replica side: records a complete, successful authority round
    /// through `epoch` (the authority's table epoch from the delta
    /// header). Monotone.
    pub fn note_synced(&mut self, epoch: u64) {
        self.synced = self.synced.max(epoch);
    }

    /// Authority side: records the synced watermark a replica reported in
    /// its digest. Monotone per replica — a delayed digest cannot pull a
    /// watermark (and hence the horizon) backwards.
    pub fn record_watermark(&mut self, replica: u32, watermark: u64) {
        let slot = self.watermarks.entry(replica).or_insert(0);
        *slot = (*slot).max(watermark);
    }

    /// Authority side: the tombstone-GC horizon — the minimum synced
    /// watermark across every replica that has ever reported one. Every
    /// tombstone at or below it is provably adopted everywhere, so it is
    /// safe to drop. 0 (collect nothing) while no replica has reported.
    pub fn horizon(&self) -> u64 {
        self.watermarks.values().copied().min().unwrap_or(0)
    }

    /// The highest GC horizon this table has collected at.
    pub fn gc_horizon(&self) -> u64 {
        self.gc_horizon
    }

    /// Drops every tombstone stamped at or below `horizon`, returning how
    /// many were collected. Safe exactly when `horizon` is a true GC
    /// horizon (every replica's watermark has passed it): the delete is
    /// already adopted everywhere, so nothing can resurrect it. A horizon
    /// of 0 (or one below a previous GC) collects nothing — every
    /// tombstone carries a stamp, and stamps start at 1.
    pub fn gc_below(&mut self, horizon: u64) -> u32 {
        self.gc_horizon = self.gc_horizon.max(horizon);
        // The tombstone index hands over exactly the doomed names —
        // O(collected), not O(table), which matters because the Merkle
        // walk runs this on every probe.
        let mut dropped = 0;
        while let Some((_, name)) = self.tombs.first().filter(|(e, _)| *e <= horizon) {
            let name = name.clone();
            self.remove(&name);
            dropped += 1;
        }
        dropped
    }

    /// The `(prefix, epoch, tombstone?)` digest of the whole table, in
    /// prefix order — the `SyncDigest` request payload.
    pub fn digest(&self) -> Vec<SyncDigestEntry> {
        self.sorted_records()
            .into_iter()
            .map(digest_entry)
            .collect()
    }

    /// Computes the delta that brings the sender of `digest` up to date:
    /// every local entry the digest is missing or holds at an older epoch.
    /// Non-authoritative responders (gossip peers) never send epoch-0
    /// entries — preloads are hearsay, and gossiping one after the
    /// authority GC'd its tombstone would resurrect a delete.
    ///
    /// When `authoritative`, prefixes the digest knows but this table does
    /// not are answered with a *freshly stamped tombstone* (epoch at least
    /// `digest_epoch + 1`, so it out-ranks the replica's copy), which both
    /// sides then retain — that is what makes the two tables converge to
    /// bytewise-identical contents rather than merely compatible ones.
    /// Two exceptions:
    ///
    /// * a digest entry that is already a **tombstone** at or below the GC
    ///   horizon is one this authority collected — skipped; the replica
    ///   drops its copy when it sees the horizon in the delta header;
    /// * a digest epoch more than [`MAX_EPOCH_SKEW_NS`] beyond `now_ns`
    ///   cannot have come from a legitimate stamp — the entry is rejected
    ///   outright rather than allowed to poison the epoch clock.
    pub fn delta_for(
        &mut self,
        digest: &[SyncDigestEntry],
        authoritative: bool,
        now_ns: u64,
    ) -> Vec<SyncEntry> {
        self.delta_scoped(digest, None, authoritative, now_ns)
    }

    /// The Merkle-walk variant of [`SyncTable::delta_for`]: computes the
    /// delta for the leaf buckets a probe diffed. `leaves` carries the
    /// puller's per-bucket digests; only entries hashing into those
    /// buckets are considered on either side. Invalid or non-leaf node
    /// ids (hostile or stale senders) are ignored.
    ///
    /// Because equal-hash buckets hold identical content, restricting the
    /// filter/minting rules of `delta_for` to the diverging buckets
    /// produces *the same delta* a whole-table digest would — the
    /// equivalence the differential proptests pin.
    pub fn delta_for_leaves(
        &mut self,
        leaves: &[SyncLeafDigest],
        authoritative: bool,
        now_ns: u64,
    ) -> Vec<SyncEntry> {
        let mut scope = BTreeSet::new();
        let mut digest = Vec::new();
        for leaf in leaves {
            if !merkle_node_valid(leaf.node) || !merkle_is_leaf(leaf.node) {
                continue;
            }
            scope.insert(merkle_index(leaf.node));
            digest.extend(leaf.entries.iter().cloned());
        }
        self.delta_scoped(&digest, Some(&scope), authoritative, now_ns)
    }

    /// Shared core of the flat and Merkle delta paths. `scope` restricts
    /// both sides to the given leaf buckets (`None` = whole table): local
    /// candidates come from bucket range scans instead of a full table
    /// scan, and digest entries outside the scope are disregarded.
    /// Filter, tombstone-minting, GC-horizon and epoch-skew rules are
    /// identical in both modes; minting processes unknown prefixes in
    /// prefix order so the two paths stamp identical epochs.
    fn delta_scoped(
        &mut self,
        digest: &[SyncDigestEntry],
        scope: Option<&BTreeSet<u32>>,
        authoritative: bool,
        now_ns: u64,
    ) -> Vec<SyncEntry> {
        let in_scope =
            |prefix: &[u8]| scope.is_none_or(|buckets| buckets.contains(&Self::bucket_of(prefix)));
        let remote: BTreeMap<&[u8], u64> = digest
            .iter()
            .filter(|d| in_scope(&d.prefix))
            .map(|d| (d.prefix.as_slice(), d.epoch))
            .collect();
        let newer = |rec: &&Record| {
            let epoch = rec.entry().epoch;
            (authoritative || epoch > 0)
                && remote
                    .get(&*rec.name)
                    .is_none_or(|&remote_epoch| epoch > remote_epoch)
        };
        let to_entry = |rec: &Record| {
            let entry = rec.entry();
            SyncEntry {
                prefix: rec.name.to_vec(),
                epoch: entry.epoch,
                binding: entry.binding,
            }
        };
        let mut out: Vec<SyncEntry> = match scope {
            None => self
                .shards
                .iter()
                .flat_map(|s| s.records())
                .filter(newer)
                .map(to_entry)
                .collect(),
            Some(buckets) => buckets
                .iter()
                .flat_map(|&b| self.bucket(b))
                .filter(newer)
                .map(to_entry)
                .collect(),
        };
        if authoritative {
            let max_credible = now_ns.saturating_add(MAX_EPOCH_SKEW_NS);
            let mut unknown: Vec<(&[u8], u64)> = digest
                .iter()
                .filter(|d| {
                    in_scope(&d.prefix)
                        && self.get(&d.prefix).is_none()
                        && d.epoch <= max_credible
                        && !(d.tombstone && d.epoch <= self.gc_horizon)
                })
                .map(|d| (d.prefix.as_slice(), d.epoch))
                .collect();
            // Prefix order, so the flat path (sorted whole-table digest)
            // and the Merkle path (bucket-ordered leaf digests) stamp the
            // same epochs for the same unknowns.
            unknown.sort_by(|a, b| a.0.cmp(b.0));
            for (prefix, remote_epoch) in unknown {
                let epoch = self.stamp(now_ns).max(remote_epoch.saturating_add(1));
                self.next_epoch = epoch;
                self.put(
                    prefix,
                    VersionedEntry {
                        binding: None,
                        epoch,
                        verified: true,
                    },
                );
                out.push(SyncEntry {
                    prefix: prefix.to_vec(),
                    epoch,
                    binding: None,
                });
            }
        }
        out.sort_by(|a, b| a.prefix.cmp(&b.prefix));
        out
    }

    /// Applies a delta: each entry that out-ranks (strictly newer epoch
    /// than) the local version is adopted. Equal or older epochs change
    /// nothing — epochs never regress.
    ///
    /// `verified` says who vouched for the delta: `true` for the
    /// configured authority (entries become first-class), `false` for a
    /// gossip peer (entries stay *Suspect* — served with the staleness
    /// flag — until an authority round vouches for them).
    pub fn apply(&mut self, delta: &[SyncEntry], verified: bool) -> ApplyOutcome {
        let mut outcome = ApplyOutcome::default();
        for d in delta {
            // Epoch 0 is reserved for local preloads; no stamp ever
            // produces it, so an epoch-0 delta entry is hearsay and never
            // adopted. A gossip entry at or below the GC horizon is stale
            // by definition — this table has synced through the horizon,
            // so anything at those epochs it does not hold was tombstoned
            // (and possibly collected); adopting it would resurrect a
            // delete through a peer that never synced.
            if d.epoch == 0 || (!verified && d.epoch <= self.gc_horizon) {
                continue;
            }
            let local = self.get(&d.prefix).map(Record::entry);
            if local.is_some_and(|e| e.epoch >= d.epoch) {
                continue;
            }
            if local.is_some_and(|e| e.binding.is_some()) && d.binding.is_none() {
                outcome.dropped_live += 1;
            }
            if local.is_some_and(|e| !e.verified) && verified {
                outcome.promoted += 1;
            }
            self.put(
                &d.prefix,
                VersionedEntry {
                    binding: d.binding,
                    epoch: d.epoch,
                    verified,
                },
            );
            self.next_epoch = self.next_epoch.max(d.epoch);
            outcome.adopted += 1;
        }
        outcome
    }

    /// The puller's end of every round, once the whole delta has arrived:
    /// apply it, and — when the configured authority `vouched` for it —
    /// move the synced watermark to the responder's `epoch` header, collect
    /// behind its advertised `horizon`, and promote everything left
    /// unverified (the authority has just vouched for the whole table).
    /// Gossip only applies: adopted entries stay Suspect and neither the
    /// watermark nor the horizon moves. Returns the outcome and the number
    /// of tombstones collected.
    pub fn adopt(
        &mut self,
        delta: &[SyncEntry],
        epoch: u64,
        horizon: u64,
        vouched: bool,
    ) -> (ApplyOutcome, u32) {
        let mut out = self.apply(delta, vouched);
        if !vouched {
            return (out, 0);
        }
        self.note_synced(epoch);
        let collected = self.gc_below(horizon);
        out.promoted += self.mark_all_verified();
        (out, collected)
    }

    /// A content-complete hash of the table: prefixes, epochs, tombstone
    /// flags, and binding fields (the `verified` bit is local bookkeeping
    /// and excluded). Two tables hash equal iff their reconcilable
    /// contents are identical — the witness EXP-13 and EXP-14 use for
    /// "bytewise identical within one round". This *is* the Merkle root
    /// ([`SyncTable::merkle_root`]); `&mut self` because dirty nodes flush
    /// lazily on read.
    pub fn table_hash(&mut self) -> u64 {
        self.merkle_root()
    }

    /// Recomputes the hashes of exactly the ancestors of changed leaves,
    /// level by level up to the root. A single-entry edit re-folds its
    /// sixteen sibling leaves and re-hashes [`MERKLE_LEVELS`] interior
    /// nodes; untouched subtrees are never revisited.
    fn merkle_flush(&mut self) {
        let mut dirty = std::mem::take(&mut self.dirty);
        for level in (0..MERKLE_LEVELS).rev() {
            let mut parents = BTreeSet::new();
            for index in dirty {
                let id = merkle_node_id(level, index);
                match combine_children(&self.children_of(level, index)) {
                    0 => self.nodes.remove(&id),
                    h => self.nodes.insert(id, h),
                };
                parents.insert(index / MERKLE_FANOUT);
            }
            dirty = parents;
        }
    }

    /// The child hashes of interior node `(level, index)` (0 = empty
    /// subtree): cached for interior children, folded from the records for
    /// leaf children — one range scan over the sixteen sibling buckets,
    /// each folded in name order.
    fn children_of(&self, level: u32, index: u32) -> [u64; MERKLE_FANOUT as usize] {
        let first = index * MERKLE_FANOUT;
        let mut children = [0u64; MERKLE_FANOUT as usize];
        if level + 1 < MERKLE_LEVELS {
            for (k, slot) in (first..).zip(&mut children) {
                let child = merkle_node_id(level + 1, k);
                *slot = self.nodes.get(&child).copied().unwrap_or(0);
            }
            return children;
        }
        let mut siblings: Vec<&Record> = self.shards[shard_of_bucket(first)]
            .under(first, MERKLE_FANOUT)
            .collect();
        siblings.sort_unstable_by_key(|rec| (bucket_of_hash(rec.hash), &rec.name));
        for leaf in siblings.chunk_by(|a, b| bucket_of_hash(a.hash) == bucket_of_hash(b.hash)) {
            let mut h = Fnv1a::new();
            for rec in leaf {
                fold_entry(&mut h, &rec.name, &rec.entry());
            }
            children[(bucket_of_hash(leaf[0].hash) - first) as usize] = h.finish();
        }
        children
    }

    /// The Merkle root over the whole table (0 for an empty table).
    pub fn merkle_root(&mut self) -> u64 {
        self.merkle_flush();
        self.nodes.get(&MERKLE_ROOT).copied().unwrap_or(0)
    }

    /// The child hashes of an interior node, or `None` if the id is not a
    /// valid interior node of the tree shape.
    pub fn merkle_children(&mut self, node: u32) -> Option<[u64; MERKLE_FANOUT as usize]> {
        if !merkle_node_valid(node) || merkle_is_leaf(node) {
            return None;
        }
        self.merkle_flush();
        Some(self.children_of(merkle_level(node), merkle_index(node)))
    }

    /// The `(prefix, epoch, tombstone?)` digest of one leaf bucket — the
    /// per-bucket restriction of [`SyncTable::digest`], in prefix order.
    /// Empty (and for invalid ids) when nothing hashes into the bucket.
    pub fn leaf_digest(&self, node: u32) -> Vec<SyncDigestEntry> {
        if !merkle_node_valid(node) || !merkle_is_leaf(node) {
            return Vec::new();
        }
        let mut entries: Vec<SyncDigestEntry> =
            self.bucket(merkle_index(node)).map(digest_entry).collect();
        entries.sort_unstable_by(|a, b| a.prefix.cmp(&b.prefix));
        entries
    }

    /// The responder's first step in any round. An authority records the
    /// puller's watermark (if `from_replica` identifies it) and collects
    /// tombstones behind the resulting horizon — before computing any
    /// delta, so the fresh horizon governs the round. Both operations are
    /// monotone and idempotent, so repeating them on every probe of a
    /// multi-probe walk leaves the same state one flat digest would.
    /// Returns the number of tombstones collected.
    fn hear_puller(&mut self, authoritative: bool, from_replica: Option<u32>, mark: u64) -> u32 {
        if !authoritative {
            return 0;
        }
        if let Some(replica) = from_replica {
            self.record_watermark(replica, mark);
        }
        self.gc_below(self.horizon())
    }

    /// Answers one flat digest — the responder half of the oracle round.
    /// The reply's epoch header is read after the delta is computed, so it
    /// covers any tombstones freshly minted for the digest's unknown
    /// prefixes: a replica that applies this whole delta really has synced
    /// through it. Returned alongside the number of tombstones GC'd.
    pub fn answer_digest(
        &mut self,
        digest: &SyncDigestMsg,
        authoritative: bool,
        from_replica: Option<u32>,
        now_ns: u64,
    ) -> (SyncDeltaMsg, u32) {
        let gc_dropped = self.hear_puller(authoritative, from_replica, digest.watermark);
        let entries = self.delta_for(&digest.entries, authoritative, now_ns);
        let reply = SyncDeltaMsg {
            epoch: self.max_epoch(),
            horizon: if authoritative { self.gc_horizon() } else { 0 },
            entries,
        };
        (reply, gc_dropped)
    }

    /// Answers one Merkle probe — the responder half of a walk step: child
    /// hashes for the probed interior nodes, and the delta for the probed
    /// leaf buckets. Returned alongside the number of tombstones GC'd (for
    /// the server's counters).
    pub fn answer_probe(
        &mut self,
        probe: &SyncProbeMsg,
        authoritative: bool,
        from_replica: Option<u32>,
        now_ns: u64,
    ) -> (SyncProbeReply, u32) {
        let gc_dropped = self.hear_puller(authoritative, from_replica, probe.watermark);
        let entries = if probe.leaves.is_empty() {
            Vec::new()
        } else {
            self.delta_for_leaves(&probe.leaves, authoritative, now_ns)
        };
        let nodes = probe
            .nodes
            .iter()
            .filter_map(|&id| {
                self.merkle_children(id).map(|children| SyncNodeRec {
                    node: id,
                    children: children.to_vec(),
                })
            })
            .collect();
        let reply = SyncProbeReply {
            epoch: self.max_epoch(),
            horizon: if authoritative { self.gc_horizon() } else { 0 },
            root: self.merkle_root(),
            nodes,
            entries,
        };
        (reply, gc_dropped)
    }
}

/// The puller half of a Merkle reconciliation round: a frontier of
/// diverging node ids, narrowed one probe at a time.
///
/// The walk touches the puller's table **read-only** until
/// [`MerkleWalk::finish`]; the accumulated delta is applied in one shot
/// only after the last probe answers, so a round that dies mid-walk
/// leaves the puller bit-identical to before (same atomicity contract as
/// the flat digest → delta round).
#[derive(Debug, Clone, Default)]
pub struct MerkleWalk {
    /// Node ids whose hashes disagreed at the previous level (starts at
    /// the root; every element is one level deeper each step).
    frontier: Vec<u32>,
    /// Delta entries accumulated from leaf probes.
    delta: Vec<SyncEntry>,
    /// Epoch/horizon headers from the most recent reply — the puller
    /// honours the last one, which the responder computed after any
    /// tombstone minting (the flat path's post-mint `delta.epoch`).
    epoch: u64,
    horizon: u64,
}

impl MerkleWalk {
    /// A fresh walk, frontier at the root.
    pub fn start() -> Self {
        MerkleWalk {
            frontier: vec![MERKLE_ROOT],
            ..MerkleWalk::default()
        }
    }

    /// The next probe to send, or `None` when the walk is complete. Leaf
    /// ids on the frontier turn into leaf digests, interior ids into
    /// expansion requests.
    pub fn next_probe(&self, table: &SyncTable) -> Option<SyncProbeMsg> {
        if self.frontier.is_empty() {
            return None;
        }
        let mut nodes = Vec::new();
        let mut leaves = Vec::new();
        for &id in &self.frontier {
            if merkle_is_leaf(id) {
                leaves.push(SyncLeafDigest {
                    node: id,
                    entries: table.leaf_digest(id),
                });
            } else {
                nodes.push(id);
            }
        }
        Some(SyncProbeMsg {
            watermark: table.watermark(),
            nodes,
            leaves,
        })
    }

    /// Absorbs a probe reply: descends into children whose hashes differ
    /// from the puller's own, and accumulates delta entries. Node records
    /// the probe never asked for are ignored (a hostile responder cannot
    /// keep the walk alive forever: honoured records descend one level per
    /// probe, so a walk is bounded by the tree depth).
    pub fn absorb(&mut self, table: &mut SyncTable, reply: &SyncProbeReply) {
        self.epoch = reply.epoch;
        self.horizon = reply.horizon;
        let mut next = Vec::new();
        for rec in &reply.nodes {
            if !self.frontier.contains(&rec.node) {
                continue;
            }
            let Some(local) = table.merkle_children(rec.node) else {
                continue;
            };
            for (k, &remote_hash) in rec.children.iter().take(local.len()).enumerate() {
                if remote_hash != local[k] {
                    next.push(merkle_child(rec.node, k as u32));
                }
            }
        }
        self.delta.extend(reply.entries.iter().cloned());
        self.frontier = next;
    }

    /// Consumes the walk: the accumulated delta plus the epoch/horizon
    /// header of the final reply.
    pub fn finish(self) -> (Vec<SyncEntry>, u64, u64) {
        (self.delta, self.epoch, self.horizon)
    }
}

/// Who is pulling in a transport-free reconciliation round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundKind {
    /// A replica pulling from its authority: the responder records the
    /// watermark, GCs, and mints; the puller applies verified, moves its
    /// watermark, collects on the advertised horizon, and promotes.
    Authority {
        /// The puller's raw pid as the authority tracks watermarks.
        replica_id: u32,
    },
    /// Replica↔replica gossip: no minting, no watermark movement, no GC
    /// instruction; adopted entries stay Suspect.
    Gossip,
}

/// Failure injection for a transport-free round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundFate {
    /// Lose the n-th probe request in flight (0-based): the responder has
    /// processed exactly n probes when the round dies, the puller applies
    /// nothing. `Some(0)` models the flat path's "digest lost" fate.
    /// `None` delivers every request.
    pub drop_request_at: Option<u32>,
    /// Deliver every request but lose the final reply: responder side
    /// effects complete (as in the flat "reply lost" fate — the authority
    /// processed the digest), the puller still applies nothing.
    pub lose_final_reply: bool,
}

impl RoundFate {
    /// Everything arrives.
    pub const DELIVERED: RoundFate = RoundFate {
        drop_request_at: None,
        lose_final_reply: false,
    };
}

/// Wire-cost accounting for one transport-free round — what the table-size
/// sweep in EXP-13 measures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Probe (or digest) request/reply exchanges.
    pub probes: u32,
    /// Encoded request payload bytes.
    pub request_bytes: u64,
    /// Encoded reply payload bytes.
    pub reply_bytes: u64,
    /// Digest entries shipped (whole-table for flat, per-leaf for Merkle).
    pub digest_entries: u64,
    /// Merkle child hashes shipped (0 on the flat path).
    pub node_hashes: u64,
    /// Delta entries shipped.
    pub delta_entries: u64,
}

impl RoundStats {
    /// Total bytes on the wire, both directions.
    pub fn bytes(&self) -> u64 {
        self.request_bytes + self.reply_bytes
    }

    /// CPU-work proxy: units hashed/compared/shipped by the round
    /// (digest entries + child hashes + delta entries).
    pub fn work(&self) -> u64 {
        self.digest_entries + self.node_hashes + self.delta_entries
    }
}

impl RoundKind {
    /// The replica id an authority responder tracks the puller under;
    /// `None` for gossip, whose responders track nobody.
    fn replica(self) -> Option<u32> {
        match self {
            RoundKind::Authority { replica_id } => Some(replica_id),
            RoundKind::Gossip => None,
        }
    }
}

/// Runs one complete Merkle reconciliation round between two in-memory
/// tables, encoding every payload through the real wire records so the
/// stats mean what they would on the network. Returns `None` (puller
/// untouched) when `fate` kills the round.
pub fn merkle_round(
    responder: &mut SyncTable,
    puller: &mut SyncTable,
    kind: RoundKind,
    now_ns: u64,
    fate: RoundFate,
) -> (Option<ApplyOutcome>, RoundStats) {
    let authoritative = kind.replica().is_some();
    let mut walk = MerkleWalk::start();
    let mut stats = RoundStats::default();
    while let Some(probe) = walk.next_probe(puller) {
        if fate.drop_request_at == Some(stats.probes) {
            return (None, stats);
        }
        stats.request_bytes += probe.encode().len() as u64;
        stats.digest_entries += probe
            .leaves
            .iter()
            .map(|leaf| leaf.entries.len() as u64)
            .sum::<u64>();
        let (reply, _gc) = responder.answer_probe(&probe, authoritative, kind.replica(), now_ns);
        stats.reply_bytes += reply.encode().len() as u64;
        stats.node_hashes += reply
            .nodes
            .iter()
            .map(|rec| rec.children.len() as u64)
            .sum::<u64>();
        stats.delta_entries += reply.entries.len() as u64;
        stats.probes += 1;
        walk.absorb(puller, &reply);
    }
    if fate.lose_final_reply {
        return (None, stats);
    }
    let (delta, epoch, horizon) = walk.finish();
    let (outcome, _gc) = puller.adopt(&delta, epoch, horizon, authoritative);
    (Some(outcome), stats)
}

/// Runs one complete **flat-digest** reconciliation round between two
/// in-memory tables — the legacy O(table) path, retained as the
/// differential oracle for [`merkle_round`] and as the linear-growth
/// baseline in EXP-13's table-size sweep. Fate mapping: any
/// `drop_request_at` loses the digest (responder untouched);
/// `lose_final_reply` loses the delta after the responder fully processed
/// the digest.
pub fn flat_round(
    responder: &mut SyncTable,
    puller: &mut SyncTable,
    kind: RoundKind,
    now_ns: u64,
    fate: RoundFate,
) -> (Option<ApplyOutcome>, RoundStats) {
    let authoritative = kind.replica().is_some();
    let digest = SyncDigestMsg {
        watermark: puller.watermark(),
        entries: puller.digest(),
    };
    let mut stats = RoundStats {
        probes: 1,
        request_bytes: digest.encode().len() as u64,
        digest_entries: digest.entries.len() as u64,
        ..RoundStats::default()
    };
    if fate.drop_request_at.is_some() {
        return (None, stats);
    }
    let (delta, _gc) = responder.answer_digest(&digest, authoritative, kind.replica(), now_ns);
    stats.reply_bytes += delta.encode().len() as u64;
    stats.delta_entries += delta.entries.len() as u64;
    if fate.lose_final_reply {
        return (None, stats);
    }
    let (outcome, _gc) = puller.adopt(&delta.entries, delta.epoch, delta.horizon, authoritative);
    (Some(outcome), stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bind(target: u32) -> SyncBinding {
        SyncBinding {
            logical: false,
            target,
            context: 1,
        }
    }

    #[test]
    fn one_round_converges_preloaded_replica() {
        let mut auth = SyncTable::new();
        auth.define(b"home", bind(1), 100);
        auth.define(b"remote", bind(2), 200);
        auth.tombstone(b"home", 300);

        let mut replica = SyncTable::new();
        replica.preload(b"home", bind(1));
        replica.preload(b"stale", bind(9)); // authority never had it

        let delta = auth.delta_for(&replica.digest(), true, 400);
        replica.apply(&delta, true);
        assert_eq!(replica.table_hash(), auth.table_hash());
        assert!(replica.lookup(b"home").is_none(), "tombstone adopted");
        assert!(replica.lookup(b"stale").is_none(), "unknown prefix killed");
        assert!(replica.lookup(b"remote").is_some());
    }

    #[test]
    fn second_round_is_a_no_op() {
        let mut auth = SyncTable::new();
        auth.define(b"a", bind(1), 10);
        let mut replica = SyncTable::new();
        let d1 = auth.delta_for(&replica.digest(), true, 20);
        replica.apply(&d1, true);
        let d2 = auth.delta_for(&replica.digest(), true, 30);
        assert!(d2.is_empty());
        assert_eq!(replica.apply(&d2, true), ApplyOutcome::default());
    }

    #[test]
    fn epochs_never_regress_on_apply() {
        let mut t = SyncTable::new();
        t.define(b"a", bind(1), 100);
        let e = t.lookup(b"a").map(|v| v.epoch).unwrap_or(0);
        let out = t.apply(
            &[SyncEntry {
                prefix: b"a".to_vec(),
                epoch: e, // equal epoch: must not re-adopt
                binding: None,
            }],
            true,
        );
        assert_eq!(out, ApplyOutcome::default());
        assert!(t.lookup(b"a").is_some());
    }

    #[test]
    fn restart_stamps_outrank_pre_crash_entries() {
        let mut before = SyncTable::new();
        before.define(b"a", bind(1), 5_000_000);
        let pre_crash = before.lookup(b"a").map(|v| v.epoch).unwrap_or(0);
        // A restarted authority starts a fresh table but stamps at the
        // (later) virtual time, so its entries win.
        let mut after = SyncTable::new();
        after.define(b"a", bind(2), 9_000_000);
        let post_crash = after.lookup(b"a").map(|v| v.epoch).unwrap_or(0);
        assert!(post_crash > pre_crash);
    }

    #[test]
    fn promotion_counts_unverified_entries() {
        let mut auth = SyncTable::new();
        auth.define(b"a", bind(1), 10);
        let mut replica = SyncTable::new();
        replica.preload(b"a", bind(1));
        assert!(replica.lookup(b"a").is_some_and(|e| !e.verified));
        let delta = auth.delta_for(&replica.digest(), true, 20);
        let out = replica.apply(&delta, true);
        assert_eq!(out.promoted, 1);
        assert!(replica.lookup(b"a").is_some_and(|e| e.verified));
    }

    /// Regression (ISSUE 5): deleting a name that was never defined must
    /// not stamp a tombstone — otherwise delete-of-unknown churn grows
    /// the table forever.
    #[test]
    fn deleting_an_unknown_prefix_is_a_no_op() {
        let mut t = SyncTable::new();
        t.define(b"a", bind(1), 10);
        let hash = t.table_hash();
        let epoch = t.max_epoch();
        for i in 0..100u32 {
            let name = format!("never-{i}").into_bytes();
            assert_eq!(
                t.tombstone(&name, 20 + u64::from(i)),
                TombstoneOutcome::Unknown
            );
        }
        assert_eq!(t.table_hash(), hash, "table changed by no-op deletes");
        assert_eq!(t.tombstone_len(), 0);
        assert_eq!(t.max_epoch(), epoch, "epoch clock moved by no-op deletes");
        // Known names still tombstone normally, live or already dead.
        assert_eq!(t.tombstone(b"a", 200), TombstoneOutcome::DroppedLive);
        assert_eq!(t.tombstone(b"a", 300), TombstoneOutcome::AlreadyDead);
        assert_eq!(t.tombstone_len(), 1);
    }

    /// Regression (ISSUE 5): a digest carrying an absurd epoch (corrupt or
    /// hostile) must not be written into the authority's epoch clock —
    /// one poisoned digest would inflate every stamp thereafter.
    #[test]
    fn hostile_digest_epoch_cannot_poison_the_clock() {
        let mut auth = SyncTable::new();
        auth.define(b"a", bind(1), 1_000);
        let now_ns = 2_000;
        let hostile = [SyncDigestEntry {
            prefix: b"evil".to_vec(),
            epoch: u64::MAX - 7,
            tombstone: false,
        }];
        let delta = auth.delta_for(&hostile, true, now_ns);
        // The hostile entry is rejected outright: no tombstone stamped
        // for it, nothing keyed off its epoch.
        assert!(delta.iter().all(|e| e.prefix != b"evil"));
        assert!(auth.max_epoch() <= now_ns + MAX_EPOCH_SKEW_NS);
        // The clock still stamps sanely afterwards.
        auth.define(b"b", bind(2), 3_000);
        assert!(auth.max_epoch() < 1_000_000);
        // An epoch within the skew bound is still honoured (the normal
        // unknown-prefix tombstone path).
        let plausible = [SyncDigestEntry {
            prefix: b"stale".to_vec(),
            epoch: now_ns,
            tombstone: false,
        }];
        let delta = auth.delta_for(&plausible, true, now_ns);
        assert!(delta
            .iter()
            .any(|e| e.prefix == b"stale" && e.binding.is_none()));
    }

    #[test]
    fn horizon_is_min_watermark_and_starts_at_zero() {
        let mut auth = SyncTable::new();
        assert_eq!(auth.horizon(), 0, "no replicas known: collect nothing");
        auth.record_watermark(1, 500);
        assert_eq!(auth.horizon(), 500);
        auth.record_watermark(2, 300);
        assert_eq!(auth.horizon(), 300, "slowest replica pins the horizon");
        // Watermarks are monotone: a delayed, older report cannot regress.
        auth.record_watermark(1, 100);
        assert_eq!(auth.horizon(), 300);
        auth.record_watermark(2, 900);
        assert_eq!(auth.horizon(), 500);
    }

    #[test]
    fn gc_drops_only_tombstones_at_or_below_horizon() {
        let mut t = SyncTable::new();
        t.define(b"live", bind(1), 100);
        t.define(b"old", bind(2), 200);
        t.define(b"new", bind(3), 300);
        t.tombstone(b"old", 400);
        t.tombstone(b"new", 500);
        let old_epoch = 400; // stamps are >= now, monotone
        assert_eq!(t.gc_below(old_epoch), 1, "only the old tombstone goes");
        assert_eq!(t.tombstone_len(), 1);
        assert!(t.lookup(b"live").is_some(), "live entries are never GC'd");
        assert_eq!(t.gc_below(old_epoch), 0, "idempotent");
        assert_eq!(t.gc_horizon(), old_epoch);
        assert_eq!(t.gc_below(u64::MAX), 1, "rest goes when the horizon passes");
        assert_eq!(t.tombstone_len(), 0);
    }

    /// Pins the invariants the O(1)/O(touched) fast paths lean on: after
    /// every kind of write, `next_epoch` dominates every entry epoch, the
    /// tombstone index mirrors exactly the dead entries, and the
    /// unverified index mirrors exactly the unverified ones. The walk
    /// reads `max_epoch` and GCs on *every probe* — if any write path
    /// bypassed these indexes, reconciliation would silently go stale,
    /// not just slow.
    #[test]
    fn epoch_clock_and_side_indexes_mirror_the_table() {
        let check = |t: &SyncTable, who: &str| {
            let records = t.sorted_records();
            let scan_max = records.iter().map(|r| r.entry().epoch).max().unwrap_or(0);
            assert!(t.next_epoch >= scan_max, "{who}: clock behind an entry");
            let dead: BTreeSet<(u64, Name)> = records
                .iter()
                .filter(|r| r.entry().binding.is_none())
                .map(|r| (r.entry().epoch, r.name.clone()))
                .collect();
            assert_eq!(t.tombs, dead, "{who}: tombstone index diverged");
            let unverified: BTreeSet<Name> = records
                .iter()
                .filter(|r| !r.entry().verified)
                .map(|r| r.name.clone())
                .collect();
            assert_eq!(t.unverified, unverified, "{who}: unverified index diverged");
            // The indexes hold the shard's own name handles, not copies: a
            // heap name is the stored record's allocation. An inline name
            // has no heap storage to duplicate.
            let indexed = t.tombs.iter().map(|(_, name)| name);
            for name in indexed.chain(&t.unverified) {
                match (name, &t.get(name).expect("indexed name is stored").name) {
                    (Name::Heap(_, name), Name::Heap(_, stored)) => {
                        assert!(Arc::ptr_eq(name, stored), "{who}: indexed name was copied")
                    }
                    (Name::Inline(..), Name::Inline(..)) => {}
                    _ => panic!("{who}: indexed and stored names differ in kind"),
                }
            }
        };
        // Past `Name`'s inline capacity: stored on the heap, shared by handle.
        let long = |tag: &str| format!("{tag}-{}", "x".repeat(30)).into_bytes();
        let mut auth = SyncTable::new();
        let mut rep = SyncTable::new();
        rep.preload(b"boot", bind(9));
        rep.preload(long("boot"), bind(9));
        check(&rep, "preload");
        auth.define(b"a", bind(1), 100);
        auth.define(b"b", bind(2), 200);
        auth.define(long("a"), bind(3), 250);
        auth.tombstone(b"a", 300);
        auth.tombstone(b"a", 400); // re-stamp moves the index slot
        auth.tombstone(&long("a"), 410);
        assert!(auth.tombs.iter().any(|(_, n)| matches!(n, Name::Heap(..))));
        check(&auth, "define/tombstone");
        // Minting: the replica's digest names a prefix the authority never
        // had, so the delta path stamps a tombstone for it.
        let mut digest = rep.digest();
        digest.push(SyncDigestEntry {
            prefix: b"ghost".to_vec(),
            epoch: 250,
            tombstone: false,
        });
        let delta = auth.delta_for(&digest, true, 500);
        check(&auth, "mint");
        rep.apply(&delta, false); // gossip: adopted entries stay unverified
        check(&rep, "gossip apply");
        rep.apply(&delta, true);
        rep.mark_all_verified();
        check(&rep, "vouched apply + promote");
        auth.record_watermark(7, 450);
        auth.gc_below(auth.horizon());
        check(&auth, "gc");
        assert_eq!(auth.max_epoch(), auth.next_epoch);
    }

    /// A gossip delta can carry any non-zero epoch, `u64::MAX` included,
    /// and adopting it moves the clock there. The next stamp saturates: a
    /// define and a tombstone of other names still succeed, their epochs
    /// do not fall below the adopted one, and the clock still dominates
    /// every entry.
    #[test]
    fn a_stamp_after_a_maximal_gossip_epoch_saturates() {
        let mut t = SyncTable::new();
        t.define(b"z", bind(1), 10);
        let maximal = SyncEntry {
            prefix: b"x".to_vec(),
            epoch: u64::MAX,
            binding: Some(bind(2)),
        };
        assert_eq!(t.apply(&[maximal], false).adopted, 1);
        assert_eq!(t.max_epoch(), u64::MAX);
        t.define(b"y", bind(3), 5);
        assert_eq!(t.tombstone(b"z", 6), TombstoneOutcome::DroppedLive);
        assert_eq!(t.lookup(b"y").map(|e| e.epoch), Some(u64::MAX));
        let epochs: Vec<u64> = t.sorted_records().iter().map(|r| r.entry().epoch).collect();
        assert_eq!(epochs, [u64::MAX; 3], "x, y and z's tombstone");
        assert!(epochs.iter().all(|&e| t.next_epoch >= e), "clock behind");
    }

    #[test]
    fn gcd_tombstone_in_digest_is_not_restamped() {
        let mut auth = SyncTable::new();
        auth.define(b"gone", bind(1), 100);
        auth.tombstone(b"gone", 200);
        let tomb_epoch = auth
            .digest()
            .iter()
            .find(|d| d.prefix == b"gone")
            .map(|d| d.epoch)
            .unwrap_or(0);
        auth.record_watermark(1, tomb_epoch);
        let dropped = auth.gc_below(auth.horizon());
        assert_eq!(dropped, 1);
        // The replica still holds the tombstone and digests it; the
        // authority must recognize it as collected, not stamp it afresh.
        let replica_digest = [SyncDigestEntry {
            prefix: b"gone".to_vec(),
            epoch: tomb_epoch,
            tombstone: true,
        }];
        let delta = auth.delta_for(&replica_digest, true, 300);
        assert!(delta.is_empty(), "GC'd tombstone resurrected: {delta:?}");
        assert_eq!(auth.tombstone_len(), 0);
    }

    #[test]
    fn gossip_deltas_never_carry_preloads() {
        let mut peer = SyncTable::new();
        peer.preload(b"hearsay", bind(9));
        peer.apply(
            &[SyncEntry {
                prefix: b"real".to_vec(),
                epoch: 50,
                binding: Some(bind(1)),
            }],
            true,
        );
        let empty_digest: [SyncDigestEntry; 0] = [];
        let delta = peer.delta_for(&empty_digest, false, 1_000);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].prefix, b"real");
    }

    #[test]
    fn gossip_adoption_stays_unverified_until_vouched() {
        let mut replica = SyncTable::new();
        let out = replica.apply(
            &[SyncEntry {
                prefix: b"p".to_vec(),
                epoch: 10,
                binding: Some(bind(1)),
            }],
            false,
        );
        assert_eq!(out.adopted, 1);
        assert_eq!(out.promoted, 0);
        assert!(replica.lookup(b"p").is_some_and(|e| !e.verified));
        assert_eq!(replica.mark_all_verified(), 1);
    }

    #[test]
    fn merkle_root_matches_across_identical_tables() {
        let mut a = SyncTable::new();
        let mut b = SyncTable::new();
        for i in 0..50u32 {
            let name = format!("p{i}").into_bytes();
            a.define(name.clone(), bind(i), 100 + u64::from(i));
        }
        // Same content reached by a different op order: preload + sync.
        let delta = a.delta_for(&b.digest(), true, 500);
        b.apply(&delta, true);
        assert_eq!(a.merkle_root(), b.merkle_root());
        assert_eq!(a.table_hash(), b.table_hash());
        // Divergence is visible at the root, at exactly one leaf path.
        b.define(b"p7", bind(99), 1_000);
        assert_ne!(a.merkle_root(), b.merkle_root());
    }

    #[test]
    fn empty_and_emptied_tables_hash_alike() {
        let mut empty = SyncTable::new();
        let mut emptied = SyncTable::new();
        emptied.define(b"a", bind(1), 10);
        emptied.tombstone(b"a", 20);
        let tomb = emptied.max_epoch();
        assert_ne!(emptied.merkle_root(), empty.merkle_root());
        emptied.gc_below(tomb);
        assert_eq!(emptied.merkle_root(), 0, "all-empty tree is the 0 hash");
        assert_eq!(emptied.merkle_root(), empty.merkle_root());
        assert_eq!(empty.table_hash(), 0);
    }

    #[test]
    fn single_edit_invalidates_one_leaf_path_only() {
        let mut t = SyncTable::new();
        for i in 0..64u32 {
            t.define(format!("p{i}").into_bytes(), bind(i), 100 + u64::from(i));
        }
        t.merkle_flush();
        let leaves = |t: &SyncTable| -> Vec<u64> {
            (0..MERKLE_LEAVES / MERKLE_FANOUT)
                .flat_map(|parent| t.children_of(MERKLE_LEVELS - 1, parent))
                .collect()
        };
        let before_leaves = leaves(&t);
        let before_nodes = t.nodes.clone();
        t.define(b"p11", bind(1234), 9_000);
        assert_eq!(
            t.dirty.len(),
            1,
            "one edit dirties exactly one leaf's parent"
        );
        t.merkle_flush();
        let changed_leaves = leaves(&t)
            .iter()
            .zip(&before_leaves)
            .filter(|(now, before)| now != before)
            .count();
        assert_eq!(changed_leaves, 1, "one leaf hash changed");
        let changed_nodes = t
            .nodes
            .iter()
            .filter(|(id, h)| before_nodes.get(id) != Some(h))
            .count();
        assert_eq!(
            changed_nodes as u32, MERKLE_LEVELS,
            "exactly the ancestors changed"
        );
    }

    #[test]
    fn merkle_children_recombine_to_parent() {
        let mut t = SyncTable::new();
        for i in 0..32u32 {
            t.define(format!("name-{i}").into_bytes(), bind(i), 50 + u64::from(i));
        }
        let root = t.merkle_root();
        let children = t.merkle_children(MERKLE_ROOT).expect("root is interior");
        assert_eq!(combine_children(&children), root);
        assert!(
            t.merkle_children(merkle_node_id(MERKLE_LEVELS, 0))
                .is_none(),
            "leaves have no child record"
        );
        assert!(
            t.merkle_children(merkle_node_id(2, 9_999_999)).is_none(),
            "out-of-shape ids are rejected"
        );
    }

    #[test]
    fn leaf_digest_partitions_the_flat_digest() {
        let mut t = SyncTable::new();
        for i in 0..40u32 {
            t.define(format!("n{i}").into_bytes(), bind(i), 10 + u64::from(i));
        }
        t.tombstone(b"n3", 500);
        let mut from_leaves: Vec<SyncDigestEntry> = (0..MERKLE_LEAVES)
            .flat_map(|b| t.leaf_digest(merkle_node_id(MERKLE_LEVELS, b)))
            .collect();
        from_leaves.sort_by(|a, b| a.prefix.cmp(&b.prefix));
        assert_eq!(from_leaves, t.digest());
    }

    #[test]
    fn merkle_round_converges_like_a_flat_round() {
        let seed_tables = || {
            let mut auth = SyncTable::new();
            let mut rep = SyncTable::new();
            for i in 0..30u32 {
                auth.define(format!("e{i}").into_bytes(), bind(i), 100 + u64::from(i));
            }
            rep.preload(b"e1", bind(1));
            rep.preload(b"stray", bind(77));
            auth.tombstone(b"e5", 400);
            (auth, rep)
        };
        let (mut auth_m, mut rep_m) = seed_tables();
        let (out_m, stats) = merkle_round(
            &mut auth_m,
            &mut rep_m,
            RoundKind::Authority { replica_id: 1 },
            1_000,
            RoundFate::DELIVERED,
        );
        let (mut auth_f, mut rep_f) = seed_tables();
        let (out_f, _) = flat_round(
            &mut auth_f,
            &mut rep_f,
            RoundKind::Authority { replica_id: 1 },
            1_000,
            RoundFate::DELIVERED,
        );
        assert_eq!(out_m, out_f, "same apply outcome on both paths");
        assert_eq!(rep_m.table_hash(), auth_m.table_hash());
        assert_eq!(rep_m.table_hash(), rep_f.table_hash());
        assert_eq!(auth_m.table_hash(), auth_f.table_hash());
        assert_eq!(rep_m.watermark(), rep_f.watermark());
        assert!(
            stats.probes >= 1 && stats.probes <= MERKLE_LEVELS + 1,
            "walk depth bounded by the tree: {stats:?}"
        );
    }

    #[test]
    fn in_sync_merkle_round_is_one_probe() {
        let mut auth = SyncTable::new();
        for i in 0..100u32 {
            auth.define(format!("e{i}").into_bytes(), bind(i), 10 + u64::from(i));
        }
        let mut rep = SyncTable::new();
        let (_, _) = merkle_round(
            &mut auth,
            &mut rep,
            RoundKind::Authority { replica_id: 1 },
            1_000,
            RoundFate::DELIVERED,
        );
        assert_eq!(rep.table_hash(), auth.table_hash());
        let epoch = auth.max_epoch();
        let (out, stats) = merkle_round(
            &mut auth,
            &mut rep,
            RoundKind::Authority { replica_id: 1 },
            2_000,
            RoundFate::DELIVERED,
        );
        assert_eq!(stats.probes, 1, "equal roots stop the walk at the root");
        assert_eq!(out, Some(ApplyOutcome::default()));
        assert_eq!(
            rep.watermark(),
            epoch,
            "no-op rounds still move the watermark"
        );
    }

    #[test]
    fn killed_merkle_round_leaves_the_puller_untouched() {
        let mut auth = SyncTable::new();
        for i in 0..20u32 {
            auth.define(format!("k{i}").into_bytes(), bind(i), 10 + u64::from(i));
        }
        for drop_at in 0..=MERKLE_LEVELS {
            let mut rep = SyncTable::new();
            rep.preload(b"k1", bind(1));
            let before = rep.table_hash();
            let (out, _) = merkle_round(
                &mut auth,
                &mut rep,
                RoundKind::Authority { replica_id: 1 },
                1_000,
                RoundFate {
                    drop_request_at: Some(drop_at),
                    lose_final_reply: false,
                },
            );
            assert_eq!(out, None);
            assert_eq!(rep.table_hash(), before, "aborted at probe {drop_at}");
            assert_eq!(rep.watermark(), 0);
        }
    }

    #[test]
    fn merkle_gossip_never_mints_or_moves_watermarks() {
        let mut peer = SyncTable::new();
        peer.apply(
            &[SyncEntry {
                prefix: b"real".to_vec(),
                epoch: 50,
                binding: Some(bind(1)),
            }],
            true,
        );
        let mut cold = SyncTable::new();
        cold.preload(b"hearsay", bind(9));
        let peer_len = peer.live_len();
        let (out, _) = merkle_round(
            &mut cold,
            &mut peer,
            RoundKind::Gossip,
            1_000,
            RoundFate::DELIVERED,
        );
        // peer pulled from cold: cold's preload is epoch-0 hearsay, never
        // shipped; no tombstone minted for "real" on the cold side.
        assert_eq!(out, Some(ApplyOutcome::default()));
        assert_eq!(peer.live_len(), peer_len);
        assert_eq!(cold.tombstone_len(), 0, "gossip responders never mint");
        let (out, _) = merkle_round(
            &mut peer,
            &mut cold,
            RoundKind::Gossip,
            2_000,
            RoundFate::DELIVERED,
        );
        assert_eq!(out.map(|o| o.adopted), Some(1));
        assert!(cold.lookup(b"real").is_some_and(|e| !e.verified));
        assert_eq!(cold.watermark(), 0, "gossip never moves the watermark");
    }

    /// Mixed-version safety: the values two replicas compare on the wire
    /// (`table_hash`, the per-shard roots) for a fixed 1 000-op
    /// define/tombstone/apply/gossip/GC schedule, recorded before the
    /// storage under this table was swapped. A storage change that moved
    /// any of them would make an upgraded replica disagree with an
    /// old one about identical contents.
    #[test]
    fn golden_hashes_of_a_fixed_schedule() {
        let mut rng = 0x1984_u64;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (rng >> 33) as u32
        };
        let mut auth = SyncTable::new();
        let mut rep = SyncTable::new();
        let mut peer = SyncTable::new();
        for i in 0..40u32 {
            rep.preload(format!("name-{i}").into_bytes(), bind(i));
        }
        let mut now = 1_000u64;
        for _ in 0..1_000 {
            now += 17;
            // Two name families: `name-N` clusters into a few shards and
            // shares leaf buckets (exercising the in-bucket name order);
            // the multiplied-hex family spreads over all sixteen.
            let k = next() % 300;
            let name = if k % 2 == 0 {
                format!("name-{k}").into_bytes()
            } else {
                format!("{:08x}", k.wrapping_mul(0x9E37_79B1)).into_bytes()
            };
            match next() % 10 {
                0..=4 => auth.define(name, bind(next()), now),
                5..=6 => {
                    auth.tombstone(&name, now);
                }
                7 => {
                    let delta = auth.delta_for(&rep.digest(), true, now);
                    rep.apply(&delta, true);
                    rep.note_synced(auth.max_epoch());
                    rep.mark_all_verified();
                }
                8 => {
                    let delta = rep.delta_for(&peer.digest(), false, now);
                    peer.apply(&delta, false);
                }
                _ => {
                    auth.record_watermark(7, rep.watermark());
                    let horizon = auth.horizon();
                    auth.gc_below(horizon);
                    rep.gc_below(horizon);
                    peer.gc_below(horizon);
                }
            }
        }
        assert_eq!(auth.table_hash(), 0x3fde_4315_d6a4_14fa);
        assert_eq!(rep.table_hash(), 0xbd4e_ea6a_5596_d0a5);
        assert_eq!(peer.table_hash(), 0xf936_d815_56c9_770c);
        assert_eq!(
            auth.shard_roots(),
            [
                0xbff5_02df_d9e2_d7e7,
                0x943c_0d52_8ab0_3d4d,
                0x4694_43d8_d36e_433e,
                0x2803_42ab_65b2_77a7,
                0x3e4a_a113_56e6_ea65,
                0x62ec_8cf3_07b8_6552,
                0xbd20_0788_caf2_10d2,
                0xb542_2af7_ccc0_080a,
                0xa1cc_0203_d51e_7db1,
                0x768c_1134_40c3_9008,
                0x99b5_a96b_a044_67f3,
                0x526c_65b8_0896_cd28,
                0xf110_7afc_740e_4adc,
                0x0f69_72dc_ed24_1134,
                0xc0b8_2002_cf86_6afe,
                0x868f_4b13_c5e9_afff,
            ]
        );
        assert_eq!((auth.live_len(), auth.tombstone_len()), (184, 3));
        assert_eq!((rep.live_len(), peer.live_len()), (186, 152));
    }

    /// The records live in hash order, but everything that leaves the
    /// table as a list is in name order: directory listings read
    /// `live_iter`, `GetContextName` answers the first match in that order
    /// (`first_live_name`, without the sort), and the flat oracle's digest
    /// must sort the way the old ordered map did.
    #[test]
    fn listings_and_digests_iterate_in_name_order() {
        let mut t = SyncTable::new();
        for i in (0..500u32).rev() {
            let name = format!("{:x}", i.wrapping_mul(0x9E37_79B1)).into_bytes();
            t.define(name, bind(i % 7), 100 + u64::from(i));
        }
        for i in (0..500u32).step_by(5) {
            let name = format!("{:x}", i.wrapping_mul(0x9E37_79B1)).into_bytes();
            assert_eq!(t.tombstone(&name, 9_000), TombstoneOutcome::DroppedLive);
        }
        let live: Vec<&[u8]> = t.live_iter().map(|(name, _, _)| name).collect();
        assert_eq!(live.len(), t.live_len());
        assert!(
            live.windows(2).all(|w| w[0] < w[1]),
            "live_iter out of order"
        );
        let first_of_target_3 = t.live_iter().find(|(_, b, _)| b.target == 3);
        let smallest = live
            .iter()
            .find(|name| t.lookup(name).and_then(|e| e.binding).map(|b| b.target) == Some(3));
        assert_eq!(
            first_of_target_3.map(|(name, _, _)| name),
            smallest.copied()
        );
        for target in 0..8 {
            assert_eq!(
                t.first_live_name(|b| b.target == target),
                t.live_iter()
                    .find(|(_, b, _)| b.target == target)
                    .map(|(name, _, _)| name),
                "target {target}"
            );
        }
        let digest = t.digest();
        assert_eq!(digest.len(), t.live_len() + t.tombstone_len());
        assert!(digest.windows(2).all(|w| w[0].prefix < w[1].prefix));
    }

    #[test]
    fn watermark_moves_only_on_note_synced() {
        let mut replica = SyncTable::new();
        assert_eq!(replica.watermark(), 0);
        // Gossip adoption raises epochs but not the watermark.
        replica.apply(
            &[SyncEntry {
                prefix: b"p".to_vec(),
                epoch: 700,
                binding: Some(bind(1)),
            }],
            false,
        );
        assert_eq!(replica.watermark(), 0);
        replica.note_synced(500);
        assert_eq!(replica.watermark(), 500);
        replica.note_synced(400); // monotone
        assert_eq!(replica.watermark(), 500);
    }
}
