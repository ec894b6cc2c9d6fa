//! One shard, three roles: the record store under a [`SyncTable`].
//!
//! A [`Shard`] is one hashed table of `(hash, name, VersionedEntry)`
//! records — live bindings and tombstones side by side — and it is at once
//!
//! * the **unit of storage**: the table owns [`SHARD_COUNT`] of them, picked
//!   by the top four bits of the name's FNV-1a hash, and every mutation is
//!   one [`Shard::insert`] or one [`Shard::remove`];
//! * a **Merkle subtree**: those four bits are the root's child index, and
//!   inside the shard the records of one leaf bucket sit in one contiguous
//!   run of slots, so "the records of bucket *b*" is a range scan
//!   ([`Shard::under`]) over the records themselves, not a second set of
//!   names;
//! * the **unit of publication**, for a reader on another thread: the table
//!   holds its shards as `Arc<Shard>`, a [`Snapshot`] is the same sixteen
//!   `Arc`s, and the writer mutates through `Arc::make_mut`. Publishing
//!   ([`ShardedTable::publish`]) is sixteen pointer clones; a shard changed
//!   since the last publish is exactly one whose pointer differs from the
//!   published one; and a reader's snapshot keeps the old copy alive
//!   untouched (copy-on-write, RCU style — readers never take a write lock,
//!   writers never block readers). The prefix server publishes nothing: it
//!   is its table's only reader, between its own handlers, so it resolves
//!   from the [`SyncTable`] it writes ([`SyncTable::resolve_batch`] runs the
//!   same batch probe as [`Snapshot::resolve_batch`]), and with no snapshot
//!   holding its pages, `Arc::make_mut` copies nothing: a write is a store
//!   into its slot.
//!
//! The unit of *copying* is two levels down: a shard's slots are cut into
//! pages of 2^[`PAGE_SLOT_BITS`] slots (5 KB), each behind its own `Arc`,
//! and the page pointers into directories of [`DIR_PAGES`], each behind its
//! own `Arc` too. The first write to a published shard copies the shard's
//! top (at most 32 directory pointers at 10⁶ names), the one directory and
//! the one page it writes — not the whole slot array, and not a pointer per
//! page. Every other directory and page stays shared with the snapshots
//! that hold it, and dropping the old copy at publish releases as little.
//!
//! A record keeps a name of up to 14 bytes inside its slot ([`Name`]), so
//! a probe compares the bytes of the slot it has already loaded, and a page
//! copy copies them; a longer name is one shared allocation behind a thin
//! pointer, which the page copies and the side indexes hold by reference
//! count. The entry's three flags ride in the name's header byte, so a slot
//! is 40 bytes: the hash, the 16-byte name, the epoch, and the binding's
//! target and context.
//!
//! Atomicity: a mutation batch (a define, a whole sync apply round, a GC
//! sweep) becomes visible all-at-once at the next `publish`, or not at
//! all. Aborted rounds never call `publish`, so they are invisible to
//! readers — the same "failed rounds apply nothing" guarantee the Merkle
//! walk gives the table itself, extended to concurrent readers.
//!
//! # Slot layout
//!
//! Open addressing, linear probing, at most half full. A record's home slot
//! is `region | low hash bits`: the slot array is cut into regions of
//! 2^[`REGION_SLOT_BITS`] slots, the region is chosen by the record's
//! level-(`MERKLE_LEVELS`−1) Merkle node (so its sixteen sibling leaf
//! buckets share one), and the position inside it by the low bits of the
//! hash. A bucket is then a contiguous run, without the slot index being
//! the bucket index: FNV-1a's top bits move little between names that
//! differ in their last few bytes — 10⁶ sequential names occupy 16 % of
//! the leaf buckets, up to 33 to a bucket — so indexing straight by the
//! bits below the shard's four piles records up (measured on those names:
//! 9.4 slots compared per lookup, against 1.4 for this layout, which is
//! what plain low-bit indexing gives). A table too small for two regions
//! is one region, and the scan is the whole (small) shard.
//!
//! A region is a whole number of pages: slot `i` lives in page
//! `i >> PAGE_SLOT_BITS`, and that page in directory `i >> DIR_SLOT_BITS`; a
//! shard smaller than one page is one directory of one short page. Slot
//! numbering, probing and the range scans are those of one flat array: only
//! where a slot lives changes. A write copies the directory and the page it
//! writes, and only `remove`'s backward shift can carry a record across a
//! page boundary, so a mutation copies one page, or two when the shift
//! crosses — and one directory, or two when that boundary is a directory's.

use crate::sync::{
    shard_of_bucket, SyncTable, VersionedEntry, MERKLE_FANOUT, MERKLE_LEVELS, SHARD_COUNT,
};
use parking_lot::RwLock;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;
use vproto::{fnv1a, SyncBinding};

/// log2 of the slots in one region: large enough that the skewed bucket
/// occupancy averages out (512 slots hold ~250 records of ~30 buckets),
/// small enough that a bucket scan stays a few tens of kilobytes.
const REGION_SLOT_BITS: u32 = 9;

/// log2 of the slots in one copy-on-write page: 128 slots of 40 bytes, 5 KB,
/// the copy a write makes. A region is a whole number of pages.
const PAGE_SLOT_BITS: u32 = 7;

/// The slots in one full page.
const PAGE_SLOTS: usize = 1 << PAGE_SLOT_BITS;

/// log2 of the page pointers in one full directory.
const DIR_PAGE_BITS: u32 = 5;

/// The page pointers in one full directory.
const DIR_PAGES: usize = 1 << DIR_PAGE_BITS;

/// log2 of the slots under one full directory.
const DIR_SLOT_BITS: u32 = PAGE_SLOT_BITS + DIR_PAGE_BITS;

/// log2 of the level-(`MERKLE_LEVELS`−1) nodes in one shard — the most
/// regions a shard can usefully have; past that, regions grow instead.
const NODE_BITS: u32 = 4 * (MERKLE_LEVELS - 2);

/// The smallest slot array a non-empty shard allocates.
const MIN_SLOTS: usize = 8;

/// The leaf bucket a full FNV hash lands in: its top 4·`MERKLE_LEVELS`
/// bits (16^`MERKLE_LEVELS` buckets).
pub(crate) const fn bucket_of_hash(h: u64) -> u32 {
    (h >> (64 - 4 * MERKLE_LEVELS)) as u32
}

/// The shard a full FNV hash lands in: the one its leaf bucket belongs to
/// (the hash's top four bits — the root-child subtree it hashes under).
pub(crate) const fn shard_of_hash(h: u64) -> usize {
    shard_of_bucket(bucket_of_hash(h))
}

/// The longest name a [`Name`] holds inside itself.
const INLINE_NAME: usize = 14;

/// The bits of an inline name's header byte that hold its length; the
/// three above hold its record's flags.
const LEN_MASK: u8 = 0x1f;

/// Record flag: the record is a live binding, not a tombstone.
const LIVE: u8 = 1 << 5;

/// Record flag: the binding names a service, not a pid.
const LOGICAL: u8 = 1 << 6;

/// Record flag: the entry is first-hand or vouched for.
const VERIFIED: u8 = 1 << 7;

const _: () = assert!(INLINE_NAME <= LEN_MASK as usize);
const _: () = assert!(LEN_MASK & (LIVE | LOGICAL | VERIFIED) == 0);

/// A stored name, 16 bytes: up to [`INLINE_NAME`] bytes inside the value,
/// a longer one in one shared allocation behind a thin pointer. Inline, a
/// probe compares the name in the slot it has already loaded, and a page
/// copy copies the bytes; on the heap, a probe whose hash matches makes one
/// more dependent load, through the `Arc` to the boxed bytes.
///
/// Its header byte also carries the flags of the record that stores it
/// (see [`Record`]): an inline length takes the low five of its eight
/// bits, and a heap name's byte sits in the padding beside its `Arc`. Nothing but
/// [`Record`] reads or writes them.
///
/// It derefs to, borrows as, compares, orders and hashes as its bytes, so a
/// set of names is ordered and searched exactly as the same `[u8]`s would
/// be, whichever way each is stored and whatever flags it carries.
#[derive(Clone)]
pub(crate) enum Name {
    /// The header byte (the length, then the flags), then the bytes,
    /// zero-padded.
    Inline(u8, [u8; INLINE_NAME]),
    /// The flags, then the bytes. Shared with the table's side indexes, and
    /// between the copies of a page that copy-on-write makes. An
    /// `Arc<Box<[u8]>>`, not an `Arc<[u8]>`: one pointer, not two, so the
    /// name is as small as its inline form.
    Heap(u8, Arc<Box<[u8]>>),
}

impl Name {
    fn flags(&self) -> u8 {
        match self {
            Name::Inline(head, _) => head & !LEN_MASK,
            Name::Heap(flags, _) => *flags,
        }
    }

    fn set_flags(&mut self, flags: u8) {
        match self {
            Name::Inline(head, _) => *head = *head & LEN_MASK | flags,
            Name::Heap(old, _) => *old = flags,
        }
    }
}

impl From<&[u8]> for Name {
    fn from(bytes: &[u8]) -> Name {
        match u8::try_from(bytes.len()) {
            Ok(len) if bytes.len() <= INLINE_NAME => {
                let mut inline = [0; INLINE_NAME];
                inline[..bytes.len()].copy_from_slice(bytes);
                Name::Inline(len, inline)
            }
            _ => Name::Heap(0, Arc::new(Box::from(bytes))),
        }
    }
}

impl Deref for Name {
    type Target = [u8];

    #[inline(always)]
    fn deref(&self) -> &[u8] {
        match self {
            Name::Inline(head, bytes) => &bytes[..usize::from(head & LEN_MASK)],
            Name::Heap(_, bytes) => bytes,
        }
    }
}

impl Borrow<[u8]> for Name {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        **self == **other
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    // A call, not inlined: the sorts over records (listings, Merkle folds)
    // inline their comparator into every sorting-network step, and inlined
    // this two-kind compare grew the binary's text by 21 KB.
    #[inline(never)]
    fn cmp(&self, other: &Name) -> Ordering {
        (**self).cmp(&**other)
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// One stored record: a live binding or a tombstone, under its FNV-1a hash
/// and its name — inline in the slot when short (see [`Name`]).
///
/// The [`VersionedEntry`] is stored unpacked: its epoch and its binding's
/// target and context as plain fields, its three flags (live, logical,
/// verified) in the name's header byte. [`Record::entry`] puts it back
/// together.
#[derive(Debug, Clone)]
pub(crate) struct Record {
    pub(crate) hash: u64,
    pub(crate) name: Name,
    epoch: u64,
    /// The binding's target; 0 in a tombstone.
    target: u32,
    /// The binding's context; 0 in a tombstone.
    context: u32,
}

// Every slot of every page is one `Option<Record>`: a field that grows it
// grows the table by that much per slot, ~2 slots per name. 40 is the hash,
// the 16-byte name and 16 bytes of entry, with `None` in a spare value of
// the name's discriminant.
const _: () = assert!(size_of::<Name>() == 16);
const _: () = assert!(size_of::<Option<Record>>() == 40);
// Every region ends on a page end, so a region's last home slot is the
// last slot of a page; and a page, the copy a write makes, stays ≤ 8 KiB.
const _: () = assert!(PAGE_SLOT_BITS <= REGION_SLOT_BITS);
const _: () = assert!(PAGE_SLOTS * size_of::<Option<Record>>() <= 8 << 10);

/// One copy-on-write page of slots.
type Page = Arc<[Option<Record>]>;

/// One copy-on-write directory of page pointers.
type Dir = Arc<[Page]>;

impl Record {
    fn new(hash: u64, name: &[u8], entry: VersionedEntry) -> Record {
        let mut rec = Record {
            hash,
            name: Name::from(name),
            epoch: 0,
            target: 0,
            context: 0,
        };
        rec.set_entry(entry);
        rec
    }

    /// The entry this record stores.
    #[inline(always)]
    pub(crate) fn entry(&self) -> VersionedEntry {
        let flags = self.name.flags();
        VersionedEntry {
            binding: (flags & LIVE != 0).then_some(SyncBinding {
                logical: flags & LOGICAL != 0,
                target: self.target,
                context: self.context,
            }),
            epoch: self.epoch,
            verified: flags & VERIFIED != 0,
        }
    }

    fn set_entry(&mut self, entry: VersionedEntry) {
        let flag = |on: bool, bit: u8| if on { bit } else { 0 };
        let binding = entry.binding;
        self.name.set_flags(
            flag(binding.is_some(), LIVE)
                | flag(binding.is_some_and(|b| b.logical), LOGICAL)
                | flag(entry.verified, VERIFIED),
        );
        self.epoch = entry.epoch;
        self.target = binding.map_or(0, |b| b.target);
        self.context = binding.map_or(0, |b| b.context);
    }

    /// What resolution sees of this record: `None` for a tombstone.
    #[inline(always)]
    fn live(&self) -> Option<SnapEntry> {
        let entry = self.entry();
        entry.binding.map(|binding| SnapEntry {
            binding,
            verified: entry.verified,
        })
    }
}

/// Where the records under level-(`MERKLE_LEVELS`−1) node `node` have their
/// homes in a shard of `cap` slots: the first slot of its region, and log2
/// of the region's slot count. The region is the *low* bits of the node
/// index — the skew of FNV-1a sits in its topmost bits; these spread as well
/// as any mixing of them would, for one shift and one mask.
fn region(cap: usize, node: u32) -> (usize, u32) {
    let bits = cap.trailing_zeros();
    let region_bits = bits.saturating_sub(REGION_SLOT_BITS).min(NODE_BITS);
    let slot_bits = bits - region_bits;
    (
        (node as usize & ((1 << region_bits) - 1)) << slot_bits,
        slot_bits,
    )
}

/// The slot a record hashed `hash` is placed from in a shard of `cap` slots.
fn home(cap: usize, hash: u64) -> usize {
    let (start, slot_bits) = region(cap, bucket_of_hash(hash) / MERKLE_FANOUT);
    start | (hash as usize & ((1 << slot_bits) - 1))
}

/// One shard of the table: see the module docs for its three roles.
#[derive(Debug, Clone, Default)]
pub(crate) struct Shard {
    /// The slot array as a two-level persistent spine: directories of page
    /// pointers, slot `i` in page `i >> PAGE_SLOT_BITS`. No directory, one
    /// directory of one page shorter than [`PAGE_SLOTS`], one of fewer than
    /// [`DIR_PAGES`] full pages, or full directories.
    dirs: Vec<Dir>,
    /// The number of slots: a power of two ≥ twice `len`, or 0.
    cap: usize,
    /// Occupied slots (live and tombstoned).
    len: usize,
    /// Occupied slots holding a live binding.
    live: usize,
}

impl Shard {
    /// Page `index`, in slot order.
    fn page(&self, index: usize) -> &[Option<Record>] {
        &self.dirs[index >> DIR_PAGE_BITS][index & (DIR_PAGES - 1)]
    }

    fn slot(&self, at: usize) -> &Option<Record> {
        &self.page(at >> PAGE_SLOT_BITS)[at & (PAGE_SLOTS - 1)]
    }

    /// Slot `at` for writing: its directory and its page are copied first
    /// if a snapshot still shares them.
    fn slot_mut(&mut self, at: usize) -> &mut Option<Record> {
        let dir = Arc::make_mut(&mut self.dirs[at >> DIR_SLOT_BITS]);
        let page = Arc::make_mut(&mut dir[(at >> PAGE_SLOT_BITS) & (DIR_PAGES - 1)]);
        &mut page[at & (PAGE_SLOTS - 1)]
    }

    /// Probes for `name`: `Ok(slot)` where it is stored, or `Err(slot)` at
    /// the empty slot that ends its probe run (where it would go).
    // Inlined into `get` (and so into `Snapshot::lookup`/`resolve_batch`):
    // the probe is the resolve hot path, and as an out-of-line call it
    // measured 5 % slower per batched lookup at 10⁶ names.
    #[inline(always)]
    fn probe(&self, hash: u64, name: &[u8]) -> Result<usize, usize> {
        let cap = self.cap;
        if cap == 0 {
            return Err(0);
        }
        let mut at = home(cap, hash);
        while let Some(rec) = self.slot(at) {
            if rec.hash == hash && *rec.name == *name {
                return Ok(at);
            }
            at = (at + 1) & (cap - 1);
        }
        Err(at)
    }

    /// The record stored under `name` (whose hash is `hash`), tombstones
    /// included: one hashed probe plus one name compare.
    #[inline(always)]
    pub(crate) fn get(&self, hash: u64, name: &[u8]) -> Option<&Record> {
        let at = self.probe(hash, name).ok()?;
        self.slot(at).as_ref()
    }

    /// The home slot of `hash` — the first slot its probe reads — located
    /// through its page pointer but not yet read; `None` in an empty shard.
    #[inline(always)]
    fn home_slot(&self, hash: u64) -> Option<&Option<Record>> {
        let cap = self.cap;
        (cap != 0).then(|| self.slot(home(cap, hash)))
    }

    /// Stores `entry` under `name`, returning the stored name handle and
    /// the entry it replaced. The name is allocated once, when first seen;
    /// overwrites (re-stamps, tombstoning, adoption) reuse the handle.
    pub(crate) fn insert(
        &mut self,
        hash: u64,
        name: &[u8],
        entry: VersionedEntry,
    ) -> (&Name, Option<VersionedEntry>) {
        let at = match self.probe(hash, name) {
            Ok(at) => at,
            Err(at) if (self.len + 1) * 2 <= self.cap => at,
            Err(_) => {
                self.grow();
                self.probe(hash, name).unwrap_or_else(|at| at)
            }
        };
        let old = self.slot(at).as_ref().map(Record::entry);
        self.len += usize::from(old.is_none());
        self.live += usize::from(entry.binding.is_some());
        self.live -= usize::from(old.is_some_and(|e| e.binding.is_some()));
        let slot = self.slot_mut(at);
        let rec = match slot {
            Some(rec) => {
                rec.set_entry(entry);
                rec
            }
            None => slot.insert(Record::new(hash, name, entry)),
        };
        (&rec.name, old)
    }

    /// Removes the record under `name`, closing the gap by backward
    /// shifting so every remaining record stays reachable from its home
    /// with no empty slot in between (the invariant `probe` and `under`
    /// stop on).
    pub(crate) fn remove(&mut self, hash: u64, name: &[u8]) -> Option<Record> {
        let mut hole = self.probe(hash, name).ok()?;
        let removed = self.slot_mut(hole).take()?;
        self.len -= 1;
        self.live -= usize::from(removed.entry().binding.is_some());
        let cap = self.cap;
        let mask = cap - 1;
        let mut at = hole;
        loop {
            at = (at + 1) & mask;
            let Some(rec) = self.slot(at) else { break };
            // `rec` may fall back into the hole unless its home lies
            // cyclically within (hole, at].
            if (at.wrapping_sub(home(cap, rec.hash)) & mask) >= (at.wrapping_sub(hole) & mask) {
                let moved = self.slot_mut(at).take();
                *self.slot_mut(hole) = moved;
                hole = at;
            }
        }
        Some(removed)
    }

    /// Doubles the slot array, re-placing every record into fresh pages.
    /// A page no snapshot holds gives up its records; a shared one is
    /// copied first, so the snapshot keeps its own.
    fn grow(&mut self) {
        let cap = (self.cap * 2).max(MIN_SLOTS);
        let page = cap.min(PAGE_SLOTS);
        let mut fresh: Vec<Page> = (0..cap / page)
            .map(|_| (0..page).map(|_| None).collect())
            .collect();
        // Fresh pages are unshared: each is written in place.
        let mut pages: Vec<&mut [Option<Record>]> =
            fresh.iter_mut().filter_map(Arc::get_mut).collect();
        for mut dir in std::mem::take(&mut self.dirs) {
            for old in Arc::make_mut(&mut dir) {
                for rec in Arc::make_mut(old).iter_mut().filter_map(Option::take) {
                    let mut at = home(cap, rec.hash);
                    while pages[at >> PAGE_SLOT_BITS][at & (PAGE_SLOTS - 1)].is_some() {
                        at = (at + 1) & (cap - 1);
                    }
                    pages[at >> PAGE_SLOT_BITS][at & (PAGE_SLOTS - 1)] = Some(rec);
                }
            }
        }
        let mut fresh = fresh.into_iter();
        while fresh.len() > 0 {
            self.dirs.push(fresh.by_ref().take(DIR_PAGES).collect());
        }
        self.cap = cap;
    }

    /// Every page, in slot order.
    fn pages(&self) -> impl Iterator<Item = &[Option<Record>]> {
        self.dirs
            .iter()
            .flat_map(|dir| dir.iter().map(|page| &**page))
    }

    /// Every record, in slot order.
    pub(crate) fn records(&self) -> impl Iterator<Item = &Record> {
        self.pages().flat_map(|page| page.iter().flatten())
    }

    /// The records of the `count` leaf buckets starting at `first` — one
    /// bucket, or the sixteen children of one level-(`MERKLE_LEVELS`−1)
    /// node (which share a region; a wider range would not). A range scan:
    /// from the region's first slot to the first empty slot at or past its
    /// last, wrapping at the end of the array like the probes do. It walks
    /// page by page: a region starts on a page's first slot.
    pub(crate) fn under(&self, first: u32, count: u32) -> impl Iterator<Item = &Record> {
        let cap = self.cap;
        let (start, slot_bits) = region(cap, first / MERKLE_FANOUT);
        let pages = cap.div_ceil(PAGE_SLOTS);
        let first_page = start >> PAGE_SLOT_BITS;
        (0..pages)
            .flat_map(move |p| self.page((first_page + p) & (pages - 1)))
            .enumerate()
            .take_while(move |(step, slot)| slot.is_some() || (step + 1) >> slot_bits == 0)
            .filter_map(|(_, slot)| slot.as_ref())
            .filter(move |rec| bucket_of_hash(rec.hash).wrapping_sub(first) < count)
    }

    /// The number of live bindings.
    pub(crate) fn live_len(&self) -> usize {
        self.live
    }
}

/// A live binding as served by a snapshot: what resolution needs and
/// nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapEntry {
    /// The prefix binding.
    pub binding: SyncBinding,
    /// `false` while the entry is hearsay (preloaded or gossip-adopted);
    /// served to clients as the staleness flag.
    pub verified: bool,
}

/// An immutable, internally consistent view of the table at one
/// publication instant: the shards the writer held then, kept alive by
/// reference count while the writer moves on to copies.
#[derive(Debug)]
pub struct Snapshot {
    /// Publication sequence number: 0 for the boot snapshot, +1 per
    /// publish that changed anything.
    epoch: u64,
    shards: [Arc<Shard>; SHARD_COUNT],
}

impl Snapshot {
    /// The publication sequence number this snapshot was swapped in at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Looks up a live binding. Tombstoned and never-defined prefixes both
    /// answer `None`.
    pub fn lookup(&self, prefix: &[u8]) -> Option<SnapEntry> {
        let h = fnv1a(prefix);
        self.shards[shard_of_hash(h)].get(h, prefix)?.live()
    }

    /// The number of live bindings in the snapshot.
    pub fn live_len(&self) -> usize {
        self.shards.iter().map(|s| s.live_len()).sum()
    }

    /// Resolves a batch of prefixes against this one consistent view: see
    /// [`batch_probe`].
    pub fn resolve_batch(&self, names: &[&[u8]]) -> Vec<Option<SnapEntry>> {
        batch_probe(&self.shards, names)
    }
}

/// Resolves a batch of prefixes against one set of shards — a
/// [`Snapshot`]'s or a live [`SyncTable`]'s — in four passes so that the
/// names' cache misses overlap instead of queueing one behind another: hash
/// every name, load every name's home page pointer, load every home slot,
/// then compare. A name found in its home slot, or whose home slot is
/// empty, is answered from that one load; only the rest take the full
/// probe. Answers land at the input index of their name.
pub(crate) fn batch_probe(
    shards: &[Arc<Shard>; SHARD_COUNT],
    names: &[&[u8]],
) -> Vec<Option<SnapEntry>> {
    let hashes: Vec<u64> = names.iter().map(|name| fnv1a(name)).collect();
    let slots: Vec<Option<&Option<Record>>> = hashes
        .iter()
        .map(|&h| shards[shard_of_hash(h)].home_slot(h))
        .collect();
    let homes: Vec<Option<&Record>> = slots
        .into_iter()
        .map(|slot| slot.and_then(Option::as_ref))
        .collect();
    names
        .iter()
        .zip(hashes)
        .zip(homes)
        .map(|((name, h), home)| match home {
            Some(rec) if rec.hash == h && *rec.name == **name => rec.live(),
            Some(_) => shards[shard_of_hash(h)].get(h, name).and_then(Record::live),
            None => None,
        })
        .collect()
}

/// The writer half: a [`SyncTable`] plus the publication slot readers load
/// snapshots from.
///
/// All sync/anti-entropy machinery keeps operating on the inner table via
/// [`ShardedTable::table_mut`]; nothing those rounds do is visible to
/// readers until [`ShardedTable::publish`] commits the batch.
#[derive(Debug)]
pub struct ShardedTable {
    table: SyncTable,
    published: Arc<RwLock<Arc<Snapshot>>>,
}

impl Default for ShardedTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedTable {
    /// An empty table with an empty published snapshot.
    pub fn new() -> Self {
        Self::from_table(SyncTable::new())
    }

    /// Wraps an already-populated table and publishes its current state as
    /// the boot snapshot.
    pub fn from_table(table: SyncTable) -> Self {
        let boot = Snapshot {
            epoch: 0,
            shards: table.shards().clone(),
        };
        ShardedTable {
            table,
            published: Arc::new(RwLock::new(Arc::new(boot))),
        }
    }

    /// Read access to the versioned table (digests, walks, counters).
    pub fn table(&self) -> &SyncTable {
        &self.table
    }

    /// Write access to the versioned table. Mutations stage invisibly (the
    /// first one to touch a published page copies it); call
    /// [`ShardedTable::publish`] when the batch is complete.
    pub fn table_mut(&mut self) -> &mut SyncTable {
        &mut self.table
    }

    /// Publishes every staged change as one new snapshot. A no-op (no
    /// swap, no epoch bump, no allocation) when every shard is still the
    /// published one, so callers can invoke it unconditionally after each
    /// receive-loop iteration.
    pub fn publish(&mut self) {
        let shards = self.table.shards();
        let epoch = {
            let prev = self.published.read();
            if shards
                .iter()
                .zip(&prev.shards)
                .all(|(a, b)| Arc::ptr_eq(a, b))
            {
                return;
            }
            prev.epoch + 1
        };
        *self.published.write() = Arc::new(Snapshot {
            epoch,
            shards: shards.clone(),
        });
    }

    /// The current snapshot (one read-lock acquisition and an `Arc`
    /// clone — never blocks behind a publish in progress for long, and
    /// never blocks a publish).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.published.read().clone()
    }

    /// A cloneable, send-able read handle for resolver threads.
    pub fn reader(&self) -> ResolverHandle {
        ResolverHandle {
            published: self.published.clone(),
        }
    }
}

/// A read-only handle onto a [`ShardedTable`]'s publication slot. Cheap to
/// clone and safe to hand to other threads; each [`ResolverHandle::snapshot`]
/// call loads whatever the writer most recently published.
#[derive(Debug, Clone)]
pub struct ResolverHandle {
    published: Arc<RwLock<Arc<Snapshot>>>,
}

impl ResolverHandle {
    /// The current snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.published.read().clone()
    }

    /// One-shot lookup against the current snapshot.
    pub fn lookup(&self, prefix: &[u8]) -> Option<SnapEntry> {
        self.snapshot().lookup(prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::TombstoneOutcome;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::{mpsc, OnceLock};

    fn bind(target: u32) -> SyncBinding {
        SyncBinding {
            logical: false,
            target,
            context: 1,
        }
    }

    fn live(target: u32) -> VersionedEntry {
        VersionedEntry {
            binding: Some(bind(target)),
            epoch: 1,
            verified: true,
        }
    }

    /// `name`, padded past the inline limit when `i` is a multiple of three,
    /// so that a table of such names holds both kinds of record.
    fn padded(name: String, i: usize) -> Vec<u8> {
        if i.is_multiple_of(3) {
            format!("{name}-{}", "p".repeat(INLINE_NAME)).into_bytes()
        } else {
            name.into_bytes()
        }
    }

    /// Names of either kind at the inline limit, around it and far past it,
    /// whose byte order is not their length order.
    fn edge_lengths() -> Vec<Vec<u8>> {
        [0, INLINE_NAME - 1, INLINE_NAME, INLINE_NAME + 1, 70_000]
            .into_iter()
            .zip(*b"zyxwv")
            .map(|(len, byte)| vec![byte; len])
            .collect()
    }

    /// `count` names `{stem}{k}` in shard `s` whose hash passes `keep`.
    fn names_in(s: usize, stem: &str, count: usize, keep: impl Fn(u64) -> bool) -> Vec<Vec<u8>> {
        (0u32..)
            .map(|k| format!("{stem}{k}").into_bytes())
            .filter(|name| {
                let h = fnv1a(name);
                shard_of_hash(h) == s && keep(h)
            })
            .take(count)
            .collect()
    }

    /// Names in shard `s` whose hash has its low `REGION_SLOT_BITS` bits all
    /// ones. Each one's home is the last slot of a region, which is the last
    /// slot of a page, so once two share a region, a run crosses that page's
    /// end.
    fn page_end_names(s: usize, count: usize) -> Vec<Vec<u8>> {
        let ones = (1 << REGION_SLOT_BITS) - 1;
        names_in(s, "edge", count, |h| h as usize & ones == ones)
    }

    /// Names in shard `s` whose home in a shard of `cap` slots is the last
    /// slot of a directory: more of them than the shard has directories put
    /// a run across some directory's end.
    fn dir_end_names(s: usize, cap: usize, count: usize) -> Vec<Vec<u8>> {
        let ones = (1 << DIR_SLOT_BITS) - 1;
        names_in(s, "dirend", count, |h| home(cap, h) & ones == ones)
    }

    /// The slot of a stored `name` in its shard, and that name's home slot.
    fn placement(shard: &Shard, name: &[u8]) -> (usize, usize) {
        let h = fnv1a(name);
        let at = shard.probe(h, name).expect("the name is stored");
        (at, home(shard.cap, h))
    }

    /// A record on the last slot of a `span`-slot page or directory whose
    /// removal would have the backward shift carry a record of the next one
    /// across the boundary: the end record's name and the name of the one
    /// that would move into its slot.
    fn crossing_pair(shard: &Shard, span: usize) -> Option<[Name; 2]> {
        let cap = shard.cap;
        if cap <= span {
            return None;
        }
        let mask = cap - 1;
        (span - 1..cap).step_by(span).find_map(|end| {
            let rec = shard.slot(end).as_ref()?;
            // Runs are far shorter than a page: every slot the loop reads
            // is on the next one.
            let mut at = end;
            let follower = loop {
                at = (at + 1) & mask;
                let next = shard.slot(at).as_ref()?;
                if (at.wrapping_sub(home(cap, next.hash)) & mask) >= (at.wrapping_sub(end) & mask) {
                    break next;
                }
            };
            Some([rec.name.clone(), follower.name.clone()])
        })
    }

    /// How many shards, how many of their directories and how many of their
    /// pages, of `after` are not shared with `before`.
    fn copied(before: &Snapshot, after: &Snapshot) -> (usize, usize, usize) {
        let mut count = (0, 0, 0);
        for (old, new) in before.shards.iter().zip(&after.shards) {
            if Arc::ptr_eq(old, new) {
                continue;
            }
            assert_eq!(old.cap, new.cap, "the shard did not grow");
            count.0 += 1;
            for (a, b) in old.dirs.iter().zip(&new.dirs) {
                if !Arc::ptr_eq(a, b) {
                    count.1 += 1;
                    count.2 += a
                        .iter()
                        .zip(b.iter())
                        .filter(|(a, b)| !Arc::ptr_eq(a, b))
                        .count();
                }
            }
        }
        count
    }

    /// Defines `names` in order, `bind(i)` for the `i`th, and publishes.
    fn table_of(names: &[Vec<u8>]) -> ShardedTable {
        let mut st = ShardedTable::new();
        for (i, name) in (0u32..).zip(names) {
            st.table_mut()
                .define(name.clone(), bind(i), 100 + u64::from(i));
        }
        st.publish();
        st
    }

    #[test]
    fn staged_mutations_invisible_until_publish() {
        let mut st = ShardedTable::new();
        st.table_mut().define(b"bin", bind(1), 100);
        assert!(st.snapshot().lookup(b"bin").is_none());
        st.publish();
        assert_eq!(st.snapshot().lookup(b"bin").unwrap().binding, bind(1));
    }

    #[test]
    fn tombstone_retracts_on_next_publish() {
        let mut st = ShardedTable::new();
        st.table_mut().define(b"tmp", bind(2), 100);
        st.publish();
        st.table_mut().tombstone(b"tmp", 200);
        let held = st.snapshot();
        st.publish();
        // The old snapshot still serves the binding; the new one does not.
        assert!(held.lookup(b"tmp").is_some());
        assert!(st.snapshot().lookup(b"tmp").is_none());
    }

    #[test]
    fn publish_is_a_noop_when_clean() {
        let mut st = ShardedTable::new();
        st.publish();
        assert_eq!(st.snapshot().epoch(), 0, "an untouched table is clean");
        st.table_mut().define(b"x", bind(1), 100);
        st.publish();
        let epoch = st.snapshot().epoch();
        st.publish();
        assert_eq!(st.snapshot().epoch(), epoch);
    }

    #[test]
    fn clean_shards_are_shared_between_snapshots() {
        let mut st = ShardedTable::new();
        for i in 0..64u32 {
            st.table_mut()
                .define(format!("n{i}").into_bytes(), bind(i), 100 + u64::from(i));
        }
        st.publish();
        let before = st.snapshot();
        st.table_mut().define(b"one-more", bind(99), 999);
        st.publish();
        let after = st.snapshot();
        let touched = SyncTable::shard_of(b"one-more");
        let mut shared = 0;
        for s in 0..SHARD_COUNT {
            if Arc::ptr_eq(&before.shards[s], &after.shards[s]) {
                shared += 1;
                assert_ne!(s, touched, "touched shard must be a copy");
            }
        }
        assert_eq!(shared, SHARD_COUNT - 1, "exactly one shard was dirty");
    }

    /// The unit of copying is a page under a directory: after a publish, one
    /// define or one tombstone leaves exactly one shard, one directory and
    /// one page not shared with the previous snapshot, and a GC sweep that
    /// removes one record at most two of each — two pages exactly when its
    /// backward shift crosses a page boundary.
    #[test]
    fn a_write_copies_one_page_of_one_shard() {
        let mut names = names_in(5, "cnt", 5_001, |_| true);
        let more = names.pop().expect("one more name");
        names.extend(page_end_names(5, 6));
        let mut st = table_of(&names);
        assert!(
            st.table().shards()[5].dirs.len() >= 2,
            "several directories"
        );
        let mut now = 10_000;
        let mut write = |st: &mut ShardedTable, op: &dyn Fn(&mut SyncTable, u64)| {
            now += 1;
            let before = st.snapshot();
            op(st.table_mut(), now);
            st.publish();
            copied(&before, &st.snapshot())
        };

        let define = |t: &mut SyncTable, now| t.define(more.clone(), bind(1), now);
        assert_eq!(write(&mut st, &define), (1, 1, 1), "a define");
        let tombstone = |t: &mut SyncTable, now| {
            assert_eq!(t.tombstone(&names[17], now), TombstoneOutcome::DroppedLive);
        };
        assert_eq!(write(&mut st, &tombstone), (1, 1, 1), "a tombstone");
        let gc = |t: &mut SyncTable, now| assert_eq!(t.gc_below(now), 1);
        let (shards, dirs, pages) = write(&mut st, &gc);
        assert_eq!(shards, 1, "a GC of one record");
        assert!(
            (1..=pages).contains(&dirs) && pages <= 2,
            "a GC of one record: {dirs} directories, {pages} pages"
        );

        let [doomed, follower] = crossing_pair(&st.table().shards()[5], PAGE_SLOTS)
            .expect("the page-end names put a run across a page boundary");
        let tombstone = |t: &mut SyncTable, now| {
            assert_eq!(t.tombstone(&doomed, now), TombstoneOutcome::DroppedLive);
        };
        let (end, _) = placement(&st.table().shards()[5], &doomed);
        let dirs = 1 + usize::from((end + 1).is_multiple_of(1 << DIR_SLOT_BITS));
        assert_eq!(write(&mut st, &tombstone), (1, 1, 1), "a tombstone");
        assert_eq!(write(&mut st, &gc), (1, dirs, 2), "a GC that shifts across");
        let (moved_to, _) = placement(&st.table().shards()[5], &follower);
        assert_eq!(moved_to, end, "the follower moved back onto the page end");
    }

    /// The address of every shard, directory and page of `table`, in order.
    fn addresses(table: &SyncTable) -> Vec<*const ()> {
        let mut at = Vec::new();
        for shard in table.shards() {
            at.push(Arc::as_ptr(shard).cast::<()>());
            for dir in &shard.dirs {
                at.push(Arc::as_ptr(dir).cast::<()>());
                at.extend(dir.iter().map(|page| Arc::as_ptr(page).cast::<()>()));
            }
        }
        at
    }

    /// With no snapshot and no clone sharing the table, a write is a store
    /// into its slot: a define, a re-define, a tombstone and a GC of one
    /// record each leave every shard, directory and page where it was —
    /// the prefix server's own table never copies a page.
    #[test]
    fn an_unshared_write_stores_in_place() {
        let mut names = names_in(5, "own", 5_001, |_| true);
        let more = names.pop().expect("one more name");
        let mut table = SyncTable::new();
        for (i, name) in (0u32..).zip(&names) {
            table.define(name.clone(), bind(i), 100 + u64::from(i));
        }
        assert!(table.shards()[5].dirs.len() >= 2, "several directories");
        let mut now = 10_000;
        let mut write = |table: &mut SyncTable, op: &dyn Fn(&mut SyncTable, u64)| {
            now += 1;
            let before = addresses(table);
            op(table, now);
            assert_eq!(addresses(table), before);
        };
        write(&mut table, &|t, now| t.define(more.clone(), bind(1), now));
        write(&mut table, &|t, now| {
            t.define(names[3].clone(), bind(2), now)
        });
        write(&mut table, &|t, now| {
            assert_eq!(t.tombstone(&names[17], now), TombstoneOutcome::DroppedLive);
        });
        write(&mut table, &|t, now| assert_eq!(t.gc_below(now), 1));
        assert_eq!(table.lookup(&more).and_then(|e| e.binding), Some(bind(1)));
        assert_eq!(
            table.lookup(&names[3]).and_then(|e| e.binding),
            Some(bind(2))
        );
        assert!(table.lookup(&names[17]).is_none());
        assert_eq!(table.live_len(), names.len());
    }

    /// A backward shift that carries a record from the first page of one
    /// directory onto the last page of the one before copies both
    /// directories and both pages, and the snapshots held before the
    /// tombstone and before the sweep still answer as the table stood then.
    #[test]
    fn a_shift_across_directories_leaves_held_snapshots_as_they_were() {
        // 5 006 records in shard 5 make it 16 384 slots: four directories.
        let mut names = names_in(5, "dir", 5_000, |_| true);
        names.extend(dir_end_names(5, 1 << 14, 6));
        let mut st = table_of(&names);
        let mut model: BTreeMap<&[u8], SyncBinding> = (0u32..)
            .zip(&names)
            .map(|(i, name)| (&name[..], bind(i)))
            .collect();
        let shard = &st.table().shards()[5];
        assert_eq!(shard.cap, 1 << 14);
        let [doomed, follower] = crossing_pair(shard, 1 << DIR_SLOT_BITS)
            .expect("the directory-end names put a run across a directory's end");
        let (end, _) = placement(shard, &doomed);
        let (from, _) = placement(shard, &follower);
        assert_ne!(from >> DIR_SLOT_BITS, end >> DIR_SLOT_BITS);

        let mut held = vec![(st.snapshot(), model.clone())];
        st.table_mut().tombstone(&doomed, 20_000);
        model.remove(&*doomed);
        st.publish();
        held.push((st.snapshot(), model.clone()));
        assert_eq!(st.table_mut().gc_below(u64::MAX), 1);
        st.publish();
        assert_eq!(copied(&held[1].0, &st.snapshot()), (1, 2, 2));
        assert_eq!(placement(&st.table().shards()[5], &follower).0, end);
        held.push((st.snapshot(), model));

        let refs: Vec<&[u8]> = names.iter().map(Vec::as_slice).collect();
        for (snap, model) in &held {
            for (name, got) in refs.iter().zip(snap.resolve_batch(&refs)) {
                let want = model.get(name).copied();
                assert_eq!(got.map(|e| e.binding), want);
                assert_eq!(snap.lookup(name).map(|e| e.binding), want);
            }
        }
    }

    #[test]
    fn verified_promotion_republishes() {
        let mut st = ShardedTable::new();
        st.table_mut().preload(b"boot", bind(7));
        st.publish();
        assert!(!st.snapshot().lookup(b"boot").unwrap().verified);
        st.table_mut().mark_all_verified();
        st.publish();
        assert!(st.snapshot().lookup(b"boot").unwrap().verified);
    }

    #[test]
    fn from_table_publishes_existing_content() {
        let mut t = SyncTable::new();
        t.define(b"seed", bind(3), 50);
        t.tombstone(b"seed2", 60); // unknown: no-op
        let st = ShardedTable::from_table(t);
        assert_eq!(st.snapshot().live_len(), 1);
        assert!(st.snapshot().lookup(b"seed").is_some());
    }

    /// The staged batch probe answers every name as `lookup` does: names in
    /// their home slot, names displaced from it, names whose run crosses a
    /// page boundary, tombstones, names never defined (in stored and in
    /// empty shards), and one name repeated within a batch.
    #[test]
    fn batch_matches_single_lookups() {
        let mut st = ShardedTable::new();
        let mut names: Vec<Vec<u8>> = (0..10_000).map(|i| padded(format!("svc{i}"), i)).collect();
        names.extend(page_end_names(3, 6));
        for (i, name) in (0u32..).zip(&names) {
            st.table_mut()
                .define(name.clone(), bind(i), 100 + u64::from(i));
        }
        for name in names.iter().step_by(10) {
            st.table_mut().tombstone(name, 20_000);
        }
        st.publish();
        let snap = st.snapshot();
        let (mut displaced, mut across) = (0, 0);
        for name in &names {
            let (at, home) = placement(&snap.shards[SyncTable::shard_of(name)], name);
            displaced += usize::from(at != home);
            across += usize::from(at >> PAGE_SLOT_BITS != home >> PAGE_SLOT_BITS);
        }
        assert!(displaced > 0, "some names sit past their home slot");
        assert!(across > 0, "some names sit on the page after their home's");
        let absent: Vec<Vec<u8>> = (10_000..10_300u32)
            .map(|i| format!("svc{i}").into_bytes())
            .collect();
        let mut refs: Vec<&[u8]> = names.iter().chain(&absent).map(Vec::as_slice).collect();
        let empty = ShardedTable::new().snapshot();
        let repeated = vec![refs[7], refs[7], refs[0], refs[7], &absent[0][..], refs[7]];
        for batch in [refs.clone(), repeated] {
            for (name, got) in batch.iter().zip(snap.resolve_batch(&batch)) {
                assert_eq!(
                    got,
                    snap.lookup(name),
                    "{:?}",
                    String::from_utf8_lossy(name)
                );
            }
            assert!(empty.resolve_batch(&batch).iter().all(Option::is_none));
            assert_eq!(
                st.table().resolve_batch(&batch),
                snap.resolve_batch(&batch),
                "the live table probes as its snapshot"
            );
            assert!(SyncTable::new()
                .resolve_batch(&batch)
                .iter()
                .all(Option::is_none));
        }
        refs.truncate(64);
        assert_eq!(
            snap.resolve_batch(&refs)
                .iter()
                .filter(|e| e.is_some())
                .count(),
            refs.len() - refs.len().div_ceil(10),
            "tombstones answer None"
        );
    }

    /// Names either side of the inline limit, and one of 70 000 bytes, are
    /// found by `lookup` and `resolve_batch` after a grow and under a held
    /// snapshot, list in byte order, and tombstone (copying their pages),
    /// collect and redefine like any other.
    #[test]
    fn inline_and_heap_names_survive_every_write() {
        let edges = edge_lengths();
        let refs: Vec<&[u8]> = edges.iter().map(Vec::as_slice).collect();
        let answers = |snap: &Snapshot| -> Vec<Option<SyncBinding>> {
            let batch = snap.resolve_batch(&refs);
            for (name, got) in refs.iter().zip(&batch) {
                assert_eq!(snap.lookup(name), *got, "{} bytes", name.len());
            }
            batch.into_iter().map(|e| e.map(|e| e.binding)).collect()
        };
        let defined: Vec<_> = (0..5).map(|i| Some(bind(i))).collect();
        let mut st = ShardedTable::new();
        for (i, name) in (0u32..).zip(&edges) {
            st.table_mut().define(name.clone(), bind(i), 100);
        }
        st.publish();
        let small = st.snapshot();
        let mut all = edges.clone();
        for i in 0..10_000 {
            let name = padded(format!("fill{i}"), i);
            st.table_mut().define(name.clone(), bind(9), 200);
            all.push(name);
        }
        st.publish();
        assert!(st.table().shards().iter().all(|s| s.pages().count() >= 2));
        let grown = st.snapshot();
        assert_eq!(answers(&small), defined);
        assert_eq!(answers(&grown), defined, "after every shard grew");
        all.sort_unstable();
        let listed: Vec<&[u8]> = st.table().live_iter().map(|(name, ..)| name).collect();
        assert_eq!(listed, all, "listed in byte order");

        for name in &refs {
            let outcome = st.table_mut().tombstone(name, 300);
            assert_eq!(outcome, TombstoneOutcome::DroppedLive);
        }
        st.publish();
        let (shards, _, pages) = copied(&grown, &st.snapshot());
        assert!(
            shards >= 1 && pages >= shards,
            "the tombstones copied pages"
        );
        assert_eq!(answers(&st.snapshot()), vec![None; 5]);
        assert_eq!(answers(&grown), defined, "a held page is untouched");
        assert_eq!(st.table_mut().gc_below(u64::MAX), 5);
        st.publish();
        assert_eq!(answers(&st.snapshot()), vec![None; 5]);
        assert_eq!(st.table().live_len(), 10_000);
        for (i, name) in (0u32..).zip(&edges) {
            st.table_mut().define(name.clone(), bind(i), 400);
        }
        st.publish();
        assert_eq!(answers(&st.snapshot()), defined, "redefined after GC");
    }

    /// The stored name under `name` in `shards`.
    fn stored<'a>(shards: &'a [Arc<Shard>; SHARD_COUNT], name: &[u8]) -> &'a Name {
        let h = fnv1a(name);
        let rec = shards[shard_of_hash(h)].get(h, name);
        &rec.expect("the name is stored").name
    }

    /// The allocation behind a heap name.
    fn heap_bytes(name: &Name) -> &Arc<Box<[u8]>> {
        match name {
            Name::Heap(_, bytes) => bytes,
            Name::Inline(..) => panic!("{} bytes stored inline", name.len()),
        }
    }

    /// A name of `INLINE_NAME` bytes is stored inline and one a byte longer
    /// on the heap, and the heap name is one allocation wherever it is
    /// held: by the live page, by a held snapshot's copy of that page after
    /// a write copies it, by the shard after a grow re-places it, and by
    /// the tombstone index after a tombstone.
    #[test]
    fn a_heap_name_is_one_allocation_wherever_it_is_held() {
        let inline = vec![b'i'; INLINE_NAME];
        let heap = vec![b'h'; INLINE_NAME + 1];
        let mut st = table_of(&[inline.clone(), heap.clone()]);
        let shards = st.table().shards();
        assert!(matches!(stored(shards, &inline), Name::Inline(..)));
        let bytes = heap_bytes(stored(shards, &heap)).clone();
        assert_eq!(**bytes, *heap);
        let same = |name: &Name| Arc::ptr_eq(&bytes, heap_bytes(name));

        let held = st.snapshot();
        st.table_mut().define(heap.clone(), bind(7), 200);
        st.publish();
        assert_eq!(copied(&held, &st.snapshot()), (1, 1, 1), "a page copy");
        assert!(same(stored(&held.shards, &heap)), "the held page");
        assert!(same(stored(st.table().shards(), &heap)), "the live page");

        let s = SyncTable::shard_of(&heap);
        let cap = st.table().shards()[s].cap;
        for name in names_in(s, "grow", cap, |_| true) {
            if st.table().shards()[s].cap > cap {
                break;
            }
            st.table_mut().define(name, bind(8), 300);
        }
        assert!(st.table().shards()[s].cap > cap, "the shard grew");
        assert!(same(stored(st.table().shards(), &heap)), "after the grow");

        let outcome = st.table_mut().tombstone(&heap, 400);
        assert_eq!(outcome, TombstoneOutcome::DroppedLive);
        let (_, tomb) = st.table().tombs().first().expect("one tombstone");
        assert!(same(tomb), "the tombstone index");
        assert!(same(stored(st.table().shards(), &heap)), "the tombstone");
        assert_eq!(held.lookup(&heap).map(|e| e.binding), Some(bind(1)));
    }

    fn hash_of<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
        let mut h = std::hash::DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    proptest! {
        /// A `Name` compares, orders and hashes as its bytes, whichever way
        /// it is stored: a set of names is searched and sorted as the
        /// `[u8]`s are.
        #[test]
        fn names_compare_order_and_hash_as_their_bytes(
            a in collection::vec(0u8..3, 0..40),
            tail in collection::vec(0u8..3, 0..40),
            shared in 0usize..40,
        ) {
            // `b` shares a prefix of `a`, so ties and prefixes are common.
            let b: Vec<u8> = a.iter().take(shared).chain(&tail).copied().collect();
            for (x, y) in [(&a, &b), (&b, &a), (&a, &a)] {
                let (nx, ny) = (Name::from(&x[..]), Name::from(&y[..]));
                prop_assert_eq!(&*nx, &x[..]);
                prop_assert_eq!(nx.cmp(&ny), x.cmp(y));
                prop_assert_eq!(nx.partial_cmp(&ny), x.partial_cmp(y));
                prop_assert_eq!(nx == ny, x == y);
                prop_assert_eq!(hash_of(&nx), hash_of(&x[..]));
                prop_assert_eq!(
                    matches!(nx, Name::Inline(..)),
                    x.len() <= INLINE_NAME
                );
            }
        }
    }

    /// Any entry: live or a tombstone, direct or logical, verified or not,
    /// at epoch 0, `u64::MAX` or anything between.
    fn arb_entry() -> impl Strategy<Value = VersionedEntry> {
        let binding = (any::<bool>(), any::<bool>(), any::<u32>(), any::<u32>()).prop_map(
            |(live, logical, target, context)| {
                live.then_some(SyncBinding {
                    logical,
                    target,
                    context,
                })
            },
        );
        let epoch = prop_oneof![Just(0), Just(u64::MAX), any::<u64>()];
        (binding, epoch, any::<bool>()).prop_map(|(binding, epoch, verified)| VersionedEntry {
            binding,
            epoch,
            verified,
        })
    }

    /// Every record of `names` in `shard` reads back as `entries` and keeps
    /// its name's bytes, and `index` finds it.
    fn check_packed(
        shard: &Shard,
        names: &[Vec<u8>],
        entries: &[VersionedEntry],
        index: &BTreeSet<Name>,
    ) -> Result<(), TestCaseError> {
        for (name, entry) in names.iter().zip(entries) {
            let rec = shard.get(fnv1a(name), name).expect("the name is stored");
            prop_assert_eq!((name.len(), rec.entry()), (name.len(), *entry));
            prop_assert_eq!(&*rec.name, &name[..]);
            prop_assert_eq!(hash_of(&rec.name), hash_of(&name[..]));
            prop_assert!(index.contains(&rec.name), "{} bytes", name.len());
            prop_assert!(index.contains(&name[..]));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The flags packed into a name's header byte come back as stored,
        /// and never show in the name: every entry, under a name of each
        /// length at and around the inline limit, reads back identical
        /// after an overwrite copies its page out from under a held copy of
        /// the shard, and after the shard grows; the held copy keeps the
        /// entries it had. A side index of the names, taken with the first
        /// entries' flags, finds each name whatever flags its record carries
        /// later, and lists them in byte order.
        #[test]
        fn packed_records_read_back_as_stored(
            first in collection::vec(arb_entry(), 5),
            second in collection::vec(arb_entry(), 5),
        ) {
            let names = edge_lengths();
            let mut shard = Shard::default();
            for (name, entry) in names.iter().zip(&first) {
                shard.insert(fnv1a(name), name, *entry);
            }
            let index: BTreeSet<Name> = names
                .iter()
                .map(|name| shard.get(fnv1a(name), name).expect("stored").name.clone())
                .collect();
            let mut sorted = names.clone();
            sorted.sort_unstable();
            prop_assert!(index.iter().map(|name| &name[..]).eq(sorted.iter().map(Vec::as_slice)));
            check_packed(&shard, &names, &first, &index)?;

            let held = shard.clone();
            for (name, entry) in names.iter().zip(&second) {
                shard.insert(fnv1a(name), name, *entry);
            }
            prop_assert!(!Arc::ptr_eq(&held.dirs[0], &shard.dirs[0]), "the page was copied");
            check_packed(&shard, &names, &second, &index)?;
            check_packed(&held, &names, &first, &index)?;

            let cap = shard.cap;
            for i in 0..200u32 {
                let filler = format!("fill{i}").into_bytes();
                shard.insert(fnv1a(&filler), &filler, live(i));
            }
            prop_assert!(shard.cap > cap && shard.pages().count() >= 2, "the shard grew");
            check_packed(&shard, &names, &second, &index)?;
            check_packed(&held, &names, &first, &index)?;
        }
    }

    #[test]
    fn reader_handle_sees_published_state_only() {
        let mut st = ShardedTable::new();
        let reader = st.reader();
        st.table_mut().define(b"a", bind(1), 100);
        assert!(reader.lookup(b"a").is_none());
        st.publish();
        assert!(reader.lookup(b"a").is_some());
    }

    /// Copy-on-write isolation: a reader's snapshot shares its shards and
    /// their pages with the writer, and must answer identically before and
    /// after the writer redefines, tombstones and garbage-collects *in those
    /// same pages* — seen from another thread, with the hand-offs forced by
    /// channels.
    #[test]
    fn held_snapshot_is_untouched_by_later_mutations_and_gc() {
        let names: Vec<Vec<u8>> = (0..10_000u32)
            .map(|i| format!("cow{i}").into_bytes())
            .collect();
        let mut st = ShardedTable::new();
        for (i, name) in names.iter().enumerate() {
            st.table_mut()
                .define(name.clone(), bind(i as u32), 100 + i as u64);
        }
        st.publish();
        assert!(
            st.table().shards().iter().all(|s| s.pages().count() >= 2),
            "every shard spans several pages"
        );
        let held = st.snapshot();
        let refs: Vec<&[u8]> = names.iter().map(Vec::as_slice).collect();
        let (to_reader, from_writer) = mpsc::channel::<()>();
        let (to_writer, from_reader) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let (held, refs) = (&held, &refs);
            let reader = scope.spawn(move || {
                let before = (held.resolve_batch(refs), held.live_len(), held.epoch());
                to_writer.send(()).expect("writer waits for the first read");
                from_writer.recv().expect("writer signals when it is done");
                let after = (held.resolve_batch(refs), held.live_len(), held.epoch());
                assert_eq!(before, after, "a held snapshot changed under its reader");
                assert!(before.0.iter().all(Option::is_some));
            });
            from_reader.recv().expect("reader took its first reading");
            let table = st.table_mut();
            for k in 0..1_000u32 {
                let name = &names[(k as usize * 7) % names.len()];
                if k % 3 == 0 {
                    table.tombstone(name, 10_000 + u64::from(k));
                } else {
                    table.define(name.clone(), bind(k ^ 0xdead), 10_000 + u64::from(k));
                }
            }
            assert!(table.tombstone_len() > 0);
            table.gc_below(u64::MAX);
            assert_eq!(table.tombstone_len(), 0, "the sweep removed records");
            st.publish();
            to_reader.send(()).expect("reader waits for the writer");
            reader.join().expect("reader thread");
        });
        // The writer's own view did move on.
        assert!(st.snapshot().live_len() < names.len());
    }

    /// A shard filled with synthetic hashes (the top four bits fixed, the
    /// rest drawn from `seed`), bucket bits squeezed into `spread` values
    /// so leaf buckets hold several records, and `pile` extra records
    /// piled onto the last slot of the array so their run wraps to slot 0.
    fn synthetic_shard(seed: u64, size: usize, spread: u64, pile: usize) -> Shard {
        let mut rng = seed | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut shard = Shard::default();
        let mut serial = 0u64;
        let mut add = |shard: &mut Shard, hash: u64| {
            serial += 1;
            shard.insert(hash, &serial.to_le_bytes(), live(serial as u32));
        };
        for _ in 0..size {
            let bucket_bits = (next() % spread).wrapping_mul(0x9E37_79B9) & 0xFFFF;
            let hash = (0xA << 60) | (bucket_bits << 44) | (next() & ((1 << 44) - 1));
            add(&mut shard, hash);
        }
        let cap = shard.cap;
        if pile > 0 && cap > 0 {
            // The node whose region is the array's last one, and low bits
            // all ones: every such record's home is the very last slot.
            let node = (0xA000..0xB000u32)
                .find(|&node| {
                    let (start, slot_bits) = region(cap, node);
                    start + (1 << slot_bits) == cap
                })
                .expect("some node maps to the last region");
            for _ in 0..pile {
                if (shard.len + 1) * 2 > cap {
                    break; // keep the array (and so the chosen region) as is
                }
                let hash = (u64::from(node) << 48) | (next() & 0xFFFF_0000_0000) | 0xFFFF_FFFF;
                assert_eq!(home(cap, hash), cap - 1);
                add(&mut shard, hash);
            }
        }
        shard
    }

    /// The range scan is the bucket: for the buckets present (and their
    /// sixteen-sibling groups), `under` yields exactly the records a brute
    /// filter of the whole shard on the bucket id finds.
    fn check_scans(shard: &Shard) {
        let mut brute: BTreeMap<u32, Vec<&[u8]>> = BTreeMap::new();
        for rec in shard.records() {
            brute
                .entry(bucket_of_hash(rec.hash))
                .or_default()
                .push(&rec.name);
        }
        fn sorted(mut names: Vec<&[u8]>) -> Vec<&[u8]> {
            names.sort_unstable();
            names
        }
        // A few hundred buckets of a big shard are enough; small ones in full.
        let step = (brute.len() / 300).max(1);
        for (&bucket, expect) in brute.iter().step_by(step) {
            assert_eq!(
                sorted(shard.under(bucket, 1).map(|r| &*r.name).collect()),
                sorted(expect.clone()),
                "bucket {bucket:#x} of a {}-slot shard",
                shard.cap
            );
            let first = bucket - bucket % MERKLE_FANOUT;
            let siblings = brute.range(first..first + MERKLE_FANOUT);
            assert_eq!(
                sorted(
                    shard
                        .under(first, MERKLE_FANOUT)
                        .map(|r| &*r.name)
                        .collect()
                ),
                sorted(siblings.flat_map(|(_, m)| m.iter().copied()).collect()),
            );
        }
        // An absent bucket scans to nothing.
        let absent = (0xA_0000..0xB_0000u32).find(|b| !brute.contains_key(b));
        assert_eq!(shard.under(absent.expect("a free bucket"), 1).count(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn bucket_range_scan_equals_a_brute_force_filter(
            seed in any::<u64>(),
            // One region, a few regions, many, and past 65 536 slots.
            size in prop_oneof![1usize..200, 300usize..3_000, 3_000usize..9_000, 33_000usize..34_000],
            per_bucket in prop_oneof![Just(1u64), Just(6), Just(40)],
            pile in 0usize..12,
        ) {
            let mut shard = synthetic_shard(seed, size, size as u64 / per_bucket + 1, pile);
            let cap = shard.cap;
            prop_assert!(size < 33_000 || cap > 65_536);
            if pile > 1 && shard.slot(cap - 1).is_some() {
                prop_assert!(shard.slot(0).is_some(), "the pile wrapped to slot 0");
            }
            check_scans(&shard);
            // Every record is reachable by its own probe.
            for rec in shard.records() {
                prop_assert!(shard.get(rec.hash, &rec.name).is_some());
            }
            // Remove every third record (backward shift), then again.
            let doomed: Vec<(u64, Name)> = shard
                .records()
                .step_by(3)
                .map(|rec| (rec.hash, rec.name.clone()))
                .collect();
            for (hash, name) in &doomed {
                prop_assert!(shard.remove(*hash, name).is_some());
                prop_assert!(shard.get(*hash, name).is_none());
            }
            prop_assert_eq!(shard.records().count(), shard.len);
            prop_assert_eq!(shard.live_len(), shard.len);
            check_scans(&shard);
            for rec in shard.records() {
                prop_assert!(shard.get(rec.hash, &rec.name).is_some());
            }
        }
    }

    /// The wrap case, spelled out: three records whose home is the last
    /// slot of an 8-slot shard occupy slots 7, 0 and 1, and both the probe
    /// and the bucket scan follow them round the end of the array.
    #[test]
    fn a_run_that_wraps_the_slot_array_is_scanned_whole() {
        let mut shard = Shard::default();
        let hash = |k: u64| (0xA << 60) | (0x1234 << 44) | (k << 8) | 7;
        for k in 0..3u64 {
            shard.insert(hash(k), &k.to_le_bytes(), live(k as u32));
        }
        assert_eq!(shard.cap, 8);
        let occupied: Vec<usize> = (0..8).filter(|&i| shard.slot(i).is_some()).collect();
        assert_eq!(occupied, [0, 1, 7]);
        assert_eq!(shard.under(bucket_of_hash(hash(0)), 1).count(), 3);
        assert!(shard.remove(hash(0), &0u64.to_le_bytes()).is_some());
        let occupied: Vec<usize> = (0..8).filter(|&i| shard.slot(i).is_some()).collect();
        assert_eq!(occupied, [0, 7], "the run closed up across the wrap");
        assert!(shard.get(hash(2), &2u64.to_le_bytes()).is_some());
        assert_eq!(shard.under(bucket_of_hash(hash(0)), 1).count(), 2);
    }

    /// The names of the held-snapshot property, all in shard 0 so that a few
    /// hundred of them span several pages: 1 400 plain names, every third
    /// one too long to store inline, then `EDGES` page-end names.
    fn pool() -> &'static [Vec<u8>] {
        static POOL: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
        POOL.get_or_init(|| {
            let mut pool: Vec<Vec<u8>> = Vec::new();
            for k in 0u32.. {
                if pool.len() == 1_400 {
                    break;
                }
                let name = padded(format!("m{k}"), pool.len());
                if SyncTable::shard_of(&name) == 0 {
                    pool.push(name);
                }
            }
            pool.extend(page_end_names(0, EDGES));
            pool
        })
    }

    /// More page-end names than shard 0 ever has regions in the property, so
    /// defining all of them forces a run across some page's end.
    const EDGES: usize = 12;

    #[derive(Debug, Clone)]
    enum Step {
        Define(usize, u32),
        Tombstone(usize),
        Gc,
        Publish,
    }

    /// Six defines to three tombstones to one sweep to one publish.
    fn schedule_step() -> impl Strategy<Value = Step> {
        (0u32..11, 0..pool().len(), any::<u32>()).prop_map(|(kind, k, target)| match kind {
            0..=5 => Step::Define(k, target),
            6..=8 => Step::Tombstone(k),
            9 => Step::Gc,
            _ => Step::Publish,
        })
    }

    /// A writer driven through a schedule, holding every snapshot it
    /// published beside a frozen copy of the bindings it held then.
    #[derive(Default)]
    struct Run {
        st: ShardedTable,
        now: u64,
        model: BTreeMap<usize, SyncBinding>,
        held: Vec<(Arc<Snapshot>, BTreeMap<usize, SyncBinding>)>,
    }

    impl Run {
        fn shard0(&self) -> &Shard {
            &self.st.table().shards()[0]
        }

        fn stored(&self, k: usize) -> bool {
            let name = &pool()[k];
            self.shard0().get(fnv1a(name), name).is_some()
        }

        fn define(&mut self, k: usize, target: u32) {
            self.now += 1;
            self.st
                .table_mut()
                .define(pool()[k].clone(), bind(target), self.now);
            self.model.insert(k, bind(target));
        }

        fn tombstone(&mut self, k: usize) {
            self.now += 1;
            self.st.table_mut().tombstone(&pool()[k], self.now);
            self.model.remove(&k);
        }

        /// Collects every tombstone.
        fn gc(&mut self) {
            let horizon = self.st.table().max_epoch();
            self.st.table_mut().gc_below(horizon);
        }

        fn publish(&mut self) {
            self.st.publish();
            self.held.push((self.st.snapshot(), self.model.clone()));
        }

        fn step(&mut self, step: &Step) {
            match *step {
                Step::Define(k, target) => self.define(k, target),
                Step::Tombstone(k) => self.tombstone(k),
                Step::Gc => self.gc(),
                Step::Publish => self.publish(),
            }
        }

        /// Publishes, then defines names shard 0 does not hold until it
        /// grows: the grow re-places records out of pages the snapshot just
        /// published still holds.
        fn grow_while_held(&mut self) {
            self.publish();
            let cap = self.shard0().cap;
            for k in 0..pool().len() {
                if self.shard0().cap > cap {
                    break;
                }
                if !self.stored(k) {
                    self.define(k, 0x9e0);
                }
            }
            assert!(self.shard0().cap > cap, "shard 0 grew");
            assert_eq!(
                self.held.last().map(|(snap, _)| snap.shards[0].cap),
                Some(cap)
            );
        }

        /// Removes a page-end record whose slot the backward shift refills
        /// from the next page, with a snapshot holding both pages; defines
        /// page-end names first until there is such a record.
        fn shift_across_pages(&mut self) {
            self.gc(); // so the sweep below removes exactly one record
            let [doomed, follower] = loop {
                if let Some(pair) = crossing_pair(self.shard0(), PAGE_SLOTS) {
                    break pair;
                }
                let k = (pool().len() - EDGES..pool().len())
                    .find(|&k| !self.stored(k))
                    .expect("more page-end names than pages");
                self.define(k, 0xed9e);
            };
            let (end, _) = placement(self.shard0(), &doomed);
            let (from, _) = placement(self.shard0(), &follower);
            self.publish();
            let k = pool().iter().position(|name| **name == *doomed);
            self.tombstone(k.expect("a pool name"));
            self.gc();
            assert_eq!(placement(self.shard0(), &follower).0, end);
            assert_ne!(from >> PAGE_SLOT_BITS, end >> PAGE_SLOT_BITS);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Every snapshot the writer published answers `lookup` and
        /// `resolve_batch`, for every name, exactly as the table stood at
        /// that publish — however the writer went on to define, tombstone,
        /// collect, grow and shift underneath it. Every schedule includes a
        /// grow while a snapshot holds the old pages and a backward shift
        /// across a page boundary, at a drawn point.
        #[test]
        fn held_snapshots_answer_as_their_frozen_models(
            bulk in 300usize..700,
            steps in collection::vec(schedule_step(), 0..120),
            grow_at in 0usize..120,
            cross_at in 0usize..120,
        ) {
            let mut run = Run::default();
            for k in 0..bulk {
                run.define(k, k as u32);
            }
            run.publish();
            for at in 0..=steps.len() {
                if at == grow_at.min(steps.len()) {
                    run.grow_while_held();
                }
                if at == cross_at.min(steps.len()) {
                    run.shift_across_pages();
                }
                if let Some(step) = steps.get(at) {
                    run.step(step);
                }
            }
            run.publish();
            // The pool, then names no shard holds (most in empty shards).
            let absent: Vec<Vec<u8>> = (0..64u32).map(|k| format!("absent{k}").into_bytes()).collect();
            let names: Vec<&[u8]> = pool().iter().chain(&absent).map(Vec::as_slice).collect();
            for (snap, model) in &run.held {
                let batch = snap.resolve_batch(&names);
                for (k, (name, got)) in names.iter().zip(batch).enumerate() {
                    let want = model.get(&k).copied();
                    prop_assert_eq!(got.map(|e| e.binding), want);
                    prop_assert_eq!(snap.lookup(name).map(|e| e.binding), want);
                }
            }
        }
    }
}
