//! Seeded, out-of-band load: every name and every operation a run will
//! issue is generated here, from `--seed`, before anything is timed. The
//! program under test only ever sees the generated inputs.
//!
//! Each stream is a ring: the measured loop walks it and wraps. Rings are
//! sized so that wrapping is rare, and the one stateful stream
//! ([`churn_ring`]) is built so that wrapping is harmless.

use vproto::{ContextId, ContextPair, Pid};
use ChurnOp::{Add, Delete, ReadBase, ReadChurn};

/// SplitMix64 — the same generator `vnet::fault` draws from.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; bias < 2⁻³² for the sizes here).
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u32 + 1) as usize);
        }
    }
}

/// FNV-1a over a stream of words: the `load_hash` printed by every run, so
/// two runs can be shown to have issued the same operations.
#[derive(Clone, Copy)]
pub struct LoadHash(u64);

impl LoadHash {
    pub fn new() -> Self {
        LoadHash(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn words(&mut self, ws: &[u32]) {
        for &w in ws {
            self.word(w);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Width of every generated prefix name: one tag letter and seven digits.
const NAME_WIDTH: usize = 8;

/// `count` fixed-width names (`n0000042`) in one allocation, so handing a
/// `&str` to the client costs a slice, not a `String`.
pub struct NameTable {
    blob: String,
}

impl NameTable {
    pub fn new(tag: char, count: u32) -> Self {
        use std::fmt::Write;
        let mut blob = String::with_capacity(count as usize * NAME_WIDTH);
        for i in 0..count {
            write!(blob, "{tag}{i:07}").expect("write to String");
        }
        NameTable { blob }
    }

    pub fn get(&self, i: u32) -> &str {
        let at = i as usize * NAME_WIDTH;
        &self.blob[at..at + NAME_WIDTH]
    }
}

/// The binding name `i` of the table is preloaded with. Both halves are
/// derived from `i`, so an answer that belongs to another name — or to no
/// name — cannot pass verification.
pub fn binding_of(i: u32) -> ContextPair {
    let pid = 0x0001_0000 | (i.wrapping_mul(0x9E37_79B1) >> 16).max(1);
    ContextPair::new(Pid::from_raw(pid), ContextId::new(churn_context(i, 0)))
}

/// The context id the `generation`-th definition of name `i` binds.
pub fn churn_context(i: u32, generation: u32) -> u32 {
    (i ^ 0x5a5a_5a5a)
        .wrapping_mul(0x85EB_CA6B)
        .wrapping_add(generation.wrapping_mul(0xC2B2_AE35))
}

/// Uniform indices into a `table`-name table.
pub fn uniform_ring(seed: u64, table: u32, len: usize) -> Vec<u32> {
    let mut rng = Rng::new(seed);
    (0..len).map(|_| rng.below(table)).collect()
}

/// Zipf(s = 1) ranks over `n` items by inverse-CDF lookup: rank `k`
/// (0-based) is drawn with probability ∝ 1/(k+1).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u32) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / f64::from(k);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1) as u32
    }
}

/// `open_forward`'s stream: `(prefix, file)` pairs packed as
/// `prefix * files + file`; prefixes Zipf-distributed over a seeded
/// permutation (so the hot prefix is not always `p0000`), files uniform.
pub fn open_ring(seed: u64, prefixes: u32, files: u32, len: usize) -> Vec<u32> {
    let mut rng = Rng::new(seed);
    let mut by_rank: Vec<u32> = (0..prefixes).collect();
    rng.shuffle(&mut by_rank);
    let zipf = Zipf::new(prefixes);
    (0..len)
        .map(|_| by_rank[zipf.draw(&mut rng) as usize] * files + rng.below(files))
        .collect()
}

/// One operation of the `churn_mixed` stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnOp {
    /// Resolve name `i` of the preloaded table.
    ReadBase(u32),
    /// Resolve churn name `i`; the expected answer is the model's.
    ReadChurn(u32),
    /// `add_prefix` churn name `i`, binding context `ctx`.
    Add { i: u32, ctx: u32 },
    /// `delete_prefix` churn name `i` (always present when issued).
    Delete(u32),
}

/// Operations per stratum of the churn stream: 18 reads, 1 add, 1 delete.
pub const CHURN_BLOCK: usize = 20;

/// `churn_mixed`'s stream: 90 % reads, 5 % adds, 5 % deletes, *stratified*
/// — every block of [`CHURN_BLOCK`] ops holds exactly one add and one
/// delete at seeded positions — so every one-second window carries the
/// same write share and the throughput figure measures the system, not
/// the binomial luck of the stream.
///
/// Writes slide a window around a seeded circle of the `churn` names: the
/// `k`-th add defines circle position `k`, the `k`-th delete removes
/// position `k − churn/2`, which an earlier add (or the preload, see
/// [`churn_preloaded`]) defined. A delete therefore never misses, and
/// after `churn` blocks the present-set is back where it started: the ring
/// may wrap. A name's bound *value* depends on whether the preload or an
/// add defined it last, so reads are verified against a model the harness
/// keeps as it goes, not against this stream.
pub fn churn_ring(seed: u64, table: u32, churn: u32) -> Vec<ChurnOp> {
    let mut rng = Rng::new(seed);
    let circle = churn_circle(seed, churn);
    let mut ring = Vec::with_capacity(churn as usize * CHURN_BLOCK);
    for k in 0..churn {
        let add_at = rng.below(CHURN_BLOCK as u32) as usize;
        let mut del_at = rng.below(CHURN_BLOCK as u32 - 1) as usize;
        if del_at >= add_at {
            del_at += 1;
        }
        for slot in 0..CHURN_BLOCK {
            ring.push(if slot == add_at {
                let i = circle[k as usize];
                Add {
                    i,
                    ctx: churn_context(i, k + 1),
                }
            } else if slot == del_at {
                Delete(circle[((k + churn / 2) % churn) as usize])
            } else if rng.below(4) == 0 {
                ReadChurn(rng.below(churn))
            } else {
                ReadBase(rng.below(table))
            });
        }
    }
    ring
}

fn churn_circle(seed: u64, churn: u32) -> Vec<u32> {
    let mut circle: Vec<u32> = (0..churn).collect();
    Rng::new(seed ^ 0xC1C1_E000).shuffle(&mut circle);
    circle
}

/// The churn names that must already be bound when the stream starts: the
/// half of the circle the first deletes will remove.
pub fn churn_preloaded(seed: u64, churn: u32) -> Vec<u32> {
    churn_circle(seed, churn)[(churn / 2) as usize..].to_vec()
}

impl ChurnOp {
    fn hash_into(self, h: &mut LoadHash) {
        match self {
            ReadBase(i) => h.words(&[0, i]),
            ReadChurn(i) => h.words(&[1, i]),
            Add { i, ctx } => h.words(&[2, i, ctx]),
            Delete(i) => h.words(&[3, i]),
        }
    }
}

/// `load_hash` of a churn stream.
pub fn churn_hash(ring: &[ChurnOp]) -> u64 {
    let mut h = LoadHash::new();
    for op in ring {
        op.hash_into(&mut h);
    }
    h.finish()
}

/// `load_hash` of an index stream.
pub fn ring_hash(ring: &[u32]) -> u64 {
    let mut h = LoadHash::new();
    h.words(ring);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn one_seed_one_hash_two_seeds_two_hashes() {
        let a = ring_hash(&uniform_ring(0x1984, 1_000_000, 4096));
        assert_eq!(a, ring_hash(&uniform_ring(0x1984, 1_000_000, 4096)));
        assert_eq!(a, 0x185a_efb8_b51a_e3d6, "the 0x1984 stream is pinned");
        assert_ne!(a, ring_hash(&uniform_ring(0x1985, 1_000_000, 4096)));

        let o = ring_hash(&open_ring(7, 1000, 64, 4096));
        assert_eq!(o, ring_hash(&open_ring(7, 1000, 64, 4096)));
        assert_ne!(o, ring_hash(&open_ring(8, 1000, 64, 4096)));

        let c = churn_hash(&churn_ring(7, 10_000, 64));
        assert_eq!(c, churn_hash(&churn_ring(7, 10_000, 64)));
        assert_ne!(c, churn_hash(&churn_ring(8, 10_000, 64)));
    }

    #[test]
    fn names_are_fixed_width_and_distinct() {
        let t = NameTable::new('n', 1000);
        assert_eq!(t.get(0), "n0000000");
        assert_eq!(t.get(999), "n0000999");
        let pairs: HashSet<_> = (0..100_000).map(|i| binding_of(i).context.raw()).collect();
        assert_eq!(pairs.len(), 100_000);
        assert!((0..100_000).all(|i| !binding_of(i).server.is_null()));
    }

    #[test]
    fn zipf_head_is_heavy() {
        let z = Zipf::new(1000);
        let mut rng = Rng::new(1);
        let n = 100_000;
        let head = (0..n).filter(|_| z.draw(&mut rng) == 0).count();
        // H(1000) ≈ 7.485, so rank 0 carries ≈ 13.4 % of the draws.
        assert!((12_000..15_000).contains(&head), "rank-0 draws: {head}");
    }

    /// The stream's own promise: walking the ring any number of laps, a
    /// delete always finds its name bound, and every block is 18/1/1.
    #[test]
    fn churn_ring_is_stratified_and_wraps_cleanly() {
        let churn = 64;
        let ring = churn_ring(0x1984, 10_000, churn);
        assert_eq!(ring.len(), churn as usize * CHURN_BLOCK);
        let mut present: HashSet<u32> = churn_preloaded(0x1984, churn).into_iter().collect();
        assert_eq!(present.len(), churn as usize / 2);
        for _lap in 0..3 {
            for block in ring.chunks(CHURN_BLOCK) {
                let adds = block.iter().filter(|o| matches!(o, Add { .. })).count();
                let dels = block.iter().filter(|o| matches!(o, Delete(_))).count();
                assert_eq!((adds, dels), (1, 1));
                for op in block {
                    match *op {
                        Add { i, .. } => {
                            present.insert(i);
                        }
                        Delete(i) => assert!(present.remove(&i), "delete of unbound c{i}"),
                        ReadBase(_) | ReadChurn(_) => {}
                    }
                }
            }
            assert_eq!(present.len(), churn as usize / 2);
        }
    }
}
