//! The workspace's one FNV-1a (64-bit).
//!
//! Every hash the system compares across processes or runs is this fold:
//! the prefix table's shard/bucket placement and Merkle hashes (two
//! replicas must bucket and hash identically with no negotiation), the
//! virtual-time kernel's event hash, and `vcheck`'s report fingerprints.
//! They share one definition so "bit-identical" has one meaning.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a fold. `const`-friendly, so hashes of fixed
/// strings can be computed at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A fold at the offset basis.
    pub const fn new() -> Self {
        Fnv1a(OFFSET)
    }

    /// Folds `bytes` in, in order.
    pub const fn write(&mut self, bytes: &[u8]) {
        let mut i = 0;
        while i < bytes.len() {
            self.0 = (self.0 ^ bytes[i] as u64).wrapping_mul(PRIME);
            i += 1;
        }
    }

    /// The hash of everything written so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// The FNV-1a hash of `bytes`.
pub const fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(fnv1a(b""), OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_writes_equal_one_write() {
        const WHOLE: u64 = fnv1a(b"[home]notes/todo.txt");
        let mut h = Fnv1a::new();
        h.write(b"[home]");
        h.write(b"");
        h.write(b"notes/todo.txt");
        assert_eq!(h.finish(), WHOLE);
    }
}
