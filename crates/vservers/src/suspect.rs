//! TTL-ordered suspicion index for the prefix server.
//!
//! PR 4 swept suspicions with a full `retain` over the map on *every*
//! receive-loop iteration — O(armed suspicions) per message, the same
//! per-message table-scan class the epoch-keyed tombstone index removed
//! from GC. This index keeps the expiry order explicitly (the PR 9
//! pattern: a `BTreeMap` keyed by deadline), so a sweep pops only the
//! entries that actually expired: O(expired), zero when nothing did.

use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Armed suspicions, indexed both by name and by expiry time.
#[derive(Debug, Default)]
pub(crate) struct SuspectSet {
    /// Name → the ns deadline its suspicion expires at.
    until: HashMap<Vec<u8>, u64>,
    /// Deadline → the names expiring then. Slots are pruned when their
    /// last member leaves, so `expire` walks exactly the doomed range.
    by_expiry: BTreeMap<u64, BTreeSet<Vec<u8>>>,
}

impl SuspectSet {
    /// Arms (or re-arms) a suspicion on `name` until `until_ns`.
    pub fn arm(&mut self, name: Vec<u8>, until_ns: u64) {
        if let Some(old) = self.until.insert(name.clone(), until_ns) {
            Self::unindex(&mut self.by_expiry, old, &name);
        }
        self.by_expiry.entry(until_ns).or_default().insert(name);
    }

    /// Disarms any suspicion on `name` (the path was proven healthy).
    pub fn disarm(&mut self, name: &[u8]) {
        if let Some(old) = self.until.remove(name) {
            Self::unindex(&mut self.by_expiry, old, name);
        }
    }

    /// `true` if a suspicion on `name` is armed and unexpired at `now_ns`.
    pub fn is_armed(&self, name: &[u8], now_ns: u64) -> bool {
        self.until.get(name).is_some_and(|&until| now_ns < until)
    }

    /// Drops every suspicion whose deadline is at or before `now_ns`,
    /// returning how many expired. Cost tracks the expired count, not the
    /// armed count — the receive loop calls this on every message.
    pub fn expire(&mut self, now_ns: u64) -> u32 {
        let mut expired = 0u32;
        while let Some((&deadline, _)) = self.by_expiry.first_key_value() {
            if deadline > now_ns {
                break;
            }
            let names = self.by_expiry.remove(&deadline).unwrap_or_default();
            for name in names {
                self.until.remove(&name);
                expired += 1;
            }
        }
        expired
    }

    /// The number of armed suspicions.
    pub fn len(&self) -> usize {
        self.until.len()
    }

    /// `true` while no suspicion is armed.
    pub fn is_empty(&self) -> bool {
        self.until.is_empty()
    }

    /// Drops every armed suspicion — a successful authority round vouches
    /// for the whole table at once.
    pub fn clear(&mut self) {
        self.until.clear();
        self.by_expiry.clear();
    }

    fn unindex(by_expiry: &mut BTreeMap<u64, BTreeSet<Vec<u8>>>, deadline: u64, name: &[u8]) {
        if let Some(set) = by_expiry.get_mut(&deadline) {
            set.remove(name);
            if set.is_empty() {
                by_expiry.remove(&deadline);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expire_drops_exactly_the_due_entries() {
        let mut s = SuspectSet::default();
        s.arm(b"a".to_vec(), 100);
        s.arm(b"b".to_vec(), 200);
        s.arm(b"c".to_vec(), 200);
        assert_eq!(s.expire(99), 0);
        assert!(s.is_armed(b"a", 99));
        assert_eq!(s.expire(100), 1);
        assert!(!s.is_armed(b"a", 99));
        assert_eq!(s.expire(250), 2);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn rearm_moves_the_deadline() {
        let mut s = SuspectSet::default();
        s.arm(b"x".to_vec(), 100);
        s.arm(b"x".to_vec(), 300);
        assert_eq!(s.expire(200), 0, "old slot must not fire after re-arm");
        assert!(s.is_armed(b"x", 250));
        assert_eq!(s.expire(300), 1);
    }

    #[test]
    fn disarm_clears_both_indexes() {
        let mut s = SuspectSet::default();
        s.arm(b"x".to_vec(), 100);
        s.disarm(b"x");
        assert_eq!(s.len(), 0);
        assert_eq!(s.expire(1000), 0);
    }

    /// Coherence against the PR-4 full scan: drive both the index and a
    /// naive `retain`-swept map through the same pseudo-random schedule of
    /// arms, disarms and sweeps; they must agree on membership and on the
    /// expired count at every step.
    #[test]
    fn coherent_with_full_scan_model() {
        let mut s = SuspectSet::default();
        let mut model: HashMap<Vec<u8>, u64> = HashMap::new();
        let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
        let step = |r: &mut u64| {
            *r = r
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*r >> 33) as u32
        };
        let mut now = 0u64;
        for _ in 0..4000 {
            let roll = step(&mut rng) % 100;
            let name = format!("p{}", step(&mut rng) % 24).into_bytes();
            if roll < 45 {
                let until = now + 1 + u64::from(step(&mut rng) % 50);
                s.arm(name.clone(), until);
                model.insert(name, until);
            } else if roll < 60 {
                s.disarm(&name);
                model.remove(&name);
            } else {
                now += u64::from(step(&mut rng) % 30);
                let before = model.len();
                model.retain(|_, &mut until| until > now);
                let model_expired = (before - model.len()) as u32;
                assert_eq!(s.expire(now), model_expired, "expired count at {now}");
            }
            assert_eq!(s.len(), model.len(), "membership size at {now}");
            for (n, &until) in &model {
                assert_eq!(s.is_armed(n, now), now < until, "{n:?} at {now}");
            }
        }
    }
}
