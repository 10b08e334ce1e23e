//! Ownership records (orecs): the striped versioned write-lock table.
//!
//! The table is one dense array of 2^16 words (512 KiB), as libitm's
//! `ml_wt` keeps it; [`OrecTable`] says why no orec is padded to a cache
//! line of its own. Every transactional word hashes to one orec. An orec
//! word is either
//!
//! - **unlocked**: `version << 1` — the commit timestamp of the last writer
//!   of any location covered by this orec, or
//! - **locked**: `(owner << 1) | 1` — exclusively owned by the transaction
//!   whose slot id is `owner` (write-through `ml_wt` acquires eagerly, at
//!   first write).
//!
//! The table is deliberately *global and shared across all elided locks*:
//! this is the "lock erasure" effect the paper discusses in §IV-A — once
//! critical sections become transactions, disjoint lock domains collapse
//! into a single TM metadata domain.

use crate::OrecValue::{Locked, Unlocked};
use std::sync::atomic::{AtomicU64, Ordering};

/// Decoded orec state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrecValue {
    /// Unlocked, with the version (commit timestamp) of the last writer.
    Unlocked(u64),
    /// Locked by the transaction occupying the given slot.
    Locked(usize),
}

impl OrecValue {
    /// Decode a raw orec word.
    #[inline]
    pub fn decode(raw: u64) -> Self {
        if raw & 1 == 1 {
            Locked((raw >> 1) as usize)
        } else {
            Unlocked(raw >> 1)
        }
    }

    /// Encode to the raw word representation.
    #[inline]
    pub fn encode(self) -> u64 {
        match self {
            Unlocked(v) => v << 1,
            Locked(owner) => ((owner as u64) << 1) | 1,
        }
    }
}

/// The global orec table: one dense array of words, as libitm's `ml_wt`
/// keeps it.
///
/// Eight orecs share each 64-byte cache line, and none is padded to a line
/// of its own. Padding would guard against two threads writing
/// *neighbouring* orecs, but [`index_of`](Self::index_of)'s Fibonacci hash
/// already scatters neighbouring data words over the whole table. So two
/// threads' orecs share a line only by chance: with 2^16 orecs in 8 192
/// lines, 1 in 8 192 for a random pair. A padded table would pay 8× the
/// footprint for that (4 MiB against 512 KiB per system, more than a kv
/// store sized to fit L2), and its A/B never read outside 0.96–1.02×
/// (EXPERIMENTS.md §12).
pub struct OrecTable {
    words: Box<[AtomicU64]>,
    mask: usize,
}

impl OrecTable {
    /// Default table size: 2^16 orecs, matching the order of magnitude used
    /// by production word-based STMs.
    pub const DEFAULT_LOG2: usize = 16;

    /// Create a table with `1 << log2` orecs.
    pub fn with_log2(log2: usize) -> Self {
        let n = 1usize << log2;
        OrecTable {
            words: (0..n).map(|_| AtomicU64::new(0)).collect(),
            mask: n - 1,
        }
    }

    /// Create a table of the default size.
    pub fn new() -> Self {
        Self::with_log2(Self::DEFAULT_LOG2)
    }

    /// The atomic word backing orec `idx`.
    #[inline]
    fn word(&self, idx: usize) -> &AtomicU64 {
        &self.words[idx]
    }

    /// Number of orecs in the table.
    #[inline]
    pub fn len(&self) -> usize {
        self.mask + 1
    }

    /// Whether the table is empty (never true in practice).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Map a cell address to its orec index. Word-granularity striping with
    /// a Fibonacci-hash mix so that adjacent fields spread across the table.
    #[inline]
    pub fn index_of(&self, addr: usize) -> usize {
        let w = (addr >> 3) as u64;
        // Fibonacci hashing: multiply by 2^64/phi, take high bits.
        let h = w.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & self.mask
    }

    /// Load the raw orec word at `idx`.
    #[inline]
    pub fn load(&self, idx: usize) -> u64 {
        self.word(idx).load(Ordering::Acquire)
    }

    /// Decode the orec at `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> OrecValue {
        OrecValue::decode(self.load(idx))
    }

    /// Try to acquire the orec at `idx`: CAS from the observed unlocked word
    /// `seen` to locked-by-`owner`. Returns `true` on success.
    #[inline]
    pub fn try_lock(&self, idx: usize, seen: u64, owner: usize) -> bool {
        debug_assert_eq!(seen & 1, 0, "can only lock an unlocked orec");
        self.word(idx)
            .compare_exchange(
                seen,
                Locked(owner).encode(),
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// Release the orec at `idx`, stamping it with `version`. The caller
    /// must own the lock.
    #[inline]
    pub fn release(&self, idx: usize, version: u64) {
        self.word(idx)
            .store(Unlocked(version).encode(), Ordering::Release);
    }
}

impl Default for OrecTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        for v in [0u64, 1, 2, 12345, u64::MAX >> 1] {
            assert_eq!(OrecValue::decode(Unlocked(v).encode()), Unlocked(v));
        }
        for o in [0usize, 1, 63, 1000] {
            assert_eq!(OrecValue::decode(Locked(o).encode()), Locked(o));
        }
    }

    #[test]
    fn fresh_table_is_unlocked_at_version_zero() {
        let t = OrecTable::with_log2(4);
        assert_eq!(t.len(), 16);
        for i in 0..t.len() {
            assert_eq!(t.get(i), Unlocked(0));
        }
    }

    #[test]
    fn lock_release_cycle() {
        let t = OrecTable::with_log2(4);
        let i = t.index_of(0x1000);
        let seen = t.load(i);
        assert!(t.try_lock(i, seen, 7));
        assert_eq!(t.get(i), Locked(7));
        // Second acquire with a stale view must fail.
        assert!(!t.try_lock(i, seen, 8));
        t.release(i, 42);
        assert_eq!(t.get(i), Unlocked(42));
    }

    #[test]
    fn index_is_stable_and_in_range() {
        let t = OrecTable::new();
        for addr in (0..4096usize).map(|k| 0x7f00_0000_0000 + k * 8) {
            let i = t.index_of(addr);
            assert!(i < t.len());
            assert_eq!(i, t.index_of(addr));
        }
    }

    #[test]
    fn default_table_is_dense_words() {
        let t = OrecTable::new();
        assert_eq!(t.len(), 1 << 16);
        let addrs: Vec<usize> = (0..t.len())
            .map(|i| t.word(i) as *const AtomicU64 as usize)
            .collect();
        for pair in addrs.windows(2) {
            assert_eq!(pair[1] - pair[0], 8, "orecs must be adjacent words");
        }
        assert_eq!(addrs[t.len() - 1] + 8 - addrs[0], 512 * 1024);
    }

    #[test]
    fn adjacent_words_spread_over_table() {
        let t = OrecTable::new();
        let mut seen = std::collections::HashSet::new();
        for k in 0..64usize {
            seen.insert(t.index_of(0x5000_0000 + k * 8));
        }
        // With Fibonacci hashing, 64 adjacent words should hit many stripes.
        assert!(seen.len() > 32, "only {} distinct stripes", seen.len());
    }
}
