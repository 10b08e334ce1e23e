//! Ownership records (orecs): the striped versioned write-lock table.
//!
//! Every transactional word hashes to one orec. An orec word is either
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
use crate::Padded;
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

/// Physical layout of the orec array.
///
/// Eight packed `AtomicU64` orecs share one 64-byte cache line, so two
/// threads CASing *adjacent* stripes ping-pong the line even though their
/// data is disjoint — classic false sharing, and measurable on the
/// fig5 microbenchmarks. The padded layout gives every orec its own line
/// at 8x the footprint (4 MiB vs 512 KiB at the default size). Padded is
/// the default; the compact layout is kept because the A/B is unsettled
/// (`tle-bench emit`'s `optimizations.orec-padding` read 0.96–1.02× on a
/// 2-core host; ROADMAP item 2(a) owns the decision).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrecLayout {
    /// One orec per cache line (no false sharing between stripes).
    #[default]
    Padded,
    /// Eight orecs per cache line (the pre-padding layout, for A/B runs).
    Compact,
}

impl OrecLayout {
    /// Stable label used by the bench JSON emitter.
    pub fn label(self) -> &'static str {
        match self {
            OrecLayout::Padded => "padded",
            OrecLayout::Compact => "compact",
        }
    }
}

enum Stripes {
    Padded(Box<[Padded<AtomicU64>]>),
    Compact(Box<[AtomicU64]>),
}

/// The global orec table.
pub struct OrecTable {
    stripes: Stripes,
    mask: usize,
}

impl OrecTable {
    /// Default table size: 2^16 orecs, matching the order of magnitude used
    /// by production word-based STMs.
    pub const DEFAULT_LOG2: usize = 16;

    /// Create a table with `1 << log2` orecs in the given layout.
    pub fn with_layout(log2: usize, layout: OrecLayout) -> Self {
        let n = 1usize << log2;
        let stripes = match layout {
            OrecLayout::Padded => Stripes::Padded(
                (0..n)
                    .map(|_| Padded(AtomicU64::new(0)))
                    .collect::<Vec<_>>()
                    .into_boxed_slice(),
            ),
            OrecLayout::Compact => Stripes::Compact(
                (0..n)
                    .map(|_| AtomicU64::new(0))
                    .collect::<Vec<_>>()
                    .into_boxed_slice(),
            ),
        };
        OrecTable {
            stripes,
            mask: n - 1,
        }
    }

    /// Create a table with `1 << log2` orecs (padded layout).
    pub fn with_log2(log2: usize) -> Self {
        Self::with_layout(log2, OrecLayout::default())
    }

    /// Create a table of the default size and layout.
    pub fn new() -> Self {
        Self::with_log2(Self::DEFAULT_LOG2)
    }

    /// The physical layout of this table.
    pub fn layout(&self) -> OrecLayout {
        match self.stripes {
            Stripes::Padded(_) => OrecLayout::Padded,
            Stripes::Compact(_) => OrecLayout::Compact,
        }
    }

    /// The atomic word backing orec `idx`. The enum branch is perfectly
    /// predicted (one table, one layout for its whole life), so this costs
    /// nothing measurable on the hot paths below.
    #[inline]
    fn word(&self, idx: usize) -> &AtomicU64 {
        match &self.stripes {
            Stripes::Padded(s) => &s[idx],
            Stripes::Compact(s) => &s[idx],
        }
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
    fn padded_layout_puts_each_orec_on_its_own_cache_line() {
        let t = OrecTable::with_layout(4, OrecLayout::Padded);
        assert_eq!(t.layout(), OrecLayout::Padded);
        let addrs: Vec<usize> = (0..t.len())
            .map(|i| t.word(i) as *const AtomicU64 as usize)
            .collect();
        for pair in addrs.windows(2) {
            let stride = pair[1] - pair[0];
            assert!(
                stride >= crate::CACHE_LINE,
                "padded stripes only {stride} bytes apart"
            );
        }
        assert_eq!(addrs[0] % crate::CACHE_LINE, 0, "first stripe unaligned");
    }

    #[test]
    fn compact_layout_packs_orecs_densely() {
        let t = OrecTable::with_layout(4, OrecLayout::Compact);
        assert_eq!(t.layout(), OrecLayout::Compact);
        let a0 = t.word(0) as *const AtomicU64 as usize;
        let a1 = t.word(1) as *const AtomicU64 as usize;
        assert_eq!(a1 - a0, 8, "compact stripes should be adjacent words");
    }

    #[test]
    fn default_layout_is_padded_and_both_layouts_behave_identically() {
        assert_eq!(OrecTable::new().layout(), OrecLayout::Padded);
        assert_eq!(OrecLayout::default().label(), "padded");
        for layout in [OrecLayout::Padded, OrecLayout::Compact] {
            let t = OrecTable::with_layout(4, layout);
            let i = t.index_of(0x2000);
            let seen = t.load(i);
            assert!(t.try_lock(i, seen, 3));
            assert_eq!(t.get(i), Locked(3));
            t.release(i, 9);
            assert_eq!(t.get(i), Unlocked(9));
        }
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
