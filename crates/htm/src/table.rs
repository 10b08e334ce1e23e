//! The cache-line conflict table.
//!
//! The simulator models the L1-based conflict detection of real HTM: every
//! 64-byte cache line hashes to a [`Line`] entry holding
//!
//! - `readers`: a bitmap of transaction slots with the line in their read
//!   set (hardware analogue: the line is in those cores' caches in shared
//!   state with the transactional-read bit set), and
//! - `writer`: `slot + 1` of the single transaction with the line in its
//!   write set (analogue: modified/exclusive with the transactional-write
//!   bit), `0` if none.
//!
//! Aliasing (two distinct lines hashing to one entry) produces spurious
//! conflicts, exactly as a limited-associativity cache would.

use std::sync::atomic::{AtomicU64, Ordering};
use tle_base::line_of;
use tle_base::sched::{self, YieldPoint};
use tle_base::trace::{self, TraceKind, TxMode};
use tle_base::AbortCause;

/// One conflict-table entry.
#[derive(Debug, Default)]
pub struct Line {
    readers: AtomicU64,
    writer: AtomicU64,
}

impl Line {
    /// Current reader bitmap.
    #[inline]
    pub fn readers(&self) -> u64 {
        self.readers.load(Ordering::SeqCst)
    }

    /// Current writer word (`slot + 1`, `0` = none).
    #[inline]
    pub fn writer(&self) -> u64 {
        self.writer.load(Ordering::SeqCst)
    }

    /// Add `slot` to the reader bitmap.
    #[inline]
    pub fn add_reader(&self, slot: usize) {
        sched::yield_point(YieldPoint::LineMark);
        self.readers.fetch_or(1u64 << slot, Ordering::SeqCst);
    }

    /// Remove `slot` from the reader bitmap.
    #[inline]
    pub fn remove_reader(&self, slot: usize) {
        self.readers.fetch_and(!(1u64 << slot), Ordering::SeqCst);
    }

    /// CAS the writer word.
    #[inline]
    pub fn cas_writer(&self, cur: u64, new: u64) -> bool {
        // Claiming the writer word is the HTM's conflict-visibility edge;
        // clearing it (new == 0) happens on cleanup paths that are already
        // bracketed by state-word hooks.
        if new != 0 {
            sched::yield_point(YieldPoint::LineMark);
        }
        self.writer
            .compare_exchange(cur, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// When a transaction other than `self_slot` currently holds this line
    /// (as reader or writer), so the access about to be marked will contend,
    /// emit a [`TraceKind::Conflict`] event tagged with the table index: traces
    /// show conflicts at the line where the coherence protocol detected them,
    /// before the doom protocol picks a victim. Without the `trace` feature
    /// nothing would record the event, so the two loads are not made.
    #[inline]
    pub fn trace_contention(&self, idx: usize, self_slot: usize) {
        if !trace::compiled() {
            return;
        }
        let w = self.writer();
        let other_readers = self.readers() & !(1u64 << self_slot);
        if (w != 0 && w as usize != self_slot + 1) || other_readers != 0 {
            trace::emit(
                TraceKind::Conflict,
                TxMode::Htm,
                Some(AbortCause::Conflict),
                idx as u64,
            );
        }
    }
}

/// The striped table of per-cache-line `Line` entries.
pub struct LineTable {
    lines: Box<[Line]>,
    mask: usize,
}

impl LineTable {
    /// Default size: 2^14 entries.
    pub const DEFAULT_LOG2: usize = 14;

    /// Create a table with `1 << log2` entries.
    pub fn with_log2(log2: usize) -> Self {
        let n = 1usize << log2;
        LineTable {
            lines: (0..n).map(|_| Line::default()).collect(),
            mask: n - 1,
        }
    }

    /// A table of the default size.
    pub fn new() -> Self {
        Self::with_log2(Self::DEFAULT_LOG2)
    }

    /// Map a byte address to its table index.
    #[inline]
    pub fn index_of(&self, addr: usize) -> usize {
        let l = line_of(addr) as u64;
        let h = l.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 40) as usize & self.mask
    }

    /// Access the entry at `idx`.
    #[inline]
    pub fn line(&self, idx: usize) -> &Line {
        &self.lines[idx]
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether the table is empty (never in practice).
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

impl Default for LineTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_cache_line_maps_to_same_entry() {
        let t = LineTable::new();
        let base = 0x10000usize;
        assert_eq!(t.index_of(base), t.index_of(base + 63));
        // Different lines usually map elsewhere.
        let mut distinct = 0;
        for k in 1..100 {
            if t.index_of(base + 64 * k) != t.index_of(base) {
                distinct += 1;
            }
        }
        assert!(distinct > 95);
    }

    #[test]
    fn reader_bitmap_add_remove() {
        let l = Line::default();
        l.add_reader(3);
        l.add_reader(7);
        assert_eq!(l.readers(), (1 << 3) | (1 << 7));
        l.remove_reader(3);
        assert_eq!(l.readers(), 1 << 7);
        l.remove_reader(7);
        assert_eq!(l.readers(), 0);
    }

    #[test]
    fn writer_cas_protocol() {
        let l = Line::default();
        assert!(l.cas_writer(0, 5 + 1));
        assert_eq!(l.writer(), 6);
        assert!(
            !l.cas_writer(0, 3 + 1),
            "occupied writer must not be stolen blindly"
        );
        assert!(l.cas_writer(6, 0));
        assert_eq!(l.writer(), 0);
    }
}
