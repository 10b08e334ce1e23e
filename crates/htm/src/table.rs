//! The cache-line conflict table.
//!
//! The simulator models the L1-based conflict detection of real HTM: every
//! 64-byte cache line hashes to a [`Line`] entry holding
//!
//! - `readers`: a bitmap of transaction slots with the line in their read
//!   set (hardware analogue: the line is in those cores' caches in shared
//!   state with the transactional-read bit set), and
//! - `writer`: the writer tag of the last attempt that claimed the line
//!   for writing — its slot + 1 in the low byte, the slot's attempt count
//!   above — or `0` if none did since a committed claim was cleared
//!   (analogue: modified/exclusive with the transactional-write bit). A
//!   claim ends with its attempt: a committed attempt clears its words, an
//!   aborted one leaves its tag behind, and `HtmGlobal::tag_live` tells a
//!   running attempt's tag from an ended one's.
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

    /// Current writer word (a writer tag, `0` = none).
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
        // clearing it (new == 0) evicts a doomed writer, after the doom
        // CAS that already decided the conflict.
        if new != 0 {
            sched::yield_point(YieldPoint::LineMark);
        }
        self.writer
            .compare_exchange(cur, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Clear the writer word of a claim nobody else can take any more: its
    /// attempt is past its commit point and has published its redo log. A
    /// release store, not a CAS: it orders the published values before the
    /// clear for whoever reads the word as `0`.
    #[inline]
    pub(crate) fn clear_committed_writer(&self) {
        self.writer.store(0, Ordering::Release);
    }

    /// When a transaction other than `self_slot` currently holds this line
    /// (as reader, or as writer per `contends`, which judges a non-zero
    /// writer word), so the access about to be marked will contend, emit a
    /// [`TraceKind::Conflict`] event tagged with the table index: traces
    /// show conflicts at the line where the coherence protocol detected them,
    /// before the doom protocol picks a victim. Without the `trace` feature
    /// nothing would record the event, so the loads are not made.
    #[inline]
    pub(crate) fn trace_contention(
        &self,
        idx: usize,
        self_slot: usize,
        contends: impl FnOnce(u64) -> bool,
    ) {
        if !trace::compiled() {
            return;
        }
        let w = self.writer();
        let other_readers = self.readers() & !(1u64 << self_slot);
        if (w != 0 && contends(w)) || other_readers != 0 {
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
///
/// Its size is a constant, like [`tle_base::OrecTable`]'s: the mask in
/// [`index_of`](Self::index_of) is an immediate, and no access carries a
/// bounds check or reloads a length.
pub struct LineTable {
    lines: Box<[Line; LineTable::LEN]>,
}

impl LineTable {
    /// Number of entries: 2^14.
    pub const LEN: usize = 1 << 14;

    const MASK: usize = Self::LEN - 1;

    /// A table of [`LEN`](Self::LEN) empty entries.
    pub fn new() -> Self {
        let lines: Box<[Line]> = (0..Self::LEN).map(|_| Line::default()).collect();
        LineTable {
            lines: lines.try_into().expect("collected exactly LEN lines"),
        }
    }

    /// Map a byte address to its table index.
    #[inline]
    pub fn index_of(&self, addr: usize) -> usize {
        let l = line_of(addr) as u64;
        let h = l.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 40) as usize & Self::MASK
    }

    /// Access the entry at `idx`. Release builds mask the index, so no
    /// access carries a bounds check; debug builds still reject an index
    /// out of range, which would otherwise alias another line.
    #[inline]
    pub fn line(&self, idx: usize) -> &Line {
        debug_assert!(idx < Self::LEN, "line index {idx} out of range");
        &self.lines[idx & Self::MASK]
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        Self::LEN
    }

    /// Whether the table is empty (never).
    pub fn is_empty(&self) -> bool {
        false
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
    fn every_index_is_in_range() {
        let t = LineTable::new();
        assert_eq!(t.len(), LineTable::LEN);
        for k in 0..4096usize {
            assert!(t.index_of(0x7f00_0000_0000 + 64 * k) < LineTable::LEN);
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of range")]
    fn an_index_past_the_table_is_rejected_in_debug_builds() {
        LineTable::new().line(LineTable::LEN);
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
