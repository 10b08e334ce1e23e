//! Reusable transaction-set buffers: an inline small-buffer tier plus a
//! thread-local lease pool.
//!
//! Profiling the fig5 microbenchmarks showed two allocation pathologies on
//! the transaction hot path:
//!
//! 1. **Retry churn**: every attempt allocated fresh read/undo/lock vectors
//!    (STM) or redo-log and line-set vectors (simulated HTM), so a
//!    transaction that aborts `k` times pays `3(k+1)` heap round-trips
//!    before it commits. The paper's high-contention figures retry
//!    constantly — exactly where the allocator traffic hurts most.
//! 2. **Tiny sets on the heap at all**: the common critical section touches
//!    a handful of words; even the *first* attempt's vectors are pure
//!    overhead.
//!
//! [`SmallSet`] fixes (2) with an inline array tier that spills to a `Vec`
//! only past `N` entries, and the [`lease`]/[`BufLease`] pool fixes (1) by
//! handing each attempt the previous attempt's (cleared, capacity-intact)
//! buffers. One pooled [`TxBufs`] block serves every transaction flavour
//! (`ml_wt`, NOrec and the simulated HTM), so switching algorithms
//! mid-bench reuses the same storage — which is why the pool lives down
//! here, below both TM crates.
//!
//! The pool keeps at most one buffer block per thread (the steady state is
//! one live transaction per thread; a same-thread *nested/interleaved*
//! second transaction — the model-checking harness does this — simply takes
//! a fresh block). [`buf_alloc_stats`] exposes fresh-allocation and spill
//! counts: a handful per run, not per op, is the healthy reading the repo
//! benchmark's `stm.buf.*` rows watch.

use crate::stats::Counter;
use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::AtomicU64;

/// Inline capacity of the read-set tiers (entries before heap spill).
/// Sized from the fig5 microbenchmarks: list traversals log tens of reads,
/// hash/tree operations single digits.
pub const INLINE_READS: usize = 64;

/// Inline capacity of the write-side tiers (undo log, lock set, redo log).
/// Write sets are much smaller than read sets in every paper workload.
pub const INLINE_WRITES: usize = 16;

/// A LIFO set with `N` inline slots and a heap spill tier.
///
/// `push`/`pop` are stack-ordered across the spill boundary (the spill tier
/// pops first), which is exactly the reverse-of-insertion order the undo
/// log needs. `clear` keeps the spill `Vec`'s capacity, so a reused buffer
/// never re-grows for a same-shaped retry.
pub struct SmallSet<T: Copy, const N: usize> {
    inline: [T; N],
    /// Number of occupied inline slots (`<= N`).
    len: usize,
    spill: Vec<T>,
}

impl<T: Copy, const N: usize> SmallSet<T, N> {
    /// An empty set. `fill` initialises the (logically vacant) inline slots;
    /// it is never observable through the public API.
    pub fn with_fill(fill: T) -> Self {
        SmallSet {
            inline: [fill; N],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// Append an entry (inline until `N`, then heap).
    #[inline]
    pub fn push(&mut self, v: T) {
        if self.len < N {
            self.inline[self.len] = v;
            self.len += 1;
        } else {
            self.spill.push(v);
        }
    }

    /// Remove and return the most recently pushed entry.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        if let Some(v) = self.spill.pop() {
            Some(v)
        } else if self.len > 0 {
            self.len -= 1;
            Some(self.inline[self.len])
        } else {
            None
        }
    }

    /// Iterate in insertion order. (Concrete return type so the borrow
    /// checker can see the iterator has no destructor.)
    #[inline]
    pub fn iter(&self) -> std::iter::Chain<std::slice::Iter<'_, T>, std::slice::Iter<'_, T>> {
        self.inline[..self.len].iter().chain(self.spill.iter())
    }

    /// Iterate mutably in insertion order.
    #[inline]
    pub fn iter_mut(
        &mut self,
    ) -> std::iter::Chain<std::slice::IterMut<'_, T>, std::slice::IterMut<'_, T>> {
        self.inline[..self.len]
            .iter_mut()
            .chain(self.spill.iter_mut())
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len + self.spill.len()
    }

    /// Whether the set holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0 && self.spill.is_empty()
    }

    /// Drop all entries, keeping the spill tier's capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }

    /// Whether any entry currently lives in the heap spill tier.
    #[inline]
    pub fn spilled(&self) -> bool {
        !self.spill.is_empty()
    }

    /// Heap capacity retained by the spill tier (test introspection).
    #[inline]
    pub fn spill_capacity(&self) -> usize {
        self.spill.capacity()
    }
}

/// The full per-transaction buffer block, pooled per thread.
///
/// `ml_wt` uses `reads`/`undo`/`locks`; NOrec uses `nreads`/`nwrites`; the
/// simulated HTM uses `redo`/`read_lines`/`write_lines`. The block is boxed
/// so a lease moves a pointer, not ~3 KiB of arrays.
///
/// The HTM's three are plain `Vec`s: every transactional access scans them
/// (is this line marked? is this address buffered?), and a one-tier slice
/// scan is what keeps that per-access path short. Pooled, they allocate
/// once per thread like the inline tiers do — `clear` keeps their capacity.
pub struct TxBufs {
    /// `ml_wt`: (orec index, orec word observed at read time).
    pub reads: SmallSet<(u32, u64), INLINE_READS>,
    /// `ml_wt`: (cell pointer, old word), rolled back in reverse order.
    pub undo: SmallSet<(*const AtomicU64, u64), INLINE_WRITES>,
    /// `ml_wt`: (orec index, orec word immediately before we locked it).
    pub locks: SmallSet<(u32, u64), INLINE_WRITES>,
    /// NOrec value log: (cell pointer, observed value).
    pub nreads: SmallSet<(*const AtomicU64, u64), INLINE_READS>,
    /// NOrec redo log: (cell pointer, address, value).
    pub nwrites: SmallSet<(*const AtomicU64, usize, u64), INLINE_WRITES>,
    /// HTM redo log: (cell pointer, address, value), applied in order at
    /// commit. Looked up by linear scan: hardware write sets are tiny, so
    /// this beats any hash table.
    pub redo: Vec<(*const AtomicU64, usize, u64)>,
    /// HTM: distinct conflict-table entries read (cleanup + capacity), also
    /// scanned linearly.
    pub read_lines: Vec<u32>,
    /// HTM: distinct conflict-table entries written.
    pub write_lines: Vec<u32>,
}

impl TxBufs {
    fn new() -> Self {
        TxBufs {
            reads: SmallSet::with_fill((0, 0)),
            undo: SmallSet::with_fill((std::ptr::null(), 0)),
            locks: SmallSet::with_fill((0, 0)),
            nreads: SmallSet::with_fill((std::ptr::null(), 0)),
            nwrites: SmallSet::with_fill((std::ptr::null(), 0, 0)),
            redo: Vec::with_capacity(8),
            read_lines: Vec::with_capacity(16),
            write_lines: Vec::with_capacity(8),
        }
    }

    fn any_spilled(&self) -> bool {
        self.reads.spilled()
            || self.undo.spilled()
            || self.locks.spilled()
            || self.nreads.spilled()
            || self.nwrites.spilled()
    }

    fn clear(&mut self) {
        self.reads.clear();
        self.undo.clear();
        self.locks.clear();
        self.nreads.clear();
        self.nwrites.clear();
        self.redo.clear();
        self.read_lines.clear();
        self.write_lines.clear();
    }
}

thread_local! {
    /// The per-thread one-slot buffer pool.
    static POOL: Cell<Option<Box<TxBufs>>> = const { Cell::new(None) };
}

static FRESH_ALLOCS: Counter = Counter::new();
static SPILLS: Counter = Counter::new();

/// Allocation counters for the transaction-set pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufAllocStats {
    /// Buffer blocks allocated fresh from the heap.
    pub fresh_allocs: u64,
    /// Leases returned with at least one set spilled past its inline tier.
    pub spills: u64,
}

/// Snapshot the pool's allocation counters.
pub fn buf_alloc_stats() -> BufAllocStats {
    BufAllocStats {
        fresh_allocs: FRESH_ALLOCS.get(),
        spills: SPILLS.get(),
    }
}

/// Reset the pool's allocation counters (between benchmark trials).
pub fn reset_buf_alloc_stats() {
    FRESH_ALLOCS.reset();
    SPILLS.reset();
}

/// Drop the calling thread's parked buffer block, if any.
///
/// Same-seed reproducibility runs (the torture harness) call this before
/// each run: a block parked by a *previous* run would satisfy the first
/// lease without touching the allocator, shifting every later heap
/// allocation — and with address-hashed orec striping, a shifted heap is a
/// different conflict pattern, so "same seed, same trace" would no longer
/// hold. Draining restores the empty-pool starting state. Counters are
/// unaffected.
pub fn drain_buf_pool() {
    POOL.with(|p| drop(p.take()));
}

/// A leased buffer block. Derefs to [`TxBufs`]; on drop the block is
/// cleared (capacity kept) and returned to this thread's pool.
pub struct BufLease {
    bufs: Option<Box<TxBufs>>,
    shard: usize,
}

/// Lease a buffer block for one transaction attempt on `shard`'s thread:
/// the block this thread parked last, else a fresh one.
#[inline]
pub fn lease(shard: usize) -> BufLease {
    let bufs = POOL
        .with(|p| p.take())
        .unwrap_or_else(|| fresh_block(shard));
    BufLease {
        bufs: Some(bufs),
        shard,
    }
}

#[cold]
fn fresh_block(shard: usize) -> Box<TxBufs> {
    FRESH_ALLOCS.inc(shard);
    Box::new(TxBufs::new())
}

impl Deref for BufLease {
    type Target = TxBufs;
    #[inline]
    fn deref(&self) -> &TxBufs {
        self.bufs.as_ref().expect("lease outlived its buffers")
    }
}

impl DerefMut for BufLease {
    #[inline]
    fn deref_mut(&mut self) -> &mut TxBufs {
        self.bufs.as_mut().expect("lease outlived its buffers")
    }
}

impl Drop for BufLease {
    fn drop(&mut self) {
        if let Some(mut b) = self.bufs.take() {
            if b.any_spilled() {
                SPILLS.inc(self.shard);
            }
            b.clear();
            // A same-thread interleaved transaction may have parked a
            // block already; keep the most recently used one.
            POOL.with(|p| p.set(Some(b)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_is_lifo_across_the_spill_boundary() {
        let mut s: SmallSet<(u32, u64), 4> = SmallSet::with_fill((0, 0));
        for i in 0..10u32 {
            s.push((i, u64::from(i) * 10));
        }
        assert_eq!(s.len(), 10);
        assert!(s.spilled(), "10 entries must spill past 4 inline slots");
        let drained: Vec<u32> = std::iter::from_fn(|| s.pop()).map(|(i, _)| i).collect();
        assert_eq!(drained, (0..10u32).rev().collect::<Vec<_>>());
        assert!(s.is_empty());
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn iter_is_insertion_ordered_and_iter_mut_writes_through() {
        let mut s: SmallSet<(u32, u64), 2> = SmallSet::with_fill((0, 0));
        for i in 0..5u32 {
            s.push((i, 0));
        }
        let seen: Vec<u32> = s.iter().map(|&(i, _)| i).collect();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        for e in s.iter_mut() {
            e.1 = u64::from(e.0) + 100;
        }
        assert!(s.iter().all(|&(i, v)| v == u64::from(i) + 100));
    }

    #[test]
    fn clear_keeps_spill_capacity() {
        let mut s: SmallSet<(u32, u64), 2> = SmallSet::with_fill((0, 0));
        for i in 0..50u32 {
            s.push((i, 0));
        }
        let cap = s.spill_capacity();
        assert!(cap >= 48);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.spilled());
        assert_eq!(s.spill_capacity(), cap, "clear must not shrink capacity");
    }

    #[test]
    fn lease_returns_capacity_to_the_pool_across_a_retry_cycle() {
        // Simulates abort-retry: attempt 1 spills, "aborts" (lease drops),
        // attempt 2 must get the same block back, capacity intact.
        let cap = {
            let mut l = lease(0);
            for i in 0..(INLINE_READS + 40) as u32 {
                l.reads.push((i, 0));
            }
            assert!(l.reads.spilled());
            l.reads.spill_capacity()
        };
        assert!(cap >= 40);
        let l = lease(0);
        assert!(l.reads.is_empty(), "reused block must arrive cleared");
        assert!(
            l.reads.spill_capacity() >= cap,
            "spill capacity must survive the retry cycle ({} < {cap})",
            l.reads.spill_capacity()
        );
    }

    #[test]
    fn interleaved_same_thread_leases_get_distinct_blocks() {
        let a = lease(0);
        let b = lease(0);
        let pa = &*a as *const TxBufs;
        let pb = &*b as *const TxBufs;
        assert_ne!(pa, pb, "overlapping leases must never alias");
    }
}
