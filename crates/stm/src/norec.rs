//! NOrec: the no-ownership-record STM (Dalessandro, Spear, Scott — PPoPP
//! 2010; the third author is an author of the paper we reproduce).
//!
//! Where `ml_wt` detects conflicts through a striped orec table, NOrec uses
//! **one global sequence lock** and **value-based validation**:
//!
//! - a transaction snapshots the (even) sequence number at begin;
//! - reads log `(location, value)` pairs; whenever the global sequence has
//!   moved, the transaction re-reads every logged location and aborts only
//!   if a *value* actually changed (so write-write-same and silent updates
//!   do not abort readers);
//! - writes buffer in a redo log (lazy versioning);
//! - commit acquires the sequence lock (odd), publishes the redo log, and
//!   releases it (next even value) — writer commits are fully serialized.
//!
//! NOrec is **privatization-safe by construction**: writes only happen
//! under the global commit lock and doomed transactions never write to
//! shared memory, so the paper's quiescence machinery (and `TM_NoQuiesce`)
//! has nothing to do here. That contrast is exactly why it makes a good
//! ablation against `ml_wt` (`ablate_stm_algo` bench): the drain the paper
//! optimizes is an artifact of *in-place* STMs.

use crate::tx::CommitInfo;
use crate::StmGlobal;
use std::sync::atomic::{AtomicU64, Ordering};
use tle_base::fault::{self, Hazard};
use tle_base::sched::{self, YieldPoint};
use tle_base::sets::{self, BufLease};
use tle_base::stats::Stat;
use tle_base::trace::{self, TraceKind, TxMode};
use tle_base::{AbortCause, TCell, TxVal};

/// A single NOrec transaction attempt.
pub struct NorecTx<'g> {
    g: &'g StmGlobal,
    slot_idx: usize,
    /// Even sequence value this transaction is consistent with.
    snapshot: u64,
    /// Pooled value log (`nreads`: cell, observed value) and redo log
    /// (`nwrites`: cell, address, value; linear-scanned — small sets). The
    /// same per-thread block `ml_wt` uses, leased for this attempt.
    bufs: BufLease,
    finished: bool,
}

impl<'g> NorecTx<'g> {
    pub(crate) fn begin(g: &'g StmGlobal, slot_idx: usize) -> Self {
        sched::yield_point(YieldPoint::SeqLock);
        let snapshot = wait_even(&g.norec_seq);
        // Publish for the (ml_wt-oriented) drain scans; harmless here.
        g.slots.publish_raw(slot_idx, snapshot);
        trace::emit(TraceKind::Begin, TxMode::Norec, None, snapshot);
        NorecTx {
            g,
            slot_idx,
            snapshot,
            bufs: sets::lease(slot_idx),
            finished: false,
        }
    }

    /// The slot (thread) identity running this transaction.
    #[inline]
    pub fn slot(&self) -> usize {
        self.slot_idx
    }

    /// Whether this attempt has buffered any writes.
    #[inline]
    pub fn is_writer(&self) -> bool {
        !self.bufs.nwrites.is_empty()
    }

    /// Transactionally read a cell.
    pub fn read<T: TxVal>(&mut self, cell: &TCell<T>) -> Result<T, AbortCause> {
        sched::yield_point(YieldPoint::SeqLock);
        let addr = cell.addr();
        if let Some(&(_, _, w)) = self.bufs.nwrites.iter().find(|&&(_, a, _)| a == addr) {
            trace::emit_access(TraceKind::Read, TxMode::Norec, addr as u64, w);
            return Ok(T::from_word(w));
        }
        loop {
            let v = cell.word().load(Ordering::Acquire);
            if self.g.norec_seq.load(Ordering::Acquire) == self.snapshot {
                self.bufs.nreads.push((cell.word() as *const AtomicU64, v));
                trace::emit_access(TraceKind::Read, TxMode::Norec, addr as u64, v);
                return Ok(T::from_word(v));
            }
            // The world moved: value-validate and adopt the newer snapshot,
            // then retry the read against it.
            self.revalidate()?;
        }
    }

    /// Transactionally write a cell (buffered until commit).
    pub fn write<T: TxVal>(&mut self, cell: &TCell<T>, v: T) -> Result<(), AbortCause> {
        let addr = cell.addr();
        let word = v.to_word();
        if let Some(entry) = self.bufs.nwrites.iter_mut().find(|e| e.1 == addr) {
            entry.2 = word;
        } else {
            self.bufs
                .nwrites
                .push((cell.word() as *const AtomicU64, addr, word));
        }
        trace::emit_access(TraceKind::Write, TxMode::Norec, addr as u64, word);
        Ok(())
    }

    /// Read-modify-write convenience.
    pub fn update<T: TxVal>(
        &mut self,
        cell: &TCell<T>,
        f: impl FnOnce(T) -> T,
    ) -> Result<T, AbortCause> {
        let old = self.read(cell)?;
        let new = f(old);
        self.write(cell, new)?;
        Ok(new)
    }

    /// Value-based validation: every logged read must still observe its
    /// logged value at a stable (even, unchanged) sequence point.
    fn revalidate(&mut self) -> Result<(), AbortCause> {
        sched::yield_point(YieldPoint::Validate);
        // Fault oracle: widen the value-validation window so a writer can
        // commit mid-scan; the trailing sequence re-check must then loop.
        let stalled = fault::maybe_stall(Hazard::ValidationDelay);
        if stalled > 0 {
            trace::emit(
                TraceKind::FaultInject,
                TxMode::Norec,
                None,
                Hazard::ValidationDelay.index() as u64,
            );
        }
        loop {
            let s = wait_even(&self.g.norec_seq);
            let consistent = self
                .bufs
                .nreads
                .iter()
                // SAFETY: cells outlive the transaction (documented
                // invariant shared with `StmTx`).
                .all(|&(c, v)| unsafe { (*c).load(Ordering::Acquire) } == v);
            if !consistent {
                trace::emit(
                    TraceKind::Conflict,
                    TxMode::Norec,
                    Some(AbortCause::ValidationFailed),
                    s,
                );
                return Err(AbortCause::ValidationFailed);
            }
            if self.g.norec_seq.load(Ordering::Acquire) == s {
                self.snapshot = s;
                self.g.slots.publish_raw(self.slot_idx, s);
                trace::emit(TraceKind::Extend, TxMode::Norec, None, s);
                return Ok(());
            }
        }
    }

    /// Attempt to commit.
    pub fn commit(mut self) -> Result<CommitInfo, AbortCause> {
        debug_assert!(!self.finished);
        let shard = self.slot_idx;
        if self.bufs.nwrites.is_empty() {
            self.finished = true;
            trace::emit(TraceKind::Commit, TxMode::Norec, None, self.snapshot);
            self.g.slots.publish_raw(self.slot_idx, tle_base::INACTIVE);
            self.g.stats.bump_owned(shard, Stat::Commits);
            return Ok(CommitInfo {
                end_time: self.snapshot,
                quiesced: false,
                quiesce_wait_ns: 0,
            });
        }
        // Acquire the sequence lock at our snapshot; on contention,
        // value-validate against the newer state and retry.
        sched::yield_point(YieldPoint::SeqLock);
        loop {
            match self.g.norec_seq.compare_exchange(
                self.snapshot,
                self.snapshot + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(_) => {
                    if self.revalidate().is_err() {
                        // Commit-time abort: the race for the sequence lock
                        // was lost AND the winner changed a value we read.
                        let cause = AbortCause::CommitValidation;
                        self.finished = true;
                        self.g.stats.count_abort(shard, cause);
                        self.g.slots.publish_raw(self.slot_idx, tle_base::INACTIVE);
                        trace::emit(TraceKind::Abort, TxMode::Norec, Some(cause), self.snapshot);
                        return Err(cause);
                    }
                }
            }
        }
        // Commit event emitted while the sequence lock is still held (odd):
        // no reader emits a value we publish below until the lock goes
        // even, so the stamp order of `Commit`s serializes NOrec writers.
        // (`end` is not bound here: hoisting its load above the write-back
        // changes this function's release code even with the hook off.)
        trace::emit(TraceKind::Commit, TxMode::Norec, None, self.snapshot + 2);
        sched::yield_point(YieldPoint::MemStore);
        for &(c, _, v) in self.bufs.nwrites.iter() {
            // SAFETY: cells outlive the transaction.
            unsafe { (*c).store(v, Ordering::Release) };
        }
        let end = self.snapshot + 2;
        self.g.norec_seq.store(end, Ordering::Release);
        self.finished = true;
        self.g.slots.publish_raw(self.slot_idx, tle_base::INACTIVE);
        self.g.stats.bump_owned(shard, Stat::Commits);
        Ok(CommitInfo {
            end_time: end,
            quiesced: false,
            quiesce_wait_ns: 0,
        })
    }

    /// Abort this attempt (nothing to roll back — lazy versioning).
    pub fn abort(mut self, cause: AbortCause) {
        self.finished = true;
        self.g.stats.count_abort(self.slot_idx, cause);
        self.g.slots.publish_raw(self.slot_idx, tle_base::INACTIVE);
        trace::emit(TraceKind::Abort, TxMode::Norec, Some(cause), self.snapshot);
    }
}

impl NorecTx<'_> {
    /// Withdraw a begun attempt without counting it (see
    /// [`StmTx::retire`](crate::StmTx::retire)); lazy versioning leaves
    /// nothing to roll back.
    pub fn retire(mut self) {
        self.finished = true;
        self.g.slots.publish_raw(self.slot_idx, tle_base::INACTIVE);
    }
}

impl Drop for NorecTx<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.g
                .stats
                .count_abort(self.slot_idx, AbortCause::Explicit);
            self.g.slots.publish_raw(self.slot_idx, tle_base::INACTIVE);
            trace::emit(
                TraceKind::Abort,
                TxMode::Norec,
                Some(AbortCause::Explicit),
                self.snapshot,
            );
        }
    }
}

/// Spin (then yield) until the sequence lock is even; returns that value.
fn wait_even(seq: &AtomicU64) -> u64 {
    let mut spins = 0u32;
    loop {
        let s = seq.load(Ordering::Acquire);
        if s & 1 == 0 {
            return s;
        }
        spins += 1;
        sched::spin_hint(YieldPoint::SeqLock);
        if spins < 32 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QuiescePolicy, StmAlgo, StmGlobal};
    use std::sync::Arc;

    fn norec_global() -> StmGlobal {
        let g = StmGlobal::new(QuiescePolicy::Always);
        g.set_algo(StmAlgo::Norec);
        g
    }

    #[test]
    fn read_write_commit() {
        let g = norec_global();
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(1u64);
        let mut tx = NorecTx::begin(&g, slot);
        let v = tx.read(&a).unwrap();
        tx.write(&a, v + 10).unwrap();
        // Lazy versioning: nothing visible before commit.
        assert_eq!(a.load_direct(), 1);
        tx.commit().unwrap();
        assert_eq!(a.load_direct(), 11);
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn read_own_write() {
        let g = norec_global();
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(1u64);
        let mut tx = NorecTx::begin(&g, slot);
        tx.write(&a, 7u64).unwrap();
        assert_eq!(tx.read(&a).unwrap(), 7);
        tx.commit().unwrap();
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn abort_discards_buffered_writes() {
        let g = norec_global();
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(3u64);
        let mut tx = NorecTx::begin(&g, slot);
        tx.write(&a, 9u64).unwrap();
        tx.abort(AbortCause::Explicit);
        assert_eq!(a.load_direct(), 3);
        assert_eq!(g.stats.get(Stat::Aborts), 1);
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn stale_reader_fails_value_validation() {
        let g = norec_global();
        let s1 = g.slots.register_raw().unwrap();
        let s2 = g.slots.register_raw().unwrap();
        let a = TCell::new(0u64);
        let b = TCell::new(0u64);

        let mut t1 = NorecTx::begin(&g, s1);
        assert_eq!(t1.read(&a).unwrap(), 0);

        let mut t2 = NorecTx::begin(&g, s2);
        t2.write(&a, 5u64).unwrap();
        t2.commit().unwrap();

        // t1's next read sees the sequence moved; a's value changed -> abort.
        let r = t1.read(&b);
        assert_eq!(r, Err(AbortCause::ValidationFailed));
        t1.abort(AbortCause::ValidationFailed);
        g.slots.unregister_raw(s1);
        g.slots.unregister_raw(s2);
    }

    #[test]
    fn value_validation_tolerates_silent_restores() {
        // NOrec's signature behaviour: a concurrent commit that does not
        // change the values we read must NOT abort us (ml_wt would).
        let g = norec_global();
        let s1 = g.slots.register_raw().unwrap();
        let s2 = g.slots.register_raw().unwrap();
        let a = TCell::new(0u64);
        let b = TCell::new(0u64);

        let mut t1 = NorecTx::begin(&g, s1);
        assert_eq!(t1.read(&a).unwrap(), 0);

        // t2 writes *b* (a is untouched).
        let mut t2 = NorecTx::begin(&g, s2);
        t2.write(&b, 9u64).unwrap();
        t2.commit().unwrap();

        // t1 continues fine: value of `a` is unchanged.
        assert_eq!(t1.read(&b).unwrap(), 9);
        let mut t1 = t1;
        t1.write(&a, 1u64).unwrap();
        t1.commit().unwrap();
        assert_eq!(a.load_direct(), 1);
        g.slots.unregister_raw(s1);
        g.slots.unregister_raw(s2);
    }

    #[test]
    fn concurrent_counter_is_exact() {
        let g = Arc::new(norec_global());
        let cell = Arc::new(TCell::new(0u64));
        const THREADS: usize = 6;
        const OPS: u64 = 3_000;
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let g = Arc::clone(&g);
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    let slot = g.slots.register_raw().unwrap();
                    for _ in 0..OPS {
                        loop {
                            let mut tx = NorecTx::begin(&g, slot);
                            match tx.update(&*cell, |v| v + 1) {
                                Ok(_) => {
                                    if tx.commit().is_ok() {
                                        break;
                                    }
                                }
                                Err(e) => tx.abort(e),
                            }
                        }
                    }
                    g.slots.unregister_raw(slot);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cell.load_direct(), THREADS as u64 * OPS);
    }

    #[test]
    fn sequence_stays_even_after_commits() {
        let g = norec_global();
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(0u64);
        for i in 0..10u64 {
            let mut tx = NorecTx::begin(&g, slot);
            tx.write(&a, i).unwrap();
            tx.commit().unwrap();
        }
        assert_eq!(g.norec_seq.load(Ordering::Acquire) % 2, 0);
        assert_eq!(g.norec_seq.load(Ordering::Acquire), 20);
        g.slots.unregister_raw(slot);
    }
}
