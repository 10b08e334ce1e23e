//! The `ml_wt` transaction descriptor: read set, undo log, eager orec
//! acquisition, timestamp extension, commit-time validation, and the
//! post-commit quiescence drain.

use crate::quiesce::{QuiescePolicy, QuiesceTicket};
use crate::StmGlobal;
use std::sync::atomic::{AtomicU64, Ordering};
use tle_base::fault::{self, Hazard};
use tle_base::history;
use tle_base::mutant::{self, Mutant};
use tle_base::orec::OrecValue;
use tle_base::sched::{self, YieldPoint};
use tle_base::sets::{self, BufLease};
use tle_base::stats::Stat;
use tle_base::trace::{self, TraceKind, TxMode};
use tle_base::{AbortCause, TCell, TxVal};

/// How long to spin on a locked orec before reporting a conflict. Short, as
/// orec hold times are bounded by the owner's critical-path work.
const LOCKED_SPIN: u32 = 64;

/// Outcome data of a successful commit, for statistics and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitInfo {
    /// Commit timestamp (0 for read-only transactions, which do not advance
    /// the clock).
    pub end_time: u64,
    /// Whether the post-commit quiescence drain ran.
    pub quiesced: bool,
    /// Nanoseconds spent in the drain.
    pub quiesce_wait_ns: u64,
}

/// A single software-transaction attempt.
///
/// Created by [`StmGlobal::begin`]; ends in exactly one of
/// [`StmTx::commit`] or [`StmTx::abort`]. Dropping a live transaction rolls
/// it back (so panics inside transactional closures do not leak orec locks).
///
/// # Pointer validity
///
/// The undo log stores raw pointers to the cells written. Cells passed to
/// [`StmTx::read`]/[`StmTx::write`] must remain alive until the transaction
/// ends; the `tle-core` runner enforces this by construction (cells live in
/// application structures that outlive the atomic block).
pub struct StmTx<'g> {
    g: &'g StmGlobal,
    slot_idx: usize,
    start: u64,
    /// Pooled read set / undo log / lock set (see [`tle_base::sets`]): leased
    /// at begin, returned cleared-but-capacity-intact at drop, so retries
    /// stop paying allocator round-trips.
    bufs: BufLease,
    no_quiesce: bool,
    must_quiesce: bool,
    finished: bool,
    deadline: Option<std::time::Instant>,
}

impl<'g> StmTx<'g> {
    pub(crate) fn begin(g: &'g StmGlobal, slot_idx: usize) -> Self {
        sched::yield_point(YieldPoint::ClockRead);
        let start = g.clock.now();
        g.slots.publish_raw(slot_idx, start);
        trace::emit(TraceKind::Begin, TxMode::Stm, None, start);
        history::begin(TxMode::Stm);
        StmTx {
            g,
            slot_idx,
            start,
            bufs: sets::lease(slot_idx),
            no_quiesce: false,
            must_quiesce: false,
            finished: false,
            deadline: None,
        }
    }

    /// The slot (thread) identity running this transaction.
    #[inline]
    pub fn slot(&self) -> usize {
        self.slot_idx
    }

    /// The transaction's current start timestamp (grows on extension).
    #[inline]
    pub fn start_time(&self) -> u64 {
        self.start
    }

    /// Number of recorded reads (diagnostics).
    #[inline]
    pub fn read_set_len(&self) -> usize {
        self.bufs.reads.len()
    }

    /// Whether this attempt has written anything yet.
    #[inline]
    pub fn is_writer(&self) -> bool {
        !self.bufs.locks.is_empty()
    }

    /// Heap capacity currently retained by the read set's spill tier
    /// (test introspection for the buffer-reuse pin).
    #[doc(hidden)]
    pub fn read_spill_capacity(&self) -> usize {
        self.bufs.reads.spill_capacity()
    }

    /// The paper's `TM_NoQuiesce`: assert that this transaction does not
    /// privatize data, so it need not drain after committing. Only honoured
    /// under [`QuiescePolicy::Selective`], and overridden if the transaction
    /// later frees memory (see [`StmTx::will_free_memory`]).
    #[inline]
    pub fn no_quiesce(&mut self) {
        self.no_quiesce = true;
    }

    /// Declare that this transaction logically frees memory that will return
    /// to an allocator. GCC's TM-aware allocator requires such transactions
    /// to quiesce regardless of `TM_NoQuiesce` (paper §IV-B); this sets that
    /// override.
    #[inline]
    pub fn will_free_memory(&mut self) {
        self.must_quiesce = true;
    }

    /// Attach the transaction's retry-time budget so the post-commit
    /// quiescence drain can observe an overrun (one `DeadlineExceeded` trace
    /// event from the [`QuiesceTicket`]; the drain still completes).
    #[inline]
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
    }

    /// Transactionally read a cell.
    #[inline]
    pub fn read<T: TxVal>(&mut self, cell: &TCell<T>) -> Result<T, AbortCause> {
        self.read_word(cell.word(), cell.addr()).map(T::from_word)
    }

    /// Transactionally write a cell.
    #[inline]
    pub fn write<T: TxVal>(&mut self, cell: &TCell<T>, v: T) -> Result<(), AbortCause> {
        self.write_word(cell.word(), cell.addr(), v.to_word())
    }

    /// Read-modify-write convenience.
    #[inline]
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

    fn read_word(&mut self, w: &AtomicU64, addr: usize) -> Result<u64, AbortCause> {
        sched::yield_point(YieldPoint::OrecLoad);
        let oi = self.g.orecs.index_of(addr);
        let mut spins = 0u32;
        loop {
            let v1 = self.g.orecs.load(oi);
            match OrecValue::decode(v1) {
                OrecValue::Locked(owner) if owner == self.slot_idx => {
                    // Read-own-write: value is in place.
                    let val = w.load(Ordering::Acquire);
                    history::read(addr, val);
                    return Ok(val);
                }
                OrecValue::Locked(_) => {
                    if spins < LOCKED_SPIN {
                        spins += 1;
                        std::hint::spin_loop();
                        sched::spin_hint(YieldPoint::OrecLoad);
                        continue;
                    }
                    trace::emit(
                        TraceKind::Conflict,
                        TxMode::Stm,
                        Some(AbortCause::ReadConflict),
                        oi as u64,
                    );
                    return Err(AbortCause::ReadConflict);
                }
                OrecValue::Unlocked(ver) => {
                    if ver > self.start {
                        // TinySTM extension rule: revalidate + move start
                        // forward *before* consuming the value.
                        self.extend()?;
                        continue;
                    }
                    let val = w.load(Ordering::Acquire);
                    let v2 = self.g.orecs.load(oi);
                    if v1 != v2 {
                        // Concurrent commit between our samples; retry.
                        continue;
                    }
                    self.bufs.reads.push((oi as u32, v1));
                    trace::emit(TraceKind::Read, TxMode::Stm, None, oi as u64);
                    history::read(addr, val);
                    return Ok(val);
                }
            }
        }
    }

    fn write_word(&mut self, w: &AtomicU64, addr: usize, val: u64) -> Result<(), AbortCause> {
        sched::yield_point(YieldPoint::OrecAcquire);
        let oi = self.g.orecs.index_of(addr);
        let mut spins = 0u32;
        loop {
            let cur = self.g.orecs.load(oi);
            match OrecValue::decode(cur) {
                OrecValue::Locked(owner) if owner == self.slot_idx => {
                    self.bufs
                        .undo
                        // tle-lint: allow(R8, "undo capture under the owned orec: the CAS that locked the orec ordered this word; no concurrent writer exists")
                        .push((w as *const AtomicU64, w.load(Ordering::Relaxed)));
                    w.store(val, Ordering::Release);
                    history::write(addr, val);
                    return Ok(());
                }
                OrecValue::Locked(_) => {
                    if spins < LOCKED_SPIN {
                        spins += 1;
                        std::hint::spin_loop();
                        sched::spin_hint(YieldPoint::OrecAcquire);
                        continue;
                    }
                    trace::emit(
                        TraceKind::Conflict,
                        TxMode::Stm,
                        Some(AbortCause::WriteConflict),
                        oi as u64,
                    );
                    return Err(AbortCause::WriteConflict);
                }
                OrecValue::Unlocked(ver) => {
                    if ver > self.start {
                        self.extend()?;
                        continue;
                    }
                    if self.g.orecs.try_lock(oi, cur, self.slot_idx) {
                        self.bufs.locks.push((oi as u32, cur));
                        // In-flight window: the orec is held but the new value
                        // is not yet stored; the explorer probes it here.
                        sched::yield_point(YieldPoint::MemStore);
                        // Fault oracle: stall while *holding* the orec lock,
                        // simulating lock-holder preemption. Concurrent
                        // readers/writers of this orec must spin out and
                        // report a conflict, never corrupt state.
                        let stalled = fault::maybe_stall(Hazard::OrecStall);
                        if stalled > 0 {
                            trace::emit(
                                TraceKind::FaultInject,
                                TxMode::Stm,
                                None,
                                Hazard::OrecStall.index() as u64,
                            );
                        }
                        self.bufs
                            .undo
                            // tle-lint: allow(R8, "undo capture under the orec lock just acquired by try_lock; the acquiring CAS provides the ordering")
                            .push((w as *const AtomicU64, w.load(Ordering::Relaxed)));
                        w.store(val, Ordering::Release);
                        trace::emit(TraceKind::Write, TxMode::Stm, None, oi as u64);
                        history::write(addr, val);
                        return Ok(());
                    }
                    // CAS raced with another transaction; re-examine.
                }
            }
        }
    }

    /// Timestamp extension: validate every recorded read, then advance the
    /// start time to "now". Also republishes the epoch slot, which lets
    /// concurrent quiescence drains stop waiting on us.
    fn extend(&mut self) -> Result<(), AbortCause> {
        sched::yield_point(YieldPoint::ClockRead);
        let now = self.g.clock.now();
        if let Err(cause) = self.validate() {
            trace::emit(TraceKind::Conflict, TxMode::Stm, Some(cause), now);
            return Err(cause);
        }
        self.start = now;
        self.g.slots.publish_raw(self.slot_idx, now);
        trace::emit(TraceKind::Extend, TxMode::Stm, None, now);
        Ok(())
    }

    /// Check that every read still observes the orec word it recorded (or
    /// that we subsequently locked the orec ourselves *at* that word).
    fn validate(&self) -> Result<(), AbortCause> {
        sched::yield_point(YieldPoint::Validate);
        // Fault oracle: widen the validation window so concurrent commits
        // can race the revalidation (extension and commit-time paths both
        // funnel through here).
        let stalled = fault::maybe_stall(Hazard::ValidationDelay);
        if stalled > 0 {
            trace::emit(
                TraceKind::FaultInject,
                TxMode::Stm,
                None,
                Hazard::ValidationDelay.index() as u64,
            );
        }
        for &(oi, seen) in self.bufs.reads.iter() {
            let cur = self.g.orecs.load(oi as usize);
            if cur == seen {
                continue;
            }
            match OrecValue::decode(cur) {
                OrecValue::Locked(owner) if owner == self.slot_idx => {
                    // We locked this orec after reading it; the read is
                    // valid iff nothing committed in between, i.e. the
                    // pre-lock word equals what the read saw.
                    let prev = self
                        .bufs
                        .locks
                        .iter()
                        .find(|&&(li, _)| li == oi)
                        .map(|&(_, p)| p);
                    if prev != Some(seen) {
                        return Err(AbortCause::ValidationFailed);
                    }
                }
                _ => return Err(AbortCause::ValidationFailed),
            }
        }
        Ok(())
    }

    /// Attempt to commit, blocking through the post-commit quiescence drain.
    /// On success returns drain information; on failure the transaction has
    /// already rolled back and the caller retries.
    ///
    /// This is [`StmTx::commit_publish`] followed by the blocking drain of
    /// whatever ticket it returned — the validate → release → publish front
    /// half exists once, there.
    pub fn commit(self) -> Result<CommitInfo, AbortCause> {
        let g = self.g;
        let (info, ticket) = self.commit_publish()?;
        Ok(match ticket {
            None => info,
            Some(t) => g.quiesce_blocking(t),
        })
    }

    /// The commit front half: validate, release the orecs at the new
    /// timestamp, publish `INACTIVE`. When a post-commit drain is required
    /// it is *returned* as a pending [`QuiesceTicket`] instead of being spun
    /// out inline. Everything executed here is non-blocking (clock CAS, orec
    /// releases, slot store), so the async driver may call it from an
    /// executor worker and poll the ticket via
    /// [`StmGlobal::quiesce_pass`](crate::StmGlobal::quiesce_pass) with
    /// yields in between. When the ticket is `None` the returned
    /// [`CommitInfo`] is final.
    // Inlined into `commit` on purpose: as a call, the by-memory return of
    // `(CommitInfo, Option<QuiesceTicket>)` cost the raw commit ~8 ns
    // (`stm.tx_ro.ns` / `stm.tx_rw.ns` in the repo benchmark).
    #[inline]
    pub fn commit_publish(mut self) -> Result<(CommitInfo, Option<QuiesceTicket>), AbortCause> {
        debug_assert!(!self.finished);
        let shard = self.slot_idx;
        if self.bufs.locks.is_empty() {
            // Read-only commit: reads were validated incrementally, no
            // clock advance needed (GCC/TinySTM do the same).
            self.finished = true;
            history::commit();
            self.g.slots.publish_raw(self.slot_idx, tle_base::INACTIVE);
            if !(self.must_quiesce || (self.no_quiesce && self.g.audit_noquiesce_enabled())) {
                // Fast path: return before the quiescence machinery. Sound
                // because only a *writer* commit can transfer data into
                // private use: a privatizing reader observes the transfer
                // only after the transferring writer committed, and that
                // writer's own post-commit drain (policy permitting)
                // already waited out every transaction older than the
                // transfer — a read-only commit has nobody to wait for.
                // Exceptions stay on the slow path: `will_free_memory`
                // (allocator contract, §IV-B) and — when the §IV-C
                // no-quiesce audit is on — `TM_NoQuiesce` transactions, so
                // the audit's overlap scan stays complete.
                self.g.stats.bump_owned(shard, Stat::QuiesceSkipped);
                self.g.stats.bump_owned(shard, Stat::Commits);
                trace::emit(TraceKind::Commit, TxMode::Stm, None, 0);
                return Ok((
                    CommitInfo {
                        end_time: 0,
                        quiesced: false,
                        quiesce_wait_ns: 0,
                    },
                    None,
                ));
            }
            let out = self.defer_quiesce(self.g.clock.now());
            self.g.stats.bump_owned(shard, Stat::Commits);
            trace::emit(TraceKind::Commit, TxMode::Stm, None, out.0.end_time);
            return Ok(out);
        }

        sched::yield_point(YieldPoint::ClockAdvance);
        let end = self.g.clock.advance();
        // Someone committed since our (possibly extended) start: the read
        // set must still hold. A failure here is a *commit-time* validation
        // abort, distinct from mid-transaction validation.
        if end > self.start + 1
            && !mutant::armed(Mutant::SkipCommitValidation)
            && self.validate().is_err()
        {
            let cause = AbortCause::CommitValidation;
            self.rollback();
            self.finished = true;
            self.g.stats.count_abort(shard, cause);
            trace::emit(TraceKind::Abort, TxMode::Stm, Some(cause), end);
            history::abort();
            return Err(cause);
        }
        // The commit event is recorded *before* the orecs are released: no
        // other thread can read our writes until release, so log order of
        // `Commit` events is a valid serialization order (see
        // `tle_base::history` module docs).
        history::commit();
        sched::yield_point(YieldPoint::OrecRelease);
        for &(oi, _) in self.bufs.locks.iter() {
            self.g.orecs.release(oi as usize, end);
        }
        self.finished = true;
        self.g.slots.publish_raw(self.slot_idx, tle_base::INACTIVE);
        let out = self.defer_quiesce(end);
        self.g.stats.bump_owned(shard, Stat::Commits);
        trace::emit(TraceKind::Commit, TxMode::Stm, None, end);
        Ok(out)
    }

    /// Explicitly abort this attempt (conflict, explicit cancel, or a
    /// surrounding policy decision). Rolls back and releases all orecs.
    pub fn abort(mut self, cause: AbortCause) {
        self.rollback();
        self.finished = true;
        self.g.stats.count_abort(self.slot_idx, cause);
        self.g.slots.publish_raw(self.slot_idx, tle_base::INACTIVE);
        trace::emit(TraceKind::Abort, TxMode::Stm, Some(cause), self.start);
        history::abort();
    }

    /// Withdraw a begun attempt that must not run: the serial gate was
    /// closed when it looked (or its dispatch went stale). Releases the
    /// presence and nothing else — a retreat is not an attempt, so no stat
    /// row, `Abort` trace event or history terminator records it; the
    /// `SeqCst` `INACTIVE` publication is what the serial side's sweep waits
    /// for.
    pub fn retire(mut self) {
        self.rollback();
        self.finished = true;
        self.g.slots.publish_raw(self.slot_idx, tle_base::INACTIVE);
    }

    fn rollback(&mut self) {
        if mutant::armed(Mutant::EarlyOrecRelease) && !self.bufs.locks.is_empty() {
            // Seeded bug: hand the orecs back while the undo log is still
            // unapplied — readers sample a clean orec over dirty data.
            let ver = self.g.clock.advance();
            while let Some((oi, _)) = self.bufs.locks.pop() {
                self.g.orecs.release(oi as usize, ver);
            }
            sched::yield_point(YieldPoint::OrecRelease);
        }
        // Undo in pop (reverse-insertion) order so repeated writes restore
        // the oldest value.
        while let Some((w, old)) = self.bufs.undo.pop() {
            // SAFETY: cells outlive the transaction (documented invariant).
            unsafe { (*w).store(old, Ordering::Release) };
        }
        if !self.bufs.locks.is_empty() {
            // Release at a *new* version: concurrent readers that sampled
            // the pre-lock word and then read an in-flight value must fail
            // their second orec sample.
            let ver = self.g.clock.advance();
            while let Some((oi, _)) = self.bufs.locks.pop() {
                self.g.orecs.release(oi as usize, ver);
            }
        }
        self.bufs.reads.clear();
    }

    /// Whether the domain policy (plus this transaction's annotations)
    /// requires a post-commit drain.
    fn quiesce_needed(&self) -> bool {
        (match self.g.policy() {
            QuiescePolicy::Always => true,
            QuiescePolicy::Never => self.must_quiesce,
            QuiescePolicy::Selective => self.must_quiesce || !self.no_quiesce,
        }) && !mutant::armed(Mutant::DropQuiesce)
    }

    /// Account for a skipped drain (counter + the §IV-C overlap audit).
    fn note_quiesce_skip(&self, upto: u64) {
        self.g.stats.bump_owned(self.slot_idx, Stat::QuiesceSkipped);
        if self.no_quiesce && self.g.audit_noquiesce_enabled() {
            // §IV-C audit: would the skipped drain have waited?
            let overlapped = self
                .g
                .slots
                .scan()
                .any(|(idx, v)| idx != self.slot_idx && v < upto);
            if overlapped {
                self.g.noquiesce_overlaps.inc(self.slot_idx);
            }
        }
    }

    /// The post-commit drain decision: skip (with the skip accounting) or
    /// owe a drain, handed to the caller as a pending [`QuiesceTicket`].
    #[inline]
    fn defer_quiesce(&self, upto: u64) -> (CommitInfo, Option<QuiesceTicket>) {
        let ticket = if self.quiesce_needed() {
            Some(QuiesceTicket::new(upto, self.slot_idx, self.deadline))
        } else {
            self.note_quiesce_skip(upto);
            None
        };
        let info = CommitInfo {
            end_time: upto,
            quiesced: ticket.is_some(),
            quiesce_wait_ns: 0,
        };
        (info, ticket)
    }
}

impl Drop for StmTx<'_> {
    fn drop(&mut self) {
        if !self.finished {
            // A panic (or early return) escaped the transactional closure:
            // roll back so no orec stays locked.
            self.rollback();
            self.g
                .stats
                .count_abort(self.slot_idx, AbortCause::Explicit);
            self.g.slots.publish_raw(self.slot_idx, tle_base::INACTIVE);
            trace::emit(
                TraceKind::Abort,
                TxMode::Stm,
                Some(AbortCause::Explicit),
                self.start,
            );
            history::abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StmGlobal;
    use std::sync::Arc;

    #[test]
    fn drop_without_commit_rolls_back_and_unlocks() {
        let g = StmGlobal::default();
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(3u64);
        {
            let mut tx = g.begin(slot);
            tx.write(&a, 8u64).unwrap();
            // tx dropped here without commit/abort.
        }
        assert_eq!(a.load_direct(), 3);
        // The orec must be unlocked: a fresh transaction can write it.
        let mut tx = g.begin(slot);
        tx.write(&a, 4u64).unwrap();
        tx.commit().unwrap();
        assert_eq!(a.load_direct(), 4);
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn retire_releases_the_presence_and_counts_nothing() {
        let g = StmGlobal::default();
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(3u64);
        let mut tx = g.begin(slot);
        assert!(!g.slots.all_inactive(), "begin publishes the presence");
        tx.write(&a, 8u64).unwrap();
        tx.retire();
        assert!(g.slots.all_inactive());
        assert_eq!(a.load_direct(), 3, "a retired writer still rolls back");
        let snap = g.stats.snapshot();
        assert_eq!((snap.commits, snap.aborts), (0, 0));
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn repeated_writes_restore_oldest_on_abort() {
        let g = StmGlobal::default();
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(1u64);
        let mut tx = g.begin(slot);
        for v in 2..10u64 {
            tx.write(&a, v).unwrap();
        }
        tx.abort(AbortCause::Explicit);
        assert_eq!(a.load_direct(), 1);
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn update_combines_read_and_write() {
        let g = StmGlobal::default();
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(10u64);
        let mut tx = g.begin(slot);
        let new = tx.update(&a, |v| v * 3).unwrap();
        assert_eq!(new, 30);
        tx.commit().unwrap();
        assert_eq!(a.load_direct(), 30);
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn concurrent_counter_increments_never_lost() {
        let g = Arc::new(StmGlobal::default());
        let counter = Arc::new(TCell::new(0u64));
        const THREADS: usize = 8;
        const OPS: u64 = 2_000;

        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let g = Arc::clone(&g);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    let slot = g.slots.register_raw().unwrap();
                    for _ in 0..OPS {
                        loop {
                            let mut tx = g.begin(slot);
                            let ok = (|| -> Result<(), AbortCause> {
                                tx.update(&*counter, |v| v + 1)?;
                                Ok(())
                            })();
                            match ok {
                                Ok(()) => {
                                    if tx.commit().is_ok() {
                                        break;
                                    }
                                }
                                Err(c) => tx.abort(c),
                            }
                            std::hint::spin_loop();
                        }
                    }
                    g.slots.unregister_raw(slot);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load_direct(), THREADS as u64 * OPS);
    }

    #[test]
    fn disjoint_writers_do_not_conflict() {
        // Cells engineered to different orecs are extremely likely with
        // Fibonacci hashing; verify two parallel writers both commit on the
        // first try for disjoint data most of the time.
        let g = StmGlobal::new(crate::QuiescePolicy::Never);
        let s1 = g.slots.register_raw().unwrap();
        let s2 = g.slots.register_raw().unwrap();
        let a = TCell::new(0u64);
        let b = TCell::new(0u64);
        if g.orecs.index_of(a.addr()) == g.orecs.index_of(b.addr()) {
            // False sharing in the orec table: skip (possible but rare).
            return;
        }
        let mut t1 = g.begin(s1);
        let mut t2 = g.begin(s2);
        t1.write(&a, 1u64).unwrap();
        t2.write(&b, 2u64).unwrap();
        t1.commit().unwrap();
        t2.commit().unwrap();
        assert_eq!(a.load_direct(), 1);
        assert_eq!(b.load_direct(), 2);
        g.slots.unregister_raw(s1);
        g.slots.unregister_raw(s2);
    }

    #[test]
    fn commit_info_reports_quiescence_per_policy() {
        let g = StmGlobal::new(crate::QuiescePolicy::Selective);
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(0u64);

        let mut tx = g.begin(slot);
        tx.write(&a, 1u64).unwrap();
        let info = tx.commit().unwrap();
        assert!(info.quiesced, "selective without no_quiesce must drain");

        let mut tx = g.begin(slot);
        tx.write(&a, 2u64).unwrap();
        tx.no_quiesce();
        let info = tx.commit().unwrap();
        assert!(!info.quiesced, "no_quiesce must skip the drain");

        let mut tx = g.begin(slot);
        tx.write(&a, 3u64).unwrap();
        tx.no_quiesce();
        tx.will_free_memory();
        let info = tx.commit().unwrap();
        assert!(info.quiesced, "freeing memory overrides no_quiesce");
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn read_set_capacity_survives_abort_retry() {
        let g = StmGlobal::new(crate::QuiescePolicy::Never);
        let slot = g.slots.register_raw().unwrap();
        let cells: Vec<TCell<u64>> = (0..200u64).map(TCell::new).collect();
        let cap = {
            let mut tx = g.begin(slot);
            for c in &cells {
                tx.read(c).unwrap();
            }
            let cap = tx.read_spill_capacity();
            tx.abort(AbortCause::Explicit);
            cap
        };
        assert!(cap > 0, "200 reads must spill past the inline tier");
        // The retry attempt must lease the same block back, capacity intact.
        let tx = g.begin(slot);
        assert_eq!(tx.read_set_len(), 0, "reused buffers must arrive empty");
        assert!(
            tx.read_spill_capacity() >= cap,
            "retry lost capacity: {} < {cap}",
            tx.read_spill_capacity()
        );
        drop(tx);
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn ro_fast_path_skips_the_drain_but_freeing_still_drains() {
        let g = StmGlobal::new(crate::QuiescePolicy::Always);
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(1u64);

        let mut tx = g.begin(slot);
        tx.read(&a).unwrap();
        let info = tx.commit().unwrap();
        assert!(!info.quiesced, "read-only commit must skip the drain");
        assert_eq!(info.end_time, 0);
        assert_eq!(g.stats.get(Stat::QuiesceSkipped), 1);

        // The allocator contract (§IV-B) still forces a drain.
        let mut tx = g.begin(slot);
        tx.read(&a).unwrap();
        tx.will_free_memory();
        assert!(tx.commit().unwrap().quiesced);
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn never_policy_skips_quiesce_unless_freeing() {
        let g = StmGlobal::new(crate::QuiescePolicy::Never);
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(0u64);
        let mut tx = g.begin(slot);
        tx.write(&a, 1u64).unwrap();
        assert!(!tx.commit().unwrap().quiesced);
        let mut tx = g.begin(slot);
        tx.write(&a, 2u64).unwrap();
        tx.will_free_memory();
        assert!(tx.commit().unwrap().quiesced);
        g.slots.unregister_raw(slot);
    }
}
