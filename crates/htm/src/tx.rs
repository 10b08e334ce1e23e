//! The simulated hardware transaction: redo-log buffering, access-time
//! dooming, capacity accounting, and event-abort injection.

use crate::{state, DoomOutcome, HtmGlobal};
use std::sync::atomic::{AtomicU64, Ordering};
use tle_base::fault::{self, Hazard};
use tle_base::history;
use tle_base::mutant::{self, Mutant};
use tle_base::rng::XorShift64;
use tle_base::sched::{self, YieldPoint};
use tle_base::sets::{self, BufLease};
use tle_base::stats::Stat;
use tle_base::trace::{self, TraceKind, TxMode};
use tle_base::{AbortCause, TCell, TxVal};

/// A single hardware-transaction attempt.
///
/// Ends in exactly one of [`HtmTx::commit`] or [`HtmTx::abort`]; dropping a
/// live transaction aborts it (cleaning its footprint out of the conflict
/// table).
///
/// # Pointer validity
///
/// Like [`tle_stm::StmTx`](https://docs.rs/), the redo log stores raw
/// pointers to written cells; cells must outlive the transaction, which the
/// `tle-core` runner guarantees by construction.
pub struct HtmTx<'g> {
    g: &'g HtmGlobal,
    slot: usize,
    /// Pooled redo log (`redo`) and line sets (`read_lines`,
    /// `write_lines`; see [`tle_base::sets`]): the per-thread block the STM
    /// uses too, leased for this attempt. A lease, not inline arrays — the
    /// runner moves the transaction through its context by value.
    bufs: BufLease,
    rng: XorShift64,
    /// Per-attempt access index, the coordinate the fault oracle's
    /// `at_access` rules key on.
    accesses: u64,
    finished: bool,
}

impl<'g> HtmTx<'g> {
    pub(crate) fn begin(g: &'g HtmGlobal, slot: usize) -> Self {
        sched::yield_point(YieldPoint::TxState);
        g.tx_state[slot].store(state::ACTIVE, Ordering::SeqCst);
        // Seed differs per (slot, begin) so event aborts are not correlated
        // across retries, yet the whole run is deterministic. The begin
        // count lives in the slot's own registry word, which no other
        // thread loads and which every claim resets.
        let salt = g.slots.advance_owned(slot);
        let seed = g.config.seed ^ ((slot as u64) << 32) ^ salt;
        trace::emit(TraceKind::Begin, TxMode::Htm, None, slot as u64);
        history::begin(TxMode::Htm);
        HtmTx {
            g,
            slot,
            bufs: sets::lease(slot),
            rng: XorShift64::new(seed),
            accesses: 0,
            finished: false,
        }
    }

    /// The slot (hardware context) running this transaction.
    #[inline]
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Transactionally read a cell.
    #[inline]
    pub fn read<T: TxVal>(&mut self, cell: &TCell<T>) -> Result<T, AbortCause> {
        self.read_word(cell.word(), cell.addr()).map(T::from_word)
    }

    /// Transactionally write a cell (buffered until commit).
    #[inline]
    pub fn write<T: TxVal>(&mut self, cell: &TCell<T>, v: T) -> Result<(), AbortCause> {
        self.write_word(cell.word(), cell.addr(), v.to_word())
    }

    // The access paths are word-level and non-generic, like `StmTx`'s: a
    // generic body would be instantiated (and inlined) in every downstream
    // closure, where its size decides whether `TxCtx::mem_read` — and with
    // it the *lock* path's direct access — still gets inlined.
    fn read_word(&mut self, w: &AtomicU64, addr: usize) -> Result<u64, AbortCause> {
        // Seeded bug (`SkipDoomCheck`): pretend the read path forgot both of
        // its doom checks, so a transaction invalidated by a committing
        // writer keeps consuming values.
        let skip_doom = mutant::armed(Mutant::SkipDoomCheck);
        self.access_checks(skip_doom)?;
        let li = self.g.table.index_of(addr) as u32;
        if !self.bufs.write_lines.contains(&li) && !self.bufs.read_lines.contains(&li) {
            self.mark_read_line(li)?;
        }
        // Read-own-write: return the buffered value.
        if let Some(&(_, _, buffered)) = self.bufs.redo.iter().find(|&&(_, a, _)| a == addr) {
            history::read(addr, buffered);
            return Ok(buffered);
        }
        let word = w.load(Ordering::SeqCst);
        // The load and the line marking are not one atomic step; a writer
        // that committed in between doomed us — re-check before returning.
        if !skip_doom && self.g.is_doomed(self.slot) {
            return Err(AbortCause::Conflict);
        }
        trace::emit(TraceKind::Read, TxMode::Htm, None, li as u64);
        history::read(addr, word);
        Ok(word)
    }

    fn write_word(&mut self, w: &AtomicU64, addr: usize, word: u64) -> Result<(), AbortCause> {
        self.access_checks(false)?;
        let li = self.g.table.index_of(addr) as u32;
        if !self.bufs.write_lines.contains(&li) {
            self.mark_write_line(li)?;
        }
        if let Some(entry) = self.bufs.redo.iter_mut().find(|&&mut (_, a, _)| a == addr) {
            entry.2 = word;
        } else {
            self.bufs.redo.push((w as *const AtomicU64, addr, word));
        }
        if self.g.is_doomed(self.slot) {
            return Err(AbortCause::Conflict);
        }
        trace::emit(TraceKind::Write, TxMode::Htm, None, li as u64);
        history::write(addr, word);
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

    /// An irrevocable operation was attempted inside a hardware transaction
    /// (I/O, syscall, condition-variable machinery the hardware cannot
    /// defer). Always aborts with [`AbortCause::Unsafe`]; the TLE layer then
    /// serializes.
    pub fn unsafe_op(&mut self) -> Result<(), AbortCause> {
        Err(AbortCause::Unsafe)
    }

    fn access_checks(&mut self, skip_doom: bool) -> Result<(), AbortCause> {
        if !skip_doom && self.g.is_doomed(self.slot) {
            return Err(AbortCause::Conflict);
        }
        let idx = self.accesses;
        self.accesses += 1;
        // Fault oracle: forced spurious/capacity/conflict aborts at chosen
        // access indices. One relaxed flag load when no plan is installed.
        if fault::enabled() {
            if let Some(cause) = Self::injected_abort(idx) {
                return Err(cause);
            }
        }
        let p = self.g.config.event_prob;
        if p > 0.0 && self.rng.chance(p) {
            trace::emit(
                TraceKind::Conflict,
                TxMode::Htm,
                Some(AbortCause::Event),
                self.slot as u64,
            );
            return Err(AbortCause::Event);
        }
        Ok(())
    }

    /// The slow half of the fault hook: ask the oracle about each HTM
    /// hazard class at this access index; the winner surfaces as the
    /// matching abort cause (exactly the causes the retry ladder already
    /// handles).
    #[cold]
    fn injected_abort(idx: u64) -> Option<AbortCause> {
        for hz in [Hazard::HtmEvent, Hazard::HtmCapacity, Hazard::HtmConflict] {
            if fault::fire_at(hz, idx) {
                let cause = hz.cause().expect("HTM hazards map to abort causes");
                trace::emit(
                    TraceKind::FaultInject,
                    TxMode::Htm,
                    Some(cause),
                    hz.index() as u64,
                );
                return Some(cause);
            }
        }
        None
    }

    /// Put this transaction in the line's reader set, dooming a conflicting
    /// writer (requester-wins) or self-aborting if the writer already won
    /// its commit point.
    fn mark_read_line(&mut self, li: u32) -> Result<(), AbortCause> {
        let line = self.g.table.line(li as usize);
        line.trace_contention(li as usize, self.slot);
        line.add_reader(self.slot);
        loop {
            let w = line.writer();
            if w == 0 || w as usize == self.slot + 1 {
                break;
            }
            match self.g.doom(w as usize - 1) {
                DoomOutcome::Committing => {
                    line.remove_reader(self.slot);
                    return Err(AbortCause::Conflict);
                }
                DoomOutcome::Doomed | DoomOutcome::Gone => {
                    // Evict the dead writer so later transactions do not
                    // keep dooming a stale slot; tolerate CAS failure (a
                    // new writer appeared — loop and contend with it).
                    let _ = line.cas_writer(w, 0);
                }
            }
        }
        self.bufs.read_lines.push(li);
        if self.bufs.read_lines.len() > self.g.config.read_cap_lines {
            trace::emit(
                TraceKind::Conflict,
                TxMode::Htm,
                Some(AbortCause::Capacity),
                li as u64,
            );
            return Err(AbortCause::Capacity);
        }
        Ok(())
    }

    /// Become the line's writer, dooming all other readers and any writer.
    fn mark_write_line(&mut self, li: u32) -> Result<(), AbortCause> {
        let line = self.g.table.line(li as usize);
        line.trace_contention(li as usize, self.slot);
        // Acquire the writer word.
        loop {
            let w = line.writer();
            if w as usize == self.slot + 1 {
                break;
            }
            if w == 0 {
                if line.cas_writer(0, self.slot as u64 + 1) {
                    break;
                }
                continue;
            }
            match self.g.doom(w as usize - 1) {
                DoomOutcome::Committing => return Err(AbortCause::Conflict),
                DoomOutcome::Doomed | DoomOutcome::Gone => {
                    let _ = line.cas_writer(w, 0);
                }
            }
        }
        // Doom every other reader (write invalidation).
        let readers = line.readers() & !(1u64 << self.slot);
        let mut bits = readers;
        while bits != 0 {
            let victim = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if self.g.doom(victim) == DoomOutcome::Committing {
                return Err(AbortCause::Conflict);
            }
        }
        self.bufs.write_lines.push(li);
        if self.bufs.write_lines.len() > self.g.config.write_cap_lines {
            trace::emit(
                TraceKind::Conflict,
                TxMode::Htm,
                Some(AbortCause::Capacity),
                li as u64,
            );
            return Err(AbortCause::Capacity);
        }
        Ok(())
    }

    /// Attempt to commit: win the commit point, publish the redo log,
    /// release the footprint.
    pub fn commit(mut self) -> Result<(), AbortCause> {
        debug_assert!(!self.finished);
        sched::yield_point(YieldPoint::TxState);
        if self.g.tx_state[self.slot]
            .compare_exchange(
                state::ACTIVE,
                state::COMMITTED,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_err()
        {
            // Doomed before the commit point.
            self.cleanup();
            self.finished = true;
            self.g.stats.count_abort(self.slot, AbortCause::Conflict);
            trace::emit(
                TraceKind::Abort,
                TxMode::Htm,
                Some(AbortCause::Conflict),
                self.slot as u64,
            );
            history::abort();
            return Err(AbortCause::Conflict);
        }
        // The CAS above is the linearization point: every line we touched is
        // still ours, so readers of our yet-unpublished values are doomed and
        // will abort before recording anything. Record the commit *here*,
        // before publishing, so log order matches visibility order.
        history::commit();
        for &(cell, _, val) in &self.bufs.redo {
            // SAFETY: cells outlive the transaction (documented invariant).
            unsafe { (*cell).store(val, Ordering::SeqCst) };
            // Half-published redo log: only doomed transactions can see it.
            sched::yield_point(YieldPoint::MemStore);
        }
        let published = self.bufs.redo.len() as u64;
        self.cleanup();
        self.finished = true;
        self.g.stats.bump_owned(self.slot, Stat::Commits);
        trace::emit(TraceKind::Commit, TxMode::Htm, None, published);
        Ok(())
    }

    /// Abort this attempt, discarding buffered writes.
    pub fn abort(mut self, cause: AbortCause) {
        self.cleanup();
        self.finished = true;
        self.g.stats.count_abort(self.slot, cause);
        trace::emit(TraceKind::Abort, TxMode::Htm, Some(cause), self.slot as u64);
        history::abort();
    }

    /// Withdraw a begun attempt that must not run: the serial gate was
    /// closed when it looked (or its dispatch went stale). Releases the
    /// footprint and the presence and nothing else — a retreat is not an
    /// attempt, so no stat row, `Abort` trace event or history terminator
    /// records it; the `SeqCst` `IDLE` store is what the serial side's sweep
    /// waits for.
    pub fn retire(mut self) {
        self.cleanup();
        self.finished = true;
    }

    fn cleanup(&mut self) {
        for &li in &self.bufs.read_lines {
            self.g.table.line(li as usize).remove_reader(self.slot);
        }
        for &li in &self.bufs.write_lines {
            let line = self.g.table.line(li as usize);
            let _ = line.cas_writer(self.slot as u64 + 1, 0);
        }
        self.g.tx_state[self.slot].store(state::IDLE, Ordering::SeqCst);
    }
}

impl Drop for HtmTx<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.cleanup();
            self.g.stats.count_abort(self.slot, AbortCause::Explicit);
            trace::emit(
                TraceKind::Abort,
                TxMode::Htm,
                Some(AbortCause::Explicit),
                self.slot as u64,
            );
            history::abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HtmConfig;

    fn quiet() -> HtmGlobal {
        HtmGlobal::new(HtmConfig {
            event_prob: 0.0,
            ..HtmConfig::default()
        })
    }

    #[test]
    fn drop_cleans_footprint() {
        let g = quiet();
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(0u64);
        let li = g.table.index_of(a.addr());
        {
            let mut tx = g.begin(slot);
            tx.read(&a).unwrap();
            tx.write(&a, 1u64).unwrap();
        } // dropped, no commit
        assert_eq!(g.table.line(li).readers(), 0);
        assert_eq!(g.table.line(li).writer(), 0);
        assert_eq!(a.load_direct(), 0);
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn retire_releases_the_presence_and_counts_nothing() {
        let g = quiet();
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(0u64);
        let li = g.table.index_of(a.addr());
        let mut tx = g.begin(slot);
        assert!(!g.all_idle(), "begin publishes the presence");
        tx.write(&a, 1u64).unwrap();
        tx.retire();
        assert!(g.all_idle());
        assert_eq!(g.table.line(li).writer(), 0);
        assert_eq!(a.load_direct(), 0);
        let snap = g.stats.snapshot();
        assert_eq!((snap.commits, snap.aborts), (0, 0));
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn write_coalesces_in_redo_log() {
        let g = quiet();
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(0u64);
        let mut tx = g.begin(slot);
        for v in 1..100u64 {
            tx.write(&a, v).unwrap();
        }
        assert_eq!(tx.read(&a).unwrap(), 99);
        tx.commit().unwrap();
        assert_eq!(a.load_direct(), 99);
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn two_writers_to_same_line_cannot_both_commit() {
        let g = quiet();
        let s1 = g.slots.register_raw().unwrap();
        let s2 = g.slots.register_raw().unwrap();
        let a = TCell::new(0u64);

        let mut t1 = g.begin(s1);
        t1.write(&a, 1u64).unwrap();

        let mut t2 = g.begin(s2);
        // t2's write dooms t1 (requester-wins) or self-aborts.
        let w2 = t2.write(&a, 2u64);

        let c1 = t1.commit();
        let c2 = match w2 {
            Ok(()) => t2.commit(),
            Err(e) => {
                t2.abort(e);
                Err(e)
            }
        };
        assert!(
            c1.is_ok() != c2.is_ok() || (c1.is_err() && c2.is_err()),
            "both writers committed: lost update"
        );
        let v = a.load_direct();
        assert!(v == 0 || v == 1 || v == 2);
        if c1.is_ok() {
            assert_eq!(v, 1);
        }
        if c2.is_ok() {
            assert_eq!(v, 2);
        }
        g.slots.unregister_raw(s1);
        g.slots.unregister_raw(s2);
    }

    #[test]
    fn read_capacity_enforced() {
        let g = HtmGlobal::new(HtmConfig {
            event_prob: 0.0,
            read_cap_lines: 8,
            ..HtmConfig::default()
        });
        let slot = g.slots.register_raw().unwrap();
        let cells: Vec<Box<TCell<u64>>> = (0..64).map(|i| Box::new(TCell::new(i))).collect();
        let mut tx = g.begin(slot);
        let mut err = None;
        for c in &cells {
            if let Err(e) = tx.read(c) {
                err = Some(e);
                break;
            }
        }
        assert_eq!(err, Some(AbortCause::Capacity));
        tx.abort(AbortCause::Capacity);
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn update_is_atomic_under_contention() {
        let g = std::sync::Arc::new(quiet());
        let cell = std::sync::Arc::new(TCell::new(0i64));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let g = std::sync::Arc::clone(&g);
                let cell = std::sync::Arc::clone(&cell);
                std::thread::spawn(move || {
                    let slot = g.slots.register_raw().unwrap();
                    let delta: i64 = if t % 2 == 0 { 1 } else { -1 };
                    for _ in 0..3000 {
                        loop {
                            let mut tx = g.begin(slot);
                            match tx.update(&*cell, |v| v + delta) {
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
        assert_eq!(cell.load_direct(), 0, "equal +1/-1 ops must cancel exactly");
    }
}
