//! The simulated hardware transaction: redo-log buffering, access-time
//! dooming, capacity accounting, and event-abort injection.

use crate::table::Line;
use crate::{state, tag_byte, tag_slot, DoomOutcome, HtmGlobal, SlotState};
use std::sync::atomic::{AtomicU64, Ordering};
use tle_base::fault::{self, Hazard};
use tle_base::mutant::{self, Mutant};
use tle_base::rng::XorShift64;
use tle_base::sched::{self, YieldPoint};
use tle_base::sets::{self, BufLease};
use tle_base::stats::Stat;
use tle_base::trace::{self, TraceKind, TxMode};
use tle_base::{AbortCause, AbortWord, TCell, TxVal};

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
    /// The slot's line in the lifecycle table: the state word every doom
    /// check loads, and the writer tag this attempt's claims store in a
    /// line's writer word ([`HtmGlobal::tag_live`]). The tag dies with the
    /// attempt, so no claim is released with a CAS: a committed attempt
    /// clears its words with plain stores, an aborted one leaves them.
    own: &'g SlotState,
    /// The slot, as a `u32` so it and `finished` share a word and the
    /// descriptor stays 56 bytes (the assertion below the struct).
    slot: u32,
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

// The descriptor's size is part of the runner's code shape: every
// closure's `runner::run` instance carries every engine's arm, so a 64-byte
// `HtmTx` recompiled that shared instance and moved the lock and STM rows
// with no source of theirs changed — the coupling and ratio trap of
// EXPERIMENTS.md §16 (measured in §24).
const _: () = assert!(std::mem::size_of::<HtmTx<'static>>() == 56);

impl<'g> HtmTx<'g> {
    pub(crate) fn begin(g: &'g HtmGlobal, slot: usize) -> Self {
        sched::yield_point(YieldPoint::TxState);
        let own = g.slot_state(slot);
        // The tag first: whoever sees this attempt's `ACTIVE` sees its tag.
        own.next_tag();
        own.state.store(state::ACTIVE, Ordering::SeqCst);
        // Seed differs per (slot, begin) so event aborts are not correlated
        // across retries, yet the whole run is deterministic. The begin
        // count lives in the slot's own registry word, which no other
        // thread loads and which every claim resets.
        let salt = g.slots.advance_owned(slot);
        let seed = g.config.seed ^ ((slot as u64) << 32) ^ salt;
        trace::emit(TraceKind::Begin, TxMode::Htm, None, slot as u64);
        HtmTx {
            g,
            own,
            slot: slot as u32,
            bufs: sets::lease(slot),
            rng: XorShift64::new(seed),
            accesses: 0,
            finished: false,
        }
    }

    /// The slot (hardware context) running this transaction.
    #[inline]
    pub fn slot(&self) -> usize {
        self.slot as usize
    }

    /// Transactionally read a cell.
    #[inline]
    pub fn read<T: TxVal>(&mut self, cell: &TCell<T>) -> Result<T, AbortCause> {
        Ok(T::from_word(self.read_word(cell.word(), cell.addr())?))
    }

    /// Transactionally write a cell (buffered until commit).
    #[inline]
    pub fn write<T: TxVal>(&mut self, cell: &TCell<T>, v: T) -> Result<(), AbortCause> {
        Ok(self.write_word(cell.word(), cell.addr(), v.to_word())?)
    }

    /// Read a cell the transaction is about to write (claim-on-update):
    /// the line's writer word is claimed *before* the value is loaded, as a
    /// read-for-ownership would, so the line never carries this slot's
    /// reader bit. A plain [`read`](Self::read) followed by a
    /// [`write`](Self::write) marks the line twice (reader bit, then writer
    /// word) and clears the bit again at cleanup; this path does neither.
    #[inline]
    pub fn read_for_write<T: TxVal>(&mut self, cell: &TCell<T>) -> Result<T, AbortCause> {
        Ok(T::from_word(
            self.read_word_owned(cell.word(), cell.addr())?,
        ))
    }

    // The access paths are word-level and non-generic, like `StmTx`'s: a
    // generic body would be instantiated (and inlined) in every downstream
    // closure, where its size decides whether `TxCtx::mem_read` — and with
    // it the *lock* path's direct access — still gets inlined. Their
    // results are word-wide, so they come back in a register pair.
    //
    // The read barrier has a fast path for the unmutated kernel with no
    // fault plan installed: the doom check, the event draw, the line
    // lookup, an out-of-line line mark for a new line, the load, and the
    // post-access doom check — the general path's steps for that case, in
    // its order. Every other case goes to the general path, a cold call.
    // The update barriers are one path each: their fault check is one
    // relaxed load, the mutant checks compile away outside checked builds,
    // and read-own-write is a branch on a non-empty redo log.

    /// The read barrier of the word `w` at `addr`. Its fast path serves a
    /// transaction that has written nothing; read-own-write and a line in
    /// the write set go to the cold `read_slow`.
    #[inline(never)]
    pub fn read_word(&mut self, w: &AtomicU64, addr: usize) -> Result<u64, AbortWord> {
        if fault::enabled()
            || mutant::any_armed()
            || !self.bufs.redo.is_empty()
            || !self.bufs.write_lines.is_empty()
        {
            return self.read_slow(w, addr);
        }
        if self.doomed() {
            return Err(AbortCause::Conflict.into());
        }
        self.accesses += 1;
        if self.event_fires() {
            return Err(self.event_abort());
        }
        let li = self.g.table.index_of(addr) as u32;
        // Newest first: a walk reads a line's words back to back.
        if !self.bufs.read_lines.iter().rev().any(|&l| l == li) {
            self.mark_read_line(li)?;
        }
        let word = w.load(Ordering::SeqCst);
        // The load and the line marking are not one atomic step; a writer
        // that committed in between doomed us — re-check before returning.
        if self.doomed() {
            return Err(AbortCause::Conflict.into());
        }
        trace::emit_access(TraceKind::Read, TxMode::Htm, addr as u64, word);
        Ok(word)
    }

    /// Every read the fast path does not serve: read-own-write, a line in
    /// the write set, the fault oracle and the mutants.
    #[cold]
    #[inline(never)]
    fn read_slow(&mut self, w: &AtomicU64, addr: usize) -> Result<u64, AbortWord> {
        // Seeded bug (`SkipDoomCheck`): pretend the read path forgot both of
        // its doom checks, so a transaction invalidated by a committing
        // writer keeps consuming values.
        let skip_doom = mutant::armed(Mutant::SkipDoomCheck);
        self.access_checks(skip_doom)?;
        let li = self.g.table.index_of(addr) as u32;
        if !self.wrote_line(li) && !self.bufs.read_lines.iter().rev().any(|&l| l == li) {
            self.mark_read_line(li)?;
        }
        self.load_checked(w, addr, skip_doom)
    }

    /// The read barrier of [`read_for_write`](Self::read_for_write): a line
    /// new to the write set is claimed before the load. Read-own-write and
    /// the mutants are branches of its one path.
    #[inline(never)]
    pub fn read_word_owned(&mut self, w: &AtomicU64, addr: usize) -> Result<u64, AbortWord> {
        // Seeded bug (`SkipDoomCheck`), as in `read_slow`.
        let skip_doom = mutant::armed(Mutant::SkipDoomCheck);
        self.access_checks(skip_doom)?;
        let li = self.g.table.index_of(addr) as u32;
        // Seeded bug (`HtmUpdateSkipsClaim`): the update's read marks
        // nothing, so a writer committing between this load and the later
        // write claim is never seen — a lost update.
        if !self.wrote_line(li) && !mutant::armed(Mutant::HtmUpdateSkipsClaim) {
            self.mark_write_line(li)?;
        }
        self.load_checked(w, addr, skip_doom)
    }

    /// The tail of `read_slow` and `read_word_owned`: read-own-write
    /// returns the buffered value; otherwise the load, then the post-access
    /// doom check (skipped only by the `SkipDoomCheck` mutant).
    #[inline(always)]
    fn load_checked(
        &mut self,
        w: &AtomicU64,
        addr: usize,
        skip_doom: bool,
    ) -> Result<u64, AbortWord> {
        if !self.bufs.redo.is_empty() {
            if let Some(&(_, _, buffered)) =
                self.bufs.redo.iter().rev().find(|&&(_, a, _)| a == addr)
            {
                trace::emit_access(TraceKind::Read, TxMode::Htm, addr as u64, buffered);
                return Ok(buffered);
            }
        }
        let word = w.load(Ordering::SeqCst);
        // The load and the line marking are not one atomic step; a writer
        // that committed in between doomed us — re-check before returning.
        if !skip_doom && self.doomed() {
            return Err(AbortCause::Conflict.into());
        }
        trace::emit_access(TraceKind::Read, TxMode::Htm, addr as u64, word);
        Ok(word)
    }

    /// The write barrier of the word `w` at `addr` (buffered until commit).
    /// A line new to the write set holds no buffered word yet, so the
    /// barrier appends after claiming it and searches the redo log only for
    /// a line it already wrote.
    #[inline(never)]
    pub fn write_word(&mut self, w: &AtomicU64, addr: usize, word: u64) -> Result<(), AbortWord> {
        self.access_checks(false)?;
        let li = self.g.table.index_of(addr) as u32;
        if self.wrote_line(li) {
            self.buffer(w, addr, word);
        } else {
            self.mark_write_line(li)?;
            self.bufs.redo.push((w as *const AtomicU64, addr, word));
        }
        if self.doomed() {
            return Err(AbortCause::Conflict.into());
        }
        trace::emit_access(TraceKind::Write, TxMode::Htm, addr as u64, word);
        Ok(())
    }

    /// Buffer `word` for `addr`: overwrite its redo entry, or append one.
    #[inline(always)]
    fn buffer(&mut self, w: &AtomicU64, addr: usize, word: u64) {
        if let Some(entry) = self
            .bufs
            .redo
            .iter_mut()
            .rev()
            .find(|&&mut (_, a, _)| a == addr)
        {
            entry.2 = word;
        } else {
            self.bufs.redo.push((w as *const AtomicU64, addr, word));
        }
    }

    /// Whether the line `li` is in the write set. Newest first, one entry
    /// at a time: a section writes a line or three, too few to repay the
    /// set-up of the vectorized `contains`.
    #[inline(always)]
    fn wrote_line(&self, li: u32) -> bool {
        self.bufs.write_lines.iter().rev().any(|&l| l == li)
    }

    /// Read-modify-write convenience; the read claims the line
    /// ([`read_for_write`](Self::read_for_write)).
    pub fn update<T: TxVal>(
        &mut self,
        cell: &TCell<T>,
        f: impl FnOnce(T) -> T,
    ) -> Result<T, AbortCause> {
        let old = self.read_for_write(cell)?;
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
        if !skip_doom && self.doomed() {
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
        if self.event_fires() {
            return Err(self.event_abort().cause());
        }
        Ok(())
    }

    /// The simulated asynchronous event's draw for this access (none at
    /// `event_prob` 0).
    #[inline(always)]
    fn event_fires(&mut self) -> bool {
        let t = self.g.event_threshold;
        t > 0 && self.rng.chance_below(t)
    }

    /// The event abort a fired draw ends in.
    #[cold]
    #[inline(never)]
    fn event_abort(&self) -> AbortWord {
        trace::emit(
            TraceKind::Conflict,
            TxMode::Htm,
            Some(AbortCause::Event),
            self.slot as u64,
        );
        AbortCause::Event.into()
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

    /// Whether the non-zero writer word `w` is a claim to contend with:
    /// another slot's, made by an attempt still running. This slot's own
    /// byte means this attempt's claim or an ended one — one slot runs one
    /// attempt at a time — so it needs no load.
    #[inline(always)]
    fn contends(&self, w: u64) -> bool {
        !self.own_byte(w) && self.g.tag_live(w)
    }

    /// Whether the non-zero writer word `w` carries this slot's byte.
    #[inline(always)]
    fn own_byte(&self, w: u64) -> bool {
        u32::from(tag_byte(w)) == self.slot + 1
    }

    /// Whether a conflicting access has doomed this attempt.
    #[inline(always)]
    fn doomed(&self) -> bool {
        self.own.state.load(Ordering::SeqCst) == state::DOOMED
    }

    /// Put this transaction in the line's reader set, dooming a conflicting
    /// writer (requester-wins) or self-aborting if the writer already won
    /// its commit point. A claim whose attempt has ended dooms nobody and
    /// stays. Out of line: the read fast path calls it only for a line new
    /// to the read set.
    #[inline(never)]
    fn mark_read_line(&mut self, li: u32) -> Result<(), AbortWord> {
        let line = self.g.table.line(li as usize);
        line.trace_contention(li as usize, self.slot(), |w| self.contends(w));
        line.add_reader(self.slot());
        let w = line.writer();
        if w != 0 && self.contends(w) {
            self.read_past_writer(line, w)?;
        }
        self.bufs.read_lines.push(li);
        if self.bufs.read_lines.len() > self.g.config.read_cap_lines {
            trace::emit(
                TraceKind::Conflict,
                TxMode::Htm,
                Some(AbortCause::Capacity),
                li as u64,
            );
            return Err(AbortCause::Capacity.into());
        }
        Ok(())
    }

    /// `mark_read_line` past a running writer's claim `w`: the writer is
    /// doomed and evicted, or, past its commit point, this attempt aborts;
    /// then the same for whichever running writer claimed the line since.
    #[cold]
    #[inline(never)]
    fn read_past_writer(&self, line: &Line, mut w: u64) -> Result<(), AbortWord> {
        loop {
            if !self.evict(line, w) {
                line.remove_reader(self.slot());
                return Err(AbortCause::Conflict.into());
            }
            w = line.writer();
            if w == 0 || !self.contends(w) {
                return Ok(());
            }
        }
    }

    /// `mark_write_line`'s general claim: CAS over a free line or a claim
    /// whose attempt has ended, doom and evict a running writer, abort
    /// against one past its commit point; retry whenever the word moved.
    #[cold]
    #[inline(never)]
    fn claim_contended(&self, line: &Line) -> Result<(), AbortWord> {
        loop {
            let w = line.writer();
            if w != 0 && self.contends(w) {
                if !self.evict(line, w) {
                    return Err(AbortCause::Conflict.into());
                }
                continue;
            }
            if line.cas_writer(w, self.own.own_tag()) {
                return Ok(());
            }
        }
    }

    /// Doom the running writer whose claim `w` stands on `line` and evict
    /// the claim, so later transactions do not keep dooming a dead slot; a
    /// failed eviction CAS means a new writer appeared, which the caller's
    /// loop contends with. `false` when the writer is past its commit point
    /// and the caller must abort instead.
    fn evict(&self, line: &Line, w: u64) -> bool {
        match self.g.doom(tag_slot(w)) {
            DoomOutcome::Committing => false,
            DoomOutcome::Doomed | DoomOutcome::Gone => {
                let _ = line.cas_writer(w, 0);
                true
            }
        }
    }

    /// Become the line's writer, dooming all other readers and any running
    /// writer. A free line and a claim whose attempt has ended are both
    /// taken with one CAS to this attempt's tag.
    #[inline(never)]
    fn mark_write_line(&mut self, li: u32) -> Result<(), AbortWord> {
        let line = self.g.table.line(li as usize);
        line.trace_contention(li as usize, self.slot(), |w| self.contends(w));
        // Acquire the writer word: a free line or an ended claim in one
        // CAS, a running writer in the general loop.
        let w = line.writer();
        if !((w == 0 || !self.contends(w)) && line.cas_writer(w, self.own.own_tag())) {
            self.claim_contended(line)?;
        }
        // Doom every other reader (write invalidation).
        let readers = line.readers() & !(1u64 << self.slot);
        let mut bits = readers;
        while bits != 0 {
            let victim = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if self.g.doom(victim) == DoomOutcome::Committing {
                return Err(AbortCause::Conflict.into());
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
            return Err(AbortCause::Capacity.into());
        }
        Ok(())
    }

    /// Attempt to commit: win the commit point, publish the redo log,
    /// release the footprint. A read-only attempt (empty redo log) has
    /// nothing to publish and no commit point to win: one `SeqCst` load of
    /// its state word decides it.
    #[inline]
    pub fn commit(mut self) -> Result<(), AbortCause> {
        Ok(self.commit_in_place()?)
    }

    /// [`HtmTx::commit`] without moving the descriptor; the result comes
    /// back in a register pair, and the finished attempt is the caller's to
    /// drop.
    #[inline(never)]
    pub fn commit_in_place(&mut self) -> Result<(), AbortWord> {
        debug_assert!(!self.finished);
        sched::yield_point(YieldPoint::TxState);
        if self.bufs.redo.is_empty() {
            // Read-only: every read already passed its post-load doom
            // check, so a party that dooms us after this load only meets
            // reads that pre-date its own writes — nothing to wait out.
            // Seeded bug (`HtmReadOnlyCommitIgnoresDoom`): the load is
            // skipped and a doomed reader commits a snapshot its commit
            // point no longer sees.
            if !mutant::armed(Mutant::HtmReadOnlyCommitIgnoresDoom) && self.doomed() {
                return self.doomed_at_commit();
            }
            // The load above is the linearization point.
            trace::emit(TraceKind::Commit, TxMode::Htm, None, 0);
        } else {
            if self
                .own
                .state
                .compare_exchange(
                    state::ACTIVE,
                    state::COMMITTED,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_err()
            {
                return self.doomed_at_commit();
            }
            // The CAS above is the linearization point: every line we
            // touched is still ours, so readers of our yet-unpublished
            // values are doomed and will abort before emitting anything.
            // Emit the commit *here*, before publishing, so stamp order
            // matches visibility order.
            trace::emit(
                TraceKind::Commit,
                TxMode::Htm,
                None,
                self.bufs.redo.len() as u64,
            );
            for &(cell, _, val) in &self.bufs.redo {
                // SAFETY: cells outlive the transaction (documented invariant).
                unsafe { (*cell).store(val, Ordering::SeqCst) };
                // Half-published redo log: only doomed transactions can see it.
                sched::yield_point(YieldPoint::MemStore);
            }
            // Nobody takes a claim from a `COMMITTED` attempt (its doom is
            // refused and its tag reads live), so its words are cleared
            // with plain stores, no fenced op. A reader that then meets a
            // clear line loads nothing more; one that met the tag would
            // load this slot's state line, which its owner writes on every
            // begin and cleanup.
            while let Some(li) = self.bufs.write_lines.pop() {
                self.g.table.line(li as usize).clear_committed_writer();
            }
        }
        self.cleanup();
        self.finished = true;
        self.g.stats.bump_owned(self.slot(), Stat::Commits);
        Ok(())
    }

    /// Doomed before the commit point: the attempt ends as a conflict abort.
    #[cold]
    fn doomed_at_commit(&mut self) -> Result<(), AbortWord> {
        self.cleanup();
        self.finished = true;
        self.g.stats.count_abort(self.slot(), AbortCause::Conflict);
        trace::emit(
            TraceKind::Abort,
            TxMode::Htm,
            Some(AbortCause::Conflict),
            self.slot as u64,
        );
        Err(AbortCause::Conflict.into())
    }

    /// Abort this attempt, discarding buffered writes.
    pub fn abort(mut self, cause: AbortCause) {
        self.cleanup();
        self.finished = true;
        self.g.stats.count_abort(self.slot(), cause);
        trace::emit(TraceKind::Abort, TxMode::Htm, Some(cause), self.slot as u64);
    }

    /// Withdraw a begun attempt that must not run: the serial gate was
    /// closed when it looked (or its dispatch went stale). Releases the
    /// footprint and the presence and nothing else — a retreat is not an
    /// attempt, so no stat row or `Abort` event records it; the `SeqCst`
    /// `IDLE` store is what the serial side's sweep waits for.
    pub fn retire(mut self) {
        self.cleanup();
        self.finished = true;
    }

    fn cleanup(&mut self) {
        // Popped, not iterated: the lease clears the set anyway, and a
        // counted loop over a handful of lines gets unrolled four ways.
        while let Some(li) = self.bufs.read_lines.pop() {
            self.g.table.line(li as usize).remove_reader(self.slot());
        }
        // The claims end with the attempt: once the `IDLE` store below is
        // made, every writer word still holding this attempt's tag reads as
        // stale (`HtmGlobal::tag_live`). A committed attempt cleared its
        // words already; an aborted one leaves them, since a doomed
        // attempt's claims may have been evicted and taken by now.
        self.bufs.write_lines.clear();
        self.own.state.store(state::IDLE, Ordering::SeqCst);
    }
}

impl Drop for HtmTx<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.cleanup();
            self.g.stats.count_abort(self.slot(), AbortCause::Explicit);
            trace::emit(
                TraceKind::Abort,
                TxMode::Htm,
                Some(AbortCause::Explicit),
                self.slot as u64,
            );
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

    /// Whether line `li`'s writer word is a claim of a running attempt.
    fn live_claim(g: &HtmGlobal, li: usize) -> bool {
        let w = g.table.line(li).writer();
        w != 0 && g.tag_live(w)
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
        assert!(!live_claim(&g, li), "the claim ended with the attempt");
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
        assert!(!live_claim(&g, li), "the claim ended with the attempt");
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

    // ---- writer tags --------------------------------------------------
    //
    // A writer word holds the claiming attempt's tag, and the claim ends
    // with the attempt: `tag_live` reads it stale from the attempt's
    // `IDLE` store on. A committed attempt clears its words with plain
    // stores; an aborted, retired or dropped one leaves them.

    /// Begins an attempt on `slot` that writes `a`; returns it and its tag.
    fn claiming<'g>(g: &'g HtmGlobal, slot: usize, a: &TCell<u64>) -> (HtmTx<'g>, u64) {
        let mut tx = g.begin(slot);
        tx.write(a, 1u64).unwrap();
        let w = g.table.line(g.table.index_of(a.addr())).writer();
        assert_eq!(tag_slot(w), slot, "the word carries the slot");
        assert!(g.tag_live(w), "a running attempt's claim is live");
        (tx, w)
    }

    #[test]
    fn a_claim_reads_stale_after_commit_abort_retire_and_drop() {
        let g = quiet();
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(0u64);
        let line = g.table.line(g.table.index_of(a.addr()));
        let (tx, w) = claiming(&g, slot, &a);
        tx.commit().unwrap();
        assert!(!g.tag_live(w), "after commit");
        assert_eq!(line.writer(), 0, "a committed attempt clears its words");
        let (tx, w) = claiming(&g, slot, &a);
        tx.abort(AbortCause::Explicit);
        assert!(!g.tag_live(w), "after abort");
        assert_eq!(line.writer(), w, "an aborted attempt leaves its words");
        let (tx, w) = claiming(&g, slot, &a);
        tx.retire();
        assert!(!g.tag_live(w), "after retire");
        assert_eq!(line.writer(), w);
        let (tx, w) = claiming(&g, slot, &a);
        drop(tx);
        assert!(!g.tag_live(w), "after drop");
        assert_eq!(line.writer(), w);
        g.slots.unregister_raw(slot);
    }

    /// Records, at every redo-log store's yield point, whether `w` reads
    /// live and what `slot`'s state is.
    struct ProbeAtPublish {
        g: std::sync::Arc<HtmGlobal>,
        slot: usize,
        w: u64,
        seen: std::sync::Mutex<Vec<(u32, bool)>>,
    }

    impl sched::Scheduler for ProbeAtPublish {
        fn yield_point(&self, p: YieldPoint) {
            if p == YieldPoint::MemStore {
                let s = self.g.state(self.slot).load(Ordering::SeqCst);
                self.seen.lock().unwrap().push((s, self.g.tag_live(self.w)));
            }
        }
        fn spin_hint(&self, _: YieldPoint) {}
        fn block_enter(&self) {}
        fn block_exit(&self) {}
    }

    #[test]
    fn a_claim_reads_live_through_active_doomed_and_committed() {
        assert!(
            sched::compiled(),
            "tle-htm's tests build tle-base with `check`"
        );
        let g = std::sync::Arc::new(quiet());
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(0u64);
        let (tx, w) = claiming(&g, slot, &a);
        assert_eq!(g.doom(slot), DoomOutcome::Doomed);
        assert!(g.tag_live(w), "a doomed attempt still runs");
        tx.abort(AbortCause::Conflict);
        assert!(!g.tag_live(w));

        let (mut tx, w) = claiming(&g, slot, &a);
        let probe = std::sync::Arc::new(ProbeAtPublish {
            g: std::sync::Arc::clone(&g),
            slot,
            w,
            seen: std::sync::Mutex::new(Vec::new()),
        });
        sched::register(probe.clone());
        let committed = tx.commit_in_place();
        sched::unregister();
        assert_eq!(committed, Ok(()));
        drop(tx);
        assert_eq!(
            *probe.seen.lock().unwrap(),
            [(state::COMMITTED, true)],
            "live while the redo log is published"
        );
        assert!(!g.tag_live(w));
        g.slots.unregister_raw(slot);
    }

    /// Counts the line-mark yield points: one per claim CAS, and one per
    /// reader-bit mark.
    #[derive(Default)]
    struct CountMarks(std::sync::atomic::AtomicU32);

    impl sched::Scheduler for CountMarks {
        fn yield_point(&self, p: YieldPoint) {
            if p == YieldPoint::LineMark {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        fn spin_hint(&self, _: YieldPoint) {}
        fn block_enter(&self) {}
        fn block_exit(&self) {}
    }

    #[test]
    fn an_attempt_reclaims_its_own_stale_word_with_one_cas() {
        assert!(
            sched::compiled(),
            "tle-htm's tests build tle-base with `check`"
        );
        let g = quiet();
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(0u64);
        let li = g.table.index_of(a.addr());
        let (tx, stale) = claiming(&g, slot, &a);
        tx.abort(AbortCause::Explicit);
        assert_eq!(g.table.line(li).writer(), stale);
        let mut tx = g.begin(slot);
        let marks = std::sync::Arc::new(CountMarks::default());
        sched::register(marks.clone());
        let wrote = tx.write(&a, 2u64);
        sched::unregister();
        assert_eq!(wrote, Ok(()));
        assert_eq!(marks.0.load(Ordering::Relaxed), 1, "one claim CAS");
        let w = g.table.line(li).writer();
        assert_ne!(w, stale, "the word holds the new attempt's tag");
        assert_eq!(tag_slot(w), slot);
        assert!(g.tag_live(w));
        tx.commit().unwrap();
        assert_eq!(a.load_direct(), 2);
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn another_slots_stale_word_is_claimed_without_dooming_its_running_attempt() {
        let g = quiet();
        let s1 = g.slots.register_raw().unwrap();
        let s2 = g.slots.register_raw().unwrap();
        let lines = distinct_lines(&g, 2);
        let (a, b) = (&lines[0].0[0], &lines[1].0[0]);
        let li = g.table.index_of(a.addr());
        let (tx, stale) = claiming(&g, s1, a);
        tx.abort(AbortCause::Explicit);
        assert_eq!(g.table.line(li).writer(), stale);
        // s1's next attempt runs, elsewhere.
        let mut t1 = g.begin(s1);
        t1.write(b, 1u64).unwrap();
        let mut t2 = g.begin(s2);
        t2.write(a, 2u64).unwrap();
        let w = g.table.line(li).writer();
        assert_eq!(tag_slot(w), s2, "s2 claimed over the stale word");
        assert_ne!(w, stale);
        assert_eq!(g.state(s1).load(Ordering::SeqCst), state::ACTIVE);
        t1.commit().unwrap();
        t2.commit().unwrap();
        assert_eq!((a.load_direct(), b.load_direct()), (2, 1));
        g.slots.unregister_raw(s1);
        g.slots.unregister_raw(s2);
    }

    #[test]
    fn invalidate_of_a_stale_claimed_line_dooms_nobody() {
        let g = quiet();
        let slot = g.slots.register_raw().unwrap();
        let lines = distinct_lines(&g, 2);
        let (a, b) = (&lines[0].0[0], &lines[1].0[0]);
        let (tx, stale) = claiming(&g, slot, a);
        tx.abort(AbortCause::Explicit);
        assert_eq!(g.table.line(g.table.index_of(a.addr())).writer(), stale);
        // The slot's next attempt runs, elsewhere.
        let mut tx = g.begin(slot);
        tx.write(b, 1u64).unwrap();
        g.invalidate(a);
        assert!(g.try_invalidate(a), "a stale claim reads as a clear line");
        assert_eq!(g.state(slot).load(Ordering::SeqCst), state::ACTIVE);
        tx.commit().unwrap();
        g.slots.unregister_raw(slot);
    }

    /// Every claim resets the registry's begin count, so the tag's count
    /// must come from a word that no claim resets.
    #[test]
    fn a_slot_released_and_reclaimed_1000_times_never_repeats_a_tag() {
        let g = quiet();
        let a = TCell::new(0u64);
        let li = g.table.index_of(a.addr());
        let mut tags = std::collections::HashSet::new();
        let mut slots = std::collections::HashSet::new();
        for v in 1..=1000u64 {
            let slot = g.slots.register_raw().unwrap();
            let mut tx = g.begin(slot);
            tx.write(&a, v).unwrap();
            let w = g.table.line(li).writer();
            tx.commit().unwrap();
            g.slots.unregister_raw(slot);
            assert!(tags.insert(w), "tag {w:#x} repeated at claim {v}");
            slots.insert(slot);
        }
        assert_eq!(
            slots.len(),
            1,
            "the registry handed out one slot throughout"
        );
        assert_eq!(a.load_direct(), 1000);
    }

    // ---- the read fast path's exits -------------------------------------
    //
    // Each test drives one way out of `read_word`'s fast path and checks
    // the cause and the access count the general path (`read_slow`) gives.

    /// Two cells on one cache line.
    #[repr(C, align(64))]
    struct OneLine([TCell<u64>; 2]);

    #[test]
    fn fast_path_exit_read_own_write_from_the_redo_log() {
        let g = quiet();
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(1u64);
        let mut tx = g.begin(slot);
        tx.write(&a, 5u64).unwrap();
        assert_eq!(tx.read(&a), Ok(5), "the buffered value, not memory's");
        assert_eq!(tx.accesses, 2);
        assert!(
            tx.bufs.read_lines.is_empty(),
            "a written line is not re-marked"
        );
        tx.commit().unwrap();
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn fast_path_exit_a_line_already_in_the_write_set() {
        let g = quiet();
        let slot = g.slots.register_raw().unwrap();
        let line = Box::new(OneLine([TCell::new(1), TCell::new(2)]));
        let mut tx = g.begin(slot);
        tx.write(&line.0[0], 7u64).unwrap();
        assert_eq!(tx.read(&line.0[1]), Ok(2), "memory's value: no redo entry");
        assert_eq!(tx.accesses, 2);
        assert!(tx.bufs.read_lines.is_empty(), "the writer owns the line");
        tx.commit().unwrap();
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn fast_path_exit_doomed_before_the_access() {
        let g = quiet();
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(1u64);
        let mut tx = g.begin(slot);
        assert_eq!(g.doom(slot), DoomOutcome::Doomed);
        assert_eq!(tx.read(&a), Err(AbortCause::Conflict));
        assert_eq!(tx.accesses, 0, "the doom check precedes the count");
        assert!(tx.bufs.read_lines.is_empty());
        tx.abort(AbortCause::Conflict);
        g.slots.unregister_raw(slot);
    }

    /// Dooms `slot` at the first line mark it is asked to yield at: after
    /// the access's own doom check, before its load.
    struct DoomAtMark {
        g: std::sync::Arc<HtmGlobal>,
        slot: usize,
        fired: std::sync::atomic::AtomicBool,
    }

    impl sched::Scheduler for DoomAtMark {
        fn yield_point(&self, p: YieldPoint) {
            if p == YieldPoint::LineMark && !self.fired.swap(true, Ordering::Relaxed) {
                self.g.doom(self.slot);
            }
        }
        fn spin_hint(&self, _: YieldPoint) {}
        fn block_enter(&self) {}
        fn block_exit(&self) {}
    }

    #[test]
    fn fast_path_exit_doomed_between_the_mark_and_the_load() {
        assert!(
            sched::compiled(),
            "tle-htm's tests build tle-base with `check`"
        );
        let g = std::sync::Arc::new(quiet());
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(1u64);
        let mut tx = g.begin(slot);
        sched::register(std::sync::Arc::new(DoomAtMark {
            g: std::sync::Arc::clone(&g),
            slot,
            fired: std::sync::atomic::AtomicBool::new(false),
        }));
        let got = tx.read(&a);
        sched::unregister();
        assert_eq!(got, Err(AbortCause::Conflict), "the post-load doom check");
        assert_eq!(tx.accesses, 1);
        assert_eq!(tx.bufs.read_lines.len(), 1, "the line was marked");
        tx.abort(AbortCause::Conflict);
        g.slots.unregister_raw(slot);
    }

    /// Serializes this crate's tests that install a fault plan: the plan
    /// is process-wide.
    static FAULT_PLAN: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// The access index the fault-plan exits fire at. The plan is
    /// process-wide; an index no other test of this crate reaches in one
    /// transaction keeps their accesses clear of it.
    const K: u64 = 128;

    /// Runs `body` with a plan that fires an HTM conflict at access [`K`].
    fn with_conflict_at_k<R>(body: impl FnOnce() -> R) -> R {
        let _serial = FAULT_PLAN.lock().unwrap_or_else(|e| e.into_inner());
        fault::install(
            fault::FaultPlan::new(5)
                .rule(fault::FaultRule::new(Hazard::HtmConflict, 1).at_access(K)),
        );
        let r = body();
        fault::clear();
        r
    }

    #[test]
    fn fast_path_exit_a_fault_plan_firing_at_access_k() {
        let _serial = FAULT_PLAN.lock().unwrap_or_else(|e| e.into_inner());
        let g = quiet();
        let slot = g.slots.register_raw().unwrap();
        let cells: Vec<Box<TCell<u64>>> = (0..=K).map(|i| Box::new(TCell::new(i))).collect();
        fault::install(
            fault::FaultPlan::new(5)
                .rule(fault::FaultRule::new(Hazard::HtmConflict, 1).at_access(K)),
        );
        let mut tx = g.begin(slot);
        let mut got = Ok(0);
        for c in &cells {
            got = tx.read(c);
            if got.is_err() {
                break;
            }
        }
        fault::clear();
        assert_eq!(got, Err(AbortCause::Conflict));
        assert_eq!(tx.accesses, K + 1);
        tx.abort(AbortCause::Conflict);
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn fast_path_exit_an_event_abort_at_probability_one() {
        let g = HtmGlobal::new(HtmConfig {
            event_prob: 1.0,
            ..HtmConfig::default()
        });
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(1u64);
        let mut tx = g.begin(slot);
        assert_eq!(tx.read(&a), Err(AbortCause::Event));
        assert_eq!(tx.accesses, 1);
        assert!(tx.bufs.read_lines.is_empty(), "the draw precedes the mark");
        tx.abort(AbortCause::Event);
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn fast_path_exit_capacity_at_one_line_past_the_cap() {
        const CAP: usize = 4;
        let g = HtmGlobal::new(HtmConfig {
            event_prob: 0.0,
            read_cap_lines: CAP,
            ..HtmConfig::default()
        });
        let slot = g.slots.register_raw().unwrap();
        // Lines on distinct table entries, so each read marks a new one.
        let mut seen = std::collections::HashSet::new();
        let lines: Vec<Box<OneLine>> = (0..64u64)
            .map(|i| Box::new(OneLine([TCell::new(i), TCell::new(0)])))
            .filter(|l| seen.insert(g.table.index_of(l.0[0].addr())))
            .take(CAP + 1)
            .collect();
        assert_eq!(lines.len(), CAP + 1);
        let mut tx = g.begin(slot);
        for l in &lines[..CAP] {
            tx.read(&l.0[0]).unwrap();
        }
        assert_eq!(tx.read(&lines[CAP].0[0]), Err(AbortCause::Capacity));
        assert_eq!(tx.accesses, CAP as u64 + 1);
        tx.abort(AbortCause::Capacity);
        g.slots.unregister_raw(slot);
    }

    // ---- the update barriers' cases ------------------------------------
    //
    // The same cases for `read_word_owned` (`read_for_write`) and
    // `write_word`, which have one path each: each test checks the cause,
    // the access count and the sets the barrier gives.

    #[test]
    fn owned_exit_read_own_write_from_the_redo_log() {
        let g = quiet();
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(1u64);
        let mut tx = g.begin(slot);
        tx.write(&a, 5u64).unwrap();
        assert_eq!(
            tx.read_for_write(&a),
            Ok(5),
            "the buffered value, not memory's"
        );
        assert_eq!(tx.accesses, 2);
        assert_eq!(
            tx.bufs.write_lines.len(),
            1,
            "the line is not claimed twice"
        );
        tx.commit().unwrap();
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn owned_exit_a_line_already_in_the_write_set() {
        let g = quiet();
        let slot = g.slots.register_raw().unwrap();
        let line = Box::new(OneLine([TCell::new(1), TCell::new(2)]));
        let mut tx = g.begin(slot);
        assert_eq!(tx.read_for_write(&line.0[0]), Ok(1));
        assert_eq!(tx.read_for_write(&line.0[1]), Ok(2), "memory's value");
        assert_eq!(tx.accesses, 2);
        assert_eq!(tx.bufs.write_lines.len(), 1, "the line is claimed once");
        assert!(tx.bufs.read_lines.is_empty(), "no reader bit");
        tx.commit().unwrap();
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn owned_exit_doomed_before_the_access() {
        let g = quiet();
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(1u64);
        let mut tx = g.begin(slot);
        assert_eq!(g.doom(slot), DoomOutcome::Doomed);
        assert_eq!(tx.read_for_write(&a), Err(AbortCause::Conflict));
        assert_eq!(tx.accesses, 0, "the doom check precedes the count");
        assert!(tx.bufs.write_lines.is_empty());
        tx.abort(AbortCause::Conflict);
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn owned_exit_doomed_between_the_claim_and_the_load() {
        assert!(
            sched::compiled(),
            "tle-htm's tests build tle-base with `check`"
        );
        let g = std::sync::Arc::new(quiet());
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(1u64);
        let mut tx = g.begin(slot);
        sched::register(std::sync::Arc::new(DoomAtMark {
            g: std::sync::Arc::clone(&g),
            slot,
            fired: std::sync::atomic::AtomicBool::new(false),
        }));
        let got = tx.read_for_write(&a);
        sched::unregister();
        assert_eq!(got, Err(AbortCause::Conflict), "the post-load doom check");
        assert_eq!(tx.accesses, 1);
        assert_eq!(tx.bufs.write_lines.len(), 1, "the line was claimed");
        tx.abort(AbortCause::Conflict);
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn owned_exit_a_fault_plan_firing_at_access_k() {
        let g = quiet();
        let slot = g.slots.register_raw().unwrap();
        let cells: Vec<Box<TCell<u64>>> = (0..=K).map(|i| Box::new(TCell::new(i))).collect();
        let mut tx = g.begin(slot);
        let got = with_conflict_at_k(|| {
            // Reads up to K, so the write set stays inside its capacity.
            for c in &cells[..K as usize] {
                tx.read(c).unwrap();
            }
            tx.read_for_write(&cells[K as usize])
        });
        assert_eq!(got, Err(AbortCause::Conflict));
        assert_eq!(tx.accesses, K + 1);
        assert!(
            tx.bufs.write_lines.is_empty(),
            "the fault precedes the claim"
        );
        tx.abort(AbortCause::Conflict);
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn owned_exit_an_event_abort_at_probability_one() {
        let g = HtmGlobal::new(HtmConfig {
            event_prob: 1.0,
            ..HtmConfig::default()
        });
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(1u64);
        let mut tx = g.begin(slot);
        assert_eq!(tx.read_for_write(&a), Err(AbortCause::Event));
        assert_eq!(tx.accesses, 1);
        assert!(
            tx.bufs.write_lines.is_empty(),
            "the draw precedes the claim"
        );
        tx.abort(AbortCause::Event);
        g.slots.unregister_raw(slot);
    }

    /// `n` cells on distinct table entries, one per line. Boxed, so each
    /// keeps the address its entry was judged by.
    #[allow(clippy::vec_box)]
    fn distinct_lines(g: &HtmGlobal, n: usize) -> Vec<Box<OneLine>> {
        let mut seen = std::collections::HashSet::new();
        let lines: Vec<Box<OneLine>> = (0..64u64)
            .map(|i| Box::new(OneLine([TCell::new(i), TCell::new(0)])))
            .filter(|l| seen.insert(g.table.index_of(l.0[0].addr())))
            .take(n)
            .collect();
        assert_eq!(lines.len(), n);
        lines
    }

    #[test]
    fn owned_exit_capacity_at_one_line_past_the_cap() {
        const CAP: usize = 4;
        let g = HtmGlobal::new(HtmConfig {
            event_prob: 0.0,
            write_cap_lines: CAP,
            ..HtmConfig::default()
        });
        let slot = g.slots.register_raw().unwrap();
        let lines = distinct_lines(&g, CAP + 1);
        let mut tx = g.begin(slot);
        for l in &lines[..CAP] {
            tx.read_for_write(&l.0[0]).unwrap();
        }
        assert_eq!(
            tx.read_for_write(&lines[CAP].0[0]),
            Err(AbortCause::Capacity)
        );
        assert_eq!(tx.accesses, CAP as u64 + 1);
        tx.abort(AbortCause::Capacity);
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn write_exit_an_address_already_in_the_redo_log() {
        let g = quiet();
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(1u64);
        let mut tx = g.begin(slot);
        tx.write(&a, 5u64).unwrap();
        tx.write(&a, 6u64).unwrap();
        assert_eq!(tx.accesses, 2);
        assert_eq!(tx.bufs.redo.len(), 1, "the entry is overwritten");
        assert_eq!(tx.bufs.redo[0].2, 6);
        tx.commit().unwrap();
        assert_eq!(a.load_direct(), 6);
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn write_exit_a_line_already_in_the_write_set() {
        let g = quiet();
        let slot = g.slots.register_raw().unwrap();
        let line = Box::new(OneLine([TCell::new(1), TCell::new(2)]));
        let mut tx = g.begin(slot);
        tx.write(&line.0[0], 7u64).unwrap();
        tx.write(&line.0[1], 8u64).unwrap();
        assert_eq!(tx.accesses, 2);
        assert_eq!(tx.bufs.write_lines.len(), 1, "the line is claimed once");
        assert_eq!(tx.bufs.redo.len(), 2, "one entry per address");
        tx.commit().unwrap();
        assert_eq!((line.0[0].load_direct(), line.0[1].load_direct()), (7, 8));
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn write_exit_doomed_before_the_access() {
        let g = quiet();
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(1u64);
        let mut tx = g.begin(slot);
        assert_eq!(g.doom(slot), DoomOutcome::Doomed);
        assert_eq!(tx.write(&a, 2u64), Err(AbortCause::Conflict));
        assert_eq!(tx.accesses, 0, "the doom check precedes the count");
        assert!(tx.bufs.write_lines.is_empty());
        assert!(tx.bufs.redo.is_empty());
        tx.abort(AbortCause::Conflict);
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn write_exit_doomed_between_the_claim_and_the_append() {
        assert!(
            sched::compiled(),
            "tle-htm's tests build tle-base with `check`"
        );
        let g = std::sync::Arc::new(quiet());
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(1u64);
        let mut tx = g.begin(slot);
        sched::register(std::sync::Arc::new(DoomAtMark {
            g: std::sync::Arc::clone(&g),
            slot,
            fired: std::sync::atomic::AtomicBool::new(false),
        }));
        let got = tx.write(&a, 2u64);
        sched::unregister();
        assert_eq!(got, Err(AbortCause::Conflict), "the post-access doom check");
        assert_eq!(tx.accesses, 1);
        assert_eq!(tx.bufs.write_lines.len(), 1, "the line was claimed");
        assert_eq!(tx.bufs.redo.len(), 1, "the append precedes the check");
        tx.abort(AbortCause::Conflict);
        assert_eq!(a.load_direct(), 1);
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn write_exit_a_fault_plan_firing_at_access_k() {
        let g = quiet();
        let slot = g.slots.register_raw().unwrap();
        let cells: Vec<Box<TCell<u64>>> = (0..=K).map(|i| Box::new(TCell::new(i))).collect();
        let mut tx = g.begin(slot);
        let got = with_conflict_at_k(|| {
            for c in &cells[..K as usize] {
                tx.read(c).unwrap();
            }
            tx.write(&cells[K as usize], 1u64)
        });
        assert_eq!(got, Err(AbortCause::Conflict));
        assert_eq!(tx.accesses, K + 1);
        assert!(
            tx.bufs.write_lines.is_empty(),
            "the fault precedes the claim"
        );
        assert!(tx.bufs.redo.is_empty());
        tx.abort(AbortCause::Conflict);
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn write_exit_an_event_abort_at_probability_one() {
        let g = HtmGlobal::new(HtmConfig {
            event_prob: 1.0,
            ..HtmConfig::default()
        });
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(1u64);
        let mut tx = g.begin(slot);
        assert_eq!(tx.write(&a, 2u64), Err(AbortCause::Event));
        assert_eq!(tx.accesses, 1);
        assert!(
            tx.bufs.write_lines.is_empty(),
            "the draw precedes the claim"
        );
        assert!(tx.bufs.redo.is_empty());
        tx.abort(AbortCause::Event);
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn write_exit_capacity_at_one_line_past_the_cap() {
        const CAP: usize = 4;
        let g = HtmGlobal::new(HtmConfig {
            event_prob: 0.0,
            write_cap_lines: CAP,
            ..HtmConfig::default()
        });
        let slot = g.slots.register_raw().unwrap();
        let lines = distinct_lines(&g, CAP + 1);
        let mut tx = g.begin(slot);
        for l in &lines[..CAP] {
            tx.write(&l.0[0], 1u64).unwrap();
        }
        assert_eq!(tx.write(&lines[CAP].0[0], 1u64), Err(AbortCause::Capacity));
        assert_eq!(tx.accesses, CAP as u64 + 1);
        assert_eq!(
            tx.bufs.redo.len(),
            CAP,
            "the over-cap write buffers nothing"
        );
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
