//! # tle-htm — a simulated best-effort hardware transactional memory
//!
//! The paper's HTM experiments run on Intel TSX (RTM) on a Haswell i7-4770.
//! Rust cannot reproduce that directly: RTM intrinsics exist, but without TM
//! compiler support every transactional access would still need manual
//! instrumentation, and the grading environment has no TSX hardware. Per the
//! substitution rule (DESIGN.md §3.1), this crate implements a **software
//! simulation of a best-effort HTM** that preserves the behavioural envelope
//! the paper's evaluation depends on:
//!
//! - **Eager conflict detection at cache-line granularity.** Each 64-byte
//!   line maps to a table entry carrying a reader bitmap and a writer tag.
//!   Accesses "doom" conflicting transactions the way MESI invalidations
//!   abort real hardware transactions (requester-wins).
//! - **Bounded capacity.** Read/write sets are limited to a configurable
//!   number of lines (default 512 read / 128 written ≈ an L1 footprint);
//!   overflow aborts with [`AbortCause::Capacity`].
//! - **Asynchronous events.** Real hardware transactions die on interrupts,
//!   SMIs and TLB misses; the simulator injects seeded random
//!   [`AbortCause::Event`] aborts at a configurable per-access probability.
//! - **No escape for unsafe operations.** Anything irrevocable inside a
//!   hardware transaction ([`HtmTx::unsafe_op`]) aborts with
//!   [`AbortCause::Unsafe`], which the TLE policy layer maps straight to the
//!   serial fallback — mirroring how GCC's HTM TLE serializes on syscalls.
//! - **Strong atomicity at commit.** Stores are buffered in a redo log and
//!   only published after the transaction wins its commit point, so no
//!   quiescence is ever needed (paper §IV: "In HTM, such accesses are not
//!   possible").
//!
//! [`AbortCause`]: tle_base::AbortCause

mod table;
mod tx;

pub use table::LineTable;
pub use tx::HtmTx;

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use tle_base::mutant::{self, Mutant};
use tle_base::stats::TxStats;
use tle_base::{AbortCause, Padded, SlotRegistry};

/// Tuning knobs for the simulated hardware.
#[derive(Debug, Clone)]
pub struct HtmConfig {
    /// Maximum distinct cache lines a transaction may read.
    pub read_cap_lines: usize,
    /// Maximum distinct cache lines a transaction may write.
    pub write_cap_lines: usize,
    /// Per-access probability of a simulated asynchronous event abort.
    pub event_prob: f64,
    /// Seed for the event-abort RNG (deterministic runs).
    pub seed: u64,
}

impl Default for HtmConfig {
    fn default() -> Self {
        HtmConfig {
            read_cap_lines: 512,
            write_cap_lines: 128,
            event_prob: 2e-4,
            seed: 0xC0FFEE,
        }
    }
}

/// Per-slot transaction lifecycle state, used by the dooming protocol.
pub(crate) mod state {
    pub const IDLE: u32 = 0;
    pub const ACTIVE: u32 = 1;
    pub const DOOMED: u32 = 2;
    pub const COMMITTED: u32 = 3;
}

/// Result of trying to doom a conflicting transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DoomOutcome {
    /// Victim was active and is now doomed (requester wins).
    Doomed,
    /// Victim already won its commit point; the requester must self-abort.
    Committing,
    /// Victim was idle or already doomed; nothing to do.
    Gone,
}

/// A slot's lifecycle word and its writer tag, on one padded line: an
/// observer judging a writer word ([`HtmGlobal::tag_live`]) reads both from
/// the line it would load for the state alone.
pub(crate) struct SlotState {
    pub(crate) state: AtomicU32,
    /// The writer tag of the slot's latest attempt: the slot + 1 in the low
    /// byte (so a tag is never 0, "no writer"), and above it the number of
    /// attempts ever begun on the slot. Never reset — not when the slot is
    /// released or claimed again — so no two attempts on one slot share a
    /// tag. Only the slot's current owner writes it.
    pub(crate) tag: AtomicU64,
}

impl SlotState {
    fn new(slot: usize) -> Self {
        SlotState {
            state: AtomicU32::new(state::IDLE),
            tag: AtomicU64::new(slot as u64 + 1),
        }
    }

    /// Advance the tag to the next attempt's: one more attempt counted
    /// above the slot byte. The owner's load and store, no RMW.
    #[inline(always)]
    pub(crate) fn next_tag(&self) {
        // tle-lint: allow(R8, "the slot's owner reads back its own tag; the claim that made it the owner ordered every earlier owner's store")
        let t = self.tag.load(Ordering::Relaxed);
        self.tag.store(t + TAG_ATTEMPT, Ordering::Release);
    }

    /// The current attempt's tag, read back by the attempt itself.
    #[inline(always)]
    pub(crate) fn own_tag(&self) -> u64 {
        // tle-lint: allow(R8, "the slot's owner reads back the tag it stored itself")
        self.tag.load(Ordering::Relaxed)
    }
}

/// One attempt in a writer tag: the count sits above the slot byte.
const TAG_ATTEMPT: u64 = 1 << 8;

/// The slot byte of a non-zero writer word (the slot + 1).
#[inline(always)]
pub(crate) fn tag_byte(w: u64) -> u8 {
    w as u8
}

/// The slot that wrote the non-zero writer word `w`.
#[inline(always)]
pub(crate) fn tag_slot(w: u64) -> usize {
    tag_byte(w) as usize - 1
}

/// Shared state of the simulated HTM: the conflict table, per-slot
/// lifecycle words, and statistics.
pub struct HtmGlobal {
    pub(crate) table: LineTable,
    /// Slot identities; at most 64 concurrent hardware transactions (the
    /// reader bitmap is a `u64`).
    pub slots: SlotRegistry,
    tx_state: [Padded<SlotState>; tle_base::slots::MAX_SLOTS],
    /// Statistics (aborts by cause in [`TxStats::cause`]), one row per
    /// slot, bumped by the transaction running on it.
    pub stats: TxStats,
    pub(crate) config: HtmConfig,
    /// `config.event_prob` as the integer threshold of the per-access
    /// draw ([`tle_base::rng::chance_threshold`]; 0: no draw).
    pub(crate) event_threshold: u64,
}

impl HtmGlobal {
    /// A fresh simulated-HTM domain.
    pub fn new(config: HtmConfig) -> Self {
        HtmGlobal {
            table: LineTable::new(),
            slots: SlotRegistry::new(),
            tx_state: std::array::from_fn(|slot| Padded(SlotState::new(slot))),
            stats: TxStats::new(),
            event_threshold: tle_base::rng::chance_threshold(config.event_prob),
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &HtmConfig {
        &self.config
    }

    /// Begin a hardware transaction on the thread occupying `slot_idx`.
    pub fn begin(&self, slot_idx: usize) -> HtmTx<'_> {
        HtmTx::begin(self, slot_idx)
    }

    /// Try to doom the transaction in `victim_slot` (requester-wins).
    pub(crate) fn doom(&self, victim_slot: usize) -> DoomOutcome {
        match self.state(victim_slot).compare_exchange(
            state::ACTIVE,
            state::DOOMED,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => {
                tle_base::trace::emit(
                    tle_base::trace::TraceKind::Conflict,
                    tle_base::trace::TxMode::Htm,
                    Some(AbortCause::Conflict),
                    victim_slot as u64,
                );
                DoomOutcome::Doomed
            }
            Err(s) if s == state::COMMITTED => DoomOutcome::Committing,
            Err(_) => DoomOutcome::Gone,
        }
    }

    /// Invalidate `cell`'s cache line as a non-transactional access would:
    /// every hardware transaction holding the line in its read or write set
    /// is doomed, and transactions already past their commit point are
    /// waited out (real coherence orders their stores before ours). This is
    /// the primitive that makes glibc-style lock elision sound — the
    /// fallback path's write to the lock word kills subscribed
    /// transactions.
    pub fn invalidate<T: tle_base::TxVal>(&self, cell: &tle_base::TCell<T>) {
        let li = self.table.index_of(cell.addr());
        let line = self.table.line(li);
        loop {
            // A claim whose attempt has ended reads as a clear line.
            let w = line.writer();
            if w == 0 || !self.tag_live(w) {
                break;
            }
            match self.doom(tag_slot(w)) {
                DoomOutcome::Committing => self.wait_not_committed(tag_slot(w)),
                DoomOutcome::Doomed | DoomOutcome::Gone => {
                    let _ = line.cas_writer(w, 0);
                }
            }
        }
        let mut bits = line.readers();
        while bits != 0 {
            let victim = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if self.doom(victim) == DoomOutcome::Committing {
                self.wait_not_committed(victim);
            }
        }
    }

    /// Non-blocking [`HtmGlobal::invalidate`]: dooms every transaction
    /// holding `cell`'s line, but where the blocking form waits out a
    /// transaction already past its commit point, this returns `false` and
    /// the caller re-calls after yielding (re-dooming is idempotent — a
    /// doomed or finished victim is skipped on the next round). `true`
    /// means the line is clear, with the same ordering guarantee as the
    /// blocking form. This is the async adaptive-lock path's primitive: an
    /// executor worker must not spin on another slot's commit.
    pub fn try_invalidate<T: tle_base::TxVal>(&self, cell: &tle_base::TCell<T>) -> bool {
        let li = self.table.index_of(cell.addr());
        let line = self.table.line(li);
        let mut clear = true;
        loop {
            let w = line.writer();
            if w == 0 || !self.tag_live(w) {
                break;
            }
            match self.doom(tag_slot(w)) {
                DoomOutcome::Committing => {
                    clear = false;
                    break;
                }
                DoomOutcome::Doomed | DoomOutcome::Gone => {
                    let _ = line.cas_writer(w, 0);
                }
            }
        }
        let mut bits = line.readers();
        while bits != 0 {
            let victim = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if self.doom(victim) == DoomOutcome::Committing
                && self.state(victim).load(Ordering::SeqCst) == state::COMMITTED
            {
                clear = false;
            }
        }
        clear
    }

    /// Non-transactional store: invalidate the line, then write.
    pub fn nontx_store<T: tle_base::TxVal>(&self, cell: &tle_base::TCell<T>, v: T) {
        self.invalidate(cell);
        cell.store_direct(v);
    }

    /// Doom **every** active transaction in the domain, and wait out any
    /// transaction already past its commit point (its redo log finishes
    /// publishing before this returns).
    ///
    /// This is the lazy-subscription lock path's primitive: a lazily
    /// subscribed transaction never puts the fallback lock word in its read
    /// set, so [`invalidate`](Self::invalidate)-ing the lock word cannot
    /// reach it — the acquisition must sweep the slot table instead (the
    /// "doom on acquire" half of making lazy subscription safe, after Dice
    /// et al.).
    pub fn doom_all_active(&self) {
        tle_base::sched::yield_point(tle_base::sched::YieldPoint::TxState);
        for slot in 0..tle_base::slots::MAX_SLOTS {
            if self.doom(slot) == DoomOutcome::Committing {
                self.wait_not_committed(slot);
            }
        }
    }

    /// Non-blocking [`doom_all_active`](Self::doom_all_active): dooms every
    /// active transaction but returns `false` instead of spinning when a
    /// slot is mid-commit; the caller yields and re-calls (re-dooming is
    /// idempotent). The async lazy lock path's primitive, mirroring
    /// [`try_invalidate`](Self::try_invalidate).
    pub fn try_doom_all_active(&self) -> bool {
        tle_base::sched::yield_point(tle_base::sched::YieldPoint::TxState);
        let mut clear = true;
        for slot in 0..tle_base::slots::MAX_SLOTS {
            if self.doom(slot) == DoomOutcome::Committing
                && self.state(slot).load(Ordering::SeqCst) == state::COMMITTED
            {
                clear = false;
            }
        }
        clear
    }

    /// The serial side's presence sweep: whether every ever-claimed slot's
    /// lifecycle word reads `IDLE`, with `SeqCst` loads — the load half of
    /// the serial handshake whose store half is a transaction's begin
    /// (`ACTIVE`) and its last store on every exit path (`IDLE`). A slot
    /// past its commit point reads busy until its redo log is published.
    pub fn all_idle(&self) -> bool {
        (0..self.slots.high_water())
            .all(|slot| self.state(slot).load(Ordering::SeqCst) == state::IDLE)
    }

    fn wait_not_committed(&self, slot: usize) {
        let mut spins = 0u32;
        while self.state(slot).load(Ordering::SeqCst) == state::COMMITTED {
            spins += 1;
            // The committing slot needs to run for this wait to end.
            tle_base::sched::spin_hint(tle_base::sched::YieldPoint::TxState);
            if spins < 32 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Whether the attempt that wrote the non-zero writer word `w` is still
    /// running: its slot is not `IDLE` (a `SeqCst` load, ordered after the
    /// caller's load of `w`) and the slot's tag still equals `w`. Never
    /// `false` for a running attempt: its state is not `IDLE` until its
    /// last store, and only its own `begin` advances the slot's tag. A
    /// just-finished attempt's tag may still read `true`; that costs a
    /// false conflict with the slot's next attempt at most.
    #[inline]
    pub(crate) fn tag_live(&self, w: u64) -> bool {
        let slot = self.slot_state(tag_slot(w));
        let s = slot.state.load(Ordering::SeqCst);
        // Seeded bug (`HtmCommittedClaimReadsStale`): a writer past its
        // commit point reads as finished, so a reader marks the line and
        // loads while the writer's redo log is half published.
        if s == state::IDLE
            || (s == state::COMMITTED && mutant::armed(Mutant::HtmCommittedClaimReadsStale))
        {
            return false;
        }
        slot.tag.load(Ordering::Acquire) == w
    }

    /// The lifecycle word of `slot`.
    #[inline]
    pub(crate) fn state(&self, slot: usize) -> &AtomicU32 {
        &self.slot_state(slot).state
    }

    /// `slot`'s padded line. Release builds mask the slot, so no access
    /// carries a bounds check; debug builds still reject a slot the
    /// registry could not have handed out.
    #[inline]
    pub(crate) fn slot_state(&self, slot: usize) -> &SlotState {
        debug_assert!(
            slot < tle_base::slots::MAX_SLOTS,
            "slot {slot} out of range"
        );
        &self.tx_state[slot & (tle_base::slots::MAX_SLOTS - 1)]
    }
}

impl Default for HtmGlobal {
    fn default() -> Self {
        Self::new(HtmConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tle_base::stats::Stat;
    use tle_base::TCell;

    fn quiet_config() -> HtmConfig {
        HtmConfig {
            event_prob: 0.0,
            ..HtmConfig::default()
        }
    }

    #[test]
    fn single_thread_commit_makes_its_writes_visible() {
        let g = HtmGlobal::new(quiet_config());
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(1u64);
        let b = TCell::new(2u64);

        let mut tx = g.begin(slot);
        let va = tx.read(&a).unwrap();
        tx.write(&b, va + 10).unwrap();
        // Lazy versioning: not visible until commit.
        assert_eq!(b.load_direct(), 2);
        tx.commit().unwrap();
        assert_eq!(b.load_direct(), 11);
        assert_eq!(g.stats.get(Stat::Commits), 1);
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn aborted_writes_never_become_visible() {
        let g = HtmGlobal::new(quiet_config());
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(5u64);
        let mut tx = g.begin(slot);
        tx.write(&a, 99u64).unwrap();
        tx.abort(AbortCause::Explicit);
        assert_eq!(a.load_direct(), 5);
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn read_own_write_sees_buffered_value() {
        let g = HtmGlobal::new(quiet_config());
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(1u64);
        let mut tx = g.begin(slot);
        tx.write(&a, 7u64).unwrap();
        assert_eq!(tx.read(&a).unwrap(), 7);
        tx.commit().unwrap();
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn writer_dooms_concurrent_reader() {
        let g = HtmGlobal::new(quiet_config());
        let s1 = g.slots.register_raw().unwrap();
        let s2 = g.slots.register_raw().unwrap();
        let a = TCell::new(0u64);

        let mut reader = g.begin(s1);
        assert_eq!(reader.read(&a).unwrap(), 0);

        let mut writer = g.begin(s2);
        writer.write(&a, 1u64).unwrap();
        writer.commit().unwrap();

        // The reader was doomed by the conflicting write.
        let r = reader.read(&a);
        assert!(r.is_err(), "doomed reader must observe its doom");
        reader.abort(r.unwrap_err());
        assert!(g.stats.cause(AbortCause::Conflict) >= 1);
        g.slots.unregister_raw(s1);
        g.slots.unregister_raw(s2);
    }

    #[test]
    fn reader_dooms_active_writer() {
        let g = HtmGlobal::new(quiet_config());
        let s1 = g.slots.register_raw().unwrap();
        let s2 = g.slots.register_raw().unwrap();
        let a = TCell::new(0u64);

        let mut writer = g.begin(s1);
        writer.write(&a, 1u64).unwrap();

        // Requester-wins: the reader invalidates the writer's line.
        let mut reader = g.begin(s2);
        assert_eq!(
            reader.read(&a).unwrap(),
            0,
            "must see pre-transactional value"
        );
        reader.commit().unwrap();

        let r = writer.commit();
        assert!(r.is_err(), "doomed writer must fail to commit");
        assert_eq!(a.load_direct(), 0);
        g.slots.unregister_raw(s1);
        g.slots.unregister_raw(s2);
    }

    #[test]
    fn capacity_abort_on_write_set_overflow() {
        let mut cfg = quiet_config();
        cfg.write_cap_lines = 4;
        let g = HtmGlobal::new(cfg);
        let slot = g.slots.register_raw().unwrap();
        // Distinct cache lines: boxed cells spread across the heap.
        let cells: Vec<Box<TCell<u64>>> = (0..64).map(|i| Box::new(TCell::new(i))).collect();
        let mut tx = g.begin(slot);
        let mut failed = None;
        for c in &cells {
            if let Err(e) = tx.write(c, 1u64) {
                failed = Some(e);
                break;
            }
        }
        assert_eq!(failed, Some(AbortCause::Capacity));
        tx.abort(AbortCause::Capacity);
        assert_eq!(g.stats.cause(AbortCause::Capacity), 1);
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn unsafe_op_aborts_with_unsafe_cause() {
        let g = HtmGlobal::new(quiet_config());
        let slot = g.slots.register_raw().unwrap();
        let mut tx = g.begin(slot);
        let r = tx.unsafe_op();
        assert_eq!(r, Err(AbortCause::Unsafe));
        tx.abort(AbortCause::Unsafe);
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn event_aborts_fire_at_configured_rate() {
        let cfg = HtmConfig {
            event_prob: 0.05,
            ..HtmConfig::default()
        };
        let g = HtmGlobal::new(cfg);
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(0u64);
        let mut events = 0;
        for _ in 0..2000 {
            let mut tx = g.begin(slot);
            match tx.read(&a) {
                Ok(_) => {
                    let _ = tx.commit();
                }
                Err(AbortCause::Event) => {
                    events += 1;
                    tx.abort(AbortCause::Event);
                }
                Err(e) => tx.abort(e),
            }
        }
        assert!(events > 20, "expected some event aborts, got {events}");
        assert!(events < 400, "far too many event aborts: {events}");
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn concurrent_counter_is_exact() {
        let g = std::sync::Arc::new(HtmGlobal::new(quiet_config()));
        let c = std::sync::Arc::new(TCell::new(0u64));
        const THREADS: usize = 8;
        const OPS: u64 = 2_000;
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let g = std::sync::Arc::clone(&g);
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    let slot = g.slots.register_raw().unwrap();
                    for _ in 0..OPS {
                        loop {
                            let mut tx = g.begin(slot);
                            let body = tx.read(&*c).and_then(|v| tx.write(&*c, v + 1));
                            match body {
                                Ok(()) => {
                                    if tx.commit().is_ok() {
                                        break;
                                    }
                                }
                                Err(e) => tx.abort(e),
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
        assert_eq!(c.load_direct(), THREADS as u64 * OPS);
    }
}
