//! Quiescence: the privatization-safety drain (paper §IV).
//!
//! When a transaction commits at time `W` and the code after it accesses
//! data the transaction made thread-private, a concurrent transaction that
//! started before `W` may still be running — doomed to abort — and in a
//! write-through STM its *undo writes* can land on the privatized data after
//! the privatizer has moved on. GCC's `ml_wt` therefore drains: the
//! committing thread waits until every concurrent transaction with an older
//! start time has committed, or aborted and finished rolling back.
//!
//! The drain is an RCU-style epoch scan: sweep every thread slot until each
//! published start time is `INACTIVE` or ≥ `upto`. The commit makes the
//! first sweep inline; only a fault plan or a straggler makes a
//! [`QuiesceTicket`], which continues that sweep under both drivers — spun
//! out on the committing thread by the sync one, handed back by a commit
//! inside [`defer_drain`] and polled once per poll by the async one.
//! Doomed transactions are guaranteed to make progress out of the window:
//! their next read observes the advanced clock, fails validation, and the
//! abort path deactivates the slot; a transaction that instead keeps running
//! will extend (republished, larger start) — either way the scan terminates.
//!
//! The paper's observations reproduced by this module:
//! - cost is linear in thread count (one cache miss per active slot);
//! - a long-running transaction blocks *unrelated* committers (lock erasure
//!   makes the drain global);
//! - paradoxically, the drain acts as congestion control under high
//!   contention (§VII-C) — committers pause instead of immediately starting
//!   the next conflicting transaction.

use std::cell::Cell;
use std::time::Instant;
use tle_base::fault::{self, Hazard};
use tle_base::sched::{self, YieldPoint};
use tle_base::stats::{fmt_ns, Stat, TxStats};
use tle_base::trace::{self, TraceKind, TxMode};
#[cfg(test)]
use tle_base::INACTIVE;
use tle_base::{AbortCause, SlotRegistry};

/// Quiescence policy for an STM domain: the paper's Figure 5 switch
/// between the "STM" and "NoQ" configurations. "SelectNoQ" is `Always` with
/// the `TM_NoQuiesce` annotations honoured, which the algorithm mode
/// decides (`tle-core`'s `StmCondvarNoQuiesce`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum QuiescePolicy {
    /// Drain after every writer commit unless the transaction called
    /// `TM_NoQuiesce` ([`crate::StmTx::no_quiesce`]) — GCC ≥ 2016, which
    /// supports proxy privatization. The paper's "STM" baseline.
    Always = 0,
    /// Never drain, except for allocator-mandated frees. The paper's "NoQ" —
    /// fast but *not privatization-safe in general*; safe here only because
    /// our runtime never dereferences recycled memory non-transactionally
    /// (type-stable word cells), but application-level invariants mirroring
    /// C++ would be racy. Provided for the Figure 5 comparison.
    Never = 1,
}

impl QuiescePolicy {
    /// Decode from the atomic representation.
    pub fn from_u8(v: u8) -> Self {
        match v {
            0 => QuiescePolicy::Always,
            _ => QuiescePolicy::Never,
        }
    }
}

/// Deadline supervision for a quiescence drain.
///
/// A drain that waits past `deadline_ns` *trips* the watchdog: the trip is
/// counted in [`Stat::WatchdogTrips`], a `QuiesceStall` trace event is
/// emitted, and a per-cause abort report is dumped to stderr — then the
/// drain keeps waiting. The watchdog turns a silent stall into a diagnosed
/// one; it never gives up, because abandoning the drain would break
/// privatization safety.
pub struct Watchdog<'a> {
    /// Trip once the drain has waited longer than this.
    pub deadline_ns: u64,
    /// Where to count the trip (and the source of the dumped report).
    pub stats: &'a TxStats,
    /// The draining slot, whose stats row takes the trip (an *owned* bump:
    /// the drainer holds the slot claim until the drain completes).
    pub shard: usize,
}

impl Watchdog<'_> {
    /// Record a trip and dump the diagnosis. Called at most once per drain.
    fn trip(&self, waited_ns: u64, upto: u64) {
        self.stats.bump_owned(self.shard, Stat::WatchdogTrips);
        trace::emit(TraceKind::QuiesceStall, TxMode::Stm, None, waited_ns);
        let snap = self.stats.snapshot();
        let mut report = format!(
            "quiesce watchdog: drain upto={} waited {} (deadline {}); \
             commits={} aborts={} per-cause:",
            upto,
            fmt_ns(waited_ns),
            fmt_ns(self.deadline_ns),
            snap.commits,
            snap.aborts,
        );
        for cause in AbortCause::ALL {
            let n = snap.cause(cause);
            if n > 0 {
                report.push_str(&format!(" {}={}", cause.label(), n));
            }
        }
        eprintln!("{report}");
    }
}

/// A post-commit drain owed by a committed transaction, continued after
/// the commit's inline first sweep met a fault plan or a straggler.
///
/// The commit itself has already happened — clock advanced, orecs released,
/// slot deactivated — and only the privatization drain remains. There is one
/// drain: the commit makes its first sweep inline, and the ticket continues
/// it with `pass`, a single non-blocking sweep of the slot
/// registry. The sync driver repeats it on the calling thread (`spin`) while
/// a straggler stays; the async driver, whose commits hand the ticket back
/// ([`defer_drain`]), calls
/// [`StmGlobal::quiesce_pass`](crate::StmGlobal::quiesce_pass) once per
/// poll, yielding the executor worker between passes. Termination: atomic
/// blocks never suspend mid-speculation (they are synchronous closures; lint
/// rule R6 enforces it), so every straggler the sweep observes is running on
/// some live thread or task and must commit, abort, or extend past `upto` in
/// bounded steps.
///
/// A drain that passes on its first sweep — every uncontended commit — makes
/// no ticket and reads no clock: the timer starts when a sweep first finds a
/// straggler (or before a stall the fault plane injects, so the stall counts
/// as waiting time and can drive the watchdog past its deadline).
///
/// Watchdog supervision carries over: a ticket that stays blocked past the
/// domain's drain deadline trips once (report + counter), then keeps
/// polling — abandoning the drain would break privatization safety.
pub struct QuiesceTicket {
    pub(crate) upto: u64,
    pub(crate) slot_idx: usize,
    /// The committing *transaction's* retry-time budget, when it has one
    /// (`TxHints::with_deadline` upstream). A drain that outlives it emits
    /// one `DeadlineExceeded` trace event — observation only: the commit
    /// has already happened and abandoning the drain would break
    /// privatization safety, so the drain still runs to completion and the
    /// budget overrun surfaces to the *next* retry-ladder decision point.
    pub(crate) tx_deadline: Option<Instant>,
    /// When the first blocked pass was seen (`None` until a sweep finds a
    /// straggler: a ticket that drains on its first sweep never reads the
    /// clock).
    blocked_since: Option<Instant>,
    /// Whether the first pass — the one that continues the commit's inline
    /// sweep, consults the fault plane and has no yield point of its own —
    /// ran.
    swept: bool,
    tripped: bool,
    budget_noted: bool,
}

impl QuiesceTicket {
    pub(crate) fn new(upto: u64, slot_idx: usize, tx_deadline: Option<Instant>) -> Self {
        QuiesceTicket {
            upto,
            slot_idx,
            tx_deadline,
            blocked_since: None,
            swept: false,
            tripped: false,
            budget_noted: false,
        }
    }

    /// One non-blocking sweep. `Some(waited_ns)` once every older slot has
    /// drained (0 when the very first sweep was already clean); `None`
    /// while a straggler is still inside the window. The first pass
    /// continues the commit's inline sweep, whose yield point it shares;
    /// every later one is its own preemption candidate.
    pub(crate) fn pass(&mut self, slots: &SlotRegistry, dog: &Watchdog<'_>) -> Option<u64> {
        if !self.swept {
            self.swept = true;
            if fault::enabled() {
                self.inject_delay(dog);
            }
        } else {
            sched::yield_point(YieldPoint::QuiesceScan);
        }
        if !straggler(slots, self.slot_idx, self.upto) {
            let Some(since) = self.blocked_since else {
                return Some(0);
            };
            let ns = since.elapsed().as_nanos() as u64;
            trace::emit(TraceKind::QuiesceEnd, TxMode::Stm, None, ns);
            return Some(ns);
        }
        self.blocked(dog);
        None
    }

    /// The end of a pass that found a straggler: start the timer on the
    /// first such pass, then hand the token on and supervise.
    fn blocked(&mut self, dog: &Watchdog<'_>) {
        let since = *self.blocked_since.get_or_insert_with(|| {
            trace::emit(TraceKind::QuiesceStart, TxMode::Stm, None, self.upto);
            Instant::now()
        });
        sched::spin_hint(YieldPoint::QuiesceScan);
        self.supervise(since, dog);
    }

    /// Fault oracle: delay the drain itself. The timer starts before the
    /// injected stall so the stall counts as waiting time and can drive the
    /// watchdog past its deadline.
    #[cold]
    fn inject_delay(&mut self, dog: &Watchdog<'_>) {
        let t0 = Instant::now();
        if fault::maybe_stall(Hazard::QuiesceDelay) == 0 {
            return;
        }
        trace::emit(
            TraceKind::FaultInject,
            TxMode::Stm,
            None,
            Hazard::QuiesceDelay.index() as u64,
        );
        trace::emit(TraceKind::QuiesceStart, TxMode::Stm, None, self.upto);
        self.blocked_since = Some(t0);
        self.supervise(t0, dog);
    }

    /// Watchdog supervision of a drain that has been waiting since `since`:
    /// trip once past the domain's drain deadline, note once an overrun of
    /// the transaction's own budget.
    fn supervise(&mut self, since: Instant, dog: &Watchdog<'_>) {
        let ns = since.elapsed().as_nanos() as u64;
        if !self.tripped && ns > dog.deadline_ns {
            self.tripped = true;
            dog.trip(ns, self.upto);
        }
        if !self.budget_noted && self.tx_deadline.is_some_and(|t| Instant::now() >= t) {
            self.budget_noted = true;
            trace::emit(TraceKind::DeadlineExceeded, TxMode::Stm, None, ns);
        }
    }

    /// Repeat [`pass`](Self::pass) on the calling thread until the drain
    /// completes; returns the nanoseconds it waited.
    pub(crate) fn spin(&mut self, slots: &SlotRegistry, dog: &Watchdog<'_>) -> u64 {
        let mut spins = 0u32;
        loop {
            if let Some(ns) = self.pass(slots, dog) {
                return ns;
            }
            spins += 1;
            if spins < 16 {
                std::hint::spin_loop();
            } else {
                // The straggler is likely descheduled; give it the CPU.
                std::thread::yield_now();
            }
        }
    }
}

thread_local! {
    /// Whether a commit on this thread hands a drain its first sweep cannot
    /// finish back instead of spinning it out ([`defer_drain`]).
    static DEFER: Cell<bool> = const { Cell::new(false) };
    /// The drain a deferring commit on this thread handed back.
    static OWED: Cell<Option<QuiesceTicket>> = const { Cell::new(None) };
}

/// Run one transaction attempt with its post-commit drain deferred; returns
/// the attempt's result and the drain its commit owes, if any.
///
/// A commit inside `attempt` makes the drain's first sweep inline as always;
/// only when that sweep meets a fault plan or a straggler does the commit
/// hand the rest back as a [`QuiesceTicket`] instead of spinning it out. The
/// async driver runs each attempt in here, because an executor worker must
/// not spin, and polls the ticket with
/// [`StmGlobal::quiesce_pass`](crate::StmGlobal::quiesce_pass) before it
/// gives the attempt's slot up. The deferral is the thread's, not the
/// descriptor's, so the sync path's descriptor and commit carry nothing for
/// it: `attempt` is synchronous and runs on this thread from begin to
/// commit.
pub fn defer_drain<R>(attempt: impl FnOnce() -> R) -> (R, Option<QuiesceTicket>) {
    /// Ends the deferral on every exit, unwinding included, so no later
    /// blocking commit on this thread skips its drain.
    struct Scope(bool);
    impl Drop for Scope {
        fn drop(&mut self) {
            DEFER.set(self.0);
            OWED.take();
        }
    }
    let _scope = Scope(DEFER.replace(true));
    let r = attempt();
    (r, OWED.take())
}

/// A commit's drain that its first sweep could not finish: `None` when it
/// is deferred ([`defer_drain`]), handed back; else the ticket, to spin out.
pub(crate) fn hand_back(t: QuiesceTicket) -> Option<QuiesceTicket> {
    if !DEFER.get() {
        return Some(t);
    }
    OWED.set(Some(t));
    None
}

/// Whether a slot other than `me` still runs a transaction that started
/// before `upto`: one sweep of the registry.
#[inline]
pub(crate) fn straggler(slots: &SlotRegistry, me: usize, upto: u64) -> bool {
    slots.scan().any(|(idx, v)| idx != me && v < upto)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn dog(stats: &TxStats, me: usize, deadline_ns: u64) -> Watchdog<'_> {
        Watchdog {
            deadline_ns,
            stats,
            shard: me,
        }
    }

    /// The blocking drain of slot `me` up to `upto`, unsupervised.
    fn drain(slots: &SlotRegistry, me: usize, upto: u64) -> u64 {
        let stats = TxStats::new();
        QuiesceTicket::new(upto, me, None).spin(slots, &dog(&stats, me, u64::MAX))
    }

    #[test]
    fn drain_passes_with_no_active_transactions() {
        let slots = SlotRegistry::new();
        let me = slots.register_raw().unwrap();
        assert_eq!(drain(&slots, me, 100), 0);
    }

    #[test]
    fn drain_ignores_own_slot() {
        let slots = SlotRegistry::new();
        let me = slots.register_raw().unwrap();
        slots.publish_raw(me, 1); // "my" stale value must not self-deadlock
        assert_eq!(drain(&slots, me, 100), 0);
    }

    #[test]
    fn drain_ignores_newer_transactions() {
        let slots = SlotRegistry::new();
        let me = slots.register_raw().unwrap();
        let other = slots.register_raw().unwrap();
        slots.publish_raw(other, 200); // started after our commit time
        assert_eq!(drain(&slots, me, 100), 0);
    }

    #[test]
    fn drain_waits_for_older_transaction() {
        let slots = Arc::new(SlotRegistry::new());
        let me = slots.register_raw().unwrap();
        let other = slots.register_raw().unwrap();
        slots.publish_raw(other, 50);

        let released = Arc::new(AtomicBool::new(false));
        let waiter = {
            let slots = Arc::clone(&slots);
            let released = Arc::clone(&released);
            std::thread::spawn(move || {
                let ns = drain(&slots, me, 100);
                assert!(
                    released.load(Ordering::SeqCst),
                    "drain returned before the older transaction finished"
                );
                assert!(ns > 0);
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        released.store(true, Ordering::SeqCst);
        slots.publish_raw(other, INACTIVE);
        waiter.join().unwrap();
    }

    #[test]
    fn drain_released_by_extension_not_only_commit() {
        // A long-running transaction that *extends* past the committer's
        // timestamp also releases the drain (it validated against the
        // commit, so it cannot be doomed by it).
        let slots = Arc::new(SlotRegistry::new());
        let me = slots.register_raw().unwrap();
        let other = slots.register_raw().unwrap();
        slots.publish_raw(other, 50);

        let waiter = {
            let slots = Arc::clone(&slots);
            std::thread::spawn(move || drain(&slots, me, 100))
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        slots.publish_raw(other, 150); // extension, still active
        let ns = waiter.join().unwrap();
        assert!(ns > 0);
    }

    #[test]
    fn ticket_first_pass_clean_reports_zero_wait() {
        let slots = SlotRegistry::new();
        let me = slots.register_raw().unwrap();
        let stats = TxStats::new();
        let mut t = QuiesceTicket::new(100, me, None);
        assert_eq!(t.pass(&slots, &dog(&stats, me, u64::MAX)), Some(0));
    }

    #[test]
    fn ticket_blocks_until_straggler_leaves_window() {
        let slots = SlotRegistry::new();
        let me = slots.register_raw().unwrap();
        let other = slots.register_raw().unwrap();
        slots.publish_raw(other, 50);
        let stats = TxStats::new();
        let dog = dog(&stats, me, u64::MAX);
        let mut t = QuiesceTicket::new(100, me, None);
        assert_eq!(t.pass(&slots, &dog), None);
        assert_eq!(t.pass(&slots, &dog), None, "still blocked");
        slots.publish_raw(other, INACTIVE);
        let ns = t.pass(&slots, &dog).expect("drained");
        assert!(ns > 0, "a blocked ticket reports its waiting time");
    }

    #[test]
    fn ticket_trips_watchdog_once() {
        let slots = SlotRegistry::new();
        let me = slots.register_raw().unwrap();
        let other = slots.register_raw().unwrap();
        slots.publish_raw(other, 50);
        let stats = TxStats::new();
        // Deadline 0: any blocked pass is past it.
        let dog = dog(&stats, me, 0);
        let mut t = QuiesceTicket::new(100, me, None);
        assert_eq!(t.pass(&slots, &dog), None);
        assert_eq!(t.pass(&slots, &dog), None);
        assert_eq!(
            stats.get(Stat::WatchdogTrips),
            1,
            "the trip must fire exactly once per drain"
        );
    }

    #[test]
    fn policy_u8_roundtrip() {
        for p in [QuiescePolicy::Always, QuiescePolicy::Never] {
            assert_eq!(QuiescePolicy::from_u8(p as u8), p);
        }
    }
}
