//! The TLE execution engine: attempt → retry → backoff → serialize, written
//! once as a non-blocking **core**, plus the **sync driver** that runs it on
//! an OS thread (the async driver is `runner_async`).
//!
//! ## Core: everything that never blocks
//!
//! - [`Section`] and [`dispatch`] — the per-section prologue: queue gauge and
//!   poison-on-panic bookkeeping, the budget, then per dispatch round the
//!   lock's flip epoch and resolved mode, the admission ladder and the
//!   deadline gate.
//! - [`Ladder`] — the retry state machine of one section on one [`Engine`]:
//!   [`Ladder::gate`] decides before an attempt (deadline expiry, retry
//!   budget, starvation escalation, fault storms, the adaptive skip
//!   counter); [`Ladder::attempt`] is one speculative attempt on a given
//!   slot pair — begin, the adaptive subscription guards and their mutant
//!   hooks, the closure, commit — and answers with a [`Step`];
//!   [`Ladder::settle`] decides after it and does all the bookkeeping
//!   (`consec_aborts`, the lock's outcome window, stats, trace, deferred
//!   actions). `gate` and `settle` answer with a [`Next`].
//! - [`exclusive_body`] — the closure under an [`Exclusion`] the driver
//!   already holds (serial gate, adaptive lock word, or baseline mutex);
//!   answers with a [`SerialStep`].
//! - [`remove_waiter_tx`] — the transactional ring removal behind both
//!   drivers' `cancel_wait`.
//!
//! ## Drivers: one loop over the ladder, different only at the wait edges
//!
//! A driver is `loop { gate → attempt → settle → act on Next }`. What it may
//! differ in is exactly the edge table of DESIGN.md §16: how it waits out a
//! closed serial gate and sweeps on its way into one, where its slots come
//! from (the handle's own vs a transient claim), how it drains a post-commit
//! quiescence ticket (inline in
//! `commit` vs polled), how it backs off, parks and waits for the adaptive
//! lock word (spin/park vs yield/waker), and how long it holds the
//! [`NestGuard`]. The [`Driver`] tag carries the three of those that show
//! up inside the core. The baseline path stays a function of its own per
//! driver (`run_locked` here): parking on the native condvar needs the
//! mutex guard alive across the wait, which no future may do.
//!
//! ## Shaped by measurement
//!
//! The sync hot path (`core.run.*.ns` in the repo benchmark) is one inlined
//! copy of the ladder loop per engine, and the values that cross the
//! core/driver seam are kept small on purpose: [`Step`] and [`Next`] carry
//! the section's result and nothing else, a committed attempt's bulky
//! leftovers go through [`Committed`], and [`Ladder`] itself is plain
//! scalars. Each of those choices bought back nanoseconds that a
//! straightforward "return one big enum" seam cost (an enum hop with a
//! deferred-action list in it is a store-forwarding stall); change them only
//! with the benchmark's ladder rows in hand.
//!
//! ## Per-lock modes and the epoch protocol
//!
//! Dispatch is on the lock's **resolved** mode (its per-lock override, else
//! the global mode), and the adaptive controller may flip that mode while
//! worker threads are anywhere in these loops. The flip itself runs under
//! total exclusion (serial gate + raw mutex + adaptive lock word — see
//! `TmSystem::flip_lock`), so correctness reduces to one invariant: *a
//! section must not complete under a stale mode after the flip finished*.
//! [`dispatch`] therefore captures the lock's flip **epoch**, and it is
//! re-checked immediately after taking each exclusion foothold — the begun
//! transaction's published presence, once it has read the serial gate open
//! (STM/HTM: a flip's serial entry sweeps every presence word, so it waits
//! this transaction out), the raw mutex (baseline), the serial token
//! (fallback), or the lock-word subscription/acquisition (adaptive
//! elision). While the foothold is held a flip cannot complete, so a
//! matching epoch stays matched; a mismatch unwinds the foothold and
//! reports `Redispatch`, and the driver's outer loop re-resolves the mode.
//!
//! ## The serial handshake
//!
//! Gate-supervised transactions take no token. Their presence is what
//! `begin` publishes anyway (the STM slot value, the HTM `tx_state`), and
//! [`Ladder::attempt`] follows the begin with one `SeqCst` load of the gate
//! word: closed — a serial section runs or is pending — and the transaction
//! *retires* ([`Step::Retreat`]: presence withdrawn, nothing counted) and
//! the driver waits for the gate to open. The serial side takes the gate
//! and then sweeps the presence words (`TmSystem::enter_serial*`, the only
//! way into a serial token). `tle_base::gate` has the two-line argument.

use crate::condvar::{RawWaiter, TxCondvar};
use crate::ctx::{CtxKind, PendingWait, TxCtx, TxError};
use crate::domain::AdmissionStep;
use crate::elide::ElidableMutex;
use crate::system::{AlgoMode, ThreadHandle, TmSystem, TxHints};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use tle_base::fault::{self, Hazard};
use tle_base::mutant::{self, Mutant};
use tle_base::rng::splitmix64;
use tle_base::sched::{self, YieldPoint};
use tle_base::stats::Stat;
use tle_base::trace::{self, TraceKind, TxMode};
use tle_base::AbortCause;
use tle_htm::HtmTx;
use tle_stm::QuiesceTicket;

// ---------------------------------------------------------------------------
// Core: vocabulary
// ---------------------------------------------------------------------------

/// Deferred post-commit actions carried out of an attempt.
pub(crate) type Defers = Vec<Box<dyn FnOnce() + Send + 'static>>;

/// Which driver is running the core. Selects the three edges that live
/// *inside* it: condvar waits produce a pollable ring registration even
/// under the baseline mutex, the post-commit drain is returned as a ticket
/// instead of spun out, and the [`NestGuard`] is taken per closure call
/// (between attempts an async task is suspended and other tasks
/// legitimately run their own sections on the same worker).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Driver {
    Sync,
    Async,
}

/// The speculative engine a section's attempts run on.
#[derive(Clone, Copy)]
pub(crate) enum Engine {
    /// Software lock elision; `spin` is the paper's "STM + Spin" wait
    /// degradation.
    Stm { spin: bool },
    /// Simulated hardware lock elision with the global serial fallback
    /// (the paper's configuration).
    Htm,
    /// glibc-style adaptive elision (extension; see
    /// [`AlgoMode::AdaptiveHtm`]): the transaction subscribes to the lock
    /// word, the fallback is the lock itself, and repeated failures set a
    /// per-lock skip counter. `mode` selects eager or lazy subscription.
    Adaptive { mode: AlgoMode },
}

impl Engine {
    /// The engine behind a resolved mode (`None`: the baseline mutex).
    #[inline(always)]
    pub(crate) fn of(mode: AlgoMode) -> Option<Engine> {
        match mode {
            AlgoMode::Baseline => None,
            AlgoMode::StmSpin => Some(Engine::Stm { spin: true }),
            AlgoMode::StmCondvar | AlgoMode::StmCondvarNoQuiesce => {
                Some(Engine::Stm { spin: false })
            }
            AlgoMode::HtmCondvar => Some(Engine::Htm),
            // The glibc family: eager and lazy subscription.
            mode => Some(Engine::Adaptive { mode }),
        }
    }

    /// The lock-path mode of the adaptive engine (`None`: the fallback is
    /// the global serial gate).
    pub(crate) fn lock_path(self) -> Option<AlgoMode> {
        match self {
            Engine::Adaptive { mode } => Some(mode),
            _ => None,
        }
    }

    fn tx_mode(self) -> TxMode {
        match self {
            Engine::Stm { .. } => TxMode::Stm,
            _ => TxMode::Htm,
        }
    }

    fn fallback_mode(self) -> TxMode {
        match self {
            Engine::Adaptive { .. } => TxMode::Locked,
            _ => TxMode::Serial,
        }
    }
}

/// What driving one resolved mode produced: a finished section, a request
/// to re-resolve the lock's mode because a flip landed mid-attempt, or an
/// abandoned section (deadline expiry / shed; fallible entry points only).
pub(crate) enum Outcome<R> {
    Done(R),
    Redispatch,
    Expired(TxError),
}

/// What one pass through an exclusive path produced.
pub(crate) enum SerialOutcome<R> {
    Done(R),
    /// The section committed a condvar wait and was woken; re-run it
    /// concurrently.
    Retry,
    /// A mode flip landed before the exclusion foothold; re-resolve.
    Redispatch,
}

/// What one speculative attempt produced. Kept to the result plus a word:
/// the bulky leftovers of a committed attempt (deferred actions, the wait
/// registration, a pending drain) go through [`Committed`] instead of riding
/// through this enum and [`Next`] — measured, each such hop cost the sync
/// path several nanoseconds.
pub(crate) enum Step<R> {
    /// Committed with a result.
    Done(R),
    /// Committed a condvar wait registration ([`Committed::take_wait`]).
    Wait,
    /// The attempt aborted; retry after backoff.
    Abort(AbortCause),
    /// The eager lock-word subscription read "held": the holder is running
    /// right now and the driver already waits for the word before every
    /// attempt, so retry without backoff.
    SubscribedHeld,
    /// Unsafe operation: re-run under the engine's exclusive path.
    Unsafe,
    /// A mode flip landed before the attempt's foothold (the published
    /// presence, or the adaptive subscription).
    Redispatch,
    /// The serial gate was closed when the begun transaction looked: it
    /// retired, counting nothing. Not an attempt.
    Retreat,
    /// The closure manufactured a runner-level error.
    RunnerErr(TxError),
}

/// What the closure produced under an exclusion (effects are irrevocable
/// there, so it can only finish or wait).
pub(crate) enum SerialStep<'a, R> {
    Done(R, Defers),
    Wait(PendingWait<'a>, Defers),
}

impl<'a, R> SerialStep<'a, R> {
    /// Run the deferred actions (the driver has released the exclusion);
    /// `Err` carries a wait to park on before re-running the section.
    #[inline(always)]
    pub(crate) fn run_defers(self) -> Result<R, PendingWait<'a>> {
        let (out, defers) = match self {
            SerialStep::Done(r, defers) => (Ok(r), defers),
            SerialStep::Wait(pw, defers) => (Err(pw), defers),
        };
        for d in defers {
            d();
        }
        out
    }
}

/// The ladder's verdict: what the driver does next.
pub(crate) enum Next<R> {
    /// The section is complete.
    Done(R),
    /// Park on the committed wait registration ([`Committed::take_wait`]),
    /// then re-run the section.
    Park,
    /// Back off ([`Ladder::backoff`], plus a yield on the async driver),
    /// then retry.
    Backoff,
    /// Retry immediately.
    RetryNow,
    /// Run the section under the engine's exclusive path.
    Fallback,
    /// Wait for the serial gate to open, then go round again.
    AwaitGate,
    /// Re-resolve the lock's mode.
    Redispatch,
    /// Abandon the section (fallible entry points only).
    Err(TxError),
}

/// The section's time budget and whether the caller can observe errors.
///
/// `deadline` is the absolute expiry computed once at section entry from
/// [`TxHints::with_deadline`]. `fallible` is true under `try_run` /
/// `try_run_async`: expiry (and admission shedding) then surface as `Err`;
/// under the infallible terminals they instead force the serial path, which
/// bounds retry time without inventing an error the caller cannot see.
#[derive(Clone, Copy)]
pub(crate) struct Budget {
    pub(crate) deadline: Option<Instant>,
    pub(crate) fallible: bool,
}

impl Budget {
    #[inline]
    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

// ---------------------------------------------------------------------------
// Core: section entry and dispatch
// ---------------------------------------------------------------------------

/// One dispatched critical section: its budget, plus the bookkeeping that
/// must unwind on every exit path (commit, shed, deadline expiry, panic, a
/// dropped future). Dropping it decrements the lock's queue-depth gauge —
/// which brackets the whole dispatch, shed decisions included: a shed
/// request spent time in the queue too — and poisons the lock if the
/// section is unwinding. Unwinding out of the closure already rolls back
/// speculative state (the context's transaction drops → undo log replayed,
/// orecs released, presence withdrawn; a serial token drops → the gate
/// reopens); what it cannot
/// restore is *application* invariants spanning critical sections, so the
/// lock is flagged for survivors to inspect (see
/// [`ElidableMutex::is_poisoned`]).
pub(crate) struct Section<'a> {
    lock: &'a ElidableMutex,
    pub(crate) budget: Budget,
}

impl<'a> Section<'a> {
    #[inline]
    pub(crate) fn enter(lock: &'a ElidableMutex, hints: TxHints, fallible: bool) -> Self {
        // One critical section = one logical operation on the fault oracle's
        // lane clock (no-op load when injection is off).
        fault::tick();
        lock.domain().enter_queue();
        Section {
            lock,
            budget: Budget {
                deadline: hints.deadline.map(|d| Instant::now() + d),
                fallible,
            },
        }
    }
}

impl Drop for Section<'_> {
    #[inline]
    fn drop(&mut self) {
        self.lock.domain().exit_queue();
        if std::thread::panicking() {
            self.lock.poison();
        }
    }
}

/// A section [`dispatch`] settles before any speculation.
pub(crate) enum Early {
    /// Refused (fallible entry points only).
    Refuse(TxError),
    /// The admission ladder routes the section straight to the serial gate.
    Serialize,
}

/// The dispatch prologue: capture the lock's flip epoch, resolve its mode,
/// and consult the admission ladder and the deadline gate. With no early
/// verdict the driver runs the section on [`Engine::of`] the mode (`None`:
/// the baseline mutex). The mode comes back as is — not pre-wrapped in an
/// engine — so the driver's per-engine `match` stays a jump straight off
/// the mode byte.
#[inline(always)]
pub(crate) fn dispatch(
    th: &ThreadHandle,
    lock: &ElidableMutex,
    budget: Budget,
) -> (u64, AlgoMode, Option<Early>) {
    let stats = &th.sys.stats;
    let epoch = lock.domain().epoch();
    let mode = lock.resolved_mode(th.sys.mode());
    // Admission ladder (only meaningful for the gate-supervised modes: the
    // lock-based modes already serialize through a real lock, and the serial
    // gate would not exclude them). Serialize routes the section straight
    // to the serial gate — speculation is known-wasted work; Shed refuses
    // fallible sections outright and serializes infallible ones (which
    // cannot observe `Overloaded`).
    if mode.is_transactional() && !mode.is_glibc_family() && th.sys.admission_enabled() {
        let step = lock.domain().admission_step();
        if step != AdmissionStep::Elide {
            if budget.fallible && step == AdmissionStep::Shed {
                let depth = lock.domain().queue_depth();
                stats.bump_shared(th.stm_slot, Stat::Sheds);
                trace::emit(TraceKind::Shed, TxMode::Serial, None, depth);
                return (epoch, mode, Some(Early::Refuse(TxError::Overloaded)));
            }
            trace::emit(TraceKind::Fallback, TxMode::Serial, None, 0);
            return (epoch, mode, Some(Early::Serialize));
        }
    }
    // Deadline gate at dispatch: a fallible section whose budget is already
    // spent fails fast before any speculation.
    if budget.fallible && budget.expired() {
        stats.bump_shared(th.stm_slot, Stat::DeadlineExceeded);
        trace::emit(TraceKind::DeadlineExceeded, TxMode::Serial, None, 0);
        return (epoch, mode, Some(Early::Refuse(TxError::DeadlineExceeded)));
    }
    (epoch, mode, None)
}

// ---------------------------------------------------------------------------
// Core: one speculative attempt
// ---------------------------------------------------------------------------

/// Call the closure once over `ctx` (under the per-call [`NestGuard`] of
/// the async driver).
#[inline(always)]
fn call_body<'a, R, F>(
    lock: &'a ElidableMutex,
    driver: Driver,
    f: &mut F,
    ctx: &mut TxCtx<'a>,
) -> Result<R, TxError>
where
    F: FnMut(&mut TxCtx<'a>) -> Result<R, TxError>,
{
    let _nest = (driver == Driver::Async).then(|| NestGuard::enter(lock));
    f(ctx)
}

/// Commit a finished attempt's transaction; `Ok` is the nanoseconds its
/// quiescence drain waited (0 when the drain went to `owed` instead).
#[inline(always)]
fn commit_kind(
    kind: CtxKind<'_>,
    driver: Driver,
    owed: &mut Option<QuiesceTicket>,
) -> Result<u64, AbortCause> {
    match kind {
        CtxKind::Stm { tx, .. } if driver == Driver::Async => {
            tx.commit_publish().map(|(info, ticket)| {
                *owed = ticket;
                info.quiesce_wait_ns
            })
        }
        CtxKind::Stm { tx, .. } => tx.commit().map(|info| info.quiesce_wait_ns),
        CtxKind::Htm { tx } => tx.commit().map(|()| 0),
        _ => unreachable!("context kind changed mid-transaction"),
    }
}

#[inline(always)]
fn abort_kind(kind: CtxKind<'_>, cause: AbortCause) {
    match kind {
        CtxKind::Stm { tx, .. } => tx.abort(cause),
        CtxKind::Htm { tx } => tx.abort(cause),
        _ => unreachable!("context kind changed mid-transaction"),
    }
}

fn retire_kind(kind: CtxKind<'_>) {
    match kind {
        CtxKind::Stm { tx, .. } => tx.retire(),
        CtxKind::Htm { tx } => tx.retire(),
        _ => unreachable!("only a transaction retires"),
    }
}

/// The concurrent half of the serial handshake, run right after a begin
/// published the transaction's presence with a `SeqCst` store: one `SeqCst`
/// load of the gate word. `true`: a serial section runs or is pending and the
/// transaction must retire before touching data. `false`: from here until
/// its last store (`INACTIVE` / `IDLE`) no serial section — a mode flip
/// included — can start.
#[inline(always)]
fn gate_closed(sys: &TmSystem) -> bool {
    sched::yield_point(YieldPoint::SerialGate);
    // Seeded bug: the check is deleted and the transaction runs on beside
    // the serial section that was about to sweep it.
    sys.gate.closed() && !mutant::armed(Mutant::GateSkipClosedCheck)
}

/// Drop a ring entry's queue-owned `Arc` reference (null: the wait never
/// enqueued).
pub(crate) fn drop_ring_ref(raw: RawWaiter) {
    if !raw.ptr().is_null() {
        // SAFETY: the queue entry held an `Arc` reference produced by
        // `Arc::into_raw` in `TxCtx::wait`. Callers own it: either the
        // enqueue rolled back (the pointer was published nowhere) or a
        // committed removal transferred the entry to them.
        unsafe { drop(Arc::from_raw(raw.ptr())) };
    }
}

/// Seeded bug (reorder hazard): the lazy window capture hoisted above
/// transaction begin, opening a gap where an acquisition's doom sweep passes
/// the still-idle slot. `None` unless the mutant is armed.
#[inline(always)]
fn hoisted_window_capture(lock: &ElidableMutex, mode: AlgoMode) -> Option<u64> {
    if mode.is_lazy() && mutant::armed(Mutant::LazySubscriptionReorder) {
        let g = lock.elision_seq();
        sched::yield_point(YieldPoint::LockWord);
        Some(g)
    } else {
        None
    }
}

/// Take a freshly begun adaptive-elision transaction's subscription
/// foothold; `Ok` is the lazy window capture `g0`, `Err` the cause to abort
/// `tx` with and the step to report. The lazy mode
/// ([`AlgoMode::AdaptiveHtmLazy`]) keeps the lock word out of the read set
/// entirely: subscription moves to [`lazy_precommit_gate`], begin captures
/// (and refuses an odd) acquisition seqlock, and the lock path dooms all
/// active transactions instead of invalidating one line. See DESIGN.md §17 for the
/// hazard catalog this ordering defeats.
#[inline(always)]
fn adaptive_subscribe<R>(
    tx: &mut HtmTx<'_>,
    lock: &ElidableMutex,
    mode: AlgoMode,
    epoch: u64,
    hoisted: Option<u64>,
) -> Result<u64, (AbortCause, Step<R>)> {
    let lazy = mode.is_lazy();
    // Lazy window capture: ordered after begin so the doom-on-acquire sweep
    // cannot miss this now-active slot (any acquire that bumped the seqlock
    // before this load either shows up odd here, or swept and doomed us
    // already).
    let g0 = if lazy {
        hoisted.unwrap_or_else(|| lock.elision_seq())
    } else {
        0
    };
    if !lazy {
        // Subscribe: a real acquisition of the lock invalidates this line
        // and dooms us.
        match tx.read(lock.held_cell()) {
            Ok(false) => {}
            Ok(true) => return Err((AbortCause::Conflict, Step::SubscribedHeld)),
            Err(e) => return Err((e, Step::Abort(e))),
        }
    } else if g0 & 1 == 1 && !mutant::armed(Mutant::LazyCommitWithLockHeld) {
        // Lazy begin-refusal: an odd seqlock means the lock is held right
        // now, and speculating would run as a zombie over the holder's
        // direct writes (the mutant deletes exactly this guard). Unlike the
        // eager subscription this backs off: nothing made the driver
        // wait for the lock word first (not touching it is the point of the
        // lazy modes), so an immediate retry would only spin the retry
        // budget away against a holder that may need this thread's CPU.
        return Err((AbortCause::Conflict, Step::Abort(AbortCause::Conflict)));
    }
    // The exclusion foothold (eager: the lock-word subscription; lazy: begin
    // refusal + the acquire path's doom-all sweep): a flip completed before
    // it shows up as a bumped epoch (abort, re-resolve); a flip starting
    // after it must acquire the lock word, which dooms this transaction —
    // either way no commit under a stale mode.
    if lock.domain().epoch() != epoch {
        return Err((AbortCause::Explicit, Step::Redispatch));
    }
    Ok(g0)
}

/// Commit-time lazy subscription: the ordered window check run immediately
/// before the commit point (the doom-on-acquire sweep closes the race
/// between this check and the commit CAS). Returns the abort cause when the
/// speculation window overlapped a lock-path hold.
fn lazy_precommit_gate(lock: &ElidableMutex, mode: AlgoMode, g0: u64) -> Result<(), AbortCause> {
    // An unchanged even seqlock proves the lock was free for the whole
    // window (begin refused odd captures; any acquire since then bumped the
    // counter).
    let overlapped = mode.is_lazy() && lock.elision_seq() != g0;
    if overlapped {
        Err(AbortCause::Conflict)
    } else {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Core: the closure under an exclusion
// ---------------------------------------------------------------------------

/// The exclusion a driver holds around [`exclusive_body`] — one of the three
/// a mode flip needs, so each is also the foothold the driver's epoch check
/// runs under.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exclusion {
    /// The global serial gate (serial-irrevocable mode).
    SerialGate,
    /// The adaptive lock word, taken as a real lock.
    LockWord,
    /// The baseline mutex.
    Mutex,
}

/// Run the closure with direct memory access under an exclusion the driver
/// holds (and releases afterwards, before it runs the step's deferred
/// actions). Effects are irrevocable here: the closure can only finish or
/// wait, the budget still clamps condvar waits but cannot abort the
/// section, and anything else is a usage error that panics. The commit event
/// is recorded before the driver's release — the hold window is the
/// section's serialization interval.
#[inline(always)]
pub(crate) fn exclusive_body<'a, R, F>(
    th: &'a ThreadHandle,
    lock: &'a ElidableMutex,
    excl: Exclusion,
    deadline: Option<Instant>,
    driver: Driver,
    f: &mut F,
) -> SerialStep<'a, R>
where
    F: FnMut(&mut TxCtx<'a>) -> Result<R, TxError>,
{
    let stats = &th.sys.stats;
    let serial = excl == Exclusion::SerialGate;
    let baseline = excl == Exclusion::Mutex;
    let mode = if serial {
        TxMode::Serial
    } else {
        TxMode::Locked
    };
    trace::begin_direct(mode);
    let mut ctx = TxCtx::new(CtxKind::Direct { baseline }, deadline, driver);
    let res = call_body(lock, driver, f, &mut ctx);
    let step = match res {
        Ok(r) => {
            debug_assert!(
                ctx.pending_wait.is_none(),
                "wait() result must be propagated"
            );
            lock.domain().window.record_serial();
            SerialStep::Done(r, ctx.defers)
        }
        Err(TxError::Wait) => {
            // A baseline section that waits keeps the mutex across the wait
            // and is recorded once, when it finally completes; the other
            // exclusions end at the wait (the section re-runs concurrently).
            if !baseline {
                lock.domain().window.record_serial();
            }
            let pw = ctx
                .pending_wait
                .expect("Wait reported without a wait request");
            SerialStep::Wait(pw, ctx.defers)
        }
        Err(e) => {
            let held = match excl {
                Exclusion::SerialGate => "in serial-irrevocable mode",
                Exclusion::LockWord => "while holding the elided lock",
                Exclusion::Mutex => "while holding the baseline lock",
            };
            match e {
                TxError::Abort(c) => {
                    panic!("operation aborted ({c}) {held}: effects cannot be undone")
                }
                e => panic!("{e:?} raised {held}: effects cannot be undone"),
            }
        }
    };
    if serial {
        stats.bump_shared(th.stm_slot, Stat::SerialFallbacks);
        stats.bump_shared(th.stm_slot, Stat::Commits);
    }
    trace::emit(TraceKind::Commit, mode, None, 0);
    step
}

/// One CAS attempt at the adaptive lock word.
pub(crate) fn try_acquire_word(lock: &ElidableMutex) -> bool {
    !lock.held_cell().load_direct()
        && lock
            .held_cell()
            .word()
            .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
}

/// What a fresh holder of the adaptive lock word must doom before running.
pub(crate) enum Doom {
    /// Invalidate the lock word's line: every eager subscriber.
    Subscribers,
    /// Every active hardware transaction (safe lazy subscription).
    AllActive,
    Nobody,
}

/// Make a lock-word acquisition visible to speculating transactions; the
/// caller carries out the returned sweep (blocking or yielding, per driver).
/// Eager modes invalidate the lock word's line (dooming every subscriber);
/// the lazy mode has no subscribers to reach that way, so it bumps the
/// acquisition seqlock (new begins refuse) and dooms **every** active
/// transaction (in-flight speculation cannot run on as zombies).
pub(crate) fn announce_acquisition(lock: &ElidableMutex, mode: AlgoMode) -> Doom {
    if !mode.is_lazy() {
        return Doom::Subscribers;
    }
    // Odd seqlock: lazy begins from here on refuse to speculate.
    lock.seq_bump();
    if mutant::armed(Mutant::LazyZombieEscape) {
        // Seeded bug: doom-on-acquire is deleted.
        Doom::Nobody
    } else {
        Doom::AllActive
    }
}

/// Release the adaptive lock word, restoring the lazy seqlock to even
/// (speculation may resume).
pub(crate) fn adaptive_release(lock: &ElidableMutex, mode: AlgoMode) {
    lock.held_cell().store_direct(false);
    if mode.is_lazy() {
        lock.seq_bump();
    }
}

// ---------------------------------------------------------------------------
// Core: the retry ladder
// ---------------------------------------------------------------------------

/// glibc's skip_lock_internal_abort analogue: lock-path acquisitions an
/// adaptive lock makes after elision exhausted its retries.
const SKIP_AFTER_FAILURE: u32 = 3;

/// The retry state of one section under one resolved mode. Paper §VII:
/// "fall back to a serial mode after hardware transactions fail twice" —
/// plus the deadline gate, the starvation ladder, the fault oracle's serial
/// storms, and the adaptive engine's skip counter.
pub(crate) struct Ladder<'a> {
    th: &'a ThreadHandle,
    lock: &'a ElidableMutex,
    engine: Engine,
    epoch: u64,
    budget: Budget,
    retries: u32,
    attempts: u32,
}

/// What a committed attempt leaves behind besides its [`Step`]. Lives next
/// to the [`Ladder`] rather than in it so the ladder's own state stays plain
/// scalars (no drop glue, nothing that forces it into memory on the sync
/// hot path).
#[derive(Default)]
pub(crate) struct Committed<'a> {
    /// Deferred actions (if there are any), run by [`Ladder::settle`] once
    /// the driver has released the attempt's slots.
    defers: Option<Defers>,
    /// Nanoseconds the post-commit quiescence drain waited.
    quiesce_ns: u64,
    /// The wait registration to park on after [`Next::Park`].
    wait: Option<PendingWait<'a>>,
    /// Under [`Driver::Async`], the drain still to be polled.
    owed: Option<QuiesceTicket>,
}

impl<'a> Committed<'a> {
    /// The drain a committed [`Driver::Async`] attempt still owes, if any.
    #[inline(always)]
    pub(crate) fn take_owed(&mut self) -> Option<QuiesceTicket> {
        self.owed.take()
    }

    /// Record the wait of a drain the driver polled out itself.
    #[inline(always)]
    pub(crate) fn quiesced(&mut self, wait_ns: u64) {
        self.quiesce_ns = wait_ns;
    }

    /// The wait registration a [`Next::Park`] verdict refers to.
    #[inline(always)]
    pub(crate) fn take_wait(&mut self) -> PendingWait<'a> {
        self.wait.take().expect("Park without a wait registration")
    }
}

impl<'a> Ladder<'a> {
    #[inline]
    pub(crate) fn new(
        th: &'a ThreadHandle,
        lock: &'a ElidableMutex,
        engine: Engine,
        epoch: u64,
        hints: TxHints,
        budget: Budget,
    ) -> Self {
        let policy = th.sys.policy();
        let retries = match engine {
            Engine::Stm { .. } => hints
                .stm_retries
                .unwrap_or_else(|| lock.domain().stm_retries(policy.stm_retries)),
            _ => hints
                .htm_retries
                .unwrap_or_else(|| lock.domain().htm_retries(policy.htm_retries)),
        };
        Ladder {
            th,
            lock,
            engine,
            epoch,
            budget,
            retries,
            attempts: 0,
        }
    }

    /// Decide before an attempt; `None` means go ahead and speculate.
    #[inline(always)]
    pub(crate) fn gate<R>(&mut self) -> Option<Next<R>> {
        let (th, lock) = (self.th, self.lock);
        let stats = &th.sys.stats;
        let adaptive = self.engine.lock_path().is_some();
        // The adaptive loop holds no exclusion between attempts, so a flip
        // can complete anywhere in it; cheap check before each one.
        if adaptive && lock.domain().epoch() != self.epoch {
            return Some(Next::Redispatch);
        }
        // Deadline gate before every retry tier and before entering the
        // exclusive path: a fallible section surfaces the expiry; an
        // infallible one stops retrying and serializes (bounded retry time
        // either way).
        let deadline_up = self.budget.expired();
        if deadline_up && self.budget.fallible {
            stats.bump_shared(th.stm_slot, Stat::DeadlineExceeded);
            trace::emit(
                TraceKind::DeadlineExceeded,
                self.engine.tx_mode(),
                None,
                self.attempts as u64,
            );
            return Some(Next::Err(TxError::DeadlineExceeded));
        }
        // Short-circuit order keeps the starvation ladder and the fault
        // oracle unconsulted once the budget alone decides.
        let spent = self.attempts >= self.retries;
        let fallback = if adaptive {
            lock.consume_skip() || spent || deadline_up
        } else {
            spent || deadline_up || escalation_due(th) || serial_storm_due()
        };
        if !fallback {
            return None;
        }
        if adaptive && spent {
            lock.set_skip(SKIP_AFTER_FAILURE);
            stats.bump_shared(th.stm_slot, Stat::SerialFallbacks);
        }
        trace::emit(
            TraceKind::Fallback,
            self.engine.fallback_mode(),
            None,
            self.attempts as u64,
        );
        Some(Next::Fallback)
    }

    /// One speculative attempt of `f` on the ladder's engine, start to
    /// finish, on the given slot pair. Nothing in here blocks or suspends —
    /// except that under [`Driver::Sync`] the STM commit spins its
    /// quiescence drain out inline, as the blocking `commit` always has.
    /// Under [`Driver::Async`] the drain is instead left for the caller to
    /// poll ([`Committed::take_owed`], then [`Committed::quiesced`]).
    #[inline(always)]
    pub(crate) fn attempt<R, F>(
        &self,
        (stm_slot, htm_slot): (usize, usize),
        driver: Driver,
        left: &mut Committed<'a>,
        f: &mut F,
    ) -> Step<R>
    where
        F: FnMut(&mut TxCtx<'a>) -> Result<R, TxError>,
    {
        let (th, lock, deadline) = (self.th, self.lock, self.budget.deadline);
        let sys = &*th.sys;
        // One `speculate` call per engine on purpose: each arm's transaction
        // then stays in one stack slot from begin to commit instead of being
        // merged into (and copied through) a common one.
        match self.engine {
            Engine::Stm { spin } => {
                let mut tx = sys.stm.begin_soft(stm_slot);
                if let Some(step) = self.turned_away() {
                    tx.retire();
                    return step;
                }
                // Per-lock TM_NoQuiesce opt-in (strictly an application
                // contract; see TmSystem::set_lock_no_quiesce).
                if lock.is_no_quiesce() {
                    tx.no_quiesce();
                }
                tx.set_deadline(deadline);
                let kind = CtxKind::Stm {
                    tx,
                    spin_waits: spin,
                };
                let ctx = TxCtx::new(kind, deadline, driver);
                self.speculate(ctx, driver, left, f, || Ok(()))
            }
            Engine::Htm => {
                let tx = sys.htm.begin(htm_slot);
                if let Some(step) = self.turned_away() {
                    tx.retire();
                    return step;
                }
                let ctx = TxCtx::new(CtxKind::Htm { tx }, deadline, driver);
                self.speculate(ctx, driver, left, f, || Ok(()))
            }
            Engine::Adaptive { mode } => {
                let hoisted = hoisted_window_capture(lock, mode);
                let mut tx = sys.htm.begin(htm_slot);
                match adaptive_subscribe(&mut tx, lock, mode, self.epoch, hoisted) {
                    // Lazy subscription happens at the precommit point,
                    // ordered immediately before the commit; the acquire
                    // path's doom sweep closes the window between check and
                    // CAS.
                    Ok(g0) => {
                        let ctx = TxCtx::new(CtxKind::Htm { tx }, deadline, driver);
                        self.speculate(ctx, driver, left, f, || lazy_precommit_gate(lock, mode, g0))
                    }
                    Err((cause, step)) => {
                        tx.abort(cause);
                        step
                    }
                }
            }
        }
    }

    /// Whether a freshly begun gate-supervised transaction must retire
    /// instead of running: the gate is closed ([`gate_closed`]), or — the
    /// presence being the exclusion foothold — a mode flip completed since
    /// [`dispatch`] captured the epoch.
    #[inline(always)]
    fn turned_away<R>(&self) -> Option<Step<R>> {
        if gate_closed(&self.th.sys) {
            Some(Step::Retreat)
        } else if self.lock.domain().epoch() != self.epoch {
            Some(Step::Redispatch)
        } else {
            None
        }
    }

    /// Run the closure over `ctx` and resolve the attempt: roll back, or
    /// commit if `precommit` still allows it.
    #[inline(always)]
    fn speculate<R, F>(
        &self,
        mut ctx: TxCtx<'a>,
        driver: Driver,
        left: &mut Committed<'a>,
        f: &mut F,
        precommit: impl FnOnce() -> Result<(), AbortCause>,
    ) -> Step<R>
    where
        F: FnMut(&mut TxCtx<'a>) -> Result<R, TxError>,
    {
        let res = call_body(self.lock, driver, f, &mut ctx);
        // From here on `ctx` is taken apart field by field, in place: moving
        // it (or its transaction) wholesale costs a copy per hop.
        let (cause, step) = match res {
            Ok(r) => {
                debug_assert!(
                    ctx.pending_wait.is_none(),
                    "wait() result must be propagated"
                );
                (None, Step::Done(r))
            }
            Err(TxError::Wait) => {
                assert!(
                    ctx.pending_wait.is_some(),
                    "Wait reported without a wait request"
                );
                (None, Step::Wait)
            }
            Err(TxError::Abort(AbortCause::Unsafe)) => (Some(AbortCause::Unsafe), Step::Unsafe),
            Err(TxError::Abort(cause)) => (Some(cause), Step::Abort(cause)),
            Err(e @ (TxError::DeadlineExceeded | TxError::Overloaded)) => {
                (Some(AbortCause::Explicit), Step::RunnerErr(e))
            }
        };
        let cause = cause.or_else(|| precommit().err());
        let failed = match cause {
            Some(cause) => {
                abort_kind(ctx.kind, cause);
                cause
            }
            None => match commit_kind(ctx.kind, driver, &mut left.owed) {
                Ok(quiesce_ns) => {
                    left.quiesce_ns = quiesce_ns;
                    // Hand over only what exists: the common section defers
                    // nothing and waits for nothing, and then `left` is not
                    // written (nor, later, dropped) at all.
                    if !ctx.defers.is_empty() {
                        left.defers = Some(ctx.defers);
                    }
                    if ctx.pending_wait.is_some() {
                        left.wait = ctx.pending_wait;
                    }
                    return step;
                }
                Err(cause) => cause,
            },
        };
        // Rolled back, and with it the ring write of a wait the closure
        // enqueued: reclaim the entry's reference.
        if let Some(pw) = ctx.pending_wait {
            drop_ring_ref(pw.raw);
        }
        match step {
            Step::Done(_) | Step::Wait => Step::Abort(failed),
            step => step,
        }
    }

    /// Decide after an attempt, and do its bookkeeping. The attempt's
    /// presence is withdrawn and the driver has released its slots: deferred
    /// actions run here, outside every exclusion.
    #[inline(always)]
    pub(crate) fn settle<R>(&mut self, step: Step<R>, left: &mut Committed<'a>) -> Next<R> {
        let th = self.th;
        let adaptive = self.engine.lock_path().is_some();
        match step {
            Step::Done(r) => {
                self.committed(left);
                Next::Done(r)
            }
            Step::Wait => {
                self.committed(left);
                self.attempts = 0;
                Next::Park
            }
            Step::Abort(cause) => {
                self.aborted(cause);
                Next::Backoff
            }
            Step::SubscribedHeld => {
                self.aborted(AbortCause::Conflict);
                Next::RetryNow
            }
            Step::Unsafe => {
                // Irrevocable work runs under the engine's exclusion (the
                // serial gate; adaptive elision, like glibc TLE, has only
                // the lock itself).
                if adaptive {
                    th.sys.stats.bump_shared(th.stm_slot, Stat::SerialFallbacks);
                }
                trace::emit(
                    TraceKind::Fallback,
                    self.engine.fallback_mode(),
                    Some(AbortCause::Unsafe),
                    self.attempts as u64,
                );
                Next::Fallback
            }
            Step::Redispatch => Next::Redispatch,
            // A retreat is not an attempt: the retry budget, the starvation
            // ladder, the lock's outcome window and the backoff state all
            // stay as they were.
            Step::Retreat => Next::AwaitGate,
            // The closure manufactured a runner-level error and the attempt
            // rolled back: fallible entries surface it, the infallible ones
            // have no error channel and must refuse loudly.
            Step::RunnerErr(e) if self.budget.fallible => Next::Err(e),
            Step::RunnerErr(e) => panic!(
                "{e:?} returned from a closure run via tx().run() / run_async(); \
                 use tx().try_run() / try_run_async() to observe deadline/shed errors"
            ),
        }
    }

    #[inline(always)]
    fn committed(&self, left: &mut Committed<'a>) {
        // The starvation ladder is a gate-engine concept; adaptive elision
        // neither feeds nor consults it.
        if self.engine.lock_path().is_none() {
            self.th.consec_aborts.store(0, Ordering::Relaxed);
        }
        self.lock.domain().window.record_commit(left.quiesce_ns);
        if let Some(defers) = left.defers.take() {
            for d in defers {
                d();
            }
        }
    }

    #[inline(always)]
    fn aborted(&mut self, cause: AbortCause) {
        self.attempts += 1;
        if self.engine.lock_path().is_none() {
            note_abort(self.th);
        }
        self.lock.domain().window.record_abort(cause);
        trace::emit(
            TraceKind::Retry,
            self.engine.tx_mode(),
            Some(cause),
            self.attempts as u64,
        );
    }

    /// The exclusive path handed the section back after a wait: a fresh
    /// retry budget for the re-run.
    #[inline(always)]
    pub(crate) fn rearm(&mut self) {
        self.attempts = 0;
    }

    /// The bounded spin of [`Next::Backoff`] (see [`backoff`]).
    #[inline(always)]
    pub(crate) fn backoff(&self) {
        let th = self.th;
        let (salt, consec) = match self.engine {
            Engine::Stm { .. } => (th.stm_slot, th.consecutive_aborts()),
            Engine::Htm => (th.htm_slot, th.consecutive_aborts()),
            Engine::Adaptive { .. } => (th.htm_slot, 0),
        };
        backoff(salt, self.attempts, consec, th.sys.policy().backoff_ceiling);
    }
}

/// Starvation-escalation ladder (robustness hardening). `note_abort`
/// accumulates consecutive concurrent-attempt failures across critical
/// sections; `escalation_due` answers whether this section should skip
/// straight to the serial gate, consuming the accumulated count so the
/// thread returns to concurrent attempts afterwards (the ladder grants a
/// progress slot, it does not serialize the thread permanently).
fn note_abort(th: &ThreadHandle) {
    // Saturating, not wrapping: an unbounded abort streak must keep the
    // ladder armed rather than roll over to a clean slate.
    let _ = th
        .consec_aborts
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            Some(n.saturating_add(1))
        });
}

fn escalation_due(th: &ThreadHandle) -> bool {
    let n = th.consec_aborts.load(Ordering::Relaxed);
    if n < th.sys.policy().escalation_bound {
        return false;
    }
    th.consec_aborts.store(0, Ordering::Relaxed);
    th.sys.stats.bump_shared(th.stm_slot, Stat::Escalations);
    trace::emit(TraceKind::Escalate, TxMode::Serial, None, n as u64);
    true
}

/// Fault oracle: should this section storm the serial gate instead of
/// attempting to run concurrently?
fn serial_storm_due() -> bool {
    if fault::enabled() && fault::fire(Hazard::SerialStorm) {
        trace::emit(
            TraceKind::FaultInject,
            TxMode::Serial,
            None,
            Hazard::SerialStorm.index() as u64,
        );
        return true;
    }
    false
}

/// Randomized exponential backoff between attempts. Yields early: the
/// conflicting transaction may be descheduled (always true on a single-CPU
/// host), in which case spinning cannot help it finish.
///
/// The draw mixes a *persistent* per-thread RNG with the salt and attempt
/// number. Deriving it from `(salt, attempts)` alone — as an earlier
/// version did — makes two threads that collide on attempt `n` draw
/// correlated waits on attempt `n+1` too, re-colliding indefinitely; the
/// per-thread state breaks that lockstep (each backoff also advances it, so
/// repeat encounters see fresh draws).
///
/// Two refinements over plain truncated-exponential:
///
/// - **Tiering by consecutive-abort depth**: `consec` is the starvation
///   ladder's cross-section abort streak ([`note_abort`]). A thread that
///   keeps losing across *sections* is in a congestion episode the
///   per-section `attempts` counter cannot see (it resets every section);
///   the tier widens its window up front, `log2`-ish in the streak, capped
///   at 4 extra doublings.
/// - **Decorrelated jitter** (the AWS "decorrelated jitter" shape): the
///   wait is drawn from `[16, 3*prev]` rather than `[0, bound)`, where
///   `prev` is this thread's previous wait. Consecutive draws random-walk
///   instead of re-sampling one fixed window, which both desynchronizes
///   repeat colliders faster and keeps a lucky short draw from snapping the
///   window back to zero. The exponential `bound` still caps the walk.
pub(crate) fn backoff(salt: usize, attempts: u32, consec: u32, ceiling: u32) {
    use std::sync::atomic::AtomicU64;
    /// Decorrelates the initial states of threads spawned back-to-back.
    static THREAD_SEED: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);
    thread_local! {
        static BACKOFF_STATE: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
        /// Previous wait drawn on this thread (decorrelated-jitter state).
        static BACKOFF_PREV: std::cell::Cell<u64> = const { std::cell::Cell::new(16) };
    }
    // Tier 0 for a clean slate, then one extra doubling per log2 of the
    // streak: 1 -> 1, 2..3 -> 2, 4..7 -> 3, >= 8 -> 4.
    let tier = (32 - consec.leading_zeros()).min(4);
    let bound = (16u64 << attempts.saturating_add(tier).min(16))
        .min(ceiling as u64)
        .max(1);
    let draw = BACKOFF_STATE.with(|cell| {
        let mut state = cell.get();
        if state == 0 {
            state = THREAD_SEED.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed) | 1;
        }
        let raw = splitmix64(&mut state);
        cell.set(state);
        raw ^ ((salt as u64) << 32) ^ attempts as u64
    });
    let prev = BACKOFF_PREV.with(|p| p.get()).max(16);
    let spins = (16 + draw % prev.saturating_mul(3)).min(bound).max(1);
    BACKOFF_PREV.with(|p| p.set(spins));
    for _ in 0..spins {
        std::hint::spin_loop();
    }
    if attempts > 2 {
        std::thread::yield_now();
    }
}

thread_local! {
    /// Whether a critical-section body is executing on this OS thread.
    /// Lives in a thread-local (not on [`ThreadHandle`], which is `Sync`
    /// and may be shared across executor workers) because the hazard it
    /// guards is *closure re-entry on one thread*.
    static IN_CRITICAL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Nested-section detection. Nested critical sections are the paper's §V
/// problem in miniature: a transaction cannot subsume inner critical
/// sections that communicate with other threads (and naive flattening would
/// release the outer transaction's orecs at the inner commit). Fail loudly
/// instead of corrupting; restructure with a ready flag (Listing 4) or
/// merge the sections (Yoo-style coarsening).
///
/// The sync driver holds the guard across the whole dispatch; the async
/// driver holds it only around each closure call (see [`Driver`]). Clears
/// the flag even if the section panics.
pub(crate) struct NestGuard {
    _priv: (),
}

impl NestGuard {
    pub(crate) fn enter(lock: &ElidableMutex) -> NestGuard {
        IN_CRITICAL.with(|flag| {
            assert!(
                !flag.replace(true),
                "nested critical sections are not supported under TLE \
                 (lock {:?}); restructure per paper §V (ready flag) or merge the sections",
                lock.name()
            );
        });
        NestGuard { _priv: () }
    }
}

impl Drop for NestGuard {
    fn drop(&mut self) {
        IN_CRITICAL.with(|flag| flag.set(false));
    }
}

// ---------------------------------------------------------------------------
// Core: transactional ring removal
// ---------------------------------------------------------------------------

/// Whether `mode`'s ring users all access the ring inside gate-supervised
/// transactions. Baseline touches it directly under the raw mutex and
/// adaptive elision from its lock path, so for those a timed-out waiter
/// must be removed under total exclusion instead.
pub(crate) fn ring_is_transactional(mode: AlgoMode) -> bool {
    mode != AlgoMode::Baseline && !mode.is_glibc_family()
}

/// What one transactional attempt at a ring removal came to.
pub(crate) enum Removal {
    /// Committed; `false`: a signaller already claimed the entry.
    Done(bool),
    /// The transaction retired before touching the ring — the serial gate
    /// was closed, or the lock's mode is no longer the one it was begun for.
    /// Wait for the gate, read the mode again; not an attempt.
    Retreat,
    Aborted,
}

/// One transactional attempt at cancelling `raw`'s ring entry (a small
/// transaction of its own, on the engine `mode` runs). `mode` is the
/// caller's unpinned read of the lock's mode; it is pinned here the way
/// [`Ladder::attempt`] pins the epoch — begin, read the gate open, read the
/// mode again under the published presence (a flip's serial entry would have
/// to sweep this transaction first). Like `attempt`, leaves a pending drain
/// in `owed` for the [`Driver::Async`] caller.
#[allow(clippy::too_many_arguments)]
pub(crate) fn remove_waiter_tx(
    sys: &TmSystem,
    lock: &ElidableMutex,
    mode: AlgoMode,
    (stm_slot, htm_slot): (usize, usize),
    cv: &TxCondvar,
    raw: RawWaiter,
    driver: Driver,
    owed: &mut Option<QuiesceTicket>,
) -> Removal {
    let kind = if mode == AlgoMode::HtmCondvar {
        CtxKind::Htm {
            tx: sys.htm.begin(htm_slot),
        }
    } else {
        CtxKind::Stm {
            tx: sys.stm.begin_soft(stm_slot),
            spin_waits: false,
        }
    };
    if gate_closed(sys) || lock.resolved_mode(sys.mode()) != mode {
        retire_kind(kind);
        return Removal::Retreat;
    }
    let mut ctx = TxCtx::new(kind, None, driver);
    let committed = match cv.remove(&mut ctx, raw.ptr()) {
        Ok(found) => commit_kind(ctx.kind, driver, owed).map(|_| found),
        Err(cause) => {
            abort_kind(ctx.kind, cause);
            Err(cause)
        }
    };
    committed.map_or(Removal::Aborted, Removal::Done)
}

// ---------------------------------------------------------------------------
// Sync driver
// ---------------------------------------------------------------------------

/// Run one critical section on the calling thread. `fallible` selects
/// `try_run` semantics: deadline expiry and admission sheds surface as
/// `Err`; otherwise they serialize and `Err` is unreachable.
pub(crate) fn run<'a, R, F>(
    th: &'a ThreadHandle,
    lock: &'a ElidableMutex,
    hints: TxHints,
    mut f: F,
    fallible: bool,
) -> Result<R, TxError>
where
    F: FnMut(&mut TxCtx<'a>) -> Result<R, TxError>,
{
    let f = &mut f;
    let _nest = NestGuard::enter(lock);
    let section = Section::enter(lock, hints, fallible);
    let budget = section.budget;
    loop {
        let (epoch, mode, early) = dispatch(th, lock, budget);
        let outcome = match early {
            Some(Early::Refuse(e)) => return Err(e),
            Some(Early::Serialize) => match exclusive(th, lock, None, epoch, budget.deadline, f) {
                SerialOutcome::Done(r) => return Ok(r),
                SerialOutcome::Retry | SerialOutcome::Redispatch => continue,
            },
            // One inlined copy of the ladder loop per engine: each then sees
            // its engine as a constant and compiles to the straight-line
            // per-mode loop the sync path has always been.
            None => match Engine::of(mode) {
                None => run_locked(th, lock, epoch, budget.deadline, f),
                Some(Engine::Stm { spin }) => {
                    drive(th, lock, Engine::Stm { spin }, epoch, hints, budget, f)
                }
                Some(Engine::Htm) => drive(th, lock, Engine::Htm, epoch, hints, budget, f),
                Some(Engine::Adaptive { mode }) => {
                    drive(th, lock, Engine::Adaptive { mode }, epoch, hints, budget, f)
                }
            },
        };
        match outcome {
            Outcome::Done(r) => return Ok(r),
            Outcome::Redispatch => continue,
            Outcome::Expired(e) => return Err(e),
        }
    }
}

/// The ladder loop, blocking at every wait edge.
#[inline(always)]
fn drive<'a, R, F>(
    th: &'a ThreadHandle,
    lock: &'a ElidableMutex,
    engine: Engine,
    epoch: u64,
    hints: TxHints,
    budget: Budget,
    f: &mut F,
) -> Outcome<R>
where
    F: FnMut(&mut TxCtx<'a>) -> Result<R, TxError>,
{
    let mut ladder = Ladder::new(th, lock, engine, epoch, hints, budget);
    let mut left = Committed::default();
    loop {
        let next = match ladder.gate() {
            Some(next) => next,
            None => {
                if engine.lock_path().is_some_and(|mode| !mode.is_lazy()) {
                    // Don't even start while the lock is held (glibc spins
                    // outside the transaction for the same reason: an
                    // immediate subscription abort is wasted work). The
                    // lazy modes skip this — not touching the lock word
                    // before commit is their point.
                    let mut spins = 0u32;
                    while lock.held_cell().load_direct() {
                        pause(&mut spins, 32);
                    }
                }
                let slots = (th.stm_slot, th.htm_slot);
                let step = ladder.attempt(slots, Driver::Sync, &mut left, f);
                ladder.settle(step, &mut left)
            }
        };
        match next {
            Next::Done(r) => return Outcome::Done(r),
            Next::Park => block_on(th, lock, left.take_wait()),
            Next::Backoff => ladder.backoff(),
            Next::RetryNow => {}
            Next::AwaitGate => th.sys.gate.wait_open(),
            Next::Fallback => {
                match exclusive(th, lock, engine.lock_path(), epoch, budget.deadline, f) {
                    SerialOutcome::Done(r) => return Outcome::Done(r),
                    SerialOutcome::Retry => ladder.rearm(),
                    SerialOutcome::Redispatch => return Outcome::Redispatch,
                }
            }
            Next::Redispatch => return Outcome::Redispatch,
            Next::Err(e) => return Outcome::Expired(e),
        }
    }
}

/// One spin-then-yield step of a lock-word wait.
fn pause(spins: &mut u32, spin_limit: u32) {
    *spins += 1;
    sched::spin_hint(YieldPoint::LockWord);
    if *spins < spin_limit {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// Run the section under its engine's exclusive path: the adaptive lock
/// word taken as a real lock (`lock_path` names the mode), else the global
/// serial gate.
fn exclusive<'a, R, F>(
    th: &'a ThreadHandle,
    lock: &'a ElidableMutex,
    lock_path: Option<AlgoMode>,
    epoch: u64,
    deadline: Option<Instant>,
    f: &mut F,
) -> SerialOutcome<R>
where
    F: FnMut(&mut TxCtx<'a>) -> Result<R, TxError>,
{
    let step = match lock_path {
        Some(mode) => {
            adaptive_acquire(th, lock, mode);
            // Holding the lock word blocks a flip's word acquisition, so
            // the epoch is stable from here until release.
            if lock.domain().epoch() != epoch {
                adaptive_release(lock, mode);
                return SerialOutcome::Redispatch;
            }
            let step = exclusive_body(th, lock, Exclusion::LockWord, deadline, Driver::Sync, f);
            adaptive_release(lock, mode);
            step
        }
        None => {
            // Unwind audit: the token releases the gate in its `Drop` impl,
            // so a panic inside `f` reopens the gate while unwinding.
            // Without that, one panicking serial section would wedge every
            // thread forever (the `serial_gate_reopens_after_panic`
            // regression test pins this; the same goes for a transaction's
            // presence and the baseline mutex guard).
            let _token = th.sys.enter_serial();
            // The serial token is the foothold: a flip needs the gate too.
            if lock.domain().epoch() != epoch {
                return SerialOutcome::Redispatch;
            }
            exclusive_body(th, lock, Exclusion::SerialGate, deadline, Driver::Sync, f)
        }
    };
    match step.run_defers() {
        Ok(r) => SerialOutcome::Done(r),
        Err(pw) => {
            block_on(th, lock, pw);
            SerialOutcome::Retry
        }
    }
}

/// Baseline pthread semantics (no elision). Its own function rather than an
/// arm of [`exclusive`]: a waiting section parks on the **native** condvar,
/// which atomically releases and re-takes the mutex — the guard stays alive
/// across the wait, and the deferred actions of the waiting round run still
/// holding the lock, like the original pthread program.
fn run_locked<'a, R, F>(
    th: &'a ThreadHandle,
    lock: &'a ElidableMutex,
    epoch: u64,
    deadline: Option<Instant>,
    f: &mut F,
) -> Outcome<R>
where
    F: FnMut(&mut TxCtx<'a>) -> Result<R, TxError>,
{
    sched::yield_point(YieldPoint::LockWord);
    // Bracket the raw-mutex acquisition for the cooperative scheduler: the
    // thread may park in the OS here, and the holder needs to run.
    sched::block_enter();
    let mut guard = lock.raw().lock();
    sched::block_exit();
    loop {
        // The raw mutex is the foothold: a flip acquires it too, so a
        // matching epoch here cannot change until we release — which a wait
        // below does, hence the re-check on every round.
        if lock.domain().epoch() != epoch {
            return Outcome::Redispatch;
        }
        match exclusive_body(th, lock, Exclusion::Mutex, deadline, Driver::Sync, f) {
            SerialStep::Done(r, defers) => {
                drop(guard);
                for d in defers {
                    d();
                }
                return Outcome::Done(r);
            }
            SerialStep::Wait(pw, defers) => {
                for d in defers {
                    d();
                }
                sched::block_enter();
                pw.cv.native_wait(&mut guard, pw.timeout);
                sched::block_exit();
            }
        }
    }
}

/// Acquire the subscription word as a real lock: CAS it, then doom whoever
/// [`announce_acquisition`] says must not run on.
fn adaptive_acquire(th: &ThreadHandle, lock: &ElidableMutex, mode: AlgoMode) {
    sched::yield_point(YieldPoint::LockWord);
    let mut spins = 0u32;
    while !try_acquire_word(lock) {
        pause(&mut spins, 64);
    }
    match announce_acquisition(lock, mode) {
        Doom::Subscribers => th.sys.htm.invalidate(lock.held_cell()),
        Doom::AllActive => th.sys.htm.doom_all_active(),
        Doom::Nobody => {}
    }
}

/// Park the thread on its committed wait registration (or just yield the
/// scheduling slot under spin-mode polling).
fn block_on<'a>(th: &'a ThreadHandle, lock: &'a ElidableMutex, pw: PendingWait<'a>) {
    match pw.waiter {
        None => {
            // STM+Spin: no registration was made; poll by re-running. The
            // yield keeps the poll loop finite on oversubscribed machines
            // (without it, a polling thread can burn its entire quantum
            // while the thread it waits for is descheduled).
            sched::spin_hint(YieldPoint::Park);
            std::hint::spin_loop();
            std::thread::yield_now();
        }
        Some(w) => {
            let signaled = w.wait(pw.timeout);
            trace::emit(TraceKind::WaitPark, TxMode::Serial, None, !signaled as u64);
            if !signaled {
                cancel_wait(th, lock, pw.cv, pw.raw);
            }
        }
    }
}

/// Timed-out waiter: remove our ring entry or, if a signaller already
/// claimed it, let the signaller's wakeup fall on the floor harmlessly.
/// Only reachable from ring waits (sync baseline waiters use the native
/// condvar) — but by the time the timeout fires the *lock* may have been
/// flipped to any mode, so the removal algorithm is chosen per attempt from
/// the lock's current resolved mode, pinned by the removal transaction's own
/// presence (mode flips need the serial gate, whose sweep waits it out; see
/// [`remove_waiter_tx`]). Never suspends, so the async driver's
/// `WaitEntryGuard` may also call it from `Drop`.
pub(crate) fn cancel_wait(th: &ThreadHandle, lock: &ElidableMutex, cv: &TxCondvar, raw: RawWaiter) {
    let sys = &*th.sys;
    let mut attempts = 0u32;
    let removed = loop {
        // Abort storm, or a mode whose ring is not transactional: do it
        // under total exclusion.
        if attempts >= sys.policy().stm_retries {
            break remove_waiter_excluded(th, lock, cv, raw);
        }
        let mode = lock.resolved_mode(sys.mode());
        if !ring_is_transactional(mode) {
            break remove_waiter_excluded(th, lock, cv, raw);
        }
        let slots = (th.stm_slot, th.htm_slot);
        match remove_waiter_tx(sys, lock, mode, slots, cv, raw, Driver::Sync, &mut None) {
            Removal::Done(found) => break found,
            Removal::Retreat => sys.gate.wait_open(),
            Removal::Aborted => {
                attempts += 1;
                backoff(th.stm_slot, attempts, 0, sys.policy().backoff_ceiling);
            }
        }
    };
    if removed {
        drop_ring_ref(raw);
    }
}

/// Remove a waiter entry under **total exclusion** (serial gate, raw mutex,
/// and adaptive lock word — the same protocol as a mode flip): direct ring
/// access is then safe regardless of which mode the lock's other users run
/// under. Returns whether the entry was still present.
fn remove_waiter_excluded(
    th: &ThreadHandle,
    lock: &ElidableMutex,
    cv: &TxCondvar,
    raw: RawWaiter,
) -> bool {
    let sys = &*th.sys;
    let _token = sys.enter_serial();
    sched::block_enter();
    let _guard = lock.raw_lock();
    sched::block_exit();
    // Serial gate held: the resolved mode cannot flip under us, so the
    // acquire/release pair keeps the lazy seqlock parity consistent.
    let mode = lock.resolved_mode(sys.mode());
    adaptive_acquire(th, lock, mode);
    let removed = remove_waiter_direct(cv, raw);
    adaptive_release(lock, mode);
    removed
}

/// Direct ring removal; the caller holds total exclusion.
pub(crate) fn remove_waiter_direct(cv: &TxCondvar, raw: RawWaiter) -> bool {
    cv.remove(
        &mut TxCtx::new(CtxKind::Direct { baseline: false }, None, Driver::Sync),
        raw.ptr(),
    )
    .expect("direct access cannot abort")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The drift this module's single `settle` ended: the async ladder used
    /// to fold a safe-lazy begin refusal into the eager "subscribed, held"
    /// step and retry it hot. Eager subscribed-held retries at once (the
    /// driver waits for the lock word before every attempt); a lazy refusal
    /// is an ordinary conflict abort and backs off.
    #[test]
    fn lazy_refusal_backs_off_and_eager_held_retries_now() {
        let sys = Arc::new(TmSystem::new(AlgoMode::AdaptiveHtmLazy));
        let th = sys.register();
        let lock = ElidableMutex::new("settle");
        let budget = Budget {
            deadline: None,
            fallible: false,
        };
        for mode in [AlgoMode::AdaptiveHtm, AlgoMode::AdaptiveHtmLazy] {
            let engine = Engine::Adaptive { mode };
            let mut ladder = Ladder::new(&th, &lock, engine, 0, TxHints::default(), budget);
            let left = &mut Committed::default();
            assert!(matches!(
                ladder.settle::<()>(Step::SubscribedHeld, left),
                Next::RetryNow
            ));
            assert!(matches!(
                ladder.settle::<()>(Step::Abort(AbortCause::Conflict), left),
                Next::Backoff
            ));
            assert_eq!(ladder.attempts, 2, "both count against the retry budget");
        }
        // A held lock refuses the safe-lazy begin as a conflict *abort*.
        lock.seq_bump();
        let mut tx = sys.htm.begin(th.htm_slot);
        let refused = adaptive_subscribe::<()>(&mut tx, &lock, AlgoMode::AdaptiveHtmLazy, 0, None);
        assert!(matches!(
            refused,
            Err((AbortCause::Conflict, Step::Abort(AbortCause::Conflict)))
        ));
        tx.abort(AbortCause::Conflict);
    }

    /// A retreat is not an attempt: a section a held gate turns away `K`
    /// times and that then commits reports one commit and nothing else — no
    /// abort in any stat row, the retry budget, the starvation ladder and the
    /// lock's outcome window untouched — on every gate-supervised engine and
    /// under both drivers.
    #[test]
    fn retreats_under_a_held_gate_count_nothing() {
        use tle_base::TCell;
        use tle_stm::StmAlgo;
        const K: usize = 5;
        for (mode, algo) in [
            (AlgoMode::StmCondvar, StmAlgo::MlWt),
            (AlgoMode::StmCondvar, StmAlgo::Norec),
            (AlgoMode::HtmCondvar, StmAlgo::MlWt),
        ] {
            for driver in [Driver::Sync, Driver::Async] {
                let sys = Arc::new(TmSystem::new(mode));
                sys.set_stm_algo(algo);
                let th = sys.register();
                let lock = ElidableMutex::new("retreat");
                let cell = TCell::new(0u64);
                let budget = Budget {
                    deadline: None,
                    fallible: false,
                };
                let engine = Engine::of(mode).expect("a TM mode");
                let mut ladder = Ladder::new(&th, &lock, engine, 0, TxHints::default(), budget);
                let left = &mut Committed::default();
                let f = &mut |ctx: &mut TxCtx<'_>| ctx.update(&cell, |v| v + 1);
                let slots = (th.stm_slot, th.htm_slot);

                let pending = sys.gate.request_serial();
                for _ in 0..K {
                    assert!(ladder.gate::<u64>().is_none());
                    let step = ladder.attempt(slots, driver, left, f);
                    assert!(matches!(step, Step::Retreat), "{mode:?}/{algo:?}");
                    assert!(sys.presence_idle(), "a retired transaction is not present");
                    assert!(matches!(ladder.settle(step, left), Next::AwaitGate));
                }
                drop(pending);
                let step = ladder.attempt(slots, driver, left, f);
                assert!(matches!(step, Step::Done(1)), "{mode:?}/{algo:?}");
                if let Some(mut ticket) = left.take_owed() {
                    while sys.stm.quiesce_pass(&mut ticket).is_none() {}
                }
                assert!(matches!(ladder.settle(step, left), Next::Done(1)));

                assert_eq!((ladder.attempts, th.consecutive_aborts()), (0, 0));
                let d = sys.domain_stats();
                let tm = if mode == AlgoMode::HtmCondvar {
                    &d.htm
                } else {
                    &d.stm
                };
                // `core.attempts_per_commit` = (commits + aborts) / commits = 1.
                assert_eq!((tm.commits, tm.aborts), (1, 0), "{mode:?}/{algo:?}: {d:?}");
                assert_eq!(d.tle.serial_fallbacks, 0);
                let w = lock.domain().window.snapshot();
                assert_eq!((w.commits, w.attempts()), (1, 1), "{mode:?}/{algo:?}");
                assert_eq!(cell.load_direct(), 1);
            }
        }
    }

    #[test]
    fn settle_surfaces_runner_errors_only_to_fallible_sections() {
        let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
        let th = sys.register();
        let lock = ElidableMutex::new("settle-err");
        let budget = Budget {
            deadline: None,
            fallible: true,
        };
        let engine = Engine::Stm { spin: false };
        let mut ladder = Ladder::new(&th, &lock, engine, 0, TxHints::default(), budget);
        let left = &mut Committed::default();
        assert!(matches!(
            ladder.settle::<()>(Step::RunnerErr(TxError::Overloaded), left),
            Next::Err(TxError::Overloaded)
        ));
        ladder.budget.fallible = false;
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ladder.settle::<()>(Step::RunnerErr(TxError::DeadlineExceeded), left)
        }));
        let msg = *refused
            .err()
            .expect("must refuse")
            .downcast::<String>()
            .unwrap();
        assert!(msg.contains("try_run"), "message names the fix: {msg}");
    }
}
