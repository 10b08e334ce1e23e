//! The async driver of the TLE execution engine: the same core as the sync
//! driver (`runner`: [`dispatch`](runner::dispatch), the [`Ladder`] with
//! its `gate` / `attempt` / `settle`,
//! [`exclusive_body`](runner::exclusive_body)), with every wait edge turned
//! into a suspension point.
//!
//! ## Synchronous attempts, asynchronous waits
//!
//! An atomic block never suspends mid-speculation: each *attempt* (begin →
//! closure → commit) is a plain synchronous core call that starts and
//! finishes inside one `poll` — suspending with orecs or line claims held
//! would pin them across arbitrary scheduling delays (`tle-lint` rule R6
//! rejects `.await` inside atomic-block closures for the same reason).
//! What this driver does differently from the sync one is the edge table of
//! DESIGN.md §16, nothing else:
//!
//! - waiting out a closed serial gate suspends on the gate's waker registry
//!   (`Gate::poll_open`), and serial entry suspends on another serial
//!   section's exit and yields between presence sweeps
//!   (`TmSystem::enter_serial_async`);
//! - slots come from a transient [`SlotClaim`], not the handle (below);
//! - a post-commit quiescence drain comes back from the core as a ticket
//!   and is polled one slot sweep per `StmGlobal::quiesce_pass`;
//! - backoff is the core's bounded spin plus an executor yield;
//! - condvar blocks arm a waker (`Waiter::poll_signaled`, plus executor
//!   timers for timed waits) instead of parking;
//! - waits for the adaptive lock word, and the doom sweeps of its
//!   acquisition (`HtmGlobal::try_invalidate`), yield instead of spinning;
//! - the nested-section guard is held per closure call
//!   ([`Driver::Async`](runner::Driver)), not across the dispatch.
//!
//! This split is also what makes the returned futures `Send` without extra
//! locking: no transaction, context, or lock guard is ever live across an
//! `.await`.
//!
//! ## Transient slot claims
//!
//! Async sections do **not** run on the handle's own STM/HTM slots: one
//! [`ThreadHandle`] may serve thousands of concurrent logical sessions, and
//! two simultaneous transactions publishing through one slot would corrupt
//! the quiescence protocol (and the HTM slot state outright). Each attempt
//! instead claims a fresh slot pair from the bounded registries
//! ([`SlotClaim`]) and releases it as soon as the attempt — plus its
//! quiescence drain, which scans by slot index — completes. Claims never
//! span condvar waits, so parked sessions cannot starve runnable ones out
//! of slots; registry exhaustion backpressures with a scheduler yield.
//!
//! ## Baseline mode
//!
//! The baseline path acquires the real mutex with `try_lock` + yield (an
//! executor worker must never park in the OS — `tle_base::park` asserts
//! this under the waker backend), and waits enqueue into the transactional
//! ring under the held mutex instead of using the native condvar channel
//! (see `TxCtx::wait`); signallers already service the ring in every mode.
//!
//! ## Cancellation
//!
//! Ring entries self-cancel: [`WaitEntryGuard`] removes the entry
//! synchronously when a suspended wait is dropped instead of polled to
//! completion, so a later signal always reaches a live waiter. See
//! DESIGN.md §16.

use crate::condvar::{RawWaiter, TxCondvar, Waiter};
use crate::ctx::{PendingWait, TxCtx, TxError};
use crate::elide::ElidableMutex;
use crate::runner::{
    self, Budget, Committed, Doom, Driver, Early, Engine, Exclusion, Ladder, Next, Outcome,
    Removal, Section, SerialOutcome, SerialStep,
};
use crate::system::{AlgoMode, ThreadHandle, TmSystem, TxHints};
use std::future::Future as _;
use std::task::Poll;
use std::time::{Duration, Instant};
use tle_base::exec;
use tle_base::sched::{self, YieldPoint};
use tle_base::trace::{self, TraceKind, TxMode};
use tle_stm::QuiesceTicket;

/// A transient STM + HTM slot pair claimed for one attempt; both slots are
/// returned to the registries on drop.
struct SlotClaim<'s> {
    sys: &'s TmSystem,
    stm: usize,
    htm: usize,
}

impl Drop for SlotClaim<'_> {
    fn drop(&mut self) {
        self.sys.stm.slots.unregister_raw(self.stm);
        self.sys.htm.slots.unregister_raw(self.htm);
    }
}

/// Claim a slot pair, yielding to the executor while the registries are
/// exhausted. Terminates: slots are held only across synchronous attempts
/// and their drains, never across condvar waits, so holders always release
/// in bounded time.
async fn claim_slots(sys: &TmSystem) -> SlotClaim<'_> {
    loop {
        if let Some(stm) = sys.stm.slots.register_raw() {
            match sys.htm.slots.register_raw() {
                Some(htm) => return SlotClaim { sys, stm, htm },
                None => sys.stm.slots.unregister_raw(stm),
            }
        }
        exec::yield_now().await;
    }
}

/// Suspend until the serial gate is open: the async form of
/// `Gate::wait_open`, for a task whose transaction has retired.
async fn gate_open(sys: &TmSystem) {
    std::future::poll_fn(|cx| sys.gate.poll_open(cx)).await
}

/// One spin-hinted executor yield: the async form of every lock-word wait.
async fn yield_on_lock_word() {
    sched::spin_hint(YieldPoint::LockWord);
    exec::yield_now().await;
}

/// Run one critical section as a future. `fallible` selects
/// `try_run_async` semantics (see `runner::run`).
pub(crate) async fn run_async<'a, R, F>(
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
    let section = Section::enter(lock, hints, fallible);
    let budget = section.budget;
    loop {
        let (epoch, mode, early) = runner::dispatch(th, lock, budget);
        let outcome = match early {
            Some(Early::Refuse(e)) => return Err(e),
            Some(Early::Serialize) => {
                match exclusive_async(th, lock, None, epoch, budget.deadline, f).await {
                    SerialOutcome::Done(r) => return Ok(r),
                    SerialOutcome::Retry | SerialOutcome::Redispatch => continue,
                }
            }
            None => match Engine::of(mode) {
                None => run_locked_async(th, lock, epoch, budget.deadline, f).await,
                Some(engine) => drive_async(th, lock, engine, epoch, hints, budget, f).await,
            },
        };
        match outcome {
            Outcome::Done(r) => return Ok(r),
            Outcome::Redispatch => continue,
            Outcome::Expired(e) => return Err(e),
        }
    }
}

/// The ladder loop, suspending at every wait edge.
async fn drive_async<'a, R, F>(
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
    let sys = &*th.sys;
    let lock_path = engine.lock_path();
    let mut ladder = Ladder::new(th, lock, engine, epoch, hints, budget);
    let mut left = Committed::default();
    loop {
        let next = match ladder.gate() {
            Some(next) => next,
            None => {
                // Don't start while the lock is held (see the sync
                // driver); yield the worker instead of spinning.
                while lock_path.is_some_and(|mode| !mode.is_lazy())
                    && lock.held_cell().load_direct()
                {
                    yield_on_lock_word().await;
                }
                let slots = claim_slots(sys).await;
                let claimed = (slots.stm, slots.htm);
                let step = ladder.attempt(claimed, Driver::Async, &mut left, f);
                if let Some(ticket) = left.take_owed() {
                    left.quiesced(drain_ticket(sys, ticket).await);
                }
                drop(slots);
                ladder.settle(step, &mut left)
            }
        };
        match next {
            Next::Done(r) => return Outcome::Done(r),
            Next::Park => block_on_async(th, lock, left.take_wait()).await,
            Next::Backoff => {
                // The bounded spin stays inside one poll; the yield gives
                // co-scheduled tasks — possibly the conflicting one — the
                // worker.
                ladder.backoff();
                exec::yield_now().await;
            }
            Next::RetryNow => {}
            Next::AwaitGate => gate_open(sys).await,
            Next::Fallback => {
                match exclusive_async(th, lock, lock_path, epoch, budget.deadline, f).await {
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

/// Drain a post-commit quiescence ticket, one slot sweep per poll; returns
/// the measured drain wait in nanoseconds. The transaction is already
/// published when this runs — the drain only delays *this caller* until
/// concurrent readers of the pre-commit state are done (privatization
/// safety), so suspending between sweeps is sound.
async fn drain_ticket(sys: &TmSystem, mut t: QuiesceTicket) -> u64 {
    loop {
        if let Some(info) = sys.stm.quiesce_pass(&mut t) {
            return info.quiesce_wait_ns;
        }
        exec::yield_now().await;
    }
}

/// Async form of the sync driver's `exclusive`: suspend into the adaptive
/// lock word (`lock_path`) or the serial gate, run the core's exclusive
/// body inside one poll, release, then await a committed wait.
///
/// Cancel audit: the serial token releases the gate in its `Drop` impl, so
/// this future being dropped while suspended reopens the gate; the lock
/// word is only ever held inside one poll.
async fn exclusive_async<'a, R, F>(
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
    let sys = &*th.sys;
    let step = match lock_path {
        Some(mode) => {
            adaptive_acquire_async(sys, lock, mode).await;
            if lock.domain().epoch() != epoch {
                runner::adaptive_release(lock, mode);
                return SerialOutcome::Redispatch;
            }
            let step =
                runner::exclusive_body(th, lock, Exclusion::LockWord, deadline, Driver::Async, f);
            runner::adaptive_release(lock, mode);
            step
        }
        None => {
            let _token = sys.enter_serial_async().await;
            if lock.domain().epoch() != epoch {
                return SerialOutcome::Redispatch;
            }
            runner::exclusive_body(th, lock, Exclusion::SerialGate, deadline, Driver::Async, f)
        }
    };
    match step.run_defers() {
        Ok(r) => SerialOutcome::Done(r),
        Err(pw) => {
            block_on_async(th, lock, pw).await;
            SerialOutcome::Retry
        }
    }
}

/// Baseline mode on a worker that must never park: `try_lock` + yield, and
/// a waiting section *releases* the mutex and awaits its ring registration
/// (the core enqueued it under the held mutex, `Driver::Async`) — where the
/// sync `run_locked` keeps the guard alive across a native condvar wait.
/// The guard never crosses an `.await`.
async fn run_locked_async<'a, R, F>(
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
    loop {
        // `None`: the mutex was busy. It is released across a wait, so a
        // flip may have completed in between: the epoch is checked on
        // every round. The guard never crosses an `.await`.
        let step = match lock.raw().try_lock() {
            None => None,
            Some(_) if lock.domain().epoch() != epoch => return Outcome::Redispatch,
            Some(_guard) => Some(runner::exclusive_body(
                th,
                lock,
                Exclusion::Mutex,
                deadline,
                Driver::Async,
                f,
            )),
        };
        match step.map(SerialStep::run_defers) {
            None => yield_on_lock_word().await,
            Some(Ok(r)) => return Outcome::Done(r),
            Some(Err(pw)) => block_on_async(th, lock, pw).await,
        }
    }
}

/// Acquire the adaptive lock word without monopolizing a worker: CAS with
/// executor yields, then doom whoever `runner::announce_acquisition` names
/// through the non-blocking sweeps
/// ([`try_invalidate`](tle_htm::HtmGlobal::try_invalidate),
/// [`try_doom_all_active`](tle_htm::HtmGlobal::try_doom_all_active)),
/// yielding while a victim is mid-commit.
async fn adaptive_acquire_async(sys: &TmSystem, lock: &ElidableMutex, mode: AlgoMode) {
    sched::yield_point(YieldPoint::LockWord);
    while !runner::try_acquire_word(lock) {
        yield_on_lock_word().await;
    }
    let doom = runner::announce_acquisition(lock, mode);
    loop {
        let swept = match doom {
            Doom::Subscribers => sys.htm.try_invalidate(lock.held_cell()),
            Doom::AllActive => sys.htm.try_doom_all_active(),
            Doom::Nobody => true,
        };
        if swept {
            return;
        }
        yield_on_lock_word().await;
    }
}

/// Removes an abandoned ring entry when a suspended async wait is dropped
/// instead of polled to completion: without this, the entry would linger
/// and a later signal could be consumed by the ghost waiter (the PR-8
/// cancellation caveat, DESIGN.md §16). The removal runs synchronously in
/// `Drop` via `runner::cancel_wait` — ring-entry ownership transfer never
/// suspends, and the dropping thread is by definition outside any poll.
/// Defused on every normal exit path (signal, timeout-cancel).
struct WaitEntryGuard<'a> {
    th: &'a ThreadHandle,
    lock: &'a ElidableMutex,
    cv: &'a TxCondvar,
    raw: RawWaiter,
    armed: bool,
}

impl Drop for WaitEntryGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            runner::cancel_wait(self.th, self.lock, self.cv, self.raw);
        }
    }
}

/// Suspend on a committed wait registration (or just yield under spin-mode
/// polling).
async fn block_on_async<'a>(th: &'a ThreadHandle, lock: &'a ElidableMutex, pw: PendingWait<'a>) {
    match pw.waiter {
        None => {
            // Spin/poll degradation: re-run the section after giving the
            // worker away once.
            sched::spin_hint(YieldPoint::Park);
            exec::yield_now().await;
        }
        Some(waiter) => {
            let mut guard = WaitEntryGuard {
                th,
                lock,
                cv: pw.cv,
                raw: pw.raw,
                armed: true,
            };
            let signaled = wait_signaled(&waiter, pw.timeout).await;
            guard.armed = false;
            trace::emit(TraceKind::WaitPark, TxMode::Serial, None, !signaled as u64);
            if !signaled {
                cancel_wait_async(th, lock, pw.cv, pw.raw).await;
            }
        }
    }
}

/// Await the waiter's signal, bounded by `timeout` via an executor timer.
/// Returns whether the wait was signalled (`false` = timed out). On the
/// timeout edge the signal flag disambiguates a race: a notify that landed
/// before the timer fired counts as signalled.
async fn wait_signaled(waiter: &Waiter, timeout: Option<Duration>) -> bool {
    match timeout {
        None => {
            std::future::poll_fn(|cx| waiter.poll_signaled(cx)).await;
            true
        }
        Some(t) => {
            let deadline = Instant::now() + t;
            let mut sleep = exec::sleep_until(deadline);
            std::future::poll_fn(move |cx| {
                if waiter.poll_signaled(cx).is_ready() {
                    return Poll::Ready(true);
                }
                match std::pin::Pin::new(&mut sleep).poll(cx) {
                    Poll::Ready(()) => Poll::Ready(waiter.is_signaled()),
                    Poll::Pending => Poll::Pending,
                }
            })
            .await
        }
    }
}

/// Timed-out waiter: remove our ring entry, as `runner::cancel_wait` does,
/// but suspending on a closed gate, with transient slot claims, a polled
/// drain and an async-safe excluded path.
async fn cancel_wait_async<'a>(
    th: &'a ThreadHandle,
    lock: &'a ElidableMutex,
    cv: &'a TxCondvar,
    raw: RawWaiter,
) {
    let sys = &*th.sys;
    let mut attempts = 0u32;
    let removed = loop {
        if attempts >= sys.policy().stm_retries {
            break remove_waiter_excluded_async(th, lock, cv, raw).await;
        }
        let mode = lock.resolved_mode(sys.mode());
        if !runner::ring_is_transactional(mode) {
            break remove_waiter_excluded_async(th, lock, cv, raw).await;
        }
        let slots = claim_slots(sys).await;
        let claimed = (slots.stm, slots.htm);
        let mut owed = None;
        let removal =
            runner::remove_waiter_tx(sys, lock, mode, claimed, cv, raw, Driver::Async, &mut owed);
        if let Some(ticket) = owed {
            drain_ticket(sys, ticket).await;
        }
        drop(slots);
        match removal {
            Removal::Done(found) => break found,
            Removal::Retreat => gate_open(sys).await,
            Removal::Aborted => {
                attempts += 1;
                runner::backoff(th.stm_slot, attempts, 0, sys.policy().backoff_ceiling);
                exec::yield_now().await;
            }
        }
    };
    if removed {
        runner::drop_ring_ref(raw);
    }
}

/// Remove a waiter entry under total exclusion without ever parking the
/// worker. Lock-order note: the sync `remove_waiter_excluded` takes
/// serial gate → raw mutex → adaptive word; here the word is taken
/// *before* the raw mutex because word acquisition may suspend (it dooms
/// transactions via `try_invalidate`) while a mutex guard must stay inside
/// one poll. The inversion is safe **under the serial token**: every other
/// gate-supervised word+mutex claimant (mode flips, sync excluded removal)
/// queues behind the gate first, and raw-mutex holders that bypass the gate
/// (baseline sections) never take the word, so no cycle exists.
async fn remove_waiter_excluded_async<'a>(
    th: &'a ThreadHandle,
    lock: &'a ElidableMutex,
    cv: &'a TxCondvar,
    raw: RawWaiter,
) -> bool {
    let sys = &*th.sys;
    let _token = sys.enter_serial_async().await;
    // Serial token held: the resolved mode cannot flip under us, so the
    // acquire/release pair keeps the lazy seqlock parity consistent.
    let mode = lock.resolved_mode(sys.mode());
    adaptive_acquire_async(sys, lock, mode).await;
    let removed = loop {
        let removed = lock
            .raw()
            .try_lock()
            .map(|_guard| runner::remove_waiter_direct(cv, raw));
        match removed {
            Some(found) => break found,
            None => exec::yield_now().await,
        }
    };
    runner::adaptive_release(lock, mode);
    removed
}
