//! [`TxCtx`] — the uniform critical-section handle.
//!
//! Application code is written once against this type; the variant behind
//! it decides whether an access is a plain load/store (baseline lock,
//! serial-irrevocable mode) or an instrumented transactional access (STM /
//! simulated HTM). This mirrors how the C++ TMTS lets one source body
//! compile into lock, STM and HTM flavours.

use crate::condvar::{RawWaiter, TxCondvar, Waiter};
use crate::runner::{drop_ring_ref, Driver};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tle_base::sched::{self, YieldPoint};
use tle_base::trace::{self, TraceKind};
use tle_base::{AbortCause, TCell, TxVal};
use tle_htm::HtmTx;
use tle_stm::SoftTx;

/// Error type flowing out of transactional closures.
#[derive(Debug)]
pub enum TxError {
    /// The attempt must abort (conflict, capacity, explicit cancel, or an
    /// unsafe operation that needs serialization). The runner retries or
    /// falls back per policy.
    Abort(AbortCause),
    /// The closure requested a condition wait ([`TxCtx::wait`]): commit the
    /// transaction, block, and re-run the closure.
    Wait,
    /// The section's retry-time budget ([`crate::TxHints::with_deadline`])
    /// expired before a commit. Raised by the runner at retry-ladder
    /// decision points (never mid-attempt, and never once the section has
    /// entered serial or locked mode, whose effects cannot be undone);
    /// surfaces to callers through
    /// [`TxRequest::try_run`](crate::TxRequest::try_run) and its async twin.
    DeadlineExceeded,
    /// The lock's admission controller is in its shed step: the section was
    /// refused at dispatch so a hot lock fails fast instead of collapsing
    /// every caller. Surfaces through
    /// [`TxRequest::try_run`](crate::TxRequest::try_run) and its async twin.
    Overloaded,
}

impl From<AbortCause> for TxError {
    fn from(c: AbortCause) -> Self {
        TxError::Abort(c)
    }
}

pub(crate) enum CtxKind<'a> {
    /// Direct memory access under an exclusion the runner holds: the
    /// baseline mutex (`baseline`), else the global serial gate or the
    /// adaptive lock word.
    Direct { baseline: bool },
    /// Software transaction (of the domain's selected [`tle_stm::StmAlgo`]).
    /// `spin_waits` selects the paper's "STM + Spin" degradation where
    /// waiting becomes polling.
    Stm { tx: SoftTx<'a>, spin_waits: bool },
    /// Simulated hardware transaction.
    Htm { tx: HtmTx<'a> },
}

/// A recorded wait request, consumed by the runner after the transaction
/// commits.
pub(crate) struct PendingWait<'a> {
    /// Private wakeup channel (None for baseline/spin waits, which do not
    /// enqueue).
    pub waiter: Option<Arc<Waiter>>,
    /// The extra `Arc` reference owned by the condvar queue entry (null
    /// when nothing was enqueued); the runner reclaims it if the enqueue
    /// transaction fails to commit.
    pub raw: RawWaiter,
    pub cv: &'a TxCondvar,
    pub timeout: Option<Duration>,
}

/// The critical-section handle passed to closures run by the
/// [`ThreadHandle::tx`](crate::ThreadHandle::tx) terminals.
pub struct TxCtx<'a> {
    pub(crate) kind: CtxKind<'a>,
    pub(crate) defers: Vec<Box<dyn FnOnce() + Send + 'static>>,
    pub(crate) pending_wait: Option<PendingWait<'a>>,
    /// Absolute expiry of the section's retry-time budget
    /// ([`crate::TxHints::with_deadline`]); `None` when unbounded.
    pub(crate) deadline: Option<Instant>,
    /// Set under the async driver: waits must produce a pollable registration
    /// instead of relying on OS parking. Only the baseline path behaves
    /// differently (it enqueues into the transactional ring — safe under
    /// the held mutex — rather than using the native condvar channel).
    pub(crate) async_waits: bool,
}

impl<'a> TxCtx<'a> {
    pub(crate) fn new(kind: CtxKind<'a>, deadline: Option<Instant>, driver: Driver) -> Self {
        TxCtx {
            kind,
            defers: Vec::new(),
            pending_wait: None,
            deadline,
            async_waits: driver == Driver::Async,
        }
    }

    /// Time left in the section's retry budget; `None` when unbounded,
    /// `Some(ZERO)` once expired.
    pub fn remaining_budget(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Clamp a requested wait timeout to the remaining retry budget, so a
    /// parked waiter cannot outsleep its transaction's deadline.
    fn clamp_to_deadline(&self, timeout: Option<Duration>) -> Option<Duration> {
        match (timeout, self.remaining_budget()) {
            (t, None) => t,
            (None, Some(rem)) => Some(rem),
            (Some(t), Some(rem)) => Some(t.min(rem)),
        }
    }

    /// Whether the section is running as a transaction (vs. under a real
    /// lock or global serialization).
    pub fn is_transactional(&self) -> bool {
        matches!(self.kind, CtxKind::Stm { .. } | CtxKind::Htm { .. })
    }

    /// Raw read used by both the public API and the condvar machinery.
    pub(crate) fn mem_read<T: TxVal>(&mut self, c: &TCell<T>) -> Result<T, AbortCause> {
        match &mut self.kind {
            CtxKind::Direct { .. } => {
                // Interleaving point: on real hardware a lock/serial
                // section's plain loads race freely with everything a
                // broken elision lets run concurrently, so the explorer
                // must be able to split a serial section between accesses
                // (the lazy-subscription hazards are invisible otherwise).
                sched::yield_point(YieldPoint::MemStore);
                let v = c.load_direct();
                trace::emit_direct(TraceKind::Read, c.addr() as u64, v.to_word());
                Ok(v)
            }
            CtxKind::Stm { tx, .. } => tx.read(c),
            CtxKind::Htm { tx } => tx.read(c),
        }
    }

    /// [`mem_read`](Self::mem_read) of a cell the section writes next: the
    /// HTM claims the line on the read ([`HtmTx::read_for_write`]). Every
    /// other kind *is* `mem_read`, called, not restated: a restated lock
    /// arm compiles into the shared runner instance differently and moved
    /// the lock path 3–5 % (EXPERIMENTS.md §21).
    fn mem_read_owned<T: TxVal>(&mut self, c: &TCell<T>) -> Result<T, AbortCause> {
        if let CtxKind::Htm { tx } = &mut self.kind {
            return tx.read_for_write(c);
        }
        self.mem_read(c)
    }

    /// Raw write used by both the public API and the condvar machinery.
    pub(crate) fn mem_write<T: TxVal>(&mut self, c: &TCell<T>, v: T) -> Result<(), AbortCause> {
        match &mut self.kind {
            CtxKind::Direct { .. } => {
                // Interleaving point: see `mem_read`.
                sched::yield_point(YieldPoint::MemStore);
                c.store_direct(v);
                trace::emit_direct(TraceKind::Write, c.addr() as u64, v.to_word());
                Ok(())
            }
            CtxKind::Stm { tx, .. } => tx.write(c, v),
            CtxKind::Htm { tx } => tx.write(c, v),
        }
    }

    /// Read a transactional cell.
    #[inline]
    pub fn read<T: TxVal>(&mut self, c: &TCell<T>) -> Result<T, TxError> {
        self.mem_read(c).map_err(TxError::from)
    }

    /// Write a transactional cell.
    #[inline]
    pub fn write<T: TxVal>(&mut self, c: &TCell<T>, v: T) -> Result<(), TxError> {
        self.mem_write(c, v).map_err(TxError::from)
    }

    /// Read-modify-write convenience. Under the HTM the read claims the
    /// line for writing ([`HtmTx::read_for_write`]).
    #[inline]
    pub fn update<T: TxVal>(&mut self, c: &TCell<T>, f: impl FnOnce(T) -> T) -> Result<T, TxError> {
        let old = self.mem_read_owned(c).map_err(TxError::from)?;
        let new = f(old);
        self.write(c, new)?;
        Ok(new)
    }

    /// Defer an action to run after the critical section completes
    /// (post-commit for transactions, post-unlock for the baseline). This is
    /// the mechanism the paper uses for logging-under-lock (§VI-c): the
    /// effect is irrevocable, so it must not run inside an abortable
    /// attempt.
    pub fn defer(&mut self, f: impl FnOnce() + Send + 'static) {
        self.defers.push(Box::new(f));
    }

    /// The paper's `TM_NoQuiesce` (§IV-B): assert this transaction does not
    /// privatize, skipping the post-commit quiescence drain. No-op outside
    /// STM (HTM never quiesces; baseline/serial have no drain), and ignored
    /// unless the system's quiescence policy is `Selective`.
    pub fn no_quiesce(&mut self) {
        if let CtxKind::Stm { tx, .. } = &mut self.kind {
            tx.no_quiesce();
        }
    }

    /// Declare that this transaction frees memory; forces quiescence even
    /// under `TM_NoQuiesce` (allocator-mandated drain, paper §IV-B).
    pub fn will_free_memory(&mut self) {
        if let CtxKind::Stm { tx, .. } = &mut self.kind {
            tx.will_free_memory();
        }
    }

    /// Mark that the section performs an operation that cannot run
    /// speculatively (I/O, syscall). Under a real lock or in serial mode
    /// this is a no-op; in a transaction it aborts with
    /// [`AbortCause::Unsafe`] and the runner re-executes the section in
    /// serial-irrevocable mode.
    pub fn unsafe_op(&mut self) -> Result<(), TxError> {
        match &mut self.kind {
            CtxKind::Direct { .. } => Ok(()),
            CtxKind::Stm { .. } => Err(TxError::Abort(AbortCause::Unsafe)),
            CtxKind::Htm { tx } => {
                tx.unsafe_op()?;
                Ok(())
            }
        }
    }

    /// Explicitly cancel the transaction (the TMTS "cancel" exception).
    /// Not available under the baseline or in serial mode (effects cannot
    /// be undone there) — the runner panics if it receives this outside a
    /// transaction.
    pub fn cancel(&mut self) -> TxError {
        TxError::Abort(AbortCause::Explicit)
    }

    /// Wait on `cv` until signalled (or until `timeout`, if given).
    ///
    /// Always returns `Err(TxError::Wait)`, which the closure must
    /// propagate; the runner then commits the transaction (making the
    /// waiter registration visible atomically with the predicate check —
    /// Wang's construction, no lost wakeups), blocks, and re-runs the
    /// closure. Under `StmSpin` the registration is skipped and the closure
    /// is simply re-run — polling.
    /// When the section carries a deadline hint the effective timeout is
    /// clamped to the remaining retry budget, whichever is sooner — a wait
    /// can never sleep past its transaction's deadline.
    pub fn wait(&mut self, cv: &'a TxCondvar, timeout: Option<Duration>) -> Result<(), TxError> {
        let timeout = self.clamp_to_deadline(timeout);
        // Async baseline sections cannot use the native condvar channel
        // (parking would stall an executor worker); they enqueue into the
        // transactional ring instead — direct ring access is safe under the
        // held mutex, exactly as in [`signal`](Self::signal) — and the
        // runner awaits the waiter's waker.
        let ring_wait = match &self.kind {
            CtxKind::Direct { baseline } => !baseline || self.async_waits,
            CtxKind::Stm { spin_waits, .. } => !spin_waits,
            CtxKind::Htm { .. } => true,
        };
        if !ring_wait {
            self.pending_wait = Some(PendingWait {
                waiter: None,
                raw: RawWaiter::new(std::ptr::null()),
                cv,
                timeout,
            });
            return Err(TxError::Wait);
        }
        let waiter = Arc::new(Waiter::new());
        let raw = RawWaiter::new(Arc::into_raw(Arc::clone(&waiter)));
        if let Err(cause) = cv.enqueue(self, raw.ptr()) {
            // The enqueue writes rolled back with the attempt; reclaim the
            // queue's reference here.
            drop_ring_ref(raw);
            return Err(TxError::Abort(cause));
        }
        self.pending_wait = Some(PendingWait {
            waiter: Some(waiter),
            raw,
            cv,
            timeout,
        });
        Err(TxError::Wait)
    }

    /// Wake one waiter of `cv`. Under transactions the wakeup is a deferred
    /// action delivered at commit (so an aborted signaller wakes no one).
    ///
    /// Per-lock mode flips mean the waiter population can be mixed: threads
    /// that registered transactionally in the ring before a flip to
    /// baseline, and threads parked on the native channel before a flip
    /// away from it. Every arm therefore services both populations; the
    /// worst case is an extra wakeup, which waiters absorb by re-checking
    /// their predicate.
    pub fn signal(&mut self, cv: &TxCondvar) -> Result<(), TxError> {
        match &mut self.kind {
            CtxKind::Direct { baseline: true } => {
                // Direct ring access is safe here: the raw mutex is held,
                // and the flip that made this lock baseline excluded (and
                // doomed) all transactional ring users first.
                if let Some(raw) = cv.dequeue(self)? {
                    self.defer_notify(raw);
                }
                cv.notify_native_one();
                Ok(())
            }
            _ => {
                if let Some(raw) = cv.dequeue(self)? {
                    self.defer_notify(raw);
                } else if cv.has_native_waiters() {
                    cv.notify_native_all();
                }
                Ok(())
            }
        }
    }

    /// Wake all waiters of `cv` (both the transactional ring and any
    /// natively parked pre-flip waiters; see [`signal`](Self::signal)).
    pub fn broadcast(&mut self, cv: &TxCondvar) -> Result<(), TxError> {
        match &mut self.kind {
            CtxKind::Direct { baseline: true } => {
                while let Some(raw) = cv.dequeue(self)? {
                    self.defer_notify(raw);
                }
                cv.notify_native_all();
                Ok(())
            }
            _ => {
                while let Some(raw) = cv.dequeue(self)? {
                    self.defer_notify(raw);
                }
                if cv.has_native_waiters() {
                    cv.notify_native_all();
                }
                Ok(())
            }
        }
    }

    fn defer_notify(&mut self, raw: *const Waiter) {
        let raw = RawWaiter::new(raw);
        self.defers.push(Box::new(move || {
            // SAFETY: the pointer is the queue-owned Arc reference produced
            // by `wait`; dequeue transferred ownership to this action.
            let w = unsafe { Arc::from_raw(raw.ptr()) };
            w.notify();
        }));
    }
}
