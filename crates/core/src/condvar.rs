//! Transaction-friendly condition variables (Wang et al., paper [37]).
//!
//! A classic pthread condvar cannot be used inside a transaction: the wait
//! would block with speculative state live, and the unlock/sleep pair has no
//! transactional equivalent. Wang's construction — the one the paper adopts
//! and extends with timed waits (§VI-d) — makes the *waiter queue itself
//! transactional state*:
//!
//! - a waiting transaction enqueues its waiter handle **transactionally**
//!   and then, as its last action, commits and blocks on a private channel.
//!   Enqueue and predicate check are in the same transaction, so a signal
//!   cannot slip between them: no lost wakeups.
//! - a signalling transaction dequeues a waiter transactionally and defers
//!   the actual wakeup to its commit — an aborted signaller wakes no one.
//! - timed waits (x265's soft real-time requirement) block on the private
//!   channel with a timeout; on timeout the waiter cancels its queue entry
//!   in a small follow-up section: an ordinary section on the waiter's
//!   lock, run by the same dispatch as every other (its mode, retries and
//!   fallback are that lock's). A condvar is used with one lock, as pthreads
//!   requires of `pthread_cond_wait`; the ring's safety rests on that.
//!
//! The ring is the only waiter channel, in every mode. A section that runs
//! under an exclusion instead of a transaction — the baseline mutex, the
//! serial gate, the adaptive lock word — reads and writes it with plain
//! loads and stores, which the exclusion makes safe. Under the baseline
//! that keeps pthread's semantics: the enqueue happens under the mutex, so
//! no signaller can run between predicate check and registration, and the
//! wake is delivered after the signaller's unlock.

use crate::ctx::TxCtx;
use parking_lot::{Condvar, Mutex};
use std::time::Duration;
use tle_base::fault::{self, Hazard};
use tle_base::mutant::{self, Mutant};
use tle_base::sched::{self, YieldPoint};
use tle_base::trace::{self, TraceKind, TxMode};
use tle_base::{AbortCause, TCell};

/// Ring capacity: the number of *live* waiters one condvar can hold. A
/// thread has at most one pending wait, but async tasks are not bounded by
/// `MAX_SLOTS`. Cancelled (null) residue does not count against it: a full
/// ring compacts before it overflows ([`TxCondvar::compact`]).
const RING: usize = 256;

/// The state behind a waiter's private channel: the signalled flag plus an
/// optional task waker armed by the async wait path. Both live under one
/// mutex so a notify can never slip between an async waiter checking the
/// flag and parking its waker.
struct WaitState {
    signaled: bool,
    waker: Option<std::task::Waker>,
}

/// A waiter's private wakeup channel. Sync waits park on the condvar
/// ([`Waiter::wait`]); async waits poll the flag and re-arm a waker
/// ([`Waiter::poll_signaled`]). A single notify serves both.
pub(crate) struct Waiter {
    state: Mutex<WaitState>,
    cv: Condvar,
}

impl Waiter {
    pub(crate) fn new() -> Self {
        Waiter {
            state: Mutex::new(WaitState {
                signaled: false,
                waker: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Wake the waiter (idempotent).
    pub(crate) fn notify(&self) {
        // Fault oracle: widen the window between a committed dequeue and
        // the wakeup delivery. Lost-wakeup bugs hide exactly here — the
        // waiter must already be parked on (or headed for) this private
        // channel, so the delayed notify still lands.
        if fault::maybe_stall(Hazard::SignalDelay) > 0 {
            trace::emit(
                TraceKind::FaultInject,
                TxMode::Locked,
                None,
                Hazard::SignalDelay.index() as u64,
            );
        }
        sched::yield_point(YieldPoint::Notify);
        // Seeded bug: the committed dequeue happened, but the wakeup is
        // dropped on the floor — the waiter sleeps forever (or until its
        // timeout, turning a signal into a spurious-looking timeout). The
        // waker delivery is suppressed along with the condvar notify so the
        // async path sees the same bug.
        if mutant::armed(Mutant::LostSignal) {
            return;
        }
        let waker = {
            let mut s = self.state.lock();
            s.signaled = true;
            self.cv.notify_one();
            s.waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
    }

    /// Async wait step: `Ready(())` once notified, else park the task waker
    /// under the same lock that guards the flag (so a concurrent
    /// [`notify`](Self::notify) either sees the waker or has already set the
    /// flag for the recheck).
    pub(crate) fn poll_signaled(&self, cx: &mut std::task::Context<'_>) -> std::task::Poll<()> {
        let mut s = self.state.lock();
        if s.signaled {
            std::task::Poll::Ready(())
        } else {
            s.waker = Some(cx.waker().clone());
            std::task::Poll::Pending
        }
    }

    /// Non-blocking check (async timeout path: distinguishes "signalled
    /// while cancelling" from a clean timeout).
    pub(crate) fn is_signaled(&self) -> bool {
        self.state.lock().signaled
    }

    /// Block until notified; returns `true` if notified, `false` on timeout.
    pub(crate) fn wait(&self, timeout: Option<Duration>) -> bool {
        // Fault oracle: deliver one spurious return from the sleep — the
        // predicate loop below must re-check `state` and park again rather
        // than report a wakeup that never happened.
        let mut spurious = fault::enabled() && fault::fire(Hazard::SpuriousWake);
        if spurious {
            trace::emit(
                TraceKind::FaultInject,
                TxMode::Locked,
                None,
                Hazard::SpuriousWake.index() as u64,
            );
        }
        // The whole park is bracketed for the cooperative scheduler: the
        // thread leaves the token ring while it sleeps on the OS channel and
        // rejoins once (and if) the wakeup lands.
        sched::yield_point(YieldPoint::Park);
        sched::block_enter();
        let woke = {
            let mut s = self.state.lock();
            match timeout {
                None => {
                    while !s.signaled {
                        if spurious {
                            spurious = false; // wait() "returned" without a notify
                            continue;
                        }
                        self.cv.wait(&mut s);
                    }
                    true
                }
                Some(d) => {
                    let deadline = std::time::Instant::now() + d;
                    let mut woke = true;
                    while !s.signaled {
                        if spurious {
                            spurious = false;
                            continue;
                        }
                        if self.cv.wait_until(&mut s, deadline).timed_out() {
                            woke = s.signaled;
                            break;
                        }
                    }
                    woke
                }
            }
        };
        sched::block_exit();
        woke
    }
}

/// A ring-entry pointer in `Send` form, so wait registrations and deferred
/// wakeups can cross threads and `.await`s. The pointee is kept alive by the
/// queue-owned `Arc` reference (see `TxCtx::wait`).
#[derive(Clone, Copy)]
pub(crate) struct RawWaiter(*const Waiter);
// SAFETY: the pointer is an `Arc`-derived reference to a `Waiter`
// (`Send + Sync`); this wrapper only moves the *address* between threads,
// never shares unsynchronized state.
unsafe impl Send for RawWaiter {}
unsafe impl Sync for RawWaiter {}

impl RawWaiter {
    pub(crate) fn new(ptr: *const Waiter) -> Self {
        RawWaiter(ptr)
    }

    /// The address (a method, so closures capture the whole wrapper rather
    /// than its non-`Send` field).
    pub(crate) fn ptr(self) -> *const Waiter {
        self.0
    }
}

/// A condition variable usable from elided critical sections under every
/// [`AlgoMode`](crate::AlgoMode).
pub struct TxCondvar {
    head: TCell<u64>,
    tail: TCell<u64>,
    ring: Box<[TCell<*const Waiter>]>,
}

impl TxCondvar {
    /// A fresh condition variable.
    pub fn new() -> Self {
        TxCondvar {
            head: TCell::new(0),
            tail: TCell::new(0),
            ring: (0..RING)
                .map(|_| TCell::new(std::ptr::null::<Waiter>()))
                .collect(),
        }
    }

    /// Number of enqueued entries (including cancelled residue); for
    /// diagnostics and tests only — racy outside a transaction.
    pub fn approx_len(&self) -> usize {
        let h = self.head.load_direct();
        let t = self.tail.load_direct();
        t.saturating_sub(h) as usize
    }

    /// Transactionally append a waiter pointer.
    pub(crate) fn enqueue(
        &self,
        ctx: &mut TxCtx<'_>,
        raw: *const Waiter,
    ) -> Result<(), AbortCause> {
        let cap = RING as u64;
        let mut h = ctx.mem_load(&self.head)?;
        let t = ctx.mem_load(&self.tail)?;
        let h0 = h;
        // Compact leading cancelled entries so the ring cannot clog with
        // timed-out waiters.
        while h < t {
            let p = ctx.mem_load(&self.ring[(h % cap) as usize])?;
            if p.is_null() {
                h += 1;
            } else {
                break;
            }
        }
        if h != h0 {
            ctx.mem_write(&self.head, h)?;
        }
        let t = if t - h < cap {
            t
        } else {
            self.compact(ctx, h, t)?
        };
        assert!(
            t - h < cap,
            "TxCondvar ring overflow: too many pending waiters"
        );
        ctx.mem_write(&self.ring[(t % cap) as usize], raw)?;
        ctx.mem_write(&self.tail, t + 1)?;
        Ok(())
    }

    /// Slide the live entries of `[h, t)` down in order, over the holes that
    /// cancelled waiters left behind a live one, and return the new tail.
    /// At most `RING` reads and one write per moved entry. Slots past the
    /// new tail keep stale pointers; nothing reads outside `[head, tail)`.
    #[cold]
    #[inline(never)]
    fn compact(&self, ctx: &mut TxCtx<'_>, h: u64, t: u64) -> Result<u64, AbortCause> {
        let cap = RING as u64;
        let mut j = h;
        for i in h..t {
            let p = ctx.mem_load(&self.ring[(i % cap) as usize])?;
            if p.is_null() {
                continue;
            }
            if j != i {
                ctx.mem_write(&self.ring[(j % cap) as usize], p)?;
            }
            j += 1;
        }
        // The caller writes the slot at the returned tail and then the tail.
        Ok(j)
    }

    /// Transactionally pop the oldest live waiter, if any.
    pub(crate) fn dequeue(&self, ctx: &mut TxCtx<'_>) -> Result<Option<*const Waiter>, AbortCause> {
        let cap = RING as u64;
        let mut h = ctx.mem_load(&self.head)?;
        let t = ctx.mem_load(&self.tail)?;
        let h0 = h;
        let mut found = None;
        while h < t {
            let idx = (h % cap) as usize;
            let p = ctx.mem_load(&self.ring[idx])?;
            h += 1;
            if !p.is_null() {
                ctx.mem_write(&self.ring[idx], std::ptr::null::<Waiter>())?;
                found = Some(p);
                break;
            }
        }
        if h != h0 {
            ctx.mem_write(&self.head, h)?;
        }
        Ok(found)
    }

    /// Transactionally cancel a specific waiter entry (timed-wait timeout).
    /// Returns `true` if the entry was found and removed; `false` means a
    /// signaller already claimed it.
    pub(crate) fn remove(
        &self,
        ctx: &mut TxCtx<'_>,
        raw: *const Waiter,
    ) -> Result<bool, AbortCause> {
        let cap = RING as u64;
        let h = ctx.mem_load(&self.head)?;
        let t = ctx.mem_load(&self.tail)?;
        let mut i = h;
        while i < t {
            let idx = (i % cap) as usize;
            let p = ctx.mem_load(&self.ring[idx])?;
            if std::ptr::eq(p, raw) {
                ctx.mem_write(&self.ring[idx], std::ptr::null::<Waiter>())?;
                return Ok(true);
            }
            i += 1;
        }
        Ok(false)
    }
}

impl Default for TxCondvar {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn waiter_notify_then_wait_returns_immediately() {
        let w = Waiter::new();
        w.notify();
        assert!(w.wait(None));
    }

    #[test]
    fn waiter_timeout_returns_false() {
        let w = Waiter::new();
        assert!(!w.wait(Some(Duration::from_millis(10))));
    }

    #[test]
    fn waiter_cross_thread_wakeup() {
        let w = Arc::new(Waiter::new());
        let w2 = Arc::clone(&w);
        let h = std::thread::spawn(move || w2.wait(Some(Duration::from_secs(5))));
        std::thread::sleep(Duration::from_millis(20));
        w.notify();
        assert!(h.join().unwrap());
    }

    #[test]
    fn notify_is_idempotent() {
        let w = Waiter::new();
        w.notify();
        w.notify();
        assert!(w.wait(None));
    }

    #[test]
    fn poll_signaled_arms_waker_and_wakes_on_notify() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::task::{Context, Poll, Wake, Waker};

        struct CountWake(AtomicUsize);
        impl Wake for CountWake {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        let w = Waiter::new();
        let counter = Arc::new(CountWake(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&counter));
        let mut cx = Context::from_waker(&waker);
        assert_eq!(w.poll_signaled(&mut cx), Poll::Pending);
        assert!(!w.is_signaled());
        w.notify();
        assert_eq!(counter.0.load(Ordering::SeqCst), 1, "waker must fire");
        assert!(w.is_signaled());
        assert_eq!(w.poll_signaled(&mut cx), Poll::Ready(()));
        // Notify after the waker was consumed stays idempotent.
        w.notify();
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);
    }
}
