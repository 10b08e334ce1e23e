//! The serial-irrevocability gate.
//!
//! GCC's libitm ensures progress and supports unsafe (irrevocable)
//! operations by *serializing*: it stops admitting concurrent transactions,
//! waits for in-flight ones to drain, runs the irrevocable work alone, and
//! then re-opens the floodgates (paper §II-B). The same mechanism is the
//! fallback path for hardware transactions that keep aborting (paper §VII:
//! "HTM results fall back to a serial mode after hardware transactions fail
//! twice").
//!
//! [`Gate`] is the *serial* half of that mechanism, and only that half: one
//! word holding the "serial section running" bit and a count of pending
//! serial requests. Concurrent transactions never write it. Their presence
//! is what they publish anyway — the STM's slot value, the HTM's
//! `tx_state` — exactly as libitm's `gtm_rwlock` uses each thread's
//! `shared_state` (the word `ml_wt` publishes its snapshot time in) as the
//! serial lock's reader flag while the serial writer walks the thread list.
//!
//! ## The handshake
//!
//! - **Concurrent side** (the runner, right after a transaction's begin has
//!   published its presence with a `SeqCst` store): one `SeqCst` load of the
//!   gate word, [`Gate::closed`]. Closed — a serial section runs *or is
//!   pending* (writer preference, so abort storms cannot starve the serial
//!   fallback) — and the transaction *retires* (publishes "not present")
//!   and waits for the gate to open: [`Gate::wait_open`] /
//!   [`Gate::poll_open`]. Its exit is the `SeqCst` "not present" store every
//!   transaction already ends with; nothing is owed to the gate.
//! - **Serial side**: take a waiter unit, CAS `SERIAL_HELD` in (serial
//!   sections exclude each other first), then **sweep** — call the caller's
//!   `idle` probe until it reports that no transaction is present. The probe
//!   is a parameter of every acquisition and the token is built only after it
//!   returned `true`, so a serial token that has not swept cannot exist.
//!
//! Both sides are a store followed by a load of the other side's word, all
//! `SeqCst`: in the single total order of those four accesses either the
//! transaction's load sees the gate closed (it retires before touching
//! data), or its presence store precedes the serial side's CAS and therefore
//! its sweep (which waits the transaction out). Dekker's argument, with no
//! ordering weaker than `SeqCst` anywhere in it.
//!
//! ## Waker-driven waits
//!
//! The async runner must not spin an executor worker, so both waits have a
//! pollable form: [`Gate::poll_open`] and [`Gate::enter_serial_async`].
//! Pending polls park a task [`Waker`] in a side registry; the two
//! transitions that can open the gate for someone — serial exit and an
//! abandoned serial request — wake the whole registry, and woken tasks
//! re-run the check (try → register → re-try → `Pending`, so a transition
//! racing with registration is never lost; `has_wakers` is the `SeqCst`
//! store half of that second handshake). A serial entry that holds
//! `SERIAL_HELD` and is sweeping is owed no wake — transactions end without
//! looking at the gate — so it runs one sweep per poll and yields in between.

use crate::sched::{self, YieldPoint};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::task::{Context, Poll, Waker};

/// Bit set while a serial section runs (or sweeps before running).
const SERIAL_HELD: u64 = 1 << 63;
/// Pending serial requests are counted in the bits below it.
const WAITER_UNIT: u64 = 1;

/// The global serialization gate. See the module docs.
#[derive(Debug, Default)]
pub struct Gate {
    state: AtomicU64,
    /// Wakers parked by pollable waits; drained wholesale on any gate
    /// transition that could admit a waiter.
    wakers: Mutex<Vec<Waker>>,
    /// Fast-path guard so serial exits never touch an empty waker mutex.
    has_wakers: AtomicBool,
}

/// RAII token for the exclusive serial side. Exists only after a completed
/// presence sweep.
#[must_use = "dropping the token exits serial mode"]
pub struct SerialToken<'g> {
    gate: &'g Gate,
}

/// A pending claim on the serial side ([`Gate::request_serial`]): closes the
/// gate to new transactions (writer preference) until acquired or dropped.
#[must_use = "dropping the request abandons the serial claim"]
pub struct SerialRequest<'g> {
    gate: &'g Gate,
    claim: Claim<'g>,
}

/// How far a [`SerialRequest`] has got.
enum Claim<'g> {
    /// Holds a waiter unit; another serial section has `SERIAL_HELD`.
    Queued,
    /// `SERIAL_HELD` is ours and the sweep is still running; the token is
    /// handed out by the first sweep that finds nobody present (dropped
    /// before that, it reopens the gate itself).
    Sweeping(SerialToken<'g>),
    Granted,
}

impl<'g> SerialRequest<'g> {
    /// Attempt to take the serial side now: CAS `SERIAL_HELD` in if no other
    /// serial section has it (the waiter unit is consumed atomically with
    /// that), then run one sweep — `idle` answers whether every transaction's
    /// presence word reads "not present". `None` until both succeeded; call
    /// again after pausing.
    pub fn try_acquire(&mut self, mut idle: impl FnMut() -> bool) -> Option<SerialToken<'g>> {
        debug_assert!(
            !matches!(self.claim, Claim::Granted),
            "serial request acquired twice"
        );
        if matches!(self.claim, Claim::Queued) {
            loop {
                let s = self.gate.state.load(Ordering::SeqCst);
                if s & SERIAL_HELD != 0 {
                    return None;
                }
                let target = (s - WAITER_UNIT) | SERIAL_HELD;
                if self
                    .gate
                    .state
                    .compare_exchange_weak(s, target, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    self.claim = Claim::Sweeping(SerialToken { gate: self.gate });
                    // Between closing the gate and the first presence load:
                    // where a transaction that began just before must be
                    // seen, and one that begins now must see the gate.
                    sched::yield_point(YieldPoint::SerialGate);
                    break;
                }
                std::hint::spin_loop();
            }
        }
        if !idle() {
            return None;
        }
        match std::mem::replace(&mut self.claim, Claim::Granted) {
            Claim::Sweeping(token) => Some(token),
            _ => unreachable!("swept without the serial bit"),
        }
    }

    /// Whether `SERIAL_HELD` is already ours, i.e. a failed
    /// [`try_acquire`](Self::try_acquire) is waiting on transactions to end
    /// (which wakes nobody) rather than on another serial section's exit.
    fn sweeping(&self) -> bool {
        matches!(self.claim, Claim::Sweeping(_))
    }
}

impl Drop for SerialRequest<'_> {
    fn drop(&mut self) {
        if matches!(self.claim, Claim::Queued) {
            self.gate.state.fetch_sub(WAITER_UNIT, Ordering::SeqCst);
            // The last pending request gone reopens the gate.
            self.gate.wake_all();
        }
    }
}

/// Future returned by [`Gate::enter_serial_async`].
pub struct EnterSerial<'g, F> {
    gate: &'g Gate,
    req: Option<SerialRequest<'g>>,
    idle: F,
}

impl<'g, F: FnMut() -> bool + Unpin> Future for EnterSerial<'g, F> {
    type Output = SerialToken<'g>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let gate = this.gate;
        let req = this.req.get_or_insert_with(|| gate.request_serial());
        for registered in [false, true] {
            if let Some(t) = req.try_acquire(&mut this.idle) {
                return Poll::Ready(t);
            }
            if req.sweeping() {
                // One sweep per poll, the worker yielded in between.
                sched::spin_hint(YieldPoint::SerialGate);
                cx.waker().wake_by_ref();
                return Poll::Pending;
            }
            if !registered {
                gate.register_waker(cx.waker());
            }
        }
        Poll::Pending
    }
}

impl Gate {
    /// A fresh, open gate.
    pub fn new() -> Self {
        Gate::default()
    }

    /// The concurrent side's whole protocol: whether a serial section runs
    /// or is pending. Called right after a transaction published its
    /// presence; `true` means it must retire and wait.
    #[inline]
    pub fn closed(&self) -> bool {
        self.state.load(Ordering::SeqCst) != 0
    }

    /// Block (spin, then yield) until the gate is open. Holds nothing: the
    /// caller has retired its transaction.
    pub fn wait_open(&self) {
        let mut spins = 0u32;
        while self.closed() {
            Self::pause(&mut spins);
        }
    }

    /// Pollable [`Gate::wait_open`].
    pub fn poll_open(&self, cx: &mut Context<'_>) -> Poll<()> {
        if self.closed() {
            self.register_waker(cx.waker());
            // Re-check after registering: an opening between the first check
            // and the registration must not strand this task.
            if self.closed() {
                return Poll::Pending;
            }
        }
        Poll::Ready(())
    }

    /// Enter the exclusive serial side: queue (closing the gate), take
    /// `SERIAL_HELD`, then sweep with `idle` until no transaction is present
    /// (see [`SerialRequest::try_acquire`]).
    pub fn enter_serial(&self, mut idle: impl FnMut() -> bool) -> SerialToken<'_> {
        let mut req = self.request_serial();
        let mut spins = 0u32;
        loop {
            if let Some(t) = req.try_acquire(&mut idle) {
                return t;
            }
            Self::pause(&mut spins);
        }
    }

    /// Join the serial-waiter queue without blocking. The returned request
    /// keeps the gate closed until it is either acquired or dropped;
    /// dropping it unacquired removes the unit and wakes waiting entrants.
    pub fn request_serial(&self) -> SerialRequest<'_> {
        sched::yield_point(YieldPoint::SerialGate);
        self.state.fetch_add(WAITER_UNIT, Ordering::SeqCst);
        SerialRequest {
            gate: self,
            claim: Claim::Queued,
        }
    }

    /// Future form of [`Gate::enter_serial`]. The waiter unit is taken on
    /// first poll; dropping the future at any point gives back whatever it
    /// holds.
    pub fn enter_serial_async<F>(&self, idle: F) -> EnterSerial<'_, F>
    where
        F: FnMut() -> bool + Unpin,
    {
        EnterSerial {
            gate: self,
            req: None,
            idle,
        }
    }

    fn register_waker(&self, w: &Waker) {
        let mut ws = self.wakers.lock().expect("gate waker registry poisoned");
        self.has_wakers.store(true, Ordering::SeqCst);
        // A task polled again while the gate stays closed is woken once.
        if !ws.iter().any(|registered| registered.will_wake(w)) {
            ws.push(w.clone());
        }
    }

    fn wake_all(&self) {
        if !self.has_wakers.load(Ordering::SeqCst) {
            return;
        }
        let drained = {
            let mut ws = self.wakers.lock().expect("gate waker registry poisoned");
            self.has_wakers.store(false, Ordering::SeqCst);
            std::mem::take(&mut *ws)
        };
        for w in drained {
            w.wake();
        }
    }

    /// Whether a serial section currently holds the gate (diagnostics).
    pub fn serial_held(&self) -> bool {
        self.state.load(Ordering::SeqCst) & SERIAL_HELD != 0
    }

    #[inline]
    fn pause(spins: &mut u32) {
        *spins += 1;
        sched::spin_hint(YieldPoint::SerialGate);
        if *spins < 64 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

impl Drop for SerialToken<'_> {
    fn drop(&mut self) {
        sched::yield_point(YieldPoint::SerialGate);
        self.gate.state.fetch_and(!SERIAL_HELD, Ordering::SeqCst);
        // Serial exit admits either the next serial waiter or every waiting
        // transaction.
        self.gate.wake_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::task::Wake;

    /// A presence word of the shape the TM kernels publish: `SeqCst` store
    /// on entry, closed-check, `SeqCst` store on exit. `running` counts the
    /// transactions that got past the closed-check — what a serial section
    /// must never run beside (a presence published and retired again while
    /// the gate is closed is part of the protocol).
    #[derive(Default)]
    struct Presence {
        published: AtomicUsize,
        running: AtomicUsize,
    }

    impl Presence {
        /// Publish and check the gate; `false`: closed, retired again.
        fn try_enter(&self, g: &Gate) -> bool {
            self.published.fetch_add(1, Ordering::SeqCst);
            if g.closed() {
                self.published.fetch_sub(1, Ordering::SeqCst);
                return false;
            }
            self.running.fetch_add(1, Ordering::SeqCst);
            true
        }

        /// Publish, check the gate, retire and wait if it is closed.
        fn enter(&self, g: &Gate) {
            while !self.try_enter(g) {
                g.wait_open();
            }
        }

        fn exit(&self) {
            self.running.fetch_sub(1, Ordering::SeqCst);
            self.published.fetch_sub(1, Ordering::SeqCst);
        }

        fn idle(&self) -> bool {
            self.published.load(Ordering::SeqCst) == 0
        }

        fn nobody_running(&self) -> bool {
            self.running.load(Ordering::SeqCst) == 0
        }
    }

    struct CountWake(AtomicUsize);

    impl Wake for CountWake {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn serial_excludes_present_transactions() {
        let g = Arc::new(Gate::new());
        let p = Arc::new(Presence::default());
        let in_serial = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let (g, p) = (Arc::clone(&g), Arc::clone(&p));
                let in_serial = Arc::clone(&in_serial);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        if i % 2 == 0 {
                            p.enter(&g);
                            assert_eq!(in_serial.load(Ordering::SeqCst), 0);
                            p.exit();
                        } else {
                            let _t = g.enter_serial(|| p.idle());
                            in_serial.fetch_add(1, Ordering::SeqCst);
                            assert!(p.nobody_running(), "serial section beside a transaction");
                            in_serial.fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(!g.closed());
    }

    #[test]
    fn serial_sections_are_mutually_exclusive() {
        let g = Arc::new(Gate::new());
        let in_serial = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let g = Arc::clone(&g);
                let in_serial = Arc::clone(&in_serial);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let _t = g.enter_serial(|| true);
                        assert_eq!(in_serial.fetch_add(1, Ordering::SeqCst), 0);
                        in_serial.fetch_sub(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn gate_reopens_after_serial() {
        let g = Gate::new();
        {
            let _s = g.enter_serial(|| true);
            assert!(g.serial_held() && g.closed());
        }
        assert!(!g.serial_held() && !g.closed());
    }

    #[test]
    fn pending_request_closes_the_gate_until_dropped() {
        let g = Gate::new();
        let req = g.request_serial();
        // Writer preference: a pending serial request turns entrants away.
        assert!(g.closed() && !g.serial_held());
        drop(req); // abandoned
        assert!(!g.closed());
    }

    #[test]
    fn no_token_before_the_sweep_completes() {
        let g = Gate::new();
        let p = Presence::default();
        p.enter(&g);
        let mut req = g.request_serial();
        assert!(req.try_acquire(|| p.idle()).is_none(), "presence must end");
        assert!(g.serial_held(), "the sweep runs with the serial bit taken");
        // A second serial entry queues behind the sweeping one.
        let mut second = g.request_serial();
        assert!(second.try_acquire(|| true).is_none());
        p.exit();
        let tok = req.try_acquire(|| p.idle()).expect("nobody present");
        drop(req); // granted: drop must not touch the waiter count
        assert!(second.try_acquire(|| true).is_none());
        drop(tok);
        drop(second.try_acquire(|| true).expect("first section exited"));
        drop(second);
        assert!(!g.closed());
    }

    #[test]
    fn request_abandoned_mid_sweep_reopens_the_gate() {
        let g = Gate::new();
        let mut req = g.request_serial();
        assert!(req.try_acquire(|| false).is_none());
        assert!(g.serial_held());
        drop(req);
        assert!(!g.closed());
    }

    #[test]
    fn repolled_waiter_is_registered_and_woken_once() {
        let g = Gate::new();
        let wakes = Arc::new(CountWake(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&wakes));
        let mut cx = Context::from_waker(&waker);
        let serial = g.enter_serial(|| true);
        for _ in 0..5 {
            assert!(g.poll_open(&mut cx).is_pending());
        }
        drop(serial);
        assert_eq!(
            wakes.0.load(Ordering::SeqCst),
            1,
            "one wake per waiting task"
        );
        assert!(g.poll_open(&mut cx).is_ready());
    }

    #[test]
    fn async_entries_resolve_on_executor() {
        let ex = crate::exec::Exec::new(2);
        let g = Arc::new(Gate::new());
        let p = Arc::new(Presence::default());
        let serial_ran = Arc::new(AtomicUsize::new(0));
        // A transaction is present: the async serial entry takes the serial
        // bit and then sweeps, one pass per poll, until the presence ends.
        p.enter(&g);
        let h = {
            let (g, p) = (Arc::clone(&g), Arc::clone(&p));
            let serial_ran = Arc::clone(&serial_ran);
            ex.spawn(async move {
                let _s = g.enter_serial_async(|| p.idle()).await;
                serial_ran.fetch_add(1, Ordering::SeqCst);
            })
        };
        while !g.serial_held() {
            std::thread::yield_now();
        }
        assert_eq!(serial_ran.load(Ordering::SeqCst), 0);
        p.exit();
        h.join();
        assert_eq!(serial_ran.load(Ordering::SeqCst), 1);
        // And the gate reopens for pollable entrants afterwards.
        let g2 = Arc::clone(&g);
        ex.spawn(async move { std::future::poll_fn(|cx| g2.poll_open(cx)).await })
            .join();
    }

    #[test]
    fn mixed_async_and_sync_exclusion() {
        let ex = Arc::new(crate::exec::Exec::new(3));
        let g = Arc::new(Gate::new());
        let p = Arc::new(Presence::default());
        let mut joins = Vec::new();
        for i in 0..24 {
            let (g, p) = (Arc::clone(&g), Arc::clone(&p));
            joins.push(ex.spawn(async move {
                for _ in 0..50 {
                    if i % 3 == 0 {
                        let _s = g.enter_serial_async(|| p.idle()).await;
                        assert!(p.nobody_running());
                    } else {
                        // Retire-then-wait, the async runner's shape.
                        while !p.try_enter(&g) {
                            std::future::poll_fn(|cx| g.poll_open(cx)).await;
                        }
                        // Present across a suspension: the sweepers poll.
                        crate::exec::yield_now().await;
                        p.exit();
                    }
                }
            }));
        }
        let sync_thread = {
            let (g, p) = (Arc::clone(&g), Arc::clone(&p));
            std::thread::spawn(move || {
                for _ in 0..200 {
                    let _s = g.enter_serial(|| p.idle());
                    assert!(p.nobody_running());
                }
            })
        };
        for j in joins {
            j.join();
        }
        sync_thread.join().unwrap();
    }
}
