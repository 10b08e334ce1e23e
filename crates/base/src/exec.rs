//! A small, dependency-free async executor for the TLE runtime.
//!
//! The async entry points (`run_async` and friends in `tle-core`) turn
//! every blocking edge of the TM kernels into `Poll::Pending` + a re-armed
//! [`Waker`]; this module supplies the thing that polls them: a fixed pool
//! of worker threads sharing one injector queue, a binary-heap timer wheel
//! for timed waits, and a [`Exec::block_on`] entry for synchronous callers.
//! It exists for the same reason as `shims/` — the container has no route to
//! crates.io, so tokio-style runtimes are out of reach — and it deliberately
//! implements only what the TLE workloads need:
//!
//! - [`Exec::spawn`] — run a `Send` future to completion, returning a
//!   [`JoinHandle`] that is itself a future (and a blocking `join`).
//! - [`Exec::block_on`] — drive a future from a plain thread, parking that
//!   thread between polls (legal: the *caller* is not a worker).
//! - [`sleep_until`] / [`yield_now`] — the timer and cooperative-yield
//!   futures the paced-session KV driver and the async runner are built on.
//! - [`current`] — the worker-local handle through which nested primitives
//!   (timed condvar waits) reach the timer wheel.
//!
//! Every worker installs the waker park backend ([`crate::park`]), so any
//! kernel edge that would block the OS under a worker trips the
//! blocking-wait audit in debug builds.
//!
//! Scheduling is intentionally plain: one global injector protected by a
//! mutex, workers woken through a condvar. The TLE workloads this executor
//! exists for (thousands of paced logical sessions awaiting lock waits)
//! spend their cycles inside the TM kernels, not in the scheduler, and a
//! mutex-guarded deque keeps the wake/park protocol easy to audit — the
//! timer heap and the run queue share one lock, so a worker deciding to
//! sleep holds the whole truth while computing its wake-up time.

use crate::park;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

/// A spawned task: the future plus its re-schedule plumbing.
struct Task {
    /// The future, boxed and pinned; `None` once complete. Behind a mutex
    /// because a stale timer or a racing waker may poke a task that another
    /// worker is polling.
    future: Mutex<Option<Pin<Box<dyn Future<Output = ()> + Send>>>>,
    exec: Weak<ExecInner>,
    /// Collapses redundant wakes between poll rounds: a task already sitting
    /// in the run queue is not enqueued twice.
    queued: AtomicBool,
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        if self.queued.swap(true, Ordering::AcqRel) {
            return;
        }
        if let Some(exec) = self.exec.upgrade() {
            exec.push(self);
        }
    }

    fn wake_by_ref(self: &Arc<Self>) {
        Arc::clone(self).wake();
    }
}

/// A timer heap entry: min-ordered by deadline (BinaryHeap is a max-heap, so
/// `Ord` is reversed), tie-broken by insertion sequence for determinism.
struct TimerEntry {
    at: Instant,
    seq: u64,
    waker: Waker,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: the earliest deadline is the heap maximum.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Run queue + timer wheel, under one lock (see module docs).
#[derive(Default)]
struct Queues {
    run: VecDeque<Arc<Task>>,
    timers: BinaryHeap<TimerEntry>,
    shutdown: bool,
}

struct ExecInner {
    queues: Mutex<Queues>,
    cv: Condvar,
    timer_seq: AtomicU64,
    /// Tasks spawned and not yet finished (diagnostics; `Exec::live_tasks`).
    live: AtomicUsize,
}

impl ExecInner {
    fn push(&self, task: Arc<Task>) {
        let mut q = self.queues.lock().expect("executor queue poisoned");
        q.run.push_back(task);
        drop(q);
        self.cv.notify_one();
    }

    fn register_timer(&self, at: Instant, waker: Waker) {
        let seq = self.timer_seq.fetch_add(1, Ordering::Relaxed);
        let mut q = self.queues.lock().expect("executor queue poisoned");
        let earliest = q.timers.peek().map(|t| t.at);
        q.timers.push(TimerEntry { at, seq, waker });
        drop(q);
        // A new earliest deadline must interrupt a worker sleeping on the
        // old one (notify_all: the sleeping worker is any of them).
        if earliest.is_none_or(|e| at < e) {
            self.cv.notify_all();
        }
    }

    /// Worker loop body: run tasks, fire timers, sleep on the condvar.
    fn work(self: &Arc<Self>) {
        loop {
            let task = {
                let mut q = self.queues.lock().expect("executor queue poisoned");
                loop {
                    let now = Instant::now();
                    // Fire due timers first: their wakes enqueue tasks.
                    while q.timers.peek().is_some_and(|t| t.at <= now) {
                        let entry = q.timers.pop().expect("peeked entry");
                        // Waking may re-enter `push` → the queue mutex; do it
                        // outside the lock.
                        drop(q);
                        entry.waker.wake();
                        q = self.queues.lock().expect("executor queue poisoned");
                    }
                    if let Some(t) = q.run.pop_front() {
                        break t;
                    }
                    if q.shutdown {
                        return;
                    }
                    match q.timers.peek().map(|t| t.at) {
                        Some(at) => {
                            let now = Instant::now();
                            if at > now {
                                let (guard, _timeout) = self
                                    .cv
                                    .wait_timeout(q, at - now)
                                    .expect("executor queue poisoned");
                                q = guard;
                            }
                        }
                        None => {
                            q = self.cv.wait(q).expect("executor queue poisoned");
                        }
                    }
                }
            };
            // Clear `queued` before polling: a wake landing mid-poll must
            // re-enqueue (the future may return Pending having already
            // consumed the event).
            task.queued.store(false, Ordering::Release);
            let waker = Waker::from(Arc::clone(&task));
            let mut cx = Context::from_waker(&waker);
            let mut slot = task.future.lock().expect("task future poisoned");
            if let Some(fut) = slot.as_mut() {
                if fut.as_mut().poll(&mut cx).is_ready() {
                    *slot = None;
                    self.live.fetch_sub(1, Ordering::AcqRel);
                }
            }
        }
    }
}

/// The multi-worker executor. Dropping it shuts the workers down after the
/// queue drains of *scheduled* work (tasks waiting on never-armed wakers are
/// abandoned, like any runtime teardown).
pub struct Exec {
    inner: Arc<ExecInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<Handle>> = const { std::cell::RefCell::new(None) };
}

/// A cloneable reference to a running executor ([`current`]).
#[derive(Clone)]
pub struct Handle {
    inner: Weak<ExecInner>,
}

impl Handle {
    /// Arrange for `waker` to be woken at `at` (idempotent per
    /// registration; re-registering every poll is fine — stale entries fire
    /// as harmless spurious wakes).
    pub fn register_timer(&self, at: Instant, waker: Waker) {
        if let Some(inner) = self.inner.upgrade() {
            inner.register_timer(at, waker);
        } else {
            // Executor gone: wake immediately so the task can observe
            // shutdown instead of sleeping forever.
            waker.wake();
        }
    }
}

/// The executor handle installed on this thread (workers, and threads inside
/// [`Exec::block_on`]). Timed futures use it to reach the timer wheel.
pub fn current() -> Option<Handle> {
    CURRENT.with(|c| c.borrow().clone())
}

fn set_current(h: Option<Handle>) -> Option<Handle> {
    CURRENT.with(|c| c.replace(h))
}

impl Exec {
    /// Start an executor with `workers` worker threads (min 1, capped at
    /// 512 as a fat-finger guard).
    pub fn new(workers: usize) -> Self {
        let workers = workers.clamp(1, 512);
        let inner = Arc::new(ExecInner {
            queues: Mutex::new(Queues::default()),
            cv: Condvar::new(),
            timer_seq: AtomicU64::new(0),
            live: AtomicUsize::new(0),
        });
        let joins = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("tle-exec-{i}"))
                    .spawn(move || {
                        // Workers never OS-park inside kernel wait edges;
                        // the guard lives for the whole worker.
                        let _park = park::enter_worker();
                        let _cur = set_current(Some(Handle {
                            inner: Arc::downgrade(&inner),
                        }));
                        inner.work();
                    })
                    .expect("spawn executor worker")
            })
            .collect();
        Exec {
            inner,
            workers: joins,
        }
    }

    /// A handle usable from any thread (timer registration).
    pub fn handle(&self) -> Handle {
        Handle {
            inner: Arc::downgrade(&self.inner),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Tasks spawned and not yet run to completion.
    pub fn live_tasks(&self) -> usize {
        self.inner.live.load(Ordering::Acquire)
    }

    /// Spawn `fut` onto the workers; the [`JoinHandle`] resolves to its
    /// output.
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let shared = Arc::new(JoinState {
            result: Mutex::new(JoinSlot {
                value: None,
                waker: None,
            }),
            cv: Condvar::new(),
        });
        let shared2 = Arc::clone(&shared);
        let wrapped = async move {
            let out = fut.await;
            let mut slot = shared2.result.lock().expect("join state poisoned");
            slot.value = Some(out);
            let waker = slot.waker.take();
            drop(slot);
            shared2.cv.notify_all();
            if let Some(w) = waker {
                w.wake();
            }
        };
        self.inner.live.fetch_add(1, Ordering::AcqRel);
        let task = Arc::new(Task {
            future: Mutex::new(Some(Box::pin(wrapped))),
            exec: Arc::downgrade(&self.inner),
            queued: AtomicBool::new(true),
        });
        self.inner.push(task);
        JoinHandle { shared }
    }

    /// Drive `fut` to completion on the *calling* thread. The caller parks
    /// between polls (it is not a worker, so OS parking is legal); timers
    /// armed by the future fire on the workers. The executor handle is
    /// installed for the duration so nested timed waits find the wheel.
    pub fn block_on<F: Future>(&self, fut: F) -> F::Output {
        let prev = set_current(Some(self.handle()));
        let restore = RestoreCurrent(prev);
        let parker = Arc::new(ThreadParker {
            thread: std::thread::current(),
            notified: AtomicBool::new(false),
        });
        let waker = Waker::from(Arc::clone(&parker));
        let mut cx = Context::from_waker(&waker);
        let mut fut = std::pin::pin!(fut);
        let out = loop {
            match fut.as_mut().poll(&mut cx) {
                Poll::Ready(v) => break v,
                Poll::Pending => {
                    while !parker.notified.swap(false, Ordering::AcqRel) {
                        std::thread::park();
                    }
                }
            }
        };
        drop(restore);
        out
    }
}

/// Restores the previous thread-local executor handle (unwind-safe).
struct RestoreCurrent(Option<Handle>);

impl Drop for RestoreCurrent {
    fn drop(&mut self) {
        set_current(self.0.take());
    }
}

/// `block_on`'s waker: unpark the blocked thread.
struct ThreadParker {
    thread: std::thread::Thread,
    notified: AtomicBool,
}

impl Wake for ThreadParker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.notified.store(true, Ordering::Release);
        self.thread.unpark();
    }
}

impl Drop for Exec {
    fn drop(&mut self) {
        {
            let mut q = self.inner.queues.lock().expect("executor queue poisoned");
            q.shutdown = true;
        }
        self.cv_notify_all();
        for j in self.workers.drain(..) {
            let _ = j.join();
        }
    }
}

impl Exec {
    fn cv_notify_all(&self) {
        self.inner.cv.notify_all();
    }
}

struct JoinSlot<T> {
    value: Option<T>,
    waker: Option<Waker>,
}

struct JoinState<T> {
    result: Mutex<JoinSlot<T>>,
    cv: Condvar,
}

/// Handle to a spawned task's output; await it, or block with
/// [`JoinHandle::join`].
pub struct JoinHandle<T> {
    shared: Arc<JoinState<T>>,
}

impl<T> JoinHandle<T> {
    /// Block the calling thread until the task completes. Must not be
    /// called from a worker (it would OS-park the worker); debug builds
    /// catch that through the park audit.
    pub fn join(self) -> T {
        park::enter_os_park();
        let mut slot = self.shared.result.lock().expect("join state poisoned");
        loop {
            if let Some(v) = slot.value.take() {
                return v;
            }
            slot = self.shared.cv.wait(slot).expect("join state poisoned");
        }
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut slot = self.shared.result.lock().expect("join state poisoned");
        if let Some(v) = slot.value.take() {
            Poll::Ready(v)
        } else {
            slot.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Cooperatively yield: `Pending` once, waking immediately, so every other
/// queued task gets a turn. The async runner's analogue of
/// `thread::yield_now` in retry/backoff loops.
pub fn yield_now() -> YieldNow {
    YieldNow { polled: false }
}

/// Future returned by [`yield_now`].
pub struct YieldNow {
    polled: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.polled {
            Poll::Ready(())
        } else {
            self.polled = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// Sleep until `at`. Uses the current executor's timer wheel when one is
/// installed; outside an executor (e.g. under the cooperative explorer's
/// manual polling) it degrades to wake-immediately polling, which the
/// enclosing poll loop absorbs.
pub fn sleep_until(at: Instant) -> Sleep {
    Sleep { at }
}

/// Sleep for `d` from now (see [`sleep_until`]).
pub fn sleep(d: Duration) -> Sleep {
    Sleep {
        at: Instant::now() + d,
    }
}

/// Future returned by [`sleep_until`] / [`sleep`].
pub struct Sleep {
    at: Instant,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if Instant::now() >= self.at {
            return Poll::Ready(());
        }
        match current() {
            Some(h) => h.register_timer(self.at, cx.waker().clone()),
            // No timer wheel: stay hot so the manual poll loop re-polls.
            None => cx.waker().wake_by_ref(),
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_on_plain_value() {
        let ex = Exec::new(1);
        assert_eq!(ex.block_on(async { 7 }), 7);
    }

    #[test]
    fn spawn_and_join() {
        let ex = Exec::new(2);
        let h = ex.spawn(async { 21 * 2 });
        assert_eq!(h.join(), 42);
    }

    #[test]
    fn join_handle_is_a_future() {
        let ex = Exec::new(2);
        let h = ex.spawn(async { 5u32 });
        let v = ex.block_on(async move { h.await + 1 });
        assert_eq!(v, 6);
    }

    #[test]
    fn many_tasks_on_few_workers() {
        let ex = Exec::new(2);
        let total = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..200)
            .map(|i| {
                let total = Arc::clone(&total);
                ex.spawn(async move {
                    yield_now().await;
                    total.fetch_add(i, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(total.load(Ordering::Relaxed), (0..200).sum());
        // `join()` returns when the result publishes (inside the final
        // poll); the worker decrements the diagnostic counter just after,
        // so give the last decrement a moment to land.
        for _ in 0..10_000 {
            if ex.live_tasks() == 0 {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(ex.live_tasks(), 0);
    }

    #[test]
    fn sleep_fires_after_deadline() {
        let ex = Exec::new(1);
        let t0 = Instant::now();
        ex.block_on(async {
            sleep(Duration::from_millis(20)).await;
        });
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn timers_interleave_with_tasks() {
        let ex = Exec::new(2);
        let order = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = [30u64, 10, 20]
            .into_iter()
            .map(|ms| {
                let order = Arc::clone(&order);
                ex.spawn(async move {
                    sleep(Duration::from_millis(ms)).await;
                    order.lock().unwrap().push(ms);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(*order.lock().unwrap(), vec![10, 20, 30]);
    }

    #[test]
    fn workers_run_under_waker_park_mode() {
        let ex = Exec::new(1);
        assert!(ex.spawn(async { park::is_worker() }).join());
        // The spawning thread is unaffected.
        assert!(!park::is_worker());
    }

    #[test]
    fn block_on_installs_current_handle() {
        let ex = Exec::new(1);
        assert!(current().is_none());
        ex.block_on(async {
            assert!(current().is_some());
        });
        assert!(current().is_none());
    }

    #[test]
    fn yield_now_is_pending_once() {
        let ex = Exec::new(1);
        ex.block_on(async {
            yield_now().await;
            yield_now().await;
        });
    }
}
