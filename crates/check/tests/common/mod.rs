//! Scenario builders shared by the `tle-check` integration suites.
//!
//! Each builder returns a *fresh* [`Scenario`] — new `TmSystem`, new lock,
//! new cells — so the explorer can run it once per schedule. The closures
//! use the same public API as the stress tests (`ThreadHandle::tx`
//! over `TCell`s), which is exactly what makes the harness meaningful: the
//! kernels under deterministic exploration are the production kernels.

// Each integration-test binary includes this module but uses a different
// subset of the builders.
#![allow(dead_code)]

use std::future::Future;
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use tle_base::sched::{self, YieldPoint};
use tle_base::TCell;
use tle_check::Scenario;
use tle_core::{AlgoMode, ElidableMutex, TmSystem, TxCondvar};

/// The waker behind [`block_on_manual`]: a woken flag plus a condvar so the
/// polling vthread can park (OS-level) between true suspensions.
struct FlagSignal {
    woken: Mutex<bool>,
    cv: Condvar,
}

impl Wake for FlagSignal {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let mut woken = self.woken.lock().unwrap_or_else(|e| e.into_inner());
        *woken = true;
        self.cv.notify_one();
    }
}

/// Drive an async critical section to completion *inside a vthread*, with
/// no executor: the scenario thread polls the future itself, so every
/// suspension and every waker delivery happens under the explorer's
/// schedule control.
///
/// Two kinds of `Pending` are distinguished through the flag waker:
///
/// - **hot re-polls** (the waker already fired — `yield_now` backoff,
///   degraded no-executor timer sleeps) rotate the token with
///   `spin_hint(Park)` so co-scheduled vthreads run between polls, and an
///   OS yield bounds the hot-loop rate well under the livelock bound;
/// - **true suspensions** (a parked condvar waiter armed its waker and
///   nobody has signalled yet) leave the runnable set through
///   `block_enter`/`block_exit`, exactly like a kernel OS park — so a lost
///   wakeup freezes the step counter and the explorer declares the
///   schedule dead.
pub fn block_on_manual<F: Future>(fut: F) -> F::Output {
    let signal = Arc::new(FlagSignal {
        woken: Mutex::new(false),
        cv: Condvar::new(),
    });
    let waker = Waker::from(Arc::clone(&signal));
    let mut cx = Context::from_waker(&waker);
    let mut fut = std::pin::pin!(fut);
    loop {
        if let Poll::Ready(v) = fut.as_mut().poll(&mut cx) {
            return v;
        }
        let mut woken = signal.woken.lock().unwrap_or_else(|e| e.into_inner());
        if *woken {
            *woken = false;
            drop(woken);
            sched::spin_hint(YieldPoint::Park);
            std::thread::yield_now();
        } else {
            sched::block_enter();
            while !*woken {
                woken = signal.cv.wait(woken).unwrap_or_else(|e| e.into_inner());
            }
            *woken = false;
            drop(woken);
            sched::block_exit();
        }
    }
}

/// The all-cells-equal snapshot invariant from `tests/opacity.rs`, shrunk
/// to model-checking size: every thread repeatedly asserts all cells equal
/// (inside the transaction — a torn read panics the vthread) and increments
/// them all. The post-condition pins the final counter value, the recorded
/// history goes to the opacity oracle, and `init` closes the oracle's
/// first-read binding blind spot.
pub fn snapshot_scenario(mode: AlgoMode, threads: usize, ops: u64, n_cells: usize) -> Scenario {
    let sys = Arc::new(TmSystem::new(mode));
    let lock = Arc::new(ElidableMutex::new("check-snapshot"));
    let cells: Arc<Vec<TCell<u64>>> = Arc::new((0..n_cells).map(|_| TCell::new(0)).collect());
    let init: Vec<(usize, u64)> = cells.iter().map(|c| (c.addr(), 0)).collect();

    let mut tvec: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    for _ in 0..threads {
        let sys = Arc::clone(&sys);
        let lock = Arc::clone(&lock);
        let cells = Arc::clone(&cells);
        tvec.push(Box::new(move || {
            let th = sys.register();
            for _ in 0..ops {
                th.tx(&lock).run(|ctx| {
                    let first = ctx.read(&cells[0])?;
                    for c in cells.iter().skip(1) {
                        let v = ctx.read(c)?;
                        assert_eq!(v, first, "torn snapshot under {mode:?}");
                    }
                    for c in cells.iter() {
                        ctx.write(c, first + 1)?;
                    }
                    Ok(())
                });
            }
        }));
    }

    let expect = threads as u64 * ops;
    let post_cells = Arc::clone(&cells);
    Scenario {
        threads: tvec,
        init,
        post: Box::new(move |_| {
            for (i, c) in post_cells.iter().enumerate() {
                let v = c.load_direct();
                if v != expect {
                    return Err(format!("cell {i} = {v}, expected {expect} under {mode:?}"));
                }
            }
            Ok(())
        }),
    }
}

/// One producer, one consumer over a Wang-style condvar: the consumer
/// checks the flag and waits in the same transaction (commit-then-block);
/// the producer sets the flag and signals. Any interleaving must end with
/// the consumer observing the flagged value — a lost wakeup shows up as a
/// deadlock, a torn handoff as an opacity violation.
pub fn handoff_scenario(mode: AlgoMode) -> Scenario {
    let sys = Arc::new(TmSystem::new(mode));
    let lock = Arc::new(ElidableMutex::new("check-handoff"));
    let cv = Arc::new(TxCondvar::new());
    let flag = Arc::new(TCell::new(0u64));
    let value = Arc::new(TCell::new(0u64));
    let seen = Arc::new(TCell::new(0u64));
    let init = vec![(flag.addr(), 0), (value.addr(), 0), (seen.addr(), 0)];

    let consumer: Box<dyn FnOnce() + Send> = {
        let sys = Arc::clone(&sys);
        let lock = Arc::clone(&lock);
        let cv = Arc::clone(&cv);
        let flag = Arc::clone(&flag);
        let value = Arc::clone(&value);
        let seen = Arc::clone(&seen);
        Box::new(move || {
            let th = sys.register();
            let got = th.tx(&lock).run(|ctx| {
                if ctx.read(&*flag)? == 0 {
                    return ctx.wait(&cv, None).map(|_| 0);
                }
                let v = ctx.read(&*value)?;
                ctx.write(&*seen, v)?;
                Ok(v)
            });
            assert_eq!(got, 55, "consumer woke before the handoff under {mode:?}");
        })
    };
    let producer: Box<dyn FnOnce() + Send> = {
        let sys = Arc::clone(&sys);
        let lock = Arc::clone(&lock);
        let cv = Arc::clone(&cv);
        let flag = Arc::clone(&flag);
        let value = Arc::clone(&value);
        Box::new(move || {
            let th = sys.register();
            th.tx(&lock).run(|ctx| {
                ctx.write(&*value, 55u64)?;
                ctx.write(&*flag, 1u64)?;
                ctx.signal(&cv)?;
                Ok(())
            });
        })
    };

    let post_seen = Arc::clone(&seen);
    Scenario {
        // Consumer first: the default (rank-0) schedule parks it before the
        // producer runs, exercising the commit-then-block path on the very
        // first schedule.
        threads: vec![consumer, producer],
        init,
        post: Box::new(move |_| {
            let v = post_seen.load_direct();
            if v != 55 {
                return Err(format!("consumer recorded {v}, expected 55"));
            }
            Ok(())
        }),
    }
}

/// The handoff scenario with either side (or both) driven through the async
/// waker path under [`block_on_manual`]. A sync producer signalling an async
/// consumer exercises waker delivery from the condvar-notify path; an async
/// producer waking a sync waiter exercises the reverse; both-async covers
/// the executor-shaped end-to-end flow. A lost or misdelivered waker shows
/// up as a deadlock, a torn handoff as an opacity violation.
pub fn handoff_scenario_async(
    mode: AlgoMode,
    async_consumer: bool,
    async_producer: bool,
) -> Scenario {
    let sys = Arc::new(TmSystem::new(mode));
    let lock = Arc::new(ElidableMutex::new("check-handoff-async"));
    let cv = Arc::new(TxCondvar::new());
    let flag = Arc::new(TCell::new(0u64));
    let value = Arc::new(TCell::new(0u64));
    let seen = Arc::new(TCell::new(0u64));
    let init = vec![(flag.addr(), 0), (value.addr(), 0), (seen.addr(), 0)];

    let consumer: Box<dyn FnOnce() + Send> = {
        let sys = Arc::clone(&sys);
        let lock = Arc::clone(&lock);
        let cv = Arc::clone(&cv);
        let flag = Arc::clone(&flag);
        let value = Arc::clone(&value);
        let seen = Arc::clone(&seen);
        Box::new(move || {
            let th = sys.register();
            let got = if async_consumer {
                block_on_manual(th.tx(&lock).run_async(|ctx| {
                    if ctx.read(&*flag)? == 0 {
                        return ctx.wait(&cv, None).map(|_| 0);
                    }
                    let v = ctx.read(&*value)?;
                    ctx.write(&*seen, v)?;
                    Ok(v)
                }))
            } else {
                th.tx(&lock).run(|ctx| {
                    if ctx.read(&*flag)? == 0 {
                        return ctx.wait(&cv, None).map(|_| 0);
                    }
                    let v = ctx.read(&*value)?;
                    ctx.write(&*seen, v)?;
                    Ok(v)
                })
            };
            assert_eq!(got, 55, "consumer woke before the handoff under {mode:?}");
        })
    };
    let producer: Box<dyn FnOnce() + Send> = {
        let sys = Arc::clone(&sys);
        let lock = Arc::clone(&lock);
        let cv = Arc::clone(&cv);
        let flag = Arc::clone(&flag);
        let value = Arc::clone(&value);
        Box::new(move || {
            let th = sys.register();
            if async_producer {
                block_on_manual(th.tx(&lock).run_async(|ctx| {
                    ctx.write(&*value, 55u64)?;
                    ctx.write(&*flag, 1u64)?;
                    ctx.signal(&cv)?;
                    Ok(())
                }));
            } else {
                th.tx(&lock).run(|ctx| {
                    ctx.write(&*value, 55u64)?;
                    ctx.write(&*flag, 1u64)?;
                    ctx.signal(&cv)?;
                    Ok(())
                });
            }
        })
    };

    let post_seen = Arc::clone(&seen);
    Scenario {
        threads: vec![consumer, producer],
        init,
        post: Box::new(move |_| {
            let v = post_seen.load_direct();
            if v != 55 {
                return Err(format!("consumer recorded {v}, expected 55"));
            }
            Ok(())
        }),
    }
}

/// The engines the serial gate supervises (the adaptive ones fall back to
/// the lock word instead).
pub const GATE_ENGINES: [AlgoMode; 3] = [
    AlgoMode::StmCondvar,
    AlgoMode::StmNorec,
    AlgoMode::HtmCondvar,
];

/// Run one critical section on the driver under test: blocking, or as a
/// future polled by this vthread itself ([`block_on_manual`]).
pub fn run_section<'a, R>(
    th: &'a tle_core::ThreadHandle,
    lock: &'a ElidableMutex,
    async_driver: bool,
    body: impl FnMut(&mut tle_core::TxCtx<'a>) -> Result<R, tle_core::TxError>,
) -> R {
    if async_driver {
        block_on_manual(th.tx(lock).run_async(body))
    } else {
        th.tx(lock).run(body)
    }
}

/// The torn-pair witness, parameterized by engine, writer and driver. T0
/// speculates a read of the A/B pair; T1 stores both, on the lock path
/// (`unsafe_op`) when `locked`, transactionally otherwise. The in-closure
/// assert panics the vthread on a torn pair.
///
/// - Locked under the gate-supervised engines, it is the serial
///   handshake's witness: a serial section's plain stores are invisible to
///   orecs, sequence locks and line marks alike, so the *only* thing
///   between T0 and a torn pair is the handshake — T0 began before the
///   gate closed and the sweep waits it out, or it sees the gate closed and
///   retires. Delete either half (`GateSkipSweep`, `GateSkipClosedCheck`).
/// - Under the HTM, T0 writes nothing, so it commits on one state-word
///   load and the opacity oracle judges it at that commit (DESIGN.md §2): a
///   reader doomed before the load must abort, not commit a snapshot T1
///   has since replaced (`HtmReadOnlyCommitIgnoresDoom`). Locked under the
///   lazy mode, T1's acquisition is what dooms it.
pub fn torn_pair_scenario(mode: AlgoMode, locked: bool, async_driver: bool) -> Scenario {
    let sys = Arc::new(TmSystem::new(mode));
    let lock = Arc::new(ElidableMutex::new("check-serialtorn"));
    let a = Arc::new(OwnLine(TCell::new(0u64)));
    let b = Arc::new(OwnLine(TCell::new(0u64)));
    let init = vec![(a.0.addr(), 0), (b.0.addr(), 0)];

    let t0: Box<dyn FnOnce() + Send> = {
        let (sys, lock) = (Arc::clone(&sys), Arc::clone(&lock));
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        Box::new(move || {
            let th = sys.register();
            run_section(&th, &lock, async_driver, |ctx| {
                let va = ctx.read(&a.0)?;
                let vb = ctx.read(&b.0)?;
                assert_eq!(
                    va, vb,
                    "torn snapshot: a transaction saw T1's stores half done \
                     under {mode:?}"
                );
                Ok(())
            });
        })
    };
    let t1: Box<dyn FnOnce() + Send> = {
        let (sys, lock) = (Arc::clone(&sys), Arc::clone(&lock));
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        Box::new(move || {
            let th = sys.register();
            run_section(&th, &lock, async_driver, |ctx| {
                if locked {
                    ctx.unsafe_op()?;
                }
                ctx.write(&a.0, 1u64)?;
                ctx.write(&b.0, 1u64)?;
                Ok(())
            });
        })
    };
    let post = (Arc::clone(&a), Arc::clone(&b));
    Scenario {
        threads: vec![t0, t1],
        init,
        post: Box::new(
            move |_| match (post.0 .0.load_direct(), post.1 .0.load_direct()) {
                (1, 1) => Ok(()),
                pair => Err(format!("T1's stores lost: (A, B) = {pair:?}")),
            },
        ),
    }
}

/// Claim-on-update's witness: both threads run `update(A, +1)` on the
/// driver under test. The read half of each update claims A's line before
/// loading it, so whichever claims second dooms the first (or retries
/// against its commit); a read that marks nothing lets both commit on the
/// same stale value. The post-condition pins the sum.
pub fn update_pair_scenario(mode: AlgoMode, async_driver: bool) -> Scenario {
    let sys = Arc::new(TmSystem::new(mode));
    let lock = Arc::new(ElidableMutex::new("check-updatepair"));
    let a = Arc::new(TCell::new(0u64));
    let init = vec![(a.addr(), 0)];

    let mut threads: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    for _ in 0..2 {
        let (sys, lock, a) = (Arc::clone(&sys), Arc::clone(&lock), Arc::clone(&a));
        threads.push(Box::new(move || {
            let th = sys.register();
            run_section(&th, &lock, async_driver, |ctx| ctx.update(&*a, |v| v + 1));
        }));
    }
    let post_a = Arc::clone(&a);
    Scenario {
        threads,
        init,
        post: Box::new(move |_| match post_a.load_direct() {
            2 => Ok(()),
            v => Err(format!(
                "lost update: counter = {v}, expected 2 under {mode:?}"
            )),
        }),
    }
}

/// Transient claims reusing slots mid-race: three `update(A, +1)` sessions
/// on two vthreads. The first vthread runs two sessions back to back, each
/// on a slot claimed for it alone — the async driver claims a transient
/// slot per attempt, and under the sync driver each session registers a
/// handle and drops it — so its second session runs on the slot its first
/// released, over that session's ended claim on A's line, while the other
/// vthread's session races both. A writer tag repeated across claims of
/// one slot would let two sessions own the line at once; the
/// post-condition pins the sum.
pub fn update_trio_scenario(mode: AlgoMode, async_driver: bool) -> Scenario {
    let sys = Arc::new(TmSystem::new(mode));
    let lock = Arc::new(ElidableMutex::new("check-updatetrio"));
    let a = Arc::new(OwnLine(TCell::new(0u64)));
    let init = vec![(a.0.addr(), 0)];

    let mut threads: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    for sessions in [2, 1] {
        let (sys, lock, a) = (Arc::clone(&sys), Arc::clone(&lock), Arc::clone(&a));
        threads.push(Box::new(move || {
            let one = |th: &tle_core::ThreadHandle| {
                run_section(th, &lock, async_driver, |ctx| ctx.update(&a.0, |v| v + 1));
            };
            if async_driver {
                let th = sys.register();
                for _ in 0..sessions {
                    one(&th);
                }
            } else {
                for _ in 0..sessions {
                    one(&sys.register());
                }
            }
        }));
    }
    let post_a = Arc::clone(&a);
    Scenario {
        threads,
        init,
        post: Box::new(move |_| match post_a.0.load_direct() {
            3 => Ok(()),
            v => Err(format!(
                "lost update: counter = {v}, expected 3 under {mode:?}"
            )),
        }),
    }
}

/// A cell alone on its cache line. The simulated HTM conflicts by line, so
/// whether two heap cells share one decides which line marks — and which
/// yield points — a schedule has; a token must not depend on the heap.
#[repr(align(64))]
pub struct OwnLine(pub TCell<u64>);
