//! End-to-end coverage for the async runner (`TxRequest::run_async` /
//! `try_run_async` on the in-tree executor): exactness under task
//! multiplexing, waker-driven condvar handoffs, timed-wait cancellation,
//! deadline propagation, and sync/async interop on one system.

use std::sync::Arc;
use tle_base::exec::Exec;
use tle_base::stats::Stat;
use tle_base::TCell;
use tle_core::{AlgoMode, ElidableMutex, TmSystem, TxCondvar, TxError, ALL_MODES};

fn all_six() -> Vec<AlgoMode> {
    ALL_MODES
        .iter()
        .copied()
        .chain([AlgoMode::AdaptiveHtm, AlgoMode::AdaptiveHtmLazy])
        .collect()
}

#[test]
fn async_counter_exact_under_every_mode() {
    for mode in all_six() {
        let exec = Exec::new(4);
        let sys = Arc::new(TmSystem::new(mode));
        let lock = Arc::new(ElidableMutex::new("actr"));
        let cell = Arc::new(TCell::new(0u64));
        let th = Arc::new(sys.register());
        const TASKS: usize = 48;
        const OPS: u64 = 40;
        let handles: Vec<_> = (0..TASKS)
            .map(|_| {
                let th = Arc::clone(&th);
                let lock = Arc::clone(&lock);
                let cell = Arc::clone(&cell);
                exec.spawn(async move {
                    for _ in 0..OPS {
                        th.tx(&lock)
                            .run_async(|ctx| {
                                let v = ctx.read(&*cell)?;
                                ctx.write(&*cell, v + 1)?;
                                Ok(())
                            })
                            .await;
                    }
                })
            })
            .collect();
        exec.block_on(async move {
            for h in handles {
                h.await;
            }
        });
        assert_eq!(
            cell.load_direct(),
            TASKS as u64 * OPS,
            "lost updates under {mode:?}"
        );
    }
}

#[test]
fn async_tasks_outnumber_slots_and_workers() {
    // Far more logical sessions than executor workers (2) or STM/HTM slots:
    // transient slot claims must multiplex them without deadlock.
    let exec = Exec::new(2);
    let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
    let lock = Arc::new(ElidableMutex::new("many"));
    let cell = Arc::new(TCell::new(0u64));
    let th = Arc::new(sys.register());
    const TASKS: usize = 1_000;
    let handles: Vec<_> = (0..TASKS)
        .map(|_| {
            let th = Arc::clone(&th);
            let lock = Arc::clone(&lock);
            let cell = Arc::clone(&cell);
            exec.spawn(async move {
                th.tx(&lock)
                    .run_async(|ctx| {
                        ctx.update(&*cell, |v| v + 1)?;
                        Ok(())
                    })
                    .await;
            })
        })
        .collect();
    exec.block_on(async move {
        for h in handles {
            h.await;
        }
    });
    assert_eq!(cell.load_direct(), TASKS as u64);
}

#[test]
fn async_producer_consumer_condvar_under_every_mode() {
    for mode in all_six() {
        let exec = Exec::new(3);
        let sys = Arc::new(TmSystem::new(mode));
        let lock = Arc::new(ElidableMutex::new("apc"));
        let cv = Arc::new(TxCondvar::new());
        let flag = Arc::new(TCell::new(0u64));
        let value = Arc::new(TCell::new(0u64));
        let th = Arc::new(sys.register());

        let consumer = {
            let th = Arc::clone(&th);
            let lock = Arc::clone(&lock);
            let cv = Arc::clone(&cv);
            let flag = Arc::clone(&flag);
            let value = Arc::clone(&value);
            exec.spawn(async move {
                th.tx(&lock)
                    .run_async(|ctx| {
                        if ctx.read(&*flag)? == 0 {
                            return ctx.wait(&cv, None).map(|_| 0);
                        }
                        ctx.read(&*value)
                    })
                    .await
            })
        };

        let producer = {
            let th = Arc::clone(&th);
            let lock = Arc::clone(&lock);
            let cv = Arc::clone(&cv);
            let flag = Arc::clone(&flag);
            let value = Arc::clone(&value);
            exec.spawn(async move {
                // Give the consumer a head start so the wait path is
                // actually exercised (a pre-set flag would short-circuit).
                tle_base::exec::sleep(std::time::Duration::from_millis(20)).await;
                th.tx(&lock)
                    .run_async(|ctx| {
                        ctx.write(&*value, 55u64)?;
                        ctx.write(&*flag, 1u64)?;
                        ctx.signal(&cv)?;
                        Ok(())
                    })
                    .await;
            })
        };

        let got = exec.block_on(async move {
            producer.await;
            consumer.await
        });
        assert_eq!(got, 55, "consumer read wrong value under {mode:?}");
    }
}

#[test]
fn async_broadcast_wakes_every_waiter() {
    for mode in [
        AlgoMode::StmCondvar,
        AlgoMode::HtmCondvar,
        AlgoMode::AdaptiveHtm,
    ] {
        let exec = Exec::new(4);
        let sys = Arc::new(TmSystem::new(mode));
        let lock = Arc::new(ElidableMutex::new("bcast"));
        let cv = Arc::new(TxCondvar::new());
        let flag = Arc::new(TCell::new(false));
        let th = Arc::new(sys.register());
        const WAITERS: usize = 32;
        let waiters: Vec<_> = (0..WAITERS)
            .map(|_| {
                let th = Arc::clone(&th);
                let lock = Arc::clone(&lock);
                let cv = Arc::clone(&cv);
                let flag = Arc::clone(&flag);
                exec.spawn(async move {
                    th.tx(&lock)
                        .run_async(|ctx| {
                            if !ctx.read(&*flag)? {
                                return ctx.wait(&cv, None);
                            }
                            Ok(())
                        })
                        .await;
                })
            })
            .collect();
        let signaller = {
            let th = Arc::clone(&th);
            let lock = Arc::clone(&lock);
            let cv = Arc::clone(&cv);
            let flag = Arc::clone(&flag);
            exec.spawn(async move {
                tle_base::exec::sleep(std::time::Duration::from_millis(25)).await;
                th.tx(&lock)
                    .run_async(|ctx| {
                        ctx.write(&*flag, true)?;
                        ctx.broadcast(&cv)?;
                        Ok(())
                    })
                    .await;
            })
        };
        exec.block_on(async move {
            signaller.await;
            for w in waiters {
                w.await;
            }
        });
    }
}

#[test]
fn async_timed_wait_expires_and_cancels() {
    for mode in [
        AlgoMode::StmCondvar,
        AlgoMode::HtmCondvar,
        AlgoMode::AdaptiveHtm,
        AlgoMode::Baseline,
    ] {
        let exec = Exec::new(2);
        let sys = Arc::new(TmSystem::new(mode));
        let lock = Arc::new(ElidableMutex::new("atimed"));
        let th = Arc::new(sys.register());
        let cv = Arc::new(TxCondvar::new());
        let never = Arc::new(TCell::new(false));
        let t0 = std::time::Instant::now();
        let r = {
            let th = Arc::clone(&th);
            let lock = Arc::clone(&lock);
            let cv = Arc::clone(&cv);
            let never = Arc::clone(&never);
            exec.block_on(async move {
                let mut wakes = 0u32;
                th.tx(&lock)
                    .run_async(|ctx| {
                        if !ctx.read(&*never)? {
                            wakes += 1;
                            if wakes > 2 {
                                return Ok(false);
                            }
                            return ctx
                                .wait(&cv, Some(std::time::Duration::from_millis(10)))
                                .map(|_| false);
                        }
                        Ok(true)
                    })
                    .await
            })
        };
        assert!(!r, "flag never set under {mode:?}");
        assert!(
            t0.elapsed() >= std::time::Duration::from_millis(15),
            "timed waits returned early under {mode:?}"
        );
        // The cancelled ring entries must not swallow a later signal.
        let flag = Arc::new(TCell::new(false));
        let ok = {
            let th = Arc::clone(&th);
            let lock = Arc::clone(&lock);
            let cv = Arc::clone(&cv);
            let flag = Arc::clone(&flag);
            exec.block_on(async move {
                th.tx(&lock)
                    .run_async(|ctx| {
                        ctx.write(&*flag, true)?;
                        ctx.signal(&cv)?;
                        Ok(true)
                    })
                    .await
            })
        };
        assert!(ok, "post-cancel signal failed under {mode:?}");
    }
}

#[test]
fn async_deadline_surfaces_error_via_try_run() {
    let exec = Exec::new(2);
    let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
    let lock = Arc::new(ElidableMutex::new("adl"));
    let th = Arc::new(sys.register());
    let r: Result<(), TxError> = {
        let th = Arc::clone(&th);
        let lock = Arc::clone(&lock);
        exec.block_on(async move {
            let req = th.tx(&lock).deadline_us(1);
            // Let the 1µs budget lapse before dispatch.
            std::thread::sleep(std::time::Duration::from_millis(1));
            req.try_run_async(|_ctx| Ok(())).await
        })
    };
    assert!(matches!(r, Err(TxError::DeadlineExceeded)), "got {r:?}");
}

#[test]
fn async_deadline_clamps_unbounded_wait() {
    // An unbounded wait() under a section deadline must wake at the
    // deadline (clamped by ctx) rather than sleeping forever: the runner
    // then observes the expired budget and surfaces the error.
    let exec = Exec::new(2);
    let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
    let lock = Arc::new(ElidableMutex::new("aclamp"));
    let th = Arc::new(sys.register());
    let cv = Arc::new(TxCondvar::new());
    let never = Arc::new(TCell::new(false));
    let t0 = std::time::Instant::now();
    let r: Result<(), TxError> = {
        let th = Arc::clone(&th);
        let lock = Arc::clone(&lock);
        let cv = Arc::clone(&cv);
        let never = Arc::clone(&never);
        exec.block_on(async move {
            th.tx(&lock)
                .deadline_us(20_000)
                .try_run_async(|ctx| {
                    if !ctx.read(&*never)? {
                        return ctx.wait(&cv, None);
                    }
                    Ok(())
                })
                .await
        })
    };
    assert!(
        matches!(r, Err(TxError::DeadlineExceeded)),
        "expected deadline error, got {r:?}"
    );
    let elapsed = t0.elapsed();
    assert!(
        elapsed >= std::time::Duration::from_millis(19),
        "woke before the deadline: {elapsed:?}"
    );
    assert!(
        elapsed < std::time::Duration::from_secs(5),
        "unbounded wait was not clamped: {elapsed:?}"
    );
}

#[test]
fn sync_and_async_sections_interleave_exactly() {
    for mode in [
        AlgoMode::Baseline,
        AlgoMode::StmCondvar,
        AlgoMode::HtmCondvar,
        AlgoMode::AdaptiveHtm,
    ] {
        let exec = Exec::new(2);
        let sys = Arc::new(TmSystem::new(mode));
        let lock = Arc::new(ElidableMutex::new("mix"));
        let cell = Arc::new(TCell::new(0u64));
        const OPS: u64 = 400;
        let sync_threads: Vec<_> = (0..2)
            .map(|_| {
                let sys = Arc::clone(&sys);
                let lock = Arc::clone(&lock);
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    let th = sys.register();
                    for _ in 0..OPS {
                        th.tx(&lock).run(|ctx| {
                            ctx.update(&*cell, |v| v + 1)?;
                            Ok(())
                        });
                    }
                })
            })
            .collect();
        let th = Arc::new(sys.register());
        let tasks: Vec<_> = (0..8)
            .map(|_| {
                let th = Arc::clone(&th);
                let lock = Arc::clone(&lock);
                let cell = Arc::clone(&cell);
                exec.spawn(async move {
                    for _ in 0..OPS / 8 {
                        th.tx(&lock)
                            .run_async(|ctx| {
                                ctx.update(&*cell, |v| v + 1)?;
                                Ok(())
                            })
                            .await;
                    }
                })
            })
            .collect();
        exec.block_on(async move {
            for t in tasks {
                t.await;
            }
        });
        for t in sync_threads {
            t.join().unwrap();
        }
        assert_eq!(
            cell.load_direct(),
            2 * OPS + OPS,
            "sync/async interleaving lost updates under {mode:?}"
        );
    }
}

#[test]
fn async_unsafe_op_serializes_and_completes() {
    for mode in all_six() {
        let exec = Exec::new(2);
        let sys = Arc::new(TmSystem::new(mode));
        let lock = Arc::new(ElidableMutex::new("aio"));
        let th = Arc::new(sys.register());
        let cell = Arc::new(TCell::new(0u64));
        let out = {
            let th = Arc::clone(&th);
            let lock = Arc::clone(&lock);
            let cell = Arc::clone(&cell);
            exec.block_on(async move {
                th.tx(&lock)
                    .run_async(|ctx| {
                        ctx.unsafe_op()?;
                        let v = ctx.read(&*cell)?;
                        ctx.write(&*cell, v + 1)?;
                        Ok(v)
                    })
                    .await
            })
        };
        assert_eq!(out, 0);
        assert_eq!(
            cell.load_direct(),
            1,
            "unsafe path lost the write under {mode:?}"
        );
    }
}

/// PR-8's cancellation caveat, now fixed: dropping an async critical
/// section while it is suspended on a committed condvar wait must remove
/// its ring entry (`WaitEntryGuard`), so (a) the ring compacts clean and
/// (b) a later signal is delivered to a live waiter instead of being
/// consumed by the ghost entry.
#[test]
fn async_dropped_wait_future_self_cancels_ring_entry() {
    use std::future::Future;
    use std::pin::Pin;
    use std::sync::{Condvar as OsCondvar, Mutex as OsMutex};
    use std::task::{Context, Poll, Wake, Waker};

    struct FlagSignal {
        woken: OsMutex<bool>,
        cv: OsCondvar,
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

    /// Poll until the future truly suspends on an armed waker (registered
    /// wait), panicking if it completes first.
    fn poll_to_suspension<F: Future>(fut: &mut Pin<&mut F>, signal: &Arc<FlagSignal>) {
        let waker = Waker::from(Arc::clone(signal));
        let mut cx = Context::from_waker(&waker);
        for _ in 0..10_000 {
            if fut.as_mut().poll(&mut cx).is_ready() {
                panic!("future completed before suspending on the wait");
            }
            let mut woken = signal.woken.lock().unwrap_or_else(|e| e.into_inner());
            if *woken {
                *woken = false; // hot re-poll (yield_now backoff etc.)
            } else {
                return; // truly parked on the waiter
            }
        }
        panic!("future never suspended");
    }

    fn poll_to_ready<F: Future>(fut: &mut Pin<&mut F>, signal: &Arc<FlagSignal>) -> F::Output {
        let waker = Waker::from(Arc::clone(signal));
        let mut cx = Context::from_waker(&waker);
        loop {
            if let Poll::Ready(v) = fut.as_mut().poll(&mut cx) {
                return v;
            }
            let mut woken = signal.woken.lock().unwrap_or_else(|e| e.into_inner());
            while !*woken {
                woken = signal.cv.wait(woken).unwrap_or_else(|e| e.into_inner());
            }
            *woken = false;
        }
    }

    for mode in [
        AlgoMode::StmCondvar,
        AlgoMode::HtmCondvar,
        AlgoMode::AdaptiveHtm,
        AlgoMode::AdaptiveHtmLazy,
    ] {
        let sys = Arc::new(TmSystem::new(mode));
        let lock = Arc::new(ElidableMutex::new("dropwait"));
        let cv = Arc::new(TxCondvar::new());
        let flag = Arc::new(TCell::new(0u64));
        let th = Arc::new(sys.register());
        let signal = Arc::new(FlagSignal {
            woken: OsMutex::new(false),
            cv: OsCondvar::new(),
        });

        // Suspend a wait, then drop it mid-wait.
        {
            let fut = th.tx(&lock).run_async(|ctx| {
                if ctx.read(&*flag)? == 0 {
                    return ctx.wait(&cv, None);
                }
                Ok(())
            });
            let mut fut = std::pin::pin!(fut);
            poll_to_suspension(&mut fut, &signal);
            assert_eq!(cv.approx_len(), 1, "wait not registered under {mode:?}");
        } // <- dropped here; the guard must remove the ring entry

        // A fresh waiter registers; enqueue-side compaction walks the head
        // past the cancelled slot, so the ring holds exactly one live
        // entry. A ghost entry would leave two.
        let fut2 = th.tx(&lock).run_async(|ctx| {
            if ctx.read(&*flag)? == 0 {
                return ctx.wait(&cv, None);
            }
            Ok(())
        });
        let mut fut2 = std::pin::pin!(fut2);
        poll_to_suspension(&mut fut2, &signal);
        assert_eq!(
            cv.approx_len(),
            1,
            "ghost ring entry survived the dropped wait under {mode:?}"
        );

        // One signal must reach the live waiter (a ghost would consume it).
        let producer = {
            let sys = Arc::clone(&sys);
            let lock = Arc::clone(&lock);
            let cv = Arc::clone(&cv);
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                let th = sys.register();
                th.tx(&lock).run(|ctx| {
                    ctx.write(&*flag, 1u64)?;
                    ctx.signal(&cv)?;
                    Ok(())
                });
            })
        };
        producer.join().unwrap();
        poll_to_ready(&mut fut2, &signal);
        assert_eq!(cv.approx_len(), 0, "ring not drained under {mode:?}");
    }
}

/// The sync/async drift the shared ladder ended: a safe-lazy begin refusal
/// (the lock is held right now) must back off — on the async driver that
/// includes a yield — like every other conflict abort. The old async ladder
/// folded it into the eager "subscribed, held" step and retried it hot, so
/// one poll against a held lock burned the whole `htm_retries` budget,
/// armed the skip counter and queued on the lock path behind the holder.
#[test]
fn async_lazy_refusal_backs_off_instead_of_burning_the_retry_budget() {
    use std::future::Future;
    use std::sync::mpsc;
    use std::task::{Context, Poll, Wake, Waker};

    struct NoopWake;
    impl Wake for NoopWake {
        fn wake(self: Arc<Self>) {}
    }

    let sys = Arc::new(TmSystem::new(AlgoMode::AdaptiveHtmLazy));
    let lock = Arc::new(ElidableMutex::new("lazy-held"));
    let cell = Arc::new(TCell::new(0u64));

    // A sync section holds the lock path (odd acquisition seqlock) until told
    // to leave.
    let (holding_tx, holding_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let holder = {
        let (sys, lock, cell) = (Arc::clone(&sys), Arc::clone(&lock), Arc::clone(&cell));
        std::thread::spawn(move || {
            let th = sys.register();
            th.tx(&lock).run(|ctx| {
                ctx.unsafe_op()?; // speculative run aborts here; the lock path passes
                holding_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                ctx.update(&*cell, |v| v + 1)?;
                Ok(())
            });
        })
    };
    holding_rx.recv().unwrap();

    // One poll of an async section against the held lock: exactly one
    // refused attempt, then a suspension.
    let th = sys.register();
    let aborts_before = sys.htm.stats.get(Stat::Aborts);
    let fut = th.tx(&lock).run_async(|ctx| {
        ctx.update(&*cell, |v| v + 1)?;
        Ok(())
    });
    let mut fut = std::pin::pin!(fut);
    let waker = Waker::from(Arc::new(NoopWake));
    let mut cx = Context::from_waker(&waker);
    assert!(fut.as_mut().poll(&mut cx).is_pending());
    assert_eq!(
        sys.htm.stats.get(Stat::Aborts) - aborts_before,
        1,
        "a refused lazy begin must yield after one attempt"
    );
    assert_eq!(
        lock.skip_credits(),
        0,
        "one refusal must not exhaust the retry budget and arm the skip counter"
    );

    release_tx.send(()).unwrap();
    holder.join().unwrap();
    loop {
        if let Poll::Ready(()) = fut.as_mut().poll(&mut cx) {
            break;
        }
        std::thread::yield_now();
    }
    assert_eq!(cell.load_direct(), 2);
}
