//! Cancel-path tests for timed condvar waits (paper §VI-d).
//!
//! A timed wait that expires must *cancel* its ring entry in a follow-up
//! section (`cancel_wait`: an ordinary section on the waiter's lock, run
//! by the same dispatch as every other), and a wait registration whose
//! transaction fails to commit must reclaim the queue-owned `Arc` reference
//! — both paths hold a raw pointer produced by `Arc::into_raw`, so a bug
//! here is a leak or a double-free rather than a wrong answer. These tests
//! drive each path under the lock's modes (the removal runs as whatever the
//! lock runs when the timeout fires, a mode flip included), on both
//! drivers where the driver matters, and then prove the condvar is still
//! *usable*: a stale or double-claimed ring entry would swallow the
//! subsequent wakeup, and cancelled residue must not fill the ring.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tle_base::exec::Exec;
use tle_base::TCell;
use tle_core::{AlgoMode, ElidableMutex, TmSystem, TxCondvar, TxCtx, TxError};
use tle_htm::HtmConfig;

/// Which terminal a section runs through.
#[derive(Clone, Copy, Debug)]
enum Drive {
    Sync,
    Async,
}

/// Run `body` as a section on `lock` through `drive`.
fn section<'a, R>(
    drive: Drive,
    th: &'a tle_core::ThreadHandle,
    lock: &'a ElidableMutex,
    body: impl FnMut(&mut TxCtx<'a>) -> Result<R, TxError>,
) -> R {
    match drive {
        Drive::Sync => th.tx(lock).run(body),
        Drive::Async => Exec::new(1).block_on(th.tx(lock).run_async(body)),
    }
}

/// A signal round-trip: one thread waits (untimed) for a flag, the other
/// sets it and signals, both through `drive`. Proves the ring still
/// delivers wakeups — run after every cancellation scenario to show
/// cancelled entries left no residue that absorbs signals.
fn assert_signal_round_trip(
    drive: Drive,
    sys: &Arc<TmSystem>,
    lock: &Arc<ElidableMutex>,
    cv: &Arc<TxCondvar>,
) {
    let flag = Arc::new(TCell::new(false));
    let waiter = {
        let (sys, lock, cv, flag) = (
            Arc::clone(sys),
            Arc::clone(lock),
            Arc::clone(cv),
            Arc::clone(&flag),
        );
        std::thread::spawn(move || {
            let th = sys.register();
            section(drive, &th, &lock, |ctx| {
                if ctx.read(&*flag)? {
                    Ok(())
                } else {
                    ctx.wait(&cv, None).map(|_| ())
                }
            });
        })
    };
    // Give the waiter a moment to park, then signal inside a section.
    std::thread::sleep(Duration::from_millis(20));
    let th = sys.register();
    section(drive, &th, lock, |ctx| {
        ctx.write(&*flag, true)?;
        ctx.signal(cv)?;
        Ok(())
    });
    waiter
        .join()
        .expect("round-trip waiter wedged: signal lost");
}

/// Timed wait with nobody signalling: the timeout fires, `cancel_wait`
/// removes the ring entry, and the closure re-runs. Exercised under both TM
/// flavours so the removal section runs as an STM and an HTM transaction.
fn timed_wait_expiry(mode: AlgoMode) {
    let sys = Arc::new(TmSystem::new(mode));
    let lock = Arc::new(ElidableMutex::new("expiry"));
    let cv = Arc::new(TxCondvar::new());
    let never = Arc::new(TCell::new(false));

    let th = sys.register();
    let mut wakes = 0u32;
    let t0 = Instant::now();
    th.tx(&lock).run(|ctx| {
        if !ctx.read(&*never)? {
            wakes += 1;
            if wakes > 2 {
                // Two expirations observed; stop polling.
                return Ok(());
            }
            return ctx.wait(&cv, Some(Duration::from_millis(10))).map(|_| ());
        }
        Ok(())
    });
    assert!(
        t0.elapsed() >= Duration::from_millis(15),
        "{mode:?}: returned before both timeouts could expire"
    );
    assert!(wakes > 2, "{mode:?}: closure not re-run after timeout");
    // Each expiry cancelled its own entry; the ring must still work.
    assert_signal_round_trip(Drive::Sync, &sys, &lock, &cv);
}

#[test]
fn timed_wait_expires_and_cancels_under_stm() {
    timed_wait_expiry(AlgoMode::StmCondvar);
}

#[test]
fn timed_wait_expires_and_cancels_under_htm() {
    timed_wait_expiry(AlgoMode::HtmCondvar);
}

/// A signaller firing right as timeouts expire: `cancel_wait`'s remove races
/// the signaller's dequeue for the same entry. Exactly one side may claim it
/// (and with it the queue's `Arc` reference) — a double claim double-frees,
/// a missed claim leaks or deadlocks a later waiter. The waiters use short
/// timeouts so every iteration re-runs the race.
fn signal_races_timeout(mode: AlgoMode) {
    const WAITERS: usize = 3;
    let sys = Arc::new(TmSystem::new(mode));
    let lock = Arc::new(ElidableMutex::new("race"));
    let cv = Arc::new(TxCondvar::new());
    let flag = Arc::new(TCell::new(false));
    let stop = Arc::new(AtomicBool::new(false));

    let waiters: Vec<_> = (0..WAITERS)
        .map(|i| {
            let (sys, lock, cv, flag) = (
                Arc::clone(&sys),
                Arc::clone(&lock),
                Arc::clone(&cv),
                Arc::clone(&flag),
            );
            std::thread::spawn(move || {
                let th = sys.register();
                // Staggered timeouts line up differently with the signal
                // cadence on each iteration, widening race coverage.
                let timeout = Duration::from_micros(500 + 300 * i as u64);
                th.tx(&lock).run(|ctx| {
                    if ctx.read(&*flag)? {
                        Ok(())
                    } else {
                        ctx.wait(&cv, Some(timeout)).map(|_| ())
                    }
                });
            })
        })
        .collect();

    let signaller = {
        let (sys, lock, cv, stop) = (
            Arc::clone(&sys),
            Arc::clone(&lock),
            Arc::clone(&cv),
            Arc::clone(&stop),
        );
        std::thread::spawn(move || {
            let th = sys.register();
            while !stop.load(Ordering::Acquire) {
                th.tx(&lock).run(|ctx| ctx.signal(&cv));
                std::thread::sleep(Duration::from_micros(400));
            }
        })
    };

    // Let signals and timeouts collide for a while, then release everyone.
    std::thread::sleep(Duration::from_millis(100));
    let th = sys.register();
    th.tx(&lock).run(|ctx| {
        ctx.write(&*flag, true)?;
        ctx.broadcast(&cv)?;
        Ok(())
    });
    for w in waiters {
        w.join()
            .expect("waiter lost both the signal and the timeout");
    }
    stop.store(true, Ordering::Release);
    signaller.join().unwrap();

    // Cancelled residue compacts on the next enqueue; a full round-trip
    // proves neither side of the race left a claimed-but-live entry behind.
    assert_signal_round_trip(Drive::Sync, &sys, &lock, &cv);
}

#[test]
fn signal_races_timeout_under_stm() {
    signal_races_timeout(AlgoMode::StmCondvar);
}

#[test]
fn signal_races_timeout_under_htm() {
    signal_races_timeout(AlgoMode::HtmCondvar);
}

/// Force wait-registration transactions to fail so the rolled-back
/// attempt's reclaim (runner) and the enqueue-failure reclaim (ctx) run:
/// an aggressive simulated event-abort rate kills registrations mid-enqueue, and ring
/// head/tail contention between concurrent waiters dooms others between
/// enqueue and commit. Every failure must drop exactly the one reference
/// the rolled-back ring write would have owned.
#[test]
fn failed_wait_registration_reclaims_queue_reference() {
    let cfg = HtmConfig {
        // ~5% per access: with ~8 transactional accesses per registration,
        // most waits lose at least one attempt to an event abort.
        event_prob: 0.05,
        seed: 0xDECAF,
        ..HtmConfig::default()
    };
    let sys = Arc::new(
        TmSystem::builder()
            .mode(AlgoMode::HtmCondvar)
            .htm_config(cfg)
            .build(),
    );
    let lock = Arc::new(ElidableMutex::new("reclaim"));
    let cv = Arc::new(TxCondvar::new());
    let flag = Arc::new(TCell::new(0u64));
    const THREADS: usize = 4;
    const ROUNDS: u64 = 50;

    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let (sys, lock, cv, flag) = (
                Arc::clone(&sys),
                Arc::clone(&lock),
                Arc::clone(&cv),
                Arc::clone(&flag),
            );
            std::thread::spawn(move || {
                let th = sys.register();
                for round in 1..=ROUNDS {
                    // Timed wait: almost always expires (nobody signals on
                    // this phase), so the registration commits — or fails
                    // and is retried, reclaiming the queue reference each
                    // time — and then cancels.
                    let mut polls = 0u32;
                    th.tx(&lock).run(|ctx| {
                        polls += 1;
                        if polls > 1 {
                            return Ok(());
                        }
                        ctx.wait(&cv, Some(Duration::from_micros(200))).map(|_| ())
                    });
                    // Interleave signals so dequeues contend with enqueues.
                    th.tx(&lock).run(|ctx| {
                        let v = ctx.read(&*flag)?;
                        ctx.write(&*flag, v + 1)?;
                        ctx.signal(&cv)?;
                        Ok(())
                    });
                    let _ = round;
                }
            })
        })
        .collect();
    for h in handles {
        h.join()
            .expect("thread died reclaiming a failed registration");
    }

    // The flag increments are plain transactional updates; losing one would
    // mean an abort path corrupted state on its way out.
    assert_eq!(flag.load_direct(), THREADS as u64 * ROUNDS);

    // The event-abort rate guarantees the failure paths actually ran.
    let stats = sys.domain_stats();
    assert!(
        stats.htm.aborts > 0,
        "event_prob=0.05 produced no aborts: reclaim paths never exercised"
    );

    assert_signal_round_trip(Drive::Sync, &sys, &lock, &cv);
}

/// Ring capacity (`condvar::RING`): the live waiters one condvar holds.
const RING: usize = 256;

/// Cancelled residue behind a live head entry. One thread parks in an
/// untimed wait; a second thread's timed wait on the same lock expires
/// `2 × RING` times. Each removal leaves a hole behind the live head, which
/// the enqueue's leading-null skip cannot reclaim, so a full ring must
/// compact before it overflows. A signal then still wakes the head waiter.
fn residue_behind_a_live_head(mode: AlgoMode) {
    let sys = Arc::new(TmSystem::new(mode));
    let lock = Arc::new(ElidableMutex::new("residue"));
    let cv = Arc::new(TxCondvar::new());
    let flag = Arc::new(TCell::new(false));
    let head = {
        let (sys, lock, cv, flag) = (
            Arc::clone(&sys),
            Arc::clone(&lock),
            Arc::clone(&cv),
            Arc::clone(&flag),
        );
        std::thread::spawn(move || {
            let th = sys.register();
            th.tx(&lock).run(|ctx| {
                if ctx.read(&*flag)? {
                    Ok(())
                } else {
                    ctx.wait(&cv, None).map(|_| ())
                }
            });
        })
    };
    // The head's registration has committed.
    while cv.approx_len() == 0 {
        std::thread::yield_now();
    }
    let th = sys.register();
    let rounds = TCell::new(0u64);
    for round in 0..2 * RING as u64 {
        // The round counter commits with the registration, so an aborted
        // attempt re-registers and the re-run after the timeout does not.
        th.tx(&lock).run(|ctx| {
            if ctx.read(&rounds)? == round {
                ctx.write(&rounds, round + 1)?;
                return ctx.wait(&cv, Some(Duration::from_micros(200)));
            }
            Ok(())
        });
    }
    assert_eq!(rounds.load_direct(), 2 * RING as u64, "{mode:?}");
    th.tx(&lock).run(|ctx| {
        ctx.write(&*flag, true)?;
        ctx.signal(&cv)
    });
    head.join()
        .unwrap_or_else(|_| panic!("{mode:?}: the head waiter slept through the signal"));
}

#[test]
fn cancelled_residue_compacts_under_baseline() {
    residue_behind_a_live_head(AlgoMode::Baseline);
}

#[test]
fn cancelled_residue_compacts_under_stm() {
    residue_behind_a_live_head(AlgoMode::StmCondvar);
}

#[test]
fn cancelled_residue_compacts_under_stm_no_quiesce() {
    residue_behind_a_live_head(AlgoMode::StmCondvarNoQuiesce);
}

#[test]
fn cancelled_residue_compacts_under_norec() {
    residue_behind_a_live_head(AlgoMode::StmNorec);
}

#[test]
fn cancelled_residue_compacts_under_htm() {
    residue_behind_a_live_head(AlgoMode::HtmCondvar);
}

#[test]
fn cancelled_residue_compacts_under_adaptive_htm() {
    residue_behind_a_live_head(AlgoMode::AdaptiveHtm);
}

/// A timed wait registered under one mode expires after the lock flipped
/// to another: the removal section dispatches on the lock's mode at the
/// timeout, like any section, and the ring then still delivers a signal.
fn timed_wait_spans_flip(drive: Drive, from: AlgoMode, to: AlgoMode) {
    let sys = Arc::new(TmSystem::new(from));
    let lock = Arc::new(ElidableMutex::new("flip-timeout"));
    let cv = Arc::new(TxCondvar::new());
    let waiter = {
        let (sys, lock, cv) = (Arc::clone(&sys), Arc::clone(&lock), Arc::clone(&cv));
        std::thread::spawn(move || {
            let th = sys.register();
            let waited = TCell::new(false);
            section(drive, &th, &lock, |ctx| {
                if !ctx.read(&waited)? {
                    ctx.write(&waited, true)?;
                    return ctx.wait(&cv, Some(Duration::from_millis(100)));
                }
                Ok(())
            });
        })
    };
    // The registration has committed under `from`.
    while cv.approx_len() == 0 {
        std::thread::yield_now();
    }
    sys.set_lock_mode(&lock, to);
    assert_eq!(lock.resolved_mode(sys.mode()), to);
    waiter
        .join()
        .unwrap_or_else(|_| panic!("{drive:?}: a {from:?} wait expiring under {to:?}"));
    assert_signal_round_trip(drive, &sys, &lock, &cv);
}

#[test]
fn timed_wait_expires_after_a_mode_flip() {
    for drive in [Drive::Sync, Drive::Async] {
        for (from, to) in [
            (AlgoMode::StmCondvar, AlgoMode::Baseline),
            (AlgoMode::HtmCondvar, AlgoMode::AdaptiveHtm),
            (AlgoMode::Baseline, AlgoMode::StmNorec),
            (AlgoMode::AdaptiveHtm, AlgoMode::HtmCondvar),
        ] {
            timed_wait_spans_flip(drive, from, to);
        }
    }
}
