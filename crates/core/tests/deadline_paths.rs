//! Deadline- and admission-path tests (the degradation plane's error
//! surface).
//!
//! A section's retry-time budget ([`TxHints::with_deadline`]) is checked at
//! dispatch and before every retry tier, never mid-attempt — so an expired
//! budget must surface as `Err(DeadlineExceeded)` from `tx().hints(h).try_run`
//! with *no effects*, while the infallible API (which has no error channel)
//! must complete by serializing instead. A condvar wait inside a budgeted
//! section clamps its park time to the remaining budget, so a waiter nobody
//! signals wakes at the deadline rather than sleeping forever; the
//! signal-races-deadline test is the deadline twin of
//! `cancel_paths::signal_races_timeout` — the expiry's `cancel_wait` races
//! a live signaller's dequeue for the same ring entry. The admission tests
//! walk a lock down the whole elide → serialize → shed ladder via the real
//! controller and back, proving `Overloaded` is reachable, counted, and
//! recoverable.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tle_base::exec::Exec;
use tle_base::stats::Stat;
use tle_base::trace::TraceKind;
use tle_base::TCell;
use tle_core::{
    AdmissionConfig, AdmissionStep, AlgoMode, ElidableMutex, TmSystem, TxCondvar, TxCtx, TxError,
    TxHints,
};

/// A zero budget is already spent when the dispatch gate first looks at it:
/// the fallible entry point must refuse before any speculation, leave no
/// effects, and count the refusal exactly once.
fn zero_budget_refused(mode: AlgoMode) {
    let sys = Arc::new(TmSystem::new(mode));
    let lock = ElidableMutex::new("zero-budget");
    let cell = TCell::new(0u64);
    let th = sys.register();

    let res = th
        .tx(&lock)
        .hints(TxHints::new().with_deadline(Duration::ZERO))
        .try_run(|ctx| {
            let v = ctx.read(&cell)?;
            ctx.write(&cell, v + 1)?;
            Ok(())
        });
    assert!(
        matches!(res, Err(TxError::DeadlineExceeded)),
        "{mode:?}: zero budget produced {res:?}"
    );
    assert_eq!(
        cell.load_direct(),
        0,
        "{mode:?}: refused section had effects"
    );
    assert_eq!(sys.stats.snapshot().deadline_exceeded, 1);

    // The infallible API cannot surface the error; an expired budget must
    // instead bound retries by forcing the serial path — and still commit.
    th.tx(&lock)
        .hints(TxHints::new().with_deadline(Duration::ZERO))
        .run(|ctx| {
            let v = ctx.read(&cell)?;
            ctx.write(&cell, v + 1)?;
            Ok(())
        });
    assert_eq!(cell.load_direct(), 1, "{mode:?}: infallible section lost");
    // The refusal count must not have moved: serialization is not expiry.
    assert_eq!(sys.stats.snapshot().deadline_exceeded, 1);
}

#[test]
fn zero_budget_refused_under_stm() {
    zero_budget_refused(AlgoMode::StmCondvar);
}

#[test]
fn zero_budget_refused_under_htm() {
    zero_budget_refused(AlgoMode::HtmCondvar);
}

/// A section that waits on `cv`, untimed, until `flag` is set.
fn wait_for<'a>(
    flag: &'a TCell<bool>,
    cv: &'a TxCondvar,
) -> impl FnMut(&mut TxCtx<'a>) -> Result<(), TxError> {
    move |ctx| {
        if ctx.read(flag)? {
            Ok(())
        } else {
            ctx.wait(cv, None).map(|_| ())
        }
    }
}

/// An *untimed* wait inside a budgeted section must not outsleep the
/// deadline: the clamp turns `wait(cv, None)` into a park bounded by the
/// remaining budget, and the re-run after the wakeup converts the expiry
/// into `Err(DeadlineExceeded)` — at the retry gate of a transaction, at
/// dispatch for a baseline section, which re-runs through dispatch after a
/// wait. Without the clamp this test hangs. Run under both drivers.
fn untimed_wait_clamped_to_deadline(mode: AlgoMode) {
    for asynch in [false, true] {
        let sys = Arc::new(TmSystem::new(mode));
        let lock = ElidableMutex::new("clamp");
        let cv = TxCondvar::new();
        let never = TCell::new(false);
        let th = sys.register();

        let budget = Duration::from_millis(20);
        let t0 = Instant::now();
        let req = th.tx(&lock).hints(TxHints::new().with_deadline(budget));
        let body = wait_for(&never, &cv);
        let res = if asynch {
            Exec::new(1).block_on(req.try_run_async(body))
        } else {
            req.try_run(body)
        };
        let elapsed = t0.elapsed();
        let name = format!("{mode:?} (async: {asynch})");
        assert!(
            matches!(res, Err(TxError::DeadlineExceeded)),
            "{name}: unsignalled wait produced {res:?}"
        );
        assert!(
            elapsed >= budget,
            "{name}: returned at {elapsed:?}, before the {budget:?} budget"
        );
        assert!(
            elapsed < Duration::from_secs(5),
            "{name}: wait was not clamped (took {elapsed:?})"
        );
        assert_eq!(sys.stats.snapshot().deadline_exceeded, 1, "{name}");
    }
}

#[test]
fn untimed_wait_clamped_under_stm() {
    untimed_wait_clamped_to_deadline(AlgoMode::StmCondvar);
}

#[test]
fn untimed_wait_clamped_under_htm() {
    untimed_wait_clamped_to_deadline(AlgoMode::HtmCondvar);
}

#[test]
fn untimed_wait_clamped_under_baseline() {
    untimed_wait_clamped_to_deadline(AlgoMode::Baseline);
}

/// A signaller firing right as deadlines expire: the expiry path's
/// `cancel_wait` races the signaller's dequeue for the same ring entry,
/// exactly like `cancel_paths::signal_races_timeout` but with the timeout
/// supplied by the deadline clamp instead of the wait itself. Every waiter
/// must terminate with `DeadlineExceeded` (the predicate never turns true
/// within its budget), every expiry must be counted, and the ring must
/// still deliver wakeups afterwards — a double-claimed or leaked entry
/// would swallow the round-trip signal.
fn signal_races_deadline(mode: AlgoMode) {
    const WAITERS: usize = 3;
    let sys = Arc::new(TmSystem::new(mode));
    let lock = Arc::new(ElidableMutex::new("deadline-race"));
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
                // Staggered budgets line up differently with the signal
                // cadence on each run, widening race coverage.
                let budget = Duration::from_micros(500 + 300 * i as u64);
                th.tx(&lock)
                    .hints(TxHints::new().with_deadline(budget))
                    .try_run(|ctx| {
                        if ctx.read(&*flag)? {
                            Ok(())
                        } else {
                            ctx.wait(&cv, None).map(|_| ())
                        }
                    })
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

    // The flag stays false far longer than any budget, so a signalled
    // waiter re-runs, re-waits, and ultimately expires.
    std::thread::sleep(Duration::from_millis(50));
    for w in waiters {
        let res = w.join().expect("waiter wedged: deadline never fired");
        assert!(
            matches!(res, Err(TxError::DeadlineExceeded)),
            "{mode:?}: racing waiter produced {res:?}"
        );
    }
    stop.store(true, Ordering::Release);
    signaller.join().unwrap();
    assert_eq!(
        sys.stats.snapshot().deadline_exceeded,
        WAITERS as u64,
        "{mode:?}: every expiry counted exactly once"
    );

    // Cancelled residue compacts on the next enqueue; a full round trip
    // proves neither side of the race left a claimed-but-live entry.
    let released = Arc::new(TCell::new(false));
    let waiter = {
        let (sys, lock, cv, released) = (
            Arc::clone(&sys),
            Arc::clone(&lock),
            Arc::clone(&cv),
            Arc::clone(&released),
        );
        std::thread::spawn(move || {
            let th = sys.register();
            th.tx(&lock).run(|ctx| {
                if ctx.read(&*released)? {
                    Ok(())
                } else {
                    ctx.wait(&cv, None).map(|_| ())
                }
            });
        })
    };
    std::thread::sleep(Duration::from_millis(20));
    let th = sys.register();
    th.tx(&lock).run(|ctx| {
        ctx.write(&*released, true)?;
        ctx.signal(&cv)?;
        Ok(())
    });
    waiter
        .join()
        .expect("round-trip waiter wedged: signal lost");
}

#[test]
fn signal_races_deadline_under_stm() {
    signal_races_deadline(AlgoMode::StmCondvar);
}

#[test]
fn signal_races_deadline_under_htm() {
    signal_races_deadline(AlgoMode::HtmCondvar);
}

/// Walk a lock down the full degradation ladder through the *real*
/// controller (queue-peak signal, no synthetic stepping) and back up:
/// Shed must refuse fallible sections with `Overloaded` (counted), still
/// serve infallible ones by serializing, and recover once the queue
/// drains — with the high-water mark remembering the excursion.
#[test]
fn overload_shed_is_reachable_counted_and_recoverable() {
    let cfg = AdmissionConfig {
        min_dwell_steps: 0,
        // Isolate the queue signal: rate thresholds can never fire.
        min_window_samples: u64::MAX,
        serialize_abort_rate: 2.0,
        serialize_fallback_rate: 2.0,
        shed_queue_depth: 1,
        recover_queue_depth: 0,
        recover_probe_steps: 1,
    };
    let sys = Arc::new(
        TmSystem::builder()
            .mode(AlgoMode::StmCondvar)
            .admission_config(cfg)
            .build(),
    );
    let lock = ElidableMutex::new("overload");
    sys.adopt_lock(&lock);
    let cell = TCell::new(0u64);
    let th = sys.register();
    let bump = |ctx: &mut tle_core::TxCtx| {
        let v = ctx.read(&cell)?;
        ctx.write(&cell, v + 1)?;
        Ok(())
    };

    assert_eq!(lock.admission_step(), AdmissionStep::Elide);
    // One dispatched section leaves a queue peak of 1 ≥ shed_queue_depth,
    // even though it commits cleanly — the peak gauge, not the
    // instantaneous depth, is what the controller samples.
    th.tx(&lock).run(bump);
    assert_eq!(sys.controller_step(), 1);
    assert_eq!(lock.admission_step(), AdmissionStep::Serialize);
    // A serialized section still completes (and still peaks the queue).
    th.tx(&lock).run(bump);
    assert_eq!(sys.controller_step(), 1);
    assert_eq!(lock.admission_step(), AdmissionStep::Shed);

    // Shed refuses fallible sections at dispatch, effect-free and counted.
    let res = th.tx(&lock).try_run(bump);
    assert!(
        matches!(res, Err(TxError::Overloaded)),
        "shed step produced {res:?}"
    );
    assert_eq!(cell.load_direct(), 2);
    assert_eq!(sys.stats.get(Stat::Sheds), 1);
    // Infallible sections cannot observe errors; Shed serializes them.
    th.tx(&lock).run(bump);
    assert_eq!(cell.load_direct(), 3);

    // Recovery: the refused + serialized sections above peaked the queue
    // once more, so the first quiet step holds; the next two walk back.
    assert_eq!(sys.controller_step(), 0);
    assert_eq!(lock.admission_step(), AdmissionStep::Shed);
    assert_eq!(sys.controller_step(), 1);
    assert_eq!(lock.admission_step(), AdmissionStep::Serialize);
    assert_eq!(sys.controller_step(), 1);
    assert_eq!(lock.admission_step(), AdmissionStep::Elide);
    assert!(th.tx(&lock).try_run(bump).is_ok());
    assert_eq!(cell.load_direct(), 4);

    // The ladder recovered, but the high-water mark records the excursion.
    assert_eq!(lock.admission_high_water(), AdmissionStep::Shed);
    assert_eq!(sys.stats.snapshot().deadline_exceeded, 0);
}

/// Without admission control configured, the ladder never engages — the
/// fallible API is infallible in practice on an idle lock.
#[test]
fn admission_off_never_sheds() {
    let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
    assert!(!sys.admission_enabled());
    let lock = ElidableMutex::new("no-admission");
    sys.adopt_lock(&lock); // no-op: neither controller configured
    let th = sys.register();
    for _ in 0..50 {
        assert!(th.tx(&lock).try_run(|_| Ok(())).is_ok());
    }
    assert_eq!(sys.controller_step(), 0);
    assert_eq!(lock.admission_step(), AdmissionStep::Elide);
    assert_eq!(sys.stats.get(Stat::Sheds), 0);
}

/// The observability contract downstream tools rely on: trace kinds 16/17
/// and their labels are wire format for `tle trace` dumps, and the ladder
/// steps' labels appear in reports. Pinned so a renumbering shows up here
/// and not in a consumer.
#[test]
fn degradation_trace_kinds_and_labels_are_pinned() {
    assert_eq!(TraceKind::DeadlineExceeded as u8, 16);
    assert_eq!(TraceKind::Shed as u8, 17);
    assert_eq!(TraceKind::DeadlineExceeded.label(), "deadline-exceeded");
    assert_eq!(TraceKind::Shed.label(), "shed");
    assert_eq!(TraceKind::ALL.len(), 18);

    assert_eq!(AdmissionStep::Elide.label(), "elide");
    assert_eq!(AdmissionStep::Serialize.label(), "serialize");
    assert_eq!(AdmissionStep::Shed.label(), "shed");
    assert_eq!(
        AdmissionStep::ALL,
        [
            AdmissionStep::Elide,
            AdmissionStep::Serialize,
            AdmissionStep::Shed
        ]
    );
}
