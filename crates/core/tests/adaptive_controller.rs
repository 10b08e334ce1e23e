//! Controller-level integration tests for the per-lock adaptive policy:
//! hysteresis (no flapping), decision determinism, the `*NoQuiesce`
//! opt-in contract, counter exactness under continuous mode flips, and
//! condvar waits that span a flip.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;
use tle_base::exec::Exec;
use tle_base::TCell;
use tle_core::{
    decide, AdaptiveConfig, AlgoMode, ElidableMutex, SwitchReason, TmSystem, TxCondvar, TxCtx,
    TxError,
};

fn adaptive_sys(cfg: AdaptiveConfig) -> Arc<TmSystem> {
    Arc::new(
        TmSystem::builder()
            .mode(AlgoMode::HtmCondvar)
            .adaptive(true)
            .adaptive_config(cfg)
            .build(),
    )
}

/// An oscillating synthetic window (storm evidence one step, clean the
/// next) must not flap the lock: every pair of consecutive switches is
/// separated by at least `min_dwell_steps` controller steps.
#[test]
fn oscillating_window_does_not_flap() {
    let cfg = AdaptiveConfig {
        min_dwell_steps: 4,
        min_window_samples: 8,
        ..AdaptiveConfig::default()
    };
    let sys = adaptive_sys(cfg);
    let lock = ElidableMutex::new("flapper");
    sys.adopt_lock(&lock);

    for step in 0..64 {
        if step % 2 == 0 {
            // Pure conflict storm: would demote immediately if trusted.
            lock.synthesize_window(1, 40, 0, 10);
        } else {
            // Spotless: would promote immediately if trusted.
            lock.synthesize_window(50, 0, 0, 0);
        }
        sys.controller_step();
    }

    let switches = sys.mode_switches();
    assert!(
        !switches.is_empty(),
        "the storm evidence should move the lock at least once"
    );
    for pair in switches.windows(2) {
        let gap = pair[1].step - pair[0].step;
        assert!(
            gap >= 4,
            "flap: switches {} and {} only {gap} steps apart",
            pair[0],
            pair[1]
        );
    }
}

/// Identical step/window schedules produce identical switch sequences —
/// the decision path contains no hidden nondeterminism (no wall clock, no
/// RNG).
#[test]
fn identical_schedules_decide_identically() {
    let run = || {
        let cfg = AdaptiveConfig {
            min_dwell_steps: 2,
            min_window_samples: 8,
            baseline_probe_steps: 6,
            ..AdaptiveConfig::default()
        };
        let sys = adaptive_sys(cfg);
        let lock = ElidableMutex::new("replay");
        sys.adopt_lock(&lock);
        // Capacity storm, then conflict storm, then quiet: walks the lock
        // HTM -> STM -> Baseline -> (probe) HTM.
        for step in 0..40 {
            match step {
                0..=9 => lock.synthesize_window(2, 1, 30, 4),
                10..=19 => lock.synthesize_window(2, 30, 0, 6),
                _ => lock.synthesize_window(40, 0, 0, 0),
            }
            sys.controller_step();
        }
        sys.mode_switches()
            .into_iter()
            .map(|e| format!("{e}"))
            .collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
    assert!(!a.is_empty());
}

/// `decide` never targets a `*NoQuiesce` (or `AdaptiveHtm`) mode, for any
/// mode/window combination: skipping the privatization drain is an
/// application contract, not a performance inference.
#[test]
fn decide_never_targets_no_quiesce() {
    let cfg = AdaptiveConfig {
        min_dwell_steps: 0,
        min_window_samples: 0,
        ..AdaptiveConfig::default()
    };
    let mut grid = Vec::new();
    for commits in [0u64, 1, 10, 100] {
        for conflict in [0u64, 1, 50] {
            for capacity in [0u64, 1, 50] {
                for serial in [0u64, 1, 50] {
                    grid.push(tle_base::WindowSnapshot {
                        commits,
                        conflict_aborts: conflict,
                        capacity_aborts: capacity,
                        other_aborts: 0,
                        serial,
                        quiesce_ns: 0,
                    });
                }
            }
        }
    }
    let reasons = [
        None,
        Some(SwitchReason::Capacity),
        Some(SwitchReason::ConflictStorm),
        Some(SwitchReason::Promotion),
        Some(SwitchReason::Probe),
        Some(SwitchReason::Manual),
    ];
    for mode in tle_core::ALL_MODES {
        for snap in &grid {
            for dwell in [0u32, 10, 1000] {
                for last in reasons {
                    if let Some((to, _)) = decide(mode, snap, dwell, last, &cfg) {
                        assert_ne!(to, AlgoMode::StmCondvarNoQuiesce, "from {mode:?} {snap:?}");
                        assert_ne!(to, AlgoMode::AdaptiveHtm, "from {mode:?} {snap:?}");
                    }
                }
            }
        }
    }
    // And the controller never *leaves* an opted-in NoQuiesce lock: the
    // opt-in is a correctness contract in both directions.
    for snap in &grid {
        assert_eq!(
            decide(AlgoMode::StmCondvarNoQuiesce, snap, 1000, None, &cfg),
            None
        );
    }
}

/// A lock is never observed in NoQuiesce mode unless the application
/// opted it in, even while the controller is actively flipping it.
#[test]
fn no_quiesce_requires_per_lock_opt_in() {
    let sys = adaptive_sys(AdaptiveConfig {
        min_dwell_steps: 1,
        min_window_samples: 1,
        baseline_probe_steps: 1,
        ..AdaptiveConfig::default()
    });
    let lock = ElidableMutex::new("contract");
    sys.adopt_lock(&lock);
    for step in 0..50 {
        lock.synthesize_window(
            if step % 3 == 0 { 50 } else { 1 },
            if step % 3 == 1 { 50 } else { 0 },
            if step % 3 == 2 { 50 } else { 0 },
            3,
        );
        sys.controller_step();
        assert_ne!(
            lock.resolved_mode(sys.mode()),
            AlgoMode::StmCondvarNoQuiesce,
            "controller set NoQuiesce at {step}"
        );
    }
    for ev in sys.mode_switches() {
        assert_ne!(ev.to, AlgoMode::StmCondvarNoQuiesce, "{ev}");
    }
    // Opt-in (and only opt-in) turns it on: a manual pin.
    sys.set_lock_mode(&lock, AlgoMode::StmCondvarNoQuiesce);
    assert_eq!(
        lock.resolved_mode(sys.mode()),
        AlgoMode::StmCondvarNoQuiesce
    );
}

/// Worker threads hammer one counter while the main thread flips the
/// lock's mode through every controller-eligible target; the count must
/// come out exact (the mode-flip total-exclusion protocol loses nothing).
#[test]
fn counter_exact_under_continuous_flips() {
    const WORKERS: usize = 3;
    const OPS: u64 = 2_000;
    let sys = Arc::new(
        TmSystem::builder()
            .mode(AlgoMode::HtmCondvar)
            .adaptive(true)
            .build(),
    );
    let lock = ElidableMutex::new("flip-counter");
    sys.adopt_lock(&lock);
    let counter = Arc::new(TCell::new(0u64));
    let stop = Arc::new(AtomicBool::new(false));

    let flipper = {
        let sys = Arc::clone(&sys);
        let lock = lock.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let targets = [
                AlgoMode::Baseline,
                AlgoMode::StmSpin,
                AlgoMode::StmCondvar,
                AlgoMode::HtmCondvar,
                AlgoMode::AdaptiveHtm,
            ];
            let mut i = 0;
            while !stop.load(Ordering::SeqCst) {
                sys.set_lock_mode(&lock, targets[i % targets.len()]);
                i += 1;
                std::thread::yield_now();
            }
            sys.clear_lock_mode(&lock);
        })
    };

    let workers: Vec<_> = (0..WORKERS)
        .map(|_| {
            let sys = Arc::clone(&sys);
            let lock = lock.clone();
            let counter = Arc::clone(&counter);
            std::thread::spawn(move || {
                let th = sys.register();
                for _ in 0..OPS {
                    th.tx(&lock).run(|ctx| {
                        let v = ctx.read(&*counter)?;
                        ctx.write(&*counter, v + 1)?;
                        Ok(())
                    });
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::SeqCst);
    flipper.join().unwrap();

    assert_eq!(counter.load_direct(), WORKERS as u64 * OPS);
    assert!(
        lock.switches() > 0,
        "the flipper should have actually flipped"
    );
}

#[derive(Clone, Copy, Debug)]
enum Drive {
    Sync,
    Async,
}

/// One section over the flag: the signaller sets it and signals, the waiter
/// waits until it is set.
fn flag_section(
    drive: Drive,
    sys: &Arc<TmSystem>,
    lock: &ElidableMutex,
    cv: &TxCondvar,
    flag: &TCell<u64>,
    set: bool,
) -> u64 {
    fn body<'a>(
        cv: &'a TxCondvar,
        flag: &'a TCell<u64>,
        set: bool,
    ) -> impl FnMut(&mut TxCtx<'a>) -> Result<u64, TxError> {
        move |ctx| {
            if set {
                ctx.write(flag, 1)?;
                return ctx.signal(cv).map(|()| 1);
            }
            if ctx.read(flag)? == 0 {
                return ctx.wait(cv, None).map(|()| 0);
            }
            Ok(2)
        }
    }
    let th = sys.register();
    match drive {
        Drive::Sync => th.tx(lock).run(body(cv, flag, set)),
        Drive::Async => Exec::new(1).block_on(th.tx(lock).run_async(body(cv, flag, set))),
    }
}

/// A waiter parks while its lock runs one mode, `flip` moves the lock to
/// another, and a signaller running that one must wake it: every mode
/// registers on the one ring every mode's signaller services. Both sides
/// run through `drive`.
fn wait_spans_flip(
    drive: Drive,
    global: AlgoMode,
    pin: Option<AlgoMode>,
    flip: fn(&TmSystem, &ElidableMutex),
) {
    let sys = Arc::new(TmSystem::new(global));
    let lock = ElidableMutex::new("flip-wait");
    if let Some(mode) = pin {
        sys.set_lock_mode(&lock, mode);
    }
    let parked_under = lock.resolved_mode(sys.mode());
    let cv = Arc::new(TxCondvar::new());
    let flag = Arc::new(TCell::new(0u64));
    let (done_tx, done) = mpsc::channel();
    let waiter = {
        let (sys, lock, cv, flag) = (
            Arc::clone(&sys),
            lock.clone(),
            Arc::clone(&cv),
            Arc::clone(&flag),
        );
        std::thread::spawn(move || {
            let got = flag_section(drive, &sys, &lock, &cv, &flag, false);
            done_tx.send(got).unwrap();
        })
    };
    // The registration has committed: the waiter is parked, or about to.
    while cv.approx_len() == 0 {
        std::thread::yield_now();
    }
    flip(&sys, &lock);
    let signalled_under = lock.resolved_mode(sys.mode());
    assert_ne!(parked_under, signalled_under, "the lock did not flip");
    assert_eq!(flag_section(drive, &sys, &lock, &cv, &flag, true), 1);
    let got = done
        .recv_timeout(Duration::from_secs(10))
        .unwrap_or_else(|_| {
            panic!(
                "{drive:?}: a waiter parked under {parked_under:?} slept through \
             a {signalled_under:?} signal"
            )
        });
    assert_eq!(got, 2);
    waiter.join().unwrap();
    assert_eq!(cv.approx_len(), 0, "the signal left the ring entry behind");
}

#[test]
fn wait_spans_a_mode_flip() {
    for drive in [Drive::Sync, Drive::Async] {
        wait_spans_flip(drive, AlgoMode::Baseline, None, |sys, lock| {
            sys.set_lock_mode(lock, AlgoMode::StmCondvar)
        });
        wait_spans_flip(
            drive,
            AlgoMode::Baseline,
            Some(AlgoMode::HtmCondvar),
            |sys, lock| sys.clear_lock_mode(lock),
        );
    }
}
