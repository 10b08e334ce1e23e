//! Recovery-path regression tests driven by the fault-injection oracle:
//! the starvation-escalation ladder, the quiescence watchdog, and panic
//! safety of the serial gate and the elidable lock.
//!
//! The oracle is process-global, so every test that installs a plan holds
//! the `GUARD` mutex (integration tests in one binary run concurrently).

use std::sync::{Arc, Mutex, MutexGuard};
use tle_base::exec::Exec;
use tle_base::fault::{self, FaultPlan, FaultRule, Hazard};
use tle_base::trace::TraceKind;
use tle_base::{AbortCause, TCell};
use tle_core::{AlgoMode, ElidableMutex, TlePolicy, TmSystem, TxError};
use tle_htm::HtmConfig;

fn guard() -> MutexGuard<'static, ()> {
    static M: Mutex<()> = Mutex::new(());
    M.lock().unwrap_or_else(|e| e.into_inner())
}

/// The robustness trace kinds stay pinned, and each injected abort class
/// surfaces as exactly its mapped cause. (The STM-kernel and HTM-knob
/// thirds of the abort-cause taxonomy check live in `tle-bench`'s
/// `workloads` unit tests; this third installs a plan, so it runs here
/// under `guard()` where no neighbour can take a delivery.)
#[test]
fn injected_abort_classes_surface_as_their_mapped_cause() {
    let _g = guard();
    assert_eq!(TraceKind::FaultInject as u8, 12);
    assert_eq!(TraceKind::Escalate as u8, 13);
    assert_eq!(TraceKind::QuiesceStall as u8, 14);
    assert_eq!(TraceKind::FaultInject.label(), "fault-inject");
    assert_eq!(TraceKind::Escalate.label(), "escalate");
    assert_eq!(TraceKind::QuiesceStall.label(), "quiesce-stall");
    for h in Hazard::ALL {
        if let Some(c) = h.cause() {
            assert!(
                matches!(
                    c,
                    AbortCause::Event | AbortCause::Capacity | AbortCause::Conflict
                ),
                "injected {h:?} must map into the existing taxonomy"
            );
        }
    }
    // One delivery of each abort-class hazard on this thread's lane.
    fault::install(
        FaultPlan::new(0xFA17)
            .rule(FaultRule::new(Hazard::HtmEvent, 1).limit(1))
            .rule(FaultRule::new(Hazard::HtmCapacity, 1).limit(1))
            .rule(FaultRule::new(Hazard::HtmConflict, 1).limit(1)),
    );
    fault::set_lane(0);
    let sys = Arc::new(
        TmSystem::builder()
            .mode(AlgoMode::HtmCondvar)
            .htm_config(HtmConfig {
                event_prob: 0.0, // injected Events only — keeps counts exact
                ..HtmConfig::default()
            })
            .build(),
    );
    let lock = ElidableMutex::new("fault-pins");
    let cell = TCell::new(0u64);
    let th = sys.register();
    for _ in 0..4 {
        th.tx(&lock).run(|ctx| {
            let v = ctx.read(&cell)?;
            ctx.write(&cell, v + 1)?;
            Ok(())
        });
    }
    let snap = fault::snapshot();
    fault::clear();
    assert_eq!(cell.load_direct(), 4, "faulted sections must all commit");
    let htm = sys.htm.stats.snapshot();
    for (hazard, cause) in [
        (Hazard::HtmEvent, AbortCause::Event),
        (Hazard::HtmCapacity, AbortCause::Capacity),
        (Hazard::HtmConflict, AbortCause::Conflict),
    ] {
        assert_eq!(snap.fired(hazard), 1, "{hazard:?} should fire exactly once");
        assert!(
            htm.cause(cause) >= 1,
            "injected {hazard:?} not counted as {cause}: {:?}",
            htm.by_cause
        );
    }
}

#[test]
fn escalation_ladder_grants_serial_slot_under_forced_abort_storm() {
    let _g = guard();
    // Every HTM access aborts with a forced conflict, on every attempt of
    // every tick — without the ladder this livelocks once the per-section
    // retry budget is made large.
    fault::install(
        FaultPlan::new(0xA11CE).rule(FaultRule::new(Hazard::HtmConflict, 1).per_tick(u32::MAX)),
    );
    let policy = TlePolicy {
        htm_retries: 1_000, // the ladder, not the budget, must serialize us
        escalation_bound: 4,
        ..TlePolicy::default()
    };
    let sys = Arc::new(
        TmSystem::builder()
            .mode(AlgoMode::HtmCondvar)
            .policy(policy)
            .build(),
    );
    let lock = ElidableMutex::new("storm");
    let cell = TCell::new(0u64);
    let th = sys.register();
    const SECTIONS: u64 = 3;
    for _ in 0..SECTIONS {
        th.tx(&lock).run(|ctx| {
            let v = ctx.read(&cell)?;
            ctx.write(&cell, v + 1)?;
            Ok(())
        });
    }
    fault::clear();
    assert_eq!(cell.load_direct(), SECTIONS, "every section must complete");
    let snap = sys.stats.snapshot();
    assert!(
        snap.escalations >= SECTIONS,
        "each stormed section should escalate exactly once (got {})",
        snap.escalations
    );
    assert_eq!(
        th.consecutive_aborts(),
        0,
        "escalation consumes the consecutive-abort count"
    );
    // With the plan cleared the same section commits concurrently again.
    th.tx(&lock).run(|ctx| {
        let v = ctx.read(&cell)?;
        ctx.write(&cell, v + 1)?;
        Ok(())
    });
    assert_eq!(cell.load_direct(), SECTIONS + 1);
}

#[test]
fn quiesce_watchdog_trips_on_injected_stall_then_drains() {
    let _g = guard();
    let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
    let lock = ElidableMutex::new("drain");
    let cell = TCell::new(0u64);
    // Any slow-path drain now exceeds the deadline immediately; the
    // injected stall forces the slow path even with no concurrent readers.
    sys.stm.set_quiesce_deadline_ns(1);
    fault::install(
        FaultPlan::new(0xD06).rule(FaultRule::new(Hazard::QuiesceDelay, 1).stall(50_000)),
    );
    let th = sys.register();
    th.tx(&lock).run(|ctx| {
        let v = ctx.read(&cell)?;
        ctx.write(&cell, v + 1)?;
        Ok(())
    });
    fault::clear();
    let snap = sys.stm.stats.snapshot();
    assert!(
        snap.watchdog_trips >= 1,
        "the stalled drain must trip the watchdog (got {})",
        snap.watchdog_trips
    );
    assert_eq!(cell.load_direct(), 1, "the drain completed after the stall");
    // Back to the silent fast path once injection is off.
    let before = sys.stm.stats.snapshot().watchdog_trips;
    th.tx(&lock).run(|ctx| {
        let v = ctx.read(&cell)?;
        ctx.write(&cell, v + 1)?;
        Ok(())
    });
    assert_eq!(sys.stm.stats.snapshot().watchdog_trips, before);
}

/// The async twin of the case above: `run_async` polls its post-commit
/// drain through the same `QuiesceTicket::pass` the sync commit spins, so
/// the fault plane reaches it too (it did not while the injection lived in
/// a sync-only drain loop: 0 deliveries, no trip).
#[test]
fn async_quiesce_watchdog_trips_on_injected_stall_then_drains() {
    let _g = guard();
    let exec = Exec::new(1);
    let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
    let lock = ElidableMutex::new("adrain");
    let cell = TCell::new(0u64);
    sys.stm.set_quiesce_deadline_ns(1);
    fault::install(
        FaultPlan::new(0xD06).rule(FaultRule::new(Hazard::QuiesceDelay, 1).stall(50_000)),
    );
    let th = sys.register();
    let increment = || {
        // `block_on` polls on this thread: one lane, one tick per section.
        exec.block_on(th.tx(&lock).run_async(|ctx| {
            let v = ctx.read(&cell)?;
            ctx.write(&cell, v + 1)?;
            Ok(())
        }))
    };
    increment();
    let fired = fault::snapshot().fired(Hazard::QuiesceDelay);
    fault::clear();
    assert!(fired >= 1, "the async drain must consult the fault plane");
    let snap = sys.stm.stats.snapshot();
    assert!(
        snap.watchdog_trips >= 1,
        "the stalled async drain must trip the watchdog (got {})",
        snap.watchdog_trips
    );
    assert_eq!(snap.quiesces, 1);
    assert!(snap.quiesce_wait_ns > 0, "the stall counts as drain time");
    assert_eq!(cell.load_direct(), 1, "the drain completed after the stall");
    // Back to the silent fast path once injection is off.
    increment();
    assert_eq!(sys.stm.stats.snapshot().watchdog_trips, snap.watchdog_trips);
}

#[test]
fn panic_in_elided_section_poisons_lock_but_not_the_system() {
    let _g = guard();
    for mode in [AlgoMode::StmCondvar, AlgoMode::HtmCondvar] {
        let sys = Arc::new(TmSystem::new(mode));
        let lock = Arc::new(ElidableMutex::new("poison"));
        let cell = Arc::new(TCell::new(7u64));
        let panicker = {
            let sys = Arc::clone(&sys);
            let lock = Arc::clone(&lock);
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                let th = sys.register();
                th.tx(&lock).run(|ctx| -> Result<(), TxError> {
                    // Speculative write, then die mid-section: the undo
                    // log must roll this back while unwinding.
                    ctx.write(&cell, 99)?;
                    panic!("injected panic inside the critical section");
                });
            })
        };
        assert!(panicker.join().is_err(), "the panic must propagate");
        assert!(lock.is_poisoned(), "[{mode:?}] panic must poison the lock");
        assert_eq!(
            cell.load_direct(),
            7,
            "[{mode:?}] the speculative write must be rolled back"
        );
        // The runtime stays fully usable for other threads.
        let th = sys.register();
        th.tx(&lock).run(|ctx| {
            let v = ctx.read(&*cell)?;
            ctx.write(&*cell, v + 1)?;
            Ok(())
        });
        assert_eq!(cell.load_direct(), 8);
        lock.clear_poison();
        assert!(!lock.is_poisoned());
    }
}

#[test]
fn serial_gate_reopens_after_panic() {
    let _g = guard();
    // A zero retry budget goes straight to the serial gate.
    let sys = Arc::new(
        TmSystem::builder()
            .mode(AlgoMode::StmCondvar)
            .policy(TlePolicy {
                stm_retries: 0,
                ..TlePolicy::default()
            })
            .build(),
    );
    let lock = Arc::new(ElidableMutex::new("gate"));
    let panicker = {
        let sys = Arc::clone(&sys);
        let lock = Arc::clone(&lock);
        std::thread::spawn(move || {
            let th = sys.register();
            // The panic unwinds while the gate token is live.
            th.tx(&lock).run(|_ctx| -> Result<(), TxError> {
                panic!("injected panic in serial-irrevocable mode");
            });
        })
    };
    assert!(panicker.join().is_err());
    // If the token leaked the gate bit, both of these would deadlock.
    let cell = TCell::new(0u64);
    let th = sys.register();
    for _ in 0..2 {
        th.tx(&lock).run(|ctx| {
            let v = ctx.read(&cell)?;
            ctx.write(&cell, v + 1)?;
            Ok(())
        });
    }
    assert_eq!(cell.load_direct(), 2);
    assert!(lock.is_poisoned());
}

#[test]
fn condvar_hooks_absorb_signal_delay_and_spurious_wakes() {
    let _g = guard();
    fault::install(
        FaultPlan::new(0xCAFE)
            .rule(FaultRule::new(Hazard::SignalDelay, 1).stall(10_000))
            .rule(FaultRule::new(Hazard::SpuriousWake, 1)),
    );
    // The hooks live on the waiter's private channel, exercised here
    // directly (the full producer/consumer path is torture-harness work).
    let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
    let lock = Arc::new(ElidableMutex::new("cv"));
    let cv = Arc::new(tle_core::TxCondvar::new());
    let ready = Arc::new(TCell::new(false));
    let consumer = {
        let sys = Arc::clone(&sys);
        let lock = Arc::clone(&lock);
        let cv = Arc::clone(&cv);
        let ready = Arc::clone(&ready);
        std::thread::spawn(move || {
            let th = sys.register();
            th.tx(&lock).run(|ctx| {
                if !ctx.read(&*ready)? {
                    return ctx.wait(&cv, None);
                }
                Ok(())
            });
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(20));
    let th = sys.register();
    th.tx(&lock).run(|ctx| {
        ctx.write(&*ready, true)?;
        ctx.signal(&cv)?;
        Ok(())
    });
    consumer
        .join()
        .expect("the delayed signal must still wake the consumer");
    fault::clear();
}
