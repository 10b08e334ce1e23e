//! Driver parity: the sync and the async terminals run the same state
//! machine.
//!
//! `tle-core` has one attempt/decide core (`runner::Ladder`) and two thin
//! drivers that differ only at the wait edges DESIGN.md §16 tabulates. This
//! suite states that as an executable property: a table of scripted
//! sections × every [`AlgoMode`], each run on a fresh system through
//! `tx().run` / `try_run` and through `run_async` / `try_run_async`
//! (polled by `Exec::block_on` on the calling thread), must produce equal
//! results and equal counter deltas — commits, aborts per cause, serial
//! fallbacks, escalations, deadline expiries, sheds, on the runner's, the
//! STM's and the HTM's statistics — and, with `--features trace`, equal
//! [`TraceKind`] sequences on the section's thread.
//!
//! Two edges are *meant* to differ and are left out of the comparison, each
//! where it applies: a sync baseline section waits on the native condvar
//! and so never parks on (or cancels) a ring entry, which shows in the
//! trace of the baseline wait scenarios only; and `StmSpin` waits by
//! polling, so how many times a waiting section re-runs before the signal
//! lands is a matter of timing.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tle_repro::base::exec::Exec;
use tle_repro::base::stats::{Stat, TxStatsSnapshot};
use tle_repro::base::trace::{self, TraceKind, TxMode};
use tle_repro::core::TxRequest;
use tle_repro::htm::HtmConfig;
use tle_repro::prelude::*;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Drive {
    Sync,
    Async,
}

fn modes() -> Vec<AlgoMode> {
    let mut modes = ALL_MODES.to_vec();
    modes.extend([AlgoMode::AdaptiveHtm, AlgoMode::AdaptiveHtmLazy]);
    // The naive lazy variant is compiled out of release builds.
    #[cfg(debug_assertions)]
    modes.push(AlgoMode::AdaptiveHtmLazyUnsafe);
    modes
}

/// The modes whose sections the global serial gate supervises (the only
/// ones the admission ladder applies to).
fn gate_modes() -> Vec<AlgoMode> {
    modes()
        .into_iter()
        .filter(|m| m.is_transactional() && !m.is_glibc_family())
        .collect()
}

/// A fresh system with everything a scripted section touches.
struct Rig {
    sys: Arc<TmSystem>,
    lock: ElidableMutex,
    cell: TCell<u64>,
    flag: TCell<u64>,
    cv: TxCondvar,
}

fn rig(mode: AlgoMode, admission: Option<AdmissionConfig>) -> Rig {
    let mut builder = TmSystem::builder().mode(mode).htm_config(HtmConfig {
        // Simulated asynchronous events are seeded per slot, and the async
        // driver runs on claimed slots: keep the hardware quiet.
        event_prob: 0.0,
        ..HtmConfig::default()
    });
    if let Some(cfg) = admission {
        builder = builder.admission_config(cfg);
    }
    let rig = Rig {
        sys: Arc::new(builder.build()),
        lock: ElidableMutex::new("parity"),
        cell: TCell::new(0),
        flag: TCell::new(0),
        cv: TxCondvar::new(),
    };
    rig.sys.adopt_lock(&rig.lock);
    rig
}

/// The timing-free part of a statistics snapshot: commits, aborts, aborts
/// per cause, then serial fallbacks, quiesces, skipped quiesces,
/// escalations, deadline expiries, sheds.
type Counts = Vec<u64>;

fn counts(s: TxStatsSnapshot) -> Counts {
    let mut counts = vec![s.commits, s.aborts];
    counts.extend(s.by_cause);
    counts.extend([
        s.serial_fallbacks,
        s.quiesces,
        s.quiesce_skipped,
        s.escalations,
        s.deadline_exceeded,
        s.sheds,
    ]);
    counts
}

/// The runner's, the STM's and the HTM's counters.
fn snapshot(sys: &TmSystem) -> [Counts; 3] {
    [
        counts(sys.stats.snapshot()),
        counts(sys.stm.stats.snapshot()),
        counts(sys.htm.stats.snapshot()),
    ]
}

/// What one scripted section let an observer see.
#[derive(Debug, PartialEq)]
struct Observed {
    result: String,
    /// Counter deltas of the runner, the STM and the HTM.
    counters: Vec<Counts>,
    /// Event kinds the section's thread emitted (empty without the `trace`
    /// feature).
    trace: Vec<TraceKind>,
}

/// Plant a marker in this thread's trace ring: `(thread, timestamp)`.
fn trace_mark() -> Option<(u32, u64)> {
    static MAGIC: AtomicU64 = AtomicU64::new(0xFEED_0000_0000);
    if !trace::compiled() {
        return None;
    }
    let magic = MAGIC.fetch_add(1, Ordering::Relaxed);
    trace::emit(TraceKind::Begin, TxMode::Locked, None, magic);
    let mark = trace::snapshot()
        .into_iter()
        .find(|e| e.detail == magic && e.mode == TxMode::Locked)
        .expect("the marker was just emitted");
    Some((mark.thread, mark.ts))
}

fn trace_since(mark: Option<(u32, u64)>) -> Vec<TraceKind> {
    let Some((thread, ts)) = mark else {
        return Vec::new();
    };
    trace::snapshot()
        .into_iter()
        .filter(|e| e.thread == thread && e.ts > ts)
        .map(|e| e.kind)
        .collect()
}

fn observe<T: std::fmt::Debug>(rig: &Rig, section: impl FnOnce() -> T) -> Observed {
    let before = snapshot(&rig.sys);
    let mark = trace_mark();
    let result = format!("{:?}", section());
    let trace = trace_since(mark);
    let after = snapshot(&rig.sys);
    let counters = after
        .iter()
        .zip(&before)
        .map(|(after, before)| after.iter().zip(before).map(|(a, b)| a - b).collect())
        .collect();
    Observed {
        result,
        counters,
        trace,
    }
}

fn run<'a, R>(
    drive: Drive,
    req: TxRequest<'a>,
    body: impl FnMut(&mut TxCtx<'a>) -> Result<R, TxError>,
) -> R {
    match drive {
        Drive::Sync => req.run(body),
        Drive::Async => Exec::new(1).block_on(req.run_async(body)),
    }
}

fn try_run<'a, R>(
    drive: Drive,
    req: TxRequest<'a>,
    body: impl FnMut(&mut TxCtx<'a>) -> Result<R, TxError>,
) -> Result<R, TxError> {
    match drive {
        Drive::Sync => req.try_run(body),
        Drive::Async => Exec::new(1).block_on(req.try_run_async(body)),
    }
}

/// Run `scenario` under both drivers for every mode and demand equality
/// (of everything, or of everything but the trace where `same_trace` says
/// the drivers legitimately differ).
fn assert_parity(
    name: &str,
    modes: Vec<AlgoMode>,
    same_trace: impl Fn(AlgoMode) -> bool,
    scenario: impl Fn(AlgoMode, Drive) -> Observed,
) {
    let mut traced = false;
    for mode in modes {
        let mut sync = scenario(mode, Drive::Sync);
        let mut asynch = scenario(mode, Drive::Async);
        traced |= !sync.trace.is_empty();
        if !same_trace(mode) {
            sync.trace.clear();
            asynch.trace.clear();
        }
        assert_eq!(
            sync, asynch,
            "{name} under {mode:?}: sync (left) and async (right) disagree"
        );
    }
    // The trace comparison must not pass vacuously when it is compiled in.
    assert_eq!(traced, trace::compiled(), "{name}: no section left a trace");
}

#[test]
fn plain_commit() {
    assert_parity(
        "plain commit",
        modes(),
        |_| true,
        |mode, drive| {
            let rig = rig(mode, None);
            let th = rig.sys.register();
            observe(&rig, || {
                run(drive, th.tx(&rig.lock), |ctx| {
                    ctx.update(&rig.cell, |v| v + 1)
                })
            })
        },
    );
}

#[test]
fn explicit_aborts_then_commit() {
    assert_parity(
        "3 aborts then commit",
        modes(),
        |_| true,
        |mode, drive| {
            let rig = rig(mode, None);
            let th = rig.sys.register();
            let mut cancels = 0;
            // Room for the aborts under every engine's retry budget: cancelling
            // in serial-irrevocable mode is a usage error.
            let hints = TxHints::new().with_htm_retries(8).with_stm_retries(8);
            let seen = observe(&rig, || {
                run(drive, th.tx(&rig.lock).hints(hints), |ctx| {
                    ctx.update(&rig.cell, |v| v + 1)?;
                    if ctx.is_transactional() && cancels < 3 {
                        cancels += 1;
                        return Err(ctx.cancel());
                    }
                    ctx.read(&rig.cell)
                })
            });
            assert_eq!(rig.cell.load_direct(), 1, "aborted increments leaked");
            seen
        },
    );
}

#[test]
fn unsafe_op_takes_the_exclusive_path() {
    assert_parity(
        "unsafe_op",
        modes(),
        |_| true,
        |mode, drive| {
            let rig = rig(mode, None);
            let th = rig.sys.register();
            observe(&rig, || {
                run(drive, th.tx(&rig.lock), |ctx| {
                    ctx.unsafe_op()?;
                    ctx.update(&rig.cell, |v| v + 1)
                })
            })
        },
    );
}

#[test]
fn wait_then_signal() {
    // `StmSpin` waits by polling: how often the waiter re-runs before the
    // signal lands is timing, not state machine.
    let modes: Vec<_> = modes()
        .into_iter()
        .filter(|&m| m != AlgoMode::StmSpin)
        .collect();
    // The sync baseline waiter parks on the native condvar, the async one
    // on a ring entry: the one edge where the traces are meant to differ.
    let same_trace = |mode| mode != AlgoMode::Baseline;
    assert_parity("wait then signal", modes, same_trace, |mode, drive| {
        let rig = rig(mode, None);
        let th = rig.sys.register();
        let entered = AtomicBool::new(false);
        let commits = |sys: &TmSystem| match mode {
            AlgoMode::Baseline => 0,
            m if m.is_glibc_family() || m == AlgoMode::HtmCondvar => {
                sys.htm.stats.get(Stat::Commits)
            }
            _ => sys.stm.stats.get(Stat::Commits),
        };
        let before = commits(&rig.sys);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Signal exactly once, and only after the waiter's
                // registration has committed (under the baseline mutex:
                // after the waiter entered — the signalling section then
                // queues on the mutex until the waiter releases it to wait).
                let th = rig.sys.register();
                while !entered.load(Ordering::SeqCst)
                    || commits(&rig.sys) != before + (mode != AlgoMode::Baseline) as u64
                {
                    std::thread::yield_now();
                }
                th.tx(&rig.lock).run(|ctx| {
                    ctx.write(&rig.flag, 1)?;
                    ctx.signal(&rig.cv)
                });
            });
            observe(&rig, || {
                run(drive, th.tx(&rig.lock), |ctx| {
                    if ctx.read(&rig.flag)? == 0 {
                        entered.store(true, Ordering::SeqCst);
                        return ctx.wait(&rig.cv, None).map(|()| 0);
                    }
                    ctx.update(&rig.cell, |v| v + 7)
                })
            })
        })
    });
}

#[test]
fn timed_wait_expires() {
    let same_trace = |mode| mode != AlgoMode::Baseline;
    assert_parity("timed wait expires", modes(), same_trace, |mode, drive| {
        let rig = rig(mode, None);
        let th = rig.sys.register();
        let mut waited = false;
        observe(&rig, || {
            run(drive, th.tx(&rig.lock), |ctx| {
                if !waited {
                    waited = true;
                    let nap = Some(Duration::from_millis(5));
                    return ctx.wait(&rig.cv, nap).map(|()| 0);
                }
                ctx.update(&rig.cell, |v| v + 1)
            })
        })
    });
}

#[test]
fn closure_raised_deadline_under_try_run() {
    // Raising a runner-level error with an exclusion held is a usage error
    // (it panics): scripted for the speculative engines only.
    let modes: Vec<_> = modes()
        .into_iter()
        .filter(|m| m.is_transactional())
        .collect();
    assert_parity(
        "closure-raised deadline",
        modes,
        |_| true,
        |mode, drive| {
            let rig = rig(mode, None);
            let th = rig.sys.register();
            let seen = observe(&rig, || {
                try_run(drive, th.tx(&rig.lock), |ctx| {
                    ctx.update(&rig.cell, |v| v + 1)?;
                    Err::<u64, _>(TxError::DeadlineExceeded)
                })
            });
            assert!(seen.result.contains("DeadlineExceeded"), "{seen:?}");
            assert_eq!(rig.cell.load_direct(), 0, "the refused attempt leaked");
            seen
        },
    );
}

#[test]
fn budget_spent_before_dispatch() {
    assert_parity(
        "spent budget",
        modes(),
        |_| true,
        |mode, drive| {
            let rig = rig(mode, None);
            let th = rig.sys.register();
            let spent = TxHints::new().with_deadline(Duration::ZERO);
            let seen = observe(&rig, || {
                let refused = try_run(drive, th.tx(&rig.lock).hints(spent), |ctx| {
                    ctx.update(&rig.cell, |v| v + 1)
                });
                // The infallible terminal has no error channel: it bounds retry
                // time by taking the exclusive path instead.
                let forced = run(drive, th.tx(&rig.lock).hints(spent), |ctx| {
                    ctx.update(&rig.cell, |v| v + 1)
                });
                (refused, forced)
            });
            assert!(
                seen.result.starts_with("(Err(DeadlineExceeded), 1"),
                "{seen:?}"
            );
            seen
        },
    );
}

#[test]
fn admission_serialize_and_shed() {
    // Walk the lock down the ladder through the real controller (the queue
    // peak of one dispatched section is enough), always through the sync
    // API, then script the measured sections through either driver.
    let cfg = AdmissionConfig {
        min_dwell_steps: 0,
        min_window_samples: u64::MAX,
        serialize_abort_rate: 2.0,
        serialize_fallback_rate: 2.0,
        shed_queue_depth: 1,
        recover_queue_depth: 0,
        recover_probe_steps: 1,
    };
    assert_parity(
        "admission ladder",
        gate_modes(),
        |_| true,
        |mode, drive| {
            let rig = rig(mode, Some(cfg.clone()));
            let th = rig.sys.register();
            let bump = |ctx: &mut TxCtx| ctx.update(&rig.cell, |v| v + 1);
            th.tx(&rig.lock).run(bump);
            assert_eq!(rig.sys.controller_step(), 1);
            assert_eq!(rig.lock.admission_step(), AdmissionStep::Serialize);
            let serialized = observe(&rig, || run(drive, th.tx(&rig.lock), bump));
            assert_eq!(rig.sys.controller_step(), 1);
            assert_eq!(rig.lock.admission_step(), AdmissionStep::Shed);
            let shed = observe(&rig, || {
                (
                    try_run(drive, th.tx(&rig.lock), bump),
                    run(drive, th.tx(&rig.lock), bump),
                )
            });
            assert!(shed.result.starts_with("(Err(Overloaded), 3"), "{shed:?}");
            Observed {
                result: format!("{} then {}", serialized.result, shed.result),
                counters: [serialized.counters, shed.counters].concat(),
                trace: [serialized.trace, shed.trace].concat(),
            }
        },
    );
}
