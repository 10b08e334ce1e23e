//! The statistics rows' single-writer invariant, pinned rather than assumed.
//!
//! `TxStats` keeps one row per slot and lets the slot's owner bump it with a
//! plain load + store. If two writers ever shared a row — a transaction
//! bumping a slot it does not hold, a drain accounted after its claim was
//! dropped, a runner-level site using the owned primitive on a handle that
//! many workers share — increments would be lost and the identities below
//! would come out short. They are exact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tle_repro::base::exec::Exec;
use tle_repro::base::stats::TxStatsSnapshot;
use tle_repro::core::DomainStats;
use tle_repro::prelude::*;

/// The identities every run must satisfy, given how often the closure of the
/// contended section ran (`calls`) and how many such sections there were.
fn assert_exact(mode: AlgoMode, d: &DomainStats, calls: u64, sections: u64) {
    let tm = if mode == AlgoMode::HtmCondvar {
        &d.htm
    } else {
        &d.stm
    };
    // One closure call per speculative attempt, one per serial re-run.
    assert_eq!(
        tm.commits + tm.aborts + d.tle.serial_fallbacks,
        calls,
        "{mode:?}: commits + aborts == attempts ({d:?})"
    );
    assert_eq!(tm.commits + d.tle.commits, sections, "{mode:?}: {d:?}");
    assert_eq!(d.tle.commits, d.tle.serial_fallbacks, "{mode:?}");
    for t in [&d.stm, &d.htm] {
        assert_eq!(t.by_cause.iter().sum::<u64>(), t.aborts, "{mode:?}: {t:?}");
        assert_eq!(t.quiesce_hist.count(), t.quiesces, "{mode:?}: {t:?}");
    }
    assert_eq!(
        d.stm.quiesces + d.stm.quiesce_skipped,
        d.stm.commits,
        "{mode:?}: every STM commit drains or skips"
    );
}

#[test]
fn sync_threads_on_a_contended_cell_count_exactly() {
    const THREADS: u64 = 8;
    const OPS: u64 = 1_500;
    for mode in [AlgoMode::StmCondvar, AlgoMode::HtmCondvar] {
        let sys = Arc::new(TmSystem::new(mode));
        let lock = ElidableMutex::new("contended");
        let cell = TCell::new(0u64);
        let calls = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    let th = sys.register();
                    let mut mine = 0u64;
                    for _ in 0..OPS {
                        th.tx(&lock).run(|ctx| {
                            mine += 1;
                            let v = ctx.read(&cell)?;
                            ctx.write(&cell, v + 1)
                        });
                    }
                    calls.fetch_add(mine, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(cell.load_direct(), THREADS * OPS);
        let d = sys.domain_stats();
        assert_exact(mode, &d, calls.load(Ordering::Relaxed), THREADS * OPS);

        // Between trials every row goes back to zero.
        sys.reset_stats();
        let d = sys.domain_stats();
        for t in [&d.tle, &d.stm, &d.htm] {
            assert_eq!(*t, TxStatsSnapshot::default(), "{mode:?}");
        }
    }
}

/// 64 sessions on one `ThreadHandle` and four workers: attempts run on
/// transient slot claims that recycle across tasks (each row changes owner
/// constantly), while the runner-level counters all land on the handle's own
/// row from whichever worker polls.
#[test]
fn async_sessions_sharing_one_handle_count_exactly() {
    const SESSIONS: u64 = 64;
    const OPS: u64 = 60;
    /// Refusals per committed section: they never suspend, so four workers
    /// hammer the handle's row at once.
    const REFUSED: u64 = 10;
    for mode in [AlgoMode::StmCondvar, AlgoMode::HtmCondvar] {
        let exec = Exec::new(4);
        let sys = Arc::new(
            TmSystem::builder()
                .mode(mode)
                .admission_config(AdmissionConfig {
                    min_dwell_steps: 0,
                    // Only the queue signal can fire, and only when stepped.
                    min_window_samples: u64::MAX,
                    serialize_abort_rate: 2.0,
                    serialize_fallback_rate: 2.0,
                    shed_queue_depth: 1,
                    recover_queue_depth: 0,
                    recover_probe_steps: 1,
                })
                .build(),
        );
        let th = Arc::new(sys.register());
        let work = Arc::new(ElidableMutex::new("work"));
        // Walk a second lock to the Shed step; nothing steps the controller
        // afterwards, so it stays there.
        let shed = Arc::new(ElidableMutex::new("shed"));
        sys.adopt_lock(&shed);
        for _ in 0..2 {
            th.tx(&shed).run(|_| Ok(()));
            sys.controller_step();
        }
        assert_eq!(shed.admission_step(), AdmissionStep::Shed);
        sys.reset_stats();

        let cell = Arc::new(TCell::new(0u64));
        let calls = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..SESSIONS)
            .map(|_| {
                let (th, work, shed) = (Arc::clone(&th), Arc::clone(&work), Arc::clone(&shed));
                let (cell, calls) = (Arc::clone(&cell), Arc::clone(&calls));
                exec.spawn(async move {
                    let mut mine = 0u64;
                    for _ in 0..OPS {
                        th.tx(&work)
                            .run_async(|ctx| {
                                mine += 1;
                                let v = ctx.read(&*cell)?;
                                ctx.write(&*cell, v + 1)
                            })
                            .await;
                        for _ in 0..REFUSED {
                            let r = th.tx(&shed).try_run_async(|_| Ok(())).await;
                            assert!(matches!(r, Err(TxError::Overloaded)), "{r:?}");
                            let r = th.tx(&work).deadline_us(0).try_run_async(|_| Ok(()));
                            let r = r.await;
                            assert!(matches!(r, Err(TxError::DeadlineExceeded)), "{r:?}");
                        }
                    }
                    calls.fetch_add(mine, Ordering::Relaxed);
                })
            })
            .collect();
        exec.block_on(async move {
            for h in handles {
                h.await;
            }
        });
        assert_eq!(cell.load_direct(), SESSIONS * OPS);
        let d = sys.domain_stats();
        assert_exact(mode, &d, calls.load(Ordering::Relaxed), SESSIONS * OPS);
        assert_eq!(d.tle.sheds, SESSIONS * OPS * REFUSED, "{mode:?}");
        assert_eq!(
            d.tle.deadline_exceeded,
            SESSIONS * OPS * REFUSED,
            "{mode:?}"
        );
    }
}

/// What the benchmark's `stm.quiesce.p50_ns` row reads on an uncontended
/// run: every drain passes on its first sweep, is still a sample of the
/// histogram, and sits in bucket 0.
#[test]
fn first_sweep_drains_still_fill_the_histogram() {
    const OPS: u64 = 5_000;
    let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
    let lock = ElidableMutex::new("alone");
    let cell = TCell::new(0u64);
    let th = sys.register();
    for _ in 0..OPS {
        th.tx(&lock).run(|ctx| {
            let v = ctx.read(&cell)?;
            ctx.write(&cell, v + 1)
        });
    }
    let stm = sys.domain_stats().stm;
    assert_eq!(
        (stm.commits, stm.quiesces, stm.quiesce_skipped),
        (OPS, OPS, 0)
    );
    assert_eq!(stm.quiesce_hist.count(), OPS);
    assert_eq!(stm.quiesce_hist.buckets[0], OPS);
    assert_eq!(stm.quiesce_hist.quantile_ns(0.50), Some(2));
    assert_eq!(stm.quiesce_hist.quantile_ns(0.99), Some(2));
    assert_eq!(stm.quiesce_wait_ns, 0);
}
