//! Explorer suites for the HTM invalidation primitives — the operations
//! every elision lock path (eager *and* lazy) leans on. Each test states a
//! coherence-ordering property as an in-closure assert or post-condition
//! and exhausts a bounded DFS over the interleavings; the suite passing
//! means no schedule violates the property.
//!
//! - [`HtmGlobal::invalidate`]: a non-transactional writer's store is
//!   ordered *after* any transaction already past its commit point (the
//!   writer-committing wait-out), and every reader in the line's bitmap is
//!   doomed before the store lands.
//! - [`HtmGlobal::try_invalidate`]: the async lock path's re-doom loop
//!   (`false` → yield → re-call) converges to the same guarantee.
//! - [`HtmGlobal::doom_all_active`] / `try_doom_all_active`: the lazy
//!   lock path's sweep dooms every active transaction even though none of
//!   them holds the contested line.

mod common;

use std::sync::Arc;
use tle_base::sched::{self, YieldPoint};
use tle_base::trace::{emit, emit_access, TraceKind, TxMode};
use tle_base::{AbortCause, TCell};
use tle_check::{explore, Config, Scenario};
use tle_htm::{HtmConfig, HtmGlobal};

fn quiet_htm() -> Arc<HtmGlobal> {
    Arc::new(HtmGlobal::new(HtmConfig {
        event_prob: 0.0,
        ..HtmConfig::default()
    }))
}

/// A direct store recorded as a one-store locked section, the way the
/// elision lock paths record theirs — the opacity oracle needs the event
/// to order transactional reads against.
fn locked_store(c: &TCell<u64>, v: u64) {
    emit(TraceKind::Begin, TxMode::Locked, None, 0);
    c.store_direct(v);
    emit_access(TraceKind::Write, TxMode::Locked, c.addr() as u64, v);
    emit(TraceKind::Commit, TxMode::Locked, None, 0);
}

/// Run one raw hardware-transaction attempt: begin on `slot`, apply `body`,
/// commit. Any abort (doomed mid-flight or at the commit CAS) is fine —
/// the suites assert ordering, not success.
fn one_attempt(
    htm: &HtmGlobal,
    slot: usize,
    body: impl FnOnce(&mut tle_htm::HtmTx<'_>) -> Result<(), tle_base::AbortCause>,
) {
    let mut tx = htm.begin(slot);
    match body(&mut tx) {
        Ok(()) => {
            let _ = tx.commit();
        }
        Err(cause) => tx.abort(cause),
    }
}

/// Writer-committing wait-out: T0 transactionally turns X from 0 into 1;
/// T1 performs `invalidate(X)` followed by a direct store of 2. If T0 runs
/// entirely after T1 it reads 2 and writes nothing; in every overlapping
/// schedule `invalidate` must either doom T0 (nothing publishes) or wait
/// out its in-flight commit, ordering the redo publish *before* the direct
/// store. Either way X ends at 2; a 1 means the publish leaked past the
/// invalidation.
fn invalidate_waitout_scenario() -> Scenario {
    let htm = quiet_htm();
    let x = Arc::new(TCell::new(0u64));
    let init = vec![(x.addr(), 0)];

    let t0: Box<dyn FnOnce() + Send> = {
        let (htm, x) = (Arc::clone(&htm), Arc::clone(&x));
        Box::new(move || {
            one_attempt(&htm, 0, |tx| {
                if tx.read(&*x)? == 0 {
                    tx.write(&*x, 1u64)?;
                }
                Ok(())
            });
        })
    };
    let t1: Box<dyn FnOnce() + Send> = {
        let (htm, x) = (Arc::clone(&htm), Arc::clone(&x));
        Box::new(move || {
            htm.invalidate(&*x);
            locked_store(&x, 2u64);
        })
    };
    let post_x = Arc::clone(&x);
    Scenario {
        threads: vec![t0, t1],
        init,
        post: Box::new(move |_| {
            let v = post_x.load_direct();
            if v != 2 {
                return Err(format!(
                    "invalidate returned before the committing writer finished \
                     publishing: X = {v}, expected the direct store's 2"
                ));
            }
            Ok(())
        }),
    }
}

#[test]
fn invalidate_waits_out_committing_writer() {
    let report = explore(&Config::dfs(3, 4_000), invalidate_waitout_scenario);
    assert!(
        report.failure.is_none(),
        "writer-committing wait-out violated: {:?}",
        report.failure
    );
    assert!(
        report.schedules > 1,
        "exploration degenerated to one schedule"
    );
}

/// Reader-bitmap doom: T0 subscribes X (transactional read) and reads it
/// twice; T1 invalidates the line and stores directly in between.
/// `invalidate` must doom every reader in the line's bitmap before the
/// store lands, so T0 can never observe both the old and the new value in
/// one transaction — its second read errors out instead.
fn invalidate_reader_doom_scenario() -> Scenario {
    let htm = quiet_htm();
    let x = Arc::new(TCell::new(0u64));
    let init = vec![(x.addr(), 0)];

    let t0: Box<dyn FnOnce() + Send> = {
        let (htm, x) = (Arc::clone(&htm), Arc::clone(&x));
        Box::new(move || {
            one_attempt(&htm, 0, |tx| {
                let va = tx.read(&*x)?;
                let vb = tx.read(&*x)?;
                assert_eq!(
                    va, vb,
                    "reader saw the invalidating store without being doomed"
                );
                Ok(())
            });
        })
    };
    let t1: Box<dyn FnOnce() + Send> = {
        let (htm, x) = (Arc::clone(&htm), Arc::clone(&x));
        Box::new(move || {
            htm.invalidate(&*x);
            locked_store(&x, 2u64);
        })
    };
    Scenario {
        threads: vec![t0, t1],
        init,
        post: Box::new(|_| Ok(())),
    }
}

#[test]
fn invalidate_dooms_line_readers() {
    let report = explore(&Config::dfs(3, 4_000), invalidate_reader_doom_scenario);
    assert!(
        report.failure.is_none(),
        "reader-bitmap doom violated: {:?}",
        report.failure
    );
}

/// The async path's re-doom loop: `try_invalidate` refuses to spin on a
/// mid-commit victim and the caller re-calls after yielding. Re-dooming is
/// idempotent, the loop terminates (a livelock would trip the stall
/// timeout), and the converged guarantee matches the blocking form.
fn try_invalidate_loop_scenario() -> Scenario {
    let htm = quiet_htm();
    let x = Arc::new(TCell::new(0u64));
    let init = vec![(x.addr(), 0)];

    let t0: Box<dyn FnOnce() + Send> = {
        let (htm, x) = (Arc::clone(&htm), Arc::clone(&x));
        Box::new(move || {
            one_attempt(&htm, 0, |tx| {
                if tx.read(&*x)? == 0 {
                    tx.write(&*x, 1u64)?;
                }
                Ok(())
            });
        })
    };
    let t1: Box<dyn FnOnce() + Send> = {
        let (htm, x) = (Arc::clone(&htm), Arc::clone(&x));
        Box::new(move || {
            while !htm.try_invalidate(&*x) {
                sched::spin_hint(YieldPoint::LockWord);
            }
            locked_store(&x, 2u64);
        })
    };
    let post_x = Arc::clone(&x);
    Scenario {
        threads: vec![t0, t1],
        init,
        post: Box::new(move |_| {
            let v = post_x.load_direct();
            if v != 2 {
                return Err(format!(
                    "try_invalidate loop converged before the committing writer \
                     finished publishing: X = {v}, expected 2"
                ));
            }
            Ok(())
        }),
    }
}

#[test]
fn try_invalidate_re_doom_loop_converges() {
    let report = explore(&Config::dfs(3, 4_000), try_invalidate_loop_scenario);
    assert!(
        report.failure.is_none(),
        "try_invalidate re-doom loop violated ordering: {:?}",
        report.failure
    );
}

/// The lazy lock path's sweep: T0's transaction holds *no* line in common
/// with the lock word, so only `doom_all_active` can stop it from running
/// on as a zombie across T1's direct pair-store. The in-closure assert is
/// the torn-snapshot witness.
///
/// The sweep alone covers transactions that began *before* it; one that
/// begins mid-store-section must refuse itself, exactly as the lazy lock
/// path's begin-refusal (G1) does. The `held` flag emulates that guard:
/// T1 raises it before sweeping and lowers it after the stores, and T0
/// checks it first thing after begin. T0's slot goes active before the
/// check, and the sweep runs after the raise — so a T0 that saw the flag
/// down had begun before the sweep and gets doomed by it.
fn doom_all_scenario(blocking: bool) -> Scenario {
    let htm = quiet_htm();
    let a = Arc::new(TCell::new(0u64));
    let b = Arc::new(TCell::new(0u64));
    let held = Arc::new(TCell::new(0u64));
    let init = vec![(a.addr(), 0), (b.addr(), 0)];

    let t0: Box<dyn FnOnce() + Send> = {
        let (htm, a, b) = (Arc::clone(&htm), Arc::clone(&a), Arc::clone(&b));
        let held = Arc::clone(&held);
        Box::new(move || {
            one_attempt(&htm, 0, |tx| {
                if held.load_direct() == 1 {
                    return Err(AbortCause::Conflict);
                }
                let va = tx.read(&*a)?;
                let vb = tx.read(&*b)?;
                assert_eq!(va, vb, "torn snapshot: sweep missed an active slot");
                Ok(())
            });
        })
    };
    let t1: Box<dyn FnOnce() + Send> = {
        let (htm, a, b) = (Arc::clone(&htm), Arc::clone(&a), Arc::clone(&b));
        let held = Arc::clone(&held);
        Box::new(move || {
            held.store_direct(1u64);
            if blocking {
                htm.doom_all_active();
            } else {
                while !htm.try_doom_all_active() {
                    sched::spin_hint(YieldPoint::TxState);
                }
            }
            // Direct stores, deliberately *without* touching the lines the
            // reader subscribed: only the sweep protects the pair. Recorded
            // as one locked section, with a yield between the stores so the
            // explorer can interleave the reader mid-pair.
            emit(TraceKind::Begin, TxMode::Locked, None, 0);
            a.store_direct(1u64);
            emit_access(TraceKind::Write, TxMode::Locked, a.addr() as u64, 1);
            sched::yield_point(YieldPoint::MemStore);
            b.store_direct(1u64);
            emit_access(TraceKind::Write, TxMode::Locked, b.addr() as u64, 1);
            emit(TraceKind::Commit, TxMode::Locked, None, 0);
            held.store_direct(0u64);
        })
    };
    Scenario {
        threads: vec![t0, t1],
        init,
        post: Box::new(|_| Ok(())),
    }
}

#[test]
fn doom_all_active_stops_unsubscribed_zombies() {
    let report = explore(&Config::dfs(3, 4_000), || doom_all_scenario(true));
    assert!(
        report.failure.is_none(),
        "doom_all_active sweep violated: {:?}",
        report.failure
    );
}

#[test]
fn try_doom_all_active_loop_matches_blocking_sweep() {
    let report = explore(&Config::dfs(3, 4_000), || doom_all_scenario(false));
    assert!(
        report.failure.is_none(),
        "try_doom_all_active loop violated: {:?}",
        report.failure
    );
}
