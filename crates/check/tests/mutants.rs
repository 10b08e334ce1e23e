//! The mutation matrix: a checker that has never caught a bug is untested
//! code. Each test re-introduces one classic TM bug via
//! `tle_base::mutant` (feature `check`), asserts the explorer
//! catches it with a **replayable schedule token**, verifies the token
//! reproduces the failure, and then re-runs the same exploration unmutated
//! to show the real kernels pass clean.
//!
//! Arming is process-global, so every test serializes on [`MATRIX_LOCK`]
//! and disarms via drop guard even on panic. `scenario_for` matches
//! exhaustively over [`Mutant`]: adding a mutant without a detection
//! scenario breaks the build.

mod common;

use common::{handoff_scenario, torn_pair_scenario, update_pair_scenario, OwnLine, GATE_ENGINES};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;
use tle_base::mutant::{self, Mutant};
use tle_base::TCell;
use tle_check::{explore, replay, Config, Scenario};
use tle_core::{AlgoMode, ElidableMutex, TmSystem};

static MATRIX_LOCK: Mutex<()> = Mutex::new(());

struct Armed(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Armed {
    fn new(m: Mutant) -> Self {
        let guard = MATRIX_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        mutant::arm(m);
        Armed(guard)
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        mutant::disarm();
    }
}

/// `ml_wt` lost update: T0 reads A then writes C from it; T1 overwrites A
/// in between. With commit-time validation skipped, T0 commits on the stale
/// read and the oracle's strict commit-order replay flags the mismatch.
fn stale_read_scenario() -> Scenario {
    let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
    let lock = Arc::new(ElidableMutex::new("mut-staleread"));
    let a = Arc::new(TCell::new(0u64));
    let c = Arc::new(TCell::new(0u64));
    let init = vec![(a.addr(), 0), (c.addr(), 0)];

    let t0: Box<dyn FnOnce() + Send> = {
        let (sys, lock) = (Arc::clone(&sys), Arc::clone(&lock));
        let (a, c) = (Arc::clone(&a), Arc::clone(&c));
        Box::new(move || {
            let th = sys.register();
            th.tx(&lock).run(|ctx| {
                let va = ctx.read(&*a)?;
                ctx.write(&*c, va + 1)?;
                Ok(())
            });
        })
    };
    let t1: Box<dyn FnOnce() + Send> = {
        let (sys, lock) = (Arc::clone(&sys), Arc::clone(&lock));
        let a = Arc::clone(&a);
        Box::new(move || {
            let th = sys.register();
            th.tx(&lock).run(|ctx| ctx.write(&*a, 1u64));
        })
    };
    Scenario {
        threads: vec![t0, t1],
        init,
        post: Box::new(|_| Ok(())),
    }
}

/// Privatization (paper §IV): T1 transactionally flips the flag that stops
/// T0 from touching X, then stores to X *directly*. Without the
/// post-commit quiescence drain, T1's direct store lands while zombie T0
/// still holds undo state for X — T0's rollback then clobbers it. The
/// post-condition pins X to the privatizer's value.
fn privatization_scenario() -> Scenario {
    let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
    let lock = Arc::new(ElidableMutex::new("mut-priv"));
    let flag = Arc::new(TCell::new(0u64));
    let x = Arc::new(TCell::new(0u64));
    let init = vec![(flag.addr(), 0), (x.addr(), 0)];

    let t0: Box<dyn FnOnce() + Send> = {
        let (sys, lock) = (Arc::clone(&sys), Arc::clone(&lock));
        let (flag, x) = (Arc::clone(&flag), Arc::clone(&x));
        Box::new(move || {
            let th = sys.register();
            th.tx(&lock).run(|ctx| {
                if ctx.read(&*flag)? == 0 {
                    ctx.write(&*x, 42u64)?;
                }
                Ok(())
            });
        })
    };
    let t1: Box<dyn FnOnce() + Send> = {
        let (sys, lock) = (Arc::clone(&sys), Arc::clone(&lock));
        let (flag, x) = (Arc::clone(&flag), Arc::clone(&x));
        Box::new(move || {
            let th = sys.register();
            th.tx(&lock).run(|ctx| ctx.write(&*flag, 1u64));
            // Privatized: the committed flag write plus the quiescence
            // drain make X ours alone; no transaction needed.
            x.store_direct(7);
        })
    };
    let post_x = Arc::clone(&x);
    Scenario {
        threads: vec![t0, t1],
        init,
        post: Box::new(move |_| {
            let v = post_x.load_direct();
            if v != 7 {
                return Err(format!(
                    "privatized store clobbered: X = {v}, expected 7 \
                     (zombie rollback raced the privatizer)"
                ));
            }
            Ok(())
        }),
    }
}

/// Torn rollback: T0's first attempt dirties X (orec held), then cancels —
/// rollback must replay the undo log *before* releasing the orec. Released
/// early, T1's read slips into the window and sees the dirty 42 — an
/// opacity violation (no consistent prefix T1 spans ever has X == 42,
/// since T0's committed retry lands only after T1 is done).
fn dirty_read_scenario() -> Scenario {
    let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
    let lock = Arc::new(ElidableMutex::new("mut-dirtyread"));
    let x = Arc::new(TCell::new(0u64));
    let init = vec![(x.addr(), 0)];

    let t0: Box<dyn FnOnce() + Send> = {
        let (sys, lock) = (Arc::clone(&sys), Arc::clone(&lock));
        let x = Arc::clone(&x);
        Box::new(move || {
            let th = sys.register();
            let mut cancelled = false;
            th.tx(&lock).run(|ctx| {
                ctx.write(&*x, 42u64)?;
                if !cancelled {
                    cancelled = true;
                    return Err(ctx.cancel());
                }
                Ok(())
            });
        })
    };
    let t1: Box<dyn FnOnce() + Send> = {
        let (sys, lock) = (Arc::clone(&sys), Arc::clone(&lock));
        let x = Arc::clone(&x);
        Box::new(move || {
            let th = sys.register();
            let _ = th.tx(&lock).run(|ctx| ctx.read(&*x));
        })
    };
    Scenario {
        threads: vec![t0, t1],
        init,
        post: Box::new(|_| Ok(())),
    }
}

/// Zombie torn snapshot in the simulated HTM: T1's commit dooms reader T0
/// mid-transaction; with the doom checks skipped, T0 keeps reading across
/// T1's publish and can see (old A, new B). The invariant assert inside
/// the closure panics the vthread.
fn htm_torn_pair_scenario() -> Scenario {
    let sys = Arc::new(TmSystem::new(AlgoMode::HtmCondvar));
    let lock = Arc::new(ElidableMutex::new("mut-torn"));
    let a = Arc::new(OwnLine(TCell::new(0u64)));
    let b = Arc::new(OwnLine(TCell::new(0u64)));
    let init = vec![(a.0.addr(), 0), (b.0.addr(), 0)];

    let t0: Box<dyn FnOnce() + Send> = {
        let (sys, lock) = (Arc::clone(&sys), Arc::clone(&lock));
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        Box::new(move || {
            let th = sys.register();
            th.tx(&lock).run(|ctx| {
                let va = ctx.read(&a.0)?;
                let vb = ctx.read(&b.0)?;
                assert_eq!(va, vb, "torn snapshot: doomed reader kept going");
                Ok(())
            });
        })
    };
    let t1: Box<dyn FnOnce() + Send> = {
        let (sys, lock) = (Arc::clone(&sys), Arc::clone(&lock));
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        Box::new(move || {
            let th = sys.register();
            th.tx(&lock).run(|ctx| {
                ctx.write(&a.0, 1u64)?;
                ctx.write(&b.0, 1u64)?;
                Ok(())
            });
        })
    };
    Scenario {
        threads: vec![t0, t1],
        init,
        post: Box::new(|_| Ok(())),
    }
}

/// Lazy-subscription lost update: T0 runs the glibc-style lock path
/// (`unsafe_op` forces it) doing read A → write A+1; T1 elides the same
/// increment. With the begin-refusal deleted, T1 may begin *during* T0's
/// hold — and the commit-time window check cannot see it, because the
/// holder bumps the seqlock only at acquire/release, so an entirely-inside
/// window looks clean. T1 commits on the stale read and one increment is
/// lost; the post-condition pins the sum.
fn lazy_lost_update_scenario() -> Scenario {
    let sys = Arc::new(TmSystem::new(AlgoMode::AdaptiveHtmLazy));
    let lock = Arc::new(ElidableMutex::new("mut-lazyheld"));
    let a = Arc::new(TCell::new(0u64));
    let init = vec![(a.addr(), 0)];

    let t0: Box<dyn FnOnce() + Send> = {
        let (sys, lock) = (Arc::clone(&sys), Arc::clone(&lock));
        let a = Arc::clone(&a);
        Box::new(move || {
            let th = sys.register();
            th.tx(&lock).run(|ctx| {
                ctx.unsafe_op()?;
                let va = ctx.read(&*a)?;
                ctx.write(&*a, va + 1)?;
                Ok(())
            });
        })
    };
    let t1: Box<dyn FnOnce() + Send> = {
        let (sys, lock) = (Arc::clone(&sys), Arc::clone(&lock));
        let a = Arc::clone(&a);
        Box::new(move || {
            let th = sys.register();
            th.tx(&lock).run(|ctx| {
                let va = ctx.read(&*a)?;
                ctx.write(&*a, va + 1)?;
                Ok(())
            });
        })
    };
    let post_a = Arc::clone(&a);
    Scenario {
        threads: vec![t0, t1],
        init,
        post: Box::new(move |_| {
            let v = post_a.load_direct();
            if v != 2 {
                return Err(format!(
                    "lost update: counter = {v}, expected 2 \
                     (lazy transaction committed inside the lock holder's window)"
                ));
            }
            Ok(())
        }),
    }
}

/// Lazy-subscription torn snapshot. T1 runs the lock path (`unsafe_op`)
/// writing the A/B pair; T0 speculates a read of both. Lazy transactions
/// never subscribe the lock word, so the *only* thing that stops T0 from
/// running on as a zombie across T1's serial stores is the acquire-side
/// doom sweep — which `LazyZombieEscape` deletes. The in-closure assert
/// panics the vthread on a torn pair.
fn lazy_torn_pair_scenario() -> Scenario {
    let sys = Arc::new(TmSystem::new(AlgoMode::AdaptiveHtmLazy));
    let lock = Arc::new(ElidableMutex::new("mut-lazytorn"));
    let a = Arc::new(OwnLine(TCell::new(0u64)));
    let b = Arc::new(OwnLine(TCell::new(0u64)));
    let init = vec![(a.0.addr(), 0), (b.0.addr(), 0)];

    let t0: Box<dyn FnOnce() + Send> = {
        let (sys, lock) = (Arc::clone(&sys), Arc::clone(&lock));
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        Box::new(move || {
            let th = sys.register();
            th.tx(&lock).run(|ctx| {
                let va = ctx.read(&a.0)?;
                let vb = ctx.read(&b.0)?;
                assert_eq!(va, vb, "torn snapshot: lazy zombie outlived the acquire");
                Ok(())
            });
        })
    };
    let t1: Box<dyn FnOnce() + Send> = {
        let (sys, lock) = (Arc::clone(&sys), Arc::clone(&lock));
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        Box::new(move || {
            let th = sys.register();
            th.tx(&lock).run(|ctx| {
                ctx.unsafe_op()?;
                ctx.write(&a.0, 1u64)?;
                ctx.write(&b.0, 1u64)?;
                Ok(())
            });
        })
    };
    Scenario {
        threads: vec![t0, t1],
        init,
        post: Box::new(|_| Ok(())),
    }
}

/// Detection scenario + exploration config per mutant. Exhaustive on
/// purpose: a new `Mutant` variant fails to compile until it gets a
/// scenario here.
fn scenario_for(m: Mutant) -> (fn() -> Scenario, Config) {
    match m {
        Mutant::SkipCommitValidation => (stale_read_scenario, Config::dfs(2, 400)),
        Mutant::DropQuiesce => (privatization_scenario, Config::dfs(2, 400)),
        Mutant::EarlyOrecRelease => (dirty_read_scenario, Config::dfs(2, 800)),
        Mutant::LostSignal => {
            let mut cfg = Config::dfs(2, 60);
            // The lost wakeup shows up as a frozen run; keep the stall
            // window short so the failing schedule reports quickly.
            cfg.stall_timeout = Duration::from_millis(800);
            (
                (|| handoff_scenario(AlgoMode::StmCondvar)) as fn() -> Scenario,
                cfg,
            )
        }
        Mutant::SkipDoomCheck => (htm_torn_pair_scenario, Config::dfs(2, 400)),
        Mutant::LazyCommitWithLockHeld => (lazy_lost_update_scenario, Config::dfs(2, 800)),
        Mutant::LazyZombieEscape => (
            lazy_torn_pair_scenario as fn() -> Scenario,
            Config::dfs(2, 800),
        ),
        // The reorder hazard needs the same torn-pair witness: the hoisted
        // window capture opens a begin-side gap the acquire's doom sweep
        // cannot see, so the zombie read is what actually goes wrong.
        Mutant::LazySubscriptionReorder => (
            lazy_torn_pair_scenario as fn() -> Scenario,
            Config::dfs(2, 800),
        ),
        // Both halves of the serial handshake share one witness (the full
        // engine × driver sweep is `detects_gate_mutant`).
        Mutant::GateSkipClosedCheck | Mutant::GateSkipSweep => (
            (|| torn_pair_scenario(AlgoMode::StmCondvar, true, false)) as fn() -> Scenario,
            Config::dfs(2, 800),
        ),
        Mutant::HtmUpdateSkipsClaim => (
            (|| update_pair_scenario(AlgoMode::HtmCondvar, false)) as fn() -> Scenario,
            Config::dfs(2, 400),
        ),
        Mutant::HtmReadOnlyCommitIgnoresDoom | Mutant::HtmCommittedClaimReadsStale => (
            (|| torn_pair_scenario(AlgoMode::HtmCondvar, false, false)) as fn() -> Scenario,
            Config::dfs(2, 400),
        ),
    }
}

/// The shared matrix body: armed → the explorer must fail and the printed
/// token must reproduce the failure; disarmed → the same exploration must
/// pass clean.
fn detects(m: Mutant) {
    let (factory, cfg) = scenario_for(m);
    detects_with(m, factory, &cfg);
}

fn detects_with(m: Mutant, factory: impl Fn() -> Scenario, cfg: &Config) {
    let (token, kind) = {
        let _armed = Armed::new(m);
        let report = explore(cfg, &factory);
        let (token, kind) = report.expect_failure();
        println!(
            "mutant {m}: caught by schedule {token} after {} schedules: {kind}",
            report.schedules
        );

        let replayed = replay(&token, factory(), cfg.stall_timeout);
        assert!(
            replayed.is_some(),
            "mutant {m}: schedule {token} did not reproduce on replay"
        );
        (token, kind)
    }; // disarmed here, even if the asserts above panic

    // Re-take the matrix lock for the disarmed run: arming is
    // process-global, so under the default parallel test runner a sibling
    // test's armed window must not leak into this clean exploration.
    let clean = {
        let _serial = MATRIX_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        explore(cfg, &factory)
    };
    if let Some((clean_token, clean_kind)) = &clean.failure {
        panic!(
            "unmutated kernel failed {m}'s scenario at {clean_token}: {clean_kind} \
             (mutant run failed at {token}: {kind})"
        );
    }
}

#[test]
fn catches_skip_commit_validation() {
    detects(Mutant::SkipCommitValidation);
}

#[test]
fn catches_drop_quiesce() {
    detects(Mutant::DropQuiesce);
}

#[test]
fn catches_early_orec_release() {
    detects(Mutant::EarlyOrecRelease);
}

#[test]
fn catches_lost_signal() {
    detects(Mutant::LostSignal);
}

/// The same lost-wakeup bug hunted through the *waker path*: the mutant
/// suppresses the task-waker delivery along with the condvar notify, so an
/// async consumer suspended under `block_on_manual` never re-polls and the
/// explorer's step counter freezes — proving the async suites would catch
/// a real lost waker, not just the sync park variant.
#[test]
fn catches_lost_signal_async() {
    let mut cfg = Config::dfs(2, 60);
    cfg.stall_timeout = Duration::from_millis(800);
    detects_with(
        Mutant::LostSignal,
        || common::handoff_scenario_async(AlgoMode::StmCondvar, true, true),
        &cfg,
    );
}

/// The lost wakeup under the baseline mutex on the sync driver: a baseline
/// waiter registers on the same ring as every other mode and parks on its
/// `Waiter`, so the mutant's dropped notify must strand it here too.
#[test]
fn catches_lost_signal_baseline() {
    let (_, cfg) = scenario_for(Mutant::LostSignal);
    detects_with(
        Mutant::LostSignal,
        || handoff_scenario(AlgoMode::Baseline),
        &cfg,
    );
}

#[test]
fn catches_skip_doom_check() {
    detects(Mutant::SkipDoomCheck);
}

#[test]
fn catches_lazy_commit_with_lock_held() {
    detects(Mutant::LazyCommitWithLockHeld);
}

#[test]
fn catches_lazy_zombie_escape() {
    detects(Mutant::LazyZombieEscape);
}

#[test]
fn catches_lazy_subscription_reorder() {
    detects(Mutant::LazySubscriptionReorder);
}

/// A gate mutant under every engine the gate supervises and both drivers:
/// the handshake is one mechanism, so deleting a half of it must show
/// everywhere.
fn detects_gate_mutant(m: Mutant) {
    let (_, cfg) = scenario_for(m);
    for mode in GATE_ENGINES {
        for async_driver in [false, true] {
            println!("{m} under {mode:?}, async driver: {async_driver}");
            detects_with(m, || torn_pair_scenario(mode, true, async_driver), &cfg);
        }
    }
}

#[test]
fn catches_gate_skip_closed_check() {
    detects_gate_mutant(Mutant::GateSkipClosedCheck);
}

#[test]
fn catches_gate_skip_sweep() {
    detects_gate_mutant(Mutant::GateSkipSweep);
}

/// An HTM fast-path mutant under the gate-supervised and the lazy HTM, on
/// both drivers; `witness` builds the scenario for a mode and a driver.
fn detects_htm_mutant(m: Mutant, witness: fn(AlgoMode, bool) -> Scenario) {
    let (_, cfg) = scenario_for(m);
    for mode in [AlgoMode::HtmCondvar, AlgoMode::AdaptiveHtmLazy] {
        for async_driver in [false, true] {
            println!("{m} under {mode:?}, async driver: {async_driver}");
            detects_with(m, || witness(mode, async_driver), &cfg);
        }
    }
}

#[test]
fn catches_htm_update_skips_claim() {
    detects_htm_mutant(Mutant::HtmUpdateSkipsClaim, update_pair_scenario);
}

/// The read-only commit against a committing hardware writer, and, under
/// the lazy mode, against a lock acquisition (the holder's doom-all sweep).
#[test]
fn catches_htm_read_only_commit_ignores_doom() {
    detects_htm_mutant(
        Mutant::HtmReadOnlyCommitIgnoresDoom,
        |mode, async_driver| {
            let locked = mode == AlgoMode::AdaptiveHtmLazy;
            torn_pair_scenario(mode, locked, async_driver)
        },
    );
}

/// A reader meets the line of a writer past its commit point, whose redo
/// log is half published: the writer's tag must read live, so the reader
/// aborts instead of loading one new and one old cell.
#[test]
fn catches_htm_committed_claim_reads_stale() {
    detects_htm_mutant(Mutant::HtmCommittedClaimReadsStale, |mode, async_driver| {
        torn_pair_scenario(mode, false, async_driver)
    });
}

/// Belt and braces for the matrix itself: every declared mutant resolves to
/// a scenario (the exhaustive match makes this a compile-time fact; this
/// test keeps it visible in the run log) and the feature is compiled in.
#[test]
fn matrix_covers_every_mutant() {
    assert!(mutant::compiled(), "the check feature must be enabled here");
    for m in Mutant::ALL {
        let (_factory, cfg) = scenario_for(m);
        match cfg.strategy {
            tle_check::Strategy::Dfs { max_schedules, .. } => {
                assert!(max_schedules > 0, "{m}: empty exploration")
            }
            tle_check::Strategy::Random { schedules, .. } => {
                assert!(schedules > 0, "{m}: empty exploration")
            }
        }
    }
}
