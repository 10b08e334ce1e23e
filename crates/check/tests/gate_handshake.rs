//! The serial handshake under the explorer, unmutated: transactions publish
//! their presence with the stores they make anyway and read the gate; serial
//! entry takes the gate and sweeps the presence words. `YieldPoint::SerialGate`
//! sits at the closed-check (between a begin's publication and its gate
//! load), inside the sweep (between the serial bit's CAS and the first
//! presence load) and at serial exit, so bounded DFS drives exactly the
//! interleavings the store→load argument of `tle_base::gate` is about.
//!
//! `tests/mutants.rs` is the other half: `GateSkipClosedCheck` and
//! `GateSkipSweep` delete one side of the handshake each and are caught by
//! the same witness these tests pass clean.

mod common;

use common::{run_section, torn_pair_scenario, GATE_ENGINES};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tle_base::TCell;
use tle_check::{explore, Config, Scenario};
use tle_core::{AlgoMode, ElidableMutex, TmSystem};

/// Neither side of the handshake lets a transaction run beside a serial
/// section's direct stores, under every engine and both drivers. Under the
/// async driver every attempt claims a fresh slot pair, so this is also "a
/// slot claimed after the sweep began still retreats": the schedules in
/// which T0's claim raises the registries' high-water mark past what T1's
/// sweep read are among those explored.
#[test]
fn dfs_clean_serial_section_beside_a_speculating_reader() {
    let cfg = Config::dfs(2, 400);
    for mode in GATE_ENGINES {
        for async_driver in [false, true] {
            explore(&cfg, || torn_pair_scenario(mode, true, async_driver)).assert_clean();
        }
    }
}

/// Two increments per thread on one counter, one thread's through the serial
/// gate (`unsafe_op`), each side on its own driver. Retire-then-wait must
/// never deadlock: a retired entrant holds nothing the serial side waits
/// for, a pending async serial request is woken by the serial exit before
/// it, and a suspended async entrant by the exit that reopens the gate.
fn mixed_driver_counter(mode: AlgoMode, async_entrant: bool, async_serial: bool) -> Scenario {
    let sys = Arc::new(TmSystem::new(mode));
    let lock = Arc::new(ElidableMutex::new("check-retire"));
    let cell = Arc::new(TCell::new(0u64));
    let init = vec![(cell.addr(), 0)];
    let thread = |serial: bool, async_driver: bool| -> Box<dyn FnOnce() + Send> {
        let (sys, lock, cell) = (Arc::clone(&sys), Arc::clone(&lock), Arc::clone(&cell));
        Box::new(move || {
            let th = sys.register();
            for _ in 0..2 {
                run_section(&th, &lock, async_driver, |ctx| {
                    if serial {
                        ctx.unsafe_op()?;
                    }
                    let v = ctx.read(&*cell)?;
                    ctx.write(&*cell, v + 1)
                });
            }
        })
    };
    let threads = vec![
        thread(false, async_entrant),
        thread(true, async_serial),
        // A second serial side: the first one's exit must hand the gate on
        // to a *pending* request while the entrant keeps waiting.
        thread(true, async_serial),
    ];
    let post_cell = Arc::clone(&cell);
    Scenario {
        threads,
        init,
        post: Box::new(move |_| match post_cell.load_direct() {
            6 => Ok(()),
            v => Err(format!(
                "lost update across the gate: counter = {v}, expected 6"
            )),
        }),
    }
}

#[test]
fn dfs_clean_retire_then_wait_never_deadlocks() {
    let cfg = Config::dfs(2, 300);
    for mode in GATE_ENGINES {
        for (async_entrant, async_serial) in [(false, true), (true, false), (true, true)] {
            explore(&cfg, || {
                mixed_driver_counter(mode, async_entrant, async_serial)
            })
            .assert_clean();
        }
    }
}

#[test]
fn random_sampling_clean_mixed_drivers() {
    for mode in GATE_ENGINES {
        let cfg = Config::random(0x5E71A1, 40);
        explore(&cfg, || mixed_driver_counter(mode, false, true)).assert_clean();
    }
}

/// A mode flip (software → hardware elision of one lock) racing a worker's
/// sections. The worker's published presence is its foothold: a flip that
/// starts after the worker's begin either is seen at the closed-check (the
/// worker retires, and finds the epoch moved when it comes back:
/// `Redispatch`) or waits the worker's transaction out. Either way nothing
/// commits under the stale mode once the flip has finished — pinned by the
/// STM's commit count standing still from that moment on.
fn flip_scenario(async_driver: bool) -> Scenario {
    const OPS: u64 = 3;
    let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
    let lock = Arc::new(ElidableMutex::new("check-flip"));
    let cell = Arc::new(TCell::new(0u64));
    let stm_commits_at_flip = Arc::new(AtomicU64::new(u64::MAX));
    let init = vec![(cell.addr(), 0)];

    let worker: Box<dyn FnOnce() + Send> = {
        let (sys, lock, cell) = (Arc::clone(&sys), Arc::clone(&lock), Arc::clone(&cell));
        Box::new(move || {
            let th = sys.register();
            for _ in 0..OPS {
                run_section(&th, &lock, async_driver, |ctx| {
                    let v = ctx.read(&*cell)?;
                    ctx.write(&*cell, v + 1)
                });
            }
        })
    };
    let flipper: Box<dyn FnOnce() + Send> = {
        let (sys, lock) = (Arc::clone(&sys), Arc::clone(&lock));
        let at_flip = Arc::clone(&stm_commits_at_flip);
        Box::new(move || {
            sys.set_lock_mode(&lock, AlgoMode::HtmCondvar);
            at_flip.store(sys.domain_stats().stm.commits, Ordering::SeqCst);
        })
    };
    let (post_sys, post_cell) = (Arc::clone(&sys), Arc::clone(&cell));
    Scenario {
        threads: vec![worker, flipper],
        init,
        post: Box::new(move |_| {
            let d = post_sys.domain_stats();
            let at_flip = stm_commits_at_flip.load(Ordering::SeqCst);
            if post_cell.load_direct() != OPS {
                return Err(format!(
                    "counter = {}, expected {OPS}",
                    post_cell.load_direct()
                ));
            }
            if d.stm.commits != at_flip {
                return Err(format!(
                    "{} STM commits after the flip to HTM finished (stale mode)",
                    d.stm.commits - at_flip
                ));
            }
            if d.stm.commits + d.htm.commits + d.tle.commits != OPS {
                return Err(format!("commit rows do not add up to {OPS}: {d:?}"));
            }
            Ok(())
        }),
    }
}

#[test]
fn dfs_clean_flip_between_begin_and_epoch_recheck_redispatches() {
    let cfg = Config::dfs(2, 400);
    for async_driver in [false, true] {
        explore(&cfg, || flip_scenario(async_driver)).assert_clean();
    }
}
