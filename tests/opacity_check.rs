//! Deterministic sibling of `tests/opacity.rs` (which remains the stress
//! variant): the same all-cells-equal snapshot invariant, but run under the
//! `tle-check` model checker instead of the OS scheduler. Two to three
//! virtual threads, every preemption point enumerated up to the bound, and
//! the recorded history replayed through the offline opacity oracle with a
//! known initial memory image — so a torn snapshot is caught even if the
//! in-closure assert would have missed it.
//!
//! The scenario builder is intentionally a copy of the one in
//! `crates/check/tests/common/mod.rs`: integration tests cannot share
//! modules across crates, and this file exercises the harness exactly as a
//! downstream application test would — through the public `tle_check` API
//! alone.

use std::sync::Arc;
use tle_check::{explore, Config, Scenario};
use tle_repro::base::trace::TraceKind;
use tle_repro::base::TCell;
use tle_repro::prelude::*;

/// All threads repeatedly assert every cell equal (inside the transaction —
/// a torn read panics the virtual thread) and increment them all. The
/// post-condition pins the final counter; `init` gives the oracle the
/// starting memory image.
fn snapshot_scenario(mode: AlgoMode, threads: usize, ops: u64) -> Scenario {
    const CELLS: usize = 2;
    let sys = Arc::new(TmSystem::new(mode));
    let lock = Arc::new(ElidableMutex::new("opacity-check"));
    let cells: Arc<Vec<TCell<u64>>> = Arc::new((0..CELLS).map(|_| TCell::new(0)).collect());
    let init: Vec<(usize, u64)> = cells.iter().map(|c| (c.addr(), 0)).collect();

    let mut tvec: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    for _ in 0..threads {
        let sys = Arc::clone(&sys);
        let lock = Arc::clone(&lock);
        let cells = Arc::clone(&cells);
        tvec.push(Box::new(move || {
            let th = sys.register();
            for _ in 0..ops {
                th.tx(&lock).run(|ctx| {
                    let first = ctx.read(&cells[0])?;
                    for c in cells.iter().skip(1) {
                        let v = ctx.read(c)?;
                        assert_eq!(v, first, "torn snapshot under {mode:?}");
                    }
                    for c in cells.iter() {
                        ctx.write(c, first + 1)?;
                    }
                    Ok(())
                });
            }
        }));
    }

    let expect = threads as u64 * ops;
    let post_cells = Arc::clone(&cells);
    Scenario {
        threads: tvec,
        init,
        post: Box::new(move |_| {
            for (i, c) in post_cells.iter().enumerate() {
                let v = c.load_direct();
                if v != expect {
                    return Err(format!("cell {i} = {v}, expected {expect} under {mode:?}"));
                }
            }
            Ok(())
        }),
    }
}

#[test]
fn check_baseline() {
    explore(&Config::dfs(2, 200), || {
        snapshot_scenario(AlgoMode::Baseline, 2, 2)
    })
    .assert_clean();
}

#[test]
fn check_stm_mlwt() {
    explore(&Config::dfs(2, 300), || {
        snapshot_scenario(AlgoMode::StmCondvar, 2, 2)
    })
    .assert_clean();
}

/// `TM_NoQuiesce` (paper §IV): the snapshot workload never privatizes, so
/// skipping the post-commit quiescence drain must stay opaque under every
/// explored interleaving — exactly the claim the stress test can only
/// sample.
#[test]
fn check_stm_mlwt_noquiesce() {
    explore(&Config::dfs(2, 300), || {
        snapshot_scenario(AlgoMode::StmCondvarNoQuiesce, 2, 2)
    })
    .assert_clean();
}

#[test]
fn check_stm_norec() {
    explore(&Config::dfs(2, 300), || {
        snapshot_scenario(AlgoMode::StmNorec, 2, 2)
    })
    .assert_clean();
}

#[test]
fn check_htm() {
    explore(&Config::dfs(2, 300), || {
        snapshot_scenario(AlgoMode::HtmCondvar, 2, 2)
    })
    .assert_clean();
}

#[test]
fn check_adaptive_htm() {
    explore(&Config::dfs(2, 300), || {
        snapshot_scenario(AlgoMode::AdaptiveHtm, 2, 2)
    })
    .assert_clean();
}

/// Three virtual threads, one increment each: the decision tree is wider,
/// so keep the per-thread work minimal and raise the schedule budget.
#[test]
fn check_three_threads_noquiesce() {
    explore(&Config::dfs(2, 500), || {
        snapshot_scenario(AlgoMode::StmCondvarNoQuiesce, 3, 1)
    })
    .assert_clean();
}

/// Seeded random sampling on top of the bounded DFS: different preemption
/// placements, same invariants, still fully reproducible from the seed.
#[test]
fn check_random_sampling() {
    for mode in [
        AlgoMode::StmCondvar,
        AlgoMode::StmCondvarNoQuiesce,
        AlgoMode::HtmCondvar,
    ] {
        explore(&Config::random(0x0AC17E5, 40), || {
            snapshot_scenario(mode, 2, 2)
        })
        .assert_clean();
    }
}

/// The recorder is live in this build (the harness depends on it): every
/// explored schedule must deliver a history whose committed-section count
/// matches the workload, proving the events the oracle judged were the
/// real ones and not an empty tape.
#[test]
fn check_history_carries_all_commits() {
    let threads = 2usize;
    let ops = 2u64;
    explore(&Config::dfs(2, 300), || {
        let mut s = snapshot_scenario(AlgoMode::StmCondvar, threads, ops);
        let inner = s.post;
        s.post = Box::new(move |events| {
            inner(events)?;
            let commits = events
                .iter()
                .filter(|e| e.kind == TraceKind::Commit)
                .count() as u64;
            if commits < threads as u64 * ops {
                return Err(format!(
                    "history recorded {commits} commits, expected at least {}",
                    threads as u64 * ops
                ));
            }
            Ok(())
        });
        s
    })
    .assert_clean();
}
