//! Explorer sanity over the *unmutated* kernels: deterministic exploration
//! of small snapshot/handoff scenarios must come back clean under every
//! algorithm family, and a printed schedule token must reproduce its run
//! exactly.
//!
//! The mutation matrix (`tests/mutants.rs`) is the other half of this
//! suite's argument: these tests show the harness accepts correct kernels,
//! that one shows it rejects broken ones.

mod common;

use common::{handoff_scenario, snapshot_scenario};
use std::time::Duration;
use tle_check::{explore, replay, Config, FailKind, Scenario};
use tle_core::AlgoMode;

#[test]
fn dfs_clean_stm_mlwt() {
    let cfg = Config::dfs(2, 300);
    explore(&cfg, || snapshot_scenario(AlgoMode::StmCondvar, 2, 2, 2)).assert_clean();
}

#[test]
fn dfs_clean_stm_mlwt_noquiesce() {
    let cfg = Config::dfs(2, 300);
    explore(&cfg, || {
        snapshot_scenario(AlgoMode::StmCondvarNoQuiesce, 2, 2, 2)
    })
    .assert_clean();
}

#[test]
fn dfs_clean_stm_norec() {
    let cfg = Config::dfs(2, 300);
    explore(&cfg, || snapshot_scenario(AlgoMode::StmNorec, 2, 2, 2)).assert_clean();
}

#[test]
fn dfs_clean_htm() {
    let cfg = Config::dfs(2, 300);
    explore(&cfg, || snapshot_scenario(AlgoMode::HtmCondvar, 2, 2, 2)).assert_clean();
}

#[test]
fn dfs_clean_adaptive_htm() {
    let cfg = Config::dfs(2, 300);
    explore(&cfg, || snapshot_scenario(AlgoMode::AdaptiveHtm, 2, 2, 2)).assert_clean();
}

#[test]
fn dfs_clean_baseline() {
    let cfg = Config::dfs(2, 200);
    explore(&cfg, || snapshot_scenario(AlgoMode::Baseline, 2, 2, 2)).assert_clean();
}

#[test]
fn dfs_clean_three_threads() {
    // Three virtual threads widen every decision to arity 3; keep the
    // per-thread work minimal so the budget-2 tree stays small.
    let cfg = Config::dfs(2, 400);
    explore(&cfg, || snapshot_scenario(AlgoMode::StmCondvar, 3, 1, 2)).assert_clean();
}

#[test]
fn random_sampling_clean_across_modes() {
    for mode in [
        AlgoMode::StmCondvar,
        AlgoMode::StmNorec,
        AlgoMode::HtmCondvar,
    ] {
        let cfg = Config::random(0xBADC0DE, 40);
        explore(&cfg, || snapshot_scenario(mode, 2, 2, 2)).assert_clean();
    }
}

#[test]
fn dfs_clean_condvar_handoff() {
    let cfg = Config::dfs(2, 300);
    explore(&cfg, || handoff_scenario(AlgoMode::StmCondvar)).assert_clean();
}

/// An *application-level* race the kernels cannot save: read in one
/// critical section, write back in another. Every single section is
/// perfectly atomic, so the opacity oracle stays happy — only the
/// post-condition (and a preempting schedule) exposes the lost update.
/// This is the canary for the explorer itself: DFS must find the
/// interleaving, and the printed token must reproduce it.
fn racy_two_step() -> Scenario {
    use std::sync::Arc;
    use tle_base::TCell;
    use tle_core::{ElidableMutex, TmSystem};

    let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
    let lock = Arc::new(ElidableMutex::new("racy"));
    let cell = Arc::new(TCell::new(0u64));
    let init = vec![(cell.addr(), 0)];
    let mut threads: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    for _ in 0..2 {
        let sys = Arc::clone(&sys);
        let lock = Arc::clone(&lock);
        let cell = Arc::clone(&cell);
        threads.push(Box::new(move || {
            let th = sys.register();
            let v = th.tx(&lock).run(|ctx| ctx.read(&*cell));
            th.tx(&lock).run(|ctx| ctx.write(&*cell, v + 1));
        }));
    }
    let post_cell = Arc::clone(&cell);
    Scenario {
        threads,
        init,
        post: Box::new(move |_| {
            let v = post_cell.load_direct();
            if v != 2 {
                return Err(format!("lost update: cell = {v}, expected 2"));
            }
            Ok(())
        }),
    }
}

#[test]
fn dfs_finds_app_level_race_and_token_replays_it() {
    let cfg = Config::dfs(2, 500);
    let report = explore(&cfg, racy_two_step);
    let (token, kind) = report.expect_failure();
    assert!(
        matches!(kind, FailKind::Post(_)),
        "expected a post-condition failure, got: {kind}"
    );
    assert!(token.starts_with("d:"), "DFS token expected, got {token}");

    // The token alone must reproduce the failure on a fresh instance.
    let replayed = replay(&token, racy_two_step(), Duration::from_secs(2));
    match replayed {
        Some(FailKind::Post(_)) => {}
        other => panic!("replay of {token} diverged: {other:?}"),
    }

    // And replaying it again must keep reproducing it (determinism).
    let again = replay(&token, racy_two_step(), Duration::from_secs(2));
    assert!(
        matches!(again, Some(FailKind::Post(_))),
        "second replay of {token} diverged: {again:?}"
    );
}

#[test]
fn random_token_replays_deterministically() {
    // Find nothing (clean scenario), but verify that an `r:` token re-runs
    // without failure and without wedging — the seeded stream is stable.
    let fail = replay(
        "r:12345",
        snapshot_scenario(AlgoMode::StmCondvar, 2, 1, 2),
        Duration::from_secs(2),
    );
    assert!(
        fail.is_none(),
        "clean scenario failed under r:12345: {fail:?}"
    );
    let fail = replay(
        "r:12345",
        snapshot_scenario(AlgoMode::StmCondvar, 2, 1, 2),
        Duration::from_secs(2),
    );
    assert!(fail.is_none(), "replay diverged under r:12345: {fail:?}");
}
