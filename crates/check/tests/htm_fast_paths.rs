//! Explorer suites for the simulated HTM's fast paths (DESIGN.md §2):
//!
//! - **claim-on-update** — `update`'s read claims the line's writer word
//!   before it loads, so the line never carries the slot's reader bit;
//! - **the read-only commit** — an attempt with an empty redo log commits
//!   on one state-word load instead of winning the `ACTIVE → COMMITTED`
//!   commit point;
//! - **writer tags** — a claim ends with its attempt, with no store to the
//!   table, and a slot claimed again never repeats a tag.
//!
//! Each scenario exhausts a bounded DFS on both drivers, and every recorded
//! history goes through the opacity oracle, which judges a read-only HTM
//! commit at its commit event. The mutation matrix (`tests/mutants.rs`)
//! arms `HtmUpdateSkipsClaim`, `HtmReadOnlyCommitIgnoresDoom` and
//! `HtmCommittedClaimReadsStale` against the same builders.

mod common;

use common::{torn_pair_scenario, update_pair_scenario, update_trio_scenario};
use tle_check::{explore, Config};
use tle_core::AlgoMode;

/// Two `update`s of one line: both increments land, whichever claims the
/// line second dooms the first or retries against its commit.
#[test]
fn dfs_clean_two_updates_of_one_line() {
    for mode in [AlgoMode::HtmCondvar, AlgoMode::AdaptiveHtmLazy] {
        for async_driver in [false, true] {
            explore(&Config::dfs(2, 400), || {
                update_pair_scenario(mode, async_driver)
            })
            .assert_clean();
        }
    }
}

/// A read-only section reads two cells while a hardware writer commits
/// both: the reader sees the pair whole, before or after, and commits only
/// if no writer replaced it before its state load.
#[test]
fn dfs_clean_read_only_section_beside_a_committing_writer() {
    for async_driver in [false, true] {
        explore(&Config::dfs(2, 400), || {
            torn_pair_scenario(AlgoMode::HtmCondvar, false, async_driver)
        })
        .assert_clean();
    }
}

/// A read-only lazily subscribed section races a lock acquisition whose
/// holder stores the pair directly: the acquire's doom-all sweep either
/// dooms the reader before its state load (abort, retry after the release)
/// or meets a section whose reads are already complete.
#[test]
fn dfs_clean_lazy_read_only_section_racing_a_lock_acquisition() {
    for async_driver in [false, true] {
        explore(&Config::dfs(2, 800), || {
            torn_pair_scenario(AlgoMode::AdaptiveHtmLazy, true, async_driver)
        })
        .assert_clean();
    }
}

/// Three `update`s of one line over two vthreads, with slots released and
/// claimed again mid-race: every increment lands.
#[test]
fn dfs_clean_transient_claims_reusing_slots_mid_race() {
    for async_driver in [false, true] {
        explore(&Config::dfs(2, 400), || {
            update_trio_scenario(AlgoMode::HtmCondvar, async_driver)
        })
        .assert_clean();
    }
}
