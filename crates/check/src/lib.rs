//! # tle-check — deterministic model checking for the TLE TM kernels
//!
//! Stress tests sample whatever interleavings the OS happens to produce;
//! the bugs that matter in a TM runtime (a validation skipped, a quiescence
//! drain dropped, orecs released a few instructions early, one lost condvar
//! signal) hide in interleavings the OS may never produce on a given
//! machine. This crate *drives* the interleavings instead:
//!
//! - [`vthread`] — a loom-style cooperative scheduler: real OS threads, one
//!   token, a switch decision at every TM-relevant atomic (announced by the
//!   kernels through `tle_base::sched`, feature `check`).
//! - [`cursor`] — replayable schedule descriptions: DFS paths with bounded
//!   preemptions, seeded random streams, and printed `d:…` / `r:…` tokens.
//! - [`oracle`] — an offline opacity checker replaying the transactional
//!   history (the `check` sink of `tle_base::trace::emit`) against a
//!   sequential oracle: committed writers must replay strictly in commit
//!   order, and every other transaction — including doomed zombies — must
//!   have seen *some* consistent snapshot. Violations come with a minimal
//!   violating prefix.
//! - [`explore()`] — ties them together: enumerate schedules over fresh
//!   scenario instances, judge each by run outcome + opacity verdict +
//!   post-condition, report the first failure with its replay token.
//!
//! The harness validates itself by **mutation**: `tle_base::mutant`
//! (feature `check`) seeds known TM bugs — skipped commit
//! validation, dropped quiescence, early orec release, a lost condvar
//! signal, a skipped HTM doom check — and the `check_mutants` test binary
//! asserts the explorer catches every one with a replayable schedule, while
//! the unmutated kernels pass the same exploration clean.

pub mod cursor;
pub mod explore;
pub mod oracle;
pub mod vthread;

pub use cursor::Cursor;
pub use explore::{explore, replay, Config, FailKind, Report, Scenario, Strategy};
pub use oracle::{check_history, check_history_with_init, Verdict};
pub use vthread::{run_schedule, Failure, RunResult};
