//! Schedule enumeration: DFS with bounded preemptions, or seeded random
//! sampling, over [`run_schedule`].
//!
//! Each schedule runs a *fresh* scenario (the factory builds new state and
//! new thread closures every time), records the transactional history, and
//! judges the run three ways:
//!
//! 1. the virtual-thread core's own outcome (panic inside a closure, or a
//!    deadlock / livelock);
//! 2. the offline opacity checker over the recorded history;
//! 3. the scenario's post-condition over final state.
//!
//! The first failure stops exploration and is reported with its replayable
//! **schedule token** (`d:...` rank list or `r:seed`); feed the token to
//! [`replay`] to reproduce the exact interleaving.

use crate::cursor::Cursor;
use crate::oracle::{self, Verdict};
use crate::vthread::{run_schedule, Failure};
use std::time::Duration;
use tle_base::history;
use tle_base::trace::TxEvent;

/// How to enumerate schedules.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// Depth-first over recorded decisions with at most `budget`
    /// preemptions per schedule, capped at `max_schedules` runs.
    Dfs {
        /// Preemptions allowed per schedule.
        budget: u32,
        /// Hard cap on schedules explored.
        max_schedules: usize,
    },
    /// `schedules` runs with seeds derived from `seed`.
    Random {
        /// Base seed; schedule i runs with seed `splitmix(seed, i)`.
        seed: u64,
        /// Number of schedules to sample.
        schedules: usize,
    },
}

/// Exploration configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Enumeration strategy.
    pub strategy: Strategy,
    /// How long the step counter may freeze before a run is declared dead.
    pub stall_timeout: Duration,
}

impl Config {
    /// DFS with the given preemption budget and schedule cap.
    pub fn dfs(budget: u32, max_schedules: usize) -> Self {
        Config {
            strategy: Strategy::Dfs {
                budget,
                max_schedules,
            },
            stall_timeout: Duration::from_secs(2),
        }
    }

    /// Random sampling.
    pub fn random(seed: u64, schedules: usize) -> Self {
        Config {
            strategy: Strategy::Random { seed, schedules },
            stall_timeout: Duration::from_secs(2),
        }
    }
}

/// One scenario instance: thread closures plus a post-condition.
pub struct Scenario {
    /// The virtual threads (fresh state captured inside).
    pub threads: Vec<Box<dyn FnOnce() + Send>>,
    /// Known initial `(addr, value)` pairs for the opacity checker (closes
    /// the first-read binding blind spot).
    pub init: Vec<(usize, u64)>,
    /// Post-condition over the final state, run after the threads joined.
    /// Return `Err` to fail the schedule.
    #[allow(clippy::type_complexity)]
    pub post: Box<dyn FnOnce(&[TxEvent]) -> Result<(), String>>,
}

/// Why an explored schedule failed.
#[derive(Debug, Clone)]
pub enum FailKind {
    /// Panic or deadlock inside the run.
    Run(String),
    /// The opacity checker rejected the recorded history.
    Opacity(String),
    /// The scenario's post-condition failed.
    Post(String),
}

impl std::fmt::Display for FailKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailKind::Run(m) => write!(f, "run failed: {m}"),
            FailKind::Opacity(m) => write!(f, "opacity violation: {m}"),
            FailKind::Post(m) => write!(f, "post-condition failed: {m}"),
        }
    }
}

/// Result of an exploration.
#[derive(Debug)]
pub struct Report {
    /// Schedules executed.
    pub schedules: usize,
    /// First failing schedule, if any: (replayable token, failure).
    pub failure: Option<(String, FailKind)>,
}

impl Report {
    /// Panic (with the replay token) if any schedule failed.
    pub fn assert_clean(&self) {
        if let Some((token, kind)) = &self.failure {
            panic!(
                "schedule {token} failed after {} schedules: {kind}",
                self.schedules
            );
        }
    }

    /// Panic unless some schedule failed; returns the token and failure.
    pub fn expect_failure(&self) -> (String, FailKind) {
        match &self.failure {
            Some((token, kind)) => (token.clone(), kind.clone()),
            None => panic!(
                "expected a failing schedule, but {} schedules passed clean",
                self.schedules
            ),
        }
    }
}

/// Run one schedule described by `cursor` over a fresh scenario.
fn run_one(
    cursor: Cursor,
    scenario: Scenario,
    stall_timeout: Duration,
) -> (Cursor, Option<FailKind>) {
    let rec = history::record();
    let result = run_schedule(cursor, scenario.threads, stall_timeout);
    let events = rec.finish();
    let fail = match result.failure {
        Some(Failure::Panic(m)) => Some(FailKind::Run(m)),
        Some(Failure::Deadlock(m)) => Some(FailKind::Run(format!("deadlock: {m}"))),
        None => match oracle::check_history_with_init(&events, scenario.init.iter().copied()) {
            Verdict::Violation { prefix_len, reason } => Some(FailKind::Opacity(format!(
                "minimal prefix {prefix_len}: {reason}"
            ))),
            Verdict::Consistent { .. } => (scenario.post)(&events).err().map(FailKind::Post),
        },
    };
    (result.cursor, fail)
}

/// Explore schedules of `factory`-built scenarios under `cfg`. Stops at the
/// first failure (reported with its schedule token) or when the strategy is
/// exhausted.
pub fn explore<F>(cfg: &Config, mut factory: F) -> Report
where
    F: FnMut() -> Scenario,
{
    match cfg.strategy {
        Strategy::Dfs {
            budget,
            max_schedules,
        } => {
            let mut cursor = Cursor::dfs(budget);
            let mut schedules = 0;
            loop {
                schedules += 1;
                let (after, fail) = run_one(cursor, factory(), cfg.stall_timeout);
                cursor = after;
                if let Some(kind) = fail {
                    return Report {
                        schedules,
                        failure: Some((cursor.token(), kind)),
                    };
                }
                if schedules >= max_schedules || !cursor.advance() {
                    return Report {
                        schedules,
                        failure: None,
                    };
                }
                cursor.rewind(budget);
            }
        }
        Strategy::Random { seed, schedules } => {
            for i in 0..schedules {
                let mut s = seed.wrapping_add(i as u64);
                let derived = tle_base::rng::splitmix64(&mut s);
                let cursor = Cursor::random(derived);
                let token = cursor.token();
                let (_, fail) = run_one(cursor, factory(), cfg.stall_timeout);
                if let Some(kind) = fail {
                    return Report {
                        schedules: i + 1,
                        failure: Some((token, kind)),
                    };
                }
            }
            Report {
                schedules,
                failure: None,
            }
        }
    }
}

/// Re-run a single schedule from a printed token (`d:...` or `r:...`).
pub fn replay(token: &str, scenario: Scenario, stall_timeout: Duration) -> Option<FailKind> {
    let cursor = Cursor::parse(token).unwrap_or_else(|e| panic!("bad schedule token: {e}"));
    run_one(cursor, scenario, stall_timeout).1
}
