//! Deterministic condvar coverage (Wang-style transaction-friendly
//! condition variables, paper §VI-d) under the model checker:
//!
//! - **commit-then-block**: the predicate check and the waiter registration
//!   commit atomically, so no interleaving of producer and consumer loses
//!   the wakeup — explored exhaustively per mode instead of hoping the
//!   stress scheduler hits the bad window;
//! - **signal races timeout**: a timed waiter and a signaller race; either
//!   winner must leave the ring consistent (the loser's entry is removed or
//!   falls on the floor harmlessly) — transactionally under the TM modes,
//!   under total exclusion under the baseline;
//! - **deferred signal**: a signaller whose attempt aborts after calling
//!   `signal` must wake no one — only the committed retry delivers.

mod common;

use common::handoff_scenario;
use std::sync::Arc;
use std::time::Duration;
use tle_base::TCell;
use tle_check::{explore, Config, Scenario};
use tle_core::{AlgoMode, ElidableMutex, TmSystem, TxCondvar};

#[test]
fn commit_then_block_stm_mlwt() {
    explore(&Config::dfs(2, 300), || {
        handoff_scenario(AlgoMode::StmCondvar)
    })
    .assert_clean();
}

#[test]
fn commit_then_block_stm_norec() {
    explore(&Config::dfs(2, 300), || {
        handoff_scenario(AlgoMode::StmNorec)
    })
    .assert_clean();
}

#[test]
fn commit_then_block_htm() {
    explore(&Config::dfs(2, 300), || {
        handoff_scenario(AlgoMode::HtmCondvar)
    })
    .assert_clean();
}

#[test]
fn commit_then_block_adaptive_htm() {
    explore(&Config::dfs(2, 300), || {
        handoff_scenario(AlgoMode::AdaptiveHtm)
    })
    .assert_clean();
}

#[test]
fn commit_then_block_baseline() {
    explore(&Config::dfs(2, 200), || {
        handoff_scenario(AlgoMode::Baseline)
    })
    .assert_clean();
}

/// A timed waiter whose signal may land before, after, or instead of the
/// timeout. Whoever wins, the consumer must end up observing the value:
/// a signal delivery hands it over directly, a timeout cancels the ring
/// entry (`cancel_wait`) and the re-run closure reads the flag. A stale or
/// misdelivered ring entry would strand the consumer (deadlock) or wake it
/// into a torn state (opacity/assert failure).
fn timed_handoff(mode: AlgoMode, signal: bool) -> Scenario {
    let sys = Arc::new(TmSystem::new(mode));
    let lock = Arc::new(ElidableMutex::new("check-timed"));
    let cv = Arc::new(TxCondvar::new());
    let flag = Arc::new(TCell::new(0u64));
    let value = Arc::new(TCell::new(0u64));
    let seen = Arc::new(TCell::new(0u64));
    let init = vec![(flag.addr(), 0), (value.addr(), 0), (seen.addr(), 0)];

    let consumer: Box<dyn FnOnce() + Send> = {
        let sys = Arc::clone(&sys);
        let lock = Arc::clone(&lock);
        let cv = Arc::clone(&cv);
        let flag = Arc::clone(&flag);
        let value = Arc::clone(&value);
        let seen = Arc::clone(&seen);
        Box::new(move || {
            let th = sys.register();
            let got = th.tx(&lock).run(|ctx| {
                if ctx.read(&*flag)? == 0 {
                    // Short timeout: the producer runs while we are parked,
                    // so a timed-out retry re-reads the flag as set.
                    return ctx.wait(&cv, Some(Duration::from_millis(3))).map(|_| 0);
                }
                let v = ctx.read(&*value)?;
                ctx.write(&*seen, v)?;
                Ok(v)
            });
            assert_eq!(got, 55, "consumer finished without the handoff");
        })
    };
    let producer: Box<dyn FnOnce() + Send> = {
        let sys = Arc::clone(&sys);
        let lock = Arc::clone(&lock);
        let cv = Arc::clone(&cv);
        let flag = Arc::clone(&flag);
        let value = Arc::clone(&value);
        Box::new(move || {
            let th = sys.register();
            th.tx(&lock).run(|ctx| {
                ctx.write(&*value, 55u64)?;
                ctx.write(&*flag, 1u64)?;
                if signal {
                    ctx.signal(&cv)?;
                }
                Ok(())
            });
        })
    };

    let post_seen = Arc::clone(&seen);
    Scenario {
        threads: vec![consumer, producer],
        init,
        post: Box::new(move |_| {
            let v = post_seen.load_direct();
            if v != 55 {
                return Err(format!("consumer recorded {v}, expected 55"));
            }
            Ok(())
        }),
    }
}

#[test]
fn signal_races_timeout_stm() {
    explore(&Config::dfs(2, 150), || {
        timed_handoff(AlgoMode::StmCondvar, true)
    })
    .assert_clean();
}

#[test]
fn signal_races_timeout_htm() {
    explore(&Config::dfs(2, 150), || {
        timed_handoff(AlgoMode::HtmCondvar, true)
    })
    .assert_clean();
}

/// No signal at all: every wakeup is a timeout, every timeout runs
/// `cancel_wait` (the ring removal, a section of its own on the lock), and
/// the consumer still converges because the producer's flag write lands
/// while it is parked.
#[test]
fn timeout_cancellation_converges_without_signal() {
    explore(&Config::dfs(2, 150), || {
        timed_handoff(AlgoMode::StmCondvar, false)
    })
    .assert_clean();
}

/// The baseline's timed waiter: it registered on the ring under the mutex,
/// and a timeout leaves it through `cancel_wait`'s removal section, which
/// takes the mutex too, while the producer races it for the mutex.
#[test]
fn signal_races_timeout_baseline() {
    explore(&Config::dfs(2, 150), || {
        timed_handoff(AlgoMode::Baseline, true)
    })
    .assert_clean();
}

/// The baseline's no-signal case: every wakeup is a timeout and every
/// timeout a removal section under the mutex.
#[test]
fn timeout_cancellation_converges_without_signal_baseline() {
    explore(&Config::dfs(2, 150), || {
        timed_handoff(AlgoMode::Baseline, false)
    })
    .assert_clean();
}

/// Adaptive elision's timed waiter: the removal section subscribes to the
/// lock word, or takes it after its retries, like any section on the lock.
#[test]
fn signal_races_timeout_adaptive_htm() {
    explore(&Config::dfs(2, 150), || {
        timed_handoff(AlgoMode::AdaptiveHtm, true)
    })
    .assert_clean();
}

#[test]
fn timeout_cancellation_converges_without_signal_adaptive_htm() {
    explore(&Config::dfs(2, 150), || {
        timed_handoff(AlgoMode::AdaptiveHtm, false)
    })
    .assert_clean();
}

/// NOrec's timed waiter: the removal section is a NOrec transaction.
#[test]
fn signal_races_timeout_norec() {
    explore(&Config::dfs(2, 150), || {
        timed_handoff(AlgoMode::StmNorec, true)
    })
    .assert_clean();
}

#[test]
fn timeout_cancellation_converges_without_signal_norec() {
    explore(&Config::dfs(2, 150), || {
        timed_handoff(AlgoMode::StmNorec, false)
    })
    .assert_clean();
}

/// Deferred-signal semantics: the signaller's first attempt writes, signals
/// and then cancels; the aborted attempt must wake no one (its dequeue
/// rolls back with it). Only the committed retry delivers — so the woken
/// consumer always observes the flag set. An eager signal delivery would
/// either wake the consumer into flag == 0 or strand it with a consumed
/// ring entry.
fn aborted_signaller(mode: AlgoMode) -> Scenario {
    let sys = Arc::new(TmSystem::new(mode));
    let lock = Arc::new(ElidableMutex::new("check-abort-sig"));
    let cv = Arc::new(TxCondvar::new());
    let flag = Arc::new(TCell::new(0u64));
    let value = Arc::new(TCell::new(0u64));
    let seen = Arc::new(TCell::new(0u64));
    let init = vec![(flag.addr(), 0), (value.addr(), 0), (seen.addr(), 0)];

    let consumer: Box<dyn FnOnce() + Send> = {
        let sys = Arc::clone(&sys);
        let lock = Arc::clone(&lock);
        let cv = Arc::clone(&cv);
        let flag = Arc::clone(&flag);
        let value = Arc::clone(&value);
        let seen = Arc::clone(&seen);
        Box::new(move || {
            let th = sys.register();
            let got = th.tx(&lock).run(|ctx| {
                if ctx.read(&*flag)? == 0 {
                    return ctx.wait(&cv, None).map(|_| 0);
                }
                let v = ctx.read(&*value)?;
                ctx.write(&*seen, v)?;
                Ok(v)
            });
            assert_eq!(got, 55, "consumer woke without the committed handoff");
        })
    };
    let producer: Box<dyn FnOnce() + Send> = {
        let sys = Arc::clone(&sys);
        let lock = Arc::clone(&lock);
        let cv = Arc::clone(&cv);
        let flag = Arc::clone(&flag);
        let value = Arc::clone(&value);
        Box::new(move || {
            let th = sys.register();
            let mut cancelled = false;
            th.tx(&lock).run(|ctx| {
                ctx.write(&*value, 55u64)?;
                ctx.write(&*flag, 1u64)?;
                ctx.signal(&cv)?;
                // Cancel only inside a real transaction: retries that burn
                // the HTM budget fall back to serial-irrevocable mode,
                // where cancel is (correctly) a panic.
                if !cancelled && ctx.is_transactional() {
                    cancelled = true;
                    return Err(ctx.cancel());
                }
                Ok(())
            });
        })
    };

    let post_seen = Arc::clone(&seen);
    Scenario {
        threads: vec![consumer, producer],
        init,
        post: Box::new(move |_| {
            let v = post_seen.load_direct();
            if v != 55 {
                return Err(format!("consumer recorded {v}, expected 55"));
            }
            Ok(())
        }),
    }
}

#[test]
fn aborted_signal_wakes_no_one_stm() {
    explore(&Config::dfs(2, 200), || {
        aborted_signaller(AlgoMode::StmCondvar)
    })
    .assert_clean();
}

#[test]
fn aborted_signal_wakes_no_one_htm() {
    explore(&Config::dfs(2, 200), || {
        aborted_signaller(AlgoMode::HtmCondvar)
    })
    .assert_clean();
}
