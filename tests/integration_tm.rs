//! Cross-crate TM semantics: privatization, lock erasure, serial fallback,
//! quiescence accounting, and condition-variable behaviour, exercised
//! through the full public API.

use std::sync::Arc;
use tle_repro::base::stats::Stat;
use tle_repro::prelude::*;

/// The paper's privatization pattern: a transaction detaches a node, then
/// the owner accesses it non-transactionally. With `Always` quiescence no
/// concurrent doomed transaction may still be using it after the drain.
#[test]
fn privatization_pattern_is_safe_under_always() {
    let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
    let lock = Arc::new(ElidableMutex::new("priv"));
    // shared.0 = "detached" flag, shared.1 = payload cell
    let detached = Arc::new(TCell::new(false));
    let payload = Arc::new(TCell::new(0u64));

    let writer = {
        let sys = Arc::clone(&sys);
        let lock = Arc::clone(&lock);
        let detached = Arc::clone(&detached);
        let payload = Arc::clone(&payload);
        std::thread::spawn(move || {
            let th = sys.register();
            // Readers keep transactionally incrementing the payload until
            // they see the detach.
            loop {
                let saw_detached = th.tx(&lock).run(|ctx| {
                    if ctx.read(&*detached)? {
                        return Ok(true);
                    }
                    ctx.update(&*payload, |v| v + 1)?;
                    Ok(false)
                });
                if saw_detached {
                    break;
                }
            }
        })
    };

    let th = sys.register();
    std::thread::sleep(std::time::Duration::from_millis(10));
    // Privatize: after this commit (and its quiescence drain), no
    // transactional writer can still touch `payload`.
    th.tx(&lock).run(|ctx| {
        ctx.write(&*detached, true)?;
        Ok(())
    });
    let before = payload.load_direct();
    // Non-transactional access window.
    std::thread::sleep(std::time::Duration::from_millis(20));
    let after = payload.load_direct();
    writer.join().unwrap();
    assert_eq!(
        before, after,
        "a transactional write landed after privatization+quiescence"
    );
}

/// Lock erasure (paper §IV-A): two *different* locks under TM share one
/// conflict domain — transactions on disjoint locks still serialize
/// correctly with respect to each other when they touch the same data.
#[test]
fn lock_erasure_keeps_disjoint_locks_coherent() {
    let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
    let lock_a = Arc::new(ElidableMutex::new("A"));
    let lock_b = Arc::new(ElidableMutex::new("B"));
    let cell = Arc::new(TCell::new(0u64));
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let sys = Arc::clone(&sys);
            let lock = if i % 2 == 0 {
                Arc::clone(&lock_a)
            } else {
                Arc::clone(&lock_b)
            };
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                let th = sys.register();
                for _ in 0..5_000 {
                    th.tx(&lock).run(|ctx| {
                        ctx.update(&*cell, |v| v + 1)?;
                        Ok(())
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // NOTE: under the *baseline* two different locks would NOT protect the
    // same data — this test documents that TM-mode lock erasure does.
    assert_eq!(cell.load_direct(), 20_000);
}

/// Abort storms must escape to the serial path and still complete.
#[test]
fn abort_storm_escapes_to_serial() {
    use tle_repro::htm::HtmConfig;
    // An HTM configured to abort nearly always.
    let sys = Arc::new(
        TmSystem::builder()
            .mode(AlgoMode::HtmCondvar)
            .policy(TlePolicy {
                htm_retries: 2,
                ..TlePolicy::default()
            })
            .htm_config(HtmConfig {
                event_prob: 0.9,
                ..HtmConfig::default()
            })
            .build(),
    );
    let th = sys.register();
    let lock = ElidableMutex::new("stormy");
    let cell = TCell::new(0u64);
    for _ in 0..200 {
        th.tx(&lock).run(|ctx| {
            ctx.update(&cell, |v| v + 1)?;
            Ok(())
        });
    }
    assert_eq!(cell.load_direct(), 200);
    assert!(
        sys.stats.get(Stat::SerialFallbacks) > 100,
        "expected most sections to serialize, got {}",
        sys.stats.get(Stat::SerialFallbacks)
    );
}

/// Quiescence accounting over Figure 5's three configurations: STM drains
/// every commit; SelectNoQ only the unannotated ones; NoQ none (except
/// frees). Every section here is annotated.
#[test]
fn quiesce_accounting_matches_policy() {
    for (mode, policy, expect_drains, expect_skips) in [
        (AlgoMode::StmCondvar, QuiescePolicy::Always, true, false),
        (
            AlgoMode::StmCondvarNoQuiesce,
            QuiescePolicy::Always,
            false,
            true,
        ),
        (AlgoMode::StmCondvar, QuiescePolicy::Never, false, true),
    ] {
        let sys = Arc::new(TmSystem::new(mode));
        sys.stm.set_policy(policy);
        let th = sys.register();
        let lock = ElidableMutex::new("q");
        let cell = TCell::new(0u64);
        for _ in 0..100 {
            th.tx(&lock).run(|ctx| {
                ctx.update(&cell, |v| v + 1)?;
                ctx.no_quiesce();
                Ok(())
            });
        }
        let snap = sys.stm.stats.snapshot();
        let row = format!("{mode:?}, {policy:?}");
        assert_eq!(snap.quiesces > 0, expect_drains, "{row} drains");
        assert_eq!(snap.quiesce_skipped > 0, expect_skips, "{row} skips");
    }
}

/// Timed waits expire and the closure re-runs (x265's soft real-time
/// requirement, paper §VI-d).
#[test]
fn timed_wait_expires_under_every_mode() {
    for mode in ALL_MODES {
        if mode == AlgoMode::StmSpin {
            continue; // spin mode has no timed blocking
        }
        let sys = Arc::new(TmSystem::new(mode));
        let th = sys.register();
        let lock = ElidableMutex::new("t");
        let cv = TxCondvar::new();
        let never_set = TCell::new(false);
        let mut wakes = 0u32;
        let t0 = std::time::Instant::now();
        let r = th.tx(&lock).run(|ctx| {
            if !ctx.read(&never_set)? {
                wakes += 1;
                if wakes > 3 {
                    return Ok(false); // give up after 3 timeouts
                }
                return ctx
                    .wait(&cv, Some(std::time::Duration::from_millis(10)))
                    .map(|_| false);
            }
            Ok(true)
        });
        assert!(!r);
        assert!(
            t0.elapsed() >= std::time::Duration::from_millis(25),
            "timeouts did not elapse under {mode:?}"
        );
        assert_eq!(
            wakes, 4,
            "expected 3 timeout wakeups + final give-up under {mode:?}"
        );
    }
}

/// Deferred logging (paper §VI-c): log lines appear exactly once per
/// completed section, never for aborted attempts.
#[test]
fn deferred_logging_is_exactly_once_under_contention() {
    for mode in [AlgoMode::StmCondvar, AlgoMode::HtmCondvar] {
        let sys = Arc::new(TmSystem::new(mode));
        let lock = Arc::new(ElidableMutex::new("log"));
        let cell = Arc::new(TCell::new(0u64));
        let log = Arc::new(parking_lot::Mutex::new(Vec::<u64>::new()));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let sys = Arc::clone(&sys);
                let lock = Arc::clone(&lock);
                let cell = Arc::clone(&cell);
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    let th = sys.register();
                    for _ in 0..1_000 {
                        let log2 = Arc::clone(&log);
                        let cell2 = Arc::clone(&cell);
                        th.tx(&lock).run(move |ctx| {
                            let v = ctx.update(&*cell2, |v| v + 1)?;
                            let log3 = Arc::clone(&log2);
                            ctx.defer(move || log3.lock().push(v));
                            Ok(())
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut lines = log.lock().clone();
        lines.sort_unstable();
        let expect: Vec<u64> = (1..=4_000).collect();
        assert_eq!(lines, expect, "log lines lost or duplicated under {mode:?}");
    }
}

/// Explicit cancel rolls everything back under TM modes.
#[test]
fn explicit_cancel_discards_effects() {
    for mode in [
        AlgoMode::StmCondvar,
        AlgoMode::StmCondvarNoQuiesce,
        AlgoMode::HtmCondvar,
    ] {
        let sys = Arc::new(TmSystem::new(mode));
        let th = sys.register();
        let lock = ElidableMutex::new("c");
        let cell = TCell::new(5u64);
        let mut attempts = 0;
        let out = th.tx(&lock).run(|ctx| {
            attempts += 1;
            if attempts == 1 {
                ctx.write(&cell, 99u64)?;
                return Err(ctx.cancel());
            }
            ctx.read(&cell)
        });
        assert_eq!(out, 5, "cancelled write leaked under {mode:?}");
        assert_eq!(cell.load_direct(), 5);
        assert_eq!(attempts, 2);
    }
}

/// Nested critical sections are rejected loudly (the §V non-2PL problem —
/// silently flattening would release the outer transaction's metadata at
/// the inner commit).
#[test]
#[should_panic(expected = "nested critical sections")]
fn nested_critical_sections_panic() {
    let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
    let th = sys.register();
    let outer = ElidableMutex::new("outer");
    let inner = ElidableMutex::new("inner");
    let cell = TCell::new(0u64);
    th.tx(&outer).run(|_| {
        // tle-lint: allow(R2, "deliberate x265-class nesting: this test pins the runtime's loud rejection of nested sections")
        th.tx(&inner).run(|ctx| {
            ctx.update(&cell, |v| v + 1)?;
            Ok(())
        });
        Ok(())
    });
}

/// The paper's Listing 1: proxy privatization. A producer transactionally
/// hands a message through a vector slot; a *proxy* transaction moves it
/// on; the final owner uses it non-transactionally. GCC moved to
/// quiesce-after-every-transaction precisely to support this idiom — the
/// privatizing transaction here is a *reader*.
#[test]
fn proxy_privatization_listing1() {
    let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
    let lock = Arc::new(ElidableMutex::new("vec"));
    // vec[k] slots; values are message ids (0 = null).
    let slots: Arc<Vec<TCell<u64>>> = Arc::new((0..8).map(|_| TCell::new(0)).collect());
    let consumed = Arc::new(parking_lot::Mutex::new(Vec::<u64>::new()));
    const MSGS: u64 = 500;

    // Update thread: publishes each message into some empty slot
    // (retrying until a slot frees up).
    let updater = {
        let sys = Arc::clone(&sys);
        let lock = Arc::clone(&lock);
        let slots = Arc::clone(&slots);
        std::thread::spawn(move || {
            let th = sys.register();
            for msg in 1..=MSGS {
                loop {
                    let published = th.tx(&lock).run(|ctx| {
                        for k in 0..slots.len() {
                            if ctx.read(&slots[k])? == 0 {
                                ctx.write(&slots[k], msg)?;
                                ctx.no_quiesce(); // publication only
                                return Ok(true);
                            }
                        }
                        Ok(false)
                    });
                    if published {
                        break;
                    }
                    std::thread::yield_now();
                }
            }
        })
    };
    // Proxy thread: privatizes by swapping a slot to null; the extracted
    // message is then used non-transactionally.
    let proxy = {
        let sys = Arc::clone(&sys);
        let lock = Arc::clone(&lock);
        let slots = Arc::clone(&slots);
        let consumed = Arc::clone(&consumed);
        std::thread::spawn(move || {
            let th = sys.register();
            let mut got = 0u64;
            while got < MSGS {
                let msg = th.tx(&lock).run(|ctx| {
                    for k in 0..slots.len() {
                        let m = ctx.read(&slots[k])?;
                        if m != 0 {
                            ctx.write(&slots[k], 0u64)?;
                            // Privatizing: default quiescence applies.
                            return Ok(m);
                        }
                    }
                    ctx.no_quiesce(); // found nothing: no privatization
                    Ok(0)
                });
                if msg != 0 {
                    // use(msg): non-transactional access window.
                    consumed.lock().push(msg);
                    got += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        })
    };
    updater.join().unwrap();
    proxy.join().unwrap();
    let consumed = consumed.lock();
    assert_eq!(consumed.len(), MSGS as usize);
    assert!(consumed.iter().all(|&m| (1..=MSGS).contains(&m)));
}
