//! # tle-core — Transactional Lock Elision runtime
//!
//! This crate is the reproduction of the paper's central artifact: a TLE
//! runtime in the style of the C++ TM Technical Specification as implemented
//! by GCC, with the extensions the paper proposes. It glues together the
//! `ml_wt` STM (`tle-stm`), the simulated best-effort HTM (`tle-htm`) and
//! the global serialization gate into a single system against which the
//! applications (`tle-pbz`, `tle-wfe`) and microbenchmarks (`tle-txset`)
//! are written **once**, then run under any of the paper's five algorithms:
//!
//! | [`AlgoMode`]             | Paper legend              |
//! |--------------------------|---------------------------|
//! | `Baseline`               | pthreads (original locks) |
//! | `StmSpin`                | STM + Spin                |
//! | `StmCondvar`             | STM + CondVar             |
//! | `StmCondvarNoQuiesce`    | STM + CondVar + NoQuiesce |
//! | `HtmCondvar`             | HTM + CondVar             |
//!
//! Critical sections are expressed as closures over a [`TxCtx`]; under
//! `Baseline` the [`ElidableMutex`] really locks and accesses go straight to
//! memory, under the TM modes the lock is *erased* (paper §IV-A) and the
//! closure runs as a transaction with automatic retry, contention backoff
//! and serial-irrevocable fallback. Waiting uses [`TxCondvar`]s — Wang-style
//! transaction-friendly condition variables with deferred signals and timed
//! waits (paper §VI-d).

mod condvar;
mod ctx;
mod domain;
mod elide;
mod runner;
mod runner_async;
mod system;

pub use condvar::TxCondvar;
pub use ctx::{TxCtx, TxError};
pub use domain::{
    admission_decide, decide, AdaptiveConfig, AdmissionConfig, AdmissionStep, ModeSwitchEvent,
    SwitchReason,
};
pub use elide::ElidableMutex;
pub use system::{
    AlgoMode, ControllerHandle, DomainStats, InvalidAlgoMode, ParseAlgoModeError, ThreadHandle,
    TlePolicy, TmSystem, TmSystemBuilder, TxHints, TxRequest,
};

/// Convenience result type for transactional closures.
pub type TxResult<T> = Result<T, TxError>;

/// All five algorithm modes, in the order the paper's figures list them.
pub const ALL_MODES: [AlgoMode; 5] = [
    AlgoMode::Baseline,
    AlgoMode::StmSpin,
    AlgoMode::StmCondvar,
    AlgoMode::StmCondvarNoQuiesce,
    AlgoMode::HtmCondvar,
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tle_base::stats::Stat;
    use tle_base::TCell;

    #[test]
    fn counter_is_exact_under_every_mode() {
        for mode in ALL_MODES {
            let sys = Arc::new(TmSystem::new(mode));
            let lock = Arc::new(ElidableMutex::new("counter"));
            let cell = Arc::new(TCell::new(0u64));
            const THREADS: usize = 4;
            const OPS: u64 = 1_000;
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let sys = Arc::clone(&sys);
                    let lock = Arc::clone(&lock);
                    let cell = Arc::clone(&cell);
                    std::thread::spawn(move || {
                        let th = sys.register();
                        for _ in 0..OPS {
                            th.tx(&lock).run(|ctx| {
                                let v = ctx.read(&*cell)?;
                                ctx.write(&*cell, v + 1)?;
                                Ok(())
                            });
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(
                cell.load_direct(),
                THREADS as u64 * OPS,
                "lost updates under {mode:?}"
            );
        }
    }

    #[test]
    fn bank_transfer_invariant_under_every_mode() {
        // Total balance is conserved under concurrent transfers.
        for mode in ALL_MODES {
            let sys = Arc::new(TmSystem::new(mode));
            let lock = Arc::new(ElidableMutex::new("bank"));
            let accounts: Arc<Vec<TCell<i64>>> =
                Arc::new((0..16).map(|_| TCell::new(100)).collect());
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let sys = Arc::clone(&sys);
                    let lock = Arc::clone(&lock);
                    let accounts = Arc::clone(&accounts);
                    std::thread::spawn(move || {
                        let th = sys.register();
                        let mut rng = tle_base::rng::XorShift64::new(t as u64);
                        for _ in 0..2_000 {
                            let from = rng.below(16) as usize;
                            let to = rng.below(16) as usize;
                            let amt = rng.below(10) as i64;
                            th.tx(&lock).run(|ctx| {
                                let f = ctx.read(&accounts[from])?;
                                let tv = ctx.read(&accounts[to])?;
                                if from != to {
                                    ctx.write(&accounts[from], f - amt)?;
                                    ctx.write(&accounts[to], tv + amt)?;
                                }
                                Ok(())
                            });
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let total: i64 = accounts.iter().map(|a| a.load_direct()).sum();
            assert_eq!(total, 1600, "balance leaked under {mode:?}");
        }
    }

    #[test]
    fn deferred_actions_run_exactly_once_after_commit() {
        for mode in ALL_MODES {
            let sys = Arc::new(TmSystem::new(mode));
            let lock = ElidableMutex::new("defer");
            let th = sys.register();
            let hits = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            for _ in 0..10 {
                let hits2 = Arc::clone(&hits);
                th.tx(&lock).run(move |ctx| {
                    let hits3 = Arc::clone(&hits2);
                    ctx.defer(move || {
                        hits3.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    });
                    Ok(())
                });
            }
            assert_eq!(
                hits.load(std::sync::atomic::Ordering::SeqCst),
                10,
                "defer miscount under {mode:?}"
            );
        }
    }

    #[test]
    fn unsafe_op_serializes_and_completes() {
        for mode in ALL_MODES {
            let sys = Arc::new(TmSystem::new(mode));
            let lock = ElidableMutex::new("io");
            let th = sys.register();
            let cell = TCell::new(0u64);
            let out = th.tx(&lock).run(|ctx| {
                ctx.unsafe_op()?; // e.g. logging while locked
                let v = ctx.read(&cell)?;
                ctx.write(&cell, v + 1)?;
                Ok(v)
            });
            assert_eq!(out, 0);
            assert_eq!(
                cell.load_direct(),
                1,
                "unsafe path lost the write under {mode:?}"
            );
        }
    }

    #[test]
    fn producer_consumer_with_condvar_all_modes() {
        for mode in ALL_MODES {
            let sys = Arc::new(TmSystem::new(mode));
            let lock = Arc::new(ElidableMutex::new("pc"));
            let cv = Arc::new(TxCondvar::new());
            let flag = Arc::new(TCell::new(0u64));
            let value = Arc::new(TCell::new(0u64));

            let consumer = {
                let sys = Arc::clone(&sys);
                let lock = Arc::clone(&lock);
                let cv = Arc::clone(&cv);
                let flag = Arc::clone(&flag);
                let value = Arc::clone(&value);
                std::thread::spawn(move || {
                    let th = sys.register();
                    th.tx(&lock).run(|ctx| {
                        if ctx.read(&*flag)? == 0 {
                            return ctx.wait(&cv, None).map(|_| 0);
                        }
                        ctx.read(&*value)
                    })
                })
            };

            std::thread::sleep(std::time::Duration::from_millis(30));
            let th = sys.register();
            th.tx(&lock).run(|ctx| {
                ctx.write(&*value, 55u64)?;
                ctx.write(&*flag, 1u64)?;
                ctx.signal(&cv)?;
                Ok(())
            });
            let got = consumer.join().unwrap();
            assert_eq!(got, 55, "consumer read wrong value under {mode:?}");
        }
    }

    #[test]
    fn retry_hints_reduce_serial_fallbacks() {
        use tle_htm::HtmConfig;
        // Event-abort-heavy HTM: 2 retries serialize often, 64 rarely.
        let run = |hints: TxHints| {
            let sys = Arc::new(
                TmSystem::builder()
                    .mode(AlgoMode::HtmCondvar)
                    .htm_config(HtmConfig {
                        event_prob: 0.3,
                        ..HtmConfig::default()
                    })
                    .build(),
            );
            let th = sys.register();
            let lock = ElidableMutex::new("hinted");
            let cell = TCell::new(0u64);
            for _ in 0..500 {
                th.tx(&lock).hints(hints).run(|ctx| {
                    ctx.update(&cell, |v| v + 1)?;
                    Ok(())
                });
            }
            assert_eq!(cell.load_direct(), 500);
            sys.stats.get(Stat::SerialFallbacks)
        };
        let default_fallbacks = run(TxHints::default());
        let hinted_fallbacks = run(TxHints::new().with_htm_retries(64));
        assert!(
            hinted_fallbacks < default_fallbacks / 2,
            "hinting more retries should cut fallbacks: {hinted_fallbacks} vs {default_fallbacks}"
        );
    }

    #[test]
    fn norec_backend_supports_all_stm_modes() {
        use tle_stm::StmAlgo;
        for mode in [
            AlgoMode::StmSpin,
            AlgoMode::StmCondvar,
            AlgoMode::StmCondvarNoQuiesce,
        ] {
            let sys = Arc::new(TmSystem::new(mode));
            sys.set_stm_algo(StmAlgo::Norec);
            let lock = Arc::new(ElidableMutex::new("norec"));
            let cell = Arc::new(TCell::new(0u64));
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let sys = Arc::clone(&sys);
                    let lock = Arc::clone(&lock);
                    let cell = Arc::clone(&cell);
                    std::thread::spawn(move || {
                        let th = sys.register();
                        for _ in 0..1_000 {
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
            assert_eq!(
                cell.load_direct(),
                4_000,
                "lost updates with NOrec under {mode:?}"
            );
        }
    }

    #[test]
    fn norec_condvar_producer_consumer() {
        use tle_stm::StmAlgo;
        let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
        sys.set_stm_algo(StmAlgo::Norec);
        let lock = Arc::new(ElidableMutex::new("pc"));
        let cv = Arc::new(TxCondvar::new());
        let flag = Arc::new(TCell::new(false));
        let consumer = {
            let sys = Arc::clone(&sys);
            let lock = Arc::clone(&lock);
            let cv = Arc::clone(&cv);
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                let th = sys.register();
                th.tx(&lock).run(|ctx| {
                    if !ctx.read(&*flag)? {
                        return ctx.wait(&cv, None);
                    }
                    Ok(())
                });
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        let th = sys.register();
        th.tx(&lock).run(|ctx| {
            ctx.write(&*flag, true)?;
            ctx.signal(&cv)?;
            Ok(())
        });
        consumer.join().unwrap();
    }

    #[test]
    fn adaptive_htm_counter_is_exact() {
        let sys = Arc::new(TmSystem::new(AlgoMode::AdaptiveHtm));
        let lock = Arc::new(ElidableMutex::new("adaptive"));
        let cell = Arc::new(TCell::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let sys = Arc::clone(&sys);
                let lock = Arc::clone(&lock);
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    let th = sys.register();
                    for _ in 0..2_000 {
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
        assert_eq!(
            cell.load_direct(),
            8_000,
            "lost updates under adaptive elision"
        );
    }

    #[test]
    fn adaptive_htm_lazy_counter_is_exact() {
        let sys = Arc::new(TmSystem::new(AlgoMode::AdaptiveHtmLazy));
        let lock = Arc::new(ElidableMutex::new("lazy"));
        let cell = Arc::new(TCell::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let sys = Arc::clone(&sys);
                let lock = Arc::clone(&lock);
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    let th = sys.register();
                    for _ in 0..2_000 {
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
        assert_eq!(
            cell.load_direct(),
            8_000,
            "lost updates under lazy-subscription elision"
        );
    }

    #[test]
    fn adaptive_htm_lazy_exclusion_invariant() {
        use tle_htm::HtmConfig;
        // Same two-cell torn-state invariant as the eager test, but under
        // the commit-time subscription: the seqlock window check plus
        // doom-on-acquire must exclude lock-path holders just as the eager
        // lock-word subscription does.
        let sys = Arc::new(
            TmSystem::builder()
                .mode(AlgoMode::AdaptiveHtmLazy)
                .htm_config(HtmConfig {
                    event_prob: 0.05,
                    ..HtmConfig::default()
                })
                .build(),
        );
        let lock = Arc::new(ElidableMutex::new("lazy-excl"));
        let a = Arc::new(TCell::new(0u64));
        let b = Arc::new(TCell::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let sys = Arc::clone(&sys);
                let lock = Arc::clone(&lock);
                let a = Arc::clone(&a);
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    let th = sys.register();
                    for _ in 0..3_000 {
                        th.tx(&lock).run(|ctx| {
                            let va = ctx.read(&*a)?;
                            let vb = ctx.read(&*b)?;
                            assert_eq!(va, vb, "torn state: lazy elision raced the lock path");
                            ctx.write(&*a, va + 1)?;
                            ctx.write(&*b, vb + 1)?;
                            Ok(())
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.load_direct(), 12_000);
        assert_eq!(b.load_direct(), 12_000);
        assert!(
            sys.stats.get(Stat::SerialFallbacks) > 0,
            "test wanted lock-path traffic but got none"
        );
    }

    #[test]
    fn adaptive_htm_lazy_condvar_works() {
        let sys = Arc::new(TmSystem::new(AlgoMode::AdaptiveHtmLazy));
        let lock = Arc::new(ElidableMutex::new("lazy-pc"));
        let cv = Arc::new(TxCondvar::new());
        let flag = Arc::new(TCell::new(false));
        let consumer = {
            let sys = Arc::clone(&sys);
            let lock = Arc::clone(&lock);
            let cv = Arc::clone(&cv);
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                let th = sys.register();
                th.tx(&lock).run(|ctx| {
                    if !ctx.read(&*flag)? {
                        return ctx.wait(&cv, None);
                    }
                    Ok(())
                });
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        let th = sys.register();
        th.tx(&lock).run(|ctx| {
            ctx.write(&*flag, true)?;
            ctx.signal(&cv)?;
            Ok(())
        });
        consumer.join().unwrap();
    }

    #[test]
    fn adaptive_htm_lazy_unsafe_op_takes_the_lock() {
        let sys = Arc::new(TmSystem::new(AlgoMode::AdaptiveHtmLazy));
        let th = sys.register();
        let lock = ElidableMutex::new("lazy-io");
        let cell = TCell::new(0u64);
        th.tx(&lock).run(|ctx| {
            ctx.unsafe_op()?;
            ctx.update(&cell, |v| v + 1)?;
            Ok(())
        });
        assert_eq!(cell.load_direct(), 1);
        assert!(sys.stats.get(Stat::SerialFallbacks) >= 1);
        // Lock path acquired and released once each: seqlock back to even.
        assert_eq!(lock.elision_seq() % 2, 0, "lazy seqlock parity corrupted");
    }

    #[test]
    fn adaptive_htm_lazy_unsafe_variant_single_threaded() {
        // The naive variant is still correct when nothing races it; its
        // hazards need an adversarial interleaving (demonstrated by the
        // checker, not here — stress would make this flaky by design).
        let sys = Arc::new(TmSystem::new(AlgoMode::AdaptiveHtmLazyUnsafe));
        let th = sys.register();
        let lock = ElidableMutex::new("lazy-naive");
        let cell = TCell::new(0u64);
        for _ in 0..100 {
            th.tx(&lock).run(|ctx| {
                ctx.update(&cell, |v| v + 1)?;
                Ok(())
            });
        }
        th.tx(&lock).run(|ctx| {
            ctx.unsafe_op()?;
            ctx.update(&cell, |v| v + 1)?;
            Ok(())
        });
        assert_eq!(cell.load_direct(), 101);
    }

    #[test]
    fn adaptive_htm_subscription_excludes_lock_path() {
        use tle_htm::HtmConfig;
        // Event-heavy hardware: many sections take the lock path, elided
        // and locked sections interleave constantly. The two-cell
        // invariant catches any mutual-exclusion breach.
        let sys = Arc::new(
            TmSystem::builder()
                .mode(AlgoMode::AdaptiveHtm)
                .htm_config(HtmConfig {
                    event_prob: 0.05,
                    ..HtmConfig::default()
                })
                .build(),
        );
        let lock = Arc::new(ElidableMutex::new("excl"));
        let a = Arc::new(TCell::new(0u64));
        let b = Arc::new(TCell::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let sys = Arc::clone(&sys);
                let lock = Arc::clone(&lock);
                let a = Arc::clone(&a);
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    let th = sys.register();
                    for _ in 0..3_000 {
                        th.tx(&lock).run(|ctx| {
                            let va = ctx.read(&*a)?;
                            let vb = ctx.read(&*b)?;
                            assert_eq!(va, vb, "torn state: elision raced the lock path");
                            ctx.write(&*a, va + 1)?;
                            ctx.write(&*b, vb + 1)?;
                            Ok(())
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.load_direct(), 12_000);
        assert_eq!(b.load_direct(), 12_000);
        assert!(
            sys.stats.get(Stat::SerialFallbacks) > 0,
            "test wanted lock-path traffic but got none"
        );
    }

    #[test]
    fn adaptive_htm_sets_skip_credits_after_failures() {
        use tle_htm::HtmConfig;
        let sys = Arc::new(
            TmSystem::builder()
                .mode(AlgoMode::AdaptiveHtm)
                .htm_config(HtmConfig {
                    event_prob: 1.0, // every hardware attempt dies
                    ..HtmConfig::default()
                })
                .build(),
        );
        let th = sys.register();
        let lock = ElidableMutex::new("hopeless");
        let cell = TCell::new(0u64);
        th.tx(&lock).run(|ctx| {
            ctx.update(&cell, |v| v + 1)?;
            Ok(())
        });
        assert_eq!(cell.load_direct(), 1);
        assert!(
            lock.skip_credits() > 0,
            "failed elision must penalize the lock (glibc adaptation)"
        );
        // The next sections go straight to the lock path (credits consumed).
        let before = lock.skip_credits();
        th.tx(&lock).run(|ctx| {
            ctx.update(&cell, |v| v + 1)?;
            Ok(())
        });
        assert!(lock.skip_credits() < before, "skip credit not consumed");
    }

    #[test]
    fn adaptive_htm_condvar_works() {
        let sys = Arc::new(TmSystem::new(AlgoMode::AdaptiveHtm));
        let lock = Arc::new(ElidableMutex::new("pc"));
        let cv = Arc::new(TxCondvar::new());
        let flag = Arc::new(TCell::new(false));
        let consumer = {
            let sys = Arc::clone(&sys);
            let lock = Arc::clone(&lock);
            let cv = Arc::clone(&cv);
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                let th = sys.register();
                th.tx(&lock).run(|ctx| {
                    if !ctx.read(&*flag)? {
                        return ctx.wait(&cv, None);
                    }
                    Ok(())
                });
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        let th = sys.register();
        th.tx(&lock).run(|ctx| {
            ctx.write(&*flag, true)?;
            ctx.signal(&cv)?;
            Ok(())
        });
        consumer.join().unwrap();
    }

    #[test]
    fn adaptive_htm_unsafe_op_takes_the_lock() {
        let sys = Arc::new(TmSystem::new(AlgoMode::AdaptiveHtm));
        let th = sys.register();
        let lock = ElidableMutex::new("io");
        let cell = TCell::new(0u64);
        th.tx(&lock).run(|ctx| {
            ctx.unsafe_op()?;
            ctx.update(&cell, |v| v + 1)?;
            Ok(())
        });
        assert_eq!(cell.load_direct(), 1);
        assert!(sys.stats.get(Stat::SerialFallbacks) >= 1);
        assert!(
            !sys.gate.serial_held(),
            "adaptive mode must not use the global gate"
        );
    }

    #[test]
    fn adaptive_htm_timed_wait_expires_and_cancels() {
        let sys = Arc::new(TmSystem::new(AlgoMode::AdaptiveHtm));
        let th = sys.register();
        let lock = ElidableMutex::new("t");
        let cv = TxCondvar::new();
        let never = TCell::new(false);
        let mut wakes = 0u32;
        let t0 = std::time::Instant::now();
        let r = th.tx(&lock).run(|ctx| {
            if !ctx.read(&never)? {
                wakes += 1;
                if wakes > 2 {
                    return Ok(false);
                }
                return ctx
                    .wait(&cv, Some(std::time::Duration::from_millis(10)))
                    .map(|_| false);
            }
            Ok(true)
        });
        assert!(!r);
        assert!(t0.elapsed() >= std::time::Duration::from_millis(15));
        // The timed-out waiters cancelled their ring entries under the
        // lock; a subsequent signal round-trip must still work (no stale
        // live waiters to misdeliver to).
        let flag = Arc::new(TCell::new(false));
        let ok = th.tx(&lock).run(|ctx| {
            ctx.write(&*flag, true)?;
            ctx.signal(&cv)?;
            Ok(true)
        });
        assert!(ok);
    }
}
