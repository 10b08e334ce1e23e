//! Ablation (paper §IV): what does one quiescence drain cost, and how does
//! it scale with the number of concurrently running transactions?
//!
//! The paper argues drain cost grows linearly with thread count (one slot
//! to poll per thread) and that a long-running transaction blocks
//! *unrelated* committers. Both effects are measured directly here.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tle_base::TCell;
use tle_bench::Table;
use tle_core::{AlgoMode, ElidableMutex, TmSystem};
use tle_stm::QuiescePolicy;

fn main() {
    println!("Quiescence ablation");
    drain_scaling();
    long_tx_blocking();
}

/// Committer latency vs. number of concurrently active transactions.
fn drain_scaling() {
    let mut table = Table::new(
        "§IV: commit latency vs active transactions (ns/commit)",
        &["active-txns", "Always", "Never"],
    );
    for active in [0usize, 1, 2, 4, 8] {
        let mut cells = vec![active.to_string()];
        for policy in [QuiescePolicy::Always, QuiescePolicy::Never] {
            let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
            sys.stm.set_policy(policy);
            let stop = Arc::new(AtomicBool::new(false));
            // Background threads running short back-to-back transactions.
            let bg: Vec<_> = (0..active)
                .map(|i| {
                    let sys = Arc::clone(&sys);
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        let th = sys.register();
                        let lock = ElidableMutex::new("bg");
                        let cell = TCell::new(0u64);
                        let mut spin = i as u64;
                        while !stop.load(Ordering::Relaxed) {
                            th.tx(&lock).run(|ctx| {
                                ctx.update(&cell, |v| v + 1)?;
                                Ok(())
                            });
                            // Hold some non-transactional time so drains
                            // actually observe running transactions.
                            spin = spin.wrapping_mul(6364136223846793005).wrapping_add(1);
                            if spin.is_multiple_of(4) {
                                std::hint::spin_loop();
                            }
                        }
                    })
                })
                .collect();
            // Measured committer.
            let th = sys.register();
            let lock = ElidableMutex::new("fg");
            let cell = TCell::new(0u64);
            const OPS: u64 = 50_000;
            let t0 = std::time::Instant::now();
            for _ in 0..OPS {
                th.tx(&lock).run(|ctx| {
                    ctx.update(&cell, |v| v + 1)?;
                    Ok(())
                });
            }
            let ns = t0.elapsed().as_nanos() as f64 / OPS as f64;
            stop.store(true, Ordering::Relaxed);
            for h in bg {
                h.join().unwrap();
            }
            cells.push(format!("{ns:.0}"));
        }
        table.row(cells);
    }
    table.print();
}

/// A long-running transaction delays an unrelated committer's drain. The
/// committer asserts `TM_NoQuiesce` under both modes; only the NoQuiesce
/// mode honours it.
fn long_tx_blocking() {
    let modes = [AlgoMode::StmCondvar, AlgoMode::StmCondvarNoQuiesce];
    let mut table = Table::new(
        "§IV: unrelated-committer latency with one long transaction in flight (us/commit)",
        &["long-tx", modes[0].label(), modes[1].label()],
    );
    for long_running in [false, true] {
        let mut cells = vec![long_running.to_string()];
        for mode in modes {
            let sys = Arc::new(TmSystem::new(mode));
            let stop = Arc::new(AtomicBool::new(false));
            let long = if long_running {
                let sys = Arc::clone(&sys);
                let stop = Arc::clone(&stop);
                Some(std::thread::spawn(move || {
                    let th = sys.register();
                    let lock = ElidableMutex::new("long");
                    let cells: Vec<TCell<u64>> = (0..512).map(TCell::new).collect();
                    while !stop.load(Ordering::Relaxed) {
                        // A transaction that reads a lot and dawdles.
                        th.tx(&lock).run(|ctx| {
                            let mut acc = 0u64;
                            for c in &cells {
                                acc = acc.wrapping_add(ctx.read(c)?);
                            }
                            for _ in 0..2000 {
                                std::hint::spin_loop();
                            }
                            std::hint::black_box(acc);
                            Ok(())
                        });
                    }
                }))
            } else {
                None
            };
            let th = sys.register();
            let lock = ElidableMutex::new("fg");
            let cell = TCell::new(0u64);
            const OPS: u64 = 20_000;
            let t0 = std::time::Instant::now();
            for _ in 0..OPS {
                th.tx(&lock).run(|ctx| {
                    ctx.update(&cell, |v| v + 1)?;
                    ctx.no_quiesce();
                    Ok(())
                });
            }
            let us = t0.elapsed().as_micros() as f64 / OPS as f64;
            stop.store(true, Ordering::Relaxed);
            if let Some(h) = long {
                h.join().unwrap();
            }
            cells.push(format!("{us:.2}"));
        }
        table.row(cells);
    }
    table.print();
    println!("\npaper claim: the drain makes unrelated committers wait for long transactions;\nTM_NoQuiesce removes that coupling for transactions that do not privatize");
}
