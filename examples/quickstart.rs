//! Quickstart: elide one lock five different ways.
//!
//! Run: `cargo run --release --example quickstart`
//!
//! A bank of accounts protected by a single mutex is hammered by four
//! threads under each of the paper's five synchronization algorithms; the
//! invariant (total balance) holds under every one, and the printed
//! statistics show what each algorithm did under the hood.

use std::sync::Arc;
use tle_repro::base::stats::Stat;
use tle_repro::prelude::*;

const ACCOUNTS: usize = 32;
const THREADS: usize = 4;
const TRANSFERS: u64 = 20_000;

fn main() {
    println!(
        "TLE quickstart: {THREADS} threads x {TRANSFERS} transfers over {ACCOUNTS} accounts\n"
    );
    for mode in ALL_MODES {
        let sys = Arc::new(TmSystem::new(mode));
        let lock = Arc::new(ElidableMutex::new("bank"));
        let accounts: Arc<Vec<TCell<i64>>> =
            Arc::new((0..ACCOUNTS).map(|_| TCell::new(1000)).collect());

        let t0 = std::time::Instant::now();
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let sys = Arc::clone(&sys);
                let lock = Arc::clone(&lock);
                let accounts = Arc::clone(&accounts);
                std::thread::spawn(move || {
                    let th = sys.register();
                    let mut rng = tle_repro::base::rng::XorShift64::new(t as u64);
                    for _ in 0..TRANSFERS {
                        let from = rng.below(ACCOUNTS as u64) as usize;
                        let to = rng.below(ACCOUNTS as u64) as usize;
                        let amount = rng.below(50) as i64;
                        th.tx(&lock).run(|ctx| {
                            let f = ctx.read(&accounts[from])?;
                            if from != to && f >= amount {
                                let t = ctx.read(&accounts[to])?;
                                ctx.write(&accounts[from], f - amount)?;
                                ctx.write(&accounts[to], t + amount)?;
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
        let elapsed = t0.elapsed();

        let total: i64 = accounts.iter().map(|a| a.load_direct()).sum();
        assert_eq!(total, ACCOUNTS as i64 * 1000, "balance invariant violated!");

        let stm = sys.stm.stats.snapshot();
        let htm_commits = sys.htm.stats.get(Stat::Commits);
        let htm_aborts = sys.htm.stats.get(Stat::Aborts);
        let serial = sys.stats.get(Stat::SerialFallbacks);
        println!(
            "{:<24} {:>7.1} ms | stm commits {:>6} aborts {:>5} | htm commits {:>6} aborts {:>5} | serial {:>5}",
            mode.label(),
            elapsed.as_secs_f64() * 1e3,
            stm.commits,
            stm.aborts,
            htm_commits,
            htm_aborts,
            serial,
        );
    }
    println!("\nbalance invariant held under every algorithm.");
}
