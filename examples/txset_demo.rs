//! Figure 5 in miniature: throughput of the three transactional sets under
//! the three quiescence configurations, at one thread count.
//!
//! Run: `cargo run --release --example txset_demo [-- <threads>]`

use std::sync::{Arc, Barrier};
use tle_bench::workloads::FIG5_CONFIGS;
use tle_repro::prelude::*;
use tle_repro::txset::{TxHashSet, TxListSet, TxSet, TxTreeSet};

const OPS_PER_THREAD: u64 = 100_000;

fn run(set: Arc<dyn TxSet>, mode: AlgoMode, policy: QuiescePolicy, threads: usize) -> f64 {
    let sys = Arc::new(TmSystem::new(mode));
    sys.stm.set_policy(policy);
    {
        let th = sys.register();
        for k in (0..set.key_space()).step_by(2) {
            set.insert(&th, k);
        }
    }
    let barrier = Arc::new(Barrier::new(threads + 1));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let sys = Arc::clone(&sys);
            let set = Arc::clone(&set);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let th = sys.register();
                let mut rng = tle_repro::base::rng::XorShift64::new(t as u64);
                let space = set.key_space();
                barrier.wait();
                for _ in 0..OPS_PER_THREAD {
                    let k = rng.below(space);
                    match rng.below(4) {
                        0 => {
                            set.insert(&th, k);
                        }
                        1 => {
                            set.remove(&th, k);
                        }
                        _ => {
                            set.contains(&th, k);
                        }
                    }
                }
            })
        })
        .collect();
    barrier.wait();
    let t0 = std::time::Instant::now();
    for h in handles {
        h.join().unwrap();
    }
    let secs = t0.elapsed().as_secs_f64();
    threads as f64 * OPS_PER_THREAD as f64 / secs / 1e6
}

fn main() {
    let threads: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4);
    println!("transactional sets, {threads} threads, 50% lookups (Mops/s)\n");
    let mut header = format!("{:<6}", "set");
    for (label, _, _) in FIG5_CONFIGS {
        header.push_str(&format!(" {label:>10}"));
    }
    println!("{header}");
    for kind in ["list", "hash", "tree"] {
        let mk = |k: &str| -> Arc<dyn TxSet> {
            match k {
                "list" => Arc::new(TxListSet::new()),
                "hash" => Arc::new(TxHashSet::new()),
                _ => Arc::new(TxTreeSet::new()),
            }
        };
        let mut row = format!("{kind:<6}");
        for (_, mode, policy) in FIG5_CONFIGS {
            let tput = run(mk(kind), mode, policy, threads);
            row.push_str(&format!(" {tput:>10.3}"));
        }
        println!("{row}");
    }
    println!("\npaper shape: NoQ/SelectNoQ above STM; SelectNoQ keeps privatization safety.");
}
