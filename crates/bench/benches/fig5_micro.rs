//! Figure 5 (a-f): set-microbenchmark throughput vs. threads for the three
//! quiescence configurations (STM = always drain, NoQ = never,
//! SelectNoQ = the paper's `TM_NoQuiesce`).
//!
//! Paper shapes to reproduce:
//! - list (high contention): SelectNoQ ≈ NoQ, both above STM; with 50%
//!   lookups SelectNoQ can *beat* NoQ (occasional drains act as congestion
//!   control);
//! - hash/tree (lower contention): SelectNoQ on par with, slightly below,
//!   NoQ; both above STM.

use tle_bench::workloads::{micro_trial, Mix, FIG5_CONFIGS};
use tle_bench::{full_sweep, thread_sweep, trials, Table};

fn main() {
    let ops: u64 = if full_sweep() { 300_000 } else { 100_000 };
    let n_trials = trials(if full_sweep() { 3 } else { 2 });
    println!("Figure 5: set microbenchmarks, {ops} ops/thread, {n_trials} trials per point");

    let panels = [
        ("a", "list", Mix::UpdateOnly),
        ("b", "list", Mix::HalfLookup),
        ("c", "hash", Mix::UpdateOnly),
        ("d", "hash", Mix::HalfLookup),
        ("e", "tree", Mix::UpdateOnly),
        ("f", "tree", Mix::HalfLookup),
    ];
    for (letter, kind, mix) in panels {
        let mut table = Table::new(
            &format!(
                "Fig 5 ({letter}): {kind} set, {} — throughput (Mops/s)",
                mix.label()
            ),
            &["threads", "STM", "NoQ", "SelectNoQ"],
        );
        for threads in thread_sweep() {
            let mut row = vec![threads.to_string()];
            for (_, mode, policy) in FIG5_CONFIGS {
                let mut total = 0.0;
                for _ in 0..n_trials {
                    total += micro_trial(kind, mode, policy, threads, mix, ops).0;
                }
                row.push(format!("{:.3}", total / n_trials as f64 / 1e6));
            }
            table.row(row);
        }
        table.print();
    }
}
