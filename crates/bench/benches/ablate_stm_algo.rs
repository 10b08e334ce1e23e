//! Ablation: `ml_wt` (the paper's STM) vs NOrec on the Figure 5 set
//! microbenchmarks and the PBZip2 queue workload.
//!
//! The interesting contrast: `ml_wt` pays a per-commit quiescence drain for
//! privatization safety (which `TM_NoQuiesce` selectively removes); NOrec
//! is privatization-safe by construction — but serializes all writer
//! commits through one sequence lock and re-validates by value. Who wins
//! depends on write-commit frequency and read-set sizes.

use std::sync::Arc;
use tle_bench::workloads::{micro_trial, Mix};
use tle_bench::{fmt_secs, thread_sweep, Table};
use tle_core::{AlgoMode, TmSystem};
use tle_pbz::{compress_parallel, PipelineConfig};
use tle_stm::QuiescePolicy;

fn main() {
    println!("STM algorithm ablation: ml_wt vs NOrec");

    // Part 1: set microbenchmarks.
    for (kind, mix) in [
        ("list", Mix::HalfLookup),
        ("hash", Mix::HalfLookup),
        ("tree", Mix::HalfLookup),
    ] {
        let mut table = Table::new(
            &format!("{kind} set, {} — throughput (Mops/s)", mix.label()),
            &["threads", "ml_wt", "ml_wt+SelectNoQ", "NOrec"],
        );
        for threads in thread_sweep() {
            let mut row = vec![threads.to_string()];
            for (mode, policy) in [
                (AlgoMode::StmCondvar, QuiescePolicy::Always),
                (AlgoMode::StmCondvarNoQuiesce, QuiescePolicy::Always),
                (AlgoMode::StmNorec, QuiescePolicy::Always),
            ] {
                let (tput, _) = micro_trial(kind, mode, policy, threads, mix, 60_000);
                row.push(format!("{:.3}", tput / 1e6));
            }
            table.row(row);
        }
        table.print();
    }

    // Part 2: the PBZip2 pipeline.
    let input = tle_pbz::gen_text(0x650, 2_000_000);
    let mut table = Table::new(
        "PBZip2 compress (2 MB, 4 workers, 100K blocks) — seconds",
        &["mode", "seconds"],
    );
    for mode in [AlgoMode::StmCondvar, AlgoMode::StmNorec] {
        let sys = Arc::new(TmSystem::new(mode));
        let cfg = PipelineConfig {
            workers: 4,
            block_size: 100_000,
            fifo_cap: 8,
        };
        let t0 = std::time::Instant::now();
        let out = compress_parallel(&sys, &input, &cfg);
        std::hint::black_box(&out);
        table.row(vec![
            mode.label().to_string(),
            fmt_secs(t0.elapsed().as_secs_f64()),
        ]);
    }
    table.print();
}
