//! Ablation: eager vs lazy lock-word subscription (DESIGN.md §17,
//! EXPERIMENTS.md §15), `adaptive-htm` against `adaptive-htm-lazy` at 4
//! threads on three workloads:
//!
//! - the capacity-edge scan, whose data footprint fills the simulated
//!   HTM's read cap exactly (7 shared + 1 private line of 8), so eager
//!   subscription's lock-word line overflows it on every hardware attempt
//!   while lazy subscription fits — the one row where the lazy mode wins;
//! - Figure 2's pbzip-compress (one hot lock);
//! - Figure 3's x265-small (many locks), where the lazy mode's global doom
//!   sweep at acquisition costs speculation on unrelated locks.
//!
//! Each side is the median-throughput run of `TLE_BENCH_TRIALS` (default
//! 3), printed with its per-cause aborts and serial fallbacks.

use tle_bench::workloads::{
    lazy_subscription_trial, pbzip_compress_trial, x265_trial, TrialStats, VideoSize,
};
use tle_bench::{fmt_x, trials, Table};
use tle_core::AlgoMode;

const THREADS: usize = 4;
const SIDES: [AlgoMode; 2] = [AlgoMode::AdaptiveHtm, AlgoMode::AdaptiveHtmLazy];

/// The median-throughput run of `n` trials of `trial` (throughput, stats).
fn median(n: usize, trial: impl Fn() -> (f64, TrialStats)) -> (f64, TrialStats) {
    let mut runs: Vec<_> = (0..n.max(1)).map(|_| trial()).collect();
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    runs.swap_remove(runs.len() / 2)
}

/// One workload's eager and lazy sides, as two columns.
fn side_by_side(title: &str, unit: &str, sides: [(f64, TrialStats); 2]) {
    let mut table = Table::new(title, &["", SIDES[0].label(), SIDES[1].label()]);
    let mut row = |name: &str, cell: &dyn Fn(&(f64, TrialStats)) -> String| {
        table.row(vec![name.to_string(), cell(&sides[0]), cell(&sides[1])]);
    };
    row(unit, &|(tput, _)| format!("{tput:.0}"));
    row("htm commits", &|(_, s)| s.htm_commits.to_string());
    row("aborts by cause", &|(_, s)| s.abort_breakdown());
    row("serial fallbacks", &|(_, s)| s.serial_fallbacks.to_string());
    table.row(vec![
        "lazy/eager".into(),
        String::new(),
        fmt_x(sides[1].0 / sides[0].0),
    ]);
    table.print();
}

fn main() {
    let n = trials(3);
    println!("Lazy subscription A/B: eager vs lazy, {THREADS} threads, median of {n} trials");

    let ops = 10_000;
    side_by_side(
        &format!("capacity-edge scan: 8-line read cap, {ops} ops/thread"),
        "ops/s",
        SIDES.map(|mode| median(n, || lazy_subscription_trial(mode, THREADS, 8, ops))),
    );

    let input = tle_pbz::gen_text(42, 256 * 1024);
    side_by_side(
        "fig2 pbzip-compress: 256 KiB, 16 KiB blocks",
        "bytes/s",
        SIDES.map(|mode| {
            median(n, || {
                let (secs, stats) = pbzip_compress_trial(mode, THREADS, 16 * 1024, &input);
                (input.len() as f64 / secs, stats)
            })
        }),
    );

    let frames = VideoSize::Small.params(false).2 as f64;
    side_by_side(
        "fig3 x265-small",
        "frames/s",
        SIDES.map(|mode| {
            median(n, || {
                let (secs, stats) = x265_trial(mode, THREADS, VideoSize::Small, false);
                (frames / secs, stats)
            })
        }),
    );
}
