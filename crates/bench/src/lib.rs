//! # tle-bench — the paper's evaluation harness
//!
//! One bench target per table/figure (see DESIGN.md §4):
//!
//! | target                     | reproduces                          |
//! |----------------------------|-------------------------------------|
//! | `fig2_pbzip`               | Figure 2 (a-f)                      |
//! | `table_pbzip_stats`        | §VII-A in-text stats                |
//! | `fig3_x265`                | Figure 3 (a-c)                      |
//! | `fig4_aborts`              | Figure 4                            |
//! | `fig5_micro`               | Figure 5 (a-f)                      |
//! | `ablate_htm_retry`         | §VII-A retry tuning                 |
//! | `ablate_quiesce`           | §IV drain scaling                   |
//! | `ablate_ready_flag`        | §V Listing 3 vs 4                   |
//! | `ablate_stm_algo`          | `ml_wt` vs NOrec                    |
//! | `ablate_fallback`          | §II-C serial vs lock                |
//! | `adapt_policy`             | per-lock controller                 |
//! | `crit_primitives`          | primitive-op latency                |
//! | `ablate_lazy_subscription` | lock-word subscription (DESIGN §17) |
//!
//! The benches reproduce; they gate nothing. The repo's regression gate
//! is `BENCHMARK.json` + `benchmark/`.
//!
//! Benches run **reduced sweeps by default** so `cargo bench` finishes in
//! minutes; set `TLE_BENCH_FULL=1` for the paper-scale sweep and
//! `TLE_BENCH_TRIALS=n` to override the trial count (paper: 5 for the
//! applications, 3 for the microbenchmarks).

use std::sync::Arc;
use tle_core::{AlgoMode, TmSystem};

pub mod torture;
pub mod workloads;

/// Whether the full paper-scale sweep was requested.
pub fn full_sweep() -> bool {
    std::env::var("TLE_BENCH_FULL").is_ok_and(|v| v == "1")
}

/// Trials per configuration.
pub fn trials(default: usize) -> usize {
    std::env::var("TLE_BENCH_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Worker-thread sweep (paper: 1..=8).
pub fn thread_sweep() -> Vec<usize> {
    if full_sweep() {
        (1..=8).collect()
    } else {
        vec![1, 2, 4, 8]
    }
}

/// Build a fresh system for one trial of `mode`.
pub fn fresh_system(mode: AlgoMode) -> Arc<TmSystem> {
    Arc::new(TmSystem::new(mode))
}

/// Fixed-width table printer for the bench outputs.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Render to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        println!("\n== {} ==", self.title);
        let line = |cells: &[String]| {
            let parts: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            println!("  {}", parts.join("  "));
        };
        line(&self.headers);
        println!(
            "  {}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            line(row);
        }
    }
}

/// Format seconds with 3 decimals.
pub fn fmt_secs(s: f64) -> String {
    format!("{s:.3}")
}

/// Format a ratio as a percentage.
pub fn fmt_pct(p: f64) -> String {
    format!("{:.1}%", p * 100.0)
}

/// Format a speedup factor.
pub fn fmt_x(x: f64) -> String {
    format!("{x:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_is_well_formed() {
        let mut t = Table::new("test", &["a", "bb", "ccc"]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        t.print(); // must not panic
    }

    #[test]
    #[should_panic]
    fn table_rejects_arity_mismatch() {
        let mut t = Table::new("test", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn thread_sweep_reduced_by_default() {
        if !full_sweep() {
            assert_eq!(thread_sweep(), vec![1, 2, 4, 8]);
        }
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_secs(1.23456), "1.235");
        assert_eq!(fmt_pct(0.085), "8.5%");
        assert_eq!(fmt_x(1.095), "1.09x");
    }
}
