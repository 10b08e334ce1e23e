//! Ablation (extension): TMTS-style fallback (global serialization) vs
//! glibc-style fallback (the lock itself), under failure pressure.
//!
//! Paper §II-C: "any serialization of any transaction (whether due to
//! irrevocability or contention) causes unrelated transactions to be
//! suspended. … If a programmer identified critical sections that could be
//! protected by disjoint sets of locks, and then used TM to elide those
//! locks, they cease to be treated as disjoint from the perspective of the
//! TM system."
//!
//! The workload makes that concrete: each thread hammers **its own lock**
//! (fully disjoint). Under event-abort pressure, `HTM+CondVar` routes
//! failures through the global serial gate — strangling every other
//! thread — while `AdaptiveHTM(glibc)` falls back to the one affected lock.

use std::sync::Arc;
use tle_base::stats::Stat;
use tle_base::Padded;
use tle_bench::{fmt_pct, fmt_secs, thread_sweep, Table};
use tle_core::{AlgoMode, ElidableMutex, TmSystem};
use tle_htm::HtmConfig;

const OPS_PER_THREAD: u64 = 30_000;

fn run(mode: AlgoMode, threads: usize, event_prob: f64) -> (f64, f64) {
    let sys = Arc::new(
        TmSystem::builder()
            .mode(mode)
            .htm_config(HtmConfig {
                event_prob,
                ..HtmConfig::default()
            })
            .build(),
    );
    // Cache-line padding matters here exactly as on real TSX: adjacent
    // lock words would share a conflict-table line and make "disjoint"
    // locks alias (the classic lock-elision false-sharing gotcha).
    let locks: Arc<Vec<Padded<ElidableMutex>>> = Arc::new(
        (0..threads)
            .map(|_| Padded(ElidableMutex::new("disjoint")))
            .collect(),
    );
    let cells: Arc<Vec<Padded<tle_base::TCell<u64>>>> = Arc::new(
        (0..threads)
            .map(|_| Padded(tle_base::TCell::new(0)))
            .collect(),
    );
    let barrier = Arc::new(std::sync::Barrier::new(threads + 1));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let sys = Arc::clone(&sys);
            let locks = Arc::clone(&locks);
            let cells = Arc::clone(&cells);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let th = sys.register();
                barrier.wait();
                for _ in 0..OPS_PER_THREAD {
                    th.tx(&locks[t]).run(|ctx| {
                        ctx.update(&cells[t], |v| v + 1)?;
                        Ok(())
                    });
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
    for c in cells.iter() {
        assert_eq!(c.load_direct(), OPS_PER_THREAD);
    }
    let total = threads as f64 * OPS_PER_THREAD as f64;
    let fallback_rate = sys.stats.get(Stat::SerialFallbacks) as f64 / total;
    (secs, fallback_rate)
}

fn main() {
    println!("Fallback-model ablation: disjoint per-thread locks, {OPS_PER_THREAD} ops/thread");
    for event_prob in [0.0, 0.02] {
        let mut table = Table::new(
            &format!("event_prob = {event_prob}: serial fallback vs lock fallback (seconds)"),
            &[
                "threads",
                "HTM+CondVar",
                "fallback%",
                "AdaptiveHTM(glibc)",
                "fallback%",
            ],
        );
        for threads in thread_sweep() {
            let (tmts, fb1) = run(AlgoMode::HtmCondvar, threads, event_prob);
            let (glibc, fb2) = run(AlgoMode::AdaptiveHtm, threads, event_prob);
            table.row(vec![
                threads.to_string(),
                fmt_secs(tmts),
                fmt_pct(fb1),
                fmt_secs(glibc),
                fmt_pct(fb2),
            ]);
        }
        table.print();
    }
    println!(
        "\npaper §II-C: under the TMTS, disjoint locks cease to be treated as disjoint;\n\
         the glibc model keeps failures local to the failing lock"
    );
}
