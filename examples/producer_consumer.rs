//! The paper's Listing 2, live: a producer/consumer queue where the
//! producer never quiesces and consumers quiesce only when they extract an
//! element. Prints how many quiescence drains each Figure 5 configuration
//! performed.
//!
//! Run: `cargo run --release --example producer_consumer`

use std::sync::Arc;
use tle_bench::workloads::FIG5_CONFIGS;
use tle_repro::pbz::TleFifo;
use tle_repro::prelude::*;

const ITEMS: u64 = 50_000;

fn run(mode: AlgoMode, policy: QuiescePolicy) -> (f64, u64, u64) {
    let sys = Arc::new(TmSystem::new(mode));
    sys.stm.set_policy(policy);
    let q: Arc<TleFifo<u64>> = Arc::new(TleFifo::new("pc", 16));

    let t0 = std::time::Instant::now();
    let producer = {
        let sys = Arc::clone(&sys);
        let q = Arc::clone(&q);
        std::thread::spawn(move || {
            let th = sys.register();
            for i in 0..ITEMS {
                q.push(&th, Box::new(i)).unwrap();
            }
            q.close(&th);
        })
    };
    let consumers: Vec<_> = (0..3)
        .map(|_| {
            let sys = Arc::clone(&sys);
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let th = sys.register();
                let mut sum = 0u64;
                while let Some(v) = q.pop(&th) {
                    sum += *v;
                }
                sum
            })
        })
        .collect();
    producer.join().unwrap();
    let total: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(total, ITEMS * (ITEMS - 1) / 2, "items lost");

    let stm = sys.stm.stats.snapshot();
    (secs, stm.quiesces, stm.quiesce_skipped)
}

fn main() {
    println!(
        "producer/consumer ({} items, 1 producer, 3 consumers) — paper Listing 2\n",
        ITEMS
    );
    println!(
        "{:<12} {:>8} {:>12} {:>14}",
        "config", "secs", "drains", "drains-skipped"
    );
    for (label, mode, policy) in FIG5_CONFIGS {
        let (secs, drains, skipped) = run(mode, policy);
        println!("{label:<12} {secs:>8.3} {drains:>12} {skipped:>14}");
    }
    println!(
        "\nSelectNoQ: the producer's transactions and empty-pop transactions skip the\n\
         drain (TM_NoQuiesce); only successful extractions — which privatize the\n\
         payload — pay for privatization safety."
    );
}
