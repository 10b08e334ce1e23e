//! `tle torture` — rcutorture-style stress runs: real workloads under a
//! seeded fault schedule, judged by invariant oracles. See
//! `tle_bench::torture` for what each phase checks.

use crate::args::Args;
use std::process::ExitCode;
use tle_bench::torture::{run_torture, TortureConfig};
use tle_core::{AlgoMode, ALL_MODES};

pub fn run(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.get("--seed", 1)?;
    let workers: usize = args.get("--workers", 3)?;
    let ops: u64 = args.get("--ops", 1_500)?;
    let repro = args.has("--repro");
    let adaptive = args.has("--adaptive");
    let deadline = args.has("--deadline");
    let async_exec = args.has("--async");
    let modes: Vec<AlgoMode> = match args.values("--mode") {
        Some([spec]) if spec != "all" => args.opt("--mode")?.into_iter().collect(),
        _ => ALL_MODES.to_vec(),
    };

    let mut failed = false;
    for mode in modes {
        // Under --repro: one worker, txset only (plus the single-threaded
        // flip phase under --adaptive), run twice — the two runs must agree
        // on every per-cause abort count, fault tally and mode flip.
        let base = if repro {
            TortureConfig::repro(seed, mode)
        } else {
            TortureConfig {
                workers,
                ..TortureConfig::quick(seed, mode)
            }
        };
        let cfg = TortureConfig {
            ops_per_worker: ops,
            adaptive,
            deadline,
            async_exec,
            ..base
        };
        let a = run_torture(&cfg);
        print!("{}", a.render());
        failed |= !a.ok();
        if repro {
            let b = run_torture(&cfg);
            let (ka, kb) = (a.repro_key(), b.repro_key());
            if ka != kb {
                println!("  REPRO MISMATCH:\n    run1 {ka}\n    run2 {kb}");
                failed = true;
            } else {
                println!("  repro: two runs identical ({ka})");
            }
            failed |= !b.ok();
        }
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
