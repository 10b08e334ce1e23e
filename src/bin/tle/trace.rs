//! `tle trace summary|dump` — run a workload with the transaction event
//! ring enabled and summarize or dump what it recorded.
//!
//! The tracer is a per-thread ring of the most recent events
//! ([`trace::RING_CAP`] per thread), so `dump` shows the *end* of each
//! thread's history — exactly the window you want when diagnosing why a
//! run went to the serial fallback. Without `--features trace` the hooks
//! compile to no-ops and this tool reports an empty ring rather than
//! fabricating data.

use crate::args::Args;
use std::process::ExitCode;
use std::sync::Arc;
use tle_repro::base::trace;
use tle_repro::base::AbortCause;
use tle_repro::prelude::*;

/// A deliberately contended probe: `threads` workers increment a handful of
/// shared counters under one elided lock. Small `--cells` values produce
/// conflict aborts; the trace shows how the runtime resolved them.
pub fn run(args: &Args) -> Result<ExitCode, String> {
    let dump = match args.positionals[0].as_str() {
        "summary" => false,
        "dump" => true,
        other => return Err(format!("expected summary or dump, got `{other}`")),
    };
    let mode = args.get("--mode", AlgoMode::HtmCondvar)?;
    let threads: usize = args.get("--threads", 4)?;
    let ops: u64 = args.get("--ops", 20_000)?;
    let cells: usize = args.get("--cells", 4usize)?.max(1);
    let tail: Option<usize> = args.opt("--tail")?;
    let fault_seed: Option<u64> = args.opt("--faults")?;
    // `--cause` narrows the dump to events attributed to one abort cause
    // (Abort/Conflict/Retry/FaultInject events carry one).
    let cause = args.opt::<String>("--cause")?.map(|label| {
        AbortCause::ALL
            .into_iter()
            .find(|c| c.label() == label)
            .ok_or_else(|| {
                let valid = AbortCause::ALL.map(|c| c.label()).join(" ");
                format!("--cause: unknown cause {label}; valid: {valid}")
            })
    });
    let cause = cause.transpose()?;
    if !trace::compiled() {
        eprintln!(
            "note: built without the `trace` feature; the event ring is a \
             no-op and only counter-based statistics follow.\n"
        );
    }
    if let Some(seed) = fault_seed {
        tle_repro::base::fault::install(tle_bench::torture::torture_plan(seed));
    }

    let sys = Arc::new(TmSystem::new(mode));
    let lock = ElidableMutex::new("probe");
    let shared: Vec<TCell<u64>> = (0..cells).map(|_| TCell::new(0)).collect();
    std::thread::scope(|s| {
        for t in 0..threads {
            let (sys, lock, shared) = (&sys, &lock, &shared);
            s.spawn(move || {
                let th = sys.register();
                let mut rng = tle_repro::base::rng::XorShift64::new(0x7ACE ^ t as u64);
                for _ in 0..ops {
                    let i = rng.below(shared.len() as u64) as usize;
                    th.tx(lock).run(|ctx| {
                        let v = ctx.read(&shared[i])?;
                        ctx.write(&shared[i], v + 1)?;
                        Ok(())
                    });
                }
            });
        }
    });
    let total: u64 = shared.iter().map(|c| c.load_direct()).sum();
    assert_eq!(total, threads as u64 * ops, "probe lost updates");

    let events = trace::snapshot();
    if dump {
        let filtered: Vec<_> = events
            .iter()
            .filter(|e| cause.is_none() || e.cause == cause)
            .collect();
        let tail = tail.unwrap_or(filtered.len());
        let skip = filtered.len().saturating_sub(tail);
        if skip > 0 {
            println!("... {skip} earlier events elided (--tail {tail}) ...");
        }
        for ev in &filtered[skip..] {
            println!("{ev}");
        }
        println!();
    }

    // Summary always prints: from the ring when compiled, and the
    // authoritative per-cause counters either way.
    let summary = trace::TraceSummary::of(&events);
    let label = mode.label();
    println!("probe: mode={label} threads={threads} ops/thread={ops} cells={cells}");
    let (n, cap) = (events.len(), trace::RING_CAP);
    println!(
        "event ring: {n} events from {} threads (cap {cap} per thread)",
        summary.threads
    );
    for kind in trace::TraceKind::ALL {
        let n = summary.kind(kind);
        if n > 0 {
            println!("  {:<14} {n}", kind.label());
        }
    }
    let ring_aborts: u64 = AbortCause::ALL.iter().map(|&c| summary.aborts(c)).sum();
    if ring_aborts > 0 {
        println!("ring abort causes:");
        for cause in AbortCause::ALL {
            let n = summary.aborts(cause);
            if n > 0 {
                println!("  {:<17} {n}", cause.label());
            }
        }
    }
    if fault_seed.is_some() {
        use tle_repro::base::fault::{self, Hazard};
        let snap = fault::snapshot();
        println!("fault plane ({} fired):", snap.total_fired());
        for h in Hazard::ALL {
            let fired = snap.fired(h);
            if fired > 0 {
                let (label, armed) = (h.label(), snap.armed(h));
                println!("  {label:<17} fired {fired:>6}  armed {armed:>6}");
            }
        }
        fault::clear();
    }
    println!();
    print!("{}", sys.report());
    Ok(ExitCode::SUCCESS)
}
