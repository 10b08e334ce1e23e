//! The kv serving-workload subcommands: `kv` runs the sharded driver once,
//! `kv-sessions` A/Bs async multiplexing against thread-per-session.

use crate::args::Args;
use std::process::ExitCode;
use std::time::Duration;
use tle_base::stats::Stat;
use tle_bench::workloads::TrialStats;
use tle_kv::{
    build_system, run_driver_on, run_session_driver_async, run_session_driver_threads, KvConfig,
    SessionConfig,
};

pub fn kv(args: &Args) -> Result<ExitCode, String> {
    let mut kv = KvConfig::quick();
    kv.threads = args.get("--threads", kv.threads)?;
    kv.shards = args.get("--shards", kv.shards)?;
    kv.requests = args.get("--requests", 20_000)?;
    kv.mode = args.get("--mode", kv.mode)?;
    kv.gap_ns = args.get("--gap-ns", kv.gap_ns)?;
    kv.seed = args.get("--seed", kv.seed)?;
    if kv.threads == 0 || kv.shards == 0 || kv.requests == 0 {
        return Err("--threads/--shards/--requests must be non-zero".into());
    }
    if args.has("--storm") {
        kv = kv.with_storm();
    }
    let deadline_us: Option<u64> = args.opt("--deadline-us")?;
    if let Some(us) = deadline_us {
        kv = kv.with_plane(Duration::from_micros(us));
    } else if args.has("--plane") {
        kv = kv.with_plane(Duration::from_millis(1));
    }
    eprintln!(
        "tle: kv driver: mode={} threads={} shards={} requests/thread={} storm={} plane={}",
        kv.mode.label(),
        kv.threads,
        kv.shards,
        kv.requests,
        kv.storm.is_some(),
        kv.admission,
    );
    let sys = build_system(&kv);
    let report = run_driver_on(&sys, &kv);
    let stats = TrialStats::capture(&sys);
    println!("{}", report.summary());
    println!(
        "tm: commits={} aborts={} serial_fallbacks={} sheds={} deadline_exceeded={} [{}]",
        stats.stm.commits + stats.htm_commits,
        stats.stm.aborts + stats.htm_aborts,
        stats.serial_fallbacks,
        sys.stats.get(Stat::Sheds),
        sys.stats.get(Stat::DeadlineExceeded),
        stats.abort_breakdown(),
    );
    Ok(ExitCode::SUCCESS)
}

/// Run one curve point both ways and print the async/threads goodput
/// ratio; exit 1 when it falls below `--min-ratio`.
pub fn sessions(args: &Args) -> Result<ExitCode, String> {
    let mut scfg = SessionConfig {
        sessions: args.get("--sessions", 256)?,
        workers: args.get("--workers", 8)?,
        requests_per_session: args.get("--requests", 10)?,
        think_ns: args.get("--think-ns", 2_000_000)?,
        ..SessionConfig::quick()
    };
    scfg.base.mode = args.get("--mode", scfg.base.mode)?;
    scfg.base.seed = args.get("--seed", scfg.base.seed)?;
    let min_ratio: f64 = args.get("--min-ratio", 0.0)?;
    if scfg.sessions == 0 || scfg.workers == 0 || scfg.requests_per_session == 0 {
        return Err("--sessions/--workers/--requests must be non-zero".into());
    }
    eprintln!(
        "tle: kv-sessions: mode={} sessions={} workers={} requests/session={} think={}ns",
        scfg.base.mode.label(),
        scfg.sessions,
        scfg.workers,
        scfg.requests_per_session,
        scfg.think_ns,
    );
    let async_report = run_session_driver_async(&scfg);
    println!(
        "async   [{} workers]: {}",
        scfg.workers,
        async_report.summary()
    );
    let thread_report = run_session_driver_threads(&scfg);
    println!(
        "threads [{} threads]: {}",
        scfg.sessions,
        thread_report.summary()
    );
    let ratio = async_report.goodput_per_sec / thread_report.goodput_per_sec;
    println!("async/threads goodput ratio: {ratio:.3}");
    if ratio < min_ratio {
        eprintln!("tle: ratio {ratio:.3} below required minimum {min_ratio:.3}");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
