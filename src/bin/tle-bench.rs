//! `tle-bench` — the paper's figures as one machine-readable report, plus
//! the kv serving-workload drivers.
//!
//! ```text
//! cargo run --release --bin tle-bench -- emit --quick --out /tmp/figures.json
//! cargo run --release --bin tle-bench -- kv --storm --plane
//! cargo run --release --bin tle-bench -- kv-sessions --sessions 1000
//! ```
//!
//! Nothing here gates: the repo's regression gate is `BENCHMARK.json` +
//! `benchmark/`. Exit codes: 0 clean, 1 a report that fails its own schema
//! or a `--min-ratio` miss, 2 usage error.

use std::process::ExitCode;
use std::time::Duration;
use tle_base::stats::Stat;
use tle_bench::perf::{emit_report, validate, EmitConfig};
use tle_bench::workloads::TrialStats;
use tle_kv::{
    build_system, run_driver_on, run_session_driver_async, run_session_driver_threads, KvConfig,
    SessionConfig,
};

const USAGE: &str = "\
tle-bench: emit the paper's figures as JSON; drive the kv serving workloads

USAGE: tle-bench <COMMAND> [OPTIONS]

COMMANDS:
  emit                    run the figure suite, check the report against
                          its schema and print it as JSON
    --quick               CI smoke sizing (default: full sizing)
    --out <file>          write to <file> instead of stdout
  kv-sessions             A/B one session-mode point: async multiplexing
                          versus thread-per-session, printing the goodput
                          ratio
    --sessions <n>        logical sessions (default 256)
    --workers <n>         async executor worker threads (default 8)
    --requests <n>        requests per session (default 10)
    --think-ns <n>        per-request think time (default 2000000)
    --mode <m>            algorithm mode (default stm-condvar)
    --seed <n>            session RNG seed (default 42)
    --min-ratio <f>       fail when async/threads goodput < f (default 0)
  kv                      run the sharded KV serving-workload driver once
    --threads <n>         worker threads (default 4)
    --shards <n>          shard locks (default 8)
    --requests <n>        requests per thread (default 20000)
    --mode <m>            algorithm mode (default stm-condvar)
    --gap-ns <n>          open-loop arrival gap per thread; 0 = closed loop
    --storm               inject the hot-key storm
    --plane               enable the deadline/admission plane (1ms budget)
    --deadline-us <n>     per-request budget in microseconds (implies plane)
    --seed <n>            driver RNG seed (default 42)
  -h, --help              this help
";

/// Parse the value following `flag`.
fn num<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
    let v = v.ok_or_else(|| format!("{flag} expects a value"))?;
    v.parse()
        .map_err(|_| format!("{flag}: `{v}` is not a valid value"))
}

/// The `kv` subcommand body; `Err` is a usage error (exit 2 at the caller).
fn kv_cmd(rest: &[String]) -> Result<ExitCode, String> {
    let mut kv = KvConfig {
        requests: 20_000,
        ..KvConfig::quick()
    };
    let mut plane_deadline: Option<Duration> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => kv.threads = num(a, it.next())?,
            "--shards" => kv.shards = num(a, it.next())?,
            "--requests" => kv.requests = num(a, it.next())?,
            "--gap-ns" => kv.gap_ns = num(a, it.next())?,
            "--seed" => kv.seed = num(a, it.next())?,
            "--mode" => {
                let v = it.next().ok_or("--mode expects a value")?;
                kv.mode = v.parse().map_err(|e| format!("{e}"))?;
            }
            "--storm" => kv = kv.with_storm(),
            "--plane" => {
                plane_deadline.get_or_insert(Duration::from_millis(1));
            }
            "--deadline-us" => {
                let us: u64 = num(a, it.next())?;
                plane_deadline = Some(Duration::from_micros(us));
            }
            other => return Err(format!("unknown kv option `{other}`")),
        }
    }
    if kv.threads == 0 || kv.shards == 0 || kv.requests == 0 {
        return Err("kv --threads/--shards/--requests must be non-zero".into());
    }
    if let Some(d) = plane_deadline {
        kv = kv.with_plane(d);
    }
    eprintln!(
        "tle-bench: kv driver: mode={} threads={} shards={} requests/thread={} \
         storm={} plane={}",
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

/// The `kv-sessions` subcommand: run one curve point both ways and print
/// the async/threads goodput ratio (the PR-8 acceptance metric).
fn kv_sessions_cmd(rest: &[String]) -> Result<ExitCode, String> {
    let mut scfg = SessionConfig {
        sessions: 256,
        workers: 8,
        requests_per_session: 10,
        think_ns: 2_000_000,
        ..SessionConfig::quick()
    };
    let mut min_ratio = 0.0f64;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--sessions" => scfg.sessions = num(a, it.next())?,
            "--workers" => scfg.workers = num(a, it.next())?,
            "--requests" => scfg.requests_per_session = num(a, it.next())?,
            "--think-ns" => scfg.think_ns = num(a, it.next())?,
            "--seed" => scfg.base.seed = num(a, it.next())?,
            "--min-ratio" => min_ratio = num(a, it.next())?,
            "--mode" => {
                let v = it.next().ok_or("--mode expects a value")?;
                scfg.base.mode = v.parse().map_err(|e| format!("{e}"))?;
            }
            other => return Err(format!("unknown kv-sessions option `{other}`")),
        }
    }
    if scfg.sessions == 0 || scfg.workers == 0 || scfg.requests_per_session == 0 {
        return Err("kv-sessions --sessions/--workers/--requests must be non-zero".into());
    }
    eprintln!(
        "tle-bench: kv-sessions: mode={} sessions={} workers={} requests/session={} think={}ns",
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
        eprintln!("tle-bench: ratio {ratio:.3} below required minimum {min_ratio:.3}");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// The `emit` subcommand: run the figure suite, self-validate, write.
fn emit_cmd(rest: &[String]) -> Result<ExitCode, String> {
    let mut cfg = EmitConfig::full();
    let mut out_path: Option<&String> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => cfg = EmitConfig::quick(),
            "--out" => out_path = Some(it.next().ok_or("--out expects a file path")?),
            other => return Err(format!("unknown emit option `{other}`")),
        }
    }
    eprintln!(
        "tle-bench: emitting {} report ({} threads, {} micro ops/thread)...",
        cfg.label, cfg.threads, cfg.micro_ops
    );
    let report = emit_report(&cfg);
    if let Err(e) = validate(&report) {
        eprintln!("tle-bench: emitted report failed self-validation: {e}");
        return Ok(ExitCode::FAILURE);
    }
    let text = report.render();
    match out_path {
        Some(p) => {
            if let Err(e) = std::fs::write(p, &text) {
                eprintln!("tle-bench: cannot write {p}: {e}");
                return Ok(ExitCode::FAILURE);
            }
            eprintln!("tle-bench: wrote {p}");
        }
        None => print!("{text}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("tle-bench: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage_error("missing command");
    };
    let rest = &args[1..];
    // Accept both `emit` and `--emit` spellings for the subcommand.
    let outcome = match cmd.trim_start_matches("--") {
        "emit" => emit_cmd(rest),
        "kv" => kv_cmd(rest),
        "kv-sessions" => kv_sessions_cmd(rest),
        "help" | "h" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`")),
    };
    outcome.unwrap_or_else(|msg| usage_error(&msg))
}
