//! The machine-readable figure emit behind `tle-bench emit`.
//!
//! One JSON document holds what the figure benches print as tables:
//! per-figure/per-workload throughput, the per-cause abort breakdown, the
//! quiescence-latency histogram, and a `baseline` / `optimized` pair for
//! each A/B that is still open. It reproduces the paper's evaluation in a
//! form a script can read; it gates nothing — `BENCHMARK.json` and
//! `benchmark/` are the repo's regression gate.
//!
//! Everything here is dependency-free: the document is a [`Json`] tree with
//! a fixed key order, [`validate`] accepts exactly the schema version
//! [`emit_report`] writes, and [`stable_view`] strips every `"measured"`
//! subtree so two runs of the same emitter on the same machine produce
//! identical stable views (determinism modulo timing).

use crate::workloads::{
    lazy_subscription_trial, micro_trial_opts, pbzip_compress_trial, pbzip_decompress_trial,
    x265_trial, MicroOpts, Mix, TrialStats, VideoSize,
};
use std::sync::Arc;
use std::time::Duration;
use tle_base::json::Json;
use tle_base::stats::HIST_BUCKETS;
use tle_base::AbortCause;
use tle_core::{AlgoMode, TmSystem};
use tle_kv::{
    build_system, run_driver_on, run_session_driver_async_on, run_session_driver_threads_on,
    KvConfig, KvReport, SessionConfig,
};
use tle_pbz::{compress_parallel, gen_text, PipelineConfig};
use tle_stm::QuiescePolicy;

/// Document type tag.
pub const SCHEMA: &str = "tle-bench-trajectory";
/// Bumped on any incompatible schema change; [`validate`] accepts this
/// version only. (Version 2 added the `kv` serving-workload runs, whose
/// `measured` subtree carries `latency` and `requests` objects; version 3
/// the `kv-sessions` figure, same `measured` shape.)
pub const SCHEMA_VERSION: u64 = 3;
/// The PR that last changed what the report contains.
pub const PR: u64 = 17;
/// Executor workers for every `kv-sessions` async run (the acceptance bar
/// is "≥ 1000 sessions on ≤ 8 workers").
pub const SESSION_WORKERS: usize = 8;

/// Emission knobs. `quick` and `full` share `threads` and the session
/// curve, so both produce the same set of runs (only `ops`/input sizes
/// differ).
#[derive(Debug, Clone, Copy)]
pub struct EmitConfig {
    /// Human tag recorded in the document (`quick`, `full`, ...).
    pub label: &'static str,
    /// Worker threads for every run.
    pub threads: usize,
    /// Measured ops per thread for the fig5 microbenchmarks.
    pub micro_ops: u64,
    /// PBZip2 input size in KiB.
    pub pbzip_kib: usize,
    /// Trials per configuration (best-of, to damp scheduler noise).
    pub trials: usize,
    /// Include the application figures (fig2 PBZip2, fig3 x265). The
    /// microbenchmarks and optimization A/Bs always run.
    pub apps: bool,
    /// Session counts for the `kv-sessions` curve (each run's `mix`).
    pub sessions_curve: &'static [usize],
    /// Requests each logical session issues.
    pub session_requests: u64,
    /// Per-request think time. With a closed loop this bounds goodput at
    /// `sessions / (think + service)`, so quick and full keep it equal and
    /// their goodputs stay comparable.
    pub session_think_ns: u64,
}

impl EmitConfig {
    /// CI smoke sizing: seconds, not minutes.
    pub fn quick() -> Self {
        EmitConfig {
            label: "quick",
            threads: 4,
            micro_ops: 4_000,
            pbzip_kib: 64,
            trials: 2,
            apps: true,
            sessions_curve: &[64, 256, 1000],
            session_requests: 6,
            session_think_ns: 2_000_000,
        }
    }

    /// Sizing for numbers worth quoting (minutes, not seconds).
    pub fn full() -> Self {
        EmitConfig {
            label: "full",
            threads: 4,
            micro_ops: 40_000,
            pbzip_kib: 256,
            trials: 3,
            apps: true,
            sessions_curve: &[64, 256, 1000],
            session_requests: 25,
            session_think_ns: 2_000_000,
        }
    }
}

/// Schema-key metadata for one run (everything except the measurements).
struct RunSpec {
    figure: &'static str,
    workload: String,
    mix: String,
    mode: String,
    policy: String,
    threads: usize,
    ops: u64,
    warmup: u64,
    unit: &'static str,
}

fn measured_json(secs: f64, tput: f64, stats: &TrialStats) -> Json {
    let commits = stats.stm.commits.saturating_add(stats.htm_commits);
    let aborts = stats.stm.aborts.saturating_add(stats.htm_aborts);
    let attempts = commits.saturating_add(aborts);
    let abort_rate = if attempts == 0 {
        0.0
    } else {
        aborts as f64 / attempts as f64
    };
    let by_cause = Json::Obj(
        AbortCause::ALL
            .iter()
            .map(|&c| (c.label().to_string(), Json::u64(stats.cause(c))))
            .collect(),
    );
    let hist = Json::Arr(
        stats
            .stm
            .quiesce_hist
            .buckets
            .iter()
            .map(|&b| Json::u64(b))
            .collect(),
    );
    Json::Obj(vec![
        ("secs".into(), Json::f64(secs)),
        ("ops_per_sec".into(), Json::f64(tput)),
        ("commits".into(), Json::u64(commits)),
        ("aborts".into(), Json::u64(aborts)),
        ("abort_rate".into(), Json::f64(abort_rate)),
        ("serial_fallbacks".into(), Json::u64(stats.serial_fallbacks)),
        ("by_cause".into(), by_cause),
        (
            "quiesce".into(),
            // The drain machinery lives in the STM domain only.
            Json::Obj(vec![
                ("drains".into(), Json::u64(stats.stm.quiesces)),
                ("skipped".into(), Json::u64(stats.stm.quiesce_skipped)),
                ("wait_ns".into(), Json::u64(stats.stm.quiesce_wait_ns)),
                ("hist".into(), hist),
            ]),
        ),
    ])
}

/// `measured` for a kv serving run: the version-1 fields (goodput stands in
/// for `ops_per_sec`), plus the latency and request-outcome objects
/// version 2 added.
fn kv_measured_json(r: &KvReport, stats: &TrialStats) -> Json {
    let Json::Obj(mut fields) = measured_json(r.secs, r.goodput_per_sec, stats) else {
        unreachable!("measured_json returns an object")
    };
    fields.push((
        "latency".into(),
        Json::Obj(vec![
            ("p50_ns".into(), Json::u64(r.p50_ns)),
            ("p99_ns".into(), Json::u64(r.p99_ns)),
            ("p999_ns".into(), Json::u64(r.p999_ns)),
        ]),
    ));
    fields.push((
        "requests".into(),
        Json::Obj(vec![
            ("offered".into(), Json::u64(r.offered)),
            ("completed".into(), Json::u64(r.completed)),
            ("shed".into(), Json::u64(r.shed)),
            ("deadline_miss".into(), Json::u64(r.deadline_miss)),
            (
                "max_admission_step".into(),
                Json::u64(r.max_admission_step as u64),
            ),
        ]),
    ));
    Json::Obj(fields)
}

fn kv_run_json(mix: &str, policy: &str, kv: &KvConfig, r: &KvReport, stats: &TrialStats) -> Json {
    Json::Obj(vec![
        ("figure".into(), Json::str("kv")),
        ("workload".into(), Json::str("kv-zipf")),
        ("mix".into(), Json::str(mix)),
        ("mode".into(), Json::str(kv.mode.label())),
        ("policy".into(), Json::str(policy)),
        ("threads".into(), Json::u64(kv.threads as u64)),
        ("ops".into(), Json::u64(r.offered)),
        ("warmup".into(), Json::u64(0)),
        ("unit".into(), Json::str("reqs/sec")),
        ("measured".into(), kv_measured_json(r, stats)),
    ])
}

/// One `kv-sessions` curve point. `policy` names the execution model
/// (`async-w8` / `threads`); `threads` records the OS threads actually
/// running sessions — the executor worker count for the async driver, one
/// per session for the baseline.
fn session_run_json(
    scfg: &SessionConfig,
    policy: &str,
    threads: usize,
    r: &KvReport,
    stats: &TrialStats,
) -> Json {
    Json::Obj(vec![
        ("figure".into(), Json::str("kv-sessions")),
        ("workload".into(), Json::str("kv-sessions")),
        ("mix".into(), Json::str(format!("s{}", scfg.sessions))),
        ("mode".into(), Json::str(scfg.base.mode.label())),
        ("policy".into(), Json::str(policy)),
        ("threads".into(), Json::u64(threads as u64)),
        ("ops".into(), Json::u64(r.offered)),
        ("warmup".into(), Json::u64(0)),
        ("unit".into(), Json::str("reqs/sec")),
        ("measured".into(), kv_measured_json(r, stats)),
    ])
}

fn run_json(spec: &RunSpec, secs: f64, tput: f64, stats: &TrialStats) -> Json {
    Json::Obj(vec![
        ("figure".into(), Json::str(spec.figure)),
        ("workload".into(), Json::str(&*spec.workload)),
        ("mix".into(), Json::str(&*spec.mix)),
        ("mode".into(), Json::str(&*spec.mode)),
        ("policy".into(), Json::str(&*spec.policy)),
        ("threads".into(), Json::u64(spec.threads as u64)),
        ("ops".into(), Json::u64(spec.ops)),
        ("warmup".into(), Json::u64(spec.warmup)),
        ("unit".into(), Json::str(spec.unit)),
        ("measured".into(), measured_json(secs, tput, stats)),
    ])
}

/// Best-of-`trials` micro run (max throughput, with that run's stats).
fn best_micro(
    trials: usize,
    kind: &str,
    policy: QuiescePolicy,
    threads: usize,
    mix: Mix,
    ops: u64,
    opts: MicroOpts,
) -> (f64, TrialStats) {
    let mut best: Option<(f64, TrialStats)> = None;
    for _ in 0..trials.max(1) {
        let (t, s) = micro_trial_opts(kind, policy, threads, mix, ops, opts);
        if best.as_ref().is_none_or(|(bt, _)| t > *bt) {
            best = Some((t, s));
        }
    }
    best.expect("at least one trial")
}

fn ab_side(config: &str, tput: f64, extra: Vec<(String, Json)>) -> Json {
    let mut measured = vec![("ops_per_sec".to_string(), Json::f64(tput))];
    measured.extend(extra);
    Json::Obj(vec![
        ("config".into(), Json::str(config)),
        ("measured".into(), Json::Obj(measured)),
    ])
}

/// Identity of one optimization A/B (everything but the two sides).
struct AbSpec {
    name: &'static str,
    figure: &'static str,
    workload: &'static str,
    mix: &'static str,
    policy: &'static str,
    threads: usize,
}

fn ab_entry(spec: &AbSpec, baseline: Json, optimized: Json, speedup: f64) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::str(spec.name)),
        ("figure".into(), Json::str(spec.figure)),
        ("workload".into(), Json::str(spec.workload)),
        ("mix".into(), Json::str(spec.mix)),
        ("policy".into(), Json::str(spec.policy)),
        ("threads".into(), Json::u64(spec.threads as u64)),
        ("baseline".into(), baseline),
        ("optimized".into(), optimized),
        (
            "measured".into(),
            Json::Obj(vec![("speedup".into(), Json::f64(speedup))]),
        ),
    ])
}

/// Run the figure suite and build the document.
pub fn emit_report(cfg: &EmitConfig) -> Json {
    let mut runs = Vec::new();
    let warm = cfg.micro_ops / 10;

    if cfg.apps {
        // fig2: PBZip2 pipeline, bytes/sec.
        let block = 16 * 1024;
        let input = gen_text(42, cfg.pbzip_kib * 1024);
        for mode in [
            AlgoMode::StmCondvar,
            AlgoMode::HtmCondvar,
            AlgoMode::AdaptiveHtm,
            AlgoMode::AdaptiveHtmLazy,
        ] {
            let (secs, stats) = pbzip_compress_trial(mode, cfg.threads, block, &input);
            runs.push(run_json(
                &RunSpec {
                    figure: "fig2",
                    workload: "pbzip-compress".into(),
                    mix: "-".into(),
                    mode: mode.label().into(),
                    policy: "-".into(),
                    threads: cfg.threads,
                    ops: input.len() as u64,
                    warmup: input.len().min(block) as u64,
                    unit: "bytes/sec",
                },
                secs,
                input.len() as f64 / secs,
                &stats,
            ));
        }
        let sys = Arc::new(TmSystem::new(AlgoMode::HtmCondvar));
        let ccfg = PipelineConfig {
            workers: cfg.threads,
            block_size: block,
            fifo_cap: 2 * cfg.threads.max(2),
        };
        let compressed = compress_parallel(&sys, &input, &ccfg);
        let (secs, stats) =
            pbzip_decompress_trial(AlgoMode::HtmCondvar, cfg.threads, block, &compressed);
        runs.push(run_json(
            &RunSpec {
                figure: "fig2",
                workload: "pbzip-decompress".into(),
                mix: "-".into(),
                mode: AlgoMode::HtmCondvar.label().into(),
                policy: "-".into(),
                threads: cfg.threads,
                ops: compressed.len() as u64,
                warmup: 4096,
                unit: "bytes/sec",
            },
            secs,
            compressed.len() as f64 / secs,
            &stats,
        ));

        // fig3: x265 encoder, frames/sec — including the adaptive eager and
        // safe-lazy modes so the lazy path stays measured on a real
        // multi-lock application, not just the capacity-edge A/B.
        let frames = VideoSize::Small.params(false).2 as u64;
        for mode in [
            AlgoMode::HtmCondvar,
            AlgoMode::AdaptiveHtm,
            AlgoMode::AdaptiveHtmLazy,
        ] {
            let (secs, stats) = x265_trial(mode, cfg.threads, VideoSize::Small, false);
            runs.push(run_json(
                &RunSpec {
                    figure: "fig3",
                    workload: "x265-small".into(),
                    mix: "-".into(),
                    mode: mode.label().into(),
                    policy: "-".into(),
                    threads: cfg.threads,
                    ops: frames,
                    warmup: 2,
                    unit: "frames/sec",
                },
                secs,
                frames as f64 / secs,
                &stats,
            ));
        }
    }

    // fig5: set microbenchmarks, ops/sec.
    let micro_cases: [(&str, QuiescePolicy, Mix); 5] = [
        ("hash", QuiescePolicy::Selective, Mix::HalfLookup),
        ("tree", QuiescePolicy::Selective, Mix::HalfLookup),
        ("list", QuiescePolicy::Selective, Mix::HalfLookup),
        ("hash", QuiescePolicy::Selective, Mix::ReadMostly),
        ("hash", QuiescePolicy::Always, Mix::UpdateOnly),
    ];
    for (kind, policy, mix) in micro_cases {
        let (tput, stats) = best_micro(
            cfg.trials,
            kind,
            policy,
            cfg.threads,
            mix,
            cfg.micro_ops,
            MicroOpts::warmed(cfg.micro_ops),
        );
        let total = cfg.threads as u64 * cfg.micro_ops;
        runs.push(run_json(
            &RunSpec {
                figure: "fig5",
                workload: kind.into(),
                mix: mix.label().into(),
                mode: AlgoMode::StmCondvar.label().into(),
                policy: policy.label().into(),
                threads: cfg.threads,
                ops: total,
                warmup: cfg.threads as u64 * warm,
                unit: "ops/sec",
            },
            total as f64 / tput,
            tput,
            &stats,
        ));
    }

    // kv: the sharded serving workload — the deadline/admission plane A/B.
    // Three runs: the quiet baseline, the hot-key storm with the plane
    // containing it, and the same storm with the plane off so the damage
    // the plane prevents stays on record.
    // Not scaled by `micro_ops`: the driver is rate-driven (~40ms/run) and
    // the storm window must outlast the admission ladder's dwell floors
    // (min_dwell_steps × controller period per step) or the plane never
    // engages and the A/B measures nothing.
    let kv_base = KvConfig {
        threads: cfg.threads,
        requests: 10_000,
        ..KvConfig::quick()
    };
    let kv_cases: [(&str, &str, KvConfig); 3] = [
        ("no-storm", "plane-off", kv_base),
        (
            "storm",
            "plane-on",
            kv_base.with_storm().with_plane(Duration::from_millis(1)),
        ),
        ("storm", "plane-off", kv_base.with_storm()),
    ];
    for (mix, policy, kv) in kv_cases {
        let sys = build_system(&kv);
        let report = run_driver_on(&sys, &kv);
        let stats = TrialStats::capture(&sys);
        runs.push(kv_run_json(mix, policy, &kv, &report, &stats));
    }

    // kv-sessions: the async multiplexing curve. Each point pairs N paced
    // logical sessions on SESSION_WORKERS executor threads (sessions as
    // tasks, waits suspend via wakers) against the thread-per-session
    // baseline (one OS thread each, handles checked out of a pool). The
    // closed loop's think time bounds per-session rate, so goodput should
    // scale with the session count in both columns — the async column just
    // gets there on 8 OS threads.
    for &sessions in cfg.sessions_curve {
        let scfg = SessionConfig {
            base: KvConfig::quick(),
            sessions,
            workers: SESSION_WORKERS,
            requests_per_session: cfg.session_requests,
            think_ns: cfg.session_think_ns,
        };
        let async_policy = format!("async-w{SESSION_WORKERS}");
        let sys = build_system(&scfg.base);
        let report = run_session_driver_async_on(&sys, &scfg);
        let stats = TrialStats::capture(&sys);
        runs.push(session_run_json(
            &scfg,
            &async_policy,
            SESSION_WORKERS,
            &report,
            &stats,
        ));

        let sys = build_system(&scfg.base);
        let report = run_session_driver_threads_on(&sys, &scfg);
        let stats = TrialStats::capture(&sys);
        runs.push(session_run_json(
            &scfg, "threads", sessions, &report, &stats,
        ));
    }

    // Open A/Bs: one knob flipped per entry, both sides measured in this
    // same process so the numbers are an honest pair.
    let mut optimizations = Vec::new();

    // Lazy lock-word subscription (PR 9): the capacity-edge scan, where the
    // eager mode's subscription read is the straw that overflows the read
    // cap. Both sides record the abort-by-cause split so the artifact
    // captures *why* lazy wins here: the eager column's conflict aborts are
    // the acquire-time dooms its own fallback cascade causes.
    let cause_fields = |s: &TrialStats| {
        vec![
            (
                "conflict_aborts".to_string(),
                Json::u64(s.cause(AbortCause::Conflict)),
            ),
            (
                "capacity_aborts".to_string(),
                Json::u64(s.cause(AbortCause::Capacity)),
            ),
            (
                "serial_fallbacks".to_string(),
                Json::u64(s.serial_fallbacks),
            ),
            ("htm_commits".to_string(), Json::u64(s.htm_commits)),
        ]
    };
    let lazy_lines = 8;
    let lazy_ops = (cfg.micro_ops / 4).max(1_000);
    let (eager_t, eager_s) =
        lazy_subscription_trial(AlgoMode::AdaptiveHtm, cfg.threads, lazy_lines, lazy_ops);
    let (lazy_t, lazy_s) =
        lazy_subscription_trial(AlgoMode::AdaptiveHtmLazy, cfg.threads, lazy_lines, lazy_ops);
    optimizations.push(ab_entry(
        &AbSpec {
            name: "lazy-subscription",
            figure: "fig2",
            workload: "capacity-edge-scan",
            mix: "-",
            policy: "-",
            threads: cfg.threads,
        },
        ab_side("mode=adaptive-htm", eager_t, cause_fields(&eager_s)),
        ab_side("mode=adaptive-htm-lazy", lazy_t, cause_fields(&lazy_s)),
        lazy_t / eager_t,
    ));

    let config = Json::Obj(vec![
        ("label".into(), Json::str(cfg.label)),
        ("threads".into(), Json::u64(cfg.threads as u64)),
        ("micro_ops".into(), Json::u64(cfg.micro_ops)),
        ("warmup_ops".into(), Json::u64(warm)),
        ("pbzip_kib".into(), Json::u64(cfg.pbzip_kib as u64)),
        ("trials".into(), Json::u64(cfg.trials as u64)),
        ("apps".into(), Json::Bool(cfg.apps)),
        (
            "sessions_curve".into(),
            Json::Arr(
                cfg.sessions_curve
                    .iter()
                    .map(|&s| Json::u64(s as u64))
                    .collect(),
            ),
        ),
        ("session_requests".into(), Json::u64(cfg.session_requests)),
        ("session_think_ns".into(), Json::u64(cfg.session_think_ns)),
    ]);
    document(config, runs, optimizations)
}

/// The top-level object, in schema key order.
fn document(config: Json, runs: Vec<Json>, optimizations: Vec<Json>) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::str(SCHEMA)),
        ("schema_version".into(), Json::u64(SCHEMA_VERSION)),
        ("pr".into(), Json::u64(PR)),
        ("config".into(), config),
        ("runs".into(), Json::Arr(runs)),
        ("optimizations".into(), Json::Arr(optimizations)),
    ])
}

/// The document with every `"measured"` subtree removed: what must be
/// identical between two emits of the same configuration.
pub fn stable_view(doc: &Json) -> Json {
    match doc {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "measured")
                .map(|(k, v)| (k.clone(), stable_view(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(stable_view).collect()),
        other => other.clone(),
    }
}

fn req<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing key '{key}'"))
}

fn req_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    req(v, key)?
        .as_str()
        .ok_or_else(|| format!("key '{key}' is not a string"))
}

fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
    req(v, key)?
        .as_u64()
        .ok_or_else(|| format!("key '{key}' is not an unsigned integer"))
}

fn req_f64(v: &Json, key: &str) -> Result<f64, String> {
    req(v, key)?
        .as_f64()
        .ok_or_else(|| format!("key '{key}' is not a number"))
}

/// Check a document against the `tle-bench-trajectory` schema, at exactly
/// the version [`emit_report`] writes.
pub fn validate(doc: &Json) -> Result<(), String> {
    let schema = req_str(doc, "schema")?;
    if schema != SCHEMA {
        return Err(format!("schema is '{schema}', expected '{SCHEMA}'"));
    }
    let version = req_u64(doc, "schema_version")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version is {version}, expected {SCHEMA_VERSION}"
        ));
    }
    req_u64(doc, "pr")?;
    req(doc, "config")?
        .as_obj()
        .ok_or("'config' is not an object")?;
    let runs = req(doc, "runs")?.as_arr().ok_or("'runs' is not an array")?;
    if runs.is_empty() {
        return Err("'runs' is empty".into());
    }
    for (i, run) in runs.iter().enumerate() {
        validate_run(run).map_err(|e| format!("runs[{i}]: {e}"))?;
    }
    let opts = req(doc, "optimizations")?
        .as_arr()
        .ok_or("'optimizations' is not an array")?;
    for (i, o) in opts.iter().enumerate() {
        validate_opt(o).map_err(|e| format!("optimizations[{i}]: {e}"))?;
    }
    Ok(())
}

fn validate_measured(m: &Json) -> Result<(), String> {
    m.as_obj().ok_or("'measured' is not an object")?;
    req_f64(m, "secs")?;
    req_f64(m, "ops_per_sec")?;
    req_u64(m, "commits")?;
    req_u64(m, "aborts")?;
    req_f64(m, "abort_rate")?;
    req_u64(m, "serial_fallbacks")?;
    let by_cause = req(m, "by_cause")?;
    for cause in AbortCause::ALL {
        req_u64(by_cause, cause.label()).map_err(|e| format!("by_cause: {e}"))?;
    }
    let quiesce = req(m, "quiesce")?;
    req_u64(quiesce, "drains")?;
    req_u64(quiesce, "skipped")?;
    req_u64(quiesce, "wait_ns")?;
    let hist = req(quiesce, "hist")?
        .as_arr()
        .ok_or("'quiesce.hist' is not an array")?;
    if hist.len() != HIST_BUCKETS {
        return Err(format!(
            "quiesce.hist has {} buckets, expected {HIST_BUCKETS}",
            hist.len()
        ));
    }
    for b in hist {
        b.as_u64().ok_or("non-integer histogram bucket")?;
    }
    Ok(())
}

fn validate_run(run: &Json) -> Result<(), String> {
    for key in ["figure", "workload", "mix", "mode", "policy", "unit"] {
        req_str(run, key)?;
    }
    for key in ["threads", "ops", "warmup"] {
        req_u64(run, key)?;
    }
    let m = req(run, "measured")?;
    validate_measured(m)?;
    if matches!(req_str(run, "figure")?, "kv" | "kv-sessions") {
        validate_kv_measured(m)?;
    }
    Ok(())
}

/// The serving-run extensions: every `"kv"` and `"kv-sessions"` run must
/// carry the latency quantiles and the request-outcome ledger.
fn validate_kv_measured(m: &Json) -> Result<(), String> {
    let lat = req(m, "latency")?;
    for key in ["p50_ns", "p99_ns", "p999_ns"] {
        req_u64(lat, key).map_err(|e| format!("latency: {e}"))?;
    }
    let reqs = req(m, "requests")?;
    for key in [
        "offered",
        "completed",
        "shed",
        "deadline_miss",
        "max_admission_step",
    ] {
        req_u64(reqs, key).map_err(|e| format!("requests: {e}"))?;
    }
    Ok(())
}

fn validate_opt(o: &Json) -> Result<(), String> {
    req_str(o, "name")?;
    req_str(o, "workload")?;
    req_u64(o, "threads")?;
    for side in ["baseline", "optimized"] {
        let s = req(o, side)?;
        req_str(s, "config").map_err(|e| format!("{side}: {e}"))?;
        let m = req(s, "measured").map_err(|e| format!("{side}: {e}"))?;
        req_f64(m, "ops_per_sec").map_err(|e| format!("{side}: {e}"))?;
    }
    req_f64(req(o, "measured")?, "speedup").map_err(|e| format!("measured: {e}"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal schema-valid document: one fig5 run at `tput` ops/sec.
    fn fixture(tput: f64) -> Json {
        let spec = RunSpec {
            figure: "fig5",
            workload: "hash".into(),
            mix: Mix::HalfLookup.label().into(),
            mode: AlgoMode::StmCondvar.label().into(),
            policy: QuiescePolicy::Selective.label().into(),
            threads: 2,
            ops: 1_000,
            warmup: 100,
            unit: "ops/sec",
        };
        let run = run_json(&spec, 1.0, tput, &TrialStats::default());
        document(Json::Obj(Vec::new()), vec![run], Vec::new())
    }

    #[test]
    fn fixture_passes_validation() {
        validate(&fixture(1000.0)).unwrap();
    }

    #[test]
    fn kv_runs_require_latency_and_requests() {
        let report = KvReport {
            offered: 100,
            completed: 90,
            shed: 6,
            deadline_miss: 4,
            secs: 1.0,
            goodput_per_sec: 90.0,
            p50_ns: 10,
            p99_ns: 20,
            p999_ns: 30,
            hist: tle_base::stats::LatencyHist::new().snapshot(),
            max_admission_step: 2,
        };
        let kv = KvConfig::quick();
        let run = kv_run_json("storm", "plane-on", &kv, &report, &TrialStats::default());
        validate_run(&run).unwrap();

        // A kv run without the quantiles is rejected...
        let mut broken = run.clone();
        replace_key(&mut broken, "latency", &Json::u64(0));
        let err = validate_run(&broken).unwrap_err();
        assert!(err.contains("latency"), "unexpected error: {err}");
        // ...but the same gap on a non-kv figure is fine.
        let mut non_kv = broken;
        replace_key(&mut non_kv, "figure", &Json::str("fig5"));
        validate_run(&non_kv).unwrap();

        let mut broken = run;
        replace_key(&mut broken, "requests", &Json::u64(0));
        let err = validate_run(&broken).unwrap_err();
        assert!(err.contains("requests"), "unexpected error: {err}");
    }

    #[test]
    fn validate_rejects_schema_drift() {
        let mut bad_schema = fixture(1000.0);
        replace_key(&mut bad_schema, "schema", &Json::str("something-else"));
        assert!(validate(&bad_schema).unwrap_err().contains("schema"));
        let mut no_runs = fixture(1000.0);
        if let Json::Obj(fields) = &mut no_runs {
            fields.retain(|(k, _)| k != "runs");
        }
        assert!(validate(&no_runs).unwrap_err().contains("runs"));
        let mut empty_runs = fixture(1000.0);
        replace_key(&mut empty_runs, "runs", &Json::Arr(Vec::new()));
        assert!(validate(&empty_runs).unwrap_err().contains("empty"));
    }

    /// Replace the value at key `target` anywhere in the tree.
    fn replace_key(v: &mut Json, target: &str, with: &Json) {
        match v {
            Json::Obj(fields) => {
                for (k, val) in fields.iter_mut() {
                    if k == target {
                        *val = with.clone();
                    } else {
                        replace_key(val, target, with);
                    }
                }
            }
            Json::Arr(items) => {
                for item in items.iter_mut() {
                    replace_key(item, target, with);
                }
            }
            _ => {}
        }
    }

    #[test]
    fn validate_checks_histogram_width_and_causes() {
        let mut doc = fixture(1000.0);
        replace_key(&mut doc, "hist", &Json::Arr(vec![Json::u64(0); 4]));
        let err = validate(&doc).unwrap_err();
        assert!(err.contains("hist"), "unexpected error: {err}");

        let mut doc = fixture(1000.0);
        replace_key(&mut doc, "by_cause", &Json::Obj(Vec::new()));
        let err = validate(&doc).unwrap_err();
        assert!(err.contains("by_cause"), "unexpected error: {err}");
    }

    #[test]
    fn stable_view_strips_every_measured_subtree() {
        let a = fixture(1000.0);
        let b = fixture(123.0);
        assert_ne!(a, b);
        assert_eq!(stable_view(&a), stable_view(&b));
        fn has_measured(v: &Json) -> bool {
            match v {
                Json::Obj(f) => f.iter().any(|(k, v)| k == "measured" || has_measured(v)),
                Json::Arr(items) => items.iter().any(has_measured),
                _ => false,
            }
        }
        assert!(has_measured(&a));
        assert!(!has_measured(&stable_view(&a)));
    }
}
