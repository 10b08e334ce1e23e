//! The repo benchmark: a single-process, closed-loop harness that times
//! calls into the public functions of the TLE crates from outside. See
//! `README.md` for the workloads and `../BENCHMARK.json` for the contract.
//!
//! ```text
//! tle-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!               [--quick]
//! tle-benchmark aa [--runs N] [--seed N] [--vary-seed]
//! ```
//!
//! Standard output is a detailed JSON report (every metric with unit,
//! median, quartiles, sample count and samples) followed, as
//! the last line, by the one-line result object the driver reads. Exit code
//! 0 means every check passed, 1 that a check failed, 2 a usage error.

mod aa;
mod drive;
mod elide;
mod kv;
mod ladder;
mod pbz;
mod schema;
mod spans;
mod stats;
mod yard;

use drive::{Load, Mode, Observe, Trial, MODES};
use spans::Tracer;
use stats::{mid_mean_ns, percentile_ns, Summary};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use tle_base::json::Json;
use tle_base::AbortCause;
use tle_core::{DomainStats, TmSystem};

/// Op counts are fixed per trial (so single-thread counters repeat
/// exactly); `--seconds` decides how many rounds of trials fit.
pub struct Sizing {
    pub quick: bool,
    pub min_rounds: u64,
    pub min_ladder_passes: u64,
    pub warm_ops: u64,
    pub elide_ops: u64,
    pub elide_timed_ops: u64,
    pub elide_yard_ops: u64,
    pub kv_shards: usize,
    pub kv_keys_per_shard: u64,
    /// Per client.
    pub kv_read_ops: u64,
    pub kv_write_ops: u64,
    pub kv_timed_ops: u64,
    pub kv_yard_ops: u64,
    pub pbz_corpus: usize,
    pub pbz_small_len: usize,
    pub pbz_small_calls: u64,
    pub pbz_yard_passes: u64,
    pub ladder_ops: u64,
    pub ladder_pbz_blocks: usize,
}

impl Sizing {
    /// The measured sizing. A trial lasts 0.1–0.3 s, a yardstick pass 40 ms
    /// and a round of every trial a little over 1 s on the 2-core reference
    /// host, so a run holds 20–30 rounds: the disturbances on that host
    /// last seconds, and the median over many short rounds sits among the
    /// undisturbed ones. The kv store (32 Ki keys, ~1 MB with its index)
    /// fits the private L2: a larger one mostly measures the neighbours'
    /// traffic in the shared L3.
    pub fn full() -> Sizing {
        Sizing {
            quick: false,
            min_rounds: 7,
            min_ladder_passes: 3,
            warm_ops: 50_000,
            elide_ops: 1_000_000,
            elide_timed_ops: 500_000,
            elide_yard_ops: 5_000_000,
            kv_shards: 8,
            kv_keys_per_shard: 4_096,
            kv_read_ops: 600_000,
            kv_write_ops: 500_000,
            kv_timed_ops: 400_000,
            kv_yard_ops: 500_000,
            pbz_corpus: 1_200_000,
            pbz_small_len: 10_000,
            pbz_small_calls: 60,
            pbz_yard_passes: 4,
            ladder_ops: 200_000,
            ladder_pbz_blocks: 8,
        }
    }

    /// Smoke sizing: exactly two rounds, every workload in a few seconds.
    /// Its numbers mean nothing; the output says `"quick": true`.
    pub fn quick() -> Sizing {
        Sizing {
            quick: true,
            min_rounds: 2,
            min_ladder_passes: 1,
            warm_ops: 2_000,
            elide_ops: 200_000,
            elide_timed_ops: 50_000,
            elide_yard_ops: 200_000,
            kv_shards: 8,
            kv_keys_per_shard: 512,
            kv_read_ops: 40_000,
            kv_write_ops: 20_000,
            kv_timed_ops: 20_000,
            kv_yard_ops: 20_000,
            pbz_corpus: 400_000,
            pbz_small_len: 20_000,
            pbz_small_calls: 8,
            pbz_yard_passes: 1,
            ladder_ops: 8_000,
            ladder_pbz_blocks: 2,
        }
    }
}

/// What the round loop needs from a workload.
pub trait Workload {
    /// Run one trial of `mode` on `load` threads; trials of one `round`
    /// share their inputs.
    fn trial(&mut self, mode: Mode, load: Load, round: u64, observe: Observe<'_>) -> Trial;
    /// One pass of the workload's yardstick (`yard`): fixed `std`-only work
    /// of this workload's kind; returns its rate in yardstick ops per second.
    fn yardstick(&mut self, round: u64) -> f64;
    /// The system `mode`'s trials run on (for its counters).
    fn system(&self, mode: Mode) -> &Arc<TmSystem>;
    /// End-of-run checks; returns the failed-check count.
    fn finish(&mut self) -> u64 {
        0
    }
}

fn build(workload: &str, seed: u64, sz: &Sizing) -> Box<dyn Workload> {
    match workload {
        "elide-1t" => Box::new(elide::Elide::setup(seed, sz)),
        "kv-read" => Box::new(kv::Kv::setup(seed, sz, false)),
        "kv-write" => Box::new(kv::Kv::setup(seed, sz, true)),
        "pbz-pipeline" => Box::new(pbz::Pbz::setup(seed, sz)),
        other => unreachable!("workload {other:?} passed argument checking"),
    }
}

/// `v` with every digit it has (the shortest text that reads back as `v`).
pub fn digits(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value");
    format!("{v}")
}

pub fn num(v: f64) -> Json {
    Json::Num(digits(v))
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Where a traced run writes its file: `benchmark/out` under the
    /// current directory (the repo root); only the test moves it.
    pub out_dir: PathBuf,
}

/// Per-round samples of every metric measured in this invocation.
#[derive(Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: impl Into<String>, v: f64) {
        self.0.entry(name.into()).or_default().push(v);
    }

    fn of(&self, name: &str) -> &[f64] {
        match self.0.get(name) {
            Some(v) => v,
            None => panic!("harness bug: metric `{name}` was never measured"),
        }
    }

    fn summary(&self, name: &str) -> Summary {
        Summary::of(self.of(name))
    }
}

/// One reported metric: `rounds.median` is the number reported.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub rounds: Summary,
    pub samples: Vec<f64>,
}

pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub quick: bool,
    pub trace: bool,
    pub rounds: u64,
    pub ladder_passes: u64,
    /// Process start to the start of the first measured round.
    pub startup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Failed checks ÷ ops attempted; the bound is exactly 0.
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn exit_code(&self) -> i32 {
        (self.failed != 0) as i32
    }

    /// Every metric by name with unit, median, quartiles, sample count and
    /// the samples themselves.
    pub fn detail(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let row = Json::Obj(vec![
                    ("unit".into(), Json::str(m.unit)),
                    ("median".into(), num(m.rounds.median)),
                    ("q1".into(), num(m.rounds.q1)),
                    ("q3".into(), num(m.rounds.q3)),
                    ("n".into(), Json::u64(m.rounds.n as u64)),
                    (
                        "samples".into(),
                        Json::Arr(m.samples.iter().map(|&v| num(v)).collect()),
                    ),
                ]);
                (m.name.to_string(), row)
            })
            .collect();
        let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
        Json::Obj(vec![
            ("workload".into(), Json::str(&*self.workload)),
            ("seed".into(), Json::u64(self.seed)),
            ("quick".into(), Json::Bool(self.quick)),
            ("trace".into(), Json::Bool(self.trace)),
            ("rounds".into(), Json::u64(self.rounds)),
            ("ladder_passes".into(), Json::u64(self.ladder_passes)),
            ("available_parallelism".into(), Json::u64(threads as u64)),
            ("startup_s".into(), num(self.startup_s)),
            ("attempted".into(), Json::u64(self.attempted)),
            ("failed".into(), Json::u64(self.failed)),
            ("fail_share".into(), num(self.fail_share())),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    /// The one-line result object the driver reads.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    digits(m.rounds.median),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) in MB.
fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Counters of one trial, from the snapshot taken after it.
fn push_counters(s: &mut Samples, mode: Mode, d: &DomainStats, ops: u64) {
    let share = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;
    match mode {
        Mode::Lock => {}
        Mode::Stm => {
            let t = &d.stm;
            s.push("stm.commits", t.commits as f64);
            s.push("stm.aborts", t.aborts as f64);
            s.push("stm.abort_share", share(t.aborts, t.commits + t.aborts));
            for (name, cause) in [
                ("read_conflict", AbortCause::ReadConflict),
                ("write_conflict", AbortCause::WriteConflict),
                ("validation", AbortCause::ValidationFailed),
                ("commit_validation", AbortCause::CommitValidation),
            ] {
                s.push(format!("stm.aborts.{name}"), t.cause(cause) as f64);
            }
            s.push("stm.quiesces", t.quiesces as f64);
            s.push("stm.quiesce_skipped", t.quiesce_skipped as f64);
            s.push("stm.quiesce_wait_ns_per_op", share(t.quiesce_wait_ns, ops));
            for (name, q) in [("p50", 0.50), ("p99", 0.99)] {
                let ns = t.quiesce_hist.quantile_ns(q).unwrap_or(0);
                s.push(format!("stm.quiesce.{name}_ns"), ns as f64);
            }
            let buf = tle_stm::buf_alloc_stats();
            s.push("stm.buf.fresh_allocs", buf.fresh_allocs as f64);
            s.push("stm.buf.spills", buf.spills as f64);
        }
        Mode::Htm => {
            let t = &d.htm;
            s.push("htm.commits", t.commits as f64);
            s.push("htm.aborts", t.aborts as f64);
            s.push("htm.abort_share", share(t.aborts, t.commits + t.aborts));
            for (name, cause) in [
                ("conflict", AbortCause::Conflict),
                ("capacity", AbortCause::Capacity),
                ("event", AbortCause::Event),
            ] {
                s.push(format!("htm.aborts.{name}"), t.cause(cause) as f64);
            }
            let done = t.commits + d.tle.commits;
            s.push("core.serial_fallbacks", d.tle.serial_fallbacks as f64);
            s.push("core.serial_share", share(d.tle.serial_fallbacks, done));
            s.push("core.attempts_per_commit", share(done + t.aborts, done));
        }
    }
}

/// The per-round timings whose spread over rounds `noise.*` reports.
const NOISE_OF: [&str; 6] = [
    "ops_per_s.lock",
    "ops_per_s.stm",
    "ops_per_s.htm",
    "op_p50_ns.stm",
    "op_p99_ns.stm",
    "op_p50_ns.htm",
];

/// Set-ups per untraced run: set-up time is a gated metric, and one reading
/// of a sub-second interval is too noisy to gate on. The first is the one
/// the run uses; the others follow the last round.
const SETUPS: usize = 5;

fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The latency percentiles taken from each mode's per-op-timed trial.
const TIMED: [(Mode, &[(&str, f64)]); 3] = [
    (Mode::Lock, &[("op_p50_ns", 50.0)]),
    (Mode::Stm, &[("op_p50_ns", 50.0), ("op_p99_ns", 99.0)]),
    (Mode::Htm, &[("op_p50_ns", 50.0)]),
];

pub fn run(args: &Args) -> Report {
    let process_start = Instant::now();
    let sz = if args.quick {
        Sizing::quick()
    } else {
        Sizing::full()
    };
    let mut s = Samples::default();
    s.push("noise.loadavg_start", loadavg());

    let mut w = build(&args.workload, args.seed, &sz);
    s.push("setup_s", since(process_start));

    let mut attempted = 0;
    let mut failed = 0;
    let measure_start = Instant::now();
    let spent = || since(measure_start);

    // Traced run: the per-layer ladder first, within its share of the time.
    let mut ladder_passes = 0;
    let mut span_overhead_ns = 0.0;
    if args.trace {
        let mut ladder = ladder::Ladder::new(args.seed, &sz, process_start);
        span_overhead_ns = ladder.span_overhead_ns;
        let ladder_start = Instant::now();
        while ladder_passes < sz.min_ladder_passes
            || (!sz.quick && since(ladder_start) < 0.3 * args.seconds)
        {
            for (name, v) in ladder.pass(ladder_passes) {
                s.push(name, v);
            }
            ladder_passes += 1;
        }
        failed += ladder.fails;
    }

    let startup_s = since(process_start);
    let mut rounds = 0;
    let mut longest_round = 0.0f64;
    let mut file_spans = Vec::new();
    while rounds < sz.min_rounds || (!sz.quick && spent() + longest_round < args.seconds) {
        let round_start = Instant::now();
        let mut tally = |t: &Trial| {
            attempted += t.ops;
            failed += t.fails;
        };
        // One load thread, every mode back to back with the yardstick in
        // between, so that whatever slows the shared host this second slows
        // a trial and the readings it is compared with alike.
        let mut tput = [0.0; MODES.len()];
        let mut yard = vec![w.yardstick(rounds)];
        for mode in MODES {
            let t = w.trial(mode, Load::One, rounds, Observe::Plain);
            tput[mode.index()] = t.ops_per_s();
            yard.push(w.yardstick(rounds));
            tally(&t);
        }
        for mode in MODES {
            let m = mode.index();
            s.push(format!("ops_per_s.{}", mode.suffix()), tput[m]);
            // Against the yardstick readings before and after the trial.
            let near = (yard[m] + yard[m + 1]) / 2.0;
            s.push(format!("tput_vs_ref.{}", mode.suffix()), tput[m] / near);
        }
        s.push(
            "ref.ops_per_s",
            yard.iter().sum::<f64>() / yard.len() as f64,
        );
        // Latency comes from trials of its own, never mixed into ops/s.
        let mut mid = [0.0; MODES.len()];
        for (mode, percentiles) in TIMED {
            let mut lat = Vec::new();
            let t = w.trial(mode, Load::One, rounds, Observe::Timed(&mut lat));
            mid[mode.index()] = mid_mean_ns(&mut lat);
            s.push(format!("op_mid_ns.{}", mode.suffix()), mid[mode.index()]);
            for (name, p) in percentiles {
                let v = percentile_ns(&mut lat, *p);
                s.push(format!("{name}.{}", mode.suffix()), v);
            }
            tally(&t);
        }
        // Each TM mode against the lock, this round.
        for mode in [Mode::Stm, Mode::Htm] {
            let (m, lock) = (mode.index(), Mode::Lock.index());
            s.push(
                format!("tput_vs_lock.{}", mode.suffix()),
                tput[m] / tput[lock],
            );
            s.push(format!("lat_vs_lock.{}", mode.suffix()), mid[m] / mid[lock]);
        }
        if args.trace {
            // Two load threads: contention counters and 1 -> 2 scaling.
            for mode in MODES {
                w.system(mode).reset_stats();
                tle_stm::reset_buf_alloc_stats();
                let t = w.trial(mode, Load::Two, rounds, Observe::Plain);
                let suffix = mode.suffix();
                s.push(format!("ops_per_s_2t.{suffix}"), t.ops_per_s());
                s.push(
                    format!("scale_2t.{suffix}"),
                    t.ops_per_s() / tput[mode.index()],
                );
                push_counters(&mut s, mode, &w.system(mode).domain_stats(), t.ops);
                tally(&t);
            }
            let mut tr = Tracer::new(process_start);
            for mode in [Mode::Stm, Mode::Htm] {
                let t = w.trial(mode, Load::One, rounds, Observe::Traced(&mut tr));
                if mode == Mode::Stm {
                    let share = 1.0 - t.ops_per_s() / tput[mode.index()];
                    s.push("trace.overhead_share", share);
                }
                tally(&t);
            }
            // The file holds the last round's spans.
            file_spans = tr.spans;
        }
        rounds += 1;
        longest_round = longest_round.max(since(round_start));
    }
    failed += w.finish();
    drop(w);

    let selected = if args.trace {
        // Spread over this run's rounds of each per-round timing.
        for name in NOISE_OF {
            let spread = s.summary(name).iqr_share();
            s.push(format!("noise.{name}.iqr_share"), spread);
        }
        let doc = spans::to_json(&args.workload, span_overhead_ns, &file_spans);
        std::fs::create_dir_all(&args.out_dir).expect("create the trace directory");
        let path = args.out_dir.join(format!("{}.trace.json", args.workload));
        std::fs::write(&path, doc.render()).expect("write the trace file");
        schema::PER_LAYER
    } else {
        // Read before the set-up repeats: building and dropping systems over
        // and over leaves freed memory with the allocator, and how much it
        // keeps (4 MB more in one process out of three) is not a property
        // of the code under test.
        s.push("rss_peak_mb", rss_peak_mb());
        for _ in 1..SETUPS {
            let t0 = Instant::now();
            let again = build(&args.workload, args.seed, &sz);
            s.push("setup_s", since(t0));
            drop(again);
        }
        schema::END_TO_END
    };

    Report {
        workload: args.workload.clone(),
        seed: args.seed,
        quick: args.quick,
        trace: args.trace,
        rounds,
        ladder_passes,
        startup_s,
        attempted,
        failed,
        metrics: selected
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                rounds: s.summary(name),
                samples: s.of(name).to_vec(),
            })
            .collect(),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("tle-benchmark: {msg}");
    eprintln!(
        "usage: tle-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--quick]\n       \
         tle-benchmark aa [--runs N] [--seed N] [--vary-seed]",
        schema::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 30.0,
        trace: false,
        quick: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value().clone(),
            "--seed" => {
                args.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes a whole number"))
            }
            "--seconds" => {
                args.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds takes a positive number"))
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--quick" => args.quick = true,
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if !schema::WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload {:?}", args.workload));
    }
    args
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("aa") {
        std::process::exit(aa::main(&argv[1..]));
    }
    let report = run(&parse_args(&argv));
    print!("{}", report.detail().render());
    println!("{}", report.result_line());
    std::process::exit(report.exit_code());
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn report_with(attempted: u64, failed: u64) -> Report {
        Report {
            workload: "test".into(),
            seed: 0,
            quick: true,
            trace: false,
            rounds: 0,
            ladder_passes: 0,
            startup_s: 0.0,
            attempted,
            failed,
            metrics: vec![Metric {
                name: "setup_s",
                unit: "s",
                rounds: Summary::of(&[0.25]),
                samples: vec![0.25],
            }],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = report_with(10, 0).result_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(Json::parse(&line).is_ok());
        let failing = report_with(10, 3);
        assert!(failing.result_line().starts_with("{\"correct\": false"));
        assert_eq!(failing.exit_code(), 1);
        assert_eq!(failing.fail_share(), 0.3);
        assert_eq!(report_with(10, 0).exit_code(), 0);
    }

    /// Every workload, both kinds of run, end to end at smoke size: the
    /// names printed are the names `schema` (and so `BENCHMARK.json`)
    /// declares, every check passes, and the traced run leaves its file.
    #[test]
    fn quick_runs_print_the_declared_names() {
        let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/test");
        for workload in schema::WORKLOADS {
            for trace in [false, true] {
                let report = run(&Args {
                    workload: workload.to_string(),
                    seed: 7,
                    seconds: 1.0,
                    trace,
                    quick: true,
                    out_dir: out_dir.clone(),
                });
                let declared = if trace {
                    schema::PER_LAYER
                } else {
                    schema::END_TO_END
                };
                let printed: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
                let expected: Vec<&str> = declared.iter().map(|m| m.0).collect();
                assert_eq!(printed, expected, "{workload} trace={trace}");
                assert_eq!(report.failed, 0, "{workload} trace={trace}");
                assert_eq!(report.rounds, 2);
                assert!(report.attempted > 0);
                let detail = report.detail();
                assert_eq!(detail.get("quick"), Some(&Json::Bool(true)));
                assert!(Json::parse(&report.result_line()).is_ok());
                for m in &report.metrics {
                    assert!(
                        m.rounds.median.is_finite() && m.rounds.n == m.samples.len(),
                        "{workload}/{}",
                        m.name
                    );
                }
            }
            let file = out_dir.join(format!("{workload}.trace.json"));
            let doc = Json::parse(&std::fs::read_to_string(file).unwrap()).unwrap();
            assert!(!doc.get("spans").and_then(Json::as_arr).unwrap().is_empty());
        }
    }
}
