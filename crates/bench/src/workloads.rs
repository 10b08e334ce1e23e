//! Shared workload runners used by the figure benches.

use std::sync::Arc;
use tle_base::stats::{Stat, TxStatsSnapshot};
use tle_base::{AbortCause, Padded, TCell};
use tle_core::{AlgoMode, ElidableMutex, ThreadHandle, TmSystem};
use tle_pbz::{compress_parallel, decompress_parallel, PipelineConfig};
use tle_stm::QuiescePolicy;
use tle_txset::{TxHashSet, TxListSet, TxSet, TxTreeSet};
use tle_wfe::{encode_video, EncoderConfig, VideoSource};

/// Statistics harvested after a trial.
#[derive(Debug, Clone, Default)]
pub struct TrialStats {
    pub stm: TxStatsSnapshot,
    /// Full HTM snapshot, including the per-cause abort counters the
    /// diagnostics layer maintains (`by_cause`).
    pub htm: TxStatsSnapshot,
    pub htm_commits: u64,
    pub htm_aborts: u64,
    pub serial_fallbacks: u64,
}

impl TrialStats {
    /// Capture from a system.
    pub fn capture(sys: &TmSystem) -> Self {
        let htm = sys.htm.stats.snapshot();
        TrialStats {
            stm: sys.stm.stats.snapshot(),
            htm_commits: htm.commits,
            htm_aborts: htm.aborts,
            htm,
            serial_fallbacks: sys.stats.get(Stat::SerialFallbacks),
        }
    }

    /// Aborts attributed to `cause`, summed over both TM domains.
    pub fn cause(&self, cause: AbortCause) -> u64 {
        self.stm.cause(cause) + self.htm.cause(cause)
    }

    /// Render the non-zero per-cause abort counts as a compact one-liner,
    /// e.g. `conflict=41 capacity=3 event=7`. Returns `"-"` when the trial
    /// recorded no aborts at all.
    pub fn abort_breakdown(&self) -> String {
        let parts: Vec<String> = AbortCause::ALL
            .into_iter()
            .filter(|&c| self.cause(c) > 0)
            .map(|c| format!("{}={}", c.label(), self.cause(c)))
            .collect();
        if parts.is_empty() {
            "-".into()
        } else {
            parts.join(" ")
        }
    }

    /// HTM abort rate over attempts.
    pub fn htm_abort_rate(&self) -> f64 {
        let attempts = self.htm_commits + self.htm_aborts;
        self.htm_aborts as f64 / attempts.max(1) as f64
    }

    /// Serial-fallback rate over completed critical sections.
    pub fn fallback_rate(&self) -> f64 {
        let total = self.htm_commits + self.stm.commits + self.serial_fallbacks;
        self.serial_fallbacks as f64 / total.max(1) as f64
    }
}

/// One PBZip2 trial: compress (and optionally verify-decompress) `input`.
///
/// Like every trial runner, this warms the system first (one pipeline pass
/// over a small prefix, so thread handles, FIFO slots, and transaction
/// buffers are all allocated) and then measures a steady-state window with
/// freshly reset stats.
pub fn pbzip_compress_trial(
    mode: AlgoMode,
    workers: usize,
    block_size: usize,
    input: &[u8],
) -> (f64, TrialStats) {
    let sys = Arc::new(TmSystem::new(mode));
    let cfg = PipelineConfig {
        workers,
        block_size,
        fifo_cap: 2 * workers.max(2),
    };
    let warm = &input[..input.len().min(block_size)];
    std::hint::black_box(compress_parallel(&sys, warm, &cfg));
    sys.reset_stats();
    let t0 = std::time::Instant::now();
    let out = compress_parallel(&sys, input, &cfg);
    let secs = t0.elapsed().as_secs_f64();
    assert!(!out.is_empty() || input.is_empty());
    (secs, TrialStats::capture(&sys))
}

/// One PBZip2 decompression trial (warmed up on a small synthetic blob,
/// then measured steady-state).
pub fn pbzip_decompress_trial(
    mode: AlgoMode,
    workers: usize,
    block_size: usize,
    compressed: &[u8],
) -> (f64, TrialStats) {
    let sys = Arc::new(TmSystem::new(mode));
    let cfg = PipelineConfig {
        workers,
        block_size,
        fifo_cap: 2 * workers.max(2),
    };
    let warm = compress_parallel(&sys, &tle_pbz::gen_text(7, 4096), &cfg);
    std::hint::black_box(decompress_parallel(&sys, &warm, &cfg).expect("warmup decompress"));
    sys.reset_stats();
    let t0 = std::time::Instant::now();
    let out = decompress_parallel(&sys, compressed, &cfg).expect("decompress failed");
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(&out);
    (secs, TrialStats::capture(&sys))
}

/// Video sizes mirroring the paper's small/medium/large inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VideoSize {
    Small,
    Medium,
    Large,
}

impl VideoSize {
    /// (width, height, frames), scaled down per DESIGN.md §3.5.
    pub fn params(self, full: bool) -> (usize, usize, usize) {
        match (self, full) {
            (VideoSize::Small, false) => (96, 64, 8),
            (VideoSize::Medium, false) => (160, 96, 10),
            (VideoSize::Large, false) => (240, 144, 12),
            (VideoSize::Small, true) => (160, 96, 24),
            (VideoSize::Medium, true) => (320, 192, 32),
            (VideoSize::Large, true) => (480, 288, 48),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            VideoSize::Small => "small",
            VideoSize::Medium => "medium",
            VideoSize::Large => "large",
        }
    }
}

/// One x265 trial: encode the synthetic sequence.
pub fn x265_trial(
    mode: AlgoMode,
    workers: usize,
    size: VideoSize,
    full: bool,
) -> (f64, TrialStats) {
    x265_trial_cfg(mode, workers, size, full, tle_htm::HtmConfig::default())
}

/// [`x265_trial`] with an explicit HTM configuration (used by Figure 4's
/// elevated-event-pressure table).
pub fn x265_trial_cfg(
    mode: AlgoMode,
    workers: usize,
    size: VideoSize,
    full: bool,
    htm_cfg: tle_htm::HtmConfig,
) -> (f64, TrialStats) {
    let (w, h, n) = size.params(full);
    let source = VideoSource::new(w, h, n, 0xFEED);
    let sys = Arc::new(TmSystem::builder().mode(mode).htm_config(htm_cfg).build());
    let cfg = EncoderConfig {
        workers,
        qp: 12,
        keyframe_interval: 8,
        lookahead_depth: 4,
        target_bits_per_frame: None,
        frame_threads: 3,
        slices: 1,
    };
    // Warmup: a two-frame encode spins up the worker pool and touches the
    // hot allocation paths; the measured window then starts from reset
    // stats (steady state).
    let warm_src = VideoSource::new(w, h, 2, 0xFEED);
    std::hint::black_box(encode_video(&sys, &warm_src, &cfg));
    sys.reset_stats();
    let t0 = std::time::Instant::now();
    let v = encode_video(&sys, &source, &cfg);
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(v.frames.len(), n);
    (secs, TrialStats::capture(&sys))
}

/// The lazy-subscription A/B workload: every transaction scans a row of
/// padded cells sized *exactly* at the simulated HTM's read capacity
/// (`lines` distinct cache lines: `lines - 1` shared read-only cells plus
/// one private read-modify-write cell per thread). Eager subscription
/// spends one extra read-set line on the lock word, pushing every attempt
/// over the cap: capacity aborts exhaust the retry budget, the serial
/// fallbacks acquire the lock, and each acquisition dooms every concurrent
/// elision — the lock-word conflict-abort cascade the lazy modes exist to
/// avoid. Lazy subscription never reads the lock word, so the identical
/// workload fits the cap and elides cleanly.
pub fn lazy_subscription_trial(
    mode: AlgoMode,
    threads: usize,
    lines: usize,
    ops_per_thread: u64,
) -> (f64, TrialStats) {
    assert!(
        lines >= 2,
        "need at least one shared line plus the private one"
    );
    let htm_cfg = tle_htm::HtmConfig {
        read_cap_lines: lines,
        event_prob: 0.0, // deterministic: capacity and conflict aborts only
        ..tle_htm::HtmConfig::default()
    };
    let sys = Arc::new(TmSystem::builder().mode(mode).htm_config(htm_cfg).build());
    let lock = Arc::new(ElidableMutex::new("lazy-ab"));
    let shared: Arc<Vec<Padded<TCell<u64>>>> =
        Arc::new((0..lines - 1).map(|_| Padded(TCell::new(1u64))).collect());
    let privs: Arc<Vec<Padded<TCell<u64>>>> =
        Arc::new((0..threads).map(|_| Padded(TCell::new(0u64))).collect());
    let barrier = Arc::new(std::sync::Barrier::new(threads + 1));
    let warmup_ops = ops_per_thread / 10;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let sys = Arc::clone(&sys);
            let lock = Arc::clone(&lock);
            let shared = Arc::clone(&shared);
            let privs = Arc::clone(&privs);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let th = sys.register();
                let one_op = |th: &ThreadHandle| {
                    th.tx(&lock).run(|ctx| {
                        let mut acc = 0u64;
                        for c in shared.iter() {
                            acc = acc.wrapping_add(ctx.read(&**c)?);
                        }
                        let old = ctx.read(&*privs[t])?;
                        ctx.write(&*privs[t], old.wrapping_add(acc))?;
                        Ok(())
                    });
                };
                barrier.wait(); // sync0: everyone registered
                for _ in 0..warmup_ops {
                    one_op(&th);
                }
                barrier.wait(); // sync1: warmup drained everywhere
                barrier.wait(); // sync2: measured window opens
                for _ in 0..ops_per_thread {
                    one_op(&th);
                }
            })
        })
        .collect();
    barrier.wait(); // sync0
    barrier.wait(); // sync1
    sys.reset_stats();
    let t0 = std::time::Instant::now();
    barrier.wait(); // sync2
    for h in handles {
        h.join().unwrap();
    }
    let secs = t0.elapsed().as_secs_f64();
    let stats = TrialStats::capture(&sys);
    for p in privs.iter() {
        assert!(p.load_direct() > 0, "a worker's ops were lost");
    }
    let total_ops = threads as f64 * ops_per_thread as f64;
    (total_ops / secs, stats)
}

/// The Figure 5 operation mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 50% insert / 50% remove (left column of Figure 5).
    UpdateOnly,
    /// 50% lookup, 25% insert, 25% remove (right column).
    HalfLookup,
    /// 90% lookup, 5% insert, 5% remove — the read-mostly mix the
    /// read-only commit fast path targets.
    ReadMostly,
}

impl Mix {
    pub fn label(self) -> &'static str {
        match self {
            Mix::UpdateOnly => "50i/50r",
            Mix::HalfLookup => "50l/25i/25r",
            Mix::ReadMostly => "90l/5i/5r",
        }
    }
}

/// One operation of `mix` against `set` — the shared inner loop of the
/// warmup and measured windows of [`micro_trial_algo`].
#[inline]
fn mix_op(
    set: &dyn TxSet,
    th: &ThreadHandle,
    mix: Mix,
    rng: &mut tle_base::rng::XorShift64,
    space: u64,
) {
    let key = rng.below(space);
    let dice = rng.below(100);
    // Percent thresholds: below `lookup` a lookup, below `insert` an
    // insert, the rest removes.
    let (lookup, insert) = match mix {
        Mix::UpdateOnly => (0, 50),
        Mix::HalfLookup => (50, 75),
        Mix::ReadMostly => (90, 95),
    };
    if dice < lookup {
        set.contains(th, key);
    } else if dice < insert {
        set.insert(th, key);
    } else {
        set.remove(th, key);
    }
}

/// Build one of the three set structures by name.
pub fn make_set(kind: &str) -> Arc<dyn TxSet> {
    match kind {
        "list" => Arc::new(TxListSet::new()),
        "hash" => Arc::new(TxHashSet::new()),
        "tree" => Arc::new(TxTreeSet::new()),
        other => panic!("unknown set kind {other}"),
    }
}

/// Pre-fill a set to 50% occupancy (the paper's initial condition).
pub fn prefill(set: &dyn TxSet, th: &ThreadHandle) {
    let space = set.key_space();
    for k in (0..space).step_by(2) {
        set.insert(th, k);
    }
}

/// One Figure 5 trial: `threads` workers each run `ops_per_thread`
/// operations of `mix` against `set` under `policy`. Returns throughput in
/// operations per second plus stats.
pub fn micro_trial(
    kind: &str,
    policy: QuiescePolicy,
    threads: usize,
    mix: Mix,
    ops_per_thread: u64,
) -> (f64, TrialStats) {
    micro_trial_algo(
        kind,
        policy,
        tle_stm::StmAlgo::MlWt,
        threads,
        mix,
        ops_per_thread,
    )
}

/// [`micro_trial`] with an explicit STM algorithm (the `ablate_stm_algo`
/// bench). The trial runs in three barrier phases: *sync0* (all workers
/// registered) → `ops_per_thread / 10` warmup ops on a dedicated rng
/// stream → *sync1* (stats reset, clock armed) → *sync2* (measured window
/// opens).
pub fn micro_trial_algo(
    kind: &str,
    policy: QuiescePolicy,
    algo: tle_stm::StmAlgo,
    threads: usize,
    mix: Mix,
    ops_per_thread: u64,
) -> (f64, TrialStats) {
    // Microbenchmarks always run the STM (the paper's Figure 5 machine has
    // no HTM); the policy is the independent variable.
    let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
    sys.stm.set_policy(policy);
    sys.set_stm_algo(algo);
    let set = make_set(kind);
    {
        let th = sys.register();
        prefill(&*set, &th);
    }
    let barrier = Arc::new(std::sync::Barrier::new(threads + 1));
    let warmup_ops = ops_per_thread / 10;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let sys = Arc::clone(&sys);
            let set = Arc::clone(&set);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let th = sys.register();
                let space = set.key_space();
                let mut wrng = tle_base::rng::XorShift64::new(0xAB ^ t as u64);
                barrier.wait(); // sync0: everyone registered
                for _ in 0..warmup_ops {
                    mix_op(&*set, &th, mix, &mut wrng, space);
                }
                barrier.wait(); // sync1: warmup drained everywhere
                let mut rng = tle_base::rng::XorShift64::new(0xF1F5 ^ t as u64);
                barrier.wait(); // sync2: measured window opens
                for _ in 0..ops_per_thread {
                    mix_op(&*set, &th, mix, &mut rng, space);
                }
            })
        })
        .collect();
    barrier.wait(); // sync0
    barrier.wait(); // sync1
    sys.reset_stats();
    let t0 = std::time::Instant::now();
    barrier.wait(); // sync2
    for h in handles {
        h.join().unwrap();
    }
    let secs = t0.elapsed().as_secs_f64();
    let stats = TrialStats::capture(&sys);
    let total_ops = threads as f64 * ops_per_thread as f64;
    (total_ops / secs, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pbzip_trial_smoke() {
        let input = tle_pbz::gen_text(1, 64 * 1024);
        let (secs, stats) = pbzip_compress_trial(AlgoMode::StmCondvar, 2, 16 * 1024, &input);
        assert!(secs > 0.0);
        assert!(stats.stm.commits > 0, "no STM commits recorded");
    }

    #[test]
    fn x265_trial_smoke() {
        let (secs, stats) = x265_trial(AlgoMode::HtmCondvar, 2, VideoSize::Small, false);
        assert!(secs > 0.0);
        assert!(stats.htm_commits > 0, "no HTM commits recorded");
    }

    #[test]
    fn micro_trial_smoke_all_policies() {
        for policy in [
            QuiescePolicy::Always,
            QuiescePolicy::Never,
            QuiescePolicy::Selective,
        ] {
            let (tput, stats) = micro_trial("hash", policy, 2, Mix::HalfLookup, 2_000);
            assert!(tput > 0.0);
            assert!(stats.stm.commits > 0);
            if policy == QuiescePolicy::Selective {
                assert!(
                    stats.stm.quiesce_skipped > 0,
                    "SelectNoQ should skip some drains"
                );
            }
        }
    }

    /// Acceptance test for the diagnostics layer: every [`AbortCause`] in
    /// the taxonomy is reachable through the real runtime paths, and each
    /// occurrence lands in the matching `by_cause` counter. The STM causes
    /// are driven surgically through the raw `ml_wt` API (two transactions
    /// interleaved on one thread); the HTM causes go through the full
    /// runner with hardware knobs tuned to force each one.
    #[test]
    fn every_abort_cause_is_reachable_and_counted() {
        use tle_base::{Padded, TCell};
        use tle_core::ElidableMutex;
        use tle_htm::HtmConfig;

        // --- STM: ReadConflict, WriteConflict, ValidationFailed,
        //     CommitValidation, Explicit ---
        // `Never`: a committing writer must not drain quiescence here — the
        // interleaved transaction on this same thread still has its epoch
        // published, so an `Always` drain would wait on it forever.
        let g = tle_stm::StmGlobal::new(QuiescePolicy::Never);
        let sa = g.slots.register_raw().unwrap();
        let sb = g.slots.register_raw().unwrap();
        // Distinct cache lines so the two cells cannot share an orec.
        let x = Padded(TCell::new(0u64));
        let y = Padded(TCell::new(0u64));
        assert_ne!(
            g.orecs.index_of(x.addr()),
            g.orecs.index_of(y.addr()),
            "test cells alias one orec; pick different addresses"
        );

        // B locks X's orec; A's read and write spin out against it.
        {
            let mut b = g.begin(sb);
            b.write(&*x, 1u64).unwrap();
            let mut a = g.begin(sa);
            let e = a.read(&*x).unwrap_err();
            assert_eq!(e, AbortCause::ReadConflict);
            a.abort(e);
            let mut a = g.begin(sa);
            let e = a.write(&*x, 2u64).unwrap_err();
            assert_eq!(e, AbortCause::WriteConflict);
            a.abort(e);
            b.abort(AbortCause::Explicit);
        }
        // A's timestamp extension finds X changed since A read it.
        {
            let mut a = g.begin(sa);
            a.read(&*x).unwrap();
            let mut b = g.begin(sb);
            b.write(&*x, 3u64).unwrap();
            b.commit().unwrap();
            let e = a.read(&*x).unwrap_err();
            assert_eq!(e, AbortCause::ValidationFailed);
            a.abort(e);
        }
        // A is a writer with a read set gone stale: the commit-time
        // validation fails (distinct from the extension failure above).
        {
            let mut a = g.begin(sa);
            a.read(&*x).unwrap();
            a.write(&*y, 9u64).unwrap();
            let mut b = g.begin(sb);
            b.write(&*x, 4u64).unwrap();
            b.commit().unwrap();
            let e = a.commit().unwrap_err();
            assert_eq!(e, AbortCause::CommitValidation);
        }
        let stm = g.stats.snapshot();
        for cause in [
            AbortCause::ReadConflict,
            AbortCause::WriteConflict,
            AbortCause::ValidationFailed,
            AbortCause::CommitValidation,
            AbortCause::Explicit,
        ] {
            assert!(
                stm.cause(cause) >= 1,
                "STM {cause} reached but not counted: {:?}",
                stm.by_cause
            );
        }
        g.slots.unregister_raw(sa);
        g.slots.unregister_raw(sb);

        // --- HTM Conflict: requester-wins dooming, driven directly ---
        let hg = tle_htm::HtmGlobal::new(HtmConfig {
            event_prob: 0.0,
            ..HtmConfig::default()
        });
        let h1 = hg.slots.register_raw().unwrap();
        let h2 = hg.slots.register_raw().unwrap();
        let c = TCell::new(0u64);
        let mut t1 = hg.begin(h1);
        t1.write(&c, 1u64).unwrap();
        let mut t2 = hg.begin(h2);
        t2.write(&c, 2u64).unwrap(); // dooms t1 (requester wins)
        let e = t1.commit().unwrap_err();
        assert_eq!(e, AbortCause::Conflict);
        t2.commit().unwrap();
        assert!(hg.stats.cause(AbortCause::Conflict) >= 1);
        hg.slots.unregister_raw(h1);
        hg.slots.unregister_raw(h2);

        // --- HTM Capacity / Event / Unsafe through the full runner:
        //     each forces the serial fallback, which must still succeed ---
        let runner_cases: [(&str, HtmConfig, AbortCause); 3] = [
            (
                "capacity",
                HtmConfig {
                    write_cap_lines: 1,
                    event_prob: 0.0,
                    ..HtmConfig::default()
                },
                AbortCause::Capacity,
            ),
            (
                "event",
                HtmConfig {
                    event_prob: 1.0,
                    ..HtmConfig::default()
                },
                AbortCause::Event,
            ),
            (
                "unsafe",
                HtmConfig {
                    event_prob: 0.0,
                    ..HtmConfig::default()
                },
                AbortCause::Unsafe,
            ),
        ];
        for (label, cfg, want) in runner_cases {
            let sys = Arc::new(
                TmSystem::builder()
                    .mode(AlgoMode::HtmCondvar)
                    .htm_config(cfg)
                    .build(),
            );
            let lock = ElidableMutex::new("causes");
            let c1 = Padded(TCell::new(0u64));
            let c2 = Padded(TCell::new(0u64));
            let th = sys.register();
            th.tx(&lock).run(|ctx| {
                if want == AbortCause::Unsafe {
                    ctx.unsafe_op()?;
                }
                // Two distinct cache lines: overflows write_cap_lines=1.
                ctx.write(&*c1, 1u64)?;
                ctx.write(&*c2, 2u64)?;
                Ok(())
            });
            assert_eq!(c1.load_direct(), 1, "{label}: serial fallback lost a write");
            assert_eq!(c2.load_direct(), 2, "{label}: serial fallback lost a write");
            let stats = TrialStats::capture(&sys);
            assert!(
                stats.cause(want) >= 1,
                "{label}: cause {want} not counted; breakdown: {}",
                stats.abort_breakdown()
            );
            assert!(stats.serial_fallbacks >= 1, "{label}: no serial fallback");
        }
    }

    /// Satellite (a): the steady-state window excludes warmup work. Every
    /// set op is exactly one committed transaction, so measured commits
    /// must equal `threads * ops_per_thread` — warmup transactions (10%
    /// more) must have been wiped by the reset at the sync1 boundary.
    #[test]
    fn warmup_ops_are_excluded_from_the_measured_window() {
        let threads = 2;
        let ops = 2_000u64;
        let (tput, stats) = micro_trial(
            "hash",
            QuiescePolicy::Selective,
            threads,
            Mix::HalfLookup,
            ops,
        );
        assert!(tput > 0.0);
        let total = threads as u64 * ops;
        // A contended section may complete as a serial fallback instead of
        // an STM commit, so bound from both sides rather than demanding
        // exact equality.
        assert!(
            stats.stm.commits <= total,
            "warmup leaked into the window: {} commits > {} measured ops",
            stats.stm.commits,
            total
        );
        assert!(
            stats.stm.commits + stats.serial_fallbacks >= total,
            "measured ops unaccounted for: {} commits + {} fallbacks < {}",
            stats.stm.commits,
            stats.serial_fallbacks,
            total
        );
    }

    /// The read-mostly mix drives the read-only commit fast path: under the
    /// `Always` drain policy, skipped drains can only come from the fast
    /// path.
    #[test]
    fn read_mostly_mix_exercises_the_ro_fast_path() {
        assert_eq!(Mix::ReadMostly.label(), "90l/5i/5r");
        let (_, stats) = micro_trial("hash", QuiescePolicy::Always, 2, Mix::ReadMostly, 2_000);
        assert!(stats.stm.quiesce_skipped > 0, "fast path never taken");
    }

    #[test]
    fn abort_breakdown_formats_nonzero_causes() {
        let mut stats = TrialStats::default();
        assert_eq!(stats.abort_breakdown(), "-");
        stats.stm.by_cause[AbortCause::ReadConflict.index()] = 2;
        stats.htm.by_cause[AbortCause::Capacity.index()] = 1;
        stats.htm.by_cause[AbortCause::ReadConflict.index()] = 1;
        assert_eq!(stats.abort_breakdown(), "read-conflict=3 capacity=1");
        assert_eq!(stats.cause(AbortCause::ReadConflict), 3);
    }

    /// The lazy-subscription A/B is non-vacuous in both directions: the
    /// eager side's lock-word subscription overflows the read cap (capacity
    /// aborts, serial fallbacks, and the acquire-time conflict dooms they
    /// cause), and the lazy side elides the very same workload with a
    /// fraction of the lock-word conflict aborts.
    #[test]
    fn lazy_subscription_trial_shows_the_capacity_cascade() {
        let (eager_t, eager) = lazy_subscription_trial(AlgoMode::AdaptiveHtm, 3, 6, 2_000);
        let (lazy_t, lazy) = lazy_subscription_trial(AlgoMode::AdaptiveHtmLazy, 3, 6, 2_000);
        assert!(eager_t > 0.0 && lazy_t > 0.0);
        assert!(
            eager.cause(AbortCause::Capacity) > 0,
            "eager subscription should overflow the read cap"
        );
        assert!(eager.serial_fallbacks > 0, "no fallback cascade to measure");
        assert!(
            lazy.cause(AbortCause::Capacity) == 0,
            "lazy must fit the cap exactly: {}",
            lazy.abort_breakdown()
        );
        assert!(
            lazy.cause(AbortCause::Conflict) < eager.cause(AbortCause::Conflict).max(1),
            "lazy should see fewer lock-word conflict aborts: lazy {} vs eager {}",
            lazy.abort_breakdown(),
            eager.abort_breakdown()
        );
        assert!(lazy.htm_commits > 0, "lazy side never elided");
    }

    #[test]
    fn prefill_reaches_half_occupancy() {
        let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
        let th = sys.register();
        let set = make_set("list");
        prefill(&*set, &th);
        assert_eq!(set.len_direct(), set.key_space() as usize / 2);
    }
}
