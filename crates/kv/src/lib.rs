//! # tle-kv — sharded transactional KV serving workload
//!
//! The proving ground for the deadline/admission plane: a key-value store
//! sharded over N named [`ElidableMutex`]es (each shard a pooled hash map in
//! the `tle-txset` idiom), plus an open-loop request driver with zipfian key
//! skew, hot-key storms and bursty arrivals.
//!
//! The store inherits the paper's central hazard: under the TM modes the
//! shard locks are *erased* (§IV-A), so a serial fallback provoked by one
//! overloaded shard drains and blocks every other shard too. A hot-key
//! storm therefore degrades the whole service, not just the hot shard —
//! exactly the scenario the deadline budget ([`TxHints::with_deadline`])
//! and the admission ladder ([`TmSystemBuilder::admission`]) exist to
//! contain. The driver measures both configurations: requests that fail
//! fast with [`TxError::DeadlineExceeded`] / [`TxError::Overloaded`] versus
//! requests that retry and serialize until they succeed.
//!
//! [`TmSystemBuilder::admission`]: tle_core::TmSystemBuilder::admission
//! [`TxHints::with_deadline`]: tle_core::TxHints::with_deadline

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tle_base::exec::{self, Exec};
use tle_base::rng::XorShift64;
use tle_base::stats::{LatencyHist, LatencyHistSnapshot};
use tle_base::TCell;
use tle_core::{
    AdmissionConfig, AlgoMode, ElidableMutex, ThreadHandle, TmSystem, TxCtx, TxError, TxHints,
};

/// Chain-end sentinel in the node pool.
const NIL: u32 = u32::MAX;

struct Node {
    key: TCell<u64>,
    val: TCell<u64>,
    next: TCell<u32>,
}

/// One shard: a pooled, chained hash map (the `tle-txset` hash-set idiom
/// carrying a value word) behind its own named elidable lock.
pub struct KvShard {
    lock: ElidableMutex,
    buckets: Box<[TCell<u32>]>,
    free: TCell<u32>,
    nodes: Box<[Node]>,
}

impl KvShard {
    fn new(index: usize, key_space: u64) -> Self {
        // Slack beyond the key space so concurrent remove/insert churn
        // cannot exhaust the pool mid-transaction.
        let pool = key_space as usize + 64;
        let buckets = (key_space as usize / 4).next_power_of_two().max(16);
        let nodes: Box<[Node]> = (0..pool)
            .map(|i| Node {
                key: TCell::new(0),
                val: TCell::new(0),
                next: TCell::new(if i + 1 < pool { i as u32 + 1 } else { NIL }),
            })
            .collect();
        KvShard {
            lock: ElidableMutex::new(format!("kv-shard-{index}")),
            buckets: (0..buckets).map(|_| TCell::new(NIL)).collect(),
            free: TCell::new(0),
            nodes,
        }
    }

    /// The shard's lock (adopt it, pin it, or inspect its admission step).
    pub fn lock(&self) -> &ElidableMutex {
        &self.lock
    }

    #[inline]
    fn bucket_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (self.buckets.len() - 1)
    }

    /// `(prev, cur, hit)` within `key`'s chain: `cur` is the first node with
    /// `cur.key >= key`, and `hit` says whether that key is `key`. The key is
    /// read once here, so callers never read it again.
    fn locate(&self, ctx: &mut TxCtx<'_>, key: u64) -> Result<(u32, u32, bool), TxError> {
        let b = &self.buckets[self.bucket_of(key)];
        let mut prev = NIL;
        let mut cur = ctx.read(b)?;
        while cur != NIL {
            let k = ctx.read(&self.nodes[cur as usize].key)?;
            if k >= key {
                return Ok((prev, cur, k == key));
            }
            prev = cur;
            cur = ctx.read(&self.nodes[cur as usize].next)?;
        }
        Ok((prev, NIL, false))
    }

    /// Transactional lookup; the value when `key` is present.
    pub fn get(&self, ctx: &mut TxCtx<'_>, key: u64) -> Result<Option<u64>, TxError> {
        let (_, cur, hit) = self.locate(ctx, key)?;
        if hit {
            let v = ctx.read(&self.nodes[cur as usize].val)?;
            ctx.no_quiesce();
            Ok(Some(v))
        } else {
            ctx.no_quiesce();
            Ok(None)
        }
    }

    /// Transactional insert-or-update; the previous value, if any.
    pub fn put(&self, ctx: &mut TxCtx<'_>, key: u64, val: u64) -> Result<Option<u64>, TxError> {
        let (prev, cur, hit) = self.locate(ctx, key)?;
        if hit {
            let old = ctx.read(&self.nodes[cur as usize].val)?;
            ctx.write(&self.nodes[cur as usize].val, val)?;
            ctx.no_quiesce();
            return Ok(Some(old));
        }
        let n = ctx.read(&self.free)?;
        assert_ne!(n, NIL, "kv shard node pool exhausted");
        let free_next = ctx.read(&self.nodes[n as usize].next)?;
        ctx.write(&self.free, free_next)?;
        ctx.write(&self.nodes[n as usize].key, key)?;
        ctx.write(&self.nodes[n as usize].val, val)?;
        ctx.write(&self.nodes[n as usize].next, cur)?;
        if prev == NIL {
            ctx.write(&self.buckets[self.bucket_of(key)], n)?;
        } else {
            ctx.write(&self.nodes[prev as usize].next, n)?;
        }
        ctx.no_quiesce();
        Ok(None)
    }

    /// Transactional removal; the removed value, if any.
    pub fn remove(&self, ctx: &mut TxCtx<'_>, key: u64) -> Result<Option<u64>, TxError> {
        let (prev, cur, hit) = self.locate(ctx, key)?;
        if !hit {
            ctx.no_quiesce();
            return Ok(None);
        }
        let old = ctx.read(&self.nodes[cur as usize].val)?;
        let next = ctx.read(&self.nodes[cur as usize].next)?;
        if prev == NIL {
            ctx.write(&self.buckets[self.bucket_of(key)], next)?;
        } else {
            ctx.write(&self.nodes[prev as usize].next, next)?;
        }
        let f = ctx.read(&self.free)?;
        ctx.write(&self.nodes[cur as usize].next, f)?;
        ctx.write(&self.free, cur)?;
        ctx.will_free_memory();
        Ok(Some(old))
    }

    /// Non-transactional key count (quiescent diagnostics).
    pub fn len_direct(&self) -> usize {
        let mut n = 0;
        for b in self.buckets.iter() {
            let mut cur = b.load_direct();
            while cur != NIL {
                n += 1;
                cur = self.nodes[cur as usize].next.load_direct();
                assert!(n <= self.nodes.len(), "cycle in kv chain");
            }
        }
        n
    }
}

/// The sharded store: global key `k < total_keys()` lives in shard
/// `k / key_space` under shard-local key `k % key_space`. A key outside that
/// range panics rather than aliasing a key in range.
pub struct ShardedKv {
    shards: Vec<KvShard>,
    key_space: u64,
}

impl ShardedKv {
    /// `shards` maps, each over `key_space` shard-local keys.
    pub fn new(shards: usize, key_space: u64) -> Self {
        assert!(shards > 0 && key_space > 0);
        ShardedKv {
            shards: (0..shards).map(|i| KvShard::new(i, key_space)).collect(),
            key_space,
        }
    }

    /// The shards (adoption, diagnostics).
    pub fn shards(&self) -> &[KvShard] {
        &self.shards
    }

    /// Shard-local keys per shard.
    pub fn key_space(&self) -> u64 {
        self.key_space
    }

    /// Total keys across all shards.
    pub fn total_keys(&self) -> u64 {
        self.key_space * self.shards.len() as u64
    }

    /// The shard holding `key` and its shard-local key. Checked before any
    /// section starts, so an out-of-range key never reaches a transaction.
    #[inline]
    fn split(&self, key: u64) -> (&KvShard, u64) {
        let total = self.total_keys();
        assert!(
            key < total,
            "kv key {key} out of range: keys are 0..{total}"
        );
        let shard = (key / self.key_space) as usize;
        (&self.shards[shard], key % self.key_space)
    }

    /// Infallible GET (retries/serializes until it commits).
    pub fn get(&self, th: &ThreadHandle, key: u64) -> Option<u64> {
        let (shard, k) = self.split(key);
        th.tx(&shard.lock).run(|ctx| shard.get(ctx, k))
    }

    /// Infallible PUT.
    pub fn put(&self, th: &ThreadHandle, key: u64, val: u64) -> Option<u64> {
        let (shard, k) = self.split(key);
        th.tx(&shard.lock).run(|ctx| shard.put(ctx, k, val))
    }

    /// Infallible DELETE.
    pub fn remove(&self, th: &ThreadHandle, key: u64) -> Option<u64> {
        let (shard, k) = self.split(key);
        th.tx(&shard.lock).run(|ctx| shard.remove(ctx, k))
    }

    /// Deadline-budgeted GET: `Err(DeadlineExceeded)`/`Err(Overloaded)`
    /// when the plane refuses the request.
    pub fn try_get(
        &self,
        th: &ThreadHandle,
        hints: TxHints,
        key: u64,
    ) -> Result<Option<u64>, TxError> {
        let (shard, k) = self.split(key);
        th.tx(&shard.lock)
            .hints(hints)
            .try_run(|ctx| shard.get(ctx, k))
    }

    /// Deadline-budgeted PUT.
    pub fn try_put(
        &self,
        th: &ThreadHandle,
        hints: TxHints,
        key: u64,
        val: u64,
    ) -> Result<Option<u64>, TxError> {
        let (shard, k) = self.split(key);
        th.tx(&shard.lock)
            .hints(hints)
            .try_run(|ctx| shard.put(ctx, k, val))
    }

    /// Infallible GET from an async task: attempts run inside one executor
    /// poll, waits (gate entry, backoff, drains) suspend the task instead
    /// of parking the worker.
    pub async fn get_async(&self, th: &ThreadHandle, key: u64) -> Option<u64> {
        let (shard, k) = self.split(key);
        th.tx(&shard.lock).run_async(|ctx| shard.get(ctx, k)).await
    }

    /// Infallible async PUT.
    pub async fn put_async(&self, th: &ThreadHandle, key: u64, val: u64) -> Option<u64> {
        let (shard, k) = self.split(key);
        th.tx(&shard.lock)
            .run_async(|ctx| shard.put(ctx, k, val))
            .await
    }

    /// Deadline-budgeted async GET.
    pub async fn try_get_async(
        &self,
        th: &ThreadHandle,
        hints: TxHints,
        key: u64,
    ) -> Result<Option<u64>, TxError> {
        let (shard, k) = self.split(key);
        th.tx(&shard.lock)
            .hints(hints)
            .try_run_async(|ctx| shard.get(ctx, k))
            .await
    }

    /// Deadline-budgeted async PUT.
    pub async fn try_put_async(
        &self,
        th: &ThreadHandle,
        hints: TxHints,
        key: u64,
        val: u64,
    ) -> Result<Option<u64>, TxError> {
        let (shard, k) = self.split(key);
        th.tx(&shard.lock)
            .hints(hints)
            .try_run_async(|ctx| shard.put(ctx, k, val))
            .await
    }
}

/// Zipfian sampler over `[0, n)` by inverse-CDF table lookup — deterministic
/// given the caller's RNG, and cheap enough to share one table per run.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Skew `theta` (0 = uniform; 0.99 = the YCSB default).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in cdf.iter_mut() {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draw one rank (0 = hottest).
    pub fn sample(&self, rng: &mut XorShift64) -> u64 {
        let r = rng.next_f64();
        self.cdf.partition_point(|&c| c < r) as u64
    }
}

/// Hot-key storm shape: for the middle `[start_frac, end_frac)` slice of
/// each thread's schedule, `hot_pct` percent of requests become multi-key
/// writes against the first `hot_keys` keys of shard 0.
#[derive(Debug, Clone, Copy)]
pub struct StormConfig {
    /// Storm window start, as a fraction of each thread's request count.
    pub start_frac: f64,
    /// Storm window end fraction.
    pub end_frac: f64,
    /// Percent of in-window requests redirected at the hot keys.
    pub hot_pct: u32,
    /// Number of distinct hot keys (all in shard 0).
    pub hot_keys: u64,
    /// Keys touched per storm write (larger = longer transactions, more
    /// conflict surface).
    pub touch: u64,
}

impl Default for StormConfig {
    fn default() -> Self {
        StormConfig {
            start_frac: 0.33,
            end_frac: 0.67,
            hot_pct: 60,
            hot_keys: 4,
            touch: 48,
        }
    }
}

/// One driver run's configuration.
#[derive(Debug, Clone, Copy)]
pub struct KvConfig {
    /// Synchronization algorithm for the shard locks.
    pub mode: AlgoMode,
    /// Shard (lock) count.
    pub shards: usize,
    /// Worker threads.
    pub threads: usize,
    /// Requests per thread.
    pub requests: u64,
    /// Shard-local keys per shard.
    pub key_space: u64,
    /// Zipfian skew over the global key space.
    pub zipf_theta: f64,
    /// Percent of (non-storm) requests that are writes.
    pub write_pct: u32,
    /// Open-loop arrivals: requests arrive in bursts of this many...
    pub burst: u64,
    /// ...every `burst * gap_ns` nanoseconds per thread (0 = closed loop).
    pub gap_ns: u64,
    /// The hot-key storm, when enabled.
    pub storm: Option<StormConfig>,
    /// Per-request retry-time budget (the deadline half of the plane).
    pub deadline: Option<Duration>,
    /// Enable the admission controller (the shedding half of the plane).
    pub admission: bool,
    /// RNG seed.
    pub seed: u64,
}

impl KvConfig {
    /// A small smoke-sized run (plane off, no storm).
    pub fn quick() -> Self {
        KvConfig {
            mode: AlgoMode::StmCondvar,
            shards: 8,
            threads: 4,
            requests: 2_000,
            key_space: 256,
            zipf_theta: 0.99,
            write_pct: 30,
            burst: 16,
            gap_ns: 4_000,
            storm: None,
            deadline: None,
            admission: false,
            seed: 42,
        }
    }

    /// Attach the full degradation plane (deadline + admission).
    pub fn with_plane(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self.admission = true;
        self
    }

    /// Attach the default hot-key storm.
    pub fn with_storm(mut self) -> Self {
        self.storm = Some(StormConfig::default());
        self
    }
}

/// Aggregated outcome of one driver run.
#[derive(Debug, Clone)]
pub struct KvReport {
    /// Requests offered by the schedule.
    pub offered: u64,
    /// Requests that committed.
    pub completed: u64,
    /// Requests refused by the admission controller (`Overloaded`).
    pub shed: u64,
    /// Requests that ran out of retry-time budget (`DeadlineExceeded`).
    pub deadline_miss: u64,
    /// Wall-clock seconds for the measured phase.
    pub secs: f64,
    /// Committed requests per second.
    pub goodput_per_sec: f64,
    /// Completed-request sojourn latency (scheduled arrival → commit).
    pub p50_ns: u64,
    /// 99th percentile sojourn latency.
    pub p99_ns: u64,
    /// 99.9th percentile sojourn latency.
    pub p999_ns: u64,
    /// The full latency histogram.
    pub hist: LatencyHistSnapshot,
    /// Highest admission step any shard reached (0 elide, 1 serialize,
    /// 2 shed) — proof the ladder actually engaged.
    pub max_admission_step: u8,
}

impl KvReport {
    /// One-line rendering for CLI output.
    pub fn summary(&self) -> String {
        format!(
            "offered={} completed={} shed={} deadline_miss={} goodput={:.0}/s \
             p50={} p99={} p999={} max_step={}",
            self.offered,
            self.completed,
            self.shed,
            self.deadline_miss,
            self.goodput_per_sec,
            tle_base::stats::fmt_ns(self.p50_ns),
            tle_base::stats::fmt_ns(self.p99_ns),
            tle_base::stats::fmt_ns(self.p999_ns),
            self.max_admission_step,
        )
    }
}

struct DriverShared {
    sys: Arc<TmSystem>,
    store: ShardedKv,
    zipf: Zipf,
    hist: LatencyHist,
    completed: AtomicU64,
    shed: AtomicU64,
    deadline_miss: AtomicU64,
}

/// Build the system a driver run needs (mode + admission from `cfg`).
/// Exposed so harnesses can capture the system's statistics after
/// [`run_driver_on`].
pub fn build_system(cfg: &KvConfig) -> Arc<TmSystem> {
    let mut b = TmSystem::builder().mode(cfg.mode);
    if cfg.admission {
        // The stock shed threshold assumes a deep service pool; a serving
        // shard is overloaded as soon as every worker is piled up on it.
        b = b.admission_config(AdmissionConfig {
            shed_queue_depth: (cfg.threads as u64).max(3),
            recover_queue_depth: 1,
            ..AdmissionConfig::default()
        });
    }
    Arc::new(b.build())
}

/// Run one driver configuration to completion and report.
pub fn run_driver(cfg: &KvConfig) -> KvReport {
    run_driver_on(&build_system(cfg), cfg)
}

/// Build the store on `sys`, adopt its shard locks, preload the full key
/// space (so GETs hit and PUTs are updates), and wrap the run-shared
/// counters. Common front half of every driver flavor.
fn prepare_shared(sys: &Arc<TmSystem>, cfg: &KvConfig) -> Arc<DriverShared> {
    let store = ShardedKv::new(cfg.shards, cfg.key_space);
    for shard in store.shards() {
        sys.adopt_lock(shard.lock());
    }
    {
        let th = sys.register();
        for k in 0..store.total_keys() {
            store.put(&th, k, k);
        }
    }
    Arc::new(DriverShared {
        sys: Arc::clone(sys),
        store,
        zipf: Zipf::new(cfg.shards as u64 * cfg.key_space, cfg.zipf_theta),
        hist: LatencyHist::new(),
        completed: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        deadline_miss: AtomicU64::new(0),
    })
}

/// Fold the run-shared counters into a report. Common back half.
fn finish_report(shared: &DriverShared, offered: u64, secs: f64) -> KvReport {
    let max_admission_step = shared
        .store
        .shards()
        .iter()
        .map(|s| s.lock().admission_high_water() as u8)
        .max()
        .unwrap_or(0);
    let hist = shared.hist.snapshot();
    let completed = shared.completed.load(Ordering::Relaxed);
    KvReport {
        offered,
        completed,
        shed: shared.shed.load(Ordering::Relaxed),
        deadline_miss: shared.deadline_miss.load(Ordering::Relaxed),
        secs,
        goodput_per_sec: completed as f64 / secs,
        p50_ns: hist.quantile_ns(0.50).unwrap_or(0),
        p99_ns: hist.quantile_ns(0.99).unwrap_or(0),
        p999_ns: hist.quantile_ns(0.999).unwrap_or(0),
        hist,
        max_admission_step,
    }
}

/// [`run_driver`] against a caller-built system (see [`build_system`]; the
/// system's mode/admission configuration must match `cfg`).
pub fn run_driver_on(sys: &Arc<TmSystem>, cfg: &KvConfig) -> KvReport {
    assert!(cfg.threads > 0 && cfg.shards > 0 && cfg.requests > 0);
    let shared = prepare_shared(sys, cfg);
    let ctrl = cfg
        .admission
        .then(|| sys.start_controller(Duration::from_micros(500)));

    let t0 = Instant::now();
    let workers: Vec<_> = (0..cfg.threads)
        .map(|tid| {
            let shared = Arc::clone(&shared);
            let cfg = *cfg;
            std::thread::spawn(move || worker(&shared, &cfg, tid, t0))
        })
        .collect();
    for w in workers {
        w.join().expect("kv worker panicked");
    }
    let secs = t0.elapsed().as_secs_f64();
    drop(ctrl);

    finish_report(&shared, cfg.threads as u64 * cfg.requests, secs)
}

fn worker(shared: &DriverShared, cfg: &KvConfig, tid: usize, t0: Instant) {
    let th = shared.sys.register();
    let mut rng = XorShift64::new(cfg.seed ^ (tid as u64).wrapping_mul(0x9E37_79B9));
    let hints = cfg.deadline.map(|d| TxHints::new().with_deadline(d));
    let storm_range = cfg.storm.map(|s| {
        let lo = (s.start_frac * cfg.requests as f64) as u64;
        let hi = (s.end_frac * cfg.requests as f64) as u64;
        (lo, hi, s)
    });
    for i in 0..cfg.requests {
        // Open-loop schedule: bursts of `burst` simultaneous arrivals,
        // spaced so the long-run offered rate is one request per `gap_ns`.
        // Sojourn latency is measured from the *scheduled* arrival, so a
        // service that falls behind accrues the backlog in its tail — no
        // coordinated omission.
        let arrival_ns = if cfg.gap_ns == 0 || cfg.burst == 0 {
            0
        } else {
            (i / cfg.burst) * cfg.burst * cfg.gap_ns
        };
        let arrival = t0 + Duration::from_nanos(arrival_ns);
        let now = Instant::now();
        if arrival > now {
            std::thread::sleep(arrival - now);
        }

        let storm_req = storm_range
            .as_ref()
            .map(|&(lo, hi, s)| i >= lo && i < hi && rng.below(100) < s.hot_pct as u64)
            .unwrap_or(false);

        let outcome = if storm_req {
            let s = storm_range.as_ref().expect("storm_req implies range").2;
            let base = rng.below(s.hot_keys.max(1));
            storm_write(shared, &th, hints, s, base, i)
        } else {
            let key = shared.zipf.sample(&mut rng);
            if rng.below(100) < cfg.write_pct as u64 {
                plain_put(shared, &th, hints, key, i)
            } else {
                plain_get(shared, &th, hints, key)
            }
        };

        match outcome {
            Ok(()) => {
                shared.completed.fetch_add(1, Ordering::Relaxed);
                let lat = Instant::now().saturating_duration_since(arrival);
                shared.hist.record(lat.as_nanos() as u64);
            }
            Err(TxError::Overloaded) => {
                shared.shed.fetch_add(1, Ordering::Relaxed);
            }
            Err(TxError::DeadlineExceeded) => {
                shared.deadline_miss.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => unreachable!("runner surfaced unexpected error {e:?}"),
        }
    }
}

fn plain_get(
    shared: &DriverShared,
    th: &ThreadHandle,
    hints: Option<TxHints>,
    key: u64,
) -> Result<(), TxError> {
    match hints {
        Some(h) => shared.store.try_get(th, h, key).map(|_| ()),
        None => {
            shared.store.get(th, key);
            Ok(())
        }
    }
}

fn plain_put(
    shared: &DriverShared,
    th: &ThreadHandle,
    hints: Option<TxHints>,
    key: u64,
    val: u64,
) -> Result<(), TxError> {
    match hints {
        Some(h) => shared.store.try_put(th, h, key, val).map(|_| ()),
        None => {
            shared.store.put(th, key, val);
            Ok(())
        }
    }
}

/// A storm request: read-modify-write `touch` consecutive hot keys in shard
/// 0 inside one transaction. The wide write set maximizes conflict overlap
/// between concurrent storm requests.
fn storm_write(
    shared: &DriverShared,
    th: &ThreadHandle,
    hints: Option<TxHints>,
    s: StormConfig,
    base: u64,
    val: u64,
) -> Result<(), TxError> {
    let shard = &shared.store.shards()[0];
    let span = shared.store.key_space();
    let body = |ctx: &mut TxCtx<'_>| {
        for j in 0..s.touch {
            let k = (base + j) % span;
            let old = shard.get(ctx, k)?.unwrap_or(0);
            shard.put(ctx, k, old.wrapping_add(val))?;
        }
        Ok(())
    };
    match hints {
        Some(h) => th.tx(shard.lock()).hints(h).try_run(body),
        None => {
            th.tx(shard.lock()).run(body);
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// Session mode: many paced logical sessions, few execution resources.
// ---------------------------------------------------------------------------

/// Handles the thread-per-session baseline may register at once. Every
/// [`ThreadHandle`] pins an STM and an HTM slot for its lifetime and the
/// slot tables cap out at [`tle_base::slots::MAX_SLOTS`] (64), so a
/// thousand session threads cannot each own a handle — they check one out
/// of a pool per request instead. The async driver has no such pool: its
/// few worker-bound handles run attempts through transient slot claims.
pub const SESSION_HANDLE_POOL: usize = 48;

/// One session-mode run: `sessions` logical clients, each issuing
/// `requests_per_session` zipf-keyed requests with `think_ns` of idle time
/// before each one (a closed loop with think time). The async driver
/// multiplexes every session onto `workers` executor threads; the
/// thread-per-session baseline spawns one OS thread per session.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Store shape, mode, mix and plane knobs. `threads`, `requests`,
    /// `burst`, `gap_ns` and `storm` are ignored in session mode.
    pub base: KvConfig,
    /// Logical session count.
    pub sessions: usize,
    /// Executor worker threads for the async driver (ignored by the
    /// thread-per-session driver).
    pub workers: usize,
    /// Requests each session issues.
    pub requests_per_session: u64,
    /// Idle think time before every request, in nanoseconds.
    pub think_ns: u64,
}

impl SessionConfig {
    /// A small smoke-sized session run.
    pub fn quick() -> Self {
        SessionConfig {
            base: KvConfig::quick(),
            sessions: 64,
            workers: 4,
            requests_per_session: 20,
            think_ns: 200_000,
        }
    }

    fn offered(&self) -> u64 {
        self.sessions as u64 * self.requests_per_session
    }
}

/// One session's request loop, shared between the async and threaded
/// drivers: sample a key, flip a write coin, dispatch, triage the outcome.
/// Returns what the caller must do with the transactional part.
struct SessionReq {
    key: u64,
    write: bool,
}

impl SessionReq {
    fn draw(shared: &DriverShared, cfg: &SessionConfig, rng: &mut XorShift64) -> Self {
        SessionReq {
            key: shared.zipf.sample(rng),
            write: rng.below(100) < cfg.base.write_pct as u64,
        }
    }
}

fn session_rng(cfg: &SessionConfig, sid: u64) -> XorShift64 {
    XorShift64::new(cfg.base.seed ^ sid.wrapping_mul(0x9E37_79B9) ^ 0x5E55_10D5)
}

fn session_triage(shared: &DriverShared, issued: Instant, outcome: Result<(), TxError>) {
    match outcome {
        Ok(()) => {
            shared.completed.fetch_add(1, Ordering::Relaxed);
            shared.hist.record(issued.elapsed().as_nanos() as u64);
        }
        Err(TxError::Overloaded) => {
            shared.shed.fetch_add(1, Ordering::Relaxed);
        }
        Err(TxError::DeadlineExceeded) => {
            shared.deadline_miss.fetch_add(1, Ordering::Relaxed);
        }
        Err(e) => unreachable!("runner surfaced unexpected error {e:?}"),
    }
}

async fn session_async(shared: &DriverShared, th: &ThreadHandle, cfg: &SessionConfig, sid: u64) {
    let mut rng = session_rng(cfg, sid);
    let hints = cfg.base.deadline.map(|d| TxHints::new().with_deadline(d));
    for _ in 0..cfg.requests_per_session {
        if cfg.think_ns > 0 {
            exec::sleep(Duration::from_nanos(cfg.think_ns)).await;
        }
        let req = SessionReq::draw(shared, cfg, &mut rng);
        let issued = Instant::now();
        let outcome = match (hints, req.write) {
            (Some(h), true) => shared
                .store
                .try_put_async(th, h, req.key, sid)
                .await
                .map(|_| ()),
            (Some(h), false) => shared.store.try_get_async(th, h, req.key).await.map(|_| ()),
            (None, true) => {
                shared.store.put_async(th, req.key, sid).await;
                Ok(())
            }
            (None, false) => {
                shared.store.get_async(th, req.key).await;
                Ok(())
            }
        };
        session_triage(shared, issued, outcome);
    }
}

fn session_thread(
    shared: &DriverShared,
    pool: &Mutex<Vec<ThreadHandle>>,
    cfg: &SessionConfig,
    sid: u64,
) {
    let mut rng = session_rng(cfg, sid);
    let hints = cfg.base.deadline.map(|d| TxHints::new().with_deadline(d));
    for _ in 0..cfg.requests_per_session {
        if cfg.think_ns > 0 {
            std::thread::sleep(Duration::from_nanos(cfg.think_ns));
        }
        let req = SessionReq::draw(shared, cfg, &mut rng);
        let issued = Instant::now();
        // Check a handle out for the duration of one request. Waiting for
        // a free handle is part of the request's service time — that is
        // the cost of pinning per-thread slots, and exactly what the
        // async driver's transient claims avoid.
        let th = loop {
            if let Some(th) = pool.lock().expect("handle pool poisoned").pop() {
                break th;
            }
            std::thread::yield_now();
        };
        let outcome = match (hints, req.write) {
            (Some(h), true) => shared.store.try_put(&th, h, req.key, sid).map(|_| ()),
            (Some(h), false) => shared.store.try_get(&th, h, req.key).map(|_| ()),
            (None, true) => {
                shared.store.put(&th, req.key, sid);
                Ok(())
            }
            (None, false) => {
                shared.store.get(&th, req.key);
                Ok(())
            }
        };
        pool.lock().expect("handle pool poisoned").push(th);
        session_triage(shared, issued, outcome);
    }
}

/// Run the async session driver: `cfg.sessions` logical sessions as
/// executor tasks multiplexed onto `cfg.workers` OS threads. Each worker
/// shares one registered [`ThreadHandle`] across all sessions scheduled on
/// the executor — the async runner claims transient slot pairs per
/// attempt, so concurrent sessions never fight over a handle.
pub fn run_session_driver_async(cfg: &SessionConfig) -> KvReport {
    run_session_driver_async_on(&build_system(&cfg.base), cfg)
}

/// [`run_session_driver_async`] against a caller-built system.
pub fn run_session_driver_async_on(sys: &Arc<TmSystem>, cfg: &SessionConfig) -> KvReport {
    assert!(cfg.sessions > 0 && cfg.workers > 0 && cfg.requests_per_session > 0);
    let shared = prepare_shared(sys, &cfg.base);
    let ctrl = cfg
        .base
        .admission
        .then(|| sys.start_controller(Duration::from_micros(500)));

    let exec = Exec::new(cfg.workers);
    let handles: Vec<Arc<ThreadHandle>> =
        (0..cfg.workers).map(|_| Arc::new(sys.register())).collect();

    let t0 = Instant::now();
    let joins: Vec<_> = (0..cfg.sessions)
        .map(|sid| {
            let shared = Arc::clone(&shared);
            let th = Arc::clone(&handles[sid % handles.len()]);
            let cfg = *cfg;
            exec.spawn(async move { session_async(&shared, &th, &cfg, sid as u64).await })
        })
        .collect();
    exec.block_on(async move {
        for j in joins {
            j.await;
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    drop(ctrl);

    finish_report(&shared, cfg.offered(), secs)
}

/// Run the thread-per-session baseline: one OS thread per logical session,
/// sharing [`SESSION_HANDLE_POOL`] registered handles through a checkout
/// pool (the slot tables cannot seat a handle per session).
pub fn run_session_driver_threads(cfg: &SessionConfig) -> KvReport {
    run_session_driver_threads_on(&build_system(&cfg.base), cfg)
}

/// [`run_session_driver_threads`] against a caller-built system.
pub fn run_session_driver_threads_on(sys: &Arc<TmSystem>, cfg: &SessionConfig) -> KvReport {
    assert!(cfg.sessions > 0 && cfg.requests_per_session > 0);
    let shared = prepare_shared(sys, &cfg.base);
    let ctrl = cfg
        .base
        .admission
        .then(|| sys.start_controller(Duration::from_micros(500)));

    let pool_size = cfg.sessions.min(SESSION_HANDLE_POOL);
    let pool = Arc::new(Mutex::new(
        (0..pool_size).map(|_| sys.register()).collect::<Vec<_>>(),
    ));

    let t0 = Instant::now();
    let threads: Vec<_> = (0..cfg.sessions)
        .map(|sid| {
            let shared = Arc::clone(&shared);
            let pool = Arc::clone(&pool);
            let cfg = *cfg;
            std::thread::spawn(move || session_thread(&shared, &pool, &cfg, sid as u64))
        })
        .collect();
    for t in threads {
        t.join().expect("session thread panicked");
    }
    let secs = t0.elapsed().as_secs_f64();
    drop(ctrl);

    finish_report(&shared, cfg.offered(), secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_map_roundtrip() {
        let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
        let th = sys.register();
        let kv = ShardedKv::new(4, 64);
        for k in 0..kv.total_keys() {
            assert_eq!(kv.put(&th, k, k * 3), None);
        }
        for k in 0..kv.total_keys() {
            assert_eq!(kv.get(&th, k), Some(k * 3));
        }
        assert_eq!(kv.put(&th, 7, 99), Some(21));
        assert_eq!(kv.remove(&th, 7), Some(99));
        assert_eq!(kv.get(&th, 7), None);
        assert_eq!(kv.remove(&th, 7), None);
        let n: usize = kv.shards().iter().map(|s| s.len_direct()).sum();
        assert_eq!(n, kv.total_keys() as usize - 1);
    }

    /// A key at or past `total_keys()` panics before any section starts,
    /// naming the key and the bound, instead of wrapping onto
    /// `key % total_keys()`.
    #[test]
    fn out_of_range_key_panics_instead_of_aliasing() {
        let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
        let th = sys.register();
        let kv = ShardedKv::new(4, 64);
        kv.put(&th, 0, 7);
        let total = kv.total_keys();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            kv.put(&th, total, 99);
        }))
        .expect_err("an out-of-range put must panic");
        let msg = err.downcast_ref::<String>().expect("formatted message");
        assert_eq!(
            msg,
            &format!("kv key {total} out of range: keys are 0..{total}")
        );
        assert_eq!(kv.get(&th, 0), Some(7), "key 0 must be untouched");
    }

    #[test]
    fn concurrent_increments_are_exact() {
        let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
        let kv = Arc::new(ShardedKv::new(2, 32));
        {
            let th = sys.register();
            kv.put(&th, 0, 0);
        }
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let sys = Arc::clone(&sys);
                let kv = Arc::clone(&kv);
                std::thread::spawn(move || {
                    let th = sys.register();
                    let (shard, k) = kv.split(0);
                    for _ in 0..1_000 {
                        th.tx(shard.lock()).run(|ctx| {
                            let v = shard.get(ctx, k)?.expect("preloaded");
                            shard.put(ctx, k, v + 1)?;
                            Ok(())
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let th = sys.register();
        assert_eq!(kv.get(&th, 0), Some(4_000));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(100, 0.99);
        let mut rng = XorShift64::new(7);
        let mut counts = [0u64; 100];
        for _ in 0..10_000 {
            let k = z.sample(&mut rng);
            assert!(k < 100);
            counts[k as usize] += 1;
        }
        assert!(
            counts[0] > counts[50].max(1) * 5,
            "rank 0 not hot: {} vs {}",
            counts[0],
            counts[50]
        );
        // Uniform (theta 0) spreads.
        let u = Zipf::new(100, 0.0);
        let mut hit = 0;
        for _ in 0..1_000 {
            if u.sample(&mut rng) >= 50 {
                hit += 1;
            }
        }
        assert!(hit > 300, "theta=0 should be near-uniform, got {hit}/1000");
    }

    #[test]
    fn driver_smoke_no_plane() {
        let cfg = KvConfig {
            requests: 300,
            threads: 2,
            gap_ns: 0,
            ..KvConfig::quick()
        };
        let r = run_driver(&cfg);
        assert_eq!(r.offered, 600);
        assert_eq!(r.completed, 600);
        assert_eq!(r.shed + r.deadline_miss, 0);
        assert!(r.p50_ns > 0);
    }

    #[test]
    fn async_session_driver_completes_everything() {
        let cfg = SessionConfig {
            sessions: 96,
            workers: 3,
            requests_per_session: 12,
            think_ns: 20_000,
            ..SessionConfig::quick()
        };
        let r = run_session_driver_async(&cfg);
        assert_eq!(r.offered, 96 * 12);
        assert_eq!(r.completed, r.offered);
        assert_eq!(r.shed + r.deadline_miss, 0);
        assert!(r.p50_ns > 0);
    }

    #[test]
    fn thread_session_driver_pools_handles() {
        // More sessions than the handle pool: checkout contention must not
        // lose requests or leak handles.
        let cfg = SessionConfig {
            sessions: SESSION_HANDLE_POOL + 16,
            requests_per_session: 8,
            think_ns: 5_000,
            ..SessionConfig::quick()
        };
        let r = run_session_driver_threads(&cfg);
        assert_eq!(r.completed, r.offered);
    }

    #[test]
    fn async_sessions_see_threaded_writes() {
        // The two drivers target the same store semantics: a threaded run
        // followed by an async run over one system keeps counts exact.
        let cfg = SessionConfig {
            sessions: 40,
            workers: 2,
            requests_per_session: 10,
            think_ns: 0,
            base: KvConfig {
                write_pct: 100,
                ..KvConfig::quick()
            },
        };
        let sys = build_system(&cfg.base);
        let a = run_session_driver_threads_on(&sys, &cfg);
        let b = run_session_driver_async_on(&sys, &cfg);
        assert_eq!(a.completed + b.completed, 2 * cfg.offered());
    }

    #[test]
    fn async_session_driver_with_plane_accounts_for_everything() {
        let cfg = SessionConfig {
            sessions: 48,
            workers: 4,
            requests_per_session: 10,
            think_ns: 0,
            base: KvConfig::quick().with_plane(Duration::from_millis(5)),
        };
        let r = run_session_driver_async(&cfg);
        assert_eq!(r.completed + r.shed + r.deadline_miss, r.offered);
    }

    #[test]
    fn driver_smoke_with_plane_and_storm() {
        let cfg = KvConfig {
            requests: 400,
            threads: 4,
            gap_ns: 0,
            ..KvConfig::quick()
        }
        .with_plane(Duration::from_millis(5))
        .with_storm();
        let r = run_driver(&cfg);
        assert_eq!(r.offered, 1_600);
        assert_eq!(r.completed + r.shed + r.deadline_miss, r.offered);
        // Every outcome is accounted for; the plane may or may not have
        // fired at this size, so no assertion on shed counts here.
    }
}
