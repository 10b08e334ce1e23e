//! Statistics counters.
//!
//! The paper's evaluation reports commit counts, abort rates (Figure 4,
//! §VII-A in-text numbers) and serial-fallback percentages; the benches need
//! these to be cheap enough to leave enabled. [`TxStats`] keeps one row of
//! counters per thread slot, written only by the slot's owner — a committed
//! section pays a load and a store on a line it already owns, no atomic
//! read-modify-write — and sums the rows at snapshot. [`Counter`] is the
//! stand-alone sharded word for the cold singletons that have no slot row.
//!
//! Beyond the coarse totals, [`TxStats`] attributes every abort to its
//! [`AbortCause`] (the tentpole of the diagnostics layer: Figure 4's
//! conflict/capacity/event breakdown is *measured* from these counters, not
//! synthesized) and records quiescence-drain latencies in a log2 histogram
//! so the §VII-C congestion-control observation can be quantified.

use crate::slots::MAX_SLOTS;
use crate::AbortCause;
use crate::Padded;
use std::sync::atomic::{AtomicU64, Ordering};

const SHARDS: usize = 16;

/// A sharded monotonically increasing counter.
pub struct Counter {
    shards: [Padded<AtomicU64>; SHARDS],
}

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        // `Padded` has no const constructor for arrays; build by value.
        Counter {
            shards: [
                Padded(AtomicU64::new(0)),
                Padded(AtomicU64::new(0)),
                Padded(AtomicU64::new(0)),
                Padded(AtomicU64::new(0)),
                Padded(AtomicU64::new(0)),
                Padded(AtomicU64::new(0)),
                Padded(AtomicU64::new(0)),
                Padded(AtomicU64::new(0)),
                Padded(AtomicU64::new(0)),
                Padded(AtomicU64::new(0)),
                Padded(AtomicU64::new(0)),
                Padded(AtomicU64::new(0)),
                Padded(AtomicU64::new(0)),
                Padded(AtomicU64::new(0)),
                Padded(AtomicU64::new(0)),
                Padded(AtomicU64::new(0)),
            ],
        }
    }

    /// Add `n`, attributed to `shard_hint` (typically the thread slot index).
    #[inline]
    pub fn add(&self, shard_hint: usize, n: u64) {
        self.shards[shard_hint % SHARDS].fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self, shard_hint: usize) {
        self.add(shard_hint, 1);
    }

    /// Sum across shards. Saturates instead of wrapping: these totals flow
    /// into emitted reports (`tle-bench emit`), where a silently wrapped
    /// counter would read as a plausible small number.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .fold(0u64, |acc, s| acc.saturating_add(s.load(Ordering::Relaxed)))
    }

    /// Reset all shards to zero (between benchmark trials).
    pub fn reset(&self) {
        for s in &self.shards {
            s.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// Number of buckets in a [`LatencyHist`]: bucket `b` counts samples in
/// `[2^b, 2^(b+1))` nanoseconds, with the last bucket open-ended. 32 buckets
/// cover 1 ns .. ~4 s, far beyond any realistic drain.
pub const HIST_BUCKETS: usize = 32;

/// A log2 latency histogram (unsharded: its users record one sample per
/// blocked drain or per served request, next to which the RMW is noise).
#[derive(Debug, Default)]
pub struct LatencyHist {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl LatencyHist {
    /// A zeroed histogram.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn bucket_of(ns: u64) -> usize {
        if ns == 0 {
            0
        } else {
            (63 - ns.leading_zeros() as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Record one sample of `ns` nanoseconds.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.buckets[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> LatencyHistSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (b, s) in buckets.iter_mut().zip(&self.buckets) {
            *b = s.load(Ordering::Relaxed);
        }
        LatencyHistSnapshot { buckets }
    }

    /// Reset all buckets (between benchmark trials).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Plain-data snapshot of a [`LatencyHist`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyHistSnapshot {
    /// `buckets[b]` counts samples in `[2^b, 2^(b+1))` ns.
    pub buckets: [u64; HIST_BUCKETS],
}

impl LatencyHistSnapshot {
    /// Total number of samples. Saturating, for the same reason as
    /// [`Counter::get`]: snapshot sums end up in committed JSON.
    pub fn count(&self) -> u64 {
        self.buckets
            .iter()
            .fold(0u64, |acc, &n| acc.saturating_add(n))
    }

    /// Upper bound (ns) of the bucket containing the `q`-quantile sample
    /// (`q` in [0, 1]); `None` if empty. Log2 buckets make this an estimate
    /// within 2x, which is plenty for "is the drain microseconds or
    /// milliseconds" diagnostics.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                // The last bucket is open-ended: it has no finite upper
                // bound, so report the sentinel rather than `2^(b+1)`.
                return Some(if b + 1 >= HIST_BUCKETS {
                    u64::MAX
                } else {
                    2u64 << b
                });
            }
        }
        Some(u64::MAX)
    }

    /// Compact one-line rendering: `count p50 p99 max-bucket`.
    pub fn summary(&self) -> String {
        match (self.quantile_ns(0.50), self.quantile_ns(0.99)) {
            (Some(p50), Some(p99)) => {
                format!("n={} p50<{} p99<{}", self.count(), fmt_ns(p50), fmt_ns(p99))
            }
            _ => "n=0".to_string(),
        }
    }
}

/// Render nanoseconds with a readable unit.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// The scalar counters of a [`TxStats`] row. The discriminant is the word's
/// index in the row, so the commit path's counters (`Commits` … `QuiesceWaitNs`)
/// share the row's first cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stat {
    /// Transactions that committed.
    Commits = 0,
    /// Transactions that aborted at least once (counted per abort event).
    Aborts = 1,
    /// Transactions that gave up and took the serial fallback.
    SerialFallbacks = 2,
    /// Commits that performed a quiescence drain.
    Quiesces = 3,
    /// Commits that skipped quiescence (`TM_NoQuiesce`, a skipping policy,
    /// or the read-only commit fast path).
    QuiesceSkipped = 4,
    /// Nanoseconds spent spinning in quiescence drains.
    QuiesceWaitNs = 5,
    /// Starvation-ladder escalations: a thread exceeded its consecutive
    /// abort bound and was forced straight to serial-irrevocable mode.
    Escalations = 6,
    /// Quiescence-watchdog trips: a drain exceeded its deadline (the drain
    /// still completes; this counts the detection events).
    WatchdogTrips = 7,
    /// Sections abandoned because their per-transaction retry-time budget
    /// expired before a commit (`TxError::DeadlineExceeded`).
    DeadlineExceeded = 8,
    /// Sections shed at dispatch by the admission controller's degradation
    /// ladder (`TxError::Overloaded`).
    Sheds = 9,
}

impl Stat {
    /// Number of scalar counters.
    pub const COUNT: usize = 10;
}

/// One slot's counters: the [`Stat`] words, then one word per
/// [`AbortCause`] (always on — unlike the event trace, which is
/// feature-gated). 19 words, so a padded row is three cache lines and a
/// commit dirties only the first.
type Row = [AtomicU64; Stat::COUNT + AbortCause::COUNT];

/// Statistics common to both TM flavours and the TLE runtime: one
/// cache-line-aligned row of counters per slot, summed at snapshot.
///
/// # The owned / shared contract
///
/// A row has **one writer at a time**: whoever holds the claim on that slot
/// in the registry the stats belong to. That writer uses the *owned*
/// primitives ([`bump_owned`](Self::bump_owned),
/// [`count_abort`](Self::count_abort),
/// [`record_quiesce`](Self::record_quiesce)) — a relaxed load and a relaxed
/// store, no `lock`-prefixed instruction. Claim hand-over orders successive
/// owners (`SlotRegistry::unregister_raw` is a release store,
/// `register_raw` an acquiring CAS), so no increment is lost when a slot is
/// recycled. Every transaction descriptor bumps the row of the slot it runs
/// on and nothing else, including the post-commit drain accounting, which
/// both drivers finish before they give the slot up.
///
/// A caller that cannot prove it is the row's only writer — the runner-level
/// sites keyed by a `ThreadHandle`'s slot, since one handle may serve many
/// executor workers at once — uses [`bump_shared`](Self::bump_shared)
/// (`fetch_add`). The two kinds must not race on the same word: an owned
/// bump overwrites a concurrent shared one. In this workspace each
/// `TxStats` is bumped with one kind only (`TmSystem::stats` shared, the
/// STM and HTM domains' owned).
#[derive(Debug)]
pub struct TxStats {
    rows: [Padded<Row>; MAX_SLOTS],
    /// Drains that found a straggler, by how long they waited. A drain that
    /// passed on its first sweep is not recorded here: the snapshot derives
    /// the zero-wait bucket as `Quiesces` minus the recorded samples, so
    /// `quiesce_hist.count() == quiesces` holds without the commit path
    /// touching a shared line. Unsharded: a sample follows a blocked drain,
    /// so contention is negligible next to the wait itself.
    quiesce_waits: LatencyHist,
}

impl Default for TxStats {
    fn default() -> Self {
        TxStats {
            rows: std::array::from_fn(|_| Padded(std::array::from_fn(|_| AtomicU64::new(0)))),
            quiesce_waits: LatencyHist::new(),
        }
    }
}

impl TxStats {
    /// A zeroed stats block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to a word of `slot`'s row; the caller holds the slot claim.
    #[inline]
    fn add_word_owned(&self, slot: usize, word: usize, n: u64) {
        let w = &self.rows[slot][word];
        w.store(w.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
    }

    /// Increment `stat` in `slot`'s row. *Owned*: the caller holds the claim
    /// on `slot` (see the type docs).
    #[inline]
    pub fn bump_owned(&self, slot: usize, stat: Stat) {
        self.add_word_owned(slot, stat as usize, 1);
    }

    /// Increment `stat` in `slot`'s row with an atomic RMW. *Shared*: safe
    /// from any number of threads keyed to the same row.
    #[inline]
    pub fn bump_shared(&self, slot: usize, stat: Stat) {
        self.rows[slot][stat as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Count one abort under its cause. *Owned*.
    #[inline]
    pub fn count_abort(&self, slot: usize, cause: AbortCause) {
        self.add_word_owned(slot, Stat::Aborts as usize, 1);
        self.add_word_owned(slot, Stat::COUNT + cause.index(), 1);
    }

    /// Account for one completed quiescence drain that waited `wait_ns`
    /// (0: it passed on its first sweep). *Owned*.
    #[inline]
    pub fn record_quiesce(&self, slot: usize, wait_ns: u64) {
        self.bump_owned(slot, Stat::Quiesces);
        if wait_ns > 0 {
            self.add_word_owned(slot, Stat::QuiesceWaitNs as usize, wait_ns);
            self.quiesce_waits.record(wait_ns);
        }
    }

    /// Sum one word over the rows. Saturates instead of wrapping: these
    /// totals flow into emitted reports, where a silently wrapped counter
    /// would read as a plausible small number.
    fn sum_word(&self, word: usize) -> u64 {
        self.rows.iter().fold(0u64, |acc, r| {
            acc.saturating_add(r[word].load(Ordering::Relaxed))
        })
    }

    /// Total of one counter.
    pub fn get(&self, stat: Stat) -> u64 {
        self.sum_word(stat as usize)
    }

    /// Total aborts recorded for one cause.
    pub fn cause(&self, cause: AbortCause) -> u64 {
        self.sum_word(Stat::COUNT + cause.index())
    }

    /// Reset every row (between benchmark trials, with no transaction in
    /// flight).
    pub fn reset(&self) {
        for row in &self.rows {
            for w in row.iter() {
                w.store(0, Ordering::Relaxed);
            }
        }
        self.quiesce_waits.reset();
    }

    /// A point-in-time copy, for printing.
    pub fn snapshot(&self) -> TxStatsSnapshot {
        let quiesces = self.get(Stat::Quiesces);
        let mut quiesce_hist = self.quiesce_waits.snapshot();
        // The drains nobody recorded passed on their first sweep.
        let first_sweep = quiesces.saturating_sub(quiesce_hist.count());
        quiesce_hist.buckets[0] = quiesce_hist.buckets[0].saturating_add(first_sweep);
        TxStatsSnapshot {
            commits: self.get(Stat::Commits),
            aborts: self.get(Stat::Aborts),
            by_cause: std::array::from_fn(|i| self.sum_word(Stat::COUNT + i)),
            serial_fallbacks: self.get(Stat::SerialFallbacks),
            quiesces,
            quiesce_skipped: self.get(Stat::QuiesceSkipped),
            quiesce_wait_ns: self.get(Stat::QuiesceWaitNs),
            quiesce_hist,
            escalations: self.get(Stat::Escalations),
            watchdog_trips: self.get(Stat::WatchdogTrips),
            deadline_exceeded: self.get(Stat::DeadlineExceeded),
            sheds: self.get(Stat::Sheds),
        }
    }
}

/// Plain-data snapshot of [`TxStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxStatsSnapshot {
    pub commits: u64,
    pub aborts: u64,
    /// Per-cause abort counts, indexed by [`AbortCause::index`].
    pub by_cause: [u64; AbortCause::COUNT],
    pub serial_fallbacks: u64,
    pub quiesces: u64,
    pub quiesce_skipped: u64,
    pub quiesce_wait_ns: u64,
    pub quiesce_hist: LatencyHistSnapshot,
    pub escalations: u64,
    pub watchdog_trips: u64,
    /// Sections whose retry-time budget expired (`TxError::DeadlineExceeded`).
    pub deadline_exceeded: u64,
    /// Sections shed at dispatch (`TxError::Overloaded`).
    pub sheds: u64,
}

impl TxStatsSnapshot {
    /// Aborts recorded for one cause.
    #[inline]
    pub fn cause(&self, cause: AbortCause) -> u64 {
        self.by_cause[cause.index()]
    }

    /// Aborts per started transaction attempt, in [0, 1].
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.commits.saturating_add(self.aborts);
        if attempts == 0 {
            0.0
        } else {
            self.aborts as f64 / attempts as f64
        }
    }

    /// Fraction of committed transactions that went through the serial path.
    pub fn fallback_rate(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.serial_fallbacks as f64 / self.commits as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_accumulates_across_shards() {
        let c = Counter::new();
        for i in 0..100 {
            c.add(i, 2);
        }
        assert_eq!(c.get(), 200);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_is_thread_safe() {
        let c = Arc::new(Counter::new());
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc(i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn rates_are_sane() {
        let s = TxStats::new();
        for _ in 0..90 {
            s.bump_owned(0, Stat::Commits);
        }
        for _ in 0..10 {
            s.bump_owned(0, Stat::Aborts);
        }
        for _ in 0..9 {
            s.bump_shared(0, Stat::SerialFallbacks);
        }
        let snap = s.snapshot();
        assert!((snap.abort_rate() - 0.1).abs() < 1e-9);
        assert!((snap.fallback_rate() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn empty_rates_are_zero() {
        let snap = TxStats::new().snapshot();
        assert_eq!(snap.abort_rate(), 0.0);
        assert_eq!(snap.fallback_rate(), 0.0);
    }

    #[test]
    fn count_abort_attributes_every_cause() {
        let s = TxStats::new();
        for (i, c) in AbortCause::ALL.iter().enumerate() {
            for _ in 0..=i {
                s.count_abort(i, *c);
            }
        }
        let snap = s.snapshot();
        let mut total = 0u64;
        for (i, c) in AbortCause::ALL.iter().enumerate() {
            assert_eq!(snap.cause(*c), i as u64 + 1, "cause {c}");
            assert_eq!(s.cause(*c), i as u64 + 1);
            total += i as u64 + 1;
        }
        assert_eq!(snap.aborts, total, "aborts must equal the cause sum");
        s.reset();
        assert_eq!(s.snapshot().by_cause, [0; AbortCause::COUNT]);
    }

    #[test]
    fn rows_sum_at_snapshot_and_reset_zeroes_every_row() {
        let s = TxStats::new();
        for slot in 0..MAX_SLOTS {
            s.bump_owned(slot, Stat::Commits);
            s.bump_shared(slot, Stat::Sheds);
            s.count_abort(slot, AbortCause::Conflict);
            s.record_quiesce(slot, slot as u64);
        }
        let n = MAX_SLOTS as u64;
        let snap = s.snapshot();
        assert_eq!(
            (snap.commits, snap.sheds, snap.aborts, snap.quiesces),
            (n, n, n, n)
        );
        assert_eq!(snap.cause(AbortCause::Conflict), n);
        assert_eq!(s.get(Stat::Commits), n);
        assert_eq!(snap.quiesce_wait_ns, (0..n).sum::<u64>());
        s.reset();
        assert_eq!(s.snapshot(), TxStatsSnapshot::default());
    }

    #[test]
    fn first_sweep_drains_are_the_derived_zero_bucket() {
        let s = TxStats::new();
        for _ in 0..99 {
            s.record_quiesce(3, 0);
        }
        s.record_quiesce(3, 1_000_000); // bucket 19
        let snap = s.snapshot();
        assert_eq!(snap.quiesces, 100);
        assert_eq!(snap.quiesce_hist.count(), snap.quiesces);
        assert_eq!(snap.quiesce_hist.buckets[0], 99);
        assert_eq!(snap.quiesce_hist.buckets[19], 1);
        assert_eq!(
            snap.quiesce_hist.quantile_ns(0.5),
            Some(2),
            "p50 in bucket 0"
        );
        assert_eq!(snap.quiesce_wait_ns, 1_000_000);
    }

    #[test]
    fn stats_block_stays_within_its_memory_budget() {
        // `rss_peak_mb` is a gated benchmark metric: three `TxStats` per
        // `TmSystem`, each ~20 kB before the per-slot rows.
        assert_eq!(std::mem::size_of::<Padded<Row>>(), 192);
        assert!(std::mem::size_of::<TxStats>() <= 20 * 1024);
    }

    #[test]
    fn latency_hist_buckets_by_log2() {
        let h = LatencyHist::new();
        h.record(0); // bucket 0
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(3); // bucket 1
        h.record(1024); // bucket 10
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[1], 2);
        assert_eq!(s.buckets[10], 1);
        assert_eq!(s.count(), 5);
        h.reset();
        assert_eq!(h.snapshot().count(), 0);
    }

    #[test]
    fn latency_hist_quantiles() {
        let h = LatencyHist::new();
        for _ in 0..99 {
            h.record(100); // bucket 6, upper bound 128
        }
        h.record(1_000_000); // bucket 19
        let s = h.snapshot();
        assert_eq!(s.quantile_ns(0.5), Some(128));
        assert_eq!(s.quantile_ns(1.0), Some(2u64 << 19));
        assert_eq!(LatencyHistSnapshot::default().quantile_ns(0.5), None);
        assert!(s.summary().starts_with("n=100"));
    }

    #[test]
    fn bucket_of_boundary_values() {
        // 0 ns must not underflow the leading_zeros math; it lands in
        // bucket 0 together with 1 ns.
        assert_eq!(LatencyHist::bucket_of(0), 0);
        assert_eq!(LatencyHist::bucket_of(1), 0);
        assert_eq!(LatencyHist::bucket_of(2), 1);
        assert_eq!(LatencyHist::bucket_of(3), 1);
        // Exact powers of two open their own bucket; one less stays below.
        for b in 1..HIST_BUCKETS - 1 {
            let p = 1u64 << b;
            assert_eq!(LatencyHist::bucket_of(p), b, "2^{b}");
            assert_eq!(LatencyHist::bucket_of(p - 1), b - 1, "2^{b}-1");
        }
        // Everything at or beyond 2^31 ns (~2.1 s) clamps into the last
        // open-ended bucket, including u64::MAX.
        assert_eq!(LatencyHist::bucket_of(1u64 << 31), HIST_BUCKETS - 1);
        assert_eq!(LatencyHist::bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn hist_extreme_samples_round_trip_through_snapshot() {
        let h = LatencyHist::new();
        h.record(0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[HIST_BUCKETS - 1], 1);
        assert_eq!(s.count(), 2);
        // The max-bucket quantile reports the open-ended sentinel, not a
        // wrapped `2 << 63`.
        assert_eq!(s.quantile_ns(1.0), Some(u64::MAX));
    }

    #[test]
    fn counter_sum_saturates_instead_of_wrapping() {
        let c = Counter::new();
        c.add(0, u64::MAX);
        c.add(1, 5);
        assert_eq!(c.get(), u64::MAX, "shard sum must saturate");
    }

    #[test]
    fn snapshot_sums_saturate_instead_of_wrapping() {
        let mut buckets = [0u64; HIST_BUCKETS];
        buckets[0] = u64::MAX;
        buckets[1] = 7;
        let s = LatencyHistSnapshot { buckets };
        assert_eq!(s.count(), u64::MAX, "bucket sum must saturate");
        // quantile_ns must terminate and stay in range even when saturated.
        assert_eq!(s.quantile_ns(0.0), Some(2));
        assert!(s.quantile_ns(1.0).is_some());

        let snap = TxStatsSnapshot {
            commits: u64::MAX,
            aborts: 10,
            ..Default::default()
        };
        // attempts saturates; the rate stays finite and in [0, 1].
        let r = snap.abort_rate();
        assert!(r.is_finite() && (0.0..=1.0).contains(&r));
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(5), "5ns");
        assert_eq!(fmt_ns(1_500), "1.5us");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(1_500_000_000), "1.50s");
    }
}
