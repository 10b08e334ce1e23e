//! # tle-stm — the `ml_wt` software transactional memory
//!
//! A Rust reimplementation of the STM algorithm the paper runs on: GCC
//! libitm's `ml_wt` ("multi-lock, write-through"), which the authors
//! describe as "a privatization-safe version of TinySTM" (§VII). The
//! essential properties reproduced here:
//!
//! - **word-based, eager (encounter-time) locking**: a write acquires the
//!   location's ownership record before updating memory in place, logging
//!   the old word for rollback (write-through / undo-log versioning);
//! - **timestamp validation with extension**: reads are consistent against a
//!   global version clock; reading a location newer than the transaction's
//!   start triggers read-set revalidation and a timestamp extension
//!   (TinySTM's rule), so long transactions survive concurrent commits they
//!   did not observe;
//! - **privatization safety via quiescence** (paper §IV): after committing,
//!   a transaction waits until every concurrent transaction that started
//!   before its commit has committed or aborted *and completed rollback*.
//!   Since 2016 GCC performs this drain after **every** transaction; that is
//!   our [`QuiescePolicy::Always`].
//! - **`TM_NoQuiesce`** (the paper's proposed API, §IV-B): a transaction may
//!   declare that it does not privatize, skipping the drain —
//!   [`QuiescePolicy::Selective`] honours it, and the unsafe-in-general
//!   global disable studied in Figure 5 is [`QuiescePolicy::Never`].
//!
//! The serial-irrevocable fallback and the retry policy live one layer up,
//! in `tle-core`; this crate provides single-attempt transactions
//! ([`StmTx`]) over a shared [`StmGlobal`].

mod norec;
mod quiesce;
mod soft;
mod tx;

pub use norec::NorecTx;
pub use quiesce::{QuiescePolicy, QuiesceTicket, Watchdog};
pub use soft::{SoftTx, StmAlgo};
pub use tle_base::sets::{
    buf_alloc_stats, drain_buf_pool, reset_buf_alloc_stats, BufAllocStats, SmallSet, INLINE_READS,
    INLINE_WRITES,
};
pub use tx::{CommitInfo, StmTx};

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use tle_base::stats::TxStats;
use tle_base::{Clock, OrecTable, SlotRegistry};

/// Shared state of one STM instance: clock, orec table, quiescence epochs.
///
/// One `StmGlobal` corresponds to one "TM domain". Because TLE erases lock
/// identities (paper §IV-A), an entire application shares a single instance
/// no matter how many locks it elides.
pub struct StmGlobal {
    /// The global version clock.
    pub clock: Clock,
    /// The ownership-record table.
    pub orecs: OrecTable,
    /// Per-thread epoch slots (publishing running-transaction start times).
    pub slots: SlotRegistry,
    /// Statistics.
    pub stats: TxStats,
    /// `TM_NoQuiesce` skips whose window overlapped a running transaction
    /// (only counted when auditing is enabled).
    pub noquiesce_overlaps: tle_base::stats::Counter,
    /// NOrec's global sequence lock (even = free, odd = writer committing).
    pub norec_seq: std::sync::atomic::AtomicU64,
    policy: AtomicU8,
    algo: AtomicU8,
    audit_noquiesce: std::sync::atomic::AtomicBool,
    /// Quiescence-watchdog deadline (ns); a drain waiting longer trips the
    /// watchdog (report + counter, see [`Watchdog`]).
    quiesce_deadline_ns: AtomicU64,
}

/// Default quiescence-watchdog deadline: 1 s. Natural drains are micro- to
/// milliseconds, so a second of waiting is pathological (a descheduled or
/// stalled straggler) and worth a report, while false trips under normal CI
/// load are effectively impossible.
pub const DEFAULT_QUIESCE_DEADLINE_NS: u64 = 1_000_000_000;

impl StmGlobal {
    /// A fresh STM domain with the given quiescence policy.
    pub fn new(policy: QuiescePolicy) -> Self {
        StmGlobal {
            clock: Clock::new(),
            orecs: OrecTable::new(),
            slots: SlotRegistry::new(),
            stats: TxStats::new(),
            noquiesce_overlaps: tle_base::stats::Counter::new(),
            norec_seq: std::sync::atomic::AtomicU64::new(0),
            policy: AtomicU8::new(policy as u8),
            algo: AtomicU8::new(StmAlgo::MlWt as u8),
            audit_noquiesce: std::sync::atomic::AtomicBool::new(false),
            quiesce_deadline_ns: AtomicU64::new(DEFAULT_QUIESCE_DEADLINE_NS),
        }
    }

    /// The quiescence-watchdog deadline in nanoseconds.
    ///
    /// Ordering audit: `Relaxed` is sufficient — the deadline only tunes a
    /// diagnostic threshold; observing a change late shifts when a report
    /// prints, nothing more.
    #[inline]
    pub fn quiesce_deadline_ns(&self) -> u64 {
        self.quiesce_deadline_ns.load(Ordering::Relaxed)
    }

    /// Set the quiescence-watchdog deadline (tests use tiny values to force
    /// trips; 0 trips on any slow-path drain).
    pub fn set_quiesce_deadline_ns(&self, ns: u64) {
        self.quiesce_deadline_ns.store(ns, Ordering::Relaxed);
    }

    /// The active software-TM algorithm.
    ///
    /// Ordering audit: `Acquire`, pairing with the `Release` in
    /// [`StmGlobal::set_algo`]. The two algorithms do not share conflict
    /// metadata (orecs vs `norec_seq`), so a thread beginning a transaction
    /// after an algorithm switch must observe any state the switching thread
    /// prepared (e.g. a reset clock) — `Relaxed` would let `begin_soft` run
    /// the new algorithm against stale setup.
    #[inline]
    pub fn algo(&self) -> StmAlgo {
        StmAlgo::from_u8(self.algo.load(Ordering::Acquire))
    }

    /// Select the software-TM algorithm (between runs, like the policy).
    pub fn set_algo(&self, algo: StmAlgo) {
        self.algo.store(algo as u8, Ordering::Release);
    }

    /// Begin a transaction of the domain's selected algorithm.
    pub fn begin_soft(&self, slot_idx: usize) -> SoftTx<'_> {
        match self.algo() {
            StmAlgo::MlWt => SoftTx::MlWt(StmTx::begin(self, slot_idx)),
            StmAlgo::Norec => SoftTx::Norec(NorecTx::begin(self, slot_idx)),
        }
    }

    /// Enable/disable the `TM_NoQuiesce` audit (paper §IV-C).
    ///
    /// The paper expects misuses of `TM_NoQuiesce` to be "easy to identify
    /// and fix using transactional race detectors" (T-Rex). This is a
    /// lightweight, sound-but-incomplete stand-in: when enabled, every
    /// drain *skipped* by `TM_NoQuiesce` checks whether a concurrent older
    /// transaction was still running — the precondition for a privatization
    /// race. Overlaps are counted in [`StmGlobal::noquiesce_overlaps`]; a
    /// zero count proves the annotations were harmless *in this run*, a
    /// non-zero count flags transactions whose `TM_NoQuiesce` claim is
    /// load-bearing and deserves review. Costs one slot scan per skipped
    /// drain (i.e. re-introduces part of the cost it audits), so it is a
    /// debug tool, off by default.
    /// Ordering audit: `Relaxed` is sufficient. The flag only gates a
    /// *diagnostic counter* ([`StmGlobal::noquiesce_overlaps`]); no memory
    /// accessed by the audit is published by the thread flipping the flag,
    /// and observing the flip late merely delays when counting starts.
    pub fn set_audit_noquiesce(&self, on: bool) {
        self.audit_noquiesce
            .store(on, std::sync::atomic::Ordering::Relaxed);
    }

    pub(crate) fn audit_noquiesce_enabled(&self) -> bool {
        self.audit_noquiesce
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Current quiescence policy.
    ///
    /// Ordering audit: `Relaxed` is sufficient. The policy only selects
    /// whether a *post-commit* drain runs; it guards no data, and every
    /// committer re-reads it after its own commit point. A committer that
    /// observes a policy flip late at worst performs one extra (safe) or one
    /// fewer (caller-sanctioned: flipping mid-run means the caller accepts
    /// the old policy for in-flight commits) drain.
    #[inline]
    pub fn policy(&self) -> QuiescePolicy {
        QuiescePolicy::from_u8(self.policy.load(Ordering::Relaxed))
    }

    /// Change the quiescence policy. Benchmarks flip this between trials;
    /// flipping while transactions are in flight is allowed (it only governs
    /// post-commit drains).
    pub fn set_policy(&self, p: QuiescePolicy) {
        self.policy.store(p as u8, Ordering::Relaxed);
    }

    /// Begin a transaction attempt on the thread occupying `slot_idx`
    /// (claimed via `self.slots.register_raw()`).
    pub fn begin(&self, slot_idx: usize) -> StmTx<'_> {
        StmTx::begin(self, slot_idx)
    }

    /// Run one non-blocking sweep of a pending post-commit drain
    /// ([`StmTx::commit_publish`]). `Some(info)` once the drain completes —
    /// quiescence statistics are recorded at that point — and `None` while
    /// an older transaction is still inside the window (the async driver
    /// yields its worker and polls again).
    pub fn quiesce_pass(&self, t: &mut QuiesceTicket) -> Option<CommitInfo> {
        let wait_ns = t.pass(&self.slots, &self.watchdog(t))?;
        Some(self.quiesced(t, wait_ns))
    }

    /// Spin a pending post-commit drain out on the calling thread (the back
    /// half of the blocking [`StmTx::commit`]).
    pub(crate) fn quiesce_blocking(&self, mut t: QuiesceTicket) -> CommitInfo {
        let wait_ns = t.spin(&self.slots, &self.watchdog(&t));
        self.quiesced(&t, wait_ns)
    }

    fn watchdog(&self, t: &QuiesceTicket) -> Watchdog<'_> {
        Watchdog {
            deadline_ns: self.quiesce_deadline_ns(),
            stats: &self.stats,
            shard: t.slot_idx,
        }
    }

    /// Account for a completed drain on the drainer's own stats row: both
    /// drivers finish the drain before they give the ticket's slot up.
    fn quiesced(&self, t: &QuiesceTicket, wait_ns: u64) -> CommitInfo {
        self.stats.record_quiesce(t.slot_idx, wait_ns);
        CommitInfo {
            end_time: t.upto,
            quiesced: true,
            quiesce_wait_ns: wait_ns,
        }
    }
}

impl Default for StmGlobal {
    fn default() -> Self {
        Self::new(QuiescePolicy::Always)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tle_base::stats::Stat;
    use tle_base::TCell;

    #[test]
    fn single_thread_read_write_commit() {
        let g = StmGlobal::default();
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(1u64);
        let b = TCell::new(2u64);

        let mut tx = g.begin(slot);
        let va = tx.read(&a).unwrap();
        let vb = tx.read(&b).unwrap();
        tx.write(&a, va + vb).unwrap();
        tx.write(&b, 0u64).unwrap();
        tx.commit().unwrap();

        assert_eq!(a.load_direct(), 3);
        assert_eq!(b.load_direct(), 0);
        assert_eq!(g.stats.get(Stat::Commits), 1);
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn abort_rolls_back_in_place_writes() {
        let g = StmGlobal::default();
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(10u64);

        let mut tx = g.begin(slot);
        tx.write(&a, 99u64).unwrap();
        tx.write(&a, 100u64).unwrap();
        // Write-through: the new value is visible in memory while locked.
        assert_eq!(a.load_direct(), 100);
        tx.abort(tle_base::AbortCause::Explicit);
        assert_eq!(
            a.load_direct(),
            10,
            "undo log must restore the oldest value"
        );
        assert_eq!(g.stats.get(Stat::Aborts), 1);
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn read_only_transaction_commits_without_clock_advance() {
        let g = StmGlobal::default();
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(5u64);
        let before = g.clock.now();
        let mut tx = g.begin(slot);
        assert_eq!(tx.read(&a).unwrap(), 5);
        tx.commit().unwrap();
        assert_eq!(
            g.clock.now(),
            before,
            "read-only commits must not bump the clock"
        );
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn own_writes_are_read_back() {
        let g = StmGlobal::default();
        let slot = g.slots.register_raw().unwrap();
        let a = TCell::new(1u64);
        let mut tx = g.begin(slot);
        tx.write(&a, 42u64).unwrap();
        assert_eq!(tx.read(&a).unwrap(), 42, "read-own-write");
        tx.commit().unwrap();
        g.slots.unregister_raw(slot);
    }

    #[test]
    fn write_write_conflict_is_detected() {
        let g = StmGlobal::new(QuiescePolicy::Never);
        let s1 = g.slots.register_raw().unwrap();
        let s2 = g.slots.register_raw().unwrap();
        let a = TCell::new(0u64);

        let mut t1 = g.begin(s1);
        t1.write(&a, 1u64).unwrap();

        let mut t2 = g.begin(s2);
        let r = t2.write(&a, 2u64);
        assert!(r.is_err(), "second writer must fail to acquire the orec");
        t2.abort(r.unwrap_err());

        t1.commit().unwrap();
        assert_eq!(a.load_direct(), 1);
        g.slots.unregister_raw(s1);
        g.slots.unregister_raw(s2);
    }

    #[test]
    fn doomed_reader_aborts_on_next_read() {
        let g = StmGlobal::new(QuiescePolicy::Never);
        let s1 = g.slots.register_raw().unwrap();
        let s2 = g.slots.register_raw().unwrap();
        let a = TCell::new(0u64);

        // T1 reads a.
        let mut t1 = g.begin(s1);
        assert_eq!(t1.read(&a).unwrap(), 0);

        // T2 writes a and commits.
        let mut t2 = g.begin(s2);
        t2.write(&a, 7u64).unwrap();
        t2.commit().unwrap();

        // T1 re-reads a: version moved past t1.start, extension validates
        // the read set, finds `a` changed, and the transaction must abort.
        let r = t1.read(&a);
        assert!(r.is_err(), "stale reader must fail validation");
        t1.abort(r.unwrap_err());
        g.slots.unregister_raw(s1);
        g.slots.unregister_raw(s2);
    }

    #[test]
    fn extension_allows_reading_fresh_unrelated_data() {
        let g = StmGlobal::new(QuiescePolicy::Never);
        let s1 = g.slots.register_raw().unwrap();
        let s2 = g.slots.register_raw().unwrap();
        let a = TCell::new(0u64);
        let b = TCell::new(0u64);

        let mut t1 = g.begin(s1);
        // No reads yet; T2 commits a write to b.
        let mut t2 = g.begin(s2);
        t2.write(&b, 9u64).unwrap();
        t2.commit().unwrap();

        // T1 reads b (version > start): extension succeeds because T1's read
        // set is empty, and the read returns the committed value.
        assert_eq!(t1.read(&b).unwrap(), 9);
        assert_eq!(t1.read(&a).unwrap(), 0);
        t1.commit().unwrap();
        g.slots.unregister_raw(s1);
        g.slots.unregister_raw(s2);
    }

    #[test]
    fn policy_is_runtime_switchable() {
        let g = StmGlobal::default();
        assert_eq!(g.policy(), QuiescePolicy::Always);
        g.set_policy(QuiescePolicy::Never);
        assert_eq!(g.policy(), QuiescePolicy::Never);
        g.set_policy(QuiescePolicy::Selective);
        assert_eq!(g.policy(), QuiescePolicy::Selective);
    }

    #[test]
    fn noquiesce_audit_counts_overlapping_skips() {
        let g = StmGlobal::new(QuiescePolicy::Selective);
        g.set_audit_noquiesce(true);
        let s1 = g.slots.register_raw().unwrap();
        let s2 = g.slots.register_raw().unwrap();
        let a = TCell::new(0u64);
        let b = TCell::new(0u64);

        // No other transaction in flight: skip is provably harmless.
        let mut tx = g.begin(s1);
        tx.write(&a, 1u64).unwrap();
        tx.no_quiesce();
        tx.commit().unwrap();
        assert_eq!(g.noquiesce_overlaps.get(), 0);

        // An older transaction is still running: the skip overlaps.
        let mut old = g.begin(s2);
        old.read(&b).unwrap();
        let mut tx = g.begin(s1);
        tx.write(&a, 2u64).unwrap();
        tx.no_quiesce();
        tx.commit().unwrap();
        assert_eq!(g.noquiesce_overlaps.get(), 1);
        old.abort(tle_base::AbortCause::Explicit);
        g.slots.unregister_raw(s1);
        g.slots.unregister_raw(s2);
    }

    #[test]
    fn noquiesce_audit_off_by_default() {
        let g = StmGlobal::new(QuiescePolicy::Selective);
        let s1 = g.slots.register_raw().unwrap();
        let s2 = g.slots.register_raw().unwrap();
        let a = TCell::new(0u64);
        g.slots.publish_raw(s2, 0); // fake an in-flight transaction
        let mut tx = g.begin(s1);
        tx.write(&a, 1u64).unwrap();
        tx.no_quiesce();
        tx.commit().unwrap();
        assert_eq!(g.noquiesce_overlaps.get(), 0, "audit must be opt-in");
        g.slots.unregister_raw(s1);
        g.slots.unregister_raw(s2);
    }
}
