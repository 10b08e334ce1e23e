//! Property tests for the adaptation signal path: the
//! [`StatWindow`] ring that summarises recent section outcomes, and the
//! pure [`decide`] function that turns a window snapshot into a mode
//! switch. Both are deliberately thread-free (the window races benignly,
//! the decision is a pure function), so they are exactly the pieces a
//! property test can pin down completely: the window against a reference
//! model, the decision against its documented invariants (sample floor,
//! hysteresis dwell, capacity latch, legal targets).

use proptest::prelude::*;
use tle_repro::base::window::{AbortClass, StatWindow, WindowSnapshot, WINDOW_BUCKETS};
use tle_repro::base::AbortCause;
use tle_repro::core::decide;
use tle_repro::prelude::{AdaptiveConfig, AlgoMode, SwitchReason};

/// Everything a `StatWindow` can be asked to do, as data.
#[derive(Debug, Clone, Copy)]
enum Op {
    Commit(u64),
    Abort(AbortCause),
    Serial,
    Roll,
    Reset,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..500).prop_map(Op::Commit),
        (0usize..AbortCause::ALL.len()).prop_map(|i| Op::Abort(AbortCause::ALL[i])),
        (0u8..1).prop_map(|_| Op::Serial),
        (0u8..1).prop_map(|_| Op::Roll),
        (0u8..1).prop_map(|_| Op::Reset),
    ]
}

/// Reference model: the ring as plain arrays, mutated single-threadedly.
/// Field order matches `WindowSnapshot`:
/// commits / conflict / capacity / other / serial / quiesce_ns.
fn model_snapshot(ops: &[Op]) -> WindowSnapshot {
    let mut buckets = vec![[0u64; 6]; WINDOW_BUCKETS];
    let mut cur = 0usize;
    for &op in ops {
        match op {
            Op::Commit(q) => {
                buckets[cur][0] += 1;
                buckets[cur][5] += q;
            }
            Op::Abort(cause) => {
                let i = match AbortClass::of(cause) {
                    AbortClass::Conflict => 1,
                    AbortClass::Capacity => 2,
                    AbortClass::Other => 3,
                };
                buckets[cur][i] += 1;
            }
            Op::Serial => buckets[cur][4] += 1,
            Op::Roll => {
                cur = (cur + 1) % WINDOW_BUCKETS;
                buckets[cur] = [0; 6];
            }
            Op::Reset => {
                for b in buckets.iter_mut() {
                    *b = [0; 6];
                }
            }
        }
    }
    let mut s = WindowSnapshot::default();
    for b in &buckets {
        s.commits += b[0];
        s.conflict_aborts += b[1];
        s.capacity_aborts += b[2];
        s.other_aborts += b[3];
        s.serial += b[4];
        s.quiesce_ns += b[5];
    }
    s
}

/// The transactional modes whose decisions read the window.
const SAMPLED_MODES: [AlgoMode; 3] = [
    AlgoMode::StmSpin,
    AlgoMode::StmCondvar,
    AlgoMode::HtmCondvar,
];

/// Every mode, for invariants that must hold regardless.
const EVERY_MODE: [AlgoMode; 8] = [
    AlgoMode::Baseline,
    AlgoMode::StmSpin,
    AlgoMode::StmCondvar,
    AlgoMode::StmCondvarNoQuiesce,
    AlgoMode::HtmCondvar,
    AlgoMode::AdaptiveHtm,
    AlgoMode::AdaptiveHtmLazy,
    AlgoMode::StmNorec,
];

const EVERY_REASON: [Option<SwitchReason>; 5] = [
    None,
    Some(SwitchReason::Capacity),
    Some(SwitchReason::ConflictStorm),
    Some(SwitchReason::Promotion),
    Some(SwitchReason::Probe),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The live ring (relaxed atomics and all) agrees with the sequential
    /// reference model on every operation sequence.
    #[test]
    fn window_matches_reference_model(ops in prop::collection::vec(op_strategy(), 0..200)) {
        let w = StatWindow::new();
        for &op in &ops {
            match op {
                Op::Commit(q) => w.record_commit(q),
                Op::Abort(cause) => w.record_abort(cause),
                Op::Serial => w.record_serial(),
                Op::Roll => w.roll(),
                Op::Reset => w.reset(),
            }
        }
        prop_assert_eq!(w.snapshot(), model_snapshot(&ops));
    }

    /// A full ring of rolls forgets everything, no matter what was recorded
    /// (and no matter where the cursor was left): the window is genuinely
    /// sliding, with no bucket that survives eviction.
    #[test]
    fn full_ring_of_rolls_forgets_everything(ops in prop::collection::vec(op_strategy(), 0..100)) {
        let w = StatWindow::new();
        for &op in &ops {
            match op {
                Op::Commit(q) => w.record_commit(q),
                Op::Abort(cause) => w.record_abort(cause),
                Op::Serial => w.record_serial(),
                Op::Roll => w.roll(),
                Op::Reset => w.reset(),
            }
        }
        for _ in 0..WINDOW_BUCKETS {
            w.roll();
        }
        prop_assert_eq!(w.snapshot(), WindowSnapshot::default());
    }

    /// Derived rates are well-formed for any snapshot: fractions stay in
    /// [0, 1], the abort shares partition the aborts, and the attempt
    /// count is the exact sum of outcomes.
    #[test]
    fn snapshot_rates_are_bounded(
        (commits, conflict, capacity, other) in (0u64..10_000, 0u64..10_000, 0u64..10_000, 0u64..10_000),
        (serial, quiesce) in (0u64..10_000, 0u64..1_000_000),
    ) {
        let s = WindowSnapshot {
            commits,
            conflict_aborts: conflict,
            capacity_aborts: capacity,
            other_aborts: other,
            serial,
            quiesce_ns: quiesce,
        };
        prop_assert_eq!(s.aborts(), conflict + capacity + other);
        prop_assert_eq!(s.attempts(), commits + serial + s.aborts());
        for rate in [
            s.abort_rate(),
            s.commit_rate(),
            s.fallback_rate(),
            s.capacity_share(),
            s.conflict_share(),
        ] {
            prop_assert!((0.0..=1.0).contains(&rate), "rate {rate} out of range");
        }
        if s.aborts() > 0 {
            prop_assert!(s.capacity_share() + s.conflict_share() <= 1.0 + 1e-9);
        }
        prop_assert_eq!(s.avg_quiesce_ns(), quiesce.checked_div(commits).unwrap_or(0));
    }

    /// Hysteresis floor: below `min_dwell_steps`, no window — however
    /// alarming — moves any mode anywhere.
    #[test]
    fn no_decision_below_dwell(
        mode_i in 0usize..EVERY_MODE.len(),
        reason_i in 0usize..EVERY_REASON.len(),
        (commits, conflict, capacity, other) in (0u64..5_000, 0u64..5_000, 0u64..5_000, 0u64..5_000),
        serial in 0u64..5_000,
    ) {
        let cfg = AdaptiveConfig::default();
        let s = WindowSnapshot {
            commits,
            conflict_aborts: conflict,
            capacity_aborts: capacity,
            other_aborts: other,
            serial,
            quiesce_ns: 0,
        };
        for dwell in 0..cfg.min_dwell_steps {
            prop_assert_eq!(
                decide(EVERY_MODE[mode_i], &s, dwell, EVERY_REASON[reason_i], &cfg),
                None
            );
        }
    }

    /// Sample floor: a transactional mode never switches on a window with
    /// fewer than `min_window_samples` attempts — thin evidence is not
    /// evidence (each outcome class is bounded so the total stays below
    /// the default floor of 64).
    #[test]
    fn no_decision_without_samples(
        mode_i in 0usize..SAMPLED_MODES.len(),
        reason_i in 0usize..EVERY_REASON.len(),
        (commits, conflict, capacity, other) in (0u64..12, 0u64..12, 0u64..12, 0u64..12),
        (serial, dwell) in (0u64..12, 4u32..100),
    ) {
        let cfg = AdaptiveConfig::default();
        let s = WindowSnapshot {
            commits,
            conflict_aborts: conflict,
            capacity_aborts: capacity,
            other_aborts: other,
            serial,
            quiesce_ns: 0,
        };
        prop_assert!(s.attempts() < cfg.min_window_samples);
        prop_assert_eq!(
            decide(SAMPLED_MODES[mode_i], &s, dwell, EVERY_REASON[reason_i], &cfg),
            None
        );
    }

    /// Capacity demotions latch: once a lock fled HTM for capacity, STM
    /// never promotes it back, not even on a perfect commit streak — STM
    /// cannot observe capacity aborts, so the streak proves nothing.
    #[test]
    fn capacity_demotion_latches(
        (commits, conflict, capacity, other) in (0u64..50_000, 0u64..5_000, 0u64..5_000, 0u64..5_000),
        (serial, dwell) in (0u64..5_000, 0u32..200),
    ) {
        let cfg = AdaptiveConfig::default();
        let s = WindowSnapshot {
            commits,
            conflict_aborts: conflict,
            capacity_aborts: capacity,
            other_aborts: other,
            serial,
            quiesce_ns: 0,
        };
        for mode in [AlgoMode::StmSpin, AlgoMode::StmCondvar] {
            let d = decide(mode, &s, dwell, Some(SwitchReason::Capacity), &cfg);
            prop_assert!(
                !matches!(d, Some((AlgoMode::HtmCondvar, _))),
                "latched capacity demotion promoted back to HTM: {d:?}"
            );
        }
    }

    /// Whatever the inputs, a switch decision is to a *different* mode and
    /// only ever targets the three dispatchable modes; the hands-off modes
    /// (`StmCondvarNoQuiesce` is an application contract, the glibc family
    /// self-adapts, `AdaptiveHtmLazy` and `StmNorec` are opt-in) never move
    /// at all.
    #[test]
    fn targets_are_legal(
        mode_i in 0usize..EVERY_MODE.len(),
        reason_i in 0usize..EVERY_REASON.len(),
        (commits, conflict, capacity, other) in (0u64..50_000, 0u64..50_000, 0u64..50_000, 0u64..50_000),
        (serial, dwell) in (0u64..50_000, 0u32..200),
    ) {
        let cfg = AdaptiveConfig::default();
        let mode = EVERY_MODE[mode_i];
        let s = WindowSnapshot {
            commits,
            conflict_aborts: conflict,
            capacity_aborts: capacity,
            other_aborts: other,
            serial,
            quiesce_ns: 0,
        };
        let d = decide(mode, &s, dwell, EVERY_REASON[reason_i], &cfg);
        if matches!(
            mode,
            AlgoMode::StmCondvarNoQuiesce
                | AlgoMode::AdaptiveHtm
                | AlgoMode::AdaptiveHtmLazy
                | AlgoMode::StmNorec
        ) {
            prop_assert_eq!(d, None, "hands-off mode switched");
        }
        if let Some((target, _reason)) = d {
            prop_assert_ne!(target, mode, "switch to the same mode");
            prop_assert!(
                matches!(
                    target,
                    AlgoMode::Baseline | AlgoMode::StmCondvar | AlgoMode::HtmCondvar
                ),
                "illegal target {target:?}"
            );
        }
    }

    /// Baseline generates no abort evidence, so its only move is the timed
    /// probe: exactly at `baseline_probe_steps` dwell (given the hysteresis
    /// floor), and always back into HTM elision.
    #[test]
    fn baseline_probes_on_timer_only(
        (commits, conflict, capacity, other) in (0u64..50_000, 0u64..50_000, 0u64..50_000, 0u64..50_000),
        (serial, dwell) in (0u64..50_000, 0u32..200),
    ) {
        let cfg = AdaptiveConfig::default();
        let s = WindowSnapshot {
            commits,
            conflict_aborts: conflict,
            capacity_aborts: capacity,
            other_aborts: other,
            serial,
            quiesce_ns: 0,
        };
        let d = decide(AlgoMode::Baseline, &s, dwell, None, &cfg);
        if dwell >= cfg.min_dwell_steps.max(cfg.baseline_probe_steps) {
            prop_assert_eq!(d, Some((AlgoMode::HtmCondvar, SwitchReason::Probe)));
        } else {
            prop_assert_eq!(d, None);
        }
    }
}
