//! The event plane's two sinks cannot drift.
//!
//! Every kernel point emits once (`tle_base::trace::emit`); the per-thread
//! ring (`trace` feature) and the opacity log (`check` feature, armed by a
//! `history::record` session) are two sinks of that one stream. This suite
//! runs one single-thread section under ml_wt, NOrec, the HTM, the serial
//! fallback, the baseline lock and `AdaptiveHtmLazy`, and checks:
//!
//! - the log side, in every build that has it (this package's tests turn
//!   `check` on): each section is one `Begin … Commit` of the expected mode
//!   whose reads and writes of the two cells carry the values the closure
//!   saw and stored, read-own-write included;
//! - with `--features trace` as well, the ring's history-kind events of the
//!   section's thread over the session equal the log, event for event —
//!   stamp, kind, mode, cause, address and value.
//!
//! One `#[test]` only: the log and the rings are process-global.

use std::sync::Arc;

use tle_repro::base::history;
use tle_repro::base::trace::{self, TraceKind, TxEvent, TxMode};
use tle_repro::htm::HtmConfig;
use tle_repro::prelude::*;

struct Case {
    name: &'static str,
    mode: AlgoMode,
    /// Raise an unsafe operation first, so the section re-runs serially.
    unsafe_first: bool,
    /// Modes of the recorded attempts, in order; the last one commits.
    attempts: &'static [TxMode],
}

const CASES: [Case; 6] = [
    Case {
        name: "ml_wt",
        mode: AlgoMode::StmCondvar,
        unsafe_first: false,
        attempts: &[TxMode::Stm],
    },
    Case {
        name: "NOrec",
        mode: AlgoMode::StmNorec,
        unsafe_first: false,
        attempts: &[TxMode::Norec],
    },
    Case {
        name: "HTM",
        mode: AlgoMode::HtmCondvar,
        unsafe_first: false,
        attempts: &[TxMode::Htm],
    },
    Case {
        name: "serial fallback",
        mode: AlgoMode::StmCondvar,
        unsafe_first: true,
        attempts: &[TxMode::Stm, TxMode::Serial],
    },
    Case {
        name: "baseline lock",
        mode: AlgoMode::Baseline,
        unsafe_first: false,
        attempts: &[TxMode::Locked],
    },
    Case {
        name: "AdaptiveHtmLazy",
        mode: AlgoMode::AdaptiveHtmLazy,
        unsafe_first: false,
        attempts: &[TxMode::Htm],
    },
];

/// Run `case`'s section once on this thread; returns the recorded log, the
/// ring's view of the same session, and the two cells' addresses.
fn record(case: &Case) -> (Vec<TxEvent>, Vec<TxEvent>, [u64; 2]) {
    let sys = Arc::new(
        TmSystem::builder()
            .mode(case.mode)
            .htm_config(HtmConfig {
                event_prob: 0.0,
                ..HtmConfig::default()
            })
            .build(),
    );
    let lock = ElidableMutex::new("sinks");
    sys.adopt_lock(&lock);
    let a = TCell::new(1u64);
    let b = TCell::new(2u64);
    let th = sys.register();
    let rec = history::record();
    let mut first = true;
    th.tx(&lock).run(|ctx| {
        if case.unsafe_first && std::mem::take(&mut first) {
            ctx.unsafe_op()?;
        }
        let x = ctx.read(&a)?;
        ctx.write(&b, x + 10)?;
        let y = ctx.read(&b)?;
        ctx.update(&a, |v| v + y)?;
        Ok(())
    });
    let log = rec.finish();
    let (lo, hi) = match (log.first(), log.last()) {
        (Some(f), Some(l)) => (f.ts, l.ts),
        _ => (1, 0),
    };
    let thread = log.first().map(|e| e.thread);
    let ring = trace::snapshot()
        .into_iter()
        .filter(|e| Some(e.thread) == thread && e.kind.is_history())
        .filter(|e| (lo..=hi).contains(&e.ts))
        .collect();
    (log, ring, [a.addr() as u64, b.addr() as u64])
}

#[test]
fn ring_and_log_carry_one_stream() {
    let mut ring_seen = false;
    for case in &CASES {
        let (log, ring, [a, b]) = record(case);
        let name = case.name;

        // The log side: one Begin … terminator per attempt, in the expected
        // modes, the last attempt committing.
        let marks: Vec<(TraceKind, TxMode)> = log
            .iter()
            .filter(|e| !matches!(e.kind, TraceKind::Read | TraceKind::Write))
            .map(|e| (e.kind, e.mode))
            .collect();
        let mut expect = Vec::new();
        for (i, &mode) in case.attempts.iter().enumerate() {
            let end = if i + 1 == case.attempts.len() {
                TraceKind::Commit
            } else {
                TraceKind::Abort
            };
            expect.extend([(TraceKind::Begin, mode), (end, mode)]);
        }
        assert_eq!(marks, expect, "{name}: attempt boundaries");
        let last = *case.attempts.last().unwrap();
        // The committing attempt's accesses to the two cells, with values.
        let accesses: Vec<(TraceKind, TxMode, u64, u64)> = log
            .iter()
            .filter(|e| e.detail == a || e.detail == b)
            .filter(|e| matches!(e.kind, TraceKind::Read | TraceKind::Write))
            .map(|e| (e.kind, e.mode, e.detail, e.val))
            .collect();
        assert_eq!(
            accesses,
            [
                (TraceKind::Read, last, a, 1),
                (TraceKind::Write, last, b, 11),
                (TraceKind::Read, last, b, 11),
                (TraceKind::Read, last, a, 1),
                (TraceKind::Write, last, a, 12),
            ],
            "{name}: reads and writes with their values"
        );
        assert!(
            log.windows(2).all(|w| w[0].ts < w[1].ts),
            "{name}: stamp order"
        );

        // The ring side: the same events, stamp for stamp.
        if trace::compiled() {
            assert_eq!(ring, log, "{name}: the ring and the log drifted apart");
            ring_seen |= !ring.is_empty();
        } else {
            assert!(ring.is_empty());
        }
    }
    // The ring comparison must not pass vacuously when it is compiled in.
    assert_eq!(ring_seen, trace::compiled(), "no section reached the ring");
}
