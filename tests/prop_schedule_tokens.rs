//! Property tests for replayable schedule tokens (`d:…` rank lists and
//! `r:…` seeds — see `tle_check::Cursor`). The contract the explorer's
//! failure reports depend on: any token a run prints can be re-parsed and
//! replayed to the *same* interleaving, and anything that is not a token
//! is rejected rather than misread as one.

use proptest::prelude::*;
use std::time::Duration;
use tle_check::{run_schedule, Cursor};
use tle_repro::base::history;
use tle_repro::base::sched::{self, YieldPoint};
use tle_repro::base::trace::{emit, emit_access, TraceKind, TxEvent, TxMode};

const STALL: Duration = Duration::from_secs(2);

/// Schedule fingerprint: the recorded history with thread ids and cell
/// addresses renamed to first-appearance order. The recorder hands out
/// fresh dense ids per OS thread and scenarios allocate fresh cells per
/// run, so the raw fields differ between two runs of the *same* schedule;
/// the renamed sequence is equal iff the interleavings are.
fn fingerprint(events: &[TxEvent]) -> Vec<(usize, &'static str, usize, u64)> {
    let mut threads: Vec<u32> = Vec::new();
    let mut addrs: Vec<u64> = Vec::new();
    let dense = |v: u32, pool: &mut Vec<u32>| -> usize {
        match pool.iter().position(|&x| x == v) {
            Some(i) => i,
            None => {
                pool.push(v);
                pool.len() - 1
            }
        }
    };
    events
        .iter()
        .map(|e| {
            let t = dense(e.thread, &mut threads);
            let a = if e.detail == 0 {
                0
            } else {
                match addrs.iter().position(|&x| x == e.detail) {
                    Some(i) => i + 1,
                    None => {
                        addrs.push(e.detail);
                        addrs.len()
                    }
                }
            };
            (t, e.kind.label(), a, e.val)
        })
        .collect()
}

/// A small scenario whose recorded history is schedule-sensitive: two
/// threads, each running `nops` one-write sections with yield points
/// between every recorded event, writing values that identify the writer.
fn recording_threads(nops: usize) -> Vec<Box<dyn FnOnce() + Send>> {
    (0..2u64)
        .map(|t| {
            let body: Box<dyn FnOnce() + Send> = Box::new(move || {
                for k in 0..nops as u64 {
                    emit(TraceKind::Begin, TxMode::Htm, None, 0);
                    sched::yield_point(YieldPoint::MemStore);
                    // Distinct fake addresses per (thread, op); never
                    // dereferenced — only the recorder sees them.
                    let addr = 16 * (t * 8 + k + 1);
                    emit_access(TraceKind::Write, TxMode::Htm, addr, 100 * t + k);
                    sched::yield_point(YieldPoint::MemStore);
                    emit(TraceKind::Commit, TxMode::Htm, None, 0);
                    sched::yield_point(YieldPoint::TxState);
                }
            });
            body
        })
        .collect()
}

/// Run one schedule and return (post-run cursor, fingerprint).
fn run_fp(cursor: Cursor, nops: usize) -> (Cursor, Vec<(usize, &'static str, usize, u64)>) {
    let rec = history::record();
    let result = run_schedule(cursor, recording_threads(nops), STALL);
    let events = rec.finish();
    assert!(
        result.failure.is_none(),
        "recording scenario cannot fail: {:?}",
        result.failure
    );
    (result.cursor, fingerprint(&events))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `d:` tokens: print → parse → print is the identity for any rank list
    /// (including the empty one, "d:").
    #[test]
    fn dfs_token_print_parse_print_is_identity(
        ranks in prop::collection::vec(0u16..6, 0..40),
    ) {
        let token = format!(
            "d:{}",
            ranks.iter().map(|r| r.to_string()).collect::<Vec<_>>().join(".")
        );
        let parsed = Cursor::parse(&token).unwrap_or_else(|e| panic!("{e}"));
        prop_assert_eq!(parsed.token(), token);
    }

    /// `r:` tokens round-trip for every seed.
    #[test]
    fn random_token_print_parse_print_is_identity(seed in any::<u64>()) {
        let token = format!("r:{seed}");
        let parsed = Cursor::parse(&token).unwrap_or_else(|e| panic!("{e}"));
        prop_assert_eq!(parsed.token(), token);
    }

    /// A parsed token makes the documented decisions: `min(rank, arity-1)`
    /// while ranks remain, rank 0 past the end — and two parses of the same
    /// token agree decision-for-decision.
    #[test]
    fn parsed_cursor_replays_documented_decisions(
        ranks in prop::collection::vec(0u16..8, 0..32),
        arities in prop::collection::vec(2usize..5, 40..41),
    ) {
        let token = format!(
            "d:{}",
            ranks.iter().map(|r| r.to_string()).collect::<Vec<_>>().join(".")
        );
        let mut a = Cursor::parse(&token).unwrap_or_else(|e| panic!("{e}"));
        let mut b = Cursor::parse(&token).unwrap_or_else(|e| panic!("{e}"));
        for (i, &arity) in arities.iter().enumerate() {
            let da = a.choose(arity);
            let db = b.choose(arity);
            prop_assert_eq!(da, db);
            let spec = ranks.get(i).map(|&r| (r as usize).min(arity - 1)).unwrap_or(0);
            prop_assert_eq!(da, spec);
        }
    }

    /// Every token the DFS explorer prints replays to the exact recorded
    /// interleaving it came from.
    #[test]
    fn explored_dfs_tokens_replay_to_identical_fingerprint(nops in 1usize..4) {
        let mut cursor = Cursor::dfs(2);
        let mut explored = 0;
        loop {
            let (after, fp) = run_fp(cursor, nops);
            let token = after.token();
            let replay = Cursor::parse(&token).unwrap_or_else(|e| panic!("{e}"));
            let (_, fp2) = run_fp(replay, nops);
            prop_assert_eq!(&fp2, &fp, "token {} diverged on replay", token);
            cursor = after;
            explored += 1;
            if explored >= 24 || !cursor.advance() {
                break;
            }
            cursor.rewind(2);
        }
        prop_assert!(explored > 1, "DFS tree degenerated to one schedule");
    }

    /// Seeded-random schedules replay from their `r:` token alone.
    #[test]
    fn random_schedule_tokens_replay_to_identical_fingerprint(seed in any::<u64>()) {
        let cursor = Cursor::random(seed);
        let token = cursor.token();
        let (_, fp) = run_fp(cursor, 2);
        let replay = Cursor::parse(&token).unwrap_or_else(|e| panic!("{e}"));
        let (_, fp2) = run_fp(replay, 2);
        prop_assert_eq!(fp2, fp, "token {} diverged on replay", token);
    }

    /// Anything outside the token grammar is rejected with an error — never
    /// silently misparsed into some schedule.
    #[test]
    fn malformed_tokens_are_rejected(
        bad in prop_oneof![
            (0u64..1000).prop_map(|n| format!("d:{n}x")),      // junk in a rank
            (0u64..1000).prop_map(|n| format!("d:{n}.")),      // trailing separator
            (0u64..1000).prop_map(|n| format!("d:.{n}")),      // leading separator
            (0u64..1000).prop_map(|n| format!("d:{n}..{n}")),  // empty rank
            (0u64..1000).prop_map(|n| format!("q:{n}")),       // unknown prefix
            (0u64..1000).prop_map(|n| n.to_string()),          // no prefix at all
            (65_536u64..1_000_000).prop_map(|n| format!("d:{n}")), // rank > u16::MAX
            (0u64..1000).prop_map(|n| format!("r:{n}z")),      // junk in a seed
            (0u64..1).prop_map(|_| String::from("r:")),        // empty seed
            (0u64..1).prop_map(|_| String::new()),             // empty token
        ],
    ) {
        prop_assert!(
            Cursor::parse(&bad).is_err(),
            "malformed token {:?} was accepted",
            bad
        );
    }
}
