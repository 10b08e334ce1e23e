//! Offline opacity / serializability checker.
//!
//! Input: the history events — `Begin`, `Read`, `Write`, `Commit`, `Abort`
//! — of one run in stamp order, as the opacity log of
//! [`tle_base::history`] records them (feature `check`) or as a filtered
//! ring snapshot of [`tle_base::trace`] holds them; any other kind is
//! skipped. The kernels guarantee (the placement contract in
//! [`tle_base::trace`]) that a writer's `Commit` event is stamped *before*
//! its writes become visible to any other emitted read — so the order of
//! `Commit` events is the only serialization order that needs checking, not
//! one of many to search for. An event is identified by its position in
//! the slice, which is the order the checker reasons in.
//!
//! The checker verifies **transactional sequential consistency** (the
//! paper's §IV formulation of opacity):
//!
//! 1. **Committed writers replay strictly.** Replaying every committed
//!    writing transaction in commit-event order against a sequential memory
//!    must reproduce each of their reads (with own writes shadowing).
//! 2. **Everyone else saw some consistent snapshot.** A read-only committed
//!    transaction, an aborted transaction, and an in-flight (zombie) tail
//!    must each have all its reads explained by a *single* prefix of the
//!    committed writers — any prefix between "commits before its begin" and
//!    "commits before its end". Doomed zombies matter: TLE kernels let
//!    transactions run doomed, and the paper's opacity requirement is
//!    exactly that they still never see a torn snapshot.
//!    A read-only committed **hardware** transaction is the exception: the
//!    simulated HTM commits it at one state-word load (DESIGN.md §2), and
//!    that load is its linearization point, so it must match exactly the
//!    prefix of writers committed before its `Commit` event. A doomed
//!    reader that commits anyway — its reads consistent, but replaced by a
//!    writer that committed first — fails here and nowhere else.
//! 3. **Initial values bind at first read.** The log does not include
//!    initial memory; the first read of an address (scanning committed
//!    writers first, then the rest) defines it, and every later read must
//!    agree.
//!
//! On violation the checker re-runs itself on successively longer prefixes
//! of the log and reports the *minimal violating prefix* — the earliest
//! event at which no consistent explanation exists — plus a human-readable
//! reason.

use std::collections::HashMap;
use tle_base::trace::{TraceKind, TxEvent, TxMode};

/// One reconstructed transaction (or serial/locked section).
#[derive(Debug, Clone)]
struct Tx {
    thread: u32,
    mode: TxMode,
    begin_pos: usize,
    /// Position of the Commit/Abort terminator; `usize::MAX` for in-flight
    /// tails.
    end_pos: usize,
    /// Reads and writes in program order, with their slice positions.
    ops: Vec<(usize, TxEvent)>,
    committed: bool,
}

impl Tx {
    fn writes(&self) -> impl Iterator<Item = &TxEvent> {
        self.ops
            .iter()
            .map(|(_, e)| e)
            .filter(|e| e.kind == TraceKind::Write)
    }

    fn is_writer(&self) -> bool {
        self.writes().next().is_some()
    }
}

/// Checker verdict.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// Every transaction is explained by the sequential oracle.
    Consistent {
        /// Total reconstructed transactions (including zombies).
        txs: usize,
        /// Committed transactions among them.
        commits: usize,
    },
    /// No consistent explanation exists.
    Violation {
        /// Length of the minimal violating prefix of the event log.
        prefix_len: usize,
        /// What failed, on that minimal prefix.
        reason: String,
    },
}

impl Verdict {
    /// Whether the history passed.
    pub fn is_consistent(&self) -> bool {
        matches!(self, Verdict::Consistent { .. })
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Consistent { txs, commits } => {
                write!(f, "consistent ({txs} transactions, {commits} committed)")
            }
            Verdict::Violation { prefix_len, reason } => {
                write!(f, "VIOLATION at event {prefix_len}: {reason}")
            }
        }
    }
}

/// Check a recorded history with no prior knowledge of initial memory
/// (first reads bind it). See the module docs for the algorithm.
pub fn check_history(events: &[TxEvent]) -> Verdict {
    check_history_with_init(events, [])
}

/// [`check_history`] with known initial values. Supplying them closes the
/// first-read blind spot: a dirty read of an in-flight value that nothing
/// later contradicts would otherwise *define* the initial value instead of
/// being flagged. Harness scenarios know their cells' addresses and starting
/// contents, so they should always use this form.
pub fn check_history_with_init(
    events: &[TxEvent],
    init: impl IntoIterator<Item = (usize, u64)>,
) -> Verdict {
    let init: HashMap<u64, u64> = init.into_iter().map(|(a, v)| (a as u64, v)).collect();
    match check_once(events, &init) {
        Ok((txs, commits)) => Verdict::Consistent { txs, commits },
        Err(full_reason) => {
            // Minimal violating prefix: smallest n with check(events[..n])
            // failing. Truncation only removes constraints, so failure is
            // monotone in n and a linear scan from the front is exact.
            for n in 1..=events.len() {
                if let Err(reason) = check_once(&events[..n], &init) {
                    return Verdict::Violation {
                        prefix_len: n,
                        reason,
                    };
                }
            }
            Verdict::Violation {
                prefix_len: events.len(),
                reason: full_reason,
            }
        }
    }
}

/// Split the log into transactions, preserving global order inside each.
fn reconstruct(events: &[TxEvent]) -> Result<Vec<Tx>, String> {
    let mut done: Vec<Tx> = Vec::new();
    let mut open: HashMap<u32, Tx> = HashMap::new();
    for (pos, e) in events.iter().enumerate() {
        match e.kind {
            TraceKind::Begin => {
                if let Some(prev) = open.insert(
                    e.thread,
                    Tx {
                        thread: e.thread,
                        mode: e.mode,
                        begin_pos: pos,
                        end_pos: usize::MAX,
                        ops: Vec::new(),
                        committed: false,
                    },
                ) {
                    // A Begin with no terminator: the recorder contract says
                    // every attempt ends in Commit or Abort, so a new Begin
                    // on the same thread means the previous attempt's tail
                    // was cut off (prefix truncation) — treat as in-flight.
                    done.push(prev);
                }
            }
            TraceKind::Read | TraceKind::Write => {
                let tx = open
                    .get_mut(&e.thread)
                    .ok_or_else(|| format!("event {e:?} outside any transaction"))?;
                tx.ops.push((pos, *e));
            }
            TraceKind::Commit | TraceKind::Abort => {
                let mut tx = open
                    .remove(&e.thread)
                    .ok_or_else(|| format!("terminator {e:?} without a Begin"))?;
                tx.end_pos = pos;
                tx.committed = e.kind == TraceKind::Commit;
                done.push(tx);
            }
            _ => {}
        }
    }
    done.extend(open.into_values());
    done.sort_by_key(|t| t.begin_pos);
    Ok(done)
}

/// How a verdict names cells and threads: by rank of first appearance in
/// the log. Heap addresses and thread numbers differ from run to run, so two
/// runs of one schedule print the same reason only when the log names them.
/// Built only to word a violation: consistent histories never need it.
struct Names {
    cells: HashMap<u64, usize>,
    threads: HashMap<u64, usize>,
}

impl Names {
    fn of(events: &[TxEvent]) -> Names {
        fn ranks(keys: impl Iterator<Item = u64>) -> HashMap<u64, usize> {
            let mut out = HashMap::new();
            for k in keys {
                let next = out.len();
                out.entry(k).or_insert(next);
            }
            out
        }
        let accesses = events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Read | TraceKind::Write));
        Names {
            cells: ranks(accesses.map(|e| e.detail)),
            threads: ranks(events.iter().map(|e| u64::from(e.thread))),
        }
    }
}

/// A read that returned a value other than the one memory held: raw thread
/// and address, named only when the verdict is worded.
struct Stale {
    thread: u32,
    mode: TxMode,
    addr: u64,
    val: u64,
    pos: usize,
    expected: u64,
}

impl Stale {
    fn describe(&self, names: &Names) -> String {
        format!(
            "thread#{} ({:?}) read cell#{}={} at event {}, expected {}",
            names.threads[&u64::from(self.thread)],
            self.mode,
            names.cells[&self.addr],
            self.val,
            self.pos,
            self.expected
        )
    }
}

/// Replay a transaction's ops against `base` (memory after some committed
/// prefix) with own-write shadowing. Reads of addresses no committed writer
/// has touched consult — and on first sight bind — `init`; bindings are
/// staged into `staged` so a failed probe leaks nothing.
fn simulate(
    tx: &Tx,
    base: &HashMap<u64, u64>,
    init: &HashMap<u64, u64>,
    staged: &mut HashMap<u64, u64>,
) -> Result<(), Stale> {
    let mut own: HashMap<u64, u64> = HashMap::new();
    for &(pos, op) in &tx.ops {
        let addr = op.detail;
        if op.kind == TraceKind::Write {
            own.insert(addr, op.val);
            continue;
        }
        let expected = own
            .get(&addr)
            .or_else(|| base.get(&addr))
            .or_else(|| init.get(&addr))
            .or_else(|| staged.get(&addr))
            .copied();
        match expected {
            Some(v) if v == op.val => {}
            Some(v) => {
                return Err(Stale {
                    thread: tx.thread,
                    mode: tx.mode,
                    addr,
                    val: op.val,
                    pos,
                    expected: v,
                });
            }
            None => {
                staged.insert(addr, op.val);
            }
        }
    }
    Ok(())
}

fn check_once(
    events: &[TxEvent],
    known_init: &HashMap<u64, u64>,
) -> Result<(usize, usize), String> {
    let txs = reconstruct(events)?;
    let n_txs = txs.len();
    let n_commits = txs.iter().filter(|t| t.committed).count();

    // Committed writers in commit order; `states[k]` = memory after the
    // first k of them.
    let writers: Vec<&Tx> = {
        let mut w: Vec<&Tx> = txs
            .iter()
            .filter(|t| t.committed && t.is_writer())
            .collect();
        w.sort_by_key(|t| t.end_pos);
        w
    };
    let mut states: Vec<HashMap<u64, u64>> = vec![HashMap::new()];
    let mut init: HashMap<u64, u64> = known_init.clone();

    // Pass 1: strict replay of committed writers (binds inits as it goes).
    for (k, w) in writers.iter().enumerate() {
        let mut staged = HashMap::new();
        simulate(w, &states[k], &init, &mut staged).map_err(|e| {
            format!(
                "committed writer at commit position {k} inconsistent: {}",
                e.describe(&Names::of(events))
            )
        })?;
        init.extend(staged);
        let mut next = states[k].clone();
        for op in w.writes() {
            next.insert(op.detail, op.val);
        }
        states.push(next);
    }

    // Pass 2: snapshot-existence for everyone else. A transaction that
    // began after `lo` commits and ended before the `hi+1`-th must match
    // memory after some k in [lo, hi].
    let commits_before = |pos: usize| writers.iter().filter(|w| w.end_pos < pos).count();
    for tx in &txs {
        if tx.committed && tx.is_writer() {
            continue; // pass 1
        }
        if tx.ops.iter().all(|(_, e)| e.kind != TraceKind::Read) {
            continue; // nothing observable
        }
        let hi = commits_before(tx.end_pos);
        let lo = if tx.committed && tx.mode == TxMode::Htm {
            hi
        } else {
            commits_before(tx.begin_pos)
        };
        let mut last_err = None;
        let mut ok = false;
        for state in states.iter().take(hi + 1).skip(lo) {
            let mut staged = HashMap::new();
            match simulate(tx, state, &init, &mut staged) {
                Ok(()) => {
                    init.extend(staged);
                    ok = true;
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        if !ok {
            let kind = if tx.committed {
                "read-only committed"
            } else if tx.end_pos == usize::MAX {
                "in-flight"
            } else {
                "aborted"
            };
            let last_err = last_err.map_or(String::new(), |e| e.describe(&Names::of(events)));
            return Err(format!(
                "{kind} transaction saw no consistent snapshot \
                 (tried commit prefixes {lo}..={hi}): {last_err}"
            ));
        }
    }
    Ok((n_txs, n_commits))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, thread: u32, kind: TraceKind, addr: u64, val: u64) -> TxEvent {
        TxEvent {
            ts,
            thread,
            kind,
            mode: TxMode::Stm,
            cause: None,
            detail: addr,
            val,
        }
    }

    use TraceKind::{Abort, Begin, Commit, Read, Write};

    #[test]
    fn empty_history_is_consistent() {
        assert!(check_history(&[]).is_consistent());
    }

    #[test]
    fn serial_increments_are_consistent() {
        // T0: read A=0, write A=1, commit. T1: read A=1, write A=2, commit.
        let h = [
            ev(0, 0, Begin, 0, 0),
            ev(1, 0, Read, 0xa, 0),
            ev(2, 0, Write, 0xa, 1),
            ev(3, 0, Commit, 0, 0),
            ev(4, 1, Begin, 0, 0),
            ev(5, 1, Read, 0xa, 1),
            ev(6, 1, Write, 0xa, 2),
            ev(7, 1, Commit, 0, 0),
        ];
        assert!(check_history(&h).is_consistent());
    }

    #[test]
    fn lost_update_is_flagged_with_minimal_prefix() {
        // Both read A=0, both write and commit: the second committer's read
        // is stale — the classic skipped-validation symptom.
        let h = [
            ev(0, 0, Begin, 0, 0),
            ev(1, 0, Read, 0xa, 0),
            ev(2, 1, Begin, 0, 0),
            ev(3, 1, Read, 0xa, 0),
            ev(4, 1, Write, 0xa, 1),
            ev(5, 1, Commit, 0, 0),
            ev(6, 0, Write, 0xa, 1),
            ev(7, 0, Commit, 0, 0),
        ];
        let v = check_history(&h);
        match v {
            Verdict::Violation { prefix_len, .. } => {
                // The violation needs both commits: minimal prefix is the
                // whole history.
                assert_eq!(prefix_len, 8);
            }
            Verdict::Consistent { .. } => panic!("lost update not flagged"),
        }
    }

    #[test]
    fn verdicts_name_cells_and_threads_by_first_appearance() {
        // The lost update again, with heap-like addresses and thread
        // numbers: the reason names both by first appearance in the log, so
        // two runs of one schedule print the same text.
        let (t0, t1, a, b) = (70, 41, 0x7f3a_2000_1c50, 0x7f3a_2000_0008);
        let h = [
            ev(0, t0, Begin, 0, 0),
            ev(1, t0, Read, b, 0),
            ev(2, t0, Read, a, 0),
            ev(3, t1, Begin, 0, 0),
            ev(4, t1, Read, a, 0),
            ev(5, t1, Write, a, 1),
            ev(6, t1, Commit, 0, 0),
            ev(7, t0, Write, a, 1),
            ev(8, t0, Commit, 0, 0),
        ];
        match check_history(&h) {
            Verdict::Violation { reason, .. } => assert!(
                reason.ends_with("thread#0 (Stm) read cell#1=0 at event 2, expected 1"),
                "{reason}"
            ),
            Verdict::Consistent { .. } => panic!("lost update not flagged"),
        }
    }

    #[test]
    fn torn_zombie_snapshot_is_flagged() {
        // Writer keeps A == B. Zombie reads A before the commit and B after:
        // no single prefix explains (A=0, B=1).
        let h = [
            ev(0, 0, Begin, 0, 0),
            ev(1, 0, Read, 0xa, 0),
            ev(2, 1, Begin, 0, 0),
            ev(3, 1, Write, 0xa, 1),
            ev(4, 1, Write, 0xb, 1),
            ev(5, 1, Commit, 0, 0),
            ev(6, 0, Read, 0xb, 1),
            ev(7, 0, Abort, 0, 0),
        ];
        // Without init knowledge the read of B=1 could *define* initial B;
        // with it, no single commit prefix explains (A=0, B=1).
        let v = check_history_with_init(&h, [(0xa, 0), (0xb, 0)]);
        assert!(!v.is_consistent(), "torn zombie snapshot passed: {v}");
    }

    #[test]
    fn zombie_with_consistent_snapshot_passes() {
        // Same shape, but the zombie's reads both predate the commit.
        let h = [
            ev(0, 0, Begin, 0, 0),
            ev(1, 0, Read, 0xa, 0),
            ev(2, 0, Read, 0xb, 0),
            ev(3, 1, Begin, 0, 0),
            ev(4, 1, Write, 0xa, 1),
            ev(5, 1, Write, 0xb, 1),
            ev(6, 1, Commit, 0, 0),
            ev(7, 0, Abort, 0, 0),
        ];
        assert!(check_history(&h).is_consistent());
    }

    #[test]
    fn read_only_htm_commit_is_judged_at_its_commit_point() {
        // Both reads predate the writer, so an STM (or aborted) reader is
        // explained by the empty prefix; a committed HTM reader is judged at
        // its commit event, after the writer's, and its snapshot is stale.
        let shape = |mode: TxMode, end: TraceKind| {
            let mut h = [
                ev(0, 0, Begin, 0, 0),
                ev(1, 0, Read, 0xa, 0),
                ev(2, 0, Read, 0xb, 0),
                ev(3, 1, Begin, 0, 0),
                ev(4, 1, Write, 0xa, 1),
                ev(5, 1, Write, 0xb, 1),
                ev(6, 1, Commit, 0, 0),
                ev(7, 0, end, 0, 0),
            ];
            for e in h.iter_mut().filter(|e| e.thread == 0) {
                e.mode = mode;
            }
            check_history_with_init(&h, [(0xa, 0), (0xb, 0)])
        };
        assert!(shape(TxMode::Stm, Commit).is_consistent());
        assert!(shape(TxMode::Htm, Abort).is_consistent());
        let v = shape(TxMode::Htm, Commit);
        assert!(!v.is_consistent(), "stale HTM read-only commit passed: {v}");
    }

    #[test]
    fn in_flight_tail_is_treated_as_zombie() {
        // Thread 0 never terminates; its single read is still explained.
        let h = [
            ev(0, 0, Begin, 0, 0),
            ev(1, 0, Read, 0xa, 0),
            ev(2, 1, Begin, 0, 0),
            ev(3, 1, Write, 0xa, 5),
            ev(4, 1, Commit, 0, 0),
        ];
        assert!(check_history(&h).is_consistent());
    }

    #[test]
    fn read_of_uncommitted_value_is_flagged() {
        // Thread 1 reads a value no committed writer ever produced (the
        // early-orec-release symptom: in-place dirty data behind a clean
        // orec). With unknown initial memory the dirty 42 would *become*
        // the initial value; the known-init form closes that blind spot.
        let h = [
            ev(0, 0, Begin, 0, 0),
            ev(1, 0, Write, 0xa, 42),
            ev(2, 1, Begin, 0, 0),
            ev(3, 1, Read, 0xa, 42),
            ev(4, 1, Commit, 0, 0),
            ev(5, 0, Abort, 0, 0),
        ];
        assert!(
            check_history(&h).is_consistent(),
            "without init knowledge the dirty read defines initial memory"
        );
        let v = check_history_with_init(&h, [(0xa, 0)]);
        assert!(!v.is_consistent(), "dirty read passed: {v}");
    }

    #[test]
    fn own_writes_shadow_reads() {
        let h = [
            ev(0, 0, Begin, 0, 0),
            ev(1, 0, Write, 0xa, 9),
            ev(2, 0, Read, 0xa, 9),
            ev(3, 0, Commit, 0, 0),
        ];
        assert!(check_history(&h).is_consistent());
    }

    #[test]
    fn first_read_binds_initial_value() {
        // Initial A is nonzero; both threads must agree on it.
        let consistent = [
            ev(0, 0, Begin, 0, 0),
            ev(1, 0, Read, 0xa, 7),
            ev(2, 0, Commit, 0, 0),
            ev(3, 1, Begin, 0, 0),
            ev(4, 1, Read, 0xa, 7),
            ev(5, 1, Commit, 0, 0),
        ];
        assert!(check_history(&consistent).is_consistent());
        let divergent = [
            ev(0, 0, Begin, 0, 0),
            ev(1, 0, Read, 0xa, 7),
            ev(2, 0, Commit, 0, 0),
            ev(3, 1, Begin, 0, 0),
            ev(4, 1, Read, 0xa, 8),
            ev(5, 1, Commit, 0, 0),
        ];
        assert!(!check_history(&divergent).is_consistent());
    }
}
