//! The transaction-safety rules, one per misuse class the paper fixed by
//! hand.
//!
//! | rule | paper hazard |
//! |------|--------------|
//! | R1 `irrevocable-effect` | §VI TM-unsafe actions: I/O, sleeps and other unrevertible effects force serial-irrevocable execution; the paper routes them through deferred actions |
//! | R2 `nested-lock` | §V the x265 two-phase-locking violation: acquiring another lock (or re-entering `tx(..)`) inside an atomic block |
//! | R3 `escape-hazard` | mixed transactional/non-transactional access: direct atomics or `load_direct`/`store_direct` inside the closure bypass the TM read/write sets |
//! | R4 `noquiesce-privatization` | §IV-B: `TM_NoQuiesce` asserted by a transaction that privatizes (frees/drops shared data) — readers may still hold speculative references |
//! | R5 `condvar-misuse` | §III: OS condition variables or `park` inside a transaction deadlock or lose wakeups; waiting must go through `TxCondvar` (Wang's construction) |
//! | R6 `async-in-atomic` | atomic blocks never suspend mid-speculation: `.await`, `block_on(..)` or a nested async section entry inside the closure would pin orecs/line claims across arbitrary scheduling delays |
//!
//! The scan is token-shape based and deliberately path-insensitive: a rule
//! fires when a hazardous shape appears anywhere in the closure body. Two
//! escape hatches model the sanctioned idioms: tokens inside a
//! `ctx.defer(...)` argument group are exempt from every rule (deferred
//! actions run post-commit), and R1 stops firing after a `ctx.unsafe_op()`
//! call (the runner re-executes the section serial-irrevocably, so later
//! effects are not speculative).

use crate::extract::{Flat, Site};
use crate::lexer::{Delim, Span, TokKind};
use std::path::PathBuf;

/// Everything the analyzer can report. `R1..R8` are the suppressible
/// rules; the `A*`/`P*` rules are meta-diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    IrrevocableEffect,
    NestedLock,
    EscapeHazard,
    NoQuiescePrivatization,
    CondvarMisuse,
    AsyncInAtomic,
    /// A cycle in the static lock-order graph (workspace-level).
    LockOrder,
    /// A `Relaxed` access on an atomic that elsewhere carries an
    /// Acquire/Release publication pair (workspace-level).
    OrderingAudit,
    /// A `tle-lint:` directive that is malformed or missing its reason.
    BadAllow,
    /// A valid suppression whose rule no longer fires on its line.
    StaleAllow,
    /// The file could not be lexed/parsed into token trees.
    ParseError,
}

/// The eight suppressible rules, in id order.
pub const LINT_RULES: [Rule; 8] = [
    Rule::IrrevocableEffect,
    Rule::NestedLock,
    Rule::EscapeHazard,
    Rule::NoQuiescePrivatization,
    Rule::CondvarMisuse,
    Rule::AsyncInAtomic,
    Rule::LockOrder,
    Rule::OrderingAudit,
];

impl Rule {
    /// Short id (`R1`..`R6`, `A1`, `A2`, `P1`).
    pub fn id(self) -> &'static str {
        match self {
            Rule::IrrevocableEffect => "R1",
            Rule::NestedLock => "R2",
            Rule::EscapeHazard => "R3",
            Rule::NoQuiescePrivatization => "R4",
            Rule::CondvarMisuse => "R5",
            Rule::AsyncInAtomic => "R6",
            Rule::LockOrder => "R7",
            Rule::OrderingAudit => "R8",
            Rule::BadAllow => "A1",
            Rule::StaleAllow => "A2",
            Rule::ParseError => "P1",
        }
    }

    /// Human slug, used in directives and JSON output.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::IrrevocableEffect => "irrevocable-effect",
            Rule::NestedLock => "nested-lock",
            Rule::EscapeHazard => "escape-hazard",
            Rule::NoQuiescePrivatization => "noquiesce-privatization",
            Rule::CondvarMisuse => "condvar-misuse",
            Rule::AsyncInAtomic => "async-in-atomic",
            Rule::LockOrder => "lock-order",
            Rule::OrderingAudit => "ordering-audit",
            Rule::BadAllow => "bad-allow",
            Rule::StaleAllow => "stale-allow",
            Rule::ParseError => "parse-error",
        }
    }

    /// One-line description of the paper hazard the rule guards.
    pub fn hazard(self) -> &'static str {
        match self {
            Rule::IrrevocableEffect => {
                "TM-unsafe effect inside an atomic block (paper \u{a7}VI): I/O and sleeps \
                 cannot be rolled back; route through ctx.defer(..) or serialize first \
                 with ctx.unsafe_op()?"
            }
            Rule::NestedLock => {
                "lock acquired inside an atomic block (paper \u{a7}V, the x265 2PL \
                 violation): restructure with a ready flag or merge the sections"
            }
            Rule::EscapeHazard => {
                "shared state accessed around the TM instrumentation inside an atomic \
                 block: use ctx.read/ctx.write so conflicts are detected and rollback \
                 stays exact"
            }
            Rule::NoQuiescePrivatization => {
                "TM_NoQuiesce asserted by a privatizing transaction (paper \u{a7}IV-B): \
                 skipping the drain while freeing shared data races doomed readers; drop \
                 the no_quiesce() or declare ctx.will_free_memory()"
            }
            Rule::CondvarMisuse => {
                "OS blocking primitive inside an atomic block (paper \u{a7}III): waiting \
                 must commit the transaction first; use ctx.wait/ctx.signal on a TxCondvar"
            }
            Rule::AsyncInAtomic => {
                "suspension point inside an atomic block: attempts must start and finish \
                 inside one poll; an .await/block_on would hold speculative state (orecs, \
                 line claims, the serial token) across arbitrary scheduling delays \u{2014} \
                 commit first, then await (ctx.wait suspends safely between attempts)"
            }
            Rule::LockOrder => {
                "cycle in the static lock-order graph (paper \u{a7}V): two sections acquire \
                 the same locks in opposite orders, so the serial fallback can deadlock \
                 even though elided runs never do; impose one global acquisition order"
            }
            Rule::OrderingAudit => {
                "Relaxed access on an atomic that elsewhere forms an Acquire/Release \
                 publication pair: the relaxed side can observe the flag without the \
                 published data; upgrade the ordering or justify the site in-line"
            }
            Rule::BadAllow => "malformed suppression: tle-lint: allow(<rule>, \"<reason>\")",
            Rule::StaleAllow => "suppression no longer matches any finding on its line",
            Rule::ParseError => "file could not be tokenized",
        }
    }

    /// Parse `R1`/`r1` or a slug into a suppressible rule.
    pub fn parse_suppressible(s: &str) -> Option<Rule> {
        LINT_RULES
            .iter()
            .copied()
            .find(|r| r.id().eq_ignore_ascii_case(s) || r.slug().eq_ignore_ascii_case(s))
    }
}

/// A secondary location attached to a finding — the far end of a call
/// chain, the other edge of a lock-order cycle, the publication pair a
/// relaxed access races.
#[derive(Debug, Clone)]
pub struct Related {
    pub path: PathBuf,
    pub span: Span,
    pub note: String,
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    pub span: Span,
    pub message: String,
    /// Secondary spans (possibly in other files). Empty for purely local
    /// findings.
    pub related: Vec<Related>,
}

impl Finding {
    pub fn new(rule: Rule, span: Span, message: impl Into<String>) -> Finding {
        Finding {
            rule,
            span,
            message: message.into(),
            related: Vec::new(),
        }
    }
}

/// I/O-flavoured macros (R1): `name!(..)`.
const IO_MACROS: [&str; 5] = ["println", "print", "eprintln", "eprint", "dbg"];
/// Free functions whose *call* inside an atomic block is irrevocable (R1).
const IO_CALLS: [&str; 6] = [
    "sleep",
    "stdout",
    "stderr",
    "stdin",
    "remove_file",
    "create_dir",
];
/// Path heads that mark filesystem access (R1): `File::`, `fs::`, ...
const IO_PATH_HEADS: [&str; 3] = ["File", "OpenOptions", "fs"];
/// Lock-acquisition method names (R2).
const LOCK_METHODS: [&str; 3] = ["lock", "try_lock", "raw_lock"];
/// Atomic RMW method names, flagged unconditionally (R3).
const ATOMIC_RMW: [&str; 8] = [
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];
/// Atomic load/store/swap — flagged only when the argument list names a
/// memory ordering, so slice `.swap(i, j)` and friends stay clean (R3).
const ATOMIC_ORDERED: [&str; 3] = ["load", "store", "swap"];
const ORDERINGS: [&str; 6] = [
    "Ordering", "Relaxed", "Acquire", "Release", "SeqCst", "AcqRel",
];
/// Direct TCell access, bypassing the context (R3).
const DIRECT_CELL: [&str; 2] = ["load_direct", "store_direct"];
/// Privatization markers for R4.
const PRIVATIZE: [&str; 3] = ["drop", "from_raw", "dealloc"];
/// OS blocking primitives (R5).
const PARK_CALLS: [&str; 2] = ["park", "park_timeout"];
/// Async section entry points (R6): awaiting any of these inside an atomic
/// block is a suspension hazard.
const ASYNC_ENTRIES: [&str; 2] = ["run_async", "try_run_async"];
const CONDVAR_METHODS: [&str; 3] = ["notify_one", "notify_all", "wait_timeout"];

/// Run every rule over one atomic block.
pub fn scan_site(site: &Site) -> Vec<Finding> {
    let flat = &site.body;
    let mut out = Vec::new();

    // Index of the first `.unsafe_op(` call: effects after it run under the
    // serial-irrevocable re-execution, not speculatively.
    let first_unsafe_op = flat.iter().enumerate().position(|(i, f)| {
        f.ident() == Some("unsafe_op") && i > 0 && flat[i - 1].is_punct('.') && !f.in_defer
    });

    for (i, f) in flat.iter().enumerate() {
        if f.in_defer {
            continue;
        }
        let Some(name) = f.ident() else { continue };
        let prev_dot = i > 0 && flat[i - 1].is_punct('.');
        let next_bang = flat.get(i + 1).is_some_and(|n| n.is_punct('!'));
        let next_open = matches!(
            flat.get(i + 1).map(|n| &n.kind),
            Some(TokKind::Open(Delim::Paren))
        );
        let next_colon = flat.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && flat.get(i + 2).is_some_and(|n| n.is_punct(':'));
        let serialized = first_unsafe_op.is_some_and(|u| i > u);

        // --- R1: irrevocable effects -------------------------------------
        if !serialized {
            if IO_MACROS.contains(&name) && next_bang {
                out.push(finding(
                    Rule::IrrevocableEffect,
                    f.span,
                    format!(
                        "`{name}!` inside an atomic block is irrevocable; move it into \
                         ctx.defer(..) or serialize first with ctx.unsafe_op()?"
                    ),
                ));
            } else if ["write", "writeln"].contains(&name)
                && next_bang
                && args_contain(flat, i + 2, &["stdout", "stderr"])
            {
                out.push(finding(
                    Rule::IrrevocableEffect,
                    f.span,
                    format!("`{name}!` to a standard stream inside an atomic block is irrevocable"),
                ));
            } else if IO_CALLS.contains(&name) && next_open {
                out.push(finding(
                    Rule::IrrevocableEffect,
                    f.span,
                    format!(
                        "`{name}(..)` inside an atomic block is an irrevocable effect; \
                         defer it or serialize with ctx.unsafe_op()?"
                    ),
                ));
            } else if IO_PATH_HEADS.contains(&name) && next_colon {
                out.push(finding(
                    Rule::IrrevocableEffect,
                    f.span,
                    format!("`{name}::` filesystem access inside an atomic block is irrevocable"),
                ));
            } else if name == "exit"
                && i >= 3
                && flat[i - 1].is_punct(':')
                && flat[i - 2].is_punct(':')
                && flat[i - 3].ident() == Some("process")
            {
                out.push(finding(
                    Rule::IrrevocableEffect,
                    f.span,
                    "`process::exit` inside an atomic block tears down mid-transaction".into(),
                ));
            }
        }

        // --- R2: nested locks --------------------------------------------
        if prev_dot && name == "tx" && next_open {
            out.push(finding(
                Rule::NestedLock,
                f.span,
                "re-entrant `.tx(..)` request inside an atomic block: TLE cannot subsume \
                 inner critical sections (the x265 2PL bug); merge the sections or hand \
                 off via a ready flag"
                    .into(),
            ));
        } else if prev_dot && LOCK_METHODS.contains(&name) && next_open {
            out.push(finding(
                Rule::NestedLock,
                f.span,
                format!(
                    "`.{name}(..)` inside an atomic block acquires a second lock under \
                     speculation; an abort after acquisition violates two-phase locking"
                ),
            ));
        } else if prev_dot && ["read", "write"].contains(&name) && empty_args(flat, i + 1) {
            out.push(finding(
                Rule::NestedLock,
                f.span,
                format!(
                    "zero-argument `.{name}()` looks like an RwLock guard acquisition \
                     inside an atomic block (transactional access is `ctx.{name}(&cell, ..)`)"
                ),
            ));
        }

        // --- R3: escape hazards ------------------------------------------
        if prev_dot && ATOMIC_RMW.contains(&name) && next_open {
            out.push(finding(
                Rule::EscapeHazard,
                f.span,
                format!(
                    "atomic `.{name}(..)` inside an atomic block bypasses the TM read/write \
                     sets; it neither conflicts nor rolls back — use ctx accessors on a TCell"
                ),
            ));
        } else if prev_dot
            && ATOMIC_ORDERED.contains(&name)
            && next_open
            && args_contain(flat, i + 1, &ORDERINGS)
        {
            out.push(finding(
                Rule::EscapeHazard,
                f.span,
                format!(
                    "atomic `.{name}(Ordering::..)` inside an atomic block escapes the \
                     transaction; use ctx.read/ctx.write on a TCell"
                ),
            ));
        } else if DIRECT_CELL.contains(&name) && next_open {
            out.push(finding(
                Rule::EscapeHazard,
                f.span,
                format!(
                    "`{name}` inside an atomic block reads/writes around the transaction \
                     (no conflict detection, no rollback); use the ctx accessor instead"
                ),
            ));
        } else if ["read", "write", "read_volatile", "write_volatile"].contains(&name)
            && i >= 3
            && flat[i - 1].is_punct(':')
            && flat[i - 2].is_punct(':')
            && flat[i - 3].ident() == Some("ptr")
        {
            out.push(finding(
                Rule::EscapeHazard,
                f.span,
                format!("raw-pointer `ptr::{name}` inside an atomic block escapes the transaction"),
            ));
        }

        // --- R5: condvar misuse ------------------------------------------
        if name == "Condvar" {
            out.push(finding(
                Rule::CondvarMisuse,
                f.span,
                "OS `Condvar` inside an atomic block: the wait never commits the \
                 transaction (lost wakeups / deadlock); use TxCondvar via ctx.wait"
                    .into(),
            ));
        } else if PARK_CALLS.contains(&name) && next_open {
            out.push(finding(
                Rule::CondvarMisuse,
                f.span,
                format!(
                    "`{name}()` inside an atomic block parks while holding speculative \
                     state; use ctx.wait on a TxCondvar"
                ),
            ));
        } else if prev_dot && CONDVAR_METHODS.contains(&name) && next_open {
            out.push(finding(
                Rule::CondvarMisuse,
                f.span,
                format!(
                    "`.{name}(..)` is the OS condvar protocol; transactional code signals \
                     via ctx.signal/ctx.broadcast so aborted signallers wake no one"
                ),
            ));
        }

        // --- R6: suspension points ---------------------------------------
        if name == "await" && prev_dot {
            out.push(finding(
                Rule::AsyncInAtomic,
                f.span,
                "`.await` inside an atomic block: attempts must start and finish inside \
                 one poll \u{2014} suspending would hold speculative state across arbitrary \
                 scheduling delays; commit first, then await"
                    .into(),
            ));
        } else if name == "block_on" && next_open {
            out.push(finding(
                Rule::AsyncInAtomic,
                f.span,
                "`block_on(..)` inside an atomic block drives a future to completion while \
                 holding speculative state (and can deadlock the executor the section \
                 itself runs on); restructure so the async work happens outside the section"
                    .into(),
            ));
        } else if prev_dot && ASYNC_ENTRIES.contains(&name) && next_open {
            out.push(finding(
                Rule::AsyncInAtomic,
                f.span,
                format!(
                    "nested async section entry `.{name}(..)` inside an atomic block: the \
                     returned future cannot be awaited here (R6) and polling it inline \
                     re-enters the runtime (R2); restructure per paper \u{a7}V"
                ),
            ));
        }
    }

    // --- R4: TM_NoQuiesce on a privatizing body --------------------------
    let no_quiesce = flat.iter().enumerate().find(|(i, f)| {
        f.ident() == Some("no_quiesce") && *i > 0 && flat[i - 1].is_punct('.') && !f.in_defer
    });
    if let Some((_, nq)) = no_quiesce {
        let will_free = flat.iter().enumerate().any(|(i, f)| {
            f.ident() == Some("will_free_memory") && i > 0 && flat[i - 1].is_punct('.')
        });
        if !will_free {
            if let Some(marker) = privatization_marker(flat) {
                out.push(finding(
                    Rule::NoQuiescePrivatization,
                    nq.span,
                    format!(
                        "no_quiesce() asserted in a body that privatizes (`{}` at {}): \
                         doomed readers may still hold speculative references; remove the \
                         assertion or declare ctx.will_free_memory()",
                        marker.0, marker.1
                    ),
                ));
            }
        }
    }

    out
}

/// First privatization marker in a body: `drop(..)`, `..::from_raw(..)`,
/// `..::dealloc(..)`.
fn privatization_marker(flat: &[Flat]) -> Option<(String, Span)> {
    flat.iter().enumerate().find_map(|(i, f)| {
        let name = f.ident()?;
        if f.in_defer || !PRIVATIZE.contains(&name) {
            return None;
        }
        let next_open = matches!(
            flat.get(i + 1).map(|n| &n.kind),
            Some(TokKind::Open(Delim::Paren))
        );
        next_open.then(|| (name.to_owned(), f.span))
    })
}

fn finding(rule: Rule, span: Span, message: String) -> Finding {
    Finding::new(rule, span, message)
}

/// The hazards worth chasing *through a call* — the reduced rule set the
/// call-graph layer runs over every function body reachable from an atomic
/// block. R1/R5/R6 keep their local shapes; R2 keeps only the
/// unambiguous acquisition shapes (`.lock()`-family, re-entrant `.tx(..)`)
/// because the zero-argument
/// `.read()`/`.write()` guard heuristic is too weak a signal outside the
/// closure it was written for. R3/R4 stay local by design: the kernel
/// crates legitimately use raw atomics, and privatization is a property of
/// the section, not of a helper.
pub fn scan_reachable_hazards(flat: &[Flat]) -> Vec<Finding> {
    let mut out = Vec::new();
    let first_unsafe_op = flat.iter().enumerate().position(|(i, f)| {
        f.ident() == Some("unsafe_op") && i > 0 && flat[i - 1].is_punct('.') && !f.in_defer
    });
    for (i, f) in flat.iter().enumerate() {
        if f.in_defer {
            continue;
        }
        let Some(name) = f.ident() else { continue };
        let prev_dot = i > 0 && flat[i - 1].is_punct('.');
        let next_bang = flat.get(i + 1).is_some_and(|n| n.is_punct('!'));
        let next_open = matches!(
            flat.get(i + 1).map(|n| &n.kind),
            Some(TokKind::Open(Delim::Paren))
        );
        let next_colon = flat.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && flat.get(i + 2).is_some_and(|n| n.is_punct(':'));
        let serialized = first_unsafe_op.is_some_and(|u| i > u);

        // R1 — same irrevocable-effect shapes as the local rule.
        if !serialized
            && ((IO_MACROS.contains(&name) && next_bang)
                || (IO_CALLS.contains(&name) && next_open)
                || (IO_PATH_HEADS.contains(&name) && next_colon))
        {
            out.push(finding(
                Rule::IrrevocableEffect,
                f.span,
                format!("irrevocable effect `{name}`"),
            ));
        }
        // R2 — unambiguous acquisitions only.
        if prev_dot && next_open {
            if LOCK_METHODS.contains(&name) {
                out.push(finding(
                    Rule::NestedLock,
                    f.span,
                    format!("lock acquisition `.{name}(..)`"),
                ));
            } else if name == "tx" {
                out.push(finding(
                    Rule::NestedLock,
                    f.span,
                    format!("atomic-section entry `.{name}(..)`"),
                ));
            }
        }
        // R5 — OS blocking primitives.
        if name == "Condvar"
            || (PARK_CALLS.contains(&name) && next_open)
            || (prev_dot && CONDVAR_METHODS.contains(&name) && next_open)
        {
            out.push(finding(
                Rule::CondvarMisuse,
                f.span,
                format!("OS blocking primitive `{name}`"),
            ));
        }
        // R6 — suspension points.
        if (name == "await" && prev_dot) || (name == "block_on" && next_open) {
            out.push(finding(
                Rule::AsyncInAtomic,
                f.span,
                format!("suspension point `{name}`"),
            ));
        }
    }
    out
}

/// Does the argument group opening at `open_idx` contain one of `names` at
/// any depth?
fn args_contain(flat: &[Flat], open_idx: usize, names: &[&str]) -> bool {
    let Some(open) = flat.get(open_idx) else {
        return false;
    };
    if !matches!(open.kind, TokKind::Open(_)) {
        return false;
    }
    let mut depth = 0i32;
    for f in &flat[open_idx..] {
        match f.kind {
            TokKind::Open(_) => depth += 1,
            TokKind::Close(_) => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            TokKind::Ident(ref s) if names.contains(&s.as_str()) => return true,
            _ => {}
        }
    }
    false
}

/// Is the group opening at `open_idx` an empty `()`?
fn empty_args(flat: &[Flat], open_idx: usize) -> bool {
    matches!(
        flat.get(open_idx).map(|f| &f.kind),
        Some(TokKind::Open(Delim::Paren))
    ) && matches!(
        flat.get(open_idx + 1).map(|f| &f.kind),
        Some(TokKind::Close(Delim::Paren))
    )
}
