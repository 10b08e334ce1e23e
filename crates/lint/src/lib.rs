//! `tle-lint`: a transaction-safety static analyzer for TLE atomic blocks.
//!
//! The paper's porting war stories (condition variables under elision,
//! the x265 two-phase-locking violation, TM-unsafe I/O, `TM_NoQuiesce`
//! privatization races) are all *source-visible* misuse patterns. This
//! crate finds them before the torture harness has to: it lexes the
//! workspace's Rust sources with an in-tree lexer (no `syn` — the
//! workspace builds offline), matches delimiters into token trees, locates
//! every `tx(&lock).run*(..)` atomic block, and runs token-shape rules over
//! each closure body.
//!
//! | id | slug | paper hazard |
//! |----|------|--------------|
//! | R1 | `irrevocable-effect` | §VI: I/O or sleep inside the speculative body |
//! | R2 | `nested-lock` | §V: second lock / re-entrant atomic block (x265 bug) |
//! | R3 | `escape-hazard` | direct atomics / raw pointers bypassing the ctx |
//! | R4 | `noquiesce-privatization` | §IV-B: no-quiesce + privatizing body |
//! | R5 | `condvar-misuse` | §III: OS condvar/park instead of `TxCondvar` |
//! | R6 | `async-in-atomic` | `.await`/`block_on`/nested async entry inside an atomic block |
//! | R7 | `lock-order` | §V: cycle in the static lock-acquisition graph (workspace-level) |
//! | R8 | `ordering-audit` | §IV-B: `Relaxed` access on a published atomic (workspace-level) |
//!
//! Since PR 10 the engine is workspace-scoped, not per-file: a symbol
//! table ([`symbols`]) indexes every `fn`, the call graph ([`callgraph`])
//! re-runs R1/R2/R5/R6 *transitively* through resolvable calls out of
//! atomic blocks, R7 ([`lockorder`]) detects acquisition-order cycles
//! across files, and R8 ([`ordering`]) audits relaxed atomics against the
//! publication pairs the rest of the crate establishes. Findings carry
//! `related` spans (the far end of a call chain, the opposite edge of a
//! cycle), and [`sarif`] renders the whole report as SARIF 2.1.0.
//!
//! Findings are suppressed with a reviewed, reasoned directive:
//!
//! ```text
//! // tle-lint: allow(R2, "deliberate nested-section panic test")
//! ```
//!
//! A directive without a reason is itself an error (`A1`); a directive
//! that no longer matches anything is stale (`A2`, enforced under
//! `--deny-stale`). The `tle lint` command (`src/bin/tle/lint.rs` at the
//! workspace root) wires this into CI with `--deny --deny-stale`.

pub mod callgraph;
pub mod extract;
pub mod lexer;
pub mod lockorder;
pub mod ordering;
pub mod report;
pub mod rules;
pub mod sarif;
pub mod scan;
pub mod suppress;
pub mod symbols;
pub mod tree;

pub use report::render_human;
pub use rules::{Finding, Related, Rule, LINT_RULES};
pub use sarif::render_sarif;
pub use scan::{
    collect_rs_files, lint_paths, lint_source, lint_sources, FileReport, Report, WorkspaceStats,
};
