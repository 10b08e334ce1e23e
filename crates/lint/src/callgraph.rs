//! The intra-workspace call graph, and transitive rule propagation over
//! it.
//!
//! PR 5's engine inspected only the literal closure body of each atomic
//! block, so `tx(&l).run(|ctx| helper())` where `helper` does I/O, takes a
//! second lock, parks on an OS condvar or awaits passed clean. This layer
//! closes that hole: it resolves simple intra-crate calls out of each
//! block body, walks the reachable function bodies (bounded depth,
//! cycle-safe), and re-runs the reduced rule set
//! ([`crate::rules::scan_reachable_hazards`]) over every body it can
//! reach. Each finding reports the full call chain with spans at both
//! ends.
//!
//! ## Resolution rules (and their honest limits)
//!
//! Three call shapes resolve, all by name against the workspace
//! [`SymbolTable`]:
//!
//! 1. **Direct calls** `helper(..)` — same-file definition first, else a
//!    workspace-unique definition.
//! 2. **Path calls** `self::helper(..)`, `crate::mod::helper(..)` — the
//!    last segment resolves as above; paths headed by `std`/`core`/
//!    `alloc` are external and skipped (their hazards are already local
//!    rule shapes: `fs::`, `sleep(`, ...).
//! 3. **Method calls** `x.helper(..)` — only when the name has exactly
//!    one definition in the whole workspace and is not a common std
//!    method name (the analyzer has no type system; a unique local name
//!    is the strongest receiver-type evidence available). Calls on the
//!    block's ctx parameter are the sanctioned TM API and never edges.
//!
//! Anything else — trait dispatch, closures passed as values, macro
//! indirection, shadowed std names — stays unresolved. The miss direction
//! is false negatives, which is the right polarity for a linter that
//! gates CI.

use crate::extract::Flat;
use crate::lexer::{Delim, Span, TokKind};
use crate::rules::{scan_reachable_hazards, Finding, Related, Rule};
use crate::symbols::SymbolTable;
use std::collections::HashSet;
use std::path::PathBuf;

/// Maximum call-chain depth walked from an atomic block. Deep enough for
/// any real helper stack; bounds pathological (or adversarial) inputs.
pub const MAX_DEPTH: usize = 8;

/// Method names that never form call-graph edges: they are either the
/// hazard surface itself (flagged directly where they appear) or std
/// methods so common that a workspace-unique `fn` of the same name is
/// coincidence, not a receiver.
const METHOD_EDGE_DENYLIST: [&str; 33] = [
    // hazard / TM surface (flagged in place, not descended into)
    "run",
    "try_run",
    "run_async",
    "try_run_async",
    "tx",
    "lock",
    "try_lock",
    "raw_lock",
    "defer",
    "unsafe_op",
    "wait",
    "signal",
    "broadcast",
    // std-shadow names (no type system: unique-name evidence is too weak)
    "new",
    "clone",
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "iter",
    "next",
    "read",
    "write",
    "load",
    "store",
    "swap",
    "take",
    "set",
    "send",
    "recv",
];

/// External path heads whose callees are never indexed.
const EXTERNAL_HEADS: [&str; 4] = ["std", "core", "alloc", "parking_lot"];

/// One call reference found in a flat body.
#[derive(Debug, Clone)]
pub struct CallRef {
    /// Callee name (last path segment / method name).
    pub name: String,
    /// Span of the name token.
    pub span: Span,
    /// Position of the name token in the flat body (the R1 serialization
    /// cutoff needs token order, not just spans).
    pub idx: usize,
}

/// Every resolvable-shaped call in `flat`. `ctx` is the atomic block's
/// context parameter (calls on it are the TM API, not edges); pass `None`
/// for plain function bodies.
pub fn calls_in(flat: &[Flat], ctx: Option<&str>) -> Vec<CallRef> {
    let mut out = Vec::new();
    for (i, f) in flat.iter().enumerate() {
        if f.in_defer {
            continue;
        }
        let Some(name) = f.ident() else { continue };
        let next_open = matches!(
            flat.get(i + 1).map(|n| &n.kind),
            Some(TokKind::Open(Delim::Paren))
        );
        if !next_open {
            continue;
        }
        // `fn name(..)` is a definition, not a call.
        if i > 0 && flat[i - 1].ident() == Some("fn") {
            continue;
        }
        let prev_dot = i > 0 && flat[i - 1].is_punct('.');
        let prev_path = i >= 2 && flat[i - 1].is_punct(':') && flat[i - 2].is_punct(':');
        if prev_dot {
            // Method call: receiver must not be the ctx parameter, and the
            // name must not be denylisted. (Uniqueness is enforced at
            // resolution time.)
            if METHOD_EDGE_DENYLIST.contains(&name) {
                continue;
            }
            let receiver = i.checked_sub(2).and_then(|r| flat[r].ident());
            if ctx.is_some() && receiver == ctx {
                continue;
            }
        } else if prev_path {
            // Path call: skip externals by walking to the head segment.
            if path_head(flat, i).is_some_and(|h| EXTERNAL_HEADS.contains(&h)) {
                continue;
            }
        }
        out.push(CallRef {
            name: name.to_owned(),
            span: f.span,
            idx: i,
        });
    }
    out
}

/// The first segment of the `a::b::name` path ending at `idx`.
fn path_head(flat: &[Flat], idx: usize) -> Option<&str> {
    let mut seg = idx;
    while seg >= 2 && flat[seg - 1].is_punct(':') && flat[seg - 2].is_punct(':') {
        // Generic turbofish (`Vec::<u8>::new`) and `<T as Trait>::` shapes
        // don't occur with the simple heads we care about; stop at the
        // first non-ident.
        match seg.checked_sub(3).and_then(|p| flat[p].ident()) {
            Some(_) => seg -= 3,
            None => break,
        }
    }
    flat[seg].ident()
}

/// A hazard reached through one or more calls: the finding anchors at the
/// *first* call token inside the atomic block, and the related spans walk
/// the chain to the hazard token.
pub fn propagate(
    site_body: &[Flat],
    ctx: Option<&str>,
    from_file: usize,
    symbols: &SymbolTable,
    paths: &[PathBuf],
) -> Vec<Finding> {
    // R1 serialization: calls after a `.unsafe_op()` in the block body run
    // serial-irrevocably, so irrevocable effects below them are sanctioned.
    let first_unsafe_op = site_body.iter().enumerate().position(|(i, f)| {
        f.ident() == Some("unsafe_op") && i > 0 && site_body[i - 1].is_punct('.') && !f.in_defer
    });

    let mut out = Vec::new();
    let mut reported: HashSet<(Rule, Span, Span)> = HashSet::new();
    for call in calls_in(site_body, ctx) {
        let Some(fn_idx) = symbols.resolve(&call.name, from_file) else {
            continue;
        };
        let serialized = first_unsafe_op.is_some_and(|u| call.idx > u);
        // Depth-first walk with an explicit chain; cycle-safe via the
        // visited set (per origin call, so sibling calls each get their
        // own full chain).
        let mut visited: HashSet<usize> = HashSet::new();
        let mut stack = vec![(fn_idx, vec![(call.name.clone(), call.span, from_file)])];
        visited.insert(fn_idx);
        while let Some((cur, chain)) = stack.pop() {
            let def = &symbols.fns[cur];
            for hazard in scan_reachable_hazards(&def.body) {
                if serialized && hazard.rule == Rule::IrrevocableEffect {
                    continue;
                }
                if !reported.insert((hazard.rule, call.span, hazard.span)) {
                    continue;
                }
                let chain_txt: Vec<&str> = chain.iter().map(|(n, _, _)| n.as_str()).collect();
                let mut f = Finding::new(
                    hazard.rule,
                    call.span,
                    format!(
                        "{} reached through the call chain `block -> {}`: {} (R{} applies \
                         transitively; the closure body alone looks clean)",
                        hazard.message,
                        chain_txt.join(" -> "),
                        hazard.rule.hazard(),
                        rule_number(hazard.rule),
                    ),
                );
                f.related.push(Related {
                    path: paths[def.file].clone(),
                    span: hazard.span,
                    note: format!("{} inside `{}`", hazard.message, def.name),
                });
                for (name, span, file) in chain.iter().skip(1) {
                    f.related.push(Related {
                        path: paths[*file].clone(),
                        span: *span,
                        note: format!("via call to `{name}`"),
                    });
                }
                out.push(f);
            }
            if chain.len() >= MAX_DEPTH {
                continue;
            }
            for next in calls_in(&def.body, None) {
                if let Some(next_idx) = symbols.resolve(&next.name, def.file) {
                    if visited.insert(next_idx) {
                        let mut chain = chain.clone();
                        chain.push((next.name.clone(), next.span, def.file));
                        stack.push((next_idx, chain));
                    }
                }
            }
        }
    }
    out
}

fn rule_number(rule: Rule) -> u32 {
    match rule {
        Rule::IrrevocableEffect => 1,
        Rule::NestedLock => 2,
        Rule::EscapeHazard => 3,
        Rule::NoQuiescePrivatization => 4,
        Rule::CondvarMisuse => 5,
        Rule::AsyncInAtomic => 6,
        Rule::LockOrder => 7,
        Rule::OrderingAudit => 8,
        _ => 0,
    }
}

/// Count of resolvable call edges out of `flat` — workspace statistics for
/// the self-scan report.
pub fn resolved_edges(
    flat: &[Flat],
    ctx: Option<&str>,
    file: usize,
    symbols: &SymbolTable,
) -> usize {
    calls_in(flat, ctx)
        .iter()
        .filter(|c| symbols.resolve(&c.name, file).is_some())
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::find_sites;
    use crate::lexer::lex;
    use crate::tree::parse;

    fn setup(src: &str) -> (SymbolTable, Vec<crate::extract::Site>) {
        let forest = parse(lex(src).unwrap().0).unwrap();
        let mut t = SymbolTable::default();
        t.index_file(0, &forest);
        (t, find_sites(&forest))
    }

    fn run(src: &str) -> Vec<Finding> {
        let (t, sites) = setup(src);
        let paths = vec![PathBuf::from("t.rs")];
        sites
            .iter()
            .flat_map(|s| propagate(&s.body, s.ctx.as_deref(), 0, &t, &paths))
            .collect()
    }

    #[test]
    fn hazard_through_one_helper_is_found_with_chain() {
        let found = run("fn log_it(v: u64) { println!(\"{v}\"); }\n\
             fn f(th: &T, l: &L) { th.tx(l).run(|ctx| { log_it(1); Ok(()) }); }");
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::IrrevocableEffect);
        assert!(found[0].message.contains("block -> log_it"));
        // Anchored at the call inside the block; hazard span at the far end.
        assert_eq!(found[0].span.line, 2);
        assert_eq!(found[0].related[0].span.line, 1);
    }

    #[test]
    fn two_hop_chain_and_cycle_safety() {
        let found = run("fn a() { b(); }\n\
             fn b() { a(); std::thread::sleep(d); }\n\
             fn f(th: &T, l: &L) { th.tx(l).run(|ctx| { a(); Ok(()) }); }");
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("block -> a -> b"));
    }

    #[test]
    fn ctx_calls_and_defer_args_are_not_edges() {
        let found = run("fn helper() { println!(\"x\"); }\n\
             fn f(th: &T, l: &L) { th.tx(l).run(|ctx| { \
             ctx.defer(move || helper()); ctx.write(&c, 1) }); }");
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn unsafe_op_serializes_later_transitive_r1() {
        let found = run("fn helper() { println!(\"x\"); }\n\
             fn f(th: &T, l: &L) { th.tx(l).run(|ctx| { \
             ctx.unsafe_op()?; helper(); Ok(()) }); }");
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn transitive_nested_lock_is_found() {
        let found = run("fn push_side(s: &S) { s.side.lock().push(1); }\n\
             fn f(th: &T, l: &L) { th.tx(l).run(|ctx| { push_side(s); Ok(()) }); }");
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::NestedLock);
    }

    #[test]
    fn ambiguous_method_names_do_not_resolve() {
        let found = run("fn process(x: u32) { println!(\"{x}\"); }\n\
             fn g() { fn process(y: u32) { y; } }\n\
             fn f(th: &T, l: &L) { th.tx(l).run(|ctx| { q.process(1); Ok(()) }); }");
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn unique_method_name_resolves() {
        let found = run(
            "fn flush_row(r: &R) { r.file.write_all(b\"x\"); std::thread::sleep(d); }\n\
             fn f(th: &T, l: &L) { th.tx(l).run(|ctx| { row.flush_row(); Ok(()) }); }",
        );
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::IrrevocableEffect);
    }

    #[test]
    fn std_paths_and_denylisted_methods_are_skipped() {
        let (t, _) = setup("fn get() { println!(\"shadow\"); }");
        let flat_src = "fn f(th: &T, l: &L) { th.tx(l).run(|ctx| { \
                        m.get(1); std::mem::drop(x); Ok(()) }); }";
        let forest = parse(lex(flat_src).unwrap().0).unwrap();
        let sites = find_sites(&forest);
        let paths = vec![PathBuf::from("a.rs"), PathBuf::from("b.rs")];
        let found = propagate(&sites[0].body, sites[0].ctx.as_deref(), 1, &t, &paths);
        assert!(found.is_empty(), "{found:?}");
    }
}
