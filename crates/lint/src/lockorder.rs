//! R7 `lock-order`: static detection of lock-acquisition cycles.
//!
//! The x265 experience in the paper (§V) is the motivating bug: two code
//! paths took the same pair of locks in opposite orders, and the 2PL
//! fallback deadlocked where single-global-lock TLE had silently
//! serialized. The hazard is invisible to per-block rules — each block is
//! individually fine — so this analysis is workspace-level: it builds a
//! directed graph of "lock A is held while lock B is acquired" edges and
//! reports every edge that participates in a cycle.
//!
//! ## Lock identity
//!
//! Nodes are keyed by the *name string* passed to `ElidableMutex::new`
//! ("name1" in `ElidableMutex::new("name1")`), harvested from let
//! bindings, `Arc::new(..)` wrappers, struct-field initializers and
//! statics. A lock expression that can't be traced to a harvested name
//! keys as `?ident` (the last path segment of the expression) — distinct
//! unresolved idents stay distinct, which can only under-report cycles,
//! never invent them across unrelated locks that share no name.
//!
//! ## Edges
//!
//! While inside the body of an atomic block on lock A, an edge A → B is
//! recorded for: a nested `.tx(&B)..` block, a
//! bare `.lock()`/`.try_lock()`/`.raw_lock()` on B, and any of those
//! reached through resolvable calls (the [`crate::callgraph`] walk).
//! `.defer(..)` bodies run post-unlock and contribute nothing.
//! Self-edges are ignored: re-entrant acquisition is R2's diagnosis, and
//! a one-lock "cycle" is not an ordering bug.

use crate::callgraph::{calls_in, MAX_DEPTH};
use crate::extract::{Flat, Site};
use crate::lexer::{Delim, Span, TokKind};
use crate::rules::{Finding, Related, Rule};
use crate::symbols::SymbolTable;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;

/// Binding-ident → lock-name table, harvested across the workspace.
/// `None` marks an ident bound to *different* lock names in different
/// places — ambiguous, so expressions through it key as unresolved.
#[derive(Debug, Default)]
pub struct LockNames {
    map: HashMap<String, Option<String>>,
}

/// Wrapper constructors that may sit between a binding and the
/// `ElidableMutex::new(..)` call.
const WRAPPERS: [&str; 3] = ["Arc", "Box", "Rc"];

impl LockNames {
    /// Harvest every `ElidableMutex::new("name")` in a flattened file and
    /// trace each back to its binding identifier.
    pub fn harvest(&mut self, flat: &[Flat]) {
        for (i, f) in flat.iter().enumerate() {
            if f.ident() != Some("ElidableMutex") {
                continue;
            }
            // Forward shape: `ElidableMutex :: new ( "name" ...`.
            let is_new = flat.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && flat.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && flat.get(i + 3).and_then(|t| t.ident()) == Some("new")
                && matches!(
                    flat.get(i + 4).map(|t| &t.kind),
                    Some(TokKind::Open(Delim::Paren))
                );
            if !is_new {
                continue;
            }
            let Some(name) = flat.get(i + 5).and_then(|t| t.str_payload()) else {
                continue;
            };
            if let Some(binding) = binding_before(flat, i) {
                match self.map.get(binding) {
                    Some(Some(prev)) if prev != name => {
                        self.map.insert(binding.to_owned(), None);
                    }
                    Some(_) => {}
                    None => {
                        self.map.insert(binding.to_owned(), Some(name.to_owned()));
                    }
                }
            }
        }
    }

    /// Number of binding identifiers traced to a lock name (ambiguous
    /// entries included — they were harvested, just unusable).
    pub fn known(&self) -> usize {
        self.map.len()
    }

    /// The graph key for a flattened lock expression (`&self.shard[i]`,
    /// `&queue_lock`, ...): the harvested name of the last top-level
    /// identifier, else `?ident`.
    pub fn key_for(&self, lock_expr: &[Flat]) -> Option<String> {
        let mut depth = 0usize;
        let mut last: Option<&str> = None;
        for f in lock_expr {
            match &f.kind {
                TokKind::Open(Delim::Bracket) | TokKind::Open(Delim::Paren) => depth += 1,
                TokKind::Close(Delim::Bracket) | TokKind::Close(Delim::Paren) => {
                    depth = depth.saturating_sub(1);
                }
                TokKind::Ident(id) if depth == 0 && id != "self" => last = Some(id),
                _ => {}
            }
        }
        let ident = last?;
        Some(match self.map.get(ident) {
            Some(Some(name)) => name.clone(),
            _ => format!("?{ident}"),
        })
    }
}

/// Walk backward from the `ElidableMutex` token to the identifier it is
/// being bound to: `let NAME = ..`, `let NAME: Ty = ..`,
/// `static NAME: Ty = ..`, `NAME: Arc::new(..)` field init.
fn binding_before(flat: &[Flat], idx: usize) -> Option<&str> {
    let window = idx.saturating_sub(16);
    for k in (window..idx).rev() {
        let f = &flat[k];
        if f.is_punct('=') {
            // `let`/`static` declaration: the binding is the ident right
            // after the keyword (skipping `mut`).
            for j in (window.saturating_sub(8)..k).rev() {
                if matches!(flat[j].ident(), Some("let") | Some("static")) {
                    return flat[j + 1..k]
                        .iter()
                        .find_map(|t| t.ident().filter(|&i| i != "mut"));
                }
            }
            return None;
        }
        // A single `:` (not `::`) is a struct-field initializer.
        if f.is_punct(':')
            && !flat.get(k + 1).is_some_and(|t| t.is_punct(':'))
            && k > 0
            && !flat[k - 1].is_punct(':')
        {
            return flat[k - 1].ident();
        }
        // Wrapper-constructor tokens are transparent; anything else that
        // isn't part of the binding shape ends the search.
        let transparent = matches!(&f.kind, TokKind::Open(Delim::Paren))
            || f.is_punct(':')
            || f.ident()
                .is_some_and(|i| i == "new" || WRAPPERS.contains(&i));
        if !transparent {
            return None;
        }
    }
    None
}

/// One "outer lock held while inner lock acquired" edge.
#[derive(Debug)]
pub struct Edge {
    pub from: String,
    pub to: String,
    /// File of the outer atomic block — the finding anchors here.
    pub file: usize,
    /// Anchor span: the inner acquisition for direct nesting, the
    /// originating call token for edges through the call graph.
    pub span: Span,
    /// Span of the outer block's method token.
    pub site_span: Span,
    /// Extra locations: the actual inner acquisition when it lives in a
    /// callee body.
    pub inner: Option<(usize, Span, String)>,
}

/// Inner lock acquisitions in a flat body: `(key, span)` pairs.
fn acquisitions_in(flat: &[Flat], names: &LockNames) -> Vec<(String, Span)> {
    let mut out = Vec::new();
    for (i, f) in flat.iter().enumerate() {
        if f.in_defer {
            continue;
        }
        let Some(m) = f.ident() else { continue };
        let prev_dot = i > 0 && flat[i - 1].is_punct('.');
        let next_open = matches!(
            flat.get(i + 1).map(|n| &n.kind),
            Some(TokKind::Open(Delim::Paren))
        );
        if !prev_dot || !next_open {
            continue;
        }
        if m == "tx" {
            // Key is the argument: tokens after the open paren up to the
            // matching close.
            let mut depth = 0usize;
            let mut arg = Vec::new();
            for t in &flat[i + 2..] {
                match &t.kind {
                    TokKind::Open(_) => depth += 1,
                    TokKind::Close(_) if depth == 0 => break,
                    TokKind::Close(_) => depth -= 1,
                    _ => {}
                }
                arg.push(t.clone());
            }
            if let Some(key) = names.key_for(&arg) {
                out.push((key, f.span));
            }
        } else if matches!(m, "lock" | "try_lock" | "raw_lock") {
            // Receiver: the ident before the dot, skipping one trailing
            // index group (`self.shard[i].lock()`).
            let mut r = i - 1; // at '.'
            if r > 0 && matches!(flat[r - 1].kind, TokKind::Close(Delim::Bracket)) {
                let mut depth = 0usize;
                while r > 0 {
                    r -= 1;
                    match &flat[r].kind {
                        TokKind::Close(Delim::Bracket) => depth += 1,
                        TokKind::Open(Delim::Bracket) => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                }
            }
            if let Some(recv) = r.checked_sub(1).and_then(|p| flat[p].ident()) {
                if recv != "self" {
                    if let Some(key) = names.key_for(&[flat[r - 1].clone()]) {
                        out.push((key, f.span));
                    }
                }
            }
        }
    }
    out
}

/// All edges out of one atomic block: direct nested acquisitions plus
/// acquisitions in reachable callee bodies.
pub fn edges_for_site(
    site: &Site,
    file: usize,
    names: &LockNames,
    symbols: &SymbolTable,
) -> Vec<Edge> {
    let Some(from) = names.key_for(&site.lock) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (to, span) in acquisitions_in(&site.body, names) {
        if to != from {
            out.push(Edge {
                from: from.clone(),
                to,
                file,
                span,
                site_span: site.span,
                inner: None,
            });
        }
    }
    // Through the call graph: each resolvable call out of the body opens
    // its own bounded walk.
    for call in calls_in(&site.body, site.ctx.as_deref()) {
        let Some(fn_idx) = symbols.resolve(&call.name, file) else {
            continue;
        };
        let mut visited = HashSet::from([fn_idx]);
        let mut stack = vec![(fn_idx, 1usize)];
        while let Some((cur, depth)) = stack.pop() {
            let def = &symbols.fns[cur];
            for (to, span) in acquisitions_in(&def.body, names) {
                if to != from {
                    out.push(Edge {
                        from: from.clone(),
                        to,
                        file,
                        span: call.span,
                        site_span: site.span,
                        inner: Some((
                            def.file,
                            span,
                            format!("inner acquisition inside `{}`", def.name),
                        )),
                    });
                }
            }
            if depth >= MAX_DEPTH {
                continue;
            }
            for next in calls_in(&def.body, None) {
                if let Some(ni) = symbols.resolve(&next.name, def.file) {
                    if visited.insert(ni) {
                        stack.push((ni, depth + 1));
                    }
                }
            }
        }
    }
    out
}

/// Detect cycles in the acquisition graph and produce one R7 finding per
/// cycle-participating `(from, to)` pair, routed to the outer block's
/// file.
pub fn find_cycles(edges: &[Edge], paths: &[PathBuf]) -> Vec<(usize, Finding)> {
    // Build the key graph.
    let mut names: Vec<String> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut adj: Vec<Vec<usize>> = Vec::new();
    let node = |k: &str,
                names: &mut Vec<String>,
                index: &mut HashMap<String, usize>,
                adj: &mut Vec<Vec<usize>>| {
        *index.entry(k.to_owned()).or_insert_with(|| {
            names.push(k.to_owned());
            adj.push(Vec::new());
            names.len() - 1
        })
    };
    let mut pairs: HashSet<(usize, usize)> = HashSet::new();
    for e in edges {
        let a = node(&e.from, &mut names, &mut index, &mut adj);
        let b = node(&e.to, &mut names, &mut index, &mut adj);
        if pairs.insert((a, b)) {
            adj[a].push(b);
        }
    }

    let scc = tarjan(&adj);
    // Cycle-participating edge: both endpoints in the same SCC of size ≥ 2.
    let mut scc_size = vec![0usize; names.len()];
    for &c in &scc {
        scc_size[c] += 1;
    }
    let mut reported: HashSet<(usize, usize)> = HashSet::new();
    let mut out = Vec::new();
    for e in edges {
        let a = index[&e.from];
        let b = index[&e.to];
        if scc[a] != scc[b] || scc_size[scc[a]] < 2 || !reported.insert((a, b)) {
            continue;
        }
        let members: Vec<&str> = names
            .iter()
            .enumerate()
            .filter(|&(i, _)| scc[i] == scc[a])
            .map(|(_, n)| n.as_str())
            .collect();
        let mut f = Finding::new(
            Rule::LockOrder,
            e.span,
            format!(
                "lock `{}` is acquired while `{}` is held, and the opposite order is \
                 reachable elsewhere — static lock-order cycle among {{{}}}; under the 2PL \
                 fallback this is the x265 deadlock shape (single-lock elision hid it)",
                e.to,
                e.from,
                members.join(", "),
            ),
        );
        f.related.push(Related {
            path: paths[e.file].clone(),
            span: e.site_span,
            note: format!("outer block on `{}` entered here", e.from),
        });
        if let Some((file, span, note)) = &e.inner {
            f.related.push(Related {
                path: paths[*file].clone(),
                span: *span,
                note: note.clone(),
            });
        }
        out.push((e.file, f));
    }
    out
}

/// Tarjan strongly-connected components; returns the component id of each
/// node. Iterative to keep pathological inputs off the call stack.
fn tarjan(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comp = vec![usize::MAX; n];
    let mut next_index = 0usize;
    let mut next_comp = 0usize;

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        // Explicit DFS frame: (node, next child position).
        let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&(v, child)) = frames.last() {
            if child == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(child) {
                frames.last_mut().expect("frame present").1 += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp[w] = next_comp;
                        if w == v {
                            break;
                        }
                    }
                    next_comp += 1;
                }
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p] = low[p].min(low[v]);
                }
            }
        }
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{find_sites, flatten_trees};
    use crate::lexer::lex;
    use crate::tree::parse;

    fn analyze(src: &str) -> Vec<(usize, Finding)> {
        let forest = parse(lex(src).unwrap().0).unwrap();
        let flat = flatten_trees(&forest);
        let mut names = LockNames::default();
        names.harvest(&flat);
        let mut symbols = SymbolTable::default();
        symbols.index_file(0, &forest);
        let edges: Vec<Edge> = find_sites(&forest)
            .iter()
            .flat_map(|s| edges_for_site(s, 0, &names, &symbols))
            .collect();
        find_cycles(&edges, &[PathBuf::from("t.rs")])
    }

    #[test]
    fn harvest_traces_bindings_through_all_shapes() {
        let src = "let queue_lock = ElidableMutex::new(\"queue\");\n\
                   let shared = Arc::new(ElidableMutex::new(\"shared\"));\n\
                   static GLOBAL: ElidableMutex<u64> = ElidableMutex::new(\"global\");\n\
                   fn mk() -> S { S { shard: ElidableMutex::new(\"shard0\") } }";
        let flat = flatten_trees(&parse(lex(src).unwrap().0).unwrap());
        let mut names = LockNames::default();
        names.harvest(&flat);
        let key = |expr: &str| {
            let f = flatten_trees(&parse(lex(expr).unwrap().0).unwrap());
            names.key_for(&f).unwrap()
        };
        assert_eq!(key("&queue_lock"), "queue");
        assert_eq!(key("&shared"), "shared");
        assert_eq!(key("&GLOBAL"), "global");
        assert_eq!(key("&self.shard[i]"), "shard0");
        assert_eq!(key("&mystery"), "?mystery");
    }

    #[test]
    fn opposite_order_blocks_form_a_reported_cycle() {
        let found = analyze(
            "let a = ElidableMutex::new(\"a\"); let b = ElidableMutex::new(\"b\");\n\
             fn f(th: &T) { th.tx(&a).run(|ctx| { th.tx(&b).run(|c2| { Ok(()) }) }); }\n\
             fn g(th: &T) { th.tx(&b).run(|ctx| { th.tx(&a).run(|c2| { Ok(()) }) }); }",
        );
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].1.message.contains("lock-order cycle"));
    }

    #[test]
    fn consistent_order_is_clean_and_self_nesting_is_not_a_cycle() {
        let found = analyze(
            "let a = ElidableMutex::new(\"a\"); let b = ElidableMutex::new(\"b\");\n\
             fn f(th: &T) { th.tx(&a).run(|ctx| { th.tx(&b).run(|c2| { Ok(()) }) }); }\n\
             fn g(th: &T) { th.tx(&a).run(|ctx| { th.tx(&a).run(|c2| { Ok(()) }) }); }",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn cycle_through_helper_function_is_found() {
        let found = analyze(
            "let a = ElidableMutex::new(\"a\"); let b = ElidableMutex::new(\"b\");\n\
             fn take_b(th: &T) { th.tx(&b).run(|c2| { Ok(()) }); }\n\
             fn f(th: &T) { th.tx(&a).run(|ctx| { take_b(th); Ok(()) }); }\n\
             fn g(th: &T) { th.tx(&b).run(|ctx| { th.tx(&a).run(|c2| { Ok(()) }) }); }",
        );
        assert_eq!(found.len(), 2, "{found:?}");
        let through_helper = found
            .iter()
            .find(|(_, f)| f.related.iter().any(|r| r.note.contains("take_b")))
            .expect("edge through helper carries its inner span");
        assert_eq!(through_helper.1.rule, Rule::LockOrder);
    }

    #[test]
    fn plain_lock_calls_key_into_the_graph() {
        let found = analyze(
            "let a = ElidableMutex::new(\"a\");\n\
             fn f(th: &T) { th.tx(&a).run(|ctx| { side.lock(); Ok(()) }); }\n\
             fn g(th: &T) { side.lock(); th.tx(&a).run(|c| { Ok(()) }); }",
        );
        // `side` alone nests under `a`; no opposite edge exists (the bare
        // `side.lock()` outside any block carries no held-lock context).
        assert!(found.is_empty(), "{found:?}");
        let found = analyze(
            "let a = ElidableMutex::new(\"a\"); let s2 = ElidableMutex::new(\"s2\");\n\
             fn f(th: &T) { th.tx(&a).run(|ctx| { s2.lock(); Ok(()) }); }\n\
             fn g(th: &T) { th.tx(&s2).run(|ctx| { th.tx(&a).run(|c| { Ok(()) }) }); }",
        );
        assert_eq!(found.len(), 2, "{found:?}");
    }

    #[test]
    fn three_lock_rotation_reports_every_edge() {
        let found = analyze(
            "let a = ElidableMutex::new(\"a\"); let b = ElidableMutex::new(\"b\"); \
             let c = ElidableMutex::new(\"c\");\n\
             fn f(th: &T) { th.tx(&a).run(|x| { th.tx(&b).run(|y| { Ok(()) }) }); }\n\
             fn g(th: &T) { th.tx(&b).run(|x| { th.tx(&c).run(|y| { Ok(()) }) }); }\n\
             fn h(th: &T) { th.tx(&c).run(|x| { th.tx(&a).run(|y| { Ok(()) }) }); }",
        );
        assert_eq!(found.len(), 3, "{found:?}");
    }
}
