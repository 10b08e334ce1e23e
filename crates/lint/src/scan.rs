//! Workspace orchestration: parse every file, run the local per-block
//! rules, then the workspace-level analyses (call-graph rule propagation,
//! lock-order cycles, the atomics-ordering audit), and apply suppressions
//! last.
//!
//! The workspace model is what separates this engine from a per-file
//! linter: R7 and R8 findings *are* disagreements between files, and the
//! transitive R1/R2/R5/R6 pass needs every `fn` body in scope before it
//! can chase a call out of an atomic block. Single-file entry points
//! ([`lint_source`]) still work — they are a one-file workspace.

use crate::callgraph;
use crate::extract::{find_sites, flatten_trees, Site};
use crate::lexer::{lex, Comment, Span, Tok};
use crate::lockorder::{self, LockNames};
use crate::ordering;
use crate::rules::{scan_set_lock_no_quiesce, scan_site, Finding, Rule};
use crate::suppress::{apply, parse_directives};
use crate::symbols::SymbolTable;
use crate::tree::{parse, Tree};
use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// Analysis result for one source file.
#[derive(Debug)]
pub struct FileReport {
    pub path: PathBuf,
    /// Violations that survived suppression (plus `A1 bad-allow` errors).
    pub findings: Vec<Finding>,
    /// Violations silenced by a reasoned `allow`, with the reason.
    pub suppressed: Vec<(Finding, String)>,
    /// `A2 stale-allow`: suppressions that matched nothing.
    pub stale: Vec<Finding>,
    /// Number of atomic blocks located.
    pub sites: usize,
}

/// Workspace-level statistics — what the cross-file layers actually saw.
/// The self-scan test pins floors on these so the analyses can't silently
/// go blind.
#[derive(Debug, Default, Clone, Copy)]
pub struct WorkspaceStats {
    /// `fn` items indexed into the symbol table.
    pub fns_indexed: usize,
    /// Call references out of atomic blocks that resolved to a definition.
    pub calls_resolved: usize,
    /// Distinct binding identifiers traced to an `ElidableMutex` name.
    pub lock_names: usize,
    /// Held-while-acquiring edges in the lock-order graph.
    pub lock_edges: usize,
    /// Atomic accesses (with explicit orderings) in the R8 pool.
    pub atomic_accesses: usize,
}

/// Aggregated analysis over many files.
#[derive(Debug, Default)]
pub struct Report {
    pub files: Vec<FileReport>,
    pub files_scanned: usize,
    pub stats: WorkspaceStats,
}

impl Report {
    pub fn total_findings(&self) -> usize {
        self.files.iter().map(|f| f.findings.len()).sum()
    }

    pub fn total_suppressed(&self) -> usize {
        self.files.iter().map(|f| f.suppressed.len()).sum()
    }

    pub fn total_stale(&self) -> usize {
        self.files.iter().map(|f| f.stale.len()).sum()
    }

    pub fn total_sites(&self) -> usize {
        self.files.iter().map(|f| f.sites).sum()
    }
}

/// Per-file parse state carried between the phases.
struct FileCtx {
    toks: Vec<Tok>,
    comments: Vec<Comment>,
    forest: Vec<Tree>,
    sites: Vec<Site>,
    parse_error: Option<Finding>,
}

fn parse_file(src: &str) -> FileCtx {
    let empty = |err| FileCtx {
        toks: Vec::new(),
        comments: Vec::new(),
        forest: Vec::new(),
        sites: Vec::new(),
        parse_error: Some(err),
    };
    let (toks, comments) = match lex(src) {
        Ok(v) => v,
        Err(e) => return empty(Finding::new(Rule::ParseError, e.span, e.msg)),
    };
    let forest = match parse(toks.clone()) {
        Ok(f) => f,
        Err(e) => return empty(Finding::new(Rule::ParseError, e.span, e.msg)),
    };
    let sites = find_sites(&forest);
    FileCtx {
        toks,
        comments,
        forest,
        sites,
        parse_error: None,
    }
}

/// The R8 grouping key for a file: atomics are compared within one crate
/// (`crates/<name>`), one example, one integration test, or the root
/// binary — never across those boundaries, because same-named fields in
/// different crates are different atomics.
fn crate_key(path: &Path) -> String {
    let comps: Vec<&str> = path
        .components()
        .filter_map(|c| c.as_os_str().to_str())
        .collect();
    if let Some(i) = comps.iter().position(|c| *c == "crates") {
        if let Some(name) = comps.get(i + 1) {
            return (*name).to_owned();
        }
    }
    for root in ["examples", "tests"] {
        if let Some(i) = comps.iter().position(|c| *c == root) {
            if let Some(file) = comps.get(i + 1) {
                return format!("{root}:{}", file.trim_end_matches(".rs"));
            }
        }
    }
    if comps.contains(&"src") {
        return "bin".to_owned();
    }
    path.display().to_string()
}

/// Analyze a set of sources as one workspace.
pub fn lint_sources(inputs: Vec<(PathBuf, String)>) -> Report {
    let paths: Vec<PathBuf> = inputs.iter().map(|(p, _)| p.clone()).collect();
    let ctxs: Vec<FileCtx> = inputs.iter().map(|(_, src)| parse_file(src)).collect();

    // Workspace indexes: symbols for the call graph, lock names for R7,
    // the access pool for R8.
    let mut symbols = SymbolTable::default();
    let mut lock_names = LockNames::default();
    let mut accesses: Vec<(String, ordering::Access)> = Vec::new();
    for (i, ctx) in ctxs.iter().enumerate() {
        symbols.index_file(i, &ctx.forest);
        let flat = flatten_trees(&ctx.forest);
        lock_names.harvest(&flat);
        let key = crate_key(&paths[i]);
        for a in ordering::collect(&flat, i) {
            accesses.push((key.clone(), a));
        }
    }

    let mut stats = WorkspaceStats {
        fns_indexed: symbols.fns.len(),
        atomic_accesses: accesses.len(),
        lock_names: lock_names.known(),
        ..WorkspaceStats::default()
    };

    // Per-file pending findings: local rules plus the transitive pass.
    let mut pending: Vec<Vec<Finding>> = Vec::with_capacity(ctxs.len());
    let mut lock_edges: Vec<lockorder::Edge> = Vec::new();
    for (i, ctx) in ctxs.iter().enumerate() {
        let mut findings = Vec::new();
        if let Some(err) = &ctx.parse_error {
            pending.push(vec![err.clone()]);
            continue;
        }
        for site in &ctx.sites {
            findings.extend(scan_site(site));
            findings.extend(callgraph::propagate(
                &site.body,
                site.ctx.as_deref(),
                i,
                &symbols,
                &paths,
            ));
            stats.calls_resolved +=
                callgraph::resolved_edges(&site.body, site.ctx.as_deref(), i, &symbols);
            lock_edges.extend(lockorder::edges_for_site(site, i, &lock_names, &symbols));
        }
        findings.extend(scan_set_lock_no_quiesce(&ctx.toks, &ctx.sites));
        pending.push(findings);
    }
    stats.lock_edges = lock_edges.len();

    // Workspace verdicts route back to their anchor files.
    for (file, f) in lockorder::find_cycles(&lock_edges, &paths) {
        pending[file].push(f);
    }
    for (file, f) in ordering::audit(&accesses, &paths) {
        pending[file].push(f);
    }

    // Suppressions and ordering, per file.
    let mut report = Report {
        files: Vec::with_capacity(ctxs.len()),
        files_scanned: ctxs.len(),
        stats,
    };
    for ((path, ctx), mut findings) in paths.into_iter().zip(&ctxs).zip(pending) {
        // Nested sites are scanned both standalone and as part of the
        // enclosing body; dedup by position+rule.
        let mut seen: HashSet<(Rule, Span)> = HashSet::new();
        findings.retain(|f| seen.insert((f.rule, f.span)));
        findings.sort_by_key(|f| (f.span, f.rule));

        let (allows, mut bad) = parse_directives(&ctx.comments, &ctx.toks);
        let (mut active, suppressed, stale) = apply(findings, &allows);
        active.append(&mut bad);
        active.sort_by_key(|f| (f.span, f.rule));

        report.files.push(FileReport {
            path,
            findings: active,
            suppressed,
            stale,
            sites: ctx.sites.len(),
        });
    }
    report
}

/// Analyze one source text (a one-file workspace).
pub fn lint_source(path: impl Into<PathBuf>, src: &str) -> FileReport {
    let mut report = lint_sources(vec![(path.into(), src.to_owned())]);
    report.files.remove(0)
}

/// Directory names never descended into. `fixtures` holds the
/// seeded-violation corpus — it is linted by the fixture harness, where the
/// violations are the point, not by workspace scans that must come up
/// clean.
const SKIP_DIRS: [&str; 3] = ["target", ".git", "fixtures"];

/// Collect `.rs` files under `roots` (files are accepted as-is),
/// deterministically ordered.
pub fn collect_rs_files(roots: &[PathBuf]) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for root in roots {
        if root.is_file() {
            out.push(root.clone());
        } else {
            descend(root, &mut out)?;
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

fn descend(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                descend(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Analyze every `.rs` file under `roots` as one workspace.
pub fn lint_paths(roots: &[PathBuf]) -> std::io::Result<Report> {
    let files = collect_rs_files(roots)?;
    let mut inputs = Vec::with_capacity(files.len());
    for path in files {
        let src = std::fs::read_to_string(&path)?;
        inputs.push((path, src));
    }
    Ok(lint_sources(inputs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_keys_partition_the_workspace() {
        assert_eq!(crate_key(Path::new("crates/kernel/src/lib.rs")), "kernel");
        assert_eq!(
            crate_key(Path::new("/abs/repo/crates/base/src/x.rs")),
            "base"
        );
        assert_eq!(crate_key(Path::new("examples/queue.rs")), "examples:queue");
        assert_eq!(crate_key(Path::new("tests/smoke.rs")), "tests:smoke");
        assert_eq!(crate_key(Path::new("src/bin/tle/lint.rs")), "bin");
    }

    #[test]
    fn workspace_findings_cross_files() {
        let report = lint_sources(vec![
            (
                PathBuf::from("crates/demo/src/a.rs"),
                "fn publish(s: &S) { s.flag.store(true, Ordering::Release); }".into(),
            ),
            (
                PathBuf::from("crates/demo/src/b.rs"),
                "fn consume(s: &S) -> bool { s.flag.load(Ordering::Acquire) }\n\
                 fn peek(s: &S) -> bool { s.flag.load(Ordering::Relaxed) }"
                    .into(),
            ),
        ]);
        let flagged: Vec<_> = report
            .files
            .iter()
            .flat_map(|f| &f.findings)
            .filter(|f| f.rule == Rule::OrderingAudit)
            .collect();
        assert_eq!(flagged.len(), 1, "{flagged:?}");
        assert_eq!(report.stats.atomic_accesses, 3);
    }

    #[test]
    fn transitive_findings_honor_suppressions() {
        let fr = lint_source(
            "t.rs",
            "fn log_it() { println!(\"x\"); }\n\
             fn f(th: &T, l: &L) {\n\
                 // tle-lint: allow(R1, \"test helper logs on purpose\")\n\
                 th.critical(l, |ctx| { log_it(); Ok(()) });\n\
             }",
        );
        assert!(fr.findings.is_empty(), "{:?}", fr.findings);
        assert_eq!(fr.suppressed.len(), 1);
        assert_eq!(fr.suppressed[0].1, "test helper logs on purpose");
    }

    #[test]
    fn parse_errors_still_reported_per_file() {
        let report = lint_sources(vec![
            (PathBuf::from("bad.rs"), "fn f() { (".into()),
            (PathBuf::from("good.rs"), "fn g() {}".into()),
        ]);
        assert_eq!(report.files[0].findings[0].rule, Rule::ParseError);
        assert!(report.files[1].findings.is_empty());
    }
}
