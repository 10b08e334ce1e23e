//! The self-scan gate: the whole workspace (crates/, examples/, src/,
//! tests/) must come up clean — every real finding fixed or carrying a
//! reviewed, reasoned suppression, and no suppression left stale. This is
//! the same scan CI runs via `tle lint --deny --deny-stale`.

use std::path::PathBuf;
use tle_lint::lint_paths;

fn workspace_roots() -> Vec<PathBuf> {
    let ws = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint sits two levels under the workspace root")
        .to_path_buf();
    ["crates", "examples", "src", "tests"]
        .iter()
        .map(|d| ws.join(d))
        .filter(|p| p.exists())
        .collect()
}

#[test]
fn workspace_self_scan_is_clean() {
    let report = lint_paths(&workspace_roots()).expect("workspace readable");
    let mut complaints = String::new();
    for file in &report.files {
        for f in file.findings.iter().chain(&file.stale) {
            complaints.push_str(&format!(
                "\n  {}:{}: [{}] {}",
                file.path.display(),
                f.span,
                f.rule.id(),
                f.message
            ));
        }
    }
    assert!(
        complaints.is_empty(),
        "workspace self-scan must be clean:{complaints}"
    );
    // The scan actually saw the codebase: 148 files, 216 atomic blocks at
    // the time of writing — use generous floors so growth never trips
    // this.
    assert!(
        report.files_scanned >= 130,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
    assert!(
        report.total_sites() >= 180,
        "suspiciously few atomic blocks found: {}",
        report.total_sites()
    );
    // The deliberate hazards stay suppressed-with-reason rather than
    // deleted: the nested-critical panic test plus the three R8 triage
    // notes (trace ring, two STM undo captures).
    assert!(
        report.total_suppressed() >= 4,
        "expected the documented suppressions to be live, found {}",
        report.total_suppressed()
    );
    // The workspace layers really ran: the symbol table indexed the tree,
    // atomic blocks resolved calls, lock names were harvested, and the
    // ordering audit saw the kernel's atomics. Measured at the time of
    // writing: 2030 fns, 25 resolved calls, 15 lock names, 241 accesses
    // (8 more than before PR 18, which moved the statistics from
    // `fetch_add`s on 16-shard counters to load + store on per-slot rows:
    // the row primitives and the new stat-row test's attempt tallies).
    let stats = report.stats;
    assert!(
        stats.fns_indexed >= 1500,
        "suspiciously few fns indexed: {}",
        stats.fns_indexed
    );
    assert!(
        stats.calls_resolved >= 10,
        "suspiciously few calls resolved from atomic blocks: {}",
        stats.calls_resolved
    );
    assert!(
        stats.lock_names >= 8,
        "suspiciously few lock names harvested: {}",
        stats.lock_names
    );
    assert!(
        stats.atomic_accesses >= 150,
        "suspiciously few atomic accesses audited: {}",
        stats.atomic_accesses
    );
}
