//! Rendering the human-readable report: one line per finding, then the
//! counts. The machine-readable format is SARIF ([`crate::sarif`]).

use crate::rules::Finding;
use crate::scan::Report;
use std::fmt::Write as _;
use std::path::Path;

/// Render the human report. `show_suppressed` lists the silenced findings
/// with their reasons; `show_stale` includes A2 stale-allow diagnostics.
pub fn render_human(report: &Report, show_stale: bool) -> String {
    let mut out = String::new();
    for file in &report.files {
        for f in &file.findings {
            line(&mut out, &file.path, f);
        }
        if show_stale {
            for f in &file.stale {
                line(&mut out, &file.path, f);
            }
        }
    }
    let stale = report.total_stale();
    let _ = writeln!(
        out,
        "tle-lint: {} file(s), {} atomic block(s), {} finding(s), {} suppressed{}",
        report.files_scanned,
        report.total_sites(),
        report.total_findings(),
        report.total_suppressed(),
        if stale > 0 {
            format!(", {stale} stale suppression(s)")
        } else {
            String::new()
        }
    );
    let s = &report.stats;
    let _ = writeln!(
        out,
        "tle-lint: workspace: {} fn(s) indexed, {} call(s) resolved from atomic blocks, \
         {} lock name(s), {} lock-order edge(s), {} atomic access(es) audited",
        s.fns_indexed, s.calls_resolved, s.lock_names, s.lock_edges, s.atomic_accesses
    );
    out
}

fn line(out: &mut String, path: &Path, f: &Finding) {
    let _ = writeln!(
        out,
        "{}:{}: [{} {}] {}",
        path.display(),
        f.span,
        f.rule.id(),
        f.rule.slug(),
        f.message
    );
    for r in &f.related {
        let _ = writeln!(out, "    -> {}:{}: {}", r.path.display(), r.span, r.note);
    }
}
