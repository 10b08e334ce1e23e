//! `--format sarif`: a SARIF 2.1.0 emitter, plus the `--baseline`
//! write/check mode.
//!
//! SARIF is the interchange format CI forges ingest natively (code
//! scanning annotations, PR overlays), so the emitter is the piece that
//! turns tle-lint from a console tool into a pipeline stage. It is
//! hand-rolled on the [`tle_base::json::Json`] tree — the same
//! byte-deterministic emitter that renders `tle-bench emit` reports — so
//! the document is stable across runs and can itself be archived and
//! diffed.
//!
//! The baseline file answers the adoption problem every new rule has: a
//! workspace with pre-existing findings can't turn on `--deny` without
//! either fixing everything first or suppressing everything first.
//! `--baseline write <file>` records the current *active* findings as
//! fingerprints; `--baseline check <file>` fails only on findings not in
//! the recorded set, so CI gates new hazards while the backlog is paid
//! down deliberately. Fingerprints are `rule:path:line:col` — stable
//! under message rewording, invalidated by real code motion (which is the
//! correct time to re-review a finding anyway).

use crate::rules::{Finding, Rule};
use crate::scan::Report;
use tle_base::json::Json;

/// Every rule that can appear in a report, for the tool metadata block.
const ALL_RULES: [Rule; 11] = [
    Rule::IrrevocableEffect,
    Rule::NestedLock,
    Rule::EscapeHazard,
    Rule::NoQuiescePrivatization,
    Rule::CondvarMisuse,
    Rule::AsyncInAtomic,
    Rule::LockOrder,
    Rule::OrderingAudit,
    Rule::BadAllow,
    Rule::StaleAllow,
    Rule::ParseError,
];

fn location(path: &std::path::Path, span: crate::lexer::Span, message: Option<&str>) -> Json {
    let physical = Json::Obj(vec![
        (
            "artifactLocation".into(),
            Json::Obj(vec![(
                "uri".into(),
                Json::str(path.display().to_string().replace('\\', "/")),
            )]),
        ),
        (
            "region".into(),
            Json::Obj(vec![
                ("startLine".into(), Json::u64(u64::from(span.line))),
                ("startColumn".into(), Json::u64(u64::from(span.col))),
            ]),
        ),
    ]);
    let mut fields = vec![("physicalLocation".into(), physical)];
    if let Some(msg) = message {
        fields.push((
            "message".into(),
            Json::Obj(vec![("text".into(), Json::str(msg))]),
        ));
    }
    Json::Obj(fields)
}

fn result(
    path: &std::path::Path,
    f: &Finding,
    level: &str,
    suppression_reason: Option<&str>,
) -> Json {
    let mut fields = vec![
        ("ruleId".into(), Json::str(f.rule.id())),
        ("level".into(), Json::str(level)),
        (
            "message".into(),
            Json::Obj(vec![("text".into(), Json::str(&f.message))]),
        ),
        (
            "locations".into(),
            Json::Arr(vec![location(path, f.span, None)]),
        ),
    ];
    if !f.related.is_empty() {
        fields.push((
            "relatedLocations".into(),
            Json::Arr(
                f.related
                    .iter()
                    .map(|r| location(&r.path, r.span, Some(&r.note)))
                    .collect(),
            ),
        ));
    }
    if let Some(reason) = suppression_reason {
        fields.push((
            "suppressions".into(),
            Json::Arr(vec![Json::Obj(vec![
                ("kind".into(), Json::str("inSource")),
                ("justification".into(), Json::str(reason)),
            ])]),
        ));
    }
    fields.push((
        "partialFingerprints".into(),
        Json::Obj(vec![("tleLint/v1".into(), Json::str(fingerprint(path, f)))]),
    ));
    Json::Obj(fields)
}

/// Render the full SARIF 2.1.0 document.
pub fn render_sarif(report: &Report) -> String {
    let rules: Vec<Json> = ALL_RULES
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("id".into(), Json::str(r.id())),
                ("name".into(), Json::str(r.slug())),
                (
                    "shortDescription".into(),
                    Json::Obj(vec![("text".into(), Json::str(r.hazard()))]),
                ),
            ])
        })
        .collect();

    let mut results: Vec<Json> = Vec::new();
    for file in &report.files {
        for f in &file.findings {
            results.push(result(&file.path, f, "error", None));
        }
        for (f, reason) in &file.suppressed {
            results.push(result(&file.path, f, "note", Some(reason)));
        }
        for f in &file.stale {
            results.push(result(&file.path, f, "warning", None));
        }
    }

    let doc = Json::Obj(vec![
        (
            "$schema".into(),
            Json::str("https://json.schemastore.org/sarif-2.1.0.json"),
        ),
        ("version".into(), Json::str("2.1.0")),
        (
            "runs".into(),
            Json::Arr(vec![Json::Obj(vec![
                (
                    "tool".into(),
                    Json::Obj(vec![(
                        "driver".into(),
                        Json::Obj(vec![
                            ("name".into(), Json::str("tle-lint")),
                            ("version".into(), Json::str(env!("CARGO_PKG_VERSION"))),
                            (
                                "informationUri".into(),
                                Json::str("https://example.invalid/tle-lint"),
                            ),
                            ("rules".into(), Json::Arr(rules)),
                        ]),
                    )]),
                ),
                ("columnKind".into(), Json::str("unicodeCodePoints")),
                ("results".into(), Json::Arr(results)),
            ])]),
        ),
    ]);
    doc.render()
}

/// The stable identity of one active finding.
fn fingerprint(path: &std::path::Path, f: &Finding) -> String {
    format!(
        "{}:{}:{}:{}",
        f.rule.id(),
        path.display().to_string().replace('\\', "/"),
        f.span.line,
        f.span.col
    )
}

/// Render the baseline document: the sorted fingerprint set of every
/// *active* finding (suppressed and stale findings are already handled by
/// their own machinery).
pub fn render_baseline(report: &Report) -> String {
    let mut fps: Vec<String> = report
        .files
        .iter()
        .flat_map(|file| file.findings.iter().map(|f| fingerprint(&file.path, f)))
        .collect();
    fps.sort();
    fps.dedup();
    Json::Obj(vec![
        ("schema".into(), Json::str("tle-lint-baseline")),
        ("version".into(), Json::u64(1)),
        (
            "findings".into(),
            Json::Arr(fps.into_iter().map(Json::Str).collect()),
        ),
    ])
    .render()
}

/// Check the report against a previously written baseline. Returns the
/// fingerprints of findings *not* covered by the baseline (empty = pass),
/// or an error when the baseline file doesn't parse.
pub fn check_baseline(report: &Report, baseline_src: &str) -> Result<Vec<String>, String> {
    let doc = Json::parse(baseline_src).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some("tle-lint-baseline") {
        return Err("baseline is missing `\"schema\": \"tle-lint-baseline\"`".into());
    }
    let known: std::collections::HashSet<&str> = doc
        .get("findings")
        .and_then(Json::as_arr)
        .ok_or("baseline is missing the `findings` array")?
        .iter()
        .filter_map(Json::as_str)
        .collect();
    let mut fresh: Vec<String> = report
        .files
        .iter()
        .flat_map(|file| file.findings.iter().map(|f| fingerprint(&file.path, f)))
        .filter(|fp| !known.contains(fp.as_str()))
        .collect();
    fresh.sort();
    fresh.dedup();
    Ok(fresh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{lint_source, lint_sources};
    use std::path::PathBuf;

    fn dirty_report() -> Report {
        lint_sources(vec![(
            PathBuf::from("crates/demo/src/a.rs"),
            "fn log_it() { println!(\"x\"); }\n\
             fn f(th: &T, l: &L) { th.critical(l, |ctx| { log_it(); Ok(()) }); }\n\
             fn g(th: &T, l: &L) {\n\
                 // tle-lint: allow(R1, \"demo allows logging\")\n\
                 th.critical(l, |ctx| { println!(\"y\"); Ok(()) });\n\
             }"
            .to_owned(),
        )])
    }

    #[test]
    fn sarif_document_parses_and_carries_the_schema() {
        let doc = render_sarif(&dirty_report());
        let v = Json::parse(&doc).expect("SARIF output must be valid JSON");
        assert_eq!(v.get("version").and_then(Json::as_str), Some("2.1.0"));
        let run = &v.get("runs").and_then(Json::as_arr).unwrap()[0];
        let driver = run.get("tool").unwrap().get("driver").unwrap();
        assert_eq!(driver.get("name").and_then(Json::as_str), Some("tle-lint"));
        assert_eq!(
            driver
                .get("rules")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(11)
        );
    }

    #[test]
    fn results_carry_chains_and_suppression_justifications() {
        let doc = render_sarif(&dirty_report());
        let v = Json::parse(&doc).unwrap();
        let results = v.get("runs").and_then(Json::as_arr).unwrap()[0]
            .get("results")
            .and_then(Json::as_arr)
            .unwrap();
        // One active transitive R1 (with a related location at the hazard),
        // one suppressed local R1 (with a justification).
        let active = results
            .iter()
            .find(|r| r.get("level").and_then(Json::as_str) == Some("error"))
            .expect("active result present");
        assert!(active.get("relatedLocations").is_some());
        let suppressed = results
            .iter()
            .find(|r| r.get("suppressions").is_some())
            .expect("suppressed result present");
        let just = suppressed
            .get("suppressions")
            .and_then(Json::as_arr)
            .unwrap()[0]
            .get("justification")
            .and_then(Json::as_str);
        assert_eq!(just, Some("demo allows logging"));
    }

    #[test]
    fn sarif_render_is_byte_deterministic_through_a_round_trip() {
        let doc = render_sarif(&dirty_report());
        assert_eq!(Json::parse(&doc).unwrap().render(), doc);
    }

    #[test]
    fn baseline_write_then_check_passes_and_new_findings_fail() {
        let report = dirty_report();
        let baseline = render_baseline(&report);
        assert!(check_baseline(&report, &baseline).unwrap().is_empty());

        // A second workspace with one extra finding: only the new one trips.
        let dirtier = lint_sources(vec![(
            PathBuf::from("crates/demo/src/a.rs"),
            "fn log_it() { println!(\"x\"); }\n\
             fn f(th: &T, l: &L) { th.critical(l, |ctx| { log_it(); Ok(()) }); }\n\
             fn g(th: &T, l: &L) {\n\
                 // tle-lint: allow(R1, \"demo allows logging\")\n\
                 th.critical(l, |ctx| { println!(\"y\"); Ok(()) });\n\
             }\n\
             fn h(th: &T, l: &L) { th.critical(l, |ctx| { side.lock(); Ok(()) }); }"
                .to_owned(),
        )]);
        let fresh = check_baseline(&dirtier, &baseline).unwrap();
        assert_eq!(fresh.len(), 1, "{fresh:?}");
        assert!(fresh[0].starts_with("R2:"), "{fresh:?}");
    }

    #[test]
    fn clean_reports_produce_an_empty_baseline() {
        let fr = lint_source("ok.rs", "fn f() { let x = 1; }");
        let report = Report {
            files: vec![fr],
            files_scanned: 1,
            ..Report::default()
        };
        let baseline = render_baseline(&report);
        let v = Json::parse(&baseline).unwrap();
        assert_eq!(
            v.get("findings").and_then(Json::as_arr).map(<[Json]>::len),
            Some(0)
        );
    }

    #[test]
    fn malformed_baselines_are_named_errors() {
        let report = dirty_report();
        assert!(check_baseline(&report, "not json").is_err());
        assert!(check_baseline(&report, "{\"schema\": \"other\"}").is_err());
        assert!(check_baseline(
            &report,
            "{\"schema\": \"tle-lint-baseline\", \"version\": 1}"
        )
        .is_err());
    }
}
