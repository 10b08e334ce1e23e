//! `--format sarif`: a SARIF 2.1.0 emitter, the one machine-readable
//! format.
//!
//! SARIF is the interchange format CI forges ingest natively (code
//! scanning annotations, PR overlays), so the emitter is the piece that
//! turns tle-lint from a console tool into a pipeline stage. It is
//! hand-rolled on the [`tle_base::json::Json`] tree, a byte-deterministic
//! emitter, so the document is stable across runs and can be archived and
//! diffed. Each result carries its status (`level`: error = active,
//! note = suppressed with the `suppressions` justification, warning =
//! stale), its related locations, and a `rule:path:line:col` fingerprint —
//! stable under message rewording, invalidated by real code motion.

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

/// The stable identity of one finding.
fn fingerprint(path: &std::path::Path, f: &Finding) -> String {
    format!(
        "{}:{}:{}:{}",
        f.rule.id(),
        path.display().to_string().replace('\\', "/"),
        f.span.line,
        f.span.col
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::lint_sources;
    use std::path::PathBuf;

    fn dirty_report() -> Report {
        lint_sources(vec![(
            PathBuf::from("crates/demo/src/a.rs"),
            "fn log_it() { println!(\"x\"); }\n\
             fn f(th: &T, l: &L) { th.tx(l).run(|ctx| { log_it(); Ok(()) }); }\n\
             fn g(th: &T, l: &L) {\n\
                 // tle-lint: allow(R1, \"demo allows logging\")\n\
                 th.tx(l).run(|ctx| { println!(\"y\"); Ok(()) });\n\
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
        let fingerprint = active
            .get("partialFingerprints")
            .and_then(|p| p.get("tleLint/v1"))
            .and_then(Json::as_str)
            .unwrap();
        assert!(
            fingerprint.starts_with("R1:crates/demo/src/a.rs:2:"),
            "{fingerprint}"
        );
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
}
