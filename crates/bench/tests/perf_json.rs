//! Integration tests for the figure emit: a tiny real report satisfies its
//! own schema, round-trips byte-identically, carries every figure family
//! and the open A/B, and is deterministic modulo timing.

use std::sync::OnceLock;
use tle_base::json::Json;
use tle_bench::perf::{emit_report, stable_view, validate, EmitConfig, SCHEMA_VERSION};

/// A tiny real-emit configuration: microbenchmarks only, small op counts,
/// so the full pipeline (workload -> stats -> JSON) runs in test time.
fn tiny() -> EmitConfig {
    EmitConfig {
        label: "test",
        threads: 2,
        micro_ops: 400,
        pbzip_kib: 8,
        trials: 1,
        apps: false,
        sessions_curve: &[16, 48],
        session_requests: 4,
        session_think_ns: 50_000,
    }
}

/// One emit of [`tiny`], shared by every test that only reads it.
fn report() -> &'static Json {
    static REPORT: OnceLock<Json> = OnceLock::new();
    REPORT.get_or_init(|| emit_report(&tiny()))
}

fn runs_of<'a>(doc: &'a Json, figure: &str) -> Vec<&'a Json> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter(|r| r.get("figure").and_then(Json::as_str) == Some(figure))
        .collect()
}

#[test]
fn real_emit_validates_and_round_trips_byte_identically() {
    validate(report()).expect("real emit must satisfy its own schema");
    let rendered = report().render();
    let reparsed = Json::parse(&rendered).expect("emitted JSON must parse");
    assert_eq!(
        reparsed.render(),
        rendered,
        "emit -> parse -> emit must be byte-identical"
    );
    for figure in ["fig5", "kv", "kv-sessions"] {
        assert!(
            !runs_of(report(), figure).is_empty(),
            "no {figure} run in the emit"
        );
    }
}

/// `validate` accepts exactly the version `emit_report` writes: the two
/// retired versions and an unknown future one are rejected by name.
#[test]
fn validate_rejects_other_schema_versions_by_name() {
    for version in [1, 2, 99] {
        assert_ne!(version, SCHEMA_VERSION);
        let mut doc = report().clone();
        let Json::Obj(fields) = &mut doc else {
            panic!("report is not an object");
        };
        let slot = fields
            .iter_mut()
            .find(|(k, _)| k == "schema_version")
            .expect("report carries schema_version");
        slot.1 = Json::u64(version);
        let err = validate(&doc).unwrap_err();
        assert!(
            err.contains(&format!("schema_version is {version}")),
            "unexpected error: {err}"
        );
    }
}

#[test]
fn repeated_emits_are_deterministic_modulo_timing() {
    let again = emit_report(&tiny());
    assert_eq!(
        stable_view(report()).render(),
        stable_view(&again).render(),
        "two emits of the same config must differ only in measured subtrees"
    );
}

#[test]
fn emitted_session_curve_pairs_async_against_threads() {
    let session_runs = runs_of(report(), "kv-sessions");
    // One async + one thread-per-session run per curve point.
    assert_eq!(session_runs.len(), 2 * tiny().sessions_curve.len());
    for (i, &sessions) in tiny().sessions_curve.iter().enumerate() {
        let pair = &session_runs[2 * i..2 * i + 2];
        let mix = format!("s{sessions}");
        let offered = sessions as u64 * tiny().session_requests;
        for (run, policy) in pair.iter().zip(["async-w8", "threads"]) {
            assert_eq!(run.get("mix").and_then(Json::as_str), Some(mix.as_str()));
            assert_eq!(run.get("policy").and_then(Json::as_str), Some(policy));
            let reqs = run.get("measured").and_then(|m| m.get("requests")).unwrap();
            assert_eq!(reqs.get("offered").and_then(Json::as_u64), Some(offered));
            assert_eq!(reqs.get("completed").and_then(Json::as_u64), Some(offered));
        }
    }
}

#[test]
fn emitted_optimization_entries_carry_before_and_after_numbers() {
    let opts = report()
        .get("optimizations")
        .and_then(Json::as_arr)
        .unwrap();
    let names: Vec<&str> = opts
        .iter()
        .map(|o| o.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, ["lazy-subscription"]);
    for o in opts {
        for side in ["baseline", "optimized"] {
            let t = o
                .get(side)
                .and_then(|s| s.get("measured"))
                .and_then(|m| m.get("ops_per_sec"))
                .and_then(Json::as_f64)
                .unwrap();
            assert!(t > 0.0, "{side} throughput must be measured");
        }
        assert!(
            o.get("measured")
                .and_then(|m| m.get("speedup"))
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
    }
}
