//! Suppression mechanics, pinned: reasons are mandatory, placement is
//! line-accurate, and stale directives are themselves findings.

use tle_lint::{lint_source, Rule};

const VIOLATION: &str = "th.tx(&lock).run(|ctx| {\n    println!(\"x\");\n    Ok(())\n});\n";

fn with_directive(directive: &str) -> String {
    // Own-line directive immediately above the offending line.
    format!(
        "fn f(th: &T, lock: &L) {{\n    th.tx(&lock).run(|ctx| {{\n        {directive}\n        println!(\"x\");\n        Ok(())\n    }});\n}}\n"
    )
}

#[test]
fn reasoned_allow_suppresses_next_line() {
    let src = with_directive("// tle-lint: allow(R1, \"demo: logged under test harness\")");
    let r = lint_source("t.rs", &src);
    assert!(
        r.findings.is_empty(),
        "suppression failed: {:?}",
        r.findings
    );
    assert_eq!(r.suppressed.len(), 1);
    assert_eq!(r.suppressed[0].0.rule, Rule::IrrevocableEffect);
    assert!(r.stale.is_empty());
}

#[test]
fn trailing_allow_suppresses_own_line() {
    let src = "fn f(th: &T, lock: &L) {\n    th.tx(&lock).run(|ctx| {\n        println!(\"x\"); // tle-lint: allow(irrevocable-effect, \"slug form works too\")\n        Ok(())\n    });\n}\n";
    let r = lint_source("t.rs", src);
    assert!(r.findings.is_empty());
    assert_eq!(r.suppressed.len(), 1);
}

#[test]
fn allow_without_reason_is_a_lint_error() {
    let src = with_directive("// tle-lint: allow(R1)");
    let r = lint_source("t.rs", &src);
    // The original finding stays active AND the bad directive is reported.
    let bad: Vec<_> = r
        .findings
        .iter()
        .filter(|f| f.rule == Rule::BadAllow)
        .collect();
    let orig: Vec<_> = r
        .findings
        .iter()
        .filter(|f| f.rule == Rule::IrrevocableEffect)
        .collect();
    assert_eq!(bad.len(), 1, "missing A1 for reasonless allow");
    assert!(bad[0].message.contains("requires a reason"));
    assert_eq!(orig.len(), 1, "reasonless allow must not suppress");
    assert!(r.suppressed.is_empty());
}

#[test]
fn empty_reason_is_a_lint_error() {
    let src = with_directive("// tle-lint: allow(R1, \"\")");
    let r = lint_source("t.rs", &src);
    assert!(r.findings.iter().any(|f| f.rule == Rule::BadAllow));
    assert!(r.suppressed.is_empty());
}

#[test]
fn unknown_rule_is_a_lint_error() {
    let src = with_directive("// tle-lint: allow(R9, \"no such rule\")");
    let r = lint_source("t.rs", &src);
    let bad: Vec<_> = r
        .findings
        .iter()
        .filter(|f| f.rule == Rule::BadAllow)
        .collect();
    assert_eq!(bad.len(), 1);
    assert!(bad[0].message.contains("unknown rule"));
}

#[test]
fn stale_allow_is_reported() {
    // Directive present, but the line below is clean.
    let src = "fn f(th: &T, lock: &L) {\n    th.tx(&lock).run(|ctx| {\n        // tle-lint: allow(R1, \"was needed before the defer rewrite\")\n        ctx.write(&c, 1)?;\n        Ok(())\n    });\n}\n";
    let r = lint_source("t.rs", src);
    assert!(r.findings.is_empty());
    assert_eq!(r.stale.len(), 1);
    assert_eq!(r.stale[0].rule, Rule::StaleAllow);
    assert!(r.stale[0].message.contains("matches no finding"));
}

#[test]
fn allow_is_rule_specific_and_line_specific() {
    // An R2 allow does not silence an R1 finding on the same line...
    let src = with_directive("// tle-lint: allow(R2, \"wrong rule on purpose\")");
    let r = lint_source("t.rs", &src);
    assert!(r.findings.iter().any(|f| f.rule == Rule::IrrevocableEffect));
    assert_eq!(r.stale.len(), 1, "mismatched allow must go stale");

    // ... and an allow two lines away does not reach the violation.
    let src2 = format!("// tle-lint: allow(R1, \"too far away\")\nfn g() {{}}\nfn f(th: &T, lock: &L) {{\n{VIOLATION}}}\n");
    let r2 = lint_source("t.rs", &src2);
    assert!(r2
        .findings
        .iter()
        .any(|f| f.rule == Rule::IrrevocableEffect));
    assert_eq!(r2.stale.len(), 1);
}

#[test]
fn one_comment_can_carry_multiple_clauses() {
    let src = "fn f(th: &T, lock: &L) {\n    th.tx(&lock).run(|ctx| {\n        // tle-lint: allow(R1, \"demo io\") allow(R2, \"demo lock\")\n        println!(\"{}\", side.lock().len());\n        Ok(())\n    });\n}\n";
    let r = lint_source("t.rs", src);
    assert!(
        r.findings.is_empty(),
        "both rules suppressed: {:?}",
        r.findings
    );
    assert_eq!(r.suppressed.len(), 2);
    assert!(r.stale.is_empty());
}
