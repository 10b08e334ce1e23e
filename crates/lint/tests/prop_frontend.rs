//! Property tests for the analyzer's front end (lexer + token-tree
//! parser). The workspace engine now feeds every `.rs` file in the repo
//! through this code, so the front end must be total: any input either
//! parses or reports a clean error — it never panics, never hangs, and
//! never lets delimiters silently unbalance.

use proptest::prelude::*;
use tle_lint::lexer::lex;
use tle_lint::tree::{parse, Tree};
use tle_lint::{lint_source, Rule};

/// Count delimiter groups recursively — used to sanity-check that the
/// tree really consumed the token stream's structure.
fn count_groups(trees: &[Tree]) -> usize {
    trees
        .iter()
        .map(|t| match t {
            Tree::Group(g) => 1 + count_groups(&g.kids),
            _ => 0,
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Total on arbitrary bytes: lex/parse/lint either succeed or return
    /// an error value. `lint_source` additionally turns front-end errors
    /// into a P1 finding instead of propagating them.
    #[test]
    fn front_end_never_panics_on_byte_soup(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        if let Ok((toks, _comments)) = lex(&src) {
            let _ = parse(toks);
        }
        let report = lint_source("soup.rs", &src);
        for f in &report.findings {
            // Byte soup carries no atomic blocks; the only possible
            // finding is the parse-error report itself.
            prop_assert_eq!(f.rule, Rule::ParseError);
        }
    }

    /// Printable soup (the common hand-edited-file case) gets the same
    /// guarantee, and exercises ident/punct/comment paths more densely.
    #[test]
    fn front_end_never_panics_on_printable_soup(
        src in "[a-zA-Z0-9_ .,;:&|!?'\"/(){}<>=+*#~@$%^-]{0,80}",
    ) {
        if let Ok((toks, _)) = lex(&src) {
            let _ = parse(toks);
        }
        let _ = lint_source("soup.rs", &src);
    }

    /// Balanced-by-construction streams always parse, and one extra
    /// closer always turns into a reported error — delimiters are either
    /// balanced or loudly unbalanced, never silently dropped.
    #[test]
    fn balanced_streams_parse_and_unbalanced_ones_report(
        atoms in prop::collection::vec((0u8..5, "[a-z]{1,5}"), 0..40),
    ) {
        let mut src = String::new();
        let mut stack: Vec<char> = Vec::new();
        for (kind, word) in &atoms {
            match kind {
                0 => {
                    src.push_str(word);
                    src.push(' ');
                }
                1 => {
                    src.push_str("( ");
                    stack.push(')');
                }
                2 => {
                    src.push_str("{ ");
                    stack.push('}');
                }
                3 => {
                    src.push_str("[ ");
                    stack.push(']');
                }
                _ => {
                    if let Some(c) = stack.pop() {
                        src.push(c);
                        src.push(' ');
                    } else {
                        src.push_str("; ");
                    }
                }
            }
        }
        while let Some(c) = stack.pop() {
            src.push(c);
            src.push(' ');
        }

        let (toks, _) = lex(&src).expect("balanced printable stream lexes");
        let n_open = src.chars().filter(|c| "({[".contains(*c)).count();
        let forest = parse(toks).expect("balanced stream parses");
        prop_assert_eq!(count_groups(&forest), n_open);

        let (toks, _) = lex(&format!("{src})")).expect("still lexes");
        prop_assert!(parse(toks).is_err(), "extra closer must be reported");
    }

    /// String literals and comments are opaque: hazard-shaped text inside
    /// them never reaches the rules. This is what lets a log message say
    /// "println" or a comment cite `.lock()` without tripping the linter.
    #[test]
    fn strings_and_comments_are_opaque_to_rules(
        payload in "[a-zA-Z0-9_ .!|&]{0,24}",
        hazard in 0u8..4,
    ) {
        let hazard_text = match hazard {
            0 => format!("println!({payload})"),
            1 => format!("side.lock() {payload}"),
            2 => format!("th.tx(&l).run({payload}"),
            _ => payload.clone(),
        };
        let src = format!(
            "fn f(th: &T, lock: &L) {{\n    th.tx(&lock).run(|ctx| {{\n        \
             let msg = \"{hazard_text}\";\n        // note: {hazard_text}\n        \
             ctx.write(&cell, 1)?;\n        Ok(())\n    }});\n}}\n"
        );
        let report = lint_source("opaque.rs", &src);
        prop_assert!(
            report.findings.is_empty() && report.suppressed.is_empty() && report.stale.is_empty(),
            "hazard text in string/comment leaked into rules: {:?}",
            report.findings
        );
    }

    /// Token spans come out in source order — line/col pairs never go
    /// backwards. Every downstream anchor (markers, SARIF, related spans)
    /// leans on this.
    #[test]
    fn token_spans_are_monotonic(src in "[a-z0-9_ .;(){}\n]{0,80}") {
        if let Ok((toks, _)) = lex(&src) {
            let mut prev = (0u32, 0u32);
            for t in &toks {
                let cur = (t.span.line, t.span.col);
                prop_assert!(cur >= prev, "span went backwards: {prev:?} -> {cur:?}");
                prev = cur;
            }
        }
    }
}
