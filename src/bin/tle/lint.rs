//! `tle lint` — transaction-safety static analysis over the workspace.
//!
//! ```text
//! tle lint --deny --format json
//! tle lint --deny --deny-stale --format sarif
//! tle lint --baseline write lint-baseline.json
//! tle lint --deny --baseline check lint-baseline.json
//! tle lint crates/pbz examples
//! ```
//!
//! Exit codes: 0 clean, 1 findings under `--deny` (or stale suppressions
//! under `--deny-stale`, or new-vs-baseline findings under
//! `--baseline check`), 2 usage error.

use crate::args::Args;
use std::path::PathBuf;
use std::process::ExitCode;
use tle_lint::{
    check_baseline, lint_paths, render_baseline, render_human, render_json, render_sarif,
    LINT_RULES,
};

pub fn run(args: &Args) -> Result<ExitCode, String> {
    let format: String = args.get("--format", "human".into())?;
    if !matches!(format.as_str(), "human" | "json" | "sarif") {
        return Err(format!(
            "--format expects `human`, `json` or `sarif`, got `{format}`"
        ));
    }
    // `write` records and never fails; `check` replaces the plain `--deny`
    // verdict with "new findings only".
    let baseline = match args.values("--baseline") {
        None => None,
        Some([mode, file]) if mode == "write" || mode == "check" => {
            Some((mode == "check", PathBuf::from(file)))
        }
        Some(other) => {
            return Err(format!(
                "--baseline expects `write <file>` or `check <file>`, got `{}`",
                other[0]
            ))
        }
    };
    let (deny, deny_stale) = (args.has("--deny"), args.has("--deny-stale"));
    if args.has("--list-rules") {
        for r in LINT_RULES {
            println!("{}  {:<24} {}", r.id(), r.slug(), r.hazard());
        }
        return Ok(ExitCode::SUCCESS);
    }

    let mut paths: Vec<PathBuf> = args.positionals.iter().map(PathBuf::from).collect();
    if paths.is_empty() {
        paths = ["crates", "examples", "src", "tests"]
            .iter()
            .map(PathBuf::from)
            .filter(|p| p.exists())
            .collect();
    }
    if let Some(p) = paths.iter().find(|p| !p.exists()) {
        return Err(format!("path `{}` does not exist", p.display()));
    }
    let report = match lint_paths(&paths) {
        Ok(r) => r,
        Err(e) => return Ok(io_error(format!("io error: {e}"))),
    };

    match format.as_str() {
        "json" => println!("{}", render_json(&report)),
        "sarif" => print!("{}", render_sarif(&report)),
        _ => print!("{}", render_human(&report, deny_stale)),
    }

    let mut findings_fail = report.total_findings() > 0;
    match baseline {
        Some((false, file)) => {
            if let Err(e) = std::fs::write(&file, render_baseline(&report)) {
                let msg = format!("cannot write baseline `{}`: {e}", file.display());
                return Ok(io_error(msg));
            }
        }
        Some((true, file)) => {
            let src = match std::fs::read_to_string(&file) {
                Ok(s) => s,
                Err(e) => {
                    let msg = format!("cannot read baseline `{}`: {e}", file.display());
                    return Ok(io_error(msg));
                }
            };
            let fresh = match check_baseline(&report, &src) {
                Ok(fresh) => fresh,
                Err(e) => return Ok(io_error(e)),
            };
            for fp in &fresh {
                eprintln!("tle lint: new finding not in baseline: {fp}");
            }
            findings_fail = !fresh.is_empty();
        }
        None => {}
    }

    let failed =
        ((deny || deny_stale) && findings_fail) || (deny_stale && report.total_stale() > 0);
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// An unreadable input or unwritable output: exit 2, as a usage error.
fn io_error(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("tle lint: {msg}");
    ExitCode::from(2)
}
