//! `tle lint` — transaction-safety static analysis over the workspace.
//!
//! ```text
//! tle lint --deny --deny-stale
//! tle lint --deny --format sarif
//! tle lint crates/pbz examples
//! ```
//!
//! Exit codes: 0 clean, 1 findings under `--deny` (or stale suppressions
//! under `--deny-stale`), 2 usage error.

use crate::args::Args;
use std::path::PathBuf;
use std::process::ExitCode;
use tle_lint::{lint_paths, render_human, render_sarif, LINT_RULES};

pub fn run(args: &Args) -> Result<ExitCode, String> {
    let format: String = args.get("--format", "human".into())?;
    if !matches!(format.as_str(), "human" | "sarif") {
        return Err(format!(
            "--format expects `human` or `sarif`, got `{format}`"
        ));
    }
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
        Err(e) => {
            // An unreadable input: exit 2, as a usage error.
            eprintln!("tle lint: io error: {e}");
            return Ok(ExitCode::from(2));
        }
    };

    if format == "sarif" {
        print!("{}", render_sarif(&report));
    } else {
        print!("{}", render_human(&report, deny_stale));
    }

    let failed = ((deny || deny_stale) && report.total_findings() > 0)
        || (deny_stale && report.total_stale() > 0);
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
