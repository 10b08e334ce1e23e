//! The `tle` binary's argument table, driven from outside: a malformed
//! command line is a usage error (exit 2) that names the offending flag or
//! command instead of running on a default, and help exits 0 everywhere.

use std::process::Command;

const COMMANDS: [&str; 11] = [
    "gen",
    "compress",
    "decompress",
    "encode",
    "micro",
    "kv",
    "kv-sessions",
    "torture",
    "trace",
    "lint",
    "count",
];

/// Run `tle` with `args`: (exit code, stdout, stderr).
fn tle(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tle"))
        .args(args)
        .output()
        .expect("spawn tle");
    (
        out.status.code().expect("tle exited by signal"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// `tle args` must exit 2 with `needle` on stderr.
fn usage_error(args: &[&str], needle: &str) {
    let (code, _, err) = tle(args);
    assert_eq!(
        code,
        2,
        "`tle {}` should exit 2; stderr: {err}",
        args.join(" ")
    );
    assert!(
        err.contains(needle),
        "`tle {}` should name `{needle}` on stderr: {err}",
        args.join(" ")
    );
}

#[test]
fn malformed_values_are_usage_errors_naming_the_flag() {
    usage_error(&["torture", "--seed", "abc"], "--seed: `abc`");
    usage_error(&["torture", "--seed"], "--seed expects N");
    usage_error(
        &["torture", "--seed", "5", "--seed", "9"],
        "--seed given more than once",
    );
    usage_error(&["trace", "summary", "--faults", "x"], "--faults: `x`");
    usage_error(&["trace", "dump", "--tail", "abc"], "--tail: `abc`");
    usage_error(&["micro", "--threads", "abc"], "--threads: `abc`");
    usage_error(&["micro", "--policy", "bogus"], "--policy: `bogus`");
    usage_error(&["encode", "--frames", "x"], "--frames: `x`");
    usage_error(&["micro", "--bogus", "1"], "unknown flag `--bogus`");
    usage_error(&["trace", "--ops", "1"], "expected summary|dump");
    usage_error(
        &["compress", "--block", "0", "in", "out"],
        "--block must be non-zero",
    );
}

#[test]
fn help_exits_zero_on_every_command() {
    for top in [&["--help"][..], &["-h"], &["help"]] {
        let (code, out, _) = tle(top);
        assert_eq!(code, 0, "`tle {top:?}`");
        for cmd in COMMANDS {
            assert!(out.contains(&format!("\n  {cmd} ")), "overview lacks {cmd}");
        }
    }
    for cmd in COMMANDS {
        for argv in [vec!["help", cmd], vec![cmd, "--help"], vec![cmd, "-h"]] {
            let (code, out, _) = tle(&argv);
            assert_eq!(code, 0, "`tle {}`", argv.join(" "));
            assert!(out.starts_with(&format!("usage: tle {cmd}")), "{out}");
            assert!(out.contains("-h, --help"), "{out}");
        }
    }
}

#[test]
fn an_unknown_mode_lists_every_mode() {
    // The deleted naive-lazy spellings are unknown modes like any other.
    for bad in ["bogus-mode", "lazy-unsafe", "adaptive-htm-lazy-unsafe"] {
        for cmd in [&["torture"][..], &["kv"], &["trace", "summary"]] {
            let argv = [cmd, &["--mode", bad]].concat();
            usage_error(&argv, &format!("--mode: `{bad}`"));
            let (_, _, err) = tle(&argv);
            for mode in [
                "baseline,",
                "stm-spin,",
                "stm-condvar,",
                "stm-noquiesce,",
                "htm,",
                "adaptive-htm,",
                "adaptive-htm-lazy,",
                "stm-norec)",
            ] {
                assert!(err.contains(mode), "mode `{mode}` missing from: {err}");
            }
        }
    }
}

#[test]
fn lint_spellings_keep_their_messages() {
    for bad in ["yaml", "json"] {
        usage_error(
            &["lint", "--format", bad],
            &format!("--format expects `human` or `sarif`, got `{bad}`"),
        );
    }
    usage_error(
        &["lint", "--baseline", "check", "x"],
        "unknown flag `--baseline`",
    );
}

#[test]
fn removed_commands_are_named() {
    for gone in ["emit", "--emit", "compare", "tle-bench"] {
        usage_error(&[gone], &format!("unknown command `{gone}`"));
    }
    usage_error(&[], "usage: tle <COMMAND>");
}

#[test]
fn a_torture_repro_run_passes() {
    let (code, out, err) = tle(&["torture", "--seed", "7", "--mode", "baseline", "--repro"]);
    assert_eq!(code, 0, "stdout: {out}\nstderr: {err}");
    assert!(
        out.contains("PASS") && out.contains("repro: two runs identical"),
        "{out}"
    );
}
