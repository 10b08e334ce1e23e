//! `tle` — the command-line front end of the TLE reproduction stack.
//!
//! ```console
//! $ tle gen --bytes 4000000 --seed 7 --out input.txt
//! $ tle compress --mode htm --threads 4 --block 300000 input.txt out.tzb
//! $ tle decompress out.tzb roundtrip.txt
//! $ tle encode --width 160 --height 96 --frames 24 --mode stm-condvar
//! $ tle micro --set tree --policy selectnoq --threads 4
//! $ tle kv --storm --plane
//! $ tle kv-sessions --sessions 1000 --workers 8 --requests 10 --min-ratio 0.9
//! $ tle torture --seed 7 --mode all --repro
//! $ tle trace summary --mode htm --threads 8 --cells 1
//! $ tle lint --deny --deny-stale
//! $ tle count
//! ```
//!
//! Every subcommand's flags live in [`COMMANDS`], the one argument table:
//! `tle help <cmd>` prints a command's rows. Exit codes: 0 clean, 1 a
//! failed run (an oracle, a `--min-ratio` miss, lint findings under
//! `--deny`, an I/O error), 2 a usage error.

mod apps;
mod args;
mod count;
mod kv;
mod lint;
mod torture;
mod trace;

use args::Command;
use std::process::ExitCode;

/// The argument table: every subcommand, its flags and its body.
#[rustfmt::skip]
static COMMANDS: &[Command] = &[
    Command { name: "gen", positionals: &[], run: apps::gen,
        about: "Write synthetic text for the compressor.",
        flags: "\
--bytes N      bytes of text (default 1000000)
--seed S       generator seed (default 1616)
--out FILE     where to write it (required)" },
    Command { name: "compress", positionals: &["IN", "OUT"], run: apps::compress,
        about: "Compress IN to OUT on the PBZip2-style pipeline (Figure 2).",
        flags: "\
--mode M       algorithm mode (default stm-condvar): baseline|stm-spin|
               stm-condvar|stm-noquiesce|htm|adaptive-htm|adaptive-htm-lazy|
               stm-norec
--threads N    compression workers (default 4)
--block N      block size in bytes (default 300000)" },
    Command { name: "decompress", positionals: &["IN", "OUT"], run: apps::decompress,
        about: "Decompress IN to OUT (serial).",
        flags: "" },
    Command { name: "encode", positionals: &[], run: apps::encode,
        about: "Encode synthetic video on the x265-style wavefront encoder (Figures 3-4).",
        flags: "\
--mode M             algorithm mode (default stm-condvar), as for compress
--threads N          wavefront workers (default 4)
--width W            frame width, a multiple of 16 (default 160)
--height H           frame height, a multiple of 16 (default 96)
--frames N           frames to encode (default 16)
--qp Q               quantiser (default 12)
--bitrate BITS       target bits per frame (default: constant qp)
--frame-threads N    frames in flight (default 3)
--slices N           slices per frame (default 1)
--seed S             video seed (default 65261)" },
    Command { name: "micro", positionals: &[], run: apps::micro,
        about: "One Figure 5 set microbenchmark point: 50% lookup, 25% insert, 25% remove.",
        flags: "\
--set S        list|hash|tree (default hash)
--policy P     quiescence policy: stm|noq|selectnoq (default stm)
--threads N    worker threads (default 4)
--ops N        operations per thread (default 200000)" },
    Command { name: "kv", positionals: &[], run: kv::kv,
        about: "Run the sharded KV serving-workload driver once.",
        flags: "\
--threads N        worker threads (default 4)
--shards N         shard locks (default 8)
--requests N       requests per thread (default 20000)
--mode M           algorithm mode (default stm-condvar)
--gap-ns N         open-loop arrival gap per thread; 0 = closed loop (default 4000)
--storm            inject the hot-key storm
--plane            enable the deadline/admission plane (1ms budget)
--deadline-us N    per-request budget in microseconds (implies --plane)
--seed N           driver RNG seed (default 42)" },
    Command { name: "kv-sessions", positionals: &[], run: kv::sessions,
        about: "Goodput of async sessions versus thread-per-session, and their ratio.",
        flags: "\
--sessions N     logical sessions (default 256)
--workers N      async executor worker threads (default 8)
--requests N     requests per session (default 10)
--think-ns N     per-request think time (default 2000000)
--mode M         algorithm mode (default stm-condvar)
--seed N         session RNG seed (default 42)
--min-ratio F    fail when async/threads goodput < F (default 0)" },
    Command { name: "torture", positionals: &[], run: torture::run,
        about: "Fault-injection stress runs judged by invariant oracles.\n\
                Exit 0 when every oracle held (and, under --repro, both runs matched).",
        flags: "\
--seed N       fault-schedule and workload seed (default 1)
--mode M       all, or one algorithm mode (default all; adaptive-htm-lazy
               and stm-norec are opt-in and not part of `all`)
--workers N    txset/pipeline worker threads (default 3)
--ops N        set operations per worker (default 1500)
--adaptive     also torture per-lock mode flips (exact count + flip sequence)
--deadline     also torture the deadline gate (zero-budget requests refused)
--async        also torture the async executor's waker path
--repro        one worker, run twice: fails unless both runs match per-cause
               abort counts, fault tallies and each phase's digest" },
    Command { name: "trace", positionals: &["summary|dump"], run: trace::run,
        about: "Trace a contended probe: event totals (summary) or the events (dump).\n\
                Build with `--features trace` or the event ring records nothing.",
        flags: "\
--mode M       algorithm mode (default htm)
--threads N    worker threads for the probe workload (default 4)
--ops N        operations per thread (default 20000)
--cells N      shared counters, lower = more conflicts (default 4)
--tail N       dump: only the last N events (default all)
--cause C      dump: only events of this abort cause (conflict, capacity, ...)
--faults N     run the probe under the torture fault plan seeded with N" },
    Command { name: "count", positionals: &[], run: count::run,
        about: "Exact instruction and fenced-op counts of one warm section per engine (x86-64 Linux).\n\
                Each row is followed by its split by function.\n\
                Exit 1 when a fenced-op count differs from the table, or ptrace is refused.",
        flags: "\
--child ROW    run ROW as the traced child (the counter re-executes itself)" },
    Command { name: "lint", positionals: &["[PATHS...]"], run: lint::run,
        about: "Transaction-safety static analysis for TLE atomic blocks.\n\
                PATHS default to: crates examples src tests",
        flags: "\
--format F      human|sarif (default human)
--deny          exit 1 when any finding is active
--deny-stale    also exit 1 on stale suppressions (A2)
--list-rules    print the rule table and exit" },
];

/// Report a failed run (exit 1) with `msg` on stderr.
fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::FAILURE
}

/// The top-level usage: one line per command, from the table.
fn overview() -> String {
    let mut text = String::from("usage: tle <COMMAND> [OPTIONS]\n\ncommands:\n");
    for cmd in COMMANDS {
        let about = cmd.about.lines().next().unwrap_or_default();
        text.push_str(&format!("  {:<13}{about}\n", cmd.name));
    }
    text.push_str("\n`tle help <COMMAND>` or `tle <COMMAND> --help` lists its options.\n");
    text
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if matches!(
        argv.first().map(String::as_str),
        Some("help" | "-h" | "--help")
    ) {
        if argv.len() == 1 {
            print!("{}", overview());
            return ExitCode::SUCCESS;
        }
        // `tle help <cmd>` is `tle <cmd> --help`.
        argv = vec![argv.swap_remove(1), "--help".into()];
    }
    let Some(name) = argv.first() else {
        eprint!("{}", overview());
        return ExitCode::from(2);
    };
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        eprint!("tle: unknown command `{name}`\n\n{}", overview());
        return ExitCode::from(2);
    };
    let outcome = cmd.parse(&argv[1..]).and_then(|args| match args {
        Some(args) => (cmd.run)(&args),
        None => {
            print!("{}", cmd.usage());
            Ok(ExitCode::SUCCESS)
        }
    });
    outcome.unwrap_or_else(|msg| {
        eprint!("tle {}: {msg}\n\n{}", cmd.name, cmd.usage());
        ExitCode::from(2)
    })
}
