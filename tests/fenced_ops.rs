//! Fenced operations per uncontended section, by exact count: `tle count`
//! single-steps one warm section per row (the lock, `ml_wt`, HTM and NOrec
//! increment, the HTM increment by two handles in turn, a read-only
//! section, an `ml_wt` scan past the read set's inline tier, a kv get and
//! put under each engine, the `ml_wt` increment and read through one poll
//! of the async driver) and fails when any row's lock-prefixed / `xchg`-with-memory / `mfence`
//! count differs from its table. A change that adds a fenced op fails
//! here; one that removes one must say so in the table. This build is a
//! debug one, so the table's release instruction column is printed but
//! not checked here; CI's release run of `tle count` checks it.
//!
//! ptrace is required. Where it is refused the tool says so and this test
//! fails: a count that could not be taken is not a pass. Built with the
//! `trace` feature the rows are still taken, but the event ring's stamps
//! add fenced ops, so the table is compared only without it.

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use std::process::Command;

#[test]
fn every_row_has_its_fenced_op_count() {
    let out = Command::new(env!("CARGO_BIN_EXE_tle"))
        .arg("count")
        .output()
        .expect("spawn tle count");
    let stdout = String::from_utf8_lossy(&out.stdout);
    println!("{stdout}{}", String::from_utf8_lossy(&out.stderr));
    assert!(
        !stdout.contains("ptrace refused"),
        "ptrace is refused here, so no count could be taken"
    );
    assert!(out.status.success(), "a fenced-op count left its table");
    for row in [
        "elide.lock",
        "elide.stm",
        "elide.htm",
        "handoff.htm",
        "ro.stm",
        "ro.htm",
        "scan.stm",
        "kv.get.lock",
        "kv.get.stm",
        "kv.get.htm",
        "kv.put.lock",
        "kv.put.stm",
        "kv.put.htm",
        "elide.norec",
        "ro.norec",
        "kv.get.norec",
        "kv.put.norec",
        "async.stm",
        "async.ro.stm",
    ] {
        let line = stdout
            .lines()
            .find(|l| l.split_whitespace().next() == Some(row))
            .unwrap_or_else(|| panic!("no `{row}` row"));
        let cols: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(cols.len(), 5, "`{line}`");
        // With the event ring compiled in, its stamps add fenced ops and
        // the table (the kernels' own counts) does not apply.
        if !tle_repro::base::trace::compiled() {
            assert_eq!(cols[2], cols[3], "`{row}`: fenced ops against the table");
        }
    }
}
