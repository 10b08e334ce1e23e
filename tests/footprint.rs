//! Resident-memory footprint of one `TmSystem`.
//!
//! A system carries one STM orec table (2^16 dense words, 512 KiB), one
//! simulated-HTM conflict table and a few slot arrays. Building one must
//! grow resident memory by well under 1.5 MiB in every mode; a table padded
//! to one orec per cache line (4 MiB) fails this. Linux only: the reading
//! is `VmRSS` from `/proc/self/status`.

#![cfg(target_os = "linux")]

use tle_repro::prelude::*;

/// Ceiling on the resident growth of building one system.
const MAX_GROWTH_KIB: u64 = 1536;

/// Current resident set size in KiB.
fn rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    line.split_whitespace()
        .nth(1)
        .and_then(|kib| kib.parse().ok())
        .expect("VmRSS value in kB")
}

/// One test function, so no other test in this binary allocates while a
/// system is measured. Every system stays alive until the end, so none is
/// built in memory another one freed.
#[test]
fn building_a_system_grows_rss_by_less_than_1_5_mib() {
    let mut keep = Vec::new();
    for mode in [
        AlgoMode::Baseline,
        AlgoMode::StmCondvar,
        AlgoMode::HtmCondvar,
    ] {
        let before = rss_kib();
        keep.push(std::hint::black_box(TmSystem::new(mode)));
        let grown = rss_kib().saturating_sub(before);
        assert!(
            grown < MAX_GROWTH_KIB,
            "{mode:?}: building a TmSystem grew RSS by {grown} KiB (ceiling {MAX_GROWTH_KIB} KiB)"
        );
    }
}
