//! The metric names this harness prints, with their units. `BENCHMARK.json`
//! declares the same two lists (a test keeps them equal); every workload
//! reports every name of the list its run selects.

/// Gated by the bounds in `BENCHMARK.json`; printed by an untraced run
/// (`--trace 0`). Every timing is a ratio of two readings of one round,
/// because nothing absolute repeats on the shared host: for minutes at a
/// time every trial of a run ran 40 % slow (README, "Shape").
///
/// `tput_vs_ref.*` is each mode's throughput against the workload's
/// yardstick (`yard`, fixed `std`-only work of the same kind): it moves with
/// any change to the code under test, the lock path and the codec included.
/// `*_vs_lock.*` is each TM mode against the lock baseline — what the paper
/// reports, and what a user of lock elision asks first: what does eliding
/// this lock cost or buy, against keeping it? `lat_vs_lock.*` compares the
/// typical op latency (`stats::mid_mean_ns`), from trials of their own. The
/// absolute numbers are per-layer metrics (`ops_per_s.*`, `op_mid_ns.*`,
/// `op_p50_ns.*`, `ref.ops_per_s`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("tput_vs_ref.lock", "ratio"),
    ("tput_vs_ref.stm", "ratio"),
    ("tput_vs_ref.htm", "ratio"),
    ("tput_vs_lock.stm", "ratio"),
    ("tput_vs_lock.htm", "ratio"),
    ("lat_vs_lock.stm", "ratio"),
    ("lat_vs_lock.htm", "ratio"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
];

/// Single layers, ungated; module names are the layer names. Printed by a
/// traced run (`--trace 1`). Ladder rows (`*_ns`, `*.ns`, `ns_per_kb`,
/// `kv.async.ops_per_s`) are fixed-count loops that read the same on every
/// workload; the counters, `*_2t.*`, `trace.overhead_share` and `noise.*`
/// come from the workload's own trials — the counters from its trials with
/// two load threads, where there is contention to count.
pub const PER_LAYER: &[(&str, &str)] = &[
    // base
    ("base.tcell.load_ns", "ns"),
    ("base.tcell.store_ns", "ns"),
    ("base.orec.lock_release_ns", "ns"),
    ("base.exec.spawn_join_ns", "ns"),
    ("base.exec.yield_ns", "ns"),
    // stm
    ("stm.tx_ro.ns", "ns"),
    ("stm.tx_rw.ns", "ns"),
    ("stm.tx_rw_quiesce.ns", "ns"),
    ("stm.commits", "count"),
    ("stm.aborts", "count"),
    ("stm.abort_share", "ratio"),
    ("stm.aborts.read_conflict", "count"),
    ("stm.aborts.write_conflict", "count"),
    ("stm.aborts.validation", "count"),
    ("stm.aborts.commit_validation", "count"),
    ("stm.quiesces", "count"),
    ("stm.quiesce_skipped", "count"),
    ("stm.quiesce_wait_ns_per_op", "ns"),
    ("stm.quiesce.p50_ns", "ns"),
    ("stm.quiesce.p99_ns", "ns"),
    ("stm.buf.fresh_allocs", "count"),
    ("stm.buf.spills", "count"),
    // htm
    ("htm.tx_ro.ns", "ns"),
    ("htm.tx_rw.ns", "ns"),
    ("htm.commits", "count"),
    ("htm.aborts", "count"),
    ("htm.abort_share", "ratio"),
    ("htm.aborts.conflict", "count"),
    ("htm.aborts.capacity", "count"),
    ("htm.aborts.event", "count"),
    // core
    ("core.run.lock.ns", "ns"),
    ("core.run.stm.ns", "ns"),
    ("core.run.stm_noquiesce.ns", "ns"),
    ("core.run.htm.ns", "ns"),
    ("core.run.adaptive_htm.ns", "ns"),
    ("core.run.adaptive_htm_lazy.ns", "ns"),
    ("core.try_run.deadline.ns", "ns"),
    ("core.run_async.stm.ns", "ns"),
    ("core.run_async.htm.ns", "ns"),
    ("core.dispatch.stm.ns", "ns"),
    ("core.dispatch.htm.ns", "ns"),
    ("core.condvar.handoff_ns.lock", "ns"),
    ("core.condvar.handoff_ns.stm", "ns"),
    ("core.serial_fallbacks", "count"),
    ("core.serial_share", "ratio"),
    ("core.attempts_per_commit", "ratio"),
    // txset
    ("txset.list.op_ns.stm", "ns"),
    ("txset.hash.op_ns.stm", "ns"),
    ("txset.tree.op_ns.stm", "ns"),
    // kv
    ("kv.get.ns.lock", "ns"),
    ("kv.get.ns.stm", "ns"),
    ("kv.get.ns.htm", "ns"),
    ("kv.put.ns.lock", "ns"),
    ("kv.put.ns.stm", "ns"),
    ("kv.put.ns.htm", "ns"),
    ("kv.remove.ns.stm", "ns"),
    ("kv.over_run.stm.ns", "ns"),
    ("kv.async.ops_per_s", "1/s"),
    // pbz
    ("pbz.rle.ns_per_kb", "ns"),
    ("pbz.bwt.ns_per_kb", "ns"),
    ("pbz.mtf.ns_per_kb", "ns"),
    ("pbz.huffman.ns_per_kb", "ns"),
    ("pbz.crc.ns_per_kb", "ns"),
    ("pbz.block.ns_per_kb", "ns"),
    ("pbz.fifo.push_pop_ns", "ns"),
    ("pbz.tx_per_block", "count"),
    ("pbz.parallel_efficiency", "ratio"),
    // one load thread, absolute
    ("ref.ops_per_s", "1/s"),
    ("ops_per_s.lock", "1/s"),
    ("ops_per_s.stm", "1/s"),
    ("ops_per_s.htm", "1/s"),
    ("op_p50_ns.lock", "ns"),
    ("op_p50_ns.stm", "ns"),
    ("op_p50_ns.htm", "ns"),
    ("op_p99_ns.stm", "ns"),
    ("op_mid_ns.lock", "ns"),
    ("op_mid_ns.stm", "ns"),
    ("op_mid_ns.htm", "ns"),
    // two load threads (this workload's own trials)
    ("ops_per_s_2t.lock", "1/s"),
    ("ops_per_s_2t.stm", "1/s"),
    ("ops_per_s_2t.htm", "1/s"),
    ("scale_2t.lock", "ratio"),
    ("scale_2t.stm", "ratio"),
    ("scale_2t.htm", "ratio"),
    // trace
    ("stm.begin.self_ns", "ns"),
    ("stm.body.self_ns", "ns"),
    ("stm.commit.self_ns", "ns"),
    ("htm.begin.self_ns", "ns"),
    ("htm.body.self_ns", "ns"),
    ("htm.commit.self_ns", "ns"),
    ("harness.keygen.self_ns", "ns"),
    ("trace.span_overhead_ns", "ns"),
    ("trace.overhead_share", "ratio"),
    // noise
    ("noise.ops_per_s.lock.iqr_share", "ratio"),
    ("noise.ops_per_s.stm.iqr_share", "ratio"),
    ("noise.ops_per_s.htm.iqr_share", "ratio"),
    ("noise.op_p50_ns.stm.iqr_share", "ratio"),
    ("noise.op_p99_ns.stm.iqr_share", "ratio"),
    ("noise.op_p50_ns.htm.iqr_share", "ratio"),
    ("noise.loadavg_start", "count"),
];

pub const WORKLOADS: &[&str] = &["elide-1t", "kv-read", "kv-write", "pbz-pipeline"];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use tle_base::json::Json;

    fn declared(doc: &Json, list: &str) -> Vec<(String, String)> {
        doc.get(list)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{list}` list"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn own(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_names_and_units() {
        let src =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&src).expect("BENCHMARK.json parses");
        assert_eq!(declared(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(name), "bad metric name {name:?}");
            assert!(unit_ok(unit), "bad unit {unit:?} on {name}");
            assert!(seen.insert(*name), "metric name {name:?} used twice");
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
    }
}
