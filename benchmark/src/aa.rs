//! `tle-benchmark aa`: the A/A self-check. Two alternating sets of runs of
//! every workload on this one build; for each end-to-end metric it prints
//! the two medians, their relative difference, each set's quartile spread
//! and the bound from `BENCHMARK.json`, and exits 1 if a difference or a
//! spread exceeds its bound — the same arithmetic the driver applies before
//! it accepts the benchmark.

use std::collections::BTreeMap;
use std::process::Command;
use tle_base::json::Json;

struct Metric {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method), since that is what the driver computes.
pub fn py_quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    assert!(m >= 2, "quartiles need two values");
    [1usize, 2, 3].map(|i| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = py_quartiles(values);
    (q3 - q1) / q2.abs()
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// `v` to about four significant digits, without an exponent.
fn four_digits(v: f64) -> String {
    let decimals = (3 - v.abs().log10().floor() as i32).clamp(0, 6) as usize;
    format!("{v:.decimals$}")
}

fn one_run(workload: &str, seed: u64, seconds: u64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()]);
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.trim_end().rsplit('\n').next().unwrap_or("");
    if !out.status.success() {
        return Err(format!("run exited with {}: {last}", out.status));
    }
    // The raw result of every run, for whoever wants more than medians.
    eprintln!("aa {workload} seed {seed}: {last}");
    let result = Json::parse(last)?;
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line has no metrics")?;
    metrics
        .iter()
        .map(|(name, m)| {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric has no value")?;
            Ok((name.clone(), v))
        })
        .collect()
}

pub fn main(argv: &[String]) -> i32 {
    let mut runs = 5usize;
    let mut seed = 42u64;
    let mut vary_seed = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut number = || it.next().and_then(|v| v.parse::<u64>().ok());
        match flag.as_str() {
            "--runs" => runs = number().unwrap_or(0) as usize,
            "--seed" => match number() {
                Some(n) => seed = n,
                None => {
                    eprintln!("tle-benchmark aa: --seed takes a whole number");
                    return 2;
                }
            },
            "--vary-seed" => vary_seed = true,
            "--quick" => {
                eprintln!("tle-benchmark aa: refusing --quick: smoke-sized numbers mean nothing");
                return 2;
            }
            other => {
                eprintln!("tle-benchmark aa: unknown argument {other:?}");
                return 2;
            }
        }
    }
    if runs < 2 {
        eprintln!("tle-benchmark aa: --runs takes a whole number of at least 2");
        return 2;
    }
    let doc = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|s| Json::parse(&s))
    {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("tle-benchmark aa: BENCHMARK.json (run from the repo root): {e}");
            return 2;
        }
    };
    let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap_or(&[]);
    let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap_or("").to_string();
    let seconds = doc.get("run_seconds").and_then(Json::as_u64).unwrap_or(30);
    let metrics: Vec<Metric> = list("end_to_end")
        .iter()
        .map(|m| Metric {
            name: text(m, "name"),
            higher_is_better: text(m, "better") == "higher",
            bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
        })
        .collect();

    let mut worst = 0;
    println!(
        "| workload | metric | median A | median B | B worse by | spread A | spread B | bound | |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for w in list("workloads") {
        let workload = text(w, "name");
        // sets[0] is A, sets[1] is B; runs alternate A B A B ...
        let mut sets: [BTreeMap<String, Vec<f64>>; 2] = Default::default();
        for i in 0..runs {
            for set in &mut sets {
                let run_seed = if vary_seed { seed + i as u64 } else { seed };
                match one_run(&workload, run_seed, seconds) {
                    Ok(values) => {
                        for (name, v) in values {
                            set.entry(name).or_default().push(v);
                        }
                    }
                    Err(e) => {
                        eprintln!("tle-benchmark aa: {workload}: {e}");
                        return 2;
                    }
                }
            }
        }
        for m in &metrics {
            let (a, b) = (&sets[0][&m.name], &sets[1][&m.name]);
            let (med_a, med_b) = (py_quartiles(a)[1], py_quartiles(b)[1]);
            let worse = worsening(med_a, med_b, m.higher_is_better);
            let (spread_a, spread_b) = (spread(a), spread(b));
            // The driver does not hold set-up time to a spread.
            let spread_ok = m.name == "setup_s" || spread_a.max(spread_b) <= m.bound;
            let ok = worse.abs() <= m.bound && spread_ok;
            worst |= !ok as i32;
            println!(
                "| {workload} | {} | {} | {} | {:+.2}% | {:.2}% | {:.2}% | {:.0}% | {} |",
                m.name,
                four_digits(med_a),
                four_digits(med_b),
                worse * 100.0,
                spread_a * 100.0,
                spread_b * 100.0,
                m.bound * 100.0,
                if ok { "ok" } else { "EXCEEDED" }
            );
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(py_quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(
            py_quartiles(&[160.0, 10.0, 80.0, 20.0, 40.0]),
            [15.0, 40.0, 120.0]
        );
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table_numbers_keep_four_digits() {
        assert_eq!(four_digits(15070746.2477), "15070746");
        assert_eq!(four_digits(226.394), "226.4");
        assert_eq!(four_digits(48.8034), "48.80");
        assert_eq!(four_digits(0.054), "0.05400");
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) + 0.10).abs() < 1e-12);
        assert!((worsening(2.0, 2.5, false) - 0.25).abs() < 1e-12);
    }
}
