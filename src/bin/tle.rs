//! `tle` — command-line front end for the TLE reproduction stack.
//!
//! ```console
//! $ tle gen --bytes 4000000 --seed 7 --out input.txt
//! $ tle compress --mode htm --threads 4 --block 300000 input.txt out.tzb
//! $ tle decompress out.tzb roundtrip.txt
//! $ tle encode --width 160 --height 96 --frames 24 --mode stm-condvar
//! $ tle micro --set tree --policy selectnoq --threads 4
//! ```
//!
//! Every subcommand prints the TM statistics of its run, so the tool
//! doubles as a quick probe of how an algorithm behaves on a workload.

use std::io::{Read, Write};
use std::sync::Arc;
use tle_repro::base::stats::Stat;
use tle_repro::pbz::{PipelineConfig, StreamCompressor, StreamDecompressor};
use tle_repro::prelude::*;
use tle_repro::wfe::{encode_video, EncoderConfig, VideoSource};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(|s| s.as_str()) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("compress") => cmd_compress(&args[1..], false),
        Some("decompress") => cmd_compress(&args[1..], true),
        Some("encode") => cmd_encode(&args[1..]),
        Some("micro") => cmd_micro(&args[1..]),
        _ => {
            eprintln!(
                "usage: tle <gen|compress|decompress|encode|micro> [options]\n\
                 \n\
                 gen        --bytes N [--seed S] --out FILE\n\
                 compress   [--mode M] [--threads N] [--block N] IN OUT\n\
                 decompress IN OUT\n\
                 encode     [--mode M] [--threads N] [--width W] [--height H]\n\
                 \u{20}          [--frames N] [--qp Q] [--bitrate BITS_PER_FRAME]\n\
                 micro      [--set list|hash|tree] [--policy stm|noq|selectnoq]\n\
                 \u{20}          [--threads N] [--ops N]\n\
                 \n\
                 modes: baseline | stm-spin | stm-condvar | stm-noquiesce | htm | adaptive-htm"
            );
            2
        }
    };
    std::process::exit(code);
}

/// Pull `--key value` out of an argument list.
fn opt(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

fn opt_parse<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> T {
    opt(args, key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Positional (non `--`) arguments.
fn positionals(args: &[String]) -> Vec<&String> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = true;
        } else {
            out.push(a);
        }
    }
    out
}

fn parse_mode(args: &[String]) -> AlgoMode {
    match opt(args, "--mode").as_deref() {
        None => AlgoMode::StmCondvar,
        Some(spelling) => spelling.parse().unwrap_or_else(|err| {
            eprintln!("{err}");
            std::process::exit(2);
        }),
    }
}

fn print_stats(sys: &TmSystem) {
    let stm = sys.stm.stats.snapshot();
    let htm_c = sys.htm.stats.get(Stat::Commits);
    let htm_a = sys.htm.stats.get(Stat::Aborts);
    println!(
        "tm-stats: stm commits={} aborts={} quiesces={} skipped={} | \
         htm commits={} aborts={} | serial fallbacks={}",
        stm.commits,
        stm.aborts,
        stm.quiesces,
        stm.quiesce_skipped,
        htm_c,
        htm_a,
        sys.stats.get(Stat::SerialFallbacks)
    );
}

fn cmd_gen(args: &[String]) -> i32 {
    let bytes: usize = opt_parse(args, "--bytes", 1_000_000);
    let seed: u64 = opt_parse(args, "--seed", 0x650);
    let Some(out) = opt(args, "--out") else {
        eprintln!("gen: --out FILE is required");
        return 2;
    };
    let data = tle_repro::pbz::gen_text(seed, bytes);
    if let Err(e) = std::fs::write(&out, &data) {
        eprintln!("gen: cannot write {out}: {e}");
        return 1;
    }
    println!("wrote {bytes} bytes of synthetic text to {out}");
    0
}

fn cmd_compress(args: &[String], decompress: bool) -> i32 {
    let pos = positionals(args);
    let (Some(input), Some(output)) = (pos.first(), pos.get(1)) else {
        eprintln!("expected: IN OUT");
        return 2;
    };
    let mode = parse_mode(args);
    let sys = Arc::new(TmSystem::new(mode));
    let threads: usize = opt_parse(args, "--threads", 4);
    let block: usize = opt_parse(args, "--block", 300_000);
    let cfg = PipelineConfig {
        workers: threads,
        block_size: block,
        fifo_cap: 2 * threads.max(2),
    };

    let data = match std::fs::read(input) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot read {input}: {e}");
            return 1;
        }
    };
    let t0 = std::time::Instant::now();
    let result: Result<Vec<u8>, String> = if decompress {
        let mut d = StreamDecompressor::new(&data[..]);
        let mut out = Vec::new();
        d.read_to_end(&mut out)
            .map(|_| out)
            .map_err(|e| e.to_string())
    } else {
        let mut c = StreamCompressor::new(Arc::clone(&sys), cfg, Vec::new());
        c.write_all(&data)
            .and_then(|_| c.finish())
            .map_err(|e| e.to_string())
    };
    let out_bytes = match result {
        Ok(b) => b,
        Err(e) => {
            eprintln!("codec error: {e}");
            return 1;
        }
    };
    let secs = t0.elapsed().as_secs_f64();
    if let Err(e) = std::fs::write(output, &out_bytes) {
        eprintln!("cannot write {output}: {e}");
        return 1;
    }
    println!(
        "{} {} -> {} bytes in {:.3}s ({:.1} MB/s) under {}",
        if decompress {
            "decompressed"
        } else {
            "compressed"
        },
        data.len(),
        out_bytes.len(),
        secs,
        data.len() as f64 / secs / 1e6,
        mode.label()
    );
    print_stats(&sys);
    0
}

fn cmd_encode(args: &[String]) -> i32 {
    let mode = parse_mode(args);
    let sys = Arc::new(TmSystem::new(mode));
    let width: usize = opt_parse(args, "--width", 160);
    let height: usize = opt_parse(args, "--height", 96);
    let frames: usize = opt_parse(args, "--frames", 16);
    let cfg = EncoderConfig {
        workers: opt_parse(args, "--threads", 4),
        qp: opt_parse(args, "--qp", 12),
        keyframe_interval: 8,
        lookahead_depth: 4,
        target_bits_per_frame: opt(args, "--bitrate").and_then(|v| v.parse().ok()),
        frame_threads: opt_parse(args, "--frame-threads", 3),
        slices: opt_parse(args, "--slices", 1),
    };
    if !width.is_multiple_of(16) || !height.is_multiple_of(16) {
        eprintln!("encode: width/height must be multiples of 16");
        return 2;
    }
    let source = VideoSource::new(width, height, frames, opt_parse(args, "--seed", 0xFEED));
    let t0 = std::time::Instant::now();
    let video = encode_video(&sys, &source, &cfg);
    let secs = t0.elapsed().as_secs_f64();
    println!(
        "encoded {}x{} x{} frames in {:.3}s under {}: {} bits total, {:.1} dB mean PSNR",
        width,
        height,
        frames,
        secs,
        mode.label(),
        video.total_bits,
        video.mean_psnr
    );
    for f in video.frames.iter().take(4) {
        println!(
            "  frame {:>3} {} bits={} psnr={:.1} digest={:08x}",
            f.index,
            if f.keyframe { "I" } else { "P" },
            f.bits,
            f.psnr.min(99.0),
            f.digest
        );
    }
    if video.frames.len() > 4 {
        println!("  ... ({} more frames)", video.frames.len() - 4);
    }
    print_stats(&sys);
    0
}

fn cmd_micro(args: &[String]) -> i32 {
    use tle_repro::txset::{TxHashSet, TxListSet, TxSet, TxTreeSet};
    let kind = opt(args, "--set").unwrap_or_else(|| "hash".into());
    let set: Arc<dyn TxSet> = match kind.as_str() {
        "list" => Arc::new(TxListSet::new()),
        "hash" => Arc::new(TxHashSet::new()),
        "tree" => Arc::new(TxTreeSet::new()),
        other => {
            eprintln!("unknown set '{other}'");
            return 2;
        }
    };
    let policy = match opt(args, "--policy").as_deref() {
        Some("noq") => QuiescePolicy::Never,
        Some("selectnoq") => QuiescePolicy::Selective,
        _ => QuiescePolicy::Always,
    };
    let threads: usize = opt_parse(args, "--threads", 4);
    let ops: u64 = opt_parse(args, "--ops", 200_000);

    let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
    sys.stm.set_policy(policy);
    {
        let th = sys.register();
        for k in (0..set.key_space()).step_by(2) {
            set.insert(&th, k);
        }
    }
    sys.reset_stats();
    let t0 = std::time::Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let sys = Arc::clone(&sys);
            let set = Arc::clone(&set);
            std::thread::spawn(move || {
                let th = sys.register();
                let mut rng = tle_repro::base::rng::XorShift64::new(t as u64);
                for _ in 0..ops {
                    let k = rng.below(set.key_space());
                    match rng.below(4) {
                        0 => {
                            set.insert(&th, k);
                        }
                        1 => {
                            set.remove(&th, k);
                        }
                        _ => {
                            set.contains(&th, k);
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let secs = t0.elapsed().as_secs_f64();
    println!(
        "{kind} set, {} policy, {threads} threads: {:.3} Mops/s",
        policy.label(),
        threads as f64 * ops as f64 / secs / 1e6
    );
    print_stats(&sys);
    0
}
