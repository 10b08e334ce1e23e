//! The application subcommands: `gen`, `compress`, `decompress`, `encode`
//! and `micro`. Each prints the TM statistics of its run, so the tool
//! doubles as a quick probe of how an algorithm behaves on a workload.

use crate::args::Args;
use crate::fail;
use std::io::{Read, Write};
use std::process::ExitCode;
use std::sync::Arc;
use tle_bench::workloads::{micro_trial, Mix, TrialStats, FIG5_CONFIGS};
use tle_repro::pbz::{PipelineConfig, StreamCompressor, StreamDecompressor};
use tle_repro::prelude::*;
use tle_repro::wfe::{encode_video, EncoderConfig, VideoSource};

fn print_stats(stats: &TrialStats) {
    println!(
        "tm-stats: stm commits={} aborts={} quiesces={} skipped={} | \
         htm commits={} aborts={} | serial fallbacks={}",
        stats.stm.commits,
        stats.stm.aborts,
        stats.stm.quiesces,
        stats.stm.quiesce_skipped,
        stats.htm_commits,
        stats.htm_aborts,
        stats.serial_fallbacks
    );
}

pub fn gen(args: &Args) -> Result<ExitCode, String> {
    let bytes: usize = args.get("--bytes", 1_000_000)?;
    let seed: u64 = args.get("--seed", 0x650)?;
    let out: String = args.opt("--out")?.ok_or("--out FILE is required")?;
    let data = tle_repro::pbz::gen_text(seed, bytes);
    if let Err(e) = std::fs::write(&out, &data) {
        return Ok(fail(format!("gen: cannot write {out}: {e}")));
    }
    println!("wrote {bytes} bytes of synthetic text to {out}");
    Ok(ExitCode::SUCCESS)
}

pub fn compress(args: &Args) -> Result<ExitCode, String> {
    let threads: usize = args.get("--threads", 4)?;
    let block_size: usize = args.get("--block", 300_000)?;
    if block_size == 0 {
        return Err("--block must be non-zero".into());
    }
    let cfg = PipelineConfig {
        workers: threads,
        block_size,
        fifo_cap: 2 * threads.max(2),
    };
    codec(args, args.get("--mode", AlgoMode::StmCondvar)?, Some(cfg))
}

pub fn decompress(args: &Args) -> Result<ExitCode, String> {
    codec(args, AlgoMode::StmCondvar, None)
}

/// Compress (`cfg` is the pipeline) or decompress `IN` into `OUT`.
fn codec(args: &Args, mode: AlgoMode, cfg: Option<PipelineConfig>) -> Result<ExitCode, String> {
    let [input, output] = &args.positionals[..] else {
        unreachable!("the table declares exactly IN OUT");
    };
    let sys = Arc::new(TmSystem::new(mode));
    let data = match std::fs::read(input) {
        Ok(d) => d,
        Err(e) => return Ok(fail(format!("cannot read {input}: {e}"))),
    };
    let verb = if cfg.is_some() {
        "compressed"
    } else {
        "decompressed"
    };
    let t0 = std::time::Instant::now();
    let result = match cfg {
        None => {
            let mut out = Vec::new();
            let mut d = StreamDecompressor::new(&data[..]);
            d.read_to_end(&mut out).map(|_| out)
        }
        Some(cfg) => {
            let mut c = StreamCompressor::new(Arc::clone(&sys), cfg, Vec::new());
            c.write_all(&data).and_then(|_| c.finish())
        }
    };
    let out_bytes = match result {
        Ok(b) => b,
        Err(e) => return Ok(fail(format!("codec error: {e}"))),
    };
    let secs = t0.elapsed().as_secs_f64();
    if let Err(e) = std::fs::write(output, &out_bytes) {
        return Ok(fail(format!("cannot write {output}: {e}")));
    }
    let (n_in, n_out, label) = (data.len(), out_bytes.len(), mode.label());
    let rate = n_in as f64 / secs / 1e6;
    println!("{verb} {n_in} -> {n_out} bytes in {secs:.3}s ({rate:.1} MB/s) under {label}");
    print_stats(&TrialStats::capture(&sys));
    Ok(ExitCode::SUCCESS)
}

pub fn encode(args: &Args) -> Result<ExitCode, String> {
    let mode = args.get("--mode", AlgoMode::StmCondvar)?;
    let width: usize = args.get("--width", 160)?;
    let height: usize = args.get("--height", 96)?;
    let frames: usize = args.get("--frames", 16)?;
    let cfg = EncoderConfig {
        workers: args.get("--threads", 4)?,
        qp: args.get("--qp", 12)?,
        keyframe_interval: 8,
        lookahead_depth: 4,
        target_bits_per_frame: args.opt("--bitrate")?,
        frame_threads: args.get("--frame-threads", 3)?,
        slices: args.get("--slices", 1)?,
    };
    let seed = args.get("--seed", 0xFEED)?;
    if !width.is_multiple_of(16) || !height.is_multiple_of(16) {
        return Err("width/height must be multiples of 16".into());
    }
    let sys = Arc::new(TmSystem::new(mode));
    let source = VideoSource::new(width, height, frames, seed);
    let t0 = std::time::Instant::now();
    let video = encode_video(&sys, &source, &cfg);
    let secs = t0.elapsed().as_secs_f64();
    let (label, bits, psnr) = (mode.label(), video.total_bits, video.mean_psnr);
    println!(
        "encoded {width}x{height} x{frames} frames in {secs:.3}s under {label}: \
         {bits} bits total, {psnr:.1} dB mean PSNR"
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
    print_stats(&TrialStats::capture(&sys));
    Ok(ExitCode::SUCCESS)
}

pub fn micro(args: &Args) -> Result<ExitCode, String> {
    let kind: String = args.get("--set", "hash".into())?;
    if !matches!(kind.as_str(), "list" | "hash" | "tree") {
        return Err(format!("--set: `{kind}` is not list, hash or tree"));
    }
    let policy: String = args.get("--policy", "stm".into())?;
    let (label, mode, policy) = match policy.as_str() {
        "stm" => FIG5_CONFIGS[0],
        "noq" => FIG5_CONFIGS[1],
        "selectnoq" => FIG5_CONFIGS[2],
        _ => return Err(format!("--policy: `{policy}` is not stm, noq or selectnoq")),
    };
    let threads: usize = args.get("--threads", 4)?;
    let ops: u64 = args.get("--ops", 200_000)?;
    let (tput, stats) = micro_trial(&kind, mode, policy, threads, Mix::HalfLookup, ops);
    println!(
        "{kind} set, {label} policy, {threads} threads: {:.3} Mops/s",
        tput / 1e6
    );
    print_stats(&stats);
    Ok(ExitCode::SUCCESS)
}
