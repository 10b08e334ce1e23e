//! End-to-end application tests spanning the whole stack: the PBZip2
//! pipeline and the wavefront encoder, run under all five algorithms with
//! output equality and integrity checks.

use std::sync::Arc;
use tle_repro::base::stats::Stat;
use tle_repro::pbz::{
    compress_parallel, compress_serial, decompress_parallel, decompress_serial, gen_text,
    PipelineConfig,
};
use tle_repro::prelude::*;
use tle_repro::wfe::{encode_video, EncoderConfig, VideoSource};

#[test]
fn pbzip_end_to_end_all_modes_match_serial() {
    let input = gen_text(0xAB, 200_000);
    let block = 25_000;
    let serial = compress_serial(&input, block);
    assert!(serial.len() < input.len(), "input should be compressible");
    for mode in ALL_MODES {
        for workers in [1usize, 4] {
            let sys = Arc::new(TmSystem::new(mode));
            let cfg = PipelineConfig {
                workers,
                block_size: block,
                fifo_cap: 4,
            };
            let c = compress_parallel(&sys, &input, &cfg);
            assert_eq!(
                c, serial,
                "parallel stream differs from serial under {mode:?}/{workers}w"
            );
            let d = decompress_parallel(&sys, &c, &cfg).unwrap();
            assert_eq!(d, input);
        }
    }
}

#[test]
fn pbzip_block_size_sweep_roundtrips() {
    let input = gen_text(0xCD, 500_000);
    let sys = Arc::new(TmSystem::new(AlgoMode::HtmCondvar));
    for block in [10_000usize, 100_000, 300_000, 900_000] {
        let cfg = PipelineConfig {
            workers: 3,
            block_size: block,
            fifo_cap: 4,
        };
        let c = compress_parallel(&sys, &input, &cfg);
        assert_eq!(
            decompress_serial(&c).unwrap(),
            input,
            "block size {block} failed"
        );
    }
}

#[test]
fn pbzip_statistics_are_recorded() {
    let input = gen_text(0xEF, 300_000);
    let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
    let cfg = PipelineConfig {
        workers: 4,
        block_size: 30_000,
        fifo_cap: 4,
    };
    let _ = compress_parallel(&sys, &input, &cfg);
    let stm = sys.stm.stats.snapshot();
    assert!(stm.commits > 20, "pipeline should commit many transactions");
    // The paper's observation: conflicts are rare on the queue workload.
    assert!(
        stm.abort_rate() < 0.2,
        "unexpectedly high abort rate {:.3}",
        stm.abort_rate()
    );
}

#[test]
fn encoder_output_identical_across_all_modes_and_threads() {
    let source = VideoSource::new(96, 64, 5, 0xFEED);
    let golden = {
        let sys = Arc::new(TmSystem::new(AlgoMode::Baseline));
        encode_video(
            &sys,
            &source,
            &EncoderConfig {
                workers: 1,
                ..EncoderConfig::default()
            },
        )
    };
    for mode in ALL_MODES {
        for workers in [2usize, 4] {
            let sys = Arc::new(TmSystem::new(mode));
            let v = encode_video(
                &sys,
                &source,
                &EncoderConfig {
                    workers,
                    ..EncoderConfig::default()
                },
            );
            let a: Vec<u32> = golden.frames.iter().map(|f| f.digest).collect();
            let b: Vec<u32> = v.frames.iter().map(|f| f.digest).collect();
            assert_eq!(a, b, "digest mismatch under {mode:?}/{workers}w");
            assert_eq!(golden.total_bits, v.total_bits);
        }
    }
}

#[test]
fn encoder_quality_is_reasonable() {
    let source = VideoSource::new(96, 64, 6, 7);
    let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
    let v = encode_video(
        &sys,
        &source,
        &EncoderConfig {
            workers: 4,
            qp: 12,
            ..EncoderConfig::default()
        },
    );
    assert!(
        v.mean_psnr > 30.0,
        "QP 12 should exceed 30 dB, got {:.1}",
        v.mean_psnr
    );
    // Inter frames exist and save bits.
    assert!(v.frames.iter().any(|f| !f.keyframe));
}

#[test]
fn encoder_htm_stats_show_activity() {
    let source = VideoSource::new(96, 64, 4, 11);
    let sys = Arc::new(TmSystem::new(AlgoMode::HtmCondvar));
    let _ = encode_video(
        &sys,
        &source,
        &EncoderConfig {
            workers: 4,
            ..EncoderConfig::default()
        },
    );
    assert!(
        sys.htm.stats.get(Stat::Commits) > 100,
        "wavefront should commit many hardware transactions"
    );
}

#[test]
fn compressing_encoded_video_metadata_roundtrips() {
    // Cross-app smoke: serialize encoder results through the compressor.
    let source = VideoSource::new(64, 48, 3, 3);
    let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvarNoQuiesce));
    let v = encode_video(&sys, &source, &EncoderConfig::default());
    let mut payload = Vec::new();
    for f in &v.frames {
        payload.extend_from_slice(&f.bits.to_le_bytes());
        payload.extend_from_slice(&f.digest.to_le_bytes());
    }
    let cfg = PipelineConfig {
        workers: 2,
        block_size: 64,
        fifo_cap: 2,
    };
    let c = compress_parallel(&sys, &payload, &cfg);
    assert_eq!(decompress_parallel(&sys, &c, &cfg).unwrap(), payload);
}
