//! The serial→parallel→serial pipeline (PBZip2's architecture).
//!
//! A producer splits the input into blocks and feeds a bounded [`TleFifo`];
//! `workers` consumer threads compress/decompress blocks; an
//! [`OrderedSink`] reassembles output in block order. All synchronization
//! goes through the TLE runtime, so the whole pipeline runs under any of
//! the paper's five algorithms unchanged — this is the program measured in
//! Figure 2.

use crate::block::{compress_block, decompress_block};
use crate::fifo::TleFifo;
use crate::sink::OrderedSink;
use crate::CodecError;
use std::sync::Arc;
use tle_core::TmSystem;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Number of consumer (worker) threads; the producer and the benchmark
    /// harness thread are extra, as in the paper's setup.
    pub workers: usize,
    /// Input block size in bytes (the paper sweeps 100K/300K/900K).
    pub block_size: usize,
    /// Capacity of the inter-stage queue.
    pub fifo_cap: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            workers: 4,
            block_size: 900 * 1000,
            fifo_cap: 16,
        }
    }
}

struct WorkItem {
    id: u64,
    data: Vec<u8>,
}

/// Compress `input` in parallel; output is a framed stream of compressed
/// blocks (readable by [`decompress_parallel`] and [`decompress_serial`]).
pub fn compress_parallel(sys: &Arc<TmSystem>, input: &[u8], cfg: &PipelineConfig) -> Vec<u8> {
    run_pipeline(sys, cfg, split_blocks(input, cfg.block_size), |d| {
        compress_block(&d)
    })
}

/// Decompress a stream produced by the compressor, in parallel.
pub fn decompress_parallel(
    sys: &Arc<TmSystem>,
    compressed: &[u8],
    cfg: &PipelineConfig,
) -> Result<Vec<u8>, CodecError> {
    let frames = OrderedSink::split_frames(compressed)?;
    let blocks: Vec<Vec<u8>> = frames.iter().map(|f| f.to_vec()).collect();
    let framed = run_pipeline(sys, cfg, blocks, |d| {
        decompress_block(&d).expect("corrupt block in parallel decompress")
    });
    // The sink re-frames; flatten back to raw bytes.
    let out_frames = OrderedSink::split_frames(&framed)?;
    let mut out = Vec::with_capacity(out_frames.iter().map(|f| f.len()).sum());
    for f in out_frames {
        out.extend_from_slice(f);
    }
    Ok(out)
}

fn split_blocks(input: &[u8], block_size: usize) -> Vec<Vec<u8>> {
    if input.is_empty() {
        return Vec::new();
    }
    input
        .chunks(block_size.max(1))
        .map(|c| c.to_vec())
        .collect()
}

/// The generic serial→parallel→serial skeleton.
fn run_pipeline(
    sys: &Arc<TmSystem>,
    cfg: &PipelineConfig,
    blocks: Vec<Vec<u8>>,
    work: impl Fn(Vec<u8>) -> Vec<u8> + Send + Sync + 'static,
) -> Vec<u8> {
    let queue: Arc<TleFifo<WorkItem>> = Arc::new(TleFifo::new("pbz-input", cfg.fifo_cap));
    let sink = Arc::new(OrderedSink::new());
    // Enroll the pipeline's locks in the per-lock adaptive controller
    // (no-ops unless the system was built with `.adaptive(true)`).
    sys.adopt_lock(queue.lock());
    sys.adopt_lock(sink.lock());
    let work = Arc::new(work);

    let consumers: Vec<_> = (0..cfg.workers.max(1))
        .map(|_| {
            let sys = Arc::clone(sys);
            let queue = Arc::clone(&queue);
            let sink = Arc::clone(&sink);
            let work = Arc::clone(&work);
            std::thread::spawn(move || {
                let th = sys.register();
                while let Some(item) = queue.pop(&th) {
                    let WorkItem { id, data } = *item;
                    // The heavy lifting happens outside every critical
                    // section, exactly as in PBZip2.
                    let out = work(data);
                    sink.submit(&th, id, &out);
                }
            })
        })
        .collect();

    // Producer stage (this thread).
    {
        let th = sys.register();
        for (id, data) in blocks.into_iter().enumerate() {
            queue
                .push(
                    &th,
                    Box::new(WorkItem {
                        id: id as u64,
                        data,
                    }),
                )
                .unwrap_or_else(|_| panic!("queue closed during production"));
        }
        queue.close(&th);
    }
    for c in consumers {
        c.join().unwrap();
    }
    Arc::try_unwrap(sink)
        .ok()
        .expect("all pipeline threads joined")
        .into_bytes()
}

/// Single-threaded reference compressor (same stream format).
pub fn compress_serial(input: &[u8], block_size: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for block in split_blocks(input, block_size) {
        let c = compress_block(&block);
        out.extend_from_slice(&(c.len() as u64).to_le_bytes());
        out.extend_from_slice(&c);
    }
    out
}

/// Single-threaded reference decompressor.
pub fn decompress_serial(compressed: &[u8]) -> Result<Vec<u8>, CodecError> {
    let frames = OrderedSink::split_frames(compressed)?;
    let mut out = Vec::new();
    for f in frames {
        out.extend_from_slice(&decompress_block(f)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::gen_text;
    use tle_core::{AlgoMode, TmSystem, ALL_MODES};

    fn cfg(workers: usize, block: usize) -> PipelineConfig {
        PipelineConfig {
            workers,
            block_size: block,
            fifo_cap: 4,
        }
    }

    #[test]
    fn serial_roundtrip() {
        let data = gen_text(11, 50_000);
        let c = compress_serial(&data, 8_000);
        assert!(c.len() < data.len());
        assert_eq!(decompress_serial(&c).unwrap(), data);
    }

    #[test]
    fn serial_stream_is_the_one_recorded_before_the_induced_sorter() {
        // Length and CRC-32 of this output at PR 18 (prefix-doubling sort,
        // bytewise CRC, `Vec` move-to-front). A suffix array is unique, so
        // a faster sorter may not move a byte; unlike the round trip, this
        // catches a tie-break or header drift the decoder would forgive.
        let c = compress_serial(&gen_text(42, 300_000), 100_000);
        assert_eq!(c.len(), 50_959);
        assert_eq!(crate::crc::crc32(&c), 0x5604_2587);
    }

    #[test]
    fn empty_input() {
        let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
        let c = compress_parallel(&sys, &[], &cfg(2, 1000));
        assert_eq!(decompress_parallel(&sys, &c, &cfg(2, 1000)).unwrap(), b"");
        assert_eq!(decompress_serial(&compress_serial(&[], 100)).unwrap(), b"");
    }

    #[test]
    fn parallel_output_equals_serial_output() {
        // Deterministic pipeline: same blocks, same order, same bytes.
        let data = gen_text(5, 60_000);
        let serial = compress_serial(&data, 7_000);
        let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
        let parallel = compress_parallel(&sys, &data, &cfg(3, 7_000));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn roundtrip_every_mode() {
        let data = gen_text(21, 40_000);
        for mode in ALL_MODES {
            let sys = Arc::new(TmSystem::new(mode));
            let c = compress_parallel(&sys, &data, &cfg(3, 5_000));
            let d = decompress_parallel(&sys, &c, &cfg(3, 5_000)).unwrap();
            assert_eq!(d, data, "pipeline corrupted data under {mode:?}");
        }
    }

    #[test]
    fn roundtrip_under_adaptive_controller() {
        // The pipeline adopts its queue/sink locks; with an aggressive
        // controller interval the run may flip lock modes mid-stream, and
        // the output must still be byte-identical to the serial codec.
        let data = gen_text(33, 40_000);
        let sys = Arc::new(
            TmSystem::builder()
                .mode(AlgoMode::HtmCondvar)
                .adaptive(true)
                .build(),
        );
        let ctrl = sys.start_controller(std::time::Duration::from_micros(100));
        let c = compress_parallel(&sys, &data, &cfg(3, 5_000));
        let d = decompress_parallel(&sys, &c, &cfg(3, 5_000)).unwrap();
        ctrl.stop();
        assert_eq!(d, data, "pipeline corrupted data under adaptation");
        assert_eq!(c, compress_serial(&data, 5_000));
    }

    #[test]
    fn block_boundary_edge_cases() {
        let sys = Arc::new(TmSystem::new(AlgoMode::HtmCondvar));
        for len in [1usize, 999, 1000, 1001, 2000, 2001] {
            let data = gen_text(len as u64, len);
            let c = compress_parallel(&sys, &data, &cfg(2, 1000));
            let d = decompress_parallel(&sys, &c, &cfg(2, 1000)).unwrap();
            assert_eq!(d, data, "len {len}");
        }
    }

    #[test]
    fn cross_compatibility_serial_and_parallel() {
        let data = gen_text(77, 30_000);
        let sys = Arc::new(TmSystem::new(AlgoMode::Baseline));
        let c_par = compress_parallel(&sys, &data, &cfg(4, 4_000));
        assert_eq!(decompress_serial(&c_par).unwrap(), data);
        let c_ser = compress_serial(&data, 4_000);
        assert_eq!(
            decompress_parallel(&sys, &c_ser, &cfg(4, 4_000)).unwrap(),
            data
        );
    }
}
