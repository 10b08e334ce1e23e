//! `pbz-pipeline`: the paper's PBZip2. The bypass workload: a block costs
//! milliseconds of codec work and about five critical sections, so a
//! TM-layer optimisation predicts *no change* here while `pbz` codec work
//! shows fully — and it is the only workload whose threads block in
//! `TxCondvar`/`TleFifo`.

use crate::drive::{Load, Mode, Observe, Trial, MODES};
use crate::spans::Tracer;
use crate::yard::{on_fresh_thread, Block};
use crate::{Sizing, Workload};
use std::sync::Arc;
use std::time::Instant;
use tle_core::TmSystem;
use tle_pbz::bitio::BitWriter;
use tle_pbz::huffman::{self, ALPHA};
use tle_pbz::{
    bwt::bwt_encode, compress_parallel, crc::crc32, decompress_serial, gen_text, mtf::mtf_encode,
    rle::rle1_encode, PipelineConfig,
};

pub const BLOCK: usize = 100_000;

/// One consumer thread per load thread; the producer is the calling
/// thread and spends its time blocked on the full queue.
pub fn pipeline_config(load: Load) -> PipelineConfig {
    PipelineConfig {
        workers: load as usize,
        block_size: BLOCK,
        fifo_cap: 4,
    }
}

/// Round-trip check: does `compressed` decode back to `input`?
pub fn round_trips(input: &[u8], compressed: &[u8]) -> bool {
    decompress_serial(compressed).is_ok_and(|out| out == input)
}

/// One block through the codec stages `compress_block` runs, each under
/// its own span (the block header and code-length table are not written,
/// so the result is not a decodable block).
pub fn staged_block(data: &[u8], tr: &mut Tracer) {
    tr.open("pbz.block");
    tr.open("pbz.crc");
    std::hint::black_box(crc32(data));
    tr.close();
    tr.open("pbz.rle");
    let rle = rle1_encode(data);
    tr.close();
    tr.open("pbz.bwt");
    let (bwt, primary) = bwt_encode(&rle);
    tr.close();
    tr.open("pbz.mtf");
    let mtf = mtf_encode(&bwt);
    tr.close();
    tr.open("pbz.huffman");
    let syms = huffman::to_symbols(&mtf);
    let mut freqs = [0u64; ALPHA];
    for &s in &syms {
        freqs[s as usize] += 1;
    }
    let lens = huffman::code_lengths(&freqs);
    let mut w = BitWriter::new();
    huffman::encode_symbols(&syms, &lens, &mut w);
    std::hint::black_box((w.finish(), primary));
    tr.close();
    tr.close();
}

pub struct Pbz {
    corpus: Vec<u8>,
    systems: Vec<Arc<TmSystem>>,
    /// The first full output; every later one must equal it byte for byte
    /// (so compressed length cannot differ across modes), and it must
    /// round-trip.
    reference: Vec<u8>,
    small_len: usize,
    small_calls: u64,
    yard: Block,
    yard_passes: u64,
}

impl Pbz {
    pub fn setup(seed: u64, sz: &Sizing) -> Pbz {
        let mut w = Pbz {
            corpus: gen_text(seed, sz.pbz_corpus),
            systems: MODES
                .iter()
                .map(|m| Arc::new(TmSystem::new(m.algo())))
                .collect(),
            reference: Vec::new(),
            small_len: sz.pbz_small_len,
            small_calls: sz.pbz_small_calls,
            yard: Block::new(BLOCK),
            yard_passes: sz.pbz_yard_passes,
        };
        // Warm-up: one small call per mode (thread spawn, registration,
        // allocator) and the reference output.
        let cfg = pipeline_config(Load::One);
        for m in MODES {
            compress_parallel(&w.systems[m.index()], &w.corpus[..w.small_len], &cfg);
        }
        w.reference = compress_parallel(&w.systems[0], &w.corpus, &cfg);
        w.yard.pass(1);
        w
    }

    fn blocks(&self) -> u64 {
        self.corpus.len().div_ceil(BLOCK) as u64
    }

    /// Check a full-corpus output against the reference.
    pub fn check_full(&self, out: &[u8]) -> u64 {
        (out != self.reference.as_slice()) as u64
    }

    /// Small-input latency: one whole `compress_parallel` call over a slice
    /// of the corpus per sample — thread spawn, registration, the FIFO
    /// hand-offs, the ordered sink and the joins, with little codec work.
    fn small_calls(&self, sys: &Arc<TmSystem>, cfg: &PipelineConfig, lat: &mut Vec<u32>) -> Trial {
        let stride = (self.corpus.len() - self.small_len) / self.small_calls as usize;
        let mut fails = 0;
        let t0 = Instant::now();
        for i in 0..self.small_calls as usize {
            let input = &self.corpus[i * stride..i * stride + self.small_len];
            let c0 = Instant::now();
            let out = compress_parallel(sys, input, cfg);
            lat.push(c0.elapsed().as_nanos().min(u32::MAX as u128) as u32);
            if i == 0 {
                fails += !round_trips(input, &out) as u64;
            }
        }
        Trial {
            ops: self.small_calls,
            secs: t0.elapsed().as_secs_f64(),
            fails,
        }
    }
}

impl Workload for Pbz {
    fn trial(&mut self, mode: Mode, load: Load, _round: u64, observe: Observe<'_>) -> Trial {
        let sys = &self.systems[mode.index()];
        let cfg = pipeline_config(load);
        match observe {
            Observe::Timed(lat) => self.small_calls(sys, &cfg, lat),
            Observe::Plain => {
                let t0 = Instant::now();
                let out = compress_parallel(sys, &self.corpus, &cfg);
                let secs = t0.elapsed().as_secs_f64();
                Trial {
                    ops: self.blocks(),
                    secs,
                    fails: self.check_full(&out),
                }
            }
            Observe::Traced(tr) => {
                let t0 = Instant::now();
                tr.open("pbz.compress_parallel");
                let out = compress_parallel(sys, &self.corpus, &cfg);
                tr.close();
                let secs = t0.elapsed().as_secs_f64();
                staged_block(&self.corpus[..BLOCK.min(self.corpus.len())], tr);
                Trial {
                    ops: self.blocks(),
                    secs,
                    fails: self.check_full(&out),
                }
            }
        }
    }

    fn yardstick(&mut self, _round: u64) -> f64 {
        let n = self.yard_passes;
        n as f64 / on_fresh_thread(|| self.yard.pass(n))
    }

    fn system(&self, mode: Mode) -> &Arc<TmSystem> {
        &self.systems[mode.index()]
    }

    fn finish(&mut self) -> u64 {
        !round_trips(&self.corpus, &self.reference) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_compressed_byte_fails_the_run() {
        let mut w = Pbz::setup(1, &Sizing::quick());
        assert_eq!(w.trial(Mode::Stm, Load::One, 0, Observe::Plain).fails, 0);
        assert_eq!(w.finish(), 0);

        let mut bad = w.reference.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x55;
        assert!(!round_trips(&w.corpus, &bad));
        assert_eq!(w.check_full(&bad), 1);

        // With the corruption planted in the reference, every output
        // differs from it and the end-of-run round trip fails.
        w.reference = bad;
        let t = w.trial(Mode::Stm, Load::Two, 1, Observe::Plain);
        let failed = t.fails + w.finish();
        assert_eq!(failed, 2);
        let report = crate::tests::report_with(t.ops, failed);
        assert!(report.fail_share() > 0.0);
        assert_ne!(report.exit_code(), 0);
    }

    #[test]
    fn staged_block_covers_every_codec_stage() {
        let data = gen_text(3, 10_000);
        let mut tr = Tracer::new(Instant::now());
        staged_block(&data, &mut tr);
        let names: Vec<&str> = tr.spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "pbz.block",
                "pbz.crc",
                "pbz.rle",
                "pbz.bwt",
                "pbz.mtf",
                "pbz.huffman"
            ]
        );
        assert!(tr.spans[1..].iter().all(|s| s.parent == 0));
    }
}
