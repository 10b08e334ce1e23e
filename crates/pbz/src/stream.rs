//! Streaming `io::Write`/`io::Read` adapters over the parallel pipeline —
//! the interface a PBZip2-style tool exposes to file-oriented callers.
//!
//! [`StreamCompressor`] buffers writes into pipeline blocks and compresses
//! each full block in parallel; [`StreamDecompressor`] parses the framed
//! stream and yields decompressed bytes incrementally.

use crate::pipeline::{compress_parallel, PipelineConfig};
use crate::sink::OrderedSink;
use crate::{decompress_block, CodecError};
use std::io::{self, Read, Write};
use std::sync::Arc;
use tle_core::TmSystem;

/// A `Write` sink that compresses its input with the parallel pipeline.
///
/// Data is accumulated until `block_size` bytes are available, then the
/// whole backlog is flushed through [`compress_parallel`] on
/// [`StreamCompressor::finish`] (or when the backlog exceeds
/// `flush_threshold` blocks). Output frames append to the inner writer in
/// order, so concatenated flushes form one valid stream.
pub struct StreamCompressor<W: Write> {
    sys: Arc<TmSystem>,
    cfg: PipelineConfig,
    inner: W,
    backlog: Vec<u8>,
    /// Flush the backlog once it holds this many full blocks.
    flush_threshold_blocks: usize,
    bytes_in: u64,
    bytes_out: u64,
}

impl<W: Write> StreamCompressor<W> {
    /// Wrap `inner` with the given pipeline configuration. A block size
    /// of 0 means 1, as in [`compress_parallel`].
    pub fn new(sys: Arc<TmSystem>, mut cfg: PipelineConfig, inner: W) -> Self {
        cfg.block_size = cfg.block_size.max(1);
        StreamCompressor {
            sys,
            cfg,
            inner,
            backlog: Vec::new(),
            flush_threshold_blocks: 16,
            bytes_in: 0,
            bytes_out: 0,
        }
    }

    /// Total uncompressed bytes accepted so far.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in
    }

    /// Total compressed bytes emitted so far (excludes the open backlog).
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out
    }

    fn flush_backlog(&mut self, all: bool) -> io::Result<()> {
        let keep = if all {
            0
        } else {
            self.backlog.len() % self.cfg.block_size
        };
        let cut = self.backlog.len() - keep;
        if cut == 0 {
            return Ok(());
        }
        let tail = self.backlog.split_off(cut);
        let full_blocks = std::mem::replace(&mut self.backlog, tail);
        let compressed = compress_parallel(&self.sys, &full_blocks, &self.cfg);
        self.bytes_out += compressed.len() as u64;
        self.inner.write_all(&compressed)?;
        Ok(())
    }

    /// Compress any remaining buffered data and return the inner writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.flush_backlog(true)?;
        self.inner.flush()?;
        Ok(self.inner)
    }
}

impl<W: Write> Write for StreamCompressor<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.backlog.extend_from_slice(buf);
        self.bytes_in += buf.len() as u64;
        if self.backlog.len() >= self.flush_threshold_blocks * self.cfg.block_size {
            self.flush_backlog(false)?;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        // Only full blocks can flush early; the remainder waits for
        // `finish` (block framing must not split).
        self.flush_backlog(false)?;
        self.inner.flush()
    }
}

/// A `Read` source that decompresses a framed stream incrementally
/// (block by block — bounded memory regardless of stream size).
pub struct StreamDecompressor<R: Read> {
    inner: R,
    current: Vec<u8>,
    pos: usize,
    done: bool,
}

impl<R: Read> StreamDecompressor<R> {
    /// Wrap a framed compressed stream.
    pub fn new(inner: R) -> Self {
        StreamDecompressor {
            inner,
            current: Vec::new(),
            pos: 0,
            done: false,
        }
    }

    fn refill(&mut self) -> io::Result<()> {
        let mut len8 = [0u8; 8];
        match self.inner.read_exact(&mut len8) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                self.done = true;
                return Ok(());
            }
            Err(e) => return Err(e),
        }
        let len = u64::from_le_bytes(len8) as usize;
        if len > 1 << 30 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "implausible frame length",
            ));
        }
        let mut frame = vec![0u8; len];
        self.inner.read_exact(&mut frame)?;
        self.current = decompress_block(&frame).map_err(codec_to_io)?;
        self.pos = 0;
        Ok(())
    }
}

fn codec_to_io(e: CodecError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

impl<R: Read> Read for StreamDecompressor<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if self.pos < self.current.len() {
                let n = (self.current.len() - self.pos).min(buf.len());
                buf[..n].copy_from_slice(&self.current[self.pos..self.pos + n]);
                self.pos += n;
                return Ok(n);
            }
            if self.done {
                return Ok(0);
            }
            self.refill()?;
        }
    }
}

/// Convenience: split frames written by [`OrderedSink`] and decompress all.
pub fn decompress_all(compressed: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    for f in OrderedSink::split_frames(compressed)? {
        out.extend_from_slice(&decompress_block(f)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::gen_text;
    use tle_core::AlgoMode;

    fn sys() -> Arc<TmSystem> {
        Arc::new(TmSystem::new(AlgoMode::StmCondvar))
    }

    fn cfg(block: usize) -> PipelineConfig {
        PipelineConfig {
            workers: 2,
            block_size: block,
            fifo_cap: 4,
        }
    }

    #[test]
    fn write_then_read_roundtrip() {
        let data = gen_text(31, 100_000);
        let mut c = StreamCompressor::new(sys(), cfg(8_000), Vec::new());
        // Dribble in odd-sized chunks.
        for chunk in data.chunks(1234) {
            c.write_all(chunk).unwrap();
        }
        assert_eq!(c.bytes_in(), data.len() as u64);
        let compressed = c.finish().unwrap();
        assert!(compressed.len() < data.len());

        let mut d = StreamDecompressor::new(&compressed[..]);
        let mut out = Vec::new();
        d.read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn empty_stream() {
        let c = StreamCompressor::new(sys(), cfg(1000), Vec::new());
        let compressed = c.finish().unwrap();
        assert!(compressed.is_empty());
        let mut d = StreamDecompressor::new(&compressed[..]);
        let mut out = Vec::new();
        d.read_to_end(&mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn early_flush_produces_valid_concatenation() {
        let data = gen_text(5, 50_000);
        let mut c = StreamCompressor::new(sys(), cfg(4_000), Vec::new());
        c.write_all(&data[..30_000]).unwrap();
        c.flush().unwrap(); // full blocks flushed, remainder retained
        c.write_all(&data[30_000..]).unwrap();
        let compressed = c.finish().unwrap();
        assert_eq!(decompress_all(&compressed).unwrap(), data);
    }

    #[test]
    fn small_reads_from_decompressor() {
        let data = gen_text(9, 20_000);
        let mut c = StreamCompressor::new(sys(), cfg(3_000), Vec::new());
        c.write_all(&data).unwrap();
        let compressed = c.finish().unwrap();
        let mut d = StreamDecompressor::new(&compressed[..]);
        let mut out = Vec::new();
        let mut buf = [0u8; 7]; // deliberately tiny reads
        loop {
            let n = d.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            out.extend_from_slice(&buf[..n]);
        }
        assert_eq!(out, data);
    }

    #[test]
    fn block_size_zero_means_one() {
        let data = gen_text(4, 300);
        let mut c = StreamCompressor::new(sys(), cfg(0), Vec::new());
        c.write_all(&data[..100]).unwrap();
        c.flush().unwrap();
        c.write_all(&data[100..]).unwrap();
        let compressed = c.finish().unwrap();
        assert_eq!(compressed, crate::compress_serial(&data, 1));
        assert_eq!(decompress_all(&compressed).unwrap(), data);
    }

    #[test]
    fn corrupt_stream_is_io_error_not_panic() {
        let data = gen_text(2, 10_000);
        let mut c = StreamCompressor::new(sys(), cfg(2_000), Vec::new());
        c.write_all(&data).unwrap();
        let mut compressed = c.finish().unwrap();
        let n = compressed.len();
        compressed[n / 2] ^= 0xFF;
        let mut d = StreamDecompressor::new(&compressed[..]);
        let mut out = Vec::new();
        assert!(d.read_to_end(&mut out).is_err());
    }

    #[test]
    fn compressor_stream_matches_oneshot() {
        let data = gen_text(77, 64_000);
        let mut c = StreamCompressor::new(sys(), cfg(8_000), Vec::new());
        c.write_all(&data).unwrap();
        let streamed = c.finish().unwrap();
        let oneshot = crate::compress_serial(&data, 8_000);
        assert_eq!(
            streamed, oneshot,
            "stream framing must match one-shot output"
        );
    }
}
