//! The per-block codec: RLE1 → BWT → MTF → zero-run symbols → canonical
//! Huffman, with a CRC-checked header. This is the unit of work PBZip2's
//! consumer threads execute outside any critical section.

use crate::bitio::{BitReader, BitWriter};
use crate::bwt::{bwt_decode, bwt_encode_into, BwtScratch};
use crate::crc::crc32;
use crate::huffman::{self, ALPHA, EOB};
use crate::mtf::{mtf_decode, mtf_encode_in_place};
use crate::rle::{rle1_decode, rle1_encode_into};
use crate::CodecError;
use std::cell::RefCell;

/// Block magic ("TZB1" — TLE-repro bzip-like block, v1).
const MAGIC: u32 = 0x545A_4231;

/// Bits in front of the symbol stream: five header words, then five bits of
/// code length per symbol.
const HEADER_BITS: u64 = 5 * 32 + 5 * ALPHA as u64;

/// The intermediate buffers of [`compress_block`]. A pipeline worker runs
/// block after block of one size, so each thread keeps its set and the
/// second block on allocates nothing but its output.
#[derive(Default)]
struct Stages {
    rle: Vec<u8>,
    sort: BwtScratch,
    /// The BWT's last column, then its move-to-front ranks in place.
    ranks: Vec<u8>,
    syms: Vec<u16>,
}

thread_local! {
    static STAGES: RefCell<Stages> = RefCell::default();
}

/// Compress one block.
pub fn compress_block(data: &[u8]) -> Vec<u8> {
    STAGES.with_borrow_mut(|st| {
        let crc = crc32(data);
        rle1_encode_into(data, &mut st.rle);
        let primary = bwt_encode_into(&st.rle, &mut st.sort, &mut st.ranks);
        mtf_encode_in_place(&mut st.ranks);
        huffman::to_symbols_into(&st.ranks, &mut st.syms);
        let mut freqs = [0u64; ALPHA];
        for &s in &st.syms {
            freqs[s as usize] += 1;
        }
        let lens = huffman::code_lengths(&freqs);

        // The output's exact size is known before the first bit is written.
        let bits = HEADER_BITS
            + freqs
                .iter()
                .zip(&lens)
                .map(|(&f, &l)| f * l as u64)
                .sum::<u64>();
        let mut w = BitWriter::with_capacity(bits.div_ceil(8) as usize);
        w.put_u32(MAGIC);
        w.put_u32(data.len() as u32);
        w.put_u32(crc);
        w.put_u32(st.rle.len() as u32);
        w.put_u32(primary);
        // Code-length table: 5 bits per symbol (MAX_LEN = 20 < 32).
        for &l in lens.iter() {
            w.put(l as u32, 5);
        }
        huffman::encode_symbols(&st.syms, &lens, &mut w);
        w.finish()
    })
}

/// Decompress one block produced by [`compress_block`].
pub fn decompress_block(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut r = BitReader::new(data);
    if r.get_u32().ok_or(CodecError::Truncated)? != MAGIC {
        return Err(CodecError::Malformed("bad block magic"));
    }
    let orig_len = r.get_u32().ok_or(CodecError::Truncated)? as usize;
    let crc = r.get_u32().ok_or(CodecError::Truncated)?;
    let rle_len = r.get_u32().ok_or(CodecError::Truncated)? as usize;
    let primary = r.get_u32().ok_or(CodecError::Truncated)?;
    let mut lens = [0u8; ALPHA];
    for l in lens.iter_mut() {
        *l = r.get(5).ok_or(CodecError::Truncated)? as u8;
    }
    if orig_len == 0 {
        return Ok(Vec::new());
    }
    let dec = huffman::Decoder::new(&lens)?;
    // Sized by what is decoded, not by the header: `rle_len` is read from
    // the stream and may claim up to 4 GiB.
    let mut syms = Vec::new();
    loop {
        let s = dec.decode(&mut r)?;
        syms.push(s);
        if s == EOB {
            break;
        }
        if syms.len() > rle_len.saturating_mul(2) + 64 {
            return Err(CodecError::Malformed("runaway symbol stream"));
        }
    }
    let mtf = huffman::from_symbols(&syms, rle_len)?;
    if mtf.len() != rle_len {
        return Err(CodecError::Malformed("RLE length mismatch"));
    }
    if primary as usize > rle_len {
        return Err(CodecError::Malformed("primary index out of range"));
    }
    let bwt = mtf_decode(&mtf);
    let rle = bwt_decode(&bwt, primary);
    let out = rle1_decode(&rle)?;
    if out.len() != orig_len {
        return Err(CodecError::Malformed("original length mismatch"));
    }
    let actual = crc32(&out);
    if actual != crc {
        return Err(CodecError::CrcMismatch {
            expected: crc,
            actual,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress_block(data);
        let d = decompress_block(&c).expect("decompress failed");
        assert_eq!(d, data);
    }

    #[test]
    fn empty_block() {
        roundtrip(b"");
    }

    #[test]
    fn tiny_blocks() {
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"aaaa");
        roundtrip(&[0u8]);
        roundtrip(&[255u8; 3]);
    }

    #[test]
    fn text_block_compresses() {
        let text = b"To be, or not to be, that is the question: Whether 'tis nobler in the mind to suffer the slings and arrows of outrageous fortune.".repeat(50);
        let c = compress_block(&text);
        assert!(
            c.len() < text.len() / 2,
            "expected >2x compression on repetitive text: {} -> {}",
            text.len(),
            c.len()
        );
        roundtrip(&text);
    }

    #[test]
    fn incompressible_block_roundtrips() {
        let mut rng = tle_base::rng::XorShift64::new(1);
        let data: Vec<u8> = (0..50_000).map(|_| rng.next_u64() as u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn highly_repetitive_block() {
        roundtrip(&vec![b'x'; 100_000]);
        let mut v = Vec::new();
        for i in 0..1000u32 {
            v.extend_from_slice(&i.to_le_bytes());
        }
        roundtrip(&v);
    }

    #[test]
    fn corrupted_magic_rejected() {
        let mut c = compress_block(b"hello world hello world");
        c[0] ^= 0xFF;
        assert!(matches!(
            decompress_block(&c),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn corrupted_payload_detected() {
        let data = b"some moderately long content for the block codec".repeat(20);
        let c = compress_block(&data);
        // Corrupt a byte well past the header.
        let mut bad = c.clone();
        let idx = bad.len() - 3;
        bad[idx] ^= 0x55;
        // CRC mismatch, malformed, or truncated: any Err is fine.
        if let Ok(out) = decompress_block(&bad) {
            panic!("corruption not detected; got {} bytes", out.len());
        }
    }

    #[test]
    fn truncated_stream_rejected() {
        let c = compress_block(b"truncate me please, thanks");
        for cut in [0, 2, 8, c.len() / 2] {
            assert!(decompress_block(&c[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn blocks_are_independent() {
        let a = compress_block(b"first block");
        let b = compress_block(b"second block");
        assert_eq!(decompress_block(&a).unwrap(), b"first block");
        assert_eq!(decompress_block(&b).unwrap(), b"second block");
    }
}
