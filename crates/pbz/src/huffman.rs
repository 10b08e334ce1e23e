//! Canonical Huffman coding over a small symbol alphabet, plus the
//! BZip2-style zero-run ("RUNA/RUNB") front end.
//!
//! After MTF the stream is mostly zeros; BZip2 replaces zero runs with a
//! bijective base-2 numeral over two symbols before entropy coding. The
//! combined alphabet is:
//!
//! - `RUNA` (0) and `RUNB` (1): zero-run digits,
//! - `2..=256`: the MTF byte `b` encoded as `b + 1` (for `b >= 1`),
//! - `EOB` (257): end of block.

use crate::bitio::{BitReader, BitWriter};
use crate::CodecError;

/// Total alphabet size.
pub const ALPHA: usize = 258;
/// Zero-run digit "1".
pub const RUNA: u16 = 0;
/// Zero-run digit "2".
pub const RUNB: u16 = 1;
/// End of block.
pub const EOB: u16 = 257;
/// Maximum code length we will emit (rescaling enforces it).
pub const MAX_LEN: u32 = 20;

/// Convert an MTF byte stream into the RUNA/RUNB symbol stream (with EOB).
pub fn to_symbols(mtf: &[u8]) -> Vec<u16> {
    let mut out = Vec::new();
    to_symbols_into(mtf, &mut out);
    out
}

/// [`to_symbols`] into `out`, cleared first.
pub(crate) fn to_symbols_into(mtf: &[u8], out: &mut Vec<u16>) {
    out.clear();
    out.reserve(mtf.len() / 2 + 8);
    let mut zeros = 0u64;
    let flush = |zeros: &mut u64, out: &mut Vec<u16>| {
        // Bijective base-2: n -> digits in {1,2} (RUNA=1, RUNB=2).
        let mut n = *zeros;
        while n > 0 {
            if n & 1 == 1 {
                out.push(RUNA);
                n = (n - 1) / 2;
            } else {
                out.push(RUNB);
                n = (n - 2) / 2;
            }
        }
        *zeros = 0;
    };
    for &b in mtf {
        if b == 0 {
            zeros += 1;
        } else {
            flush(&mut zeros, out);
            out.push(b as u16 + 1);
        }
    }
    flush(&mut zeros, out);
    out.push(EOB);
}

/// Convert a symbol stream (ending in EOB) back to MTF bytes.
pub fn from_symbols(syms: &[u16]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(syms.len() * 2);
    let mut run = 0u64;
    let mut place = 1u64;
    let mut in_run = false;
    let flush = |run: &mut u64, place: &mut u64, in_run: &mut bool, out: &mut Vec<u8>| {
        for _ in 0..*run {
            out.push(0);
        }
        *run = 0;
        *place = 1;
        *in_run = false;
    };
    for &s in syms {
        match s {
            RUNA => {
                run += place;
                place *= 2;
                in_run = true;
            }
            RUNB => {
                run += 2 * place;
                place *= 2;
                in_run = true;
            }
            EOB => {
                flush(&mut run, &mut place, &mut in_run, &mut out);
                return Ok(out);
            }
            b => {
                flush(&mut run, &mut place, &mut in_run, &mut out);
                if b as usize >= ALPHA {
                    return Err(CodecError::Malformed("symbol out of range"));
                }
                out.push((b - 1) as u8);
            }
        }
    }
    Err(CodecError::Malformed("missing EOB"))
}

/// Compute canonical code lengths for the given symbol frequencies.
/// Frequencies are rescaled until the deepest code fits in [`MAX_LEN`].
pub fn code_lengths(freqs: &[u64; ALPHA]) -> [u8; ALPHA] {
    let mut f = *freqs;
    loop {
        let lens = huffman_lengths(&f);
        if lens.iter().all(|&l| (l as u32) <= MAX_LEN) {
            return lens;
        }
        // zlib-style flattening: halve (rounding up) and retry.
        for x in f.iter_mut() {
            if *x > 0 {
                *x = x.div_ceil(2);
            }
        }
    }
}

/// Plain Huffman code lengths (unbounded) for non-zero frequencies.
///
/// Two queues in place of a heap: with the leaves sorted by (weight,
/// symbol), merged nodes come into being in weight order, so the two
/// lightest nodes are always at the front of one queue or the other. A tie
/// goes to the leaf, and among merged nodes to the older one — the order a
/// heap keyed by (weight, node id) pops them in, leaves numbered first.
fn huffman_lengths(freqs: &[u64; ALPHA]) -> [u8; ALPHA] {
    let mut lens = [0u8; ALPHA];
    let mut leaves = [(0u64, 0u16); ALPHA];
    let mut n = 0;
    for (s, &f) in freqs.iter().enumerate() {
        if f > 0 {
            leaves[n] = (f, s as u16);
            n += 1;
        }
    }
    let leaves = &mut leaves[..n];
    match n {
        0 => return lens,
        1 => {
            lens[leaves[0].1 as usize] = 1;
            return lens;
        }
        _ => {}
    }
    leaves.sort_unstable();
    // Node ids: leaf i of the sorted order is i, merged node j is n + j.
    let mut merged = [0u64; ALPHA];
    let mut parent = [0usize; 2 * ALPHA];
    let (mut leaf, mut old) = (0, 0);
    for new in 0..n - 1 {
        for _ in 0..2 {
            let node = if leaf < n && (old == new || leaves[leaf].0 <= merged[old]) {
                leaf += 1;
                merged[new] += leaves[leaf - 1].0;
                leaf - 1
            } else {
                old += 1;
                merged[new] += merged[old - 1];
                n + old - 1
            };
            parent[node] = new;
        }
    }
    // A parent is merged after its children: depths fill in from the root,
    // merged node n - 2, downwards.
    let mut depth = [0u8; ALPHA];
    for j in (0..n - 2).rev() {
        depth[j] = depth[parent[n + j]] + 1;
    }
    for (i, &(_, s)) in leaves.iter().enumerate() {
        lens[s as usize] = depth[parent[i]] + 1;
    }
    lens
}

/// Assign canonical codes from lengths: shorter codes first, ties by symbol.
pub fn canonical_codes(lens: &[u8; ALPHA]) -> [u32; ALPHA] {
    let mut pairs = [(0u8, 0usize); ALPHA];
    let mut n = 0;
    for (s, &l) in lens.iter().enumerate() {
        if l > 0 {
            pairs[n] = (l, s);
            n += 1;
        }
    }
    let pairs = &mut pairs[..n];
    pairs.sort_unstable();
    let mut codes = [0u32; ALPHA];
    let mut code = 0u32;
    let mut prev_len = 0u8;
    for &(l, s) in pairs.iter() {
        code <<= l - prev_len;
        codes[s] = code;
        code += 1;
        prev_len = l;
    }
    codes
}

/// Encode `syms` with the canonical code described by `lens`.
pub fn encode_symbols(syms: &[u16], lens: &[u8; ALPHA], w: &mut BitWriter) {
    let codes = canonical_codes(lens);
    for &s in syms {
        let l = lens[s as usize];
        debug_assert!(l > 0, "symbol {s} has no code");
        w.put(codes[s as usize], l as u32);
    }
}

/// Canonical decoding tables.
pub struct Decoder {
    /// For each length `l`: (first code of length l, first canonical index).
    limits: Vec<(u32, u32, u32)>, // (len, max_code_exclusive, base_index)
    /// Symbols in canonical order.
    symbols: Vec<u16>,
}

impl Decoder {
    /// Build a decoder from code lengths.
    pub fn new(lens: &[u8; ALPHA]) -> Result<Self, CodecError> {
        let mut pairs: Vec<(u8, u16)> = lens
            .iter()
            .enumerate()
            .filter(|(_, &l)| l > 0)
            .map(|(s, &l)| (l, s as u16))
            .collect();
        pairs.sort_unstable();
        if pairs.is_empty() {
            return Err(CodecError::Malformed("empty Huffman table"));
        }
        let symbols: Vec<u16> = pairs.iter().map(|&(_, s)| s).collect();
        let mut limits = Vec::new();
        let mut code = 0u32;
        let mut idx = 0u32;
        let mut prev_len = 0u8;
        let mut i = 0;
        while i < pairs.len() {
            let l = pairs[i].0;
            code <<= l - prev_len;
            let start = i;
            while i < pairs.len() && pairs[i].0 == l {
                i += 1;
            }
            let count = (i - start) as u32;
            limits.push((l as u32, code + count, idx));
            code += count;
            idx += count;
            prev_len = l;
        }
        Ok(Decoder { limits, symbols })
    }

    /// Decode one symbol.
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u16, CodecError> {
        let mut code = 0u32;
        let mut len = 0u32;
        for &(l, max_code, base) in &self.limits {
            while len < l {
                code = (code << 1) | r.bit().ok_or(CodecError::Truncated)?;
                len += 1;
            }
            if code < max_code {
                // Offset within this length class: count codes before it.
                let first_code = max_code - (self.count_at(l));
                let off = code - first_code;
                return Ok(self.symbols[(base + off) as usize]);
            }
        }
        Err(CodecError::Malformed("invalid Huffman code"))
    }

    fn count_at(&self, l: u32) -> u32 {
        // Number of codes with length l.
        for (i, &(ll, max_code, base)) in self.limits.iter().enumerate() {
            if ll == l {
                let next_base = self
                    .limits
                    .get(i + 1)
                    .map(|&(_, _, b)| b)
                    .unwrap_or(self.symbols.len() as u32);
                let _ = max_code;
                return next_base - base;
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn freq_of(syms: &[u16]) -> [u64; ALPHA] {
        let mut f = [0u64; ALPHA];
        for &s in syms {
            f[s as usize] += 1;
        }
        f
    }

    fn roundtrip_syms(syms: &[u16]) {
        let f = freq_of(syms);
        let lens = code_lengths(&f);
        let mut w = BitWriter::new();
        encode_symbols(syms, &lens, &mut w);
        let bytes = w.finish();
        let dec = Decoder::new(&lens).unwrap();
        let mut r = BitReader::new(&bytes);
        for &s in syms {
            assert_eq!(dec.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn zero_run_bijective_coding() {
        for n in 0..200usize {
            let mtf = vec![0u8; n];
            let syms = to_symbols(&mtf);
            let back = from_symbols(&syms).unwrap();
            assert_eq!(back, mtf, "zero-run of length {n}");
        }
    }

    #[test]
    fn symbols_roundtrip_mixed_content() {
        let mtf = [0u8, 0, 0, 5, 0, 1, 255, 0, 0, 0, 0, 7];
        let syms = to_symbols(&mtf);
        assert_eq!(from_symbols(&syms).unwrap(), mtf);
        assert_eq!(*syms.last().unwrap(), EOB);
    }

    #[test]
    fn missing_eob_is_error() {
        assert!(from_symbols(&[RUNA, RUNB, 5]).is_err());
    }

    #[test]
    fn huffman_single_symbol() {
        roundtrip_syms(&[EOB]);
        roundtrip_syms(&[7, 7, 7, 7, EOB]);
    }

    #[test]
    fn huffman_two_symbols() {
        let syms: Vec<u16> = (0..100).map(|i| if i % 3 == 0 { 5 } else { 9 }).collect();
        roundtrip_syms(&syms);
    }

    #[test]
    fn huffman_skewed_distribution() {
        let mut syms = vec![2u16; 10_000];
        syms.extend_from_slice(&[3, 4, 5, 6, 7, 8, EOB]);
        roundtrip_syms(&syms);
    }

    #[test]
    fn huffman_full_alphabet() {
        let syms: Vec<u16> = (0..ALPHA as u16).cycle().take(5000).collect();
        roundtrip_syms(&syms);
    }

    #[test]
    fn code_lengths_respect_limit() {
        // Fibonacci-ish frequencies force deep trees without rescaling.
        let mut f = [0u64; ALPHA];
        let mut a = 1u64;
        let mut b = 1u64;
        for slot in f.iter_mut().take(50) {
            *slot = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let lens = code_lengths(&f);
        assert!(lens.iter().all(|&l| (l as u32) <= MAX_LEN));
        // Kraft inequality must hold (valid prefix code).
        let kraft: f64 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!(kraft <= 1.0 + 1e-9, "Kraft violated: {kraft}");
    }

    /// Code lengths from a heap keyed by (weight, node id) — the
    /// construction `huffman_lengths` used to run, whose tie-breaks the
    /// stream format has inherited.
    fn heap_lengths(freqs: &[u64; ALPHA]) -> [u8; ALPHA] {
        use std::cmp::Reverse;
        let mut heap: std::collections::BinaryHeap<_> = (0..ALPHA)
            .filter(|&s| freqs[s] > 0)
            .map(|s| Reverse((freqs[s], s)))
            .collect();
        let mut lens = [0u8; ALPHA];
        if heap.len() == 1 {
            lens[heap.pop().unwrap().0 .1] = 1;
        }
        let mut parent = vec![usize::MAX; 2 * ALPHA];
        let mut next_id = ALPHA;
        while heap.len() > 1 {
            let (Reverse(a), Reverse(b)) = (heap.pop().unwrap(), heap.pop().unwrap());
            parent[a.1] = next_id;
            parent[b.1] = next_id;
            heap.push(Reverse((a.0 + b.0, next_id)));
            next_id += 1;
        }
        for s in (0..ALPHA).filter(|&s| freqs[s] > 0 && parent[s] != usize::MAX) {
            let mut x = s;
            while parent[x] != usize::MAX {
                x = parent[x];
                lens[s] += 1;
            }
        }
        lens
    }

    #[test]
    fn two_queue_lengths_break_ties_like_the_heap() {
        let mut rng = tle_base::rng::XorShift64::new(77);
        // Narrow weight ranges make ties the rule, not the exception.
        for (present, max_weight) in [
            (0, 1),
            (1, 9),
            (2, 1),
            (3, 2),
            (17, 1),
            (100, 3),
            (258, 1),
            (258, 4),
            (258, 1000),
            (40, 1 << 40),
        ] {
            for _ in 0..20 {
                let mut f = [0u64; ALPHA];
                for _ in 0..present {
                    f[rng.below(ALPHA as u64) as usize] = rng.below(max_weight) + 1;
                }
                assert!(
                    huffman_lengths(&f) == heap_lengths(&f),
                    "{present} symbols up to {max_weight}"
                );
            }
        }
        let mut fib = [0u64; ALPHA];
        let (mut a, mut b) = (1u64, 1u64);
        for slot in fib.iter_mut().skip(100).take(60) {
            *slot = a;
            (a, b) = (b, a + b);
        }
        assert!(huffman_lengths(&fib) == heap_lengths(&fib));
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let mut f = [0u64; ALPHA];
        for (i, slot) in f.iter_mut().enumerate() {
            *slot = (i as u64 % 17) + 1;
        }
        let lens = code_lengths(&f);
        let codes = canonical_codes(&lens);
        for a in 0..ALPHA {
            for b in 0..ALPHA {
                if a == b || lens[a] == 0 || lens[b] == 0 || lens[a] > lens[b] {
                    continue;
                }
                let shifted = codes[b] >> (lens[b] - lens[a]);
                assert!(shifted != codes[a], "code {a} is a prefix of code {b}");
            }
        }
    }

    #[test]
    fn end_to_end_mtf_to_bits() {
        let mtf: Vec<u8> = (0..2000u32).map(|i| ((i * i) % 7) as u8).collect();
        let syms = to_symbols(&mtf);
        let f = freq_of(&syms);
        let lens = code_lengths(&f);
        let mut w = BitWriter::new();
        encode_symbols(&syms, &lens, &mut w);
        let bytes = w.finish();
        let dec = Decoder::new(&lens).unwrap();
        let mut r = BitReader::new(&bytes);
        let mut got = Vec::new();
        loop {
            let s = dec.decode(&mut r).unwrap();
            got.push(s);
            if s == EOB {
                break;
            }
        }
        assert_eq!(from_symbols(&got).unwrap(), mtf);
    }
}
