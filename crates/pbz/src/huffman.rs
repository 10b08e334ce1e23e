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

/// Convert a symbol stream (ending in EOB) back to MTF bytes, at most
/// `limit` of them (the block header's MTF length). A RUNA/RUNB digit run
/// doubles its place value per symbol, so a few dozen digits can ask for
/// terabytes: a run that would end past `limit` is `Malformed` the moment
/// it does, before anything is allocated for it.
pub fn from_symbols(syms: &[u16], limit: usize) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity((syms.len() * 2).min(limit));
    // `out.len() + run <= limit` holds while a run grows, and
    // `place <= run + 1`, so neither can overflow.
    let mut run = 0u64;
    let mut place = 1u64;
    for &s in syms {
        match s {
            RUNA | RUNB => {
                run += if s == RUNA { place } else { 2 * place };
                place *= 2;
                if out.len() as u64 + run > limit as u64 {
                    return Err(CodecError::Malformed("zero run past the block length"));
                }
            }
            b => {
                out.resize(out.len() + run as usize, 0);
                run = 0;
                place = 1;
                if b == EOB {
                    return Ok(out);
                }
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
    // Codes gather into 32-bit words; the writer takes a word at a time.
    let (mut acc, mut n) = (0u64, 0u32);
    for &s in syms {
        let l = u32::from(lens[s as usize]);
        debug_assert!(l > 0, "symbol {s} has no code");
        acc = (acc << l) | u64::from(codes[s as usize]);
        n += l;
        if n >= 32 {
            n -= 32;
            w.put((acc >> n) as u32, 32);
        }
    }
    w.put((acc & ((1 << n) - 1)) as u32, n);
}

/// Codes up to this many bits long decode in one table lookup.
const LOOKUP_BITS: u32 = 10;

/// The codes of one length: `first..end`, the first of them standing for
/// `symbols[base]` of the [`Decoder`].
struct Class {
    len: u32,
    first: u64,
    end: u64,
    base: usize,
}

/// Canonical decoding tables.
pub struct Decoder {
    /// For each `LOOKUP_BITS`-bit prefix that starts with a code of at most
    /// `LOOKUP_BITS` bits: that code's symbol `<< 8 |` its length. 0 where
    /// a longer code starts, or none.
    lookup: Vec<u32>,
    /// One class per code length in use, shortest first.
    classes: Vec<Class>,
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
        let mut classes: Vec<Class> = Vec::new();
        let mut code = 0u64;
        for (base, &(l, _)) in pairs.iter().enumerate() {
            match classes.last_mut() {
                Some(c) if c.len == u32::from(l) => c.end += 1,
                last => {
                    code <<= u32::from(l) - last.map_or(0, |c| c.len);
                    classes.push(Class {
                        len: l.into(),
                        first: code,
                        end: code + 1,
                        base,
                    });
                }
            }
            code += 1;
        }
        // As `LOOKUP_BITS`-bit prefixes, a class's codes start where the
        // shorter classes' end, so the classes fill disjoint ranges in
        // order. Codes past `1 << len` (a table with too many short codes)
        // have no bit pattern to match.
        let mut lookup = vec![0u32; 1 << LOOKUP_BITS];
        for c in classes.iter().take_while(|c| c.len <= LOOKUP_BITS) {
            let shift = LOOKUP_BITS - c.len;
            for code in c.first..c.end.min(1 << c.len) {
                let sym = symbols[c.base + (code - c.first) as usize];
                let lo = (code as usize) << shift;
                lookup[lo..lo + (1 << shift)].fill(u32::from(sym) << 8 | c.len);
            }
        }
        Ok(Decoder {
            lookup,
            classes,
            symbols,
        })
    }

    /// Decode one symbol.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u16, CodecError> {
        let hit = self.lookup[r.peek(LOOKUP_BITS) as usize];
        let len = hit & 0xFF;
        // A hit on zero padding past the end is left to the walk.
        if len != 0 && len as usize <= r.remaining() {
            r.skip(len);
            return Ok((hit >> 8) as u16);
        }
        self.walk(r)
    }

    /// The canonical walk: each length in turn takes as many bits as it
    /// needs and matches if its code is below the class's end. Input that
    /// ends before a match is `Truncated`; no match at all is invalid.
    #[cold]
    fn walk(&self, r: &mut BitReader<'_>) -> Result<u16, CodecError> {
        let left = r.remaining();
        let next = u64::from(r.peek(32));
        for c in &self.classes {
            if c.len as usize > left {
                return Err(CodecError::Truncated);
            }
            let code = next >> (32 - c.len);
            if code < c.end {
                r.skip(c.len);
                return Ok(self.symbols[c.base + (code - c.first) as usize]);
            }
        }
        Err(CodecError::Malformed("invalid Huffman code"))
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
            let back = from_symbols(&syms, n).unwrap();
            assert_eq!(back, mtf, "zero-run of length {n}");
        }
    }

    #[test]
    fn symbols_roundtrip_mixed_content() {
        let mtf = [0u8, 0, 0, 5, 0, 1, 255, 0, 0, 0, 0, 7];
        let syms = to_symbols(&mtf);
        assert_eq!(from_symbols(&syms, mtf.len()).unwrap(), mtf);
        assert_eq!(*syms.last().unwrap(), EOB);
    }

    #[test]
    fn missing_eob_is_error() {
        assert!(from_symbols(&[RUNA, RUNB, 5], 100).is_err());
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

    /// The bit-at-a-time decoder the table-driven one replaced: read bits
    /// until the next code length, match below its limit, repeat.
    struct RefDecoder {
        /// `(len, end code, index of its first symbol)` per length.
        limits: Vec<(u32, u32, u32)>,
        symbols: Vec<u16>,
    }

    impl RefDecoder {
        fn new(lens: &[u8; ALPHA]) -> Self {
            let mut pairs: Vec<(u8, u16)> = (0..ALPHA)
                .filter(|&s| lens[s] > 0)
                .map(|s| (lens[s], s as u16))
                .collect();
            pairs.sort_unstable();
            let (mut limits, mut code, mut prev) = (Vec::new(), 0u32, 0u8);
            for (i, &(l, _)) in pairs.iter().enumerate() {
                if i == 0 || l != prev {
                    code <<= l - prev;
                    limits.push((l as u32, code, i as u32));
                    prev = l;
                }
                limits.last_mut().unwrap().1 += 1;
                code += 1;
            }
            let symbols = pairs.iter().map(|&(_, s)| s).collect();
            RefDecoder { limits, symbols }
        }

        fn decode(&self, r: &mut BitReader<'_>) -> Result<u16, CodecError> {
            let (mut code, mut len) = (0u32, 0u32);
            for (i, &(l, end, base)) in self.limits.iter().enumerate() {
                while len < l {
                    code = (code << 1) | r.bit().ok_or(CodecError::Truncated)?;
                    len += 1;
                }
                if code < end {
                    let next = self
                        .limits
                        .get(i + 1)
                        .map_or(self.symbols.len(), |x| x.2 as usize);
                    let first = end - (next as u32 - base);
                    return Ok(self.symbols[(base + code - first) as usize]);
                }
            }
            Err(CodecError::Malformed("invalid Huffman code"))
        }
    }

    /// Decode `bytes` with both decoders until either fails: same
    /// symbols, same errors, at the same bit positions.
    fn agree_with_reference(lens: &[u8; ALPHA], bytes: &[u8]) -> usize {
        let (dec, reference) = (Decoder::new(lens).unwrap(), RefDecoder::new(lens));
        let (mut r, mut q) = (BitReader::new(bytes), BitReader::new(bytes));
        for n in 0.. {
            let got = dec.decode(&mut r);
            assert_eq!(got, reference.decode(&mut q), "symbol {n}");
            if got.is_err() {
                return n;
            }
            assert_eq!(r.remaining(), q.remaining(), "symbol {n}");
        }
        unreachable!()
    }

    /// Lengths for a skewed table: symbol `s` of `n` gets length `s + 1`,
    /// the last two the same, so the code is complete and `n` deep.
    fn staircase(n: usize) -> [u8; ALPHA] {
        let mut lens = [0u8; ALPHA];
        for (s, l) in lens.iter_mut().enumerate().take(n) {
            *l = (s + 1).min(n - 1) as u8;
        }
        lens
    }

    #[test]
    fn long_codes_take_the_walk_and_short_ones_the_table() {
        let lens = staircase(MAX_LEN as usize + 1);
        assert!(lens.iter().any(|&l| l as u32 > LOOKUP_BITS));
        let syms: Vec<u16> = (0..2000u32).map(|i| (i * 7 % 21) as u16).collect();
        let mut w = BitWriter::new();
        encode_symbols(&syms, &lens, &mut w);
        let bytes = w.finish();
        let dec = Decoder::new(&lens).unwrap();
        let mut r = BitReader::new(&bytes);
        for &s in &syms {
            assert_eq!(dec.decode(&mut r), Ok(s));
        }
        assert!(r.remaining() < 8);
        // Every cut of the stream fails where the bit-at-a-time walk does.
        for cut in 0..=bytes.len() {
            agree_with_reference(&lens, &bytes[..cut]);
        }
    }

    #[test]
    fn unused_patterns_of_an_incomplete_table_stay_invalid() {
        // Codes 0, 10 and 110: any pattern starting 111 matches nothing.
        let mut lens = [0u8; ALPHA];
        (lens[5], lens[9], lens[EOB as usize]) = (1, 2, 3);
        let dec = Decoder::new(&lens).unwrap();
        let invalid = Err(CodecError::Malformed("invalid Huffman code"));
        for bytes in [&[0xE0u8][..], &[0xFF, 0xFF], &[0x7F]] {
            let mut r = BitReader::new(bytes);
            while let Ok(s) = dec.decode(&mut r) {
                assert_eq!(s, 5, "only the 1-bit code precedes the 111");
            }
            agree_with_reference(&lens, bytes);
        }
        assert_eq!(dec.decode(&mut BitReader::new(&[0xE0])), invalid);
        // Short of three bits a 11 prefix is truncated, not invalid.
        let mut r = BitReader::new(&[0x7F]);
        r.get(6);
        assert_eq!(dec.decode(&mut r), Err(CodecError::Truncated));
    }

    #[test]
    fn random_tables_and_streams_decode_like_the_reference() {
        let mut rng = tle_base::rng::XorShift64::new(35);
        for round in 0..300 {
            // Complete codes, Kraft-incomplete ones and over-full ones.
            let mut lens = match round % 3 {
                0 => staircase(2 + rng.below(MAX_LEN as u64) as usize),
                _ => [0u8; ALPHA],
            };
            let present = 1 + rng.below(ALPHA as u64) as usize;
            for _ in 0..present * (round % 3) / 2 {
                lens[rng.below(ALPHA as u64) as usize] = 1 + rng.below(MAX_LEN as u64) as u8;
            }
            if lens.iter().all(|&l| l == 0) {
                lens[0] = 1;
            }
            let bytes: Vec<u8> = (0..rng.below(300)).map(|_| rng.next_u64() as u8).collect();
            agree_with_reference(&lens, &bytes);
            // And a stream of the table's own codes, cut short.
            let mut f = [0u64; ALPHA];
            for _ in 0..present {
                f[rng.below(ALPHA as u64) as usize] += 1 + rng.below(1000);
            }
            let lens = code_lengths(&f);
            let syms: Vec<u16> = (0..ALPHA as u16)
                .filter(|&s| lens[s as usize] > 0)
                .collect();
            let stream: Vec<u16> = (0..500)
                .map(|_| syms[rng.below(syms.len() as u64) as usize])
                .collect();
            let mut w = BitWriter::new();
            encode_symbols(&stream, &lens, &mut w);
            let bytes = w.finish();
            let cut = rng.below(bytes.len() as u64 + 1) as usize;
            let decoded = agree_with_reference(&lens, &bytes[..cut]);
            if cut == bytes.len() {
                assert!(decoded >= stream.len());
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
        assert_eq!(from_symbols(&got, mtf.len()).unwrap(), mtf);
    }
}
