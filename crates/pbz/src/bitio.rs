//! Bit-granular I/O over byte buffers (MSB-first, like BZip2).

/// Write bits into a growing byte vector, most significant bit first.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    /// Bits not yet written out, in the low `nbits` bits of `acc` (the
    /// bits above them are stale). Fewer than 8 between calls.
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// An empty writer with room for `bytes` bytes of output.
    pub fn with_capacity(bytes: usize) -> Self {
        BitWriter {
            out: Vec::with_capacity(bytes),
            ..BitWriter::default()
        }
    }

    /// Append the low `n` bits of `v` (MSB of the field first). `n <= 32`.
    #[inline]
    pub fn put(&mut self, v: u32, n: u32) {
        debug_assert!(n <= 32);
        debug_assert!(n == 32 || v < (1u32 << n));
        // At most 7 + 32 bits pending: whole bytes leave in one copy.
        self.acc = (self.acc << n) | u64::from(v);
        self.nbits += n;
        if self.nbits >= 8 {
            let whole = self.nbits / 8;
            let top = (self.acc << (64 - self.nbits)).to_be_bytes();
            self.out.extend_from_slice(&top[..whole as usize]);
            self.nbits -= whole * 8;
        }
    }

    /// Append a full 32-bit value.
    pub fn put_u32(&mut self, v: u32) {
        self.put(v, 32);
    }

    /// Number of whole+partial bytes written so far.
    pub fn byte_len(&self) -> usize {
        self.out.len() + usize::from(self.nbits > 0)
    }

    /// Pad to a byte boundary with zero bits and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push((self.acc << (8 - self.nbits)) as u8);
        }
        self.out
    }
}

/// Read bits from a byte slice, MSB-first.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Bytes of `data` counted into `bits`.
    loaded: usize,
    /// The next `bits` unread bits, first at the MSB. Below them lie zeros
    /// or the bytes that follow `loaded`, in place, so loading a byte a
    /// second time changes nothing.
    window: u64,
    bits: u32,
}

impl<'a> BitReader<'a> {
    /// A reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            loaded: 0,
            window: 0,
            bits: 0,
        }
    }

    /// Remaining bits.
    pub fn remaining(&self) -> usize {
        (self.data.len() - self.loaded) * 8 + self.bits as usize
    }

    /// Load whole bytes until at least 56 bits are in the window or the
    /// input is exhausted.
    #[inline]
    fn refill(&mut self) {
        if let Some(word) = self.data.get(self.loaded..self.loaded + 8) {
            let word = u64::from_be_bytes(word.try_into().expect("8 bytes"));
            self.window |= word >> self.bits;
            let whole = (63 - self.bits) / 8;
            self.loaded += whole as usize;
            self.bits += whole * 8;
        } else {
            while self.bits <= 56 && self.loaded < self.data.len() {
                self.window |= u64::from(self.data[self.loaded]) << (56 - self.bits);
                self.loaded += 1;
                self.bits += 8;
            }
        }
    }

    /// The next `n` bits (`1 <= n <= 32`) without consuming them, padded
    /// with zeros past the end of the input.
    #[inline]
    pub(crate) fn peek(&mut self, n: u32) -> u32 {
        debug_assert!((1..=32).contains(&n));
        if self.bits < n {
            self.refill();
        }
        (self.window >> (64 - n)) as u32
    }

    /// Consume `n` bits a [`BitReader::peek`] of at least `n` has shown;
    /// `n` must not exceed [`BitReader::remaining`].
    #[inline]
    pub(crate) fn skip(&mut self, n: u32) {
        debug_assert!(n <= self.bits);
        self.window <<= n;
        self.bits -= n;
    }

    /// Read one bit; `None` at end of input.
    #[inline]
    pub fn bit(&mut self) -> Option<u32> {
        self.get(1)
    }

    /// Read `n` bits as an unsigned value; `None` if fewer remain.
    #[inline]
    pub fn get(&mut self, n: u32) -> Option<u32> {
        debug_assert!(n <= 32);
        if self.remaining() < n as usize {
            return None;
        }
        if n == 0 {
            return Some(0);
        }
        let v = self.peek(n);
        self.skip(n);
        Some(v)
    }

    /// Read a full 32-bit value.
    pub fn get_u32(&mut self) -> Option<u32> {
        self.get(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_roundtrip() {
        let mut w = BitWriter::new();
        let pattern = [1u32, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1];
        for &b in &pattern {
            w.put(b, 1);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.bit(), Some(b));
        }
    }

    #[test]
    fn multi_bit_fields_roundtrip() {
        let mut w = BitWriter::new();
        w.put(0b101, 3);
        w.put(0xFFFF, 16);
        w.put(0, 5);
        w.put(0x12345678 & 0x7FFFFFFF, 31);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get(3), Some(0b101));
        assert_eq!(r.get(16), Some(0xFFFF));
        assert_eq!(r.get(5), Some(0));
        assert_eq!(r.get(31), Some(0x12345678 & 0x7FFFFFFF));
    }

    #[test]
    fn u32_roundtrip() {
        let mut w = BitWriter::new();
        for v in [0u32, 1, 0xDEADBEEF, u32::MAX] {
            w.put_u32(v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for v in [0u32, 1, 0xDEADBEEF, u32::MAX] {
            assert_eq!(r.get_u32(), Some(v));
        }
    }

    #[test]
    fn reading_past_end_returns_none() {
        let mut w = BitWriter::new();
        w.put(0b11, 2);
        let bytes = w.finish(); // one padded byte
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get(8), Some(0b1100_0000));
        assert_eq!(r.get(1), None);
        assert_eq!(r.bit(), None);
    }

    #[test]
    fn byte_len_counts_partial() {
        let mut w = BitWriter::new();
        assert_eq!(w.byte_len(), 0);
        w.put(1, 1);
        assert_eq!(w.byte_len(), 1);
        w.put(0x7F, 7);
        assert_eq!(w.byte_len(), 1);
        w.put(1, 1);
        assert_eq!(w.byte_len(), 2);
    }

    #[test]
    fn empty_writer_produces_empty_buffer() {
        assert!(BitWriter::new().finish().is_empty());
    }

    /// The bit-at-a-time writer the word-at-a-time one replaced.
    #[derive(Default)]
    struct RefWriter {
        out: Vec<u8>,
        nbits: u32,
        acc: u8,
    }

    impl RefWriter {
        fn put(&mut self, v: u32, n: u32) {
            for i in (0..n).rev() {
                self.acc = (self.acc << 1) | ((v >> i) & 1) as u8;
                self.nbits += 1;
                if self.nbits == 8 {
                    self.out.push(self.acc);
                    (self.acc, self.nbits) = (0, 0);
                }
            }
        }

        fn byte_len(&self) -> usize {
            self.out.len() + usize::from(self.nbits > 0)
        }

        fn finish(mut self) -> Vec<u8> {
            if self.nbits > 0 {
                self.out.push(self.acc << (8 - self.nbits));
            }
            self.out
        }
    }

    /// Random `(value, width)` fields, every width in `0..=32`.
    fn fields(seed: u64, n: usize) -> Vec<(u32, u32)> {
        let mut rng = tle_base::rng::XorShift64::new(seed);
        (0..n)
            .map(|_| {
                let width = rng.below(33) as u32;
                let v = rng.next_u64() as u32;
                (
                    if width == 32 {
                        v
                    } else {
                        v & ((1 << width) - 1)
                    },
                    width,
                )
            })
            .collect()
    }

    #[test]
    fn writer_matches_the_bit_at_a_time_reference() {
        for seed in 1..=40 {
            let fields = fields(seed, seed as usize * 7);
            let (mut w, mut r) = (BitWriter::new(), RefWriter::default());
            for &(v, n) in &fields {
                w.put(v, n);
                r.put(v, n);
                assert_eq!(w.byte_len(), r.byte_len(), "seed {seed}");
            }
            w.put_u32(0xDEAD_BEEF);
            r.put(0xDEAD_BEEF, 32);
            assert_eq!(w.finish(), r.finish(), "seed {seed}");
        }
    }

    #[test]
    fn reader_reads_back_every_width() {
        for seed in 1..=40 {
            let fields = fields(seed, seed as usize * 7);
            let mut w = BitWriter::new();
            for &(v, n) in &fields {
                w.put(v, n);
            }
            let total: usize = fields.iter().map(|&(_, n)| n as usize).sum();
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            let mut left = bytes.len() * 8;
            assert_eq!(r.remaining(), left);
            for &(v, n) in &fields {
                assert_eq!(r.get(n), Some(v), "seed {seed}, width {n}");
                left -= n as usize;
                assert_eq!(r.remaining(), left);
            }
            // Only the zero padding is left, and nothing past it.
            assert_eq!(left, bytes.len() * 8 - total);
            assert_eq!(r.get(left as u32), Some(0));
            assert_eq!(r.remaining(), 0);
            assert_eq!(r.bit(), None);
        }
    }

    #[test]
    fn peek_pads_with_zeros_and_get_fails_whole() {
        let bytes = [0xA5u8, 0xFF, 0x01];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek(32), 0xA5FF_0100);
        assert_eq!(r.get(4), Some(0xA));
        assert_eq!(r.get(32), None, "only 20 bits remain");
        assert_eq!(r.remaining(), 20);
        assert_eq!(r.peek(20), 0x5_FF01);
        assert_eq!(r.get(20), Some(0x5_FF01));
        assert_eq!(r.get(0), Some(0));
        assert_eq!(r.get(1), None);
    }
}
