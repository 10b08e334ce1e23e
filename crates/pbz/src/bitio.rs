//! Bit-granular I/O over byte buffers (MSB-first, like BZip2).

/// Write bits into a growing byte vector, most significant bit first.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    /// Bits accumulated in `acc` (< 8).
    nbits: u32,
    acc: u8,
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
    pub fn put(&mut self, v: u32, n: u32) {
        debug_assert!(n <= 32);
        debug_assert!(n == 32 || v < (1u32 << n));
        for i in (0..n).rev() {
            let bit = (v >> i) & 1;
            self.acc = (self.acc << 1) | bit as u8;
            self.nbits += 1;
            if self.nbits == 8 {
                self.out.push(self.acc);
                self.acc = 0;
                self.nbits = 0;
            }
        }
    }

    /// Append a full 32-bit value.
    pub fn put_u32(&mut self, v: u32) {
        self.put(v >> 16, 16);
        self.put(v & 0xFFFF, 16);
    }

    /// Number of whole+partial bytes written so far.
    pub fn byte_len(&self) -> usize {
        self.out.len() + usize::from(self.nbits > 0)
    }

    /// Pad to a byte boundary with zero bits and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.acc <<= 8 - self.nbits;
            self.out.push(self.acc);
        }
        self.out
    }
}

/// Read bits from a byte slice, MSB-first.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Absolute bit cursor.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// A reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader { data, pos: 0 }
    }

    /// Remaining bits.
    pub fn remaining(&self) -> usize {
        self.data.len() * 8 - self.pos
    }

    /// Read one bit; `None` at end of input.
    #[inline]
    pub fn bit(&mut self) -> Option<u32> {
        let byte = *self.data.get(self.pos / 8)?;
        let bit = (byte >> (7 - (self.pos % 8))) & 1;
        self.pos += 1;
        Some(bit as u32)
    }

    /// Read `n` bits as an unsigned value; `None` if fewer remain.
    pub fn get(&mut self, n: u32) -> Option<u32> {
        debug_assert!(n <= 32);
        if self.remaining() < n as usize {
            return None;
        }
        let mut v = 0u32;
        for _ in 0..n {
            v = (v << 1) | self.bit()?;
        }
        Some(v)
    }

    /// Read a full 32-bit value.
    pub fn get_u32(&mut self) -> Option<u32> {
        let hi = self.get(16)?;
        let lo = self.get(16)?;
        Some((hi << 16) | lo)
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
}
