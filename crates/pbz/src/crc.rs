//! CRC-32 (IEEE 802.3 polynomial), table-driven — the integrity check each
//! compressed block carries, as in BZip2. Slicing-by-8: eight input bytes
//! per step, one look-up each in eight tables built at compile time.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]`: the CRC of byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][(lo >> 8 & 0xFF) as usize]
            ^ TABLES[5][(lo >> 16 & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][w[4] as usize]
            ^ TABLES[2][w[5] as usize]
            ^ TABLES[1][w[6] as usize]
            ^ TABLES[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn every_head_and_tail_length_matches_the_bytewise_loop() {
        let bytewise = |data: &[u8]| {
            !data.iter().fold(!0u32, |c, &b| {
                TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
            })
        };
        let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..=17 {
            for len in 0..=17 {
                let piece = &data[start..start + len];
                assert_eq!(crc32(piece), bytewise(piece), "start {start}, len {len}");
            }
        }
        assert_eq!(crc32(&data), bytewise(&data));
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }

    #[test]
    fn long_input_stable() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i * 31) as u8).collect();
        let c1 = crc32(&data);
        let c2 = crc32(&data);
        assert_eq!(c1, c2);
        assert_ne!(c1, 0);
    }
}
