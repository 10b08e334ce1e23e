//! Move-to-front coding: converts the BWT's locally-repetitive output into
//! a stream dominated by small values (especially zeros), which the zero-run
//! and Huffman stages then squeeze.

/// MTF-encode `data`.
pub fn mtf_encode(data: &[u8]) -> Vec<u8> {
    let mut out = data.to_vec();
    mtf_encode_in_place(&mut out);
    out
}

/// [`mtf_encode`], each byte replaced by its rank.
pub(crate) fn mtf_encode_in_place(data: &mut [u8]) {
    let mut table: [u8; 256] = std::array::from_fn(|i| i as u8);
    for b in data {
        let byte = std::mem::take(b);
        // After a BWT most bytes repeat their predecessor: rank 0, which
        // `take` has just written, and the table stays as it is.
        if table[0] == byte {
            continue;
        }
        // Search and shift in one walk: every entry in front of `byte`
        // moves one place back. The table holds every byte value, so the
        // walk ends within it.
        let mut moved = table[0];
        let mut rank = 0u8;
        loop {
            rank += 1;
            let here = std::mem::replace(&mut table[rank as usize], moved);
            if here == byte {
                break;
            }
            moved = here;
        }
        table[0] = byte;
        *b = rank;
    }
}

/// MTF-decode `data`.
pub fn mtf_decode(data: &[u8]) -> Vec<u8> {
    let mut table: [u8; 256] = std::array::from_fn(|i| i as u8);
    data.iter()
        .map(|&rank| {
            let b = table[rank as usize];
            // Rank 0, most of a BWT's output, leaves the table as it is.
            if rank != 0 {
                table.copy_within(..rank as usize, 1);
                table[0] = b;
            }
            b
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        assert_eq!(mtf_decode(&mtf_encode(data)), data);
    }

    #[test]
    fn empty_and_simple() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abc");
        roundtrip(b"aaabbbccc");
    }

    #[test]
    fn runs_become_zeros() {
        let enc = mtf_encode(b"aaaaab");
        // First 'a' is at position 97, then zeros; 'b' follows 'a' in the
        // shifted table.
        assert_eq!(enc[0], b'a');
        assert!(enc[1..5].iter().all(|&x| x == 0));
        assert_eq!(enc[5], b'b'); // 'b' was shifted to index 98, then 'a' at 0 -> 'b' at 98
    }

    #[test]
    fn recently_seen_bytes_get_small_codes() {
        let enc = mtf_encode(b"abab");
        assert_eq!(enc[2], 1, "'a' is one behind 'b'");
        assert_eq!(enc[3], 1, "'b' is one behind 'a'");
    }

    #[test]
    fn all_bytes_roundtrip() {
        let data: Vec<u8> = (0..=255u8).collect();
        roundtrip(&data);
        let data: Vec<u8> = (0..=255u8).rev().cycle().take(1000).collect();
        roundtrip(&data);
    }

    #[test]
    fn decode_matches_the_shifting_vec_reference() {
        let mut rng = tle_base::rng::XorShift64::new(35);
        let ranks: Vec<u8> = (0..20_000)
            .map(|i| match i % 3 {
                0 => 0,
                1 => rng.below(4) as u8,
                _ => rng.next_u64() as u8,
            })
            .collect();
        let mut table: Vec<u8> = (0..=255).collect();
        let mut reference = Vec::new();
        for &rank in &ranks {
            let b = table.remove(rank as usize);
            table.insert(0, b);
            reference.push(b);
        }
        assert_eq!(mtf_decode(&ranks), reference);
    }

    #[test]
    fn random_roundtrip() {
        let mut rng = tle_base::rng::XorShift64::new(5);
        let data: Vec<u8> = (0..10_000).map(|_| rng.next_u64() as u8).collect();
        roundtrip(&data);
    }
}
