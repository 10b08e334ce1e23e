//! BZip2's initial run-length pass ("RLE1").
//!
//! Runs of 4-255 identical bytes become the 4 bytes followed by a count
//! byte (0-251 extra repetitions). This bounds the damage pathological
//! inputs can do to the sorting stage and is part of the real BZip2 format.

use crate::CodecError;

/// Encode `data` with the RLE1 scheme.
pub fn rle1_encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    rle1_encode_into(data, &mut out);
    out
}

/// [`rle1_encode`] into `out`, cleared first.
pub(crate) fn rle1_encode_into(data: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(data.len() + data.len() / 128 + 4);
    let mut at = 0;
    while let Some(i) = next_quad(data, at) {
        out.extend_from_slice(&data[at..i]);
        let b = data[i];
        let run = 4 + data[i + 4..]
            .iter()
            .take(251)
            .take_while(|&&x| x == b)
            .count();
        out.extend_from_slice(&[b, b, b, b, (run - 4) as u8]);
        at = i + run;
    }
    out.extend_from_slice(&data[at..]);
}

/// Decode the RLE1 scheme.
pub fn rle1_decode(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(data.len());
    let mut at = 0;
    while let Some(i) = next_quad(data, at) {
        out.extend_from_slice(&data[at..i]);
        let count = *data.get(i + 4).ok_or(CodecError::Truncated)?;
        out.resize(out.len() + 4 + count as usize, data[i]);
        at = i + 5;
    }
    out.extend_from_slice(&data[at..]);
    Ok(out)
}

/// Where the first four equal bytes at or after `from` start. Both passes
/// copy the span in front of them whole: only such a run changes bytes, and
/// a shorter run cannot hide one (from inside a run of fewer than four, the
/// rest of it is shorter still).
fn next_quad(data: &[u8], from: usize) -> Option<usize> {
    let quad = |w: &[u8]| w[0] == w[1] && w[0] == w[2] && w[0] == w[3];
    Some(from + data.get(from..)?.windows(4).position(quad)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let enc = rle1_encode(data);
        let dec = rle1_decode(&enc).expect("decode failed");
        assert_eq!(dec, data, "roundtrip mismatch for {data:?}");
    }

    #[test]
    fn empty_and_tiny_inputs() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"aaa");
    }

    #[test]
    fn exact_run_boundaries() {
        roundtrip(b"aaaa"); // run of exactly 4
        roundtrip(b"aaaaa"); // 5
        roundtrip(&[b'x'; 255]); // max single run
        roundtrip(&[b'x'; 256]);
        roundtrip(&[b'x'; 259]); // 255 + 4
        roundtrip(&[b'x'; 1000]);
    }

    #[test]
    fn mixed_content() {
        roundtrip(b"aaaabbbbccccdddd");
        roundtrip(b"noRunsAtAllHere123");
        roundtrip(b"aaab aaaa b aaaaaaaaaab");
        let mut v = Vec::new();
        for i in 0..500u32 {
            for _ in 0..(i % 9) {
                v.push((i % 251) as u8);
            }
        }
        roundtrip(&v);
    }

    #[test]
    fn runs_shrink_output() {
        let data = [b'z'; 200];
        let enc = rle1_encode(&data);
        assert!(enc.len() < data.len() / 10);
    }

    #[test]
    fn truncated_count_byte_is_an_error() {
        // Four identical bytes with no count byte following.
        assert_eq!(rle1_decode(b"qqqq"), Err(CodecError::Truncated));
    }

    /// The byte-at-a-time encoder the span-copying one replaced.
    fn reference_encode(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < data.len() {
            let b = data[i];
            let mut run = 1usize;
            while i + run < data.len() && data[i + run] == b && run < 255 {
                run += 1;
            }
            if run >= 4 {
                out.extend_from_slice(&[b, b, b, b]);
                out.push((run - 4) as u8);
            } else {
                out.extend(std::iter::repeat_n(b, run));
            }
            i += run;
        }
        out
    }

    #[test]
    fn span_copy_matches_the_reference_on_every_run_length() {
        for run in 1..=600 {
            // The run alone (it touches both ends), then between literals.
            let alone = vec![b'r'; run];
            assert_eq!(rle1_encode(&alone), reference_encode(&alone), "{run}");
            let mut framed = b"ab".to_vec();
            framed.extend_from_slice(&alone);
            framed.extend_from_slice(b"rcd");
            assert_eq!(rle1_encode(&framed), reference_encode(&framed), "{run}");
            framed.truncate(framed.len() - 3);
            assert_eq!(rle1_encode(&framed), reference_encode(&framed), "{run}");
        }
    }

    /// The byte-at-a-time decoder the span-copying one replaced.
    fn reference_decode(data: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < data.len() {
            let b = data[i];
            if i + 3 < data.len() && data[i + 1] == b && data[i + 2] == b && data[i + 3] == b {
                let count = *data.get(i + 4).ok_or(CodecError::Truncated)? as usize;
                out.extend(std::iter::repeat_n(b, 4 + count));
                i += 5;
            } else {
                out.push(b);
                i += 1;
            }
        }
        Ok(out)
    }

    #[test]
    fn span_copy_matches_the_reference_on_small_alphabets() {
        let mut rng = tle_base::rng::XorShift64::new(35);
        for alphabet in [1u64, 2, 3, 4, 256] {
            for _ in 0..50 {
                let len = rng.below(2000) as usize;
                let data: Vec<u8> = (0..len).map(|_| rng.below(alphabet) as u8).collect();
                assert_eq!(rle1_encode(&data), reference_encode(&data));
                // Any bytes at all decode (or fail) as they did.
                assert_eq!(rle1_decode(&data), reference_decode(&data));
            }
        }
    }

    #[test]
    fn all_byte_values() {
        let data: Vec<u8> = (0..=255u8)
            .flat_map(|b| vec![b; (b as usize % 7) + 1])
            .collect();
        roundtrip(&data);
    }
}
