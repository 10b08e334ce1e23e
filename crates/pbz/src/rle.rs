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
            for _ in 0..run {
                out.push(b);
            }
        }
        i += run;
    }
}

/// Decode the RLE1 scheme.
pub fn rle1_decode(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(data.len());
    let mut i = 0;
    while i < data.len() {
        let b = data[i];
        // Detect a literal run of four identical bytes: a count follows.
        if i + 3 < data.len() && data[i + 1] == b && data[i + 2] == b && data[i + 3] == b {
            let count = *data.get(i + 4).ok_or(CodecError::Truncated)? as usize;
            for _ in 0..4 + count {
                out.push(b);
            }
            i += 5;
        } else {
            out.push(b);
            i += 1;
        }
    }
    Ok(out)
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

    #[test]
    fn all_byte_values() {
        let data: Vec<u8> = (0..=255u8)
            .flat_map(|b| vec![b; (b as usize % 7) + 1])
            .collect();
        roundtrip(&data);
    }
}
