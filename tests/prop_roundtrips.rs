//! Property-based tests for the compression stack: every stage and the
//! whole block codec must roundtrip arbitrary inputs, and word coding must
//! be lossless for every `TxVal` type.

use proptest::prelude::*;
use tle_repro::base::TxVal;
use tle_repro::pbz::{self, bwt, huffman, mtf, rle};

/// The transform by definition: sort every suffix of `data + $` with slice
/// comparison (a suffix that is a prefix of another sorts first, as the
/// sentinel makes it) and read off the byte before each.
fn bwt_by_definition(data: &[u8]) -> (Vec<u8>, u32) {
    let mut rows: Vec<usize> = (0..=data.len()).collect();
    rows.sort_by_key(|&i| &data[i..]);
    let primary = rows
        .iter()
        .position(|&i| i == 0)
        .expect("suffix 0 is a row");
    let last_column = rows.iter().filter(|&&i| i > 0).map(|&i| data[i - 1]);
    (last_column.collect(), primary as u32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rle1_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..2000)) {
        let enc = rle::rle1_encode(&data);
        prop_assert_eq!(rle::rle1_decode(&enc).unwrap(), data);
    }

    #[test]
    fn rle1_roundtrip_runny(runs in proptest::collection::vec((any::<u8>(), 0usize..600), 0..20)) {
        let mut data = Vec::new();
        for (b, n) in runs {
            data.extend(std::iter::repeat_n(b, n));
        }
        let enc = rle::rle1_encode(&data);
        prop_assert_eq!(rle::rle1_decode(&enc).unwrap(), data);
    }

    #[test]
    fn bwt_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..1500)) {
        let (b, primary) = bwt::bwt_encode(&data);
        prop_assert_eq!(bwt::bwt_decode(&b, primary), data);
    }

    #[test]
    fn bwt_roundtrip_low_entropy(data in proptest::collection::vec(0u8..4, 0..1500)) {
        let (b, primary) = bwt::bwt_encode(&data);
        prop_assert_eq!(bwt::bwt_decode(&b, primary), data);
    }

    #[test]
    fn bwt_matches_reference(data in proptest::collection::vec(any::<u8>(), 0..1500),
                             low in proptest::collection::vec(0u8..4, 0..1500)) {
        prop_assert_eq!(bwt::bwt_encode(&data), bwt_by_definition(&data));
        prop_assert_eq!(bwt::bwt_encode(&low), bwt_by_definition(&low));
    }

    #[test]
    fn mtf_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..2000)) {
        prop_assert_eq!(mtf::mtf_decode(&mtf::mtf_encode(&data)), data);
    }

    #[test]
    fn zero_run_symbols_roundtrip(data in proptest::collection::vec(0u8..8, 0..2000)) {
        let syms = huffman::to_symbols(&data);
        prop_assert_eq!(huffman::from_symbols(&syms, data.len()).unwrap(), data);
    }

    #[test]
    fn block_codec_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4000)) {
        let c = pbz::compress_block(&data);
        prop_assert_eq!(pbz::decompress_block(&c).unwrap(), data);
    }

    #[test]
    fn block_codec_roundtrip_texty(words in proptest::collection::vec("[a-z ]{1,12}", 0..200)) {
        let data: Vec<u8> = words.concat().into_bytes();
        let c = pbz::compress_block(&data);
        prop_assert_eq!(pbz::decompress_block(&c).unwrap(), data);
    }

    #[test]
    fn serial_stream_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..6000),
                               block in 64usize..2000) {
        let c = pbz::compress_serial(&data, block);
        prop_assert_eq!(pbz::decompress_serial(&c).unwrap(), data);
    }

    #[test]
    fn decompress_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..600)) {
        // Arbitrary bytes: must return an error or valid data, not panic.
        let _ = pbz::decompress_block(&data);
        let _ = pbz::decompress_serial(&data);
    }

    #[test]
    fn txval_u64_roundtrip(v in any::<u64>()) {
        prop_assert_eq!(u64::from_word(v.to_word()), v);
    }

    #[test]
    fn txval_signed_roundtrip(v in any::<i64>(), w in any::<i32>(), x in any::<i16>()) {
        prop_assert_eq!(i64::from_word(v.to_word()), v);
        prop_assert_eq!(i32::from_word(w.to_word()), w);
        prop_assert_eq!(i16::from_word(x.to_word()), x);
    }

    #[test]
    fn txval_f64_roundtrip(v in any::<f64>()) {
        let back = f64::from_word(v.to_word());
        if v.is_nan() {
            prop_assert!(back.is_nan());
        } else {
            prop_assert_eq!(back, v);
        }
    }

    #[test]
    fn txval_pair_roundtrip(a in any::<u32>(), b in any::<u32>()) {
        prop_assert_eq!(<(u32, u32)>::from_word((a, b).to_word()), (a, b));
    }
}
