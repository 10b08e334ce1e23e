//! The codec's memory budget: the forward BWT works within 12 B per input
//! byte (plus the byte of output), a pipeline worker's second block
//! allocates nothing but the compressed block it returns, and the decoder
//! holds memory linear in the stream whatever the stream claims.
//!
//! The counting `#[global_allocator]` of the root `tests/no_alloc.rs`,
//! extended to live bytes. It tallies per thread (the libtest harness runs
//! each test on its own thread, and `compress_block`'s buffers are
//! thread-local too), so the tests in this binary cannot see each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tle_pbz::bwt::bwt_encode;
use tle_pbz::rle::rle1_encode;
use tle_pbz::{compress_block, decompress_block, gen_text};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn resized(old: usize, new: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LIVE.try_with(|live| {
        // A block freed on another thread than it came from could take this
        // below zero; nothing measured here crosses threads.
        live.set((live.get() + new).saturating_sub(old));
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the tallies are
// const-initialised `Cell`s without destructors, so touching them neither
// allocates nor outlives thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        resized(0, layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(layout.size())));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        resized(layout.size(), new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls this thread makes while running `f`, and `f`'s result.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

/// The most bytes `f` holds live at once, over what was live when it began.
fn peak_live_during<R>(f: impl FnOnce() -> R) -> usize {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    std::hint::black_box(f());
    PEAK.with(Cell::get) - before
}

fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = tle_base::rng::XorShift64::new(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

#[test]
fn bwt_of_a_block_stays_within_13_bytes_per_input_byte() {
    // Text reduces to few names, random bytes to many (the widest bucket
    // table a reduced problem can ask for); the parent's prefix doubling
    // held 17 B per byte on either.
    let text = rle1_encode(&gen_text(42, 100_000));
    let noise = random_bytes(42, 100_000);
    for (what, block) in [("text", &text), ("noise", &noise)] {
        let peak = peak_live_during(|| bwt_encode(block));
        assert!(
            peak <= 13 * block.len(),
            "{what}: bwt_encode of {} B peaked at {peak} B live",
            block.len()
        );
        assert!(peak >= 5 * block.len(), "{what}: the tally saw {peak} B");
    }
}

#[test]
fn a_warmed_worker_allocates_only_the_block_it_returns() {
    let data = gen_text(7, 100_000);
    let first = compress_block(&data);
    let (allocs, second) = allocs_during(|| compress_block(&data));
    assert_eq!(
        allocs, 1,
        "the second block of a worker made {allocs} allocator calls"
    );
    assert_eq!(
        second.capacity(),
        second.len(),
        "sized before it was written"
    );
    assert_eq!(first, second);
    assert_eq!(decompress_block(&second).unwrap(), data);
}

/// A block whose header claims the largest MTF length and whose symbols are
/// forty RUNB digits: a zero run of ~2⁴¹ bytes. The decoder must refuse it
/// as `Malformed` without allocating the run (or the header's 4 GiB).
#[test]
fn a_crafted_zero_run_is_malformed_before_it_is_allocated() {
    use tle_pbz::bitio::BitWriter;
    use tle_pbz::huffman::{encode_symbols, ALPHA, EOB, RUNB};
    use tle_pbz::CodecError;

    let mut lens = [0u8; ALPHA];
    lens[RUNB as usize] = 1;
    lens[EOB as usize] = 1;
    let mut syms = vec![RUNB; 40];
    syms.push(EOB);
    let mut w = BitWriter::new();
    w.put_u32(0x545A_4231); // "TZB1"
    w.put_u32(1_000); // original length
    w.put_u32(0); // CRC
    w.put_u32(u32::MAX); // MTF (RLE) length
    w.put_u32(0); // primary index
    for &l in lens.iter() {
        w.put(l as u32, 5);
    }
    encode_symbols(&syms, &lens, &mut w);
    let block = w.finish();

    let mut got = None;
    let peak = peak_live_during(|| got = Some(decompress_block(&block)));
    assert_eq!(
        got,
        Some(Err(CodecError::Malformed("zero run past the block length")))
    );
    assert!(peak < 64 << 10, "refusing the run held {peak} B live");
}

/// Three small golden streams (text over two blocks, incompressible noise,
/// one long zero run) with every single bit flipped and cut at every
/// length: each must decode or return an error — never panic — and hold at
/// most a budget linear in the stream live at once.
#[test]
fn every_bit_flip_and_truncation_decodes_or_errors_within_budget() {
    use tle_pbz::{compress_serial, decompress_serial};

    let streams = [
        ("text", compress_serial(&gen_text(3, 2_400), 1_200)),
        ("noise", compress_serial(&random_bytes(3, 300), 300)),
        ("zeros", compress_serial(&[0u8; 1_500], 1_500)),
    ];
    for (what, golden) in &streams {
        // The clean decode's own peak sets the scale; a corrupt variant may
        // not hold more than a small multiple of the stream beyond it.
        let budget = 64 * golden.len() + (256 << 10);
        let check = |input: &[u8], how: &str| {
            let mut ok = false;
            let peak = peak_live_during(|| {
                let r = std::panic::catch_unwind(|| decompress_serial(input));
                ok = r.is_ok();
            });
            assert!(ok, "{what}: decoding {how} panicked");
            assert!(
                peak <= budget,
                "{what}: decoding {how} held {peak} B live (budget {budget} B)"
            );
        };
        check(golden, "the golden stream");
        let mut bad = golden.clone();
        for bit in 0..bad.len() * 8 {
            bad[bit / 8] ^= 1 << (bit % 8);
            check(&bad, &format!("with bit {bit} flipped"));
            bad[bit / 8] ^= 1 << (bit % 8);
        }
        for cut in 0..golden.len() {
            check(&golden[..cut], &format!("cut at {cut} B"));
        }
    }
}
