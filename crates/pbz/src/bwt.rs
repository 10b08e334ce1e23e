//! The Burrows-Wheeler transform.
//!
//! Forward transform via a linear-time induced suffix sort (SA-IS, Nong,
//! Zhang & Chan) over the input plus a virtual sentinel; inverse via the
//! standard LF-mapping counting construction. This is the heart of the
//! per-block compression work that PBZip2 parallelizes — the compute that
//! happens *outside* the critical sections the paper elides.
//!
//! # Working memory
//!
//! The sort runs on `u32` indices and holds at most 8.25 B per input byte:
//! 4 B of suffix array, 2 bits of L/S types over all levels, and 4 B of
//! bucket tables. The reduced string and its suffix array live inside the
//! parent's array; a level keeps its symbol counts while its reduced problem
//! is solved but gives the moving bucket bounds back, so with every level at
//! most half as long as the one above, counts and bounds never add up to
//! more than a word per byte. Types and tables are carved from one stack
//! (`BwtScratch`) that the block codec keeps across blocks.

/// Reusable working memory of [`bwt_encode`]: the suffix array and the
/// stack the sorter's levels take their type bits and bucket tables from.
#[derive(Debug, Default)]
pub(crate) struct BwtScratch {
    sa: Vec<u32>,
    stack: Vec<u32>,
}

/// Forward BWT. Returns the transformed bytes and the primary index (the
/// row of the sentinel-terminated original string).
pub fn bwt_encode(data: &[u8]) -> (Vec<u8>, u32) {
    let mut out = Vec::new();
    let primary = bwt_encode_into(data, &mut BwtScratch::default(), &mut out);
    (out, primary)
}

/// [`bwt_encode`] into `out` (cleared first), sorting in `scratch`.
pub(crate) fn bwt_encode_into(data: &[u8], scratch: &mut BwtScratch, out: &mut Vec<u8>) -> u32 {
    out.clear();
    let Some(&last) = data.last() else {
        return 0;
    };
    sort_suffixes(data, scratch);
    // BWT over the n+1 rotations of data+$, dropping the column entry for
    // the sentinel itself (we record where it was instead). Row 0 is the
    // sentinel's own rotation, which the last byte precedes; the rotation
    // starting at 0 is preceded by the sentinel, so it emits nothing.
    out.reserve_exact(data.len());
    out.push(last);
    let primary = scratch
        .sa
        .iter()
        .position(|&s| s == 0)
        .expect("suffix 0 is in the suffix array");
    let (before, after) = scratch.sa.split_at(primary);
    out.extend(before.iter().map(|&s| data[s as usize - 1]));
    out.extend(after[1..].iter().map(|&s| data[s as usize - 1]));
    debug_assert_eq!(out.len(), data.len());
    primary as u32 + 1
}

/// Inverse BWT given the output of [`bwt_encode`].
///
/// Works on the conceptual (n+1)-row sorted-rotation matrix of `text + $`:
/// the first column `F` is `$` followed by the sorted bytes of the BWT; the
/// last column `L` is the BWT with `$` re-inserted at row `primary`. The
/// classic occurrence-matching property links the i-th occurrence of byte
/// `c` in `L` (at matrix row `r`) with the i-th occurrence of `c` in `F`
/// (at row `p`): rotation `p` is rotation `r` shifted one position earlier
/// in the text. `next[p] = r` therefore walks the text forward.
pub fn bwt_decode(bwt: &[u8], primary: u32) -> Vec<u8> {
    let n = bwt.len();
    if n == 0 {
        return Vec::new();
    }
    let primary = primary as usize;
    let mut count = [0usize; 256];
    for &b in bwt {
        count[b as usize] += 1;
    }
    // First-column start offsets; the sentinel occupies F row 0.
    let mut starts = [0usize; 256];
    let mut acc = 1usize;
    for b in 0..256 {
        starts[b] = acc;
        acc += count[b];
    }
    let mut next = vec![0u32; n + 1];
    let mut fchar = vec![0u8; n + 1];
    // The sentinel's occurrence pair: F position 0 links to L row `primary`.
    next[0] = primary as u32;
    let mut seen = [0usize; 256];
    for (i, &b) in bwt.iter().enumerate() {
        // BWT index i maps to matrix row i, bumped past the sentinel row.
        let row = if i < primary { i } else { i + 1 };
        let p = starts[b as usize] + seen[b as usize];
        seen[b as usize] += 1;
        next[p] = row as u32;
        fchar[p] = b;
    }
    // Walk forward from the sentinel row, emitting first-column characters.
    let mut out = Vec::with_capacity(n);
    let mut row = next[0] as usize;
    for _ in 0..n {
        out.push(fchar[row]);
        row = next[row] as usize;
    }
    out
}

/// Suffix array of `data + $` (sentinel smaller than every byte). Returned
/// array has length n+1 and starts with the sentinel suffix (index n).
pub fn suffix_array(data: &[u8]) -> Vec<u32> {
    let mut scratch = BwtScratch::default();
    sort_suffixes(data, &mut scratch);
    let mut sa = Vec::with_capacity(data.len() + 1);
    sa.push(data.len() as u32);
    sa.extend_from_slice(&scratch.sa);
    sa
}

/// Leave the suffix array of `data` (its `n` real suffixes, a suffix that
/// is a prefix of another sorting first) in `scratch.sa`.
fn sort_suffixes(data: &[u8], scratch: &mut BwtScratch) {
    assert!(
        data.len() < EMPTY as usize,
        "block too large for u32 suffix indices"
    );
    // Exactly, like the stack below: blocks of one size differ by a few
    // bytes once run-length coded, and a doubling `Vec` would answer the
    // first longer one with twice the array.
    let grow = data.len().saturating_sub(scratch.sa.len());
    scratch.sa.reserve_exact(grow);
    scratch.sa.resize(data.len(), EMPTY);
    scratch.stack.clear();
    if !data.is_empty() {
        sais(data, &mut scratch.sa, 256, &mut scratch.stack);
    }
}

/// Marks a suffix-array slot nothing has been induced into yet.
const EMPTY: u32 = u32::MAX;

/// A text symbol: a byte at the top level, a `u32` name in a reduced problem.
trait Symbol: Copy + Ord + Into<u32> {
    #[inline]
    fn index(self) -> usize {
        self.into() as usize
    }
}

impl Symbol for u8 {}
impl Symbol for u32 {}

/// Is suffix `i` S-type (smaller than suffix `i + 1`)? One bit per suffix.
#[inline]
fn is_s(types: &[u32], i: usize) -> bool {
    types[i >> 5] >> (i & 31) & 1 != 0
}

/// Call `f` with every LMS position, in text order.
#[inline]
fn for_each_lms(types: &[u32], mut f: impl FnMut(usize)) {
    // Position 0 has no predecessor and is never LMS: carry in an S.
    let mut before = 1u32;
    for (w, &s) in types.iter().enumerate() {
        let mut lms = s & !(s << 1 | before);
        before = s >> 31;
        while lms != 0 {
            f(w * 32 + lms.trailing_zeros() as usize);
            lms &= lms - 1;
        }
    }
}

/// Point every bucket at its first slot (`ends == false`) or one past its
/// last (`ends == true`).
fn bucket_bounds(counts: &[u32], bounds: &mut [u32], ends: bool) {
    let mut sum = 0u32;
    for (b, &c) in bounds.iter_mut().zip(counts) {
        *b = if ends { sum + c } else { sum };
        sum += c;
    }
}

/// Induce the L-type suffixes from the LMS ones already in their buckets:
/// one left-to-right pass, each bucket filling from its front.
fn induce_l<T: Symbol>(t: &[T], sa: &mut [u32], types: &[u32], counts: &[u32], heads: &mut [u32]) {
    bucket_bounds(counts, heads, false);
    // The sentinel suffix sorts before everything and induces the last
    // real suffix, which is L-type because the sentinel is smaller.
    let last = t.len() - 1;
    let c = t[last].index();
    sa[heads[c] as usize] = last as u32;
    heads[c] += 1;
    for i in 0..sa.len() {
        let j = sa[i];
        // Neither EMPTY nor suffix 0, which has no predecessor.
        if j.wrapping_sub(1) < EMPTY - 1 {
            let p = j as usize - 1;
            if !is_s(types, p) {
                let c = t[p].index();
                sa[heads[c] as usize] = p as u32;
                heads[c] += 1;
            }
        }
    }
}

/// Induce the S-type suffixes from the L-type ones: one right-to-left pass,
/// each bucket filling from its back (over the LMS seeds, which are
/// re-induced in their final order). With `collect_lms` the pass also
/// gathers the LMS suffixes it walks over, in the order it leaves them,
/// at the back of `sa` — which is then no suffix array any more.
fn induce_s<T: Symbol>(
    t: &[T],
    sa: &mut [u32],
    types: &[u32],
    counts: &[u32],
    tails: &mut [u32],
    collect_lms: bool,
) {
    bucket_bounds(counts, tails, true);
    let mut lms_at = sa.len();
    for i in (0..sa.len()).rev() {
        let j = sa[i];
        if j.wrapping_sub(1) < EMPTY - 1 {
            let p = j as usize - 1;
            if is_s(types, p) {
                let c = t[p].index();
                tails[c] -= 1;
                sa[tails[c] as usize] = p as u32;
            } else if collect_lms && is_s(types, j as usize) {
                // S-type after an L-type: LMS. The scan has left every
                // slot to its right behind, and found no more LMS
                // suffixes than it has passed slots.
                lms_at -= 1;
                sa[lms_at] = j;
            }
        }
    }
}

/// Name the LMS substrings of `t`, which `sa[..m]` lists in sorted order:
/// equal substrings share a name, and names grow with the order. Leaves the
/// names in text order — the reduced string — in the last `m` slots of `sa`
/// and returns how many there are.
fn name_lms_substrings<T: Symbol>(t: &[T], sa: &mut [u32], types: &[u32], m: usize) -> usize {
    let n = t.len();
    // Slot m + j/2 first holds the length of the substring at j (LMS
    // positions are at least 2 apart and m <= n/2, so the slots are
    // distinct and in range), then its name.
    sa[m..].fill(EMPTY);
    // A substring runs up to and including the next LMS symbol; the last
    // one runs into the sentinel, which its length counts.
    let mut prev = n + 1;
    for_each_lms(types, |j| {
        if prev <= n {
            sa[m + (prev >> 1)] = (j - prev + 1) as u32;
        }
        prev = j;
    });
    sa[m + (prev >> 1)] = (n - prev + 1) as u32;
    let mut names = 0;
    let (mut q, mut q_len) = (0, 0);
    for i in 0..m {
        let p = sa[i] as usize;
        let p_len = sa[m + (p >> 1)] as usize;
        // Equal length and symbols make equal types (both end on an LMS
        // symbol); the substring holding the sentinel equals no other.
        let same =
            p_len == q_len && p.max(q) + p_len <= n && t[p..p + p_len].iter().eq(&t[q..q + p_len]);
        if !same {
            names += 1;
            (q, q_len) = (p, p_len);
        }
        sa[m + (p >> 1)] = names as u32 - 1;
    }
    // Pack the names to the back, keeping their order (an unconditional
    // store: which slots hold a name is a coin toss).
    let mut at = n;
    for i in (m..n).rev() {
        let name = sa[i];
        sa[at - 1] = name;
        at -= (name != EMPTY) as usize;
    }
    debug_assert_eq!(at, n - m);
    names
}

/// SA-IS: sort the suffixes of `t` (symbols below `k`) into `sa`, which has
/// one slot per suffix. Sorts the LMS substrings by induction, names them,
/// sorts the string of names — recursively, inside `sa` — if two share a
/// name, and induces the whole order from the sorted LMS suffixes.
fn sais<T: Symbol>(t: &[T], sa: &mut [u32], k: usize, stack: &mut Vec<u32>) {
    let n = t.len();
    debug_assert!(n > 0 && sa.len() == n);
    // This level's share of the stack: a type bit per suffix, `k` symbol
    // counts, `k` moving bucket bounds.
    let base = stack.len();
    let type_words = n.div_ceil(32);
    // Exactly: a doubling `Vec` could hold twice the budget.
    stack.reserve_exact(type_words + 2 * k);
    stack.resize(base + type_words + 2 * k, 0);
    let (types, buckets) = stack[base..].split_at_mut(type_words);
    let (counts, bounds) = buckets.split_at_mut(k);
    // The last suffix is L-type (the sentinel after it is smaller); going
    // left, equal symbols inherit the type of their right neighbour. A
    // word of bits at a time, without a data-dependent branch.
    let (mut s, mut right) = (0u32, t[n - 1]);
    for (chunk, word) in t.chunks(32).zip(types.iter_mut()).rev() {
        for &c in chunk.iter().rev() {
            s = (c < right) as u32 | ((c == right) as u32 & s);
            *word = *word << 1 | s;
            right = c;
            counts[c.index()] += 1;
        }
    }

    // Stage 1: seed every bucket's tail with its LMS suffixes in any order
    // and induce; that sorts the LMS *substrings*.
    sa.fill(EMPTY);
    bucket_bounds(counts, bounds, true);
    let mut m = 0;
    for_each_lms(types, |j| {
        let c = t[j].index();
        bounds[c] -= 1;
        sa[bounds[c] as usize] = j as u32;
        m += 1;
    });
    induce_l(t, sa, types, counts, bounds);
    induce_s(t, sa, types, counts, bounds, m > 1);
    // Zero or one LMS suffix was seeded in sorted order: `sa` is final.
    if m <= 1 {
        stack.truncate(base);
        return;
    }
    sa.copy_within(n - m.., 0);

    // Stage 2: the reduced string, one name per LMS substring.
    let names = name_lms_substrings(t, sa, types, m);

    // Stage 3: the suffix array of the reduced string, into sa[..m]. The
    // bucket bounds go back to the stack while the reduced problem runs.
    stack.truncate(base + type_words + k);
    let (sa1, rest) = sa.split_at_mut(m);
    let s1 = &mut rest[n - 2 * m..];
    if names < m {
        sais(s1, sa1, names, stack);
    } else {
        for (i, &name) in s1.iter().enumerate() {
            sa1[name as usize] = i as u32;
        }
    }
    stack.resize(base + type_words + 2 * k, 0);
    let (types, buckets) = stack[base..].split_at_mut(type_words);
    let (counts, bounds) = buckets.split_at_mut(k);
    // Back from ranks in the reduced string to positions in `t`.
    let mut i = 0;
    for_each_lms(types, |j| {
        s1[i] = j as u32;
        i += 1;
    });
    for r in sa1.iter_mut() {
        *r = s1[*r as usize];
    }

    // Stage 4: seed the bucket tails with the sorted LMS suffixes, each
    // bucket keeping their order, and induce the rest.
    sa[m..].fill(EMPTY);
    bucket_bounds(counts, bounds, true);
    for i in (0..m).rev() {
        let j = sa[i];
        sa[i] = EMPTY;
        let c = t[j as usize].index();
        bounds[c] -= 1;
        sa[bounds[c] as usize] = j;
    }
    induce_l(t, sa, types, counts, bounds);
    induce_s(t, sa, types, counts, bounds, false);
    stack.truncate(base);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sorter this module used before SA-IS, kept as the oracle: prefix
    /// doubling with comparison sorts, O(n log² n), same contract as
    /// [`suffix_array`].
    fn reference_suffix_array(data: &[u8]) -> Vec<usize> {
        let n = data.len() + 1; // includes sentinel suffix
        let mut sa: Vec<usize> = (0..n).collect();
        // rank[i]: current bucket of suffix i. Sentinel = 0, bytes shifted by 1.
        let mut rank: Vec<u32> = (0..n)
            .map(|i| if i == n - 1 { 0 } else { data[i] as u32 + 1 })
            .collect();
        let mut tmp = vec![0u32; n];
        let mut k = 1usize;
        let key = |rank: &Vec<u32>, i: usize, k: usize| -> (u32, u32) {
            let second = if i + k < rank.len() { rank[i + k] } else { 0 };
            (rank[i], second)
        };
        while k < n {
            sa.sort_unstable_by_key(|&i| key(&rank, i, k));
            tmp[sa[0]] = 0;
            for w in 1..n {
                let prev = sa[w - 1];
                let cur = sa[w];
                tmp[cur] = tmp[prev] + u32::from(key(&rank, prev, k) != key(&rank, cur, k));
            }
            rank.copy_from_slice(&tmp);
            if rank[sa[n - 1]] as usize == n - 1 {
                break; // all distinct
            }
            k *= 2;
        }
        sa
    }

    /// The induced sorter must agree with the reference on `data`.
    fn agrees(data: &[u8]) {
        let sa: Vec<usize> = suffix_array(data).iter().map(|&s| s as usize).collect();
        assert!(
            sa == reference_suffix_array(data),
            "suffix arrays differ on {} bytes starting {:?}",
            data.len(),
            &data[..data.len().min(32)]
        );
    }

    fn random_bytes(seed: u64, len: usize, alphabet: u64) -> Vec<u8> {
        let mut rng = tle_base::rng::XorShift64::new(seed);
        (0..len).map(|_| rng.below(alphabet) as u8).collect()
    }

    fn roundtrip(data: &[u8]) {
        let (bwt, primary) = bwt_encode(data);
        assert_eq!(bwt.len(), data.len());
        let dec = bwt_decode(&bwt, primary);
        assert_eq!(dec, data, "BWT roundtrip failed for {data:?}");
    }

    #[test]
    fn classic_banana() {
        // Known transform of "banana" with sentinel: "annb$aa" minus '$'.
        let (bwt, _primary) = bwt_encode(b"banana");
        assert_eq!(&bwt, b"annbaa");
        roundtrip(b"banana");
    }

    #[test]
    fn empty_and_single() {
        roundtrip(b"");
        roundtrip(b"x");
        roundtrip(b"\0");
        roundtrip(&[255]);
    }

    #[test]
    fn repeated_bytes() {
        roundtrip(b"aaaaaaaaaa");
        roundtrip(&[0u8; 100]);
        roundtrip(&[255u8; 37]);
    }

    #[test]
    fn alternating_and_periodic() {
        roundtrip(b"ababababab");
        roundtrip(b"abcabcabcabc");
        roundtrip(b"aabbaabbaabb");
    }

    #[test]
    fn all_byte_values_present() {
        let data: Vec<u8> = (0..=255u8).collect();
        roundtrip(&data);
        let rev: Vec<u8> = (0..=255u8).rev().collect();
        roundtrip(&rev);
    }

    #[test]
    fn english_text() {
        roundtrip(b"the quick brown fox jumps over the lazy dog");
        roundtrip(b"The Burrows-Wheeler transform rearranges a character string into runs of similar characters.");
    }

    #[test]
    fn random_blocks() {
        let mut rng = tle_base::rng::XorShift64::new(2024);
        for len in [2usize, 3, 7, 64, 1000, 4096] {
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn suffix_array_is_sorted() {
        let data = b"mississippi";
        let sa = suffix_array(data);
        assert_eq!(sa.len(), data.len() + 1);
        assert_eq!(sa[0] as usize, data.len(), "sentinel suffix sorts first");
        for w in sa.windows(2) {
            let a = &data[w[0] as usize..];
            let b = &data[w[1] as usize..];
            // Compare with implicit sentinel: shorter prefix-equal suffix
            // sorts first.
            assert!(
                a < b || (b.starts_with(a) && a.len() < b.len()),
                "suffixes out of order: {a:?} !< {b:?}"
            );
        }
    }

    #[test]
    fn every_short_binary_string_matches_reference() {
        for len in 0..=12usize {
            for bits in 0..1u32 << len {
                let data: Vec<u8> = (0..len).map(|i| b'a' + (bits >> i & 1) as u8).collect();
                agrees(&data);
            }
        }
    }

    #[test]
    fn degenerate_strings_match_reference() {
        for n in [1usize, 2, 100_003] {
            agrees(&vec![b'z'; n]);
        }
        for n in [1usize, 2, 3, 1000, 4097] {
            agrees(&b"ab".repeat(n));
            agrees(&b"ba".repeat(n));
        }
        let (mut fib, mut prev) = (b"a".to_vec(), b"b".to_vec());
        while fib.len() < 20_000 {
            let next = [fib.as_slice(), prev.as_slice()].concat();
            prev = std::mem::replace(&mut fib, next);
        }
        agrees(&fib);
        let thue_morse: Vec<u8> = (0..20_000u32).map(|i| (i.count_ones() & 1) as u8).collect();
        agrees(&thue_morse);
        let extremes: Vec<u8> = random_bytes(9, 5000, 2).iter().map(|&b| b * 255).collect();
        agrees(&extremes);
    }

    #[test]
    fn random_blocks_match_reference() {
        for (seed, alphabet) in [(1u64, 2u64), (2, 4), (3, 61), (4, 256)] {
            for len in [1usize, 2, 3, 17, 256, 1000, 4099, 30_000] {
                agrees(&random_bytes(seed * 1000 + len as u64, len, alphabet));
            }
        }
    }

    #[test]
    fn a_real_block_matches_reference() {
        agrees(&crate::rle::rle1_encode(&crate::gen_text(42, 100_000)));
    }

    #[test]
    fn bwt_groups_similar_context() {
        // For text with repeated contexts, the BWT output should contain
        // longer runs than the input — the property MTF+RLE exploit.
        let text = b"she sells sea shells by the sea shore she sells sea shells by the sea shore"
            .repeat(4);
        let (bwt, _) = bwt_encode(&text);
        let runs = |s: &[u8]| s.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(
            runs(&bwt) > runs(&text) * 2,
            "BWT did not concentrate runs: {} vs {}",
            runs(&bwt),
            runs(&text)
        );
    }
}
