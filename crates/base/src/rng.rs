//! Tiny deterministic RNGs.
//!
//! The benchmark workloads (key choice in the Figure 5 microbenchmarks,
//! synthetic PBZip2 input, wfe frame noise) and the HTM simulator's "event"
//! aborts must be deterministic and reproducible, so everything is seeded
//! splitmix64 / xorshift64* rather than OS entropy. `rand` is still used at
//! the bench layer where distribution adapters are convenient.

/// splitmix64: excellent seed expander, decent standalone generator.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small xorshift64* PRNG.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeded constructor; a zero seed is remapped (xorshift cannot hold 0).
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        let expanded = splitmix64(&mut s);
        XorShift64 {
            state: if expanded == 0 {
                0x9E3779B97F4A7C15
            } else {
                expanded
            },
        }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Next 32 random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `[0, bound)` (Lemire's multiply-shift reduction; slight
    /// modulo bias is irrelevant at these bounds).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.chance_below(chance_threshold(p))
    }

    /// Bernoulli trial against a threshold from [`chance_threshold`]: the
    /// 53-bit draw [`next_f64`](Self::next_f64) scales, compared as an
    /// integer. The same decision as `next_f64() < p`, with no float
    /// conversion on the draw.
    #[inline]
    pub fn chance_below(&mut self, threshold: u64) -> bool {
        (self.next_u64() >> 11) < threshold
    }
}

/// The integer threshold of a [`XorShift64::chance`] at probability `p`:
/// the least integer not below `p · 2^53`, so that for every 53-bit draw
/// `k`, `k < threshold` exactly when `k · 2^-53 < p` (both products are
/// exact in `f64`). 0 for `p ≤ 0` or NaN; past 2^53 for `p > 1`.
pub fn chance_threshold(p: f64) -> u64 {
    let x = p * (1u64 << 53) as f64;
    // Saturating: negative and NaN give 0.
    let t = x as u64;
    if (t as f64) < x {
        t + 1
    } else {
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = XorShift64::new(1);
        let mut b = XorShift64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = XorShift64::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = XorShift64::new(7);
        for _ in 0..10_000 {
            assert!(r.below(10) < 10);
        }
        // All residues appear.
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[r.below(10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut r = XorShift64::new(99);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn integer_chance_decides_as_the_float_draw_did() {
        for p in [0.0, 2e-4, 0.5, 1.0] {
            let mut float = XorShift64::new(42);
            let mut int = XorShift64::new(42);
            for _ in 0..1_000_000 {
                assert_eq!(float.next_f64() < p, int.chance(p), "p = {p}");
            }
        }
        assert_eq!(chance_threshold(0.0), 0);
        assert_eq!(chance_threshold(-1.0), 0);
        assert_eq!(chance_threshold(f64::NAN), 0);
        assert_eq!(chance_threshold(1.0), 1 << 53);
        assert_eq!(chance_threshold(0.5), 1 << 52);
    }

    #[test]
    fn chance_matches_probability() {
        let mut r = XorShift64::new(5);
        let hits = (0..100_000).filter(|_| r.chance(0.25)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }
}
