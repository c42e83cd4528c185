//! Small deterministic PRNG — splitmix64 seeding + xoshiro256** output.
//!
//! The repository used `rand::rngs::SmallRng` for everything stochastic
//! (topology generation, workload draws). That pulled a registry
//! dependency into every crate and made offline builds impossible, while
//! none of `rand`'s generality was actually used. This module replaces it
//! with the same two classic generators `SmallRng` is built from:
//!
//! * [`splitmix64`] — a one-at-a-time mixing function, used to expand a
//!   `u64` seed into generator state and to hash seed tuples into
//!   independent per-task stream seeds (see [`hash2`]/[`hash3`]);
//! * [`SmallRng`] — xoshiro256** 1.0 (Blackman & Vigna), a 256-bit-state
//!   all-purpose generator with sub-nanosecond output and no statistical
//!   failures in BigCrush.
//!
//! The API surface mirrors the subset of `rand` the repo used —
//! `SmallRng::seed_from_u64` and `gen_range` over integer and float
//! ranges — so call sites changed only their `use` lines. Streams are
//! *not* bit-compatible with `rand`'s `SmallRng` (which is xoshiro256++);
//! all committed experiment goldens were regenerated with this module.

/// One step of the splitmix64 sequence: advances `*state` and returns the
/// next output. Passes PractRand at all sizes; used for seeding and
/// hashing, not as the main generator.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Hash two words into one well-mixed word (for deriving independent
/// per-task RNG seeds from a base seed plus an index).
#[inline]
pub fn hash2(a: u64, b: u64) -> u64 {
    let mut s = a;
    let x = splitmix64(&mut s);
    let mut s = x ^ b;
    splitmix64(&mut s)
}

/// Hash three words into one well-mixed word. Replaces the collision-prone
/// `seed ^ (pi << 32) ^ ti` xor-mixing the sweep harness used to use:
/// distinct `(seed, a, b)` triples map to unrelated streams even when the
/// inputs are small consecutive integers.
#[inline]
pub fn hash3(a: u64, b: u64, c: u64) -> u64 {
    let mut s = hash2(a, b) ^ c;
    splitmix64(&mut s)
}

/// FNV-1a over a byte string — the stable hash used for config
/// fingerprints in run manifests (not related to the RNG, but kept with
/// the other deterministic mixing primitives).
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF29CE484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001B3);
    }
    h
}

/// xoshiro256** 1.0 — the repo's deterministic small RNG.
///
/// `Clone` copies the stream position; two clones produce identical
/// sequences from the copy point on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Seed the generator from a single `u64` by running splitmix64 four
    /// times — the construction the xoshiro authors recommend (and the
    /// one `rand` uses for its own `seed_from_u64`).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SmallRng { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` using the top 53 bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample from a range, mirroring `rand::Rng::gen_range`.
    ///
    /// Supported range shapes are the ones the repo draws from:
    /// `usize`/`u64` half-open and inclusive ranges and `f64` half-open
    /// ranges. Panics on empty ranges, like `rand` does.
    #[inline]
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }
}

/// A range shape [`SmallRng::gen_range`] can sample from.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draw one uniform sample.
    fn sample(self, rng: &mut SmallRng) -> Self::Output;
}

/// Uniform integer in `[0, n)` by 128-bit widening multiply (Lemire's
/// multiply-shift; the bias is < 2⁻⁶⁴·n, irrelevant at the range sizes
/// used here).
#[inline]
fn below(rng: &mut SmallRng, n: u64) -> u64 {
    debug_assert!(n > 0);
    ((rng.next_u64() as u128 * n as u128) >> 64) as u64
}

impl SampleRange for core::ops::Range<usize> {
    type Output = usize;
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> usize {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + below(rng, (self.end - self.start) as u64) as usize
    }
}

impl SampleRange for core::ops::RangeInclusive<usize> {
    type Output = usize;
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> usize {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample empty range");
        lo + below(rng, (hi - lo) as u64 + 1) as usize
    }
}

impl SampleRange for core::ops::Range<u64> {
    type Output = u64;
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> u64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + below(rng, self.end - self.start)
    }
}

impl SampleRange for core::ops::Range<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut SmallRng) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector_xoshiro256starstar() {
        // First outputs for state seeded with splitmix64(0),
        // cross-checked against the published reference implementation.
        let mut sm = 0u64;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // splitmix64 reference outputs for seed 0.
        assert_eq!(s[0], 0xE220A8397B1DCDAF);
        assert_eq!(s[1], 0x6E789E6AA1B965F4);
        assert_eq!(s[2], 0x06C45D188009454F);
        assert_eq!(s[3], 0xF88BB8A8724C81EC);
        let mut rng = SmallRng { s };
        let first = rng.next_u64();
        // xoshiro256** first output = rotl(s[1] * 5, 7) * 9.
        assert_eq!(first, 0x6E789E6AA1B965F4u64.wrapping_mul(5).rotate_left(7).wrapping_mul(9));
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(43);
        assert_ne!(SmallRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = rng.gen_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(0usize..=4);
            assert!(y <= 4);
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
            let u = rng.gen_range(f64::EPSILON..1.0);
            assert!((f64::EPSILON..1.0).contains(&u));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SmallRng::seed_from_u64(0).gen_range(5usize..5);
    }

    #[test]
    fn hash_mixing_separates_neighbor_tuples() {
        // The old `seed ^ (pi << 32) ^ ti` mixing collided for
        // (pi, ti) = (0, 1) vs (1, 1<<32) style pairs and produced
        // correlated streams for consecutive indices. hash3 must not.
        let mut outs = std::collections::HashSet::new();
        for pi in 0..64u64 {
            for ti in 0..64u64 {
                assert!(outs.insert(hash3(0xBEEF, pi, ti)));
            }
        }
        // Avalanche sanity: one-bit input change flips ~half the output.
        let d = (hash3(0, 0, 0) ^ hash3(0, 0, 1)).count_ones();
        assert!((8..=56).contains(&d), "poor avalanche: {d} bits");
    }

    #[test]
    fn fnv1a_known_values() {
        assert_eq!(fnv1a(b""), 0xCBF29CE484222325);
        assert_eq!(fnv1a(b"a"), 0xAF63DC4C8601EC8C);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }

    #[test]
    fn next_f64_is_half_open_unit() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        for _ in 0..10_000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
            lo = lo.min(f);
            hi = hi.max(f);
        }
        assert!(lo < 0.01 && hi > 0.99, "poor coverage: [{lo}, {hi}]");
    }
}
