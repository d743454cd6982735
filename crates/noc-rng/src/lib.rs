//! Minimal deterministic PRNG for the deadlock-removal suite.
//!
//! The container this suite builds in has no access to crates.io, so the
//! benchmark generators and the traffic generator cannot depend on the
//! `rand` crate.  This crate provides the tiny slice of `rand`'s API the
//! suite actually uses — a seedable small RNG with ranged sampling — backed
//! by `splitmix64` seeding and a `xoshiro256++` core, both public-domain
//! algorithms (Blackman & Vigna).
//!
//! Determinism is part of the contract: the same seed always yields the same
//! sequence on every platform, which keeps every benchmark communication
//! graph and every simulated workload reproducible run-to-run.
//!
//! # Example
//!
//! ```
//! use noc_rng::SmallRng;
//!
//! let mut rng = SmallRng::seed_from_u64(42);
//! let bw: f64 = rng.gen_range(100.0..800.0);
//! assert!((100.0..800.0).contains(&bw));
//! let gap: u64 = rng.gen_range(0..=10);
//! assert!(gap <= 10);
//! assert_eq!(
//!     SmallRng::seed_from_u64(7).next_u64(),
//!     SmallRng::seed_from_u64(7).next_u64(),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// A small, fast, seedable PRNG (xoshiro256++ core, splitmix64 seeding).
///
/// Not cryptographically secure — statistical quality only, which is all the
/// suite needs for synthetic bandwidth values and traffic jitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Creates an RNG whose full state is derived from `seed` via
    /// splitmix64, so nearby seeds still produce uncorrelated streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SmallRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` (53 mantissa bits).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Samples uniformly from `range`.  Mirrors `rand::Rng::gen_range` for
    /// the range shapes the suite uses (`Range<f64>`, `Range<usize>`,
    /// `RangeInclusive<u64>`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample(self)
    }
}

/// A range type [`SmallRng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample(self, rng: &mut SmallRng) -> T;
}

impl SampleRange<f64> for Range<f64> {
    fn sample(self, rng: &mut SmallRng) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let v = self.start + (self.end - self.start) * rng.next_f64();
        // Floating-point rounding can land exactly on the exclusive upper
        // bound when the span is large relative to its ulp; keep the
        // half-open contract by stepping just below it.
        if v < self.end {
            v
        } else {
            self.end.next_down().max(self.start)
        }
    }
}

impl SampleRange<u64> for RangeInclusive<u64> {
    fn sample(self, rng: &mut SmallRng) -> u64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return rng.next_u64();
        }
        // Debiased modulo rejection sampling.
        let span = span + 1;
        let zone = u64::MAX - (u64::MAX % span);
        loop {
            let v = rng.next_u64();
            if v < zone {
                return lo + v % span;
            }
        }
    }
}

impl SampleRange<usize> for Range<usize> {
    fn sample(self, rng: &mut SmallRng) -> usize {
        assert!(self.start < self.end, "cannot sample empty range");
        let span = (self.end - self.start) as u64;
        (self.start as u64 + (0..=span - 1).sample(rng)) as usize
    }
}

/// Applies one seeded corruption to `bytes`, the edit the suite's fuzz
/// tests make to a well-formed document: truncate it at a random
/// position, flip one bit there, insert one of `fragments` there, or
/// replace the value after the first `":` at or past it with a fragment.
/// The last edit keeps a JSON document well formed while a value a reader
/// trusts turns hostile.
///
/// # Panics
///
/// Panics if `fragments` is empty.
pub fn mutate(bytes: &mut Vec<u8>, rng: &mut SmallRng, fragments: &[&str]) {
    let at = rng.gen_range(0..bytes.len() + 1);
    let fragment = fragments[rng.gen_range(0..fragments.len())].bytes();
    match rng.gen_range(0..4usize) {
        0 => bytes.truncate(at),
        1 => {
            if let Some(byte) = bytes.get_mut(at) {
                *byte ^= 1 << rng.gen_range(0..8usize);
            }
        }
        2 => drop(bytes.splice(at..at, fragment)),
        _ => {
            if let Some(start) = (at.max(2)..=bytes.len()).find(|&i| &bytes[i - 2..i] == b"\":") {
                let end = bytes[start..].iter().position(|b| b",}]".contains(b));
                drop(bytes.splice(start..end.map_or(bytes.len(), |n| start + n), fragment));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(123);
        let mut b = SmallRng::seed_from_u64(123);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_range_stays_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..1000 {
            let v = rng.gen_range(5.0..50.0);
            assert!((5.0..50.0).contains(&v));
        }
    }

    #[test]
    fn f64_range_never_returns_the_exclusive_bound() {
        // With start = 2^53 and a 4-wide span, the result granularity is one
        // ulp = 2, so naive scaling rounds onto `end` roughly a quarter of
        // the time; the half-open contract must hold anyway.
        let (start, end) = (9007199254740992.0, 9007199254740996.0);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = rng.gen_range(start..end);
            assert!((start..end).contains(&v), "{v} escaped [{start}, {end})");
        }
    }

    #[test]
    fn u64_inclusive_range_covers_endpoints() {
        let mut rng = SmallRng::seed_from_u64(77);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            let v = rng.gen_range(0u64..=3);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn usize_range_is_uniformish() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut counts = [0usize; 8];
        for _ in 0..8000 {
            counts[rng.gen_range(0usize..8)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 600), "{counts:?}");
    }

    #[test]
    fn degenerate_inclusive_range_returns_the_value() {
        let mut rng = SmallRng::seed_from_u64(4);
        assert_eq!(rng.gen_range(7u64..=7), 7);
    }

    #[test]
    fn mutate_makes_each_of_its_four_edits() {
        let doc = br#"{"a":1,"b":[2,3],"c":"x"}"#;
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seen = [false; 4];
        for _ in 0..200 {
            let mut bytes = doc.to_vec();
            mutate(&mut bytes, &mut rng, &["@"]);
            let edit = if bytes.contains(&b'@') {
                if bytes.len() == doc.len() + 1 {
                    2
                } else {
                    3
                }
            } else if doc.starts_with(&bytes) {
                0
            } else {
                let diff = bytes.iter().zip(doc).filter(|(a, b)| a != b).count();
                assert_eq!((bytes.len(), diff), (doc.len(), 1), "{bytes:?}");
                1
            };
            seen[edit] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = rng.gen_range(3.0..3.0);
    }
}
