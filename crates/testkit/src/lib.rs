//! Dependency-free helpers for deterministic randomized tests.
//!
//! The workspace builds in fully offline environments, so it cannot pull
//! `proptest` or `rand` from crates.io. This crate provides the small
//! slice of those libraries the tests actually use:
//!
//! * [`Rng`] — a fast, seedable SplitMix64 generator;
//! * [`cases`] — run a closure over `n` deterministic random cases,
//!   reporting the failing seed so a failure reproduces exactly;
//! * [`faults`] — deterministic fault injection ([`faults::FaultPlan`])
//!   driving the chaos suite and the execution supervisor's tests;
//! * [`genprog`] — a seeded random `zlang` program generator for
//!   differential testing.

pub mod faults;
pub mod genprog;

/// A SplitMix64 pseudo-random generator: tiny, fast, and deterministic
/// across platforms. Good enough statistical quality for test-case
/// generation (it passes BigCrush when used as a 64-bit stream).
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        Rng {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// The next raw 64-bit value.
    pub fn u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform `usize` in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (self.u64() % n as u64) as usize
    }

    /// A uniform `i64` in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "range({lo}, {hi})");
        let span = (hi - lo) as u64 + 1;
        lo + (self.u64() % span) as i64
    }

    /// A uniform `f64` in `[lo, hi)`.
    pub fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    /// A uniform boolean.
    pub fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// A uniform choice from a slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Runs `f` over `n` deterministic random cases derived from `seed`.
///
/// Each case gets its own [`Rng`] seeded from `(seed, case index)`, so a
/// failure message's seed reproduces that single case in isolation. The
/// closure panics to signal failure (plain `assert!` works).
pub fn cases(n: u64, seed: u64, mut f: impl FnMut(&mut Rng)) {
    for i in 0..n {
        let case_seed = seed ^ i.wrapping_mul(0xA076_1D64_78BD_642F);
        let mut rng = Rng::new(case_seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rng)));
        if let Err(payload) = result {
            eprintln!("testkit: case {i} of {n} failed (rerun with Rng::new({case_seed:#x}))");
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn range_is_inclusive_and_bounded() {
        let mut r = Rng::new(1);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2000 {
            let v = r.range(-3, 3);
            assert!((-3..=3).contains(&v));
            seen_lo |= v == -3;
            seen_hi |= v == 3;
        }
        assert!(seen_lo && seen_hi, "endpoints must be reachable");
    }

    #[test]
    fn f64_stays_in_range() {
        let mut r = Rng::new(2);
        for _ in 0..1000 {
            let v = r.f64(-1.0, 4.0);
            assert!((-1.0..4.0).contains(&v));
        }
    }

    #[test]
    fn cases_reports_distinct_streams() {
        let mut first = Vec::new();
        cases(8, 42, |rng| first.push(rng.u64()));
        let mut second = Vec::new();
        cases(8, 42, |rng| second.push(rng.u64()));
        assert_eq!(first, second, "same seed, same cases");
        assert_eq!(first.len(), 8);
        assert!(first.windows(2).any(|w| w[0] != w[1]), "cases differ");
    }
}
