//! Reproducible random-number streams.
//!
//! Every experiment in this reproduction is seeded. A single master seed is
//! fanned out into independent named streams (arrivals, service latencies,
//! monitoring noise, model initialization, …) so that changing how many draws
//! one subsystem makes does not perturb any other subsystem — the classic
//! "common random numbers" discipline for simulation studies.

use rand::{Rng, RngExt, SeedableRng, TryRng};
use rand_chacha::ChaCha8Rng;
use std::convert::Infallible;

/// A named, seedable random stream (ChaCha8 under the hood).
///
/// # Examples
///
/// ```
/// use sizeless_engine::rng::RngStream;
///
/// let mut a = RngStream::from_seed(7, "arrivals");
/// let mut b = RngStream::from_seed(7, "arrivals");
/// assert_eq!(a.next_f64(), b.next_f64()); // same seed + label → same stream
///
/// let mut c = RngStream::from_seed(7, "noise");
/// assert_ne!(a.next_f64(), c.next_f64()); // different label → different stream
/// ```
#[derive(Debug, Clone)]
pub struct RngStream {
    inner: ChaCha8Rng,
}

impl RngStream {
    /// Derives a stream from a master seed and a stream label.
    ///
    /// The label is hashed (FNV-1a) into the seed so that streams with
    /// different labels are decorrelated even under the same master seed.
    pub fn from_seed(master_seed: u64, label: &str) -> Self {
        let mixed = fnv1a(label).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ master_seed;
        RngStream {
            inner: ChaCha8Rng::seed_from_u64(mixed),
        }
    }

    /// Derives a sub-stream, e.g. one per generated function.
    ///
    /// # Examples
    ///
    /// ```
    /// use sizeless_engine::rng::RngStream;
    ///
    /// let root = RngStream::from_seed(1, "funcgen");
    /// let mut f0 = root.derive("function-0");
    /// let mut f1 = root.derive("function-1");
    /// assert_ne!(f0.next_f64(), f1.next_f64());
    /// ```
    pub fn derive(&self, label: &str) -> Self {
        // Derivation depends only on the parent's seed stream identity, not
        // on how many values were drawn from it, so layouts stay stable.
        let base = self.inner.get_seed();
        let mut acc = fnv1a(label);
        for chunk in base.chunks(8) {
            let mut bytes = [0u8; 8];
            bytes[..chunk.len()].copy_from_slice(chunk);
            acc = acc.rotate_left(13) ^ u64::from_le_bytes(bytes);
        }
        RngStream {
            inner: ChaCha8Rng::seed_from_u64(acc),
        }
    }

    /// Next uniform value in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// Next uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform range must be non-empty");
        lo + (hi - lo) * self.next_f64()
    }

    /// Next integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample an index from an empty range");
        self.inner.random_range(0..n)
    }

    /// Next integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn int_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "int_range requires lo <= hi");
        self.inner.random_range(lo..=hi)
    }

    /// Bernoulli draw with success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.index(xs.len())]
    }

    /// Standard-normal draw via Box–Muller: [`box_muller`] of the next two
    /// uniforms.
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        let first = self.next_f64();
        let second = self.next_f64();
        box_muller(first, second)
    }
}

/// The Box–Muller transform behind [`RngStream::standard_normal`]: one
/// standard normal from two consecutive `[0, 1)` uniforms, passed in draw
/// order. A caller that needs several normals can draw all their uniforms
/// first and transform them afterwards, so the `ln`/`cos` work no longer
/// waits on the generator, with every value bit-identical to calling
/// `standard_normal` once per normal.
#[inline]
pub fn box_muller(first: f64, second: f64) -> f64 {
    // Avoid ln(0) by shifting the first uniform into (0, 1].
    let u1 = 1.0 - first;
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * second).cos()
}

// Implementing `TryRng<Error = Infallible>` grants the blanket `Rng` impl,
// so an `RngStream` can be handed to any `rand`-based consumer.
impl TryRng for RngStream {
    type Error = Infallible;
    fn try_next_u32(&mut self) -> Result<u32, Infallible> {
        Ok(self.inner.next_u32())
    }
    fn try_next_u64(&mut self) -> Result<u64, Infallible> {
        Ok(self.inner.next_u64())
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Infallible> {
        self.inner.fill_bytes(dest);
        Ok(())
    }
}

/// FNV-1a over a string: the stable, dependency-free hash behind stream
/// labeling — and, exported, behind anything else that needs a
/// platform-stable fingerprint (e.g. artifact config hashes).
pub fn fnv1a(s: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_per_seed_and_label() {
        let mut a = RngStream::from_seed(99, "x");
        let mut b = RngStream::from_seed(99, "x");
        for _ in 0..100 {
            assert_eq!(a.next_f64(), b.next_f64());
        }
    }

    #[test]
    fn labels_decorrelate() {
        let mut a = RngStream::from_seed(99, "x");
        let mut b = RngStream::from_seed(99, "y");
        let va: Vec<f64> = (0..10).map(|_| a.next_f64()).collect();
        let vb: Vec<f64> = (0..10).map(|_| b.next_f64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn seeds_decorrelate() {
        let mut a = RngStream::from_seed(1, "x");
        let mut b = RngStream::from_seed(2, "x");
        assert_ne!(a.next_f64(), b.next_f64());
    }

    #[test]
    fn derive_is_independent_of_parent_draws() {
        let mut p1 = RngStream::from_seed(5, "root");
        let p2 = RngStream::from_seed(5, "root");
        let _ = p1.next_f64(); // consume from p1 only
        let mut c1 = p1.derive("child");
        let mut c2 = p2.derive("child");
        assert_eq!(c1.next_f64(), c2.next_f64());
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = RngStream::from_seed(3, "u");
        for _ in 0..1000 {
            let v = r.uniform(2.0, 5.0);
            assert!((2.0..5.0).contains(&v));
        }
    }

    #[test]
    fn index_respects_bounds() {
        let mut r = RngStream::from_seed(3, "i");
        for _ in 0..1000 {
            assert!(r.index(7) < 7);
        }
    }

    #[test]
    fn int_range_inclusive() {
        let mut r = RngStream::from_seed(3, "ir");
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2000 {
            let v = r.int_range(1, 3);
            assert!((1..=3).contains(&v));
            seen_lo |= v == 1;
            seen_hi |= v == 3;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn chance_extremes() {
        let mut r = RngStream::from_seed(3, "c");
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn shuffle_preserves_elements() {
        let mut r = RngStream::from_seed(8, "s");
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = RngStream::from_seed(12, "n");
        let xs: Vec<f64> = (0..20_000).map(|_| r.standard_normal()).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.05, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_uniform_panics() {
        let mut r = RngStream::from_seed(0, "p");
        let _ = r.uniform(1.0, 1.0);
    }
}
