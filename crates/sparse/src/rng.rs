//! Deterministic pseudo-random number generation.
//!
//! The synthetic stand-ins for the paper's SuiteSparse matrices must be
//! bit-identical across platforms and runs so that every figure is exactly
//! reproducible. We therefore use a self-contained PCG-XSL-RR 128/64
//! generator (O'Neill, 2014) instead of pulling in `rand`, whose default
//! generators and APIs drift across versions.

use crate::fingerprint::Fnv;

/// PCG-XSL-RR 128/64: 128-bit LCG state, 64-bit xorshift-rotate output.
///
/// Passes BigCrush; more than adequate for workload synthesis.
#[derive(Debug, Clone)]
pub struct Pcg64 {
    state: u128,
    inc: u128,
}

const PCG_MULT: u128 = 0x2360_ed05_1fc6_5da4_4385_df64_9fcc_f645;

impl Pcg64 {
    /// Creates a generator from a seed and a stream selector.
    ///
    /// Distinct `(seed, stream)` pairs give statistically independent
    /// sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        let inc = (((stream as u128) << 64 | 0xda3e_39cb_94b9_5bdb) << 1) | 1;
        let mut rng = Pcg64 { state: 0, inc };
        rng.step();
        rng.state = rng.state.wrapping_add(seed as u128);
        rng.step();
        rng
    }

    /// Creates a generator seeded for a named dataset, so each dataset has
    /// its own independent stream.
    pub fn for_dataset(name: &str, seed: u64) -> Self {
        // FNV-1a over the name picks the stream.
        let mut h = Fnv::new();
        h.bytes(name.as_bytes());
        Pcg64::new(seed, h.finish())
    }

    #[inline]
    fn step(&mut self) {
        self.state = self.state.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.step();
        let rot = (self.state >> 122) as u32;
        let xored = ((self.state >> 64) as u64) ^ (self.state as u64);
        xored.rotate_right(rot)
    }

    /// Next 32-bit output.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift with
    /// rejection (unbiased).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` in `[0, bound)`.
    #[inline]
    pub fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform float in `[0, 1)` with 53 bits of randomness.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[0, 1)` (single precision).
    #[inline]
    pub fn f32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform float in `[lo, hi)`.
    #[inline]
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.f32()
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Sample from a bounded Zipf-like distribution over `[0, n)` with
    /// exponent `s`, via inverse-CDF on the harmonic partial sums
    /// approximated analytically (fast, adequate for workload shaping).
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        debug_assert!(n > 0);
        if n == 1 {
            return 0;
        }
        // Inverse transform on the continuous approximation of the Zipf CDF
        // (integral of x^-s), then clamp to the valid range.
        let u = self.f64();
        let nn = n as f64;
        let v = if (s - 1.0).abs() < 1e-9 {
            nn.powf(u)
        } else {
            let t = 1.0 - s;
            ((nn.powf(t) - 1.0) * u + 1.0).powf(1.0 / t)
        };
        ((v - 1.0).max(0.0) as usize).min(n - 1)
    }

    /// Standard-normal sample via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        let u1 = self.f64().max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, data: &mut [T]) {
        for i in (1..data.len()).rev() {
            let j = self.below_usize(i + 1);
            data.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Pcg64::new(42, 7);
        let mut b = Pcg64::new(42, 7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_differ() {
        let mut a = Pcg64::new(42, 1);
        let mut b = Pcg64::new(42, 2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn seeds_differ() {
        let mut a = Pcg64::new(1, 0);
        let mut b = Pcg64::new(2, 0);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Pcg64::new(3, 3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn f64_in_unit_interval_with_reasonable_mean() {
        let mut rng = Pcg64::new(9, 0);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }

    #[test]
    fn zipf_is_skewed_toward_small_values() {
        let mut rng = Pcg64::new(5, 5);
        let n = 1000;
        let mut low = 0usize;
        for _ in 0..n {
            if rng.zipf(10_000, 1.2) < 100 {
                low += 1;
            }
        }
        // A Zipf(1.2) draw over 10k buckets lands in the first 1% far more
        // often than uniform (which would be ~1%).
        assert!(low > n / 4, "only {low}/{n} draws in the head");
    }

    #[test]
    fn zipf_handles_single_bucket() {
        let mut rng = Pcg64::new(1, 1);
        assert_eq!(rng.zipf(1, 1.1), 0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Pcg64::new(11, 0);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle should move things");
    }

    #[test]
    fn normal_has_zero_mean_unit_variance() {
        let mut rng = Pcg64::new(2, 8);
        let n = 20_000;
        let (mut s, mut s2) = (0.0, 0.0);
        for _ in 0..n {
            let x = rng.normal();
            s += x;
            s2 += x * x;
        }
        let mean = s / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn dataset_streams_are_stable() {
        // Guard against accidental changes to the hashing: these values pin
        // the generator output for two dataset names.
        let mut a = Pcg64::for_dataset("raefsky3", 1);
        let mut b = Pcg64::for_dataset("raefsky3", 1);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = Pcg64::for_dataset("pwtk", 1);
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
