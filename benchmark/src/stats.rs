//! Digests, order statistics and the oracle tolerance shared by every
//! workload.
//!
//! The benchmark keeps its own FNV-1a rather than borrowing one from the
//! crates under test: an input pin must not move when the code it guards
//! changes its hashing.

use spaden_sparse::Csr;

/// Incremental FNV-1a (64-bit) over little-endian words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn f32s(&mut self, vs: &[f32]) {
        self.u64(vs.len() as u64);
        for v in vs {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    pub fn u32s(&mut self, vs: &[u32]) {
        self.u64(vs.len() as u64);
        for v in vs {
            self.bytes(&v.to_le_bytes());
        }
    }

    /// Dimensions and all three CSR arrays, values by bit pattern.
    pub fn csr(&mut self, c: &Csr) {
        self.u64(c.nrows as u64);
        self.u64(c.ncols as u64);
        self.u32s(&c.row_ptr);
        self.u32s(&c.col_idx);
        self.f32s(&c.values);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `[0, 100]`) of ascending `sorted`, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The highest nearest-rank percentile up to p99 that still has
/// [`MIN_BEYOND`] samples beyond it: `(percentile, value)`. It is p99
/// once there are at least 1,000 samples.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let rank = ((0.99 * n as f64).ceil() as usize)
        .min(n - MIN_BEYOND)
        .max(1);
    Some((100.0 * rank as f64 / n as f64, sorted[rank - 1]))
}

/// Sorts a sample ascending (total order, so NaN cannot panic).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median and the first and third quartiles (linear interpolation).
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v.to_vec());
    let at = |q: f64| {
        if s.is_empty() {
            return 0.0;
        }
        let pos = q * (s.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
    };
    (at(0.5), at(0.25), at(0.75))
}

/// Geometric mean of positive values (0 for an empty input).
pub fn geomean(vs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in vs {
        sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

/// Per-row tolerance of an f16 tensor-core result against the f64
/// oracle: unit roundoff scaled by the row's accumulation length and the
/// result's magnitude. The same formula as the traffic engine's oracle
/// check, so the benchmark accepts exactly what the serving tests accept.
pub fn oracle_tol(csr: &Csr, row: usize, oracle: f64) -> f64 {
    let row_nnz = (csr.row_ptr[row + 1] - csr.row_ptr[row]) as f64;
    (2.0f64.powi(-10) * 3.0 * row_nnz.max(1.0) + 1e-4) * oracle.abs().max(1.0)
}

/// Checks `y` against the f64 oracle `A x` row by row. Returns the first
/// failing row with its error, or the shape mismatch.
pub fn check_oracle(csr: &Csr, x: &[f32], y: &[f32]) -> Result<(), String> {
    let oracle = csr.spmv_f64(x).map_err(|e| format!("oracle: {e}"))?;
    if y.len() != oracle.len() {
        return Err(format!(
            "y has {} rows, the matrix {}",
            y.len(),
            oracle.len()
        ));
    }
    for (r, (&got, &want)) in y.iter().zip(&oracle).enumerate() {
        let err = (got as f64 - want).abs();
        if err.is_nan() || err > oracle_tol(csr, r, want) {
            return Err(format!("row {r}: got {got}, oracle {want}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        // p91 leaves exactly 9 samples beyond it.
        assert_eq!(percentile(&v, 91.0), None);
        assert_eq!(percentile(&v, 99.0), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 99.0), Some(990.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_is_p99_with_enough_samples_and_backs_off_otherwise() {
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&big), Some((99.0, 1980.0)));
        let small: Vec<f64> = (1..=84).map(f64::from).collect();
        let (p, v) = tail(&small).expect("84 samples have a tail");
        assert_eq!(v, 74.0, "exactly ten samples beyond");
        assert!((p - 100.0 * 74.0 / 84.0).abs() < 1e-12);
        assert_eq!(tail(&small[..10]), None);
    }

    #[test]
    fn oracle_check_rejects_y_just_past_tolerance() {
        let csr = spaden_sparse::gen::random_uniform(48, 48, 400, 5);
        let x = spaden_traffic::traffic_x(48, 3);
        let oracle = csr.spmv_f64(&x).unwrap();
        let row = (0..48).max_by_key(|&r| csr.row_nnz(r)).unwrap();
        let tol = oracle_tol(&csr, row, oracle[row]);
        let exact: Vec<f32> = oracle.iter().map(|&v| v as f32).collect();
        assert_eq!(check_oracle(&csr, &x, &exact), Ok(()));
        let mut inside = exact.clone();
        inside[row] = (oracle[row] + 0.9 * tol) as f32;
        assert_eq!(check_oracle(&csr, &x, &inside), Ok(()));
        let mut past = exact;
        past[row] = (oracle[row] + 1.1 * tol) as f32;
        assert!(check_oracle(&csr, &x, &past).is_err());
        assert!(check_oracle(&csr, &x, &past[..47]).is_err());
    }

    #[test]
    fn fnv_distinguishes_value_bits() {
        let digest = |v: f32| {
            let mut h = Fnv::default();
            h.f32s(&[v]);
            h.finish()
        };
        assert_eq!(digest(1.0), digest(1.0));
        assert_ne!(digest(0.0), digest(-0.0));
    }

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), (3.0, 2.0, 4.0));
    }
}
