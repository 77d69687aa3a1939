//! Synthetic sparse-matrix generators.
//!
//! Two families:
//!
//! * **Element-level** generators ([`random_uniform`], [`scale_free`],
//!   [`banded`]) draw individual nonzeros; used by the examples (PageRank,
//!   CF) and by tests that need arbitrary structure.
//! * The **block-level** generator ([`generate_blocked`]) draws non-empty
//!   8×8 blocks first and then fills each block with a controlled number of
//!   nonzeros. This gives direct control over the quantities the paper's
//!   evaluation depends on — block count (`Bnnz` in Table 1) and the
//!   sparse/medium/dense block mix (Figure 9a) — which is how
//!   [`crate::datasets`] matches the SuiteSparse matrices' statistics.
//!
//! [`value_only_batch`] and [`structural_batch`] draw delta batches
//! against an existing matrix for the evolving-matrix scenarios.
//!
//! All generators are deterministic given their seed (see [`crate::rng`]).

use crate::coo::Coo;
use crate::csr::Csr;
use crate::delta::{Delta, DeltaBatch};
use crate::rng::Pcg64;
use std::collections::BTreeSet;

/// Block edge length used throughout the reproduction (the paper fixes
/// 8×8 blocks so a block's occupancy fits a 64-bit bitmap).
pub const BLOCK_DIM: usize = 8;

/// How non-empty blocks are placed within each block-row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Placement {
    /// Block columns within `bandwidth` block-columns of the diagonal
    /// (FEM / structural matrices: cant, shipsec1, pwtk, F1...).
    Banded {
        /// Half-bandwidth in units of blocks.
        bandwidth: usize,
    },
    /// Uniformly random block columns (DFT matrices: Si41Ge41H72,
    /// Ga41As41H72 — scattered far off-diagonal).
    Scattered,
    /// A few cluster centres per block-row with blocks packed around them
    /// (protein / CFD matrices: pdb1HYS, rma10, consph).
    Clustered {
        /// Number of cluster centres per block-row.
        clusters: usize,
        /// Cluster radius in block-columns.
        radius: usize,
    },
    /// Zipf-distributed block columns (power-law web/circuit matrices).
    PowerLaw {
        /// Zipf exponent; larger = heavier head.
        exponent: f64,
    },
    /// Fixed relative offsets from the diagonal block, wrapping around
    /// (QCD lattice stencils: conf5).
    Stencil,
}

/// Distribution of nonzeros per non-empty 8×8 block (1..=64).
#[derive(Debug, Clone, PartialEq)]
pub enum FillDist {
    /// Every block completely dense (raefsky3).
    Dense,
    /// Uniform over `[lo, hi]` inclusive.
    Uniform {
        /// Minimum nonzeros per block.
        lo: u8,
        /// Maximum nonzeros per block.
        hi: u8,
    },
    /// Weighted mixture of uniform ranges; weights need not be normalised.
    Mix(Vec<(f64, u8, u8)>),
}

impl FillDist {
    /// Draws a block fill count in `1..=64`.
    pub fn sample(&self, rng: &mut Pcg64) -> u8 {
        let v = match self {
            FillDist::Dense => 64,
            FillDist::Uniform { lo, hi } => {
                debug_assert!(lo <= hi);
                *lo + rng.below((*hi - *lo + 1) as u64) as u8
            }
            FillDist::Mix(parts) => {
                let total: f64 = parts.iter().map(|p| p.0).sum();
                let mut pick = rng.f64() * total;
                let mut chosen = parts.last().expect("non-empty mix");
                for p in parts {
                    if pick < p.0 {
                        chosen = p;
                        break;
                    }
                    pick -= p.0;
                }
                chosen.1 + rng.below((chosen.2 - chosen.1 + 1) as u64) as u8
            }
        };
        v.clamp(1, 64)
    }

    /// Expected fill per block; used to size `Bnnz` so the generated `nnz`
    /// hits the Table-1 target.
    pub fn mean(&self) -> f64 {
        match self {
            FillDist::Dense => 64.0,
            FillDist::Uniform { lo, hi } => (*lo as f64 + *hi as f64) / 2.0,
            FillDist::Mix(parts) => {
                let total: f64 = parts.iter().map(|p| p.0).sum();
                parts
                    .iter()
                    .map(|(w, lo, hi)| w / total * (*lo as f64 + *hi as f64) / 2.0)
                    .sum()
            }
        }
    }
}

/// Generates a square matrix by placing `bnnz_target` non-empty 8×8 blocks
/// according to `placement` and filling each from `fill`.
///
/// The diagonal block of every block-row is always present (all Table-1
/// matrices have strong diagonals), and the first intra-block position of a
/// diagonal block is the true diagonal element, which keeps matrices usable
/// for iterative solvers.
pub fn generate_blocked(
    nrows: usize,
    bnnz_target: usize,
    placement: Placement,
    fill: &FillDist,
    seed: u64,
) -> Csr {
    let bnrow = nrows.div_ceil(BLOCK_DIM);
    let mut rng = Pcg64::new(seed, 0x51ab);
    let per_row_base = bnnz_target / bnrow.max(1);
    let remainder = bnnz_target - per_row_base * bnrow;

    // Stencil offsets reminiscent of a 4D lattice operator (conf5): the
    // diagonal plus symmetric hops at several strides. 21 offsets supports
    // conf5's ~17.7 blocks per block-row.
    let stencil_offsets: Vec<i64> = vec![
        -1024, -512, -256, -128, -64, -16, -8, -4, -2, -1, 0, 1, 2, 4, 8, 16, 64, 128, 256, 512,
        1024,
    ];

    let mut coo = Coo::new(nrows, nrows);
    let mut block_cols: Vec<usize> = Vec::new();
    let mut positions: Vec<u8> = (0..64).collect();

    for br in 0..bnrow {
        let want = per_row_base + usize::from(br < remainder);
        if want == 0 {
            continue;
        }
        block_cols.clear();
        block_cols.push(br); // diagonal block
        let mut guard = 0usize;
        while block_cols.len() < want && guard < want * 20 {
            guard += 1;
            let bc = match placement {
                Placement::Banded { bandwidth } => {
                    let span = (2 * bandwidth + 1).min(bnrow);
                    let lo = br.saturating_sub(bandwidth);
                    let lo = lo.min(bnrow - span);
                    lo + rng.below_usize(span)
                }
                Placement::Scattered => rng.below_usize(bnrow),
                Placement::Clustered { clusters, radius } => {
                    // Deterministic cluster centres derived from the row,
                    // so neighbouring block-rows share centres (locality).
                    let k = rng.below_usize(clusters.max(1));
                    let centre = ((br / 16) * 16 + k * 37) % bnrow;
                    let off = rng.below_usize(2 * radius + 1);
                    (centre + off).saturating_sub(radius).min(bnrow - 1)
                }
                Placement::PowerLaw { exponent } => rng.zipf(bnrow, exponent),
                Placement::Stencil => {
                    let o = stencil_offsets[rng.below_usize(stencil_offsets.len())];
                    (br as i64 + o).rem_euclid(bnrow as i64) as usize
                }
            };
            if !block_cols.contains(&bc) {
                block_cols.push(bc);
            }
        }
        block_cols.sort_unstable();

        for &bc in block_cols.iter() {
            let k = fill.sample(&mut rng) as usize;
            // Partial Fisher-Yates: first k entries of `positions` become a
            // uniform k-subset of 0..64.
            for i in 0..k {
                let j = i + rng.below_usize(64 - i);
                positions.swap(i, j);
            }
            let diagonal_block = bc == br;
            let mut wrote_diag = false;
            for &p in &positions[..k] {
                let (dr, dc) = ((p / 8) as usize, (p % 8) as usize);
                let r = br * BLOCK_DIM + dr;
                let c = bc * BLOCK_DIM + dc;
                if r >= nrows || c >= nrows {
                    continue; // edge block clipped by the matrix boundary
                }
                if diagonal_block && dr == dc {
                    wrote_diag = true;
                }
                coo.push(r as u32, c as u32, rng.range_f32(-1.0, 1.0));
            }
            if diagonal_block && !wrote_diag {
                // Force one true diagonal element per block-row (replaces
                // nothing: positions are distinct so this may add one).
                let dr = rng.below_usize(BLOCK_DIM);
                let r = br * BLOCK_DIM + dr;
                if r < nrows {
                    coo.push(r as u32, r as u32, rng.range_f32(0.5, 1.5));
                }
            }
        }
    }
    coo.to_csr()
}

/// One numerical edge case: a named matrix plus the input vector that
/// tickles it.
#[derive(Debug, Clone)]
pub struct EdgeCase {
    /// Short identifier printed in reports ("f16-overflow", "all-empty"...).
    pub name: &'static str,
    /// The matrix.
    pub matrix: Csr,
    /// Input vector of length `matrix.ncols`.
    pub x: Vec<f32>,
}

/// Numerical and structural edge cases for the f16 guard rails: values
/// straddling the f16 representable range (overflow to Inf above ~65504,
/// underflow to zero below ~6e-8), mixed-sign cancellation, f32 denormals,
/// and degenerate structure (empty rows and columns, 1×1, zero nnz). Every
/// case is small enough to push through the full serving ladder in tests.
pub fn numerical_edge_corpus() -> Vec<EdgeCase> {
    let n = 32;
    let mut corpus = Vec::new();

    // Benign magnitudes: a control case that must never trip a guard rail.
    corpus.push(EdgeCase {
        name: "benign",
        matrix: banded(n, 2, 3, 0xed6e_0001),
        x: (0..n).map(|i| (i as f32 * 0.13).sin()).collect(),
    });

    // x entries beyond f16 max (~65504): converting x for the tensor-core
    // path rounds them to +Inf, so 0 * Inf NaNs poison the accumulators.
    // The f32 reference stays finite (1e2 * 1e5 = 1e7).
    let mut coo = Coo::new(n, n);
    for r in 0..n {
        coo.push(r as u32, r as u32, 1e2);
        coo.push(r as u32, ((r + 1) % n) as u32, -1e2);
    }
    corpus.push(EdgeCase {
        name: "f16-overflow",
        matrix: coo.to_csr(),
        x: vec![1e5; n],
    });

    // Matrix values below the f16 subnormal floor (~6e-8) but far above
    // the sanitizer's negligibility tolerance: they round to zero in f16,
    // a silent signal loss.
    let mut coo = Coo::new(n, n);
    for r in 0..n {
        coo.push(r as u32, r as u32, 1e-9);
    }
    corpus.push(EdgeCase {
        name: "f16-underflow",
        matrix: coo.to_csr(),
        x: vec![1.0; n],
    });

    // Mixed-sign cancellation: each row sums +big -big +1, so the true
    // answer is 1.0 but intermediate magnitudes sit near the f16 edge.
    let mut coo = Coo::new(n, n);
    for r in 0..n {
        let r32 = r as u32;
        coo.push(r32, r32, 6.0e4);
        coo.push(r32, ((r + 1) % n) as u32, -6.0e4);
        coo.push(r32, ((r + 2) % n) as u32, 1.0);
    }
    corpus.push(EdgeCase {
        name: "cancellation",
        matrix: coo.to_csr(),
        x: vec![1.0; n],
    });

    // f32 denormals (~1e-40): exercise flush-to-zero behaviour without
    // Inf/NaN risk.
    let mut coo = Coo::new(n, n);
    for r in 0..n {
        coo.push(r as u32, r as u32, 1.0e-40);
    }
    corpus.push(EdgeCase {
        name: "denormal",
        matrix: coo.to_csr(),
        x: vec![1.0; n],
    });

    // Structure: half the rows and columns are empty.
    let mut coo = Coo::new(n, n);
    for r in (0..n).step_by(2) {
        coo.push(r as u32, r as u32, 1.0);
    }
    corpus.push(EdgeCase {
        name: "empty-rows-cols",
        matrix: coo.to_csr(),
        x: vec![1.0; n],
    });

    // Degenerate shapes.
    let mut coo = Coo::new(1, 1);
    coo.push(0, 0, 2.5);
    corpus.push(EdgeCase { name: "one-by-one", matrix: coo.to_csr(), x: vec![4.0] });
    corpus.push(EdgeCase {
        name: "zero-nnz",
        matrix: Csr::empty(n, n),
        x: vec![1.0; n],
    });

    corpus
}

/// Uniformly random matrix with `nnz` draws (duplicates combined, so the
/// realised nnz can be slightly lower).
pub fn random_uniform(nrows: usize, ncols: usize, nnz: usize, seed: u64) -> Csr {
    let mut rng = Pcg64::new(seed, 0xc0ffee);
    let mut coo = Coo::new(nrows, ncols);
    for _ in 0..nnz {
        coo.push(
            rng.below_usize(nrows) as u32,
            rng.below_usize(ncols) as u32,
            rng.range_f32(-1.0, 1.0),
        );
    }
    coo.to_csr()
}

/// Scale-free (power-law) square matrix: out-degrees are Zipf-ish and
/// targets are Zipf-distributed, modelling web graphs / circuits
/// (the paper's `scircuit` and `webbase-1M` out-of-scope matrices).
pub fn scale_free(n: usize, nnz_target: usize, exponent: f64, seed: u64) -> Csr {
    let mut rng = Pcg64::new(seed, 0x5ca1e);
    let mut coo = Coo::new(n, n);
    let mean_deg = (nnz_target as f64 / n as f64).max(1.0);
    let mut emitted = 0usize;
    for r in 0..n {
        // Degree: most rows near the mean, a heavy tail via Zipf.
        let deg = if rng.chance(0.02) {
            (mean_deg as usize * (2 + rng.zipf(64, 1.5))).min(n)
        } else {
            1 + rng.below_usize((2.0 * mean_deg) as usize + 1)
        };
        for _ in 0..deg {
            if emitted >= nnz_target {
                break;
            }
            // Hub-biased targets with some local structure.
            let c = if rng.chance(0.7) {
                rng.zipf(n, exponent)
            } else {
                (r + rng.below_usize(64)) % n
            };
            coo.push(r as u32, c as u32, rng.range_f32(0.0, 1.0));
            emitted += 1;
        }
    }
    coo.to_csr()
}

/// `k` overwrites of existing entries of `truth` with fresh values — a
/// value-only delta batch for evolving-matrix scenarios.
pub fn value_only_batch(truth: &Csr, rng: &mut Pcg64, k: usize) -> DeltaBatch {
    let mut deltas = Vec::new();
    let mut seen = BTreeSet::new();
    while deltas.len() < k {
        let row = rng.below_usize(truth.nrows);
        let (cols, _) = truth.row(row);
        if cols.is_empty() {
            continue;
        }
        let col = cols[rng.below_usize(cols.len())];
        if seen.insert((row as u32, col)) {
            deltas.push(Delta { row: row as u32, col, value: rng.range_f32(0.05, 1.0) });
        }
    }
    DeltaBatch::new(deltas, truth.nrows, truth.ncols).expect("generated batch is valid")
}

/// `k` new edges of `truth`: `fresh` land in 8×8 blocks the matrix does
/// not have yet (exercising an evolving matrix's side buffer and, past
/// its threshold, compaction) and `k - fresh` at absent positions
/// anywhere — a structural delta batch.
pub fn structural_batch(truth: &Csr, rng: &mut Pcg64, k: usize, fresh: usize) -> DeltaBatch {
    let mut occupied = BTreeSet::new();
    for r in 0..truth.nrows {
        let (cols, _) = truth.row(r);
        for &c in cols {
            occupied.insert((r as u32 / 8, c / 8));
        }
    }
    let mut deltas = Vec::new();
    let mut seen = BTreeSet::new();
    let mut new_blocks = BTreeSet::new();
    while new_blocks.len() < fresh {
        let (br, bc) =
            (rng.below_usize(truth.nrows / 8) as u32, rng.below_usize(truth.ncols / 8) as u32);
        if !occupied.contains(&(br, bc)) && new_blocks.insert((br, bc)) {
            let (row, col) =
                (br * 8 + rng.below_usize(8) as u32, bc * 8 + rng.below_usize(8) as u32);
            seen.insert((row, col));
            deltas.push(Delta { row, col, value: rng.range_f32(0.05, 1.0) });
        }
    }
    while deltas.len() < k {
        let row = rng.below_usize(truth.nrows) as u32;
        let col = rng.below_usize(truth.ncols) as u32;
        let (cols, _) = truth.row(row as usize);
        if !cols.contains(&col) && seen.insert((row, col)) {
            deltas.push(Delta { row, col, value: rng.range_f32(0.05, 1.0) });
        }
    }
    DeltaBatch::new(deltas, truth.nrows, truth.ncols).expect("generated batch is valid")
}

/// Scalar banded matrix: each row has `degree` entries within `bandwidth`
/// of the diagonal (plus the diagonal itself).
pub fn banded(nrows: usize, bandwidth: usize, degree: usize, seed: u64) -> Csr {
    let mut rng = Pcg64::new(seed, 0xbad6ed);
    let mut coo = Coo::new(nrows, nrows);
    for r in 0..nrows {
        coo.push(r as u32, r as u32, rng.range_f32(1.0, 2.0));
        for _ in 0..degree.saturating_sub(1) {
            let span = (2 * bandwidth + 1).min(nrows);
            let lo = r.saturating_sub(bandwidth).min(nrows - span);
            let c = lo + rng.below_usize(span);
            coo.push(r as u32, c as u32, rng.range_f32(-1.0, 1.0));
        }
    }
    coo.to_csr()
}

/// Symmetric positive-definite matrix for the CG example: banded pattern
/// made diagonally dominant and symmetrised.
pub fn spd_banded(nrows: usize, bandwidth: usize, degree: usize, seed: u64) -> Csr {
    let base = banded(nrows, bandwidth, degree, seed);
    let t = base.transpose();
    // A_sym = (A + A^T) / 2 with a dominant diagonal added.
    let mut coo = Coo::new(nrows, nrows);
    for r in 0..nrows {
        let (cols, vals) = base.row(r);
        for (c, v) in cols.iter().zip(vals) {
            coo.push(r as u32, *c, 0.5 * v);
        }
        let (cols, vals) = t.row(r);
        for (c, v) in cols.iter().zip(vals) {
            coo.push(r as u32, *c, 0.5 * v);
        }
    }
    let mut csr = coo.to_csr();
    // Diagonal dominance: diag = 1 + sum(|row|).
    for r in 0..nrows {
        let lo = csr.row_ptr[r] as usize;
        let hi = csr.row_ptr[r + 1] as usize;
        let rowsum: f32 = csr.values[lo..hi].iter().map(|v| v.abs()).sum();
        let mut fixed = false;
        for i in lo..hi {
            if csr.col_idx[i] as usize == r {
                csr.values[i] = 1.0 + rowsum;
                fixed = true;
            }
        }
        debug_assert!(fixed, "banded() always emits the diagonal");
    }
    csr
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_hits_block_target() {
        let m = generate_blocked(
            1024,
            400,
            Placement::Banded { bandwidth: 8 },
            &FillDist::Uniform { lo: 8, hi: 40 },
            1,
        );
        assert_eq!(m.nrows, 1024);
        assert!(m.validate().is_ok());
        // nnz should be near 400 blocks * mean fill 24.
        let expect = 400.0 * 24.0;
        let got = m.nnz() as f64;
        assert!(
            (got - expect).abs() / expect < 0.25,
            "nnz {got} vs expected ~{expect}"
        );
    }

    #[test]
    fn blocked_dense_blocks_are_dense() {
        let m = generate_blocked(256, 64, Placement::Scattered, &FillDist::Dense, 3);
        // 64 blocks * 64 = 4096 nnz (diagonal forcing can't add to dense blocks).
        assert_eq!(m.nnz(), 64 * 64);
    }

    #[test]
    fn blocked_has_diagonal_every_block_row() {
        let m = generate_blocked(
            512,
            128,
            Placement::Scattered,
            &FillDist::Uniform { lo: 1, hi: 4 },
            9,
        );
        for br in 0..(512 / 8) {
            let has = (br * 8..(br + 1) * 8).any(|r| {
                let (cols, _) = m.row(r);
                cols.iter().any(|&c| c as usize == r)
            });
            assert!(has, "block-row {br} lacks a diagonal element");
        }
    }

    #[test]
    fn blocked_deterministic() {
        let a = generate_blocked(300, 100, Placement::Scattered, &FillDist::Uniform { lo: 1, hi: 64 }, 5);
        let b = generate_blocked(300, 100, Placement::Scattered, &FillDist::Uniform { lo: 1, hi: 64 }, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn blocked_non_multiple_of_eight_rows() {
        let m = generate_blocked(101, 40, Placement::Banded { bandwidth: 2 }, &FillDist::Dense, 2);
        assert_eq!(m.nrows, 101);
        assert!(m.validate().is_ok());
        assert!(m.col_idx.iter().all(|&c| (c as usize) < 101));
    }

    #[test]
    fn fill_dist_means() {
        assert_eq!(FillDist::Dense.mean(), 64.0);
        assert_eq!(FillDist::Uniform { lo: 10, hi: 20 }.mean(), 15.0);
        let mix = FillDist::Mix(vec![(1.0, 0, 0), (1.0, 64, 64)]);
        assert_eq!(mix.mean(), 32.0);
    }

    #[test]
    fn fill_dist_sample_in_declared_range() {
        let mut rng = Pcg64::new(4, 4);
        let d = FillDist::Mix(vec![(3.0, 5, 10), (1.0, 60, 64)]);
        for _ in 0..500 {
            let v = d.sample(&mut rng);
            assert!((5..=10).contains(&v) || (60..=64).contains(&v));
        }
    }

    #[test]
    fn random_uniform_shape_and_bounds() {
        let m = random_uniform(100, 50, 800, 11);
        assert_eq!((m.nrows, m.ncols), (100, 50));
        assert!(m.nnz() <= 800);
        assert!(m.nnz() > 700, "duplicate combining should lose few entries");
        assert!(m.validate().is_ok());
    }

    #[test]
    fn scale_free_has_hubs() {
        let m = scale_free(2000, 10_000, 1.1, 13);
        let t = m.transpose();
        let mut in_degrees: Vec<usize> = (0..2000).map(|r| t.row_nnz(r)).collect();
        in_degrees.sort_unstable_by(|a, b| b.cmp(a));
        let mean = m.nnz() as f64 / 2000.0;
        assert!(
            in_degrees[0] as f64 > 10.0 * mean,
            "top in-degree {} not hub-like vs mean {mean}",
            in_degrees[0]
        );
    }

    #[test]
    fn banded_stays_in_band() {
        let bw = 10;
        let m = banded(500, bw, 6, 17);
        for r in 0..500usize {
            let (cols, _) = m.row(r);
            for &c in cols {
                let d = (c as i64 - r as i64).unsigned_abs() as usize;
                assert!(d <= bw + bw, "entry ({r},{c}) outside band");
            }
        }
    }

    #[test]
    fn spd_is_symmetric_and_dominant() {
        let m = spd_banded(200, 5, 4, 23);
        let t = m.transpose();
        let (d, dt) = (m.to_dense(), t.to_dense());
        for i in 0..d.len() {
            assert!((d[i] - dt[i]).abs() < 1e-6, "asymmetric at {i}");
        }
        for r in 0..200usize {
            let (cols, vals) = m.row(r);
            let mut diag = 0.0f32;
            let mut off = 0.0f32;
            for (c, v) in cols.iter().zip(vals) {
                if *c as usize == r {
                    diag = *v;
                } else {
                    off += v.abs();
                }
            }
            assert!(diag > off, "row {r} not diagonally dominant");
        }
    }

    #[test]
    fn edge_corpus_cases_are_well_formed() {
        let corpus = numerical_edge_corpus();
        assert!(corpus.len() >= 7);
        let mut names = std::collections::HashSet::new();
        for case in &corpus {
            assert!(case.matrix.validate().is_ok(), "{}", case.name);
            assert_eq!(case.x.len(), case.matrix.ncols, "{}", case.name);
            assert!(names.insert(case.name), "duplicate case name {}", case.name);
        }
    }

    #[test]
    fn edge_corpus_covers_declared_extremes() {
        let corpus = numerical_edge_corpus();
        let get = |n: &str| corpus.iter().find(|c| c.name == n).unwrap();

        // Overflow case: x exceeds f16 max but the f32 reference is finite.
        let c = get("f16-overflow");
        let y = c.matrix.spmv(&c.x).unwrap();
        assert!(y.iter().all(|v| v.is_finite()), "f32 reference must stay finite");
        assert!(c.x.iter().any(|v| v.abs() > 65504.0));

        // Underflow values sit below the f16 subnormal floor but are
        // nonzero in f32.
        let c = get("f16-underflow");
        let v = c.matrix.values[0];
        assert!(v != 0.0 && v.abs() < 6e-8);

        // Degenerate shapes exist and multiply correctly in f32.
        assert_eq!(get("one-by-one").matrix.nnz(), 1);
        assert_eq!(get("zero-nnz").matrix.nnz(), 0);
    }

    #[test]
    fn stencil_placement_is_structured() {
        let m = generate_blocked(
            4096,
            4096 / 8 * 9,
            Placement::Stencil,
            &FillDist::Uniform { lo: 12, hi: 24 },
            29,
        );
        assert!(m.validate().is_ok());
        assert!(m.nnz() > 0);
    }
}
