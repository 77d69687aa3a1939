//! Bit-identity gate for the linear block-row walk: `BitBsr::from_csr`,
//! `AbftChecksums::build`, `Bsr::from_csr`, `stats::block_profile` and
//! `analyze_block_size` must produce exactly what the earlier
//! search-and-insert implementations in [`reference`] produce, on every
//! generator shape, on degenerate matrices, on a matrix large enough to be
//! split into pool runs, and on extreme values (±0, subnormals, values
//! past the f16 range, NaN, ±inf).

mod reference;

use spaden::bitbsr::analyze_block_size;
use spaden::{AbftChecksums, BitBsr};
use spaden_sparse::blockrow;
use spaden_sparse::bsr::Bsr;
use spaden_sparse::coo::Coo;
use spaden_sparse::csr::Csr;
use spaden_sparse::gen::{self, FillDist, Placement, BLOCK_DIM};
use spaden_sparse::{par, stats};

fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn bits64(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Compares every prepared structure of `csr` with the reference, by bit
/// pattern where NaN would break `==`.
fn check(name: &str, csr: &Csr) {
    let bit = BitBsr::from_csr(csr);
    assert_eq!(bit, reference::bitbsr_from_csr(csr), "{name}: bitBSR");

    let sums = AbftChecksums::build(&bit);
    let got = sums.raw_parts();
    let want = reference::abft_build(&bit);
    assert_eq!(
        (got.nrows, got.ncols),
        (bit.nrows, bit.ncols),
        "{name}: checksum dims"
    );
    assert_eq!(got.ptr, &want.ptr[..], "{name}: checksum ptr");
    assert_eq!(got.cols, &want.cols[..], "{name}: checksum cols");
    assert_eq!(bits64(got.sums), bits64(&want.sums), "{name}: sums");
    assert_eq!(bits64(got.wsums), bits64(&want.wsums), "{name}: wsums");
    assert_eq!(bits64(got.abs), bits64(&want.abs), "{name}: abs");
    assert_eq!(got.nnz_br, &want.nnz_br[..], "{name}: nnz_br");

    let bsr = Bsr::from_csr(csr);
    let want = reference::bsr_from_csr(csr);
    assert_eq!(
        (bsr.nrows, bsr.ncols, bsr.block_rows, bsr.block_cols_dim),
        (want.nrows, want.ncols, want.block_rows, want.block_cols_dim),
        "{name}: BSR dims"
    );
    assert_eq!(
        bsr.block_row_ptr, want.block_row_ptr,
        "{name}: BSR block_row_ptr"
    );
    assert_eq!(bsr.block_cols, want.block_cols, "{name}: BSR block_cols");
    assert_eq!(
        bits32(&bsr.values),
        bits32(&want.values),
        "{name}: BSR values"
    );

    assert_eq!(
        stats::block_profile(csr),
        reference::block_profile(csr),
        "{name}: profile"
    );
    for dim in [2, 4, 8, 16, 64] {
        assert_eq!(
            analyze_block_size(csr, dim).blocks,
            reference::block_count(csr, dim),
            "{name}: blocks at {dim}x{dim}"
        );
    }
}

#[test]
fn random_uniform_with_ragged_dimensions() {
    for (i, &(r, c, nnz)) in [
        (101, 77, 600),
        (203, 187, 2200),
        (13, 9, 40),
        (8, 8, 64),
        (7, 300, 900),
    ]
    .iter()
    .enumerate()
    {
        check(
            &format!("uniform {r}x{c}"),
            &gen::random_uniform(r, c, nnz, 700 + i as u64),
        );
    }
}

#[test]
fn every_blocked_placement_and_fill() {
    let placements = [
        Placement::Banded { bandwidth: 4 },
        Placement::Scattered,
        Placement::Clustered {
            clusters: 3,
            radius: 2,
        },
        Placement::PowerLaw { exponent: 1.6 },
        Placement::Stencil,
    ];
    let fills = [
        FillDist::Dense,
        FillDist::Uniform { lo: 1, hi: 64 },
        FillDist::Uniform { lo: 1, hi: 3 },
        FillDist::Mix(vec![(0.6, 1, 8), (0.3, 20, 40), (0.1, 60, 64)]),
    ];
    for (p, placement) in placements.iter().enumerate() {
        for (f, fill) in fills.iter().enumerate() {
            let csr = gen::generate_blocked(250, 180, *placement, fill, 710 + (p * 4 + f) as u64);
            check(&format!("blocked {placement:?} {fill:?}"), &csr);
        }
    }
}

#[test]
fn scale_free_graphs() {
    check("scale-free", &gen::scale_free(1024, 12_000, 2.0, 720));
    check("scale-free small", &gen::scale_free(61, 500, 2.4, 721));
}

#[test]
fn degenerate_shapes() {
    check("0x0", &Csr::empty(0, 0));
    check("empty 20x12", &Csr::empty(20, 12));
    check("empty 3x0", &Csr::empty(3, 0));
    let mut one = Coo::new(1, 1);
    one.push(0, 0, 2.5);
    check("1x1", &one.to_csr());
    // Empty rows, whole empty block-rows and a lone far column.
    let mut sparse_rows = Coo::new(40, 70);
    for (r, c) in [(0, 69), (3, 0), (3, 8), (9, 1), (39, 33), (39, 34)] {
        sparse_rows.push(r, c, r as f32 - c as f32 * 0.5);
    }
    check("empty rows", &sparse_rows.to_csr());
}

#[test]
fn a_matrix_split_into_pool_runs() {
    let csr = gen::generate_blocked(
        4096,
        3000,
        Placement::Banded { bandwidth: 12 },
        &FillDist::Uniform { lo: 4, hi: 40 },
        730,
    );
    assert!(csr.nnz() >= 1 << 15, "nnz {}", csr.nnz());
    let runs = blockrow::runs(csr.nrows.div_ceil(BLOCK_DIM), |br| {
        blockrow::csr_start(&csr, BLOCK_DIM, br)
    });
    if par::num_threads() > 1 {
        assert!(runs.len() > 1, "the walk must really be split: {runs:?}");
    }
    check("pooled", &csr);
    // Columns holding only ±0 (or values that round to 0 in f16) emit no
    // checksum entry, so the pool runs' entry windows have gaps to close.
    let mut zeros = csr.clone();
    for (i, v) in zeros.values.iter_mut().enumerate() {
        match i % 5 {
            0 => *v = 0.0,
            1 => *v = -0.0,
            2 => *v = 1.0e-9,
            _ => {}
        }
    }
    check("pooled with zero columns", &zeros);
    check(
        "pooled uniform",
        &gen::random_uniform(3001, 2999, 1 << 16, 731),
    );
}

#[test]
fn numerical_edge_values() {
    for case in gen::numerical_edge_corpus() {
        check(case.name, &case.matrix);
    }
    // Values the corpus leaves to x: ±0, NaN, ±inf and magnitudes past the
    // f16 range in the matrix itself, mixed into shared columns so that
    // special values meet ordinary ones in one column sum.
    let special = [
        0.0,
        -0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1.0e5,
        -7.0e4,
        65_504.0,
        1.0e-9,
        -1.0e-9,
        1.0e-40,
        6.0e-8,
        1.5,
        -2.25,
    ];
    let n = 37;
    let mut coo = Coo::new(n, n);
    for r in 0..n {
        for k in 0..5 {
            let c = (r * 3 + k * 7) % n;
            coo.push(r as u32, c as u32, special[(r * 5 + k) % special.len()]);
        }
    }
    check("special values", &coo.to_csr());
    // A column that holds nothing but ±0 emits no checksum entry.
    let zeros = Csr::new(
        9,
        9,
        vec![0, 1, 2, 2, 2, 2, 2, 2, 2, 3],
        vec![4, 4, 4],
        vec![0.0, -0.0, 1.0],
    )
    .expect("valid");
    check("zero column", &zeros);
}
