//! The one walk over a matrix's block-rows that the blocked formats and
//! the block statistics are built from.
//!
//! A block-row is `dim` consecutive CSR rows (8 for bitBSR and BSR). Each
//! row's columns are strictly increasing ([`Csr::new`] and
//! [`Csr::validate`] check it), so a k-way merge of a block-row's rows by
//! block column visits its nonzeros block by block in one linear pass,
//! with no search and no sort. [`for_each_nonzero`] yields them in
//! (block column, row, column) order, which is bitBSR's bit order within
//! a block: a block's values come out already packed.
//!
//! Block-rows are independent, so a conversion cuts them into contiguous
//! runs of about equal nonzero count ([`runs`]) and gives each run to one
//! pool task. Results do not depend on the cut.

use crate::csr::Csr;
use crate::par;
use crate::partition::partition_balanced;
use std::ops::Range;

/// Below this many nonzeros a matrix's block-rows form one run, walked
/// inline: waking the pool costs more than the walk saves.
pub const POOLED_MIN_NNZ: usize = 1 << 14;

/// Runs per pool participant, so that claiming evens out uneven runs.
const RUNS_PER_THREAD: usize = 4;

/// Largest block edge the walk supports (one cursor per row).
const MAX_DIM: usize = 64;

/// Calls `f(block col, dr, dc, value)` for every nonzero of block-row `br`
/// of `csr` under `dim × dim` blocking, in (block col, row, column) order.
///
/// `dim` must be a power of two no larger than 64. On rows whose columns
/// are not strictly increasing (which [`Csr::new`] rejects) the walk still
/// visits every nonzero once and terminates, but not in block order.
pub fn for_each_nonzero(
    csr: &Csr,
    br: usize,
    dim: usize,
    mut f: impl FnMut(u32, usize, usize, f32),
) {
    assert!(dim.is_power_of_two() && dim <= MAX_DIM, "block edge {dim}");
    let shift = dim.trailing_zeros();
    let mask = dim as u32 - 1;
    let r0 = br * dim;
    let rows = dim.min(csr.nrows - r0);
    let mut pos = [0u32; MAX_DIM];
    let end = &csr.row_ptr[r0 + 1..=r0 + rows];
    pos[..rows].copy_from_slice(&csr.row_ptr[r0..r0 + rows]);
    // The smallest block column any row's cursor points at.
    let mut next = u32::MAX;
    for (p, &e) in pos[..rows].iter().zip(end) {
        if *p < e {
            next = next.min(csr.col_idx[*p as usize] >> shift);
        }
    }
    while next != u32::MAX {
        let bc = next;
        next = u32::MAX;
        for (dr, (p, &e)) in pos[..rows].iter_mut().zip(end).enumerate() {
            while *p < e {
                let c = csr.col_idx[*p as usize];
                if c >> shift != bc {
                    next = next.min(c >> shift);
                    break;
                }
                f(bc, dr, (c & mask) as usize, csr.values[*p as usize]);
                *p += 1;
            }
        }
    }
}

/// Non-empty `dim × dim` blocks in block-row `br` of `csr`.
pub fn block_count(csr: &Csr, br: usize, dim: usize) -> usize {
    let (mut n, mut cur) = (0, u32::MAX);
    for_each_nonzero(csr, br, dim, |bc, _, _, _| {
        if bc != cur {
            cur = bc;
            n += 1;
        }
    });
    n
}

/// Index of the first nonzero of block-row `br` of `csr` under `dim`-row
/// blocking; `csr_start(csr, dim, block_rows)` is `nnz`.
pub fn csr_start(csr: &Csr, dim: usize, br: usize) -> usize {
    csr.row_ptr[(br * dim).min(csr.nrows)] as usize
}

/// Cuts block-rows `0..block_rows` into contiguous runs of about equal
/// nonzero count, where block-row `br`'s nonzeros start at `start(br)`
/// (monotone, `start(0) == 0`). Below [`POOLED_MIN_NNZ`] nonzeros, or on
/// a single-core host, the result is one run of every block-row.
pub fn runs(block_rows: usize, start: impl Fn(usize) -> usize) -> Vec<Range<usize>> {
    let threads = par::num_threads();
    if start(block_rows) < POOLED_MIN_NNZ || threads == 1 {
        return std::iter::once(0..block_rows).collect();
    }
    let weights: Vec<u32> = (0..block_rows)
        .map(|br| (start(br + 1) - start(br)) as u32)
        .collect();
    partition_balanced(&weights, threads * RUNS_PER_THREAD, 1)
}

/// Maps `f` over the nnz-balanced [`runs`] of `csr`'s `dim`-row
/// block-rows, one pool task per run, and collects the results in run
/// order.
pub fn map_runs<T, F>(csr: &Csr, dim: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let runs = runs(csr.nrows.div_ceil(dim), |br| csr_start(csr, dim, br));
    par::map_tasks(runs.len(), |i| f(runs[i].clone()))
}

/// Splits `data` into consecutive slices of the given lengths, which must
/// not sum past `data.len()`: one disjoint output window per run.
pub fn split_mut<T>(mut data: &mut [T], lens: impl IntoIterator<Item = usize>) -> Vec<&mut [T]> {
    lens.into_iter()
        .map(|n| {
            let (head, tail) = std::mem::take(&mut data).split_at_mut(n);
            data = tail;
            head
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn walk(csr: &Csr, br: usize, dim: usize) -> Vec<(u32, usize, usize, u32)> {
        let mut out = Vec::new();
        for_each_nonzero(csr, br, dim, |bc, dr, dc, v| {
            out.push((bc, dr, dc, v.to_bits()))
        });
        out
    }

    #[test]
    fn visits_every_nonzero_in_block_row_column_order() {
        let csr = gen::random_uniform(203, 150, 3000, 5);
        for dim in [2, 4, 8, 16, 64] {
            let mut seen = 0;
            for br in 0..csr.nrows.div_ceil(dim) {
                let got = walk(&csr, br, dim);
                let mut want: Vec<_> = (br * dim..((br + 1) * dim).min(csr.nrows))
                    .flat_map(|r| {
                        let (cols, vals) = csr.row(r);
                        cols.iter().zip(vals).map(move |(&c, v)| {
                            (c / dim as u32, r - br * dim, c as usize % dim, v.to_bits())
                        })
                    })
                    .collect();
                want.sort_by_key(|&(bc, dr, dc, _)| (bc, dr, dc));
                assert_eq!(got, want, "dim {dim} block-row {br}");
                assert_eq!(
                    block_count(&csr, br, dim),
                    want.iter()
                        .map(|e| e.0)
                        .collect::<std::collections::BTreeSet<_>>()
                        .len()
                );
                seen += got.len();
            }
            assert_eq!(seen, csr.nnz());
        }
    }

    #[test]
    fn unsorted_rows_still_terminate_and_visit_everything() {
        let csr = Csr {
            nrows: 2,
            ncols: 32,
            row_ptr: vec![0, 3, 5],
            col_idx: vec![20, 3, 3, 9, 1],
            values: vec![1.0, 2.0, 3.0, 4.0, 5.0],
        };
        assert_eq!(walk(&csr, 0, 8).len(), 5);
    }

    #[test]
    fn runs_cover_block_rows_and_pool_only_large_matrices() {
        let small = gen::random_uniform(512, 512, POOLED_MIN_NNZ / 2, 7);
        let start = |br| csr_start(&small, 8, br);
        assert_eq!(runs(64, start), vec![0..64]);
        assert_eq!(runs(0, |_| 0), vec![0..0]);

        let big = gen::random_uniform(4096, 4096, 2 * POOLED_MIN_NNZ, 9);
        let r = runs(512, |br| csr_start(&big, 8, br));
        assert_eq!(r.first().map(|r| r.start), Some(0));
        assert_eq!(r.last().map(|r| r.end), Some(512));
        assert!(r.windows(2).all(|w| w[0].end == w[1].start));
        if par::num_threads() > 1 {
            assert!(r.len() > 1, "a large matrix is cut into pool runs");
        }
    }

    #[test]
    fn split_mut_cuts_consecutive_windows() {
        let mut data = [0u8; 7];
        for (i, s) in split_mut(&mut data, [2, 0, 4]).into_iter().enumerate() {
            s.fill(i as u8 + 1);
        }
        assert_eq!(data, [1, 1, 3, 3, 3, 3, 0]);
    }
}
