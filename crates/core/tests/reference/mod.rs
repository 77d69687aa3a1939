//! The search-and-insert implementations that the linear block-row walk
//! replaced, kept verbatim (as free functions) as the reference the
//! bit-identity gate compares against. Each finds a nonzero's block by
//! binary search and inserts new blocks in place.

// Verbatim copies keep the indexed loops of the originals (whose crates
// allow this lint crate-wide).
#![allow(clippy::needless_range_loop)]

use spaden::BitBsr;
use spaden_gpusim::half::F16;
use spaden_sparse::bsr::Bsr;
use spaden_sparse::csr::Csr;
use spaden_sparse::gen::BLOCK_DIM;
use spaden_sparse::par;
use spaden_sparse::stats::{BlockClass, BlockProfile};

/// `BitBsr::from_csr` before the block-row walk.
pub fn bitbsr_from_csr(csr: &Csr) -> BitBsr {
    let block_rows = csr.nrows.div_ceil(BLOCK_DIM);
    let block_cols_dim = csr.ncols.div_ceil(BLOCK_DIM);

    // Pass 1: per block-row, sorted (block col, bitmap) pairs.
    let per_row: Vec<Vec<(u32, u64)>> = par::map_indexed(block_rows, |br| {
        let mut blocks: Vec<(u32, u64)> = Vec::new();
        let r_end = ((br + 1) * BLOCK_DIM).min(csr.nrows);
        for r in br * BLOCK_DIM..r_end {
            let dr = r - br * BLOCK_DIM;
            let (cols, _) = csr.row(r);
            for &c in cols {
                let bc = c / BLOCK_DIM as u32;
                let dc = (c as usize) % BLOCK_DIM;
                let bit = 1u64 << (dr * BLOCK_DIM + dc);
                match blocks.binary_search_by_key(&bc, |e| e.0) {
                    Ok(i) => blocks[i].1 |= bit,
                    Err(i) => blocks.insert(i, (bc, bit)),
                }
            }
        }
        blocks
    });

    let counts: Vec<u32> = per_row.iter().map(|b| b.len() as u32).collect();
    let block_row_ptr = spaden_sparse::scan::exclusive_scan_par(&counts);
    let bnnz = *block_row_ptr.last().expect("scan non-empty") as usize;

    let mut block_cols = vec![0u32; bnnz];
    let mut bitmaps = vec![0u64; bnnz];
    {
        let mut cursor = 0usize;
        for blocks in &per_row {
            for &(bc, bmp) in blocks {
                block_cols[cursor] = bc;
                bitmaps[cursor] = bmp;
                cursor += 1;
            }
        }
    }

    // Exclusive scan over per-block popcounts -> value offsets.
    let popcounts: Vec<u32> = par::map_indexed(bitmaps.len(), |i| bitmaps[i].count_ones());
    let block_offsets = spaden_sparse::scan::exclusive_scan_par(&popcounts);
    let nnz = *block_offsets.last().expect("scan non-empty") as usize;

    // Pass 2: place values. Each block-row owns a disjoint value range.
    let mut values = vec![F16::ZERO; nnz];
    {
        let mut slices: Vec<&mut [F16]> = Vec::with_capacity(block_rows);
        let mut rest: &mut [F16] = &mut values;
        for br in 0..block_rows {
            let blo = block_row_ptr[br] as usize;
            let bhi = block_row_ptr[br + 1] as usize;
            let len = (block_offsets[bhi] - block_offsets[blo]) as usize;
            let (s, r) = rest.split_at_mut(len);
            slices.push(s);
            rest = r;
        }
        par::for_each_item(slices, |br, out| {
            let blo = block_row_ptr[br] as usize;
            let base = block_offsets[blo] as usize;
            let blocks = &per_row[br];
            let r_end = ((br + 1) * BLOCK_DIM).min(csr.nrows);
            for r in br * BLOCK_DIM..r_end {
                let dr = r - br * BLOCK_DIM;
                let (cols, vals) = csr.row(r);
                for (c, v) in cols.iter().zip(vals) {
                    let bc = c / BLOCK_DIM as u32;
                    let k = blocks
                        .binary_search_by_key(&bc, |e| e.0)
                        .expect("block recorded in pass 1");
                    let bit_idx = dr * BLOCK_DIM + (*c as usize) % BLOCK_DIM;
                    let bmp = blocks[k].1;
                    let within = (bmp & ((1u64 << bit_idx) - 1)).count_ones() as usize;
                    let off = block_offsets[blo + k] as usize - base + within;
                    out[off] = F16::from_f32(*v);
                }
            }
        });
    }

    BitBsr {
        nrows: csr.nrows,
        ncols: csr.ncols,
        block_rows,
        block_cols_dim,
        block_row_ptr,
        block_cols,
        bitmaps,
        block_offsets,
        values,
    }
}

/// The raw arrays of `AbftChecksums::build` before the set-bit walk.
pub struct RawSums {
    pub ptr: Vec<u32>,
    pub cols: Vec<u32>,
    pub sums: Vec<f64>,
    pub wsums: Vec<f64>,
    pub abs: Vec<f64>,
    pub nnz_br: Vec<u32>,
}

/// `AbftChecksums::build` before the set-bit walk: decodes every block to
/// 64 values and sums all of them per column.
pub fn abft_build(format: &BitBsr) -> RawSums {
    let mut ptr = Vec::with_capacity(format.block_rows + 1);
    ptr.push(0u32);
    let mut cols = Vec::new();
    let mut sums = Vec::new();
    let mut wsums = Vec::new();
    let mut abs = Vec::new();
    let mut nnz_br = Vec::with_capacity(format.block_rows);
    for br in 0..format.block_rows {
        let lo = format.block_row_ptr[br] as usize;
        let hi = format.block_row_ptr[br + 1] as usize;
        let mut n = 0u32;
        for k in lo..hi {
            let bc = format.block_cols[k] as usize;
            let dense = format.decode_block(k);
            n += format.block_nnz(k) as u32;
            for dc in 0..BLOCK_DIM {
                let col = bc * BLOCK_DIM + dc;
                let mut s = 0.0f64;
                let mut w = 0.0f64;
                let mut a = 0.0f64;
                for dr in 0..BLOCK_DIM {
                    let v = dense[dr * BLOCK_DIM + dc] as f64;
                    s += v;
                    w += (dr + 1) as f64 * v;
                    a += v.abs();
                }
                if a != 0.0 {
                    cols.push(col as u32);
                    sums.push(s);
                    wsums.push(w);
                    abs.push(a);
                }
            }
        }
        ptr.push(cols.len() as u32);
        nnz_br.push(n);
    }
    RawSums {
        ptr,
        cols,
        sums,
        wsums,
        abs,
        nnz_br,
    }
}

/// `Bsr::from_csr` before the block-row walk.
pub fn bsr_from_csr(csr: &Csr) -> Bsr {
    let block_rows = csr.nrows.div_ceil(BLOCK_DIM);
    let block_cols_dim = csr.ncols.div_ceil(BLOCK_DIM);

    // Pass 1: per block-row, the sorted list of non-empty block columns.
    let per_row_cols: Vec<Vec<u32>> = par::map_indexed(block_rows, |br| {
        let mut cols: Vec<u32> = Vec::new();
        let r_end = ((br + 1) * BLOCK_DIM).min(csr.nrows);
        for r in br * BLOCK_DIM..r_end {
            let (ci, _) = csr.row(r);
            for &c in ci {
                cols.push(c / BLOCK_DIM as u32);
            }
        }
        cols.sort_unstable();
        cols.dedup();
        cols
    });

    let counts: Vec<u32> = per_row_cols.iter().map(|c| c.len() as u32).collect();
    let block_row_ptr = spaden_sparse::scan::exclusive_scan_par(&counts);
    let bnnz = *block_row_ptr.last().expect("scan output non-empty") as usize;

    let mut block_cols = vec![0u32; bnnz];
    let mut values = vec![0.0f32; bnnz * BLOCK_DIM * BLOCK_DIM];

    // Pass 2: fill blocks in parallel. Each block-row owns a disjoint
    // slice of `block_cols` and `values`.
    {
        let col_slices: Vec<(&mut [u32], &mut [f32])> = {
            let mut cs: Vec<(&mut [u32], &mut [f32])> = Vec::with_capacity(block_rows);
            let mut rem_c: &mut [u32] = &mut block_cols;
            let mut rem_v: &mut [f32] = &mut values;
            for br in 0..block_rows {
                let n = counts[br] as usize;
                let (c, rc) = rem_c.split_at_mut(n);
                let (v, rv) = rem_v.split_at_mut(n * BLOCK_DIM * BLOCK_DIM);
                cs.push((c, v));
                rem_c = rc;
                rem_v = rv;
            }
            cs
        };
        par::for_each_item(col_slices, |br, (cols_out, vals_out)| {
            let cols = &per_row_cols[br];
            cols_out.copy_from_slice(cols);
            let r_end = ((br + 1) * BLOCK_DIM).min(csr.nrows);
            for r in br * BLOCK_DIM..r_end {
                let dr = r - br * BLOCK_DIM;
                let (ci, vi) = csr.row(r);
                for (c, v) in ci.iter().zip(vi) {
                    let bc = c / BLOCK_DIM as u32;
                    let k = cols.binary_search(&bc).expect("block recorded in pass 1");
                    let dc = (*c as usize) % BLOCK_DIM;
                    vals_out[k * BLOCK_DIM * BLOCK_DIM + dr * BLOCK_DIM + dc] = *v;
                }
            }
        });
    }

    Bsr {
        nrows: csr.nrows,
        ncols: csr.ncols,
        block_rows,
        block_cols_dim,
        block_row_ptr,
        block_cols,
        values,
    }
}

/// `stats::block_profile` before the block-row walk.
pub fn block_profile(csr: &Csr) -> BlockProfile {
    let block_rows = csr.nrows.div_ceil(BLOCK_DIM);
    par::map_indexed(block_rows, |br| {
        // Count nnz per non-empty block column within this block-row.
        let mut cols: Vec<(u32, u32)> = Vec::new(); // (block col, count)
        let r_end = ((br + 1) * BLOCK_DIM).min(csr.nrows);
        for r in br * BLOCK_DIM..r_end {
            let (ci, _) = csr.row(r);
            for &c in ci {
                let bc = c / BLOCK_DIM as u32;
                match cols.binary_search_by_key(&bc, |e| e.0) {
                    Ok(i) => cols[i].1 += 1,
                    Err(i) => cols.insert(i, (bc, 1)),
                }
            }
        }
        let mut p = BlockProfile::default();
        for &(_, count) in &cols {
            p.nnz += count as usize;
            match BlockClass::of(count as usize) {
                BlockClass::Sparse => p.sparse += 1,
                BlockClass::Medium => p.medium += 1,
                BlockClass::Dense => p.dense += 1,
            }
        }
        p
    })
    .into_iter()
    .fold(BlockProfile::default(), |a, b| BlockProfile {
        sparse: a.sparse + b.sparse,
        medium: a.medium + b.medium,
        dense: a.dense + b.dense,
        nnz: a.nnz + b.nnz,
    })
}

/// The block count of `analyze_block_size` before the block-row walk.
pub fn block_count(csr: &Csr, dim: usize) -> usize {
    let block_rows = csr.nrows.div_ceil(dim);
    par::map_indexed(block_rows, |br| {
        let mut cols: Vec<u32> = Vec::new();
        let r_end = ((br + 1) * dim).min(csr.nrows);
        for r in br * dim..r_end {
            let (ci, _) = csr.row(r);
            for &c in ci {
                let bc = c / dim as u32;
                if let Err(i) = cols.binary_search(&bc) {
                    cols.insert(i, bc);
                }
            }
        }
        cols.len()
    })
    .into_iter()
    .sum()
}
