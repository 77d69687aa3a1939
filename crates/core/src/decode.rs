//! bitBSR decoding — Algorithm 2 of the paper.
//!
//! A warp decodes one 8×8 block: each lane `lid` owns the two consecutive
//! bit positions `2*lid` and `2*lid + 1` of the 64-bit bitmap (element
//! `(lid / 4, 2 * (lid % 4))` and its right neighbour). Set bits load their
//! value from global memory; clear bits *compute* a zero instead of loading
//! — "The zero elements are calculated instead of loading from memory, thus
//! effectively avoiding redundant data movement".
//!
//! The paper's pseudocode writes the value fetch as `load(A_values, lid)`;
//! the real index is the block's value-array offset plus the popcount of
//! the bitmap bits below the lane's bit (values are packed, not strided),
//! which is what [`value_indices`] computes.

use spaden_gpusim::exec::{WarpCtx, WARP_SIZE};
use spaden_gpusim::half::F16;
use spaden_gpusim::memory::DeviceBuffer;
use spaden_sparse::gen::BLOCK_DIM;

/// Intra-block value indices for a whole warp (Algorithm 2 lines 1–6,
/// with the packed-value offset made explicit): lane `lid` owns bits
/// `2*lid` and `2*lid + 1`, and a set bit loads value `base` plus the
/// number of set bits below it. Returns `(idx1, idx2)` per lane, `None`
/// where the bit is clear. These are the lanes of the executor's
/// ascending-run gather, which [`decode_matrix_values`] issues.
pub use spaden_gpusim::exec::run_indices as value_indices;

/// The input-vector fetch positions for one lane (Algorithm 2 lines 7–8):
/// `B_pos1 = (lid & 3) << 1`, `B_pos2 = B_pos1 + 1` — a repeating pattern
/// where each thread reads two consecutive positions with a spacing of 4
/// threads per 8-element segment.
#[inline]
pub fn lane_vector_positions(lid: usize) -> (usize, usize) {
    let p1 = (lid & 3) << 1;
    (p1, p1 + 1)
}

/// Warp-level matrix decode: reads the block's bitmap and base offset
/// (broadcast loads), then gathers only the values whose bits are set, as
/// one ascending run (Algorithm 2 lines 4–6). Element `2*lid` and
/// `2*lid + 1` are lane `lid`'s `A_val1`, `A_val2`, still in f16.
pub fn decode_matrix_values(
    ctx: &mut WarpCtx,
    bitmaps: &DeviceBuffer<u64>,
    block_offsets: &DeviceBuffer<u32>,
    values: &DeviceBuffer<F16>,
    a_idx: usize,
) -> [F16; 2 * WARP_SIZE] {
    let bmp = ctx.read(bitmaps, a_idx); // line 4 (broadcast)
    let base = ctx.read(block_offsets, a_idx);
    ctx.ops(6); // lines 1-3 + popcount + two predicates
    // Lines 5-6: the conditional loads. Clear bits become computed zeros
    // (`F16::ZERO`, which widens to +0.0) instead of loads.
    ctx.gather_run(values, bmp, base)
}

/// [`decode_matrix_values`] widened to `(A_val1, A_val2)` per lane, for
/// the CUDA-core kernels.
pub fn decode_matrix_block(
    ctx: &mut WarpCtx,
    bitmaps: &DeviceBuffer<u64>,
    block_offsets: &DeviceBuffer<u32>,
    values: &DeviceBuffer<F16>,
    a_idx: usize,
) -> [(f32, f32); WARP_SIZE] {
    lane_pairs(&decode_matrix_values(ctx, bitmaps, block_offsets, values, a_idx))
}

/// Lane `lid`'s two decoded elements, widened exactly.
pub(crate) fn lane_pairs(vals: &[F16; 2 * WARP_SIZE]) -> [(f32, f32); WARP_SIZE] {
    std::array::from_fn(|lid| (vals[2 * lid].to_f32(), vals[2 * lid + 1].to_f32()))
}

/// Device column index of segment position `pos` in block-column `b_idx`,
/// when the full pair `(pos, pos + 1)` is inside the matrix and the index
/// fits `u32` device addressing. Adversarial block counts (a corrupt
/// `block_cols` entry near `u32::MAX` drives `b_idx * 8` past `u32`) must
/// degrade to the edge-handling path, not wrap into a bogus in-bounds
/// index.
#[inline]
pub fn checked_segment_col(b_idx: usize, pos: usize, ncols: usize) -> Option<u32> {
    let col = b_idx.checked_mul(BLOCK_DIM)?.checked_add(pos)?;
    if col.checked_add(1)? < ncols {
        u32::try_from(col).ok()
    } else {
        None
    }
}

/// Warp-level vector decode (Algorithm 2 lines 7–10): fetches the length-8
/// segment of `x` for block-column `b_idx` in the repeating per-lane
/// pattern. Lanes whose position falls outside the matrix (edge blocks)
/// read zero.
pub fn decode_vector_segment(
    ctx: &mut WarpCtx,
    x: &DeviceBuffer<f32>,
    b_idx: usize,
    ncols: usize,
) -> [(f32, f32); WARP_SIZE] {
    ctx.ops(3); // position arithmetic
    let mut idx = [None; WARP_SIZE];
    for lid in 0..WARP_SIZE {
        let (p1, _) = lane_vector_positions(lid);
        idx[lid] = checked_segment_col(b_idx, p1, ncols);
    }
    let pairs = ctx.gather_pair(x, &idx); // lines 9-10
    let mut out = [(0.0f32, 0.0f32); WARP_SIZE];
    for lid in 0..WARP_SIZE {
        match idx[lid] {
            Some(_) => out[lid] = pairs[lid],
            None => {
                // Edge handling: fetch the surviving scalar (if any)
                // functionally; its traffic is covered by the segment load.
                // Saturating for the same adversarial-count reason.
                let (p1, p2) = lane_vector_positions(lid);
                let c1 = b_idx.saturating_mul(BLOCK_DIM).saturating_add(p1);
                let c2 = b_idx.saturating_mul(BLOCK_DIM).saturating_add(p2);
                out[lid] = (
                    if c1 < ncols { x.get(c1) } else { 0.0 },
                    if c2 < ncols { x.get(c2) } else { 0.0 },
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // One lane's `(idx1, idx2)` relative to the block's value base.
    fn lane_value_indices(bitmap: u64, lid: usize) -> (Option<u32>, Option<u32>) {
        let (idx1, idx2) = value_indices(bitmap, 0);
        (idx1[lid], idx2[lid])
    }

    #[test]
    fn value_indices_are_base_plus_the_popcount_below() {
        let mut bmp = 0x9e37_79b9_7f4a_7c15u64;
        for base in [0u32, 1, 4096, u32::MAX - 40, u32::MAX] {
            for _ in 0..64 {
                bmp = bmp.rotate_left(7) ^ bmp.wrapping_mul(0xbf58_476d_1ce4_e5b9);
                let (idx1, idx2) = value_indices(bmp, base);
                for lid in 0..WARP_SIZE {
                    let (bit1, bit2) = (2 * lid, 2 * lid + 1);
                    let at = |bit: usize| {
                        let below = (bmp & ((1u64 << bit) - 1)).count_ones();
                        (bmp >> bit & 1 != 0).then(|| base.saturating_add(below))
                    };
                    assert_eq!((idx1[lid], idx2[lid]), (at(bit1), at(bit2)), "{bmp:#x} lane {lid}");
                }
            }
        }
    }

    #[test]
    fn empty_bitmap_loads_nothing() {
        for lid in 0..32 {
            assert_eq!(lane_value_indices(0, lid), (None, None));
        }
    }

    #[test]
    fn full_bitmap_loads_packed_pairs() {
        for lid in 0..32u32 {
            let (v1, v2) = lane_value_indices(u64::MAX, lid as usize);
            assert_eq!(v1, Some(2 * lid));
            assert_eq!(v2, Some(2 * lid + 1));
        }
    }

    #[test]
    fn single_bit_offsets() {
        // Only bit 5 set: lane 2 owns bits 4,5; its second slot is value 0.
        let bmp = 1u64 << 5;
        assert_eq!(lane_value_indices(bmp, 2), (None, Some(0)));
        assert_eq!(lane_value_indices(bmp, 0), (None, None));
        assert_eq!(lane_value_indices(bmp, 3), (None, None));
    }

    #[test]
    fn prefix_popcount_indexing() {
        // Bits 0, 3, 12, 13 set -> packed values 0, 1, 2, 3.
        let bmp = 0b11_0000_0000_1001u64;
        assert_eq!(lane_value_indices(bmp, 0), (Some(0), None)); // bit 0 set, bit 1 clear
        assert_eq!(lane_value_indices(bmp, 1), (None, Some(1))); // bit 2 clear, bit 3 set
        assert_eq!(lane_value_indices(bmp, 6), (Some(2), Some(3))); // bits 12,13
    }

    #[test]
    fn paper_example_row0_0x01() {
        // Figure 4: row0 = 0x01 — only element (0,0). Lane 0 loads value 0
        // in its first slot, nothing in the second.
        assert_eq!(lane_value_indices(0x01, 0), (Some(0), None));
    }

    #[test]
    fn vector_positions_repeat_every_four_lanes() {
        assert_eq!(lane_vector_positions(0), (0, 1));
        assert_eq!(lane_vector_positions(1), (2, 3));
        assert_eq!(lane_vector_positions(2), (4, 5));
        assert_eq!(lane_vector_positions(3), (6, 7));
        assert_eq!(lane_vector_positions(4), (0, 1)); // wraps
        assert_eq!(lane_vector_positions(31), (6, 7));
    }

    #[test]
    fn indices_cover_all_values_exactly_once() {
        // For any bitmap, the union of all lanes' indices is 0..popcount.
        let bitmaps = [0u64, 1, u64::MAX, 0xdead_beef_cafe_f00d, 1 << 63];
        for &bmp in &bitmaps {
            let mut seen = vec![];
            for lid in 0..32 {
                let (a, b) = lane_value_indices(bmp, lid);
                seen.extend(a);
                seen.extend(b);
            }
            seen.sort_unstable();
            let expect: Vec<u32> = (0..bmp.count_ones()).collect();
            assert_eq!(seen, expect, "bitmap {bmp:#x}");
        }
    }

    #[test]
    fn warp_decode_reconstructs_block() {
        use spaden_gpusim::{Gpu, GpuConfig};
        let csr = spaden_sparse::gen::generate_blocked(
            64,
            20,
            spaden_sparse::gen::Placement::Scattered,
            &spaden_sparse::gen::FillDist::Uniform { lo: 3, hi: 60 },
            113,
        );
        let bb = crate::BitBsr::from_csr(&csr);
        let gpu = Gpu::new(GpuConfig::l40());
        let bitmaps = gpu.alloc(bb.bitmaps.clone());
        let offsets = gpu.alloc(bb.block_offsets.clone());
        let values = gpu.alloc(bb.values.clone());
        let k = bb.bnnz() / 2;
        let dense = bb.decode_block(k);
        gpu.launch(1, |ctx| {
            let lanes = decode_matrix_block(ctx, &bitmaps, &offsets, &values, k);
            for lid in 0..32 {
                let (dr, dc) = (lid / 4, 2 * (lid % 4));
                assert_eq!(lanes[lid].0, dense[dr * 8 + dc], "lane {lid} v1");
                assert_eq!(lanes[lid].1, dense[dr * 8 + dc + 1], "lane {lid} v2");
            }
        });
    }

    #[test]
    fn zero_bits_cost_no_traffic() {
        use spaden_gpusim::{Gpu, GpuConfig};
        // One block with a single nonzero: the value gathers touch one
        // sector, not the 4+ sectors a dense 64-value block would need.
        let csr = spaden_sparse::csr::Csr::new(
            8,
            8,
            vec![0, 1, 1, 1, 1, 1, 1, 1, 1],
            vec![0],
            vec![5.0],
        )
        .unwrap();
        let bb = crate::BitBsr::from_csr(&csr);
        let gpu = Gpu::new(GpuConfig::l40());
        let bitmaps = gpu.alloc(bb.bitmaps.clone());
        let offsets = gpu.alloc(bb.block_offsets.clone());
        let values = gpu.alloc(bb.values.clone());
        let c = gpu.launch(1, |ctx| {
            decode_matrix_block(ctx, &bitmaps, &offsets, &values, 0);
        });
        // bitmap sector + offset sector + one value sector; the empty
        // second gather issues but touches nothing.
        assert_eq!(c.sectors_read, 3, "{c:?}");
    }

    #[test]
    fn vector_segment_decode_values_and_traffic() {
        use spaden_gpusim::{Gpu, GpuConfig};
        let gpu = Gpu::new(GpuConfig::l40());
        let x: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let xb = gpu.alloc(x);
        let c = gpu.launch(1, |ctx| {
            let seg = decode_vector_segment(ctx, &xb, 3, 64); // cols 24..32
            for lid in 0..32 {
                let (p1, p2) = lane_vector_positions(lid);
                assert_eq!(seg[lid], ((24 + p1) as f32, (24 + p2) as f32));
            }
        });
        assert_eq!(c.sectors_read, 1, "8 aligned f32 = one sector");
    }

    #[test]
    fn checked_segment_col_rejects_wrapping_block_counts() {
        // Normal case.
        assert_eq!(checked_segment_col(3, 2, 64), Some(26));
        // Pair straddles the edge.
        assert_eq!(checked_segment_col(1, 4, 13), None);
        // b_idx * 8 past u32: must be None, never a truncated index.
        assert_eq!(checked_segment_col(u32::MAX as usize, 0, usize::MAX), None);
        // Products past usize must not panic.
        assert_eq!(checked_segment_col(usize::MAX / 4, 7, usize::MAX), None);
        // Largest representable column.
        let big = (u32::MAX as usize - 7) / BLOCK_DIM;
        assert!(checked_segment_col(big, 0, usize::MAX).is_some());
    }

    #[test]
    fn corrupt_value_base_saturates_to_oob_not_wraparound() {
        use spaden_gpusim::{Gpu, GpuConfig};
        // A block whose offset entry is near u32::MAX: the gather indices
        // must saturate (modelled OOB, functional zero), not wrap into
        // some other block's values.
        let gpu = Gpu::new(GpuConfig::l40());
        let bitmaps = gpu.alloc(vec![0x3u64]); // two nonzeros, lane 0
        let offsets = gpu.alloc(vec![u32::MAX - 1, u32::MAX]);
        let values = gpu.alloc(vec![F16::from_f32(7.0); 4]);
        gpu.launch(1, |ctx| {
            let out = decode_matrix_block(ctx, &bitmaps, &offsets, &values, 0);
            assert_eq!(out[0], (0.0, 0.0), "saturated index reads the default");
        });
    }

    #[test]
    fn vector_segment_edge_block_is_zero_padded() {
        use spaden_gpusim::{Gpu, GpuConfig};
        let gpu = Gpu::new(GpuConfig::l40());
        let xb = gpu.alloc((0..13).map(|i| i as f32).collect::<Vec<_>>());
        gpu.launch(1, |ctx| {
            let seg = decode_vector_segment(ctx, &xb, 1, 13); // cols 8..13 valid
            assert_eq!(seg[0], (8.0, 9.0));
            assert_eq!(seg[2], (12.0, 0.0)); // col 13 out of range
            assert_eq!(seg[3], (0.0, 0.0)); // cols 14, 15 out of range
        });
    }
}
