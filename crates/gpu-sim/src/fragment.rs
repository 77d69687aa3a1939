//! The WMMA 16×16 fragment with the register↔lane↔element mapping the
//! paper reverse-engineers in Section 3.
//!
//! Figure 1: a 16×16 fragment held by a warp of 32 threads consists of four
//! repeated 8×8 portions; within each portion one thread controls two
//! consecutive elements, and every thread handles 8 elements across the 4
//! portions.
//!
//! Figure 2 (obtained by writing `fragment.x[i] = i` in every thread):
//! register pair `x[0,1]` maps to the **top-left** portion, `x[2,3]` to the
//! top-right, `x[4,5]` to the bottom-left and `x[6,7]` to the
//! **bottom-right** — the two portions Spaden uses for its diagonal
//! two-block packing.
//!
//! For the row-major `MatrixA` operand and the accumulator, thread
//! `lane = (r % 8) * 4 + (c % 8) / 2` holds columns `c` and `c + 1` of row
//! `r` in consecutive registers. The `MatrixB` operand is transposed
//! within each portion (`lane = (c % 8) * 4 + (r % 8) / 2`), which is why
//! Algorithm 2 of the paper fetches the input vector with the
//! `(lid & 3) << 1` pattern: each B-fragment thread holds two consecutive
//! *rows* of one column.

use crate::half::F16;

/// Fragment edge length (the paper's fixed `<16, 16, 16>` MMA shape).
pub const FRAG_DIM: usize = 16;
/// Registers holding fragment data in each thread ("the valid register
/// indices of the fragment only range from 0 to 7", Section 3).
pub const REGS_PER_LANE: usize = 8;
/// Threads per warp.
pub const LANES: usize = 32;

/// Which operand of `D = A × B + C` a fragment holds. A and B are
/// half-precision (values are rounded through f16 on write); the
/// accumulator is f32.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FragKind {
    /// Row-major left operand (f16).
    MatrixA,
    /// Right operand (f16), transposed intra-portion layout.
    MatrixB,
    /// f32 accumulator / result.
    Accumulator,
}

/// Row-major element index `r * 16 + c` held by each `(lane, reg)` slot.
type SlotTable = [[u8; REGS_PER_LANE]; LANES];

const fn slot_table(kind: FragKind) -> SlotTable {
    let mut t = [[0u8; REGS_PER_LANE]; LANES];
    let mut lane = 0;
    while lane < LANES {
        let mut reg = 0;
        while reg < REGS_PER_LANE {
            let (r, c) = Fragment::element_of(kind, lane, reg);
            t[lane][reg] = (r * FRAG_DIM + c) as u8;
            reg += 1;
        }
        lane += 1;
    }
    t
}

/// Slot table of the row-major layout (`MatrixA`, `Accumulator`).
const ROW_SLOTS: SlotTable = slot_table(FragKind::MatrixA);
/// Slot table of the intra-portion-transposed `MatrixB` layout.
const B_SLOTS: SlotTable = slot_table(FragKind::MatrixB);

/// A 16×16 tensor-core fragment: 32 lanes × 8 registers of f32 storage.
///
/// `regs[lane][reg]` is the model of `fragment.x[reg]` in thread `lane` —
/// kernels may write registers directly, exactly like the paper's
/// register-level access, or use the WMMA-style whole-matrix API.
#[derive(Debug, Clone, PartialEq)]
pub struct Fragment {
    /// Operand kind; fixes the layout mapping and the write rounding.
    pub kind: FragKind,
    /// Per-lane registers: `regs[lane][reg]`.
    pub regs: [[f32; REGS_PER_LANE]; LANES],
}

impl Fragment {
    /// A zero-filled fragment (`wmma::fill_fragment(frag, 0)`).
    pub fn new(kind: FragKind) -> Self {
        Fragment { kind, regs: [[0.0; REGS_PER_LANE]; LANES] }
    }

    /// The (lane, register) pair holding element `(r, c)` — the mapping the
    /// paper establishes by reverse engineering.
    #[inline]
    pub fn lane_reg(kind: FragKind, r: usize, c: usize) -> (usize, usize) {
        debug_assert!(r < FRAG_DIM && c < FRAG_DIM);
        let (pr, pc) = (r / 8, c / 8); // portion coordinates
        let (rr, cc) = (r % 8, c % 8); // intra-portion coordinates
        match kind {
            FragKind::MatrixA | FragKind::Accumulator => {
                let lane = rr * 4 + cc / 2;
                let reg = (cc % 2) + 2 * pc + 4 * pr;
                (lane, reg)
            }
            FragKind::MatrixB => {
                let lane = cc * 4 + rr / 2;
                let reg = (rr % 2) + 2 * pc + 4 * pr;
                (lane, reg)
            }
        }
    }

    /// Inverse of [`Fragment::lane_reg`]: the element `(r, c)` stored in
    /// `(lane, reg)`.
    #[inline]
    pub const fn element_of(kind: FragKind, lane: usize, reg: usize) -> (usize, usize) {
        debug_assert!(lane < LANES && reg < REGS_PER_LANE);
        let pr = reg / 4;
        let pc = (reg % 4) / 2;
        let low = reg % 2;
        match kind {
            FragKind::MatrixA | FragKind::Accumulator => {
                let rr = lane / 4;
                let cc = 2 * (lane % 4) + low;
                (pr * 8 + rr, pc * 8 + cc)
            }
            FragKind::MatrixB => {
                let cc = lane / 4;
                let rr = 2 * (lane % 4) + low;
                (pr * 8 + rr, pc * 8 + cc)
            }
        }
    }

    /// Writes element `(r, c)`. A/B operands round the value through f16,
    /// modelling the half-precision fragment storage.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        let (lane, reg) = Self::lane_reg(self.kind, r, c);
        self.regs[lane][reg] = match self.kind {
            FragKind::Accumulator => v,
            _ => F16::round_f32(v),
        };
    }

    /// Reads element `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        let (lane, reg) = Self::lane_reg(self.kind, r, c);
        self.regs[lane][reg]
    }

    /// Writes register `reg` of `lane` directly — the paper's
    /// `fragment.x[i] = value`. A/B operands round through f16.
    #[inline]
    pub fn write_reg(&mut self, lane: usize, reg: usize, v: f32) {
        self.regs[lane][reg] = match self.kind {
            FragKind::Accumulator => v,
            _ => F16::round_f32(v),
        };
    }

    /// Reads register `reg` of `lane` directly (`fragment.x[i]`).
    #[inline]
    pub fn read_reg(&self, lane: usize, reg: usize) -> f32 {
        self.regs[lane][reg]
    }

    /// Fills every element (`wmma::fill_fragment`).
    pub fn fill(&mut self, v: f32) {
        let v = match self.kind {
            FragKind::Accumulator => v,
            _ => F16::round_f32(v),
        };
        for lane in self.regs.iter_mut() {
            lane.fill(v);
        }
    }

    fn slots(&self) -> &'static SlotTable {
        match self.kind {
            FragKind::MatrixA | FragKind::Accumulator => &ROW_SLOTS,
            FragKind::MatrixB => &B_SLOTS,
        }
    }

    /// Loads a row-major 16×16 matrix (`wmma::load_matrix_sync`).
    pub fn load_matrix(&mut self, m: &[f32; FRAG_DIM * FRAG_DIM]) {
        let rounded;
        let m = if self.kind == FragKind::Accumulator {
            m
        } else {
            rounded = F16::round_f32_all(*m);
            &rounded
        };
        let slots = self.slots();
        for (regs, idx) in self.regs.iter_mut().zip(slots) {
            for (reg, &i) in regs.iter_mut().zip(idx) {
                *reg = m[i as usize];
            }
        }
    }

    /// Writes lane `l`'s registers `[reg_base]`, `[reg_base + 1]` with
    /// `vals[2l]`, `vals[2l + 1]`, widened exactly. The values are already
    /// half precision, so an A/B operand stores them as they are: this is
    /// [`Fragment::write_reg`] of the widened values without a second
    /// rounding that could not change them.
    pub fn write_f16_pairs(&mut self, reg_base: usize, vals: &[F16; 2 * LANES]) {
        let wide = F16::to_f32_all(*vals);
        for (regs, pair) in self.regs.iter_mut().zip(wide.chunks_exact(2)) {
            regs[reg_base..reg_base + 2].copy_from_slice(pair);
        }
    }

    /// Stores to a row-major 16×16 matrix (`wmma::store_matrix_sync`).
    pub fn store_matrix(&self) -> [f32; FRAG_DIM * FRAG_DIM] {
        let mut m = [0.0f32; FRAG_DIM * FRAG_DIM];
        for (regs, idx) in self.regs.iter().zip(self.slots()) {
            for (&reg, &i) in regs.iter().zip(idx) {
                m[i as usize] = reg;
            }
        }
        m
    }

    /// The Section-3 experiment: set `fragment.x[i] = i` in every thread
    /// and store — the resulting grid of register indices is Figure 2.
    pub fn layout_experiment(kind: FragKind) -> [[u8; FRAG_DIM]; FRAG_DIM] {
        let mut grid = [[0u8; FRAG_DIM]; FRAG_DIM];
        for (r, row) in grid.iter_mut().enumerate() {
            for (c, cell) in row.iter_mut().enumerate() {
                let (_, reg) = Self::lane_reg(kind, r, c);
                *cell = reg as u8;
            }
        }
        grid
    }

    /// The Figure-1 companion: which lane holds each element.
    pub fn lane_map(kind: FragKind) -> [[u8; FRAG_DIM]; FRAG_DIM] {
        let mut grid = [[0u8; FRAG_DIM]; FRAG_DIM];
        for (r, row) in grid.iter_mut().enumerate() {
            for (c, cell) in row.iter_mut().enumerate() {
                let (lane, _) = Self::lane_reg(kind, r, c);
                *cell = lane as u8;
            }
        }
        grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_is_bijective_for_all_kinds() {
        for kind in [FragKind::MatrixA, FragKind::MatrixB, FragKind::Accumulator] {
            let mut seen = [[false; REGS_PER_LANE]; LANES];
            for r in 0..FRAG_DIM {
                for c in 0..FRAG_DIM {
                    let (lane, reg) = Fragment::lane_reg(kind, r, c);
                    assert!(!seen[lane][reg], "{kind:?}: ({lane},{reg}) reused");
                    seen[lane][reg] = true;
                    assert_eq!(Fragment::element_of(kind, lane, reg), (r, c));
                }
            }
            assert!(seen.iter().flatten().all(|&s| s), "{kind:?}: slots unused");
        }
    }

    #[test]
    fn figure2_portion_register_pairs() {
        // Figure 2: TL portion shows registers 0/1, TR 2/3, BL 4/5, BR 6/7.
        let grid = Fragment::layout_experiment(FragKind::Accumulator);
        for r in 0..FRAG_DIM {
            for c in 0..FRAG_DIM {
                let pair = grid[r][c] & !1; // even base of the register pair
                let expected = 2 * ((c / 8) as u8) + 4 * ((r / 8) as u8);
                assert_eq!(pair, expected, "portion pair at ({r},{c})");
                // Within a portion, even columns are the even register.
                assert_eq!(grid[r][c] % 2, (c % 2) as u8);
            }
        }
    }

    #[test]
    fn figure1_two_consecutive_elements_per_thread() {
        // Each thread controls two consecutive elements in each portion.
        let lanes = Fragment::lane_map(FragKind::Accumulator);
        for r in 0..FRAG_DIM {
            for c in (0..FRAG_DIM).step_by(2) {
                assert_eq!(lanes[r][c], lanes[r][c + 1], "pair split at ({r},{c})");
            }
        }
        // Within an 8x8 portion, lanes are rr*4 + cc/2 (row-major pairs).
        assert_eq!(lanes[0][0], 0);
        assert_eq!(lanes[0][2], 1);
        assert_eq!(lanes[0][7], 3);
        assert_eq!(lanes[1][0], 4);
        assert_eq!(lanes[7][6], 31);
        // Portions repeat the same thread layout.
        assert_eq!(lanes[8][8], 0);
        assert_eq!(lanes[15][14], 31);
    }

    #[test]
    fn algorithm3_register_indices() {
        // Algo 3 writes a_frag.x[0], x[1] to fill the top-left 8x8 and the
        // omitted code writes x[6], x[7] for the bottom-right.
        for rr in 0..8 {
            for cc in 0..8 {
                let (_, reg_tl) = Fragment::lane_reg(FragKind::MatrixA, rr, cc);
                assert!(reg_tl < 2, "TL must live in x[0..2], got {reg_tl}");
                let (_, reg_br) = Fragment::lane_reg(FragKind::MatrixA, 8 + rr, 8 + cc);
                assert!(reg_br >= 6, "BR must live in x[6..8], got {reg_br}");
            }
        }
    }

    #[test]
    fn algorithm2_vector_fetch_pattern() {
        // Algorithm 2: B_pos1 = (lid & 3) << 1, B_pos2 = B_pos1 + 1 — each
        // B-fragment thread holds rows 2*(lid%4) and 2*(lid%4)+1 of one
        // column in the TL portion.
        for lane in 0..LANES {
            let (r0, c0) = Fragment::element_of(FragKind::MatrixB, lane, 0);
            let (r1, c1) = Fragment::element_of(FragKind::MatrixB, lane, 1);
            assert_eq!(r0, 2 * (lane % 4), "lane {lane}");
            assert_eq!(r1, r0 + 1);
            assert_eq!(c0, c1);
            assert_eq!(c0, lane / 4);
        }
    }

    #[test]
    fn algorithm4_extraction_lanes() {
        // Algo 4: lanes with lid % 4 == 0 hold column 0 of the accumulator;
        // x[0] gives row lid/4 (TL), x[6] gives row 8 + lid/4 (BR).
        for lane in (0..LANES).step_by(4) {
            assert_eq!(
                Fragment::element_of(FragKind::Accumulator, lane, 0),
                (lane / 4, 0)
            );
            assert_eq!(
                Fragment::element_of(FragKind::Accumulator, lane, 6),
                (8 + lane / 4, 8)
            );
        }
    }

    #[test]
    fn load_store_roundtrip() {
        let mut m = [0.0f32; 256];
        for (i, v) in m.iter_mut().enumerate() {
            *v = i as f32; // exactly representable in f16 up to 2048
        }
        for kind in [FragKind::MatrixA, FragKind::MatrixB, FragKind::Accumulator] {
            let mut f = Fragment::new(kind);
            f.load_matrix(&m);
            assert_eq!(f.store_matrix(), m, "{kind:?}");
        }
    }

    #[test]
    fn ab_writes_round_through_f16() {
        let mut a = Fragment::new(FragKind::MatrixA);
        a.set(0, 0, 0.1);
        assert_eq!(a.get(0, 0), F16::round_f32(0.1));
        assert_ne!(a.get(0, 0), 0.1);
        let mut acc = Fragment::new(FragKind::Accumulator);
        acc.set(0, 0, 0.1);
        assert_eq!(acc.get(0, 0), 0.1, "accumulator is full f32");
    }

    #[test]
    fn direct_register_write_equals_element_write() {
        let mut via_elem = Fragment::new(FragKind::MatrixA);
        via_elem.set(3, 5, 2.5);
        let mut via_reg = Fragment::new(FragKind::MatrixA);
        let (lane, reg) = Fragment::lane_reg(FragKind::MatrixA, 3, 5);
        via_reg.write_reg(lane, reg, 2.5);
        assert_eq!(via_elem, via_reg);
    }

    #[test]
    fn fill_sets_all_256_elements() {
        let mut f = Fragment::new(FragKind::Accumulator);
        f.fill(7.0);
        assert!(f.store_matrix().iter().all(|&v| v == 7.0));
    }
}
