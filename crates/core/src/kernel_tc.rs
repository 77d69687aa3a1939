//! The Spaden SpMV kernel on tensor cores — Algorithms 3 and 4 (§4.3).
//!
//! One warp drives one tensor core over a *pair* of block-rows. Each
//! iteration decodes one block from each row and places them on the
//! fragment diagonal (registers `x[0,1]` for the top-left portion and
//! `x[6,7]` for the bottom-right, per the reverse-engineered mapping of
//! Section 3); the vector fragment receives the two matching length-8
//! segments of `x`, column-broadcast. A single `m16n16k16` MMA then
//! advances both rows — "16 rows from the original matrix are processed in
//! parallel by every tensor core ... a double of DASP's throughput".
//!
//! After the block loop, Algorithm 4 extracts the first column of each
//! diagonal portion (accumulator registers `x[0]` and `x[6]`, lanes with
//! `lid % 4 == 0`) into the output vector.
//!
//! A clean launch's counters depend only on the engine's structure, so
//! the engine simulates one and replays it later (see
//! [`SpadenEngine::replayable`]).

use crate::abft::AbftChecksums;
use crate::bitbsr::BitBsr;
use crate::decode::{
    checked_segment_col, decode_matrix_block, decode_matrix_values, decode_vector_segment,
    lane_pairs,
};
use crate::engine::{timed, EngineError, PrepStats, SpmvEngine, SpmvRun};
use crate::kernel_cuda::CUDA_BLOCK_PRODUCT_CYCLES;
use spaden_gpusim::exec::{WarpCtx, WARP_SIZE};
use spaden_gpusim::fragment::{FragKind, Fragment};
use spaden_gpusim::half::{ConvertHazard, F16};
use spaden_gpusim::memory::{DeviceBuffer, DeviceOutput};
use spaden_gpusim::{Gpu, GpuConfig, KernelCounters};
use spaden_sparse::csr::Csr;
use spaden_sparse::gen::BLOCK_DIM;
use std::sync::{Mutex, OnceLock};

/// Upper bound on ABFT verify → scalar-recompute rounds before
/// [`SpadenEngine::try_run_checked`] gives up with
/// [`EngineError::CorrectionExhausted`].
pub const ABFT_MAX_RETRIES: usize = 3;

/// Guards the decode kernels' `u32` index arithmetic: block value bases
/// are `u32` plus an intra-block offset below 64, so a format within one
/// block of `u32::MAX` entries could wrap to a bogus in-bounds index on
/// adversarial block counts. Surfaced as a typed validation error at
/// prepare time instead of a silent wrap inside the kernel.
pub(crate) fn check_index_headroom(nnz: usize, bnnz: usize) -> Result<(), EngineError> {
    let limit = u32::MAX as usize - BLOCK_DIM * BLOCK_DIM;
    if nnz > limit || bnnz > limit {
        return Err(EngineError::Validation(format!(
            "format exceeds u32 index headroom: {nnz} values / {bnnz} blocks (limit {limit})"
        )));
    }
    Ok(())
}

/// How blocks are packed onto the 16×16 fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Packing {
    /// Two blocks on the TL/BR diagonal — the paper's design, 16 output
    /// rows per MMA ("a double of DASP's throughput").
    #[default]
    Diagonal,
    /// One block in the TL portion only — the ablation baseline: half the
    /// useful outputs per MMA, twice the MMAs and vector loads.
    Single,
}

/// How data reaches the fragment registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FragmentIo {
    /// Direct register writes via the reverse-engineered mapping (§3) —
    /// Spaden's approach.
    #[default]
    Direct,
    /// The conventional WMMA path: materialise the full 16×16 operand in
    /// shared memory, then `wmma::load_matrix_sync` — "preparing a data
    /// buffer of size 256 in shared memory" that §4.3.3 calls redundant.
    SharedMemoryStaged,
}

/// Kernel-variant knobs for the ablation benches; defaults reproduce the
/// paper's Spaden.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpadenConfig {
    /// Fragment packing strategy.
    pub packing: Packing,
    /// Fragment fill path.
    pub fragment_io: FragmentIo,
}

/// Spaden, prepared for one matrix: the bitBSR conversion plus its device
/// buffers.
pub struct SpadenEngine {
    format: BitBsr,
    prep: PrepStats,
    config: SpadenConfig,
    abft: AbftChecksums,
    d_block_row_ptr: DeviceBuffer<u32>,
    d_block_cols: DeviceBuffer<u32>,
    d_bitmaps: DeviceBuffer<u64>,
    d_block_offsets: DeviceBuffer<u32>,
    d_values: DeviceBuffer<F16>,
    /// f16 conversion losses `(overflow, underflow, nan)` counted when the
    /// source values were rounded to f16 at prepare time. Only populated
    /// when the preparing GPU has SimSan enabled; the checked run surfaces
    /// them as [`EngineError::NumericalHazard`] — the loss already
    /// happened, so serving from this format would return poisoned output.
    prep_hazards: (usize, usize, usize),
    /// Every stored f16 value is finite (a replay precondition).
    values_finite: bool,
    /// One clean, placement-free launch: its config and its counters.
    memo: Mutex<Option<(GpuConfig, KernelCounters)>>,
    /// The stored values widened to f32, built by the first replay.
    wide_values: OnceLock<Vec<f32>>,
}

/// Counts f16 conversion hazards over the source values (prepare-time
/// guard rail). Skipped entirely when SimSan is off — prepare stays
/// zero-cost and behaviour-identical.
fn conversion_hazards(values: impl Iterator<Item = f32>, gpu: &Gpu) -> (usize, usize, usize) {
    if !gpu.san_enabled() {
        return (0, 0, 0);
    }
    let tol = gpu.config.san.underflow_tol;
    let mut counts = (0usize, 0usize, 0usize);
    for v in values {
        match F16::convert_hazard(v, tol) {
            Some(ConvertHazard::Overflow) => counts.0 += 1,
            Some(ConvertHazard::Underflow) => counts.1 += 1,
            Some(ConvertHazard::Nan) => counts.2 += 1,
            None => {}
        }
    }
    counts
}

impl SpadenEngine {
    /// Converts `csr` to bitBSR (timed — Figure 10a) and uploads it.
    /// Panics if the conversion produces an invalid format; prefer
    /// [`SpadenEngine::try_prepare`] in code that must not unwind.
    pub fn prepare(gpu: &Gpu, csr: &Csr) -> Self {
        Self::prepare_with(gpu, csr, SpadenConfig::default())
    }

    /// [`SpadenEngine::prepare`] with explicit variant knobs.
    pub fn prepare_with(gpu: &Gpu, csr: &Csr, config: SpadenConfig) -> Self {
        Self::try_prepare_with(gpu, csr, config).expect("bitBSR conversion produced valid format")
    }

    /// Fallible [`SpadenEngine::prepare`]: validates the converted format
    /// and precomputes the ABFT checksums.
    pub fn try_prepare(gpu: &Gpu, csr: &Csr) -> Result<Self, EngineError> {
        Self::try_prepare_with(gpu, csr, SpadenConfig::default())
    }

    /// Fallible [`SpadenEngine::prepare_with`].
    pub fn try_prepare_with(
        gpu: &Gpu,
        csr: &Csr,
        config: SpadenConfig,
    ) -> Result<Self, EngineError> {
        // Ingress validation: a corrupt CSR (unsorted columns, bad
        // offsets) must be a typed error before conversion, not a
        // mis-built bitmap the kernel then chews on.
        csr.validate().map_err(|e| EngineError::Validation(e.to_string()))?;
        let (format, seconds) = timed(|| BitBsr::from_csr(csr));
        let abft = AbftChecksums::build(&format);
        // Prepare-time guard rail: the f32 → f16 rounding above is where
        // out-of-range values are silently lost, before any kernel runs.
        let prep_hazards = conversion_hazards(csr.values.iter().copied(), gpu);
        Self::from_validated_parts(gpu, format, abft, config, seconds, prep_hazards)
    }

    /// Builds an engine from an already-converted bitBSR slice and its
    /// matching ABFT checksums — the shard path, where both come from
    /// `slice_block_rows` of a prepared full matrix rather than a fresh
    /// conversion. Validates the format and that the checksums cover
    /// exactly its block-rows.
    pub fn try_from_parts(
        gpu: &Gpu,
        format: BitBsr,
        abft: AbftChecksums,
        config: SpadenConfig,
    ) -> Result<Self, EngineError> {
        if abft.block_rows() != format.block_rows {
            return Err(EngineError::Validation(format!(
                "checksum block-rows {} != format block-rows {}",
                abft.block_rows(),
                format.block_rows
            )));
        }
        // The f32 source is gone here (the slice is already f16), so only
        // retained Inf/NaN can still be seen; underflow losses were
        // counted when the full matrix was prepared.
        let prep_hazards = conversion_hazards(format.values.iter().map(|v| v.to_f32()), gpu);
        Self::from_validated_parts(gpu, format, abft, config, 0.0, prep_hazards)
    }

    fn from_validated_parts(
        gpu: &Gpu,
        format: BitBsr,
        abft: AbftChecksums,
        config: SpadenConfig,
        prep_seconds: f64,
        prep_hazards: (usize, usize, usize),
    ) -> Result<Self, EngineError> {
        format.validate().map_err(|e| EngineError::Validation(e.to_string()))?;
        check_index_headroom(format.nnz(), format.bnnz())?;
        let prep = PrepStats { seconds: prep_seconds, device_bytes: format.bytes() as u64 };
        let values_finite = format.values.iter().all(|v| v.is_finite());
        Ok(SpadenEngine {
            d_block_row_ptr: gpu.alloc(format.block_row_ptr.clone()),
            d_block_cols: gpu.alloc(format.block_cols.clone()),
            d_bitmaps: gpu.alloc(format.bitmaps.clone()),
            d_block_offsets: gpu.alloc(format.block_offsets.clone()),
            d_values: gpu.alloc(format.values.clone()),
            format,
            prep,
            config,
            abft,
            prep_hazards,
            values_finite,
            memo: Mutex::new(None),
            wide_values: OnceLock::new(),
        })
    }

    /// The converted format (inspection / tests).
    pub fn format(&self) -> &BitBsr {
        &self.format
    }

    /// The precomputed ABFT column-sum checksums.
    pub fn abft(&self) -> &AbftChecksums {
        &self.abft
    }

    /// Decodes one matrix block and its vector segment into the given
    /// fragment portion (`reg_base` 0 = top-left, 6 = bottom-right).
    fn fill_portion(
        &self,
        ctx: &mut WarpCtx,
        x: &DeviceBuffer<f32>,
        a_frag: &mut Fragment,
        b_frag: &mut Fragment,
        block_idx: Option<usize>,
        reg_base: usize,
    ) {
        match block_idx {
            Some(k) => {
                let bc = ctx.read(&self.d_block_cols, k) as usize;
                let a = decode_matrix_values(
                    ctx,
                    &self.d_bitmaps,
                    &self.d_block_offsets,
                    &self.d_values,
                    k,
                );
                // Algorithm 3 lines 6-7: direct register writes. Lane `l`'s
                // two decoded elements are exactly its registers
                // [reg_base], [reg_base + 1] under the Figure-2 mapping.
                // The executor checks the base against that mapping and
                // the values for f16 hazards when SimSan is on.
                // The whole vector run is in range when its last pair is.
                let ncols = self.format.ncols;
                match checked_segment_col(bc, BLOCK_DIM - 2, ncols) {
                    Some(last_pair) => {
                        ctx.ops(3); // vector position arithmetic
                        let start = last_pair - (BLOCK_DIM as u32 - 2);
                        ctx.fill_portion(a_frag, b_frag, reg_base, &a, x, start);
                    }
                    None => {
                        // Edge block: lanes past the matrix read zeros.
                        let b = decode_vector_segment(ctx, x, bc, ncols);
                        ctx.frag_write_pairs(a_frag, reg_base, &lane_pairs(&a));
                        ctx.frag_write_pairs(b_frag, reg_base, &b);
                    }
                }
                ctx.ops(2); // register move pairs issue as two instructions
                if self.config.fragment_io == FragmentIo::SharedMemoryStaged {
                    // Conventional WMMA path: the decoded A portion and the
                    // broadcast B portion are first materialised as dense
                    // 8x8 f16 tiles in shared memory and re-loaded with
                    // wmma::load_matrix_sync — the indirection the paper's
                    // direct register access removes.
                    ctx.smem_stage(2 * 64 * 2);
                }
            }
            None => {
                // Row exhausted: zero the A portion so the MMA contributes
                // nothing (computed zeros, not loads).
                ctx.frag_write_pairs(a_frag, reg_base, &[(0.0, 0.0); WARP_SIZE]);
                ctx.ops(1);
            }
        }
    }
}

impl SpmvEngine for SpadenEngine {
    fn name(&self) -> &'static str {
        "Spaden"
    }

    fn prep(&self) -> PrepStats {
        self.prep
    }

    fn nnz(&self) -> usize {
        self.format.nnz()
    }

    fn nrows(&self) -> usize {
        self.format.nrows
    }

    fn ncols(&self) -> usize {
        self.format.ncols
    }

    /// Replays the engine's memo when [`SpadenEngine::replayable`] holds
    /// and `x` and `y` land clear of the format; otherwise simulates the
    /// launch and, when it was clean, finite, clear and placement-free,
    /// records it as the memo.
    fn run(&self, gpu: &Gpu, x: &[f32]) -> SpmvRun {
        assert_eq!(x.len(), self.format.ncols, "x length mismatch");
        let x16 = self.replay_input(gpu, x);
        let memo = if x16.is_some() { self.memo_for(&gpu.config) } else { None };
        let d_x = gpu.alloc(x.to_vec());
        let y = gpu.alloc_output(self.format.nrows);
        let clear = self.clear_of_format(d_x.base(), d_x.bytes())
            && self.clear_of_format(y.base(), y.len() as u64 * 4);
        if let (Some(x16), Some(counters), true) = (&x16, memo, clear) {
            let wide = self.wide_values.get_or_init(|| self.format.widened_values());
            return SpmvRun::new(self.format.spmv_widened(wide, x16), counters, gpu);
        }
        let counters = self.launch(gpu, &d_x, &y);
        let [a, b, c, d, e] = self.format_buffers().map(|(_, bytes)| bytes);
        let touched = [a, b, c, d, e, d_x.bytes(), y.len() as u64 * 4];
        if x16.is_some() && clear && gpu.l2_placement_free(&touched) {
            if let Ok(mut memo) = self.memo.lock() {
                *memo = Some((gpu.config.clone(), counters));
            }
        }
        SpmvRun::new(y.to_vec(), counters, gpu)
    }

    fn run_checked(&self, gpu: &Gpu, x: &[f32]) -> Result<SpmvRun, EngineError> {
        self.try_run_checked(gpu, x)
    }
}

impl SpadenEngine {
    /// ABFT-checked SpMV with graceful degradation.
    ///
    /// The ladder: (1) the tensor-core kernel runs; (2) every block-row's
    /// output is verified against the column-sum checksums; (3) failing
    /// block-rows — faults localised to 8 output rows — are recomputed on
    /// the scalar CUDA-core path (itself subject to injection; each retry
    /// launch draws fresh fault sites); (4) after [`ABFT_MAX_RETRIES`]
    /// rounds that still fail, [`EngineError::CorrectionExhausted`] is
    /// returned instead of silently wrong results.
    ///
    /// Counters of all recovery launches are merged into the returned
    /// run, and `faults_observed` records every failed verification, so
    /// the modelled time includes the cost of recovery.
    pub fn try_run_checked(&self, gpu: &Gpu, x: &[f32]) -> Result<SpmvRun, EngineError> {
        if gpu.san_enabled() && self.prep_hazards != (0, 0, 0) {
            // The format itself is lossy: values overflowed, underflowed,
            // or NaN'd when rounded to f16 at prepare time. Every run of
            // this format reproduces the loss, so refuse up front and let
            // the caller demote to an f32 engine.
            let (overflow, underflow, nan) = self.prep_hazards;
            return Err(EngineError::NumericalHazard { overflow, underflow, nan });
        }
        let numeric_before = gpu.san_numeric_counts();
        let mut run = self.try_run(gpu, x)?;
        if gpu.san_enabled() {
            // SimSan numeric guard rails: any f16 overflow / underflow /
            // NaN observed during this run taints the output. Don't enter
            // the ABFT recompute ladder — the scalar path rounds through
            // f16 too, so a retry reproduces the hazard; surface a typed
            // error and let the caller demote to an f32 engine instead.
            let (ovf, unf, nan) = gpu.san_numeric_counts();
            let (b_ovf, b_unf, b_nan) = numeric_before;
            if (ovf, unf, nan) != numeric_before {
                return Err(EngineError::NumericalHazard {
                    overflow: (ovf - b_ovf) as usize,
                    underflow: (unf - b_unf) as usize,
                    nan: (nan - b_nan) as usize,
                });
            }
        }
        let mut bad = self.abft.verify(x, &run.y);
        let mut retries = 0;
        while !bad.is_empty() {
            run.counters.faults_observed += bad.len() as u64;
            if retries == ABFT_MAX_RETRIES {
                return Err(EngineError::CorrectionExhausted {
                    block_rows: bad.len(),
                    retries,
                });
            }
            retries += 1;
            let rows: Vec<u32> = bad.iter().map(|&b| b as u32).collect();
            let c = self.recompute_block_rows(gpu, x, &rows, &mut run.y);
            run.counters.merge(&c);
            bad.retain(|&br| !self.abft.check_block_row(br, x, &run.y));
        }
        // Re-derive modelled time from the merged counters.
        Ok(SpmvRun::new(run.y, run.counters, gpu))
    }

    /// Recomputes the given block-rows on CUDA cores (the `Spaden w/o TC`
    /// compute step, one warp per block-row) and splices the refreshed
    /// rows into `y`. Returns the launch's counters.
    fn recompute_block_rows(
        &self,
        gpu: &Gpu,
        x: &[f32],
        rows: &[u32],
        y: &mut [f32],
    ) -> KernelCounters {
        let d_rows = gpu.alloc(rows.to_vec());
        let d_x = gpu.alloc(x.to_vec());
        let out = gpu.alloc_output(self.format.nrows);
        let nrows = self.format.nrows;

        let counters = gpu.launch(rows.len(), |ctx| {
            let br = ctx.read(&d_rows, ctx.warp_id) as usize;
            let lo = ctx.read(&self.d_block_row_ptr, br) as usize;
            let hi = ctx.read(&self.d_block_row_ptr, br + 1) as usize;
            let mut row_acc = [0.0f32; BLOCK_DIM];
            ctx.ops(1);
            for k in lo..hi {
                ctx.ops(2);
                let bc = ctx.read(&self.d_block_cols, k) as usize;
                let a = decode_matrix_block(
                    ctx,
                    &self.d_bitmaps,
                    &self.d_block_offsets,
                    &self.d_values,
                    k,
                );
                let b = decode_vector_segment(ctx, &d_x, bc, self.format.ncols);
                ctx.ops(CUDA_BLOCK_PRODUCT_CYCLES);
                let mut partial = [0.0f32; WARP_SIZE];
                for lid in 0..WARP_SIZE {
                    // `a` is already f16; `x` rounds as on the TC path.
                    partial[lid] =
                        a[lid].0 * F16::round_f32(b[lid].0) + a[lid].1 * F16::round_f32(b[lid].1);
                }
                let sums = ctx.segmented_reduce_sum(&partial, 4);
                ctx.ops(1);
                for dr in 0..BLOCK_DIM {
                    row_acc[dr] += sums[4 * dr];
                }
            }
            ctx.ops(2);
            let mut writes = [None; WARP_SIZE];
            for dr in 0..BLOCK_DIM {
                let r = br * BLOCK_DIM + dr;
                if r < nrows {
                    writes[dr] = Some((r as u32, row_acc[dr]));
                }
            }
            ctx.scatter(&out, &writes);
        });

        let fresh = out.to_vec();
        for &br in rows {
            let r_lo = br as usize * BLOCK_DIM;
            let r_hi = (r_lo + BLOCK_DIM).min(nrows);
            y[r_lo..r_hi].copy_from_slice(&fresh[r_lo..r_hi]);
        }
        counters
    }
}

impl SpadenEngine {
    /// True when the next [`SpmvEngine::run`] of `x` on `gpu` replays the
    /// engine's memo instead of simulating, provided that launch's `x` and
    /// `y` land clear of the format's buffers. All of these must hold:
    /// - *clean*: neither fault injection nor SimSan is on, since both
    ///   draw or report per launch;
    /// - *same config*: the memo was simulated under a `GpuConfig` equal
    ///   to `gpu.config`;
    /// - *finite*: every stored value and every f16-rounded `x[i]` is
    ///   finite. Otherwise the kernel adds `0 · inf = NaN` products,
    ///   including those of an exhausted row against its stale `x` portion,
    ///   which the host SpMV does not;
    /// - *placement-free*: checked when the memo is recorded, by
    ///   [`Gpu::l2_placement_free`] over the seven buffers the kernel
    ///   reads or writes (five format arrays, `x` and `y`). Then no L2 set
    ///   overflows wherever the bump allocator puts `x` and `y`, so every
    ///   counter is the memo's.
    ///
    /// `run` allocates `x` and `y` before it decides, so a replay advances
    /// the allocator as a simulated launch does, and later launches of
    /// other engines on `gpu` see the same placement. It simulates when
    /// either lands on the format's addresses, which only an engine run on
    /// another `Gpu` than the one that prepared it can see (sharded
    /// serving does), and it records only launches that landed clear. A
    /// replay computes `y` with the loop of [`BitBsr::spmv_reference`],
    /// over `x` rounded once and the values widened once per engine, which
    /// equals the kernel's `y` bit for bit on finite input (see its doc
    /// comment).
    ///
    /// The memo can come from an earlier engine over the same structure
    /// (see [`SpadenEngine::carry_memo_from`]).
    pub fn replayable(&self, gpu: &Gpu, x: &[f32]) -> bool {
        self.replay_input(gpu, x).is_some() && self.memo_for(&gpu.config).is_some()
    }

    /// Adopts `prev`'s memo, and returns `true`, when this engine's clean
    /// launches count exactly what `prev`'s do: the `SpadenConfig`, the
    /// dimensions and the four structure arrays (`block_row_ptr`,
    /// `block_cols`, `bitmaps`, `block_offsets`) are equal. Under the
    /// conditions of [`SpadenEngine::replayable`] a launch's counters
    /// depend on nothing else: the kernel's addresses and trip counts come
    /// from the structure, and equal arrays give equal buffer sizes, so the
    /// placement bound the memo was recorded under holds here too. Values
    /// stay out of the comparison; the finiteness and address checks still
    /// run on every launch of this engine.
    ///
    /// This is what lets a value-only commit, or one whose inserts all went
    /// to the side buffer, serve its first read without a simulation.
    pub fn carry_memo_from(&self, prev: &SpadenEngine) -> bool {
        let (a, b) = (&self.format, &prev.format);
        let same = self.config == prev.config
            && (a.nrows, a.ncols) == (b.nrows, b.ncols)
            && a.block_row_ptr == b.block_row_ptr
            && a.block_cols == b.block_cols
            && a.bitmaps == b.bitmaps
            && a.block_offsets == b.block_offsets;
        let memo = if same { prev.memo.lock().ok().and_then(|m| m.clone()) } else { None };
        match (memo, self.memo.lock()) {
            (Some(memo), Ok(mut mine)) => {
                *mine = Some(memo);
                true
            }
            _ => false,
        }
    }

    /// [`SpmvEngine::run`] without the memo: always simulates the launch
    /// and never records it.
    pub fn run_simulated(&self, gpu: &Gpu, x: &[f32]) -> SpmvRun {
        assert_eq!(x.len(), self.format.ncols, "x length mismatch");
        let d_x = gpu.alloc(x.to_vec());
        let y = gpu.alloc_output(self.format.nrows);
        let counters = self.launch(gpu, &d_x, &y);
        SpmvRun::new(y.to_vec(), counters, gpu)
    }

    fn launch(&self, gpu: &Gpu, d_x: &DeviceBuffer<f32>, y: &DeviceOutput) -> KernelCounters {
        match self.config.packing {
            Packing::Diagonal => self.launch_paired(gpu, d_x, y),
            Packing::Single => self.launch_single(gpu, d_x, y),
        }
    }

    // `x` rounded to f16, when the launch meets the clean and finite
    // conditions of `replayable`.
    fn replay_input(&self, gpu: &Gpu, x: &[f32]) -> Option<Vec<f32>> {
        if gpu.config.faults.enabled() || gpu.san_enabled() || !self.values_finite {
            return None;
        }
        let x16: Vec<f32> = x.iter().map(|&v| F16::round_f32(v)).collect();
        x16.iter().all(|v| v.is_finite()).then_some(x16)
    }

    fn memo_for(&self, config: &GpuConfig) -> Option<KernelCounters> {
        let memo = self.memo.lock().ok()?;
        memo.as_ref().filter(|(c, _)| c == config).map(|&(_, counters)| counters)
    }

    // Base and byte size of each of the format's five device buffers.
    fn format_buffers(&self) -> [(u64, u64); 5] {
        [
            (self.d_block_row_ptr.base(), self.d_block_row_ptr.bytes()),
            (self.d_block_cols.base(), self.d_block_cols.bytes()),
            (self.d_bitmaps.base(), self.d_bitmaps.bytes()),
            (self.d_block_offsets.base(), self.d_block_offsets.bytes()),
            (self.d_values.base(), self.d_values.bytes()),
        ]
    }

    // True when `[base, base + bytes)` shares no byte with the format's
    // buffers. Allocations on one `Gpu` never overlap, but an engine run on
    // another `Gpu` than the one that prepared it can see its `x` or `y`
    // land on the format's addresses, where the L2 model counts their
    // sectors as one. Bases are 256-byte aligned, so disjoint bytes are
    // disjoint L2 lines.
    fn clear_of_format(&self, base: u64, bytes: u64) -> bool {
        self.format_buffers().iter().all(|&(b, n)| base + bytes <= b || b + n <= base)
    }

    /// The paper's kernel: two block-rows per warp, diagonal packing.
    fn launch_paired(
        &self,
        gpu: &Gpu,
        d_x: &DeviceBuffer<f32>,
        y: &DeviceOutput,
    ) -> KernelCounters {
        let block_rows = self.format.block_rows;
        let n_pairs = block_rows.div_ceil(2);
        let nrows = self.format.nrows;

        gpu.launch(n_pairs, |ctx| {
            let br0 = 2 * ctx.warp_id;
            let br1 = br0 + 1;
            // Block ranges for both rows: ptr[br0], ptr[br0+1] (= row 1's
            // start) and ptr[br1+1].
            let lo0 = ctx.read(&self.d_block_row_ptr, br0) as usize;
            let hi0 = ctx.read(&self.d_block_row_ptr, br0 + 1) as usize;
            let hi1 = if br1 < block_rows {
                ctx.read(&self.d_block_row_ptr, br1 + 1) as usize
            } else {
                hi0
            };
            // Saturating: a corrupt (non-monotonic) pointer pair must not
            // wrap to a near-usize::MAX trip count.
            let (len0, len1) = (hi0.saturating_sub(lo0), hi1.saturating_sub(hi0));

            // Algorithm 3 line 1: initialise fragments.
            let mut a_frag = Fragment::new(FragKind::MatrixA);
            let mut b_frag = Fragment::new(FragKind::MatrixB);
            let mut acc = Fragment::new(FragKind::Accumulator);
            ctx.ops(3);

            for i in 0..len0.max(len1) {
                ctx.ops(2); // loop bookkeeping / index updates (lines 2-3)
                let k0 = (i < len0).then_some(lo0 + i);
                let k1 = (i < len1).then_some(hi0 + i);
                self.fill_portion(ctx, d_x, &mut a_frag, &mut b_frag, k0, 0);
                self.fill_portion(ctx, d_x, &mut a_frag, &mut b_frag, k1, 6);
                // Algorithm 3 line 8: accumulate in place.
                ctx.mma_16x16x16(&mut acc, &a_frag, &b_frag);
            }

            // Algorithm 4: lanes with lid % 4 == 0 hold column 0 of each
            // portion; one coalesced store covers both rows' 16 outputs.
            ctx.ops(4); // offset computation (lines 2-3) + predicate
            let mut writes = [None; WARP_SIZE];
            for lid in (0..WARP_SIZE).step_by(4) {
                let r0 = br0 * BLOCK_DIM + lid / 4;
                if r0 < nrows {
                    writes[lid / 4] = Some((r0 as u32, acc.read_reg(lid, 0)));
                }
                let r1 = br1 * BLOCK_DIM + lid / 4;
                if br1 < block_rows && r1 < nrows {
                    writes[8 + lid / 4] = Some((r1 as u32, acc.read_reg(lid, 6)));
                }
            }
            ctx.scatter(y, &writes);
        })
    }

    /// Ablation kernel: one block-row per warp, a single block in the
    /// top-left portion — DASP-style 8 useful outputs per MMA.
    fn launch_single(
        &self,
        gpu: &Gpu,
        d_x: &DeviceBuffer<f32>,
        y: &DeviceOutput,
    ) -> KernelCounters {
        let block_rows = self.format.block_rows;
        let nrows = self.format.nrows;

        gpu.launch(block_rows, |ctx| {
            let br = ctx.warp_id;
            let lo = ctx.read(&self.d_block_row_ptr, br) as usize;
            let hi = ctx.read(&self.d_block_row_ptr, br + 1) as usize;

            let mut a_frag = Fragment::new(FragKind::MatrixA);
            let mut b_frag = Fragment::new(FragKind::MatrixB);
            let mut acc = Fragment::new(FragKind::Accumulator);
            ctx.ops(3);

            for k in lo..hi {
                ctx.ops(2);
                self.fill_portion(ctx, d_x, &mut a_frag, &mut b_frag, Some(k), 0);
                ctx.mma_16x16x16(&mut acc, &a_frag, &b_frag);
            }

            ctx.ops(4);
            let mut writes = [None; WARP_SIZE];
            for lid in (0..WARP_SIZE).step_by(4) {
                let r = br * BLOCK_DIM + lid / 4;
                if r < nrows {
                    writes[lid / 4] = Some((r as u32, acc.read_reg(lid, 0)));
                }
            }
            ctx.scatter(y, &writes);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spaden_gpusim::GpuConfig;
    use spaden_sparse::gen::{self, FillDist, Placement};

    fn bits(y: &[f32]) -> Vec<u32> {
        y.iter().map(|v| v.to_bits()).collect()
    }

    // The host SpMV runs in the kernel's order, so on finite input the
    // simulated `y` equals it bit for bit, under both packings.
    fn check_against_reference(csr: &Csr, x: &[f32]) {
        let gpu = Gpu::new(GpuConfig::l40());
        let want = bits(&BitBsr::from_csr(csr).spmv_reference(x).unwrap());
        for packing in [Packing::Diagonal, Packing::Single] {
            let config = SpadenConfig { packing, ..Default::default() };
            let eng = SpadenEngine::prepare_with(&gpu, csr, config);
            assert_eq!(bits(&eng.run_simulated(&gpu, x).y), want, "{packing:?}");
        }
    }

    #[test]
    fn matches_reference_on_blocked_matrix() {
        let csr = gen::generate_blocked(
            256,
            150,
            Placement::Banded { bandwidth: 6 },
            &FillDist::Uniform { lo: 1, hi: 64 },
            201,
        );
        let x: Vec<f32> = (0..256).map(|i| ((i % 17) as f32) * 0.25 - 2.0).collect();
        check_against_reference(&csr, &x);
    }

    #[test]
    fn matches_reference_on_random_matrix() {
        let csr = gen::random_uniform(200, 200, 3000, 203);
        let x: Vec<f32> = (0..200).map(|i| ((i * 7 % 23) as f32) * 0.5).collect();
        check_against_reference(&csr, &x);
    }

    #[test]
    fn matches_reference_on_odd_dimensions() {
        // Non-multiple-of-8 rows/cols and an odd number of block rows.
        let csr = gen::random_uniform(217, 195, 2500, 205);
        let x: Vec<f32> = (0..195).map(|i| (i as f32 * 0.01).sin()).collect();
        check_against_reference(&csr, &x);
    }

    #[test]
    fn matches_reference_on_single_block_row() {
        let csr = gen::random_uniform(8, 64, 100, 207);
        let x: Vec<f32> = (0..64).map(|i| i as f32 * 0.1).collect();
        check_against_reference(&csr, &x);
    }

    #[test]
    fn matches_full_precision_oracle_within_f16_bounds() {
        let csr = gen::generate_blocked(
            512,
            400,
            Placement::Scattered,
            &FillDist::Uniform { lo: 8, hi: 40 },
            209,
        );
        let x: Vec<f32> = (0..512).map(|i| ((i * 11 % 19) as f32) * 0.125).collect();
        let gpu = Gpu::new(GpuConfig::l40());
        let eng = SpadenEngine::prepare(&gpu, &csr);
        let run = eng.run(&gpu, &x);
        let oracle = csr.spmv_f64(&x).unwrap();
        for (r, (a, o)) in run.y.iter().zip(&oracle).enumerate() {
            // f16 rounding of both operands: relative error ~2^-10 per
            // product, accumulation exact-ish in f32.
            let scale: f64 = csr.row_nnz(r) as f64 * 3.0 * 2.4;
            let tol = scale * 2.0f64.powi(-10) + 1e-3;
            assert!((*a as f64 - o).abs() <= tol, "row {r}: {a} vs oracle {o}");
        }
    }

    #[test]
    fn one_mma_per_block_pair_iteration() {
        // Two block rows with 3 and 5 blocks: 5 iterations, 5 MMAs.
        let mut coo = spaden_sparse::coo::Coo::new(16, 64);
        for (bc, r) in [(0u32, 0u32), (2, 0), (5, 0), (1, 8), (3, 8), (4, 8), (6, 8), (7, 8)] {
            coo.push(r, bc * 8, 1.0);
        }
        let csr = coo.to_csr();
        let gpu = Gpu::new(GpuConfig::l40());
        let eng = SpadenEngine::prepare(&gpu, &csr);
        let run = eng.run(&gpu, &vec![1.0f32; 64]);
        assert_eq!(run.counters.mma_m16n16k16, 5);
        assert_eq!(run.counters.warps, 1);
    }

    #[test]
    fn y_store_is_coalesced() {
        // A 16-row matrix: a single warp, a single 64-byte store (2 sectors).
        let csr = gen::random_uniform(16, 64, 200, 211);
        let gpu = Gpu::new(GpuConfig::l40());
        let eng = SpadenEngine::prepare(&gpu, &csr);
        let run = eng.run(&gpu, &vec![1.0f32; 64]);
        assert_eq!(run.counters.store_insts, 1);
        assert_eq!(run.counters.sectors_written, 2);
    }

    #[test]
    fn prep_stats_are_populated() {
        let csr = gen::random_uniform(128, 128, 1500, 213);
        let gpu = Gpu::new(GpuConfig::l40());
        let eng = SpadenEngine::prepare(&gpu, &csr);
        let p = eng.prep();
        assert!(p.seconds >= 0.0);
        assert_eq!(p.device_bytes, eng.format().bytes() as u64);
        assert_eq!(eng.nnz(), csr.nnz());
        assert_eq!(eng.nrows(), 128);
        assert_eq!(eng.name(), "Spaden");
    }

    #[test]
    fn single_packing_matches_reference_and_doubles_mmas() {
        let csr = gen::generate_blocked(
            256,
            180,
            Placement::Banded { bandwidth: 6 },
            &FillDist::Uniform { lo: 1, hi: 64 },
            221,
        );
        let x: Vec<f32> = (0..256).map(|i| ((i % 29) as f32) * 0.125 - 1.0).collect();
        let gpu = Gpu::new(GpuConfig::l40());
        let paired = SpadenEngine::prepare(&gpu, &csr);
        let single = SpadenEngine::prepare_with(
            &gpu,
            &csr,
            SpadenConfig { packing: Packing::Single, ..Default::default() },
        );
        let rp = paired.run(&gpu, &x);
        let rs = single.run(&gpu, &x);
        assert_eq!(bits(&rp.y), bits(&rs.y), "both packings add in the same order");
        // One block per MMA instead of two: ~2x the MMA count (exactly
        // bnnz vs sum of per-pair max lengths).
        assert_eq!(rs.counters.mma_m16n16k16, paired.format().bnnz() as u64);
        assert!(rs.counters.mma_m16n16k16 > (rp.counters.mma_m16n16k16 * 3) / 2);
    }

    #[test]
    fn smem_staging_adds_traffic_and_time() {
        let csr = gen::generate_blocked(
            512,
            300,
            Placement::Scattered,
            &FillDist::Uniform { lo: 8, hi: 40 },
            223,
        );
        let x = vec![1.0f32; 512];
        let gpu = Gpu::new(GpuConfig::l40());
        let direct = SpadenEngine::prepare(&gpu, &csr).run(&gpu, &x);
        let staged = SpadenEngine::prepare_with(
            &gpu,
            &csr,
            SpadenConfig { fragment_io: FragmentIo::SharedMemoryStaged, ..Default::default() },
        )
        .run(&gpu, &x);
        assert_eq!(direct.counters.smem_bytes, 0);
        assert!(staged.counters.smem_bytes > 0);
        assert!(staged.counters.cuda_ops > direct.counters.cuda_ops);
        assert_eq!(staged.y, direct.y, "staging must not change results");
    }

    #[test]
    fn try_prepare_rejects_corrupt_csr_with_typed_error() {
        // Satellite: Csr::validate is wired into the engine's own prepare
        // path, so a corrupt matrix is a typed Validation error before
        // the kernel (or even the format conversion) sees it.
        let mut csr = gen::random_uniform(64, 64, 600, 241);
        csr.col_idx[..2].reverse(); // unsorted columns within a row
        let gpu = Gpu::new(GpuConfig::l40());
        match SpadenEngine::try_prepare(&gpu, &csr) {
            Err(EngineError::Validation(_)) => {}
            other => panic!("expected Validation, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn try_from_parts_runs_a_sliced_shard() {
        let csr = gen::random_uniform(256, 128, 4000, 243);
        let gpu = Gpu::new(GpuConfig::l40());
        let full = SpadenEngine::prepare(&gpu, &csr);
        let x = make_sliced_x(128);
        let want = full.run(&gpu, &x);
        let (lo, hi) = (4usize, 20usize); // even boundaries: pairing preserved
        let shard = SpadenEngine::try_from_parts(
            &gpu,
            full.format().slice_block_rows(lo, hi),
            full.abft().slice_block_rows(lo, hi),
            SpadenConfig::default(),
        )
        .expect("sliced parts are valid");
        let run = shard.try_run_checked(&gpu, &x).expect("clean shard verifies");
        assert_eq!(
            run.y,
            want.y[lo * BLOCK_DIM..hi * BLOCK_DIM],
            "even-aligned shard output must be bit-identical to the full kernel's rows"
        );
    }

    #[test]
    fn try_from_parts_rejects_mismatched_checksums() {
        let csr = gen::random_uniform(128, 96, 1500, 245);
        let gpu = Gpu::new(GpuConfig::l40());
        let full = SpadenEngine::prepare(&gpu, &csr);
        match SpadenEngine::try_from_parts(
            &gpu,
            full.format().slice_block_rows(0, 8),
            full.abft().slice_block_rows(0, 6),
            SpadenConfig::default(),
        ) {
            Err(EngineError::Validation(msg)) => assert!(msg.contains("block-rows")),
            other => panic!("expected Validation, got {:?}", other.map(|_| ())),
        }
    }

    fn make_sliced_x(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 37 + 11) % 64) as f32 / 32.0 - 1.0).collect()
    }

    #[test]
    fn try_run_rejects_wrong_x_length() {
        let csr = gen::random_uniform(64, 96, 500, 231);
        let gpu = Gpu::new(GpuConfig::l40());
        let eng = SpadenEngine::prepare(&gpu, &csr);
        match eng.try_run(&gpu, &vec![1.0f32; 95]) {
            Err(EngineError::ShapeMismatch { expected: 96, got: 95 }) => {}
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn checked_run_is_bit_identical_without_faults() {
        let csr = gen::generate_blocked(
            256,
            160,
            Placement::Banded { bandwidth: 6 },
            &FillDist::Uniform { lo: 1, hi: 64 },
            233,
        );
        let x: Vec<f32> = (0..256).map(|i| ((i % 19) as f32) * 0.25 - 2.0).collect();
        let gpu = Gpu::new(GpuConfig::l40());
        let eng = SpadenEngine::prepare(&gpu, &csr);
        let plain = eng.run(&gpu, &x);
        let checked = eng.try_run_checked(&gpu, &x).expect("clean gpu must verify");
        assert_eq!(plain.y, checked.y, "verification must not perturb a clean run");
        assert_eq!(checked.counters.faults_observed, 0);
        assert_eq!(checked.counters.faults_injected, 0);
    }

    #[test]
    fn checked_run_corrects_fragment_faults() {
        use spaden_gpusim::FaultConfig;
        let csr = gen::generate_blocked(
            512,
            300,
            Placement::Scattered,
            &FillDist::Uniform { lo: 8, hi: 40 },
            235,
        );
        let x: Vec<f32> = (0..512).map(|i| ((i * 37 + 11) % 64) as f32 / 32.0 - 1.0).collect();
        let mut cfg = GpuConfig::l40();
        // Most of the 16x16 accumulator tile is never extracted (the kernel
        // reads one column), so a high per-MMA rate is needed before a flip
        // lands on an observable entry.
        cfg.faults =
            FaultConfig { seed: 99, fragment_corrupt_rate: 0.5, ..FaultConfig::disabled() };
        let gpu = Gpu::new(cfg);
        let eng = SpadenEngine::prepare(&gpu, &csr);
        let run = eng.try_run_checked(&gpu, &x).expect("correction must converge");
        assert!(run.counters.faults_injected > 0, "rate 0.02 over ~hundreds of MMAs");
        assert!(run.counters.faults_observed > 0, "high-bit fragment flips are observable");
        let want = eng.format().spmv_reference(&x).unwrap();
        for (r, (a, w)) in run.y.iter().zip(&want).enumerate() {
            let tol = 1e-3_f32.max(w.abs() * 1e-3);
            assert!((a - w).abs() <= tol, "row {r}: corrected {a} vs reference {w}");
        }
    }

    #[test]
    fn checked_run_exhausts_retries_under_saturating_faults() {
        use spaden_gpusim::FaultConfig;
        // Flip every sector of every value load: the scalar recompute path
        // is corrupted too, so correction can never converge.
        let csr = gen::random_uniform(128, 128, 2000, 237);
        let x: Vec<f32> = (0..128).map(|i| (i % 7) as f32 - 3.0).collect();
        let mut cfg = GpuConfig::l40();
        cfg.faults = FaultConfig { seed: 7, mem_bit_flip_rate: 1.0, ..FaultConfig::disabled() };
        let gpu = Gpu::new(cfg);
        let eng = SpadenEngine::prepare(&gpu, &csr);
        match eng.try_run_checked(&gpu, &x) {
            Err(EngineError::CorrectionExhausted { block_rows, retries }) => {
                assert!(block_rows > 0);
                assert_eq!(retries, ABFT_MAX_RETRIES);
            }
            other => panic!("expected CorrectionExhausted, got {other:?}"),
        }
    }

    #[test]
    fn index_headroom_guard_rejects_oversized_formats() {
        assert!(check_index_headroom(1000, 100).is_ok());
        match check_index_headroom(u32::MAX as usize, 100) {
            Err(EngineError::Validation(msg)) => assert!(msg.contains("headroom"), "{msg}"),
            other => panic!("expected Validation, got {other:?}"),
        }
        assert!(check_index_headroom(100, u32::MAX as usize).is_err());
    }

    #[test]
    fn checked_run_surfaces_numerical_hazard_under_san() {
        use spaden_gpusim::SanConfig;
        let csr = gen::random_uniform(64, 64, 500, 251);
        let mut cfg = GpuConfig::l40();
        cfg.san = SanConfig::on();
        let gpu = Gpu::new(cfg);
        let eng = SpadenEngine::prepare(&gpu, &csr);
        // A well-scaled x verifies cleanly even with the sanitizer on.
        let ok = eng.try_run_checked(&gpu, &vec![1.0f32; 64]).expect("clean input verifies");
        assert!(ok.y.iter().all(|v| v.is_finite()));
        // x past the f16 range: the vector-fragment writes overflow to
        // Inf, and the checked run must refuse to return the poisoned y
        // with a typed diagnosis instead of burning ABFT retries.
        match eng.try_run_checked(&gpu, &vec![1e6f32; 64]) {
            Err(EngineError::NumericalHazard { overflow, .. }) => {
                assert!(overflow > 0, "the overflow count attributes the hazard")
            }
            other => panic!("expected NumericalHazard, got {:?}", other.map(|_| ())),
        }
        // Without the sanitizer the same input can only surface as generic
        // correction exhaustion after the full retry ladder.
        let gpu_off = Gpu::new(GpuConfig::l40());
        let eng_off = SpadenEngine::prepare(&gpu_off, &csr);
        match eng_off.try_run_checked(&gpu_off, &vec![1e6f32; 64]) {
            Err(EngineError::CorrectionExhausted { .. }) => {}
            other => panic!("expected CorrectionExhausted, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn checked_run_surfaces_prepare_time_underflow() {
        use spaden_gpusim::SanConfig;
        // Values below the f16 subnormal floor are rounded to zero when the
        // matrix is packed into bitBSR at prepare time; no run-time scan can
        // see them. The checked run must still refuse to serve the format.
        let mut csr = gen::random_uniform(64, 64, 500, 257);
        for v in &mut csr.values {
            *v = 1e-9;
        }
        let mut cfg = GpuConfig::l40();
        cfg.san = SanConfig::on();
        let gpu = Gpu::new(cfg);
        let eng = SpadenEngine::prepare(&gpu, &csr);
        match eng.try_run_checked(&gpu, &vec![1.0f32; 64]) {
            Err(EngineError::NumericalHazard { underflow, .. }) => {
                assert!(underflow > 0, "the underflow count attributes the loss")
            }
            other => panic!("expected NumericalHazard, got {:?}", other.map(|_| ())),
        }
        // With the sanitizer off the lossy format runs (and happens to
        // verify: y is exactly zero on both the f16 and f64 paths), which
        // is precisely the silent-poisoning mode SimSan exists to catch.
        let gpu_off = Gpu::new(GpuConfig::l40());
        let eng_off = SpadenEngine::prepare(&gpu_off, &csr);
        assert_eq!(eng_off.prep_hazards, (0, 0, 0), "hazard scan is gated on san");
        let r = eng_off.try_run_checked(&gpu_off, &vec![1.0f32; 64]).expect("san-off run");
        assert!(r.y.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn san_on_clean_run_is_bit_identical_to_san_off() {
        use spaden_gpusim::SanConfig;
        let csr = gen::generate_blocked(
            256,
            160,
            Placement::Banded { bandwidth: 6 },
            &FillDist::Uniform { lo: 1, hi: 64 },
            253,
        );
        let x: Vec<f32> = (0..256).map(|i| ((i % 19) as f32) * 0.25 - 2.0).collect();
        let run = |san: bool| {
            let mut cfg = GpuConfig::l40();
            if san {
                cfg.san = SanConfig::on();
            }
            let gpu = Gpu::new(cfg);
            let eng = SpadenEngine::prepare(&gpu, &csr);
            let r = eng.run(&gpu, &x);
            assert!(gpu.take_san_reports().is_empty());
            (r.y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), r.counters)
        };
        let (y_off, mut c_off) = run(false);
        let (y_on, c_on) = run(true);
        assert_eq!(y_off, y_on, "sanitizer must not perturb results");
        c_off.san_reports = c_on.san_reports; // the only permitted delta (both zero here)
        assert_eq!(c_off, c_on, "sanitizer must not perturb counters");
    }

    #[test]
    fn dense_vs_sparse_blocks_traffic_scales_with_nnz() {
        // Same block count, different fills: the sparse-block matrix must
        // move far fewer value bytes (the core bitBSR claim).
        let gpu = Gpu::new(GpuConfig::l40());
        let dense = gen::generate_blocked(512, 320, Placement::Scattered, &FillDist::Dense, 215);
        let sparse = gen::generate_blocked(
            512,
            320,
            Placement::Scattered,
            &FillDist::Uniform { lo: 4, hi: 4 },
            215,
        );
        let x = vec![1.0f32; 512];
        let rd = SpadenEngine::prepare(&gpu, &dense).run(&gpu, &x);
        let rs = SpadenEngine::prepare(&gpu, &sparse).run(&gpu, &x);
        assert!(
            rd.counters.dram_read_bytes > 2 * rs.counters.dram_read_bytes,
            "dense {} vs sparse {}",
            rd.counters.dram_read_bytes,
            rs.counters.dram_read_bytes
        );
    }
}
