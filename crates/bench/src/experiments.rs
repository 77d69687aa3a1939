//! Experiment runners: one function per table/figure of the paper.
//!
//! Every runner verifies engine outputs against the `f64` CPU oracle while
//! measuring, so regenerating a figure is also an end-to-end correctness
//! check of the whole stack.

use crate::table::Table;
use crate::{geomean, make_x, max_rel_error};
use spaden::BitBsr;
use spaden_gpusim::{Gpu, GpuConfig};
use spaden_plan::EngineKind;
use spaden_sparse::datasets::Dataset;
use spaden_sparse::stats::block_profile;

/// Result of one (engine, dataset) measurement.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Engine display name.
    pub engine: &'static str,
    /// Dataset name.
    pub dataset: &'static str,
    /// Whether the dataset meets the paper's selection criteria.
    pub in_scope: bool,
    /// Modelled GFLOP/s (2·nnz / time).
    pub gflops: f64,
    /// Modelled kernel seconds.
    pub seconds: f64,
    /// Bottleneck pipe name from the timing model.
    pub bottleneck: &'static str,
    /// Max relative error vs the f64 oracle.
    pub max_err: f64,
    /// Conversion time, ns per nonzero.
    pub prep_ns_per_nnz: f64,
    /// Device footprint, bytes per nonzero.
    pub prep_bytes_per_nnz: f64,
    /// Conversion wall time in seconds.
    pub prep_seconds: f64,
    /// Device footprint in bytes.
    pub prep_bytes: u64,
    /// Matrix nonzeros.
    pub nnz: usize,
    /// Sparse-block ratio of the matrix (Figure 9 x-axis).
    pub sparse_ratio: f64,
}

/// A full engines × datasets sweep on one GPU.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// GPU display name.
    pub gpu: &'static str,
    /// All measurements.
    pub cells: Vec<SweepCell>,
}

impl Sweep {
    /// The cell for (engine, dataset), if measured.
    pub fn get(&self, engine: &str, dataset: &str) -> Option<&SweepCell> {
        self.cells.iter().find(|c| c.engine == engine && c.dataset == dataset)
    }

    /// Dataset names in measurement order.
    pub fn datasets(&self) -> Vec<&'static str> {
        let mut seen = Vec::new();
        for c in &self.cells {
            if !seen.contains(&c.dataset) {
                seen.push(c.dataset);
            }
        }
        seen
    }

    /// Geometric-mean speedup of `engine_a` over `engine_b` across the
    /// in-scope datasets (the paper's headline numbers).
    pub fn geomean_speedup(&self, engine_a: &str, engine_b: &str) -> f64 {
        let ratios: Vec<f64> = self
            .datasets()
            .into_iter()
            .filter_map(|d| {
                let a = self.get(engine_a, d)?;
                let b = self.get(engine_b, d)?;
                a.in_scope.then_some(b.seconds / a.seconds)
            })
            .collect();
        geomean(ratios)
    }
}

/// Runs `kinds` × `datasets` on a GPU configuration, verifying every
/// output against the CPU oracle. A cell whose engine fails to prepare or
/// run is reported to stderr with its typed [`spaden::EngineError`] and
/// skipped, so one bad matrix cannot unwind the whole sweep.
pub fn run_sweep(config: GpuConfig, datasets: &[Dataset], kinds: &[EngineKind]) -> Sweep {
    let gpu_name = config.name;
    let mut cells = Vec::with_capacity(datasets.len() * kinds.len());
    for ds in datasets {
        let gpu = Gpu::new(config.clone());
        let x = make_x(ds.csr.ncols);
        let oracle = ds.csr.spmv_f64(&x).expect("oracle SpMV");
        let profile = block_profile(&ds.csr);
        for &kind in kinds {
            let engine = match spaden_plan::try_build_engine(kind, &gpu, &ds.csr) {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("sweep: {} on {}: prepare failed: {e}", kind.name(), ds.spec.name);
                    continue;
                }
            };
            let run = match engine.try_run(&gpu, &x) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("sweep: {} on {}: run failed: {e}", kind.name(), ds.spec.name);
                    continue;
                }
            };
            let prep = engine.prep();
            cells.push(SweepCell {
                engine: kind.name(),
                dataset: ds.spec.name,
                in_scope: ds.spec.in_scope,
                gflops: run.gflops(engine.nnz()),
                seconds: run.time.seconds,
                bottleneck: run.time.bottleneck(),
                max_err: max_rel_error(&run.y, &oracle),
                prep_ns_per_nnz: prep.ns_per_nnz(engine.nnz()),
                prep_bytes_per_nnz: prep.bytes_per_nnz(engine.nnz()),
                prep_seconds: prep.seconds,
                prep_bytes: prep.device_bytes,
                nnz: engine.nnz(),
                sparse_ratio: profile.sparse_ratio(),
            });
        }
    }
    Sweep { gpu: gpu_name, cells }
}

/// Table 1: dataset statistics, generated vs paper-reported.
pub fn table1(datasets: &[Dataset]) -> Table {
    let mut t = Table::new(
        "Table 1: matrix dataset information (generated vs paper)",
        &["Matrix", "nrow", "nnz", "Bnrow", "Bnnz", "paper nnz", "paper Bnnz", "scale"],
    );
    for ds in datasets {
        let b = BitBsr::from_csr(&ds.csr);
        t.push_row(vec![
            ds.spec.name.into(),
            ds.csr.nrows.to_string(),
            ds.csr.nnz().to_string(),
            b.block_rows.to_string(),
            b.bnnz().to_string(),
            ds.spec.nnz.to_string(),
            ds.spec.bnnz.to_string(),
            format!("{:.3}", ds.scale),
        ]);
    }
    t
}

/// Figure 6: GFLOPS of every method on every matrix (one GPU).
pub fn fig6(sweep: &Sweep) -> Table {
    let engines: Vec<&str> = dedup_engines(sweep);
    let mut headers: Vec<&str> = vec!["Matrix"];
    headers.extend(engines.iter().copied());
    let mut t = Table::new(
        format!("Figure 6: SpMV throughput in GFLOPS ({})", sweep.gpu),
        &headers,
    );
    for d in sweep.datasets() {
        let mut row = vec![d.to_string()];
        for e in &engines {
            row.push(sweep.get(e, d).map_or("-".into(), |c| Table::num(c.gflops)));
        }
        t.push_row(row);
    }
    t
}

/// Figure 7: speedup over cuSPARSE CSR per matrix, plus the geometric-mean
/// summary row over the 12 in-scope matrices (the §5.2 headline).
pub fn fig7(sweep: &Sweep) -> Table {
    let engines: Vec<&str> =
        dedup_engines(sweep).into_iter().filter(|e| *e != "cuSPARSE CSR").collect();
    let mut headers: Vec<&str> = vec!["Matrix"];
    headers.extend(engines.iter().copied());
    let mut t = Table::new(
        format!("Figure 7: speedup over cuSPARSE CSR ({})", sweep.gpu),
        &headers,
    );
    for d in sweep.datasets() {
        let base = match sweep.get("cuSPARSE CSR", d) {
            Some(b) => b.seconds,
            None => continue,
        };
        let mut row = vec![d.to_string()];
        for e in &engines {
            row.push(sweep.get(e, d).map_or("-".into(), |c| Table::num(base / c.seconds)));
        }
        t.push_row(row);
    }
    let mut summary = vec!["geomean (in-scope)".to_string()];
    for e in &engines {
        summary.push(Table::num(sweep.geomean_speedup(e, "cuSPARSE CSR")));
    }
    t.push_row(summary);
    t
}

/// Figure 8: speedup breakdown of Spaden over its ablations (L40 in the
/// paper). Columns are Spaden's speedup over each variant.
pub fn fig8(sweep: &Sweep) -> Table {
    let variants = ["Spaden w/o TC", "cuSPARSE BSR", "CSR Warp16"];
    let mut t = Table::new(
        format!("Figure 8: Spaden speedup breakdown ({})", sweep.gpu),
        &["Matrix", "over w/o TC", "over cuSPARSE BSR", "over CSR Warp16"],
    );
    for d in sweep.datasets() {
        let spaden = match sweep.get("Spaden", d) {
            Some(s) => s.seconds,
            None => continue,
        };
        let mut row = vec![d.to_string()];
        for v in variants {
            row.push(sweep.get(v, d).map_or("-".into(), |c| Table::num(c.seconds / spaden)));
        }
        t.push_row(row);
    }
    let mut summary = vec!["geomean (in-scope)".to_string()];
    for v in variants {
        summary.push(Table::num(sweep.geomean_speedup("Spaden", v)));
    }
    t.push_row(summary);
    t
}

/// Figure 9a: sparse/medium/dense block ratios per matrix.
pub fn fig9a(datasets: &[Dataset]) -> Table {
    let mut t = Table::new(
        "Figure 9a: block-type ratio per matrix (8x8 blocks)",
        &["Matrix", "sparse", "medium", "dense", "Bnnz", "mean fill"],
    );
    for ds in datasets {
        let p = block_profile(&ds.csr);
        t.push_row(vec![
            ds.spec.name.into(),
            Table::num(p.sparse_ratio()),
            Table::num(p.medium_ratio()),
            Table::num(p.dense_ratio()),
            p.total().to_string(),
            Table::num(p.mean_fill()),
        ]);
    }
    t
}

/// Figure 9b: matrices sorted by sparse-block ratio against Spaden's
/// speedup over cuSPARSE BSR — the §5.4 correlation.
pub fn fig9b(sweep: &Sweep) -> Table {
    let mut rows: Vec<(&str, f64, f64)> = sweep
        .datasets()
        .into_iter()
        .filter_map(|d| {
            let s = sweep.get("Spaden", d)?;
            let b = sweep.get("cuSPARSE BSR", d)?;
            s.in_scope.then_some((d, s.sparse_ratio, b.seconds / s.seconds))
        })
        .collect();
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite ratios"));
    let mut t = Table::new(
        format!("Figure 9b: sparse-block ratio vs Spaden speedup over BSR ({})", sweep.gpu),
        &["Matrix", "sparse ratio", "speedup over BSR"],
    );
    for (d, ratio, speedup) in rows {
        t.push_row(vec![d.to_string(), Table::num(ratio), Table::num(speedup)]);
    }
    t
}

/// Figure 10a: preprocessing time, absolute and per nonzero.
pub fn fig10a(sweep: &Sweep) -> Table {
    let engines = ["cuSPARSE CSR", "cuSPARSE BSR", "Spaden", "DASP"];
    let mut t = Table::new(
        "Figure 10a: preprocessing time (host conversion)",
        &["Matrix", "CSR ms", "BSR ms", "Spaden ms", "DASP ms", "CSR ns/nnz", "BSR ns/nnz", "Spaden ns/nnz", "DASP ns/nnz"],
    );
    for d in sweep.datasets() {
        let mut row = vec![d.to_string()];
        for e in engines {
            row.push(sweep.get(e, d).map_or("-".into(), |c| Table::num(c.prep_seconds * 1e3)));
        }
        for e in engines {
            row.push(sweep.get(e, d).map_or("-".into(), |c| Table::num(c.prep_ns_per_nnz)));
        }
        t.push_row(row);
    }
    let mut summary = vec!["mean ns/nnz (in-scope)".to_string(), "".into(), "".into(), "".into(), "".into()];
    for e in engines {
        summary.push(Table::num(mean_in_scope(sweep, e, |c| c.prep_ns_per_nnz)));
    }
    t.push_row(summary);
    t
}

/// Figure 10b: device memory, absolute and per nonzero.
pub fn fig10b(sweep: &Sweep) -> Table {
    let engines = ["cuSPARSE CSR", "cuSPARSE BSR", "Spaden", "DASP"];
    let mut t = Table::new(
        "Figure 10b: device memory footprint",
        &["Matrix", "CSR MB", "BSR MB", "Spaden MB", "DASP MB", "CSR B/nnz", "BSR B/nnz", "Spaden B/nnz", "DASP B/nnz"],
    );
    for d in sweep.datasets() {
        let mut row = vec![d.to_string()];
        for e in engines {
            row.push(
                sweep
                    .get(e, d)
                    .map_or("-".into(), |c| Table::num(c.prep_bytes as f64 / (1 << 20) as f64)),
            );
        }
        for e in engines {
            row.push(sweep.get(e, d).map_or("-".into(), |c| Table::num(c.prep_bytes_per_nnz)));
        }
        t.push_row(row);
    }
    let mut summary =
        vec!["mean B/nnz (in-scope)".to_string(), "".into(), "".into(), "".into(), "".into()];
    for e in engines {
        summary.push(Table::num(mean_in_scope(sweep, e, |c| c.prep_bytes_per_nnz)));
    }
    t.push_row(summary);
    t
}

/// Ablation study for the design choices of §4.2/§4.3: block size, value
/// precision, fragment packing and fragment I/O path.
pub fn ablations(config: GpuConfig, datasets: &[Dataset]) -> Vec<Table> {
    use spaden::bitbsr::analyze_block_size;
    use spaden::{FragmentIo, Packing, SpadenConfig, SpadenEngine, SpmvEngine};

    let mut size_t = Table::new(
        "Ablation: bitmap block size (format bytes per nnz; paper picks 8x8/u64)",
        &["Matrix", "4x4 (u16)", "8x8 (u64)", "16x16 (4xu64)", "blocks 4", "blocks 8", "blocks 16"],
    );
    let mut prec_t = Table::new(
        "Ablation: value precision in bitBSR (bytes per nnz)",
        &["Matrix", "f16 values", "f32 values", "saving"],
    );
    let mut pack_t = Table::new(
        format!("Ablation: fragment packing ({}; modelled kernel time)", config.name),
        &["Matrix", "diagonal us", "single us", "diagonal speedup", "MMAs diag", "MMAs single"],
    );
    let mut io_t = Table::new(
        format!("Ablation: fragment I/O path ({}; modelled kernel time)", config.name),
        &["Matrix", "direct us", "smem-staged us", "direct speedup"],
    );

    for ds in datasets {
        let nnz = ds.csr.nnz();
        let a4 = analyze_block_size(&ds.csr, 4);
        let a8 = analyze_block_size(&ds.csr, 8);
        let a16 = analyze_block_size(&ds.csr, 16);
        size_t.push_row(vec![
            ds.spec.name.into(),
            Table::num(a4.bytes_per_nnz(nnz)),
            Table::num(a8.bytes_per_nnz(nnz)),
            Table::num(a16.bytes_per_nnz(nnz)),
            a4.blocks.to_string(),
            a8.blocks.to_string(),
            a16.blocks.to_string(),
        ]);

        // f32 values would add 2 bytes per nonzero to the same structure.
        let f16_bpn = a8.bytes_per_nnz(nnz);
        let f32_bpn = (a8.total_bytes + 2 * nnz) as f64 / nnz as f64;
        prec_t.push_row(vec![
            ds.spec.name.into(),
            Table::num(f16_bpn),
            Table::num(f32_bpn),
            format!("{:.2}x", f32_bpn / f16_bpn),
        ]);

        let gpu = Gpu::new(config.clone());
        let x = make_x(ds.csr.ncols);
        let variants = (|| -> Result<_, spaden::EngineError> {
            let diag = SpadenEngine::try_prepare(&gpu, &ds.csr)?;
            let single = SpadenEngine::try_prepare_with(
                &gpu,
                &ds.csr,
                SpadenConfig { packing: Packing::Single, ..Default::default() },
            )?;
            let staged = SpadenEngine::try_prepare_with(
                &gpu,
                &ds.csr,
                SpadenConfig { fragment_io: FragmentIo::SharedMemoryStaged, ..Default::default() },
            )?;
            let rd = diag.try_run(&gpu, &x)?;
            let rs = single.try_run(&gpu, &x)?;
            let rt = staged.try_run(&gpu, &x)?;
            Ok((rd, rs, rt))
        })();
        let (rd, rs, rt) = match variants {
            Ok(v) => v,
            Err(e) => {
                eprintln!("ablations: {}: {e}", ds.spec.name);
                continue;
            }
        };
        pack_t.push_row(vec![
            ds.spec.name.into(),
            Table::num(rd.time.seconds * 1e6),
            Table::num(rs.time.seconds * 1e6),
            format!("{:.2}x", rs.time.seconds / rd.time.seconds),
            rd.counters.mma_m16n16k16.to_string(),
            rs.counters.mma_m16n16k16.to_string(),
        ]);
        io_t.push_row(vec![
            ds.spec.name.into(),
            Table::num(rd.time.seconds * 1e6),
            Table::num(rt.time.seconds * 1e6),
            format!("{:.2}x", rt.time.seconds / rd.time.seconds),
        ]);
    }
    vec![size_t, prec_t, pack_t, io_t]
}

/// Extension study (the paper's §7 future work, implemented): SpMM and
/// SDDMM on bitBSR tensor cores, and the bitCOO variant of the format.
pub fn extensions(config: GpuConfig, datasets: &[Dataset]) -> Vec<Table> {
    use spaden::{BitCooEngine, CsrSpmmEngine, SpadenEngine, SpadenSddmmEngine, SpadenSpmmEngine, SpmvEngine};
    use spaden_sparse::dense::Dense;

    let mut spmm_t = Table::new(
        format!("Extension: SpMM C = A x B_dense ({}; n = 8 and 32)", config.name),
        &["Matrix", "Spaden n=8", "CSR n=8", "Spaden n=32", "CSR n=32", "SpMV GFLOPS"],
    );
    let mut sddmm_t = Table::new(
        format!("Extension: SDDMM pattern ⊙ (X·Yᵀ) ({}; k = 32)", config.name),
        &["Matrix", "GFLOPS", "time us", "MMAs", "bottleneck"],
    );
    let mut bitcoo_t = Table::new(
        format!("Extension: bitCOO vs bitBSR SpMV ({})", config.name),
        &["Matrix", "bitBSR us", "bitCOO us", "bitBSR B/nnz", "bitCOO B/nnz", "atomics"],
    );

    for ds in datasets {
        let gpu = Gpu::new(config.clone());
        let nnz = ds.csr.nnz();
        let n_nodes = ds.csr.ncols;

        // SpMM at two widths.
        let spmm = SpadenSpmmEngine::prepare(&gpu, &ds.csr);
        let csr_spmm = CsrSpmmEngine::prepare(&gpu, &ds.csr);
        let mut row = vec![ds.spec.name.to_string()];
        for n in [8usize, 32] {
            let b = Dense::from_fn(n_nodes, n, |r, c| ((r + 3 * c) % 9) as f32 * 0.25 - 1.0);
            let rs = spmm.run(&gpu, &b);
            let rc = csr_spmm.run(&gpu, &b);
            row.push(Table::num(rs.gflops(nnz, n)));
            row.push(Table::num(rc.gflops(nnz, n)));
        }
        let spmv = SpadenEngine::prepare(&gpu, &ds.csr);
        let x = crate::make_x(n_nodes);
        row.push(Table::num(spmv.run(&gpu, &x).gflops(nnz)));
        spmm_t.push_row(row);

        // SDDMM.
        let k = 32usize;
        let xm = Dense::from_fn(ds.csr.nrows, k, |r, c| ((r * 5 + c) % 7) as f32 * 0.25 - 0.75);
        let ym = Dense::from_fn(ds.csr.ncols, k, |r, c| ((r + 2 * c) % 5) as f32 * 0.5 - 1.0);
        let sddmm = SpadenSddmmEngine::prepare(&gpu, &ds.csr);
        let rs = sddmm.run(&gpu, &xm, &ym);
        sddmm_t.push_row(vec![
            ds.spec.name.into(),
            Table::num(rs.gflops(nnz, k)),
            Table::num(rs.time.seconds * 1e6),
            rs.counters.mma_m16n16k16.to_string(),
            rs.time.bottleneck().to_string(),
        ]);

        // bitCOO.
        let coo_eng = BitCooEngine::prepare(&gpu, &ds.csr);
        let rc = coo_eng.run(&gpu, &x);
        let rb = spmv.run(&gpu, &x);
        bitcoo_t.push_row(vec![
            ds.spec.name.into(),
            Table::num(rb.time.seconds * 1e6),
            Table::num(rc.time.seconds * 1e6),
            Table::num(spmv.prep().bytes_per_nnz(nnz)),
            Table::num(coo_eng.prep().bytes_per_nnz(nnz)),
            rc.counters.atomic_ops.to_string(),
        ]);
    }
    vec![spmm_t, sddmm_t, bitcoo_t]
}

/// Reordering study (§6 related work, applied to bitBSR): how much a
/// symmetric RCM permutation recovers when a matrix arrives badly ordered
/// — block count, block fill, and Spaden throughput before/after.
pub fn reordering(config: GpuConfig, datasets: &[Dataset]) -> Table {
    use spaden::{SpadenEngine, SpmvEngine};
    use spaden_sparse::reorder::{permute_symmetric, rcm_order};
    use spaden_sparse::rng::Pcg64;

    let mut t = Table::new(
        format!(
            "Reordering: scrambled vs RCM-restored bitBSR and Spaden throughput ({})",
            config.name
        ),
        &[
            "Matrix",
            "Bnnz scrambled",
            "Bnnz RCM",
            "fill scrambled",
            "fill RCM",
            "GFLOPS scrambled",
            "GFLOPS RCM",
            "speedup",
        ],
    );
    for ds in datasets {
        if ds.csr.nrows != ds.csr.ncols {
            continue;
        }
        // Scramble with a random relabeling (real matrices arrive with
        // whatever ordering the application produced).
        let mut perm: Vec<u32> = (0..ds.csr.nrows as u32).collect();
        let mut rng = Pcg64::for_dataset(ds.spec.name, 0xbad);
        rng.shuffle(&mut perm);
        let scrambled = permute_symmetric(&ds.csr, &perm);
        let restored = permute_symmetric(&scrambled, &rcm_order(&scrambled));

        let gpu = Gpu::new(config.clone());
        let x = make_x(ds.csr.ncols);
        let pair = (|| -> Result<_, spaden::EngineError> {
            let e1 = SpadenEngine::try_prepare(&gpu, &scrambled)?;
            let e2 = SpadenEngine::try_prepare(&gpu, &restored)?;
            let r1 = e1.try_run(&gpu, &x)?;
            let r2 = e2.try_run(&gpu, &x)?;
            Ok((e1, e2, r1, r2))
        })();
        let (e1, e2, r1, r2) = match pair {
            Ok(v) => v,
            Err(e) => {
                eprintln!("reordering: {}: {e}", ds.spec.name);
                continue;
            }
        };
        let p1 = e1.format().block_profile();
        let p2 = e2.format().block_profile();
        t.push_row(vec![
            ds.spec.name.into(),
            p1.total().to_string(),
            p2.total().to_string(),
            Table::num(p1.mean_fill()),
            Table::num(p2.mean_fill()),
            Table::num(r1.gflops(e1.nnz())),
            Table::num(r2.gflops(e2.nnz())),
            format!("{:.2}x", r1.time.seconds / r2.time.seconds),
        ]);
    }
    t
}

/// Aggregate outcome of a fault-injection sweep cell (or whole sweep).
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultStats {
    /// Plain (unchecked) runs executed.
    pub runs: usize,
    /// Plain runs with at least one injected fault.
    pub faulted: usize,
    /// Plain runs whose output left the f16 equivalence tolerance.
    pub corrupted: usize,
    /// Corrupted runs that ABFT verification flagged.
    pub detected: usize,
    /// Checked runs attempted.
    pub checked: usize,
    /// Checked runs that returned a verified, in-tolerance result.
    pub corrected: usize,
    /// Checked runs that gave up with a typed error (honest degradation).
    pub exhausted: usize,
    /// Checked runs that returned `Ok` with an out-of-tolerance result —
    /// silent corruption through the checked path. Must be zero.
    pub wrong: usize,
}

impl FaultStats {
    fn add(&mut self, o: &FaultStats) {
        self.runs += o.runs;
        self.faulted += o.faulted;
        self.corrupted += o.corrupted;
        self.detected += o.detected;
        self.checked += o.checked;
        self.corrected += o.corrected;
        self.exhausted += o.exhausted;
        self.wrong += o.wrong;
    }
}

/// True if any row of `y` leaves the f16 equivalence tolerance used by the
/// repo's equivalence suite (scaled by row nnz and magnitude).
fn out_of_tolerance(y: &[f32], want: &[f32], row_nnz: &[usize]) -> bool {
    let base = 2.0f32.powi(-10) * 3.0;
    y.iter().zip(want).zip(row_nnz).any(|((a, w), &nnz)| {
        let tol = (base * nnz.max(1) as f32 + 1e-4) * w.abs().max(1.0);
        (a - w).abs() > tol
    })
}

/// Robustness study: fault-injection sweep over the ABFT-checked Spaden
/// engine.
///
/// For each (dataset, rate) cell, `trials` independent launches take three
/// measurements on a GPU with uniform per-kind fault rates: a plain
/// (unchecked) run compared against the bitBSR reference to find output
/// corruption, an ABFT verification of that same output (detection), and a
/// full checked run exercising the detect-and-recompute ladder
/// (correction). `silent` counts corrupted-but-undetected runs and
/// `wrong` counts checked runs that returned `Ok` while out of tolerance —
/// the two quantities ABFT must hold at zero. `exhausted` counts checked
/// runs that gave up with a typed error instead (expected at fault rates
/// high enough that the scalar recompute path itself keeps faulting).
pub fn fault_sweep(
    config: GpuConfig,
    datasets: &[Dataset],
    rates: &[f64],
    trials: usize,
    seed: u64,
) -> (Table, FaultStats) {
    use spaden::{SpadenEngine, SpmvEngine};
    use spaden_gpusim::FaultConfig;

    let mut t = Table::new(
        format!("Robustness: injected faults vs ABFT detection/correction ({})", config.name),
        &[
            "Matrix",
            "rate",
            "runs",
            "faulted",
            "corrupted",
            "detected",
            "silent",
            "corrected",
            "exhausted",
            "wrong",
        ],
    );
    let mut total = FaultStats::default();
    for (di, ds) in datasets.iter().enumerate() {
        let x = make_x(ds.csr.ncols);
        let row_nnz: Vec<usize> = (0..ds.csr.nrows).map(|r| ds.csr.row_nnz(r)).collect();
        for (ri, &rate) in rates.iter().enumerate() {
            let mut cfg = config.clone();
            cfg.faults = FaultConfig::uniform(seed + (di * 16 + ri) as u64, rate);
            let gpu = Gpu::new(cfg);
            let eng = match SpadenEngine::try_prepare(&gpu, &ds.csr) {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("faults: {}: prepare failed: {e}", ds.spec.name);
                    continue;
                }
            };
            let want = eng.format().spmv_reference(&x).expect("reference SpMV");
            let mut cell = FaultStats::default();
            for _ in 0..trials {
                let plain = match eng.try_run(&gpu, &x) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("faults: {}: run failed: {e}", ds.spec.name);
                        continue;
                    }
                };
                cell.runs += 1;
                if plain.counters.faults_injected > 0 {
                    cell.faulted += 1;
                }
                let flagged = !eng.abft().verify(&x, &plain.y).is_empty();
                if out_of_tolerance(&plain.y, &want, &row_nnz) {
                    cell.corrupted += 1;
                    if flagged {
                        cell.detected += 1;
                    }
                }
                cell.checked += 1;
                match eng.try_run_checked(&gpu, &x) {
                    Ok(run) if !out_of_tolerance(&run.y, &want, &row_nnz) => cell.corrected += 1,
                    Ok(_) => cell.wrong += 1,
                    Err(_) => cell.exhausted += 1,
                }
            }
            t.push_row(vec![
                ds.spec.name.into(),
                format!("{rate:.0e}"),
                cell.runs.to_string(),
                cell.faulted.to_string(),
                cell.corrupted.to_string(),
                cell.detected.to_string(),
                (cell.corrupted - cell.detected).to_string(),
                cell.corrected.to_string(),
                cell.exhausted.to_string(),
                cell.wrong.to_string(),
            ]);
            total.add(&cell);
        }
    }
    t.push_row(vec![
        "TOTAL".into(),
        "".into(),
        total.runs.to_string(),
        total.faulted.to_string(),
        total.corrupted.to_string(),
        total.detected.to_string(),
        (total.corrupted - total.detected).to_string(),
        total.corrected.to_string(),
        total.exhausted.to_string(),
        total.wrong.to_string(),
    ]);
    (t, total)
}

/// Verification report: max relative error of each engine across datasets.
pub fn verification(sweep: &Sweep) -> Table {
    let engines = dedup_engines(sweep);
    let mut t = Table::new(
        format!("Verification: max relative error vs f64 oracle ({})", sweep.gpu),
        &["Engine", "max error", "datasets"],
    );
    for e in engines {
        let errs: Vec<f64> =
            sweep.cells.iter().filter(|c| c.engine == e).map(|c| c.max_err).collect();
        let max = errs.iter().copied().fold(0.0, f64::max);
        t.push_row(vec![e.to_string(), format!("{max:.2e}"), errs.len().to_string()]);
    }
    t
}

fn dedup_engines(sweep: &Sweep) -> Vec<&'static str> {
    let mut seen = Vec::new();
    for c in &sweep.cells {
        if !seen.contains(&c.engine) {
            seen.push(c.engine);
        }
    }
    seen
}

fn mean_in_scope(sweep: &Sweep, engine: &str, f: impl Fn(&SweepCell) -> f64) -> f64 {
    let vals: Vec<f64> = sweep
        .cells
        .iter()
        .filter(|c| c.engine == engine && c.in_scope)
        .map(&f)
        .collect();
    if vals.is_empty() {
        f64::NAN
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spaden_plan::FIG6_ENGINES;
    use crate::load_datasets;

    fn tiny_sweep() -> Sweep {
        let datasets: Vec<Dataset> =
            spaden_sparse::datasets::ALL_DATASETS[..2].iter().map(|d| d.generate(0.01)).collect();
        run_sweep(GpuConfig::l40(), &datasets, &FIG6_ENGINES)
    }

    #[test]
    fn sweep_measures_every_cell_and_verifies() {
        let s = tiny_sweep();
        assert_eq!(s.cells.len(), 2 * FIG6_ENGINES.len());
        for c in &s.cells {
            assert!(c.gflops > 0.0, "{}/{}", c.engine, c.dataset);
            assert!(c.max_err < 0.05, "{}/{}: err {}", c.engine, c.dataset, c.max_err);
        }
    }

    #[test]
    fn figure_tables_render() {
        let s = tiny_sweep();
        for t in [fig6(&s), fig7(&s), fig9b(&s), fig10a(&s), fig10b(&s)] {
            let out = t.to_string();
            assert!(out.contains("raefsky3"), "{out}");
        }
        assert!(verification(&s).to_string().contains("Spaden"));
    }

    #[test]
    fn table1_and_fig9a_render() {
        let datasets = load_datasets(0.01, true);
        let t1 = table1(&datasets[..3]);
        assert!(t1.to_string().contains("raefsky3"));
        let t9 = fig9a(&datasets[..3]);
        assert!(t9.to_string().contains("conf5"));
    }

    #[test]
    fn fault_sweep_has_no_silent_corruption_and_corrects() {
        let datasets: Vec<Dataset> =
            spaden_sparse::datasets::ALL_DATASETS[..2].iter().map(|d| d.generate(0.01)).collect();
        let (t, s) = fault_sweep(GpuConfig::l40(), &datasets, &[1e-4, 1e-3], 4, 0xFA);
        assert_eq!(s.runs, 2 * 2 * 4);
        assert!(s.faulted > 0, "rates up to 1e-3 must inject something");
        assert_eq!(s.detected, s.corrupted, "silent corruption");
        assert_eq!(s.wrong, 0, "checked path must never return corrupt Ok");
        assert_eq!(
            s.corrected,
            s.checked,
            "correction must converge at sparse fault rates"
        );
        assert!(t.to_string().contains("TOTAL"));
    }

    #[test]
    fn geomean_speedup_is_symmetric_inverse() {
        let s = tiny_sweep();
        let ab = s.geomean_speedup("Spaden", "cuSPARSE CSR");
        let ba = s.geomean_speedup("cuSPARSE CSR", "Spaden");
        assert!((ab * ba - 1.0).abs() < 1e-9);
    }
}
