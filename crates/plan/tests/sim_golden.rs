//! Bit-identity gate for the simulator.
//!
//! Every registered SpMV engine, the Spaden SpMM engine and one
//! ABFT-checked Spaden run execute on five small inputs, on both GPU
//! presets, under four modes: clean, uniform fault injection, SimSan on,
//! and SimSan on with hazard injection. Each (GPU, mode) case folds every
//! output bit, every `KernelCounters` field, every error and every SimSan
//! report into one FNV-1a digest, and the digest must equal the pinned
//! value.
//!
//! The digests were computed once and pinned, so any change to the
//! simulator's host-side implementation must reproduce them exactly. Each
//! engine runs twice on one `Gpu`, so the second launch reuses whatever
//! per-`Gpu` state the executor keeps between launches. The same values
//! must hold with and without the `parallel` feature.

use spaden::{EngineError, SpadenEngine, SpadenSpmmEngine, SpmvEngine};
use spaden_gpusim::{FaultConfig, Gpu, GpuConfig, KernelCounters, SanConfig};
use spaden_plan::registry::{try_build_engine, ALL_ENGINES};
use spaden_sparse::dense::Dense;
use spaden_sparse::gen::{self, FillDist, Placement};
use spaden_sparse::{Coo, Csr, Fnv};

/// Pinned digests, one per (GPU, mode).
const GOLDEN: [(&str, &str, u64); 8] = [
    ("L40", "clean", 0x48760c4dce1693e3),
    ("L40", "faults", 0xe361b3f1e5ffd723),
    ("L40", "san", 0x0e6cb4dbc86ea1de),
    ("L40", "san+hazards", 0xcddfd05e7c155d56),
    ("V100", "clean", 0xafbe22b60b092247),
    ("V100", "faults", 0xd377ddf3d38e3113),
    ("V100", "san", 0xdfeb6bcc06d1ef82),
    ("V100", "san+hazards", 0x54272766faa1baac),
];

fn inputs() -> Vec<(Csr, Vec<f32>)> {
    let x_for = |n: usize, seed: u64| -> Vec<f32> {
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(2654435761).wrapping_add(seed * 977);
                (h % 256) as f32 / 64.0 - 2.0
            })
            .collect()
    };
    let overflow = gen::numerical_edge_corpus()
        .into_iter()
        .find(|c| c.name == "f16-overflow")
        .expect("edge corpus has an f16-overflow case");
    let mut out = vec![
        gen::random_uniform(96, 96, 1300, 5),
        l2_reuse(),
        gen::generate_blocked(
            120,
            80,
            Placement::Scattered,
            &FillDist::Uniform { lo: 1, hi: 12 },
            9,
        ),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, csr)| {
        let x = x_for(csr.ncols, i as u64);
        (csr, x)
    })
    .collect::<Vec<_>>();
    out.push(nan_collisions());
    out.push((overflow.matrix, overflow.x));
    out
}

/// Matrix values and `x` entries of ±NaN and ±inf, so products and sums
/// meet NaNs of both signs, infinities of both signs and `inf * 0`.
fn nan_collisions() -> (Csr, Vec<f32>) {
    let special = [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.5, -2.0, 0.25];
    let mut coo = Coo::new(40, 40);
    for r in 0..40u32 {
        for k in 0..6u32 {
            let c = (r * 7 + k * 5) % 40;
            coo.push(r, c, special[((r + k) % 7) as usize]);
        }
    }
    let x = (0..40).map(|i| [1.0, f32::NAN, -f32::NAN, f32::INFINITY, -0.0, 0.5][i % 6]).collect();
    (coo.to_csr(), x)
}

/// 16 rows that each read `x` at a 64-byte stride over the same 2,048
/// lines (256 KiB), so the reused set overflows a V100 L2 shard but fits
/// an L40 one: the two presets must give different hit counts.
fn l2_reuse() -> Csr {
    let mut coo = Coo::new(16, 1 << 16);
    for r in 0..16u32 {
        for k in 0..4096u32 {
            let v = ((r * 31 + k * 7) % 64) as f32 / 32.0 - 1.0;
            coo.push(r, k * 16 + r, v);
        }
    }
    coo.to_csr()
}

fn config(preset: &str, mode: &str) -> GpuConfig {
    let mut cfg = match preset {
        "L40" => GpuConfig::l40(),
        _ => GpuConfig::v100(),
    };
    match mode {
        "clean" => {}
        "faults" => cfg.faults = FaultConfig::uniform(7, 1e-2),
        "san" => cfg.san = SanConfig::on(),
        _ => {
            cfg.san = SanConfig::on();
            cfg.faults = FaultConfig::hazards(7, 1e-2);
        }
    }
    cfg
}

fn fold_counters(h: &mut Fnv, c: &KernelCounters) {
    // Destructured so a new counter field cannot be left out.
    let KernelCounters {
        sectors_read,
        sectors_written,
        l2_hits,
        dram_read_bytes,
        dram_write_bytes,
        load_insts,
        store_insts,
        cuda_ops,
        mma_m16n16k16,
        mma_m8n8k4,
        atomic_ops,
        smem_bytes,
        warps,
        faults_injected,
        faults_observed,
        san_reports,
    } = *c;
    for v in [
        sectors_read,
        sectors_written,
        l2_hits,
        dram_read_bytes,
        dram_write_bytes,
        load_insts,
        store_insts,
        cuda_ops,
        mma_m16n16k16,
        mma_m8n8k4,
        atomic_ops,
        smem_bytes,
        warps,
        faults_injected,
        faults_observed,
        san_reports,
    ] {
        h.u64(v);
    }
}

/// Folds every value's bits, except that all NaNs fold as one canonical
/// NaN: which sign and payload a NaN result carries when two NaN operands
/// meet is up to the compiler (it differs between the test and release
/// profiles of the same source), so only NaN-ness is pinned.
fn fold_values(h: &mut Fnv, vals: &[f32]) {
    h.u64(vals.len() as u64);
    for v in vals {
        h.u64(if v.is_nan() { 0x7fc0_0000 } else { v.to_bits() as u64 });
    }
}

fn fold_error(h: &mut Fnv, e: &EngineError) {
    h.bytes(e.to_string().as_bytes());
}

fn fold_reports(h: &mut Fnv, gpu: &Gpu) {
    let reports = gpu.take_san_reports();
    h.u64(reports.len() as u64);
    for r in &reports {
        h.bytes(r.to_string().as_bytes());
    }
}

/// Runs every case on one (GPU, mode) and returns its digest.
fn digest(preset: &str, mode: &str) -> u64 {
    let mut h = Fnv::new();
    for (csr, x) in inputs() {
        let gpu = Gpu::new(config(preset, mode));
        for kind in ALL_ENGINES {
            h.bytes(kind.name().as_bytes());
            match try_build_engine(kind, &gpu, &csr) {
                Ok(eng) => {
                    for _ in 0..2 {
                        match eng.try_run(&gpu, &x) {
                            Ok(r) => {
                                fold_values(&mut h, &r.y);
                                fold_counters(&mut h, &r.counters);
                            }
                            Err(e) => fold_error(&mut h, &e),
                        }
                    }
                }
                Err(e) => fold_error(&mut h, &e),
            }
            fold_reports(&mut h, &gpu);
        }

        let spmm = SpadenSpmmEngine::try_prepare(&gpu, &csr).expect("valid matrix builds");
        let b = Dense::from_fn(csr.ncols, 4, |r, c| x[r] * (c as f32 + 1.0));
        for _ in 0..2 {
            match spmm.try_run(&gpu, &b) {
                Ok(r) => {
                    fold_values(&mut h, &r.c.data);
                    fold_counters(&mut h, &r.counters);
                }
                Err(e) => fold_error(&mut h, &e),
            }
        }
        fold_reports(&mut h, &gpu);

        let spaden = SpadenEngine::try_prepare(&gpu, &csr).expect("valid matrix builds");
        match spaden.try_run_checked(&gpu, &x) {
            Ok(r) => {
                fold_values(&mut h, &r.y);
                fold_counters(&mut h, &r.counters);
            }
            Err(e) => fold_error(&mut h, &e),
        }
        fold_reports(&mut h, &gpu);
    }
    h.finish()
}

#[test]
fn simulator_outputs_counters_and_reports_match_the_pinned_digests() {
    let got: Vec<(&str, &str, u64)> =
        GOLDEN.iter().map(|&(gpu, mode, _)| (gpu, mode, digest(gpu, mode))).collect();
    let table: String = got
        .iter()
        .map(|(gpu, mode, d)| format!("    (\"{gpu}\", \"{mode}\", {d:#018x}),\n"))
        .collect();
    for (want, have) in GOLDEN.iter().zip(&got) {
        assert_eq!(
            want.2, have.2,
            "{} {}: simulator behaviour changed; digests now:\n{table}",
            want.0, want.1
        );
    }
}

#[test]
fn every_mode_exercises_what_it_names() {
    // Guards the gate itself: the fault mode must inject, the SimSan modes
    // must report, and the clean mode must do neither.
    let (csr, x) = inputs().pop().expect("edge case present");
    let observe = |mode: &str| {
        let gpu = Gpu::new(config("L40", mode));
        let eng = SpadenEngine::try_prepare(&gpu, &csr).expect("valid matrix builds");
        let mut injected = 0;
        for _ in 0..4 {
            injected += eng.try_run(&gpu, &x).map(|r| r.counters.faults_injected).unwrap_or(0);
        }
        (injected, gpu.take_san_reports().len())
    };
    assert_eq!(observe("clean"), (0, 0));
    assert!(observe("san").1 > 0, "f16 overflow must be reported");
    assert!(observe("san+hazards").0 > 0, "hazards must be injected");
    let big = gen::random_uniform(96, 96, 1300, 5);
    let xb = vec![1.0f32; 96];
    let gpu = Gpu::new(config("L40", "faults"));
    let eng = SpadenEngine::try_prepare(&gpu, &big).expect("valid matrix builds");
    let injected: u64 =
        (0..4).map(|_| eng.try_run(&gpu, &xb).expect("runs").counters.faults_injected).sum();
    assert!(injected > 0, "faults must be injected");

    let reuse = l2_reuse();
    let x = vec![1.0f32; reuse.ncols];
    let hits = |preset: &str| {
        let gpu = Gpu::new(config(preset, "clean"));
        let hits_of = |kind| {
            let eng = try_build_engine(kind, &gpu, &reuse).expect("valid matrix builds");
            eng.try_run(&gpu, &x).expect("runs").counters.l2_hits
        };
        ALL_ENGINES.map(hits_of)
    };
    let (v100, l40) = (hits("V100"), hits("L40"));
    assert!(v100.iter().zip(&l40).all(|(v, l)| v <= l), "{v100:?} vs {l40:?}");
    assert!(v100 != l40, "the reuse set must overflow a V100 shard for some engine");
}
