//! Bit-identity gate for launches large enough to run on the shard pool.
//!
//! `sim_golden`'s inputs are small, so their launches run inline on the
//! calling thread. Here one 2,048-row scale-free matrix gives every
//! registered engine a launch of at least `POOLED_MIN_WARPS` warps, so its
//! shards run on the pool, and the atomic engines (LightSpMV, Gunrock,
//! merge-path CSR, bitCOO) replay their per-shard atomic logs at merge.
//! Each mode folds every output bit, every counter, every error and every
//! SimSan report into one FNV-1a digest. The digests were computed on the
//! single-threaded simulator, in which every atomic landed in warp order,
//! so they pin that the pool and the log change scheduling only.

use spaden::{SpadenEngine, SpadenSpmmEngine};
use spaden_gpusim::exec::POOLED_MIN_WARPS;
use spaden_gpusim::{FaultConfig, Gpu, GpuConfig, SanConfig};
use spaden_plan::registry::{try_build_engine, ALL_ENGINES};
use spaden_sparse::dense::Dense;
use spaden_sparse::{gen, Csr, Fnv};

/// Pinned digests, one per mode, on L40. The matrix is violation-free,
/// so SimSan alone reports nothing and "san" equals "clean".
const GOLDEN: [(&str, u64); 4] = [
    ("clean", 0xc626cf2b6799563d),
    ("faults", 0xb14b8073813200f8),
    ("san", 0xc626cf2b6799563d),
    ("san+hazards", 0x17468d6b22009572),
];

fn input() -> (Csr, Vec<f32>) {
    let csr = gen::scale_free(2048, 24_000, 1.15, 11);
    let x = (0..csr.ncols).map(|i| ((i * 37 % 101) as f32 - 50.0) / 16.0).collect();
    (csr, x)
}

fn config(mode: &str) -> GpuConfig {
    let mut cfg = GpuConfig::l40();
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

/// Folds every value's bits, with all NaNs folded as one (see
/// `sim_golden`), then the counters' every field through `Debug`.
fn fold_run(h: &mut Fnv, vals: &[f32], counters: &impl std::fmt::Debug) {
    h.u64(vals.len() as u64);
    for v in vals {
        h.u64(if v.is_nan() { 0x7fc0_0000 } else { v.to_bits() as u64 });
    }
    h.bytes(format!("{counters:?}").as_bytes());
}

fn fold_reports(h: &mut Fnv, gpu: &Gpu) {
    let reports = gpu.take_san_reports();
    h.u64(reports.len() as u64);
    for r in &reports {
        h.bytes(r.to_string().as_bytes());
    }
}

fn digest(mode: &str) -> u64 {
    let (csr, x) = input();
    let gpu = Gpu::new(config(mode));
    let mut h = Fnv::new();
    for kind in ALL_ENGINES {
        h.bytes(kind.name().as_bytes());
        let eng = try_build_engine(kind, &gpu, &csr).expect("valid matrix builds");
        for _ in 0..2 {
            match eng.try_run(&gpu, &x) {
                Ok(r) => fold_run(&mut h, &r.y, &r.counters),
                Err(e) => h.bytes(e.to_string().as_bytes()),
            }
        }
        fold_reports(&mut h, &gpu);
    }
    let spmm = SpadenSpmmEngine::try_prepare(&gpu, &csr).expect("valid matrix builds");
    let b = Dense::from_fn(csr.ncols, 4, |r, c| x[r] * (c as f32 + 1.0));
    match spmm.try_run(&gpu, &b) {
        Ok(r) => fold_run(&mut h, &r.c.data, &r.counters),
        Err(e) => h.bytes(e.to_string().as_bytes()),
    }
    let spaden = SpadenEngine::try_prepare(&gpu, &csr).expect("valid matrix builds");
    match spaden.try_run_checked(&gpu, &x) {
        Ok(r) => fold_run(&mut h, &r.y, &r.counters),
        Err(e) => h.bytes(e.to_string().as_bytes()),
    }
    fold_reports(&mut h, &gpu);
    h.finish()
}

#[test]
fn pooled_launches_match_the_single_threaded_digests() {
    let got: Vec<(&str, u64)> = GOLDEN.iter().map(|&(mode, _)| (mode, digest(mode))).collect();
    let table: String =
        got.iter().map(|(mode, d)| format!("    (\"{mode}\", {d:#018x}),\n")).collect();
    for (want, have) in GOLDEN.iter().zip(&got) {
        assert_eq!(want.1, have.1, "{}: pooled behaviour changed; digests now:\n{table}", want.0);
    }
}

#[test]
fn every_engine_launch_reaches_the_pool() {
    // Guards the gate itself: an engine whose launch ran inline here
    // would leave the pool and the atomic log unchecked for it.
    let (csr, x) = input();
    let gpu = Gpu::new(GpuConfig::l40());
    for kind in ALL_ENGINES {
        let eng = try_build_engine(kind, &gpu, &csr).expect("valid matrix builds");
        let warps = eng.try_run(&gpu, &x).expect("runs").counters.warps;
        assert!(warps >= POOLED_MIN_WARPS as u64, "{}: {warps} warps", kind.name());
    }
}
