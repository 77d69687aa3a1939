//! # spaden-bench
//!
//! Experiment harness regenerating every table and figure of the Spaden
//! paper's evaluation (§5). The `repro` binary drives it:
//!
//! ```text
//! cargo run --release -p spaden-bench --bin repro -- all --scale 0.05
//! cargo run --release -p spaden-bench --bin repro -- fig6 --gpu v100
//! cargo run --release -p spaden-bench --bin repro -- table1 --scale 1.0
//! ```
//!
//! Every experiment verifies each engine's output against an `f64` CPU
//! oracle while measuring, so a table is also an end-to-end correctness
//! run.

pub mod batching;
pub mod chaos_sweep;
pub mod evolve;
pub mod experiments;
pub mod harness;
pub mod planning;
pub mod recover;
pub mod sanitize;
pub mod serving;
pub mod sharding;
pub mod table;
pub mod traffic;
pub mod verdict;

pub use batching::{batch_report, run_batch_bench, BatchBenchConfig, BatchPoint, BatchReport};
pub use chaos_sweep::chaos_report;
pub use evolve::{evolve_report, run_evolve, EvolveReport, EvolveScenario};
pub use experiments::*;
pub use harness::BenchGroup;
pub use planning::{plan_corpus, plan_report, PlanReport};
pub use recover::{recover_report, recover_report_json, run_recover, RecoverReport, RecoverScenario};
pub use spaden_plan::{build_engine, EngineKind, FIG6_ENGINES, FIG8_ENGINES};
pub use sanitize::{sanitize_report, SanitizeReport};
pub use serving::{burst_schedule, serve_report, TC_ONLY_RATES, UNIFORM_RATES};
pub use sharding::{device_schedules, shard_report};
pub use table::Table;
pub use traffic::traffic_report;
pub use verdict::Verdict;

use spaden_sparse::datasets::{Dataset, ALL_DATASETS};

/// Deterministic input vector: bounded, irregular, sign-mixed — enough to
/// catch indexing bugs while keeping f16 accumulation well-conditioned.
pub fn make_x(n: usize) -> Vec<f32> {
    (0..n).map(|i| ((i * 37 + 11) % 64) as f32 / 32.0 - 1.0).collect()
}

/// Generates the Table-1 datasets at `scale` (all 14, or only the 12
/// in-scope ones).
pub fn load_datasets(scale: f64, include_out_of_scope: bool) -> Vec<Dataset> {
    ALL_DATASETS
        .iter()
        .filter(|d| include_out_of_scope || d.in_scope)
        .map(|d| d.generate(scale))
        .collect()
}

/// Geometric mean of positive values.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0usize);
    for v in values {
        debug_assert!(v > 0.0, "geomean needs positive values");
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Maximum relative error of `y` against the oracle, with an absolute
/// floor for near-zero entries.
pub fn max_rel_error(y: &[f32], oracle: &[f64]) -> f64 {
    y.iter()
        .zip(oracle)
        .map(|(a, o)| (*a as f64 - o).abs() / o.abs().max(1.0))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean([4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!((geomean([8.0]) - 8.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }

    #[test]
    fn x_vector_is_bounded_and_mixed() {
        let x = make_x(1000);
        assert!(x.iter().all(|v| (-1.0..=1.0).contains(v)));
        assert!(x.iter().any(|&v| v < 0.0) && x.iter().any(|&v| v > 0.0));
    }

    #[test]
    fn max_rel_error_detects_mismatch() {
        assert_eq!(max_rel_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        let e = max_rel_error(&[1.0, 3.0], &[1.0, 2.0]);
        assert!((e - 0.5).abs() < 1e-9);
    }

    #[test]
    fn load_datasets_scales() {
        let ds = load_datasets(0.01, false);
        assert_eq!(ds.len(), 12);
        let all = load_datasets(0.01, true);
        assert_eq!(all.len(), 14);
        assert!(all.iter().all(|d| d.csr.nrows >= 64));
    }
}
