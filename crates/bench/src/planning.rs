//! The `repro plan` experiment: certifies the cost-model selector.
//!
//! Not a paper figure — it validates the claim the plan layer makes on
//! top of the paper's kernels: the closed-form cost model in
//! `spaden_plan::cost` picks the engine an exhaustive oracle (actually
//! running every candidate on the simulator) would pick, on a
//! structurally diverse synthetic corpus. A selection counts as correct
//! when the chosen engine is the oracle's best or within 5% of it (a
//! simulator tie).
//!
//! The verdict line (`PLAN OK` / `PLAN FAIL`) is what CI's plan step
//! gates on.

use crate::verdict::Verdict;
use crate::table::Table;
use crate::make_x;
use spaden::EngineError;
use spaden_gpusim::{Gpu, GpuConfig};
use spaden_plan::{rank_engines, try_build_engine, EngineKind, MatrixStats, ALL_ENGINES};
use spaden_sparse::gen::{self, FillDist, Placement};
use spaden_sparse::{fingerprint, Csr};

/// Oracle-best tolerance: a choice whose measured time is within this
/// factor of the fastest engine's counts as correct — for scheduling
/// purposes, an engine within 5% of optimal is the right pick, and 5% is
/// below the simulator's own sensitivity to layout constants.
const TIE_FACTOR: f64 = 1.05;

/// Selector accuracy the verdict gates on (fraction of cases where the
/// cost model picked the oracle-best engine, ties included).
const ACCURACY_FLOOR: f64 = 0.70;

/// One (matrix, GPU) selection case, fully measured.
pub struct PlanCase {
    /// Corpus matrix name.
    pub matrix: String,
    /// GPU the case ran on.
    pub gpu: String,
    /// Engine the cost model ranked first.
    pub choice: EngineKind,
    /// Engine the exhaustive oracle found fastest.
    pub oracle_best: EngineKind,
    /// Cost-model prediction for the chosen engine (seconds).
    pub predicted_s: f64,
    /// Measured simulator time of the chosen engine (seconds).
    pub actual_s: f64,
    /// Measured simulator time of the oracle-best engine (seconds).
    pub best_s: f64,
}

impl PlanCase {
    /// Slowdown of the cost model's choice relative to the oracle best
    /// (1.0 = picked the fastest engine).
    pub fn regret(&self) -> f64 {
        self.actual_s / self.best_s
    }

    /// Whether this case counts as a correct selection.
    pub fn hit(&self) -> bool {
        self.choice == self.oracle_best || self.regret() <= TIE_FACTOR
    }
}

/// Everything `repro plan` measured, for programmatic checks.
pub struct PlanReport {
    /// Every (matrix, GPU) selection case.
    pub cases: Vec<PlanCase>,
    /// Fraction of cases where the cost model matched the oracle.
    pub accuracy: f64,
    /// Geometric mean of `actual / best` across cases.
    pub geomean_regret: f64,
}

impl PlanReport {
    /// The verdict CI gates on.
    pub fn ok(&self) -> bool {
        self.accuracy >= ACCURACY_FLOOR
    }
}

/// Structurally diverse synthetic corpus: blocked/dense (tensor-core
/// territory), blocked/sparse fills, scattered scalar structures, banded
/// stencils, and power-law skew. Fixed seeds — the report must be
/// reproducible run to run.
pub fn plan_corpus() -> Vec<(String, Csr)> {
    // Sized so kernel bodies dominate the fixed launch overhead —
    // otherwise every engine "ties" and selection accuracy is vacuous.
    let b = |name: &str, csr: Csr| (name.to_string(), csr);
    vec![
        b(
            "stencil-dense",
            gen::generate_blocked(8192, 17000, Placement::Stencil, &FillDist::Dense, 11),
        ),
        b(
            "banded-dense",
            gen::generate_blocked(
                8192,
                15000,
                Placement::Banded { bandwidth: 6 },
                &FillDist::Dense,
                13,
            ),
        ),
        b(
            "clustered-half",
            gen::generate_blocked(
                6144,
                12000,
                Placement::Clustered { clusters: 3, radius: 4 },
                &FillDist::Uniform { lo: 24, hi: 48 },
                17,
            ),
        ),
        b(
            "scattered-sparse",
            gen::generate_blocked(
                6144,
                16000,
                Placement::Scattered,
                &FillDist::Uniform { lo: 1, hi: 6 },
                19,
            ),
        ),
        b(
            "powerlaw-mixed",
            gen::generate_blocked(
                6144,
                13000,
                Placement::PowerLaw { exponent: 1.4 },
                &FillDist::Mix(vec![(0.7, 1, 8), (0.3, 32, 64)]),
                23,
            ),
        ),
        b("uniform-scalar", gen::random_uniform(9000, 9000, 160000, 29)),
        b("uniform-light", gen::random_uniform(12000, 12000, 60000, 31)),
        b("scale-free", gen::scale_free(10000, 180000, 2.1, 37)),
        b("banded-scalar", gen::banded(9000, 24, 9, 41)),
        b("spd-banded", gen::spd_banded(8192, 20, 11, 43)),
    ]
}

/// Runs every candidate engine on `csr` and returns measured seconds per
/// kind, skipping engines that refuse the matrix — unless the refusing
/// engine is the cost model's `choice`, whose build error is returned.
fn oracle_times(
    gpu: &Gpu,
    csr: &Csr,
    x: &[f32],
    choice: EngineKind,
) -> Result<Vec<(EngineKind, f64)>, EngineError> {
    let mut out = Vec::new();
    for &kind in ALL_ENGINES.iter() {
        let engine = match try_build_engine(kind, gpu, csr) {
            Ok(e) => e,
            Err(e) if kind == choice => return Err(e),
            Err(_) => continue,
        };
        match engine.try_run(gpu, x) {
            Ok(run) => out.push((kind, run.time.seconds)),
            Err(_) => continue,
        }
    }
    Ok(out)
}

/// Runs the selection study, renders the tables, and returns the verdict
/// line.
pub fn plan_report(gpus: &[GpuConfig]) -> (Vec<Table>, Verdict, PlanReport) {
    let corpus = plan_corpus();

    // ---- Selection accuracy vs the exhaustive oracle -------------------
    // The oracle runs every candidate once per (gpu, matrix); the per-case
    // scatter and the per-engine model-error table both read from it.
    let mut cases = Vec::new();
    let mut ratios_by_kind: Vec<(EngineKind, Vec<f64>)> =
        ALL_ENGINES.iter().map(|&k| (k, Vec::new())).collect();
    let mut scatter = Table::new(
        "Cost model vs oracle (per case)",
        &["gpu", "matrix", "chosen", "pred us", "actual us", "best", "best us", "regret"],
    );
    for cfg in gpus {
        let gpu = Gpu::new(cfg.clone());
        for (name, csr) in &corpus {
            let x = make_x(csr.ncols);
            let stats = MatrixStats::from_fingerprint(&fingerprint(csr));
            let ranking = rank_engines(&stats, &gpu.config, &ALL_ENGINES);
            let choice = ranking[0].kind;
            let times = match oracle_times(&gpu, csr, &x, choice) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("plan: {name} on {}: {e}", cfg.name);
                    continue;
                }
            };
            let Some(&(oracle_best, best_s)) = times.iter().min_by(|a, b| a.1.total_cmp(&b.1))
            else {
                eprintln!("plan: {name} on {}: no engine ran", cfg.name);
                continue;
            };
            for (kind, actual) in &times {
                if let Some(r) = ranking.iter().find(|r| r.kind == *kind) {
                    let bucket =
                        &mut ratios_by_kind.iter_mut().find(|(k, _)| k == kind).unwrap().1;
                    bucket.push(r.predicted.seconds / actual);
                }
            }
            let actual_s = times
                .iter()
                .find(|(k, _)| *k == choice)
                .map(|(_, s)| *s)
                .unwrap_or(f64::INFINITY);
            let case = PlanCase {
                matrix: name.clone(),
                gpu: cfg.name.to_string(),
                choice,
                oracle_best,
                predicted_s: ranking[0].predicted.seconds,
                actual_s,
                best_s,
            };
            scatter.push_row(vec![
                case.gpu.clone(),
                case.matrix.clone(),
                case.choice.name().to_string(),
                Table::num(case.predicted_s * 1e6),
                Table::num(case.actual_s * 1e6),
                case.oracle_best.name().to_string(),
                Table::num(case.best_s * 1e6),
                format!("{:.3}{}", case.regret(), if case.hit() { "" } else { " MISS" }),
            ]);
            cases.push(case);
        }
    }
    let hits = cases.iter().filter(|c| c.hit()).count();
    let exact = cases.iter().filter(|c| c.choice == c.oracle_best).count();
    let accuracy = hits as f64 / cases.len().max(1) as f64;
    let geomean_regret = (cases.iter().map(|c| c.regret().ln()).sum::<f64>()
        / cases.len().max(1) as f64)
        .exp();

    // Per-engine prediction error: how far the closed-form model sits from
    // the simulator, aggregated over every case where the engine ran.
    let mut model = Table::new(
        "Cost model prediction error by engine",
        &["engine", "cases", "geomean pred/actual", "max over", "max under"],
    );
    for (kind, ratios) in &ratios_by_kind {
        if ratios.is_empty() {
            continue;
        }
        let gm = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
        let over = ratios.iter().cloned().fold(f64::MIN, f64::max);
        let under = ratios.iter().cloned().fold(f64::MAX, f64::min);
        model.push_row(vec![
            kind.name().to_string(),
            ratios.len().to_string(),
            format!("{gm:.2}"),
            format!("{over:.2}"),
            format!("{under:.2}"),
        ]);
    }

    let report = PlanReport { accuracy, geomean_regret, cases };
    let verdict = Verdict::new(report.ok(), format!(
        "PLAN {}: selector matched oracle on {}/{} cases ({:.0}%, floor {:.0}%; {} exact top-1), \
         geomean regret {:.3}x",
        if report.ok() { "OK" } else { "FAIL" },
        hits,
        report.cases.len(),
        accuracy * 100.0,
        ACCURACY_FLOOR * 100.0,
        exact,
        geomean_regret,
    ));
    (vec![scatter, model], verdict, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_report_holds_on_l40() {
        let (tables, verdict, _) = plan_report(&[GpuConfig::l40()]);
        assert_eq!(tables.len(), 2);
        assert!(verdict.pass, "{verdict}");
        assert!(verdict.line.starts_with("PLAN OK"), "{verdict}");
    }

    #[test]
    fn corpus_is_valid_and_diverse() {
        let corpus = plan_corpus();
        assert!(corpus.len() >= 8);
        for (name, csr) in &corpus {
            csr.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}
