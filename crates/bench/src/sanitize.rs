//! The `repro sanitize` experiment: runs every engine under SimSan.
//!
//! Not a paper figure — it certifies the sanitizer story in three parts:
//!
//! 1. **Clean sweep**: the full engine matrix runs violation-free under
//!    SimSan on a structurally diverse corpus, and each run's output is
//!    bit-identical to the same run with the sanitizer off (zero-cost-when-
//!    off, zero-false-positive-when-on).
//! 2. **Seeded injection**: each hazard class `gpusim::fault` can inject
//!    (out-of-bounds read, uninitialized read, intra-warp lane race,
//!    invalid atomic, fragment-mapping misuse) is detected with the right
//!    report kind, reproducibly from the seed; the table prints the first
//!    report's (kind, warp, lane, addr, step).
//! 3. **Numerical edge corpus**: `spaden_sparse::gen::numerical_edge_corpus`
//!    (f16 overflow/underflow extremes, cancellation, denormals, degenerate
//!    shapes) is pushed through the full serving ladder; every request must
//!    resolve to a verified finite result or a typed error, with the f16
//!    hazard cases demoted off the tensor-core rung instead of returning
//!    poisoned output.
//!
//! The verdict line (`SAN OK` / `SAN FAIL`) is what CI's sanitize job
//! greps for.

use crate::verdict::Verdict;
use crate::table::Table;
use crate::make_x;
use spaden_gpusim::{FaultConfig, Gpu, GpuConfig, HazardKind, SanConfig, SanReport};
use spaden_plan::{try_build_engine, ALL_ENGINES};
use spaden_serve::{Request, Rung, ServeConfig, SpmvServer};
use spaden_sparse::gen::{self, FillDist, Placement};
use spaden_sparse::Csr;

/// Everything `repro sanitize` measured, for programmatic checks.
pub struct SanitizeReport {
    /// (engine, matrix) cells in the clean sweep.
    pub clean_cases: usize,
    /// Sanitizer reports across all clean cells (must be 0).
    pub clean_violations: usize,
    /// Clean cells whose output differed bitwise from a sanitizer-off run
    /// (must be 0).
    pub bit_mismatches: usize,
    /// Injection classes swept.
    pub injection_classes: usize,
    /// Injection classes detected with the expected report kind.
    pub injection_detected: usize,
    /// Edge-corpus requests pushed through the serving ladder.
    pub ladder_cases: usize,
    /// Edge-corpus requests that resolved to a verified finite result or a
    /// typed error (must equal `ladder_cases`).
    pub ladder_resolved: usize,
    /// f16 hazard cases that were demoted off the ABFT tensor-core rung.
    pub hazards_demoted: usize,
    /// f16 hazard cases in the corpus.
    pub hazard_cases: usize,
}

impl SanitizeReport {
    /// The verdict CI gates on.
    pub fn ok(&self) -> bool {
        self.clean_violations == 0
            && self.bit_mismatches == 0
            && self.injection_detected == self.injection_classes
            && self.ladder_resolved == self.ladder_cases
            && self.hazards_demoted == self.hazard_cases
    }
}

/// Small structurally diverse corpus for the clean sweep: blocked dense
/// (tensor-core path), blocked sparse fills, scalar scatter, banded.
/// Fixed seeds — the sweep must be reproducible run to run.
fn clean_corpus() -> Vec<(String, Csr)> {
    let b = |name: &str, csr: Csr| (name.to_string(), csr);
    vec![
        b(
            "banded-dense",
            gen::generate_blocked(768, 900, Placement::Banded { bandwidth: 4 }, &FillDist::Dense, 71),
        ),
        b(
            "scattered-sparse",
            gen::generate_blocked(
                768,
                1200,
                Placement::Scattered,
                &FillDist::Uniform { lo: 1, hi: 8 },
                73,
            ),
        ),
        b("uniform-scalar", gen::random_uniform(600, 600, 7000, 79)),
        b("banded-scalar", gen::banded(512, 9, 6, 83)),
    ]
}

/// Runs one engine under the sanitizer and returns `(y, reports)`.
fn run_sanitized(
    kind: crate::EngineKind,
    cfg: &GpuConfig,
    csr: &Csr,
    x: &[f32],
    faults: FaultConfig,
) -> Result<(Vec<f32>, Vec<SanReport>), String> {
    let mut c = cfg.clone();
    c.faults = faults;
    c.san = SanConfig::on();
    let gpu = Gpu::new(c);
    let engine = try_build_engine(kind, &gpu, csr).map_err(|e| e.to_string())?;
    let run = engine.try_run(&gpu, x).map_err(|e| e.to_string())?;
    Ok((run.y, gpu.take_san_reports()))
}

/// Runs one engine with the sanitizer off (reference for bit-identity).
fn run_plain(
    kind: crate::EngineKind,
    cfg: &GpuConfig,
    csr: &Csr,
    x: &[f32],
) -> Result<Vec<f32>, String> {
    let gpu = Gpu::new(cfg.clone());
    let engine = try_build_engine(kind, &gpu, csr).map_err(|e| e.to_string())?;
    Ok(engine.try_run(&gpu, x).map_err(|e| e.to_string())?.y)
}

/// Renders one report as the compact diagnostic CI prints.
fn fmt_report(r: Option<&SanReport>) -> String {
    match r {
        Some(r) => format!(
            "{} warp={} lane={} addr={} step={}",
            r.kind.name(),
            r.warp.map_or("-".into(), |w| w.to_string()),
            r.lane.map_or("-".into(), |l| l.to_string()),
            r.addr.map_or("-".into(), |a| format!("{a:#x}")),
            r.step,
        ),
        None => "(none)".into(),
    }
}

/// Runs the three-part sanitizer certification, renders the tables, and
/// returns the verdict line.
pub fn sanitize_report(gpus: &[GpuConfig]) -> (Vec<Table>, Verdict, SanitizeReport) {
    let cfg = gpus.first().cloned().unwrap_or_else(GpuConfig::l40);
    let corpus = clean_corpus();

    // ---- Part 1: clean sweep, every engine x every corpus matrix --------
    let mut clean = Table::new(
        format!("SimSan clean sweep ({})", cfg.name),
        &["engine", "matrix", "reports", "bit-identical"],
    );
    let (mut clean_cases, mut clean_violations, mut bit_mismatches) = (0usize, 0usize, 0usize);
    for &kind in ALL_ENGINES.iter() {
        for (name, csr) in &corpus {
            let x = make_x(csr.ncols);
            let (y_san, reports) =
                match run_sanitized(kind, &cfg, csr, &x, FaultConfig::disabled()) {
                    Ok(v) => v,
                    Err(e) => {
                        clean.push_row(vec![
                            kind.name().into(),
                            name.clone(),
                            format!("ERROR: {e}"),
                            "-".into(),
                        ]);
                        clean_violations += 1;
                        continue;
                    }
                };
            let identical = match run_plain(kind, &cfg, csr, &x) {
                Ok(y_off) => {
                    y_san.len() == y_off.len()
                        && y_san
                            .iter()
                            .zip(&y_off)
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                }
                Err(_) => false,
            };
            clean_cases += 1;
            clean_violations += reports.len();
            bit_mismatches += usize::from(!identical);
            clean.push_row(vec![
                kind.name().into(),
                name.clone(),
                reports.len().to_string(),
                if identical { "yes".into() } else { "NO".into() },
            ]);
        }
    }

    // ---- Part 2: seeded hazard injection, one class at a time ----------
    // The Spaden kernel exercises gathers, scatters, and tensor-core
    // fragment writes; Gunrock's edge-centric kernel is the atomic user.
    let d = FaultConfig::disabled();
    let inject_classes: [(&str, FaultConfig, crate::EngineKind, HazardKind); 5] = [
        (
            "oob-read",
            FaultConfig { seed: 0xA1, oob_read_rate: 0.05, ..d },
            crate::EngineKind::Spaden,
            HazardKind::OutOfBounds,
        ),
        (
            "uninit-read",
            FaultConfig { seed: 0xA2, uninit_read_rate: 0.05, ..d },
            crate::EngineKind::Spaden,
            HazardKind::UninitRead,
        ),
        (
            "lane-race",
            FaultConfig { seed: 0xA3, lane_race_rate: 0.05, ..d },
            crate::EngineKind::Spaden,
            HazardKind::LaneRace,
        ),
        (
            "invalid-atomic",
            FaultConfig { seed: 0xA4, invalid_atomic_rate: 0.05, ..d },
            crate::EngineKind::Gunrock,
            HazardKind::AtomicConflict,
        ),
        (
            "frag-misuse",
            FaultConfig { seed: 0xA5, frag_misuse_rate: 0.05, ..d },
            crate::EngineKind::Spaden,
            HazardKind::FragmentMapping,
        ),
    ];
    let inject_matrix = gen::generate_blocked(
        768,
        1100,
        Placement::Scattered,
        &FillDist::Uniform { lo: 8, hi: 40 },
        89,
    );
    let mut inject = Table::new(
        format!("Seeded hazard injection ({})", cfg.name),
        &["class", "engine", "expected", "reports", "first matching report"],
    );
    let (mut injection_classes, mut injection_detected) = (0usize, 0usize);
    for (label, faults, kind, expected) in inject_classes {
        injection_classes += 1;
        let x = make_x(inject_matrix.ncols);
        let (reports, matching) = match run_sanitized(kind, &cfg, &inject_matrix, &x, faults) {
            Ok((_, reports)) => {
                let m = reports.iter().find(|r| r.kind == expected).cloned();
                (reports, m)
            }
            Err(_) => (Vec::new(), None),
        };
        if matching.is_some() {
            injection_detected += 1;
        }
        inject.push_row(vec![
            label.into(),
            kind.name().into(),
            expected.name().into(),
            reports.len().to_string(),
            fmt_report(matching.as_ref()),
        ]);
    }

    // ---- Part 3: numerical edge corpus through the serving ladder -------
    let mut ladder = Table::new(
        format!("Numerical edge corpus through the serve ladder ({})", cfg.name),
        &["case", "outcome", "rung", "finite y", "f16 hazard demoted"],
    );
    let mut srv_cfg = cfg.clone();
    srv_cfg.san = SanConfig::on();
    let (mut ladder_cases, mut ladder_resolved) = (0usize, 0usize);
    let (mut hazard_cases, mut hazards_demoted) = (0usize, 0usize);
    for case in gen::numerical_edge_corpus() {
        ladder_cases += 1;
        // The f16 guard rails must force these cases off the tensor-core
        // rung (the only rung whose checked run raises NumericalHazard).
        let is_hazard = matches!(case.name, "f16-overflow" | "f16-underflow");
        hazard_cases += usize::from(is_hazard);
        let mut srv = SpmvServer::new(Gpu::new(srv_cfg.clone()), ServeConfig::default());
        let h = match srv.register(&case.matrix) {
            Ok(h) => h,
            Err(e) => {
                // A typed rejection at registration is an acceptable
                // resolution for a degenerate structure — but the hazard
                // matrices are well-formed and must register.
                if !is_hazard {
                    ladder_resolved += 1;
                }
                ladder.push_row(vec![
                    case.name.into(),
                    format!("register failed: {e}"),
                    "-".into(),
                    "-".into(),
                    if is_hazard { "NO".into() } else { "-".into() },
                ]);
                continue;
            }
        };
        let req = Request { matrix: h, x: case.x.clone(), deadline_s: Some(1.0) };
        match srv.serve(req) {
            Ok(ok) => {
                let finite = ok.y.iter().all(|v| v.is_finite());
                let demoted = ok.rung != Rung::SpadenChecked;
                if finite {
                    ladder_resolved += 1;
                }
                if is_hazard && demoted && finite {
                    hazards_demoted += 1;
                }
                ladder.push_row(vec![
                    case.name.into(),
                    "served".into(),
                    ok.rung.name().into(),
                    if finite { "yes".into() } else { "NO".into() },
                    if is_hazard {
                        if demoted { "yes".into() } else { "NO".into() }
                    } else {
                        "-".into()
                    },
                ]);
            }
            Err(e) => {
                // A typed error is an acceptable resolution for a
                // degenerate case, but a hazard case must degrade to a
                // verified rung, not fail outright.
                if !is_hazard {
                    ladder_resolved += 1;
                }
                ladder.push_row(vec![
                    case.name.into(),
                    format!("error: {e}"),
                    "-".into(),
                    "-".into(),
                    if is_hazard { "NO".into() } else { "-".into() },
                ]);
            }
        }
    }

    let report = SanitizeReport {
        clean_cases,
        clean_violations,
        bit_mismatches,
        injection_classes,
        injection_detected,
        ladder_cases,
        ladder_resolved,
        hazards_demoted,
        hazard_cases,
    };
    let verdict = Verdict::new(report.ok(), format!(
        "SAN {}: {} clean cells with {} violations and {} bit mismatches; \
         {}/{} injected hazard classes detected; {}/{} edge cases resolved; \
         {}/{} f16 hazard cases demoted off the tensor-core rung",
        if report.ok() { "OK" } else { "FAIL" },
        report.clean_cases,
        report.clean_violations,
        report.bit_mismatches,
        report.injection_detected,
        report.injection_classes,
        report.ladder_resolved,
        report.ladder_cases,
        report.hazards_demoted,
        report.hazard_cases,
    ));
    (vec![clean, inject, ladder], verdict, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_report_holds_on_l40() {
        let (tables, verdict, report) = sanitize_report(&[GpuConfig::l40()]);
        assert_eq!(tables.len(), 3);
        assert_eq!(report.clean_violations, 0, "{verdict}");
        assert_eq!(report.bit_mismatches, 0, "{verdict}");
        assert_eq!(report.injection_detected, report.injection_classes, "{verdict}");
        assert!(verdict.pass, "{verdict}");
        assert!(verdict.line.starts_with("SAN OK"), "{verdict}");
    }

    #[test]
    fn clean_corpus_is_valid() {
        for (name, csr) in clean_corpus() {
            csr.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}
