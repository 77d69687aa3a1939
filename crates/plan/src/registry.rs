//! Engine registry: uniform construction of every SpMV method.
//!
//! The cost model, the serving layer and the bench harness all share
//! this one catalog.

use spaden::{CsrWarp16Engine, EngineError, SpadenEngine, SpadenNoTcEngine, SpmvEngine};
use spaden_baselines::{
    CusparseBsrEngine, CusparseCsrEngine, DaspEngine, GunrockEngine, LightSpmvEngine,
};
use spaden_gpusim::Gpu;
use spaden_sparse::csr::Csr;

/// Every SpMV method in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// cuSPARSE adaptive CSR (the Figure-7 normaliser).
    CusparseCsr,
    /// cuSPARSE BSR, 8×8 blocks.
    CusparseBsr,
    /// LightSpMV dynamic-row CSR.
    LightSpmv,
    /// Gunrock edge-centric.
    Gunrock,
    /// DASP `m8n8k4` tensor-core SpMV.
    Dasp,
    /// Spaden (bitBSR + tensor cores).
    Spaden,
    /// Spaden without tensor cores (§5.3 ablation).
    SpadenNoTc,
    /// Uncoalesced CSR strawman (§5.3 ablation).
    CsrWarp16,
    /// Merge-path CSR (Merrill & Garland) — extra modern baseline.
    MergeCsr,
    /// Spaden's bitCOO variant (§7 future work).
    BitCoo,
}

/// The six methods of Figure 6/7, paper order.
pub const FIG6_ENGINES: [EngineKind; 6] = [
    EngineKind::CusparseCsr,
    EngineKind::CusparseBsr,
    EngineKind::LightSpmv,
    EngineKind::Gunrock,
    EngineKind::Dasp,
    EngineKind::Spaden,
];

/// The four methods of the Figure-8 breakdown.
pub const FIG8_ENGINES: [EngineKind; 4] = [
    EngineKind::CsrWarp16,
    EngineKind::CusparseBsr,
    EngineKind::SpadenNoTc,
    EngineKind::Spaden,
];

/// Every registered method, selector candidate order.
pub const ALL_ENGINES: [EngineKind; 10] = [
    EngineKind::CusparseCsr,
    EngineKind::CusparseBsr,
    EngineKind::LightSpmv,
    EngineKind::Gunrock,
    EngineKind::Dasp,
    EngineKind::Spaden,
    EngineKind::SpadenNoTc,
    EngineKind::CsrWarp16,
    EngineKind::MergeCsr,
    EngineKind::BitCoo,
];

impl EngineKind {
    /// Display name (matches each engine's `SpmvEngine::name`).
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::CusparseCsr => "cuSPARSE CSR",
            EngineKind::CusparseBsr => "cuSPARSE BSR",
            EngineKind::LightSpmv => "LightSpMV",
            EngineKind::Gunrock => "Gunrock",
            EngineKind::Dasp => "DASP",
            EngineKind::Spaden => "Spaden",
            EngineKind::SpadenNoTc => "Spaden w/o TC",
            EngineKind::CsrWarp16 => "CSR Warp16",
            EngineKind::MergeCsr => "Merge CSR",
            EngineKind::BitCoo => "Spaden bitCOO",
        }
    }

    /// Parses a user-facing name (case-insensitive, several aliases).
    pub fn parse(s: &str) -> Option<EngineKind> {
        match s.to_ascii_lowercase().replace(['-', '_', ' '], "").as_str() {
            "cusparsecsr" | "csr" => Some(EngineKind::CusparseCsr),
            "cusparsebsr" | "bsr" => Some(EngineKind::CusparseBsr),
            "lightspmv" | "light" => Some(EngineKind::LightSpmv),
            "gunrock" => Some(EngineKind::Gunrock),
            "dasp" => Some(EngineKind::Dasp),
            "spaden" => Some(EngineKind::Spaden),
            "spadennotc" | "spadenwotc" | "notc" => Some(EngineKind::SpadenNoTc),
            "csrwarp16" | "warp16" => Some(EngineKind::CsrWarp16),
            "mergecsr" | "merge" => Some(EngineKind::MergeCsr),
            "bitcoo" => Some(EngineKind::BitCoo),
            _ => None,
        }
    }
}

/// Builds (preprocesses) an engine of the given kind for one matrix.
pub fn build_engine(kind: EngineKind, gpu: &Gpu, csr: &Csr) -> Box<dyn SpmvEngine> {
    match kind {
        EngineKind::CusparseCsr => Box::new(CusparseCsrEngine::prepare(gpu, csr)),
        EngineKind::CusparseBsr => Box::new(CusparseBsrEngine::prepare(gpu, csr)),
        EngineKind::LightSpmv => Box::new(LightSpmvEngine::prepare(gpu, csr)),
        EngineKind::Gunrock => Box::new(GunrockEngine::prepare(gpu, csr)),
        EngineKind::Dasp => Box::new(DaspEngine::prepare(gpu, csr)),
        EngineKind::Spaden => Box::new(SpadenEngine::prepare(gpu, csr)),
        EngineKind::SpadenNoTc => Box::new(SpadenNoTcEngine::prepare(gpu, csr)),
        EngineKind::CsrWarp16 => Box::new(CsrWarp16Engine::prepare(gpu, csr)),
        EngineKind::MergeCsr => Box::new(spaden_baselines::MergeCsrEngine::prepare(gpu, csr)),
        EngineKind::BitCoo => Box::new(spaden::BitCooEngine::prepare(gpu, csr)),
    }
}

/// Fallible [`build_engine`]: every kind routes through its `try_prepare`
/// (all of which share `spaden::prepare_validated`), so malformed input is
/// a typed error instead of a panic, and callers that accept untrusted
/// matrices (the serving layer, the CLI) can degrade gracefully.
pub fn try_build_engine(
    kind: EngineKind,
    gpu: &Gpu,
    csr: &Csr,
) -> Result<Box<dyn SpmvEngine>, EngineError> {
    Ok(match kind {
        EngineKind::CusparseCsr => Box::new(CusparseCsrEngine::try_prepare(gpu, csr)?),
        EngineKind::CusparseBsr => Box::new(CusparseBsrEngine::try_prepare(gpu, csr)?),
        EngineKind::LightSpmv => Box::new(LightSpmvEngine::try_prepare(gpu, csr)?),
        EngineKind::Gunrock => Box::new(GunrockEngine::try_prepare(gpu, csr)?),
        EngineKind::Dasp => Box::new(DaspEngine::try_prepare(gpu, csr)?),
        EngineKind::Spaden => Box::new(SpadenEngine::try_prepare(gpu, csr)?),
        EngineKind::SpadenNoTc => Box::new(SpadenNoTcEngine::try_prepare(gpu, csr)?),
        EngineKind::CsrWarp16 => Box::new(CsrWarp16Engine::try_prepare(gpu, csr)?),
        EngineKind::MergeCsr => {
            Box::new(spaden_baselines::MergeCsrEngine::try_prepare(gpu, csr)?)
        }
        EngineKind::BitCoo => Box::new(spaden::BitCooEngine::try_prepare(gpu, csr)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spaden_gpusim::GpuConfig;

    #[test]
    fn every_kind_builds_with_matching_name() {
        let csr = spaden_sparse::gen::random_uniform(100, 100, 1500, 1001);
        let gpu = Gpu::new(GpuConfig::l40());
        for kind in ALL_ENGINES {
            let eng = build_engine(kind, &gpu, &csr);
            assert_eq!(eng.name(), kind.name());
        }
    }

    #[test]
    fn try_build_rejects_malformed_and_accepts_valid() {
        let gpu = Gpu::new(GpuConfig::l40());
        let good = spaden_sparse::gen::random_uniform(64, 64, 500, 1003);
        // Unsorted columns in row 0: every kind must reject with Validation.
        let mut bad = good.clone();
        bad.col_idx[..2].reverse();
        for kind in ALL_ENGINES {
            match try_build_engine(kind, &gpu, &bad) {
                Err(EngineError::Validation(_)) => {}
                other => panic!(
                    "{}: expected Validation error, got {:?}",
                    kind.name(),
                    other.map(|e| e.name())
                ),
            }
            assert!(try_build_engine(kind, &gpu, &good).is_ok(), "{}", kind.name());
        }
    }

    #[test]
    fn parse_aliases() {
        assert_eq!(EngineKind::parse("Spaden"), Some(EngineKind::Spaden));
        assert_eq!(EngineKind::parse("cuSPARSE CSR"), Some(EngineKind::CusparseCsr));
        assert_eq!(EngineKind::parse("warp16"), Some(EngineKind::CsrWarp16));
        assert_eq!(EngineKind::parse("nope"), None);
    }
}
