//! Snapshot build and commit: ladder planning, the batched-serving
//! plan, the one snapshot builder, registration and streaming updates.

use super::{
    BatchPlan, MatrixEntry, MatrixHandle, PreparedMatrix, Rung, ServeError, SpmvServer,
    UpdateOutcome, RUNGS,
};
use crate::checksum::CsrChecksums;
use spaden::engine::EngineError;
use spaden::{
    AbftChecksums, EvolveConfig, EvolvingMatrix, SideEntry, SpadenConfig, SpadenEngine,
    SpadenNoTcEngine, SpadenSpmmEngine, UpdateFault,
};
use spaden_baselines::CusparseCsrEngine;
use spaden_plan::{predict_spmm_time, predict_time, spmm_crossover, MatrixStats};
use spaden_shard::{ShardPolicy, ShardedMatrix};
use spaden_sparse::csr::Csr;
use spaden_sparse::delta::{DeltaBatch, UpdateError};
use spaden_sparse::fingerprint;
use std::sync::Arc;

/// Single-device rungs in canonical (strongest-verification-first) order.
const SINGLE_RUNGS: [Rung; 3] = [Rung::SpadenChecked, Rung::SpadenScalar, Rung::CsrBaseline];

/// A rung climbs past a canonically stronger one only when the cost
/// model predicts its engine faster by at least this factor — small
/// predicted wins never outrank stronger verification.
const PROMOTION_MARGIN: f64 = 1.25;

/// Orders the single-device rungs for one matrix from their predicted
/// costs (`est_cost_s`, indexed by rung). Canonical order is the
/// tie-break: a rung is promoted one position at a time, only while it
/// beats the rung above it by [`PROMOTION_MARGIN`]. Every rung stays in
/// the ladder — in particular the ABFT-checked rung is always retained,
/// demoted at most, so a faulty fast path still falls back to
/// self-correcting execution.
fn planned_ladder(est_cost_s: &[f64; RUNGS]) -> [Rung; 3] {
    let mut order = SINGLE_RUNGS;
    let t = |r: Rung| est_cost_s[r as usize];
    for i in 1..order.len() {
        let mut j = i;
        while j > 0 && t(order[j - 1]) >= PROMOTION_MARGIN * t(order[j]) {
            order.swap(j - 1, j);
            j -= 1;
        }
    }
    order
}

/// Shards requested per fleet device when a registered matrix is
/// partitioned for the sharded rung.
const SHARDS_PER_DEVICE: usize = 2;

impl SpmvServer {
    /// Builds the batched-serving plan for one epoch's logical matrix,
    /// or `None` when batching is disabled (the SpMM engine is never
    /// prepared — the bit-identity guarantee of [`BatchConfig`]). The
    /// crossover compares modelled SpMM sweeps against the modelled SpMV
    /// of the ABFT-checked rung, the same estimate the ladder uses.
    fn batch_plan(&self, csr: &Csr, stats: &MatrixStats) -> Result<Option<BatchPlan>, ServeError> {
        if !self.config.batch.enabled {
            return Ok(None);
        }
        let config = &self.gpu.config;
        let max_width = self.config.batch.max_width.max(1);
        let spmm = SpadenSpmmEngine::try_prepare(&self.gpu, csr).map_err(ServeError::Invalid)?;
        let cost_s: Vec<f64> =
            (1..=max_width).map(|k| predict_spmm_time(stats, k, config).seconds).collect();
        let crossover = spmm_crossover(stats, config, max_width).unwrap_or(usize::MAX);
        Ok(Some(BatchPlan { spmm, cost_s, crossover }))
    }

    /// Builds the serving form of one epoch — the only place a
    /// [`PreparedMatrix`] is constructed. `csr` is the epoch's logical
    /// truth, `stats` its structure statistics, `sums` its f32 CSR-rung
    /// checksums, and `spaden` its tensor-core engine over the base
    /// bitBSR; `side` and `logical` are the uncompacted tail and the
    /// checksums that verify base plus tail. The scalar rung reuses
    /// `spaden`'s format (no second conversion); the CSR rung and the
    /// sharded form come from `csr`. Every rung is priced by the cost
    /// model, so the build launches no kernel.
    #[allow(clippy::too_many_arguments)]
    fn build_snapshot(
        &self,
        csr: &Csr,
        stats: &MatrixStats,
        sums: CsrChecksums,
        spaden: SpadenEngine,
        side: Vec<SideEntry>,
        logical: Option<AbftChecksums>,
        epoch: u64,
    ) -> Result<(PreparedMatrix, Option<ShardedMatrix>), ServeError> {
        let scalar = SpadenNoTcEngine::try_from_parts(&self.gpu, spaden.format().clone())
            .map_err(ServeError::Invalid)?;
        let csr_eng =
            CusparseCsrEngine::try_prepare(&self.gpu, csr).map_err(ServeError::Invalid)?;
        // The sharded form's checksums are slices of the full matrix's
        // (never recomputed).
        let sharded = self
            .fleet
            .as_ref()
            .map(|fleet| {
                let nshards = fleet.len() * SHARDS_PER_DEVICE;
                ShardedMatrix::try_new(&self.gpu.config, csr, nshards, ShardPolicy::default())
            })
            .transpose()
            .map_err(ServeError::Invalid)?;
        // Cost estimates depend on structure alone, so they hold for
        // every future x. The sharded estimate assumes a full healthy
        // fleet; the scheduler re-prices after crashes. Without a fleet
        // the rung is disabled and never attempted.
        let mut est_cost_s = [f64::INFINITY; RUNGS];
        if let (Some(sm), Some(fleet)) = (&sharded, &self.fleet) {
            est_cost_s[Rung::Sharded as usize] = sm.est_s(fleet.len());
        }
        for r in SINGLE_RUNGS {
            est_cost_s[r as usize] = predict_time(r.engine_kind(), stats, &self.gpu.config).seconds;
        }
        let ladder = planned_ladder(&est_cost_s);
        let batch = self.batch_plan(csr, stats)?;
        let snapshot = PreparedMatrix {
            nrows: csr.nrows,
            ncols: csr.ncols,
            spaden,
            scalar,
            csr: csr_eng,
            sums,
            est_cost_s,
            ladder,
            epoch,
            side,
            logical,
            batch,
        };
        Ok((snapshot, sharded))
    }

    /// [`SpmvServer::build_snapshot`] for an evolving matrix's current
    /// epoch (commit and recovery). The tensor-core engine is rebuilt
    /// from the verified base bitBSR and its checksums, so the served
    /// f16 bits are the evolve layer's bits, not a re-rounding.
    ///
    /// A commit passes the head snapshot and the block-rows its batch
    /// touched. The new engine then takes over the head engine's launch
    /// memo when the base structure is unchanged
    /// ([`SpadenEngine::carry_memo_from`]), and when the head serves the
    /// epoch just before this one its CSR checksums are repaired on the
    /// touched block-rows instead of rebuilt. Recovery passes `None`.
    pub(super) fn build_evolved(
        &self,
        ev: &EvolvingMatrix,
        stats: &MatrixStats,
        head: Option<(&PreparedMatrix, &[usize])>,
    ) -> Result<(PreparedMatrix, Option<ShardedMatrix>), ServeError> {
        let spaden = SpadenEngine::try_from_parts(
            &self.gpu,
            ev.base().clone(),
            ev.base_sums().clone(),
            SpadenConfig::default(),
        )
        .map_err(ServeError::Invalid)?;
        if let Some((head, _)) = head {
            spaden.carry_memo_from(&head.spaden);
        }
        let sums = match head {
            Some((head, touched)) if head.epoch + 1 == ev.epoch() => {
                head.sums.repaired(ev.csr(), touched)
            }
            _ => CsrChecksums::build(ev.csr()),
        };
        let side = ev.delta().side().to_vec();
        let logical = (!side.is_empty()).then(|| ev.logical_sums().clone());
        self.build_snapshot(ev.csr(), stats, sums, spaden, side, logical, ev.epoch())
    }

    /// Validates and registers a matrix: structural ingress check, all
    /// three rung engines prepared, checksums and per-rung cost estimates
    /// built. Malformed matrices are rejected with a typed error before
    /// any engine sees them.
    pub fn register(&mut self, csr: &Csr) -> Result<MatrixHandle, ServeError> {
        self.register_with(csr, None)
    }

    /// [`SpmvServer::register`] plus an attached update lifecycle: the
    /// matrix accepts verified streaming updates through
    /// [`SpmvServer::update`], each commit publishing a new epoch.
    pub fn register_evolving(
        &mut self,
        csr: &Csr,
        config: EvolveConfig,
    ) -> Result<MatrixHandle, ServeError> {
        self.register_with(csr, Some(config))
    }

    /// [`SpmvServer::register`], with an update lifecycle when `evolve`
    /// is given. Only a static matrix is fingerprinted here: an evolving
    /// one's truth is hashed on demand by [`SpmvServer::fingerprint_of`],
    /// so its stats come from the matrix directly.
    fn register_with(
        &mut self,
        csr: &Csr,
        evolve: Option<EvolveConfig>,
    ) -> Result<MatrixHandle, ServeError> {
        csr.validate()
            .map_err(|e| ServeError::Invalid(EngineError::Validation(e.to_string())))?;
        // The one bitBSR conversion of a registration; preparing from
        // the f32 source also runs the f16 conversion-hazard scan.
        let spaden =
            SpadenEngine::try_prepare(&self.gpu, csr).map_err(ServeError::Invalid)?;
        let fp = evolve.is_none().then(|| fingerprint(csr));
        let stats = fp.as_ref().map_or_else(|| MatrixStats::of(csr), MatrixStats::from_fingerprint);
        let sums = CsrChecksums::build(csr);
        let (current, sharded) =
            self.build_snapshot(csr, &stats, sums, spaden, Vec::new(), None, 0)?;
        self.matrices.push(MatrixEntry {
            current: Arc::new(current),
            sharded,
            evolving: evolve.map(|config| Box::new(EvolvingMatrix::new(csr.clone(), config))),
            stats,
            fp,
            store: None,
        });
        Ok(MatrixHandle(self.matrices.len() - 1))
    }

    /// Applies one verified update batch to an evolving matrix and, on
    /// commit, publishes the new epoch: a fresh immutable snapshot is
    /// swapped in for *new* admissions while in-flight requests finish
    /// on the snapshot they captured. On any error the previous epoch
    /// keeps serving untouched — a bad epoch is never published.
    pub fn update(
        &mut self,
        h: MatrixHandle,
        batch: &DeltaBatch,
    ) -> Result<UpdateOutcome, ServeError> {
        self.update_with_fault(h, batch, None)
    }

    /// [`SpmvServer::update`] with a seeded splice corruption (chaos
    /// hook). The evolve layer's post-update verification must turn the
    /// fault into [`ServeError::Update`] + rollback, never a published
    /// bad epoch. A snapshot that fails to build after the commit is
    /// never published either; it surfaces as [`ServeError::Invalid`].
    pub fn update_with_fault(
        &mut self,
        h: MatrixHandle,
        batch: &DeltaBatch,
        fault: Option<UpdateFault>,
    ) -> Result<UpdateOutcome, ServeError> {
        let idx = h.0;
        if self.matrices.get(idx).is_none() {
            return Err(ServeError::UnknownMatrix(idx));
        }
        let Some(mut ev) = self.matrices[idx].evolving.take() else {
            return Err(ServeError::NotEvolving(idx));
        };
        let report = match ev.apply(batch, fault) {
            Ok(r) => r,
            Err(e) => {
                // Rollback by non-commit: the evolve layer is unchanged
                // and the served snapshot was never touched.
                self.matrices[idx].evolving = Some(ev);
                if matches!(
                    e,
                    UpdateError::VerificationFailed { .. } | UpdateError::CompactionMismatch { .. }
                ) {
                    self.stats.update_rollbacks += 1;
                }
                return Err(ServeError::Update(e));
            }
        };

        // Durability: log the committed batch under its new epoch before
        // publishing. Rejected batches never get here, so the log holds
        // only verified commits and replay cannot re-introduce a
        // rolled-back epoch.
        if let Some(store) = self.matrices[idx].store.as_mut() {
            store.append_batch(ev.epoch(), batch);
            store.maybe_snapshot(&ev);
        }

        // Build the new epoch's snapshot off to the side, from the
        // head's state plus what the batch touched.
        let head = Arc::clone(&self.matrices[idx].current);
        let touched = batch.touched_block_rows();
        let stats = match &report.replaced_profile {
            None => self.matrices[idx].stats,
            Some(before) => self.matrices[idx].stats.after_commit(before, ev.csr(), &touched),
        };
        let built = self.build_evolved(&ev, &stats, Some((&head, &touched)));
        // The evolve layer has committed either way. A failed build
        // leaves the previous snapshot serving and surfaces as a typed
        // error.
        let entry = &mut self.matrices[idx];
        entry.evolving = Some(ev);
        entry.stats = stats;
        let (current, sharded) = built?;

        // Publish: swap the head snapshot. In-flight requests hold their
        // own Arc and finish on the epoch they were admitted on.
        entry.current = Arc::new(current);
        entry.sharded = sharded;
        self.stats.updates += 1;
        Ok(UpdateOutcome { report })
    }
}
