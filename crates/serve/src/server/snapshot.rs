//! Snapshot build and commit: ladder planning, the batched-serving
//! plan, the one snapshot builder, registration and streaming updates.

use super::{
    BatchPlan, MatrixEntry, MatrixHandle, PreparedMatrix, Rung, ServeError, SpmvServer,
    UpdateOutcome, RUNGS,
};
use crate::checksum::CsrChecksums;
use spaden::engine::{EngineError, SpmvRun};
use spaden::{
    AbftChecksums, EvolveConfig, EvolvingMatrix, SideEntry, SpadenConfig, SpadenEngine,
    SpadenNoTcEngine, SpadenSpmmEngine, SpmvEngine, UpdateFault,
};
use spaden_baselines::CusparseCsrEngine;
use spaden_gpusim::GpuConfig;
use spaden_plan::{predict_spmm_time, predict_time, MatrixStats};
use spaden_shard::{PartitionKey, ShardPolicy, ShardedMatrix};
use spaden_sparse::csr::Csr;
use spaden_sparse::delta::{DeltaBatch, DeltaClass, UpdateError};
use spaden_sparse::fingerprint;
use std::sync::Arc;

/// Single-device rungs in canonical (strongest-verification-first) order.
const SINGLE_RUNGS: [Rung; 3] = [Rung::SpadenChecked, Rung::SpadenScalar, Rung::CsrBaseline];

/// A rung climbs past a canonically stronger one only when the cost
/// model predicts its engine faster by at least this factor — small
/// predicted wins never outrank stronger verification.
const PROMOTION_MARGIN: f64 = 1.25;

/// Orders the single-device rungs for one matrix from the cost model's
/// predictions. Canonical order is the tie-break: a rung is promoted one
/// position at a time, only while it beats the rung above it by
/// [`PROMOTION_MARGIN`]. Every rung stays in the ladder — in particular
/// the ABFT-checked rung is always retained, demoted at most, so a
/// faulty fast path still falls back to self-correcting execution.
fn planned_ladder(stats: &MatrixStats, config: &GpuConfig) -> [Rung; 3] {
    let mut order = SINGLE_RUNGS;
    let mut t = order.map(|r| predict_time(r.engine_kind(), stats, config).seconds);
    for i in 1..order.len() {
        let mut j = i;
        while j > 0 && t[j - 1] >= PROMOTION_MARGIN * t[j] {
            order.swap(j - 1, j);
            t.swap(j - 1, j);
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
    /// prepared — the bit-identity guarantee of [`BatchConfig`]).
    /// `est_spmv_s` is the measured per-request cost of the
    /// ABFT-checked rung, the baseline of the crossover decision.
    fn batch_plan(&self, csr: &Csr, est_spmv_s: f64) -> Result<Option<BatchPlan>, ServeError> {
        if !self.config.batch.enabled {
            return Ok(None);
        }
        let max_width = self.config.batch.max_width.max(1);
        let spmm = SpadenSpmmEngine::try_prepare(&self.gpu, csr).map_err(ServeError::Invalid)?;
        let stats = MatrixStats::of(csr);
        let cost_s: Vec<f64> = (1..=max_width)
            .map(|k| predict_spmm_time(&stats, k, &self.gpu.config).seconds)
            .collect();
        let crossover = (2..=max_width)
            .find(|&w| cost_s[w - 1] < w as f64 * est_spmv_s)
            .unwrap_or(usize::MAX);
        Ok(Some(BatchPlan { spmm, cost_s, crossover }))
    }

    /// Builds the serving form of one epoch — the only place a
    /// [`PreparedMatrix`] is constructed. `csr` is the epoch's logical
    /// truth and `spaden` its tensor-core engine over the base bitBSR;
    /// `side` and `logical` are the uncompacted tail and the checksums
    /// that verify base plus tail. The scalar rung reuses `spaden`'s
    /// format (no second conversion); the CSR rung, its f32 checksums
    /// and the sharded form (through the partition cache) come from
    /// `csr`. `reuse` carries a previous epoch's ladder and cost
    /// estimates across a value-only commit; without it one plain run
    /// per rung prices the ladder.
    fn build_snapshot(
        &mut self,
        csr: &Csr,
        spaden: SpadenEngine,
        side: Vec<SideEntry>,
        logical: Option<AbftChecksums>,
        epoch: u64,
        reuse: Option<([Rung; 3], [f64; RUNGS])>,
    ) -> Result<(PreparedMatrix, Option<ShardedMatrix>), ServeError> {
        let scalar = SpadenNoTcEngine::try_from_parts(&self.gpu, spaden.format().clone())
            .map_err(ServeError::Invalid)?;
        let csr_eng =
            CusparseCsrEngine::try_prepare(&self.gpu, csr).map_err(ServeError::Invalid)?;
        let sums = CsrChecksums::build(csr);
        // The sharded form's checksums are slices of the full matrix's
        // (never recomputed); a cached partition plan skips the balance
        // pass and the per-shard staging runs.
        let sharded = match &self.fleet {
            Some(fleet) => Some(
                ShardedMatrix::try_new_cached(
                    &self.gpu.config,
                    csr,
                    fleet.len() * SHARDS_PER_DEVICE,
                    ShardPolicy::default(),
                    &mut self.partition_cache,
                )
                .map_err(ServeError::Invalid)?,
            ),
            None => None,
        };
        let (ladder, est_cost_s) = match reuse {
            Some(reused) => reused,
            None => {
                // Cost estimates from real counters: one plain (unchecked)
                // run per rung. Counter totals depend on structure, not
                // values, so the estimate holds for every future x. The
                // sharded estimate assumes a full healthy fleet; the
                // scheduler re-prices after crashes.
                let x0 = vec![0.0f32; csr.ncols];
                let est = |run: Result<SpmvRun, EngineError>| {
                    run.map(|r| r.time.seconds).map_err(ServeError::Invalid)
                };
                let est_cost_s = [
                    match (&sharded, &self.fleet) {
                        (Some(sm), Some(fleet)) => sm.est_s(fleet.len()),
                        _ => f64::INFINITY, // rung disabled; never attempted
                    },
                    est(spaden.try_run(&self.gpu, &x0))?,
                    est(scalar.try_run(&self.gpu, &x0))?,
                    est(csr_eng.try_run(&self.gpu, &x0))?,
                ];
                (planned_ladder(&MatrixStats::of(csr), &self.gpu.config), est_cost_s)
            }
        };
        let batch = self.batch_plan(csr, est_cost_s[Rung::SpadenChecked as usize])?;
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
    pub(super) fn build_evolved(
        &mut self,
        ev: &EvolvingMatrix,
        reuse: Option<([Rung; 3], [f64; RUNGS])>,
    ) -> Result<(PreparedMatrix, Option<ShardedMatrix>), ServeError> {
        let spaden = SpadenEngine::try_from_parts(
            &self.gpu,
            ev.base().clone(),
            ev.base_sums().clone(),
            SpadenConfig::default(),
        )
        .map_err(ServeError::Invalid)?;
        let side = ev.delta().side().to_vec();
        let logical = (!side.is_empty()).then(|| ev.logical_sums().clone());
        self.build_snapshot(ev.csr(), spaden, side, logical, ev.epoch(), reuse)
    }

    /// Validates and registers a matrix: structural ingress check, all
    /// three rung engines prepared, checksums and per-rung cost estimates
    /// built. Malformed matrices are rejected with a typed error before
    /// any engine sees them.
    pub fn register(&mut self, csr: &Csr) -> Result<MatrixHandle, ServeError> {
        csr.validate()
            .map_err(|e| ServeError::Invalid(EngineError::Validation(e.to_string())))?;
        // The one bitBSR conversion of a registration; preparing from
        // the f32 source also runs the f16 conversion-hazard scan.
        let spaden =
            SpadenEngine::try_prepare(&self.gpu, csr).map_err(ServeError::Invalid)?;
        let (current, sharded) = self.build_snapshot(csr, spaden, Vec::new(), None, 0, None)?;
        self.matrices.push(MatrixEntry {
            current: Arc::new(current),
            sharded,
            evolving: None,
            fp: fingerprint(csr),
            store: None,
        });
        Ok(MatrixHandle(self.matrices.len() - 1))
    }

    /// [`SpmvServer::register`] plus an attached update lifecycle: the
    /// matrix accepts verified streaming updates through
    /// [`SpmvServer::update`], each commit publishing a new epoch.
    pub fn register_evolving(
        &mut self,
        csr: &Csr,
        config: EvolveConfig,
    ) -> Result<MatrixHandle, ServeError> {
        let h = self.register(csr)?;
        self.matrices[h.0].evolving = Some(Box::new(EvolvingMatrix::new(csr.clone(), config)));
        Ok(h)
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
        let old_fp = self.matrices[idx].fp;
        let (old_ladder, old_est) =
            (self.matrices[idx].current.ladder, self.matrices[idx].current.est_cost_s);
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

        // Fleet partition: a value-only update keeps the structure
        // digest, so the cached plan's block-row ranges and per-shard
        // estimates stay valid — only the checksums move, and those are
        // exact slices of the incrementally repaired logical sums
        // (bit-identical to a from-scratch build, see the evolve-layer
        // audit). Re-slice, insert under the new fingerprint, and let
        // the snapshot build's cached path hit. Structural updates
        // re-partition.
        let new_fp = fingerprint(ev.csr());
        let value_only = report.class == DeltaClass::ValueOnly;
        let mut partition_resliced = false;
        if let (Some(fleet), true) = (&self.fleet, value_only) {
            let nshards = fleet.len() * SHARDS_PER_DEVICE;
            let old_key = PartitionKey::new(&old_fp, &self.gpu.config, nshards);
            if let Some(plan) = self.partition_cache.get(&old_key) {
                let resliced = Arc::new(plan.resliced(ev.logical_sums()));
                let new_key = PartitionKey::new(&new_fp, &self.gpu.config, nshards);
                self.partition_cache.insert(new_key, resliced);
                partition_resliced = true;
            }
        }
        let repartitioned = self.fleet.is_some() && !value_only;

        // Build the new epoch's snapshot off to the side. Ladder order
        // and per-rung cost estimates depend only on the structure
        // (counter totals are value-independent), so a value-only update
        // reuses both; a structural one re-prices the new structure.
        let built = self.build_evolved(&ev, value_only.then_some((old_ladder, old_est)));
        // The evolve layer has committed either way. A failed build
        // leaves the previous snapshot serving and surfaces as a typed
        // error.
        let entry = &mut self.matrices[idx];
        entry.evolving = Some(ev);
        let (current, sharded) = built?;

        // Publish: swap the head snapshot. In-flight requests hold their
        // own Arc and finish on the epoch they were admitted on.
        entry.current = Arc::new(current);
        entry.sharded = sharded;
        entry.fp = new_fp;
        self.stats.updates += 1;
        Ok(UpdateOutcome { report, partition_resliced, repartitioned })
    }
}
