//! Epoch-versioned evolving matrices: the verified update lifecycle.
//!
//! An [`EvolvingMatrix`] owns three mutually-checking representations of
//! one logical matrix — the CSR **truth** (f32, update oracle), the
//! [`DeltaBitBsr`] the kernels serve from, and the ABFT checksums
//! (logical and base-only) repaired **incrementally** on touched
//! block-rows only. Every update batch moves the matrix one *epoch*
//! forward through a build-next-state-then-commit transaction:
//!
//! 1. apply the batch to the CSR truth and (separately) to the delta
//!    format, classifying it value-only vs structural;
//! 2. repair both checksum sets on the touched block-rows;
//! 3. cross-check the touched block-rows' stored f16 bits against the
//!    CSR truth — this is what catches a corrupted splice (an injected
//!    [`UpdateFault`], a host bit flip), because the checksum repair
//!    *reads* the corrupted value and would otherwise agree with it;
//! 4. if the side buffer crossed the compaction threshold, compact and
//!    verify the result **bit-identical** to [`BitBsr::from_csr`] of the
//!    truth;
//! 5. optionally audit: full checksum recomputation compared `==`
//!    (f64-exact) against the incrementally-repaired sums;
//! 6. only then commit and bump the epoch. Any failure returns a typed
//!    [`UpdateError`] and leaves the previous epoch untouched — rollback
//!    is the *absence of a commit*, so a bad epoch can never be
//!    published, observed, or partially applied.

use crate::abft::AbftChecksums;
use crate::bitbsr::BitBsr;
use crate::delta::{ApplyStats, DeltaBitBsr, UpdateFault};
use spaden_sparse::delta::{apply_to_csr, classify, DeltaBatch, DeltaClass, UpdateError};
use spaden_sparse::stats::{block_rows_profile, BlockProfile};
use spaden_sparse::Csr;

/// Tuning knobs of the update lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvolveConfig {
    /// Hard capacity of the new-block side buffer; a batch that would
    /// exceed it is rejected whole.
    pub side_capacity: usize,
    /// Side-buffer occupancy that triggers compaction after a commit-
    /// ready batch (threshold ≤ capacity; 1 = compact on every new
    /// block).
    pub compact_threshold: usize,
    /// Audit mode: after every update, recompute both checksum sets from
    /// scratch and require them `==` the incrementally repaired ones.
    pub audit: bool,
}

impl Default for EvolveConfig {
    fn default() -> Self {
        EvolveConfig { side_capacity: 4096, compact_threshold: 256, audit: false }
    }
}

/// Lifetime counters of one [`EvolvingMatrix`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvolveStats {
    /// Committed update batches (== current epoch).
    pub updates: u64,
    /// Batches rejected by post-update verification or compaction
    /// mismatch — the epoch rolled back.
    pub rollbacks: u64,
    /// Compactions performed (each one verified bit-identical).
    pub compactions: u64,
    /// Committed batches that changed the sparsity structure.
    pub structural_batches: u64,
    /// Committed batches that only overwrote existing values.
    pub value_only_batches: u64,
    /// Full-recompute audits that ran (and passed).
    pub audits: u64,
}

/// What one committed update did — returned by [`EvolvingMatrix::apply`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateReport {
    /// Epoch the commit produced (first commit ⇒ 1).
    pub epoch: u64,
    /// Value-only or structural, per the pre-update truth.
    pub class: DeltaClass,
    /// Where the deltas landed.
    pub apply: ApplyStats,
    /// Whether this commit ended in a (verified) compaction.
    pub compacted: bool,
    /// Block-rows whose checksums were incrementally repaired.
    pub touched_block_rows: usize,
    /// For a structural commit, the block profile its touched block-rows
    /// had before it: what a matrix-wide profile carried across commits
    /// takes out before adding theirs after it. `None` for a value-only
    /// commit, which keeps every block.
    pub replaced_profile: Option<BlockProfile>,
}

/// Typed failure of [`EvolvingMatrix::from_parts`] — the verified
/// restore path the durability layer recovers through. Every variant
/// means the parts were rejected whole; no partially restored matrix
/// ever exists.
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreError {
    /// The parts are dimensionally or structurally inconsistent (a
    /// decoded-but-wrong snapshot).
    Structural(String),
    /// The stored f16 bits disagree with the CSR truth in `block_rows`
    /// block-rows — the snapshot carries a corrupted value.
    Verification {
        /// The epoch the parts claim.
        epoch: u64,
        /// Disagreeing block-rows.
        block_rows: usize,
    },
    /// A restored checksum set is not `==` (f64-exact) to a from-scratch
    /// build of the restored format.
    ChecksumMismatch {
        /// The epoch the parts claim.
        epoch: u64,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Structural(s) => write!(f, "restore rejected: {s}"),
            RestoreError::Verification { epoch, block_rows } => write!(
                f,
                "restore of epoch {epoch} rejected: {block_rows} block-row(s) disagree with the truth"
            ),
            RestoreError::ChecksumMismatch { epoch } => {
                write!(f, "restore of epoch {epoch} rejected: checksums not f64-exact")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// An epoch-versioned matrix that accepts verified streaming updates.
#[derive(Debug, Clone)]
pub struct EvolvingMatrix {
    csr: Csr,
    delta: DeltaBitBsr,
    /// Checksums of the logical matrix (base + side) — verify served
    /// results that include the side-buffer tail.
    logical: AbftChecksums,
    /// Checksums of the base format only — what a tensor-core engine
    /// built from the base via `try_from_parts` verifies against.
    base_sums: AbftChecksums,
    epoch: u64,
    config: EvolveConfig,
    stats: EvolveStats,
}

impl EvolvingMatrix {
    /// Wraps a validated CSR matrix at epoch 0.
    pub fn new(csr: Csr, config: EvolveConfig) -> Self {
        let config = EvolveConfig {
            side_capacity: config.side_capacity.max(1),
            compact_threshold: config.compact_threshold.clamp(1, config.side_capacity.max(1)),
            audit: config.audit,
        };
        let delta = DeltaBitBsr::new(BitBsr::from_csr(&csr), config.side_capacity);
        let logical = AbftChecksums::build_logical(&delta);
        let base_sums = logical.clone(); // empty side ⇒ logical == base
        EvolvingMatrix { csr, delta, logical, base_sums, epoch: 0, config, stats: EvolveStats::default() }
    }

    /// Reassembles an evolving matrix from restored parts, trusting
    /// nothing: the CSR truth is re-validated, every block-row's stored
    /// f16 bits are cross-checked against it (the same check a commit
    /// runs on touched block-rows, here over the whole matrix), and both
    /// checksum sets must be `==` (f64-exact) to from-scratch builds.
    /// This is the durability layer's recovery gate — a corrupted
    /// snapshot is rejected with a typed [`RestoreError`] instead of
    /// ever serving.
    pub fn from_parts(
        csr: Csr,
        delta: DeltaBitBsr,
        logical: AbftChecksums,
        base_sums: AbftChecksums,
        epoch: u64,
        config: EvolveConfig,
        stats: EvolveStats,
    ) -> Result<Self, RestoreError> {
        csr.validate()
            .map_err(|e| RestoreError::Structural(format!("restored truth invalid: {e}")))?;
        let base = delta.base();
        if csr.nrows != base.nrows || csr.ncols != base.ncols {
            return Err(RestoreError::Structural(format!(
                "truth is {}x{} but format is {}x{}",
                csr.nrows, csr.ncols, base.nrows, base.ncols
            )));
        }
        let config = EvolveConfig {
            side_capacity: config.side_capacity.max(1),
            compact_threshold: config.compact_threshold.clamp(1, config.side_capacity.max(1)),
            audit: config.audit,
        };
        if delta.side_capacity() != config.side_capacity {
            return Err(RestoreError::Structural(format!(
                "format capacity {} != configured capacity {}",
                delta.side_capacity(),
                config.side_capacity
            )));
        }
        if stats.updates != epoch {
            return Err(RestoreError::Structural(format!(
                "stats claim {} commits but the epoch is {epoch}",
                stats.updates
            )));
        }
        let all: Vec<usize> = (0..base.block_rows).collect();
        let bad = delta.verify_touched(&csr, &all);
        if bad > 0 {
            return Err(RestoreError::Verification { epoch, block_rows: bad });
        }
        if logical != AbftChecksums::build_logical(&delta)
            || base_sums != AbftChecksums::build(delta.base())
        {
            return Err(RestoreError::ChecksumMismatch { epoch });
        }
        Ok(EvolvingMatrix { csr, delta, logical, base_sums, epoch, config, stats })
    }

    /// Applies one batch as a build-then-commit transaction. On any
    /// error the matrix is untouched — same epoch, same truth, same
    /// format, same checksums (rollback by non-commit).
    pub fn apply(
        &mut self,
        batch: &DeltaBatch,
        fault: Option<UpdateFault>,
    ) -> Result<UpdateReport, UpdateError> {
        // Bounds-checks the batch against this matrix before anything
        // indexes by its positions.
        let next_csr = apply_to_csr(&self.csr, batch)?;
        let class = classify(&self.csr, batch);
        let mut next_delta = self.delta.clone();
        let apply = next_delta.apply(batch, fault)?;
        let touched = batch.touched_block_rows();
        let mut next_logical = self.logical.clone();
        next_logical.repair_block_rows(&next_delta, &touched);
        let mut next_base = self.base_sums.clone();
        next_base.repair_block_rows_base(next_delta.base(), &touched);
        // Post-update verification: stored f16 bits vs the CSR truth on
        // every touched block-row. The checksum repair alone cannot catch
        // a corrupted splice — it faithfully checksums the corrupt value.
        let bad = next_delta.verify_touched(&next_csr, &touched);
        if bad > 0 {
            self.stats.rollbacks += 1;
            return Err(UpdateError::VerificationFailed { epoch: self.epoch, block_rows: bad });
        }
        let mut compacted = false;
        if next_delta.side_len() >= self.config.compact_threshold {
            next_delta.compact();
            if *next_delta.base() != BitBsr::from_csr(&next_csr) {
                self.stats.rollbacks += 1;
                return Err(UpdateError::CompactionMismatch { epoch: self.epoch });
            }
            // Empty side ⇒ the logical checksums are the base checksums,
            // and both repaired sets are (provably, see audit) exactly the
            // from-scratch builds.
            next_base = next_logical.clone();
            compacted = true;
        }
        if self.config.audit {
            let full_logical = AbftChecksums::build_logical(&next_delta);
            let full_base = AbftChecksums::build(next_delta.base());
            if next_logical != full_logical || next_base != full_base {
                self.stats.rollbacks += 1;
                return Err(UpdateError::VerificationFailed {
                    epoch: self.epoch,
                    block_rows: touched.len(),
                });
            }
            self.stats.audits += 1;
        }
        let replaced_profile = matches!(class, DeltaClass::Structural)
            .then(|| block_rows_profile(&self.csr, touched.iter().copied()));
        // Commit.
        self.csr = next_csr;
        self.delta = next_delta;
        self.logical = next_logical;
        self.base_sums = next_base;
        self.epoch += 1;
        self.stats.updates += 1;
        if compacted {
            self.stats.compactions += 1;
        }
        match class {
            DeltaClass::ValueOnly => self.stats.value_only_batches += 1,
            DeltaClass::Structural => self.stats.structural_batches += 1,
        }
        Ok(UpdateReport {
            epoch: self.epoch,
            class,
            apply,
            compacted,
            touched_block_rows: touched.len(),
            replaced_profile,
        })
    }

    /// The CSR truth at the current epoch.
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// The delta format at the current epoch.
    pub fn delta(&self) -> &DeltaBitBsr {
        &self.delta
    }

    /// The base bitBSR the kernels run on.
    pub fn base(&self) -> &BitBsr {
        self.delta.base()
    }

    /// Checksums of the logical matrix (base + side tail).
    pub fn logical_sums(&self) -> &AbftChecksums {
        &self.logical
    }

    /// Checksums of the base format only.
    pub fn base_sums(&self) -> &AbftChecksums {
        &self.base_sums
    }

    /// Current epoch (0 = as registered, +1 per committed batch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Lifetime counters.
    pub fn stats(&self) -> EvolveStats {
        self.stats
    }

    /// The lifecycle configuration (thresholds clamped at construction).
    pub fn config(&self) -> EvolveConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spaden_sparse::delta::Delta;
    use spaden_sparse::{gen, Pcg64};

    fn random_batch(csr: &Csr, rng: &mut Pcg64, k: usize) -> DeltaBatch {
        let mut deltas = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        while deltas.len() < k {
            let row = rng.below_usize(csr.nrows) as u32;
            let col = rng.below_usize(csr.ncols) as u32;
            if seen.insert((row, col)) {
                deltas.push(Delta { row, col, value: rng.range_f32(-3.0, 3.0) });
            }
        }
        DeltaBatch::new(deltas, csr.nrows, csr.ncols).unwrap()
    }

    #[test]
    fn audited_update_stream_commits_and_compacts() {
        // Sparse enough that random deltas regularly open new blocks.
        let csr = gen::random_uniform(80, 80, 150, 42);
        let mut m = EvolvingMatrix::new(
            csr,
            EvolveConfig { side_capacity: 64, compact_threshold: 4, audit: true },
        );
        let mut rng = Pcg64::new(3, 14);
        for i in 0..10 {
            let b = random_batch(m.csr(), &mut rng, 11);
            let report = m.apply(&b, None).expect("clean update must commit");
            assert_eq!(report.epoch, i + 1);
        }
        let st = m.stats();
        assert_eq!(st.updates, 10);
        assert_eq!(st.rollbacks, 0);
        assert_eq!(st.audits, 10);
        assert!(st.compactions >= 1, "threshold 4 must trigger at least one compaction");
        assert_eq!(m.epoch(), 10);
        // Final state is globally consistent.
        assert_eq!(m.delta().verify_touched(m.csr(), &(0..m.base().block_rows).collect::<Vec<_>>()), 0);
    }

    #[test]
    fn injected_fault_rolls_the_epoch_back() {
        let csr = gen::random_uniform(64, 64, 500, 77);
        let mut m = EvolvingMatrix::new(csr, EvolveConfig { audit: true, ..Default::default() });
        let mut rng = Pcg64::new(8, 1);
        let good = random_batch(m.csr(), &mut rng, 7);
        m.apply(&good, None).unwrap();
        let before = (m.epoch(), m.csr().clone(), m.delta().clone());
        let bad = random_batch(m.csr(), &mut rng, 7);
        let err = m
            .apply(&bad, Some(UpdateFault { delta_index: 2, bit: 11 }))
            .expect_err("corrupted splice must be rejected");
        assert!(matches!(err, UpdateError::VerificationFailed { epoch: 1, .. }), "{err:?}");
        assert_eq!(m.epoch(), before.0, "epoch must not advance");
        assert_eq!(*m.csr(), before.1, "truth must be untouched");
        assert_eq!(*m.delta(), before.2, "format must be untouched");
        assert_eq!(m.stats().rollbacks, 1);
        // The same batch without the fault commits fine afterwards.
        m.apply(&bad, None).unwrap();
        assert_eq!(m.epoch(), 2);
    }

    #[test]
    fn value_only_and_structural_batches_are_classified() {
        let csr = gen::random_uniform(48, 48, 300, 5);
        let mut m = EvolvingMatrix::new(csr, EvolveConfig { audit: true, ..Default::default() });
        let (cols, _) = m.csr().row(0);
        let c0 = cols[0];
        let r = m
            .apply(&DeltaBatch::new(vec![Delta { row: 0, col: c0, value: 9.0 }], 48, 48).unwrap(), None)
            .unwrap();
        assert_eq!(r.class, DeltaClass::ValueOnly);
        assert_eq!(r.replaced_profile, None);
        // An entry at a position CSR row 0 does not have.
        let missing = (0..48u32).find(|c| !m.csr().row(0).0.contains(c)).unwrap();
        let old_profile = block_rows_profile(m.csr(), [0]);
        let r = m
            .apply(
                &DeltaBatch::new(vec![Delta { row: 0, col: missing, value: 1.0 }], 48, 48).unwrap(),
                None,
            )
            .unwrap();
        assert_eq!(r.class, DeltaClass::Structural);
        assert_eq!(r.replaced_profile, Some(old_profile));
        let st = m.stats();
        assert_eq!((st.value_only_batches, st.structural_batches), (1, 1));
    }

    #[test]
    fn from_parts_roundtrips_a_live_matrix_exactly() {
        let csr = gen::random_uniform(72, 72, 400, 33);
        let mut m = EvolvingMatrix::new(
            csr,
            EvolveConfig { side_capacity: 128, compact_threshold: 16, audit: false },
        );
        let mut rng = Pcg64::new(4, 4);
        for _ in 0..5 {
            let b = random_batch(m.csr(), &mut rng, 9);
            m.apply(&b, None).unwrap();
        }
        let restored = EvolvingMatrix::from_parts(
            m.csr().clone(),
            m.delta().clone(),
            m.logical_sums().clone(),
            m.base_sums().clone(),
            m.epoch(),
            m.config(),
            m.stats(),
        )
        .expect("a live matrix's own parts restore");
        assert_eq!(*restored.csr(), *m.csr());
        assert_eq!(*restored.delta(), *m.delta());
        assert_eq!(*restored.logical_sums(), *m.logical_sums());
        assert_eq!(*restored.base_sums(), *m.base_sums());
        assert_eq!(restored.epoch(), m.epoch());
        assert_eq!(restored.stats(), m.stats());
        // The restored matrix keeps evolving identically to the original.
        let b = random_batch(m.csr(), &mut Pcg64::new(6, 6), 7);
        let mut r2 = restored;
        let (ra, rb) = (m.apply(&b, None).unwrap(), r2.apply(&b, None).unwrap());
        assert_eq!(ra, rb);
        assert_eq!(*m.delta(), *r2.delta());
    }

    #[test]
    fn from_parts_rejects_corrupted_parts_typed() {
        let csr = gen::random_uniform(64, 64, 300, 55);
        let m = EvolvingMatrix::new(csr, EvolveConfig::default());
        // A flipped stored value bit: verification failure.
        let mut delta = m.delta().clone();
        let mut base = delta.base().clone();
        base.values[0] = spaden_gpusim::half::F16(base.values[0].0 ^ 0x0200);
        delta = DeltaBitBsr::from_parts(base, delta.side().to_vec(), delta.side_capacity())
            .expect("structure still valid");
        let err = EvolvingMatrix::from_parts(
            m.csr().clone(),
            delta,
            m.logical_sums().clone(),
            m.base_sums().clone(),
            m.epoch(),
            m.config(),
            m.stats(),
        )
        .unwrap_err();
        assert!(matches!(err, crate::evolve::RestoreError::Verification { .. }), "{err:?}");
        // Checksums from a different matrix: checksum mismatch. Perturb a
        // sum via raw-parts rebuild.
        let parts = m.logical_sums().raw_parts();
        let mut sums = parts.sums.to_vec();
        if let Some(s) = sums.first_mut() {
            *s += 1.0;
        }
        let wrong = AbftChecksums::from_raw_parts(
            parts.nrows,
            parts.ncols,
            parts.ptr.to_vec(),
            parts.cols.to_vec(),
            sums,
            parts.wsums.to_vec(),
            parts.abs.to_vec(),
            parts.nnz_br.to_vec(),
        )
        .expect("structurally valid");
        let err = EvolvingMatrix::from_parts(
            m.csr().clone(),
            m.delta().clone(),
            wrong,
            m.base_sums().clone(),
            m.epoch(),
            m.config(),
            m.stats(),
        )
        .unwrap_err();
        assert!(matches!(err, crate::evolve::RestoreError::ChecksumMismatch { .. }), "{err:?}");
        // Stats disagreeing with the epoch: structural rejection.
        let err = EvolvingMatrix::from_parts(
            m.csr().clone(),
            m.delta().clone(),
            m.logical_sums().clone(),
            m.base_sums().clone(),
            3,
            m.config(),
            m.stats(),
        )
        .unwrap_err();
        assert!(matches!(err, crate::evolve::RestoreError::Structural(_)), "{err:?}");
    }

    #[test]
    fn overflow_rejection_leaves_epoch_intact() {
        let csr = gen::random_uniform(64, 64, 200, 9);
        let mut m = EvolvingMatrix::new(
            csr,
            EvolveConfig { side_capacity: 1, compact_threshold: 1, audit: true },
        );
        // Capacity 1 with threshold 1: single new-block inserts commit (and
        // immediately compact); a batch needing two side slots is rejected.
        let mut deltas = Vec::new();
        'outer: for row in 0..64u32 {
            for col in 0..64u32 {
                let (cols, _) = m.csr().row(row as usize);
                let br_lo = row / 8 * 8;
                let block_present = (0..8).any(|dr| {
                    let (c2, _) = m.csr().row((br_lo + dr) as usize);
                    c2.iter().any(|c| c / 8 == col / 8)
                });
                let _ = cols;
                if !block_present {
                    deltas.push(Delta { row, col: col / 8 * 8, value: 1.0 });
                    deltas.push(Delta { row, col: col / 8 * 8 + 1, value: 2.0 });
                    break 'outer;
                }
            }
        }
        assert_eq!(deltas.len(), 2, "fixture must find an absent block");
        let b = DeltaBatch::new(deltas, 64, 64).unwrap();
        let err = m.apply(&b, None).unwrap_err();
        assert!(matches!(err, UpdateError::SideBufferOverflow { .. }), "{err:?}");
        assert_eq!(m.epoch(), 0);
    }
}
