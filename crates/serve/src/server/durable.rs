//! Durability: write-ahead-logged registration, crash recovery, and
//! access to the attached store.

use super::{MatrixEntry, MatrixHandle, RecoveryReport, ServeError, SpmvServer};
use spaden::{EvolveConfig, EvolvingMatrix};
use spaden_plan::MatrixStats;
use spaden_sparse::csr::Csr;
use spaden_store::{recover, DurableStore, SnapshotPolicy, StoreImage};
use std::sync::Arc;

impl SpmvServer {
    /// [`SpmvServer::register_evolving`] plus crash-consistent
    /// durability: the matrix opens checkpointed at epoch 0, every
    /// committed batch is logged to the write-ahead log before serving
    /// moves on, and snapshots compact the log per `policy`. Serving
    /// behaviour is bit-identical to the non-durable registration — the
    /// store only observes commits.
    pub fn register_evolving_durable(
        &mut self,
        csr: &Csr,
        config: EvolveConfig,
        policy: SnapshotPolicy,
    ) -> Result<MatrixHandle, ServeError> {
        let h = self.register_evolving(csr, config)?;
        let ev = self.matrices[h.0].evolving.as_ref().expect("just attached");
        self.matrices[h.0].store = Some(Box::new(DurableStore::create(ev, policy)));
        Ok(h)
    }

    /// Recovers an evolving matrix from a crash image and registers it
    /// for serving: newest valid snapshot, verified replay of the log
    /// suffix, full engine rebuild from the recovered parts (base/side
    /// split preserved — the served f16 bits are the pre-crash bits,
    /// not a re-rounding), and a fresh checkpoint so the recovered
    /// server is immediately durable again. Degraded-but-successful
    /// recovery (corrupt tail truncated, snapshot fallback) reports the
    /// typed errors in the [`RecoveryReport`]; only the loss of every
    /// snapshot fails, with [`ServeError::Durability`].
    pub fn recover_evolving(
        &mut self,
        image: &StoreImage,
        policy: SnapshotPolicy,
    ) -> Result<(MatrixHandle, RecoveryReport), ServeError> {
        let outcome = recover(image).map_err(ServeError::Durability)?;
        let report = RecoveryReport {
            recovered_epoch: outcome.matrix.epoch(),
            snapshot_epoch: outcome.snapshot_epoch,
            used_slot: outcome.used_slot,
            fell_back: outcome.fell_back,
            snapshot_errors: outcome.snapshot_errors,
            replayed: outcome.replayed,
            duplicates_skipped: outcome.duplicates_skipped,
            tail_error: outcome.tail_error,
            wal_records_seen: outcome.wal_records_seen,
        };
        let h = self.install_recovered(Box::new(outcome.matrix), policy)?;
        Ok((h, report))
    }

    /// Registers a recovered matrix for serving. The snapshot is built
    /// by the same path a committed update uses, so the base bitBSR and
    /// side tail serve exactly the recovered bits.
    fn install_recovered(
        &mut self,
        ev: Box<EvolvingMatrix>,
        policy: SnapshotPolicy,
    ) -> Result<MatrixHandle, ServeError> {
        let stats = MatrixStats::of(ev.csr());
        let (current, sharded) = self.build_evolved(&ev, &stats, None)?;
        // Recovery ends with a checkpoint: a fresh store snapshotted at
        // the recovered epoch with an empty log, so a second crash
        // recovers from here with zero replay.
        let store = DurableStore::create(&ev, policy);
        self.matrices.push(MatrixEntry {
            current: Arc::new(current),
            sharded,
            stats,
            fp: None,
            evolving: Some(ev),
            store: Some(Box::new(store)),
        });
        Ok(MatrixHandle(self.matrices.len() - 1))
    }

    /// A byte-exact capture of an evolving matrix's durable state — the
    /// crash image recovery would see if the process died now. `None`
    /// for non-durable registrations.
    pub fn durable_image(&self, h: MatrixHandle) -> Option<StoreImage> {
        self.matrices.get(h.0).and_then(|e| e.store.as_ref()).map(|s| s.capture())
    }

    /// The durable store attached to an evolving matrix, for
    /// inspection (log size, snapshot size, counters). `None` for
    /// non-durable registrations.
    pub fn durable_store(&self, h: MatrixHandle) -> Option<&DurableStore> {
        self.matrices.get(h.0).and_then(|e| e.store.as_deref())
    }
}
