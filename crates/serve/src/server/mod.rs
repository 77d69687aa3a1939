//! The multi-engine SpMV request executor.
//!
//! Every request runs down a four-rung failover ladder until a rung
//! produces a *verified* result:
//!
//! 1. **Sharded** (when a device fleet is configured) — the matrix cut
//!    into nnz-balanced shards across N simulated devices
//!    ([`spaden_shard::ShardedMatrix`]), with per-shard ABFT
//!    verification, crash redistribution, hang timeouts, and straggler
//!    speculation.
//! 2. **Spaden checked** — the tensor-core kernel with ABFT
//!    verify-and-recompute ([`SpadenEngine::try_run_checked`]).
//! 3. **Spaden scalar recompute** — the full matrix on the CUDA-core
//!    bitBSR path ([`SpadenNoTcEngine`]), verified against the same f16
//!    ABFT checksums.
//! 4. **CSR baseline** — the cuSPARSE-style adaptive CSR kernel, verified
//!    against f32 block-row checksums ([`CsrChecksums`]).
//!
//! The three single-device rungs are ordered per matrix at registration
//! by the plan layer's cost model ([`spaden_plan::predict_time`]):
//! canonical strongest-verification-first order, with a lower rung
//! promoted only when predicted faster by a 1.25× margin. The
//! ABFT-checked rung is always retained, so every ladder keeps a
//! self-correcting path.
//!
//! A rung failure is always a *typed* [`EngineError`]; transient ones
//! (verification failures under fault injection) are retried with
//! exponential backoff before the ladder descends, permanent ones (shape,
//! format) reject the request immediately. The outcome invariant: every
//! request ends in a checksum-verified result or a typed [`ServeError`] —
//! never a silent wrong answer, never a hang.
//!
//! ## Time, deadlines, and the clock
//!
//! There is no wall clock anywhere: the server advances a simulated clock
//! by each kernel's modelled execution time (derived from the simulator's
//! cycle/op counters via `spaden_gpusim::estimate_time`), by retry
//! backoffs, and by a fixed per-request arrival tick. Deadlines are
//! budgets in simulated seconds: before each attempt the rung's estimated
//! cost (measured once at registration from a real run's counters) is
//! checked against the remaining budget, so a request never starts work
//! it cannot finish in time — it degrades to a cheaper rung or fails fast
//! with [`ServeError::DeadlineExceeded`]. Everything is deterministic and
//! reproducible, including breaker trips and recoveries.
//!
//! ## Evolving matrices and epochs
//!
//! A matrix registered through [`SpmvServer::register_evolving`] carries
//! an [`EvolvingMatrix`] update lifecycle. Each committed batch publishes
//! a new *epoch*: a fresh immutable `PreparedMatrix` snapshot swapped
//! in behind an [`Arc`]. Requests capture the snapshot at admission and
//! finish on it even if an update lands while they wait in queue — a
//! read can be at most one epoch stale (the one it was admitted on) and
//! can never observe a half-applied update. Updates never block reads:
//! [`SpmvServer::update`] builds and verifies the next epoch off to the
//! side and a failed verification rolls back by simply not swapping.
//! Between compactions the snapshot serves the *base* bitBSR on the
//! Spaden rungs plus a side-buffer tail of new-block entries, verified
//! against the repaired logical checksums; the sharded rung only runs
//! for requests admitted on the head epoch (its fleet partition tracks
//! the head), and stragglers fall to their captured single-device
//! ladder.

mod durable;
mod ladder;
mod open_loop;
mod snapshot;
#[cfg(test)]
mod tests;
mod types;

pub use types::{
    BatchConfig, MatrixHandle, OpenOutcome, OpenRequest, RecoveryReport, Request, Rung,
    ScheduledUpdate, ServeConfig, ServeError, ServeStats, ServedOk, UpdateOutcome, Weaken, RUNGS,
};

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::checksum::CsrChecksums;
use crate::overload::{OverloadController, OverloadStats};
use crate::queue::{AdmissionQueue, BoundedQueue, Priority, ShedCounters};
use spaden::{
    AbftChecksums, EvolveStats, EvolvingMatrix, SideEntry, SpadenEngine, SpadenNoTcEngine,
    SpadenSpmmEngine,
};
use spaden_baselines::CusparseCsrEngine;
use spaden_gpusim::{DeviceFaultConfig, Gpu, InjectionConfig};
use spaden_shard::{DeviceFleet, PartitionCache, PartitionCacheStats, ShardedMatrix};
use spaden_sparse::MatrixFingerprint;
#[cfg(doc)]
use spaden::engine::EngineError;
use spaden_store::DurableStore;
use std::sync::Arc;

/// One immutable epoch snapshot of a registered matrix: the
/// single-device ladder engines, the CSR-rung checksums, and per-rung
/// cost estimates for deadline admission (the sharded form lives in
/// `MatrixEntry::sharded` and only serves the head epoch). Snapshots are
/// shared behind an [`Arc`]: requests capture one at admission and
/// finish on it even if an update publishes a newer epoch meanwhile.
/// Built only by `SpmvServer::build_snapshot`.
struct PreparedMatrix {
    nrows: usize,
    ncols: usize,
    spaden: SpadenEngine,
    scalar: SpadenNoTcEngine,
    csr: CusparseCsrEngine,
    sums: CsrChecksums,
    /// Simulated seconds of one clean run per rung, measured from real
    /// launch counters at registration. Failed attempts are charged this
    /// much; deadline admission checks it against the remaining budget.
    est_cost_s: [f64; RUNGS],
    /// Planner-ordered single-device rungs for this matrix (the sharded
    /// rung, when configured, always goes first).
    ladder: [Rung; 3],
    /// Epoch this snapshot serves (0 = as registered).
    epoch: u64,
    /// New-block entries not yet compacted into the base bitBSR. The
    /// Spaden rungs add their products as a tail after the base kernel;
    /// the CSR rung's engine already holds the full logical matrix.
    side: Vec<SideEntry>,
    /// Checksums of the full logical matrix; present exactly when
    /// `side` is non-empty (they verify the base-plus-tail output).
    logical: Option<AbftChecksums>,
    /// Batched-serving plan; present exactly when
    /// [`BatchConfig::enabled`] — a disabled config never prepares the
    /// SpMM engine, keeping registration bit-identical to the
    /// per-request server.
    batch: Option<BatchPlan>,
}

/// The per-epoch batched-serving plan: the SpMM engine over the *full
/// logical* matrix (side entries included, so a sweep needs no tail),
/// predicted sweep costs per width, and the cached SpMV-vs-SpMM
/// crossover decision.
struct BatchPlan {
    spmm: SpadenSpmmEngine,
    /// Predicted seconds of one sweep at width `w` (index `w - 1`,
    /// lengths `1..=max_width`), from the plan layer's SpMM cost model.
    cost_s: Vec<f64>,
    /// Smallest width at which one sweep is predicted cheaper than that
    /// many per-request SpMV rungs; `usize::MAX` when batching never
    /// wins within `max_width` (the window then always serves
    /// per-request).
    crossover: usize,
}

/// A registered matrix slot: the head snapshot served to new requests,
/// the optional update lifecycle, and the head's content fingerprint
/// (the partition-cache key for value-only plan reslicing).
struct MatrixEntry {
    current: Arc<PreparedMatrix>,
    /// Sharded form of the *head epoch*; `None` when no fleet is
    /// configured.
    sharded: Option<ShardedMatrix>,
    evolving: Option<Box<EvolvingMatrix>>,
    fp: MatrixFingerprint,
    /// Crash-consistent durability, attached by
    /// [`SpmvServer::register_evolving_durable`]. `None` (the default)
    /// keeps the serving path byte-for-byte identical to a server
    /// without the storage subsystem.
    store: Option<Box<DurableStore>>,
}

/// The resilient SpMV server.
///
/// Owns the simulated GPU, the registered matrices, the admission queue,
/// the optional device fleet of the sharded rung, and one circuit
/// breaker per ladder rung (an engine's health is global across
/// matrices — a sick tensor-core path is sick for everyone).
pub struct SpmvServer {
    gpu: Gpu,
    config: ServeConfig,
    matrices: Vec<MatrixEntry>,
    /// The sharded rung's devices; `None` disables the rung.
    fleet: Option<DeviceFleet>,
    /// Fingerprint-keyed partition plans: re-registering a matrix the
    /// fleet has already partitioned skips the balance pass and the
    /// per-shard staging runs.
    partition_cache: PartitionCache,
    breakers: [CircuitBreaker; RUNGS],
    queue: BoundedQueue<(usize, Request)>,
    /// Open-loop admission queue (priority classes, expiry at dequeue).
    open_queue: AdmissionQueue<OpenSlot>,
    /// Adaptive limit + brownout ladder over the open-loop path.
    overload: OverloadController,
    stats: ServeStats,
    clock_s: f64,
}

/// One queued open-loop request. The matrix snapshot is captured at
/// admission — the request finishes on its admitted epoch no matter how
/// many updates publish while it waits.
struct OpenSlot {
    index: usize,
    request: Request,
    priority: Priority,
    arrival_s: f64,
    budget_s: f64,
    state: Option<Arc<PreparedMatrix>>,
    epoch: u64,
}

impl SpmvServer {
    /// A server over `gpu` with the given policy.
    pub fn new(gpu: Gpu, config: ServeConfig) -> Self {
        let breakers = [0; RUNGS].map(|_| CircuitBreaker::new(BreakerConfig::default()));
        let queue = BoundedQueue::new(config.queue_capacity);
        let fleet = (config.shard_devices > 0).then(|| {
            DeviceFleet::new(config.shard_devices, &gpu.config, DeviceFaultConfig::disabled())
        });
        let open_queue = AdmissionQueue::new(config.queue_capacity);
        let overload = OverloadController::new(config.overload);
        SpmvServer {
            gpu,
            config,
            matrices: Vec::new(),
            fleet,
            partition_cache: PartitionCache::default(),
            breakers,
            queue,
            open_queue,
            overload,
            stats: ServeStats::default(),
            clock_s: 0.0,
        }
    }

    /// The simulated GPU requests run on.
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// Atomically applies all three injection planes — kernel bit
    /// faults, device failure processes, sanitizer arming — at one
    /// simulated-time boundary (fault bursts start and stop on a live
    /// server). Bit faults reach the single-device ladder and every
    /// fleet device (each re-derives its own seed); device faults reach
    /// the fleet, when one is configured.
    pub fn set_injection(&mut self, inj: &InjectionConfig) {
        self.gpu.config.san = inj.san;
        self.gpu.config.faults = inj.faults;
        if let Some(fleet) = &mut self.fleet {
            fleet.set_bit_faults(inj.faults);
            fleet.set_faults(inj.device);
        }
    }

    /// The sharded rung's fleet, when one is configured.
    pub fn fleet(&self) -> Option<&DeviceFleet> {
        self.fleet.as_ref()
    }

    /// Operator kill switch for one fleet device (chaos harness: kill a
    /// device mid-batch). No-op without a fleet.
    pub fn kill_device(&mut self, id: usize) {
        if let Some(fleet) = &mut self.fleet {
            fleet.kill(id);
        }
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The breaker guarding one ladder rung.
    pub fn breaker(&self, rung: Rung) -> &CircuitBreaker {
        &self.breakers[rung as usize]
    }

    /// Breaker trips and recoveries summed over all rungs.
    pub fn breaker_totals(&self) -> (u64, u64) {
        self.breakers.iter().fold((0, 0), |(t, r), b| (t + b.trips, r + b.recoveries))
    }

    /// Operator kill switch: forces `rung`'s breaker open now, draining
    /// traffic to the lower rungs. The rung comes back through the normal
    /// cooldown → half-open probe path (re-tripped each probe interval if
    /// it is still failing).
    pub fn trip_rung(&mut self, rung: Rung) {
        self.breakers[rung as usize].force_open(self.clock_s);
    }

    /// Current simulated time.
    pub fn clock_s(&self) -> f64 {
        self.clock_s
    }

    /// Output dimension of a registered matrix.
    pub fn nrows(&self, h: MatrixHandle) -> Option<usize> {
        self.matrices.get(h.0).map(|e| e.current.nrows)
    }

    /// Required input dimension of a registered matrix.
    pub fn ncols(&self, h: MatrixHandle) -> Option<usize> {
        self.matrices.get(h.0).map(|e| e.current.ncols)
    }

    /// The planner-ordered single-device ladder for a registered matrix
    /// (the sharded rung, when configured, always precedes these).
    pub fn ladder(&self, h: MatrixHandle) -> Option<[Rung; 3]> {
        self.matrices.get(h.0).map(|e| e.current.ladder)
    }

    /// Head epoch of a registered matrix (0 until its first committed
    /// update).
    pub fn epoch(&self, h: MatrixHandle) -> Option<u64> {
        self.matrices.get(h.0).map(|e| e.current.epoch)
    }

    /// Content fingerprint of a registered matrix's head epoch.
    pub fn fingerprint_of(&self, h: MatrixHandle) -> Option<MatrixFingerprint> {
        self.matrices.get(h.0).map(|e| e.fp)
    }

    /// Update-lifecycle counters of an evolving matrix (`None` for
    /// unknown handles and matrices registered without a lifecycle).
    pub fn evolve_stats(&self, h: MatrixHandle) -> Option<EvolveStats> {
        self.matrices.get(h.0).and_then(|e| e.evolving.as_ref()).map(|ev| ev.stats())
    }

    /// Hit/miss counters of the sharded rung's partition-plan cache.
    pub fn partition_cache_stats(&self) -> PartitionCacheStats {
        self.partition_cache.stats()
    }

    /// Shed counters of the open-loop admission queue (expired at
    /// dequeue, priority-evicted, rejected full/limit).
    pub fn shed_counters(&self) -> ShedCounters {
        self.open_queue.counters()
    }

    /// Counters and state of the overload controller.
    pub fn overload_stats(&self) -> OverloadStats {
        self.overload.stats()
    }

    /// The overload controller's current admission limit and brownout
    /// mode (diagnostics for reports).
    pub fn overload_state(&self) -> (usize, crate::overload::BrownoutMode) {
        (self.overload.limit(), self.overload.mode())
    }
}
