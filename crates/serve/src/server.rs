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
//! a new *epoch*: a fresh immutable [`PreparedMatrix`] snapshot swapped
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

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::checksum::CsrChecksums;
use crate::overload::{percentile, OverloadConfig, OverloadController, OverloadStats};
use crate::queue::{
    AdmissionQueue, BoundedQueue, Dequeued, Priority, PushOutcome, ShedCounters, ShedReason,
};
use spaden::engine::{EngineError, SpmvRun};
use spaden::{
    AbftChecksums, EvolveConfig, EvolveStats, EvolvingMatrix, SideEntry, SpadenConfig,
    SpadenEngine, SpadenNoTcEngine, SpadenSpmmEngine, SpmvEngine, UpdateFault, UpdateReport,
};
use spaden_baselines::CusparseCsrEngine;
use spaden_gpusim::half::F16;
use spaden_gpusim::{DeviceFaultConfig, Gpu, GpuConfig, InjectionConfig};
use spaden_plan::{predict_spmm_time, predict_time, EngineKind, MatrixStats};
use spaden_shard::{
    DeviceFleet, PartitionCache, PartitionCacheStats, PartitionKey, ShardError, ShardPolicy,
    ShardedMatrix,
};
use spaden_sparse::csr::Csr;
use spaden_sparse::delta::{DeltaBatch, DeltaClass, UpdateError};
use spaden_sparse::dense::Dense;
use spaden_sparse::{fingerprint, MatrixFingerprint};
use spaden_store::{recover, DurableStore, SnapshotPolicy, StoreImage, WalError};
use std::sync::Arc;

/// The failover ladder, strongest (fastest, self-correcting) rung first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// Multi-device sharded Spaden with crash/hang/straggler recovery.
    /// Skipped (without counting) when no fleet is configured.
    Sharded = 0,
    /// ABFT-checked tensor-core Spaden.
    SpadenChecked = 1,
    /// Full-matrix scalar recompute on the bitBSR CUDA-core path.
    SpadenScalar = 2,
    /// cuSPARSE-style CSR baseline with f32 checksums.
    CsrBaseline = 3,
}

/// Number of ladder rungs.
pub const RUNGS: usize = 4;

impl Rung {
    /// Ladder order, top to bottom.
    pub const ALL: [Rung; RUNGS] =
        [Rung::Sharded, Rung::SpadenChecked, Rung::SpadenScalar, Rung::CsrBaseline];

    /// Display name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Rung::Sharded => "sharded",
            Rung::SpadenChecked => "spaden-checked",
            Rung::SpadenScalar => "spaden-scalar",
            Rung::CsrBaseline => "csr-baseline",
        }
    }

    /// The registry engine backing a single-device rung (what the cost
    /// model prices when ordering the ladder).
    fn engine_kind(&self) -> EngineKind {
        match self {
            Rung::Sharded => EngineKind::Spaden, // per-device kernel
            Rung::SpadenChecked => EngineKind::Spaden,
            Rung::SpadenScalar => EngineKind::SpadenNoTc,
            Rung::CsrBaseline => EngineKind::CusparseCsr,
        }
    }
}

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

/// Policy of the open-loop batching window: coalescing queued requests
/// that share a matrix snapshot into one verified SpMM sweep.
///
/// Disabled by default — with `enabled == false` the open-loop path is
/// byte-for-byte the per-request server (no SpMM engine is even
/// prepared), so existing behaviour is bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchConfig {
    /// Master switch for the batched serving path.
    pub enabled: bool,
    /// Most requests coalesced into one sweep (clamped to ≥ 1). Widths
    /// within one 8-wide output tile cost the same MMAs, so 8 is the
    /// sweet spot on the evaluation corpus.
    pub max_width: usize,
    /// How long past a request's arrival the dequeue may *hold* it to
    /// wait for batchmates. Holding is bounded by this window and by the
    /// head's deadline — the window never turns a servable request into
    /// an expired one.
    pub window_s: f64,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { enabled: false, max_width: 8, window_s: 20e-6 }
    }
}

impl BatchConfig {
    /// Batching enabled with the default width and window.
    pub fn on() -> Self {
        BatchConfig { enabled: true, ..BatchConfig::default() }
    }
}

/// Test-only weakening hooks for the chaos orchestrator's
/// catch-the-bug demonstration: each variant disables exactly one
/// verification step so the global invariant oracle can prove it would
/// notice. Production configs must always use [`Weaken::None`] — the
/// other variants exist to be caught.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Weaken {
    /// All verification intact (the only sound configuration).
    #[default]
    None,
    /// Skip the f32 checksum verification on the CSR baseline rung, so
    /// a corrupted bottom-rung result is served as if verified.
    SkipCsrVerify,
}

/// Attempts per ladder rung (1 = no retry) before the ladder descends.
const ATTEMPTS_PER_RUNG: u32 = 2;
/// First retry backoff (simulated seconds); doubles per subsequent
/// retry on the same rung.
const BACKOFF_BASE_S: f64 = 1e-6;
/// Simulated inter-arrival tick added per served request. Keeps the
/// clock advancing even when every rung is skipped, so open breakers
/// always cool down eventually (the breaker cooldown is sized to it).
const ARRIVAL_INTERVAL_S: f64 = 3e-6;
/// Shards requested per fleet device when a registered matrix is
/// partitioned for the sharded rung.
const SHARDS_PER_DEVICE: usize = 2;

/// Serving policy knobs. All times are simulated seconds.
///
/// Per-rung breakers use [`BreakerConfig::default`] and the sharded
/// rung's scheduler [`ShardPolicy::default`]; its fleet starts without
/// device faults ([`SpmvServer::set_injection`] arms them).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission-queue capacity; a batch overflowing it is rejected with
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Deadline budget for requests that do not carry their own.
    pub default_deadline_s: f64,
    /// Devices in the sharded rung's fleet. `0` disables the rung
    /// entirely (the default — single-device serving is unchanged).
    pub shard_devices: usize,
    /// Overload-control policy of the open-loop path (adaptive
    /// concurrency limit + brownout ladder). Disabled by default — the
    /// closed-loop paths and a disabled controller are bit-identical to
    /// the pre-overload-control server.
    pub overload: OverloadConfig,
    /// Batching window of the open-loop path: coalesce queued
    /// same-matrix requests into one verified SpMM sweep. Disabled by
    /// default (bit-identical to the per-request server).
    pub batch: BatchConfig,
    /// Test-only verification weakening (see [`Weaken`]). Always
    /// [`Weaken::None`] outside the chaos orchestrator's
    /// catch-the-bug tests.
    pub weaken: Weaken,
}

impl Default for ServeConfig {
    fn default() -> Self {
        // Scaled to the simulator's 3 µs launch overhead: a default
        // deadline of 500 µs admits the full ladder with retries on the
        // evaluation-scale matrices.
        ServeConfig {
            queue_capacity: 64,
            default_deadline_s: 500e-6,
            shard_devices: 0,
            overload: OverloadConfig::default(),
            batch: BatchConfig::default(),
            weaken: Weaken::None,
        }
    }
}

/// Opaque handle to a registered matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixHandle(pub usize);

/// One SpMV request: which matrix, the dense vector, an optional deadline.
#[derive(Debug, Clone)]
pub struct Request {
    /// Handle from [`SpmvServer::register`].
    pub matrix: MatrixHandle,
    /// Input vector; must have the matrix's column count.
    pub x: Vec<f32>,
    /// Simulated-time budget; `None` uses [`ServeConfig::default_deadline_s`].
    pub deadline_s: Option<f64>,
}

/// One open-loop arrival: a request plus the traffic metadata the
/// overload-control layer keys on.
#[derive(Debug, Clone)]
pub struct OpenRequest {
    /// The request itself ([`Request::deadline_s`] is the *budget*,
    /// counted from arrival — queue wait spends it).
    pub request: Request,
    /// Priority class for queue ordering, eviction, and brownout.
    pub priority: Priority,
    /// Absolute simulated arrival time. Arrivals must be fed in
    /// non-decreasing order.
    pub arrival_s: f64,
}

/// One update event of an open-loop schedule: at `at_s`, apply `batch`
/// to `matrix` (see [`SpmvServer::run_open_loop_evolving`]). Updates
/// never block reads — they consume no serving time, and requests
/// admitted earlier finish on their captured epoch.
#[derive(Debug, Clone)]
pub struct ScheduledUpdate {
    /// Absolute simulated time the update lands. Updates must be fed in
    /// non-decreasing order; an update ties with an arrival at the same
    /// instant by landing first.
    pub at_s: f64,
    /// Which evolving matrix to update.
    pub matrix: MatrixHandle,
    /// The delta batch to apply.
    pub batch: DeltaBatch,
    /// Optional seeded splice corruption (chaos hook).
    pub fault: Option<UpdateFault>,
}

/// Resolution of one open-loop arrival.
#[derive(Debug, Clone)]
pub struct OpenOutcome {
    /// Position of the arrival in the input batch.
    pub index: usize,
    /// The arrival's priority class.
    pub priority: Priority,
    /// The arrival's matrix handle.
    pub matrix: MatrixHandle,
    /// Absolute arrival time.
    pub arrival_s: f64,
    /// Simulated time spent waiting in the admission queue (zero for
    /// arrivals shed at admission).
    pub queue_wait_s: f64,
    /// Absolute simulated time the arrival was resolved.
    pub done_s: f64,
    /// Epoch of the matrix snapshot captured at admission — the epoch
    /// the request was (or would have been) served on. Requests finish
    /// on their admitted epoch even when updates land while they queue.
    pub epoch: u64,
    /// The verified result or typed failure. [`ServedOk::latency_s`] is
    /// service time only; time-in-system is `done_s - arrival_s`.
    pub result: Result<ServedOk, ServeError>,
}

impl OpenOutcome {
    /// Time from arrival to resolution (what the client experiences).
    pub fn time_in_system_s(&self) -> f64 {
        self.done_s - self.arrival_s
    }
}

/// A successfully served (checksum-verified) request.
#[derive(Debug, Clone)]
pub struct ServedOk {
    /// The verified output vector.
    pub y: Vec<f32>,
    /// The ladder rung that produced it.
    pub rung: Rung,
    /// Simulated latency: kernel time of every attempt plus backoffs.
    pub latency_s: f64,
    /// Retries performed across all rungs before success.
    pub retries: u32,
    /// Epoch of the matrix snapshot that served the request (0 for
    /// matrices that never update).
    pub epoch: u64,
}

/// What one committed [`SpmvServer::update`] did at the serving layer,
/// on top of the evolve layer's [`UpdateReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateOutcome {
    /// The evolve layer's account of the commit.
    pub report: UpdateReport,
    /// A value-only update carried the fleet partition plan across the
    /// epoch by re-slicing its checksums from the repaired logical sums
    /// (block-row ranges and per-shard estimates reused verbatim).
    pub partition_resliced: bool,
    /// A structural update re-partitioned the matrix for the fleet from
    /// scratch (the nnz balance may have shifted).
    pub repartitioned: bool,
}

/// How a [`SpmvServer::recover_evolving`] call went: the storage
/// layer's account of snapshot selection and replay, minus the matrix
/// itself (which the server now owns and serves).
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The epoch the matrix was recovered to (and now serves).
    pub recovered_epoch: u64,
    /// Epoch of the snapshot recovery started from.
    pub snapshot_epoch: u64,
    /// Snapshot slot used.
    pub used_slot: usize,
    /// The newest snapshot was corrupt; recovery fell back to the older
    /// slot and replayed a longer suffix.
    pub fell_back: bool,
    /// Typed errors from snapshot slots that failed verification.
    pub snapshot_errors: Vec<WalError>,
    /// Log records replayed through the verified commit path.
    pub replayed: usize,
    /// Records skipped as duplicates of already-committed epochs.
    pub duplicates_skipped: usize,
    /// The typed error that truncated the log tail, if any.
    pub tail_error: Option<WalError>,
    /// CRC-valid records the log scan produced.
    pub wal_records_seen: usize,
}

impl RecoveryReport {
    /// True when recovery was completely clean: newest snapshot, no
    /// tail damage, nothing skipped abnormally.
    pub fn clean(&self) -> bool {
        !self.fell_back && self.snapshot_errors.is_empty() && self.tail_error.is_none()
    }
}

/// Typed request failure. The serving invariant is that every request
/// resolves to [`ServedOk`] or exactly one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Rejected at admission: the bounded queue is full.
    Overloaded {
        /// The queue capacity that was exceeded.
        capacity: usize,
    },
    /// The matrix handle does not name a registered matrix.
    UnknownMatrix(usize),
    /// The request (or a matrix at registration) is malformed; carries the
    /// underlying engine error. Never retried.
    Invalid(EngineError),
    /// The deadline budget cannot cover any remaining rung.
    DeadlineExceeded {
        /// The request's budget.
        budget_s: f64,
        /// Simulated time already spent when the ladder gave up.
        spent_s: f64,
    },
    /// Every admissible rung was attempted and failed verification.
    LadderExhausted {
        /// Total attempts across rungs.
        attempts: u32,
        /// The last rung's error.
        last: EngineError,
    },
    /// Every rung's circuit breaker was open — the service is shedding
    /// load while engines recover.
    Unavailable,
    /// Deliberately shed by the overload-control layer (queue expiry,
    /// priority eviction, brownout, adaptive limit) — the request was
    /// well-formed; the service chose not to spend work on it.
    Shed(ShedReason),
    /// A streaming update failed. The matrix's current epoch is
    /// untouched — rollback is the absence of a commit, so the previous
    /// epoch keeps serving.
    Update(UpdateError),
    /// The handle names a matrix registered without an update lifecycle
    /// ([`SpmvServer::register`] instead of
    /// [`SpmvServer::register_evolving`]).
    NotEvolving(usize),
    /// Recovery from a crash image failed with a typed storage error
    /// (no snapshot slot survived the verification gate). Degraded
    /// recovery — corrupt tail, snapshot fallback — is *not* an error;
    /// it surfaces in the [`RecoveryReport`] instead.
    Durability(WalError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { capacity } => {
                write!(f, "overloaded: admission queue at capacity {capacity}")
            }
            ServeError::UnknownMatrix(h) => write!(f, "unknown matrix handle {h}"),
            ServeError::Invalid(e) => write!(f, "invalid request: {e}"),
            ServeError::DeadlineExceeded { budget_s, spent_s } => write!(
                f,
                "deadline exceeded: budget {:.2} us, spent {:.2} us",
                budget_s * 1e6,
                spent_s * 1e6
            ),
            ServeError::LadderExhausted { attempts, last } => {
                write!(f, "failover ladder exhausted after {attempts} attempt(s): {last}")
            }
            ServeError::Unavailable => write!(f, "unavailable: all circuit breakers open"),
            ServeError::Shed(reason) => write!(f, "shed: {reason}"),
            ServeError::Update(e) => write!(f, "update rejected (epoch rolled back): {e}"),
            ServeError::NotEvolving(h) => {
                write!(f, "matrix {h} was registered without an update lifecycle")
            }
            ServeError::Durability(e) => write!(f, "recovery failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Aggregate serving statistics, updated per request.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Requests submitted (admitted or not).
    pub submitted: u64,
    /// Requests rejected at admission (queue full).
    pub overloaded: u64,
    /// Verified results per ladder rung.
    pub served: [u64; RUNGS],
    /// Attempts per rung (including failed ones).
    pub attempts: [u64; RUNGS],
    /// Failed attempts per rung.
    pub failures: [u64; RUNGS],
    /// Rungs skipped because their breaker was open.
    pub skipped_breaker: [u64; RUNGS],
    /// Rungs skipped because the remaining deadline budget could not
    /// cover their estimated cost.
    pub skipped_deadline: [u64; RUNGS],
    /// Requests rejected as invalid (shape/format).
    pub invalid: u64,
    /// Requests failed on deadline.
    pub deadline_exceeded: u64,
    /// Requests that exhausted the ladder.
    pub exhausted: u64,
    /// Requests shed with every breaker open.
    pub unavailable: u64,
    /// Requests shed by the overload-control layer (open-loop path only;
    /// the per-reason breakdown lives in [`SpmvServer::shed_counters`]
    /// and [`SpmvServer::overload_stats`]).
    pub shed: u64,
    /// Total retries across all requests.
    pub retries: u64,
    /// Committed streaming updates (epoch publishes) across all
    /// evolving matrices.
    pub updates: u64,
    /// Updates rejected by post-update verification or compaction
    /// mismatch — the epoch rolled back and the previous one kept
    /// serving.
    pub update_rollbacks: u64,
    /// Sharded-rung skips for requests admitted on an older epoch than
    /// the fleet's current partition (served by their captured
    /// single-device ladder instead — never a torn read).
    pub epoch_stragglers: u64,
    /// Coalesced SpMM sweeps executed by the batching window (each one
    /// serves `width ≥ 2` requests in a single verified launch).
    pub batches: u64,
    /// Requests served *inside* a coalesced sweep (their rung reports
    /// [`Rung::SpadenChecked`]; `served` counts them too).
    pub batched_served: u64,
    /// Coalesced sweeps that failed verification and fell back to the
    /// per-request ladder for every member.
    pub batch_fallbacks: u64,
    /// Sum of executed batch widths (mean width = this / `batches`).
    pub batch_width_sum: u64,
    /// Widest executed batch.
    pub batch_width_max: u64,
    latencies_s: Vec<f64>,
}

impl ServeStats {
    /// Total verified results.
    pub fn ok_total(&self) -> u64 {
        self.served.iter().sum()
    }

    /// Nearest-rank percentile of served-request simulated latency, `p` in
    /// `[0, 100]`. Zero when nothing was served.
    pub fn latency_percentile_s(&self, p: f64) -> f64 {
        percentile(&mut self.latencies_s.clone(), p)
    }

    /// Median simulated latency of served requests.
    pub fn p50_s(&self) -> f64 {
        self.latency_percentile_s(50.0)
    }

    /// 99th-percentile simulated latency of served requests.
    pub fn p99_s(&self) -> f64 {
        self.latency_percentile_s(99.0)
    }

    /// Mean width of executed coalesced sweeps (0 when none ran).
    pub fn mean_batch_width(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batch_width_sum as f64 / self.batches as f64
        }
    }

    /// Fraction of verified results that were served inside a coalesced
    /// sweep (0 when nothing was served).
    pub fn coalescing_rate(&self) -> f64 {
        let ok = self.ok_total();
        if ok == 0 {
            0.0
        } else {
            self.batched_served as f64 / ok as f64
        }
    }
}

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
    fn build_evolved(
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
        let (current, sharded) = self.build_evolved(&ev, None)?;
        // Recovery ends with a checkpoint: a fresh store snapshotted at
        // the recovered epoch with an empty log, so a second crash
        // recovers from here with zero replay.
        let store = DurableStore::create(&ev, policy);
        self.matrices.push(MatrixEntry {
            current: Arc::new(current),
            sharded,
            fp: fingerprint(ev.csr()),
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

    /// Serves a batch: every request is admitted through the bounded
    /// queue (overflow rejected with [`ServeError::Overloaded`]) and the
    /// admitted ones are served in arrival order. Results are returned in
    /// input order, one per request.
    pub fn run_batch(
        &mut self,
        requests: Vec<Request>,
    ) -> Vec<Result<ServedOk, ServeError>> {
        let n = requests.len();
        let mut results: Vec<Option<Result<ServedOk, ServeError>>> =
            (0..n).map(|_| None).collect();
        for (i, req) in requests.into_iter().enumerate() {
            self.stats.submitted += 1;
            if self.queue.push((i, req)).is_err() {
                self.stats.overloaded += 1;
                results[i] =
                    Some(Err(ServeError::Overloaded { capacity: self.queue.capacity() }));
            }
        }
        while let Some((i, req)) = self.queue.pop() {
            results[i] = Some(self.serve_admitted(req));
        }
        results.into_iter().map(|r| r.expect("every slot filled")).collect()
    }

    /// Serves one request directly (counted as submitted and admitted,
    /// bypassing the batch queue — single-request callers have no
    /// admission contention).
    pub fn serve(&mut self, req: Request) -> Result<ServedOk, ServeError> {
        self.stats.submitted += 1;
        self.serve_admitted(req)
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

    /// Serves an open-loop arrival schedule: requests arrive at absolute
    /// simulated times regardless of whether the server has kept up — the
    /// regime where overload is real. Between arrivals the server drains
    /// its admission queue; each arrival then passes the overload gates
    /// (brownout class shedding, adaptive limit, priority eviction) or is
    /// shed with a typed [`ServeError::Shed`]. Queue wait spends the
    /// request's deadline budget, and a request whose budget has fully
    /// elapsed in queue is shed at dequeue instead of executed.
    ///
    /// `arrivals` must be sorted by `arrival_s`. Returns one outcome per
    /// arrival, in input order. Fully deterministic on the simulated
    /// clock.
    pub fn run_open_loop(&mut self, arrivals: Vec<OpenRequest>) -> Vec<OpenOutcome> {
        self.run_open_loop_evolving(arrivals, Vec::new()).0
    }

    /// [`SpmvServer::run_open_loop`] with a concurrent update schedule:
    /// arrivals and updates are merged in time order (an update ties
    /// with a same-instant arrival by landing first). An update applies
    /// instantly — it spends no serving time and never blocks reads;
    /// requests admitted before it finish on their captured epoch, and
    /// later admissions see the new one. Returns one outcome per
    /// arrival (input order) plus one result per update (input order).
    #[allow(clippy::type_complexity)]
    pub fn run_open_loop_evolving(
        &mut self,
        arrivals: Vec<OpenRequest>,
        updates: Vec<ScheduledUpdate>,
    ) -> (Vec<OpenOutcome>, Vec<Result<UpdateOutcome, ServeError>>) {
        let n = arrivals.len();
        let mut out: Vec<Option<OpenOutcome>> = (0..n).map(|_| None).collect();
        let mut applied = Vec::with_capacity(updates.len());
        let mut arr_it = arrivals.into_iter().enumerate().peekable();
        let mut upd_it = updates.into_iter().peekable();
        let mut last_arrival = f64::NEG_INFINITY;
        let mut last_update = f64::NEG_INFINITY;
        loop {
            let update_next = match (arr_it.peek(), upd_it.peek()) {
                (Some((_, a)), Some(u)) => u.at_s <= a.arrival_s,
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (None, None) => break,
            };
            // Serve backlog until the server catches up to this event.
            // Serving may push the clock past it — an arrival then waits
            // in queue like any client of a busy server (an update does
            // not wait: it lands the moment its time comes up).
            let event_s =
                if update_next { upd_it.peek().unwrap().at_s } else { arr_it.peek().unwrap().1.arrival_s };
            while self.clock_s < event_s {
                if !self.drain_step(&mut out, Some(event_s)) {
                    break;
                }
            }
            if self.clock_s < event_s {
                self.clock_s = event_s; // idle until the event
            }
            if update_next {
                let u = upd_it.next().expect("peeked");
                assert!(
                    u.at_s >= last_update,
                    "open-loop updates must be sorted by time"
                );
                last_update = u.at_s;
                applied.push(self.update_with_fault(u.matrix, &u.batch, u.fault));
            } else {
                let (index, a) = arr_it.next().expect("peeked");
                assert!(
                    a.arrival_s >= last_arrival,
                    "open-loop arrivals must be sorted by arrival time"
                );
                last_arrival = a.arrival_s;
                self.stats.submitted += 1;
                self.admit_open(index, a, &mut out);
            }
        }
        while self.drain_step(&mut out, None) {}
        (out.into_iter().map(|o| o.expect("every arrival resolves")).collect(), applied)
    }

    /// One open-loop drain step. Batching disabled dispatches straight to
    /// the per-request drain — byte-for-byte the pre-batching loop, the
    /// bit-identity guarantee of [`BatchConfig`]. Batching enabled runs
    /// the coalescing window; `horizon_s` is the next scheduled event
    /// (`None` on the final flush), the instant up to which the window
    /// may hold the head waiting for batchmates.
    fn drain_step(&mut self, out: &mut [Option<OpenOutcome>], horizon_s: Option<f64>) -> bool {
        if self.config.batch.enabled {
            self.drain_one_batched(out, horizon_s)
        } else {
            self.drain_one_open(out)
        }
    }

    /// Admission for one open-loop arrival: brownout gate, then the
    /// priority queue under the adaptive limit.
    fn admit_open(&mut self, index: usize, a: OpenRequest, out: &mut [Option<OpenOutcome>]) {
        let matrix = a.request.matrix;
        let priority = a.priority;
        let arrival_s = a.arrival_s;
        // Epoch consistency: capture the matrix snapshot *at admission*.
        // The request finishes on this epoch even if updates publish
        // newer ones while it waits in queue.
        let state = self.matrices.get(matrix.0).map(|e| e.current.clone());
        let epoch = state.as_ref().map_or(0, |m| m.epoch);
        let shed = |stats: &mut ServeStats, reason: ShedReason| {
            stats.shed += 1;
            Some(OpenOutcome {
                index,
                priority,
                matrix,
                arrival_s,
                queue_wait_s: 0.0,
                done_s: arrival_s,
                epoch,
                result: Err(ServeError::Shed(reason)),
            })
        };
        if let Some(reason) = self.overload.admission_shed(priority) {
            out[index] = shed(&mut self.stats, reason);
            return;
        }
        let budget_s = a.request.deadline_s.unwrap_or(self.config.default_deadline_s);
        let slot =
            OpenSlot { index, request: a.request, priority, arrival_s, budget_s, state, epoch };
        let expires = Some(arrival_s + budget_s);
        match self.open_queue.push(slot, priority, expires, self.overload.limit()) {
            PushOutcome::Admitted => {}
            PushOutcome::AdmittedEvicting(victim) => {
                let v = victim.item;
                self.stats.shed += 1;
                out[v.index] = Some(OpenOutcome {
                    index: v.index,
                    priority: v.priority,
                    matrix: v.request.matrix,
                    arrival_s: v.arrival_s,
                    queue_wait_s: self.clock_s - v.arrival_s,
                    done_s: self.clock_s,
                    epoch: v.epoch,
                    result: Err(ServeError::Shed(ShedReason::Evicted { by: priority })),
                });
                // An eviction is still a resolved request: its queue time
                // is evidence for the controller.
                self.overload.on_complete(self.clock_s - v.arrival_s);
            }
            PushOutcome::Rejected(slot, reason) => {
                out[slot.index] = shed(&mut self.stats, reason);
            }
        }
    }

    /// Dequeues until one entry is *served or failed* (expired entries
    /// are shed along the way without costing simulated time). Returns
    /// false when the queue is empty.
    fn drain_one_open(&mut self, out: &mut [Option<OpenOutcome>]) -> bool {
        loop {
            match self.open_queue.pop(self.clock_s) {
                None => return false,
                Some(Dequeued::Expired(entry, reason)) => {
                    self.shed_open_slot(entry.item, reason, out);
                    continue;
                }
                Some(Dequeued::Ready(entry)) => {
                    self.serve_slot(entry.item, out);
                    return true;
                }
            }
        }
    }

    /// Serves one dequeued slot on the per-request ladder and records
    /// its outcome (the Ready arm of the open-loop drain).
    fn serve_slot(&mut self, slot: OpenSlot, out: &mut [Option<OpenOutcome>]) {
        let matrix = slot.request.matrix;
        let wait = self.clock_s - slot.arrival_s;
        // Queue wait spends the budget; the ladder gets what
        // remains (positive — expiry was checked at dequeue).
        let remaining = slot.budget_s - wait;
        let req = Request { deadline_s: Some(remaining), ..slot.request };
        // Serve on the snapshot captured at admission, not
        // the head — updates that landed while this request
        // queued must not tear its matrix out from under it.
        let result = self.serve_on(slot.state, req);
        let done = self.clock_s;
        self.overload.on_complete(done - slot.arrival_s);
        out[slot.index] = Some(OpenOutcome {
            index: slot.index,
            priority: slot.priority,
            matrix,
            arrival_s: slot.arrival_s,
            queue_wait_s: wait,
            done_s: done,
            epoch: slot.epoch,
            result,
        });
    }

    /// Resolves one open-loop slot as shed (the Expired arm of the
    /// drains, shared with the batching window's gather).
    fn shed_open_slot(&mut self, v: OpenSlot, reason: ShedReason, out: &mut [Option<OpenOutcome>]) {
        let wait = self.clock_s - v.arrival_s;
        self.stats.shed += 1;
        out[v.index] = Some(OpenOutcome {
            index: v.index,
            priority: v.priority,
            matrix: v.request.matrix,
            arrival_s: v.arrival_s,
            queue_wait_s: wait,
            done_s: self.clock_s,
            epoch: v.epoch,
            result: Err(ServeError::Shed(reason)),
        });
        // A dead-on-dequeue request spent its whole budget in queue —
        // strong overload evidence.
        self.overload.on_complete(wait);
    }

    /// The batching window's drain step. Dequeues the head, coalesces
    /// queued requests sharing its matrix snapshot (same epoch `Arc`)
    /// into one ABFT-checked SpMM sweep, and scatters the output columns
    /// back to per-request responses. Three guarantees carry over from
    /// the per-request path unchanged: expiry-at-dequeue (an expired
    /// entry is shed, never batched), priority order (the head is
    /// whatever [`AdmissionQueue::pop`] yields; batchmates are pulled
    /// matching-first in the same class order), and verification (the
    /// sweep is column-verified against the same block-row checksums; a
    /// failed sweep falls back to the per-request ladder for every
    /// member). Returns false when the queue is empty or the head is
    /// held for batchmates — bounded by [`BatchConfig::window_s`] and
    /// the head's own deadline, so holding never expires a request.
    fn drain_one_batched(
        &mut self,
        out: &mut [Option<OpenOutcome>],
        horizon_s: Option<f64>,
    ) -> bool {
        let max_width = self.config.batch.max_width.max(1);
        // Hold decision: with the next event inside the window, the head
        // batchable, and spare width, give the outer loop a chance to
        // admit more coalescible arrivals before draining.
        if let Some(event_s) = horizon_s {
            let head_hold = self.open_queue.peek().and_then(|head| {
                let slot = &head.item;
                let state = slot.state.clone()?;
                let plan = state.batch.as_ref()?;
                if plan.crossover > max_width {
                    return None; // batching never wins on this matrix
                }
                let sweep_s = plan.cost_s.last().copied().unwrap_or(0.0);
                let hold_until = (slot.arrival_s + self.config.batch.window_s)
                    .min(head.expires_s.unwrap_or(f64::INFINITY) - sweep_s);
                Some((state, hold_until))
            });
            if let Some((state, hold_until)) = head_hold {
                if event_s <= hold_until {
                    let matching = self.open_queue.count_matching(|e| {
                        e.item.state.as_ref().is_some_and(|s| Arc::ptr_eq(s, &state))
                    });
                    if matching < max_width {
                        return false;
                    }
                }
            }
        }
        loop {
            match self.open_queue.pop(self.clock_s) {
                None => return false,
                Some(Dequeued::Expired(entry, reason)) => {
                    self.shed_open_slot(entry.item, reason, out);
                    continue;
                }
                Some(Dequeued::Ready(entry)) => {
                    let head = entry.item;
                    let batchable = head.state.as_ref().is_some_and(|s| {
                        s.batch.as_ref().is_some_and(|p| p.crossover <= max_width)
                            && head.request.x.len() == s.ncols
                    });
                    if !batchable {
                        self.serve_slot(head, out);
                        return true;
                    }
                    let m = head.state.clone().expect("batchable head has a snapshot");
                    self.run_batch_window(head, m, max_width, out);
                    return true;
                }
            }
        }
    }

    /// Gathers batchmates for a dequeued head and executes the window:
    /// one coalesced sweep at or past the crossover width, the
    /// per-request ladder below it or on sweep failure.
    fn run_batch_window(
        &mut self,
        head: OpenSlot,
        m: Arc<PreparedMatrix>,
        max_width: usize,
        out: &mut [Option<OpenOutcome>],
    ) {
        let plan = m.batch.as_ref().expect("caller checked the plan");
        let sweep_s = plan.cost_s.last().copied().unwrap_or(0.0);
        // Pull queued requests on the same snapshot, in priority-then-
        // FIFO order, skipping any whose remaining budget could not sit
        // through a sweep. The expiry discipline of `pop_matching` makes
        // a dead entry structurally unbatchable.
        let mut slots = vec![head];
        while slots.len() < max_width {
            let now = self.clock_s;
            match self.open_queue.pop_matching(now, |e| {
                e.item.state.as_ref().is_some_and(|s| Arc::ptr_eq(s, &m))
                    && e.item.request.x.len() == m.ncols
                    && e.expires_s.is_none_or(|x| x - now >= sweep_s)
            }) {
                None => break,
                Some(Dequeued::Expired(entry, reason)) => {
                    self.shed_open_slot(entry.item, reason, out);
                }
                Some(Dequeued::Ready(entry)) => slots.push(entry.item),
            }
        }
        if slots.len() < plan.crossover.max(2) {
            // Below the crossover a sweep is predicted slower than the
            // per-request rungs: serve the gathered slots individually.
            for slot in slots {
                self.serve_slot(slot, out);
            }
            return;
        }

        // One coalesced sweep: the members' x vectors become the columns
        // of a dense B, one ingress tick covers the whole batch (the
        // amortisation the open-loop throughput gain comes from), and
        // every output column is verified block-row-wise before any
        // member sees its response.
        let w = slots.len();
        let popped_at = self.clock_s;
        self.clock_s += ARRIVAL_INTERVAL_S;
        let b = Dense::from_fn(m.ncols, w, |r, j| slots[j].request.x[r]);
        let r = Rung::SpadenChecked as usize;
        self.stats.attempts[r] += 1;
        match plan.spmm.try_run_checked(&self.gpu, &b) {
            Ok(run) => {
                self.clock_s += run.time.seconds;
                self.breakers[r].record_success();
                self.stats.served[r] += w as u64;
                self.stats.batches += 1;
                self.stats.batched_served += w as u64;
                self.stats.batch_width_sum += w as u64;
                self.stats.batch_width_max = self.stats.batch_width_max.max(w as u64);
                let done = self.clock_s;
                for (j, slot) in slots.into_iter().enumerate() {
                    self.stats.latencies_s.push(run.time.seconds);
                    self.overload.on_complete(done - slot.arrival_s);
                    out[slot.index] = Some(OpenOutcome {
                        index: slot.index,
                        priority: slot.priority,
                        matrix: slot.request.matrix,
                        arrival_s: slot.arrival_s,
                        queue_wait_s: popped_at - slot.arrival_s,
                        done_s: done,
                        epoch: slot.epoch,
                        result: Ok(ServedOk {
                            y: run.c.column(j),
                            rung: Rung::SpadenChecked,
                            latency_s: run.time.seconds,
                            retries: 0,
                            epoch: m.epoch,
                        }),
                    });
                }
            }
            Err(_) => {
                // The sweep ran and could not be verified: charge its
                // predicted cost, record the failure on the shared
                // tensor-core breaker, and fall back to the per-request
                // ladder for every member — the existing rung walk
                // decides each one's fate with its remaining budget.
                let cost = plan.cost_s.get(w - 1).copied().unwrap_or(sweep_s);
                self.clock_s += cost;
                self.breakers[r].record_failure(self.clock_s);
                self.stats.failures[r] += 1;
                self.stats.batch_fallbacks += 1;
                for slot in slots {
                    self.serve_slot(slot, out);
                }
            }
        }
    }

    /// The ladder walk for one admitted closed-loop request: serves on
    /// the matrix's head snapshot (closed-loop callers admit and serve
    /// in one step, so head and admitted epoch coincide).
    fn serve_admitted(&mut self, req: Request) -> Result<ServedOk, ServeError> {
        let state = self.matrices.get(req.matrix.0).map(|e| e.current.clone());
        self.serve_on(state, req)
    }

    /// The ladder walk for one admitted request, on a captured matrix
    /// snapshot. The snapshot pins the epoch: every single-device rung
    /// runs this exact matrix. The sharded rung is the one resource that
    /// tracks the head epoch, so it only runs when the snapshot *is* the
    /// head — a straggler admitted before an update skips it (counted in
    /// [`ServeStats::epoch_stragglers`]) and falls to its captured
    /// single-device ladder, never a torn read.
    fn serve_on(
        &mut self,
        state: Option<Arc<PreparedMatrix>>,
        req: Request,
    ) -> Result<ServedOk, ServeError> {
        self.clock_s += ARRIVAL_INTERVAL_S;
        let Some(m) = state else {
            self.stats.invalid += 1;
            return Err(ServeError::UnknownMatrix(req.matrix.0));
        };
        if req.x.len() != m.ncols {
            self.stats.invalid += 1;
            return Err(ServeError::Invalid(EngineError::ShapeMismatch {
                expected: m.ncols,
                got: req.x.len(),
            }));
        }
        let budget = req.deadline_s.unwrap_or(self.config.default_deadline_s);
        let mut spent = 0.0f64;
        let mut attempts = 0u32;
        let mut retries = 0u32;
        let mut last_err: Option<EngineError> = None;
        let mut deadline_bound = false;

        for rung in std::iter::once(Rung::Sharded).chain(m.ladder) {
            let r = rung as usize;
            if rung == Rung::Sharded {
                if self.fleet.is_none() {
                    continue; // rung not configured; not counted as skipped
                }
                // The fleet's partition serves the head epoch only.
                let on_head = self
                    .matrices
                    .get(req.matrix.0)
                    .is_some_and(|e| Arc::ptr_eq(&e.current, &m));
                if !on_head {
                    self.stats.epoch_stragglers += 1;
                    continue; // straggler: captured single-device ladder serves
                }
            }
            if !self.breakers[r].allow(self.clock_s) {
                self.stats.skipped_breaker[r] += 1;
                continue;
            }
            let mut attempt_on_rung = 0u32;
            loop {
                if spent + m.est_cost_s[r] > budget {
                    self.stats.skipped_deadline[r] += 1;
                    deadline_bound = true;
                    break;
                }
                self.stats.attempts[r] += 1;
                attempts += 1;
                // The sharded rung dispatches to its own scheduler; the
                // single-device rungs go through `run_rung`. Both yield a
                // verified `y` plus the simulated seconds it cost.
                let outcome: Result<(Vec<f32>, f64), EngineError> = if rung == Rung::Sharded {
                    let fleet = self.fleet.as_mut().expect("sharded rung requires a fleet");
                    let sm = self.matrices[req.matrix.0]
                        .sharded
                        .as_mut()
                        .expect("sharded form is built at registration");
                    match sm.execute(fleet, &req.x, Some(budget - spent)) {
                        Ok(run) => Ok((run.y, run.elapsed_s)),
                        Err(ShardError::DeadlineExceeded { .. }) => {
                            // A crash re-priced the remaining work out of
                            // the budget; the scheduler failed fast, so
                            // charge nothing and descend to a cheaper rung
                            // with the budget marked as binding. If this
                            // attempt was a half-open probe, the timeout
                            // re-opens the breaker — an unresolved probe
                            // must not park it in half-open.
                            self.breakers[r].record_probe_timeout(self.clock_s);
                            self.stats.skipped_deadline[r] += 1;
                            deadline_bound = true;
                            break;
                        }
                        Err(e) => Err(e.to_engine_error()),
                    }
                } else {
                    Self::run_rung(&self.gpu, &m, rung, &req.x, self.config.weaken).map(|run| {
                        let seconds = run.time.seconds;
                        (run.y, seconds)
                    })
                };
                match outcome {
                    Ok((y, seconds)) => {
                        spent += seconds;
                        self.clock_s += seconds;
                        self.breakers[r].record_success();
                        self.stats.served[r] += 1;
                        self.stats.retries += retries as u64;
                        self.stats.latencies_s.push(spent);
                        return Ok(ServedOk {
                            y,
                            rung,
                            latency_s: spent,
                            retries,
                            epoch: m.epoch,
                        });
                    }
                    Err(e) => {
                        // A failed attempt still ran the kernels: charge
                        // the rung's estimated cost.
                        spent += m.est_cost_s[r];
                        self.clock_s += m.est_cost_s[r];
                        self.breakers[r].record_failure(self.clock_s);
                        self.stats.failures[r] += 1;
                        if !e.is_transient() {
                            self.stats.invalid += 1;
                            return Err(ServeError::Invalid(e));
                        }
                        last_err = Some(e);
                        attempt_on_rung += 1;
                        if attempt_on_rung >= ATTEMPTS_PER_RUNG
                            || self.breakers[r].state() == BreakerState::Open
                        {
                            break;
                        }
                        let backoff = BACKOFF_BASE_S
                            * f64::from(1u32 << (attempt_on_rung - 1).min(16));
                        spent += backoff;
                        self.clock_s += backoff;
                        retries += 1;
                    }
                }
            }
        }

        // Nothing verified. Report the binding constraint: budget if any
        // rung was priced out (more deadline could have saved it), else
        // the last engine failure, else total breaker shed.
        if deadline_bound {
            self.stats.deadline_exceeded += 1;
            Err(ServeError::DeadlineExceeded { budget_s: budget, spent_s: spent })
        } else if let Some(last) = last_err {
            self.stats.exhausted += 1;
            Err(ServeError::LadderExhausted { attempts, last })
        } else {
            self.stats.unavailable += 1;
            Err(ServeError::Unavailable)
        }
    }

    /// Runs one rung and verifies its output; `Ok` is always verified —
    /// unless a test-only [`Weaken`] hook disables that rung's check.
    fn run_rung(
        gpu: &Gpu,
        m: &PreparedMatrix,
        rung: Rung,
        x: &[f32],
        weaken: Weaken,
    ) -> Result<SpmvRun, EngineError> {
        match rung {
            Rung::Sharded => unreachable!("sharded rung is dispatched in serve_on"),
            Rung::SpadenChecked => {
                let run = m.spaden.try_run_checked(gpu, x)?;
                Self::finish_with_side(m, x, run)
            }
            Rung::SpadenScalar => {
                let run = m.scalar.try_run(gpu, x)?;
                let bad = m.spaden.abft().verify(x, &run.y);
                if bad.is_empty() {
                    Self::finish_with_side(m, x, run)
                } else {
                    Err(EngineError::VerificationFailed { block_rows: bad.len() })
                }
            }
            Rung::CsrBaseline => {
                // The CSR engine is prepared from the full logical
                // matrix — no side tail to add.
                let run = m.csr.try_run(gpu, x)?;
                if weaken == Weaken::SkipCsrVerify {
                    return Ok(run);
                }
                let bad = m.sums.verify(x, &run.y);
                if bad.is_empty() {
                    Ok(run)
                } else {
                    Err(EngineError::VerificationFailed { block_rows: bad.len() })
                }
            }
        }
    }

    /// Adds the side-buffer tail to a base-format Spaden run and holds
    /// the *full* logical output to the repaired logical checksums. A
    /// snapshot with an empty side is already complete and verified.
    fn finish_with_side(
        m: &PreparedMatrix,
        x: &[f32],
        mut run: SpmvRun,
    ) -> Result<SpmvRun, EngineError> {
        if m.side.is_empty() {
            return Ok(run);
        }
        // Same arithmetic as one kernel entry: the stored f16 value
        // times the f16-rounded vector element, accumulated in f32.
        for e in &m.side {
            run.y[e.row as usize] += e.value.to_f32() * F16::round_f32(x[e.col as usize]);
        }
        let sums = m.logical.as_ref().expect("non-empty side stores logical checksums");
        let bad = sums.verify(x, &run.y);
        if bad.is_empty() {
            Ok(run)
        } else {
            Err(EngineError::VerificationFailed { block_rows: bad.len() })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spaden_gpusim::{FaultConfig, GpuConfig};
    use spaden_sparse::gen;

    fn make_x(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 37 + 11) % 64) as f32 / 32.0 - 1.0).collect()
    }

    fn clean_server() -> (SpmvServer, MatrixHandle, Csr) {
        let csr = gen::random_uniform(128, 96, 1800, 901);
        let mut srv = SpmvServer::new(Gpu::new(GpuConfig::l40()), ServeConfig::default());
        let h = srv.register(&csr).expect("valid matrix registers");
        (srv, h, csr)
    }

    #[test]
    fn clean_request_served_by_top_rung() {
        let (mut srv, h, csr) = clean_server();
        let x = make_x(96);
        let ok = srv
            .serve(Request { matrix: h, x: x.clone(), deadline_s: None })
            .expect("clean gpu serves");
        assert_eq!(ok.rung, Rung::SpadenChecked);
        assert_eq!(ok.retries, 0);
        assert!(ok.latency_s > 0.0);
        let oracle = csr.spmv_f64(&x).unwrap();
        for (r, (a, o)) in ok.y.iter().zip(&oracle).enumerate() {
            let tol = 1e-2f64.max(o.abs() * 2e-2);
            assert!((*a as f64 - o).abs() <= tol, "row {r}: {a} vs {o}");
        }
        assert_eq!(srv.stats().ok_total(), 1);
        assert_eq!(srv.stats().served[Rung::SpadenChecked as usize], 1);
    }

    #[test]
    fn planned_ladder_matches_pre_planner_ladder_on_default_config() {
        // Regression: on the default config the planner-derived ladder
        // must recombine bit-identically with the fixed pre-planner
        // ladder — same rung order, same top rung, same bits out.
        let (mut srv, h, csr) = clean_server();
        assert_eq!(
            srv.ladder(h).unwrap(),
            [Rung::SpadenChecked, Rung::SpadenScalar, Rung::CsrBaseline],
            "canonical order must survive planning on the default matrix"
        );
        let x = make_x(96);
        let ok = srv.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
        assert_eq!(ok.rung, Rung::SpadenChecked);
        let direct = SpadenEngine::try_prepare(srv.gpu(), &csr)
            .unwrap()
            .try_run_checked(srv.gpu(), &x)
            .unwrap();
        assert_eq!(ok.y, direct.y, "planned ladder must reproduce the exact pre-planner bits");
    }

    #[test]
    fn planner_promotes_csr_rung_on_hostile_structure() {
        // A large, extremely sparse scalar matrix shatters into nearly
        // one 8x8 block per nonzero — the cost model prices the CSR
        // baseline far below the bitmap kernels, so the CSR rung is
        // promoted to the top while the ABFT rung stays in the ladder.
        let csr = gen::random_uniform(131072, 131072, 300000, 911);
        let mut srv = SpmvServer::new(Gpu::new(GpuConfig::l40()), ServeConfig::default());
        let h = srv.register(&csr).unwrap();
        let ladder = srv.ladder(h).unwrap();
        assert_eq!(ladder[0], Rung::CsrBaseline, "ladder: {ladder:?}");
        assert!(ladder.contains(&Rung::SpadenChecked), "ABFT rung must be retained");
        let x = make_x(131072);
        let ok = srv.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
        assert_eq!(ok.rung, Rung::CsrBaseline);
        let oracle = csr.spmv_f64(&x).unwrap();
        for (a, o) in ok.y.iter().zip(&oracle) {
            assert!((*a as f64 - o).abs() <= 1e-2f64.max(o.abs() * 2e-2));
        }
    }

    #[test]
    fn scalar_rung_output_passes_abft_checksums() {
        // The second rung's verification must accept its own clean output
        // (the scalar kernel rounds to f16 exactly like the ABFT model).
        let (srv, h, _) = clean_server();
        let m = &srv.matrices[h.0].current;
        let x = make_x(96);
        let run = m.scalar.try_run(srv.gpu(), &x).unwrap();
        assert!(m.spaden.abft().verify(&x, &run.y).is_empty());
    }

    #[test]
    fn csr_rung_output_passes_f32_checksums() {
        let (srv, h, _) = clean_server();
        let m = &srv.matrices[h.0].current;
        let x = make_x(96);
        let run = m.csr.try_run(srv.gpu(), &x).unwrap();
        assert!(m.sums.verify(&x, &run.y).is_empty());
    }

    #[test]
    fn malformed_matrix_rejected_at_ingress() {
        let mut srv = SpmvServer::new(Gpu::new(GpuConfig::l40()), ServeConfig::default());
        let mut bad = gen::random_uniform(64, 64, 600, 903);
        bad.col_idx[..2].reverse();
        match srv.register(&bad) {
            Err(ServeError::Invalid(EngineError::Validation(_))) => {}
            other => panic!("expected Invalid(Validation), got {other:?}"),
        }
    }

    #[test]
    fn wrong_x_length_is_typed_not_a_panic() {
        let (mut srv, h, _) = clean_server();
        match srv.serve(Request { matrix: h, x: vec![0.0; 95], deadline_s: None }) {
            Err(ServeError::Invalid(EngineError::ShapeMismatch { expected: 96, got: 95 })) => {}
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
        assert_eq!(srv.stats().invalid, 1);
    }

    #[test]
    fn unknown_handle_is_typed() {
        let (mut srv, _, _) = clean_server();
        match srv.serve(Request { matrix: MatrixHandle(7), x: vec![], deadline_s: None }) {
            Err(ServeError::UnknownMatrix(7)) => {}
            other => panic!("expected UnknownMatrix, got {other:?}"),
        }
    }

    #[test]
    fn impossible_deadline_fails_fast_without_running() {
        let (mut srv, h, _) = clean_server();
        let attempts_before: u64 = srv.stats().attempts.iter().sum();
        match srv.serve(Request { matrix: h, x: make_x(96), deadline_s: Some(1e-9) }) {
            Err(ServeError::DeadlineExceeded { budget_s, spent_s }) => {
                assert_eq!(budget_s, 1e-9);
                assert_eq!(spent_s, 0.0, "no rung should have been attempted");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let attempts_after: u64 = srv.stats().attempts.iter().sum();
        assert_eq!(attempts_before, attempts_after);
        assert_eq!(srv.stats().deadline_exceeded, 1);
    }

    #[test]
    fn batch_overflow_rejected_with_overloaded_in_input_order() {
        let csr = gen::random_uniform(64, 64, 800, 905);
        let cfg = ServeConfig { queue_capacity: 4, ..ServeConfig::default() };
        let mut srv = SpmvServer::new(Gpu::new(GpuConfig::l40()), cfg);
        let h = srv.register(&csr).unwrap();
        let reqs: Vec<Request> = (0..7)
            .map(|_| Request { matrix: h, x: make_x(64), deadline_s: None })
            .collect();
        let results = srv.run_batch(reqs);
        assert_eq!(results.len(), 7);
        for r in &results[..4] {
            assert!(r.is_ok(), "admitted head of the batch is served: {r:?}");
        }
        for r in &results[4..] {
            assert_eq!(
                *r.as_ref().unwrap_err(),
                ServeError::Overloaded { capacity: 4 },
                "overflow tail rejected"
            );
        }
        assert_eq!(srv.stats().submitted, 7);
        assert_eq!(srv.stats().overloaded, 3);
    }

    #[test]
    fn kill_switch_walks_the_ladder_deterministically() {
        let (mut srv, h, csr) = clean_server();
        let x = make_x(96);
        let oracle = csr.spmv_f64(&x).unwrap();
        let check = |y: &[f32]| {
            for (r, (a, o)) in y.iter().zip(&oracle).enumerate() {
                let tol = 1e-2f64.max(o.abs() * 2e-2);
                assert!((*a as f64 - o).abs() <= tol, "row {r}: {a} vs {o}");
            }
        };

        srv.trip_rung(Rung::SpadenChecked);
        let ok = srv.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
        assert_eq!(ok.rung, Rung::SpadenScalar, "top rung drained -> scalar serves");
        check(&ok.y);

        srv.trip_rung(Rung::SpadenChecked);
        srv.trip_rung(Rung::SpadenScalar);
        let ok = srv.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
        assert_eq!(ok.rung, Rung::CsrBaseline, "two rungs drained -> csr serves");
        check(&ok.y);

        srv.trip_rung(Rung::SpadenChecked);
        srv.trip_rung(Rung::SpadenScalar);
        srv.trip_rung(Rung::CsrBaseline);
        match srv.serve(Request { matrix: h, x, deadline_s: None }) {
            Err(ServeError::Unavailable) => {}
            other => panic!("all rungs drained: expected Unavailable, got {other:?}"),
        }
        assert_eq!(srv.stats().unavailable, 1);
        assert!(
            srv.stats().served[Rung::SpadenScalar as usize] == 1
                && srv.stats().served[Rung::CsrBaseline as usize] == 1
        );
    }

    #[test]
    fn f16_hazard_demotes_off_tensor_core_rung() {
        // With SimSan on, a request vector past the f16 range makes the
        // top rung refuse with a typed NumericalHazard instead of serving
        // Inf-poisoned output; the hazard is transient, so the ladder
        // descends and an f32-capable rung serves a finite answer.
        use spaden_gpusim::SanConfig;
        let csr = gen::random_uniform(128, 96, 1800, 901);
        let mut cfg = GpuConfig::l40();
        cfg.san = SanConfig::on();
        let mut srv = SpmvServer::new(Gpu::new(cfg), ServeConfig::default());
        let h = srv.register(&csr).expect("clean matrix registers under san");
        let x = vec![1e5f32; 96];
        let ok = srv
            .serve(Request { matrix: h, x: x.clone(), deadline_s: Some(1.0) })
            .expect("ladder resolves the hazard");
        assert_ne!(ok.rung, Rung::SpadenChecked, "poisoned rung must not serve");
        assert!(ok.y.iter().all(|v| v.is_finite()));
        let oracle = csr.spmv_f64(&x).unwrap();
        for (r, (a, o)) in ok.y.iter().zip(&oracle).enumerate() {
            let tol = 1e-2f64.max(o.abs() * 2e-2);
            assert!((*a as f64 - o).abs() <= tol, "row {r}: {a} vs {o}");
        }
        assert!(srv.stats().failures[Rung::SpadenChecked as usize] > 0);
    }

    fn sharded_server(devices: usize) -> (SpmvServer, MatrixHandle, Csr) {
        let csr = gen::random_uniform(256, 96, 3200, 907);
        let cfg = ServeConfig { shard_devices: devices, ..ServeConfig::default() };
        let mut srv = SpmvServer::new(Gpu::new(GpuConfig::l40()), cfg);
        let h = srv.register(&csr).expect("valid matrix registers");
        (srv, h, csr)
    }

    #[test]
    fn sharded_rung_serves_when_fleet_configured() {
        let (mut srv, h, csr) = sharded_server(4);
        let x = make_x(96);
        let ok = srv
            .serve(Request { matrix: h, x: x.clone(), deadline_s: None })
            .expect("healthy fleet serves");
        assert_eq!(ok.rung, Rung::Sharded);
        // The sharded result is bit-identical to the single-device path.
        let single = SpadenEngine::prepare(srv.gpu(), &csr).run(srv.gpu(), &x);
        assert_eq!(ok.y, single.y);
        assert_eq!(srv.stats().served[Rung::Sharded as usize], 1);
    }

    #[test]
    fn reregistration_reuses_the_partition_plan() {
        let (mut srv, h1, csr) = sharded_server(4);
        assert_eq!(srv.partition_cache_stats().misses, 1);
        assert_eq!(srv.partition_cache_stats().hits, 0);
        let h2 = srv.register(&csr).expect("re-registration succeeds");
        assert_eq!(srv.partition_cache_stats().hits, 1, "same fingerprint must hit");
        // Both handles serve bit-identical sharded results.
        let x = make_x(96);
        let y1 = srv.serve(Request { matrix: h1, x: x.clone(), deadline_s: None }).unwrap();
        let y2 = srv.serve(Request { matrix: h2, x: x.clone(), deadline_s: None }).unwrap();
        assert_eq!(y1.rung, Rung::Sharded);
        assert_eq!(y1.y, y2.y);
    }

    #[test]
    fn dead_fleet_fails_over_to_single_device_ladder() {
        let (mut srv, h, _) = sharded_server(3);
        for d in 0..3 {
            srv.kill_device(d);
        }
        let ok = srv
            .serve(Request { matrix: h, x: make_x(96), deadline_s: None })
            .expect("single-device ladder still serves");
        assert_eq!(ok.rung, Rung::SpadenChecked, "sharded rung fails, ladder descends");
        assert!(srv.stats().failures[Rung::Sharded as usize] >= 1);
    }

    #[test]
    fn one_dead_device_still_serves_sharded() {
        let (mut srv, h, csr) = sharded_server(4);
        srv.kill_device(1);
        let x = make_x(96);
        let ok = srv.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
        assert_eq!(ok.rung, Rung::Sharded, "3 survivors carry the request");
        let single = SpadenEngine::prepare(srv.gpu(), &csr).run(srv.gpu(), &x);
        assert_eq!(ok.y, single.y);
        assert_eq!(srv.fleet().unwrap().alive_count(), 3);
    }

    #[test]
    fn clock_advances_with_served_traffic() {
        let (mut srv, h, _) = clean_server();
        let t0 = srv.clock_s();
        srv.serve(Request { matrix: h, x: make_x(96), deadline_s: None }).unwrap();
        assert!(srv.clock_s() > t0);
    }

    use crate::overload::{BrownoutMode, OverloadConfig};

    fn open(h: MatrixHandle, priority: Priority, arrival_s: f64, deadline_s: f64) -> OpenRequest {
        OpenRequest {
            request: Request { matrix: h, x: make_x(96), deadline_s: Some(deadline_s) },
            priority,
            arrival_s,
        }
    }

    #[test]
    fn open_loop_below_capacity_serves_everything_with_zero_wait() {
        let (mut srv, h, _) = clean_server();
        // Arrivals spaced far wider than one request's service time.
        let arrivals: Vec<OpenRequest> =
            (0..6).map(|i| open(h, Priority::Normal, i as f64 * 1e-3, 500e-6)).collect();
        let out = srv.run_open_loop(arrivals);
        assert_eq!(out.len(), 6);
        for o in &out {
            assert!(o.result.is_ok(), "idle server serves every arrival: {:?}", o.result);
            assert_eq!(o.queue_wait_s, 0.0, "no backlog below capacity");
            assert!(o.time_in_system_s() > 0.0);
        }
        assert_eq!(srv.stats().shed, 0);
        assert_eq!(srv.stats().submitted, 6);
    }

    #[test]
    fn open_loop_burst_queues_and_expires_dead_requests_without_executing() {
        let (mut srv, h, _) = clean_server();
        // A same-instant burst with budgets that only cover a couple of
        // services' worth of queue wait: the tail is dead by the time it
        // reaches the head of the queue and must be shed, not executed.
        let budget = 40e-6;
        let arrivals: Vec<OpenRequest> =
            (0..20).map(|_| open(h, Priority::Normal, 0.0, budget)).collect();
        let attempts_before: u64 = srv.stats().attempts.iter().sum();
        let out = srv.run_open_loop(arrivals);
        let served = out.iter().filter(|o| o.result.is_ok()).count();
        let expired = out
            .iter()
            .filter(|o| {
                matches!(o.result, Err(ServeError::Shed(ShedReason::Expired { .. })))
            })
            .count();
        assert!(served >= 1, "the head of the burst is alive");
        assert!(expired >= 1, "the tail must expire in queue: {out:?}");
        assert_eq!(
            srv.shed_counters().expired[Priority::Normal as usize] as usize,
            expired
        );
        // Expired requests never reached a rung: attempts grew only for
        // requests that were actually executed.
        let attempts_after: u64 = srv.stats().attempts.iter().sum();
        let executed = out.iter().filter(|o| !matches!(o.result, Err(ServeError::Shed(_)))).count();
        assert!(
            (attempts_after - attempts_before) as usize <= executed * 2,
            "expired sheds must not burn rung attempts"
        );
        for o in &out {
            if matches!(o.result, Err(ServeError::Shed(ShedReason::Expired { .. }))) {
                assert!(o.queue_wait_s >= budget, "expired only after the budget elapsed");
            }
        }
    }

    #[test]
    fn open_loop_saturation_evicts_low_priority_for_high() {
        let cfg = ServeConfig { queue_capacity: 4, ..ServeConfig::default() };
        let csr = gen::random_uniform(128, 96, 1800, 901);
        let mut srv = SpmvServer::new(Gpu::new(GpuConfig::l40()), cfg);
        let h = srv.register(&csr).unwrap();
        // Fill the queue with low-priority work arriving together, then a
        // high-priority arrival displaces the newest low entry.
        let mut arrivals: Vec<OpenRequest> =
            (0..5).map(|_| open(h, Priority::Low, 0.0, 10.0)).collect();
        arrivals.push(open(h, Priority::High, 0.0, 10.0));
        let out = srv.run_open_loop(arrivals);
        // Arrival 4 overflowed the hard bound (all-low queue: rejected),
        // and the high arrival evicted the newest queued low entry (3).
        assert!(matches!(
            out[4].result,
            Err(ServeError::Shed(ShedReason::QueueFull { capacity: 4 }))
        ));
        assert!(matches!(
            out[3].result,
            Err(ServeError::Shed(ShedReason::Evicted { by: Priority::High }))
        ));
        assert!(out[5].result.is_ok(), "high priority served: {:?}", out[5].result);
        assert_eq!(srv.shed_counters().evicted[Priority::Low as usize], 1);
        assert_eq!(srv.shed_counters().rejected_full[Priority::Low as usize], 1);
    }

    #[test]
    fn open_loop_brownout_sheds_low_but_never_high() {
        let cfg = ServeConfig {
            overload: OverloadConfig {
                enabled: true,
                // Impossible target: every window overruns, so the
                // controller dives to the floor and escalates.
                target_p99_s: 1e-12,
                window: 4,
                min_outstanding: 2,
                max_outstanding: 8,
                brownout_after: 1,
                ..OverloadConfig::default()
            },
            ..ServeConfig::default()
        };
        let csr = gen::random_uniform(128, 96, 1800, 901);
        let mut srv = SpmvServer::new(Gpu::new(GpuConfig::l40()), cfg);
        let h = srv.register(&csr).unwrap();
        let mut arrivals = Vec::new();
        for i in 0..60 {
            let p = if i % 3 == 0 { Priority::High } else { Priority::Low };
            arrivals.push(open(h, p, i as f64 * 1e-3, 500e-6));
        }
        let out = srv.run_open_loop(arrivals);
        let (mode_limit, mode) = srv.overload_state();
        assert_eq!(mode, BrownoutMode::ShedLowAndNormal, "sustained overrun escalates");
        assert!(mode_limit <= 2, "limit dives to the floor");
        let low_shed = out
            .iter()
            .filter(|o| {
                o.priority == Priority::Low
                    && matches!(o.result, Err(ServeError::Shed(ShedReason::Brownout { .. })))
            })
            .count();
        assert!(low_shed > 0, "brownout sheds low-priority arrivals");
        for o in out.iter().filter(|o| o.priority == Priority::High) {
            assert!(
                !matches!(o.result, Err(ServeError::Shed(ShedReason::Brownout { .. }))),
                "high priority is never brownout-shed"
            );
        }
        assert!(srv.overload_stats().brownout_escalations >= 2);
    }

    #[test]
    fn open_loop_is_deterministic() {
        let run = || {
            let (mut srv, h, _) = clean_server();
            let arrivals: Vec<OpenRequest> = (0..30)
                .map(|i| {
                    let p = Priority::ALL[i % 3];
                    open(h, p, i as f64 * 20e-6, 300e-6)
                })
                .collect();
            let out = srv.run_open_loop(arrivals);
            let served = out.iter().filter(|o| o.result.is_ok()).count();
            let latencies: Vec<u64> =
                out.iter().map(|o| o.time_in_system_s().to_bits()).collect();
            (served, latencies, srv.clock_s().to_bits(), srv.stats().shed)
        };
        assert_eq!(run(), run(), "same schedule, same bits");
    }

    fn batched_server(batch: BatchConfig) -> (SpmvServer, MatrixHandle, Csr) {
        let csr = gen::random_uniform(128, 96, 1800, 901);
        let cfg = ServeConfig { batch, ..ServeConfig::default() };
        let mut srv = SpmvServer::new(Gpu::new(GpuConfig::l40()), cfg);
        let h = srv.register(&csr).expect("valid matrix registers");
        (srv, h, csr)
    }

    #[test]
    fn batched_burst_coalesces_and_every_column_is_verified() {
        let (mut srv, h, csr) = batched_server(BatchConfig::on());
        let arrivals: Vec<OpenRequest> =
            (0..16).map(|_| open(h, Priority::Normal, 0.0, 10.0)).collect();
        let out = srv.run_open_loop(arrivals);
        let st = srv.stats();
        assert!(st.batches >= 1, "a same-instant burst must coalesce");
        assert_eq!(st.batched_served, 16, "every member served from a sweep");
        assert_eq!(st.batch_width_max, 8, "width saturates at max_width");
        assert!(st.mean_batch_width() > 1.0);
        assert!((st.coalescing_rate() - 1.0).abs() < 1e-12);
        let oracle = csr.spmv_f64(&make_x(96)).unwrap();
        for o in &out {
            let ok = o.result.as_ref().expect("whole burst fits the budget");
            assert_eq!(ok.rung, Rung::SpadenChecked, "batched serves report the ABFT rung");
            for (r, (a, e)) in ok.y.iter().zip(&oracle).enumerate() {
                let tol = 1e-2f64.max(e.abs() * 2e-2);
                assert!((*a as f64 - e).abs() <= tol, "row {r}: {a} vs {e}");
            }
        }
    }

    #[test]
    fn batching_outruns_per_request_serving_on_a_same_matrix_burst() {
        // The acceptance bar in miniature: the same 32-deep same-matrix
        // burst must finish in under half the wall-clock when coalesced.
        let run = |batch: BatchConfig| {
            let (mut srv, h, _) = batched_server(batch);
            let arrivals: Vec<OpenRequest> =
                (0..32).map(|i| open(h, Priority::Normal, i as f64 * 1e-7, 10.0)).collect();
            let out = srv.run_open_loop(arrivals);
            assert!(out.iter().all(|o| o.result.is_ok()), "idle server serves the burst");
            srv.clock_s()
        };
        let batched = run(BatchConfig::on());
        let single = run(BatchConfig::default());
        assert!(
            batched * 2.0 < single,
            "batched {batched:.3e}s vs per-request {single:.3e}s must be a >=2x win"
        );
    }

    #[test]
    fn batched_open_loop_is_deterministic() {
        let run = || {
            let (mut srv, h, _) = batched_server(BatchConfig::on());
            let arrivals: Vec<OpenRequest> = (0..30)
                .map(|i| open(h, Priority::ALL[i % 3], i as f64 * 5e-6, 400e-6))
                .collect();
            let out = srv.run_open_loop(arrivals);
            let bits: Vec<u64> = out.iter().map(|o| o.time_in_system_s().to_bits()).collect();
            (bits, srv.clock_s().to_bits(), srv.stats().batches, srv.stats().shed)
        };
        assert_eq!(run(), run(), "same schedule, same sweeps, same bits");
    }

    #[test]
    fn batching_window_never_serves_an_expired_request() {
        let (mut srv, h, _) = batched_server(BatchConfig::on());
        // A deep same-instant burst on tight budgets: the tail dies in
        // queue and must be shed at dequeue, never gathered into a sweep.
        let budget = 15e-6;
        let arrivals: Vec<OpenRequest> =
            (0..24).map(|_| open(h, Priority::Normal, 0.0, budget)).collect();
        let out = srv.run_open_loop(arrivals);
        for o in &out {
            match &o.result {
                Ok(_) => assert!(
                    o.queue_wait_s < budget,
                    "a served request was dead at dequeue: waited {}",
                    o.queue_wait_s
                ),
                Err(ServeError::Shed(ShedReason::Expired { .. })) => {
                    assert!(o.queue_wait_s >= budget, "expired only after the budget elapsed")
                }
                // Alive at dequeue but with less remaining budget than
                // one service: the ladder's deadline gate fails it
                // before executing — also never served expired.
                Err(ServeError::DeadlineExceeded { .. }) => {}
                Err(e) => panic!("unexpected outcome {e:?}"),
            }
        }
    }

    #[test]
    fn enabled_batching_at_width_one_matches_per_request_bits() {
        // max_width below the crossover makes every head unbatchable, so
        // the batched drain must reduce to the per-request drain exactly.
        let run = |batch: BatchConfig| {
            let (mut srv, h, _) = batched_server(batch);
            let arrivals: Vec<OpenRequest> = (0..30)
                .map(|i| open(h, Priority::ALL[i % 3], i as f64 * 20e-6, 300e-6))
                .collect();
            let out = srv.run_open_loop(arrivals);
            let bits: Vec<u64> = out.iter().map(|o| o.time_in_system_s().to_bits()).collect();
            (bits, srv.clock_s().to_bits(), srv.stats().shed)
        };
        let width_one = BatchConfig { enabled: true, max_width: 1, ..BatchConfig::default() };
        assert_eq!(run(width_one), run(BatchConfig::default()), "same bits either way");
        let (mut srv, h, _) = batched_server(width_one);
        let out = srv.run_open_loop(vec![open(h, Priority::Normal, 0.0, 10.0)]);
        assert!(out[0].result.is_ok());
        assert_eq!(srv.stats().batches, 0, "width one never forms a batch");
    }

    #[test]
    fn batched_sweep_absorbs_tensor_core_faults_via_column_checksums() {
        // Fragment corruption lands only on MMA accumulators; the
        // column-wise ABFT pass detects it and the scalar recompute
        // repairs it, so sweeps keep serving verified answers — the
        // paper's ABFT story, observed through the batching window.
        let (mut srv, h, csr) = batched_server(BatchConfig::on());
        srv.set_injection(&InjectionConfig {
            faults: FaultConfig { fragment_corrupt_rate: 1.0, ..FaultConfig::disabled() },
            ..InjectionConfig::none()
        });
        let arrivals: Vec<OpenRequest> =
            (0..16).map(|_| open(h, Priority::Normal, 0.0, 10.0)).collect();
        let out = srv.run_open_loop(arrivals);
        let st = srv.stats();
        assert!(st.batches >= 1, "sweeps keep forming under tensor-only faults");
        assert_eq!(st.batched_served, 16, "correction keeps every member on the sweep");
        assert_eq!(st.batch_fallbacks, 0);
        let oracle = csr.spmv_f64(&make_x(96)).unwrap();
        for o in &out {
            let ok = o.result.as_ref().expect("ABFT absorbs fragment faults");
            for (a, e) in ok.y.iter().zip(&oracle) {
                assert!((*a as f64 - e).abs() <= 1e-2f64.max(e.abs() * 2e-2));
            }
        }
    }

    #[test]
    fn failed_sweep_falls_back_to_the_per_request_ladder() {
        let (mut srv, h, _) = batched_server(BatchConfig::on());
        // Saturating memory faults corrupt the recompute path too, so the
        // SpMM retry ladder exhausts and every coalesced sweep fails.
        // Members must be re-served individually through the rung walk;
        // under full-rate injection that walk also fails — but with typed
        // errors, never an unverified Ok.
        srv.set_injection(&InjectionConfig {
            faults: FaultConfig { mem_bit_flip_rate: 1.0, ..FaultConfig::disabled() },
            ..InjectionConfig::none()
        });
        let arrivals: Vec<OpenRequest> =
            (0..8).map(|_| open(h, Priority::Normal, 0.0, 10.0)).collect();
        let out = srv.run_open_loop(arrivals);
        let st = srv.stats();
        assert!(st.batch_fallbacks >= 1, "the sweep must have failed and fallen back");
        assert_eq!(st.batched_served, 0, "no member was served from a failed sweep");
        for o in &out {
            match &o.result {
                Ok(ok) => panic!("full-rate faults must not produce a verified result: {ok:?}"),
                Err(ServeError::LadderExhausted { .. })
                | Err(ServeError::DeadlineExceeded { .. })
                | Err(ServeError::Unavailable) => {}
                Err(other) => panic!("unexpected error under injection: {other}"),
            }
        }
    }

    #[test]
    fn closed_loop_paths_ignore_the_overload_controller() {
        // run_batch / serve must behave identically whether or not the
        // open-loop overload policy is enabled.
        let csr = gen::random_uniform(128, 96, 1800, 901);
        let x = make_x(96);
        let run = |overload: OverloadConfig| {
            let cfg = ServeConfig { queue_capacity: 4, overload, ..ServeConfig::default() };
            let mut srv = SpmvServer::new(Gpu::new(GpuConfig::l40()), cfg);
            let h = srv.register(&csr).unwrap();
            let reqs: Vec<Request> = (0..7)
                .map(|_| Request { matrix: h, x: x.clone(), deadline_s: None })
                .collect();
            let results = srv.run_batch(reqs);
            let bits: Vec<Vec<u32>> = results
                .iter()
                .filter_map(|r| r.as_ref().ok())
                .map(|ok| ok.y.iter().map(|v| v.to_bits()).collect())
                .collect();
            (bits, srv.clock_s().to_bits(), srv.stats().overloaded)
        };
        let off = run(OverloadConfig::default());
        let on = run(OverloadConfig::on());
        assert_eq!(off, on, "closed-loop serving is bit-identical with overload control on");
    }

    // ---- evolving matrices / epoch-consistent serving ----

    use spaden_sparse::delta::Delta;

    fn check_against(csr: &Csr, x: &[f32], y: &[f32]) {
        let oracle = csr.spmv_f64(x).unwrap();
        for (r, (a, o)) in y.iter().zip(&oracle).enumerate() {
            let tol = 1e-2f64.max(o.abs() * 2e-2);
            assert!((*a as f64 - o).abs() <= tol, "row {r}: {a} vs {o}");
        }
    }

    /// A batch overwriting `k` existing entries (value-only by construction).
    fn value_batch(csr: &Csr, k: usize, scale: f32) -> DeltaBatch {
        let mut deltas = Vec::new();
        for row in 0..csr.nrows {
            let (cols, vals) = csr.row(row);
            if !cols.is_empty() {
                deltas.push(Delta {
                    row: row as u32,
                    col: cols[0],
                    value: vals[0] * scale + 0.25,
                });
                if deltas.len() == k {
                    break;
                }
            }
        }
        assert_eq!(deltas.len(), k, "fixture matrix must have {k} non-empty rows");
        DeltaBatch::new(deltas, csr.nrows, csr.ncols).unwrap()
    }

    /// A batch opening `k` brand-new 8x8 blocks (side-buffer entries).
    fn new_block_batch(csr: &Csr, k: usize) -> DeltaBatch {
        let bdim = spaden_sparse::gen::BLOCK_DIM;
        let mut occupied = std::collections::BTreeSet::new();
        for row in 0..csr.nrows {
            for &c in csr.row(row).0 {
                occupied.insert((row / bdim, c as usize / bdim));
            }
        }
        let mut deltas = Vec::new();
        'outer: for br in 0..csr.nrows.div_ceil(bdim) {
            for bc in 0..csr.ncols.div_ceil(bdim) {
                if !occupied.contains(&(br, bc)) {
                    deltas.push(Delta {
                        row: (br * bdim) as u32,
                        col: (bc * bdim) as u32,
                        value: 1.5,
                    });
                    if deltas.len() == k {
                        break 'outer;
                    }
                }
            }
        }
        assert_eq!(deltas.len(), k, "fixture matrix must have {k} empty blocks");
        DeltaBatch::new(deltas, csr.nrows, csr.ncols).unwrap()
    }

    fn evolving_server() -> (SpmvServer, MatrixHandle, Csr) {
        // Banded blocks: dense enough in-band that the canonical ladder
        // survives planning, with plenty of empty off-band blocks for
        // new-block (side-buffer) updates. Square 96x96.
        let csr = gen::generate_blocked(
            96,
            50,
            gen::Placement::Banded { bandwidth: 2 },
            &gen::FillDist::Uniform { lo: 24, hi: 64 },
            911,
        );
        let mut srv = SpmvServer::new(Gpu::new(GpuConfig::l40()), ServeConfig::default());
        let h = srv
            .register_evolving(
                &csr,
                EvolveConfig { side_capacity: 64, compact_threshold: 64, audit: true },
            )
            .expect("valid matrix registers");
        (srv, h, csr)
    }

    #[test]
    fn value_only_update_publishes_a_new_epoch_that_serves_verified() {
        let (mut srv, h, csr) = evolving_server();
        assert_eq!(srv.epoch(h), Some(0));
        let batch = value_batch(&csr, 9, 2.0);
        let outcome = srv.update(h, &batch).expect("clean update commits");
        assert_eq!(outcome.report.class, DeltaClass::ValueOnly);
        assert_eq!(srv.epoch(h), Some(1));
        assert_eq!(srv.stats().updates, 1);
        let x = make_x(96);
        let ok = srv.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
        assert_eq!(ok.epoch, 1);
        let truth = spaden_sparse::delta::apply_to_csr(&csr, &batch).unwrap();
        check_against(&truth, &x, &ok.y);
    }

    #[test]
    fn structural_update_serves_base_plus_side_tail_verified() {
        let (mut srv, h, csr) = evolving_server();
        let batch = new_block_batch(&csr, 5);
        let outcome = srv.update(h, &batch).expect("clean update commits");
        assert_eq!(outcome.report.class, DeltaClass::Structural);
        assert!(!outcome.report.compacted, "threshold 64 must not compact 5 entries");
        assert_eq!(outcome.report.apply.side_inserts, 5);
        let x = make_x(96);
        let ok = srv.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
        // Served by the top Spaden rung: base kernel + side tail.
        assert_eq!(ok.rung, Rung::SpadenChecked);
        assert_eq!(ok.epoch, 1);
        let truth = spaden_sparse::delta::apply_to_csr(&csr, &batch).unwrap();
        check_against(&truth, &x, &ok.y);
        // The scalar and CSR rungs serve the same logical matrix.
        srv.trip_rung(Rung::SpadenChecked);
        let ok = srv.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
        assert_eq!(ok.rung, Rung::SpadenScalar);
        check_against(&truth, &x, &ok.y);
        srv.trip_rung(Rung::SpadenChecked);
        srv.trip_rung(Rung::SpadenScalar);
        let ok = srv.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
        assert_eq!(ok.rung, Rung::CsrBaseline);
        check_against(&truth, &x, &ok.y);
    }

    #[test]
    fn injected_update_fault_rolls_back_and_the_old_epoch_keeps_serving() {
        let (mut srv, h, csr) = evolving_server();
        let batch = value_batch(&csr, 7, 3.0);
        let err = srv
            .update_with_fault(h, &batch, Some(UpdateFault { delta_index: 3, bit: 9 }))
            .expect_err("corrupted splice must be rejected");
        match err {
            ServeError::Update(UpdateError::VerificationFailed { epoch: 0, .. }) => {}
            other => panic!("expected Update(VerificationFailed), got {other:?}"),
        }
        assert_eq!(srv.epoch(h), Some(0), "bad epoch must never publish");
        assert_eq!(srv.stats().update_rollbacks, 1);
        assert_eq!(srv.evolve_stats(h).unwrap().rollbacks, 1);
        // The pre-update matrix still serves, verified.
        let x = make_x(96);
        let ok = srv.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
        assert_eq!(ok.epoch, 0);
        check_against(&csr, &x, &ok.y);
        // The identical batch without the fault commits afterwards.
        srv.update(h, &batch).expect("clean retry commits");
        assert_eq!(srv.epoch(h), Some(1));
    }

    #[test]
    fn update_on_non_evolving_matrix_is_typed() {
        let (mut srv, h, csr) = clean_server();
        let batch = value_batch(&csr, 1, 1.0);
        match srv.update(h, &batch) {
            Err(ServeError::NotEvolving(0)) => {}
            other => panic!("expected NotEvolving, got {other:?}"),
        }
        match srv.update(MatrixHandle(9), &batch) {
            Err(ServeError::UnknownMatrix(9)) => {}
            other => panic!("expected UnknownMatrix, got {other:?}"),
        }
    }

    #[test]
    fn open_loop_requests_finish_on_their_admitted_epoch() {
        let (mut srv, h, csr) = evolving_server();
        let batch = value_batch(&csr, 9, -1.5);
        let truth = spaden_sparse::delta::apply_to_csr(&csr, &batch).unwrap();
        // A same-instant burst admitted at epoch 0; the update lands
        // while the backlog drains, then a late arrival sees epoch 1.
        let mut arrivals: Vec<OpenRequest> =
            (0..6).map(|_| open(h, Priority::Normal, 0.0, 10.0)).collect();
        arrivals.push(open(h, Priority::Normal, 1e-3, 10.0));
        let updates = vec![ScheduledUpdate {
            at_s: 1e-6,
            matrix: h,
            batch,
            fault: None,
        }];
        let (out, applied) = srv.run_open_loop_evolving(arrivals, updates);
        assert_eq!(applied.len(), 1);
        applied[0].as_ref().expect("scheduled update commits");
        let x = make_x(96);
        for o in &out[..6] {
            assert_eq!(o.epoch, 0, "burst was admitted before the update");
            let ok = o.result.as_ref().expect("admitted burst serves");
            assert_eq!(ok.epoch, 0);
            // Epoch consistency: the pre-update matrix answered, even
            // for requests *served* after the update committed.
            check_against(&csr, &x, &ok.y);
        }
        let late = &out[6];
        assert_eq!(late.epoch, 1, "late arrival admitted on the new epoch");
        check_against(&truth, &x, &late.result.as_ref().unwrap().y);
        // At least one burst request was served after the update landed
        // (the update applies instantly at t=1us; draining six requests
        // takes far longer).
        assert!(
            out[..6].iter().filter(|o| o.done_s > 1e-6).count() >= 1,
            "fixture must exercise a stale-epoch service"
        );
    }

    fn evolving_sharded_server() -> (SpmvServer, MatrixHandle, Csr) {
        let csr = gen::random_uniform(256, 96, 1200, 907);
        let cfg = ServeConfig { shard_devices: 4, ..ServeConfig::default() };
        let mut srv = SpmvServer::new(Gpu::new(GpuConfig::l40()), cfg);
        let h = srv
            .register_evolving(
                &csr,
                EvolveConfig { side_capacity: 64, compact_threshold: 64, audit: true },
            )
            .expect("valid matrix registers");
        (srv, h, csr)
    }

    #[test]
    fn value_only_update_reslices_the_partition_plan() {
        let (mut srv, h, csr) = evolving_sharded_server();
        let misses_before = srv.partition_cache_stats().misses;
        let batch = value_batch(&csr, 9, 0.5);
        let outcome = srv.update(h, &batch).expect("clean update commits");
        assert!(outcome.partition_resliced, "value-only update must carry the plan across");
        assert!(!outcome.repartitioned);
        assert_eq!(
            srv.partition_cache_stats().misses,
            misses_before,
            "the resliced plan must hit, not re-partition"
        );
        // The resliced checksums accept the sharded rung's output.
        let x = make_x(96);
        let ok = srv.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
        assert_eq!(ok.rung, Rung::Sharded);
        assert_eq!(ok.epoch, 1);
        let truth = spaden_sparse::delta::apply_to_csr(&csr, &batch).unwrap();
        check_against(&truth, &x, &ok.y);
        assert_eq!(srv.stats().epoch_stragglers, 0);
    }

    #[test]
    fn structural_update_repartitions_for_the_fleet() {
        let (mut srv, h, csr) = evolving_sharded_server();
        let batch = new_block_batch(&csr, 4);
        let outcome = srv.update(h, &batch).expect("clean update commits");
        assert!(outcome.repartitioned);
        assert!(!outcome.partition_resliced);
        let x = make_x(96);
        let ok = srv.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
        assert_eq!(ok.rung, Rung::Sharded, "fresh partition serves the new epoch");
        let truth = spaden_sparse::delta::apply_to_csr(&csr, &batch).unwrap();
        check_against(&truth, &x, &ok.y);
    }

    #[test]
    fn epoch_straggler_skips_the_sharded_rung_but_still_serves() {
        let (mut srv, h, csr) = evolving_sharded_server();
        let batch = value_batch(&csr, 5, 4.0);
        // Burst admitted at epoch 0, update lands mid-drain: stragglers
        // must skip the head-epoch fleet and serve on their captured
        // single-device ladder.
        let arrivals: Vec<OpenRequest> =
            (0..5).map(|_| open(h, Priority::Normal, 0.0, 10.0)).collect();
        let updates =
            vec![ScheduledUpdate { at_s: 1e-6, matrix: h, batch, fault: None }];
        let (out, applied) = srv.run_open_loop_evolving(arrivals, updates);
        applied[0].as_ref().expect("scheduled update commits");
        let x = make_x(96);
        let mut straggled = 0;
        for o in &out {
            let ok = o.result.as_ref().expect("every burst request serves");
            assert_eq!(ok.epoch, 0);
            check_against(&csr, &x, &ok.y);
            if ok.rung != Rung::Sharded {
                straggled += 1;
            }
        }
        assert!(straggled >= 1, "fixture must exercise the straggler path");
        assert_eq!(srv.stats().epoch_stragglers as usize, straggled);
    }

    #[test]
    fn run_open_loop_is_bit_identical_to_the_evolving_loop_without_updates() {
        let run = |evolving: bool| {
            let (mut srv, h, _) = clean_server();
            let arrivals: Vec<OpenRequest> = (0..20)
                .map(|i| open(h, Priority::ALL[i % 3], i as f64 * 20e-6, 300e-6))
                .collect();
            let out = if evolving {
                srv.run_open_loop_evolving(arrivals, Vec::new()).0
            } else {
                srv.run_open_loop(arrivals)
            };
            let bits: Vec<u64> = out.iter().map(|o| o.time_in_system_s().to_bits()).collect();
            (bits, srv.clock_s().to_bits(), srv.stats().shed)
        };
        assert_eq!(run(false), run(true), "empty update schedule must change nothing");
    }

    fn durable_server() -> (SpmvServer, MatrixHandle, Csr) {
        let csr = gen::generate_blocked(
            96,
            50,
            gen::Placement::Banded { bandwidth: 2 },
            &gen::FillDist::Uniform { lo: 24, hi: 64 },
            911,
        );
        let mut srv = SpmvServer::new(Gpu::new(GpuConfig::l40()), ServeConfig::default());
        let h = srv
            .register_evolving_durable(
                &csr,
                EvolveConfig { side_capacity: 64, compact_threshold: 64, audit: true },
                spaden_store::SnapshotPolicy { snapshot_every: 2 },
            )
            .expect("valid matrix registers");
        (srv, h, csr)
    }

    #[test]
    fn durability_off_serving_is_bit_identical_to_durable_serving() {
        // The store only observes commits; the served bytes must not
        // depend on whether it is attached.
        let x = make_x(96);
        let run = |durable: bool| {
            let (mut srv, h, csr) = if durable { durable_server() } else { evolving_server() };
            srv.update(h, &value_batch(&csr, 9, 2.0)).expect("commit");
            srv.update(h, &new_block_batch(&csr, 3)).expect("commit");
            let ok = srv.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
            (ok.y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), ok.epoch, ok.rung)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn crash_image_recovers_the_exact_epoch_and_serving_resumes() {
        let (mut srv, h, csr) = durable_server();
        srv.update(h, &value_batch(&csr, 9, 2.0)).expect("commit");
        srv.update(h, &new_block_batch(&csr, 4)).expect("commit");
        srv.update(h, &value_batch(&csr, 5, -1.0)).expect("commit");
        assert_eq!(srv.epoch(h), Some(3));
        let x = make_x(96);
        let before = srv.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
        let image = srv.durable_image(h).expect("durable registration has an image");

        // "Restart": a fresh server recovers from the crash image.
        let mut srv2 = SpmvServer::new(Gpu::new(GpuConfig::l40()), ServeConfig::default());
        let (h2, report) = srv2
            .recover_evolving(&image, spaden_store::SnapshotPolicy { snapshot_every: 2 })
            .expect("clean image recovers");
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.recovered_epoch, 3);
        assert_eq!(report.snapshot_epoch, 2);
        assert_eq!(report.replayed, 1);
        assert_eq!(srv2.epoch(h2), Some(3));
        assert_eq!(srv2.fingerprint_of(h2), srv.fingerprint_of(h), "same truth bits");
        // Recovery re-checkpoints: empty log, snapshot at the tip.
        let store = srv2.durable_store(h2).unwrap();
        assert_eq!(store.wal_bytes(), 0);
        assert!(store.snapshot_bytes() > 0);
        // Bit-identical serving across the crash.
        let after = srv2.serve(Request { matrix: h2, x: x.clone(), deadline_s: None }).unwrap();
        assert_eq!(after.epoch, before.epoch);
        assert_eq!(
            after.y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            before.y.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // And the recovered matrix keeps evolving.
        srv2.update(h2, &value_batch(&csr, 3, 0.5)).expect("recovered matrix commits");
        assert_eq!(srv2.epoch(h2), Some(4));
    }

    #[test]
    fn recovery_rebuilds_the_snapshot_the_commit_path_published() {
        // All three snapshot paths meet here: registration, a structural
        // commit that re-prices the ladder, a value-only commit that
        // reuses those costs, and a recovery that prices from scratch.
        let (mut srv, h, csr) = durable_server();
        srv.update(h, &new_block_batch(&csr, 4)).expect("structural commit");
        let outcome = srv.update(h, &value_batch(&csr, 9, 2.0)).expect("value-only commit");
        assert_eq!(outcome.report.class, DeltaClass::ValueOnly);
        let image = srv.durable_image(h).expect("durable registration has an image");
        let mut srv2 = SpmvServer::new(Gpu::new(GpuConfig::l40()), ServeConfig::default());
        let (h2, _) = srv2
            .recover_evolving(&image, spaden_store::SnapshotPolicy { snapshot_every: 2 })
            .expect("clean image recovers");

        let before = srv.matrices[h.0].current.clone();
        let after = srv2.matrices[h2.0].current.clone();
        assert_eq!(after.ladder, before.ladder);
        assert_eq!(after.est_cost_s.map(f64::to_bits), before.est_cost_s.map(f64::to_bits));
        assert_eq!((after.epoch, before.epoch), (2, 2));
        assert!(!before.side.is_empty(), "fixture must leave a side tail");
        assert_eq!(after.side, before.side);
        let x = make_x(96);
        let served = |s: &mut SpmvServer, h: MatrixHandle| {
            let ok = s.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
            ok.y.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(served(&mut srv2, h2), served(&mut srv, h));
    }

    #[test]
    fn fault_storm_rolls_back_every_update_with_the_served_pointer_unchanged() {
        // Satellite: N *consecutive* injected faults must produce N
        // rollbacks while the served snapshot is never even re-published
        // — the Arc pointer itself stays fixed through the storm.
        let (mut srv, h, csr) = evolving_server();
        srv.update(h, &value_batch(&csr, 4, 1.5)).expect("commit");
        let head = Arc::as_ptr(&srv.matrices[h.0].current);
        let storm = 4;
        for i in 0..storm {
            let batch = value_batch(&csr, 5 + i, 2.0 + i as f32);
            let err = srv
                .update_with_fault(h, &batch, Some(UpdateFault { delta_index: 0, bit: 9 }))
                .expect_err("faulted update must roll back");
            assert!(matches!(err, ServeError::Update(UpdateError::VerificationFailed { .. })));
            assert_eq!(
                Arc::as_ptr(&srv.matrices[h.0].current),
                head,
                "storm fault {i} must not touch the served snapshot"
            );
            assert_eq!(srv.epoch(h), Some(1));
        }
        assert_eq!(srv.stats().update_rollbacks, storm as u64);
        assert_eq!(srv.evolve_stats(h).unwrap().rollbacks, storm as u64);
        // The matrix is still healthy after the storm.
        srv.update(h, &value_batch(&csr, 6, -2.0)).expect("post-storm commit");
        assert_eq!(srv.epoch(h), Some(2));
    }

    #[test]
    fn rolled_back_updates_never_reach_the_log() {
        let (mut srv, h, csr) = durable_server();
        srv.update(h, &value_batch(&csr, 4, 1.5)).expect("commit");
        let appended = srv.durable_store(h).unwrap().records_appended();
        let wal_bytes = srv.durable_store(h).unwrap().wal_bytes();
        srv.update_with_fault(h, &value_batch(&csr, 7, 3.0), Some(UpdateFault { delta_index: 1, bit: 9 }))
            .expect_err("faulted update rolls back");
        let store = srv.durable_store(h).unwrap();
        assert_eq!(store.records_appended(), appended, "rollback must not be logged");
        assert_eq!(store.wal_bytes(), wal_bytes);
        srv.update(h, &value_batch(&csr, 7, 3.0)).expect("clean retry commits");
        assert_eq!(srv.durable_store(h).unwrap().records_appended(), appended + 1);
    }
}
