//! The public request, configuration, outcome, error and statistics
//! types of the server.

use crate::overload::{percentile, OverloadConfig};
use crate::queue::{Priority, ShedReason};
use spaden::engine::EngineError;
use spaden::{UpdateFault, UpdateReport};
use spaden_plan::EngineKind;
use spaden_sparse::delta::{DeltaBatch, UpdateError};
use spaden_store::WalError;
#[cfg(doc)]
use {super::SpmvServer, crate::breaker::BreakerConfig, spaden_shard::ShardPolicy};

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
    pub(super) fn engine_kind(&self) -> EngineKind {
        match self {
            Rung::Sharded => EngineKind::Spaden, // per-device kernel
            Rung::SpadenChecked => EngineKind::Spaden,
            Rung::SpadenScalar => EngineKind::SpadenNoTc,
            Rung::CsrBaseline => EngineKind::CusparseCsr,
        }
    }
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
    pub(super) latencies_s: Vec<f64>,
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
