//! Resilient SpMV serving layer for the Spaden stack.
//!
//! `spaden-serve` turns the single-shot engines in `spaden` and
//! `spaden-baselines` into a request executor with an availability story:
//! batches of `(matrix, x, deadline)` requests go in, and every one comes
//! back as a *checksum-verified* result or a *typed* error — never a
//! silent wrong answer, never a hang, even while the simulator's fault
//! injector is corrupting kernels underneath.
//!
//! The moving parts, each in its own module:
//!
//! * [`server`] — the [`SpmvServer`]: registration (ingress validation,
//!   engine preparation, cost estimation), the four-rung failover ladder
//!   (multi-device sharded Spaden → ABFT-checked tensor-core Spaden →
//!   scalar bitBSR recompute → CSR baseline with f32 checksums),
//!   per-request deadline budgets in simulated time, retry with
//!   exponential backoff. The sharded rung is enabled by setting
//!   [`ServeConfig::shard_devices`] and adds crash redistribution, hang
//!   timeouts, and straggler speculation on a fleet of simulated
//!   devices. Matrices registered through
//!   [`SpmvServer::register_evolving`] additionally accept verified
//!   streaming updates ([`SpmvServer::update`]): every commit publishes
//!   a new immutable epoch snapshot, in-flight requests finish on the
//!   epoch they were admitted on, and a failed update rolls back
//!   without publishing anything.
//! * [`breaker`] — a per-rung [`CircuitBreaker`] that trips after
//!   consecutive verification failures, sheds load while open, and
//!   probes its way back (half-open) when the fault burst passes.
//! * [`queue`] — the [`BoundedQueue`] admission buffer (bursts past its
//!   capacity are rejected with [`ServeError::Overloaded`]) and the
//!   [`AdmissionQueue`]: three priority lanes, absolute deadline expiry
//!   checked at dequeue, newest-weakest eviction, typed [`ShedReason`]s.
//! * [`overload`] — the [`OverloadController`] behind
//!   [`SpmvServer::run_open_loop`]: an AIMD concurrency limit steering
//!   observed p99 time-in-system toward the SLO target, plus the
//!   [`BrownoutMode`] ladder that sheds Low- then Normal-priority
//!   traffic under sustained overload — degraded modes shed, they never
//!   skip verification. Disabled by default: the closed-loop paths are
//!   bit-identical to the pre-overload-control server.
//! * [`checksum`] — [`CsrChecksums`], f32 block-row checksums so the CSR
//!   rung is held to the same verified-or-rejected standard as the ABFT
//!   rungs.
//! * [`chaos`] — [`chaos_sweep`], the fault-rate × seed harness behind
//!   `repro serve`, certifying the no-silent-wrong-answer SLO.
//! * [`device_chaos`] — [`device_chaos_sweep`], fleet-level failure
//!   profiles (kill one device mid-stream, all devices slow, rolling
//!   hangs) behind `repro shard`, certifying the same SLO plus a ≥ 90%
//!   availability bar under device loss.
//!
//! # Quickstart
//!
//! ```
//! use spaden_gpusim::{Gpu, GpuConfig};
//! use spaden_serve::{Request, ServeConfig, SpmvServer};
//! use spaden_sparse::gen;
//!
//! let mut server = SpmvServer::new(Gpu::new(GpuConfig::l40()), ServeConfig::default());
//! let matrix = server.register(&gen::random_uniform(64, 64, 900, 42)).unwrap();
//! let ok = server
//!     .serve(Request { matrix, x: vec![1.0; 64], deadline_s: None })
//!     .unwrap();
//! assert_eq!(ok.y.len(), 64);       // verified result,
//! assert!(ok.latency_s > 0.0);      // priced in simulated seconds
//! ```

pub mod breaker;
pub mod chaos;
pub mod checksum;
pub mod device_chaos;
pub mod overload;
pub mod queue;
pub mod server;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use chaos::{chaos_sweep, CellReport, ChaosConfig, ChaosReport, FaultProfile};
pub use device_chaos::{
    device_chaos_sweep, DeviceCellReport, DeviceChaosConfig, DeviceChaosReport, DeviceProfile,
};
pub use checksum::CsrChecksums;
pub use overload::{percentile, BrownoutMode, OverloadConfig, OverloadController, OverloadStats};
pub use queue::{
    AdmissionQueue, Admitted, BoundedQueue, Dequeued, Priority, PushOutcome, ShedCounters,
    ShedReason, PRIORITIES,
};
pub use server::{
    BatchConfig, MatrixHandle, OpenOutcome, OpenRequest, RecoveryReport, Request, Rung,
    ScheduledUpdate, ServeConfig, ServeError, ServeStats, ServedOk, SpmvServer, UpdateOutcome,
    Weaken, RUNGS,
};
