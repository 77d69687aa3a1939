//! # spaden-traffic
//!
//! Deterministic open-loop traffic engine for the Spaden serving stack.
//!
//! The chaos harnesses in `spaden-serve` answer "does the ladder survive
//! faults?"; this crate answers the capacity question: *how much load
//! can the server sustain, and what happens past that point?* Because
//! the generator is **open-loop** — arrival times are drawn up front
//! from a seeded process, never throttled by the server — overload is
//! actually reachable, and the overload-control layer (deadline expiry,
//! priority eviction, adaptive limit, brownout) is what's on trial.
//!
//! The moving parts:
//!
//! * [`arrival`] — [`ArrivalProcess`]: Poisson, diurnal, and flash-crowd
//!   rate shapes, realized by Lewis–Shedler thinning of a seeded
//!   [`Pcg64`](spaden_sparse::rng::Pcg64) stream.
//! * [`tenant`] — [`Population`]: Zipf tenant weights, Zipf matrix
//!   popularity over thousands of fingerprints, fixed per-tenant
//!   priority tiers, per-tenant SLO ledgers.
//! * [`engine`] — [`run_traffic`]: schedule → [`SpmvServer::run_open_loop`]
//!   → [`TrafficSummary`] with per-priority latency percentiles,
//!   availability, shed breakdowns, and an independent f64-oracle check
//!   of every `Ok` (degraded modes shed; they never skip verification).
//! * [`report`] — [`traffic_sweep`]: capacity calibration, the
//!   saturation ladder, the flash-crowd scenario, and the `TRAFFIC`
//!   verdict checks behind `repro traffic`.
//!
//! Every run is a pure function of `(GpuConfig, TrafficConfig)`; the
//! simulated clock and seeded RNG streams make summaries bit-identical
//! run to run, certified by [`TrafficSummary::digest`].
//!
//! [`SpmvServer::run_open_loop`]: spaden_serve::SpmvServer::run_open_loop
//!
//! # Quickstart
//!
//! ```
//! use spaden_gpusim::GpuConfig;
//! use spaden_traffic::{run_traffic, ArrivalProcess, TrafficConfig};
//!
//! let cfg = TrafficConfig::new(7, 1e-3, ArrivalProcess::Poisson { rate_rps: 30_000.0 });
//! let summary = run_traffic(&GpuConfig::l40(), &cfg);
//! assert!(summary.offered > 0);
//! assert_eq!(summary.unverified_ok, 0);   // every Ok passed the f64 oracle
//! ```

pub mod arrival;
pub mod engine;
pub mod report;
pub mod tenant;

pub use arrival::ArrivalProcess;
pub use engine::{
    calibrate_capacity_rps, oracle_tol, run_traffic, traffic_x, window_stats, CorpusConfig,
    TrafficConfig, TrafficSummary, WindowStat,
};
pub use report::{traffic_sweep, traffic_sweep_with, Check, SweepConfig, SweepPoint, TrafficReport};
pub use tenant::{ArrivalMeta, Population, PopulationConfig, TenantAccount};
