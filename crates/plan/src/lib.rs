//! # spaden-plan
//!
//! The plan layer of the Spaden reproduction. Format conversion dominates
//! amortised SpMV cost (Figure 10), and Section 5.4's block profile
//! predicts which kernel wins on which structure. This crate turns the
//! second observation into one ranking function the rest of the stack
//! shares:
//!
//! * [`registry`] — the catalog of every SpMV method ([`EngineKind`]) and
//!   uniform fallible construction ([`try_build_engine`]);
//! * [`cost`] — a closed-form cost model predicting each engine's
//!   [`spaden_gpusim::SimTime`] from structural statistics
//!   ([`MatrixStats`], derived from a `MatrixFingerprint`), and
//!   [`rank_engines`], which orders candidates by predicted time. `repro
//!   plan` validates the ranking against an exhaustive oracle; the
//!   serving and sharding layers price their rungs and shards with
//!   [`predict_time`].

pub mod cost;
pub mod registry;

pub use cost::{
    predict_counters, predict_spmm_counters, predict_spmm_time, predict_time, rank_engines,
    spmm_crossover, MatrixStats, RankedEngine,
};
pub use registry::{
    build_engine, try_build_engine, EngineKind, ALL_ENGINES, FIG6_ENGINES, FIG8_ENGINES,
};
