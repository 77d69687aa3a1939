//! # spaden-shard
//!
//! Multi-device sharded SpMV with device-failure recovery and straggler
//! mitigation, on top of the Spaden reproduction's functional GPU
//! simulator.
//!
//! A prepared matrix is cut into nnz-balanced block-row shards
//! ([`ShardedMatrix`]) — the bitBSR conversion and the ABFT checksum
//! build happen **once**, and every shard is a slice of both (checksums
//! are never recomputed from sliced data). Each shard's expected
//! duration, which prices timeouts, speculation and deadlines, comes
//! from the `spaden_plan` cost model over the shard's block profile;
//! partitioning launches no kernel. The shards are scheduled
//! across a [`DeviceFleet`] of independent simulated devices by a
//! deterministic event-driven loop that retries transient failures with
//! exponential backoff, detects hangs with per-shard timeouts,
//! redistributes the shards of crashed devices to survivors (re-pricing
//! the deadline against surviving capacity), and speculatively
//! re-executes stragglers on the fastest idle device. Every shard
//! result is ABFT-verified before recombination: a request ends in a
//! verified `y` or a typed [`ShardError`], never silent corruption.
//!
//! With all fault rates zero, the sharded result is **bit-identical**
//! to a single-device Spaden run for any device count — partition
//! boundaries land on even block-row indices so each shard preserves
//! the paired kernel's warp-to-block-row mapping.

pub mod fleet;
pub mod sharded;

pub use fleet::DeviceFleet;
pub use sharded::{
    Shard, ShardError, ShardPolicy, ShardRunReport, ShardedMatrix, ShardedRun,
};
