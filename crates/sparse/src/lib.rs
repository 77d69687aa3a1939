//! # spaden-sparse
//!
//! Sparse-matrix substrate for the Spaden reproduction (ICPP '24,
//! *Bitmap-Based Sparse Matrix-Vector Multiplication with Tensor Cores*).
//!
//! This crate provides everything the paper's evaluation needs on the host
//! side, independent of any GPU model:
//!
//! * the classic storage formats the paper discusses in Section 2
//!   ([`Coo`], [`Csr`], [`Ell`], [`Hyb`], [`Bsr`]), each with
//!   validated construction, conversions, byte accounting and reference
//!   (serial and thread-parallel, see [`par`]) SpMV kernels that
//!   act as correctness oracles for every simulated GPU kernel;
//! * MatrixMarket I/O ([`mtx`]) so real SuiteSparse files can be used when
//!   available;
//! * deterministic synthetic dataset generators ([`gen`], [`datasets`])
//!   parameterised to match Table 1 of the paper;
//! * block-structure analytics ([`stats`]) backing Figure 9, and the one
//!   linear block-row walk ([`blockrow`]) the blocked formats and those
//!   analytics are built from.
//!
//! All formats store values as `f32`, matching the paper's evaluated
//! precision ("The precision of the evaluated output is 32-bit floating
//! point"). The bitmap format itself (bitBSR) lives in the `spaden` core
//! crate because it is the paper's contribution, not a substrate.

// Row-indexed loops mirror the Algorithm-1 pseudocode of the paper and
// keep kernels readable next to their CUDA counterparts.
#![allow(clippy::needless_range_loop)]

pub mod blockrow;
pub mod bsr;
pub mod coo;
pub mod csr;
pub mod datasets;
pub mod delta;
pub mod dense;
pub mod ell;
pub mod fingerprint;
pub mod gen;
pub mod hyb;
pub mod mtx;
pub mod par;
pub mod partition;
pub mod reorder;
pub mod rng;
pub mod scan;
pub mod stats;
pub mod types;

pub use bsr::Bsr;
pub use coo::Coo;
pub use csr::Csr;
pub use datasets::{Dataset, DatasetSpec, ALL_DATASETS, IN_SCOPE_DATASETS};
pub use delta::{Delta, DeltaBatch, DeltaClass, UpdateError};
pub use dense::Dense;
pub use ell::Ell;
pub use fingerprint::{fingerprint, Fnv, MatrixFingerprint};
pub use hyb::Hyb;
pub use rng::Pcg64;
pub use stats::{BlockClass, BlockProfile};
pub use types::{SparseError, SparseResult};
