//! # spaden
//!
//! Reproduction of **Spaden** — *Bitmap-Based Sparse Matrix-Vector
//! Multiplication with Tensor Cores* (Chen & Yu, ICPP '24) — on the
//! [`gpusim`] simulated GPU substrate.
//!
//! Spaden has two components (paper §4):
//!
//! 1. **bitBSR** ([`BitBsr`]): blocked CSR where each non-empty 8×8 block
//!    is compressed to a 64-bit occupancy bitmap plus its packed nonzero
//!    values in f16 — rectangular like BSR, compact like CSR.
//! 2. A **pairing SpMV kernel** ([`SpadenEngine`]): each warp decodes two
//!    blocks straight into the diagonal portions of a tensor-core fragment
//!    through the reverse-engineered register mapping (registers
//!    `x[0,1]` / `x[6,7]`), multiplies against a column-broadcast vector
//!    fragment, and extracts 16 output rows per MMA.
//!
//! Ablation variants from §5.3 are included: [`SpadenNoTcEngine`]
//! ("Spaden w/o TC": same bitBSR decode, CUDA-core FMAs) and
//! [`CsrWarp16Engine`] (the uncoalesced 16-rows-per-warp CSR strawman).
//!
//! ```
//! use spaden::{SpadenEngine, SpmvEngine};
//! use spaden::gpusim::{Gpu, GpuConfig};
//!
//! let csr = spaden::sparse::gen::random_uniform(256, 256, 4000, 1);
//! let gpu = Gpu::new(GpuConfig::l40());
//! let engine = SpadenEngine::prepare(&gpu, &csr);
//! let x = vec![1.0f32; 256];
//! let run = engine.run(&gpu, &x);
//! assert_eq!(run.y.len(), 256);
//! ```

// Kernels are written in warp-lockstep style: explicit `for lane in
// 0..32` loops indexing parallel per-lane arrays, mirroring the CUDA
// code they model. The range-loop lint fights that idiom.
#![allow(clippy::needless_range_loop)]

pub mod abft;
pub mod bitbsr;
pub mod bitcoo;
pub mod csr_warp16;
pub mod decode;
pub mod delta;
pub mod engine;
pub mod evolve;
pub mod kernel_cuda;
pub mod kernel_tc;
pub mod sddmm;
pub mod spmm;

pub use abft::{AbftChecksums, AbftParts};
pub use bitbsr::BitBsr;
pub use bitcoo::{BitCoo, BitCooEngine};
pub use csr_warp16::CsrWarp16Engine;
pub use delta::{ApplyStats, DeltaBitBsr, SideEntry, UpdateFault};
pub use engine::{prepare_validated, EngineError, PrepStats, SpmvEngine, SpmvRun};
pub use evolve::{EvolveConfig, EvolveStats, EvolvingMatrix, RestoreError, UpdateReport};
pub use kernel_cuda::SpadenNoTcEngine;
pub use kernel_tc::{FragmentIo, Packing, SpadenConfig, SpadenEngine, ABFT_MAX_RETRIES};
pub use sddmm::SpadenSddmmEngine;
pub use spmm::{CsrSpmmEngine, SpadenSpmmEngine, SpmmRun};

// Re-export the substrate crates under stable names for downstream users.
pub use spaden_gpusim as gpusim;
pub use spaden_sparse as sparse;
