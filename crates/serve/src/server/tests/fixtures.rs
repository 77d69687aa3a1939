//! Matrices, servers and update batches shared by the server tests.

use super::*;
use spaden::EvolveConfig;
use spaden_sparse::csr::Csr;
use spaden_sparse::delta::{Delta, DeltaBatch};

pub(super) fn make_x(n: usize) -> Vec<f32> {
    (0..n).map(|i| ((i * 37 + 11) % 64) as f32 / 32.0 - 1.0).collect()
}

pub(super) fn clean_server() -> (SpmvServer, MatrixHandle, Csr) {
    let csr = gen::random_uniform(128, 96, 1800, 901);
    let mut srv = SpmvServer::new(Gpu::new(GpuConfig::l40()), ServeConfig::default());
    let h = srv.register(&csr).expect("valid matrix registers");
    (srv, h, csr)
}

pub(super) fn sharded_server(devices: usize) -> (SpmvServer, MatrixHandle, Csr) {
    let csr = gen::random_uniform(256, 96, 3200, 907);
    let cfg = ServeConfig { shard_devices: devices, ..ServeConfig::default() };
    let mut srv = SpmvServer::new(Gpu::new(GpuConfig::l40()), cfg);
    let h = srv.register(&csr).expect("valid matrix registers");
    (srv, h, csr)
}

pub(super) fn open(h: MatrixHandle, priority: Priority, arrival_s: f64, deadline_s: f64) -> OpenRequest {
    OpenRequest {
        request: Request { matrix: h, x: make_x(96), deadline_s: Some(deadline_s) },
        priority,
        arrival_s,
    }
}

pub(super) fn batched_server(batch: BatchConfig) -> (SpmvServer, MatrixHandle, Csr) {
    let csr = gen::random_uniform(128, 96, 1800, 901);
    let cfg = ServeConfig { batch, ..ServeConfig::default() };
    let mut srv = SpmvServer::new(Gpu::new(GpuConfig::l40()), cfg);
    let h = srv.register(&csr).expect("valid matrix registers");
    (srv, h, csr)
}

pub(super) fn check_against(csr: &Csr, x: &[f32], y: &[f32]) {
    let oracle = csr.spmv_f64(x).unwrap();
    for (r, (a, o)) in y.iter().zip(&oracle).enumerate() {
        let tol = 1e-2f64.max(o.abs() * 2e-2);
        assert!((*a as f64 - o).abs() <= tol, "row {r}: {a} vs {o}");
    }
}

/// A batch overwriting `k` existing entries (value-only by construction).
pub(super) fn value_batch(csr: &Csr, k: usize, scale: f32) -> DeltaBatch {
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
pub(super) fn new_block_batch(csr: &Csr, k: usize) -> DeltaBatch {
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

pub(super) fn evolving_server() -> (SpmvServer, MatrixHandle, Csr) {
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

pub(super) fn evolving_sharded_server() -> (SpmvServer, MatrixHandle, Csr) {
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

pub(super) fn durable_server() -> (SpmvServer, MatrixHandle, Csr) {
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
