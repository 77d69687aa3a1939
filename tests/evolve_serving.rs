//! Cross-layer integration of the evolving-matrix lifecycle: sparse
//! deltas → core epoch transactions → serve-layer publication. Asserts
//! the contract the `repro evolve` verdict is built on: requests serve
//! the epoch they were admitted on, rollback never interrupts serving,
//! overflow is typed and atomic, and value-only vs structural commits
//! have the right plan-layer footprint.

use spaden::{EvolveConfig, UpdateFault};
use spaden_gpusim::{Gpu, GpuConfig};
use spaden_serve::{
    OpenRequest, Priority, Request, ScheduledUpdate, ServeConfig, ServeError, SpmvServer,
};
use spaden_sparse::delta::{
    apply_to_csr, encode_deltas, BatchDecodeError, Delta, DeltaBatch, UpdateError,
};
use spaden_sparse::{gen, Csr};
use std::collections::BTreeSet;

fn make_x(n: usize) -> Vec<f32> {
    (0..n).map(|i| ((i * 37 + 11) % 64) as f32 / 32.0 - 1.0).collect()
}

fn assert_matches_oracle(y: &[f32], csr: &Csr, x: &[f32]) {
    let oracle = csr.spmv_f64(x).expect("dims match");
    for (r, (a, o)) in y.iter().zip(&oracle).enumerate() {
        let tol = 1e-2f64.max(o.abs() * 2e-2);
        assert!(((*a as f64) - o).abs() <= tol, "row {r}: {a} vs oracle {o}");
    }
}

/// Overwrites the first stored entry of the first `k` non-empty rows.
fn value_batch(csr: &Csr, k: usize, scale: f32) -> DeltaBatch {
    let mut deltas = Vec::new();
    for row in 0..csr.nrows {
        if deltas.len() == k {
            break;
        }
        let (cols, vals) = csr.row(row);
        if let (Some(&col), Some(&v)) = (cols.first(), vals.first()) {
            deltas.push(Delta { row: row as u32, col, value: v * scale + 0.25 });
        }
    }
    DeltaBatch::new(deltas, csr.nrows, csr.ncols).expect("batch valid")
}

/// One entry in each of `k` 8x8 blocks the matrix does not occupy yet.
fn new_block_batch(csr: &Csr, k: usize) -> DeltaBatch {
    let mut occupied = BTreeSet::new();
    for r in 0..csr.nrows {
        let (cols, _) = csr.row(r);
        for &c in cols {
            occupied.insert((r as u32 / 8, c / 8));
        }
    }
    let mut deltas = Vec::new();
    'outer: for br in 0..(csr.nrows / 8) as u32 {
        for bc in 0..(csr.ncols / 8) as u32 {
            if deltas.len() == k {
                break 'outer;
            }
            if !occupied.contains(&(br, bc)) {
                deltas.push(Delta { row: br * 8 + 1, col: bc * 8 + 2, value: 1.5 });
            }
        }
    }
    assert_eq!(deltas.len(), k, "fixture must have {k} empty blocks");
    DeltaBatch::new(deltas, csr.nrows, csr.ncols).expect("batch valid")
}

fn evolving_server(shard_devices: usize) -> (SpmvServer, Csr) {
    let csr = gen::random_uniform(96, 96, 450, 5_077);
    let server = SpmvServer::new(
        Gpu::new(GpuConfig::l40()),
        ServeConfig { shard_devices, ..ServeConfig::default() },
    );
    (server, csr)
}

#[test]
fn requests_serve_the_epoch_they_were_admitted_on() {
    let (mut server, csr) = evolving_server(0);
    let config = EvolveConfig { side_capacity: 64, compact_threshold: 64, audit: true };
    let h = server.register_evolving(&csr, config).unwrap();
    let batch = value_batch(&csr, 5, -2.0);
    let next = spaden_sparse::delta::apply_to_csr(&csr, &batch).unwrap();

    // A burst admitted at t=0, an update landing just after, and a late
    // arrival admitted after the commit.
    let mut arrivals: Vec<OpenRequest> = (0..5)
        .map(|_| OpenRequest {
            request: Request { matrix: h, x: make_x(96), deadline_s: Some(1.0) },
            priority: Priority::Normal,
            arrival_s: 0.0,
        })
        .collect();
    arrivals.push(OpenRequest {
        request: Request { matrix: h, x: make_x(96), deadline_s: Some(1.0) },
        priority: Priority::Normal,
        arrival_s: 1e-3,
    });
    let updates = vec![ScheduledUpdate { at_s: 1e-6, matrix: h, batch, fault: None }];
    let (outcomes, update_results) = server.run_open_loop_evolving(arrivals, updates);
    assert!(update_results[0].is_ok(), "{update_results:?}");

    for o in &outcomes {
        let ok = o.result.as_ref().expect("uncontended run serves everything");
        let truth = if o.epoch == 0 { &csr } else { &next };
        assert_eq!(o.epoch, if o.arrival_s == 0.0 { 0 } else { 1 });
        assert_eq!(ok.epoch, o.epoch);
        assert_matches_oracle(&ok.y, truth, &make_x(96));
    }
    // At least one epoch-0 request resolved after the commit landed —
    // it still served the old truth (admission-time capture, not
    // resolution-time lookup).
    assert!(outcomes.iter().any(|o| o.epoch == 0 && o.done_s > 1e-6));
}

#[test]
fn rollback_is_invisible_to_readers_and_retry_succeeds() {
    let (mut server, csr) = evolving_server(0);
    let h = server.register_evolving(&csr, EvolveConfig::default()).unwrap();
    let batch = value_batch(&csr, 6, 3.0);

    let err = server
        .update_with_fault(h, &batch, Some(UpdateFault { delta_index: 1, bit: 8 }))
        .expect_err("corrupted splice must roll back");
    assert!(
        matches!(err, ServeError::Update(UpdateError::VerificationFailed { epoch: 0, .. })),
        "{err:?}"
    );
    assert_eq!(server.epoch(h), Some(0), "no epoch may be published");
    assert_eq!(server.stats().update_rollbacks, 1);

    // The pre-update truth keeps serving...
    let x = make_x(96);
    let ok = server.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
    assert_eq!(ok.epoch, 0);
    assert_matches_oracle(&ok.y, &csr, &x);

    // ...and the identical batch, uncorrupted, commits cleanly.
    let outcome = server.update(h, &batch).expect("clean retry commits");
    assert_eq!(outcome.report.epoch, 1);
    assert_eq!(server.epoch(h), Some(1));
    let next = spaden_sparse::delta::apply_to_csr(&csr, &batch).unwrap();
    let ok = server.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
    assert_matches_oracle(&ok.y, &next, &x);
}

#[test]
fn side_overflow_is_typed_and_atomic_at_the_serve_layer() {
    let (mut server, csr) = evolving_server(0);
    let config = EvolveConfig { side_capacity: 2, compact_threshold: 2, audit: true };
    let h = server.register_evolving(&csr, config).unwrap();

    let err = server.update(h, &new_block_batch(&csr, 3)).expect_err("3 > capacity 2");
    assert!(
        matches!(err, ServeError::Update(UpdateError::SideBufferOverflow { needed: 3, capacity: 2 })),
        "{err:?}"
    );
    assert_eq!(server.epoch(h), Some(0));
    assert_eq!(server.evolve_stats(h).unwrap().updates, 0);

    // A batch that fits commits (and, at threshold 2, compacts).
    let outcome = server.update(h, &new_block_batch(&csr, 2)).expect("fits capacity");
    assert!(outcome.report.compacted);
    assert_eq!(server.evolve_stats(h).unwrap().compactions, 1);

    // Updating a plain registered matrix is its own typed error.
    let plain = server.register(&csr).unwrap();
    let err = server.update(plain, &value_batch(&csr, 1, 2.0)).unwrap_err();
    assert!(matches!(err, ServeError::NotEvolving(_)), "{err:?}");
}

#[test]
fn value_only_updates_reslice_and_structural_updates_repartition() {
    let (mut server, csr) = evolving_server(2);
    let h = server.register_evolving(&csr, EvolveConfig::default()).unwrap();

    let value_only = server.update(h, &value_batch(&csr, 4, 0.5)).expect("commits");
    assert!(value_only.partition_resliced, "structure unchanged: plan must survive");
    assert!(!value_only.repartitioned);

    let truth = spaden_sparse::delta::apply_to_csr(&csr, &value_batch(&csr, 4, 0.5)).unwrap();
    let structural = server.update(h, &new_block_batch(&truth, 1)).expect("commits");
    assert!(structural.repartitioned, "structure changed: plan must be rebuilt");
    assert!(!structural.partition_resliced);

    // Both epochs serve verified through the fleet-backed ladder.
    let x = make_x(96);
    let final_truth = spaden_sparse::delta::apply_to_csr(&truth, &new_block_batch(&truth, 1)).unwrap();
    let ok = server.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
    assert_eq!(ok.epoch, 2);
    assert_matches_oracle(&ok.y, &final_truth, &x);
}

/// Hostile batches through both constructors, validated against the
/// matrix's shape and against one wide enough to admit `u32::MAX`
/// indices: each ends in a typed error, or in a commit whose next read
/// is served verified — never a panic.
#[test]
fn hostile_update_batches_end_typed_or_served_verified() {
    let (_, csr) = evolving_server(0);
    let d = |(row, col): (u32, u32), value: f32| Delta { row, col, value };
    let old = (0..csr.nrows).find_map(|r| csr.row(r).0.first().map(|&c| (r as u32, c))).unwrap();
    let new = new_block_batch(&csr, 1).deltas()[0];
    let new = (new.row, new.col);
    let cases = [
        ("row u32::MAX", vec![d((u32::MAX, 0), 1.0)]),
        ("col u32::MAX", vec![d((0, u32::MAX), 1.0)]),
        ("empty", vec![]),
        ("duplicate", vec![d(old, 1.0), d(old, 2.0)]),
        ("+f32::MAX", vec![d(old, f32::MAX)]),
        ("-f32::MAX new block", vec![d(new, -f32::MAX)]),
        ("above f16 range", vec![d(old, 65520.0), d(new, -1e6)]),
        ("denormals", vec![d(old, 1e-40), d(new, 3e-6)]),
    ];
    let wide = u32::MAX as usize + 1;
    let x = make_x(csr.ncols);
    for (name, deltas) in cases {
        for (nrows, ncols) in [(csr.nrows, csr.ncols), (wide, wide)] {
            let built = DeltaBatch::new(deltas.clone(), nrows, ncols);
            let decoded = DeltaBatch::from_bytes(&encode_deltas(&deltas), nrows, ncols);
            assert_eq!(decoded, built.clone().map_err(BatchDecodeError::Invalid), "{name}");
            let Ok(batch) = built else { continue };
            let (mut server, _) = evolving_server(0);
            let h = server.register_evolving(&csr, EvolveConfig::default()).unwrap();
            let (epoch, truth) = match server.update(h, &batch) {
                Ok(_) => (1, apply_to_csr(&csr, &batch).expect("a committed batch applies")),
                Err(_) => (0, csr.clone()),
            };
            let read = Request { matrix: h, x: x.clone(), deadline_s: Some(1.0) };
            let ok = server.serve(read).unwrap_or_else(|e| panic!("{name}: read failed: {e}"));
            assert_eq!(ok.epoch, epoch, "{name}");
            assert_matches_oracle(&ok.y, &truth, &x);
        }
    }
}
