//! Property tests for `sparse::fingerprint` under streaming updates: the
//! digest-granularity contract (value-only delta ⇒ structure digest
//! unchanged; structural delta ⇒ both digests change; commuting batches
//! ⇒ order-independent result). The store's snapshot identity check,
//! `Server::fingerprint_of` after each committed epoch, and the cost
//! model's `MatrixStats` all read fingerprints of updated matrices.

use spaden_sparse::delta::{apply_to_csr, classify, Delta, DeltaBatch, DeltaClass};
use spaden_sparse::{fingerprint, gen, Csr, Pcg64};

fn random_batch(csr: &Csr, rng: &mut Pcg64, k: usize, value_only: bool) -> DeltaBatch {
    let mut deltas = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    while deltas.len() < k {
        let (row, col) = if value_only {
            // Pick an existing entry.
            let row = rng.below_usize(csr.nrows);
            let (cols, _) = csr.row(row);
            if cols.is_empty() {
                continue;
            }
            (row as u32, cols[rng.below_usize(cols.len())])
        } else {
            (rng.below_usize(csr.nrows) as u32, rng.below_usize(csr.ncols) as u32)
        };
        if seen.insert((row, col)) {
            deltas.push(Delta { row, col, value: rng.range_f32(-5.0, 5.0) });
        }
    }
    DeltaBatch::new(deltas, csr.nrows, csr.ncols).unwrap()
}

#[test]
fn value_only_deltas_change_only_the_value_digest() {
    let mut rng = Pcg64::new(41, 7);
    for trial in 0..20 {
        let csr = gen::random_uniform(96, 96, 1000, 600 + trial);
        let batch = random_batch(&csr, &mut rng, 9, true);
        assert_eq!(classify(&csr, &batch), DeltaClass::ValueOnly);
        let next = apply_to_csr(&csr, &batch).unwrap();
        let (fa, fb) = (fingerprint(&csr), fingerprint(&next));
        assert_eq!(fa.structure_digest, fb.structure_digest, "trial {trial}: structure stable");
        assert_eq!(fa.degree_digest, fb.degree_digest, "trial {trial}: degrees stable");
        assert_eq!(fa.profile, fb.profile, "trial {trial}: block profile stable");
        assert_ne!(fa.values_digest, fb.values_digest, "trial {trial}: values must move");
        assert_ne!(fa.key(), fb.key(), "trial {trial}: full key must move");
    }
}

#[test]
fn structural_deltas_change_both_digests() {
    let mut rng = Pcg64::new(43, 7);
    let mut structural_trials = 0;
    for trial in 0..30 {
        // Sparse enough that random positions usually miss existing entries.
        let csr = gen::random_uniform(96, 96, 300, 700 + trial);
        let batch = random_batch(&csr, &mut rng, 7, false);
        if classify(&csr, &batch) != DeltaClass::Structural {
            continue;
        }
        structural_trials += 1;
        let next = apply_to_csr(&csr, &batch).unwrap();
        let (fa, fb) = (fingerprint(&csr), fingerprint(&next));
        assert_ne!(fa.structure_digest, fb.structure_digest, "trial {trial}: structure moves");
        assert_ne!(fa.values_digest, fb.values_digest, "trial {trial}: values move");
        assert_ne!(fa.key(), fb.key());
        assert!(fb.nnz > fa.nnz, "trial {trial}: insertions grow nnz");
    }
    assert!(structural_trials >= 10, "fixture must exercise structural batches");
}

#[test]
fn commuting_batches_give_order_independent_fingerprints() {
    // Two batches over disjoint (row, col) sets commute: applying them in
    // either order must produce the identical matrix, hence identical
    // fingerprints (the fingerprint is a pure function of content).
    let mut rng = Pcg64::new(47, 11);
    for trial in 0..20 {
        let csr = gen::random_uniform(80, 80, 600, 800 + trial);
        let a = random_batch(&csr, &mut rng, 8, false);
        // Build b avoiding a's positions so the batches commute.
        let taken: std::collections::BTreeSet<(u32, u32)> =
            a.deltas().iter().map(|d| (d.row, d.col)).collect();
        let mut deltas = Vec::new();
        let mut seen = taken.clone();
        while deltas.len() < 8 {
            let row = rng.below_usize(csr.nrows) as u32;
            let col = rng.below_usize(csr.ncols) as u32;
            if seen.insert((row, col)) {
                deltas.push(Delta { row, col, value: rng.range_f32(-5.0, 5.0) });
            }
        }
        let b = DeltaBatch::new(deltas, csr.nrows, csr.ncols).unwrap();
        let ab = apply_to_csr(&apply_to_csr(&csr, &a).unwrap(), &b).unwrap();
        let ba = apply_to_csr(&apply_to_csr(&csr, &b).unwrap(), &a).unwrap();
        let (fab, fba) = (fingerprint(&ab), fingerprint(&ba));
        assert_eq!(fab, fba, "trial {trial}: commuting batches must agree exactly");
        assert_eq!(fab.key(), fba.key());
    }
}

#[test]
fn overwriting_the_same_value_bits_is_a_fingerprint_fixpoint() {
    // A delta that writes the value already stored changes nothing — the
    // fingerprint must be bit-identical (content addressing, not
    // update-history addressing).
    let csr = gen::random_uniform(64, 64, 500, 901);
    let (cols, vals) = csr.row(10);
    let batch = DeltaBatch::new(
        vec![Delta { row: 10, col: cols[0], value: vals[0] }],
        csr.nrows,
        csr.ncols,
    )
    .unwrap();
    let next = apply_to_csr(&csr, &batch).unwrap();
    assert_eq!(fingerprint(&csr), fingerprint(&next));
}
