//! Fingerprint stability across `.mtx` reparses (root-level, across
//! crates). The file keeps its old name from when it also covered the
//! plan cache; only the fingerprint property outlived that cache.
//!
//! Fingerprints are a pure function of matrix content: re-parsing the
//! same `.mtx` file twice yields identical fingerprints, and the sparsity
//! pattern survives serialization, so the store's snapshot identity check
//! and `repro recover` see one matrix, not two.

use spaden_sparse::{fingerprint, gen, mtx};

#[test]
fn fingerprints_stable_across_mtx_reparses() {
    let dir = std::env::temp_dir().join("spaden_plan_cache_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("reparse.mtx");

    let original = gen::random_uniform(120, 100, 1500, 601);
    mtx::write_mtx(&path, &original).unwrap();

    let a = mtx::read_mtx(&path).unwrap();
    let b = mtx::read_mtx(&path).unwrap();
    let (fa, fb) = (fingerprint(&a), fingerprint(&b));
    assert_eq!(fa, fb, "two parses of one file must fingerprint identically");
    assert_eq!(fa.key(), fb.key());

    // The sparsity pattern survives serialization exactly, so the parsed
    // structural digests match the in-memory original's.
    let fo = fingerprint(&original);
    assert_eq!(fa.structure_digest, fo.structure_digest);
    assert_eq!(fa.degree_digest, fo.degree_digest);
    assert_eq!((fa.nrows, fa.ncols, fa.nnz), (fo.nrows, fo.ncols, fo.nnz));

    std::fs::remove_file(&path).ok();
}
