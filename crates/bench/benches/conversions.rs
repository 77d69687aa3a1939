//! Benches for the host-side format conversions — the real-time
//! counterpart of Figure 10a (preprocessing time). Each target converts
//! the same mid-size matrix; throughput is reported per nonzero. Spaden's
//! whole prepare (conversion, ABFT checksums, upload) sits next to DASP's,
//! prepare to prepare as Figure 10a compares them, with the checksum
//! build and the block profile that fingerprints use on rows of their own.

use spaden::{AbftChecksums, BitBsr, SpadenEngine};
use spaden_baselines::DaspEngine;
use spaden_bench::BenchGroup;
use spaden_gpusim::{Gpu, GpuConfig};
use spaden_sparse::datasets::by_name;
use spaden_sparse::{bsr::Bsr, ell::Ell, hyb::Hyb, stats};

fn main() {
    let csr = by_name("cant").expect("dataset").generate(0.05).csr;
    let nnz = csr.nnz() as u64;

    let mut g = BenchGroup::new("fig10a_conversion");
    g.throughput(nnz);
    g.bench("bitBSR", || BitBsr::from_csr(std::hint::black_box(&csr)));
    g.bench("BSR", || Bsr::from_csr(std::hint::black_box(&csr)));
    g.bench("ELL", || Ell::from_csr(std::hint::black_box(&csr)));
    g.bench("HYB", || Hyb::from_csr(std::hint::black_box(&csr)));
    {
        let gpu = Gpu::new(GpuConfig::l40());
        g.bench("DASP", || DaspEngine::prepare(&gpu, std::hint::black_box(&csr)));
        g.bench("Spaden_prepare", || {
            SpadenEngine::try_prepare(&gpu, std::hint::black_box(&csr)).expect("valid matrix")
        });
    }
    let bit = BitBsr::from_csr(&csr);
    g.bench("ABFT_checksums", || AbftChecksums::build(std::hint::black_box(&bit)));
    g.bench("block_profile", || stats::block_profile(std::hint::black_box(&csr)));

    let mut g = BenchGroup::new("scan");
    let counts: Vec<u32> = (0..1_000_000u32).map(|i| i % 64).collect();
    g.throughput(counts.len() as u64);
    g.bench("exclusive_serial", || {
        spaden_sparse::scan::exclusive_scan(std::hint::black_box(&counts))
    });
    g.bench("exclusive_parallel", || {
        spaden_sparse::scan::exclusive_scan_par(std::hint::black_box(&counts))
    });
}
