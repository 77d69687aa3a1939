//! Benches for the §7 future-work kernels: SpMM, SDDMM and bitCOO
//! simulation throughput.

use spaden::sparse::dense::Dense;
use spaden::{BitCooEngine, SpadenSddmmEngine, SpadenSpmmEngine, SpmvEngine};
use spaden_bench::{make_x, BenchGroup};
use spaden_gpusim::{Gpu, GpuConfig};
use spaden_sparse::datasets::by_name;

fn main() {
    let ds = by_name("cant").expect("dataset").generate(0.02);
    let nnz = ds.csr.nnz() as u64;

    let mut g = BenchGroup::new("ext_spmm");
    g.throughput(nnz * 8);
    {
        let gpu = Gpu::new(GpuConfig::l40());
        let engine = SpadenSpmmEngine::prepare(&gpu, &ds.csr);
        let b = Dense::from_fn(ds.csr.ncols, 8, |r, cc| ((r + cc) % 5) as f32);
        g.bench("spaden_spmm_n8", || engine.run(&gpu, std::hint::black_box(&b)));
    }

    let mut g = BenchGroup::new("ext_sddmm");
    g.throughput(nnz * 16);
    {
        let gpu = Gpu::new(GpuConfig::l40());
        let engine = SpadenSddmmEngine::prepare(&gpu, &ds.csr);
        let x = Dense::from_fn(ds.csr.nrows, 16, |r, k| ((r * 3 + k) % 7) as f32 * 0.25);
        let y = Dense::from_fn(ds.csr.ncols, 16, |r, k| ((r + 2 * k) % 5) as f32 * 0.5);
        g.bench("spaden_sddmm_k16", || engine.run(&gpu, std::hint::black_box(&x), &y));
    }

    let mut g = BenchGroup::new("ext_bitcoo");
    g.throughput(nnz);
    {
        let gpu = Gpu::new(GpuConfig::l40());
        let engine = BitCooEngine::prepare(&gpu, &ds.csr);
        let x = make_x(ds.csr.ncols);
        g.bench("bitcoo_spmv", || engine.run(&gpu, std::hint::black_box(&x)));
    }
}
