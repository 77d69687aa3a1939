//! Microbenchmarks of the simulator substrate: fragment load/store, MMA
//! emulation, bitmap decode, f16 conversion, coalescer, L2 model, pair
//! gathers, warp reductions, and the fixed host cost of one launch. These
//! bound how fast the functional simulation itself can go. The last rows
//! time what serving pays around the simulator: a replayed launch and a
//! value-only commit.

use spaden::decode::{decode_matrix_values, value_indices};
use spaden::{BitBsr, EvolveConfig, SpadenEngine, SpmvEngine};
use spaden_baselines::GunrockEngine;
use spaden_bench::BenchGroup;
use spaden_gpusim::exec::{lanes_from, POOLED_MIN_WARPS, WARP_SIZE};
use spaden_gpusim::fragment::{FragKind, Fragment};
use spaden_gpusim::half::F16;
use spaden_gpusim::memory::{coalesce_into, L2Cache};
use spaden_gpusim::mma::{mma_accumulate, mma_sync};
use spaden_gpusim::{Gpu, GpuConfig};
use spaden_serve::{Request, ServeConfig, SpmvServer};
use spaden_sparse::delta::{Delta, DeltaBatch};

fn main() {
    // Fragment load/store (256 element mappings each).
    let mut m = [0.0f32; 256];
    for (i, v) in m.iter_mut().enumerate() {
        *v = i as f32;
    }
    let g = BenchGroup::new("fragment");
    {
        let mut f = Fragment::new(FragKind::MatrixA);
        g.bench("load_store", move || {
            f.load_matrix(std::hint::black_box(&m));
            f.store_matrix()
        });
    }

    // One emulated m16n16k16 MMA (4096 FMA).
    let mut g = BenchGroup::new("mma");
    g.throughput(4096);
    {
        let mut a = Fragment::new(FragKind::MatrixA);
        let mut bb = Fragment::new(FragKind::MatrixB);
        a.load_matrix(&m);
        bb.load_matrix(&m);
        let cc = Fragment::new(FragKind::Accumulator);
        let mut d = Fragment::new(FragKind::Accumulator);
        g.bench("m16n16k16_emulated", move || {
            mma_sync(&mut d, std::hint::black_box(&a), &bb, &cc)
        });
    }
    // Spaden's operands: two 8x8 blocks on the A diagonal and the two
    // matching vector segments in B, so six of the eight 8x8x8
    // sub-products are all zero and skipped.
    {
        let mut a = Fragment::new(FragKind::MatrixA);
        let mut bb = Fragment::new(FragKind::MatrixB);
        for (i, j) in (0..8).flat_map(|i| (0..8).map(move |j| (i, j))) {
            for off in [0, 8] {
                a.set(off + i, off + j, ((i * 8 + j) % 13) as f32 - 6.0);
                bb.set(off + i, off + j, (i % 5) as f32 * 0.5);
            }
        }
        let cc = Fragment::new(FragKind::Accumulator);
        let mut d = Fragment::new(FragKind::Accumulator);
        g.bench("m16n16k16_block_diagonal", || {
            mma_sync(&mut d, std::hint::black_box(&a), &bb, &cc)
        });
        // The same operands accumulated in place, as the kernels chain
        // their MMAs: no copy of C into D.
        let mut acc = Fragment::new(FragKind::Accumulator);
        g.bench("m16n16k16_in_place", || {
            mma_accumulate(&mut acc, std::hint::black_box(&a), &bb);
            acc.regs[0][0]
        });
    }

    // Bitmap decode: all 32 lanes of one block.
    let mut g = BenchGroup::new("decode");
    g.throughput(64);
    g.bench("value_indices_warp", || {
        value_indices(std::hint::black_box(0xdead_beef_cafe_f00du64), std::hint::black_box(64))
    });

    // One fused block decode: the bitmap and offset reads, the
    // ascending-run value gather, the vector-run load and both fragment
    // portion writes. 256 blocks per one-warp launch amortise the
    // launch's fixed cost; throughput counts blocks.
    {
        let blocked = spaden_sparse::gen::generate_blocked(
            512,
            256,
            spaden_sparse::gen::Placement::Scattered,
            &spaden_sparse::gen::FillDist::Uniform { lo: 4, hi: 40 },
            7,
        );
        let bb = BitBsr::from_csr(&blocked);
        let gpu = Gpu::new(GpuConfig::l40());
        let bitmaps = gpu.alloc(bb.bitmaps.clone());
        let offsets = gpu.alloc(bb.block_offsets.clone());
        let values = gpu.alloc(bb.values.clone());
        let x = gpu.alloc(spaden_bench::make_x(bb.ncols));
        let blocks = bb.bnnz().min(256);
        let mut g = BenchGroup::new("decode");
        g.throughput(blocks as u64);
        g.bench("block_into_fragment", || {
            gpu.launch(1, |ctx| {
                let mut a = Fragment::new(FragKind::MatrixA);
                let mut b = Fragment::new(FragKind::MatrixB);
                for k in 0..blocks {
                    let vals = decode_matrix_values(ctx, &bitmaps, &offsets, &values, k);
                    let start = bb.block_cols[k] * 8;
                    ctx.fill_portion(&mut a, &mut b, 6 * (k % 2), &vals, &x, start);
                }
            })
        });
    }

    // f16 conversion round-trip.
    let mut g = BenchGroup::new("half");
    let vals: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.37).sin() * 100.0).collect();
    g.throughput(vals.len() as u64);
    g.bench("f32_to_f16_to_f32", || {
        vals.iter().map(|&v| F16::from_f32(std::hint::black_box(v)).to_f32()).sum::<f32>()
    });

    // Coalescer on a strided warp access, then 64 warp instructions per
    // iteration of a unit-stride and of a CSR x-gather access (throughput
    // counts instructions). The x-gather is cuSPARSE CSR's at vector
    // width 4: eight rows of a random matrix, four lanes each, so every
    // row's columns ascend and the warp's addresses descend between rows.
    let g = BenchGroup::new("memory_model");
    let mut scratch = Vec::with_capacity(64);
    g.bench("coalesce_32_strided", || {
        coalesce_into((0..32u64).map(|i| i * 128), std::hint::black_box(&mut scratch));
        scratch.len()
    });
    {
        let csr = spaden_sparse::gen::random_uniform(4096, 4096, 64 * 4096, 9);
        let warps: Vec<[u64; WARP_SIZE]> = (0..64)
            .map(|w| {
                std::array::from_fn(|l| {
                    let (lo, hi) = (csr.row_ptr[8 * w + l / 4], csr.row_ptr[8 * w + l / 4 + 1]);
                    4 * csr.col_idx[(lo + l as u32 % 4).min(hi - 1) as usize] as u64
                })
            })
            .collect();
        let mut g = BenchGroup::new("memory_model");
        g.throughput(64);
        g.bench("coalesce_32_ascending", || {
            (0..64u64)
                .map(|w| {
                    let base = std::hint::black_box(w * 4096);
                    coalesce_into((0..32u64).map(|i| base + i * 4), &mut scratch);
                    scratch.len()
                })
                .sum::<usize>()
        });
        g.bench("coalesce_32_random", || {
            (std::hint::black_box(&warps).iter())
                .map(|warp| {
                    coalesce_into(warp.iter().copied(), &mut scratch);
                    scratch.len()
                })
                .sum::<usize>()
        });
    }
    {
        let mut l2 = L2Cache::new(1 << 20);
        let mut s = 0u64;
        g.bench("l2_access_stream", move || {
            s = s.wrapping_add(1);
            l2.access_sector(std::hint::black_box(s % 100_000))
        });
    }
    {
        // Sixteen lines 4,096 lines apart fill one set; the benchmark then
        // hits the most recently used one 256 times per iteration, the
        // common case of warps re-reading a line.
        let mut l2 = L2Cache::new(1 << 20);
        let stride = 4 * 4096;
        for line in 0..16 {
            l2.access_sector(line * stride);
        }
        let mut g = BenchGroup::new("memory_model");
        g.throughput(256);
        g.bench("l2_access_same_line", move || {
            (0..256)
                .filter(|_| l2.access_sector(std::hint::black_box(15 * stride)))
                .count()
        });
    }
    {
        // cuSPARSE BSR's two pair loads per block: its 64 values, then
        // the repeating 8-element x segment. 256 blocks per one-warp
        // launch; throughput counts blocks.
        let gpu = Gpu::new(GpuConfig::l40());
        let values = gpu.alloc(vec![0.5f32; 256 * 64]);
        let x = gpu.alloc(spaden_bench::make_x(4096));
        let mut g = BenchGroup::new("memory_model");
        g.throughput(256);
        g.bench("gather_pair_bsr", || {
            gpu.launch(1, |ctx| {
                for k in 0..256u32 {
                    let vidx = lanes_from((0..WARP_SIZE as u32).map(|l| k * 64 + 2 * l));
                    let xidx =
                        lanes_from((0..WARP_SIZE as u32).map(|l| k * 8 % 4088 + 2 * (l % 4)));
                    std::hint::black_box(ctx.gather_pair(&values, &vidx));
                    std::hint::black_box(ctx.gather_pair(&x, &xidx));
                }
            })
        });
    }

    // Segmented warp reduction at cuSPARSE BSR's group width: 256 per
    // one-warp launch; throughput counts reductions.
    {
        let gpu = Gpu::new(GpuConfig::l40());
        let vals: [f32; WARP_SIZE] = std::array::from_fn(|l| l as f32 * 0.5 - 3.0);
        let mut g = BenchGroup::new("reduce");
        g.throughput(256);
        g.bench("segmented_w4", || {
            gpu.launch(1, |ctx| {
                for _ in 0..256 {
                    std::hint::black_box(ctx.segmented_reduce_sum(std::hint::black_box(&vals), 4));
                }
            })
        });
    }

    // Fixed host cost per launch: an empty one-warp launch on each GPU
    // preset, which runs inline, and an empty launch of the fewest warps
    // that run on the shard pool, which adds the pool's wake-up and join.
    // Then one Gunrock SpMV on a 2,048-row scale-free matrix: a pooled
    // launch of about one atomic per nonzero, whose per-shard atomic logs
    // replay at merge.
    let g = BenchGroup::new("launch");
    for (label, config) in [("empty_l40", GpuConfig::l40()), ("empty_v100", GpuConfig::v100())] {
        let gpu = Gpu::new(config);
        g.bench(label, || gpu.launch(1, |_| {}));
    }
    {
        let gpu = Gpu::new(GpuConfig::l40());
        g.bench("empty", || gpu.launch(POOLED_MIN_WARPS, |_| {}));
        let graph = spaden_sparse::gen::scale_free(2048, 24_000, 1.15, 11);
        let x = spaden_bench::make_x(graph.ncols);
        let eng = GunrockEngine::prepare(&gpu, &graph);
        g.bench("gunrock_atomic_heavy", || eng.run(&gpu, std::hint::black_box(&x)));
    }
    // One ABFT-checked Spaden SpMV on a served-size matrix (96x96, ~1.2k
    // nonzeros), which is what a served request pays: after the first
    // launch, a replay of its counters, the host SpMV and verification.
    // Then the same launch always simulated, the simulator's host cost.
    let small = spaden_sparse::gen::random_uniform(96, 96, 1300, 3);
    let x: Vec<f32> = (0..96).map(|i| (i % 7) as f32 * 0.25).collect();
    let g = BenchGroup::new("spaden");
    {
        let gpu = Gpu::new(GpuConfig::l40());
        let eng = SpadenEngine::prepare(&gpu, &small);
        g.bench("run_checked_96x96", || eng.run_checked(&gpu, std::hint::black_box(&x)));
        g.bench("simulate_96x96", || eng.run_simulated(&gpu, std::hint::black_box(&x)));
    }
    // The evolve-durable benchmark's matrix (scale-free, 1,024 rows, about
    // 7,100 nonzeros): one replayed launch, then one commit of 16 value
    // overwrites, which keeps the structure and so carries the memo.
    let evolving = spaden_sparse::gen::scale_free(1024, 12_000, 2.0, 0x5ca1_ef7e);
    let x = spaden_bench::make_x(evolving.ncols);
    {
        let gpu = Gpu::new(GpuConfig::l40());
        let eng = SpadenEngine::prepare(&gpu, &evolving);
        eng.run(&gpu, &x);
        g.bench("replay_scale_free_1024", || eng.run(&gpu, std::hint::black_box(&x)));
    }
    {
        let mut server = SpmvServer::new(Gpu::new(GpuConfig::l40()), ServeConfig::default());
        let h = server.register_evolving(&evolving, EvolveConfig::default()).expect("valid");
        server.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).expect("serves");
        let overwrites = (0..evolving.nrows)
            .step_by(37)
            .filter_map(|r| {
                let (cols, vals) = evolving.row(r);
                Some(Delta { row: r as u32, col: *cols.first()?, value: vals[0] * 0.5 })
            })
            .take(16)
            .collect();
        let batch = DeltaBatch::new(overwrites, evolving.nrows, evolving.ncols).expect("valid");
        assert_eq!(batch.len(), 16);
        let g = BenchGroup::new("serve");
        g.bench("update_value_only", || {
            server.update(h, std::hint::black_box(&batch)).expect("a value-only batch commits")
        });
    }

    // Reference CSR SpMV serial vs row-parallel on the pool.
    let csr = spaden_sparse::gen::random_uniform(20_000, 20_000, 600_000, 5);
    let x: Vec<f32> = (0..20_000).map(|i| (i % 17) as f32).collect();
    let mut g = BenchGroup::new("reference_spmv");
    g.throughput(csr.nnz() as u64);
    g.bench("csr_serial", || csr.spmv(std::hint::black_box(&x)).unwrap());
    g.bench("csr_parallel", || csr.spmv_par(std::hint::black_box(&x)).unwrap());
}
