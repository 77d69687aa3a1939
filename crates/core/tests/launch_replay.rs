//! A clean Spaden launch is simulated once per engine and replayed after
//! that: its counters come from the memo and its `y` from the host SpMV.
//!
//! These tests hold a replay to the launch it stands in for, bit for bit:
//! `y` bits, every `KernelCounters` field and the `SimTime`, under moving
//! allocations. They also check that nothing replays when it would not be
//! exact (faults, SimSan, non-finite input, an L2 that placement can
//! overflow, `x` landing on the format's addresses), and that a replay
//! advances the allocator as a launch does.
//!
//! The last tests carry a memo across evolving-matrix commits: a replay
//! on the next epoch's engine must equal that engine's own simulated
//! launch, and no memo may cross a change of structure or of
//! `SpadenConfig`.
//! The benchmark measures the release profile, so CI runs this file in
//! release too.

use spaden::{
    EvolveConfig, EvolvingMatrix, FragmentIo, Packing, SpadenConfig, SpadenEngine, SpmvEngine,
    SpmvRun,
};
use spaden_gpusim::{FaultConfig, Gpu, GpuConfig, SanConfig};
use spaden_sparse::delta::{Delta, DeltaBatch};
use spaden_sparse::gen::{self, FillDist, Placement};
use spaden_sparse::Csr;

fn bits(y: &[f32]) -> Vec<u32> {
    y.iter().map(|v| v.to_bits()).collect()
}

/// `y` bits with every NaN folded to one: which NaN a sum of NaNs returns
/// is up to the compiler.
fn folded(y: &[f32]) -> Vec<u32> {
    y.iter().map(|v| if v.is_nan() { 0x7fc0_0000 } else { v.to_bits() }).collect()
}

fn assert_same(got: &SpmvRun, want: &SpmvRun, what: &str) {
    assert_eq!(bits(&got.y), bits(&want.y), "{what}: y");
    assert_eq!(got.counters, want.counters, "{what}: counters");
    assert_eq!(got.time, want.time, "{what}: time");
}

/// A vector of ordinary values mixed with ±0, f16 subnormals, values that
/// underflow f16 to ±0, and values at the top of the f16 range (65519
/// still rounds to 65504).
fn edgy_x(n: usize, seed: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let h = (i as u64 ^ seed.wrapping_mul(0x9e37_79b9)).wrapping_mul(2654435761);
            let sign = if h >> 7 & 1 == 0 { 1.0 } else { -1.0 };
            match h % 11 {
                0 => 0.0,
                1 => -0.0,
                2 => sign * 3.0e-6,
                3 => sign * 1.0e-9,
                4 => sign * [65504.0, 65519.0, 65000.0][(h >> 9) as usize % 3],
                _ => (h >> 12 & 255) as f32 / 64.0 - 2.0,
            }
        })
        .collect()
}

/// Matrix values of both signs, some scaled into the f16 subnormal range.
fn edgy(mut csr: Csr) -> Csr {
    for (i, v) in csr.values.iter_mut().enumerate() {
        if i % 7 == 3 {
            *v *= 1e-5;
        }
    }
    csr
}

fn matrices() -> Vec<(String, Csr)> {
    let mut out = vec![
        ("random_uniform".to_string(), gen::random_uniform(203, 181, 2600, 17)),
        ("scale_free".to_string(), gen::scale_free(260, 2400, 1.4, 19)),
    ];
    let placements = [
        Placement::Banded { bandwidth: 4 },
        Placement::Scattered,
        Placement::Clustered { clusters: 2, radius: 3 },
        Placement::PowerLaw { exponent: 1.3 },
        Placement::Stencil,
    ];
    for (i, p) in placements.into_iter().enumerate() {
        let csr = gen::generate_blocked(
            248,
            120,
            p,
            &FillDist::Uniform { lo: 1, hi: 40 },
            23 + i as u64,
        );
        out.push((format!("{p:?}"), csr));
    }
    out.into_iter().map(|(name, csr)| (name, edgy(csr))).collect()
}

const VARIANTS: [SpadenConfig; 3] = [
    SpadenConfig { packing: Packing::Diagonal, fragment_io: FragmentIo::Direct },
    SpadenConfig { packing: Packing::Single, fragment_io: FragmentIo::Direct },
    SpadenConfig { packing: Packing::Diagonal, fragment_io: FragmentIo::SharedMemoryStaged },
];

#[test]
fn replayed_launches_equal_simulated_ones_bit_for_bit() {
    for config in [GpuConfig::l40(), GpuConfig::v100()] {
        for (name, csr) in matrices() {
            for variant in VARIANTS {
                let what = format!("{} {name} {variant:?}", config.name);
                let gpu = Gpu::new(config.clone());
                let eng = SpadenEngine::prepare_with(&gpu, &csr, variant);
                let first = eng.run(&gpu, &edgy_x(csr.ncols, 0));
                assert_same(&first, &eng.run_simulated(&gpu, &edgy_x(csr.ncols, 0)), &what);
                for trial in 1..4u64 {
                    // Shift later allocations by a varying number of
                    // 256-byte units.
                    gpu.alloc(vec![0u8; 97 * trial as usize * trial as usize]);
                    let x = edgy_x(csr.ncols, trial);
                    assert!(eng.replayable(&gpu, &x), "{what}: trial {trial} must replay");
                    let replayed = eng.run(&gpu, &x);
                    gpu.alloc(vec![0u8; 300]);
                    let simulated = eng.run_simulated(&gpu, &x);
                    assert_same(&replayed, &simulated, &format!("{what}, trial {trial}"));
                }
            }
        }
    }
}

#[test]
fn checked_runs_replay_and_verify() {
    let csr = edgy(gen::random_uniform(96, 96, 1300, 3));
    let gpu = Gpu::new(GpuConfig::l40());
    let eng = SpadenEngine::prepare(&gpu, &csr);
    let x = edgy_x(96, 5);
    let first = eng.try_run_checked(&gpu, &x).expect("clean run verifies");
    assert!(eng.replayable(&gpu, &x));
    let replayed = eng.try_run_checked(&gpu, &x).expect("replay verifies");
    assert_same(&replayed, &first, "checked replay");
}

#[test]
fn nothing_replays_under_faults() {
    let csr = gen::random_uniform(200, 160, 3000, 29);
    let x = edgy_x(160, 1);
    let mut config = GpuConfig::l40();
    config.faults = FaultConfig::uniform(7, 5e-2);
    // Two GPUs with one config and one allocation history draw the same
    // fault sites launch by launch.
    let (gpu, twin) = (Gpu::new(config.clone()), Gpu::new(config));
    let (eng, eng_twin) = (SpadenEngine::prepare(&gpu, &csr), SpadenEngine::prepare(&twin, &csr));
    eng.run(&gpu, &x);
    eng_twin.run_simulated(&twin, &x);
    assert!(!eng.replayable(&gpu, &x));
    let second = eng.run(&gpu, &x);
    let want = eng_twin.run_simulated(&twin, &x);
    assert!(want.counters.faults_injected > 0, "the second launch must draw faults");
    assert_eq!(folded(&second.y), folded(&want.y));
    assert_eq!(second.counters, want.counters);
}

#[test]
fn nothing_replays_under_simsan() {
    // x values that underflow f16 are numeric hazards SimSan counts on
    // every simulated launch.
    let csr = gen::random_uniform(128, 128, 1500, 31);
    let x: Vec<f32> = (0..128).map(|i| if i % 3 == 0 { 1e-9 } else { 0.5 }).collect();
    let mut config = GpuConfig::l40();
    config.san = SanConfig::on();
    let gpu = Gpu::new(config);
    let eng = SpadenEngine::prepare(&gpu, &csr);
    let before = gpu.san_numeric_counts();
    let first = eng.run(&gpu, &x);
    let after_first = gpu.san_numeric_counts();
    assert!(after_first.1 > before.1, "the launch must count underflows");
    assert!(!eng.replayable(&gpu, &x));
    let second = eng.run(&gpu, &x);
    let after_second = gpu.san_numeric_counts();
    assert_eq!(after_second.1 - after_first.1, after_first.1 - before.1);
    assert_same(&second, &first, "SimSan rerun");
}

#[test]
fn nothing_replays_on_non_finite_input() {
    let csr = gen::random_uniform(120, 120, 1600, 37);
    let gpu = Gpu::new(GpuConfig::l40());
    let eng = SpadenEngine::prepare(&gpu, &csr);
    let clean = edgy_x(120, 2);
    eng.run(&gpu, &clean);
    assert!(eng.replayable(&gpu, &clean), "a finite launch records the memo");
    // NaN, inf, and a finite f32 that rounds to inf in f16.
    for bad in [f32::NAN, f32::NEG_INFINITY, 70_000.0] {
        let mut x = clean.clone();
        x[40] = bad;
        assert!(!eng.replayable(&gpu, &x), "x[40] = {bad}");
        let got = eng.run(&gpu, &x);
        let want = eng.run_simulated(&gpu, &x);
        assert_eq!(folded(&got.y), folded(&want.y), "x[40] = {bad}");
        assert!(want.y.iter().any(|v| v.is_nan()), "the kernel adds 0 * inf");
    }
    assert!(eng.replayable(&gpu, &clean), "the memo survives");
}

#[test]
fn nothing_replays_with_an_f16_overflowing_matrix() {
    let mut csr = gen::random_uniform(64, 64, 600, 41);
    csr.values[10] = 1.0e6;
    let gpu = Gpu::new(GpuConfig::l40());
    let eng = SpadenEngine::prepare(&gpu, &csr);
    let x = vec![0.5f32; 64];
    let first = eng.run(&gpu, &x);
    assert!(!eng.replayable(&gpu, &x));
    let second = eng.run(&gpu, &x);
    assert_eq!(folded(&second.y), folded(&first.y));
    assert!(first.y.iter().any(|v| !v.is_finite()), "the inf reaches y");
}

#[test]
fn a_replay_advances_the_allocator_like_a_launch() {
    // `big` is the V100 counterexample below: its L2 sets overflow, so its
    // hits depend on where `x` and `y` land. `small` replays. The launch
    // of `big` after a replay must count what it counts after a simulated
    // launch of `small`.
    let small = gen::random_uniform(96, 96, 1300, 43);
    let big = gen::random_uniform(4096, 65536, 200_000, 9);
    let (xs, xb) = (edgy_x(96, 3), edgy_x(65536, 4));
    let big_after = |small_launches: usize, simulate: bool| {
        let gpu = Gpu::new(GpuConfig::v100());
        let (s, b) = (SpadenEngine::prepare(&gpu, &small), SpadenEngine::prepare(&gpu, &big));
        for _ in 0..small_launches {
            if simulate {
                s.run_simulated(&gpu, &xs);
            } else {
                s.run(&gpu, &xs);
            }
        }
        assert_eq!(s.replayable(&gpu, &xs), !simulate && small_launches > 0);
        b.run(&gpu, &xb).counters
    };
    let want = big_after(2, true);
    assert_ne!(big_after(1, true), want, "big's hits must depend on placement");
    assert_eq!(big_after(2, false), want);
}

#[test]
fn the_v100_counterexample_is_not_placement_free() {
    // On V100, shifting `x` and `y` by 256 B moves this matrix's L2 hits,
    // so its launches are never recorded.
    let csr = gen::random_uniform(4096, 65536, 200_000, 9);
    let x = edgy_x(65536, 6);
    let second_launch = |replay: bool| {
        let gpu = Gpu::new(GpuConfig::v100());
        let eng = SpadenEngine::prepare(&gpu, &csr);
        let f = eng.format();
        let sizes = [
            f.block_row_ptr.len() as u64 * 4,
            f.block_cols.len() as u64 * 4,
            f.bitmaps.len() as u64 * 8,
            f.block_offsets.len() as u64 * 4,
            f.values.len() as u64 * 2,
            f.ncols as u64 * 4,
            f.nrows as u64 * 4,
        ];
        assert!(!gpu.l2_placement_free(&sizes));
        let launch = |x: &[f32]| if replay { eng.run(&gpu, x) } else { eng.run_simulated(&gpu, x) };
        let first = launch(&x);
        gpu.alloc(vec![0u8; 256]);
        assert!(!eng.replayable(&gpu, &x));
        (first, launch(&x))
    };
    let (first, want) = second_launch(false);
    assert_ne!(first.counters.l2_hits, want.counters.l2_hits, "placement moves the hits");
    assert_same(&second_launch(true).1, &want, "second launch");
}

#[test]
fn a_memo_replays_only_under_its_config() {
    // Every block-row reads one sector of each of `x`'s 2,048 lines, and
    // each shard runs two block-row pairs. That fits an L40 shard without
    // eviction but not a V100 one, so the presets count different hits.
    let mut coo = spaden_sparse::Coo::new(512, 1 << 16);
    for br in 0..64u32 {
        for k in 0..2048u32 {
            coo.push(br * 8, k * 32, ((br * 31 + k * 7) % 64) as f32 / 32.0 - 1.0);
        }
    }
    let csr = coo.to_csr();
    let x = edgy_x(1 << 16, 7);
    // One `Gpu` switched from L40 to V100 between two launches, as a live
    // device's config can be.
    let launches = |replay: bool| {
        let mut gpu = Gpu::new(GpuConfig::l40());
        let eng = SpadenEngine::prepare(&gpu, &csr);
        let launch = |gpu: &Gpu| if replay { eng.run(gpu, &x) } else { eng.run_simulated(gpu, &x) };
        let on_l40 = launch(&gpu);
        assert_eq!(eng.replayable(&gpu, &x), replay);
        gpu.config = GpuConfig::v100();
        assert!(!eng.replayable(&gpu, &x));
        let on_v100 = launch(&gpu);
        gpu.config = GpuConfig::l40();
        assert_eq!(eng.replayable(&gpu, &x), replay, "the L40 memo survives");
        (on_l40, on_v100)
    };
    let (on_l40, want) = launches(false);
    assert_ne!(on_l40.counters.l2_hits, want.counters.l2_hits, "the presets differ");
    assert_same(&launches(true).1, &want, "V100 launch");
}

#[test]
fn a_launch_whose_x_lands_on_the_format_simulates() {
    // Sharded serving prepares on a staging `Gpu` and launches on device
    // `Gpu`s whose allocators start at the same address, so a device's
    // `x` and `y` can land on the engine's own buffers. The L2 model then
    // counts their sectors as one, which the memo never saw.
    let csr = gen::random_uniform(96, 96, 1300, 47);
    let x = edgy_x(96, 8);
    let on_device = |replay: bool| {
        let device = Gpu::new(GpuConfig::l40());
        let staging = Gpu::new(GpuConfig::l40());
        // Leave the engine's buffers where the device's next `x` lands.
        staging.alloc(vec![0u8; 4096]);
        device.alloc(vec![0u8; 4096]);
        let eng = SpadenEngine::prepare(&staging, &csr);
        let clean = eng.run(&staging, &x);
        assert!(eng.replayable(&device, &x), "the memo is recorded");
        let launch = if replay { eng.run(&device, &x) } else { eng.run_simulated(&device, &x) };
        (clean, launch)
    };
    let (clean, want) = on_device(false);
    assert_ne!(clean.counters, want.counters, "aliased sectors change the hits");
    assert_same(&on_device(true).1, &want, "aliased launch");
}

/// The Spaden engine of an evolving matrix's current epoch, built the way
/// the serving layer builds it.
fn engine_of(gpu: &Gpu, ev: &EvolvingMatrix, config: SpadenConfig) -> SpadenEngine {
    SpadenEngine::try_from_parts(gpu, ev.base().clone(), ev.base_sums().clone(), config)
        .expect("a committed base is valid")
}

fn batch(truth: &Csr, deltas: Vec<Delta>) -> DeltaBatch {
    DeltaBatch::new(deltas, truth.nrows, truth.ncols).expect("valid batch")
}

/// Overwrites of one stored entry in every fifth row from `first` with
/// ±0, f16 subnormals, values that underflow f16, and ±65504.
fn edge_overwrites(truth: &Csr, first: usize) -> DeltaBatch {
    const EDGES: [f32; 7] = [0.0, -0.0, 3.0e-6, -3.0e-6, 1.0e-9, 65504.0, -65504.0];
    let deltas = (first..truth.nrows)
        .step_by(5)
        .filter_map(|r| {
            let (cols, _) = truth.row(r);
            let col = *cols.get(cols.len() / 2)?;
            Some(Delta { row: r as u32, col, value: EDGES[r % EDGES.len()] })
        })
        .collect();
    batch(truth, deltas)
}

/// Positions in `k` 8×8 blocks the base format does not hold, one per
/// block; with an empty side buffer they all go to the side buffer.
fn new_block_positions(ev: &EvolvingMatrix, k: usize, first_br: usize) -> Vec<(u32, u32)> {
    let base = ev.base();
    let mut out = Vec::new();
    for br in (first_br..base.block_rows).step_by(3) {
        let (lo, hi) = (base.block_row_ptr[br] as usize, base.block_row_ptr[br + 1] as usize);
        let held = &base.block_cols[lo..hi];
        let free = (0..base.block_cols_dim as u32).find(|bc| !held.contains(bc));
        if let Some(bc) = free {
            let (r, c) = (br * 8 + br % 8, bc as usize * 8 + br % 5);
            if r < base.nrows && c < base.ncols {
                out.push((r as u32, c as u32));
            }
        }
        if out.len() == k {
            break;
        }
    }
    assert_eq!(out.len(), k, "the fixture has {k} free blocks");
    out
}

/// One position that is not stored but lies in a block the base holds.
fn base_insert_position(ev: &EvolvingMatrix) -> (u32, u32) {
    let base = ev.base();
    for br in 0..base.block_rows {
        for k in base.block_row_ptr[br] as usize..base.block_row_ptr[br + 1] as usize {
            let bc = base.block_cols[k] as usize;
            let free = (0..64).find(|&bit| {
                let (r, c) = (br * 8 + bit / 8, bc * 8 + bit % 8);
                base.bitmaps[k] >> bit & 1 == 0 && r < base.nrows && c < base.ncols
            });
            if let Some(bit) = free {
                return ((br * 8 + bit / 8) as u32, (bc * 8 + bit % 8) as u32);
            }
        }
    }
    panic!("the fixture has a block with a free position")
}

fn inserts(truth: &Csr, at: &[(u32, u32)], value: f32) -> DeltaBatch {
    batch(truth, at.iter().map(|&(row, col)| Delta { row, col, value }).collect())
}

#[test]
fn a_carried_memo_replays_value_only_and_side_only_commits_bit_for_bit() {
    for config in [GpuConfig::l40(), GpuConfig::v100()] {
        for variant in VARIANTS {
            let what = format!("{} {variant:?}", config.name);
            let gpu = Gpu::new(config.clone());
            let csr = edgy(gen::random_uniform(203, 181, 900, 53));
            let mut ev = EvolvingMatrix::new(csr, EvolveConfig::default());
            let mut prev = engine_of(&gpu, &ev, variant);
            prev.run(&gpu, &edgy_x(181, 0));
            for step in 0..5usize {
                let truth = ev.csr();
                let next_batch = match step {
                    // Value-only.
                    0 | 2 => edge_overwrites(truth, step),
                    // Side-only inserts, then an overwrite of a side entry.
                    1 => inserts(truth, &new_block_positions(&ev, 3, 1), -0.75),
                    3 => inserts(truth, &[ev.delta().side()[1]].map(|e| (e.row, e.col)), 3.0e-6),
                    _ => inserts(truth, &new_block_positions(&ev, 2, 2), 65504.0),
                };
                let report = ev.apply(&next_batch, None).expect("the batch commits");
                assert!(!report.compacted && report.apply.base_inserts == 0, "{what} {step}");
                let next = engine_of(&gpu, &ev, variant);
                assert!(next.carry_memo_from(&prev), "{what}, step {step}: same structure");
                let x = edgy_x(181, step as u64 + 1);
                assert!(next.replayable(&gpu, &x), "{what}, step {step}");
                let replayed = next.run(&gpu, &x);
                gpu.alloc(vec![0u8; 300]);
                let simulated = next.run_simulated(&gpu, &x);
                assert_same(&replayed, &simulated, &format!("{what}, step {step}"));
                prev = next;
            }
            assert_eq!(ev.delta().side_len(), 5, "{what}: the side inserts stayed in the side");
        }
    }
}

#[test]
fn no_memo_is_carried_across_a_structure_or_config_change() {
    let csr = edgy(gen::random_uniform(203, 181, 2600, 59));
    let x = edgy_x(181, 9);
    let gpu = Gpu::new(GpuConfig::l40());
    let default = SpadenConfig::default();
    let commit = |config: EvolveConfig, at: &dyn Fn(&EvolvingMatrix) -> Vec<(u32, u32)>| {
        let mut ev = EvolvingMatrix::new(csr.clone(), config);
        let prev = engine_of(&gpu, &ev, default);
        prev.run(&gpu, &x);
        assert!(engine_of(&gpu, &ev, default).carry_memo_from(&prev), "control");
        let report = ev.apply(&inserts(ev.csr(), &at(&ev), 0.5), None).expect("commits");
        (prev, engine_of(&gpu, &ev, default), report)
    };
    let check = |prev: &SpadenEngine, next: &SpadenEngine, what: &str| {
        assert!(!next.carry_memo_from(prev), "{what}: no carry");
        assert!(!next.replayable(&gpu, &x), "{what}: simulates");
        let first = next.run(&gpu, &x);
        assert_same(&first, &next.run_simulated(&gpu, &x), what);
        assert!(next.replayable(&gpu, &x), "{what}: its own launch records a memo");
    };

    // A new bit in a block the base holds.
    let in_a_held_block = |ev: &EvolvingMatrix| vec![base_insert_position(ev)];
    let (prev, next, report) = commit(EvolveConfig::default(), &in_a_held_block);
    assert_eq!(report.apply.base_inserts, 1);
    check(&prev, &next, "base insert");

    // A new block that the commit compacts into the base at once.
    let compact_now = EvolveConfig { compact_threshold: 1, ..EvolveConfig::default() };
    let (prev, next, report) = commit(compact_now, &|ev| new_block_positions(ev, 1, 0));
    assert!(report.compacted);
    check(&prev, &next, "compaction");

    // Same structure, another kernel variant.
    let ev = EvolvingMatrix::new(csr.clone(), EvolveConfig::default());
    let prev = engine_of(&gpu, &ev, default);
    prev.run(&gpu, &x);
    for variant in &VARIANTS[1..] {
        let other = engine_of(&gpu, &ev, *variant);
        check(&prev, &other, &format!("{variant:?}"));
    }

    // Same structure arrays, a wider matrix: 184 columns still make 23
    // block columns, but `x` is longer.
    let wider = Csr { ncols: 184, ..csr.clone() };
    let wide_x = edgy_x(184, 9);
    let other = SpadenEngine::prepare(&gpu, &wider);
    assert_eq!(other.format().block_cols, prev.format().block_cols);
    assert!(!other.carry_memo_from(&prev), "another shape: no carry");
    assert!(!other.replayable(&gpu, &wide_x));

    // Same blocks and value offsets, one nonzero moved within its block:
    // only the bitmaps differ.
    let with_entry_at = |col: u32| {
        let mut coo = spaden_sparse::Coo::new(16, 16);
        coo.push(0, col, 1.5);
        coo.push(9, 9, -2.0);
        coo.to_csr()
    };
    let x16 = edgy_x(16, 11);
    let (one, other) = (with_entry_at(0), with_entry_at(3));
    let (one, other) = (SpadenEngine::prepare(&gpu, &one), SpadenEngine::prepare(&gpu, &other));
    one.run(&gpu, &x16);
    let (a, b) = (one.format(), other.format());
    assert_eq!((&a.block_cols, &a.block_offsets), (&b.block_cols, &b.block_offsets));
    assert_ne!(a.bitmaps, b.bitmaps);
    assert!(!other.carry_memo_from(&one), "a moved bit: no carry");
    assert!(!other.replayable(&gpu, &x16));
}

#[test]
fn an_f16_overflowing_overwrite_simulates() {
    let csr = gen::random_uniform(120, 120, 1600, 61);
    let x = edgy_x(120, 10);
    let gpu = Gpu::new(GpuConfig::l40());
    let mut ev = EvolvingMatrix::new(csr, EvolveConfig::default());
    let prev = engine_of(&gpu, &ev, SpadenConfig::default());
    prev.run(&gpu, &x);
    let (cols, _) = ev.csr().row(7);
    let overflow = batch(ev.csr(), vec![Delta { row: 7, col: cols[0], value: 1.0e6 }]);
    ev.apply(&overflow, None).expect("a finite f32 commits");
    let next = engine_of(&gpu, &ev, SpadenConfig::default());
    assert!(next.carry_memo_from(&prev), "the structure is unchanged");
    assert!(!next.replayable(&gpu, &x), "an inf value never replays");
    let got = next.run(&gpu, &x);
    let want = next.run_simulated(&gpu, &x);
    assert!(want.y.iter().any(|v| !v.is_finite()), "the inf reaches y");
    assert_eq!(folded(&got.y), folded(&want.y));
    assert_eq!(got.counters, want.counters);
}
