//! Guards the serving layer's one cost source. Every rung's deadline
//! estimate and every shard's expected duration come from
//! `spaden_plan::predict_time`; no launch checks them at run time. So
//! these tests launch each priced engine once on `x = 0` and require the
//! model to land within [`TOLERANCE`] of the launch's simulated time. If
//! the model drifts from the simulator, a test fails here instead of
//! deadlines being mispriced without any error.
//!
//! At these sizes the fixed launch overhead is most of a launch, so the
//! kernel body (the time above it) is also checked on its own, within
//! [`BODY_FACTOR`]. That bound is loose because the model's body error
//! reaches about 40 % on these shapes, but a body that drifts by more
//! than 2× still fails.

use spaden::gpusim::{Gpu, GpuConfig};
use spaden::sparse::{gen, Csr};
use spaden_plan::{predict_time, try_build_engine, EngineKind, MatrixStats};
use spaden_shard::{ShardPolicy, ShardedMatrix};

/// Largest accepted relative gap between model and launch.
const TOLERANCE: f64 = 0.03;

/// Largest accepted ratio, either way, between the modelled and the
/// launched kernel body. The model reads 0.6–1.6 on these shapes.
const BODY_FACTOR: f64 = 2.0;

/// The engines behind the single-device rungs: ABFT-checked Spaden,
/// scalar bitBSR, and the cuSPARSE-style CSR baseline.
const RUNG_ENGINES: [EngineKind; 3] =
    [EngineKind::Spaden, EngineKind::SpadenNoTc, EngineKind::CusparseCsr];

fn assert_close(what: &str, predicted: f64, launched: f64) {
    let ratio = predicted / launched;
    assert!(
        (ratio - 1.0).abs() <= TOLERANCE,
        "{what}: model {predicted:.4e}s vs launch {launched:.4e}s (ratio {ratio:.4})"
    );
    let overhead = GpuConfig::l40().launch_overhead_s;
    let body = (predicted - overhead) / (launched - overhead);
    assert!(
        (1.0 / BODY_FACTOR..=BODY_FACTOR).contains(&body),
        "{what}: modelled kernel body is {body:.3}x the launched one"
    );
}

fn check_rung_engines(name: &str, csr: &Csr) {
    let config = GpuConfig::l40();
    let gpu = Gpu::new(config.clone());
    let stats = MatrixStats::of(csr);
    let x0 = vec![0.0f32; csr.ncols];
    for kind in RUNG_ENGINES {
        let engine = try_build_engine(kind, &gpu, csr).expect("prepares");
        let launched = engine.try_run(&gpu, &x0).expect("clean launch").time.seconds;
        let predicted = predict_time(kind, &stats, &config).seconds;
        assert_close(&format!("{name} {}", kind.name()), predicted, launched);
    }
}

#[test]
fn model_prices_the_serving_shape_like_a_launch() {
    check_rung_engines("96x96 serve shape", &gen::random_uniform(96, 96, 1300, 8_300));
}

#[test]
fn model_prices_a_scale_free_matrix_like_a_launch() {
    check_rung_engines("scale-free 1024", &gen::scale_free(1024, 12_000, 2.0, 0x5ca1_ef7e));
}

#[test]
fn model_prices_every_shard_like_a_launch() {
    let config = GpuConfig::l40();
    let gpu = Gpu::new(config.clone());
    let csr = gen::random_uniform(512, 192, 9_000, 1401);
    let x0 = vec![0.0f32; csr.ncols];
    for nshards in [4, 8] {
        let sm = ShardedMatrix::try_new(&config, &csr, nshards, ShardPolicy::default())
            .expect("partitions");
        assert_eq!(sm.shards().len(), nshards);
        for (i, shard) in sm.shards().iter().enumerate() {
            let launched =
                shard.engine().try_run_checked(&gpu, &x0).expect("clean launch").time.seconds;
            assert_close(&format!("{nshards}-way shard {i}"), shard.est_s, launched);
        }
    }
}
