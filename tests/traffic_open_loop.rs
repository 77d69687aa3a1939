//! End-to-end open-loop traffic properties across the crate stack:
//!
//! 1. A seeded diurnal scenario through the full engine (arrival process
//!    → tenant population → `run_open_loop` → summary) is bit-
//!    deterministic and never returns an unverified result.
//! 2. Overload control composes with the failover ladder: a flash crowd
//!    on a fault-injecting GPU still yields only verified `Ok`s and
//!    typed errors, with High-priority tenants protected.
//! 3. The brownout ladder engages under sustained overrun and sheds
//!    Low-priority traffic at admission — while closed-loop serving with
//!    the same config stays bit-identical to the default server.

use spaden_gpusim::{FaultConfig, Gpu, GpuConfig, InjectionConfig};
use spaden_serve::{
    OverloadConfig, Priority, Request, ServeConfig, ServeError, ShedReason, SpmvServer,
};
use spaden_sparse::gen;
use spaden_traffic::{run_traffic, ArrivalProcess, CorpusConfig, TrafficConfig};

fn quick_corpus() -> CorpusConfig {
    CorpusConfig { matrices: 4, rows: 64, cols: 64, nnz: 700, seed: 8_200 }
}

#[test]
fn diurnal_scenario_is_deterministic_and_fully_verified() {
    let gpu = GpuConfig::l40();
    let mut cfg = TrafficConfig::new(
        77,
        3e-3,
        ArrivalProcess::Diurnal { base_rps: 20_000.0, peak_rps: 120_000.0, period_s: 1.5e-3 },
    );
    cfg.corpus = quick_corpus();
    let a = run_traffic(&gpu, &cfg);
    let b = run_traffic(&gpu, &cfg);
    assert!(a.offered > 50, "diurnal horizon too short");
    assert_eq!(a.digest(), b.digest(), "same config, same bits");
    assert_eq!(a.unverified_ok, 0);
    // Every arrival is accounted for exactly once.
    assert_eq!(
        a.offered,
        a.served_by.iter().sum::<u64>()
            + a.shed_by.iter().sum::<u64>()
            + a.failed_by.iter().sum::<u64>()
    );
}

#[test]
fn flash_crowd_under_fault_injection_stays_verified() {
    let gpu_cfg = GpuConfig::l40();
    let mut cfg = TrafficConfig::new(
        131,
        2.5e-3,
        ArrivalProcess::FlashCrowd {
            base_rps: 40_000.0,
            spike_rps: 350_000.0,
            spike_start_s: 0.8e-3,
            spike_len_s: 0.7e-3,
        },
    );
    cfg.corpus = quick_corpus();

    // Rebuild the engine's server by hand so we can arm the fault
    // injector, then reuse the library path for everything else.
    let matrices: Vec<_> = (0..cfg.corpus.matrices)
        .map(|i| gen::random_uniform(64, 64, 700, cfg.corpus.seed + i as u64))
        .collect();
    let mut server = SpmvServer::new(Gpu::new(gpu_cfg.clone()), cfg.serve.clone());
    let handles: Vec<_> = matrices.iter().map(|m| server.register(m).unwrap()).collect();
    server.set_injection(&InjectionConfig {
        faults: FaultConfig::uniform(99, 5e-3),
        ..InjectionConfig::none()
    });

    let mut schedule = spaden_sparse::rng::Pcg64::new(cfg.seed, 0x5ced);
    let times = cfg.process.arrivals(cfg.duration_s, &mut schedule);
    let mut population = spaden_traffic::Population::new(cfg.population.clone(), cfg.seed);
    let arrivals: Vec<_> = times
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let meta = population.sample();
            spaden_serve::OpenRequest {
                request: Request {
                    matrix: handles[meta.fingerprint % handles.len()],
                    x: spaden_traffic::traffic_x(64, i),
                    deadline_s: Some(cfg.population.slo_s),
                },
                priority: meta.priority,
                arrival_s: t,
            }
        })
        .collect();

    let outcomes = server.run_open_loop(arrivals);
    assert!(!outcomes.is_empty());
    let mut high = [0u64; 2];
    for o in &outcomes {
        match &o.result {
            Ok(ok) => {
                // Verified against the f64 oracle despite injected faults.
                let csr = &matrices[o.matrix.0 % matrices.len()];
                let x = spaden_traffic::traffic_x(64, o.index);
                let oracle = csr.spmv_f64(&x).unwrap();
                for (r, (a, e)) in ok.y.iter().zip(&oracle).enumerate() {
                    let row_nnz = (csr.row_ptr[r + 1] - csr.row_ptr[r]) as f64;
                    let tol =
                        (2.0f64.powi(-10) * 3.0 * row_nnz.max(1.0) + 1e-4) * e.abs().max(1.0);
                    assert!(((*a as f64) - e).abs() <= tol, "silent wrong answer at row {r}");
                }
                if o.priority == Priority::High {
                    high[0] += 1;
                }
            }
            Err(e) => {
                // Typed failure — acceptable; shed/brownout must never
                // hit High-priority arrivals.
                if o.priority == Priority::High {
                    high[1] += 1;
                    assert!(
                        !matches!(e, ServeError::Shed(ShedReason::Brownout { .. })),
                        "High must never be brownout-shed: {e}"
                    );
                }
            }
        }
    }
    let high_avail = high[0] as f64 / (high[0] + high[1]).max(1) as f64;
    assert!(high_avail >= 0.9, "High availability {high_avail} under flash crowd + faults");
}

#[test]
fn brownout_engages_under_sustained_overrun_without_touching_closed_loop() {
    let gpu_cfg = GpuConfig::l40();
    // An unmeetable p99 target forces the AIMD limit to its floor and
    // walks the brownout ladder.
    let overload = OverloadConfig {
        enabled: true,
        target_p99_s: 1e-12,
        window: 4,
        brownout_after: 1,
        ..OverloadConfig::on()
    };
    let serve_cfg = ServeConfig { overload, ..ServeConfig::default() };
    let mut cfg = TrafficConfig::new(9, 2e-3, ArrivalProcess::Poisson { rate_rps: 60_000.0 });
    cfg.corpus = quick_corpus();
    cfg.serve = serve_cfg.clone();
    let summary = run_traffic(&gpu_cfg, &cfg);
    assert!(
        summary.overload.brownout_escalations > 0,
        "ladder must escalate: {:?}",
        summary.overload
    );
    assert!(
        summary.overload.shed_brownout[Priority::Low as usize] > 0,
        "brownout must shed Low traffic: {:?}",
        summary.overload
    );
    assert_eq!(summary.overload.shed_brownout[Priority::High as usize], 0);
    assert_eq!(summary.unverified_ok, 0, "brownout never skips verification");

    // The same aggressive overload config leaves closed-loop serving
    // byte-for-byte unchanged.
    let run_closed = |cfg: ServeConfig| {
        let csr = gen::random_uniform(96, 96, 1300, 8_300);
        let mut srv = SpmvServer::new(Gpu::new(gpu_cfg.clone()), cfg);
        let h = srv.register(&csr).unwrap();
        let x = spaden_traffic::traffic_x(96, 3);
        let ok = srv.serve(Request { matrix: h, x, deadline_s: None }).unwrap();
        (ok.y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), srv.clock_s().to_bits())
    };
    assert_eq!(run_closed(ServeConfig::default()), run_closed(serve_cfg));
}
