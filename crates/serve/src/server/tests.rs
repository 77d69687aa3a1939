mod fixtures;

use super::*;
use crate::queue::ShedReason;
use fixtures::*;
use spaden::engine::EngineError;
use spaden::{SpmvEngine, UpdateFault};
use spaden_gpusim::{FaultConfig, GpuConfig};
use spaden_sparse::gen;
use spaden_sparse::delta::{DeltaClass, UpdateError};

#[test]
fn clean_request_served_by_top_rung() {
    let (mut srv, h, csr) = clean_server();
    let x = make_x(96);
    let ok = srv
        .serve(Request { matrix: h, x: x.clone(), deadline_s: None })
        .expect("clean gpu serves");
    assert_eq!(ok.rung, Rung::SpadenChecked);
    assert_eq!(ok.retries, 0);
    assert!(ok.latency_s > 0.0);
    let oracle = csr.spmv_f64(&x).unwrap();
    for (r, (a, o)) in ok.y.iter().zip(&oracle).enumerate() {
        let tol = 1e-2f64.max(o.abs() * 2e-2);
        assert!((*a as f64 - o).abs() <= tol, "row {r}: {a} vs {o}");
    }
    assert_eq!(srv.stats().ok_total(), 1);
    assert_eq!(srv.stats().served[Rung::SpadenChecked as usize], 1);
}

#[test]
fn planned_ladder_matches_pre_planner_ladder_on_default_config() {
    // Regression: on the default config the planner-derived ladder
    // must recombine bit-identically with the fixed pre-planner
    // ladder — same rung order, same top rung, same bits out.
    let (mut srv, h, csr) = clean_server();
    assert_eq!(
        srv.ladder(h).unwrap(),
        [Rung::SpadenChecked, Rung::SpadenScalar, Rung::CsrBaseline],
        "canonical order must survive planning on the default matrix"
    );
    let x = make_x(96);
    let ok = srv.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
    assert_eq!(ok.rung, Rung::SpadenChecked);
    let direct = SpadenEngine::try_prepare(srv.gpu(), &csr)
        .unwrap()
        .try_run_checked(srv.gpu(), &x)
        .unwrap();
    assert_eq!(ok.y, direct.y, "planned ladder must reproduce the exact pre-planner bits");
}

#[test]
fn planner_promotes_csr_rung_on_hostile_structure() {
    // A large, extremely sparse scalar matrix shatters into nearly
    // one 8x8 block per nonzero — the cost model prices the CSR
    // baseline far below the bitmap kernels, so the CSR rung is
    // promoted to the top while the ABFT rung stays in the ladder.
    let csr = gen::random_uniform(131072, 131072, 300000, 911);
    let mut srv = SpmvServer::new(Gpu::new(GpuConfig::l40()), ServeConfig::default());
    let h = srv.register(&csr).unwrap();
    let ladder = srv.ladder(h).unwrap();
    assert_eq!(ladder[0], Rung::CsrBaseline, "ladder: {ladder:?}");
    assert!(ladder.contains(&Rung::SpadenChecked), "ABFT rung must be retained");
    let x = make_x(131072);
    let ok = srv.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
    assert_eq!(ok.rung, Rung::CsrBaseline);
    let oracle = csr.spmv_f64(&x).unwrap();
    for (a, o) in ok.y.iter().zip(&oracle) {
        assert!((*a as f64 - o).abs() <= 1e-2f64.max(o.abs() * 2e-2));
    }
}

#[test]
fn scalar_rung_output_passes_abft_checksums() {
    // The second rung's verification must accept its own clean output
    // (the scalar kernel rounds to f16 exactly like the ABFT model).
    let (srv, h, _) = clean_server();
    let m = &srv.matrices[h.0].current;
    let x = make_x(96);
    let run = m.scalar.try_run(srv.gpu(), &x).unwrap();
    assert!(m.spaden.abft().verify(&x, &run.y).is_empty());
}

#[test]
fn csr_rung_output_passes_f32_checksums() {
    let (srv, h, _) = clean_server();
    let m = &srv.matrices[h.0].current;
    let x = make_x(96);
    let run = m.csr.try_run(srv.gpu(), &x).unwrap();
    assert!(m.sums.verify(&x, &run.y).is_empty());
}

#[test]
fn malformed_matrix_rejected_at_ingress() {
    let mut srv = SpmvServer::new(Gpu::new(GpuConfig::l40()), ServeConfig::default());
    let mut bad = gen::random_uniform(64, 64, 600, 903);
    bad.col_idx[..2].reverse();
    match srv.register(&bad) {
        Err(ServeError::Invalid(EngineError::Validation(_))) => {}
        other => panic!("expected Invalid(Validation), got {other:?}"),
    }
}

#[test]
fn wrong_x_length_is_typed_not_a_panic() {
    let (mut srv, h, _) = clean_server();
    match srv.serve(Request { matrix: h, x: vec![0.0; 95], deadline_s: None }) {
        Err(ServeError::Invalid(EngineError::ShapeMismatch { expected: 96, got: 95 })) => {}
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }
    assert_eq!(srv.stats().invalid, 1);
}

#[test]
fn unknown_handle_is_typed() {
    let (mut srv, _, _) = clean_server();
    match srv.serve(Request { matrix: MatrixHandle(7), x: vec![], deadline_s: None }) {
        Err(ServeError::UnknownMatrix(7)) => {}
        other => panic!("expected UnknownMatrix, got {other:?}"),
    }
}

#[test]
fn impossible_deadline_fails_fast_without_running() {
    let (mut srv, h, _) = clean_server();
    let attempts_before: u64 = srv.stats().attempts.iter().sum();
    match srv.serve(Request { matrix: h, x: make_x(96), deadline_s: Some(1e-9) }) {
        Err(ServeError::DeadlineExceeded { budget_s, spent_s }) => {
            assert_eq!(budget_s, 1e-9);
            assert_eq!(spent_s, 0.0, "no rung should have been attempted");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let attempts_after: u64 = srv.stats().attempts.iter().sum();
    assert_eq!(attempts_before, attempts_after);
    assert_eq!(srv.stats().deadline_exceeded, 1);
}

#[test]
fn batch_overflow_rejected_with_overloaded_in_input_order() {
    let csr = gen::random_uniform(64, 64, 800, 905);
    let cfg = ServeConfig { queue_capacity: 4, ..ServeConfig::default() };
    let mut srv = SpmvServer::new(Gpu::new(GpuConfig::l40()), cfg);
    let h = srv.register(&csr).unwrap();
    let reqs: Vec<Request> = (0..7)
        .map(|_| Request { matrix: h, x: make_x(64), deadline_s: None })
        .collect();
    let results = srv.run_batch(reqs);
    assert_eq!(results.len(), 7);
    for r in &results[..4] {
        assert!(r.is_ok(), "admitted head of the batch is served: {r:?}");
    }
    for r in &results[4..] {
        assert_eq!(
            *r.as_ref().unwrap_err(),
            ServeError::Overloaded { capacity: 4 },
            "overflow tail rejected"
        );
    }
    assert_eq!(srv.stats().submitted, 7);
    assert_eq!(srv.stats().overloaded, 3);
}

#[test]
fn kill_switch_walks_the_ladder_deterministically() {
    let (mut srv, h, csr) = clean_server();
    let x = make_x(96);
    let oracle = csr.spmv_f64(&x).unwrap();
    let check = |y: &[f32]| {
        for (r, (a, o)) in y.iter().zip(&oracle).enumerate() {
            let tol = 1e-2f64.max(o.abs() * 2e-2);
            assert!((*a as f64 - o).abs() <= tol, "row {r}: {a} vs {o}");
        }
    };

    srv.trip_rung(Rung::SpadenChecked);
    let ok = srv.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
    assert_eq!(ok.rung, Rung::SpadenScalar, "top rung drained -> scalar serves");
    check(&ok.y);

    srv.trip_rung(Rung::SpadenChecked);
    srv.trip_rung(Rung::SpadenScalar);
    let ok = srv.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
    assert_eq!(ok.rung, Rung::CsrBaseline, "two rungs drained -> csr serves");
    check(&ok.y);

    srv.trip_rung(Rung::SpadenChecked);
    srv.trip_rung(Rung::SpadenScalar);
    srv.trip_rung(Rung::CsrBaseline);
    match srv.serve(Request { matrix: h, x, deadline_s: None }) {
        Err(ServeError::Unavailable) => {}
        other => panic!("all rungs drained: expected Unavailable, got {other:?}"),
    }
    assert_eq!(srv.stats().unavailable, 1);
    assert!(
        srv.stats().served[Rung::SpadenScalar as usize] == 1
            && srv.stats().served[Rung::CsrBaseline as usize] == 1
    );
}

#[test]
fn f16_hazard_demotes_off_tensor_core_rung() {
    // With SimSan on, a request vector past the f16 range makes the
    // top rung refuse with a typed NumericalHazard instead of serving
    // Inf-poisoned output; the hazard is transient, so the ladder
    // descends and an f32-capable rung serves a finite answer.
    use spaden_gpusim::SanConfig;
    let csr = gen::random_uniform(128, 96, 1800, 901);
    let mut cfg = GpuConfig::l40();
    cfg.san = SanConfig::on();
    let mut srv = SpmvServer::new(Gpu::new(cfg), ServeConfig::default());
    let h = srv.register(&csr).expect("clean matrix registers under san");
    let x = vec![1e5f32; 96];
    let ok = srv
        .serve(Request { matrix: h, x: x.clone(), deadline_s: Some(1.0) })
        .expect("ladder resolves the hazard");
    assert_ne!(ok.rung, Rung::SpadenChecked, "poisoned rung must not serve");
    assert!(ok.y.iter().all(|v| v.is_finite()));
    let oracle = csr.spmv_f64(&x).unwrap();
    for (r, (a, o)) in ok.y.iter().zip(&oracle).enumerate() {
        let tol = 1e-2f64.max(o.abs() * 2e-2);
        assert!((*a as f64 - o).abs() <= tol, "row {r}: {a} vs {o}");
    }
    assert!(srv.stats().failures[Rung::SpadenChecked as usize] > 0);
}

#[test]
fn sharded_rung_serves_when_fleet_configured() {
    let (mut srv, h, csr) = sharded_server(4);
    let x = make_x(96);
    let ok = srv
        .serve(Request { matrix: h, x: x.clone(), deadline_s: None })
        .expect("healthy fleet serves");
    assert_eq!(ok.rung, Rung::Sharded);
    // The sharded result is bit-identical to the single-device path.
    let single = SpadenEngine::prepare(srv.gpu(), &csr).run(srv.gpu(), &x);
    assert_eq!(ok.y, single.y);
    assert_eq!(srv.stats().served[Rung::Sharded as usize], 1);
}

#[test]
fn reregistration_reuses_the_partition_plan() {
    let (mut srv, h1, csr) = sharded_server(4);
    assert_eq!(srv.partition_cache_stats().misses, 1);
    assert_eq!(srv.partition_cache_stats().hits, 0);
    let h2 = srv.register(&csr).expect("re-registration succeeds");
    assert_eq!(srv.partition_cache_stats().hits, 1, "same fingerprint must hit");
    // Both handles serve bit-identical sharded results.
    let x = make_x(96);
    let y1 = srv.serve(Request { matrix: h1, x: x.clone(), deadline_s: None }).unwrap();
    let y2 = srv.serve(Request { matrix: h2, x: x.clone(), deadline_s: None }).unwrap();
    assert_eq!(y1.rung, Rung::Sharded);
    assert_eq!(y1.y, y2.y);
}

#[test]
fn dead_fleet_fails_over_to_single_device_ladder() {
    let (mut srv, h, _) = sharded_server(3);
    for d in 0..3 {
        srv.kill_device(d);
    }
    let ok = srv
        .serve(Request { matrix: h, x: make_x(96), deadline_s: None })
        .expect("single-device ladder still serves");
    assert_eq!(ok.rung, Rung::SpadenChecked, "sharded rung fails, ladder descends");
    assert!(srv.stats().failures[Rung::Sharded as usize] >= 1);
}

#[test]
fn one_dead_device_still_serves_sharded() {
    let (mut srv, h, csr) = sharded_server(4);
    srv.kill_device(1);
    let x = make_x(96);
    let ok = srv.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
    assert_eq!(ok.rung, Rung::Sharded, "3 survivors carry the request");
    let single = SpadenEngine::prepare(srv.gpu(), &csr).run(srv.gpu(), &x);
    assert_eq!(ok.y, single.y);
    assert_eq!(srv.fleet().unwrap().alive_count(), 3);
}

#[test]
fn clock_advances_with_served_traffic() {
    let (mut srv, h, _) = clean_server();
    let t0 = srv.clock_s();
    srv.serve(Request { matrix: h, x: make_x(96), deadline_s: None }).unwrap();
    assert!(srv.clock_s() > t0);
}

use crate::overload::{BrownoutMode, OverloadConfig};

#[test]
fn open_loop_below_capacity_serves_everything_with_zero_wait() {
    let (mut srv, h, _) = clean_server();
    // Arrivals spaced far wider than one request's service time.
    let arrivals: Vec<OpenRequest> =
        (0..6).map(|i| open(h, Priority::Normal, i as f64 * 1e-3, 500e-6)).collect();
    let out = srv.run_open_loop(arrivals);
    assert_eq!(out.len(), 6);
    for o in &out {
        assert!(o.result.is_ok(), "idle server serves every arrival: {:?}", o.result);
        assert_eq!(o.queue_wait_s, 0.0, "no backlog below capacity");
        assert!(o.time_in_system_s() > 0.0);
    }
    assert_eq!(srv.stats().shed, 0);
    assert_eq!(srv.stats().submitted, 6);
}

#[test]
fn open_loop_burst_queues_and_expires_dead_requests_without_executing() {
    let (mut srv, h, _) = clean_server();
    // A same-instant burst with budgets that only cover a couple of
    // services' worth of queue wait: the tail is dead by the time it
    // reaches the head of the queue and must be shed, not executed.
    let budget = 40e-6;
    let arrivals: Vec<OpenRequest> =
        (0..20).map(|_| open(h, Priority::Normal, 0.0, budget)).collect();
    let attempts_before: u64 = srv.stats().attempts.iter().sum();
    let out = srv.run_open_loop(arrivals);
    let served = out.iter().filter(|o| o.result.is_ok()).count();
    let expired = out
        .iter()
        .filter(|o| {
            matches!(o.result, Err(ServeError::Shed(ShedReason::Expired { .. })))
        })
        .count();
    assert!(served >= 1, "the head of the burst is alive");
    assert!(expired >= 1, "the tail must expire in queue: {out:?}");
    assert_eq!(
        srv.shed_counters().expired[Priority::Normal as usize] as usize,
        expired
    );
    // Expired requests never reached a rung: attempts grew only for
    // requests that were actually executed.
    let attempts_after: u64 = srv.stats().attempts.iter().sum();
    let executed = out.iter().filter(|o| !matches!(o.result, Err(ServeError::Shed(_)))).count();
    assert!(
        (attempts_after - attempts_before) as usize <= executed * 2,
        "expired sheds must not burn rung attempts"
    );
    for o in &out {
        if matches!(o.result, Err(ServeError::Shed(ShedReason::Expired { .. }))) {
            assert!(o.queue_wait_s >= budget, "expired only after the budget elapsed");
        }
    }
}

#[test]
fn open_loop_saturation_evicts_low_priority_for_high() {
    let cfg = ServeConfig { queue_capacity: 4, ..ServeConfig::default() };
    let csr = gen::random_uniform(128, 96, 1800, 901);
    let mut srv = SpmvServer::new(Gpu::new(GpuConfig::l40()), cfg);
    let h = srv.register(&csr).unwrap();
    // Fill the queue with low-priority work arriving together, then a
    // high-priority arrival displaces the newest low entry.
    let mut arrivals: Vec<OpenRequest> =
        (0..5).map(|_| open(h, Priority::Low, 0.0, 10.0)).collect();
    arrivals.push(open(h, Priority::High, 0.0, 10.0));
    let out = srv.run_open_loop(arrivals);
    // Arrival 4 overflowed the hard bound (all-low queue: rejected),
    // and the high arrival evicted the newest queued low entry (3).
    assert!(matches!(
        out[4].result,
        Err(ServeError::Shed(ShedReason::QueueFull { capacity: 4 }))
    ));
    assert!(matches!(
        out[3].result,
        Err(ServeError::Shed(ShedReason::Evicted { by: Priority::High }))
    ));
    assert!(out[5].result.is_ok(), "high priority served: {:?}", out[5].result);
    assert_eq!(srv.shed_counters().evicted[Priority::Low as usize], 1);
    assert_eq!(srv.shed_counters().rejected_full[Priority::Low as usize], 1);
}

#[test]
fn open_loop_brownout_sheds_low_but_never_high() {
    let cfg = ServeConfig {
        overload: OverloadConfig {
            enabled: true,
            // Impossible target: every window overruns, so the
            // controller dives to the floor and escalates.
            target_p99_s: 1e-12,
            window: 4,
            min_outstanding: 2,
            max_outstanding: 8,
            brownout_after: 1,
            ..OverloadConfig::default()
        },
        ..ServeConfig::default()
    };
    let csr = gen::random_uniform(128, 96, 1800, 901);
    let mut srv = SpmvServer::new(Gpu::new(GpuConfig::l40()), cfg);
    let h = srv.register(&csr).unwrap();
    let mut arrivals = Vec::new();
    for i in 0..60 {
        let p = if i % 3 == 0 { Priority::High } else { Priority::Low };
        arrivals.push(open(h, p, i as f64 * 1e-3, 500e-6));
    }
    let out = srv.run_open_loop(arrivals);
    let (mode_limit, mode) = srv.overload_state();
    assert_eq!(mode, BrownoutMode::ShedLowAndNormal, "sustained overrun escalates");
    assert!(mode_limit <= 2, "limit dives to the floor");
    let low_shed = out
        .iter()
        .filter(|o| {
            o.priority == Priority::Low
                && matches!(o.result, Err(ServeError::Shed(ShedReason::Brownout { .. })))
        })
        .count();
    assert!(low_shed > 0, "brownout sheds low-priority arrivals");
    for o in out.iter().filter(|o| o.priority == Priority::High) {
        assert!(
            !matches!(o.result, Err(ServeError::Shed(ShedReason::Brownout { .. }))),
            "high priority is never brownout-shed"
        );
    }
    assert!(srv.overload_stats().brownout_escalations >= 2);
}

#[test]
fn open_loop_is_deterministic() {
    let run = || {
        let (mut srv, h, _) = clean_server();
        let arrivals: Vec<OpenRequest> = (0..30)
            .map(|i| {
                let p = Priority::ALL[i % 3];
                open(h, p, i as f64 * 20e-6, 300e-6)
            })
            .collect();
        let out = srv.run_open_loop(arrivals);
        let served = out.iter().filter(|o| o.result.is_ok()).count();
        let latencies: Vec<u64> =
            out.iter().map(|o| o.time_in_system_s().to_bits()).collect();
        (served, latencies, srv.clock_s().to_bits(), srv.stats().shed)
    };
    assert_eq!(run(), run(), "same schedule, same bits");
}

#[test]
fn batched_burst_coalesces_and_every_column_is_verified() {
    let (mut srv, h, csr) = batched_server(BatchConfig::on());
    let arrivals: Vec<OpenRequest> =
        (0..16).map(|_| open(h, Priority::Normal, 0.0, 10.0)).collect();
    let out = srv.run_open_loop(arrivals);
    let st = srv.stats();
    assert!(st.batches >= 1, "a same-instant burst must coalesce");
    assert_eq!(st.batched_served, 16, "every member served from a sweep");
    assert_eq!(st.batch_width_max, 8, "width saturates at max_width");
    assert!(st.mean_batch_width() > 1.0);
    assert!((st.coalescing_rate() - 1.0).abs() < 1e-12);
    let oracle = csr.spmv_f64(&make_x(96)).unwrap();
    for o in &out {
        let ok = o.result.as_ref().expect("whole burst fits the budget");
        assert_eq!(ok.rung, Rung::SpadenChecked, "batched serves report the ABFT rung");
        for (r, (a, e)) in ok.y.iter().zip(&oracle).enumerate() {
            let tol = 1e-2f64.max(e.abs() * 2e-2);
            assert!((*a as f64 - e).abs() <= tol, "row {r}: {a} vs {e}");
        }
    }
}

#[test]
fn batching_outruns_per_request_serving_on_a_same_matrix_burst() {
    // The acceptance bar in miniature: the same 32-deep same-matrix
    // burst must finish in under half the wall-clock when coalesced.
    let run = |batch: BatchConfig| {
        let (mut srv, h, _) = batched_server(batch);
        let arrivals: Vec<OpenRequest> =
            (0..32).map(|i| open(h, Priority::Normal, i as f64 * 1e-7, 10.0)).collect();
        let out = srv.run_open_loop(arrivals);
        assert!(out.iter().all(|o| o.result.is_ok()), "idle server serves the burst");
        srv.clock_s()
    };
    let batched = run(BatchConfig::on());
    let single = run(BatchConfig::default());
    assert!(
        batched * 2.0 < single,
        "batched {batched:.3e}s vs per-request {single:.3e}s must be a >=2x win"
    );
}

#[test]
fn batched_open_loop_is_deterministic() {
    let run = || {
        let (mut srv, h, _) = batched_server(BatchConfig::on());
        let arrivals: Vec<OpenRequest> = (0..30)
            .map(|i| open(h, Priority::ALL[i % 3], i as f64 * 5e-6, 400e-6))
            .collect();
        let out = srv.run_open_loop(arrivals);
        let bits: Vec<u64> = out.iter().map(|o| o.time_in_system_s().to_bits()).collect();
        (bits, srv.clock_s().to_bits(), srv.stats().batches, srv.stats().shed)
    };
    assert_eq!(run(), run(), "same schedule, same sweeps, same bits");
}

#[test]
fn batching_window_never_serves_an_expired_request() {
    let (mut srv, h, _) = batched_server(BatchConfig::on());
    // A deep same-instant burst on tight budgets: the tail dies in
    // queue and must be shed at dequeue, never gathered into a sweep.
    let budget = 15e-6;
    let arrivals: Vec<OpenRequest> =
        (0..24).map(|_| open(h, Priority::Normal, 0.0, budget)).collect();
    let out = srv.run_open_loop(arrivals);
    for o in &out {
        match &o.result {
            Ok(_) => assert!(
                o.queue_wait_s < budget,
                "a served request was dead at dequeue: waited {}",
                o.queue_wait_s
            ),
            Err(ServeError::Shed(ShedReason::Expired { .. })) => {
                assert!(o.queue_wait_s >= budget, "expired only after the budget elapsed")
            }
            // Alive at dequeue but with less remaining budget than
            // one service: the ladder's deadline gate fails it
            // before executing — also never served expired.
            Err(ServeError::DeadlineExceeded { .. }) => {}
            Err(e) => panic!("unexpected outcome {e:?}"),
        }
    }
}

#[test]
fn enabled_batching_at_width_one_matches_per_request_bits() {
    // max_width below the crossover makes every head unbatchable, so
    // the batched drain must reduce to the per-request drain exactly.
    let run = |batch: BatchConfig| {
        let (mut srv, h, _) = batched_server(batch);
        let arrivals: Vec<OpenRequest> = (0..30)
            .map(|i| open(h, Priority::ALL[i % 3], i as f64 * 20e-6, 300e-6))
            .collect();
        let out = srv.run_open_loop(arrivals);
        let bits: Vec<u64> = out.iter().map(|o| o.time_in_system_s().to_bits()).collect();
        (bits, srv.clock_s().to_bits(), srv.stats().shed)
    };
    let width_one = BatchConfig { enabled: true, max_width: 1, ..BatchConfig::default() };
    assert_eq!(run(width_one), run(BatchConfig::default()), "same bits either way");
    let (mut srv, h, _) = batched_server(width_one);
    let out = srv.run_open_loop(vec![open(h, Priority::Normal, 0.0, 10.0)]);
    assert!(out[0].result.is_ok());
    assert_eq!(srv.stats().batches, 0, "width one never forms a batch");
}

#[test]
fn batched_sweep_absorbs_tensor_core_faults_via_column_checksums() {
    // Fragment corruption lands only on MMA accumulators; the
    // column-wise ABFT pass detects it and the scalar recompute
    // repairs it, so sweeps keep serving verified answers — the
    // paper's ABFT story, observed through the batching window.
    let (mut srv, h, csr) = batched_server(BatchConfig::on());
    srv.set_injection(&InjectionConfig {
        faults: FaultConfig { fragment_corrupt_rate: 1.0, ..FaultConfig::disabled() },
        ..InjectionConfig::none()
    });
    let arrivals: Vec<OpenRequest> =
        (0..16).map(|_| open(h, Priority::Normal, 0.0, 10.0)).collect();
    let out = srv.run_open_loop(arrivals);
    let st = srv.stats();
    assert!(st.batches >= 1, "sweeps keep forming under tensor-only faults");
    assert_eq!(st.batched_served, 16, "correction keeps every member on the sweep");
    assert_eq!(st.batch_fallbacks, 0);
    let oracle = csr.spmv_f64(&make_x(96)).unwrap();
    for o in &out {
        let ok = o.result.as_ref().expect("ABFT absorbs fragment faults");
        for (a, e) in ok.y.iter().zip(&oracle) {
            assert!((*a as f64 - e).abs() <= 1e-2f64.max(e.abs() * 2e-2));
        }
    }
}

#[test]
fn failed_sweep_falls_back_to_the_per_request_ladder() {
    let (mut srv, h, _) = batched_server(BatchConfig::on());
    // Saturating memory faults corrupt the recompute path too, so the
    // SpMM retry ladder exhausts and every coalesced sweep fails.
    // Members must be re-served individually through the rung walk;
    // under full-rate injection that walk also fails — but with typed
    // errors, never an unverified Ok.
    srv.set_injection(&InjectionConfig {
        faults: FaultConfig { mem_bit_flip_rate: 1.0, ..FaultConfig::disabled() },
        ..InjectionConfig::none()
    });
    let arrivals: Vec<OpenRequest> =
        (0..8).map(|_| open(h, Priority::Normal, 0.0, 10.0)).collect();
    let out = srv.run_open_loop(arrivals);
    let st = srv.stats();
    assert!(st.batch_fallbacks >= 1, "the sweep must have failed and fallen back");
    assert_eq!(st.batched_served, 0, "no member was served from a failed sweep");
    for o in &out {
        match &o.result {
            Ok(ok) => panic!("full-rate faults must not produce a verified result: {ok:?}"),
            Err(ServeError::LadderExhausted { .. })
            | Err(ServeError::DeadlineExceeded { .. })
            | Err(ServeError::Unavailable) => {}
            Err(other) => panic!("unexpected error under injection: {other}"),
        }
    }
}

#[test]
fn closed_loop_paths_ignore_the_overload_controller() {
    // run_batch / serve must behave identically whether or not the
    // open-loop overload policy is enabled.
    let csr = gen::random_uniform(128, 96, 1800, 901);
    let x = make_x(96);
    let run = |overload: OverloadConfig| {
        let cfg = ServeConfig { queue_capacity: 4, overload, ..ServeConfig::default() };
        let mut srv = SpmvServer::new(Gpu::new(GpuConfig::l40()), cfg);
        let h = srv.register(&csr).unwrap();
        let reqs: Vec<Request> = (0..7)
            .map(|_| Request { matrix: h, x: x.clone(), deadline_s: None })
            .collect();
        let results = srv.run_batch(reqs);
        let bits: Vec<Vec<u32>> = results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|ok| ok.y.iter().map(|v| v.to_bits()).collect())
            .collect();
        (bits, srv.clock_s().to_bits(), srv.stats().overloaded)
    };
    let off = run(OverloadConfig::default());
    let on = run(OverloadConfig::on());
    assert_eq!(off, on, "closed-loop serving is bit-identical with overload control on");
}

// ---- evolving matrices / epoch-consistent serving ----

#[test]
fn value_only_update_publishes_a_new_epoch_that_serves_verified() {
    let (mut srv, h, csr) = evolving_server();
    assert_eq!(srv.epoch(h), Some(0));
    let batch = value_batch(&csr, 9, 2.0);
    let outcome = srv.update(h, &batch).expect("clean update commits");
    assert_eq!(outcome.report.class, DeltaClass::ValueOnly);
    assert_eq!(srv.epoch(h), Some(1));
    assert_eq!(srv.stats().updates, 1);
    let x = make_x(96);
    let ok = srv.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
    assert_eq!(ok.epoch, 1);
    let truth = spaden_sparse::delta::apply_to_csr(&csr, &batch).unwrap();
    check_against(&truth, &x, &ok.y);
}

#[test]
fn structural_update_serves_base_plus_side_tail_verified() {
    let (mut srv, h, csr) = evolving_server();
    let batch = new_block_batch(&csr, 5);
    let outcome = srv.update(h, &batch).expect("clean update commits");
    assert_eq!(outcome.report.class, DeltaClass::Structural);
    assert!(!outcome.report.compacted, "threshold 64 must not compact 5 entries");
    assert_eq!(outcome.report.apply.side_inserts, 5);
    let x = make_x(96);
    let ok = srv.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
    // Served by the top Spaden rung: base kernel + side tail.
    assert_eq!(ok.rung, Rung::SpadenChecked);
    assert_eq!(ok.epoch, 1);
    let truth = spaden_sparse::delta::apply_to_csr(&csr, &batch).unwrap();
    check_against(&truth, &x, &ok.y);
    // The scalar and CSR rungs serve the same logical matrix.
    srv.trip_rung(Rung::SpadenChecked);
    let ok = srv.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
    assert_eq!(ok.rung, Rung::SpadenScalar);
    check_against(&truth, &x, &ok.y);
    srv.trip_rung(Rung::SpadenChecked);
    srv.trip_rung(Rung::SpadenScalar);
    let ok = srv.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
    assert_eq!(ok.rung, Rung::CsrBaseline);
    check_against(&truth, &x, &ok.y);
}

#[test]
fn injected_update_fault_rolls_back_and_the_old_epoch_keeps_serving() {
    let (mut srv, h, csr) = evolving_server();
    let batch = value_batch(&csr, 7, 3.0);
    let err = srv
        .update_with_fault(h, &batch, Some(UpdateFault { delta_index: 3, bit: 9 }))
        .expect_err("corrupted splice must be rejected");
    match err {
        ServeError::Update(UpdateError::VerificationFailed { epoch: 0, .. }) => {}
        other => panic!("expected Update(VerificationFailed), got {other:?}"),
    }
    assert_eq!(srv.epoch(h), Some(0), "bad epoch must never publish");
    assert_eq!(srv.stats().update_rollbacks, 1);
    assert_eq!(srv.evolve_stats(h).unwrap().rollbacks, 1);
    // The pre-update matrix still serves, verified.
    let x = make_x(96);
    let ok = srv.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
    assert_eq!(ok.epoch, 0);
    check_against(&csr, &x, &ok.y);
    // The identical batch without the fault commits afterwards.
    srv.update(h, &batch).expect("clean retry commits");
    assert_eq!(srv.epoch(h), Some(1));
}

#[test]
fn update_on_non_evolving_matrix_is_typed() {
    let (mut srv, h, csr) = clean_server();
    let batch = value_batch(&csr, 1, 1.0);
    match srv.update(h, &batch) {
        Err(ServeError::NotEvolving(0)) => {}
        other => panic!("expected NotEvolving, got {other:?}"),
    }
    match srv.update(MatrixHandle(9), &batch) {
        Err(ServeError::UnknownMatrix(9)) => {}
        other => panic!("expected UnknownMatrix, got {other:?}"),
    }
}

#[test]
fn open_loop_requests_finish_on_their_admitted_epoch() {
    let (mut srv, h, csr) = evolving_server();
    let batch = value_batch(&csr, 9, -1.5);
    let truth = spaden_sparse::delta::apply_to_csr(&csr, &batch).unwrap();
    // A same-instant burst admitted at epoch 0; the update lands
    // while the backlog drains, then a late arrival sees epoch 1.
    let mut arrivals: Vec<OpenRequest> =
        (0..6).map(|_| open(h, Priority::Normal, 0.0, 10.0)).collect();
    arrivals.push(open(h, Priority::Normal, 1e-3, 10.0));
    let updates = vec![ScheduledUpdate {
        at_s: 1e-6,
        matrix: h,
        batch,
        fault: None,
    }];
    let (out, applied) = srv.run_open_loop_evolving(arrivals, updates);
    assert_eq!(applied.len(), 1);
    applied[0].as_ref().expect("scheduled update commits");
    let x = make_x(96);
    for o in &out[..6] {
        assert_eq!(o.epoch, 0, "burst was admitted before the update");
        let ok = o.result.as_ref().expect("admitted burst serves");
        assert_eq!(ok.epoch, 0);
        // Epoch consistency: the pre-update matrix answered, even
        // for requests *served* after the update committed.
        check_against(&csr, &x, &ok.y);
    }
    let late = &out[6];
    assert_eq!(late.epoch, 1, "late arrival admitted on the new epoch");
    check_against(&truth, &x, &late.result.as_ref().unwrap().y);
    // At least one burst request was served after the update landed
    // (the update applies instantly at t=1us; draining six requests
    // takes far longer).
    assert!(
        out[..6].iter().filter(|o| o.done_s > 1e-6).count() >= 1,
        "fixture must exercise a stale-epoch service"
    );
}

#[test]
fn value_only_update_reslices_the_partition_plan() {
    let (mut srv, h, csr) = evolving_sharded_server();
    let misses_before = srv.partition_cache_stats().misses;
    let batch = value_batch(&csr, 9, 0.5);
    let outcome = srv.update(h, &batch).expect("clean update commits");
    assert!(outcome.partition_resliced, "value-only update must carry the plan across");
    assert!(!outcome.repartitioned);
    assert_eq!(
        srv.partition_cache_stats().misses,
        misses_before,
        "the resliced plan must hit, not re-partition"
    );
    // The resliced checksums accept the sharded rung's output.
    let x = make_x(96);
    let ok = srv.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
    assert_eq!(ok.rung, Rung::Sharded);
    assert_eq!(ok.epoch, 1);
    let truth = spaden_sparse::delta::apply_to_csr(&csr, &batch).unwrap();
    check_against(&truth, &x, &ok.y);
    assert_eq!(srv.stats().epoch_stragglers, 0);
}

#[test]
fn structural_update_repartitions_for_the_fleet() {
    let (mut srv, h, csr) = evolving_sharded_server();
    let batch = new_block_batch(&csr, 4);
    let outcome = srv.update(h, &batch).expect("clean update commits");
    assert!(outcome.repartitioned);
    assert!(!outcome.partition_resliced);
    let x = make_x(96);
    let ok = srv.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
    assert_eq!(ok.rung, Rung::Sharded, "fresh partition serves the new epoch");
    let truth = spaden_sparse::delta::apply_to_csr(&csr, &batch).unwrap();
    check_against(&truth, &x, &ok.y);
}

#[test]
fn epoch_straggler_skips_the_sharded_rung_but_still_serves() {
    let (mut srv, h, csr) = evolving_sharded_server();
    let batch = value_batch(&csr, 5, 4.0);
    // Burst admitted at epoch 0, update lands mid-drain: stragglers
    // must skip the head-epoch fleet and serve on their captured
    // single-device ladder.
    let arrivals: Vec<OpenRequest> =
        (0..5).map(|_| open(h, Priority::Normal, 0.0, 10.0)).collect();
    let updates =
        vec![ScheduledUpdate { at_s: 1e-6, matrix: h, batch, fault: None }];
    let (out, applied) = srv.run_open_loop_evolving(arrivals, updates);
    applied[0].as_ref().expect("scheduled update commits");
    let x = make_x(96);
    let mut straggled = 0;
    for o in &out {
        let ok = o.result.as_ref().expect("every burst request serves");
        assert_eq!(ok.epoch, 0);
        check_against(&csr, &x, &ok.y);
        if ok.rung != Rung::Sharded {
            straggled += 1;
        }
    }
    assert!(straggled >= 1, "fixture must exercise the straggler path");
    assert_eq!(srv.stats().epoch_stragglers as usize, straggled);
}

#[test]
fn run_open_loop_is_bit_identical_to_the_evolving_loop_without_updates() {
    let run = |evolving: bool| {
        let (mut srv, h, _) = clean_server();
        let arrivals: Vec<OpenRequest> = (0..20)
            .map(|i| open(h, Priority::ALL[i % 3], i as f64 * 20e-6, 300e-6))
            .collect();
        let out = if evolving {
            srv.run_open_loop_evolving(arrivals, Vec::new()).0
        } else {
            srv.run_open_loop(arrivals)
        };
        let bits: Vec<u64> = out.iter().map(|o| o.time_in_system_s().to_bits()).collect();
        (bits, srv.clock_s().to_bits(), srv.stats().shed)
    };
    assert_eq!(run(false), run(true), "empty update schedule must change nothing");
}

#[test]
fn durability_off_serving_is_bit_identical_to_durable_serving() {
    // The store only observes commits; the served bytes must not
    // depend on whether it is attached.
    let x = make_x(96);
    let run = |durable: bool| {
        let (mut srv, h, csr) = if durable { durable_server() } else { evolving_server() };
        srv.update(h, &value_batch(&csr, 9, 2.0)).expect("commit");
        srv.update(h, &new_block_batch(&csr, 3)).expect("commit");
        let ok = srv.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
        (ok.y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), ok.epoch, ok.rung)
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn crash_image_recovers_the_exact_epoch_and_serving_resumes() {
    let (mut srv, h, csr) = durable_server();
    srv.update(h, &value_batch(&csr, 9, 2.0)).expect("commit");
    srv.update(h, &new_block_batch(&csr, 4)).expect("commit");
    srv.update(h, &value_batch(&csr, 5, -1.0)).expect("commit");
    assert_eq!(srv.epoch(h), Some(3));
    let x = make_x(96);
    let before = srv.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
    let image = srv.durable_image(h).expect("durable registration has an image");

    // "Restart": a fresh server recovers from the crash image.
    let mut srv2 = SpmvServer::new(Gpu::new(GpuConfig::l40()), ServeConfig::default());
    let (h2, report) = srv2
        .recover_evolving(&image, spaden_store::SnapshotPolicy { snapshot_every: 2 })
        .expect("clean image recovers");
    assert!(report.clean(), "{report:?}");
    assert_eq!(report.recovered_epoch, 3);
    assert_eq!(report.snapshot_epoch, 2);
    assert_eq!(report.replayed, 1);
    assert_eq!(srv2.epoch(h2), Some(3));
    assert_eq!(srv2.fingerprint_of(h2), srv.fingerprint_of(h), "same truth bits");
    // Recovery re-checkpoints: empty log, snapshot at the tip.
    let store = srv2.durable_store(h2).unwrap();
    assert_eq!(store.wal_bytes(), 0);
    assert!(store.snapshot_bytes() > 0);
    // Bit-identical serving across the crash.
    let after = srv2.serve(Request { matrix: h2, x: x.clone(), deadline_s: None }).unwrap();
    assert_eq!(after.epoch, before.epoch);
    assert_eq!(
        after.y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        before.y.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
    // And the recovered matrix keeps evolving.
    srv2.update(h2, &value_batch(&csr, 3, 0.5)).expect("recovered matrix commits");
    assert_eq!(srv2.epoch(h2), Some(4));
}

#[test]
fn recovery_rebuilds_the_snapshot_the_commit_path_published() {
    // All three snapshot paths meet here: registration, a structural
    // commit that re-prices the ladder, a value-only commit that
    // reuses those costs, and a recovery that prices from scratch.
    let (mut srv, h, csr) = durable_server();
    srv.update(h, &new_block_batch(&csr, 4)).expect("structural commit");
    let outcome = srv.update(h, &value_batch(&csr, 9, 2.0)).expect("value-only commit");
    assert_eq!(outcome.report.class, DeltaClass::ValueOnly);
    let image = srv.durable_image(h).expect("durable registration has an image");
    let mut srv2 = SpmvServer::new(Gpu::new(GpuConfig::l40()), ServeConfig::default());
    let (h2, _) = srv2
        .recover_evolving(&image, spaden_store::SnapshotPolicy { snapshot_every: 2 })
        .expect("clean image recovers");

    let before = srv.matrices[h.0].current.clone();
    let after = srv2.matrices[h2.0].current.clone();
    assert_eq!(after.ladder, before.ladder);
    assert_eq!(after.est_cost_s.map(f64::to_bits), before.est_cost_s.map(f64::to_bits));
    assert_eq!((after.epoch, before.epoch), (2, 2));
    assert!(!before.side.is_empty(), "fixture must leave a side tail");
    assert_eq!(after.side, before.side);
    let x = make_x(96);
    let served = |s: &mut SpmvServer, h: MatrixHandle| {
        let ok = s.serve(Request { matrix: h, x: x.clone(), deadline_s: None }).unwrap();
        ok.y.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    };
    assert_eq!(served(&mut srv2, h2), served(&mut srv, h));
}

#[test]
fn fault_storm_rolls_back_every_update_with_the_served_pointer_unchanged() {
    // Satellite: N *consecutive* injected faults must produce N
    // rollbacks while the served snapshot is never even re-published
    // — the Arc pointer itself stays fixed through the storm.
    let (mut srv, h, csr) = evolving_server();
    srv.update(h, &value_batch(&csr, 4, 1.5)).expect("commit");
    let head = Arc::as_ptr(&srv.matrices[h.0].current);
    let storm = 4;
    for i in 0..storm {
        let batch = value_batch(&csr, 5 + i, 2.0 + i as f32);
        let err = srv
            .update_with_fault(h, &batch, Some(UpdateFault { delta_index: 0, bit: 9 }))
            .expect_err("faulted update must roll back");
        assert!(matches!(err, ServeError::Update(UpdateError::VerificationFailed { .. })));
        assert_eq!(
            Arc::as_ptr(&srv.matrices[h.0].current),
            head,
            "storm fault {i} must not touch the served snapshot"
        );
        assert_eq!(srv.epoch(h), Some(1));
    }
    assert_eq!(srv.stats().update_rollbacks, storm as u64);
    assert_eq!(srv.evolve_stats(h).unwrap().rollbacks, storm as u64);
    // The matrix is still healthy after the storm.
    srv.update(h, &value_batch(&csr, 6, -2.0)).expect("post-storm commit");
    assert_eq!(srv.epoch(h), Some(2));
}

#[test]
fn rolled_back_updates_never_reach_the_log() {
    let (mut srv, h, csr) = durable_server();
    srv.update(h, &value_batch(&csr, 4, 1.5)).expect("commit");
    let appended = srv.durable_store(h).unwrap().records_appended();
    let wal_bytes = srv.durable_store(h).unwrap().wal_bytes();
    srv.update_with_fault(h, &value_batch(&csr, 7, 3.0), Some(UpdateFault { delta_index: 1, bit: 9 }))
        .expect_err("faulted update rolls back");
    let store = srv.durable_store(h).unwrap();
    assert_eq!(store.records_appended(), appended, "rollback must not be logged");
    assert_eq!(store.wal_bytes(), wal_bytes);
    srv.update(h, &value_batch(&csr, 7, 3.0)).expect("clean retry commits");
    assert_eq!(srv.durable_store(h).unwrap().records_appended(), appended + 1);
}
