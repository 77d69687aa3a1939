//! End-to-end resilience properties of the serving layer, driven by the
//! simulator's fault injector:
//!
//! 1. Under sustained full-rate injection the per-rung breakers trip and
//!    requests are shed with typed errors; once the fault burst stops the
//!    breakers probe, recover, and service resumes — all on simulated
//!    time, fully deterministic.
//! 2. The single-family fault schedules behind `repro serve` and
//!    `repro shard` hold the chaos oracle — no unverified output, one
//!    outcome per arrival — and each shows its family's signature in the
//!    counters: uniform kernel bit bursts (200+ arrivals, zero silently
//!    wrong results, breakers trip and recover), tensor-core-only faults
//!    (absorbed by ABFT correction on the top rung), and the device
//!    families (a device kill, fleet-wide stragglers, rolling hangs).
//! 3. Deadlines and backpressure hold under fault-free load too.

use spaden_bench::{burst_schedule, device_schedules};
use spaden_chaos::{run_schedule, ChaosSchedule, ScenarioOutcome};
use spaden_gpusim::{DeviceCounters, FaultConfig, Gpu, GpuConfig, InjectionConfig};
use spaden_serve::{BreakerState, Request, Rung, ServeConfig, ServeError, SpmvServer, Weaken};
use spaden_sparse::gen;

fn make_x(n: usize) -> Vec<f32> {
    (0..n).map(|i| ((i * 37 + 11) % 64) as f32 / 32.0 - 1.0).collect()
}

#[test]
fn breakers_trip_under_sustained_injection_and_recover_after() {
    let csr = gen::random_uniform(96, 96, 1400, 71);
    let mut srv = SpmvServer::new(Gpu::new(GpuConfig::l40()), ServeConfig::default());
    let h = srv.register(&csr).expect("clean registration before the burst");

    // Sustained burst: every value sector read corrupted. All three rungs
    // fail verification on every attempt, so each breaker accumulates
    // failures and trips.
    srv.set_injection(&InjectionConfig {
        faults: FaultConfig::uniform(404, 1.0),
        ..InjectionConfig::none()
    });
    let mut shed = 0u32;
    for _ in 0..8 {
        match srv.serve(Request { matrix: h, x: make_x(96), deadline_s: None }) {
            Ok(ok) => panic!("full-rate faults must not produce a verified result: {:?}", ok.rung),
            Err(ServeError::LadderExhausted { .. }) | Err(ServeError::DeadlineExceeded { .. }) => {}
            Err(ServeError::Unavailable) => shed += 1,
            Err(other) => panic!("unexpected error under injection: {other}"),
        }
    }
    let (trips, _) = srv.breaker_totals();
    assert!(trips >= 3, "sustained injection must trip all rungs (got {trips} trips)");
    assert!(shed > 0, "open breakers must shed load as Unavailable");
    assert_eq!(
        srv.breaker(Rung::SpadenChecked).state(),
        BreakerState::Open,
        "top rung open at end of burst"
    );
    assert_eq!(srv.stats().ok_total(), 0, "nothing verifiable was served during the burst");

    // Burst ends. Arrival ticks keep the simulated clock moving, so the
    // cooldown elapses, a half-open probe succeeds, and service resumes.
    srv.set_injection(&InjectionConfig::none());
    let mut recovered_ok = 0u32;
    let mut last_rung = None;
    for _ in 0..30 {
        if let Ok(ok) = srv.serve(Request { matrix: h, x: make_x(96), deadline_s: None }) {
            recovered_ok += 1;
            last_rung = Some(ok.rung);
        }
    }
    let (_, recoveries) = srv.breaker_totals();
    assert!(recovered_ok >= 10, "service must resume after the burst (got {recovered_ok})");
    assert_eq!(last_rung, Some(Rung::SpadenChecked), "recovery restores the top rung");
    assert!(recoveries >= 1, "at least one breaker must record a recovery");
    assert_eq!(srv.breaker(Rung::SpadenChecked).state(), BreakerState::Closed);
    assert!(srv.breaker(Rung::SpadenChecked).health() > 0.5, "health rebuilt by successes");
}

/// Sum of one fleet counter over every device.
fn fleet_sum(o: &ScenarioOutcome, f: fn(&DeviceCounters) -> u64) -> u64 {
    o.devices.iter().map(f).sum()
}

/// A family's signature in a schedule's outcome.
type Signature = fn(&ScenarioOutcome) -> bool;

/// Runs each schedule, asserts it holds the chaos oracle and shows its
/// family's signature, and returns the outcomes in order.
fn run_cases(cases: &[(&str, ChaosSchedule, Signature)]) -> Vec<ScenarioOutcome> {
    let gpu = GpuConfig::l40();
    cases
        .iter()
        .map(|(name, sched, signature)| {
            let o = run_schedule(&gpu, sched, Weaken::None);
            assert!(o.violations.is_empty(), "{name}: {:#?}", o.violations);
            assert!(
                signature(&o),
                "{name}: served {}/{} (rungs {:?}, exhausted {}, unavailable {}), breakers {:?}, \
                 devices lost {}, stragglers {}, hangs {}, speculative {}/{}",
                o.served,
                o.offered,
                o.stats.served,
                o.stats.exhausted,
                o.stats.unavailable,
                o.breakers,
                o.devices.iter().filter(|c| c.crashed).count(),
                fleet_sum(&o, |c| c.stragglers),
                fleet_sum(&o, |c| c.hangs),
                fleet_sum(&o, |c| c.speculative_wins),
                fleet_sum(&o, |c| c.speculative_launches),
            );
            o
        })
        .collect()
}

/// Runs `sched` twice and asserts bit-identical digests.
fn assert_deterministic(sched: &ChaosSchedule) {
    let gpu = GpuConfig::l40();
    let a = run_schedule(&gpu, sched, Weaken::None);
    let b = run_schedule(&gpu, sched, Weaken::None);
    assert_eq!(a.digest, b.digest);
}

#[test]
fn chaos_sweep_of_200_plus_requests_has_zero_silent_wrong_results() {
    // Uniform kernel bit bursts across rates: the oracle rejects any
    // served result that disagrees with the f64 reference and any
    // arrival without exactly one outcome.
    let cases: [(&str, ChaosSchedule, Signature); 4] = [
        ("uniform 0", burst_schedule(11, 0.0, false), |o| {
            o.served == o.offered && o.breakers == (0, 0)
        }),
        ("uniform 1e-2", burst_schedule(11, 1e-2, false), |_| true),
        ("uniform 5e-2", burst_schedule(11, 5e-2, false), |_| true),
        ("uniform 2e-1", burst_schedule(11, 2e-1, false), |_| true),
    ];
    let outcomes = run_cases(&cases);
    let offered: usize = outcomes.iter().map(|o| o.offered).sum();
    assert!(offered >= 200, "sweep size: {offered}");
    let trips: u64 = outcomes.iter().map(|o| o.breakers.0).sum();
    let recoveries: u64 = outcomes.iter().map(|o| o.breakers.1).sum();
    assert!(trips > 0 && recoveries > 0, "uniform bursts trip and recover: {trips}/{recoveries}");
    assert_deterministic(&cases[2].1);
}

#[test]
fn tensor_core_only_faults_are_absorbed_by_abft_correction() {
    // Fragment corruption lands only on MMA accumulators; the checked
    // rung detects and repairs it on the scalar path, so service stays on
    // the top rung with zero wrong answers — the paper's ABFT story,
    // observed through the serving layer.
    run_cases(&[("tc-only 1.0", burst_schedule(11, 1.0, true), |o| {
        o.stats.exhausted + o.stats.unavailable == 0
            && o.served == o.offered
            && o.stats.served[Rung::SpadenChecked as usize] > 0
    })]);
}

#[test]
fn single_family_schedules_hold_the_oracle() {
    let [kill_one, all_slow, rolling_hangs] = device_schedules(31);
    let cases: [(&str, ChaosSchedule, Signature); 3] = [
        // The survivors absorb the dead device's shards.
        (kill_one.0, kill_one.1, |o| {
            o.devices.iter().filter(|c| c.crashed).count() == 1
                && o.served as f64 >= 0.9 * o.offered as f64
                && o.stats.served[Rung::Sharded as usize] > 0
        }),
        (all_slow.0, all_slow.1, |o| {
            fleet_sum(o, |c| c.stragglers) > 0 && fleet_sum(o, |c| c.speculative_launches) > 0
        }),
        (rolling_hangs.0, rolling_hangs.1, |o| {
            fleet_sum(o, |c| c.hangs) + fleet_sum(o, |c| c.speculative_wins) > 0
        }),
    ];
    run_cases(&cases);
    assert_deterministic(&cases[2].1);
}

#[test]
fn overload_deadline_and_invalid_requests_are_typed_under_clean_load() {
    let csr = gen::random_uniform(64, 64, 900, 73);
    let cfg = ServeConfig { queue_capacity: 3, ..ServeConfig::default() };
    let mut srv = SpmvServer::new(Gpu::new(GpuConfig::l40()), cfg);
    let h = srv.register(&csr).unwrap();

    // Burst of 6 into a queue of 3: tail rejected, head served.
    let reqs: Vec<Request> =
        (0..6).map(|_| Request { matrix: h, x: make_x(64), deadline_s: None }).collect();
    let results = srv.run_batch(reqs);
    assert_eq!(results.iter().filter(|r| r.is_ok()).count(), 3);
    assert_eq!(
        results.iter().filter(|r| matches!(r, Err(ServeError::Overloaded { capacity: 3 }))).count(),
        3
    );

    // Impossible deadline: typed, with the budget echoed back.
    match srv.serve(Request { matrix: h, x: make_x(64), deadline_s: Some(1e-12) }) {
        Err(ServeError::DeadlineExceeded { budget_s, .. }) => assert_eq!(budget_s, 1e-12),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // Malformed vector: typed, no panic, breaker untouched (permanent
    // errors must not count toward tripping).
    let trips_before = srv.breaker_totals().0;
    match srv.serve(Request { matrix: h, x: make_x(63), deadline_s: None }) {
        Err(ServeError::Invalid(_)) => {}
        other => panic!("expected Invalid, got {other:?}"),
    }
    assert_eq!(srv.breaker_totals().0, trips_before);
}
