//! `serve-light` and `serve-peak-batched`: seeded open-loop traffic from
//! the `traffic` generators, served by a fresh `SpmvServer`.
//!
//! Both run on the simulated clock: arrival times are drawn before
//! anything is served, so time in system counts from the scheduled
//! arrival and the generator can never run late. Offered rates are
//! absolute numbers, never calibrated against the server under test.

use crate::corpus::{Corpus, Mat};
use crate::stats::{check_oracle, geomean, Fnv};
use crate::trace::Tracer;
use crate::workload::{Metric, Ops, Sim, Workload};
use spaden::{SpadenEngine, SpmvEngine};
use spaden_gpusim::{Gpu, GpuConfig};
use spaden_serve::{
    BatchConfig, MatrixHandle, OpenOutcome, OpenRequest, OverloadConfig, Request, ServeConfig,
    ServeError, ServeStats, SpmvServer,
};
use spaden_sparse::{gen, Csr, Pcg64};
use spaden_traffic::{traffic_x, ArrivalProcess, Population, PopulationConfig};

/// Shape of the served matrices (the `traffic` crate's corpus shape).
pub const ROWS: usize = 96;
pub const NNZ: usize = 1_300;

/// The fixed parameters of one serving workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeParams {
    pub name: &'static str,
    /// Distinct registered matrices; Zipf fingerprints map onto them.
    pub matrices: usize,
    /// Offered Poisson rate (simulated requests per second).
    pub rate_rps: f64,
    /// Simulated horizon of the arrival schedule.
    pub horizon_s: f64,
    /// The batching window (`BatchConfig::on()`).
    pub batching: bool,
}

impl ServeParams {
    /// ≈0.48× the simulated L40's 166k rps per-request capacity: the
    /// queue stays near empty, so time in system ≈ ladder service time.
    pub const LIGHT: ServeParams = ServeParams {
        name: "serve-light",
        matrices: 12,
        rate_rps: 80_000.0,
        horizon_s: 0.025,
        batching: false,
    };

    /// ≈3.9× capacity on three matrices with batching: queueing,
    /// shedding, AIMD/brownout and SpMM sweeps are all active. Kernel
    /// faults stay off: an injected flip below the ABFT detection
    /// threshold can still exceed the oracle's tolerance, so whether a
    /// run verifies would depend on the seed.
    pub const PEAK_BATCHED: ServeParams = ServeParams {
        name: "serve-peak-batched",
        matrices: 3,
        rate_rps: 650_000.0,
        horizon_s: 0.01,
        batching: true,
    };
}

/// The `n` served matrices of `seed`: uniformly random, each from
/// [`NNZ`] ± 100 draws (duplicate positions combine).
pub fn serve_matrices(seed: u64, n: usize) -> Vec<Csr> {
    let mut h = Fnv::default();
    h.u64(seed);
    h.str("serve");
    let base = h.finish();
    let mut rng = Pcg64::new(base, 0x22);
    (0..n)
        .map(|i| {
            let nnz = NNZ - 100 + rng.below_usize(201);
            gen::random_uniform(ROWS, ROWS, nnz, base.wrapping_add(i as u64))
        })
        .collect()
}

/// The latency SLO and deadline budget of every served request.
pub fn slo_s() -> f64 {
    PopulationConfig::default().slo_s
}

/// Serving policy of the open-loop workloads: overload control steering
/// p99 to the SLO, as the `traffic` engine configures it.
pub fn serve_config(batching: bool) -> ServeConfig {
    ServeConfig {
        overload: OverloadConfig {
            enabled: true,
            target_p99_s: slo_s(),
            ..OverloadConfig::on()
        },
        batch: if batching {
            BatchConfig::on()
        } else {
            BatchConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// Seed of the request trace: Poisson arrival times, Zipf matrix picks
/// and tenant priority tiers from `traffic::Population`. The trace is the
/// same for every `--seed`, which varies the matrices and vectors the
/// requests carry: how far a queue's tail reaches is a property of the
/// arrival pattern, and a trace
/// long enough to pin p99 across pattern seeds would cost minutes of
/// host time per run.
const TRACE_SEED: u64 = 0x7a11;

/// Open-loop arrivals over `matrices` handles: the pinned request trace,
/// carrying one `x` per arrival salted by `seed`.
pub fn arrivals(
    seed: u64,
    rate_rps: f64,
    horizon_s: f64,
    ncols: usize,
    matrices: usize,
) -> Vec<OpenRequest> {
    let mut rng = Pcg64::new(TRACE_SEED, 0x5ced);
    let times = ArrivalProcess::Poisson { rate_rps }.arrivals(horizon_s, &mut rng);
    let mut population = Population::new(PopulationConfig::default(), TRACE_SEED);
    times
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let meta = population.sample();
            OpenRequest {
                request: Request {
                    matrix: MatrixHandle(meta.fingerprint % matrices),
                    x: traffic_x(ncols, (seed as usize % 256) + i),
                    deadline_s: Some(slo_s()),
                },
                priority: meta.priority,
                arrival_s: t,
            }
        })
        .collect()
}

pub fn digest_arrivals(h: &mut Fnv, arrivals: &[OpenRequest]) {
    for a in arrivals {
        h.f64(a.arrival_s);
        h.u64(a.priority as u64);
        h.u64(a.request.matrix.0 as u64);
        h.f32s(&a.request.x);
        h.f64(a.request.deadline_s.unwrap_or(f64::NAN));
    }
}

/// Outcome classes, latency bits and output bits of an open loop.
pub fn digest_outcomes(h: &mut Fnv, outcomes: &[OpenOutcome], stats: &ServeStats) {
    for o in outcomes {
        h.u64(o.index as u64);
        h.u64(o.epoch);
        h.f64(o.queue_wait_s);
        h.f64(o.done_s);
        match &o.result {
            Ok(ok) => {
                h.u64(ok.rung as u64);
                h.u64(ok.retries as u64);
                h.f64(ok.latency_s);
                h.f32s(&ok.y);
            }
            Err(e) => h.str(&e.to_string()),
        }
    }
    let counts = [
        stats.served,
        stats.attempts,
        stats.failures,
        stats.skipped_breaker,
        stats.skipped_deadline,
    ];
    for v in counts.iter().flatten() {
        h.u64(*v);
    }
    for v in [
        stats.submitted,
        stats.retries,
        stats.shed,
        stats.updates,
        stats.update_rollbacks,
        stats.batches,
        stats.batched_served,
        stats.batch_fallbacks,
        stats.batch_width_sum,
    ] {
        h.u64(v);
    }
}

/// Time in system of every served request, in seconds.
pub fn served_latencies(outcomes: &[OpenOutcome]) -> Vec<f64> {
    outcomes
        .iter()
        .filter(|o| o.result.is_ok())
        .map(OpenOutcome::time_in_system_s)
        .collect()
}

/// Requests served within the SLO per simulated second of the open loop
/// (`span_s`, the server's clock when the loop returns).
pub fn goodput_rps(outcomes: &[OpenOutcome], span_s: f64) -> f64 {
    let met = outcomes
        .iter()
        .filter(|o| o.result.is_ok() && o.time_in_system_s() <= slo_s())
        .count();
    met as f64 / span_s
}

/// Geomean simulated GFLOP/s of one clean Spaden launch per matrix.
pub fn spaden_gflops<'a>(mats: impl IntoIterator<Item = &'a Csr>) -> f64 {
    let gpu = Gpu::new(GpuConfig::l40());
    geomean(mats.into_iter().map(|csr| {
        let eng = SpadenEngine::try_prepare(&gpu, csr).expect("a generated matrix prepares");
        let run = eng
            .try_run(&gpu, &traffic_x(csr.ncols, 0))
            .expect("x has the matrix's width");
        run.gflops(csr.nnz())
    }))
}

/// One served workload's closed view for the per-layer serve metrics.
pub struct ServeView<'a> {
    pub outcomes: &'a [OpenOutcome],
    pub stats: &'a ServeStats,
    pub breaker_trips: u64,
}

/// What one repetition of an open loop leaves behind.
pub struct ServeOutcome {
    pub outcomes: Vec<OpenOutcome>,
    pub stats: ServeStats,
    pub breaker_trips: u64,
    pub clock_s: f64,
}

pub struct Serve {
    p: ServeParams,
    seed: u64,
    gpu: GpuConfig,
    config: ServeConfig,
    mats: Vec<Csr>,
    arrivals: Vec<OpenRequest>,
}

impl Serve {
    pub fn new(seed: u64, p: ServeParams) -> Self {
        Serve {
            p,
            seed,
            gpu: GpuConfig::l40(),
            config: serve_config(p.batching),
            mats: serve_matrices(seed, p.matrices),
            arrivals: arrivals(seed, p.rate_rps, p.horizon_s, ROWS, p.matrices),
        }
    }
}

impl Workload for Serve {
    type Setup = (SpmvServer, Vec<OpenRequest>);
    type Outcome = ServeOutcome;

    fn name(&self) -> &'static str {
        self.p.name
    }

    fn input_digest(&self) -> u64 {
        let mut h = Fnv::default();
        for m in &self.mats {
            h.csr(m);
        }
        digest_arrivals(&mut h, &self.arrivals);
        h.finish()
    }

    fn setup(&self, tr: &mut Tracer) -> Result<Self::Setup, String> {
        let mut server = SpmvServer::new(Gpu::new(self.gpu.clone()), self.config.clone());
        for (i, m) in self.mats.iter().enumerate() {
            let h = tr
                .span("serve.register", "matrix", i as u64, |_| server.register(m))
                .map_err(|e| format!("registering matrix {i}: {e}"))?;
            assert_eq!(
                h,
                MatrixHandle(i),
                "handles are issued in registration order"
            );
        }
        Ok((server, self.arrivals.clone()))
    }

    fn timed(&self, (mut server, arrivals): Self::Setup, tr: &mut Tracer) -> ServeOutcome {
        let outcomes = tr.span("serve.run_open_loop", self.p.name, 0, |_| {
            server.run_open_loop(arrivals)
        });
        ServeOutcome {
            outcomes,
            stats: server.stats().clone(),
            breaker_trips: server.breaker_totals().0,
            clock_s: server.clock_s(),
        }
    }

    fn behaviour_digest(&self, out: &ServeOutcome) -> u64 {
        let mut h = Fnv::default();
        digest_outcomes(&mut h, &out.outcomes, &out.stats);
        h.u64(out.breaker_trips);
        h.f64(out.clock_s);
        h.finish()
    }

    fn verify(&self, out: &ServeOutcome) -> Vec<String> {
        let mut errors = Vec::new();
        for o in &out.outcomes {
            let Ok(ok) = &o.result else { continue };
            let req = &self.arrivals[o.index].request;
            if let Err(e) = check_oracle(&self.mats[req.matrix.0], &req.x, &ok.y) {
                errors.push(format!("request {}: {e}", o.index));
            }
        }
        errors
    }

    fn ops(&self, out: &ServeOutcome) -> Ops {
        let count =
            |f: fn(&OpenOutcome) -> bool| out.outcomes.iter().filter(|o| f(o)).count() as u64;
        Ops {
            attempted: out.outcomes.len() as u64,
            verified: count(|o| o.result.is_ok()),
            refused: count(|o| matches!(o.result, Err(ServeError::Shed(_)))),
        }
    }

    fn sim(&self, out: &ServeOutcome) -> Sim {
        Sim {
            latencies_s: served_latencies(&out.outcomes),
            goodput_rps: goodput_rps(&out.outcomes, out.clock_s),
            gflops: spaden_gflops(&self.mats),
            span_s: out.clock_s,
        }
    }

    fn layers(&self, out: &ServeOutcome, tr: &mut Tracer) -> Result<Vec<Metric>, String> {
        let mats = self.mats.iter().enumerate();
        let probe = Corpus::of(
            mats.map(|(i, m)| Mat {
                name: "serve",
                csr: m.clone(),
                x: traffic_x(ROWS, i),
            })
            .collect(),
        );
        let mut m = crate::corpus::probe(&probe, tr)?;
        let view = ServeView {
            outcomes: &out.outcomes,
            stats: &out.stats,
            breaker_trips: out.breaker_trips,
        };
        m.extend(crate::layers::common(
            self.seed,
            probe.matrices(),
            Some(view),
            tr,
        )?);
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(p: ServeParams) -> ServeParams {
        ServeParams {
            horizon_s: 0.002,
            ..p
        }
    }

    #[test]
    fn inputs_follow_the_seed_and_the_trace_is_pinned() {
        let light = small(ServeParams::LIGHT);
        let (a, b) = (Serve::new(5, light), Serve::new(6, light));
        assert_eq!(a.input_digest(), Serve::new(5, light).input_digest());
        assert_ne!(a.input_digest(), b.input_digest());
        assert_ne!(a.mats, b.mats);
        let times = |s: &Serve| s.arrivals.iter().map(|r| r.arrival_s).collect::<Vec<_>>();
        assert_eq!(times(&a), times(&b));
        // NNZ ± 100 draws, duplicates combined.
        assert!(a
            .mats
            .iter()
            .all(|m| m.nnz() <= NNZ + 100 && m.nnz() >= NNZ - 300));
    }

    #[test]
    fn a_corrupted_output_fails_the_oracle() {
        let w = Serve::new(5, small(ServeParams::PEAK_BATCHED));
        let mut off = Tracer::off();
        let s = w.setup(&mut off).unwrap();
        let mut out = w.timed(s, &mut off);
        assert_eq!(w.verify(&out), Vec::<String>::new());
        let ops = w.ops(&out);
        assert_eq!(ops.attempted, w.arrivals.len() as u64);
        assert!(ops.verified > 0);
        let ok = out
            .outcomes
            .iter_mut()
            .find_map(|o| o.result.as_mut().ok())
            .unwrap();
        ok.y[3] = -ok.y[3] - 1.0;
        assert_eq!(w.verify(&out).len(), 1);
    }
}
