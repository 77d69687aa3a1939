//! The traffic engine: turns a (process, population, corpus, seed) tuple
//! into an open-loop arrival schedule, pushes it through
//! [`SpmvServer::run_open_loop`], and folds the outcomes into a
//! [`TrafficSummary`] — per-priority latency/availability, shed
//! breakdowns, per-tenant SLO ledgers, and an independent f64-oracle
//! verification of every `Ok` result (a brownout that quietly skipped
//! verification would show up here as `unverified_ok > 0`).
//!
//! Everything runs on the simulated clock from seeded [`Pcg64`] streams;
//! a run is a pure function of its config, certified by
//! [`TrafficSummary::digest`].

use crate::arrival::ArrivalProcess;
use crate::tenant::{Population, PopulationConfig, TenantAccount};
use spaden_gpusim::{Gpu, GpuConfig};
use spaden_serve::{
    BrownoutMode, OpenOutcome, OpenRequest, OverloadConfig, OverloadStats, Priority, Request,
    ServeConfig, ServeError, ShedCounters, SpmvServer, PRIORITIES,
};
use spaden_sparse::rng::Pcg64;
use spaden_sparse::{gen, Csr, Fnv};

/// The registered matrix working set. Fingerprints from the population's
/// Zipf universe map onto this corpus round-robin, so popularity skew
/// survives while registration stays cheap.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusConfig {
    /// Distinct matrices to generate and register.
    pub matrices: usize,
    /// Rows per matrix.
    pub rows: usize,
    /// Columns per matrix (shared, so every request's `x` has one length).
    pub cols: usize,
    /// Nonzeros per matrix.
    pub nnz: usize,
    /// Generation seed base; matrix `i` uses `seed + i`.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig { matrices: 12, rows: 96, cols: 96, nnz: 1_300, seed: 7_000 }
    }
}

/// Full description of one traffic run.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Seed for the arrival schedule and the population sampler.
    pub seed: u64,
    /// Simulated horizon of the run.
    pub duration_s: f64,
    /// Arrival-rate shape.
    pub process: ArrivalProcess,
    /// Tenant/fingerprint population.
    pub population: PopulationConfig,
    /// Registered matrix working set.
    pub corpus: CorpusConfig,
    /// Serving policy. [`TrafficConfig::new`] enables overload control
    /// with the SLO as the p99 target; hand-built configs may differ.
    pub serve: ServeConfig,
    /// Number of equal time slices for the time-resolved availability
    /// and p99 curves in [`TrafficSummary::windows`].
    pub windows: usize,
}

impl TrafficConfig {
    /// A traffic config with overload control wired to the population's
    /// SLO: the adaptive limit steers observed p99 time-in-system toward
    /// the SLO, and the queue sheds anything already past it.
    pub fn new(seed: u64, duration_s: f64, process: ArrivalProcess) -> Self {
        let population = PopulationConfig::default();
        let serve = ServeConfig {
            overload: OverloadConfig {
                enabled: true,
                target_p99_s: population.slo_s,
                ..OverloadConfig::on()
            },
            ..ServeConfig::default()
        };
        TrafficConfig {
            seed,
            duration_s,
            process,
            population,
            corpus: CorpusConfig::default(),
            serve,
            windows: 8,
        }
    }
}

/// One equal time slice of a run, bucketed by *arrival* time: how the
/// service level looked during that window, not just on average. A
/// transient — a brownout episode, an update storm — that the whole-run
/// availability would smear away shows up here as one bad window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStat {
    /// Window start (absolute simulated time).
    pub start_s: f64,
    /// Window end (exclusive; the last window includes the endpoint).
    pub end_s: f64,
    /// Arrivals whose arrival time fell in this window.
    pub offered: u64,
    /// Of those, verified `Ok` results.
    pub served: u64,
    /// Of those, overload sheds.
    pub shed: u64,
    /// Of those, non-shed failures.
    pub failed: u64,
    /// `served / offered` (1.0 for an empty window).
    pub availability: f64,
    /// p99 time-in-system of the window's served arrivals (0 if none).
    pub p99_s: f64,
}

/// Buckets outcomes into `n` equal windows over `[0, duration_s)` by
/// arrival time and computes per-window counts, availability, and p99
/// time-in-system. Outcomes landing exactly at `duration_s` (or beyond,
/// from thinning edge cases) fold into the last window.
pub fn window_stats(outcomes: &[OpenOutcome], duration_s: f64, n: usize) -> Vec<WindowStat> {
    let n = n.max(1);
    let width = duration_s / n as f64;
    let mut windows: Vec<WindowStat> = (0..n)
        .map(|i| WindowStat {
            start_s: i as f64 * width,
            end_s: (i + 1) as f64 * width,
            offered: 0,
            served: 0,
            shed: 0,
            failed: 0,
            availability: 1.0,
            p99_s: 0.0,
        })
        .collect();
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); n];
    for o in outcomes {
        let i = if width > 0.0 { ((o.arrival_s / width) as usize).min(n - 1) } else { n - 1 };
        windows[i].offered += 1;
        match &o.result {
            Ok(_) => {
                windows[i].served += 1;
                latencies[i].push(o.time_in_system_s());
            }
            Err(ServeError::Shed(_)) => windows[i].shed += 1,
            Err(_) => windows[i].failed += 1,
        }
    }
    for (w, lane) in windows.iter_mut().zip(&mut latencies) {
        if w.offered > 0 {
            w.availability = w.served as f64 / w.offered as f64;
        }
        if !lane.is_empty() {
            lane.sort_by(f64::total_cmp);
            w.p99_s = lane[(((lane.len() as f64) * 0.99).ceil() as usize).max(1) - 1];
        }
    }
    windows
}

/// Aggregate outcome of one traffic run.
#[derive(Debug, Clone)]
pub struct TrafficSummary {
    /// Arrivals offered (open-loop: independent of service speed).
    pub offered: u64,
    /// Arrivals per priority class.
    pub offered_by: [u64; PRIORITIES],
    /// Verified `Ok` results per priority class.
    pub served_by: [u64; PRIORITIES],
    /// Overload sheds (expiry, eviction, brownout, limit) per class.
    pub shed_by: [u64; PRIORITIES],
    /// Non-shed failures (deadline, exhausted, unavailable) per class.
    pub failed_by: [u64; PRIORITIES],
    /// Served requests whose time-in-system met the SLO, per class.
    pub slo_met_by: [u64; PRIORITIES],
    /// p50 time-in-system of served requests, per class (0 if none).
    pub p50_s: [f64; PRIORITIES],
    /// p99 time-in-system of served requests, per class.
    pub p99_s: [f64; PRIORITIES],
    /// p99.9 time-in-system of served requests, per class.
    pub p999_s: [f64; PRIORITIES],
    /// `Ok` results that failed the independent f64-oracle check. The
    /// traffic verdict requires this to be zero in every mode — brownout
    /// degrades by shedding, never by skipping verification.
    pub unverified_ok: u64,
    /// Coalesced SpMM sweeps executed (0 unless batching is enabled).
    pub batches: u64,
    /// Requests served from a sweep column rather than a per-request rung.
    pub batched_served: u64,
    /// Sweeps that failed verification and fell back to the ladder.
    pub batch_fallbacks: u64,
    /// Sum of sweep widths (for the mean) and the widest sweep seen.
    pub batch_width_sum: u64,
    /// Widest sweep executed.
    pub batch_width_max: u64,
    /// Queue-level shed counters (expired / evicted / rejected-full).
    pub queue_shed: ShedCounters,
    /// Overload-controller counters (brownout sheds, limit moves).
    pub overload: OverloadStats,
    /// Adaptive limit at end of run.
    pub final_limit: usize,
    /// Brownout mode at end of run.
    pub final_mode: BrownoutMode,
    /// Per-tenant SLO ledgers.
    pub tenants: Vec<TenantAccount>,
    /// The run's simulated horizon (for rate math).
    pub duration_s: f64,
    /// Time-resolved service level: [`TrafficConfig::windows`] equal
    /// slices of the horizon, bucketed by arrival time.
    pub windows: Vec<WindowStat>,
}

impl TrafficSummary {
    /// Verified results over offered arrivals, all classes.
    pub fn availability(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        self.served_by.iter().sum::<u64>() as f64 / self.offered as f64
    }

    /// Verified results over offered arrivals for one class.
    pub fn availability_of(&self, p: Priority) -> f64 {
        let i = p as usize;
        if self.offered_by[i] == 0 {
            return 1.0;
        }
        self.served_by[i] as f64 / self.offered_by[i] as f64
    }

    /// Verified results per simulated second.
    pub fn goodput_rps(&self) -> f64 {
        self.served_by.iter().sum::<u64>() as f64 / self.duration_s
    }

    /// Offered arrivals per simulated second.
    pub fn offered_rps(&self) -> f64 {
        self.offered as f64 / self.duration_s
    }

    /// Mean width of executed sweeps (0 when none formed).
    pub fn mean_batch_width(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.batch_width_sum as f64 / self.batches as f64
    }

    /// Fraction of verified results served from a coalesced sweep.
    pub fn coalescing_rate(&self) -> f64 {
        let served: u64 = self.served_by.iter().sum();
        if served == 0 {
            return 0.0;
        }
        self.batched_served as f64 / served as f64
    }

    /// Worst per-tenant SLO attainment (1.0 when no tenant sent traffic).
    pub fn worst_tenant_attainment(&self) -> f64 {
        self.tenants
            .iter()
            .filter(|t| t.arrivals > 0)
            .map(|t| t.slo_attainment())
            .fold(1.0, f64::min)
    }

    /// FNV-1a digest over every count and latency bit pattern — two runs
    /// of the same config must produce equal digests.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        let mut mix = |v: u64| h.u64(v);
        mix(self.offered);
        for i in 0..PRIORITIES {
            mix(self.offered_by[i]);
            mix(self.served_by[i]);
            mix(self.shed_by[i]);
            mix(self.failed_by[i]);
            mix(self.slo_met_by[i]);
            mix(self.p50_s[i].to_bits());
            mix(self.p99_s[i].to_bits());
            mix(self.p999_s[i].to_bits());
            mix(self.queue_shed.expired[i]);
            mix(self.queue_shed.evicted[i]);
            mix(self.queue_shed.rejected_full[i]);
            mix(self.overload.shed_brownout[i]);
        }
        mix(self.unverified_ok);
        mix(self.batches);
        mix(self.batched_served);
        mix(self.batch_fallbacks);
        mix(self.batch_width_sum);
        mix(self.batch_width_max);
        mix(self.final_limit as u64);
        mix(self.final_mode as u64);
        for t in &self.tenants {
            mix(t.arrivals);
            mix(t.served);
            mix(t.slo_met);
            mix(t.shed);
            mix(t.failed);
        }
        for w in &self.windows {
            mix(w.offered);
            mix(w.served);
            mix(w.shed);
            mix(w.failed);
            mix(w.p99_s.to_bits());
        }
        h.finish()
    }
}

/// Deterministic per-arrival input vector (salted by arrival index so no
/// two requests share bits, yet any run regenerates the same stream).
pub fn traffic_x(ncols: usize, salt: usize) -> Vec<f32> {
    (0..ncols)
        .map(|i| ((i * 131 + salt * 977 + 29) % 256) as f32 / 128.0 - 1.0)
        .collect()
}

/// Generates the corpus matrices.
fn corpus_matrices(c: &CorpusConfig) -> Vec<Csr> {
    (0..c.matrices)
        .map(|i| gen::random_uniform(c.rows, c.cols, c.nnz, c.seed + i as u64))
        .collect()
}

/// Per-row oracle tolerance for the f16 tensor-core rungs: unit roundoff
/// scaled by the row's accumulation length (mirrors the chaos harness).
fn oracle_tol(csr: &Csr, row: usize, oracle: f64) -> f64 {
    let row_nnz = (csr.row_ptr[row + 1] - csr.row_ptr[row]) as f64;
    (2.0f64.powi(-10) * 3.0 * row_nnz.max(1.0) + 1e-4) * oracle.abs().max(1.0)
}

/// Measures the server's closed-loop service capacity on the corpus:
/// requests served per simulated second with zero queueing. Saturation
/// sweeps express load multipliers against this number.
pub fn calibrate_capacity_rps(gpu: &GpuConfig, cfg: &TrafficConfig) -> f64 {
    let mut server = SpmvServer::new(Gpu::new(gpu.clone()), cfg.serve.clone());
    let handles: Vec<_> = corpus_matrices(&cfg.corpus)
        .iter()
        .map(|m| server.register(m).expect("corpus registers"))
        .collect();
    let t0 = server.clock_s();
    let n = 24;
    for i in 0..n {
        let h = handles[i % handles.len()];
        server
            .serve(Request { matrix: h, x: traffic_x(cfg.corpus.cols, i), deadline_s: None })
            .expect("calibration request serves");
    }
    n as f64 / (server.clock_s() - t0)
}

/// Runs one traffic experiment end to end.
pub fn run_traffic(gpu: &GpuConfig, cfg: &TrafficConfig) -> TrafficSummary {
    let matrices = corpus_matrices(&cfg.corpus);
    let mut server = SpmvServer::new(Gpu::new(gpu.clone()), cfg.serve.clone());
    let handles: Vec<_> =
        matrices.iter().map(|m| server.register(m).expect("corpus registers")).collect();

    // Independent seeded streams: schedule times vs population draws.
    let mut schedule_rng = Pcg64::new(cfg.seed, 0x5ced);
    let times = cfg.process.arrivals(cfg.duration_s, &mut schedule_rng);
    let mut population = Population::new(cfg.population.clone(), cfg.seed);

    let mut metas = Vec::with_capacity(times.len());
    let mut arrivals = Vec::with_capacity(times.len());
    for (i, &t) in times.iter().enumerate() {
        let meta = population.sample();
        let matrix = handles[meta.fingerprint % handles.len()];
        arrivals.push(OpenRequest {
            request: Request {
                matrix,
                x: traffic_x(cfg.corpus.cols, i),
                deadline_s: Some(cfg.population.slo_s),
            },
            priority: meta.priority,
            arrival_s: t,
        });
        metas.push(meta);
    }

    let outcomes = server.run_open_loop(arrivals);

    let mut summary = TrafficSummary {
        offered: outcomes.len() as u64,
        offered_by: [0; PRIORITIES],
        served_by: [0; PRIORITIES],
        shed_by: [0; PRIORITIES],
        failed_by: [0; PRIORITIES],
        slo_met_by: [0; PRIORITIES],
        p50_s: [0.0; PRIORITIES],
        p99_s: [0.0; PRIORITIES],
        p999_s: [0.0; PRIORITIES],
        unverified_ok: 0,
        batches: server.stats().batches,
        batched_served: server.stats().batched_served,
        batch_fallbacks: server.stats().batch_fallbacks,
        batch_width_sum: server.stats().batch_width_sum,
        batch_width_max: server.stats().batch_width_max,
        queue_shed: server.shed_counters(),
        overload: server.overload_stats(),
        final_limit: server.overload_state().0,
        final_mode: server.overload_state().1,
        tenants: vec![TenantAccount::default(); cfg.population.tenants],
        duration_s: cfg.duration_s,
        windows: window_stats(&outcomes, cfg.duration_s, cfg.windows),
    };

    let mut latencies: [Vec<f64>; PRIORITIES] = [Vec::new(), Vec::new(), Vec::new()];
    for o in &outcomes {
        let meta = metas[o.index];
        let class = o.priority as usize;
        let account = &mut summary.tenants[meta.tenant];
        summary.offered_by[class] += 1;
        account.arrivals += 1;
        match &o.result {
            Ok(ok) => {
                summary.served_by[class] += 1;
                account.served += 1;
                latencies[class].push(o.time_in_system_s());
                if o.time_in_system_s() <= cfg.population.slo_s {
                    summary.slo_met_by[class] += 1;
                    account.slo_met += 1;
                }
                // Independent verification: recompute in f64 on the CPU.
                let csr = &matrices[meta.fingerprint % matrices.len()];
                let x = traffic_x(cfg.corpus.cols, o.index);
                let oracle = csr.spmv_f64(&x).expect("oracle dims match");
                let wrong = ok
                    .y
                    .iter()
                    .zip(&oracle)
                    .enumerate()
                    .any(|(r, (a, e))| ((*a as f64) - e).abs() > oracle_tol(csr, r, *e));
                if wrong {
                    summary.unverified_ok += 1;
                }
            }
            Err(ServeError::Shed(_)) => {
                summary.shed_by[class] += 1;
                account.shed += 1;
            }
            Err(_) => {
                summary.failed_by[class] += 1;
                account.failed += 1;
            }
        }
    }
    for (i, lane) in latencies.iter_mut().enumerate() {
        if lane.is_empty() {
            continue;
        }
        lane.sort_by(f64::total_cmp);
        let q = |p: f64| lane[(((lane.len() as f64) * p).ceil() as usize).max(1) - 1];
        summary.p50_s[i] = q(0.50);
        summary.p99_s[i] = q(0.99);
        summary.p999_s[i] = q(0.999);
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(rate_rps: f64) -> TrafficConfig {
        let mut cfg =
            TrafficConfig::new(31, 4e-3, ArrivalProcess::Poisson { rate_rps });
        cfg.corpus = CorpusConfig { matrices: 4, rows: 64, cols: 64, nnz: 700, seed: 7_100 };
        cfg
    }

    #[test]
    fn light_load_serves_everything_within_slo() {
        let gpu = GpuConfig::l40();
        let cap = calibrate_capacity_rps(&gpu, &quick_cfg(1.0));
        assert!(cap > 1_000.0, "capacity {cap} rps implausibly low");
        let s = run_traffic(&gpu, &quick_cfg(0.2 * cap));
        assert!(s.offered > 20, "horizon too short: {} arrivals", s.offered);
        assert_eq!(s.availability(), 1.0, "light load must serve all: {s:?}");
        assert_eq!(s.unverified_ok, 0);
        assert!(s.worst_tenant_attainment() > 0.99);
    }

    #[test]
    fn overload_sheds_but_never_skips_verification() {
        let gpu = GpuConfig::l40();
        let cap = calibrate_capacity_rps(&gpu, &quick_cfg(1.0));
        let s = run_traffic(&gpu, &quick_cfg(3.0 * cap));
        assert!(s.availability() < 1.0, "3x offered load must shed: {s:?}");
        assert!(s.shed_by.iter().sum::<u64>() > 0);
        assert_eq!(s.unverified_ok, 0, "every Ok must verify even under overload");
        // Goodput holds near capacity instead of collapsing.
        assert!(s.goodput_rps() > 0.3 * cap, "goodput {} vs cap {cap}", s.goodput_rps());
    }

    #[test]
    fn runs_are_bit_deterministic() {
        let gpu = GpuConfig::l40();
        let cfg = quick_cfg(60_000.0);
        let a = run_traffic(&gpu, &cfg);
        let b = run_traffic(&gpu, &cfg);
        assert_eq!(a.digest(), b.digest());
        let mut other = cfg.clone();
        other.seed += 1;
        assert_ne!(a.digest(), run_traffic(&gpu, &other).digest(), "seed must matter");
    }

    #[test]
    fn windows_tile_the_horizon_and_cover_all_arrivals() {
        let gpu = GpuConfig::l40();
        let s = run_traffic(&gpu, &quick_cfg(80_000.0));
        assert_eq!(s.windows.len(), 8);
        for (i, w) in s.windows.iter().enumerate() {
            assert!((w.end_s - w.start_s - s.duration_s / 8.0).abs() < 1e-12, "window {i}");
            assert_eq!(w.offered, w.served + w.shed + w.failed, "{w:?}");
            if w.served > 0 {
                assert!(w.p99_s > 0.0, "served window must have a p99: {w:?}");
            }
            assert!((0.0..=1.0).contains(&w.availability));
        }
        assert_eq!(s.windows.iter().map(|w| w.offered).sum::<u64>(), s.offered);
        assert_eq!(
            s.windows.iter().map(|w| w.served).sum::<u64>(),
            s.served_by.iter().sum::<u64>()
        );
        // The per-window curve is finer than the whole-run number: a run
        // with sheds must show at least one window below 1.0.
        if s.availability() < 1.0 {
            assert!(s.windows.iter().any(|w| w.availability < 1.0));
        }
    }

    #[test]
    fn window_stats_bucket_by_arrival_time() {
        let outcome = |arrival_s: f64, ok: bool| OpenOutcome {
            index: 0,
            priority: Priority::Normal,
            matrix: spaden_serve::MatrixHandle(0),
            arrival_s,
            queue_wait_s: 0.0,
            done_s: arrival_s + 1e-6,
            epoch: 0,
            result: if ok {
                Ok(spaden_serve::ServedOk {
                    y: Vec::new(),
                    rung: spaden_serve::Rung::SpadenChecked,
                    latency_s: 1e-6,
                    retries: 0,
                    epoch: 0,
                })
            } else {
                Err(ServeError::UnknownMatrix(9))
            },
        };
        let outcomes =
            vec![outcome(0.1, true), outcome(0.4, false), outcome(0.6, true), outcome(1.0, true)];
        let w = window_stats(&outcomes, 1.0, 2);
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].offered, w[0].served, w[0].failed), (2, 1, 1));
        assert_eq!(w[0].availability, 0.5);
        // done_s == duration lands in the last window, not out of range.
        assert_eq!((w[1].offered, w[1].served), (2, 2));
        assert_eq!(w[1].availability, 1.0);
        assert!((w[1].p99_s - 1e-6).abs() < 1e-12);
        // Empty windows read as fully available.
        let empty = window_stats(&[], 1.0, 3);
        assert!(empty.iter().all(|w| w.offered == 0 && w.availability == 1.0));
    }

    #[test]
    fn tenant_ledgers_cover_all_arrivals() {
        let gpu = GpuConfig::l40();
        let s = run_traffic(&gpu, &quick_cfg(80_000.0));
        let total: u64 = s.tenants.iter().map(|t| t.arrivals).sum();
        assert_eq!(total, s.offered);
        for t in &s.tenants {
            assert_eq!(t.arrivals, t.served + t.shed + t.failed, "{t:?}");
        }
    }
}
