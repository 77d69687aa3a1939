//! The measurement driver shared by the four workloads.
//!
//! One run of a workload: generate its inputs from the seed, run
//! set-up plus the timed phase once as a warm-up, then repeat set-up and
//! timed phase from fresh state until the run's time budget is spent
//! (at least [`MIN_REPS`] times). Set-up time is the median over the
//! repetitions; timed-phase metrics come from the fastest repetition,
//! because on a shared host interference only ever slows a repetition
//! down, in episodes that can cover most of a run. The simulated
//! behaviour of every repetition must be bit-identical to the warm-up's,
//! whose outputs are the ones checked against the oracle once the clock
//! has stopped.

use crate::stats::{percentile, quartiles, sorted, tail};
use crate::trace::Tracer;
use std::time::Instant;

/// Fewest measured repetitions per run, whatever the time budget.
pub const MIN_REPS: usize = 3;
/// Most measured repetitions per run.
const MAX_REPS: usize = 64;

/// The end-to-end metrics, in report order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("host_ops_per_s", "ops/s"),
    ("wall_per_sim", "x"),
    ("sim_p50_us", "us"),
    ("sim_tail_us", "us"),
    ("sim_goodput_rps", "req/s"),
    ("sim_gflops", "GFLOP/s"),
];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Printed after the value (quartiles, sample counts); not reported.
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            note: String::new(),
        }
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// Operation counts of one repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ops {
    /// Operations the workload asked for.
    pub attempted: u64,
    /// Operations that returned a result the oracle accepted (or, for a
    /// commit, that committed).
    pub verified: u64,
    /// Deliberate overload sheds: refused, not failed. They count
    /// against goodput, not as failures.
    pub refused: u64,
}

impl Ops {
    /// Operations that neither verified nor were refused.
    pub fn failed(&self) -> u64 {
        self.attempted - self.verified - self.refused
    }
}

/// Simulated-clock results of one repetition (identical in every one).
#[derive(Debug, Clone, PartialEq)]
pub struct Sim {
    /// Latency samples in seconds: time in system of served requests, or
    /// kernel time of closed-loop launches.
    pub latencies_s: Vec<f64>,
    /// Verified operations per simulated second (served within the SLO,
    /// for request workloads).
    pub goodput_rps: f64,
    /// Geomean Spaden GFLOP/s over the workload's matrices.
    pub gflops: f64,
    /// Simulated seconds the timed phase covers.
    pub span_s: f64,
}

/// A workload: its inputs, set-up, timed phase and oracle.
pub trait Workload {
    type Setup;
    type Outcome;

    fn name(&self) -> &'static str;
    /// FNV-1a digest of every generated input.
    fn input_digest(&self) -> u64;
    /// Fresh state for one repetition (a new `Gpu`, a new server).
    fn setup(&self, tr: &mut Tracer) -> Result<Self::Setup, String>;
    fn timed(&self, setup: Self::Setup, tr: &mut Tracer) -> Self::Outcome;
    /// Digest of the simulated behaviour: outcome classes, latency bits,
    /// output bits and kernel counters.
    fn behaviour_digest(&self, out: &Self::Outcome) -> u64;
    /// Oracle checks; one message per failure.
    fn verify(&self, out: &Self::Outcome) -> Vec<String>;
    fn ops(&self, out: &Self::Outcome) -> Ops;
    fn sim(&self, out: &Self::Outcome) -> Sim;
    /// Per-layer metrics of a traced repetition, including the probe
    /// calls that exist only to measure a layer (recorded into `tr`).
    fn layers(&self, out: &Self::Outcome, tr: &mut Tracer) -> Result<Vec<Metric>, String>;
}

/// Everything one run of one workload reports.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub input_digest: u64,
    pub behaviour_digest: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Oracle failures and determinism violations.
    pub errors: Vec<String>,
    /// The reported metrics: end-to-end, or per-layer for a traced run.
    pub metrics: Vec<Metric>,
    /// Printed alongside, not reported.
    pub notes: Vec<Metric>,
    /// The spans of the traced repetition.
    pub trace: Option<Tracer>,
}

/// Runs `w` for `seconds` of repetitions; with `traced`, one more traced
/// repetition plus the layer probes produce the per-layer metrics.
pub fn measure<W: Workload>(w: &W, seconds: f64, traced: bool) -> Result<Report, String> {
    let mut off = Tracer::off();
    let warm = {
        let s = w.setup(&mut off)?;
        w.timed(s, &mut off)
    };
    let behaviour_digest = w.behaviour_digest(&warm);
    let mut errors = Vec::new();
    let (mut setups, mut timeds) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while setups.len() < MAX_REPS
        && (setups.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds)
    {
        let t0 = Instant::now();
        let s = w.setup(&mut off)?;
        let t1 = Instant::now();
        let out = std::hint::black_box(w.timed(s, &mut off));
        let t2 = Instant::now();
        setups.push((t1 - t0).as_secs_f64());
        timeds.push((t2 - t1).as_secs_f64());
        if w.behaviour_digest(&out) != behaviour_digest {
            errors.push(format!(
                "repetition {}: simulated behaviour differs from the warm-up",
                setups.len()
            ));
        }
    }

    let t = Instant::now();
    errors.extend(w.verify(&warm));
    let verify_s = t.elapsed().as_secs_f64();

    let ops = w.ops(&warm);
    let sim = w.sim(&warm);
    let reps = setups.len() as u64;
    let (setup_med, setup_q1, setup_q3) = quartiles(&setups);
    let (timed_med, timed_q1, timed_q3) = quartiles(&timeds);
    let timed_min = timeds.iter().copied().fold(f64::INFINITY, f64::min);
    let lat = sorted(sim.latencies_s.clone());
    let n = lat.len();
    let p50 = percentile(&lat, 50.0);
    let tail = tail(&lat);
    let (Some(p50), Some((tail_p, tail_v))) = (p50, tail) else {
        return Err(format!(
            "{n} latency samples are too few for a median and a tail"
        ));
    };
    let q = |lo: f64, hi: f64| format!("q1={lo:.6} q3={hi:.6} reps={reps}");
    let fastest = |med: f64, lo: f64, hi: f64| format!("median={med:.6} {}", q(lo, hi));
    let ops_per_s = |t: f64| ops.verified as f64 / t;
    let per_sim = |t: f64| t / sim.span_s;
    let values = [
        (setup_med, q(setup_q1, setup_q3)),
        (
            ops_per_s(timed_min),
            fastest(
                ops_per_s(timed_med),
                ops_per_s(timed_q3),
                ops_per_s(timed_q1),
            ),
        ),
        (
            per_sim(timed_min),
            fastest(per_sim(timed_med), per_sim(timed_q1), per_sim(timed_q3)),
        ),
        (p50 * 1e6, format!("n={n}")),
        (tail_v * 1e6, format!("p{tail_p:.2} n={n}")),
        (sim.goodput_rps, String::new()),
        (sim.gflops, String::new()),
    ];
    let e2e: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (v, note))| Metric::new(name, v, unit).with_note(note))
        .collect();
    let mut notes = vec![
        Metric::new("timed_phase_s", timed_min, "s")
            .with_note(fastest(timed_med, timed_q1, timed_q3)),
        Metric::new("attempted", ops.attempted as f64, "ops"),
        Metric::new("verified", ops.verified as f64, "ops"),
        Metric::new("refused", ops.refused as f64, "ops"),
        Metric::new("sim_span_s", sim.span_s, "s"),
    ];

    let (metrics, trace) = if traced {
        let mut tr = Tracer::on();
        let s = tr.span("bench.setup", w.name(), 0, |tr| w.setup(tr))?;
        let out = tr.span("bench.timed", w.name(), 0, |tr| w.timed(s, tr));
        let root = (tr.spans().iter())
            .position(|s| s.name == "bench.timed")
            .expect("the timed phase was recorded");
        let traced_s = tr.spans()[root].dur_ns() as f64 * 1e-9;
        let coverage = 1.0 - tr.self_ns()[root] as f64 * 1e-9 / traced_s;
        if w.behaviour_digest(&out) != behaviour_digest {
            errors.push("traced repetition: simulated behaviour differs".into());
        }
        let mut layers = w.layers(&out, &mut tr)?;
        layers.push(Metric::new("bench.verify_s", verify_s, "s"));
        layers.push(Metric::new(
            "bench.trace_overhead",
            traced_s / timed_med,
            "ratio",
        ));
        layers.push(Metric::new("bench.span_coverage", coverage, "ratio"));
        notes.push(Metric::new("traced_timed_phase_s", traced_s, "s"));
        notes.extend(e2e);
        (layers, Some(tr))
    } else {
        notes.push(Metric::new("bench.verify_s", verify_s, "s"));
        (e2e, None)
    };

    Ok(Report {
        workload: w.name(),
        input_digest: w.input_digest(),
        behaviour_digest,
        attempted: ops.attempted * reps,
        failed: ops.failed() * reps,
        errors,
        metrics,
        notes,
        trace,
    })
}
