//! `corpus-spmv`: the paper's workload. The twelve in-scope Table-1
//! matrices, closed loop, on the six Figure-6 engines: every (engine,
//! matrix) pair once with `try_run`, plus one ABFT-checked Spaden
//! `run_checked` per matrix. No serving code runs, so a kernel or
//! simulator change shows here and a serving change does not.
//!
//! The same set-up and timed phase, run over another workload's matrices,
//! is the engine probe of every traced run.

use crate::stats::{check_oracle, geomean, Fnv};
use crate::trace::Tracer;
use crate::workload::{Metric, Ops, Sim, Workload};
use spaden::{EngineError, SpmvEngine, SpmvRun};
use spaden_gpusim::{Gpu, GpuConfig, KernelCounters};
use spaden_plan::{try_build_engine, EngineKind, FIG6_ENGINES};
use spaden_sparse::datasets::IN_SCOPE_DATASETS;
use spaden_sparse::gen::{generate_blocked, BLOCK_DIM};
use spaden_sparse::Csr;
use spaden_traffic::traffic_x;

/// Table-1 scale of the corpus: 2.3M nonzeros in all, 30k to 0.54M per
/// matrix, which keeps one repetition near 1.4 s of host time.
pub const SCALE: f64 = 0.02;

/// Index of Spaden in [`FIG6_ENGINES`].
const SPADEN: usize = 5;

/// Metric-name form of an engine.
pub fn slug(kind: EngineKind) -> &'static str {
    match kind {
        EngineKind::CusparseCsr => "cusparse_csr",
        EngineKind::CusparseBsr => "cusparse_bsr",
        EngineKind::LightSpmv => "lightspmv",
        EngineKind::Gunrock => "gunrock",
        EngineKind::Dasp => "dasp",
        EngineKind::Spaden => "spaden",
        other => unreachable!("{} is not a Figure-6 engine", other.name()),
    }
}

/// One input matrix and its `x`.
#[derive(Debug, Clone)]
pub struct Mat {
    pub name: &'static str,
    pub csr: Csr,
    pub x: Vec<f32>,
}

pub struct Corpus {
    seed: u64,
    gpu: GpuConfig,
    mats: Vec<Mat>,
    nnz: usize,
}

/// Engines prepared on a fresh GPU, `engines[matrix][engine]`.
pub struct Prepared {
    gpu: Gpu,
    engines: Vec<Vec<Box<dyn SpmvEngine>>>,
}

/// One simulated launch of the timed phase.
#[derive(Debug, Clone)]
pub struct Launch {
    /// Index into [`FIG6_ENGINES`].
    pub engine: usize,
    pub mat: usize,
    /// The ABFT-checked Spaden run rather than a plain `try_run`.
    pub checked: bool,
    pub run: Result<SpmvRun, EngineError>,
}

impl Corpus {
    /// The in-scope Table-1 matrices at `scale`, with `seed` mixed into
    /// each dataset's generator seed (the scaling is that of
    /// `DatasetSpec::generate`).
    pub fn table1(seed: u64, scale: f64) -> Self {
        let mats = IN_SCOPE_DATASETS
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let nrow =
                    (((spec.nrow as f64 * scale) as usize).div_ceil(BLOCK_DIM) * BLOCK_DIM).max(64);
                let bnnz = ((spec.bnnz as f64 * nrow as f64 / spec.nrow as f64) as usize).max(8);
                let mut h = Fnv::default();
                h.u64(seed);
                h.str(spec.name);
                let csr = generate_blocked(nrow, bnnz, spec.placement, &spec.fill, h.finish());
                let x = traffic_x(csr.ncols, seed as usize % 256 + i);
                Mat {
                    name: spec.name,
                    csr,
                    x,
                }
            })
            .collect();
        Corpus {
            seed,
            ..Corpus::of(mats)
        }
    }

    /// The closed loop over any set of matrices (the engine probe).
    pub fn of(mats: Vec<Mat>) -> Self {
        let nnz = mats.iter().map(|m| m.csr.nnz()).sum();
        Corpus {
            seed: 0,
            gpu: GpuConfig::l40(),
            mats,
            nnz,
        }
    }

    pub fn matrices(&self) -> impl Iterator<Item = &Csr> {
        self.mats.iter().map(|m| &m.csr)
    }

    fn launches_of(out: &[Launch], engine: usize) -> impl Iterator<Item = &SpmvRun> {
        out.iter()
            .filter(move |l| l.engine == engine && !l.checked)
            .filter_map(|l| l.run.as_ref().ok())
    }

    /// Per-engine simulated counters and host costs: the `gpusim.*` and
    /// `core.*` engine metrics of a traced repetition.
    pub fn engine_layers(&self, out: &[Launch], tr: &Tracer) -> Vec<Metric> {
        let nnz = self.nnz as f64;
        let mut m = Vec::new();
        for (e, kind) in FIG6_ENGINES.iter().enumerate() {
            let mut c = KernelCounters::default();
            for run in Corpus::launches_of(out, e) {
                c.merge(&run.counters);
            }
            let s = slug(*kind);
            m.push(Metric::new(
                format!("gpusim.dram_bytes_per_nnz.{s}"),
                c.dram_bytes() as f64 / nnz,
                "B/nnz",
            ));
            m.push(Metric::new(
                format!("gpusim.sectors_per_nnz.{s}"),
                (c.sectors_read + c.sectors_written) as f64 / nnz,
                "sectors/nnz",
            ));
            m.push(Metric::new(
                format!("gpusim.l2_hit_rate.{s}"),
                c.l2_hit_rate(),
                "ratio",
            ));
            m.push(Metric::new(
                format!("gpusim.atomics_per_nnz.{s}"),
                c.atomic_ops as f64 / nnz,
                "atomics/nnz",
            ));
            if e == SPADEN {
                m.push(Metric::new(
                    "gpusim.mma_fill.spaden",
                    nnz / (256.0 * c.mma_m16n16k16.max(1) as f64),
                    "ratio",
                ));
            }
            let prep = tr.durations_s("core.prepare", Some(kind.name()));
            m.push(Metric::new(
                format!("core.prepare_ms.{s}"),
                prep.iter().sum::<f64>() * 1e3 / prep.len().max(1) as f64,
                "ms",
            ));
            m.push(Metric::new(
                format!("core.run_host_ns_per_nnz.{s}"),
                tr.total_s("core.try_run", Some(kind.name())) * 1e9 / nnz,
                "ns/nnz",
            ));
        }
        let plain = tr.total_s("core.try_run", Some(EngineKind::Spaden.name()));
        m.push(Metric::new(
            "core.abft_host_ratio",
            tr.total_s("core.run_checked", Some(EngineKind::Spaden.name())) / plain,
            "ratio",
        ));
        m
    }
}

impl Workload for Corpus {
    type Setup = Prepared;
    type Outcome = Vec<Launch>;

    fn name(&self) -> &'static str {
        "corpus-spmv"
    }

    fn input_digest(&self) -> u64 {
        let mut h = Fnv::default();
        for m in &self.mats {
            h.str(m.name);
            h.csr(&m.csr);
            h.f32s(&m.x);
        }
        h.finish()
    }

    fn setup(&self, tr: &mut Tracer) -> Result<Prepared, String> {
        let gpu = Gpu::new(self.gpu.clone());
        let mut engines = Vec::with_capacity(self.mats.len());
        for (i, m) in self.mats.iter().enumerate() {
            let row = FIG6_ENGINES
                .iter()
                .map(|&kind| {
                    tr.span("core.prepare", kind.name(), i as u64, |_| {
                        try_build_engine(kind, &gpu, &m.csr)
                    })
                    .map_err(|e| format!("{} on {}: prepare failed: {e}", kind.name(), m.name))
                })
                .collect::<Result<Vec<_>, _>>()?;
            engines.push(row);
        }
        Ok(Prepared { gpu, engines })
    }

    fn timed(&self, p: Prepared, tr: &mut Tracer) -> Vec<Launch> {
        let mut out = Vec::with_capacity(self.mats.len() * (FIG6_ENGINES.len() + 1));
        for (i, (m, row)) in self.mats.iter().zip(&p.engines).enumerate() {
            for (e, eng) in row.iter().enumerate() {
                let op = out.len() as u64;
                let run = tr.span("core.try_run", FIG6_ENGINES[e].name(), op, |_| {
                    eng.try_run(&p.gpu, &m.x)
                });
                out.push(Launch {
                    engine: e,
                    mat: i,
                    checked: false,
                    run,
                });
            }
            let op = out.len() as u64;
            let run = tr.span("core.run_checked", EngineKind::Spaden.name(), op, |_| {
                row[SPADEN].run_checked(&p.gpu, &m.x)
            });
            out.push(Launch {
                engine: SPADEN,
                mat: i,
                checked: true,
                run,
            });
        }
        out
    }

    fn behaviour_digest(&self, out: &Vec<Launch>) -> u64 {
        let mut h = Fnv::default();
        for l in out {
            h.u64(l.engine as u64);
            h.u64(l.mat as u64);
            h.u64(l.checked as u64);
            match &l.run {
                Ok(run) => {
                    h.f32s(&run.y);
                    h.f64(run.time.seconds);
                    digest_counters(&mut h, &run.counters);
                }
                Err(e) => h.str(&e.to_string()),
            }
        }
        h.finish()
    }

    fn verify(&self, out: &Vec<Launch>) -> Vec<String> {
        let mut errors = Vec::new();
        for l in out {
            let m = &self.mats[l.mat];
            let who = format!(
                "{}{} on {}",
                FIG6_ENGINES[l.engine].name(),
                if l.checked { " (checked)" } else { "" },
                m.name
            );
            match &l.run {
                Ok(run) => {
                    if let Err(e) = check_oracle(&m.csr, &m.x, &run.y) {
                        errors.push(format!("{who}: {e}"));
                    }
                }
                Err(e) => errors.push(format!("{who}: {e}")),
            }
        }
        errors
    }

    fn ops(&self, out: &Vec<Launch>) -> Ops {
        let verified = out.iter().filter(|l| l.run.is_ok()).count() as u64;
        Ops {
            attempted: out.len() as u64,
            verified,
            refused: 0,
        }
    }

    fn sim(&self, out: &Vec<Launch>) -> Sim {
        let latencies_s: Vec<f64> = out
            .iter()
            .filter_map(|l| l.run.as_ref().ok())
            .map(|r| r.time.seconds)
            .collect();
        let span_s: f64 = latencies_s.iter().sum();
        let gflops = geomean(
            Corpus::launches_of(out, SPADEN)
                .zip(&self.mats)
                .map(|(r, m)| r.gflops(m.csr.nnz())),
        );
        Sim {
            goodput_rps: latencies_s.len() as f64 / span_s,
            latencies_s,
            gflops,
            span_s,
        }
    }

    fn layers(&self, out: &Vec<Launch>, tr: &mut Tracer) -> Result<Vec<Metric>, String> {
        let mut m = self.engine_layers(out, tr);
        m.extend(crate::layers::common(self.seed, self.matrices(), None, tr)?);
        Ok(m)
    }
}

/// The engine probe of a traced run: the closed loop over another
/// workload's matrices, inside a `probe.engines` span.
pub fn probe(c: &Corpus, tr: &mut Tracer) -> Result<Vec<Metric>, String> {
    let out = tr.span("probe.engines", "", 0, |tr| -> Result<_, String> {
        let p = c.setup(tr)?;
        Ok(c.timed(p, tr))
    })?;
    Ok(c.engine_layers(&out, tr))
}

/// Every `KernelCounters` field, in declaration order.
pub fn digest_counters(h: &mut Fnv, c: &KernelCounters) {
    for v in [
        c.sectors_read,
        c.sectors_written,
        c.l2_hits,
        c.dram_read_bytes,
        c.dram_write_bytes,
        c.load_insts,
        c.store_insts,
        c.cuda_ops,
        c.mma_m16n16k16,
        c.mma_m8n8k4,
        c.atomic_ops,
        c.smem_bytes,
        c.warps,
        c.faults_injected,
        c.faults_observed,
        c.san_reports,
    ] {
        h.u64(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        let digest = |seed| Corpus::table1(seed, 0.002).input_digest();
        assert_eq!(digest(3), digest(3));
        assert_ne!(digest(3), digest(4));
    }

    #[test]
    fn a_corrupted_output_fails_the_oracle() {
        let c = Corpus::table1(3, 0.002);
        let mut off = Tracer::off();
        let p = c.setup(&mut off).unwrap();
        let mut out = c.timed(p, &mut off);
        assert_eq!(out.len(), 12 * 7);
        assert_eq!(c.verify(&out), Vec::<String>::new());
        let run = out[5].run.as_mut().unwrap();
        run.y[0] += 1.0 + run.y[0].abs();
        assert_eq!(c.verify(&out).len(), 1);
    }
}
