//! The per-layer metrics of a traced run, and the probe calls that exist
//! only to measure a layer.
//!
//! Every traced run reports the same set of names, whatever its
//! workload. A layer the workload drives itself is measured from the
//! workload's own calls; the others come from probes over the workload's
//! matrices (conversions, the engine closed loop) or over the seed's
//! evolve stream (commits, the store, recovery). The serving layer's
//! open-loop metrics exist only where a server runs open loop and read 0
//! on `corpus-spmv`, where nothing is served.

use crate::serve::{serve_matrices, ServeView, ROWS};
use crate::stats::{percentile, quartiles, sorted, tail};
use crate::trace::Tracer;
use crate::workload::Metric;
use spaden::{BitBsr, SpadenEngine, SpmvEngine};
use spaden_gpusim::{Gpu, GpuConfig};
use spaden_plan::FIG6_ENGINES;
use spaden_serve::{OpenOutcome, Priority, Rung, ServeError, ShedReason};
use spaden_sparse::bsr::Bsr;
use spaden_sparse::{fingerprint, Csr, Ell, Hyb};
use spaden_traffic::traffic_x;
use std::hint::black_box;

/// Empty launches timed for `gpusim.empty_launch_us`.
const EMPTY_LAUNCHES: u64 = 200;
/// Checked runs timed for `core.run_checked_us.serve_matrix`.
const CHECKED_RUNS: u64 = 50;

const RUNG_SLUGS: [(Rung, &str); 3] = [
    (Rung::SpadenChecked, "spaden_checked"),
    (Rung::SpadenScalar, "spaden_scalar"),
    (Rung::CsrBaseline, "csr_baseline"),
];

const SHED_SLUGS: [&str; 5] = [
    "expired",
    "queue_full",
    "evicted",
    "brownout",
    "adaptive_limit",
];

fn shed_slug(r: &ShedReason) -> &'static str {
    match r {
        ShedReason::Expired { .. } => SHED_SLUGS[0],
        ShedReason::QueueFull { .. } => SHED_SLUGS[1],
        ShedReason::Evicted { .. } => SHED_SLUGS[2],
        ShedReason::Brownout { .. } => SHED_SLUGS[3],
        ShedReason::AdaptiveLimit { .. } => SHED_SLUGS[4],
    }
}

/// Every per-layer metric name, in report order.
pub fn names() -> Vec<String> {
    let engines = FIG6_ENGINES.map(crate::corpus::slug);
    let mut n = Vec::new();
    for e in engines {
        for m in [
            "dram_bytes_per_nnz",
            "sectors_per_nnz",
            "l2_hit_rate",
            "atomics_per_nnz",
        ] {
            n.push(format!("gpusim.{m}.{e}"));
        }
    }
    n.push("gpusim.mma_fill.spaden".into());
    n.push("gpusim.empty_launch_us".into());
    for e in engines {
        n.push(format!("core.prepare_ms.{e}"));
        n.push(format!("core.run_host_ns_per_nnz.{e}"));
    }
    for m in [
        "core.abft_host_ratio",
        "core.run_checked_us.serve_matrix",
        "core.evolve_apply_us.p50",
        "core.evolve_apply_us.tail",
        "core.compactions",
        "core.rollbacks",
    ] {
        n.push(m.into());
    }
    for f in ["bitbsr", "bsr", "ell", "hyb"] {
        n.push(format!("sparse.convert_ns_per_nnz.{f}"));
    }
    n.push("sparse.fingerprint_us".into());
    for m in [
        "serve.queue_wait_p50_us",
        "serve.queue_wait_tail_us",
        "serve.service_p50_us",
        "serve.service_tail_us",
        "serve.tail_high_us",
        "serve.retries_per_1k",
    ] {
        n.push(m.into());
    }
    n.extend(
        RUNG_SLUGS
            .iter()
            .map(|(_, s)| format!("serve.rung_share.{s}")),
    );
    n.extend(SHED_SLUGS.iter().map(|s| format!("serve.shed_ratio.{s}")));
    for m in [
        "serve.breaker_trips",
        "serve.batch_width_mean",
        "serve.coalescing_rate",
        "serve.batch_fallback_ratio",
        "serve.register_ms",
        "serve.update_us.p50",
        "serve.update_us.tail",
        "serve.recover_rebuild_ms",
        "store.append_us",
        "store.snapshot_us",
        "store.recover_ms",
        "store.wal_bytes_per_commit",
        "store.replayed_records",
        "bench.verify_s",
        "bench.trace_overhead",
        "bench.span_coverage",
    ] {
        n.push(m.into());
    }
    n
}

/// Orders `metrics` as [`names`] lists them; an error names any metric
/// missing or unexpected.
pub fn in_report_order(mut metrics: Vec<Metric>) -> Result<Vec<Metric>, String> {
    let want = names();
    let mut out = Vec::with_capacity(want.len());
    for name in &want {
        let i = metrics
            .iter()
            .position(|m| &m.name == name)
            .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
        out.push(metrics.swap_remove(i));
    }
    match metrics.first() {
        Some(extra) => Err(format!("unlisted per-layer metric {}", extra.name)),
        None => Ok(out),
    }
}

/// The probes and metrics every traced run shares: launch set-up,
/// conversions and fingerprints of `mats`, a checked run on a served-size
/// matrix, the evolve/store probe, and the serving layer's metrics.
pub fn common<'a>(
    seed: u64,
    mats: impl Iterator<Item = &'a Csr>,
    serve: Option<ServeView>,
    tr: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let mats: Vec<&Csr> = mats.collect();
    let nnz: f64 = mats.iter().map(|m| m.nnz() as f64).sum();
    let gpu = Gpu::new(GpuConfig::l40());
    let mut m = Vec::new();

    for i in 0..EMPTY_LAUNCHES {
        tr.span("gpusim.launch", "empty", i, |_| {
            black_box(gpu.launch(1, |_| {}))
        });
    }
    let (empty, _, _) = quartiles(&tr.durations_s("gpusim.launch", Some("empty")));
    m.push(Metric::new("gpusim.empty_launch_us", empty * 1e6, "us"));

    type Convert = fn(&Csr);
    let formats: [(&'static str, Convert); 4] = [
        ("bitbsr", |c| {
            drop(black_box(BitBsr::from_csr(black_box(c))))
        }),
        ("bsr", |c| drop(black_box(Bsr::from_csr(black_box(c))))),
        ("ell", |c| drop(black_box(Ell::from_csr(black_box(c))))),
        ("hyb", |c| drop(black_box(Hyb::from_csr(black_box(c))))),
    ];
    for (name, convert) in formats {
        for (i, c) in mats.iter().enumerate() {
            tr.span("sparse.convert", name, i as u64, |_| convert(c));
        }
        let ns = tr.total_s("sparse.convert", Some(name)) * 1e9 / nnz;
        m.push(Metric::new(
            format!("sparse.convert_ns_per_nnz.{name}"),
            ns,
            "ns/nnz",
        ));
    }
    for (i, c) in mats.iter().enumerate() {
        tr.span("sparse.fingerprint", "", i as u64, |_| {
            black_box(fingerprint(black_box(c)))
        });
    }
    let fp = tr.total_s("sparse.fingerprint", None) * 1e6 / mats.len() as f64;
    m.push(Metric::new("sparse.fingerprint_us", fp, "us"));

    let csr = serve_matrices(seed, 1).remove(0);
    let eng = SpadenEngine::try_prepare(&gpu, &csr).map_err(|e| format!("probe matrix: {e}"))?;
    let x = traffic_x(ROWS, 0);
    for i in 0..CHECKED_RUNS {
        tr.span("core.run_checked", "serve_matrix", i, |_| {
            eng.run_checked(&gpu, &x)
        })
        .map_err(|e| format!("probe checked run: {e}"))?;
    }
    let (checked, _, _) = quartiles(&tr.durations_s("core.run_checked", Some("serve_matrix")));
    m.push(Metric::new(
        "core.run_checked_us.serve_matrix",
        checked * 1e6,
        "us",
    ));

    m.extend(crate::evolve::probe(seed, tr)?);
    m.extend(serving(serve, tr));
    Ok(m)
}

/// The serving layer's metrics: simulated from the workload's open-loop
/// outcomes, host from its registrations (the probe's on a workload that
/// registers nothing).
fn serving(view: Option<ServeView>, tr: &Tracer) -> Vec<Metric> {
    let own: Vec<f64> = (tr.spans().iter())
        .filter(|s| s.name == "serve.register" && s.tag != "probe")
        .map(|s| s.dur_ns() as f64 * 1e-9)
        .collect();
    let register = if own.is_empty() {
        tr.durations_s("serve.register", None)
    } else {
        own
    };
    let register_ms = register.iter().sum::<f64>() * 1e3 / register.len().max(1) as f64;
    let mut m = vec![Metric::new("serve.register_ms", register_ms, "ms")];

    let (outcomes, stats, trips) = match view {
        Some(v) => (v.outcomes, v.stats.clone(), v.breaker_trips),
        None => (&[][..], Default::default(), 0),
    };
    let served: Vec<&OpenOutcome> = outcomes.iter().filter(|o| o.result.is_ok()).collect();
    let us = |pick: &dyn Fn(&OpenOutcome) -> Option<f64>| {
        sorted(
            served
                .iter()
                .filter_map(|o| pick(o))
                .map(|s| s * 1e6)
                .collect(),
        )
    };
    let wait = us(&|o| Some(o.queue_wait_s));
    let service = us(&|o| Some(o.time_in_system_s() - o.queue_wait_s));
    let high = us(&|o| (o.priority == Priority::High).then(|| o.time_in_system_s()));
    let p50 = |v: &[f64]| percentile(v, 50.0).unwrap_or(0.0);
    let tl = |v: &[f64]| tail(v).map_or(0.0, |t| t.1);
    m.push(Metric::new("serve.queue_wait_p50_us", p50(&wait), "us"));
    m.push(Metric::new("serve.queue_wait_tail_us", tl(&wait), "us"));
    m.push(Metric::new("serve.service_p50_us", p50(&service), "us"));
    m.push(Metric::new("serve.service_tail_us", tl(&service), "us"));
    m.push(Metric::new("serve.tail_high_us", tl(&high), "us"));
    let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    m.push(Metric::new(
        "serve.retries_per_1k",
        1e3 * per(stats.retries, stats.submitted),
        "count",
    ));
    for (rung, slug) in RUNG_SLUGS {
        let share = per(stats.served[rung as usize], stats.ok_total());
        m.push(Metric::new(
            format!("serve.rung_share.{slug}"),
            share,
            "ratio",
        ));
    }
    for slug in SHED_SLUGS {
        let shed = (outcomes.iter())
            .filter(|o| matches!(&o.result, Err(ServeError::Shed(r)) if shed_slug(r) == slug))
            .count();
        m.push(Metric::new(
            format!("serve.shed_ratio.{slug}"),
            per(shed as u64, outcomes.len() as u64),
            "ratio",
        ));
    }
    m.push(Metric::new("serve.breaker_trips", trips as f64, "count"));
    m.push(Metric::new(
        "serve.batch_width_mean",
        stats.mean_batch_width(),
        "requests",
    ));
    m.push(Metric::new(
        "serve.coalescing_rate",
        stats.coalescing_rate(),
        "ratio",
    ));
    m.push(Metric::new(
        "serve.batch_fallback_ratio",
        per(stats.batch_fallbacks, stats.batches + stats.batch_fallbacks),
        "ratio",
    ));
    m
}
