//! `repro` — regenerates the paper's tables and figures.
//!
//! ```text
//! repro <experiment> [--scale S] [--gpu l40|v100|both] [--seed N]
//!
//! experiments: table1 fig6 fig7 fig8 fig9a fig9b fig10a fig10b
//!              ablations extensions reordering faults plan sanitize serve
//!              shard traffic evolve recover chaos verify all
//! ```
//!
//! `--scale` shrinks every dataset proportionally (default 0.05; use 1.0
//! for paper-size matrices). Figures 6/7 include the two out-of-scope
//! matrices like the paper; summary rows always exclude them. `--smoke`
//! shortens the `evolve` and `recover` scenarios for CI smoke jobs.
//! `--seed` overrides the seed of every seeded experiment (serve,
//! faults, traffic, shard, evolve, recover, chaos) and is echoed
//! in the report header so any run can be reproduced from its output
//! alone. `chaos --replay <file>` re-runs a shrunk reproducer emitted
//! by a failing chaos sweep. Any experiment whose verdict fails makes
//! `repro` exit nonzero, so CI gates on exit codes, not output greps.

use spaden_bench::{
    fig10a, fig10b, fig6, fig7, fig8, fig9a, fig9b, load_datasets, run_sweep, table1,
    verification, EngineKind, Sweep, FIG6_ENGINES,
};
use spaden_gpusim::GpuConfig;

struct Args {
    experiment: String,
    scale: f64,
    gpus: Vec<GpuConfig>,
    smoke: bool,
    seed: Option<u64>,
    replay: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let experiment = args.next().ok_or("missing experiment name")?;
    let mut scale = 0.05;
    let mut gpus = vec![GpuConfig::l40(), GpuConfig::v100()];
    let mut smoke = false;
    let mut seed = None;
    let mut replay = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--replay" => {
                let v = args.next().ok_or("--replay needs a file path")?;
                replay = Some(v);
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                seed = Some(v.parse().map_err(|_| format!("bad seed: {v}"))?);
            }
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                scale = v.parse().map_err(|_| format!("bad scale: {v}"))?;
                if !(scale > 0.0 && scale <= 1.0) {
                    return Err("scale must be in (0, 1]".into());
                }
            }
            "--gpu" => {
                let v = args.next().ok_or("--gpu needs a value")?;
                gpus = match v.to_ascii_lowercase().as_str() {
                    "l40" => vec![GpuConfig::l40()],
                    "v100" => vec![GpuConfig::v100()],
                    "both" => vec![GpuConfig::l40(), GpuConfig::v100()],
                    other => return Err(format!("unknown gpu: {other}")),
                };
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(Args { experiment, scale, gpus, smoke, seed, replay })
}

/// All eight engines: the Figure-6 set plus the Figure-8 ablations.
fn all_engines() -> Vec<EngineKind> {
    let mut v = FIG6_ENGINES.to_vec();
    v.push(EngineKind::SpadenNoTc);
    v.push(EngineKind::CsrWarp16);
    v
}

fn sweep_for(cfg: GpuConfig, scale: f64, kinds: &[EngineKind], with_oos: bool) -> Sweep {
    let datasets = load_datasets(scale, with_oos);
    run_sweep(cfg, &datasets, kinds)
}

fn headline(sweep: &Sweep) {
    println!("\nHeadline geomean speedups of Spaden on {} (in-scope matrices):", sweep.gpu);
    for base in ["cuSPARSE CSR", "cuSPARSE BSR", "LightSpMV", "Gunrock", "DASP"] {
        let s = sweep.geomean_speedup("Spaden", base);
        if s.is_finite() && s > 0.0 {
            println!("  over {base:<13} {s:.2}x");
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: repro <table1|fig6|fig7|fig8|fig9a|fig9b|fig10a|fig10b|ablations|extensions|reordering|faults|verify|all> \
                 [--scale S] [--gpu l40|v100|both] [--smoke] [--seed N] [--replay FILE]   \
                 (also: plan sanitize serve shard traffic evolve recover chaos)"
            );
            std::process::exit(2);
        }
    };
    let scale = args.scale;
    match args.seed {
        Some(s) => println!(
            "# Spaden reproduction — experiment `{}` at scale {scale}, seed {s}",
            args.experiment
        ),
        None => println!(
            "# Spaden reproduction — experiment `{}` at scale {scale}, default seeds",
            args.experiment
        ),
    }

    let mut failed = false;
    match args.experiment.as_str() {
        "table1" => {
            println!("{}", table1(&load_datasets(scale, true)));
        }
        "fig6" => {
            for cfg in args.gpus {
                let s = sweep_for(cfg, scale, &FIG6_ENGINES, true);
                println!("{}", fig6(&s));
            }
        }
        "fig7" => {
            for cfg in args.gpus {
                let s = sweep_for(cfg, scale, &FIG6_ENGINES, true);
                println!("{}", fig7(&s));
                headline(&s);
            }
        }
        "fig8" => {
            // The paper discusses Figure 8 on the L40 only.
            let mut kinds = spaden_bench::FIG8_ENGINES.to_vec();
            kinds.push(EngineKind::CusparseCsr);
            let s = sweep_for(GpuConfig::l40(), scale, &kinds, false);
            println!("{}", fig8(&s));
        }
        "fig9a" => {
            println!("{}", fig9a(&load_datasets(scale, true)));
        }
        "fig9b" => {
            let kinds = [EngineKind::Spaden, EngineKind::CusparseBsr];
            let s = sweep_for(GpuConfig::l40(), scale, &kinds, false);
            println!("{}", fig9b(&s));
        }
        "fig10a" | "fig10b" => {
            let kinds = [
                EngineKind::CusparseCsr,
                EngineKind::CusparseBsr,
                EngineKind::Spaden,
                EngineKind::Dasp,
            ];
            let s = sweep_for(GpuConfig::l40(), scale, &kinds, true);
            if args.experiment == "fig10a" {
                println!("{}", fig10a(&s));
            } else {
                println!("{}", fig10b(&s));
            }
        }
        "ablations" => {
            let datasets = load_datasets(scale, false);
            for t in spaden_bench::ablations(GpuConfig::l40(), &datasets) {
                println!("{t}");
            }
        }
        "extensions" => {
            let gpus = args.gpus.clone();
            let datasets = load_datasets(scale, false);
            for cfg in gpus {
                for t in spaden_bench::extensions(cfg, &datasets) {
                    println!("{t}");
                }
            }
        }
        "reordering" => {
            let datasets = load_datasets(scale, false);
            println!("{}", spaden_bench::reordering(GpuConfig::l40(), &datasets));
        }
        "faults" => {
            let datasets = load_datasets(scale, false);
            let rates = [1e-4, 1e-3, 1e-2];
            for cfg in args.gpus {
                let (t, s) = spaden_bench::fault_sweep(cfg, &datasets, &rates, 6, args.seed.unwrap_or(0xFA));
                println!("{t}");
                println!(
                    "detection: {}/{} corrupted runs flagged; correction: {}/{} checked runs verified",
                    s.detected, s.corrupted, s.corrected, s.checked
                );
            }
        }
        "serve" => {
            // Fixed seeds: the sweep must be reproducible run to run.
            // Every cell is a single-family bit-burst schedule checked by
            // the chaos oracle. Uniform bursts hit every rung (breaker
            // trips, shedding, recovery once the burst passes);
            // tensor-core-only bursts spare the scalar/CSR rungs and are
            // absorbed by ABFT correction.
            let seeds = match args.seed {
                Some(s) => vec![s, s.wrapping_add(12)],
                None => vec![11, 23],
            };
            for gpu in &args.gpus {
                for (label, rates, tc_only) in [
                    ("uniform", &spaden_bench::UNIFORM_RATES[..], false),
                    ("tensor-core-only", &spaden_bench::TC_ONLY_RATES[..], true),
                ] {
                    println!("\n### Fault profile: {label}");
                    let (tables, verdict, _) =
                        spaden_bench::serve_report(gpu, rates, &seeds, tc_only);
                    for t in tables {
                        println!("{t}");
                    }
                    println!("{verdict}");
                    failed |= !verdict.pass;
                }
            }
            // Batched SpMM serving: the same Zipf same-matrix workload
            // served per-request and through the batching window. The
            // BATCH verdict line asserts the >= 2x goodput advantage at
            // equal-or-better p99 with zero unverified results; CI's
            // batch-smoke job greps it.
            let mut batch_cfg = if args.smoke {
                spaden_bench::BatchBenchConfig::smoke()
            } else {
                spaden_bench::BatchBenchConfig::default()
            };
            if let Some(s) = args.seed {
                batch_cfg.seed = s;
            }
            for gpu in &args.gpus {
                println!("\n### Batched SpMM serving");
                let (tables, verdict, _) = spaden_bench::batch_report(gpu, &batch_cfg);
                for t in tables {
                    println!("{t}");
                }
                println!("{verdict}");
                failed |= !verdict.pass;
            }
        }
        "sanitize" => {
            // Certifies SimSan: the full engine matrix runs violation-free
            // (and bit-identical to sanitizer-off runs), every seeded
            // hazard class is caught with the right report kind, and the
            // numerical edge corpus resolves through the serving ladder
            // with f16 hazards demoted. CI's sanitize job greps the SAN
            // verdict line.
            let (tables, verdict, _) = spaden_bench::sanitize_report(&args.gpus);
            for t in tables {
                println!("{t}");
            }
            println!("{verdict}");
            failed |= !verdict.pass;
        }
        "plan" => {
            // Certifies the plan layer: cost-model selection accuracy vs
            // the exhaustive oracle on a fixed synthetic corpus. CI's
            // plan step gates on the PLAN verdict line.
            let (tables, verdict, _) = spaden_bench::plan_report(&args.gpus);
            for t in tables {
                println!("{t}");
            }
            println!("{verdict}");
            failed |= !verdict.pass;
        }
        "traffic" => {
            // Certifies the overload-control layer: an open-loop Poisson
            // saturation ladder plus a flash-crowd spike, all seeded and
            // on the simulated clock. The verdict line asserts >= 99%
            // availability below saturation, graceful degradation (no
            // goodput cliff) past it, high-priority protection, zero
            // unverified results in any brownout mode, and per-seed bit
            // determinism. CI's traffic-smoke job greps `TRAFFIC OK`.
            let mut cfg = spaden_traffic::SweepConfig::default();
            if let Some(s) = args.seed {
                cfg.seed = s;
            }
            for gpu in &args.gpus {
                let (tables, verdict, _) = spaden_bench::traffic_report(gpu, &cfg);
                for t in tables {
                    println!("{t}");
                }
                println!("{verdict}");
                failed |= !verdict.pass;
            }
        }
        "evolve" => {
            // Certifies the evolving-matrix lifecycle: a scale-free
            // adjacency matrix takes a seeded stream of verified delta
            // batches (value-only and structural, a storm cluster, one
            // injected fault that must roll back) while open-loop read
            // traffic is served epoch-consistently on top. The verdict
            // asserts bit-identical compaction, incremental-ABFT
            // exactness, rollback-not-publish on corruption, zero torn
            // or stale reads, and the availability bar through the
            // storm. CI's evolve-smoke job greps `EVOLVE OK`.
            let mut cfg = if args.smoke {
                spaden_bench::EvolveScenario::smoke()
            } else {
                spaden_bench::EvolveScenario::default()
            };
            if let Some(s) = args.seed {
                cfg.seed = s;
            }
            for gpu in &args.gpus {
                let (tables, verdict, _) = spaden_bench::evolve_report(gpu, &cfg);
                for t in tables {
                    println!("{t}");
                }
                println!("{verdict}");
                failed |= !verdict.pass;
            }
        }
        "recover" => {
            // Certifies crash-consistent durability: kill-at-every-
            // WAL-record recovery must come back bit-for-bit (epoch,
            // fingerprint, served result bits), corrupt tails truncate
            // to a verified epoch, corrupt snapshots fall back to the
            // older slot, and the reopened server serves zero torn
            // reads before resuming evolution. Every injected storage
            // fault's error text is prefixed `injected:` — CI's
            // recover-smoke job greps `RECOVER OK` and fails on any
            // WalError outside those lines. Also writes the machine-
            // readable `recover_report.json`.
            let mut cfg = if args.smoke {
                spaden_bench::RecoverScenario::smoke()
            } else {
                spaden_bench::RecoverScenario::default()
            };
            if let Some(s) = args.seed {
                cfg.seed = s;
            }
            for gpu in &args.gpus {
                let (tables, verdict, report) = spaden_bench::recover_report(gpu, &cfg);
                for t in tables {
                    println!("{t}");
                }
                println!("{verdict}");
                failed |= !verdict.pass;
                let json = spaden_bench::recover_report_json(gpu, &cfg, &verdict.line, &report);
                match std::fs::write("recover_report.json", &json) {
                    Ok(()) => println!("wrote recover_report.json"),
                    Err(e) => eprintln!("could not write recover_report.json: {e}"),
                }
            }
        }
        "shard" => {
            // Fixed seed so the sweep is reproducible run to run. The
            // device-failure profiles kill a device mid-stream, slow the
            // whole fleet, and roll hangs across it, each a single-family
            // schedule checked by the chaos oracle; the verdict line
            // asserts the SLO (zero oracle violations, >= 90% availability
            // under device loss, speculation beating no-speculation on p99).
            let seeds = match args.seed {
                Some(s) => vec![s, s.wrapping_add(12)],
                None => vec![31],
            };
            for gpu in &args.gpus {
                let (tables, verdict, _) = spaden_bench::shard_report(gpu, &seeds);
                for t in tables {
                    println!("{t}");
                }
                println!("{verdict}");
                failed |= !verdict.pass;
            }
        }
        "chaos" => {
            // Deterministic chaos orchestration: correlated multi-fault
            // schedules through the full stack with the global invariant
            // oracle. `--replay FILE` re-runs a shrunk reproducer emitted
            // by a failing sweep; otherwise the sweep explores 200
            // schedules (24 with `--smoke`). On a violation the minimal
            // reproducer is written to `chaos_repro.txt` and the exit
            // code is nonzero — CI's chaos-smoke job gates on it.
            if let Some(path) = &args.replay {
                let text = match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("cannot read replay file {path}: {e}");
                        std::process::exit(2);
                    }
                };
                let replay = match spaden_chaos::ReplayFile::parse(&text) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("bad replay file {path}: {e}");
                        std::process::exit(2);
                    }
                };
                for gpu in &args.gpus {
                    let out = spaden_chaos::run_schedule(gpu, &replay.schedule, replay.weaken);
                    println!(
                        "replayed seed {} on {}: {} events, {} arrivals offered, {} served, digest {:#018x}",
                        replay.schedule.seed,
                        gpu.name,
                        replay.schedule.events.len(),
                        out.offered,
                        out.served,
                        out.digest,
                    );
                    if out.violations.is_empty() {
                        println!("CHAOS REPLAY OK: no invariant violations");
                    } else {
                        for v in &out.violations {
                            println!("violation: {v}");
                        }
                        println!("CHAOS REPLAY FAIL: {} invariant violation(s)", out.violations.len());
                        failed = true;
                    }
                }
            } else {
                let seed0 = args.seed.unwrap_or(1);
                let cfg = if args.smoke {
                    spaden_chaos::ExploreConfig::smoke(seed0)
                } else {
                    spaden_chaos::ExploreConfig::full(seed0)
                };
                for gpu in &args.gpus {
                    let (tables, verdict, findings) = spaden_bench::chaos_report(gpu, &cfg);
                    for t in tables {
                        println!("{t}");
                    }
                    println!("{verdict}");
                    failed |= !verdict.pass;
                    if let Some(caught) = &findings.caught {
                        for v in &caught.violations {
                            println!("violation: {v}");
                        }
                        match std::fs::write("chaos_repro.txt", &caught.replay) {
                            Ok(()) => println!(
                                "wrote chaos_repro.txt (shrunk to {} event(s); replay with `repro chaos --replay chaos_repro.txt`)",
                                caught.shrunk.events.len()
                            ),
                            Err(e) => eprintln!("could not write chaos_repro.txt: {e}"),
                        }
                    }
                }
            }
        }
        "verify" => {
            for cfg in args.gpus {
                let s = sweep_for(cfg, scale, &all_engines(), true);
                println!("{}", verification(&s));
            }
        }
        "all" => {
            println!("{}", table1(&load_datasets(scale, true)));
            println!("{}", fig9a(&load_datasets(scale, true)));
            for cfg in args.gpus {
                let s = sweep_for(cfg.clone(), scale, &all_engines(), true);
                println!("{}", fig6(&s));
                println!("{}", fig7(&s));
                headline(&s);
                if cfg.name == "L40" {
                    println!("{}", fig8(&s));
                    println!("{}", fig9b(&s));
                    println!("{}", fig10a(&s));
                    println!("{}", fig10b(&s));
                    let (ft, _) =
                        spaden_bench::fault_sweep(cfg.clone(), &load_datasets(scale, false), &[1e-3], 4, args.seed.unwrap_or(0xFA));
                    println!("{ft}");
                }
                println!("{}", verification(&s));
            }
        }
        other => {
            eprintln!("unknown experiment: {other}");
            std::process::exit(2);
        }
    }
    if failed {
        eprintln!("repro: experiment `{}` FAILED", args.experiment);
        std::process::exit(1);
    }
}
