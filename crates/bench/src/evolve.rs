//! The `repro evolve` experiment: verified streaming updates served
//! live, with epoch-consistent reads and rollback on corruption.
//!
//! Not a paper figure — it certifies the evolving-matrix lifecycle end
//! to end: a scale-free graph's adjacency matrix is registered through
//! [`SpmvServer::register_evolving`] and mutated by a seeded stream of
//! value-only and structural delta batches (including a clustered
//! "update storm") while open-loop read traffic runs against it. The
//! verdict asserts:
//!
//! * every compaction was verified bit-identical to a from-scratch
//!   rebuild, and every committed epoch passed the full-recompute audit
//!   of its incrementally repaired checksums;
//! * a seeded [`UpdateFault`] rolled its epoch back — the corrupt state
//!   was never published, and the previous epoch kept serving;
//! * zero torn or stale reads: every served result matches the f64
//!   oracle of *exactly* the epoch it was admitted on, and that epoch is
//!   exactly the one committed at its arrival time;
//! * the evolve layer's value-only and structural commit counts match
//!   the schedule;
//! * availability holds through the update storm;
//! * PageRank on the before/after snapshots converges, so the evolving
//!   matrix is a live graph workload, not just a buffer under churn.
//!
//! CI's evolve-smoke job greps the `EVOLVE` verdict line.
//!
//! [`SpmvServer::register_evolving`]: spaden_serve::SpmvServer::register_evolving
//! [`UpdateFault`]: spaden::UpdateFault

use crate::verdict::Verdict;
use crate::Table;
use spaden::{AbftChecksums, EvolveConfig, EvolvingMatrix, SpadenEngine, SpmvEngine, UpdateFault};
use spaden_gpusim::{Gpu, GpuConfig};
use spaden_serve::{
    OpenRequest, OverloadConfig, Priority, Request, ScheduledUpdate, ServeConfig, ServeError,
    SpmvServer, UpdateOutcome,
};
use spaden_sparse::delta::{apply_to_csr, classify, DeltaClass, UpdateError};
use spaden_sparse::gen::{self, structural_batch, value_only_batch};
use spaden_sparse::{Coo, Csr, Pcg64};
use spaden_traffic::{oracle_tol, traffic_x, window_stats, Check};

/// Shape of one `repro evolve` run. Everything is seeded; two runs of
/// the same scenario produce identical tables and verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct EvolveScenario {
    /// Seed for the graph, the update stream, and the arrival schedule.
    pub seed: u64,
    /// Simulated horizon.
    pub duration_s: f64,
    /// Offered read load as a fraction of calibrated capacity.
    pub load: f64,
    /// Graph nodes (matrix dimension).
    pub nodes: usize,
    /// Initial edges (matrix nonzeros before updates).
    pub edges: usize,
    /// Regular update batches spread across the horizon.
    pub updates: usize,
    /// Extra update batches crammed into the storm window.
    pub storm: usize,
    /// Consecutive [`UpdateFault`]-injected batches at mid-run. Every
    /// one must roll back, with the served epoch unchanged throughout
    /// the storm (clamped to at least 1).
    pub fault_storm: usize,
    /// Time slices for the availability curve.
    pub windows: usize,
}

impl Default for EvolveScenario {
    fn default() -> Self {
        EvolveScenario {
            seed: 20_267,
            duration_s: 4e-3,
            load: 0.5,
            nodes: 96,
            edges: 900,
            updates: 8,
            storm: 4,
            fault_storm: 3,
            windows: 8,
        }
    }
}

impl EvolveScenario {
    /// A shorter run for CI smoke jobs — same structure, fewer events.
    pub fn smoke() -> Self {
        EvolveScenario { duration_s: 2e-3, updates: 5, storm: 3, fault_storm: 2, ..Default::default() }
    }
}

/// Everything `repro evolve` renders.
#[derive(Debug, Clone)]
pub struct EvolveReport {
    /// Per-scheduled-update ledger (in schedule order).
    pub updates: Vec<UpdateRow>,
    /// Served / offered over the whole run.
    pub availability: f64,
    /// Worst per-window availability.
    pub min_window_availability: f64,
    /// Served results cross-checked against their epoch's f64 oracle.
    pub verified_reads: u64,
    /// The verdict checks, in order.
    pub checks: Vec<Check>,
}

impl EvolveReport {
    /// Whether every verdict check passed.
    pub fn ok(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }
}

/// One scheduled update's outcome, for the ledger table.
#[derive(Debug, Clone)]
pub struct UpdateRow {
    /// When the batch landed (simulated seconds).
    pub at_s: f64,
    /// Value-only or structural, against the pre-update truth.
    pub class: DeltaClass,
    /// Whether the schedule injected an [`UpdateFault`] into it.
    pub faulted: bool,
    /// The serving layer's account, or the typed rollback error.
    pub outcome: Result<UpdateOutcome, ServeError>,
}

/// The update schedule plus its ground truth: the per-epoch CSR
/// snapshot chain every served read is verified against.
struct EvolvePlan {
    initial: Csr,
    schedule: Vec<(ScheduledUpdate, bool)>, // (update, expect_rollback)
    /// `snapshots[e]` is the truth at epoch `e`.
    snapshots: Vec<Csr>,
    expected_value_only: u64,
    expected_structural: u64,
}

/// Builds the seeded graph, the update schedule (regular cadence, one
/// faulted batch mid-run, a storm cluster), and the epoch snapshot
/// chain that serves as the read oracle.
fn build_plan(cfg: &EvolveScenario, matrix: spaden_serve::MatrixHandle) -> EvolvePlan {
    let initial = gen::scale_free(cfg.nodes, cfg.edges, 2.0, cfg.seed);
    let mut rng = Pcg64::new(cfg.seed, 0xe701e);

    // Event times: regular updates spread over the horizon, a faulted
    // batch at 45%, and the storm crammed into [60%, 62%].
    let mut times: Vec<(f64, bool)> = (0..cfg.updates)
        .map(|i| (cfg.duration_s * (i + 1) as f64 / (cfg.updates + 2) as f64, false))
        .collect();
    // The fault storm: consecutive corrupted batches at 45%, spaced so
    // tightly that nothing else can land between them — every one must
    // roll back with the served epoch frozen across the whole storm.
    for j in 0..cfg.fault_storm.max(1) {
        times.push((cfg.duration_s * 0.45 + 1e-9 + j as f64 * 1e-8, true));
    }
    for j in 0..cfg.storm {
        // Offset so storm times never tie with the regular cadence —
        // schedule times stay strictly increasing.
        times.push((cfg.duration_s * (0.6005 + 0.02 * j as f64 / cfg.storm.max(1) as f64), false));
    }
    times.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut truth = initial.clone();
    let mut snapshots = vec![initial.clone()];
    let mut schedule = Vec::new();
    let (mut value_only, mut structural) = (0u64, 0u64);
    for (i, &(at_s, faulted)) in times.iter().enumerate() {
        let batch = if faulted || i % 2 == 0 {
            value_only_batch(&truth, &mut rng, 6)
        } else {
            structural_batch(&truth, &mut rng, 5, 2)
        };
        let fault = faulted.then_some(UpdateFault { delta_index: 0, bit: 9 });
        if faulted {
            // Rolls back: the truth chain does not advance.
        } else {
            match classify(&truth, &batch) {
                DeltaClass::ValueOnly => value_only += 1,
                DeltaClass::Structural => structural += 1,
            }
            truth = apply_to_csr(&truth, &batch).expect("schedule batch applies");
            snapshots.push(truth.clone());
        }
        schedule.push((ScheduledUpdate { at_s, matrix, batch, fault }, faulted));
    }
    EvolvePlan {
        initial,
        schedule,
        snapshots,
        expected_value_only: value_only,
        expected_structural: structural,
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        shard_devices: 4,
        default_deadline_s: 1e-3,
        overload: OverloadConfig { target_p99_s: 8e-4, ..OverloadConfig::on() },
        ..ServeConfig::default()
    }
}

fn evolve_config() -> EvolveConfig {
    // A low threshold so the storm's structural batches trigger at least
    // one (bit-identity-verified) compaction; audit on so every commit
    // proves the incremental checksum repair equals a full recompute.
    EvolveConfig { side_capacity: 256, compact_threshold: 4, audit: true }
}

/// Closed-loop capacity of one server on the initial matrix, so the
/// open-loop rate can be expressed as a load fraction.
fn calibrate_rps(gpu: &GpuConfig, initial: &Csr) -> f64 {
    let mut server = SpmvServer::new(Gpu::new(gpu.clone()), serve_config());
    let h = server.register(initial).expect("calibration matrix registers");
    let t0 = server.clock_s();
    let n = 16;
    for i in 0..n {
        server
            .serve(Request { matrix: h, x: traffic_x(initial.ncols, i), deadline_s: None })
            .expect("calibration request serves");
    }
    n as f64 / (server.clock_s() - t0)
}

/// Runs the scenario and assembles the verdict.
pub fn run_evolve(gpu: &GpuConfig, cfg: &EvolveScenario) -> EvolveReport {
    let mut server = SpmvServer::new(Gpu::new(gpu.clone()), serve_config());
    // Register a probe first so the evolving matrix is not handle 0 —
    // catches handle/index mixups in the epoch plumbing.
    let probe = gen::random_uniform(64, 64, 400, cfg.seed + 1);
    server.register(&probe).expect("probe registers");
    let seed_matrix = gen::scale_free(cfg.nodes, cfg.edges, 2.0, cfg.seed);
    let matrix =
        server.register_evolving(&seed_matrix, evolve_config()).expect("evolving matrix registers");
    let plan = build_plan(cfg, matrix);

    // Open-loop Poisson arrivals at `load` x calibrated capacity.
    let rate = cfg.load * calibrate_rps(gpu, &plan.initial);
    let mut arr_rng = Pcg64::new(cfg.seed, 0xa117);
    let mut arrivals = Vec::new();
    let mut t = 0.0;
    let mut i = 0usize;
    loop {
        t += -arr_rng.range_f32(1e-9, 1.0).ln() as f64 / rate;
        if t >= cfg.duration_s {
            break;
        }
        arrivals.push(OpenRequest {
            request: Request {
                matrix,
                x: traffic_x(cfg.nodes, i),
                deadline_s: Some(1e-3),
            },
            priority: Priority::Normal,
            arrival_s: t,
        });
        i += 1;
    }

    let updates: Vec<ScheduledUpdate> = plan.schedule.iter().map(|(u, _)| u.clone()).collect();
    let (outcomes, update_results) = server.run_open_loop_evolving(arrivals, updates);

    let rows: Vec<UpdateRow> = plan
        .schedule
        .iter()
        .zip(&update_results)
        .map(|((u, faulted), r)| UpdateRow {
            at_s: u.at_s,
            class: classify_row(&plan, u),
            faulted: *faulted,
            outcome: r.clone(),
        })
        .collect();

    let mut checks = Vec::new();

    // 1. Rollback storm: every one of the N consecutive faulted batches
    // failed with the typed verification error, none was ever published,
    // and the served epoch was frozen across the whole storm (no clean
    // batch interleaves with the faulted run).
    let storm_n = cfg.fault_storm.max(1);
    let rollbacks: Vec<&ServeError> =
        update_results.iter().filter_map(|r| r.as_ref().err()).collect();
    let typed = rollbacks.len() == storm_n
        && rollbacks
            .iter()
            .all(|e| matches!(e, ServeError::Update(UpdateError::VerificationFailed { .. })));
    let faulted_idx: Vec<usize> = plan
        .schedule
        .iter()
        .enumerate()
        .filter_map(|(i, (_, f))| f.then_some(i))
        .collect();
    let consecutive = faulted_idx.windows(2).all(|w| w[1] == w[0] + 1);
    let stats = server.evolve_stats(matrix).expect("evolving matrix has stats");
    checks.push(Check {
        name: "fault storm: every injected batch rolls back",
        pass: typed && consecutive && stats.rollbacks == storm_n as u64,
        detail: format!(
            "{} consecutive fault(s), {} rollback(s): {rollbacks:?}",
            storm_n,
            rollbacks.len()
        ),
    });

    // 2. Every non-faulted batch committed; the published epoch equals
    // the snapshot chain's head (no unverified epoch exists).
    let committed = update_results.iter().filter(|r| r.is_ok()).count();
    let epoch = server.epoch(matrix).expect("evolving matrix has an epoch");
    checks.push(Check {
        name: "every clean batch commits a verified epoch",
        pass: committed as u64 == epoch
            && epoch as usize == plan.snapshots.len() - 1
            && stats.updates == epoch
            && stats.audits == epoch,
        detail: format!(
            "{committed} commits, epoch {epoch}, {} audits, {} snapshots",
            stats.audits,
            plan.snapshots.len()
        ),
    });

    // 3. Compaction happened (the storm's inserts cross the threshold)
    // and was verified bit-identical — a mismatch would have rolled back.
    let compacted = update_results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .filter(|o| o.report.compacted)
        .count();
    checks.push(Check {
        name: "compactions verified bit-identical to rebuild",
        pass: stats.compactions >= 1 && stats.compactions == compacted as u64,
        detail: format!("{} compaction(s)", stats.compactions),
    });

    // 4. Epoch-exact reads: every outcome carries exactly the epoch
    // committed at its arrival instant, and every served y matches that
    // epoch's f64 oracle — a torn read (mixing epochs) or a stale read
    // (serving an epoch older than admitted) would fail one of these.
    let epoch_at = |t: f64| {
        plan.schedule
            .iter()
            .zip(&update_results)
            .filter(|((u, _), r)| u.at_s <= t && r.is_ok())
            .count() as u64
    };
    let (mut verified, mut wrong_epoch, mut wrong_value) = (0u64, 0u64, 0u64);
    for o in &outcomes {
        if o.epoch != epoch_at(o.arrival_s) {
            wrong_epoch += 1;
        }
        let Ok(ok) = &o.result else { continue };
        let truth = &plan.snapshots[o.epoch as usize];
        let x = traffic_x(cfg.nodes, o.index);
        let oracle = truth.spmv_f64(&x).expect("oracle dims match");
        let bad = ok
            .y
            .iter()
            .zip(&oracle)
            .enumerate()
            .any(|(r, (a, e))| ((*a as f64) - e).abs() > oracle_tol(truth, r, *e));
        if bad {
            wrong_value += 1;
        } else {
            verified += 1;
        }
    }
    checks.push(Check {
        name: "zero torn or stale reads (epoch-exact oracle)",
        pass: wrong_epoch == 0 && wrong_value == 0 && verified > 0,
        detail: format!(
            "{verified} served reads epoch-verified, {wrong_epoch} wrong-epoch, {wrong_value} oracle mismatches"
        ),
    });

    // 5. The evolve layer's class counters agree with the schedule.
    checks.push(Check {
        name: "commit classes match the schedule",
        pass: stats.value_only_batches == plan.expected_value_only
            && stats.structural_batches == plan.expected_structural,
        detail: format!(
            "{} value-only / {} structural vs {} / {} scheduled",
            stats.value_only_batches,
            stats.structural_batches,
            plan.expected_value_only,
            plan.expected_structural
        ),
    });

    // 6. Availability through the storm: no window dips below the bar.
    let windows = window_stats(&outcomes, cfg.duration_s, cfg.windows);
    let min_avail = windows.iter().map(|w| w.availability).fold(1.0, f64::min);
    let offered = outcomes.len() as u64;
    let served = outcomes.iter().filter(|o| o.result.is_ok()).count() as u64;
    checks.push(Check {
        name: "availability holds through the update storm",
        pass: min_avail >= 0.9 && offered > 20,
        detail: format!(
            "min window availability {min_avail:.3} over {} windows, {served}/{offered} served",
            windows.len()
        ),
    });

    // 7. Incremental repair == full recompute, shown standalone: replay
    // the committed batches through an un-audited EvolvingMatrix and
    // compare its incrementally repaired checksums `==` (f64-exact)
    // against from-scratch builds of the final state.
    let incremental_exact = {
        let mut ev = EvolvingMatrix::new(
            plan.initial.clone(),
            EvolveConfig { audit: false, ..evolve_config() },
        );
        let mut touched_total = 0usize;
        for ((u, faulted), _) in plan.schedule.iter().zip(&update_results) {
            if *faulted {
                continue;
            }
            touched_total += ev.apply(&u.batch, None).expect("replay commits").touched_block_rows;
        }
        let exact = *ev.logical_sums() == AbftChecksums::build_logical(ev.delta())
            && *ev.base_sums() == AbftChecksums::build(ev.base());
        (exact, touched_total, ev.base().block_rows * committed)
    };
    checks.push(Check {
        name: "incremental ABFT repair exactly equals full recompute",
        pass: incremental_exact.0,
        detail: format!(
            "repaired {} block-rows where full recompute re-sums {}",
            incremental_exact.1, incremental_exact.2
        ),
    });

    // 8. The workload is a live graph: PageRank converges on both the
    // initial and the final adjacency, and the ranks actually moved.
    let gpu_dev = Gpu::new(gpu.clone());
    let (before, before_iters) = pagerank(&gpu_dev, &plan.initial, 0.85, 1e-5, 80);
    let (after, after_iters) =
        pagerank(&gpu_dev, plan.snapshots.last().expect("chain non-empty"), 0.85, 1e-5, 80);
    let shift: f32 = before.iter().zip(&after).map(|(a, b)| (a - b).abs()).sum();
    checks.push(Check {
        name: "pagerank converges before and after evolution",
        pass: before_iters < 80 && after_iters < 80 && shift > 0.0,
        detail: format!("{before_iters} -> {after_iters} iterations, rank L1 shift {shift:.4}"),
    });

    EvolveReport {
        updates: rows,
        availability: if offered == 0 { 1.0 } else { served as f64 / offered as f64 },
        min_window_availability: min_avail,
        verified_reads: verified,
        checks,
    }
}

/// PageRank of the graph whose edge `u -> v` is `adjacency[u][v] != 0`,
/// by damped power iteration on Spaden: `r <- d * (M r + dangling) +
/// (1 - d) / n` until the L1 delta drops below `tol` or `max_iters` is
/// reached. `M` is the column-stochastic transition matrix. Returns the
/// ranks and the iterations run.
fn pagerank(
    gpu: &Gpu,
    adjacency: &Csr,
    damping: f32,
    tol: f32,
    max_iters: usize,
) -> (Vec<f32>, usize) {
    let n = adjacency.nrows;
    let outdeg: Vec<u32> = (0..n).map(|u| adjacency.row_nnz(u) as u32).collect();
    // M[v][u] = 1/outdeg(u) for each edge u -> v.
    let mut m = Coo::new(n, n);
    for (u, &d) in outdeg.iter().enumerate() {
        for &v in adjacency.row(u).0 {
            m.push(v, u as u32, 1.0 / d.max(1) as f32);
        }
    }
    let engine = SpadenEngine::prepare(gpu, &m.to_csr());

    let mut rank = vec![1.0f32 / n as f32; n];
    let teleport = (1.0 - damping) / n as f32;
    let mut iterations = 0;
    for _ in 0..max_iters {
        iterations += 1;
        let run = engine.run(gpu, &rank);
        let dangling: f32 =
            (0..n).filter(|&u| outdeg[u] == 0).map(|u| rank[u]).sum::<f32>() / n as f32;
        let mut delta = 0.0f32;
        for (r, &y) in rank.iter_mut().zip(&run.y) {
            let new = damping * (y + dangling) + teleport;
            delta += (new - *r).abs();
            *r = new;
        }
        if delta < tol {
            break;
        }
    }
    (rank, iterations)
}

/// Recovers a schedule entry's class against its pre-update snapshot.
fn classify_row(plan: &EvolvePlan, u: &ScheduledUpdate) -> DeltaClass {
    // Walk the chain: the truth a batch saw is the snapshot at the count
    // of committed batches scheduled strictly before it.
    let mut epoch = 0usize;
    for (s, faulted) in &plan.schedule {
        if s.at_s >= u.at_s {
            break;
        }
        if !*faulted {
            epoch += 1;
        }
    }
    classify(&plan.snapshots[epoch.min(plan.snapshots.len() - 1)], &u.batch)
}

/// Runs the scenario on `gpu` and renders the update ledger, the
/// serving-during-updates window curve, the verdict checks, and the
/// one-line `EVOLVE` verdict string.
pub fn evolve_report(gpu: &GpuConfig, cfg: &EvolveScenario) -> (Vec<Table>, Verdict, EvolveReport) {
    let report = run_evolve(gpu, cfg);

    let mut ledger = Table::new(
        format!("Streaming update ledger ({})", gpu.name),
        &["t_us", "class", "fault", "outcome", "side Δ", "compact", "touched brs"],
    );
    for r in &report.updates {
        let (outcome, side, compact, touched) = match &r.outcome {
            Ok(o) => (
                format!("epoch {}", o.report.epoch),
                (o.report.apply.side_inserts + o.report.apply.side_updates).to_string(),
                if o.report.compacted { "yes" } else { "-" }.to_string(),
                o.report.touched_block_rows.to_string(),
            ),
            Err(e) => (format!("ROLLBACK: {e}"), "-".into(), "-".into(), "-".into()),
        };
        ledger.push_row(vec![
            format!("{:.1}", r.at_s * 1e6),
            format!("{:?}", r.class),
            if r.faulted { "injected" } else { "-" }.to_string(),
            outcome,
            side,
            compact,
            touched,
        ]);
    }

    let mut checks = Table::new(
        format!("Evolving-matrix verdict checks ({})", gpu.name),
        &["check", "pass", "evidence"],
    );
    for c in &report.checks {
        checks.push_row(vec![
            c.name.to_string(),
            if c.pass { "yes" } else { "NO" }.to_string(),
            c.detail.clone(),
        ]);
    }

    let verdict = Verdict::new(report.ok(), format!(
        "EVOLVE {}: {} epochs committed, {} reads epoch-verified, min window availability {:.3}, {}/{} checks passed",
        if report.ok() { "OK" } else { "FAIL" },
        report.updates.iter().filter(|r| r.outcome.is_ok()).count(),
        report.verified_reads,
        report.min_window_availability,
        report.checks.iter().filter(|c| c.pass).count(),
        report.checks.len(),
    ));
    (vec![ledger, checks], verdict, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spaden_serve::Rung;

    #[test]
    fn smoke_scenario_passes_every_check() {
        let (tables, verdict, report) = evolve_report(&GpuConfig::l40(), &EvolveScenario::smoke());
        assert!(report.ok(), "checks: {:#?}", report.checks);
        assert!(verdict.pass, "{verdict}");
        assert!(verdict.line.starts_with("EVOLVE OK"), "{verdict}");
        assert_eq!(tables.len(), 2);
        let ledger = tables[0].to_string();
        assert!(ledger.contains("ROLLBACK"), "{ledger}");
    }

    #[test]
    fn runs_are_deterministic() {
        let gpu = GpuConfig::l40();
        let cfg = EvolveScenario::smoke();
        let (_, a, ra) = evolve_report(&gpu, &cfg);
        let (_, b, rb) = evolve_report(&gpu, &cfg);
        assert_eq!(a, b);
        assert_eq!(ra.verified_reads, rb.verified_reads);
        assert_eq!(ra.min_window_availability, rb.min_window_availability);
    }

    #[test]
    fn served_rungs_include_the_fleet_until_an_update_lands() {
        // Sanity on the scenario's fixture: the sharded rung actually
        // participates (the epoch gate falls back, not locks out).
        let gpu = GpuConfig::l40();
        let cfg = EvolveScenario::smoke();
        let mut server = SpmvServer::new(Gpu::new(gpu.clone()), serve_config());
        server.register(&gen::random_uniform(64, 64, 400, cfg.seed + 1)).unwrap();
        let m = gen::scale_free(cfg.nodes, cfg.edges, 2.0, cfg.seed);
        let h = server.register_evolving(&m, evolve_config()).unwrap();
        let ok = server
            .serve(Request { matrix: h, x: traffic_x(cfg.nodes, 0), deadline_s: None })
            .unwrap();
        assert_eq!(ok.rung, Rung::Sharded);
        assert_eq!(ok.epoch, 0);
    }
}
