//! Runs one [`ChaosSchedule`] against the full stack and checks the
//! global invariant oracle.
//!
//! The orchestrator drives a real [`SpmvServer`] — sharded fleet,
//! batching window, overload control, durable evolving registration —
//! through the schedule by *segmenting* the simulated timeline at every
//! fault-control boundary (burst start/end, device kill, crash point).
//! At each boundary it recomputes the union of active fault planes and
//! applies them atomically via [`SpmvServer::set_injection`], then feeds
//! the segment's arrivals and updates through
//! [`SpmvServer::run_open_loop_evolving`] on the *same* server (the
//! open-loop clock is monotone across calls, so segmented execution is
//! just the schedule replayed with fault swaps in between).
//!
//! After the run the oracle checks, in order: epoch-exact f64-verified
//! reads (no unverified output was ever served), crash-point recovery
//! bit-identity, High-priority availability against the floor, and
//! counter conservation. Every violation is a human-readable string;
//! the digest makes per-seed determinism checkable by replay.

use crate::schedule::{ChaosSchedule, FaultEvent};
use crate::SHARD_DEVICES;
use spaden::{EvolveConfig, UpdateFault};
use spaden_gpusim::{
    DeviceFaultConfig, FaultConfig, Gpu, GpuConfig, InjectionConfig, SanConfig,
};
use spaden_serve::{
    BatchConfig, OpenOutcome, OpenRequest, OverloadConfig, Priority, Request, ScheduledUpdate,
    ServeConfig, ServeError, SpmvServer, UpdateOutcome, Weaken,
};
use spaden_sparse::delta::{apply_to_csr, Delta, DeltaBatch, UpdateError};
use spaden_sparse::{fingerprint, gen, Csr, Fnv, Pcg64};
use spaden_store::{inject, SnapshotPolicy, StorageFault, WalError};
use spaden_traffic::traffic_x;
use std::collections::BTreeSet;

/// Matrix dimension of the evolving scenario graph.
const NODES: usize = 96;
/// Initial edges of the scenario graph.
const EDGES: usize = 900;
/// Per-request deadline budget.
const DEADLINE_S: f64 = 1e-3;

/// One crash point's recovery audit.
#[derive(Debug, Clone)]
pub struct CrashCheck {
    /// Which scheduled update the crash followed.
    pub after_update: usize,
    /// Storage damage applied to the captured image, if any.
    pub storage: Option<StorageFault>,
    /// The injector's description of what it damaged (`None` when the
    /// image had nothing injectable — treated as a clean crash).
    pub injected: Option<String>,
    /// Epoch the scratch server recovered to.
    pub recovered_epoch: u64,
    /// Epoch the live server had committed at the crash instant.
    pub head_epoch: u64,
    /// Whether every recovery invariant held.
    pub ok: bool,
    /// Evidence line.
    pub detail: String,
}

/// Everything one scenario run produced, oracle verdicts included.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Invariant violations, empty on a clean run.
    pub violations: Vec<String>,
    /// FNV-1a digest over every outcome bit, update result, crash
    /// check, final counters, and the clock — the determinism
    /// certificate.
    pub digest: u64,
    /// Arrivals offered (base + flash crowds).
    pub offered: usize,
    /// Verified results served.
    pub served: usize,
    /// High-priority arrivals offered.
    pub high_offered: usize,
    /// High-priority arrivals served.
    pub high_served: usize,
    /// Scheduled updates that committed.
    pub commits: u64,
    /// Scheduled updates that rolled back.
    pub rollbacks: u64,
    /// Crash-point recovery audits performed.
    pub crash_checks: Vec<CrashCheck>,
}

/// `k` overwrites of existing entries with fresh values (mirrors the
/// evolve experiment's generator).
fn value_only_batch(truth: &Csr, rng: &mut Pcg64, k: usize) -> DeltaBatch {
    let mut deltas = Vec::new();
    let mut seen = BTreeSet::new();
    while deltas.len() < k {
        let row = rng.below_usize(truth.nrows);
        let (cols, _) = truth.row(row);
        if cols.is_empty() {
            continue;
        }
        let col = cols[rng.below_usize(cols.len())];
        if seen.insert((row as u32, col)) {
            deltas.push(Delta { row: row as u32, col, value: rng.range_f32(0.05, 1.0) });
        }
    }
    DeltaBatch::new(deltas, truth.nrows, truth.ncols).expect("generated batch is valid")
}

/// `k` new edges, `fresh` of them in blocks the base format lacks (so
/// the side buffer and, past the threshold, compaction are exercised).
fn structural_batch(truth: &Csr, rng: &mut Pcg64, k: usize, fresh: usize) -> DeltaBatch {
    let mut occupied = BTreeSet::new();
    for r in 0..truth.nrows {
        let (cols, _) = truth.row(r);
        for &c in cols {
            occupied.insert((r as u32 / 8, c / 8));
        }
    }
    let mut deltas = Vec::new();
    let mut seen = BTreeSet::new();
    let mut new_blocks = BTreeSet::new();
    while new_blocks.len() < fresh {
        let (br, bc) =
            (rng.below_usize(truth.nrows / 8) as u32, rng.below_usize(truth.ncols / 8) as u32);
        if !occupied.contains(&(br, bc)) && new_blocks.insert((br, bc)) {
            let (row, col) =
                (br * 8 + rng.below_usize(8) as u32, bc * 8 + rng.below_usize(8) as u32);
            seen.insert((row, col));
            deltas.push(Delta { row, col, value: rng.range_f32(0.05, 1.0) });
        }
    }
    while deltas.len() < k {
        let row = rng.below_usize(truth.nrows) as u32;
        let col = rng.below_usize(truth.ncols) as u32;
        let (cols, _) = truth.row(row as usize);
        if !cols.contains(&col) && seen.insert((row, col)) {
            deltas.push(Delta { row, col, value: rng.range_f32(0.05, 1.0) });
        }
    }
    DeltaBatch::new(deltas, truth.nrows, truth.ncols).expect("generated batch is valid")
}

/// Per-row oracle tolerance for f16 tensor-core accumulation (the bound
/// the traffic and evolve experiments verify against).
fn oracle_tol(csr: &Csr, row: usize, oracle: f64) -> f64 {
    let row_nnz = (csr.row_ptr[row + 1] - csr.row_ptr[row]) as f64;
    (2.0f64.powi(-10) * 3.0 * row_nnz.max(1.0) + 1e-4) * oracle.abs().max(1.0)
}

fn serve_config(weaken: Weaken) -> ServeConfig {
    ServeConfig {
        shard_devices: SHARD_DEVICES,
        default_deadline_s: DEADLINE_S,
        overload: OverloadConfig { target_p99_s: 8e-4, ..OverloadConfig::on() },
        batch: BatchConfig::on(),
        weaken,
        ..ServeConfig::default()
    }
}

fn evolve_config() -> EvolveConfig {
    EvolveConfig { side_capacity: 256, compact_threshold: 4, audit: true }
}

fn snapshot_policy() -> SnapshotPolicy {
    SnapshotPolicy { snapshot_every: 2 }
}

/// The union of fault planes active at instant `t` (max rate per field
/// over overlapping bursts — injection planes compose by escalation).
fn injection_at(sched: &ChaosSchedule, t: f64) -> InjectionConfig {
    let mut faults = FaultConfig { seed: sched.seed ^ 0xb17f, ..FaultConfig::disabled() };
    let mut device = DeviceFaultConfig { seed: sched.seed ^ 0xdef1, ..DeviceFaultConfig::disabled() };
    let mut san = SanConfig::disabled();
    for e in &sched.events {
        match *e {
            FaultEvent::BitBurst { from_s, until_s, rate, tc_only } if from_s <= t && t < until_s => {
                if tc_only {
                    faults.fragment_corrupt_rate = faults.fragment_corrupt_rate.max(rate);
                } else {
                    faults.mem_bit_flip_rate = faults.mem_bit_flip_rate.max(rate);
                    faults.fragment_corrupt_rate = faults.fragment_corrupt_rate.max(rate);
                    faults.stuck_lane_rate = faults.stuck_lane_rate.max(rate);
                    faults.dropped_atomic_rate = faults.dropped_atomic_rate.max(rate);
                }
            }
            FaultEvent::HazardBurst { from_s, until_s, rate } if from_s <= t && t < until_s => {
                faults.oob_read_rate = faults.oob_read_rate.max(rate);
                faults.uninit_read_rate = faults.uninit_read_rate.max(rate);
                faults.lane_race_rate = faults.lane_race_rate.max(rate);
                faults.invalid_atomic_rate = faults.invalid_atomic_rate.max(rate);
                faults.frag_misuse_rate = faults.frag_misuse_rate.max(rate);
                san = SanConfig::on();
            }
            FaultEvent::DeviceBurst { from_s, until_s, crash, hang, straggle }
                if from_s <= t && t < until_s =>
            {
                device.crash_rate = device.crash_rate.max(crash);
                device.hang_rate = device.hang_rate.max(hang);
                device.straggler_rate = device.straggler_rate.max(straggle);
            }
            _ => {}
        }
    }
    InjectionConfig { faults, device, san }
}

/// Runs one schedule end to end and returns the oracle's account.
/// `weaken` is the test-only verification hole the orchestrator must be
/// able to catch — production runs pass [`Weaken::None`].
pub fn run_schedule(gpu: &GpuConfig, sched: &ChaosSchedule, weaken: Weaken) -> ScenarioOutcome {
    let mut server = SpmvServer::new(Gpu::new(gpu.clone()), serve_config(weaken));
    // A static probe first, so the evolving matrix is not handle 0.
    let probe = gen::random_uniform(64, 64, 400, sched.seed + 1);
    server.register(&probe).expect("probe registers");
    let initial = gen::scale_free(NODES, EDGES, 2.0, sched.seed);
    let matrix = server
        .register_evolving_durable(&initial, evolve_config(), snapshot_policy())
        .expect("evolving matrix registers");

    // The update stream and its ground truth. A corrupted batch must
    // roll back, so the truth chain only advances on clean updates.
    let mut faulted_bit = vec![None::<u32>; sched.updates];
    for e in &sched.events {
        if let FaultEvent::UpdateCorruption { update, bit } = *e {
            if update < sched.updates {
                faulted_bit[update] = Some(bit);
            }
        }
    }
    let mut batch_rng = Pcg64::new(sched.seed, 0xba7c4);
    let mut truth = initial.clone();
    let mut snapshots = vec![initial];
    let mut updates = Vec::with_capacity(sched.updates);
    for (i, &bit_fault) in faulted_bit.iter().enumerate() {
        let batch = if i % 2 == 0 {
            value_only_batch(&truth, &mut batch_rng, 6)
        } else {
            structural_batch(&truth, &mut batch_rng, 5, 2)
        };
        let fault = bit_fault.map(|bit| UpdateFault { delta_index: 0, bit });
        if fault.is_none() {
            truth = apply_to_csr(&truth, &batch).expect("schedule batch applies");
            snapshots.push(truth.clone());
        }
        updates.push(ScheduledUpdate { at_s: sched.update_time(i), matrix, batch, fault });
    }

    // Arrivals: base Poisson stream plus any flash-crowd spikes, each
    // from its own stream keyed by the spike's start time (so removing
    // one event never perturbs another's arrivals).
    let base_rate = sched.arrivals as f64 / sched.duration_s;
    let mut arrivals: Vec<(usize, f64, Priority)> = Vec::new();
    let mut arr_rng = Pcg64::new(sched.seed, 0xa117);
    let mut t = 0.0;
    let mut salt = 0usize;
    loop {
        t += -(arr_rng.range_f32(1e-9, 1.0).ln() as f64) / base_rate;
        if t >= sched.duration_s {
            break;
        }
        let pri = match arr_rng.below_usize(10) {
            0..=2 => Priority::High,
            3..=7 => Priority::Normal,
            _ => Priority::Low,
        };
        arrivals.push((salt, t, pri));
        salt += 1;
    }
    for e in &sched.events {
        if let FaultEvent::FlashCrowd { from_s, until_s, factor } = *e {
            let mut rng = Pcg64::new(sched.seed ^ from_s.to_bits(), 0xf1a5);
            let rate = base_rate * (factor - 1.0).max(0.0);
            let mut t = from_s;
            let mut j = 0usize;
            loop {
                t += -(rng.range_f32(1e-9, 1.0).ln() as f64) / rate;
                if t >= until_s {
                    break;
                }
                // Flash-crowd salts live far above the base range.
                arrivals.push((1_000_000 + (from_s.to_bits() as usize % 500_000) + j, t, Priority::Low));
                j += 1;
            }
        }
    }
    arrivals.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));

    // Segment the timeline at every fault-control boundary.
    let mut bounds: Vec<f64> = vec![0.0];
    let mut crash_points: Vec<(f64, usize, Option<StorageFault>, u64)> = Vec::new();
    for e in &sched.events {
        match *e {
            FaultEvent::BitBurst { from_s, until_s, .. }
            | FaultEvent::HazardBurst { from_s, until_s, .. }
            | FaultEvent::DeviceBurst { from_s, until_s, .. } => {
                bounds.push(from_s);
                bounds.push(until_s);
            }
            FaultEvent::KillDevice { at_s, .. } => bounds.push(at_s),
            FaultEvent::CrashPoint { after_update, storage, fault_seed } => {
                let c = sched.update_time(after_update.min(sched.updates.saturating_sub(1))) + 1e-9;
                bounds.push(c);
                crash_points.push((c, after_update, storage, fault_seed));
            }
            FaultEvent::FlashCrowd { .. } | FaultEvent::UpdateCorruption { .. } => {}
        }
    }
    bounds.push(sched.duration_s + 1.0);
    bounds.sort_by(f64::total_cmp);
    bounds.dedup_by(|a, b| a.to_bits() == b.to_bits());
    crash_points.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut outcomes: Vec<(usize, OpenOutcome)> = Vec::new();
    let mut update_results: Vec<Result<UpdateOutcome, ServeError>> = Vec::new();
    let mut crash_checks: Vec<CrashCheck> = Vec::new();
    let mut killed: Vec<(f64, usize)> = sched
        .events
        .iter()
        .filter_map(|e| match *e {
            FaultEvent::KillDevice { at_s, device } => Some((at_s, device)),
            _ => None,
        })
        .collect();
    killed.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut arr_iter = arrivals.iter().peekable();
    let mut upd_iter = updates.iter().peekable();
    for w in bounds.windows(2) {
        let (t0, t1) = (w[0], w[1]);
        // Crash points landing at this boundary: audit recovery from
        // the durable image before any further traffic is served.
        while let Some(&(c, after, storage, fseed)) = crash_points.first() {
            if c > t0 {
                break;
            }
            crash_points.remove(0);
            crash_checks.push(audit_crash_point(
                gpu, &server, matrix, &snapshots, &updates, c, after, storage, fseed,
            ));
        }
        // Device kills scheduled at or before this boundary.
        while let Some(&(at, dev)) = killed.first() {
            if at > t0 {
                break;
            }
            killed.remove(0);
            server.kill_device(dev);
        }
        server.set_injection(&injection_at(sched, t0));

        let mut seg_salts = Vec::new();
        let mut seg_arrivals = Vec::new();
        while let Some(&&(s, at, pri)) = arr_iter.peek() {
            if at >= t1 {
                break;
            }
            arr_iter.next();
            seg_salts.push(s);
            seg_arrivals.push(OpenRequest {
                request: Request {
                    matrix,
                    x: traffic_x(NODES, s),
                    deadline_s: Some(DEADLINE_S),
                },
                priority: pri,
                arrival_s: at,
            });
        }
        let mut seg_updates = Vec::new();
        while let Some(&u) = upd_iter.peek() {
            if u.at_s >= t1 {
                break;
            }
            upd_iter.next();
            seg_updates.push(u.clone());
        }
        if seg_arrivals.is_empty() && seg_updates.is_empty() {
            continue;
        }
        let (seg_out, seg_upd) = server.run_open_loop_evolving(seg_arrivals, seg_updates);
        outcomes.extend(seg_out.into_iter().map(|o| (seg_salts[o.index], o)));
        update_results.extend(seg_upd);
    }

    // ---- The global invariant oracle. ----
    let mut violations = Vec::new();

    // I1 + I2: epoch-exact reads against the f64 oracle — no unverified
    // output was ever served, no torn or stale epoch was ever read.
    let epoch_at = |t: f64| {
        updates
            .iter()
            .zip(&update_results)
            .filter(|(u, r)| u.at_s <= t && r.is_ok())
            .count() as u64
    };
    let mut served = 0usize;
    let (mut high_offered, mut high_served) = (0usize, 0usize);
    for (s, o) in &outcomes {
        if o.priority == Priority::High {
            high_offered += 1;
        }
        if o.epoch != epoch_at(o.arrival_s) {
            violations.push(format!(
                "arrival {s} admitted on epoch {} but epoch {} was committed at t={:.1}us",
                o.epoch,
                epoch_at(o.arrival_s),
                o.arrival_s * 1e6
            ));
        }
        let Ok(ok) = &o.result else { continue };
        served += 1;
        if o.priority == Priority::High {
            high_served += 1;
        }
        let truth = &snapshots[(o.epoch as usize).min(snapshots.len() - 1)];
        let x = traffic_x(NODES, *s);
        let oracle = truth.spmv_f64(&x).expect("oracle dims match");
        let bad = ok
            .y
            .iter()
            .zip(&oracle)
            .enumerate()
            .find(|(r, (a, e))| ((**a as f64) - **e).abs() > oracle_tol(truth, *r, **e));
        if let Some((row, (a, e))) = bad {
            violations.push(format!(
                "arrival {s} served unverified output: row {row} = {a} vs oracle {e:.6} \
                 (epoch {}, rung {})",
                o.epoch,
                ok.rung.name()
            ));
        }
    }

    // I3: every crash point recovered bit-identically.
    for c in &crash_checks {
        if !c.ok {
            violations.push(format!(
                "crash point after update {} ({}): {}",
                c.after_update,
                c.storage.map_or("clean", |f| f.name()),
                c.detail
            ));
        }
    }

    // I4: High-priority availability floor. The brownout ladder and the
    // admission queue are supposed to protect this class through every
    // burst the default profile can schedule.
    if high_offered > 0 && (high_served as f64) < sched.high_floor * high_offered as f64 {
        violations.push(format!(
            "High-priority availability {}/{} below floor {}",
            high_served, high_offered, sched.high_floor
        ));
    }

    // I5: conservation — one outcome per arrival, one result per
    // update, faulted updates roll back, clean updates commit, and the
    // published epoch equals the clean-commit count.
    if outcomes.len() != arrivals.len() {
        violations.push(format!(
            "{} arrivals produced {} outcomes",
            arrivals.len(),
            outcomes.len()
        ));
    }
    if update_results.len() != updates.len() {
        violations.push(format!(
            "{} scheduled updates produced {} results",
            updates.len(),
            update_results.len()
        ));
    }
    let mut commits = 0u64;
    let mut rollbacks = 0u64;
    for (u, r) in updates.iter().zip(&update_results) {
        match (&u.fault, r) {
            (None, Ok(_)) => commits += 1,
            (Some(_), Err(ServeError::Update(UpdateError::VerificationFailed { .. }))) => {
                rollbacks += 1
            }
            (None, Err(e)) => {
                violations.push(format!("clean update at {:.1}us failed: {e}", u.at_s * 1e6))
            }
            (Some(_), other) => violations.push(format!(
                "corrupted update at {:.1}us was not rolled back as verification-failed: {other:?}",
                u.at_s * 1e6
            )),
        }
    }
    let head = server.epoch(matrix).expect("evolving matrix has an epoch");
    if head != commits || head as usize != snapshots.len() - 1 {
        violations.push(format!(
            "published epoch {head} vs {commits} commits / {} truth snapshots",
            snapshots.len()
        ));
    }
    let stats = server.stats();
    if stats.update_rollbacks != rollbacks {
        violations.push(format!(
            "server counted {} rollbacks, oracle saw {rollbacks}",
            stats.update_rollbacks
        ));
    }

    // The determinism digest: every bit the scenario produced.
    let mut d = Fnv::new();
    for (s, o) in &outcomes {
        d.u64(*s as u64);
        d.u64(o.epoch);
        d.f64(o.arrival_s);
        d.f64(o.done_s);
        match &o.result {
            Ok(ok) => {
                d.u64(1);
                d.u64(ok.rung as u64);
                for v in &ok.y {
                    d.bytes(&v.to_bits().to_le_bytes());
                }
            }
            Err(e) => {
                d.u64(2);
                d.bytes(e.to_string().as_bytes());
            }
        }
    }
    for r in &update_results {
        match r {
            Ok(o) => d.u64(o.report.epoch),
            Err(e) => d.bytes(e.to_string().as_bytes()),
        }
    }
    for c in &crash_checks {
        d.u64(c.recovered_epoch);
        d.u64(c.head_epoch);
        d.u64(u64::from(c.ok));
    }
    d.u64(stats.ok_total());
    d.u64(stats.shed);
    d.u64(stats.update_rollbacks);
    d.f64(server.clock_s());

    ScenarioOutcome {
        violations,
        digest: d.finish(),
        offered: arrivals.len(),
        served,
        high_offered,
        high_served,
        commits,
        rollbacks,
        crash_checks,
    }
}

/// Captures the live server's durable image at a crash instant,
/// optionally damages it, recovers a scratch server from it, and holds
/// the result to bit-identity with the truth chain.
#[allow(clippy::too_many_arguments)]
fn audit_crash_point(
    gpu: &GpuConfig,
    server: &SpmvServer,
    matrix: spaden_serve::MatrixHandle,
    snapshots: &[Csr],
    updates: &[ScheduledUpdate],
    crash_s: f64,
    after_update: usize,
    storage: Option<StorageFault>,
    fault_seed: u64,
) -> CrashCheck {
    let head_epoch =
        updates.iter().filter(|u| u.at_s < crash_s && u.fault.is_none()).count() as u64;
    let mut image = server.durable_image(matrix).expect("evolving matrix is durable");
    let injected = storage.and_then(|f| inject(&mut image, f, fault_seed));
    let effective = injected.is_some().then_some(storage).flatten();

    let fail = |detail: String| CrashCheck {
        after_update,
        storage,
        injected: injected.clone(),
        recovered_epoch: 0,
        head_epoch,
        ok: false,
        detail,
    };

    // Recovery itself must succeed from every image this schedule can
    // produce — damaged tails truncate, damaged snapshots fall back —
    // with one carve-out: snapshot rot on an image whose *only*
    // populated slot is the rotten one leaves nothing to fall back to.
    // The contract there is a detected refusal (CRC mismatch surfaced
    // as SnapshotCorrupt), never a silently wrong matrix.
    let populated = image.slots.iter().flatten().count();
    let mut scratch = SpmvServer::new(Gpu::new(gpu.clone()), ServeConfig::default());
    let (h, report) = match scratch.recover_evolving(&image, snapshot_policy()) {
        Ok(v) => v,
        Err(ServeError::Durability(e @ WalError::SnapshotCorrupt { .. }))
            if effective == Some(StorageFault::SnapshotBitRot) && populated == 1 =>
        {
            return CrashCheck {
                after_update,
                storage,
                injected,
                recovered_epoch: 0,
                head_epoch,
                ok: true,
                detail: format!("sole snapshot slot rotten; recovery refused loudly: {e}"),
            };
        }
        Err(e) => return fail(format!("recovery failed: {e}")),
    };
    let rec = report.recovered_epoch;

    // Epoch bounds per damage kind. A clean image (or one the injector
    // could not damage) must reach the head exactly; duplicate frames
    // and snapshot rot are recoverable to the head; tail damage may
    // truncate but never past the head.
    let epoch_ok = match effective {
        None | Some(StorageFault::DuplicateFrame) | Some(StorageFault::SnapshotBitRot) => {
            rec == head_epoch
        }
        Some(_) => rec <= head_epoch,
    };
    if !epoch_ok {
        return fail(format!("recovered epoch {rec} vs head {head_epoch} ({report:?})"));
    }
    if scratch.epoch(h) != Some(rec) {
        return fail(format!("server epoch {:?} != recovered {rec}", scratch.epoch(h)));
    }

    // Bit-identity: the recovered matrix fingerprints equal to the
    // truth chain at the recovered epoch.
    let truth = &snapshots[(rec as usize).min(snapshots.len() - 1)];
    if scratch.fingerprint_of(h) != Some(fingerprint(truth)) {
        return fail(format!("recovered fingerprint differs from truth at epoch {rec}"));
    }

    // And it serves: a probe read on the scratch server must pass the
    // f64 oracle of the recovered epoch.
    let x = traffic_x(truth.ncols, 0xc7a5);
    let ok = match scratch.serve(Request { matrix: h, x: x.clone(), deadline_s: None }) {
        Ok(ok) => ok,
        Err(e) => return fail(format!("probe read after recovery failed: {e}")),
    };
    let oracle = truth.spmv_f64(&x).expect("oracle dims match");
    if let Some((row, (a, e))) = ok
        .y
        .iter()
        .zip(&oracle)
        .enumerate()
        .find(|(r, (a, e))| ((**a as f64) - **e).abs() > oracle_tol(truth, *r, **e))
    {
        return fail(format!("probe read row {row} = {a} vs oracle {e:.6} at epoch {rec}"));
    }

    CrashCheck {
        after_update,
        storage,
        injected,
        recovered_epoch: rec,
        head_epoch,
        ok: true,
        detail: format!(
            "recovered to epoch {rec} of {head_epoch} (slot {}, {} replayed, fell_back {})",
            report.used_slot, report.replayed, report.fell_back
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChaosProfile;

    #[test]
    fn clean_schedule_holds_every_invariant() {
        let sched = ChaosProfile::default().schedule(11);
        let out = run_schedule(&GpuConfig::l40(), &sched, Weaken::None);
        assert!(out.violations.is_empty(), "{:#?}", out.violations);
        assert!(out.served > 0);
        assert_eq!(out.commits + out.rollbacks, sched.updates as u64);
    }

    #[test]
    fn runs_are_bit_deterministic() {
        let sched = ChaosProfile::default().schedule(12);
        let a = run_schedule(&GpuConfig::l40(), &sched, Weaken::None);
        let b = run_schedule(&GpuConfig::l40(), &sched, Weaken::None);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn weakened_build_is_caught_under_hot_bit_bursts() {
        // The demo profile reaches the CSR rung with corrupt results;
        // with its verification skipped the oracle must object on one
        // of the first few seeds (tc-only bursts spare the CSR rung,
        // so not every single seed can catch it).
        let gpu = GpuConfig::l40();
        let caught = (1..=6).find_map(|seed| {
            let sched = ChaosProfile::demo().schedule(seed);
            let out = run_schedule(&gpu, &sched, Weaken::SkipCsrVerify);
            out.violations.iter().any(|v| v.contains("unverified output")).then_some(sched)
        });
        let sched = caught.expect("weakened build escaped the oracle on every seed");
        // The same schedule with verification intact is clean.
        let clean = run_schedule(&gpu, &sched, Weaken::None);
        assert!(clean.violations.is_empty(), "{:#?}", clean.violations);
    }
}
