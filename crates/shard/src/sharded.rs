//! nnz-balanced sharding of a prepared matrix and the event-driven
//! scheduler that drives the shards across a [`DeviceFleet`].
//!
//! # Partitioning
//!
//! [`ShardedMatrix::try_new`] converts the matrix to bitBSR **once**,
//! builds its ABFT checksums **once**, and cuts both into contiguous
//! block-row shards with
//! [`spaden_sparse::partition::partition_balanced`] on the per-block-row
//! nonzero counts. Boundaries land on even block-row indices so each
//! shard's local warp pairing equals the full matrix's pairing — with
//! zero fault rates the recombined `y` is bit-identical to a
//! single-device run. Shard checksums are *sliced* from the full
//! matrix's checksums (never recomputed), so a corrupted slice cannot
//! re-derive checksums that bless its own corruption.
//!
//! # Scheduling
//!
//! [`ShardedMatrix::execute`] runs a deterministic event-driven loop on
//! the simulated clock:
//!
//! * ready shards launch on idle alive devices, fastest first (an EWMA
//!   slow-score learned from observed/expected run times);
//! * a shard whose launch fails transiently (ABFT correction exhausted)
//!   or times out (hang) is retried with exponential backoff, up to
//!   [`ShardPolicy::max_attempts`];
//! * a crashed device surfaces at its heartbeat (one expected duration);
//!   its shard is redistributed to survivors without consuming an
//!   attempt, and the remaining work is re-priced against the deadline
//!   budget — better [`ShardError::DeadlineExceeded`] now than a result
//!   after the deadline;
//! * a shard still running past
//!   [`ShardPolicy::speculate_after_factor`] × its expected duration
//!   gets a speculative twin on the fastest idle device; first verified
//!   result wins and the loser's kernel is killed.
//!
//! Every completed shard is ABFT-verified against its sliced checksums
//! before its rows are accepted, so the scheduler never recombines an
//! unverified partial result.

use crate::cache::{PartitionCache, PartitionKey, PartitionPlan};
use crate::fleet::DeviceFleet;
use spaden::gpusim::{DeviceEvent, Gpu, GpuConfig, KernelCounters};
use spaden::sparse::fingerprint::fingerprint;
use spaden::sparse::gen::BLOCK_DIM;
use spaden::sparse::partition::partition_balanced;
use spaden::sparse::Csr;
use spaden::{EngineError, SpadenConfig, SpadenEngine, SpmvRun};
use std::ops::Range;
use std::sync::Arc;

/// Retry, timeout, speculation, and data-movement knobs of the shard
/// scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardPolicy {
    /// Attempts per shard before [`ShardError::AttemptsExhausted`].
    /// Crash redistributions do not consume attempts (they are bounded
    /// by fleet size); hangs and failed verifications do.
    pub max_attempts: usize,
    /// Base of the exponential retry backoff (simulated seconds).
    pub backoff_base_s: f64,
    /// A launch still running after this multiple of its expected
    /// duration is declared hung: the kernel is killed, the device is
    /// reclaimed, and the shard retries.
    pub hang_timeout_factor: f64,
    /// Enables speculative re-execution of stragglers.
    pub speculation: bool,
    /// A launch still running after this multiple of its expected
    /// duration gets a speculative twin (if an idle device exists).
    pub speculate_after_factor: f64,
    /// Modelled host-to-device bandwidth (bytes/s) charged when a shard
    /// first runs on a device it is not resident on.
    pub transfer_bw: f64,
}

impl Default for ShardPolicy {
    fn default() -> Self {
        ShardPolicy {
            max_attempts: 4,
            backoff_base_s: 1e-6,
            hang_timeout_factor: 16.0,
            speculation: true,
            speculate_after_factor: 2.5,
            transfer_bw: 25e9,
        }
    }
}

/// Typed failure of a sharded request. Every request ends in a verified
/// result or one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardError {
    /// A shard failed permanently (shape mismatch, validation) — no
    /// retry can fix the request itself.
    Engine(EngineError),
    /// Every device crashed before the request finished.
    AllDevicesLost {
        /// Shards whose verified results had already arrived.
        completed: usize,
        /// Total shards of the request.
        shards: usize,
    },
    /// One shard burned through its retry budget.
    AttemptsExhausted {
        /// The shard that gave up.
        shard: usize,
        /// Attempts consumed.
        attempts: usize,
        /// The last engine error, when the attempt failed verification
        /// rather than timing out.
        last: Option<EngineError>,
    },
    /// After a crash, the surviving capacity cannot finish the
    /// remaining work inside the deadline budget.
    DeadlineExceeded {
        /// The request's budget (simulated seconds).
        budget_s: f64,
        /// Projected completion under surviving capacity.
        projected_s: f64,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Engine(e) => write!(f, "shard engine failure: {e}"),
            ShardError::AllDevicesLost { completed, shards } => {
                write!(f, "all devices lost with {completed}/{shards} shards complete")
            }
            ShardError::AttemptsExhausted { shard, attempts, last } => match last {
                Some(e) => write!(f, "shard {shard} exhausted {attempts} attempts (last: {e})"),
                None => write!(f, "shard {shard} exhausted {attempts} attempts (timeouts)"),
            },
            ShardError::DeadlineExceeded { budget_s, projected_s } => write!(
                f,
                "surviving capacity projects {projected_s:.2e}s against a {budget_s:.2e}s budget"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

impl ShardError {
    /// Collapses the shard-level failure onto the serving layer's
    /// [`EngineError`] taxonomy (used by the failover ladder).
    pub fn to_engine_error(&self) -> EngineError {
        match self {
            ShardError::Engine(e) => e.clone(),
            ShardError::AllDevicesLost { .. } => EngineError::DeviceLost { survivors: 0 },
            ShardError::AttemptsExhausted { last, .. } => last
                .clone()
                .unwrap_or(EngineError::VerificationFailed { block_rows: 0 }),
            // The ladder maps this onto its own deadline accounting.
            ShardError::DeadlineExceeded { .. } => EngineError::DeviceLost { survivors: 0 },
        }
    }
}

/// One contiguous block-row shard of the matrix, with its own prepared
/// engine and sliced checksums.
pub struct Shard {
    /// Block-row range in the full matrix.
    pub block_rows: Range<usize>,
    /// Output-row range in the full `y`.
    pub rows: Range<usize>,
    /// Nonzeros in the shard.
    pub nnz: usize,
    /// Device bytes of the shard's format (transfer pricing).
    pub bytes: u64,
    /// Expected fault-free execution time (seconds), measured once at
    /// partition time on a clean staging device.
    pub est_s: f64,
    engine: SpadenEngine,
}

impl Shard {
    /// The shard's prepared engine (tests, inspection).
    pub fn engine(&self) -> &SpadenEngine {
        &self.engine
    }
}

/// What happened during one sharded request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardRunReport {
    /// Shards of the request.
    pub shards: usize,
    /// Fleet size the request ran on.
    pub devices: usize,
    /// Devices that crashed during the request.
    pub devices_lost: usize,
    /// Shard retries (hangs, failed verifications).
    pub retries: u64,
    /// Shards redistributed off crashed devices.
    pub reassigned: u64,
    /// Hung launches detected by timeout.
    pub hangs_detected: u64,
    /// Launches that straggled.
    pub stragglers: u64,
    /// Speculative twin launches.
    pub speculative_launches: u64,
    /// Requests where the speculative twin delivered the result.
    pub speculative_wins: u64,
}

/// A verified sharded SpMV result.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// The recombined output vector.
    pub y: Vec<f32>,
    /// Kernel counters merged across every winning shard launch.
    pub counters: KernelCounters,
    /// Simulated wall time of the whole request (launch to last verified
    /// shard, including retries, backoff, and transfers).
    pub elapsed_s: f64,
    /// Scheduler-level event counts.
    pub report: ShardRunReport,
}

enum ExecKind {
    /// The launch finishes at `fire_s` with `outcome` (boxed: an
    /// `SpmvRun` dwarfs the payload-free variants).
    Finish(Box<Result<SpmvRun, EngineError>>),
    /// The launch never finishes; the timeout surfaces it at `fire_s`.
    Timeout,
    /// The device died; the heartbeat notices at `fire_s`.
    Crash,
}

struct Exec {
    shard: usize,
    device: usize,
    start_s: f64,
    fire_s: f64,
    kind: ExecKind,
    speculative: bool,
}

/// A matrix prepared for multi-device execution: nnz-balanced shards
/// plus the scheduler policy.
pub struct ShardedMatrix {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    shards: Vec<Shard>,
    policy: ShardPolicy,
    /// `resident[shard][device]`: whether the shard's buffers are
    /// already on the device (first launch pays the transfer).
    resident: Vec<Vec<bool>>,
}

impl ShardedMatrix {
    /// Prepares `csr` as (at most) `nshards` block-row shards. The
    /// conversion and checksum build happen once on a clean staging
    /// device; every shard is a slice of those, and each shard's
    /// expected duration is measured with one fault-free staging run.
    pub fn try_new(
        config: &GpuConfig,
        csr: &Csr,
        nshards: usize,
        policy: ShardPolicy,
    ) -> Result<Self, EngineError> {
        Self::build(config, csr, nshards, policy, None)
    }

    /// [`ShardedMatrix::try_new`] backed by a [`PartitionCache`]: a
    /// repeat registration of an already-partitioned matrix (same
    /// fingerprint, GPU, and shard count) reuses the cached block-row
    /// ranges, sliced checksums, and per-shard duration estimates —
    /// skipping the balance pass and every staging measurement run.
    pub fn try_new_cached(
        config: &GpuConfig,
        csr: &Csr,
        nshards: usize,
        policy: ShardPolicy,
        cache: &mut PartitionCache,
    ) -> Result<Self, EngineError> {
        Self::build(config, csr, nshards, policy, Some(cache))
    }

    fn build(
        config: &GpuConfig,
        csr: &Csr,
        nshards: usize,
        policy: ShardPolicy,
        cache: Option<&mut PartitionCache>,
    ) -> Result<Self, EngineError> {
        assert!(nshards > 0, "nshards must be positive");
        let mut staging_cfg = config.clone();
        staging_cfg.faults = spaden::gpusim::FaultConfig::disabled();
        let staging = Gpu::new(staging_cfg);
        let full = SpadenEngine::try_prepare(&staging, csr)?;
        let format = full.format();

        let mut cache = cache;
        let key = cache
            .as_ref()
            .map(|_| PartitionKey::new(&fingerprint(csr), config, nshards));
        let cached: Option<Arc<PartitionPlan>> = match (&mut cache, &key) {
            (Some(c), Some(k)) => c.get(k),
            _ => None,
        };

        // On a cache miss the plan is computed here (balance pass, one
        // staging measurement run per shard) and the engines built along
        // the way are kept; a hit skips all of that and only rebuilds the
        // engines from the cached ranges + checksums.
        let (plan, mut prebuilt): (Arc<PartitionPlan>, Vec<Option<SpadenEngine>>) = match cached {
            Some(plan) => {
                let n = plan.ranges.len();
                (plan, (0..n).map(|_| None).collect())
            }
            None => {
                // Per-block-row nonzero counts drive the balance;
                // boundaries on even block-rows keep the paired kernel's
                // warp mapping intact.
                let weights: Vec<u32> = (0..format.block_rows)
                    .map(|br| {
                        let b0 = format.block_row_ptr[br] as usize;
                        let b1 = format.block_row_ptr[br + 1] as usize;
                        format.block_offsets[b1] - format.block_offsets[b0]
                    })
                    .collect();
                let ranges = partition_balanced(&weights, nshards, 2);
                let x0 = vec![0.0f32; csr.ncols];
                let mut sums = Vec::with_capacity(ranges.len());
                let mut est_s = Vec::with_capacity(ranges.len());
                let mut engines = Vec::with_capacity(ranges.len());
                for r in &ranges {
                    let fmt = format.slice_block_rows(r.start, r.end);
                    let s = full.abft().slice_block_rows(r.start, r.end);
                    let engine = SpadenEngine::try_from_parts(
                        &staging,
                        fmt,
                        s.clone(),
                        SpadenConfig::default(),
                    )?;
                    est_s.push(engine.try_run_checked(&staging, &x0)?.time.seconds);
                    sums.push(s);
                    engines.push(Some(engine));
                }
                let plan = Arc::new(PartitionPlan { ranges, sums, est_s });
                if let (Some(c), Some(k)) = (&mut cache, key) {
                    c.insert(k, plan.clone());
                }
                (plan, engines)
            }
        };

        let mut shards = Vec::with_capacity(plan.ranges.len());
        for (i, r) in plan.ranges.iter().enumerate() {
            let engine = match prebuilt[i].take() {
                Some(e) => e,
                None => SpadenEngine::try_from_parts(
                    &staging,
                    format.slice_block_rows(r.start, r.end),
                    plan.sums[i].clone(),
                    SpadenConfig::default(),
                )?,
            };
            let fmt = engine.format();
            let nnz = fmt.nnz();
            let bytes = fmt.bytes() as u64;
            let rows = r.start * BLOCK_DIM..r.start * BLOCK_DIM + fmt.nrows;
            shards.push(Shard {
                block_rows: r.clone(),
                rows,
                nnz,
                bytes,
                est_s: plan.est_s[i],
                engine,
            });
        }
        Ok(ShardedMatrix {
            nrows: csr.nrows,
            ncols: csr.ncols,
            nnz: csr.nnz(),
            shards,
            policy,
            resident: Vec::new(),
        })
    }

    /// Output rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Required `x` length.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Nonzeros of the full matrix.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The shards, in block-row order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The scheduler policy in force.
    pub fn policy(&self) -> &ShardPolicy {
        &self.policy
    }

    /// Expected fault-free duration of the whole request on `devices`
    /// idle devices (the serving layer prices deadlines with this).
    pub fn est_s(&self, devices: usize) -> f64 {
        let total: f64 = self.shards.iter().map(|s| s.est_s).sum();
        total / devices.max(1) as f64
    }

    /// Runs `y = A x` across the fleet. Returns a verified result or a
    /// typed [`ShardError`]; never a silently wrong `y`.
    pub fn execute(
        &mut self,
        fleet: &mut DeviceFleet,
        x: &[f32],
        deadline_s: Option<f64>,
    ) -> Result<ShardedRun, ShardError> {
        if x.len() != self.ncols {
            return Err(ShardError::Engine(EngineError::ShapeMismatch {
                expected: self.ncols,
                got: x.len(),
            }));
        }
        let nshards = self.shards.len();
        let ndev = fleet.len();
        if self.resident.len() != nshards || self.resident.first().map(Vec::len) != Some(ndev) {
            self.resident = vec![vec![false; ndev]; nshards];
        }
        let mut report =
            ShardRunReport { shards: nshards, devices: ndev, ..ShardRunReport::default() };
        if nshards == 0 {
            // Degenerate empty matrix: nothing to schedule.
            return Ok(ShardedRun {
                y: vec![0.0; self.nrows],
                counters: KernelCounters::default(),
                elapsed_s: 0.0,
                report,
            });
        }

        let mut t = 0.0f64;
        let mut parts: Vec<Option<Vec<f32>>> = vec![None; nshards];
        let mut done = 0usize;
        let mut attempts = vec![0usize; nshards];
        let mut last_err: Vec<Option<EngineError>> = vec![None; nshards];
        // (shard, ready_at): shards waiting for a device (backoff included).
        let mut pending: Vec<(usize, f64)> = (0..nshards).map(|s| (s, 0.0)).collect();
        let mut running: Vec<Exec> = Vec::new();
        let mut busy = vec![false; ndev];
        // EWMA of observed/expected duration per device; lower is faster.
        let mut slow = vec![1.0f64; ndev];
        let mut counters = KernelCounters::default();

        loop {
            // Launch phase: ready shards onto idle alive devices,
            // fastest device first, lowest shard first.
            while let Some(pi) = pending
                .iter()
                .enumerate()
                .filter(|(_, &(_, ready))| ready <= t)
                .min_by_key(|(_, &(s, _))| s)
                .map(|(i, _)| i)
            {
                let Some(dev) = idle_device(fleet, &busy, &slow) else {
                    break;
                };
                let (shard, _) = pending.swap_remove(pi);
                let exec = self.launch(fleet, dev, shard, x, t, false, &mut report);
                busy[dev] = true;
                running.push(exec);
            }

            // Speculation phase: twin the slowest overdue launch if a
            // device is idle and nothing pending is ready before it.
            if self.policy.speculation {
                while let Some(dev) = idle_device(fleet, &busy, &slow) {
                    let spec_at = |e: &Exec| {
                        e.start_s + self.policy.speculate_after_factor * self.shards[e.shard].est_s
                    };
                    let candidate = running
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| {
                            !twin_running(&running, e.shard, e.device) && spec_at(e) < e.fire_s
                        })
                        .min_by(|(_, a), (_, b)| {
                            spec_at(a).total_cmp(&spec_at(b)).then(a.shard.cmp(&b.shard))
                        })
                        .map(|(i, _)| i);
                    let Some(ci) = candidate else { break };
                    let twin_t = spec_at(&running[ci]).max(t);
                    // A pending shard becoming ready first has priority
                    // over speculation; let the main loop handle it.
                    if pending.iter().any(|&(_, ready)| ready <= twin_t) && twin_t > t {
                        break;
                    }
                    // Nothing else can change before `twin_t` on an idle
                    // fleet, so advancing the clock to it is safe.
                    if next_fire(&running).map(|f| f < twin_t).unwrap_or(false) {
                        break; // an event fires first; re-evaluate after it
                    }
                    t = twin_t;
                    let shard = running[ci].shard;
                    let exec = self.launch(fleet, dev, shard, x, t, true, &mut report);
                    busy[dev] = true;
                    running.push(exec);
                }
            }

            // An idle device plus a backoff expiring before the next
            // event: advance the clock to the backoff and launch, rather
            // than letting the shard sit through an unrelated event.
            if idle_device(fleet, &busy, &slow).is_some() {
                if let Some(ready) = pending.iter().map(|&(_, r)| r).min_by(f64::total_cmp) {
                    if ready > t && next_fire(&running).map(|f| ready < f).unwrap_or(true) {
                        t = ready;
                        continue;
                    }
                }
            }

            if running.is_empty() {
                if done == nshards {
                    break;
                }
                if fleet.alive_count() == 0 {
                    return Err(ShardError::AllDevicesLost { completed: done, shards: nshards });
                }
                match pending.iter().map(|&(_, r)| r).min_by(f64::total_cmp) {
                    // Idle until the earliest backoff expires.
                    Some(ready) => {
                        t = t.max(ready);
                        continue;
                    }
                    None => unreachable!("incomplete shards are pending or running"),
                }
            }

            // Pop the earliest event (ties: shard, then device — fully
            // deterministic replay).
            let ei = running
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.fire_s
                        .total_cmp(&b.fire_s)
                        .then(a.shard.cmp(&b.shard))
                        .then(a.device.cmp(&b.device))
                })
                .map(|(i, _)| i)
                .expect("running is non-empty");
            let exec = running.swap_remove(ei);
            t = exec.fire_s;
            busy[exec.device] = false;
            fleet.device_mut(exec.device).counters_mut().busy_s += t - exec.start_s;

            let shard = exec.shard;
            let est = self.shards[shard].est_s;
            match exec.kind {
                ExecKind::Finish(outcome) => {
                    let ratio = ((t - exec.start_s) / est.max(1e-30)).clamp(0.1, 100.0);
                    slow[exec.device] = 0.7 * slow[exec.device] + 0.3 * ratio;
                    if parts[shard].is_some() {
                        continue; // the twin already delivered
                    }
                    match *outcome {
                        Ok(run) => {
                            let d = fleet.device_mut(exec.device);
                            d.counters_mut().completed += 1;
                            d.counters_mut().kernel.merge(&run.counters);
                            if exec.speculative {
                                d.counters_mut().speculative_wins += 1;
                                report.speculative_wins += 1;
                            }
                            counters.merge(&run.counters);
                            parts[shard] = Some(run.y);
                            done += 1;
                            // Kill the losing twin, reclaiming its device.
                            if let Some(ti) = running.iter().position(|e| e.shard == shard) {
                                let twin = running.swap_remove(ti);
                                busy[twin.device] = false;
                                fleet.device_mut(twin.device).counters_mut().busy_s +=
                                    t - twin.start_s;
                            }
                            if done == nshards {
                                break;
                            }
                        }
                        Err(e) if !e.is_transient() => {
                            return Err(ShardError::Engine(e));
                        }
                        Err(e) => {
                            last_err[shard] = Some(e);
                            if let Some(err) = self.retry(
                                shard,
                                t,
                                &mut attempts,
                                &last_err,
                                &running,
                                &mut pending,
                                fleet,
                                exec.device,
                                &mut report,
                            ) {
                                return Err(err);
                            }
                        }
                    }
                }
                ExecKind::Timeout => {
                    report.hangs_detected += 1;
                    fleet.device_mut(exec.device).counters_mut().hangs += 1;
                    if parts[shard].is_some() {
                        continue;
                    }
                    if let Some(err) = self.retry(
                        shard,
                        t,
                        &mut attempts,
                        &last_err,
                        &running,
                        &mut pending,
                        fleet,
                        exec.device,
                        &mut report,
                    ) {
                        return Err(err);
                    }
                }
                ExecKind::Crash => {
                    report.devices_lost += 1;
                    if parts[shard].is_none() && !twin_running(&running, shard, exec.device) {
                        // Redistribution consumes no attempt: crash
                        // cascades are bounded by fleet size, not by the
                        // shard's retry budget.
                        report.reassigned += 1;
                        pending.push((shard, t));
                    }
                    let alive = fleet.alive_count();
                    if alive == 0 {
                        return Err(ShardError::AllDevicesLost {
                            completed: done,
                            shards: nshards,
                        });
                    }
                    // Re-price the remaining work against the deadline:
                    // fail fast if survivors cannot possibly make it.
                    if let Some(budget) = deadline_s {
                        let remaining: f64 = (0..nshards)
                            .filter(|&s| parts[s].is_none())
                            .map(|s| self.shards[s].est_s)
                            .sum();
                        let projected = t + remaining / alive as f64;
                        if projected > budget {
                            return Err(ShardError::DeadlineExceeded {
                                budget_s: budget,
                                projected_s: projected,
                            });
                        }
                    }
                }
            }
        }

        let mut y = Vec::with_capacity(self.nrows);
        for part in parts {
            y.extend_from_slice(&part.expect("all shards completed"));
        }
        debug_assert_eq!(y.len(), self.nrows);
        Ok(ShardedRun { y, counters, elapsed_s: t, report })
    }

    /// Draws the device event for one launch, runs the shard kernel
    /// functionally when the launch will complete, and schedules the
    /// exec's firing time.
    #[allow(clippy::too_many_arguments)]
    fn launch(
        &mut self,
        fleet: &mut DeviceFleet,
        dev: usize,
        shard: usize,
        x: &[f32],
        t: f64,
        speculative: bool,
        report: &mut ShardRunReport,
    ) -> Exec {
        let event = fleet.device_mut(dev).next_event();
        let d = fleet.device_mut(dev);
        d.counters_mut().launches += 1;
        if speculative {
            d.counters_mut().speculative_launches += 1;
            report.speculative_launches += 1;
        }
        let est = self.shards[shard].est_s;
        // First run on this device pays the host-to-device transfer.
        let xfer = if self.resident[shard][dev] {
            0.0
        } else {
            self.resident[shard][dev] = true;
            self.shards[shard].bytes as f64 / self.policy.transfer_bw
        };
        let timeout_s = t + self.policy.hang_timeout_factor * est.max(1e-30) + xfer;
        match event {
            DeviceEvent::Crash => {
                // The launch is lost; the heartbeat notices after one
                // expected duration.
                Exec { shard, device: dev, start_s: t, fire_s: t + est, kind: ExecKind::Crash, speculative }
            }
            DeviceEvent::Hang => {
                Exec { shard, device: dev, start_s: t, fire_s: timeout_s, kind: ExecKind::Timeout, speculative }
            }
            DeviceEvent::Completed | DeviceEvent::Straggle(_) => {
                let factor = match event {
                    DeviceEvent::Straggle(f) => {
                        fleet.device_mut(dev).counters_mut().stragglers += 1;
                        report.stragglers += 1;
                        f
                    }
                    _ => 1.0,
                };
                let outcome = self.shards[shard].engine.try_run_checked(fleet.device(dev).gpu(), x);
                let dur = match &outcome {
                    Ok(run) => run.time.seconds,
                    Err(_) => est, // a failed-verification launch still ran
                };
                let complete_s = t + xfer + dur * factor;
                if complete_s <= timeout_s {
                    Exec {
                        shard,
                        device: dev,
                        start_s: t,
                        fire_s: complete_s,
                        kind: ExecKind::Finish(Box::new(outcome)),
                        speculative,
                    }
                } else {
                    // A straggler slower than the hang timeout is
                    // indistinguishable from a hang: it gets killed.
                    Exec { shard, device: dev, start_s: t, fire_s: timeout_s, kind: ExecKind::Timeout, speculative }
                }
            }
        }
    }

    /// Books a failed attempt for `shard` and requeues it with backoff.
    /// Returns an error when the retry budget is gone and no twin can
    /// still deliver.
    #[allow(clippy::too_many_arguments)]
    fn retry(
        &self,
        shard: usize,
        t: f64,
        attempts: &mut [usize],
        last_err: &[Option<EngineError>],
        running: &[Exec],
        pending: &mut Vec<(usize, f64)>,
        fleet: &mut DeviceFleet,
        device: usize,
        report: &mut ShardRunReport,
    ) -> Option<ShardError> {
        attempts[shard] += 1;
        report.retries += 1;
        fleet.device_mut(device).counters_mut().retries += 1;
        if running.iter().any(|e| e.shard == shard) {
            // The twin is still in flight; it may yet deliver.
            return None;
        }
        if attempts[shard] >= self.policy.max_attempts {
            return Some(ShardError::AttemptsExhausted {
                shard,
                attempts: attempts[shard],
                last: last_err[shard].clone(),
            });
        }
        let backoff =
            self.policy.backoff_base_s * f64::from(1u32 << (attempts[shard] - 1).min(16));
        pending.push((shard, t + backoff));
        None
    }
}

/// The idle alive device with the best (lowest) slow-score, ties to the
/// lowest id.
fn idle_device(fleet: &DeviceFleet, busy: &[bool], slow: &[f64]) -> Option<usize> {
    (0..fleet.len())
        .filter(|&d| !busy[d] && fleet.device(d).alive())
        .min_by(|&a, &b| slow[a].total_cmp(&slow[b]).then(a.cmp(&b)))
}

/// True when another exec of `shard` (not the one on `device`) is in
/// flight.
fn twin_running(running: &[Exec], shard: usize, device: usize) -> bool {
    running.iter().any(|e| e.shard == shard && e.device != device)
}

/// Earliest firing time among running execs.
fn next_fire(running: &[Exec]) -> Option<f64> {
    running.iter().map(|e| e.fire_s).min_by(f64::total_cmp)
}
