//! Ladder execution: the closed-loop entry points and the rung walk
//! every request takes, with retries, backoff and verification.

use super::{PreparedMatrix, Request, Rung, ServeError, ServedOk, SpmvServer, Weaken};
use crate::breaker::BreakerState;
use spaden::engine::{EngineError, SpmvRun};
use spaden::SpmvEngine;
use spaden_gpusim::half::F16;
use spaden_gpusim::Gpu;
use spaden_shard::ShardError;
use std::sync::Arc;

/// Attempts per ladder rung (1 = no retry) before the ladder descends.
const ATTEMPTS_PER_RUNG: u32 = 2;
/// First retry backoff (simulated seconds); doubles per subsequent
/// retry on the same rung.
const BACKOFF_BASE_S: f64 = 1e-6;
/// Simulated inter-arrival tick added per served request. Keeps the
/// clock advancing even when every rung is skipped, so open breakers
/// always cool down eventually (the breaker cooldown is sized to it).
pub(super) const ARRIVAL_INTERVAL_S: f64 = 3e-6;

impl SpmvServer {
    /// Serves a batch: every request is admitted through the bounded
    /// queue (overflow rejected with [`ServeError::Overloaded`]) and the
    /// admitted ones are served in arrival order. Results are returned in
    /// input order, one per request.
    pub fn run_batch(
        &mut self,
        requests: Vec<Request>,
    ) -> Vec<Result<ServedOk, ServeError>> {
        let n = requests.len();
        let mut results: Vec<Option<Result<ServedOk, ServeError>>> =
            (0..n).map(|_| None).collect();
        for (i, req) in requests.into_iter().enumerate() {
            self.stats.submitted += 1;
            if self.queue.push((i, req)).is_err() {
                self.stats.overloaded += 1;
                results[i] =
                    Some(Err(ServeError::Overloaded { capacity: self.queue.capacity() }));
            }
        }
        while let Some((i, req)) = self.queue.pop() {
            results[i] = Some(self.serve_admitted(req));
        }
        results.into_iter().map(|r| r.expect("every slot filled")).collect()
    }

    /// Serves one request directly (counted as submitted and admitted,
    /// bypassing the batch queue — single-request callers have no
    /// admission contention).
    pub fn serve(&mut self, req: Request) -> Result<ServedOk, ServeError> {
        self.stats.submitted += 1;
        self.serve_admitted(req)
    }

    /// The ladder walk for one admitted closed-loop request: serves on
    /// the matrix's head snapshot (closed-loop callers admit and serve
    /// in one step, so head and admitted epoch coincide).
    fn serve_admitted(&mut self, req: Request) -> Result<ServedOk, ServeError> {
        let state = self.matrices.get(req.matrix.0).map(|e| e.current.clone());
        self.serve_on(state, req)
    }

    /// The ladder walk for one admitted request, on a captured matrix
    /// snapshot. The snapshot pins the epoch: every single-device rung
    /// runs this exact matrix. The sharded rung is the one resource that
    /// tracks the head epoch, so it only runs when the snapshot *is* the
    /// head — a straggler admitted before an update skips it (counted in
    /// [`ServeStats::epoch_stragglers`]) and falls to its captured
    /// single-device ladder, never a torn read.
    pub(super) fn serve_on(
        &mut self,
        state: Option<Arc<PreparedMatrix>>,
        req: Request,
    ) -> Result<ServedOk, ServeError> {
        self.clock_s += ARRIVAL_INTERVAL_S;
        let Some(m) = state else {
            self.stats.invalid += 1;
            return Err(ServeError::UnknownMatrix(req.matrix.0));
        };
        if req.x.len() != m.ncols {
            self.stats.invalid += 1;
            return Err(ServeError::Invalid(EngineError::ShapeMismatch {
                expected: m.ncols,
                got: req.x.len(),
            }));
        }
        let budget = req.deadline_s.unwrap_or(self.config.default_deadline_s);
        let mut spent = 0.0f64;
        let mut attempts = 0u32;
        let mut retries = 0u32;
        let mut last_err: Option<EngineError> = None;
        let mut deadline_bound = false;

        for rung in std::iter::once(Rung::Sharded).chain(m.ladder) {
            let r = rung as usize;
            if rung == Rung::Sharded {
                if self.fleet.is_none() {
                    continue; // rung not configured; not counted as skipped
                }
                // The fleet's partition serves the head epoch only.
                let on_head = self
                    .matrices
                    .get(req.matrix.0)
                    .is_some_and(|e| Arc::ptr_eq(&e.current, &m));
                if !on_head {
                    self.stats.epoch_stragglers += 1;
                    continue; // straggler: captured single-device ladder serves
                }
            }
            if !self.breakers[r].allow(self.clock_s) {
                self.stats.skipped_breaker[r] += 1;
                continue;
            }
            let mut attempt_on_rung = 0u32;
            loop {
                if spent + m.est_cost_s[r] > budget {
                    self.stats.skipped_deadline[r] += 1;
                    deadline_bound = true;
                    break;
                }
                self.stats.attempts[r] += 1;
                attempts += 1;
                // The sharded rung dispatches to its own scheduler; the
                // single-device rungs go through `run_rung`. Both yield a
                // verified `y` plus the simulated seconds it cost.
                let outcome: Result<(Vec<f32>, f64), EngineError> = if rung == Rung::Sharded {
                    let fleet = self.fleet.as_mut().expect("sharded rung requires a fleet");
                    let sm = self.matrices[req.matrix.0]
                        .sharded
                        .as_mut()
                        .expect("sharded form is built at registration");
                    match sm.execute(fleet, &req.x, Some(budget - spent)) {
                        Ok(run) => Ok((run.y, run.elapsed_s)),
                        Err(ShardError::DeadlineExceeded { .. }) => {
                            // A crash re-priced the remaining work out of
                            // the budget; the scheduler failed fast, so
                            // charge nothing and descend to a cheaper rung
                            // with the budget marked as binding. If this
                            // attempt was a half-open probe, the timeout
                            // re-opens the breaker — an unresolved probe
                            // must not park it in half-open.
                            self.breakers[r].record_probe_timeout(self.clock_s);
                            self.stats.skipped_deadline[r] += 1;
                            deadline_bound = true;
                            break;
                        }
                        Err(e) => Err(e.to_engine_error()),
                    }
                } else {
                    Self::run_rung(&self.gpu, &m, rung, &req.x, self.config.weaken).map(|run| {
                        let seconds = run.time.seconds;
                        (run.y, seconds)
                    })
                };
                match outcome {
                    Ok((y, seconds)) => {
                        spent += seconds;
                        self.clock_s += seconds;
                        self.breakers[r].record_success();
                        self.stats.served[r] += 1;
                        self.stats.retries += retries as u64;
                        self.stats.latencies_s.push(spent);
                        return Ok(ServedOk {
                            y,
                            rung,
                            latency_s: spent,
                            retries,
                            epoch: m.epoch,
                        });
                    }
                    Err(e) => {
                        // A failed attempt still ran the kernels: charge
                        // the rung's estimated cost.
                        spent += m.est_cost_s[r];
                        self.clock_s += m.est_cost_s[r];
                        self.breakers[r].record_failure(self.clock_s);
                        self.stats.failures[r] += 1;
                        if !e.is_transient() {
                            self.stats.invalid += 1;
                            return Err(ServeError::Invalid(e));
                        }
                        last_err = Some(e);
                        attempt_on_rung += 1;
                        if attempt_on_rung >= ATTEMPTS_PER_RUNG
                            || self.breakers[r].state() == BreakerState::Open
                        {
                            break;
                        }
                        let backoff = BACKOFF_BASE_S
                            * f64::from(1u32 << (attempt_on_rung - 1).min(16));
                        spent += backoff;
                        self.clock_s += backoff;
                        retries += 1;
                    }
                }
            }
        }

        // Nothing verified. Report the binding constraint: budget if any
        // rung was priced out (more deadline could have saved it), else
        // the last engine failure, else total breaker shed.
        if deadline_bound {
            self.stats.deadline_exceeded += 1;
            Err(ServeError::DeadlineExceeded { budget_s: budget, spent_s: spent })
        } else if let Some(last) = last_err {
            self.stats.exhausted += 1;
            Err(ServeError::LadderExhausted { attempts, last })
        } else {
            self.stats.unavailable += 1;
            Err(ServeError::Unavailable)
        }
    }

    /// Runs one rung and verifies its output; `Ok` is always verified —
    /// unless a test-only [`Weaken`] hook disables that rung's check.
    fn run_rung(
        gpu: &Gpu,
        m: &PreparedMatrix,
        rung: Rung,
        x: &[f32],
        weaken: Weaken,
    ) -> Result<SpmvRun, EngineError> {
        match rung {
            Rung::Sharded => unreachable!("sharded rung is dispatched in serve_on"),
            Rung::SpadenChecked => {
                let run = m.spaden.try_run_checked(gpu, x)?;
                Self::finish_with_side(m, x, run)
            }
            Rung::SpadenScalar => {
                let run = m.scalar.try_run(gpu, x)?;
                let bad = m.spaden.abft().verify(x, &run.y);
                if bad.is_empty() {
                    Self::finish_with_side(m, x, run)
                } else {
                    Err(EngineError::VerificationFailed { block_rows: bad.len() })
                }
            }
            Rung::CsrBaseline => {
                // The CSR engine is prepared from the full logical
                // matrix — no side tail to add.
                let run = m.csr.try_run(gpu, x)?;
                if weaken == Weaken::SkipCsrVerify {
                    return Ok(run);
                }
                let bad = m.sums.verify(x, &run.y);
                if bad.is_empty() {
                    Ok(run)
                } else {
                    Err(EngineError::VerificationFailed { block_rows: bad.len() })
                }
            }
        }
    }

    /// Adds the side-buffer tail to a base-format Spaden run and holds
    /// the *full* logical output to the repaired logical checksums. A
    /// snapshot with an empty side is already complete and verified.
    fn finish_with_side(
        m: &PreparedMatrix,
        x: &[f32],
        mut run: SpmvRun,
    ) -> Result<SpmvRun, EngineError> {
        if m.side.is_empty() {
            return Ok(run);
        }
        // Same arithmetic as one kernel entry: the stored f16 value
        // times the f16-rounded vector element, accumulated in f32.
        for e in &m.side {
            run.y[e.row as usize] += e.value.to_f32() * F16::round_f32(x[e.col as usize]);
        }
        let sums = m.logical.as_ref().expect("non-empty side stores logical checksums");
        let bad = sums.verify(x, &run.y);
        if bad.is_empty() {
            Ok(run)
        } else {
            Err(EngineError::VerificationFailed { block_rows: bad.len() })
        }
    }
}
