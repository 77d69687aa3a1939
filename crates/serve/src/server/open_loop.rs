//! The open-loop drain: admission under overload control, expiry at
//! dequeue, and the batching window's coalesced SpMM sweeps.

use super::ladder::ARRIVAL_INTERVAL_S;
use super::{
    OpenOutcome, OpenRequest, OpenSlot, PreparedMatrix, Request, Rung, ScheduledUpdate,
    ServeError, ServeStats, ServedOk, SpmvServer, UpdateOutcome,
};
use crate::queue::{Dequeued, PushOutcome, ShedReason};
use spaden_sparse::dense::Dense;
use std::sync::Arc;

impl SpmvServer {
    /// Serves an open-loop arrival schedule: requests arrive at absolute
    /// simulated times regardless of whether the server has kept up — the
    /// regime where overload is real. Between arrivals the server drains
    /// its admission queue; each arrival then passes the overload gates
    /// (brownout class shedding, adaptive limit, priority eviction) or is
    /// shed with a typed [`ServeError::Shed`]. Queue wait spends the
    /// request's deadline budget, and a request whose budget has fully
    /// elapsed in queue is shed at dequeue instead of executed.
    ///
    /// `arrivals` must be sorted by `arrival_s`. Returns one outcome per
    /// arrival, in input order. Fully deterministic on the simulated
    /// clock.
    pub fn run_open_loop(&mut self, arrivals: Vec<OpenRequest>) -> Vec<OpenOutcome> {
        self.run_open_loop_evolving(arrivals, Vec::new()).0
    }

    /// [`SpmvServer::run_open_loop`] with a concurrent update schedule:
    /// arrivals and updates are merged in time order (an update ties
    /// with a same-instant arrival by landing first). An update applies
    /// instantly — it spends no serving time and never blocks reads;
    /// requests admitted before it finish on their captured epoch, and
    /// later admissions see the new one. Returns one outcome per
    /// arrival (input order) plus one result per update (input order).
    #[allow(clippy::type_complexity)]
    pub fn run_open_loop_evolving(
        &mut self,
        arrivals: Vec<OpenRequest>,
        updates: Vec<ScheduledUpdate>,
    ) -> (Vec<OpenOutcome>, Vec<Result<UpdateOutcome, ServeError>>) {
        let n = arrivals.len();
        let mut out: Vec<Option<OpenOutcome>> = (0..n).map(|_| None).collect();
        let mut applied = Vec::with_capacity(updates.len());
        let mut arr_it = arrivals.into_iter().enumerate().peekable();
        let mut upd_it = updates.into_iter().peekable();
        let mut last_arrival = f64::NEG_INFINITY;
        let mut last_update = f64::NEG_INFINITY;
        loop {
            let update_next = match (arr_it.peek(), upd_it.peek()) {
                (Some((_, a)), Some(u)) => u.at_s <= a.arrival_s,
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (None, None) => break,
            };
            // Serve backlog until the server catches up to this event.
            // Serving may push the clock past it — an arrival then waits
            // in queue like any client of a busy server (an update does
            // not wait: it lands the moment its time comes up).
            let event_s =
                if update_next { upd_it.peek().unwrap().at_s } else { arr_it.peek().unwrap().1.arrival_s };
            while self.clock_s < event_s {
                if !self.drain_step(&mut out, Some(event_s)) {
                    break;
                }
            }
            if self.clock_s < event_s {
                self.clock_s = event_s; // idle until the event
            }
            if update_next {
                let u = upd_it.next().expect("peeked");
                assert!(
                    u.at_s >= last_update,
                    "open-loop updates must be sorted by time"
                );
                last_update = u.at_s;
                applied.push(self.update_with_fault(u.matrix, &u.batch, u.fault));
            } else {
                let (index, a) = arr_it.next().expect("peeked");
                assert!(
                    a.arrival_s >= last_arrival,
                    "open-loop arrivals must be sorted by arrival time"
                );
                last_arrival = a.arrival_s;
                self.stats.submitted += 1;
                self.admit_open(index, a, &mut out);
            }
        }
        while self.drain_step(&mut out, None) {}
        (out.into_iter().map(|o| o.expect("every arrival resolves")).collect(), applied)
    }

    /// One open-loop drain step. Batching disabled dispatches straight to
    /// the per-request drain — byte-for-byte the pre-batching loop, the
    /// bit-identity guarantee of [`BatchConfig`]. Batching enabled runs
    /// the coalescing window; `horizon_s` is the next scheduled event
    /// (`None` on the final flush), the instant up to which the window
    /// may hold the head waiting for batchmates.
    fn drain_step(&mut self, out: &mut [Option<OpenOutcome>], horizon_s: Option<f64>) -> bool {
        if self.config.batch.enabled {
            self.drain_one_batched(out, horizon_s)
        } else {
            self.drain_one_open(out)
        }
    }

    /// Admission for one open-loop arrival: brownout gate, then the
    /// priority queue under the adaptive limit.
    fn admit_open(&mut self, index: usize, a: OpenRequest, out: &mut [Option<OpenOutcome>]) {
        let matrix = a.request.matrix;
        let priority = a.priority;
        let arrival_s = a.arrival_s;
        // Epoch consistency: capture the matrix snapshot *at admission*.
        // The request finishes on this epoch even if updates publish
        // newer ones while it waits in queue.
        let state = self.matrices.get(matrix.0).map(|e| e.current.clone());
        let epoch = state.as_ref().map_or(0, |m| m.epoch);
        let shed = |stats: &mut ServeStats, reason: ShedReason| {
            stats.shed += 1;
            Some(OpenOutcome {
                index,
                priority,
                matrix,
                arrival_s,
                queue_wait_s: 0.0,
                done_s: arrival_s,
                epoch,
                result: Err(ServeError::Shed(reason)),
            })
        };
        if let Some(reason) = self.overload.admission_shed(priority) {
            out[index] = shed(&mut self.stats, reason);
            return;
        }
        let budget_s = a.request.deadline_s.unwrap_or(self.config.default_deadline_s);
        let slot =
            OpenSlot { index, request: a.request, priority, arrival_s, budget_s, state, epoch };
        let expires = Some(arrival_s + budget_s);
        match self.open_queue.push(slot, priority, expires, self.overload.limit()) {
            PushOutcome::Admitted => {}
            PushOutcome::AdmittedEvicting(victim) => {
                let v = victim.item;
                self.stats.shed += 1;
                out[v.index] = Some(OpenOutcome {
                    index: v.index,
                    priority: v.priority,
                    matrix: v.request.matrix,
                    arrival_s: v.arrival_s,
                    queue_wait_s: self.clock_s - v.arrival_s,
                    done_s: self.clock_s,
                    epoch: v.epoch,
                    result: Err(ServeError::Shed(ShedReason::Evicted { by: priority })),
                });
                // An eviction is still a resolved request: its queue time
                // is evidence for the controller.
                self.overload.on_complete(self.clock_s - v.arrival_s);
            }
            PushOutcome::Rejected(slot, reason) => {
                out[slot.index] = shed(&mut self.stats, reason);
            }
        }
    }

    /// Dequeues until one entry is *served or failed* (expired entries
    /// are shed along the way without costing simulated time). Returns
    /// false when the queue is empty.
    fn drain_one_open(&mut self, out: &mut [Option<OpenOutcome>]) -> bool {
        loop {
            match self.open_queue.pop(self.clock_s) {
                None => return false,
                Some(Dequeued::Expired(entry, reason)) => {
                    self.shed_open_slot(entry.item, reason, out);
                    continue;
                }
                Some(Dequeued::Ready(entry)) => {
                    self.serve_slot(entry.item, out);
                    return true;
                }
            }
        }
    }

    /// Serves one dequeued slot on the per-request ladder and records
    /// its outcome (the Ready arm of the open-loop drain).
    fn serve_slot(&mut self, slot: OpenSlot, out: &mut [Option<OpenOutcome>]) {
        let matrix = slot.request.matrix;
        let wait = self.clock_s - slot.arrival_s;
        // Queue wait spends the budget; the ladder gets what
        // remains (positive — expiry was checked at dequeue).
        let remaining = slot.budget_s - wait;
        let req = Request { deadline_s: Some(remaining), ..slot.request };
        // Serve on the snapshot captured at admission, not
        // the head — updates that landed while this request
        // queued must not tear its matrix out from under it.
        let result = self.serve_on(slot.state, req);
        let done = self.clock_s;
        self.overload.on_complete(done - slot.arrival_s);
        out[slot.index] = Some(OpenOutcome {
            index: slot.index,
            priority: slot.priority,
            matrix,
            arrival_s: slot.arrival_s,
            queue_wait_s: wait,
            done_s: done,
            epoch: slot.epoch,
            result,
        });
    }

    /// Resolves one open-loop slot as shed (the Expired arm of the
    /// drains, shared with the batching window's gather).
    fn shed_open_slot(&mut self, v: OpenSlot, reason: ShedReason, out: &mut [Option<OpenOutcome>]) {
        let wait = self.clock_s - v.arrival_s;
        self.stats.shed += 1;
        out[v.index] = Some(OpenOutcome {
            index: v.index,
            priority: v.priority,
            matrix: v.request.matrix,
            arrival_s: v.arrival_s,
            queue_wait_s: wait,
            done_s: self.clock_s,
            epoch: v.epoch,
            result: Err(ServeError::Shed(reason)),
        });
        // A dead-on-dequeue request spent its whole budget in queue —
        // strong overload evidence.
        self.overload.on_complete(wait);
    }

    /// The batching window's drain step. Dequeues the head, coalesces
    /// queued requests sharing its matrix snapshot (same epoch `Arc`)
    /// into one ABFT-checked SpMM sweep, and scatters the output columns
    /// back to per-request responses. Three guarantees carry over from
    /// the per-request path unchanged: expiry-at-dequeue (an expired
    /// entry is shed, never batched), priority order (the head is
    /// whatever [`AdmissionQueue::pop`] yields; batchmates are pulled
    /// matching-first in the same class order), and verification (the
    /// sweep is column-verified against the same block-row checksums; a
    /// failed sweep falls back to the per-request ladder for every
    /// member). Returns false when the queue is empty or the head is
    /// held for batchmates — bounded by [`BatchConfig::window_s`] and
    /// the head's own deadline, so holding never expires a request.
    fn drain_one_batched(
        &mut self,
        out: &mut [Option<OpenOutcome>],
        horizon_s: Option<f64>,
    ) -> bool {
        let max_width = self.config.batch.max_width.max(1);
        // Hold decision: with the next event inside the window, the head
        // batchable, and spare width, give the outer loop a chance to
        // admit more coalescible arrivals before draining.
        if let Some(event_s) = horizon_s {
            let head_hold = self.open_queue.peek().and_then(|head| {
                let slot = &head.item;
                let state = slot.state.clone()?;
                let plan = state.batch.as_ref()?;
                if plan.crossover > max_width {
                    return None; // batching never wins on this matrix
                }
                let sweep_s = plan.cost_s.last().copied().unwrap_or(0.0);
                let hold_until = (slot.arrival_s + self.config.batch.window_s)
                    .min(head.expires_s.unwrap_or(f64::INFINITY) - sweep_s);
                Some((state, hold_until))
            });
            if let Some((state, hold_until)) = head_hold {
                if event_s <= hold_until {
                    let matching = self.open_queue.count_matching(|e| {
                        e.item.state.as_ref().is_some_and(|s| Arc::ptr_eq(s, &state))
                    });
                    if matching < max_width {
                        return false;
                    }
                }
            }
        }
        loop {
            match self.open_queue.pop(self.clock_s) {
                None => return false,
                Some(Dequeued::Expired(entry, reason)) => {
                    self.shed_open_slot(entry.item, reason, out);
                    continue;
                }
                Some(Dequeued::Ready(entry)) => {
                    let head = entry.item;
                    let batchable = head.state.as_ref().is_some_and(|s| {
                        s.batch.as_ref().is_some_and(|p| p.crossover <= max_width)
                            && head.request.x.len() == s.ncols
                    });
                    if !batchable {
                        self.serve_slot(head, out);
                        return true;
                    }
                    let m = head.state.clone().expect("batchable head has a snapshot");
                    self.run_batch_window(head, m, max_width, out);
                    return true;
                }
            }
        }
    }

    /// Gathers batchmates for a dequeued head and executes the window:
    /// one coalesced sweep at or past the crossover width, the
    /// per-request ladder below it or on sweep failure.
    fn run_batch_window(
        &mut self,
        head: OpenSlot,
        m: Arc<PreparedMatrix>,
        max_width: usize,
        out: &mut [Option<OpenOutcome>],
    ) {
        let plan = m.batch.as_ref().expect("caller checked the plan");
        let sweep_s = plan.cost_s.last().copied().unwrap_or(0.0);
        // Pull queued requests on the same snapshot, in priority-then-
        // FIFO order, skipping any whose remaining budget could not sit
        // through a sweep. The expiry discipline of `pop_matching` makes
        // a dead entry structurally unbatchable.
        let mut slots = vec![head];
        while slots.len() < max_width {
            let now = self.clock_s;
            match self.open_queue.pop_matching(now, |e| {
                e.item.state.as_ref().is_some_and(|s| Arc::ptr_eq(s, &m))
                    && e.item.request.x.len() == m.ncols
                    && e.expires_s.is_none_or(|x| x - now >= sweep_s)
            }) {
                None => break,
                Some(Dequeued::Expired(entry, reason)) => {
                    self.shed_open_slot(entry.item, reason, out);
                }
                Some(Dequeued::Ready(entry)) => slots.push(entry.item),
            }
        }
        if slots.len() < plan.crossover.max(2) {
            // Below the crossover a sweep is predicted slower than the
            // per-request rungs: serve the gathered slots individually.
            for slot in slots {
                self.serve_slot(slot, out);
            }
            return;
        }

        // One coalesced sweep: the members' x vectors become the columns
        // of a dense B, one ingress tick covers the whole batch (the
        // amortisation the open-loop throughput gain comes from), and
        // every output column is verified block-row-wise before any
        // member sees its response.
        let w = slots.len();
        let popped_at = self.clock_s;
        self.clock_s += ARRIVAL_INTERVAL_S;
        let b = Dense::from_fn(m.ncols, w, |r, j| slots[j].request.x[r]);
        let r = Rung::SpadenChecked as usize;
        self.stats.attempts[r] += 1;
        match plan.spmm.try_run_checked(&self.gpu, &b) {
            Ok(run) => {
                self.clock_s += run.time.seconds;
                self.breakers[r].record_success();
                self.stats.served[r] += w as u64;
                self.stats.batches += 1;
                self.stats.batched_served += w as u64;
                self.stats.batch_width_sum += w as u64;
                self.stats.batch_width_max = self.stats.batch_width_max.max(w as u64);
                let done = self.clock_s;
                for (j, slot) in slots.into_iter().enumerate() {
                    self.stats.latencies_s.push(run.time.seconds);
                    self.overload.on_complete(done - slot.arrival_s);
                    out[slot.index] = Some(OpenOutcome {
                        index: slot.index,
                        priority: slot.priority,
                        matrix: slot.request.matrix,
                        arrival_s: slot.arrival_s,
                        queue_wait_s: popped_at - slot.arrival_s,
                        done_s: done,
                        epoch: slot.epoch,
                        result: Ok(ServedOk {
                            y: run.c.column(j),
                            rung: Rung::SpadenChecked,
                            latency_s: run.time.seconds,
                            retries: 0,
                            epoch: m.epoch,
                        }),
                    });
                }
            }
            Err(_) => {
                // The sweep ran and could not be verified: charge its
                // predicted cost, record the failure on the shared
                // tensor-core breaker, and fall back to the per-request
                // ladder for every member — the existing rung walk
                // decides each one's fate with its remaining budget.
                let cost = plan.cost_s.get(w - 1).copied().unwrap_or(sweep_s);
                self.clock_s += cost;
                self.breakers[r].record_failure(self.clock_s);
                self.stats.failures[r] += 1;
                self.stats.batch_fallbacks += 1;
                for slot in slots {
                    self.serve_slot(slot, out);
                }
            }
        }
    }
}
