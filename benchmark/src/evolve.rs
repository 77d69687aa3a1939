//! `evolve-durable`: writes beside reads. A scale-free matrix registered
//! with crash-consistent durability takes a seeded update stream —
//! alternately value-only overwrites and structural inserts — while
//! open-loop reads run against it. After the open loop, a fresh server
//! recovers the matrix from the durable image and serves it again;
//! recovery is part of the timed phase, because it is what an operator
//! waits for after a crash.
//!
//! The same update stream, replayed call by call, is the store and
//! evolve probe of every traced run.

use crate::corpus::{Corpus, Mat};
use crate::serve::{
    arrivals, digest_arrivals, digest_outcomes, goodput_rps, serve_config, served_latencies,
    spaden_gflops, ServeView,
};
use crate::stats::{check_oracle, percentile, sorted, tail, Fnv};
use crate::trace::Tracer;
use crate::workload::{Metric, Ops, Sim, Workload};
use spaden::{EvolveConfig, EvolvingMatrix};
use spaden_gpusim::{Gpu, GpuConfig};
use spaden_serve::{
    OpenOutcome, OpenRequest, RecoveryReport, Request, ScheduledUpdate, ServeConfig, ServeError,
    ServeStats, ServedOk, SpmvServer, UpdateOutcome,
};
use spaden_sparse::delta::apply_to_csr;
use spaden_sparse::{gen, Csr, Delta, DeltaBatch, Pcg64};
use spaden_store::{DurableStore, SnapshotPolicy};
use spaden_traffic::traffic_x;
use std::collections::BTreeSet;

/// Matrix dimension and generator edge target.
const NODES: usize = 1024;
const EDGES: usize = 12_000;
/// Offered read rate and the update cadence.
const READ_RPS: f64 = 80_000.0;
const UPDATE_EVERY_S: f64 = 100e-6;
/// Committed updates per run. With a snapshot every 64 commits, the
/// final image holds 124 − 64 = 60 records past its newest snapshot,
/// so recovery replays at least [`MIN_REPLAYED`].
const UPDATES: usize = 124;
const SNAPSHOT_EVERY: u64 = 64;
const MIN_REPLAYED: usize = 32;
/// Entries per value-only batch and per structural batch.
const OVERWRITES: usize = 16;
const INSERTS: usize = 4;
/// Updates replayed call by call by the traced run's probe: one
/// snapshot at 64, then 32 records to replay.
const PROBE_UPDATES: usize = 96;
/// Seed of the scale-free matrix. Like the request trace it is the same
/// for every `--seed`, which varies the update stream and the vectors:
/// the host cost of reads and commits follows where the matrix's hub rows
/// fall, and moved by 20 % between matrix seeds.
const MATRIX_SEED: u64 = 0x5ca1_ef7e;

/// Side-buffer compaction after 64 new-block entries, so the stream
/// exercises verified compaction as well as splices.
fn evolve_config() -> EvolveConfig {
    EvolveConfig {
        compact_threshold: 64,
        ..EvolveConfig::default()
    }
}

fn policy() -> SnapshotPolicy {
    SnapshotPolicy {
        snapshot_every: SNAPSHOT_EVERY,
    }
}

/// `k` overwrites of distinct stored entries.
fn overwrites(truth: &Csr, rng: &mut Pcg64, k: usize) -> DeltaBatch {
    let mut seen = BTreeSet::new();
    let mut deltas = Vec::with_capacity(k);
    while deltas.len() < k {
        let row = rng.below_usize(truth.nrows);
        let (cols, _) = truth.row(row);
        if cols.is_empty() {
            continue;
        }
        let col = cols[rng.below_usize(cols.len())];
        if seen.insert((row, col)) {
            deltas.push(Delta {
                row: row as u32,
                col,
                value: rng.range_f32(0.05, 1.0),
            });
        }
    }
    DeltaBatch::new(deltas, truth.nrows, truth.ncols).expect("overwrites are in range")
}

/// `k` inserts at distinct positions not yet stored.
fn inserts(truth: &Csr, rng: &mut Pcg64, k: usize) -> DeltaBatch {
    let mut seen = BTreeSet::new();
    let mut deltas = Vec::with_capacity(k);
    while deltas.len() < k {
        let row = rng.below_usize(truth.nrows);
        let col = rng.below_usize(truth.ncols) as u32;
        if truth.row(row).0.binary_search(&col).is_err() && seen.insert((row, col)) {
            deltas.push(Delta {
                row: row as u32,
                col,
                value: rng.range_f32(0.05, 1.0),
            });
        }
    }
    DeltaBatch::new(deltas, truth.nrows, truth.ncols).expect("inserts are in range")
}

/// The pinned matrix, its seeded update stream, and the truth at every
/// epoch.
pub struct Stream {
    pub csr: Csr,
    pub updates: Vec<ScheduledUpdate>,
    /// `truths[e]` is the matrix at epoch `e`.
    pub truths: Vec<Csr>,
}

impl Stream {
    pub fn new(seed: u64, updates: usize) -> Self {
        let csr = gen::scale_free(NODES, EDGES, 2.0, MATRIX_SEED);
        let mut rng = Pcg64::new(seed, 0xe701e);
        let mut truths = vec![csr.clone()];
        let mut stream = Vec::with_capacity(updates);
        for k in 0..updates {
            let truth = truths.last().expect("the chain starts at epoch 0");
            let batch = if k % 2 == 0 {
                overwrites(truth, &mut rng, OVERWRITES)
            } else {
                inserts(truth, &mut rng, INSERTS)
            };
            truths.push(apply_to_csr(truth, &batch).expect("a generated batch applies"));
            stream.push(ScheduledUpdate {
                at_s: (k + 1) as f64 * UPDATE_EVERY_S,
                matrix: spaden_serve::MatrixHandle(0),
                batch,
                fault: None,
            });
        }
        Stream {
            csr,
            updates: stream,
            truths,
        }
    }
}

pub struct Evolve {
    seed: u64,
    gpu: GpuConfig,
    config: ServeConfig,
    stream: Stream,
    reads: Vec<OpenRequest>,
    /// The read served by the recovered server.
    recovery_x: Vec<f32>,
}

pub struct EvolveOutcome {
    outcomes: Vec<OpenOutcome>,
    applied: Vec<Result<UpdateOutcome, ServeError>>,
    stats: ServeStats,
    breaker_trips: u64,
    clock_s: f64,
    recovery: Result<RecoveryReport, ServeError>,
    recovered_read: Option<Result<ServedOk, ServeError>>,
}

impl Evolve {
    pub fn new(seed: u64) -> Self {
        let horizon_s = (UPDATES + 1) as f64 * UPDATE_EVERY_S;
        let reads = arrivals(seed, READ_RPS, horizon_s, NODES, 1);
        Evolve {
            seed,
            gpu: GpuConfig::l40(),
            config: serve_config(false),
            stream: Stream::new(seed, UPDATES),
            recovery_x: traffic_x(NODES, reads.len()),
            reads,
        }
    }

    /// The matrix once every update has committed.
    fn final_truth(&self) -> &Csr {
        self.stream
            .truths
            .last()
            .expect("the chain starts at epoch 0")
    }

    /// The epoch committed at simulated time `t` (updates land before a
    /// same-instant read, and every update commits).
    fn epoch_at(&self, t: f64) -> u64 {
        self.stream
            .updates
            .iter()
            .take_while(|u| u.at_s <= t)
            .count() as u64
    }
}

impl Workload for Evolve {
    type Setup = (SpmvServer, Vec<OpenRequest>, Vec<ScheduledUpdate>);
    type Outcome = EvolveOutcome;

    fn name(&self) -> &'static str {
        "evolve-durable"
    }

    fn input_digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.csr(&self.stream.csr);
        for u in &self.stream.updates {
            h.f64(u.at_s);
            h.bytes(&u.batch.to_bytes());
        }
        digest_arrivals(&mut h, &self.reads);
        h.f32s(&self.recovery_x);
        h.finish()
    }

    fn setup(&self, tr: &mut Tracer) -> Result<Self::Setup, String> {
        let mut server = SpmvServer::new(Gpu::new(self.gpu.clone()), self.config.clone());
        let h = tr
            .span("serve.register", "evolving", 0, |_| {
                server.register_evolving_durable(&self.stream.csr, evolve_config(), policy())
            })
            .map_err(|e| format!("registering the evolving matrix: {e}"))?;
        assert_eq!(h.0, 0, "the only registration gets handle 0");
        Ok((server, self.reads.clone(), self.stream.updates.clone()))
    }

    fn timed(&self, (mut server, reads, updates): Self::Setup, tr: &mut Tracer) -> EvolveOutcome {
        let (outcomes, applied) = tr.span("serve.run_open_loop_evolving", "", 0, |_| {
            server.run_open_loop_evolving(reads, updates)
        });
        let h = spaden_serve::MatrixHandle(0);
        let image = server
            .durable_image(h)
            .expect("a durable registration has an image");
        let mut fresh = SpmvServer::new(Gpu::new(self.gpu.clone()), self.config.clone());
        let recovered = tr.span("serve.recover_evolving", "", 1, |_| {
            fresh.recover_evolving(&image, policy())
        });
        let recovered_read = recovered.as_ref().ok().map(|(h, _)| {
            let req = Request {
                matrix: *h,
                x: self.recovery_x.clone(),
                deadline_s: None,
            };
            tr.span("serve.serve", "recovered", 2, |_| fresh.serve(req))
        });
        EvolveOutcome {
            outcomes,
            applied,
            stats: server.stats().clone(),
            breaker_trips: server.breaker_totals().0,
            clock_s: server.clock_s(),
            recovery: recovered.map(|(_, r)| r),
            recovered_read,
        }
    }

    fn behaviour_digest(&self, out: &EvolveOutcome) -> u64 {
        let mut h = Fnv::default();
        digest_outcomes(&mut h, &out.outcomes, &out.stats);
        for a in &out.applied {
            match a {
                Ok(u) => {
                    h.u64(u.report.epoch);
                    h.u64(u.report.class as u64);
                    h.u64(u.report.compacted as u64);
                    h.u64(u.report.touched_block_rows as u64);
                }
                Err(e) => h.str(&e.to_string()),
            }
        }
        match &out.recovery {
            Ok(r) => {
                for v in [
                    r.recovered_epoch,
                    r.snapshot_epoch,
                    r.used_slot as u64,
                    r.replayed as u64,
                ] {
                    h.u64(v);
                }
            }
            Err(e) => h.str(&e.to_string()),
        }
        if let Some(Ok(ok)) = &out.recovered_read {
            h.f32s(&ok.y);
            h.f64(ok.latency_s);
        }
        h.u64(out.breaker_trips);
        h.f64(out.clock_s);
        h.finish()
    }

    fn verify(&self, out: &EvolveOutcome) -> Vec<String> {
        let mut errors = Vec::new();
        for (k, a) in out.applied.iter().enumerate() {
            if let Err(e) = a {
                errors.push(format!("update {k} did not commit: {e}"));
            }
        }
        for o in &out.outcomes {
            let Ok(ok) = &o.result else { continue };
            let want = self.epoch_at(o.arrival_s);
            if o.epoch != want || ok.epoch != want {
                errors.push(format!(
                    "read {}: served epoch {} at epoch {want}",
                    o.index, ok.epoch
                ));
                continue;
            }
            let x = &self.reads[o.index].request.x;
            if let Err(e) = check_oracle(&self.stream.truths[want as usize], x, &ok.y) {
                errors.push(format!("read {} (epoch {want}): {e}", o.index));
            }
        }
        let last = self.stream.truths.len() - 1;
        match &out.recovery {
            Ok(r)
                if r.recovered_epoch != last as u64 || !r.clean() || r.replayed < MIN_REPLAYED =>
            {
                errors.push(format!(
                    "recovery: {r:?}, want epoch {last} with {MIN_REPLAYED}+ replayed"
                ))
            }
            Ok(_) => {}
            Err(e) => errors.push(format!("recovery failed: {e}")),
        }
        match &out.recovered_read {
            Some(Ok(ok)) => {
                if let Err(e) = check_oracle(&self.stream.truths[last], &self.recovery_x, &ok.y) {
                    errors.push(format!("read after recovery: {e}"));
                }
            }
            Some(Err(e)) => errors.push(format!("read after recovery failed: {e}")),
            None => {}
        }
        errors
    }

    fn ops(&self, out: &EvolveOutcome) -> Ops {
        let reads_ok = out.outcomes.iter().filter(|o| o.result.is_ok()).count();
        let shed = out
            .outcomes
            .iter()
            .filter(|o| matches!(o.result, Err(ServeError::Shed(_))))
            .count();
        let commits = out.applied.iter().filter(|a| a.is_ok()).count();
        let recovered = matches!(out.recovered_read, Some(Ok(_))) as usize;
        Ops {
            attempted: (out.outcomes.len() + out.applied.len() + 1) as u64,
            verified: (reads_ok + commits + recovered) as u64,
            refused: shed as u64,
        }
    }

    fn sim(&self, out: &EvolveOutcome) -> Sim {
        Sim {
            latencies_s: served_latencies(&out.outcomes),
            goodput_rps: goodput_rps(&out.outcomes, out.clock_s),
            gflops: spaden_gflops([&self.stream.csr, self.final_truth()]),
            span_s: out.clock_s,
        }
    }

    fn layers(&self, out: &EvolveOutcome, tr: &mut Tracer) -> Result<Vec<Metric>, String> {
        let csr = self.stream.csr.clone();
        let probe = Corpus::of(vec![Mat {
            name: "evolve",
            x: traffic_x(NODES, 0),
            csr,
        }]);
        let mut m = crate::corpus::probe(&probe, tr)?;
        let view = ServeView {
            outcomes: &out.outcomes,
            stats: &out.stats,
            breaker_trips: out.breaker_trips,
        };
        m.extend(crate::layers::common(
            self.seed,
            probe.matrices(),
            Some(view),
            tr,
        )?);
        Ok(m)
    }
}

/// The store and evolve probe: the first [`PROBE_UPDATES`] updates of
/// `seed`'s stream through `EvolvingMatrix::apply`,
/// `DurableStore::append_batch`/`maybe_snapshot` and, on a second
/// server, `SpmvServer::update`; then `spaden_store::recover` next to
/// `SpmvServer::recover_evolving` on the resulting image.
pub fn probe(seed: u64, tr: &mut Tracer) -> Result<Vec<Metric>, String> {
    let s = Stream::new(seed, PROBE_UPDATES);
    let mut ev = EvolvingMatrix::new(s.csr.clone(), evolve_config());
    let mut store = DurableStore::create(&ev, policy());
    let mut server = SpmvServer::new(Gpu::new(GpuConfig::l40()), ServeConfig::default());
    let h = tr
        .span("serve.register", "probe", 0, |_| {
            server.register_evolving(&s.csr, evolve_config())
        })
        .map_err(|e| format!("probe registration: {e}"))?;
    let (mut wal_growth, mut installs) = (0usize, Vec::new());
    for (k, u) in s.updates.iter().enumerate() {
        let op = k as u64;
        tr.span("core.evolve_apply", "probe", op, |_| {
            ev.apply(&u.batch, None)
        })
        .map_err(|e| format!("probe update {k}: {e}"))?;
        let before = store.wal_bytes();
        tr.span("store.append", "probe", op, |_| {
            store.append_batch(ev.epoch(), &u.batch)
        });
        wal_growth += store.wal_bytes() - before;
        installs.push(tr.span("store.maybe_snapshot", "probe", op, |_| {
            store.maybe_snapshot(&ev)
        }));
        tr.span("serve.update", "probe", op, |_| server.update(h, &u.batch))
            .map_err(|e| format!("probe server update {k}: {e}"))?;
    }
    let image = store.capture();
    let rec = tr
        .span("store.recover", "probe", 0, |_| {
            spaden_store::recover(&image)
        })
        .map_err(|e| format!("probe recovery: {e}"))?;
    let mut fresh = SpmvServer::new(Gpu::new(GpuConfig::l40()), ServeConfig::default());
    tr.span("serve.recover_evolving", "probe", 0, |_| {
        fresh.recover_evolving(&image, policy())
    })
    .map_err(|e| format!("probe recover_evolving: {e}"))?;

    let us = |name: &str| {
        sorted(
            tr.durations_s(name, Some("probe"))
                .iter()
                .map(|s| s * 1e6)
                .collect(),
        )
    };
    let (apply, update) = (us("core.evolve_apply"), us("serve.update"));
    let p50 = |v: &[f64]| percentile(v, 50.0).unwrap_or(0.0);
    let tl = |v: &[f64]| tail(v).map_or(0.0, |t| t.1);
    let snapshots = tr.durations_s("store.maybe_snapshot", Some("probe"));
    let installed: Vec<f64> = snapshots
        .iter()
        .zip(&installs)
        .filter(|(_, &i)| i)
        .map(|(&t, _)| t * 1e6)
        .collect();
    let recover_ms = tr.total_s("store.recover", Some("probe")) * 1e3;
    let stats = ev.stats();
    let n = s.updates.len() as f64;
    Ok(vec![
        Metric::new("core.evolve_apply_us.p50", p50(&apply), "us"),
        Metric::new("core.evolve_apply_us.tail", tl(&apply), "us"),
        Metric::new("core.compactions", stats.compactions as f64, "count"),
        Metric::new("core.rollbacks", stats.rollbacks as f64, "count"),
        Metric::new("serve.update_us.p50", p50(&update), "us"),
        Metric::new("serve.update_us.tail", tl(&update), "us"),
        Metric::new(
            "serve.recover_rebuild_ms",
            tr.total_s("serve.recover_evolving", Some("probe")) * 1e3 - recover_ms,
            "ms",
        ),
        Metric::new(
            "store.append_us",
            us("store.append").iter().sum::<f64>() / n,
            "us",
        ),
        Metric::new(
            "store.snapshot_us",
            installed.iter().sum::<f64>() / installed.len().max(1) as f64,
            "us",
        ),
        Metric::new("store.recover_ms", recover_ms, "ms"),
        Metric::new("store.wal_bytes_per_commit", wal_growth as f64 / n, "B"),
        Metric::new("store.replayed_records", rec.replayed as f64, "count"),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_follows_the_seed_and_its_truth_chain() {
        let (a, b) = (Stream::new(7, 6), Stream::new(8, 6));
        assert_eq!(a.csr, b.csr, "the matrix is pinned");
        assert_ne!(a.truths[6], b.truths[6]);
        assert_eq!(a.truths.len(), 7);
        for (k, u) in a.updates.iter().enumerate() {
            let next = apply_to_csr(&a.truths[k], &u.batch).unwrap();
            assert_eq!(next, a.truths[k + 1]);
            let grew = a.truths[k + 1].nnz() - a.truths[k].nnz();
            assert_eq!(grew, if k % 2 == 0 { 0 } else { INSERTS });
        }
        let digest = |seed| Evolve::new(seed).input_digest();
        assert_eq!(digest(7), digest(7));
        assert_ne!(digest(7), digest(8));
    }

    #[test]
    fn reads_are_checked_against_their_epoch() {
        let w = Evolve::new(7);
        let mut off = Tracer::off();
        let s = w.setup(&mut off).unwrap();
        let mut out = w.timed(s, &mut off);
        assert_eq!(w.verify(&out), Vec::<String>::new());
        let r = out.recovery.as_ref().unwrap();
        assert_eq!(r.replayed, UPDATES - SNAPSHOT_EVERY as usize);
        // A read served on the right values but labelled with the wrong
        // epoch is a torn or stale read.
        let o = out
            .outcomes
            .iter_mut()
            .rev()
            .find(|o| o.result.is_ok())
            .unwrap();
        o.epoch -= 1;
        assert_eq!(w.verify(&out).len(), 1);
    }
}
