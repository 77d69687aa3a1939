//! The `repro serve` experiment: kernel fault bursts against the
//! resilient serving layer, rendered as its SLO report.
//!
//! Not a paper figure — it certifies the availability story layered on
//! top of the paper's kernels. Every cell is a single-family
//! [`ChaosSchedule`]: one bit burst (all four fault kinds, or tensor-core
//! fragments only) over the first 60% of the horizon, run through
//! [`run_schedule`] and checked by its invariant oracle — every served
//! result epoch-exact against f64, one outcome per arrival. Breakers trip
//! during the burst and recover after it, and the p50/p99 simulated
//! latencies quantify the cost of degraded service.

use crate::verdict::Verdict;
use crate::Table;
use spaden_chaos::{run_schedule, ChaosProfile, ChaosSchedule, FaultEvent, ScenarioOutcome};
use spaden_gpusim::GpuConfig;
use spaden_serve::{Rung, Weaken};

/// Uniform-fault burst rates of the `repro serve` sweep.
pub const UNIFORM_RATES: [f64; 4] = [0.0, 1e-2, 5e-2, 2e-1];
/// Tensor-core-only burst rates of the `repro serve` sweep.
pub const TC_ONLY_RATES: [f64; 2] = [2e-1, 1.0];

/// Base arrivals of every single-family sweep cell.
const ARRIVALS: usize = 208;

/// A schedule holding exactly `events` on the default chaos horizon,
/// with no update stream. `high_floor` is the High-priority availability
/// the oracle demands; a hot burst legitimately dents it.
pub(crate) fn single_family(seed: u64, high_floor: f64, events: Vec<FaultEvent>) -> ChaosSchedule {
    ChaosSchedule {
        seed,
        duration_s: ChaosProfile::default().duration_s,
        arrivals: ARRIVALS,
        updates: 0,
        high_floor,
        events,
    }
}

/// One `repro serve` cell: a bit burst at `rate` over the first 60% of
/// the horizon, so breakers trip and then recover in the same run.
/// `tc_only` confines the burst to tensor-core fragment corruption,
/// which ABFT correction absorbs without leaving the top rungs.
pub fn burst_schedule(seed: u64, rate: f64, tc_only: bool) -> ChaosSchedule {
    let duration_s = ChaosProfile::default().duration_s;
    let hot = rate > 0.0 && !tc_only;
    let floor = if hot { 0.0 } else { ChaosProfile::default().high_floor };
    let events = if rate > 0.0 {
        vec![FaultEvent::BitBurst { from_s: 0.0, until_s: 0.6 * duration_s, rate, tc_only }]
    } else {
        Vec::new()
    };
    single_family(seed, floor, events)
}

/// Runs one burst cell per `(rate, seed)` (rates outer) on `gpu` and
/// renders the per-cell outcome table, the latency table, and the SLO
/// verdict.
pub fn serve_report(
    gpu: &GpuConfig,
    rates: &[f64],
    seeds: &[u64],
    tc_only: bool,
) -> (Vec<Table>, Verdict, Vec<ScenarioOutcome>) {
    let cells: Vec<(f64, u64)> =
        rates.iter().flat_map(|&r| seeds.iter().map(move |&s| (r, s))).collect();
    let outcomes: Vec<ScenarioOutcome> = cells
        .iter()
        .map(|&(rate, seed)| run_schedule(gpu, &burst_schedule(seed, rate, tc_only), Weaken::None))
        .collect();

    let mut table = Table::new(
        format!("Serving outcomes under fault injection ({})", gpu.name),
        &[
            "rate", "seed", "reqs", "sharded", "checked", "scalar", "csr", "shed", "deadline",
            "exhaust", "unavail", "trips", "recover", "retries", "violations",
        ],
    );
    let mut latency = Table::new(
        format!("Served-request simulated latency ({})", gpu.name),
        &["rate", "seed", "served", "p50 us", "p99 us", "p50 kcycle", "p99 kcycle"],
    );
    for (&(rate, seed), o) in cells.iter().zip(&outcomes) {
        let st = &o.stats;
        table.push_row(vec![
            format!("{rate:.0e}"),
            seed.to_string(),
            o.offered.to_string(),
            st.served[Rung::Sharded as usize].to_string(),
            st.served[Rung::SpadenChecked as usize].to_string(),
            st.served[Rung::SpadenScalar as usize].to_string(),
            st.served[Rung::CsrBaseline as usize].to_string(),
            st.shed.to_string(),
            st.deadline_exceeded.to_string(),
            st.exhausted.to_string(),
            st.unavailable.to_string(),
            o.breakers.0.to_string(),
            o.breakers.1.to_string(),
            st.retries.to_string(),
            o.violations.len().to_string(),
        ]);
        latency.push_row(vec![
            format!("{rate:.0e}"),
            seed.to_string(),
            o.served.to_string(),
            Table::num(st.p50_s() * 1e6),
            Table::num(st.p99_s() * 1e6),
            Table::num(st.p50_s() * gpu.clock_hz / 1e3),
            Table::num(st.p99_s() * gpu.clock_hz / 1e3),
        ]);
    }

    let violations: usize = outcomes.iter().map(|o| o.violations.len()).sum();
    let held = violations == 0;
    let verdict = Verdict::new(held, format!(
        "SLO {}: {} requests, {} oracle violations, {} breaker trips, {} recoveries",
        if held { "HELD" } else { "VIOLATED" },
        outcomes.iter().map(|o| o.offered).sum::<usize>(),
        violations,
        outcomes.iter().map(|o| o.breakers.0).sum::<u64>(),
        outcomes.iter().map(|o| o.breakers.1).sum::<u64>(),
    ));
    (vec![table, latency], verdict, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_and_slo_holds() {
        let (tables, verdict, outcomes) =
            serve_report(&GpuConfig::l40(), &[0.0, 5e-2], &[5], false);
        assert_eq!(tables.len(), 2);
        assert_eq!(outcomes.len(), 2);
        assert!(verdict.pass, "{verdict}");
        assert!(verdict.line.starts_with("SLO HELD"), "{verdict}");
        assert_eq!(outcomes[0].breakers, (0, 0), "a clean cell trips nothing");
        let rendered = tables[0].to_string();
        assert!(rendered.contains("Serving outcomes"));
        assert!(rendered.contains("trips"));
    }
}
