//! The `repro shard` experiment: multi-device sharded SpMV under device
//! failure.
//!
//! Not a paper figure — it certifies the fleet-level availability story:
//! latency scaling with device count, straggler speculation beating
//! no-speculation on tail latency, the device-failure profiles (one
//! device killed mid-stream, all devices slow, rolling hangs), and
//! per-device health counters. Each device-failure profile is a
//! single-family [`ChaosSchedule`] run through [`run_schedule`] and its
//! invariant oracle. The verdict line asserts the SLO: zero oracle
//! violations, ≥ 90% availability with a device killed mid-stream, and
//! speculation improving straggler p99.

use crate::serving::single_family;
use crate::verdict::Verdict;
use crate::Table;
use spaden::gpusim::{DeviceCounters, DeviceFaultConfig, GpuConfig};
use spaden::sparse::gen;
use spaden_chaos::{run_schedule, ChaosProfile, ChaosSchedule, FaultEvent, ScenarioOutcome};
use spaden_serve::{percentile, Rung, Weaken};
use spaden_shard::{DeviceFleet, ShardPolicy, ShardedMatrix};
use spaden_traffic::traffic_x;

/// The device-failure profiles of `repro shard` for `seed`, in report
/// order: device 1 killed at 40% of the horizon, every device
/// straggling 60% of its launches over the first 40%, and every device
/// hanging 25% of its launches over the first 40%.
pub fn device_schedules(seed: u64) -> [(&'static str, ChaosSchedule); 3] {
    let until_s = 0.4 * ChaosProfile::default().duration_s;
    let floor = ChaosProfile::default().high_floor;
    let burst = |hang: f64, straggle: f64| FaultEvent::DeviceBurst {
        from_s: 0.0,
        until_s,
        crash: 0.0,
        hang,
        straggle,
    };
    let kill = FaultEvent::KillDevice { at_s: until_s, device: 1 };
    [
        ("kill-one", single_family(seed, floor, vec![kill])),
        ("all-slow", single_family(seed, floor, vec![burst(0.0, 0.6)])),
        ("rolling-hangs", single_family(seed, floor, vec![burst(0.25, 0.0)])),
    ]
}

/// Runs `requests` sharded executions and returns their latencies.
fn run_stream(
    m: &mut ShardedMatrix,
    fleet: &mut DeviceFleet,
    ncols: usize,
    requests: usize,
) -> Vec<f64> {
    (0..requests)
        .map(|salt| {
            let run = m
                .execute(fleet, &traffic_x(ncols, salt), None)
                .expect("stream profiles are survivable");
            run.elapsed_s
        })
        .collect()
}

/// Latency vs device count on a healthy fleet, plus the single-device
/// Spaden estimate as the scaling baseline.
fn scaling_table(gpu: &GpuConfig) -> Table {
    // Large enough that DRAM traffic, not fixed launch overhead,
    // dominates — otherwise the scaling curve flatlines.
    let csr = gen::random_uniform(16_384, 1024, 1_000_000, 1201);
    let mut t = Table::new(
        format!("Sharded SpMV latency vs device count ({})", gpu.name),
        &["devices", "shards", "p50 us", "p99 us", "speedup vs 1 dev"],
    );
    let mut p50_one = 0.0f64;
    for devices in [1usize, 2, 4, 8] {
        let mut m = ShardedMatrix::try_new(gpu, &csr, devices * 2, ShardPolicy::default())
            .expect("valid matrix shards");
        let mut fleet = DeviceFleet::new(devices, gpu, DeviceFaultConfig::disabled());
        let mut lat = run_stream(&mut m, &mut fleet, csr.ncols, 8);
        let p50 = percentile(&mut lat, 50.0);
        let p99 = percentile(&mut lat, 99.0);
        if devices == 1 {
            p50_one = p50;
        }
        t.push_row(vec![
            devices.to_string(),
            m.shards().len().to_string(),
            Table::num(p50 * 1e6),
            Table::num(p99 * 1e6),
            format!("{:.2}x", p50_one / p50.max(1e-30)),
        ]);
    }
    t
}

/// Speculation on vs off under a straggler-heavy fleet. Returns the
/// table and whether speculation beat no-speculation on p99.
fn speculation_table(gpu: &GpuConfig) -> (Table, bool) {
    let csr = gen::random_uniform(512, 192, 9_000, 1301);
    let faults = DeviceFaultConfig {
        seed: 97,
        straggler_rate: 0.25,
        straggler_factor: 20.0,
        ..DeviceFaultConfig::disabled()
    };
    let mut t = Table::new(
        format!("Straggler mitigation: speculative re-execution ({})", gpu.name),
        &["speculation", "p50 us", "p99 us", "spec launches", "spec wins"],
    );
    let mut p99s = [0.0f64; 2];
    for (i, speculation) in [true, false].into_iter().enumerate() {
        let policy = ShardPolicy { speculation, ..ShardPolicy::default() };
        let mut m = ShardedMatrix::try_new(gpu, &csr, 8, policy).expect("valid matrix shards");
        let mut fleet = DeviceFleet::new(4, gpu, faults);
        let mut lat = run_stream(&mut m, &mut fleet, csr.ncols, 48);
        p99s[i] = percentile(&mut lat, 99.0);
        let counters = fleet.counters();
        t.push_row(vec![
            if speculation { "on" } else { "off" }.to_string(),
            Table::num(percentile(&mut lat, 50.0) * 1e6),
            Table::num(p99s[i] * 1e6),
            counters.iter().map(|c| c.speculative_launches).sum::<u64>().to_string(),
            counters.iter().map(|c| c.speculative_wins).sum::<u64>().to_string(),
        ]);
    }
    (t, p99s[0] < p99s[1])
}

/// The device-failure profiles through the serving ladder.
fn chaos_table(gpu: &GpuConfig, cells: &[(&str, u64, ScenarioOutcome)]) -> Table {
    let mut t = Table::new(
        format!("Device-failure chaos profiles ({})", gpu.name),
        &[
            "profile", "seed", "reqs", "sharded", "1-dev", "failed", "lost", "retries", "hangs",
            "straggle", "spec", "wins", "violations", "p50 us", "p99 us",
        ],
    );
    for (name, seed, o) in cells {
        let sharded = o.stats.served[Rung::Sharded as usize];
        let sum = |f: fn(&DeviceCounters) -> u64| -> u64 {
            o.devices.iter().map(f).sum()
        };
        t.push_row(vec![
            name.to_string(),
            seed.to_string(),
            o.offered.to_string(),
            sharded.to_string(),
            (o.served as u64 - sharded).to_string(),
            (o.offered - o.served).to_string(),
            o.devices.iter().filter(|c| c.crashed).count().to_string(),
            sum(|c| c.retries).to_string(),
            sum(|c| c.hangs).to_string(),
            sum(|c| c.stragglers).to_string(),
            sum(|c| c.speculative_launches).to_string(),
            sum(|c| c.speculative_wins).to_string(),
            o.violations.len().to_string(),
            Table::num(o.stats.p50_s() * 1e6),
            Table::num(o.stats.p99_s() * 1e6),
        ]);
    }
    t
}

/// Per-device health counters after a mixed crash/hang/straggler stream.
fn health_table(gpu: &GpuConfig) -> Table {
    let csr = gen::random_uniform(512, 192, 9_000, 1401);
    let faults = DeviceFaultConfig {
        seed: 41,
        crash_rate: 0.004,
        hang_rate: 0.03,
        straggler_rate: 0.1,
        straggler_factor: 10.0,
    };
    let mut m =
        ShardedMatrix::try_new(gpu, &csr, 8, ShardPolicy::default()).expect("valid matrix shards");
    let mut fleet = DeviceFleet::new(4, gpu, faults);
    for salt in 0..40 {
        // Survivable failures are part of the profile; whole-fleet loss
        // is not expected at these rates.
        let _ = m.execute(&mut fleet, &traffic_x(csr.ncols, salt), None);
    }
    let mut t = Table::new(
        format!("Per-device health after mixed-fault stream ({})", gpu.name),
        &[
            "device", "alive", "launches", "completed", "retries", "hangs", "straggle", "spec",
            "wins", "busy us", "DRAM MB", "MMA kops",
        ],
    );
    for c in fleet.counters() {
        t.push_row(vec![
            c.id.to_string(),
            if c.crashed { "dead" } else { "yes" }.to_string(),
            c.launches.to_string(),
            c.completed.to_string(),
            c.retries.to_string(),
            c.hangs.to_string(),
            c.stragglers.to_string(),
            c.speculative_launches.to_string(),
            c.speculative_wins.to_string(),
            Table::num(c.busy_s * 1e6),
            Table::num(c.dram_bytes() as f64 / 1e6),
            Table::num(c.mma_ops() as f64 / 1e3),
        ]);
    }
    t
}

/// Runs the full `repro shard` experiment: scaling, speculation, the
/// device-failure profiles for every seed, and per-device health, with
/// a one-line SLO verdict. Returns the profiles' outcomes in report
/// order (profiles outer, seeds inner).
pub fn shard_report(
    gpu: &GpuConfig,
    seeds: &[u64],
) -> (Vec<Table>, Verdict, Vec<ScenarioOutcome>) {
    let scaling = scaling_table(gpu);
    let (speculation, spec_beats) = speculation_table(gpu);
    let per_seed: Vec<_> = seeds.iter().map(|&seed| (seed, device_schedules(seed))).collect();
    let mut cells = Vec::new();
    for i in 0..3 {
        for (seed, schedules) in &per_seed {
            let (name, sched) = &schedules[i];
            cells.push((*name, *seed, run_schedule(gpu, sched, Weaken::None)));
        }
    }
    let chaos = chaos_table(gpu, &cells);
    let health = health_table(gpu);

    let violations: usize = cells.iter().map(|(_, _, o)| o.violations.len()).sum();
    let kill_rate = cells
        .iter()
        .filter(|(name, _, _)| *name == "kill-one")
        .map(|(_, _, o)| o.served as f64 / o.offered.max(1) as f64)
        .fold(1.0f64, f64::min);
    let held = violations == 0 && kill_rate >= 0.9 && spec_beats;
    let verdict = Verdict::new(held, format!(
        "SLO {}: {} requests, {} oracle violations, {:.1}% served with a device killed mid-stream, \
         speculation {} no-speculation on straggler p99",
        if held { "HELD" } else { "VIOLATED" },
        cells.iter().map(|(_, _, o)| o.offered).sum::<usize>(),
        violations,
        kill_rate * 100.0,
        if spec_beats { "beats" } else { "misses" },
    ));
    let outcomes = cells.into_iter().map(|(_, _, o)| o).collect();
    (vec![scaling, speculation, chaos, health], verdict, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_report_renders_and_slo_holds() {
        let (tables, verdict, outcomes) = shard_report(&GpuConfig::l40(), &[31]);
        assert_eq!(tables.len(), 4);
        assert_eq!(outcomes.len(), 3);
        assert!(verdict.pass, "{verdict}");
        assert!(verdict.line.starts_with("SLO HELD"), "{verdict}");
        let rendered = tables[0].to_string();
        assert!(rendered.contains("device count"));
        assert!(tables[2].to_string().contains("kill-one"));
        assert!(tables[3].to_string().contains("Per-device health"));
    }
}
