//! Minimal wall-clock micro-benchmark harness.
//!
//! The workspace builds offline, so the `[[bench]]` targets cannot pull in
//! criterion; this module provides the small subset they need — warm-up,
//! auto-calibrated iteration counts, best/mean wall time and element
//! throughput — printed one line per benchmark.

use std::time::Instant;

/// Target total measurement time per benchmark.
const TARGET_SECONDS: f64 = 0.05;

/// A named group of benchmarks, mirroring criterion's `benchmark_group`.
pub struct BenchGroup {
    name: String,
    /// Elements processed per iteration, for throughput reporting.
    pub elements: u64,
}

impl BenchGroup {
    /// Starts a group; prints its header.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        println!("\n== {name}");
        BenchGroup { name, elements: 0 }
    }

    /// Sets per-iteration element throughput for subsequent benchmarks.
    pub fn throughput(&mut self, elements: u64) -> &mut Self {
        self.elements = elements;
        self
    }

    /// Times `f`, auto-scaling iterations toward `TARGET_SECONDS`.
    pub fn bench<T>(&self, label: &str, mut f: impl FnMut() -> T) {
        std::hint::black_box(f()); // warm-up
        let t0 = Instant::now();
        std::hint::black_box(f());
        let once = t0.elapsed().as_secs_f64().max(1e-9);
        let iters = ((TARGET_SECONDS / once).ceil() as u64).clamp(3, 10_000);
        let mut best = f64::INFINITY;
        let mut total = 0.0f64;
        for _ in 0..iters {
            let t = Instant::now();
            std::hint::black_box(f());
            let dt = t.elapsed().as_secs_f64();
            best = best.min(dt);
            total += dt;
        }
        let mean = total / iters as f64;
        let thr = if self.elements > 0 {
            format!("  {:>9.1} Melem/s", self.elements as f64 / best / 1e6)
        } else {
            String::new()
        };
        println!(
            "{:<28} {label:<24} {iters:>6} it  mean {}  best {}{thr}",
            self.name,
            fmt_secs(mean),
            fmt_secs(best)
        );
    }
}

fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:>8.3} s ")
    } else if s >= 1e-3 {
        format!("{:>8.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:>8.3} us", s * 1e6)
    } else {
        format!("{:>8.1} ns", s * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_closure() {
        let mut g = BenchGroup::new("selftest");
        g.throughput(8);
        let mut n = 0u64;
        g.bench("count", || {
            n += 1;
            n
        });
        assert!(n >= 4, "warm-up + calibration + >=3 samples");
    }

    #[test]
    fn fmt_secs_scales() {
        assert!(fmt_secs(2.0).contains("s"));
        assert!(fmt_secs(2e-3).contains("ms"));
        assert!(fmt_secs(2e-6).contains("us"));
        assert!(fmt_secs(2e-9).contains("ns"));
    }
}
