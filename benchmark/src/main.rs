//! `spaden-benchmark`: four pinned workloads over the Spaden stack, their
//! end-to-end metrics on the host and simulated clocks, and a traced run
//! that breaks them down layer by layer. `README.md` documents the
//! workloads, every metric, and how to read the trace.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
//! ```
//!
//! Prints one line per value, `<workload> <metric> <value> <unit>`, and
//! as its last line one JSON object with the reported metrics. Exits 1 on
//! any wrong output or input-pin mismatch, 2 on a usage error.

mod corpus;
mod evolve;
mod layers;
mod serve;
mod stats;
mod trace;
mod workload;

use corpus::Corpus;
use evolve::Evolve;
use serve::{Serve, ServeParams};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{measure, Report, Workload};

const USAGE: &str = "usage: spaden-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--out FILE]";

/// The workloads, in default run order.
const WORKLOADS: [&str; 4] = [
    "corpus-spmv",
    "serve-light",
    "serve-peak-batched",
    "evolve-durable",
];

/// The seed a run uses when none is given, and the one the pins hold for.
const DEFAULT_SEED: u64 = 1;

/// FNV-1a digests of every workload's generated inputs at
/// [`DEFAULT_SEED`]. An edit to a generator the benchmark draws from
/// (`sparse::gen`, `datasets`, the `traffic` generators) changes them, and
/// the run refuses to measure instead of silently changing a workload.
const PINS: [(&str, u64); 4] = [
    ("corpus-spmv", 0x1d17_8aea_ca35_d3be),
    ("serve-light", 0x8e5b_b3ce_b34d_f96f),
    ("serve-peak-batched", 0xb7ea_2ab9_1b9f_0c21),
    ("evolve-durable", 0xbc12_0b27_8db7_8366),
];

/// Where the traced run writes its spans.
const TRACE_DIR: &str = ".bench_out";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w}; one of {}",
                        WORKLOADS.join(", ")
                    ));
                }
                a.workload = Some(w);
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds >= 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        a.trace = true;
                        continue;
                    }
                };
                it.next();
            }
            "--out" => a.out = Some(value("a file")?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Refuses to measure default-seed inputs that no longer match their pin.
fn pin_check(name: &str, seed: u64, digest: u64) -> Result<(), String> {
    let pinned = PINS.iter().find(|(n, _)| *n == name).map(|p| p.1);
    match pinned {
        _ if seed != DEFAULT_SEED => Ok(()),
        Some(p) if p == digest => Ok(()),
        p => Err(format!(
            "input pin mismatch at seed {seed}: inputs digest {digest:016x}, pinned {}",
            p.map_or("nothing".to_string(), |p| format!("{p:016x}"))
        )),
    }
}

fn checked<W: Workload>(w: &W, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    pin_check(w.name(), seed, w.input_digest())?;
    let mut r = measure(w, seconds, trace)?;
    if trace {
        r.metrics = layers::in_report_order(std::mem::take(&mut r.metrics))?;
    }
    Ok(r)
}

fn run(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    match name {
        "corpus-spmv" => checked(&Corpus::table1(seed, corpus::SCALE), seed, seconds, trace),
        "serve-light" => checked(&Serve::new(seed, ServeParams::LIGHT), seed, seconds, trace),
        "serve-peak-batched" => checked(
            &Serve::new(seed, ServeParams::PEAK_BATCHED),
            seed,
            seconds,
            trace,
        ),
        "evolve-durable" => checked(&Evolve::new(seed), seed, seconds, trace),
        other => Err(format!("unknown workload {other}")),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json<'a>(ms: impl Iterator<Item = (String, &'a workload::Metric)>) -> String {
    let body: Vec<String> = ms
        .map(|(name, m)| {
            // A non-finite value fails the run (see `main`); JSON has no
            // spelling for it.
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".into()
            };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(&name),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: one workload's metrics as named, several workloads'
/// prefixed with the workload.
fn result_line(reports: &[Report]) -> String {
    let prefix = reports.len() > 1;
    let ms = reports.iter().flat_map(|r| {
        r.metrics.iter().map(move |m| {
            (
                if prefix {
                    format!("{}.{}", r.workload, m.name)
                } else {
                    m.name.clone()
                },
                m,
            )
        })
    });
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        reports.iter().all(|r| r.errors.is_empty()),
        reports.iter().map(|r| r.attempted).sum::<u64>(),
        reports.iter().map(|r| r.failed).sum::<u64>(),
        metrics_json(ms)
    )
}

/// The `--out` document: every report in full.
fn report_json(seed: u64, reports: &[Report]) -> String {
    let items: Vec<String> = reports
        .iter()
        .map(|r| {
            let errors: Vec<String> = r.errors.iter().map(|e| json_str(e)).collect();
            format!(
                "{{\"workload\": {}, \"input_digest\": \"{:016x}\", \"behaviour_digest\": \
                 \"{:016x}\", \"attempted\": {}, \"failed\": {}, \"errors\": [{}], \
                 \"metrics\": {}, \"notes\": {}}}",
                json_str(r.workload),
                r.input_digest,
                r.behaviour_digest,
                r.attempted,
                r.failed,
                errors.join(", "),
                metrics_json(r.metrics.iter().map(|m| (m.name.clone(), m))),
                metrics_json(r.notes.iter().map(|m| (m.name.clone(), m))),
            )
        })
        .collect();
    format!(
        "{{\"seed\": {seed}, \"workloads\": [{}]}}\n",
        items.join(", ")
    )
}

fn print_report(r: &Report, seed: u64) {
    let w = r.workload;
    let pin = if seed == DEFAULT_SEED {
        "pinned"
    } else {
        "unpinned seed"
    };
    println!("{w} input_digest {:016x} ({pin})", r.input_digest);
    println!("{w} behaviour_digest {:016x}", r.behaviour_digest);
    for m in r.notes.iter().chain(&r.metrics) {
        println!("{w} {} {} {} {}", m.name, m.value, m.unit, m.note);
    }
    println!("{w} oracle_failures {}", r.errors.len());
    for e in r.errors.iter().take(20) {
        eprintln!("{w}: {e}");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# spaden-benchmark seed={} seconds={} trace={} available_parallelism={threads}",
        args.seed, args.seconds, args.trace as u8
    );
    let names = args
        .workload
        .as_deref()
        .map_or(WORKLOADS.to_vec(), |w| vec![w]);
    let mut reports = Vec::new();
    for name in names {
        let mut r = match run(name, args.seed, args.seconds, args.trace) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{name}: {e}");
                return ExitCode::from(1);
            }
        };
        if let Some(bad) = r.metrics.iter().find(|m| !m.value.is_finite()) {
            r.errors.push(format!("metric {} is not finite", bad.name));
        }
        print_report(&r, args.seed);
        if let Some(tr) = &r.trace {
            let path = PathBuf::from(TRACE_DIR).join(format!("trace-{name}-{}.jsonl", args.seed));
            match tr.write_jsonl(&path) {
                Ok(()) => println!(
                    "{name} trace_file {} ({} spans)",
                    path.display(),
                    tr.spans().len()
                ),
                Err(e) => {
                    eprintln!("{name}: writing {}: {e}", path.display());
                    r.errors.push(format!("writing {}: {e}", path.display()));
                }
            }
        }
        reports.push(r);
    }
    if let Some(out) = &args.out {
        if let Err(e) = std::fs::write(out, report_json(args.seed, &reports)) {
            eprintln!("writing {}: {e}", out.display());
            return ExitCode::from(1);
        }
    }
    println!("{}", result_line(&reports));
    if reports.iter().all(|r| r.errors.is_empty()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::END_TO_END;

    fn args(s: &str) -> Result<Args, String> {
        parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_and_the_manual_forms() {
        let a = args("--workload serve-light --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve-light"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
        assert!(!args("--trace 0").unwrap().trace);
        assert!(args("--trace --out r.json").unwrap().trace);
        assert_eq!(args("").unwrap().seed, DEFAULT_SEED);
        assert!(args("--workload nope").is_err());
        assert!(args("--seconds -1").is_err());
        assert!(args("--seed").is_err());
    }

    #[test]
    fn pins_hold_for_the_generated_inputs_and_refuse_others() {
        let digests = [
            Corpus::table1(DEFAULT_SEED, corpus::SCALE).input_digest(),
            Serve::new(DEFAULT_SEED, ServeParams::LIGHT).input_digest(),
            Serve::new(DEFAULT_SEED, ServeParams::PEAK_BATCHED).input_digest(),
            Evolve::new(DEFAULT_SEED).input_digest(),
        ];
        for (name, d) in WORKLOADS.iter().zip(digests) {
            assert_eq!(pin_check(name, DEFAULT_SEED, d), Ok(()), "{name}: {d:016x}");
            assert!(pin_check(name, DEFAULT_SEED, d ^ 1).is_err());
            assert_eq!(
                pin_check(name, DEFAULT_SEED + 1, d ^ 1),
                Ok(()),
                "other seeds are unpinned"
            );
        }
    }

    #[test]
    fn benchmark_json_lists_every_reported_metric_with_its_unit() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let listed = |name: &str, unit: &str| {
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in END_TO_END {
            assert!(listed(name, unit), "end_to_end {name} ({unit})");
        }
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{w}\", \"why\"")),
                "workload {w}"
            );
        }
        // A short traced run reports exactly the per-layer names, in order.
        let w = Serve::new(
            3,
            ServeParams {
                horizon_s: 0.002,
                ..ServeParams::LIGHT
            },
        );
        let r = checked(&w, 3, 0.0, true).unwrap();
        assert_eq!(r.errors, Vec::<String>::new());
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, layers::names());
        for m in &r.metrics {
            assert!(listed(&m.name, m.unit), "per_layer {} ({})", m.name, m.unit);
            assert!(m.value.is_finite(), "{}", m.name);
        }
        let coverage = r
            .metrics
            .iter()
            .find(|m| m.name == "bench.span_coverage")
            .unwrap();
        assert!(
            coverage.value > 0.95,
            "spans account for the traced timed phase"
        );
    }

    #[test]
    fn an_untraced_run_reports_the_end_to_end_metrics_as_one_json_line() {
        let w = Serve::new(
            3,
            ServeParams {
                horizon_s: 0.002,
                ..ServeParams::PEAK_BATCHED
            },
        );
        let r = checked(&w, 3, 0.0, false).unwrap();
        assert_eq!(r.errors, Vec::<String>::new());
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|(n, _)| n));
        assert!(r
            .metrics
            .iter()
            .all(|m| m.value > 0.0 && m.value.is_finite()));
        let line = result_line(std::slice::from_ref(&r));
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(line.contains("\"setup_s\": {\"value\": "), "{line}");
        assert!(!line.contains('\n'));
    }
}
