//! End-to-end benchmark of the paper pipeline: locality analysis,
//! miss-clustering transforms and simulation of base against clustered
//! code, plus the composition tuner.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload <name>] [--seed <n>] [--seconds <s>] [--trace 0|1] [--trace-out <path>]
//! ```
//!
//! With `--trace 0` (the default) it measures the end-to-end metrics with
//! no spans; `--trace 1` adds a traced pass and prints the per-layer
//! metrics instead. Each metric prints as one line, and the last line of
//! standard output is one JSON object with the result. The README in this
//! directory defines the workloads and every metric.

mod cells;
mod jobs;
mod report;
mod run;
mod spans;
mod speed;
mod stats;
mod traced;

use std::collections::BTreeMap;

use cells::Bench;
use report::{collect, json_line, text_line, Metric, END_TO_END, PER_LAYER, RAW};
use run::{Setup, Tally};
use stats::Summary;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Measured seconds per workload when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 25.0;

#[derive(Debug)]
struct Args {
    workloads: Vec<Bench>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn usage() -> String {
    let names: Vec<&str> = Bench::ALL.iter().map(|b| b.name()).collect();
    format!(
        "usage: benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace 0|1] [--trace-out <path>]\n\
         \n\
         \x20 --workload <name>  one of {} (default: all, one after another)\n\
         \x20 --seed <n>         seed of every random input (default {DEFAULT_SEED})\n\
         \x20 --seconds <s>      seconds of timed passes per workload (default {DEFAULT_SECONDS})\n\
         \x20 --trace 0|1        1 adds a traced pass and reports per-layer metrics (default 0)\n\
         \x20 --trace-out <path> write the traced run's spans as JSON (needs --trace 1)",
        names.join(", ")
    )
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n\n{}", usage());
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: Bench::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            println!("{}", usage());
            std::process::exit(0);
        }
        let value = it
            .next()
            .unwrap_or_else(|| usage_error(&format!("missing value for {flag}")));
        match flag.as_str() {
            "--workload" => {
                let bench = Bench::parse(&value)
                    .unwrap_or_else(|| usage_error(&format!("unknown workload {value}")));
                args.workloads = vec![bench];
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seed expects an unsigned integer"))
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage_error("--seconds expects a positive number"))
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage_error("--trace expects 0 or 1"),
                }
            }
            "--trace-out" => args.trace_out = Some(value),
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    if args.trace_out.is_some() && !args.trace {
        usage_error("--trace-out needs --trace 1");
    }
    args
}

/// The result of one workload.
struct WorkloadResult {
    bench: Bench,
    tally: Tally,
    correct: bool,
    metrics: Vec<Metric>,
    /// Printed after `metrics` but not declared (see [`RAW`]); empty when
    /// traced.
    raw: Vec<Metric>,
}

fn run_workload(bench: Bench, args: &Args) -> WorkloadResult {
    eprintln!("[{}] set-up (seed {})", bench.name(), args.seed);
    run::reset_peak_rss();
    let mut tally = Tally::default();
    let setup = Setup::build(bench, args.seed);
    eprintln!(
        "[{}] output check, {} cells",
        bench.name(),
        setup.cells.len()
    );
    let reference = run::check_pass(&setup, &mut tally);
    eprintln!("[{}] timed passes, {} s", bench.name(), args.seconds);
    let timing = run::timed_passes(&setup, &reference, args.seconds, &mut tally);
    let peak_rss = run::peak_rss_mb();
    let wall = timing.wall_pass();
    let mut correct = true;
    let mut raw = Vec::new();

    let metrics = if args.trace {
        eprintln!("[{}] traced pass", bench.name());
        let traced = traced::traced_run(&setup, &reference, wall.median, &mut tally);
        for line in &traced.tune_lines {
            println!("{line}");
        }
        let residual = traced.split.residual();
        if residual > traced::MAX_RESIDUAL {
            eprintln!(
                "FAILED trace split: layer self times plus unattributed miss the traced pass's wall time by {:.2}%",
                residual * 100.0
            );
            correct = false;
        }
        if let Some(path) = &args.trace_out {
            let path = if args.workloads.len() > 1 {
                format!("{path}.{}", bench.name())
            } else {
                path.clone()
            };
            if let Err(e) = std::fs::write(&path, spans::spans_json(&traced.spans)) {
                eprintln!("FAILED to write {path}: {e}");
                correct = false;
            }
        }
        let values = traced
            .per_layer
            .into_iter()
            .map(|(k, v)| (k, Summary::exact(v)))
            .collect();
        collect(PER_LAYER, values)
    } else {
        let reductions = &reference.reductions;
        let values = BTreeMap::from([
            ("setup_s", Summary::of(&setup.rounds)),
            ("pass_s", timing.nominal_pass()),
            ("peak_rss_mb", Summary::exact(peak_rss)),
            (
                "reduction_pct",
                Summary::exact(reductions.iter().sum::<f64>() / reductions.len().max(1) as f64),
            ),
        ]);
        let raw_values = BTreeMap::from([
            ("pass_cpu_s", timing.cpu_pass()),
            ("pass_wall_s", wall),
            ("reference_loop_s", Summary::of(&timing.loops)),
        ]);
        raw = collect(RAW, raw_values).expect("every raw time is measured");
        collect(END_TO_END, values)
    };
    let metrics =
        metrics.unwrap_or_else(|e| panic!("the benchmark's metric catalogue is out of step: {e}"));
    for m in &metrics {
        if !m.value.median.is_finite() || (!args.trace && m.value.median == 0.0) {
            eprintln!("FAILED metric {}: {}", m.def.name, m.value.median);
            correct = false;
        }
    }
    WorkloadResult {
        bench,
        correct: correct && tally.failed == 0,
        tally,
        metrics,
        raw,
    }
}

fn main() {
    let args = parse_args();
    let results: Vec<WorkloadResult> = args
        .workloads
        .iter()
        .map(|&bench| run_workload(bench, &args))
        .collect();

    let mut keyed = Vec::new();
    for o in &results {
        let name = o.bench.name();
        for m in o.metrics.iter().chain(&o.raw) {
            println!("{}", text_line(name, m));
        }
        let t = o.tally;
        println!(
            "{name} error_rate {:.6} failed/attempted ({} failed of {} attempted)",
            t.failed as f64 / t.attempted.max(1) as f64,
            t.failed,
            t.attempted
        );
        for m in &o.metrics {
            let key = if results.len() > 1 {
                format!("{name}.{}", m.def.name)
            } else {
                m.def.name.to_string()
            };
            keyed.push((key, m));
        }
    }
    println!(
        "{}",
        json_line(
            results.iter().all(|o| o.correct),
            results.iter().map(|o| o.tally.attempted).sum(),
            results.iter().map(|o| o.tally.failed).sum(),
            &keyed,
        )
    );
}
