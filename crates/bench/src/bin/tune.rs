//! The composition autotuner harness: per-nest search over legal
//! transform compositions with the simulator as the cost model
//! (DESIGN.md §13). For every selected application it prints the delta
//! table — base vs the paper-default clustering driver vs the tuned
//! program — and the honest `tuned/default` headline ratio.
//!
//! Modes: `up` (uniprocessor, default) and `mp` (multiprocessor, at
//! each workload's Table 2 processor count).
//!
//! The search trace is observable: `--metrics-out` snapshots the
//! `tune.*` counters per workload (the memo counters count that
//! workload's own lookups, though one memo serves every workload), and
//! `--trace-out` writes per-candidate scoring slices as a
//! Chrome/Perfetto trace.
//!
//! ```text
//! cargo run --release -p mempar-bench --bin tune -- --scale 0.1 --apps latbench,fft
//! ```

use mempar::MachineConfig;
use mempar_bench::{log_enabled, parse_args, scaled_l2, timed, LogLevel, Reads};
use mempar_obs::{escape_json, MetricsRegistry};
use mempar_tune::{export_metrics, tune_trace_json, tune_workload, TuneOptions, Tuner};
use mempar_workloads::App;

fn main() {
    let args = parse_args(Reads {
        mode: true,
        procs: true,
        reuse_out: false,
        profile_refs: false,
        ..Reads::PAIRS
    });
    let mode = if args.mode.is_empty() {
        "up".to_string()
    } else {
        args.mode.clone()
    };
    let mp = match mode.as_str() {
        "up" => false,
        "mp" => true,
        other => {
            eprintln!("unknown --mode {other} (up|mp)");
            std::process::exit(2);
        }
    };
    let mut apps: Vec<App> = args.apps.clone();
    if mp {
        apps.retain(|a| a.runs_multiprocessor());
    }

    // One tuner across the whole run: repeated subproblems between
    // workloads share the score memo.
    let tuner = Tuner::new(TuneOptions {
        sim: args.sim_options(),
        threads: args.threads,
        ..TuneOptions::default()
    });

    let mut reports = Vec::new();
    let mut beat_default = 0usize;
    // The shared memo's running totals at the previous report.
    let mut memo_seen = (0, 0);
    for &app in &apps {
        let w = app.build(args.scale);
        let nprocs = if args.procs > 0 {
            args.procs
        } else if mp {
            w.mp_procs.max(1)
        } else {
            1
        };
        let cfg = MachineConfig::base_simulated(nprocs, scaled_l2(w.l2_bytes, args.scale));
        if log_enabled(LogLevel::Info) {
            eprintln!("[tune] {} on {} ({nprocs} procs)...", w.name, cfg.name);
        }
        let ((_, mut report, _), secs) = timed(|| tune_workload(&w, &cfg, &tuner, args.locality));
        // Report this workload's own memo traffic, not the running
        // totals of the memo every workload shares.
        let totals = (report.stats.memo_hits, report.stats.memo_misses);
        report.stats.memo_hits -= memo_seen.0;
        report.stats.memo_misses -= memo_seen.1;
        memo_seen = totals;
        assert!(
            report.oracle_failures.is_empty(),
            "{}: tuner scored a semantics-changing candidate: {:?}",
            w.name,
            report.oracle_failures
        );
        if report.tuned_cycles < report.default_cycles {
            beat_default += 1;
        }
        if log_enabled(LogLevel::Info) {
            eprintln!(
                "[tune] {}: {} candidates scored in {secs:.2}s ({} sims, {} memo hits)",
                w.name, report.stats.scored, report.stats.memo_misses, report.stats.memo_hits
            );
        }
        print!("{}", report.summary());
        reports.push(report);
    }
    println!(
        "\nsearch beat the default driver on {beat_default}/{} workloads \
         (tuned/default > 1; the tuner never loses to it)",
        reports.len()
    );

    if let Some(path) = &args.metrics_out {
        // One registry snapshot per workload, so the `tune.*` counters
        // never collide across reports.
        let entries: Vec<String> = reports
            .iter()
            .map(|r| {
                let mut reg = MetricsRegistry::new();
                export_metrics(r, &mut reg);
                format!(
                    "{{\"name\": \"{}\", \"snapshot\": {}}}",
                    escape_json(&r.name),
                    reg.to_json().trim_end()
                )
            })
            .collect();
        let json = format!("{{\n\"runs\": [\n{}\n]\n}}\n", entries.join(",\n"));
        std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        if log_enabled(LogLevel::Info) {
            eprintln!("wrote tune metrics to {path}");
        }
    }
    if let Some(path) = &args.trace_out {
        let refs: Vec<&_> = reports.iter().collect();
        let json = tune_trace_json(&refs);
        std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        if log_enabled(LogLevel::Info) {
            eprintln!("wrote tune trace to {path} (open at https://ui.perfetto.dev)");
        }
    }
}
