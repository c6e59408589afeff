//! Prints Table 2 — the workload catalog with the paper's simulated
//! input sizes and processor counts, plus the sizes produced at the
//! requested `--scale`.
//!
//! With `--profile-refs` (or `--trace-out`/`--metrics-out`) the selected
//! `--apps` are additionally run base-vs-clustered on the base simulated
//! uniprocessor with the tracer attached, producing per-leading-reference
//! clustering profiles and the requested trace/metrics exports.

use mempar::{calibrate_locality, run_pair_with, Locality};
use mempar_bench::{
    log_enabled, parse_args, run_matrix, simulated_config, write_locality_outputs,
    write_observation_outputs, LogLevel,
};
use mempar_stats::{format_rows, Row};
use mempar_workloads::App;

fn main() {
    let args = parse_args();
    // Building each workload materializes its (scaled) input data, so
    // even this catalog listing benefits from the worker pool.
    let apps = App::all();
    if log_enabled(LogLevel::Info) {
        eprintln!(
            "[table2] building {} workloads at scale {}...",
            apps.len(),
            args.scale
        );
    }
    let rows: Vec<Row> = run_matrix(args.threads, &apps, |&app| {
        let w = app.build(args.scale);
        let arrays: usize = w.program.arrays.iter().map(|a| a.len()).sum();
        Row::new(
            app.name(),
            vec![
                app.input_desc().to_string(),
                format!("{}", w.mp_procs),
                format!("{} KB", arrays * 8 / 1024),
                format!("{} KB", w.l2_bytes / 1024),
            ],
        )
    });
    println!(
        "{}",
        format_rows(
            &format!(
                "Table 2: workloads (simulated sizes; data at scale {})",
                args.scale
            ),
            &["paper input", "procs", "data@scale", "L2"],
            &rows
        )
    );

    // Measured-locality calibration: run the sampled reuse-distance
    // pre-pass on every selected app and print (and optionally export)
    // the predicted-vs-measured delta tables.
    if args.locality == Locality::Measured {
        let artifacts: Vec<_> = run_matrix(args.threads, &args.apps, |&app| {
            if log_enabled(LogLevel::Info) {
                eprintln!("[{}] measured-locality calibration...", app.name());
            }
            let w = app.build(args.scale);
            let cfg = simulated_config(app, args.scale, false, false);
            calibrate_locality(&w, &cfg).1
        });
        let entries: Vec<(&str, &mempar::LocalityArtifacts)> = args
            .apps
            .iter()
            .zip(artifacts.iter())
            .map(|(app, a)| (app.name(), a))
            .collect();
        write_locality_outputs(&args, &entries);
    }

    // Observability pass: run the selected apps base-vs-clustered on the
    // base simulated uniprocessor with the tracer attached, then emit the
    // requested trace/metrics/profile outputs.
    if args.wants_observation() {
        let outcomes: Vec<_> = run_matrix(args.threads, &args.apps, |&app| {
            if log_enabled(LogLevel::Info) {
                eprintln!("[{}] observed base-vs-clustered run...", app.name());
            }
            let w = app.build(args.scale);
            let cfg = simulated_config(app, args.scale, false, false);
            run_pair_with(&w, &cfg, args.pair_options())
        });
        write_observation_outputs(&args, &outcomes);
    }
}
