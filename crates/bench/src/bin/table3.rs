//! Regenerates Table 3: percent execution-time reduction from clustering
//! on the Exemplar-like machine (bus-based SMP, single-level 1 MB cache,
//! 32-byte lines), uniprocessor and 8-processor runs.

use mempar::MachineConfig;
use mempar_bench::{
    parse_args, run_app, run_matrix, slower_than_base, write_locality_outputs,
    write_observation_outputs, Reads,
};
use mempar_stats::{format_rows, Row};
use mempar_workloads::App;

fn main() {
    let args = parse_args(Reads::PAIRS);
    // Paper values for reference (mp, up); N/A encoded as NaN.
    let paper: &[(&str, f64, f64)] = &[
        ("Em3d", 9.2, 13.0),
        ("Erlebacher", 21.4, 34.3),
        ("FFT", 16.6, 28.9),
        ("LU", 22.7, 23.8),
        ("Mp3d", f64::NAN, 21.7),
        ("MST", f64::NAN, 38.1),
        ("Ocean", -2.9, 21.6),
    ];
    // One job per (application, machine) cell, fanned across worker
    // threads and collected in input order for deterministic output.
    let mut jobs: Vec<(App, bool)> = Vec::new();
    for &app in &args.apps {
        jobs.push((app, false));
        if app.runs_multiprocessor() && app != App::Mp3d {
            // Mp3d is uniprocessor-only on the real machine (Section 4.2).
            jobs.push((app, true));
        }
    }
    let procs = |mp: bool| if mp { 8 } else { 1 };
    let mut results = run_matrix(args.threads, &jobs, |&(app, mp)| {
        let cfg = MachineConfig::exemplar(procs(mp));
        run_app(app, &app.build(args.scale), &cfg, args.pair_options())
    });
    let mut rows = Vec::new();
    for &app in &args.apps {
        let cell = |mp: bool| {
            jobs.iter()
                .position(|&j| j == (app, mp))
                .map(|i| &results[i].pair)
        };
        let up = cell(false).expect("every app has a uniprocessor run");
        let mp_red = match cell(true) {
            Some(mp) => format!("{:5.1}", mp.percent_reduction()),
            None => "  N/A".to_string(),
        };
        let (pm, pu) = paper
            .iter()
            .find(|(n, _, _)| *n == app.name())
            .map(|&(_, m, u)| (m, u))
            .unwrap_or((f64::NAN, f64::NAN));
        rows.push(Row::new(
            app.name(),
            vec![
                mp_red,
                format!("{:5.1}", up.percent_reduction()),
                if pm.is_nan() {
                    "  N/A".into()
                } else {
                    format!("{pm:5.1}")
                },
                format!("{pu:5.1}"),
            ],
        ));
    }
    println!(
        "{}",
        format_rows(
            &format!(
                "Table 3: % execution time reduced, Exemplar-like machine (scale {})",
                args.scale
            ),
            &["mp(8)", "up", "paper-mp", "paper-up"],
            &rows
        )
    );
    let cells = jobs.iter().zip(&results);
    if let Some(line) =
        slower_than_base(cells.map(|(&(app, mp), out)| (app.name(), procs(mp), &out.pair)))
    {
        println!("{line}");
    }
    // Measured-locality calibration tables (uniprocessor cells only, to
    // keep one row per app).
    let entries: Vec<(&str, &mempar::LocalityArtifacts)> = jobs
        .iter()
        .zip(results.iter())
        .filter_map(|(&(app, mp), out)| {
            (!mp)
                .then_some(())
                .and(out.locality.as_ref())
                .map(|a| (app.name(), a))
        })
        .collect();
    write_locality_outputs(&args, &entries);
    // Each app runs on both machines: tag the observed runs with the
    // machine so their names stay distinct in the exports.
    for out in &mut results {
        for run in out.observed.iter_mut().flatten() {
            run.name = format!("{} ({})", run.name, out.pair.config);
        }
    }
    write_observation_outputs(&args, &results);
}
