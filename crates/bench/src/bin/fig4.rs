//! Regenerates Figure 4: L2 MSHR occupancy curves for Ocean and LU
//! (the two extremes), base vs clustered, on the simulated
//! multiprocessor.
//!
//! Figure 4(a): fraction of time at least N MSHRs hold *read* misses
//! (read miss parallelism). Figure 4(b): total occupancy including
//! writes (contention).

use mempar_bench::{
    parse_args, run_app, run_matrix, simulated_config, write_locality_outputs,
    write_observation_outputs, Reads,
};
use mempar_stats::{format_occupancy_curves, render_occupancy_chart};
use mempar_workloads::App;

fn main() {
    // Default: the paper's two extreme applications.
    let args = parse_args(Reads {
        apps: Some(&[App::Ocean, App::Lu]),
        ..Reads::PAIRS
    });
    let results = run_matrix(args.threads, &args.apps, |&app| {
        let w = app.build(args.scale);
        let cfg = simulated_config(&w, args.scale, true, false);
        run_app(app, &w, &cfg, args.pair_options())
    });
    let mut entries = Vec::new();
    for (&app, out) in args.apps.iter().zip(&results) {
        let pair = &out.pair;
        entries.push((app.name().to_string(), pair.base.occupancy.clone()));
        entries.push((
            format!("{}(clust)", app.name()),
            pair.clustered.occupancy.clone(),
        ));
        println!(
            "{}: mean read MSHR occupancy {:.2} -> {:.2}",
            app.name(),
            pair.base.occupancy.mean_read_occupancy(),
            pair.clustered.occupancy.mean_read_occupancy()
        );
    }
    println!();
    println!(
        "{}",
        format_occupancy_curves(
            &format!(
                "Figure 4(a): read L2 MSHR occupancy (fraction of time >= N), scale {}",
                args.scale
            ),
            &entries,
            true
        )
    );
    println!(
        "{}",
        format_occupancy_curves(
            "Figure 4(b): total L2 MSHR occupancy (reads + writes)",
            &entries,
            false
        )
    );
    println!(
        "{}",
        render_occupancy_chart("Figure 4(a) as a chart:", &entries, true)
    );
    let locality_entries: Vec<(&str, &mempar::LocalityArtifacts)> = args
        .apps
        .iter()
        .zip(&results)
        .filter_map(|(app, out)| out.locality.as_ref().map(|a| (app.name(), a)))
        .collect();
    write_locality_outputs(&args, &locality_entries);
    write_observation_outputs(&args, &results);
}
