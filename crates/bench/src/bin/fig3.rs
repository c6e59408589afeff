//! Regenerates Figure 3: normalized execution-time breakdowns, base vs
//! clustered, for the scientific applications.
//!
//! Modes: `up` (uniprocessor, Figure 3(b)), `mp` (multiprocessor,
//! Figure 3(a)), `up-1ghz` / `mp-1ghz` (the Section 5.2 1 GHz variant).
//!
//! ```text
//! cargo run --release -p mempar-bench --bin fig3 -- --mode up --scale 0.1
//! ```

use mempar_bench::{
    parse_args, run_app, run_matrix, simulated_config, summarize_pair, write_locality_outputs,
    write_observation_outputs,
};
use mempar_stats::{format_breakdown_table, render_breakdown_bars};

fn main() {
    let args = parse_args();
    let mode = if args.mode.is_empty() {
        "up".to_string()
    } else {
        args.mode.clone()
    };
    let (mp, ghz) = match mode.as_str() {
        "up" => (false, false),
        "mp" => (true, false),
        "up-1ghz" => (false, true),
        "mp-1ghz" => (true, true),
        other => {
            eprintln!("unknown --mode {other} (up|mp|up-1ghz|mp-1ghz)");
            std::process::exit(2);
        }
    };
    let title = match (mp, ghz) {
        (true, false) => "Figure 3(a): multiprocessor normalized execution time",
        (false, false) => "Figure 3(b): uniprocessor normalized execution time",
        (true, true) => "Section 5.2: 1 GHz multiprocessor variant",
        (false, true) => "Section 5.2: 1 GHz uniprocessor variant",
    };

    let mut apps = args.apps.clone();
    if mp {
        apps.retain(|a| a.runs_multiprocessor());
    }
    // Fan the applications across worker threads; results are collected
    // in application order, so stdout is identical at any thread count.
    let results = run_matrix(args.threads, &apps, |&app| {
        let cfg = simulated_config(app, args.scale, mp, ghz);
        run_app(app, &cfg, args.scale, args.pair_options())
    });
    let mut entries = Vec::new();
    let mut reductions = Vec::new();
    for (app, out) in apps.iter().zip(&results) {
        let pair = &out.pair;
        println!("{}", summarize_pair(pair));
        println!("  transforms:\n{}", indent(&pair.report.summary()));
        reductions.push(pair.percent_reduction());
        entries.push((
            app.name().to_string(),
            pair.base.mean_breakdown(),
            pair.clustered.mean_breakdown(),
        ));
    }
    println!();
    println!(
        "{}",
        format_breakdown_table(&format!("{title} (scale {})", args.scale), &entries)
    );
    println!("{}", render_breakdown_bars(title, &entries, 50));
    if !reductions.is_empty() {
        let avg = reductions.iter().sum::<f64>() / reductions.len() as f64;
        let min = reductions.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = reductions.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "execution time reduction: {min:.0}%..{max:.0}%, average {avg:.0}%  \
             (paper: {} )",
            if mp {
                "5-39%, avg 20% (mp)"
            } else {
                "11-49%, avg 30% (up)"
            }
        );
    }
    let locality_entries: Vec<(&str, &mempar::LocalityArtifacts)> = apps
        .iter()
        .zip(&results)
        .filter_map(|(app, out)| out.locality.as_ref().map(|a| (app.name(), a)))
        .collect();
    write_locality_outputs(&args, &locality_entries);
    write_observation_outputs(&args, &results);
}

fn indent(s: &str) -> String {
    s.lines().map(|l| format!("    {l}\n")).collect()
}
