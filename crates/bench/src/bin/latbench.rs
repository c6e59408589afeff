//! Regenerates the Section 5.1 Latbench experiment: average read-miss
//! *stall* time before/after clustering (the paper: 171 ns → 32 ns,
//! 5.34×), the contention-driven growth of *total* miss latency
//! (171 ns → 316 ns) and bus/memory-bank utilization (> 85 % clustered).

use mempar::{run_pair_with, MachineConfig, PairOptions};
use mempar_bench::{
    parse_args, run_matrix, write_locality_outputs, write_observation_outputs, Reads,
};
use mempar_stats::{format_rows, Row};
use mempar_workloads::{latbench, LatbenchParams};

fn main() {
    let args = parse_args(Reads {
        apps: None,
        ..Reads::PAIRS
    });
    let params = LatbenchParams::scaled(args.scale);
    println!(
        "Latbench: {} chains x {} derefs, pool {} KB",
        params.chains,
        params.chain_len,
        params.pool * 8 / 1024
    );
    let w = latbench(params);
    // Both machine configurations over the worker pool; results come back
    // in input order (base system first, Exemplar-like second). Only the
    // base-system cell is traced, and only when the flags ask for it.
    let opts = args.pair_options();
    let cells = [
        (MachineConfig::base_simulated(1, 64 * 1024), opts),
        (
            MachineConfig::exemplar(1),
            PairOptions {
                trace: None,
                ..opts
            },
        ),
    ];
    let outcomes = run_matrix(args.threads, &cells, |(cfg, opts)| {
        run_pair_with(&w, cfg, *opts)
    });
    let (pair, pair_ex) = (&outcomes[0].pair, &outcomes[1].pair);
    assert!(pair.outputs_match, "clustering changed Latbench results");

    println!("\ntransformations applied:\n{}", pair.report.summary());

    let rows = vec![
        Row::new(
            "avg read-miss stall (ns)",
            vec![
                format!("{:.0}", pair.base.avg_read_miss_stall_ns()),
                format!("{:.0}", pair.clustered.avg_read_miss_stall_ns()),
            ],
        ),
        Row::new(
            "avg total miss latency (ns)",
            vec![
                format!("{:.0}", pair.base.avg_read_miss_latency_ns()),
                format!("{:.0}", pair.clustered.avg_read_miss_latency_ns()),
            ],
        ),
        Row::new(
            "bus utilization",
            vec![
                format!("{:.2}", pair.base.bus_util.fraction()),
                format!("{:.2}", pair.clustered.bus_util.fraction()),
            ],
        ),
        Row::new(
            "memory-bank utilization",
            vec![
                format!("{:.2}", pair.base.bank_util.fraction()),
                format!("{:.2}", pair.clustered.bank_util.fraction()),
            ],
        ),
        Row::new(
            "execution cycles",
            vec![
                format!("{}", pair.base.cycles),
                format!("{}", pair.clustered.cycles),
            ],
        ),
        Row::new(
            "L2 read misses",
            vec![
                format!("{}", pair.base.counters.l2_read_misses),
                format!("{}", pair.clustered.counters.l2_read_misses),
            ],
        ),
    ];
    println!(
        "{}",
        format_rows(
            "Section 5.1 — Latbench (simulated base system)",
            &["base", "clust"],
            &rows
        )
    );
    let speedup =
        pair.base.avg_read_miss_stall_ns() / pair.clustered.avg_read_miss_stall_ns().max(1e-9);
    println!("stall-per-miss speedup: {speedup:.2}x   (paper: 5.34x simulated, 5.77x Exemplar)");

    // The Exemplar-like configuration (second matrix result).
    let sp_ex = pair_ex.base.avg_read_miss_stall_ns()
        / pair_ex.clustered.avg_read_miss_stall_ns().max(1e-9);
    println!(
        "Exemplar-like config: {:.0} ns -> {:.0} ns per miss ({sp_ex:.2}x)",
        pair_ex.base.avg_read_miss_stall_ns(),
        pair_ex.clustered.avg_read_miss_stall_ns(),
    );

    // Measured-locality outputs: the sampled reuse report and the
    // predicted-vs-measured calibration table (plus --reuse-out JSON).
    if let Some(a) = &outcomes[0].locality {
        write_locality_outputs(&args, &[("latbench", a)]);
    }
    // The traced base-system runs: whatever the --trace-out /
    // --metrics-out / --profile-refs flags asked for.
    write_observation_outputs(&args, &outcomes);
}
