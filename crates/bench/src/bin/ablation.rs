//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! * **MSHR sweep** — how many simultaneous misses the hardware must
//!   support for clustering to pay off (the `lp` axis of the framework).
//! * **Window sweep** — clustering's sensitivity to instruction-window
//!   size (`W` in Equation 1).
//! * **Degree sweep** — the framework-chosen unroll-and-jam degree
//!   versus an exhaustive sweep (validating the binary search).
//!
//! Run on Latbench and Erlebacher (one address-recurrence and one
//! cache-line-recurrence workload) by default.

use mempar::{
    machine_summary, profile_miss_rates, run_pair_with, run_program_with, MachineConfig,
    PairOptions, SimOptions,
};
use mempar_bench::{parse_args_unobserved, run_matrix};
use mempar_stats::{format_rows, Row};
use mempar_transform::{
    cluster_program, inner_unroll, innermost_loops, insert_prefetches, schedule_balanced,
    schedule_for_misses, unroll_and_jam,
};
use mempar_workloads::{erlebacher, latbench, mp3d, ErlebacherParams, LatbenchParams, Mp3dParams};

fn main() {
    let args = parse_args_unobserved();
    let opts = args.sim_options();
    mshr_sweep(args.scale, args.threads, opts);
    window_sweep(args.scale, args.threads, opts);
    degree_sweep(args.scale, args.threads, opts);
    scheduling_comparison(args.scale, args.threads, opts);
    prefetch_vs_clustering(args.scale, args.threads, opts);
}

/// Source order vs balanced scheduling vs the window-aware miss-packing
/// scheduler, on the unrolled Mp3d move loop (Section 3.3's discussion:
/// balanced scheduling "may miss some opportunities since it does not
/// explicitly consider window size").
fn scheduling_comparison(scale: f64, threads: usize, opts: SimOptions) {
    let w = mp3d(Mp3dParams::scaled(scale * 0.5));
    let cfg = MachineConfig::base_simulated(1, mempar_bench::scaled_l2(w.l2_bytes, scale));
    // Unroll the move loop first (both schedulers want material to move).
    let prep = |sched: u8| -> mempar_ir::Program {
        let mut p = w.program.clone();
        let inner = innermost_loops(&p)[0].clone();
        let r = inner_unroll(&mut p, &inner, 6).expect("legal");
        match sched {
            1 => {
                let _ = schedule_balanced(&mut p, &r.main);
            }
            2 => {
                let _ = schedule_for_misses(&mut p, &r.main, cfg.l2.line_bytes);
            }
            _ => {}
        }
        p
    };
    let variants = [
        ("unrolled, source order", 0u8),
        ("balanced", 1),
        ("miss-packing", 2),
    ];
    let rows = run_matrix(threads, &variants, |&(name, sched)| {
        let p = prep(sched);
        let mut mem = w.memory(1);
        let r = run_program_with(&p, &mut mem, &cfg, opts);
        Row::new(name, vec![format!("{}", r.cycles)])
    });
    println!(
        "{}",
        format_rows(
            "Ablation: local scheduling policy (Mp3d move loop, unrolled x6)",
            &["cycles"],
            &rows
        )
    );
}

/// Prefetching vs clustering vs both — the interaction the paper's
/// companion work (TR 9910) studies. Run on Erlebacher (regular,
/// prefetchable) and Latbench (a pointer chase prefetching cannot touch).
fn prefetch_vs_clustering(scale: f64, threads: usize, opts: SimOptions) {
    let mut rows = Vec::new();
    // --- Erlebacher: both techniques apply ---
    {
        let w = erlebacher(ErlebacherParams::scaled(scale));
        let cfg = MachineConfig::base_simulated(1, mempar_bench::scaled_l2(w.l2_bytes, scale));
        let m = machine_summary(&cfg);
        let mut profile_mem = w.memory(1);
        let profile = profile_miss_rates(&w.program, &mut profile_mem, &cfg.l2);

        let mut variants: Vec<(&str, mempar_ir::Program)> = Vec::new();
        variants.push(("base", w.program.clone()));
        let mut pf = w.program.clone();
        for nest in innermost_loops(&pf) {
            let _ = insert_prefetches(&mut pf, &nest, 16, cfg.l2.line_bytes, &profile);
        }
        variants.push(("prefetch", pf));
        let mut cl = w.program.clone();
        cluster_program(&mut cl, &m, &profile);
        variants.push(("cluster", cl));
        let mut both = w.program.clone();
        cluster_program(&mut both, &m, &profile);
        for nest in innermost_loops(&both) {
            let _ = insert_prefetches(&mut both, &nest, 16, cfg.l2.line_bytes, &profile);
        }
        variants.push(("cluster+prefetch", both));
        rows.extend(run_matrix(threads, &variants, |(name, prog)| {
            let mut mem = w.memory(1);
            let r = run_program_with(prog, &mut mem, &cfg, opts);
            Row::new(
                format!("erlebacher/{name}"),
                vec![
                    format!("{}", r.cycles),
                    format!("{}", r.counters.prefetches),
                ],
            )
        }));
    }
    // --- Latbench: the chase defeats prefetching entirely ---
    {
        let w = latbench(LatbenchParams::scaled(scale * 0.5));
        let cfg = MachineConfig::base_simulated(1, w.l2_bytes);
        let m = machine_summary(&cfg);
        let mut profile_mem = w.memory(1);
        let profile = profile_miss_rates(&w.program, &mut profile_mem, &cfg.l2);
        let mut pf = w.program.clone();
        let mut inserted = 0;
        for nest in innermost_loops(&pf) {
            inserted +=
                insert_prefetches(&mut pf, &nest, 8, cfg.l2.line_bytes, &profile).unwrap_or(0);
        }
        let mut cl = w.program.clone();
        cluster_program(&mut cl, &m, &profile);
        let variants = [("base", &w.program), ("prefetch", &pf), ("cluster", &cl)];
        rows.extend(run_matrix(threads, &variants, |&(name, prog)| {
            let mut mem = w.memory(1);
            let r = run_program_with(prog, &mut mem, &cfg, opts);
            Row::new(
                format!("latbench/{name}"),
                vec![
                    format!("{}", r.cycles),
                    format!("{}", r.counters.prefetches),
                ],
            )
        }));
        rows.push(Row::new(
            format!("latbench: {inserted} prefetches insertable (chase)"),
            vec![],
        ));
    }
    println!(
        "{}",
        format_rows(
            "Ablation: software prefetching vs read-miss clustering",
            &["cycles", "prefetches"],
            &rows
        )
    );
}

/// Clustered speedup as the MSHR count varies (1 MSHR = blocking cache).
fn mshr_sweep(scale: f64, threads: usize, opts: SimOptions) {
    let points = [1usize, 2, 4, 8, 10, 16];
    let rows = run_matrix(threads, &points, |&mshrs| {
        let w = latbench(LatbenchParams::scaled(scale * 0.5));
        let mut cfg = MachineConfig::base_simulated(1, w.l2_bytes);
        cfg.l2.mshrs = mshrs;
        if let Some(l1) = cfg.l1.as_mut() {
            l1.mshrs = mshrs;
        }
        cfg.name = format!("mshr-{mshrs}");
        let pair = run_pair_with(
            &w,
            &cfg,
            PairOptions {
                sim: opts,
                ..PairOptions::default()
            },
        )
        .pair;
        Row::new(
            format!("{mshrs} MSHRs"),
            vec![
                format!("{}", pair.base.cycles),
                format!("{}", pair.clustered.cycles),
                format!("{:5.1}%", pair.percent_reduction()),
            ],
        )
    });
    println!(
        "{}",
        format_rows(
            "Ablation: MSHR count vs clustering benefit (Latbench)",
            &["base cy", "clust cy", "reduction"],
            &rows
        )
    );
}

/// Clustered speedup as the instruction window varies.
fn window_sweep(scale: f64, threads: usize, opts: SimOptions) {
    let points = [16usize, 32, 64, 128];
    let rows = run_matrix(threads, &points, |&window| {
        let w = erlebacher(ErlebacherParams::scaled(scale));
        let mut cfg = MachineConfig::base_simulated(1, mempar_bench::scaled_l2(w.l2_bytes, scale));
        cfg.proc.window = window;
        cfg.proc.mem_queue = (window / 2).max(8);
        cfg.name = format!("window-{window}");
        let pair = run_pair_with(
            &w,
            &cfg,
            PairOptions {
                sim: opts,
                ..PairOptions::default()
            },
        )
        .pair;
        Row::new(
            format!("W={window}"),
            vec![
                format!("{}", pair.base.cycles),
                format!("{}", pair.clustered.cycles),
                format!("{:5.1}%", pair.percent_reduction()),
            ],
        )
    });
    println!(
        "{}",
        format_rows(
            "Ablation: instruction window vs clustering benefit (Erlebacher)",
            &["base cy", "clust cy", "reduction"],
            &rows
        )
    );
}

/// Exhaustive unroll-degree sweep on Latbench's chain loop, marking the
/// degree the framework's binary search picks.
fn degree_sweep(scale: f64, threads: usize, opts: SimOptions) {
    let w = latbench(LatbenchParams::scaled(scale * 0.5));
    let cfg = MachineConfig::base_simulated(1, w.l2_bytes);

    // The framework's choice.
    let mut profile_mem = w.memory(1);
    let profile = profile_miss_rates(&w.program, &mut profile_mem, &cfg.l2);
    let mut framework_prog = w.program.clone();
    let report = cluster_program(&mut framework_prog, &machine_summary(&cfg), &profile);
    let chosen = report.decisions.first().map(|d| d.uaj_degree).unwrap_or(1);

    let degrees = [1u32, 2, 4, 6, 8, 10, 12, 16];
    let rows = run_matrix(threads, &degrees, |&degree| {
        let mut prog = w.program.clone();
        let inner = innermost_loops(&prog)[0].clone();
        let parent = inner.parent().expect("chain loop");
        if degree > 1 {
            unroll_and_jam(&mut prog, &parent, degree).expect("legal");
        }
        let mut mem = w.memory(1);
        let r = run_program_with(&prog, &mut mem, &cfg, opts);
        Row::new(
            format!(
                "degree {degree}{}",
                if degree == chosen {
                    "  <- framework"
                } else {
                    ""
                }
            ),
            vec![format!("{}", r.cycles)],
        )
    });
    println!(
        "{}",
        format_rows(
            &format!("Ablation: unroll-and-jam degree sweep (Latbench; framework picked {chosen})"),
            &["cycles"],
            &rows
        )
    );
}
