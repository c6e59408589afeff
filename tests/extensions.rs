//! End-to-end tests of the extension the paper sketches: software
//! prefetching alongside clustering (Section 1 / TR 9910).

use mempar::{machine_summary, profile_miss_rates, run_program, MachineConfig};
use mempar_analysis::MissProfile;
use mempar_ir::{run_single, Stmt};
use mempar_transform::{cluster_program, innermost_loops, insert_prefetches};
use mempar_workloads::{erlebacher, latbench, ErlebacherParams, LatbenchParams};

/// Prefetching helps a regular workload, clustering helps more here, and
/// the combination is at least as good as prefetching alone.
#[test]
fn prefetch_and_clustering_compose() {
    let w = erlebacher(ErlebacherParams { n: 32 });
    let cfg = MachineConfig::base_simulated(1, 32 * 1024);
    let mut pm = w.memory(1);
    let profile = profile_miss_rates(&w.program, &mut pm, &cfg.l2);

    let mut prefetched = w.program.clone();
    for nest in innermost_loops(&prefetched) {
        let _ = insert_prefetches(&mut prefetched, &nest, 16, cfg.l2.line_bytes, &profile);
    }
    let mut both = w.program.clone();
    cluster_program(&mut both, &machine_summary(&cfg), &profile);
    for nest in innermost_loops(&both) {
        let _ = insert_prefetches(&mut both, &nest, 16, cfg.l2.line_bytes, &profile);
    }

    let run = |p: &mempar_ir::Program| {
        let mut mem = w.memory(1);
        let r = run_program(p, &mut mem, &cfg);
        (w.read_outputs(&mem), r.cycles, r.counters.prefetches)
    };
    let (out_base, cycles_base, pf_base) = run(&w.program);
    let (out_pf, cycles_pf, pf_count) = run(&prefetched);
    let (out_both, cycles_both, _) = run(&both);
    assert_eq!(pf_base, 0);
    assert!(pf_count > 0, "prefetches must issue");
    assert_eq!(out_base, out_pf, "prefetching is non-binding");
    assert_eq!(out_base, out_both);
    assert!(
        cycles_pf < cycles_base,
        "prefetching helps the regular code: {cycles_base} -> {cycles_pf}"
    );
    assert!(
        cycles_both < cycles_base,
        "the combination also wins: {cycles_base} -> {cycles_both}"
    );
}

/// Pointer chases admit no prefetches at all (the address to fetch *is*
/// the missing value) — the Section 1 motivation for clustering.
#[test]
fn chase_has_no_prefetchable_sites() {
    let w = latbench(LatbenchParams {
        chains: 8,
        chain_len: 32,
        pool: 4096,
        seed: 1,
    });
    let mut p = w.program.clone();
    let mut inserted = 0;
    for nest in innermost_loops(&p) {
        inserted +=
            insert_prefetches(&mut p, &nest, 8, 64, &MissProfile::pessimistic()).unwrap_or(0);
    }
    assert_eq!(inserted, 0);
    // And the program is untouched (no stray statements).
    let mut m1 = w.memory(1);
    run_single(&w.program, &mut m1);
    let mut m2 = w.memory(1);
    run_single(&p, &mut m2);
    assert_eq!(w.read_outputs(&m1), w.read_outputs(&m2));
    assert!(!p.body.iter().any(|s| matches!(s, Stmt::Prefetch { .. })));
}
