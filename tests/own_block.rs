//! Clustering keeps every processor's work: on the multiprocessor
//! configurations of Figure 3(a), each processor of the clustered program
//! stores to exactly the addresses it stores to in the base program.
//!
//! The check is a functional drain, with no timing in it, so it cannot be
//! noisy. A transformation that jams a distributed loop as written, instead
//! of within each processor's own block, moves iterations (and the data
//! homed with them) between processors and fails here.

use std::collections::BTreeSet;

use mempar::{cluster_program, locality_profile, machine_summary, Locality};
use mempar_bench::simulated_config;
use mempar_ir::{run_parallel_functional_visit, Engine, OpKind, Program};
use mempar_workloads::{App, Workload};

/// The addresses each processor stores to in a functional drain.
fn store_sets(w: &Workload, prog: &Program, nprocs: usize) -> Vec<BTreeSet<u64>> {
    let mut sets = vec![BTreeSet::new(); nprocs];
    let mut mem = w.memory(nprocs);
    run_parallel_functional_visit(prog, &mut mem, nprocs, Engine::Bytecode, |p, op| {
        if let OpKind::Store { addr } = op.kind {
            sets[p].insert(addr);
        }
    });
    sets
}

fn check(scale: f64) {
    let mut moved = Vec::new();
    for app in App::all().into_iter().filter(|a| a.runs_multiprocessor()) {
        let w = app.build(scale);
        let cfg = simulated_config(&w, scale, true, false);
        let base = store_sets(&w, &w.program, cfg.nprocs);
        for locality in [Locality::Analytic, Locality::Measured] {
            let (profile, _) = locality_profile(&w, &cfg, locality);
            let mut clustered = w.program.clone();
            cluster_program(&mut clustered, &machine_summary(&cfg), &profile);
            let sets = store_sets(&w, &clustered, cfg.nprocs);
            for (p, (b, c)) in base.iter().zip(&sets).enumerate() {
                if b != c {
                    moved.push(format!(
                        "{} {locality:?} scale {scale}: processor {p} stores to {} addresses, \
                         {} in base ({} shared)",
                        app.name(),
                        c.len(),
                        b.len(),
                        b.intersection(c).count()
                    ));
                }
            }
        }
    }
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}

#[test]
fn every_processor_keeps_its_stores_at_scale_005() {
    check(0.05);
}

#[test]
fn every_processor_keeps_its_stores_at_scale_01() {
    check(0.1);
}
