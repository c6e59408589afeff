//! Difftest sweep over tuner-chosen compositions: every candidate the
//! tuner scores is oracle-checked against the interpreter (sequential
//! and parallel-functional memory images), so a legality bug anywhere
//! in the composed transform pipeline surfaces as an oracle failure
//! here. On failure the offending spec is shrunk and written to
//! `tests/corpus/` before the assert fires.
//!
//! The quick test covers the pinned golden seeds plus a fresh block;
//! the `#[ignore]` acceptance sweep covers ≥500 seeds (the CI `test`
//! job runs both tiers, as it does for `difftest_smoke`).

use mempar::{profile_miss_rates, MachineConfig};
use mempar_difftest::{
    gen_spec, materialize, render_reproducer, shrink_with, ProgSpec, PINNED_GEN_SEEDS,
};
use mempar_tune::{TuneOptions, Tuner};

/// Tunes one spec and returns its oracle failures (empty = every
/// scored composition preserved semantics).
fn tune_failures(tuner: &Tuner, spec: &ProgSpec) -> Vec<String> {
    let built = materialize(spec);
    let nprocs = if built.mode.parallel_checked() {
        built.nprocs
    } else {
        1
    };
    let cfg = MachineConfig::base_simulated(nprocs, 64 * 1024);
    let mut pmem = built.memory(1);
    let profile = profile_miss_rates(&built.prog, &mut pmem, &cfg.l2);
    let mem_at = |n: usize| built.memory(n);
    let (_, report) = tuner.tune_program(
        &format!("gen-{}", spec.seed),
        &built.prog,
        &cfg,
        &profile,
        &mem_at,
    );
    assert!(
        report.tuned_cycles <= report.base_cycles && report.tuned_cycles <= report.default_cycles,
        "seed {}: tuned must floor at min(base, default): {}",
        spec.seed,
        report.summary()
    );
    report.oracle_failures
}

fn sweep(seeds: impl Iterator<Item = u64>) {
    // One tuner for the whole stream: repeated subproblems across the
    // generator's programs hit the shared memo.
    let tuner = Tuner::new(TuneOptions::default());
    let mut failing: Vec<(u64, Vec<String>)> = Vec::new();
    for seed in seeds {
        let failures = tune_failures(&tuner, &gen_spec(seed));
        if !failures.is_empty() {
            failing.push((seed, failures));
        }
    }
    if let Some((seed, failures)) = failing.first() {
        // Shrink the first offender under the same predicate and leave
        // a reproducer for the corpus before failing.
        let spec = gen_spec(*seed);
        let fresh = Tuner::new(TuneOptions::default());
        let small = shrink_with(&spec, |s| !tune_failures(&fresh, s).is_empty());
        let repro = render_reproducer(
            &small,
            "TunerOracle|composed-transform",
            &failures.join("; "),
        );
        let path = format!(
            "{}/tests/corpus/seed-{seed}.repro",
            env!("CARGO_MANIFEST_DIR")
        );
        std::fs::write(&path, &repro).expect("write reproducer");
        panic!("tuner oracle failures (reproducer at {path}): {failing:?}");
    }
}

#[test]
fn tuned_compositions_preserve_semantics_quick() {
    sweep(PINNED_GEN_SEEDS.iter().copied().chain(0..40));
}

#[test]
#[ignore = "acceptance-scale; run via cargo test -- --ignored (CI test job)"]
fn tuned_compositions_preserve_semantics_full() {
    sweep(PINNED_GEN_SEEDS.iter().copied().chain(0..500));
}
