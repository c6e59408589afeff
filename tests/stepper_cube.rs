//! Stepper equality cube over adversarially generated programs.
//!
//! `tests/strict_vs_skip.rs` pins the cube on the real workloads; this
//! sweep pins it on the difftest generator's output — every committed
//! corpus reproducer seed, every pinned golden seed, and a block of
//! fresh seeds. For each generated program the simulator runs under
//! strict and event stepping, and every [`SimResult`] field plus the
//! final memory-image fingerprint must be bit-identical between them. The comparison goes through
//! `Debug` formatting, which prints floats with shortest-roundtrip
//! precision, so any bit-level divergence shows up.

use mempar_difftest::{corpus_seeds, gen_spec, materialize, PINNED_GEN_SEEDS};
use mempar_sim::{run_program_with, MachineConfig, SimOptions, Stepper};

/// Fresh seeds beyond the pinned/corpus sets, disjoint from
/// `engine_diff`'s block so the two sweeps compound coverage.
const FRESH_SEEDS: std::ops::Range<u64> = 2000..2100;

/// Simulates one generated program under `opts`, returning the full
/// `Debug`-rendered [`mempar_sim::SimResult`] and the final memory
/// fingerprint.
fn run_leg(seed: u64, nprocs: usize, opts: SimOptions) -> (String, u64) {
    let built = materialize(&gen_spec(seed));
    let cfg = MachineConfig::base_simulated(nprocs, 32 * 1024);
    let mut mem = built.memory(nprocs);
    let r = run_program_with(&built.prog, &mut mem, &cfg, opts);
    (format!("{r:?}"), mem.fingerprint())
}

/// Checks one seed across the stepper cube; returns a description of
/// the first divergence, if any.
fn check_seed(seed: u64) -> Option<String> {
    let built = materialize(&gen_spec(seed));
    // Multiprocessor legs only for specs whose SPMD execution is
    // deterministic; everything else simulates as a uniprocessor.
    let nprocs = if built.mode.parallel_checked() {
        built.nprocs
    } else {
        1
    };
    let reference = run_leg(seed, nprocs, SimOptions::default());
    let (result, fp) = run_leg(
        seed,
        nprocs,
        SimOptions {
            stepper: Stepper::Strict,
            ..SimOptions::default()
        },
    );
    if result != reference.0 {
        return Some(format!(
            "seed {seed} ({nprocs}p): strict SimResult diverges from the event reference"
        ));
    }
    if fp != reference.1 {
        return Some(format!(
            "seed {seed} ({nprocs}p): strict memory fingerprint diverges \
             ({fp:#018x} vs {:#018x})",
            reference.1
        ));
    }
    None
}

fn sweep(seeds: impl IntoIterator<Item = u64>) {
    let failures: Vec<String> = seeds.into_iter().filter_map(check_seed).collect();
    assert!(
        failures.is_empty(),
        "steppers diverged on {} seed(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn steppers_agree_on_corpus_and_pinned_seeds() {
    let mut seeds = corpus_seeds();
    seeds.extend(PINNED_GEN_SEEDS);
    sweep(seeds);
}

#[test]
fn steppers_agree_on_fresh_seed_block() {
    sweep(FRESH_SEEDS);
}
