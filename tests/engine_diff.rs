//! Differential sweep of the two functional engines.
//!
//! The bytecode VM's contract is *op-stream equivalence*: for any valid
//! program it must yield exactly the dynamic-op sequence the tree-walking
//! interpreter yields, and therefore the same final memory image. This
//! sweep checks that contract on adversarially generated programs —
//! every committed corpus reproducer seed, every pinned golden seed, and
//! a block of fresh seeds — comparing order-sensitive trace digests and
//! memory fingerprints between [`Engine::Interp`] and
//! [`Engine::Bytecode`], sequentially and (where the spec's mode makes
//! SPMD execution deterministic) under the parallel functional oracle.

use mempar_difftest::{corpus_seeds, gen_spec, materialize, Built, PINNED_GEN_SEEDS};
use mempar_ir::{
    run_parallel_functional_with, BytecodeProgram, Engine, Interp, Program, TraceDigest, Vm,
};

/// Fresh seeds beyond the pinned/corpus sets; 200 per the sweep contract.
const FRESH_SEEDS: std::ops::Range<u64> = 1000..1200;

/// Drains the uniprocessor op stream under `engine`, returning the
/// order-sensitive digest and the final memory fingerprint.
fn drain(prog: &Program, built: &Built, engine: Engine) -> (TraceDigest, u64) {
    let mut mem = built.memory(1);
    let mut digest = TraceDigest::new();
    match engine {
        Engine::Interp => {
            let mut interp = Interp::new(prog, 0, 1);
            while let Some(op) = interp.next_op(&mut mem) {
                digest.absorb(&op);
            }
        }
        Engine::Bytecode => {
            let code = BytecodeProgram::compile(prog);
            let mut vm = Vm::new(&code, 0, 1);
            while let Some(op) = vm.next_op(&mut mem) {
                digest.absorb(&op);
            }
        }
    }
    (digest, mem.fingerprint())
}

/// Checks one seed; returns a description of the first divergence, if
/// any.
fn check_seed(seed: u64) -> Option<String> {
    let built = materialize(&gen_spec(seed));
    let (d_interp, fp_interp) = drain(&built.prog, &built, Engine::Interp);
    let (d_vm, fp_vm) = drain(&built.prog, &built, Engine::Bytecode);
    if d_interp != d_vm {
        return Some(format!(
            "seed {seed}: trace digests diverge\n  interp:   {d_interp:?}\n  bytecode: {d_vm:?}"
        ));
    }
    if fp_interp != fp_vm {
        return Some(format!(
            "seed {seed}: sequential memory fingerprints diverge \
             ({fp_interp:#018x} vs {fp_vm:#018x})"
        ));
    }
    if built.mode.parallel_checked() {
        let par_fp = |engine| {
            let mut mem = built.memory(1);
            run_parallel_functional_with(&built.prog, &mut mem, built.nprocs, engine);
            mem.fingerprint()
        };
        let (pi, pv) = (par_fp(Engine::Interp), par_fp(Engine::Bytecode));
        if pi != pv {
            return Some(format!(
                "seed {seed}: parallel ({}p) memory fingerprints diverge \
                 ({pi:#018x} vs {pv:#018x})",
                built.nprocs
            ));
        }
    }
    None
}

fn sweep(seeds: impl IntoIterator<Item = u64>) {
    let failures: Vec<String> = seeds.into_iter().filter_map(check_seed).collect();
    assert!(
        failures.is_empty(),
        "engines diverged on {} seed(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn engines_agree_on_corpus_and_pinned_seeds() {
    let mut seeds = corpus_seeds();
    seeds.extend(PINNED_GEN_SEEDS);
    sweep(seeds);
}

#[test]
fn engines_agree_on_fresh_seed_block() {
    sweep(FRESH_SEEDS);
}
