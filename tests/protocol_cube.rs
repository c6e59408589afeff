//! Cross-protocol conformance cube over adversarially generated
//! programs.
//!
//! The coherence protocol is a *timing* oracle: swapping the directory
//! for MESI, MOESI, or Dragon may move cycle counts but must never
//! change what the program computes. This sweep pins that contract on
//! the difftest generator's output — every committed corpus reproducer
//! seed, every pinned golden seed, and a fresh seed block (disjoint from
//! `engine_diff`'s and `stepper_cube`'s blocks so the three sweeps
//! compound coverage). For each generated program:
//!
//! * a pure functional drain establishes the dynamic-op-stream
//!   [`TraceDigest`] and final memory fingerprint with no timing model
//!   attached;
//! * the simulated run under **every** protocol must reproduce that
//!   fingerprint exactly, and every protocol's functional counters
//!   (retired ops, loads, stores, prefetches) must match the directory
//!   reference — the trace-digest/fingerprint anchor plus the counter
//!   match is the cross-protocol identity;
//! * within each protocol, the stepper/engine cube must be
//!   bit-identical (full `Debug`-rendered [`mempar_sim::SimResult`]),
//!   exactly as `stepper_cube.rs` asserts for the directory default.

use std::path::PathBuf;

use mempar_difftest::{gen_spec, materialize, Built, PINNED_GEN_SEEDS};
use mempar_ir::{run_parallel_functional, Interp, TraceDigest};
use mempar_sim::{run_program_with, Engine, MachineConfig, Protocol, SimOptions, Stepper};

/// Fresh seeds beyond the pinned/corpus sets, disjoint from
/// `engine_diff` (1000..1200) and `stepper_cube` (2000..2100).
const FRESH_SEEDS: std::ops::Range<u64> = 3000..3100;

/// Second fresh block, added with the allocation-free memory-system
/// fast path (flat directory table, pooled coherence transactions,
/// O(1) MSHR, precomputed routes). Never sampled by any sweep before
/// that change landed, so agreement here is evidence the fast path is
/// observation-equivalent on programs it was not tuned against.
const FRESH_SEEDS_FAST_PATH: std::ops::Range<u64> = 4000..4100;

fn corpus_seeds() -> Vec<u64> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut seeds: Vec<u64> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "repro"))
        .filter_map(|p| {
            let text = std::fs::read_to_string(&p).ok()?;
            text.lines()
                .find_map(|l| l.strip_prefix("# seed: "))
                .and_then(|s| s.trim().parse().ok())
        })
        .collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert!(!seeds.is_empty(), "corpus reproducers carry seeds");
    seeds
}

/// The timing-free anchor: drains the dynamic-op stream (uniprocessor)
/// or the parallel functional oracle (deterministic SPMD) and returns
/// the stream digest hash plus the final memory fingerprint. Every
/// simulated run, under every protocol, must land on this fingerprint.
fn functional_anchor(built: &Built, nprocs: usize) -> (u64, u64) {
    if nprocs > 1 {
        let mut mem = built.memory(nprocs);
        run_parallel_functional(&built.prog, &mut mem, nprocs);
        // The parallel oracle interleaves streams, so the per-proc
        // digest is not order-canonical; the memory image is the
        // anchor and the digest comes from the sequential projection.
        let mut seq = built.memory(1);
        let mut digest = TraceDigest::new();
        let mut interp = Interp::new(&built.prog, 0, 1);
        while let Some(op) = interp.next_op(&mut seq) {
            digest.absorb(&op);
        }
        (digest.hash(), mem.fingerprint())
    } else {
        let mut mem = built.memory(1);
        let mut digest = TraceDigest::new();
        let mut interp = Interp::new(&built.prog, 0, 1);
        while let Some(op) = interp.next_op(&mut mem) {
            digest.absorb(&op);
        }
        (digest.hash(), mem.fingerprint())
    }
}

/// One simulated leg: the full `Debug`-rendered result (protocol-local
/// identity), the final memory fingerprint, and the protocol-independent
/// functional counters (cross-protocol identity).
struct Leg {
    debug: String,
    fingerprint: u64,
    functional: String,
}

fn run_leg(built: &Built, nprocs: usize, opts: SimOptions) -> Leg {
    let cfg = MachineConfig::base_simulated(nprocs, 32 * 1024);
    let mut mem = built.memory(nprocs);
    let r = run_program_with(&built.prog, &mut mem, &cfg, opts);
    Leg {
        debug: format!("{r:?}"),
        fingerprint: mem.fingerprint(),
        functional: format!(
            "retired={} loads={} stores={} prefetches={}",
            r.retired, r.counters.loads, r.counters.stores, r.counters.prefetches
        ),
    }
}

/// Checks one seed across the protocol cube; returns a description of
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
    let (digest_hash, anchor_fp) = functional_anchor(&built, nprocs);
    let opts = |protocol, stepper, engine| SimOptions {
        stepper,
        engine,
        protocol,
    };
    // The directory event leg is the cross-protocol reference.
    let dir_ref = run_leg(
        &built,
        nprocs,
        opts(Protocol::Directory, Stepper::Event, Engine::Bytecode),
    );
    if dir_ref.fingerprint != anchor_fp {
        return Some(format!(
            "seed {seed} ({nprocs}p): directory sim diverges from the functional anchor \
             (digest {digest_hash:#018x}): {:#018x} vs {anchor_fp:#018x}",
            dir_ref.fingerprint
        ));
    }
    for protocol in [Protocol::Mesi, Protocol::Moesi, Protocol::Dragon] {
        // Per-protocol event reference, checked against the directory
        // leg (functional identity) and the anchor (op-stream identity).
        let proto_ref = run_leg(
            &built,
            nprocs,
            opts(protocol, Stepper::Event, Engine::Bytecode),
        );
        if proto_ref.functional != dir_ref.functional {
            return Some(format!(
                "seed {seed} ({nprocs}p): {protocol} functional counters diverge from \
                 directory\n  directory: {}\n  {protocol}: {}",
                dir_ref.functional, proto_ref.functional
            ));
        }
        if proto_ref.fingerprint != anchor_fp {
            return Some(format!(
                "seed {seed} ({nprocs}p): {protocol} memory fingerprint diverges from the \
                 functional anchor ({:#018x} vs {anchor_fp:#018x})",
                proto_ref.fingerprint
            ));
        }
        // Within the protocol: the stepper and engine axes must be
        // bit-identical to the protocol's own event reference.
        let legs = [
            (
                "strict",
                run_leg(
                    &built,
                    nprocs,
                    opts(protocol, Stepper::Strict, Engine::Bytecode),
                ),
            ),
            (
                "event-interp",
                run_leg(
                    &built,
                    nprocs,
                    opts(protocol, Stepper::Event, Engine::Interp),
                ),
            ),
        ];
        for (name, leg) in &legs {
            if leg.debug != proto_ref.debug {
                return Some(format!(
                    "seed {seed} ({nprocs}p): {protocol} {name} SimResult diverges from the \
                     protocol's event reference"
                ));
            }
            if leg.fingerprint != proto_ref.fingerprint {
                return Some(format!(
                    "seed {seed} ({nprocs}p): {protocol} {name} memory fingerprint diverges \
                     ({:#018x} vs {:#018x})",
                    leg.fingerprint, proto_ref.fingerprint
                ));
            }
        }
    }
    None
}

fn sweep(seeds: impl IntoIterator<Item = u64>) {
    let failures: Vec<String> = seeds.into_iter().filter_map(check_seed).collect();
    assert!(
        failures.is_empty(),
        "protocols diverged on {} seed(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn protocols_agree_on_corpus_and_pinned_seeds() {
    let mut seeds = corpus_seeds();
    seeds.extend(PINNED_GEN_SEEDS);
    sweep(seeds);
}

#[test]
fn protocols_agree_on_fresh_seed_block() {
    sweep(FRESH_SEEDS);
}

#[test]
fn protocols_agree_on_fast_path_seed_block() {
    sweep(FRESH_SEEDS_FAST_PATH);
}
