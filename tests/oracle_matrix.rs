//! The oracle matrix: every equivalence the simulator promises, checked
//! by one runner over generated programs and the real workloads.
//!
//! The axes are coherence protocol × clock stepper × functional engine,
//! plus an observability tracer on the event × bytecode corner. Within
//! each protocol the reference leg is strict × interp, the two oracles.
//! Every other leg must reproduce the reference's full `Debug`-rendered
//! [`SimResult`] and final memory fingerprint bit for bit. `Debug`
//! prints floats with shortest-roundtrip precision, so any bit-level
//! divergence shows up.
//!
//! Across protocols, cycles may move by design, but what the program
//! computes may not. Every simulated run must land on the fingerprint of
//! a timing-free functional drain. That drain is itself checked: the
//! tree-walking interpreter and the bytecode VM must yield the same
//! order-sensitive op-stream digest and the same memory image,
//! sequentially and under the parallel functional oracle.
//!
//! Where a subject runs under the directory and the snooping protocols,
//! their functional counters (retired ops, loads, stores, prefetches)
//! must also equal the directory's. That identity is pinned on the seed
//! blocks that run it, not in general: `loads` counts accesses that
//! reach the memory system, and store forwarding makes that
//! timing-dependent (seeds 1148 and 2045 and LU at scale 0.02 differ
//! between directory and MESI).

use mempar_difftest::{corpus_seeds, gen_spec, materialize, PINNED_GEN_SEEDS};
use mempar_ir::{digest_ops, run_parallel_functional_with, Program, SimMem, TraceDigest};
use mempar_sim::{
    run_program_observed, run_program_with, Engine, MachineConfig, Protocol, SimOptions, SimResult,
    Stepper, Tracer,
};
use mempar_workloads::App;

/// Directory first: it is the cross-protocol anchor.
const PROTOCOLS: &[Protocol] = &[
    Protocol::Directory,
    Protocol::Mesi,
    Protocol::Moesi,
    Protocol::Dragon,
];
const DIRECTORY: &[Protocol] = &[Protocol::Directory];
const ALTERNATIVES: &[Protocol] = &[Protocol::Mesi, Protocol::Moesi, Protocol::Dragon];

/// The non-reference legs: (stepper, engine, traced).
const LEGS: [(Stepper, Engine, bool); 4] = [
    (Stepper::Strict, Engine::Bytecode, false),
    (Stepper::Event, Engine::Interp, false),
    (Stepper::Event, Engine::Bytecode, false),
    (Stepper::Event, Engine::Bytecode, true),
];

/// One program under test, with its initial memory image laid out for
/// the processor count it simulates on.
struct Subject {
    name: String,
    prog: Program,
    mem: SimMem,
    l2_bytes: usize,
}

impl Subject {
    /// A difftest-generated program. Multiprocessor only for specs whose
    /// SPMD execution is deterministic; everything else simulates as a
    /// uniprocessor.
    fn generated(seed: u64) -> Self {
        let built = materialize(&gen_spec(seed));
        let nprocs = if built.mode.parallel_checked() {
            built.nprocs
        } else {
            1
        };
        Subject {
            name: format!("seed {seed} ({nprocs}p)"),
            mem: built.memory(nprocs),
            prog: built.prog,
            l2_bytes: 32 * 1024,
        }
    }

    /// A Table 2 workload, on one processor or its multiprocessor count.
    fn workload(app: App, scale: f64, mp: bool) -> Self {
        let w = app.build(scale);
        let nprocs = if mp { w.mp_procs.max(1) } else { 1 };
        Subject {
            name: format!("{} ({nprocs}p, scale {scale})", app.name()),
            mem: w.memory(nprocs),
            prog: w.program,
            l2_bytes: 64 * 1024,
        }
    }

    fn nprocs(&self) -> usize {
        self.mem.nprocs()
    }
}

/// The one leg runner: simulates `s` under `opts`, with the tracer
/// attached when `traced`, and returns the result and the final memory
/// fingerprint.
fn run_leg(s: &Subject, opts: SimOptions, traced: bool) -> (SimResult, u64) {
    let cfg = MachineConfig::base_simulated(s.nprocs(), s.l2_bytes);
    let mut mem = s.mem.clone();
    let r = if traced {
        let tracer = Tracer::with_capacity(1 << 16);
        run_program_observed(&s.prog, &mut mem, &cfg, opts, tracer).0
    } else {
        run_program_with(&s.prog, &mut mem, &cfg, opts)
    };
    (r, mem.fingerprint())
}

/// Drains the uniprocessor op stream under `engine`, returning the
/// order-sensitive digest and the final memory fingerprint.
fn drain(s: &Subject, engine: Engine) -> (TraceDigest, u64) {
    let mut mem = s.mem.clone();
    let digest = digest_ops(&s.prog, &mut mem, 1, engine);
    (digest, mem.fingerprint())
}

/// The timing-free anchor every simulated run must land on: the
/// sequential drain's memory image, or the parallel functional oracle's
/// on a multiprocessor. Both engines must agree on it.
fn functional_anchor(s: &Subject) -> Result<u64, String> {
    let (d_interp, fp_interp) = drain(s, Engine::Interp);
    let (d_vm, fp_vm) = drain(s, Engine::Bytecode);
    if d_interp != d_vm {
        return Err(format!(
            "op-stream digests diverge\n  interp:   {d_interp:?}\n  bytecode: {d_vm:?}"
        ));
    }
    if fp_interp != fp_vm {
        return Err(format!(
            "sequential memory fingerprints diverge ({fp_interp:#018x} vs {fp_vm:#018x})"
        ));
    }
    if s.nprocs() == 1 {
        return Ok(fp_interp);
    }
    let par = |engine| {
        let mut mem = s.mem.clone();
        run_parallel_functional_with(&s.prog, &mut mem, s.nprocs(), engine);
        mem.fingerprint()
    };
    let (pi, pv) = (par(Engine::Interp), par(Engine::Bytecode));
    if pi != pv {
        return Err(format!(
            "parallel memory fingerprints diverge ({pi:#018x} vs {pv:#018x})"
        ));
    }
    Ok(pi)
}

/// Checks `s` across the matrix under `protocols` (directory first);
/// returns the first divergence.
fn check(s: &Subject, protocols: &[Protocol]) -> Result<(), String> {
    let anchor = functional_anchor(s)?;
    let mut directory: Option<String> = None;
    for &protocol in protocols {
        let opts = |stepper, engine| SimOptions {
            stepper,
            engine,
            protocol,
        };
        let (r, fp) = run_leg(s, opts(Stepper::Strict, Engine::Interp), false);
        if fp != anchor {
            return Err(format!(
                "{protocol} memory fingerprint diverges from the functional anchor \
                 ({fp:#018x} vs {anchor:#018x})"
            ));
        }
        let functional = format!(
            "retired={} loads={} stores={} prefetches={}",
            r.retired, r.counters.loads, r.counters.stores, r.counters.prefetches
        );
        match &directory {
            None if protocol == Protocol::Directory => directory = Some(functional),
            Some(directory) if functional != *directory => {
                return Err(format!(
                    "{protocol} functional counters diverge from directory\n  \
                     directory: {directory}\n  {protocol}: {functional}"
                ));
            }
            _ => {}
        }
        let reference = format!("{r:?}");
        for (stepper, engine, traced) in LEGS {
            let (leg, leg_fp) = run_leg(s, opts(stepper, engine), traced);
            let name = format!(
                "{protocol} {stepper} x {engine}{}",
                if traced { " +trace" } else { "" }
            );
            if format!("{leg:?}") != reference {
                return Err(format!("{name} SimResult diverges from strict x interp"));
            }
            if leg_fp != fp {
                return Err(format!(
                    "{name} memory fingerprint diverges ({leg_fp:#018x} vs {fp:#018x})"
                ));
            }
        }
    }
    Ok(())
}

fn sweep(seeds: impl IntoIterator<Item = u64>, protocols: &[Protocol]) {
    let failures: Vec<String> = seeds
        .into_iter()
        .filter_map(|seed| {
            let s = Subject::generated(seed);
            check(&s, protocols)
                .err()
                .map(|e| format!("{}: {e}", s.name))
        })
        .collect();
    assert!(
        failures.is_empty(),
        "oracle matrix diverged on {} seed(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// One workload cube: `app` at `scale` across the matrix under
/// `protocols`. Each workload runs the directory at one scale and the
/// snooping protocols at a smaller one. Multiprocessor strict legs are
/// the expensive corner, so those run smaller; the matrix is about
/// equality, not workload size.
fn workload_cube(app: App, mp: bool, scale: f64, protocols: &[Protocol]) {
    let s = Subject::workload(app, scale, mp);
    if let Err(e) = check(&s, protocols) {
        panic!("{}: {e}", s.name);
    }
}

#[test]
fn corpus_and_pinned_seeds() {
    let mut seeds = corpus_seeds();
    seeds.extend(PINNED_GEN_SEEDS);
    sweep(seeds, PROTOCOLS);
}

#[test]
fn seed_block_1000() {
    sweep(1000..1200, DIRECTORY);
}

#[test]
fn seed_block_2000() {
    sweep(2000..2100, DIRECTORY);
}

#[test]
fn seed_block_3000() {
    sweep(3000..3100, PROTOCOLS);
}

/// Never sampled by any sweep before the allocation-free memory-system
/// fast path landed, so agreement here is evidence the fast path is
/// observation-equivalent on programs it was not tuned against.
#[test]
fn seed_block_4000() {
    sweep(4000..4100, PROTOCOLS);
}

/// Pointer chase: the best case for event stepping (window-full stalls
/// on dependent misses), so also the most likely to expose bulk-account
/// errors; under MESI/Dragon, silent E -> M upgrades and MOESI's Owned
/// evictions.
#[test]
fn latbench_cube() {
    workload_cube(App::Latbench, false, 0.05, DIRECTORY);
}

#[test]
fn latbench_cube_per_protocol() {
    workload_cube(App::Latbench, false, 0.03, ALTERNATIVES);
}

/// Irregular-graph streaming: MSHR-saturated phases where the scheduler
/// must *not* skip (ready-but-retrying loads).
#[test]
fn em3d_cube() {
    workload_cube(App::Em3d, false, 0.05, DIRECTORY);
}

/// Barrier-synchronized phases exercise the barrier-release horizon and
/// the event stepper's sync-version wakeups; shared lines cross phases
/// as invalidations (MESI/MOESI) and bus updates (Dragon).
#[test]
fn fft_mp_cube() {
    workload_cube(App::Fft, true, 0.03, DIRECTORY);
}

#[test]
fn fft_mp_cube_per_protocol() {
    workload_cube(App::Fft, true, 0.02, ALTERNATIVES);
}

/// Flag-based pipelined producer/consumer sync exercises the flag-wait
/// and release-fence (FlagSet) horizons, including the event stepper's
/// same-cycle flag visibility pull-in; the flag line ping-pongs, where
/// protocol timing differs most.
#[test]
fn lu_mp_cube() {
    workload_cube(App::Lu, true, 0.03, DIRECTORY);
}

#[test]
fn lu_mp_cube_per_protocol() {
    workload_cube(App::Lu, true, 0.02, ALTERNATIVES);
}

/// Cycle counts recorded before the allocation-free memory-system fast
/// path (flat directory table, pooled coherence transactions, O(1)
/// MSHR, precomputed routes, lazily-drained completion bags) landed.
/// Its contract is bit-identity, not approximation, so these exact
/// numbers must keep reproducing. A divergence means a "performance"
/// change altered simulated timing.
#[test]
fn fast_path_matches_seed_golden_cycles() {
    let cycles = |scale| {
        let s = Subject::workload(App::Fft, scale, true);
        run_leg(&s, SimOptions::default(), false).0.cycles
    };
    assert_eq!(cycles(0.05), 94_722, "fft-mp scale 0.05");
    assert_eq!(cycles(0.1), 207_640, "fft-mp scale 0.1");
}
