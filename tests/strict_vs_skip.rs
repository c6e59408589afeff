//! The stepper equality cube: the clock-advance strategy must be
//! invisible in the results. Each field of [`SimResult`] — cycle counts,
//! stall breakdowns, memory counters, latency stats, MSHR occupancy
//! histograms — must be bit-identical between strict per-cycle stepping
//! and discrete-event stepping. The comparison goes
//! through `Debug` formatting, which prints floats with
//! shortest-roundtrip precision, so any bit-level divergence shows up.
//!
//! The same cube has an engine axis (the bytecode VM front-end must be
//! as invisible as the stepper; interp strict is the reference corner),
//! a tracing axis (attaching the observability tracer must change
//! nothing), and a protocol axis: every coherence machine
//! (directory/MESI/MOESI/Dragon) must itself be stepper-invisible — the
//! full historical cube runs under the directory default, and a reduced
//! leg set re-runs under each alternative protocol.

use mempar_sim::{
    run_program_observed, run_program_with, Engine, MachineConfig, Protocol, SimOptions, Stepper,
    Tracer,
};
use mempar_workloads::App;

fn options(stepper: Stepper, engine: Engine) -> SimOptions {
    SimOptions {
        stepper,
        engine,
        protocol: Protocol::Directory,
    }
}

fn run_debug(app: App, scale: f64, mp: bool, opts: SimOptions) -> String {
    let w = app.build(scale);
    let nprocs = if mp { w.mp_procs.max(1) } else { 1 };
    let cfg = MachineConfig::base_simulated(nprocs, 64 * 1024);
    let mut mem = w.memory(nprocs);
    let r = run_program_with(&w.program, &mut mem, &cfg, opts);
    format!("{r:?}")
}

/// Same run with the observability tracer attached — tracing must be as
/// invisible as the stepper choice.
fn run_debug_traced(app: App, scale: f64, mp: bool, opts: SimOptions) -> String {
    let w = app.build(scale);
    let nprocs = if mp { w.mp_procs.max(1) } else { 1 };
    let cfg = MachineConfig::base_simulated(nprocs, 64 * 1024);
    let mut mem = w.memory(nprocs);
    let (r, _) = run_program_observed(
        &w.program,
        &mut mem,
        &cfg,
        opts,
        Tracer::with_capacity(1 << 16),
    );
    format!("{r:?}")
}

fn assert_identical(app: App, mp: bool) {
    // Multiprocessor strict legs are the expensive corner (16 cores
    // stepped every cycle on one host thread), so they run at a smaller
    // scale; the cube is about equality, not workload size.
    let scale = if mp { 0.03 } else { 0.05 };
    let strict = run_debug(app, scale, mp, options(Stepper::Strict, Engine::Bytecode));
    let ctx = |leg: &str, engine: Engine| {
        format!(
            "{} ({}, engine {engine}, {leg}) diverges from strict stepping",
            app.name(),
            if mp { "mp" } else { "up" }
        )
    };
    // The stepper and tracing axes, under the default (bytecode) engine.
    let event = options(Stepper::Event, Engine::Bytecode);
    let leg = run_debug(app, scale, mp, event);
    assert_eq!(leg, strict, "{}", ctx("event", Engine::Bytecode));
    let traced = run_debug_traced(app, scale, mp, event);
    assert_eq!(traced, strict, "{}", ctx("event+trace", Engine::Bytecode));
    // The engine axis: the tree-walking interpreter must agree at the
    // strict corner (same driver, different front-end) and at the event
    // corner (engine x stepper interaction). Exhaustive engine
    // invisibility on the op-stream level is `tests/engine_diff.rs`'s
    // job; simulated-cycle invisibility needs only these two corners
    // plus `benchsim`'s per-run assertion.
    let strict_tw = run_debug(app, scale, mp, options(Stepper::Strict, Engine::Interp));
    assert_eq!(strict_tw, strict, "{}", ctx("strict", Engine::Interp));
    let event_tw = run_debug(app, scale, mp, options(Stepper::Event, Engine::Interp));
    assert_eq!(event_tw, strict, "{}", ctx("event", Engine::Interp));
}

/// The protocol axis of the cube: each alternative coherence machine has
/// its own cycle counts, but within a protocol every stepper and engine
/// must still be bit-identical. Runs at a smaller scale
/// than the directory cube — the strict reference leg is the expensive
/// corner and there are three extra machines to cover.
fn assert_identical_per_protocol(app: App, mp: bool) {
    let scale = if mp { 0.02 } else { 0.03 };
    for protocol in [Protocol::Mesi, Protocol::Moesi, Protocol::Dragon] {
        let opts = |stepper, engine| SimOptions {
            stepper,
            engine,
            protocol,
        };
        let strict = run_debug(app, scale, mp, opts(Stepper::Strict, Engine::Bytecode));
        let ctx = |leg: &str| {
            format!(
                "{} ({}, protocol {protocol}, {leg}) diverges from strict stepping",
                app.name(),
                if mp { "mp" } else { "up" }
            )
        };
        let leg = run_debug(app, scale, mp, opts(Stepper::Event, Engine::Bytecode));
        assert_eq!(leg, strict, "{}", ctx("event"));
        let strict_tw = run_debug(app, scale, mp, opts(Stepper::Strict, Engine::Interp));
        assert_eq!(strict_tw, strict, "{}", ctx("strict interp"));
    }
}

/// Hard-coded cycle counts recorded from the implementation *before*
/// the allocation-free memory-system fast path (flat directory table,
/// pooled coherence transactions, O(1) MSHR, precomputed routes,
/// lazily-drained completion bags) landed. The fast path's contract is
/// bit-identity, not approximation: every data structure swap on the
/// hot path must be observation-equivalent, so these exact numbers must
/// keep reproducing forever. A divergence here means a "performance"
/// change altered simulated timing — which is a correctness bug in this
/// codebase, however plausible the new numbers look.
#[test]
fn fast_path_matches_seed_golden_cycles() {
    let cycles = |scale: f64| {
        let w = App::Fft.build(scale);
        let nprocs = w.mp_procs.max(1);
        let cfg = MachineConfig::base_simulated(nprocs, 64 * 1024);
        let mut mem = w.memory(nprocs);
        run_program_with(
            &w.program,
            &mut mem,
            &cfg,
            options(Stepper::Event, Engine::Bytecode),
        )
        .cycles
    };
    // fft-mp under the event stepper, as recorded from the pre-fast-path
    // tree (seed commit c928b48) and reverified after every hot-path
    // data-structure change in the fast-path series.
    assert_eq!(cycles(0.05), 94_722, "fft-mp scale 0.05");
    assert_eq!(cycles(0.1), 207_640, "fft-mp scale 0.1");
}

#[test]
fn latbench_steppers_agree() {
    // Pointer chase: the best case for event stepping (window-full
    // stalls on dependent misses), so also the most likely to expose
    // bulk-account errors.
    assert_identical(App::Latbench, false);
}

#[test]
fn fft_steppers_agree_multiprocessor() {
    // Barrier-synchronized phases exercise the barrier-release horizon
    // and the event stepper's sync-version wakeups.
    assert_identical(App::Fft, true);
}

#[test]
fn lu_steppers_agree_multiprocessor() {
    // Flag-based pipelined producer/consumer sync exercises the
    // flag-wait and release-fence (FlagSet) horizons, including the
    // event stepper's same-cycle flag visibility pull-in.
    assert_identical(App::Lu, true);
}

#[test]
fn em3d_steppers_agree_uniprocessor() {
    // Irregular-graph streaming: MSHR-saturated phases where the
    // scheduler must *not* skip (ready-but-retrying loads).
    assert_identical(App::Em3d, false);
}

#[test]
fn latbench_steppers_agree_per_protocol() {
    // Dependent misses under each machine: MESI/Dragon's silent E -> M
    // upgrades and MOESI's Owned evictions must be stepper-invisible.
    assert_identical_per_protocol(App::Latbench, false);
}

#[test]
fn fft_steppers_agree_multiprocessor_per_protocol() {
    // Shared lines across barrier phases: invalidations (MESI/MOESI)
    // and bus updates (Dragon) ride the same event queue under both
    // steppers.
    assert_identical_per_protocol(App::Fft, true);
}

#[test]
fn lu_steppers_agree_multiprocessor_per_protocol() {
    // Producer/consumer flag sync is where protocol timing differences
    // are largest (the flag line ping-pongs); the cube must still agree.
    assert_identical_per_protocol(App::Lu, true);
}
