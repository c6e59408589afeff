//! Stepper benchmarks: strict per-cycle scanning vs per-component
//! event-driven scheduling. Two workloads bracket the design space: the
//! 16-processor FFT transpose is event-dense (sync traffic plus remote
//! misses keep most cores runnable most rounds), while uniprocessor
//! Latbench is idle-heavy (one dependent miss chain, long quiet gaps the
//! event queue can leap over). The equality cube (`tests/strict_vs_skip`,
//! `tests/stepper_cube`) already pins bit-identity, so each run here also
//! cross-checks cycles as a cheap canary.
//!
//! Headline numbers for `BENCH_sim.json` come from the `benchsim` binary
//! (min-of-N wall timing at a larger scale); this bench is for profiling
//! the drivers in isolation.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mempar_sim::{run_program_with, MachineConfig, SimOptions, Stepper};
use mempar_workloads::App;

/// Tiny scale so the whole suite completes in minutes.
const SCALE: f64 = 0.03;

/// One simulated run; returns cycles so the caller can canary-check
/// agreement across drivers.
fn simulate(app: App, nprocs: usize, opts: SimOptions) -> u64 {
    let w = app.build(SCALE);
    let cfg = MachineConfig::base_simulated(nprocs, w.l2_bytes);
    let mut mem = w.memory(nprocs);
    run_program_with(&w.program, &mut mem, &cfg, opts).cycles
}

/// Strict vs event on the two bracketing workloads.
fn bench_steppers(c: &mut Criterion) {
    for (app, nprocs) in [(App::Fft, 16), (App::Latbench, 1)] {
        let mut g = c.benchmark_group(&format!("stepper-{}-{}p", app.name(), nprocs));
        g.sample_size(10);
        let mut cycles_by_stepper = Vec::new();
        for stepper in [Stepper::Strict, Stepper::Event] {
            let opts = SimOptions {
                stepper,
                ..SimOptions::default()
            };
            let mut cycles = 0;
            g.bench_function(stepper.to_string(), |b| {
                b.iter(|| {
                    cycles = simulate(app, nprocs, opts);
                    black_box(cycles)
                })
            });
            cycles_by_stepper.push(cycles);
        }
        assert!(
            cycles_by_stepper.windows(2).all(|w| w[0] == w[1]),
            "{}: steppers must agree on simulated cycles ({cycles_by_stepper:?})",
            app.name()
        );
        g.finish();
    }
}

criterion_group!(benches, bench_steppers);
criterion_main!(benches);
