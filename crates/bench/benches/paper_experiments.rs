//! Criterion benchmarks: scaled-down versions of every paper experiment,
//! one group per table/figure id, so `cargo bench` regenerates the whole
//! evaluation in miniature. The harness binaries produce the full-size
//! tables; these benches track the same code paths' performance and
//! assert the headline directions.

use criterion::{criterion_group, criterion_main, Criterion};
use mempar::{run_pair, MachineConfig};
use mempar_sim::{run_program_with, SimOptions, Stepper};
use mempar_workloads::App;

/// Tiny scale so the whole suite completes in minutes.
const SCALE: f64 = 0.03;

fn bench_latbench_sec51(c: &mut Criterion) {
    let mut g = c.benchmark_group("sec5.1-latbench");
    g.sample_size(10);
    let w = App::Latbench.build(SCALE);
    let cfg = MachineConfig::base_simulated(1, 64 * 1024);
    g.bench_function("base+clustered", |b| {
        b.iter(|| {
            let pair = run_pair(&w, &cfg);
            assert!(
                pair.clustered.cycles < pair.base.cycles,
                "clustering must win on Latbench"
            );
            pair.base.cycles + pair.clustered.cycles
        })
    });
    g.finish();
}

fn bench_fig3_uniprocessor(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3b-uniprocessor");
    g.sample_size(10);
    for app in [App::Erlebacher, App::Mst, App::Ocean] {
        let w = app.build(SCALE);
        let cfg = MachineConfig::base_simulated(1, 32 * 1024);
        g.bench_function(app.name(), |b| {
            b.iter(|| {
                let pair = run_pair(&w, &cfg);
                assert!(pair.outputs_match);
                pair.base.cycles
            })
        });
    }
    g.finish();
}

fn bench_fig3_multiprocessor(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3a-multiprocessor");
    g.sample_size(10);
    let w = App::Ocean.build(SCALE);
    let cfg = MachineConfig::base_simulated(4, 32 * 1024);
    g.bench_function("Ocean-4p", |b| {
        b.iter(|| {
            let pair = run_pair(&w, &cfg);
            assert!(pair.outputs_match);
            pair.base.cycles
        })
    });
    g.finish();
}

fn bench_table3_exemplar(c: &mut Criterion) {
    let mut g = c.benchmark_group("table3-exemplar");
    g.sample_size(10);
    let w = App::Mst.build(SCALE);
    let cfg = MachineConfig::exemplar(1);
    g.bench_function("MST-up", |b| {
        b.iter(|| {
            let pair = run_pair(&w, &cfg);
            assert!(pair.outputs_match);
            pair.clustered.cycles
        })
    });
    g.finish();
}

fn bench_fig4_occupancy(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4-mshr-occupancy");
    g.sample_size(10);
    let w = App::Lu.build(SCALE);
    let cfg = MachineConfig::base_simulated(4, 32 * 1024);
    g.bench_function("LU-4p", |b| {
        b.iter(|| {
            let pair = run_pair(&w, &cfg);
            // The Figure 4 claim: clustering raises LU's read-MSHR
            // parallelism.
            let base = pair.base.occupancy.mean_read_occupancy();
            let clust = pair.clustered.occupancy.mean_read_occupancy();
            assert!(clust >= base, "clustering must not reduce parallelism");
            (base, clust)
        })
    });
    g.finish();
}

fn bench_simulator_inner_loop(c: &mut Criterion) {
    // The simulator's per-cycle loop itself, under the strict
    // one-cycle-at-a-time reference driver. `benchsim` and the `stepper`
    // bench compare it against the event stepper; this group tracks the
    // reference loop under criterion's statistics.
    let mut g = c.benchmark_group("simulator-inner-loop");
    g.sample_size(10);
    for (label, app, mp) in [
        ("latbench-strict", App::Latbench, false),
        ("fft-mp-strict", App::Fft, true),
    ] {
        let w = app.build(SCALE);
        let nprocs = if mp { w.mp_procs.max(1) } else { 1 };
        let cfg = MachineConfig::base_simulated(nprocs, 64 * 1024);
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut mem = w.memory(nprocs);
                run_program_with(
                    &w.program,
                    &mut mem,
                    &cfg,
                    SimOptions {
                        stepper: Stepper::Strict,
                        ..SimOptions::default()
                    },
                )
                .cycles
            })
        });
    }
    g.finish();
}

fn bench_transform_throughput(c: &mut Criterion) {
    // How fast the analysis + transformation pipeline itself runs
    // (compiler-side cost).
    let mut g = c.benchmark_group("framework-throughput");
    let w = App::Erlebacher.build(SCALE);
    let cfg = MachineConfig::base_simulated(1, 32 * 1024);
    g.bench_function("cluster-erlebacher", |b| {
        b.iter(|| mempar::cluster_workload(&w, &cfg))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_latbench_sec51,
    bench_fig3_uniprocessor,
    bench_fig3_multiprocessor,
    bench_table3_exemplar,
    bench_fig4_occupancy,
    bench_simulator_inner_loop,
    bench_transform_throughput
);
criterion_main!(benches);
