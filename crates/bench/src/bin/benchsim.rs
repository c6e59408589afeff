//! Regenerates `BENCH_sim.json`: simulator throughput (simulated cycles
//! per host second) for a fixed set of experiments, under both clock
//! drivers (strict one-cycle-at-a-time reference, discrete-event
//! stepping) plus a tree-walking interpreter leg. Each experiment also
//! runs once per alternative coherence protocol (MESI, MOESI, Dragon)
//! under the event driver, recording what each machine costs in
//! simulated cycles relative to the directory baseline. The JSON carries
//! the resulting event-vs-strict, bytecode-vs-tree-walk, and
//! per-protocol cycle ratios, plus the
//! composition-tuner legs (`"tune"` array): base vs paper-default
//! driver vs tuned simulated cycles with the `tuned_vs_default`
//! headline ratio (DESIGN.md §13).
//!
//! The runs are timed **serially** (unlike the other harness binaries) so
//! host contention cannot distort the throughput numbers, and the cycle
//! counts of all directory modes are asserted identical — no stepper or
//! engine swap may ever change results, only speed. The
//! protocol legs have their own cycle counts but must reproduce the
//! directory leg's functional results (retired ops, loads/stores, memory
//! fingerprint) exactly.
//!
//! ```text
//! cargo run --release -p mempar-bench --bin benchsim -- --scale 0.1
//! ```

use mempar::{measure_locality, sim_reuse_profiler};
use mempar_analysis::Locality;
use mempar_bench::{
    bench_sim_json, log_enabled, parse_args_unobserved, timed, FrontendBenchRecord,
    LocalityBenchRecord, LogLevel, SimBenchRecord, TuneBenchRecord,
};
use mempar_ir::{BytecodeProgram, Interp, Vm};
use mempar_sim::{
    run_program_observed, run_program_with, Engine, MachineConfig, Protocol, ReuseConfig,
    SimOptions, Stepper, Tracer,
};
use mempar_tune::{tune_workload, TuneOptions, Tuner};
use mempar_workloads::App;

fn main() {
    let args = parse_args_unobserved();
    // Latbench's pointer chase is the headline (window-full dependent
    // misses — the best case for event stepping); Erlebacher and FFT cover a
    // regular uniprocessor stream and a barrier-synchronized
    // multiprocessor run.
    let experiments: &[(&str, App, bool)] = &[
        ("latbench-up", App::Latbench, false),
        ("erlebacher-up", App::Erlebacher, false),
        ("fft-mp", App::Fft, true),
    ];
    let modes: &[(&str, Stepper, Engine)] = &[
        ("strict-cycle", Stepper::Strict, Engine::Bytecode),
        ("event", Stepper::Event, Engine::Bytecode),
        // The engine comparison rides the fastest stepper so the
        // front-end difference is least diluted by the timing model.
        ("tree-walk", Stepper::Event, Engine::Interp),
    ];
    let mut records: Vec<SimBenchRecord> = Vec::new();
    let mut frontend: Vec<FrontendBenchRecord> = Vec::new();
    let mut locality: Vec<LocalityBenchRecord> = Vec::new();
    for &(name, app, mp) in experiments {
        let mut cycles_by_mode = Vec::new();
        // Functional reference from the directory event leg: the
        // protocol legs below must reproduce it exactly.
        let mut func_ref = None;
        for &(mode, stepper, engine) in modes {
            let w = app.build(args.scale);
            let nprocs = if mp { w.mp_procs.max(1) } else { 1 };
            let cfg = MachineConfig::base_simulated(nprocs, 64 * 1024);
            // Min-of-N wall time: the event legs finish in well under a
            // second, where a single run is hostage to host noise, so
            // short legs get more samples (at least 3, up to 8, until
            // ~1s of repetitions has accumulated).
            let mut best = None;
            let mut reps = 0;
            let mut total = 0.0;
            let mut fingerprint = 0u64;
            while reps < 3 || (reps < 8 && total < 1.0) {
                let mut mem = w.memory(nprocs);
                let (r, secs) = timed(|| {
                    run_program_with(
                        &w.program,
                        &mut mem,
                        &cfg,
                        SimOptions {
                            stepper,
                            engine,
                            protocol: Protocol::Directory,
                        },
                    )
                });
                reps += 1;
                total += secs;
                fingerprint = mem.fingerprint();
                if best.as_ref().is_none_or(|&(_, b)| secs < b) {
                    best = Some((r, secs));
                }
            }
            let (r, secs) = best.expect("at least one rep");
            if log_enabled(LogLevel::Info) {
                eprintln!(
                    "[{name}] {mode}: {} cycles in {secs:.3}s = {:.0} cycles/sec",
                    r.cycles,
                    r.cycles as f64 / secs.max(1e-12)
                );
            }
            cycles_by_mode.push(r.cycles);
            if mode == "event" {
                func_ref = Some((r.retired, r.counters.loads, r.counters.stores, fingerprint));
            }
            records.push(SimBenchRecord {
                experiment: name.to_string(),
                mode: mode.to_string(),
                cycles: r.cycles,
                cores: nprocs,
                wall_seconds: secs,
                // The occupancy summary only needs recording once per
                // experiment; every mode produces an identical histogram,
                // so attach it to the default (event) run.
                occupancy: (mode == "event").then(|| r.occupancy.clone()),
            });
        }
        assert!(
            cycles_by_mode.windows(2).all(|w| w[0] == w[1]),
            "{name}: stepper or engine changed the simulated cycle count: \
             {cycles_by_mode:?}"
        );
        // Alternative coherence machines under the event driver. Their
        // cycle counts are their own (so they stay OUT of the cross-mode
        // equality assertion above — the per-protocol dimension is the
        // point), but functional results must match the directory leg
        // bit-for-bit.
        let protocol_modes: &[(&str, Protocol)] = &[
            ("event-mesi", Protocol::Mesi),
            ("event-moesi", Protocol::Moesi),
            ("event-dragon", Protocol::Dragon),
        ];
        for &(mode, protocol) in protocol_modes {
            let w = app.build(args.scale);
            let nprocs = if mp { w.mp_procs.max(1) } else { 1 };
            let cfg = MachineConfig::base_simulated(nprocs, 64 * 1024);
            let mut best = None;
            let mut reps = 0;
            let mut total = 0.0;
            let mut fingerprint = 0u64;
            while reps < 3 || (reps < 8 && total < 1.0) {
                let mut mem = w.memory(nprocs);
                let (r, secs) = timed(|| {
                    run_program_with(
                        &w.program,
                        &mut mem,
                        &cfg,
                        SimOptions {
                            stepper: Stepper::Event,
                            engine: Engine::Bytecode,
                            protocol,
                        },
                    )
                });
                reps += 1;
                total += secs;
                fingerprint = mem.fingerprint();
                if best.as_ref().is_none_or(|&(_, b)| secs < b) {
                    best = Some((r, secs));
                }
            }
            let (r, secs) = best.expect("at least one rep");
            let reference = func_ref.expect("directory event leg always runs first");
            assert_eq!(
                (r.retired, r.counters.loads, r.counters.stores, fingerprint),
                reference,
                "{name}: protocol {protocol} changed functional results"
            );
            if log_enabled(LogLevel::Info) {
                eprintln!(
                    "[{name}] {mode}: {} cycles in {secs:.3}s = {:.0} cycles/sec",
                    r.cycles,
                    r.cycles as f64 / secs.max(1e-12)
                );
            }
            records.push(SimBenchRecord {
                experiment: name.to_string(),
                mode: mode.to_string(),
                cycles: r.cycles,
                cores: nprocs,
                wall_seconds: secs,
                occupancy: None,
            });
        }
        // Isolated front-end drain: the same dynamic-op stream with no
        // timing model attached. The simulated runs above spend most of
        // their host time in the timing model, so `engine_speedup` sits
        // near 1 by Amdahl's law; the drain is where the engine swap is
        // visible (DESIGN.md §9b).
        let w = app.build(args.scale);
        let nprocs = if mp { w.mp_procs.max(1) } else { 1 };
        let cfg = MachineConfig::base_simulated(nprocs, 64 * 1024);
        let code = BytecodeProgram::compile(&w.program);
        let mut ops = 0u64;
        {
            let mut mem = w.memory(nprocs);
            let mut vm = Vm::new(&code, 0, nprocs);
            while vm.next_op(&mut mem).is_some() {
                ops += 1;
            }
        }
        let reps = (4_000_000 / ops.max(1)).clamp(1, 100) as u32;
        let min_of_3 = |drain: &dyn Fn()| {
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let (_, secs) = timed(|| {
                    for _ in 0..reps {
                        drain();
                    }
                });
                best = best.min(secs);
            }
            best / reps as f64
        };
        let interp_seconds = min_of_3(&|| {
            let mut mem = w.memory(nprocs);
            let mut it = Interp::new(&w.program, 0, nprocs);
            while it.next_op(&mut mem).is_some() {}
        });
        let bytecode_seconds = min_of_3(&|| {
            let mut mem = w.memory(nprocs);
            let mut vm = Vm::new(&code, 0, nprocs);
            while vm.next_op(&mut mem).is_some() {}
        });
        let f = FrontendBenchRecord {
            experiment: name.to_string(),
            ops,
            interp_seconds,
            bytecode_seconds,
        };
        if log_enabled(LogLevel::Info) {
            eprintln!(
                "[{name}] frontend drain: {ops} ops, interp {:.1} ns/op, bytecode {:.1} ns/op = {:.2}x",
                f.interp_seconds * 1e9 / ops.max(1) as f64,
                f.bytecode_seconds * 1e9 / ops.max(1) as f64,
                f.speedup()
            );
        }
        frontend.push(f);
        // Measured-locality overhead legs (DESIGN.md §12). (a) The
        // sampled reuse-distance pre-pass (`measure_locality`) against a
        // plain single-stream interpreter drain of the same op stream —
        // both walk `Interp::new(prog, 0, 1)` over a fresh memory, so
        // the ratio is exactly what SHARDS sampling costs. (b) The
        // in-sim fetch-stage tap: an observed event run with the
        // profiler attached against an identical run with it off. The
        // tap is pure observation, so both observed legs must land on
        // the exact simulated cycle count of the untraced event legs
        // above — asserted here before the ratio is recorded.
        let drain_seconds = min_of_3(&|| {
            let mut mem = w.memory(1);
            let mut it = Interp::new(&w.program, 0, 1);
            while it.next_op(&mut mem).is_some() {}
        });
        let prepass_seconds = min_of_3(&|| {
            let mut mem = w.memory(1);
            let _ = measure_locality(&w.program, &mut mem, &cfg, ReuseConfig::default());
        });
        let mut reuse_mem = w.memory(1);
        let (_, report) =
            measure_locality(&w.program, &mut reuse_mem, &cfg, ReuseConfig::default());
        let opts = SimOptions {
            stepper: Stepper::Event,
            engine: Engine::Bytecode,
            protocol: Protocol::Directory,
        };
        let mut sim_best = f64::INFINITY;
        let mut tap_best = f64::INFINITY;
        for _ in 0..3 {
            let mut mem = w.memory(nprocs);
            let ((r_off, _), secs) = timed(|| {
                run_program_observed(
                    &w.program,
                    &mut mem,
                    &cfg,
                    opts,
                    Tracer::with_capacity(0),
                    None,
                )
            });
            assert_eq!(
                r_off.cycles, cycles_by_mode[0],
                "{name}: attaching the tracer drifted the simulated cycle count"
            );
            sim_best = sim_best.min(secs);
            let mut mem = w.memory(nprocs);
            let ((r_tap, _), secs) = timed(|| {
                run_program_observed(
                    &w.program,
                    &mut mem,
                    &cfg,
                    opts,
                    Tracer::with_capacity(0),
                    Some(sim_reuse_profiler(&w.program, &cfg, ReuseConfig::default())),
                )
            });
            assert_eq!(
                r_tap.cycles, cycles_by_mode[0],
                "{name}: the reuse tap drifted the simulated cycle count"
            );
            tap_best = tap_best.min(secs);
        }
        let l = LocalityBenchRecord {
            experiment: name.to_string(),
            accesses: report.accesses,
            sampling_rate: report.sampling_rate,
            sampled: report.sampled,
            drain_seconds,
            prepass_seconds,
            sim_seconds: sim_best,
            sim_tap_seconds: tap_best,
        };
        if log_enabled(LogLevel::Info) {
            eprintln!(
                "[{name}] reuse profiler: {} accesses, rate {:.4}, pre-pass {:.2}x drain, in-sim tap {:.2}x",
                l.accesses,
                l.sampling_rate,
                l.prepass_overhead(),
                l.tap_overhead()
            );
        }
        locality.push(l);
    }
    // Composition-tuner legs (DESIGN.md §13): the three throughput
    // experiments plus two extra uniprocessor workloads where the
    // search has headroom over the analytic recipe. One tuner across
    // all legs shares the score memo; wall time is the whole search
    // (enumeration + oracle checks + scoring), not one simulation.
    let tune_experiments: &[(&str, App, bool)] = &[
        ("latbench-up", App::Latbench, false),
        ("erlebacher-up", App::Erlebacher, false),
        ("fft-mp", App::Fft, true),
        ("em3d-up", App::Em3d, false),
        ("ocean-up", App::Ocean, false),
    ];
    let tuner = Tuner::new(TuneOptions::default());
    let mut tune = Vec::new();
    for &(name, app, mp) in tune_experiments {
        let w = app.build(args.scale);
        let nprocs = if mp { w.mp_procs.max(1) } else { 1 };
        let cfg = MachineConfig::base_simulated(nprocs, 64 * 1024);
        let ((_, report, _), secs) = timed(|| tune_workload(&w, &cfg, &tuner, Locality::Analytic));
        assert!(
            report.oracle_failures.is_empty(),
            "{name}: tuner scored a semantics-changing candidate: {:?}",
            report.oracle_failures
        );
        if log_enabled(LogLevel::Info) {
            eprintln!(
                "[{name}] tune: base {} -> default {} -> tuned {} (x{:.3} vs default, {} scored, {secs:.2}s)",
                report.base_cycles,
                report.default_cycles,
                report.tuned_cycles,
                report.tuned_vs_default(),
                report.stats.scored
            );
        }
        let mut rec = TuneBenchRecord::from_report(&report, secs);
        rec.experiment = name.to_string();
        tune.push(rec);
    }

    let json = bench_sim_json(args.scale, &records, &frontend, &locality, &tune);
    std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
    print!("{json}");
    if log_enabled(LogLevel::Info) {
        eprintln!("wrote BENCH_sim.json");
    }
}
