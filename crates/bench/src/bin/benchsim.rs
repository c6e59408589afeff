//! Regenerates `BENCH_sim.json`: simulator throughput (simulated cycles
//! per host second) for a fixed set of experiments, under both clock
//! drivers (strict one-cycle-at-a-time reference, discrete-event
//! stepping) plus a tree-walking interpreter leg. Each experiment also
//! runs once per alternative coherence protocol (MESI, MOESI, Dragon)
//! under the event driver, recording what each machine costs in
//! simulated cycles relative to the directory baseline. The JSON carries
//! the resulting event-vs-strict, bytecode-vs-tree-walk, and
//! per-protocol cycle ratios (`"speedups"`), the isolated front-end
//! drains (`"frontend"`), the reuse pre-pass overhead (`"locality"`),
//! plus the composition-tuner legs (`"tune"` array): base vs
//! paper-default driver vs tuned simulated cycles with the
//! `tuned_vs_default` headline ratio (DESIGN.md §13). Each row is
//! formatted where its measurement is taken.
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

use mempar::{measure_locality, ReuseConfig, ReuseReport};
use mempar_analysis::Locality;
use mempar_bench::{log_enabled, parse_args, timed, LogLevel, Reads};
use mempar_ir::{BytecodeProgram, Interp, Vm};
use mempar_sim::{run_program_with, Engine, MachineConfig, Protocol, SimOptions, Stepper};
use mempar_stats::MshrOccupancy;
use mempar_tune::{tune_workload, TuneOptions, TuneReport, Tuner};
use mempar_workloads::App;

const fn directory(stepper: Stepper, engine: Engine) -> SimOptions {
    SimOptions {
        stepper,
        engine,
        protocol: Protocol::Directory,
    }
}

const fn snooping(protocol: Protocol) -> SimOptions {
    SimOptions {
        stepper: Stepper::Event,
        engine: Engine::Bytecode,
        protocol,
    }
}

/// The simulated legs of each experiment, in run order. The directory
/// legs must agree on simulated cycles. The alternative coherence
/// machines ride the event driver; their cycle counts are their own (the
/// per-protocol dimension is the point), but their functional results
/// must match the directory event leg bit-for-bit.
const LEGS: [(&str, SimOptions); 6] = [
    ("strict-cycle", directory(Stepper::Strict, Engine::Bytecode)),
    ("event", directory(Stepper::Event, Engine::Bytecode)),
    // The engine comparison rides the fastest stepper so the
    // front-end difference is least diluted by the timing model.
    ("tree-walk", directory(Stepper::Event, Engine::Interp)),
    ("event-mesi", snooping(Protocol::Mesi)),
    ("event-moesi", snooping(Protocol::Moesi)),
    ("event-dragon", snooping(Protocol::Dragon)),
];

fn main() {
    let args = parse_args(Reads::NONE);
    // Latbench's pointer chase is the headline (window-full dependent
    // misses — the best case for event stepping); Erlebacher and FFT cover a
    // regular uniprocessor stream and a barrier-synchronized
    // multiprocessor run.
    let experiments: &[(&str, App, bool)] = &[
        ("latbench-up", App::Latbench, false),
        ("erlebacher-up", App::Erlebacher, false),
        ("fft-mp", App::Fft, true),
    ];
    let mut runs = Vec::new();
    let mut speedups = Vec::new();
    let mut frontend = Vec::new();
    let mut locality = Vec::new();
    for &(name, app, mp) in experiments {
        let w = app.build(args.scale);
        let nprocs = if mp { w.mp_procs.max(1) } else { 1 };
        let cfg = MachineConfig::base_simulated(nprocs, 64 * 1024);
        // (cycles, wall seconds) per leg, in `LEGS` order.
        let mut legs = [(0u64, 0.0f64); 6];
        // Functional reference from the directory event leg, which runs
        // before every protocol leg.
        let mut func_ref = None;
        for (leg, &(mode, opts)) in legs.iter_mut().zip(&LEGS) {
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
                let (r, secs) = timed(|| run_program_with(&w.program, &mut mem, &cfg, opts));
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
                    per_sec(r.cycles, secs)
                );
            }
            let func = (r.retired, r.counters.loads, r.counters.stores, fingerprint);
            if opts.protocol != Protocol::Directory {
                assert_eq!(
                    Some(func),
                    func_ref,
                    "{name}: protocol {} changed functional results",
                    opts.protocol
                );
            }
            if mode == "event" {
                func_ref = Some(func);
            }
            // The occupancy summary only needs recording once per
            // experiment; every directory mode produces an identical
            // histogram, so attach it to the default (event) run.
            let occupancy = (mode == "event").then_some(&r.occupancy);
            runs.push(experiment_row(
                name, mode, r.cycles, nprocs, secs, occupancy,
            ));
            *leg = (r.cycles, secs);
        }
        let directory_cycles: Vec<u64> = LEGS
            .iter()
            .zip(&legs)
            .filter(|((_, opts), _)| opts.protocol == Protocol::Directory)
            .map(|(_, &(cycles, _))| cycles)
            .collect();
        assert!(
            directory_cycles.windows(2).all(|w| w[0] == w[1]),
            "{name}: stepper or engine changed the simulated cycle count: \
             {directory_cycles:?}"
        );
        speedups.push(speedups_row(name, &legs));
        // Isolated front-end drain: the same dynamic-op stream with no
        // timing model attached. The simulated runs above spend most of
        // their host time in the timing model, so `engine_speedup` sits
        // near 1 by Amdahl's law; the drain is where the engine swap is
        // visible (DESIGN.md §9b).
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
        let vm_drain = |nprocs| {
            let mut mem = w.memory(nprocs);
            let mut vm = Vm::new(&code, 0, nprocs);
            while vm.next_op(&mut mem).is_some() {}
        };
        let bytecode_seconds = min_of_3(&|| vm_drain(nprocs));
        if log_enabled(LogLevel::Info) {
            eprintln!(
                "[{name}] frontend drain: {ops} ops, interp {:.1} ns/op, bytecode {:.1} ns/op = {:.2}x",
                interp_seconds * 1e9 / ops.max(1) as f64,
                bytecode_seconds * 1e9 / ops.max(1) as f64,
                ratio(interp_seconds, bytecode_seconds)
            );
        }
        frontend.push(frontend_row(name, ops, interp_seconds, bytecode_seconds));
        // Measured-locality overhead leg (DESIGN.md §12): the sampled
        // reuse-distance pre-pass (`measure_locality`) against a plain
        // single-stream VM drain of the same op stream — both walk the
        // bytecode VM as processor 0 of 1 over a fresh memory, so the
        // ratio is what SHARDS sampling costs.
        let drain_seconds = min_of_3(&|| vm_drain(1));
        let prepass_seconds = min_of_3(&|| {
            let mut mem = w.memory(1);
            let _ = measure_locality(&w.program, &mut mem, &cfg, ReuseConfig::default());
        });
        let mut reuse_mem = w.memory(1);
        let (_, report) =
            measure_locality(&w.program, &mut reuse_mem, &cfg, ReuseConfig::default());
        if log_enabled(LogLevel::Info) {
            eprintln!(
                "[{name}] reuse profiler: {} accesses, rate {:.4}, pre-pass {:.2}x drain",
                report.accesses,
                report.sampling_rate,
                ratio(prepass_seconds, drain_seconds)
            );
        }
        locality.push(locality_row(name, &report, drain_seconds, prepass_seconds));
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
        tune.push(tune_row(name, &report, secs));
    }

    let json = document(
        args.scale,
        [
            ("experiments", runs),
            ("speedups", speedups),
            ("frontend", frontend),
            ("locality", locality),
            ("tune", tune),
        ],
    );
    std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
    print!("{json}");
    if log_enabled(LogLevel::Info) {
        eprintln!("wrote BENCH_sim.json");
    }
}

/// Simulated cycles per host second.
fn per_sec(cycles: u64, secs: f64) -> f64 {
    cycles as f64 / secs.max(1e-12)
}

/// `slow / fast` host seconds: how many times faster `fast` ran.
fn ratio(slow: f64, fast: f64) -> f64 {
    slow / fast.max(1e-12)
}

/// One `experiments` row. `cycles` are the leg's simulated cycles on
/// `cores` processors; `occupancy` is the merged L2 MSHR histogram,
/// recorded on the event leg only. Its raw `cycles` field aggregates
/// samples across every processor (`cores × (wall cycles + 1)`), so
/// `cycles_per_core` carries the per-processor sample count alongside.
fn experiment_row(
    name: &str,
    mode: &str,
    cycles: u64,
    cores: usize,
    secs: f64,
    occupancy: Option<&MshrOccupancy>,
) -> String {
    let occupancy = occupancy.map_or(String::new(), |o| {
        let join = |h: &[u64]| h.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
        format!(
            ", \"mshr_occupancy\": {{\"cores\": {cores}, \"cycles_per_core\": {}, \"capacity\": {}, \"cycles\": {}, \"mean_read_occupancy\": {:.6}, \"read_hist\": [{}], \"total_hist\": [{}]}}",
            o.cycles() / cores.max(1) as u64,
            o.capacity(),
            o.cycles(),
            o.mean_read_occupancy(),
            join(o.read_histogram()),
            join(o.total_histogram())
        )
    });
    format!(
        "{{\"experiment\": \"{name}\", \"mode\": \"{mode}\", \"cycles\": {cycles}, \"cores\": {cores}, \"wall_seconds\": {secs:.6}, \"cycles_per_sec\": {:.1}{occupancy}}}",
        per_sec(cycles, secs)
    )
}

/// One `speedups` row from an experiment's `(cycles, seconds)` per leg
/// in `LEGS` order: event-driver throughput over the strict stepper's
/// and over the tree-walking engine's (the directory legs simulate the
/// same cycles, so that is a wall-time ratio), and what each snooping
/// machine costs relative to the directory baseline in simulated cycles
/// (not host throughput).
fn speedups_row(name: &str, legs: &[(u64, f64); 6]) -> String {
    let [strict, event, tree, mesi, moesi, dragon] = *legs;
    let cycles_vs = |leg: (u64, f64)| leg.0 as f64 / event.0.max(1) as f64;
    format!(
        "{{\"experiment\": \"{name}\", \"event_vs_strict\": {:.2}, \"engine_speedup\": {:.2}, \"mesi_cycles_vs_directory\": {:.3}, \"moesi_cycles_vs_directory\": {:.3}, \"dragon_cycles_vs_directory\": {:.3}}}",
        ratio(strict.1, event.1),
        ratio(tree.1, event.1),
        cycles_vs(mesi),
        cycles_vs(moesi),
        cycles_vs(dragon)
    )
}

/// One `frontend` row: `ops` dynamic ops drained by each engine with no
/// timing model attached, in host seconds per drain.
fn frontend_row(name: &str, ops: u64, interp_seconds: f64, bytecode_seconds: f64) -> String {
    format!(
        "{{\"experiment\": \"{name}\", \"ops\": {ops}, \"interp_ns_per_op\": {:.2}, \"bytecode_ns_per_op\": {:.2}, \"frontend_speedup\": {:.2}}}",
        interp_seconds * 1e9 / ops.max(1) as f64,
        bytecode_seconds * 1e9 / ops.max(1) as f64,
        ratio(interp_seconds, bytecode_seconds)
    )
}

/// One `locality` row: the reuse pre-pass `report` and the host seconds
/// of a plain drain and of the pre-pass over the same op stream.
fn locality_row(name: &str, report: &ReuseReport, drain: f64, prepass: f64) -> String {
    let accesses = report.accesses.max(1) as f64;
    format!(
        "{{\"experiment\": \"{name}\", \"accesses\": {}, \"sampling_rate\": {:.6}, \"sampled\": {}, \"drain_ns_per_access\": {:.2}, \"prepass_ns_per_access\": {:.2}, \"prepass_overhead\": {:.2}}}",
        report.accesses,
        report.sampling_rate,
        report.sampled,
        drain * 1e9 / accesses,
        prepass * 1e9 / accesses,
        ratio(prepass, drain)
    )
}

/// One `tune` row: a finished tune `report` and the host seconds the
/// whole search took.
fn tune_row(name: &str, report: &TuneReport, secs: f64) -> String {
    format!(
        "{{\"experiment\": \"{name}\", \"base_cycles\": {}, \"default_cycles\": {}, \"tuned_cycles\": {}, \"winner\": \"{}\", \"tuned_vs_default\": {:.3}, \"tuned_vs_base\": {:.3}, \"enumerated\": {}, \"scored\": {}, \"wall_seconds\": {secs:.6}}}",
        report.base_cycles,
        report.default_cycles,
        report.tuned_cycles,
        report.winner,
        report.tuned_vs_default(),
        report.tuned_vs_base(),
        report.stats.enumerated,
        report.stats.scored
    )
}

/// The `BENCH_sim.json` document: the scale, then one array per
/// section, one row per line. Hand-rolled JSON: the offline build has
/// no serde.
fn document(scale: f64, sections: [(&str, Vec<String>); 5]) -> String {
    let mut s = format!("{{\n  \"scale\": {scale}");
    for (key, rows) in sections {
        let rows: Vec<String> = rows.iter().map(|r| format!("    {r}")).collect();
        s.push_str(&format!(",\n  \"{key}\": [\n{}\n  ]", rows.join(",\n")));
    }
    s.push_str("\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_format_into_a_valid_document() {
        // Two cores' worth of aggregated samples: the occupancy object
        // must carry the explicit core count and the per-core
        // normalization.
        let mut occ = MshrOccupancy::new(2);
        occ.sample(1, 2);
        occ.sample(1, 1);
        let runs = vec![
            experiment_row("fft-mp", "strict-cycle", 1000, 2, 1.0, None),
            experiment_row("fft-mp", "event", 1000, 2, 0.5, Some(&occ)),
        ];
        assert!(runs[1].contains(
            "\"mshr_occupancy\": {\"cores\": 2, \"cycles_per_core\": 1, \"capacity\": 2, \"cycles\": 2, \"mean_read_occupancy\": 1.000000, \"read_hist\": [0, 2, 0], \"total_hist\": [0, 1, 1]}"
        ));
        assert!(runs[0].contains("\"wall_seconds\": 1.000000, \"cycles_per_sec\": 1000.0}"));
        let legs = [
            (1000, 1.0),
            (1000, 0.5),
            (1000, 0.75),
            (1100, 0.5),
            (1000, 0.5),
            (4000, 0.5),
        ];
        let speedup = speedups_row("fft-mp", &legs);
        assert_eq!(
            speedup,
            "{\"experiment\": \"fft-mp\", \"event_vs_strict\": 2.00, \"engine_speedup\": 1.50, \"mesi_cycles_vs_directory\": 1.100, \"moesi_cycles_vs_directory\": 1.000, \"dragon_cycles_vs_directory\": 4.000}"
        );
        let frontend = frontend_row("fft-mp", 10_000_000, 0.3, 0.2);
        assert!(frontend.contains(
            "\"ops\": 10000000, \"interp_ns_per_op\": 30.00, \"bytecode_ns_per_op\": 20.00, \"frontend_speedup\": 1.50}"
        ));
        let reuse = ReuseReport {
            sampling_rate: 0.125,
            accesses: 8_000,
            sampled: 1_000,
            evictions: 0,
            levels: Vec::new(),
            arrays: Vec::new(),
        };
        let locality = locality_row("fft-mp", &reuse, 0.10, 0.15);
        assert!(locality.contains(
            "\"accesses\": 8000, \"sampling_rate\": 0.125000, \"sampled\": 1000, \"drain_ns_per_access\": 12500.00, \"prepass_ns_per_access\": 18750.00, \"prepass_overhead\": 1.50}"
        ));
        let report = TuneReport {
            name: "fft".into(),
            config: "base-sim-2p".into(),
            opts: String::new(),
            base_cycles: 1200,
            default_cycles: 1000,
            tuned_cycles: 800,
            winner: "search".into(),
            nests: Vec::new(),
            stats: mempar_tune::SearchStats {
                enumerated: 40,
                scored: 16,
                ..Default::default()
            },
            candidates: Vec::new(),
            oracle_failures: Vec::new(),
        };
        let tune = tune_row("fft-mp", &report, 0.75);
        assert_eq!(
            tune,
            "{\"experiment\": \"fft-mp\", \"base_cycles\": 1200, \"default_cycles\": 1000, \"tuned_cycles\": 800, \"winner\": \"search\", \"tuned_vs_default\": 1.250, \"tuned_vs_base\": 1.500, \"enumerated\": 40, \"scored\": 16, \"wall_seconds\": 0.750000}"
        );

        let json = document(
            0.1,
            [
                ("experiments", runs.clone()),
                ("speedups", vec![speedup]),
                ("frontend", vec![frontend]),
                ("locality", vec![locality]),
                ("tune", vec![tune]),
            ],
        );
        assert!(json.starts_with("{\n  \"scale\": 0.1,\n  \"experiments\": [\n    {"));
        assert!(json.ends_with("}\n  ]\n}\n"));
        mempar_obs::validate_json(&json).expect("BENCH_sim.json must stay valid JSON");

        // Empty optional arrays must still serialize as valid JSON.
        let json = document(
            0.1,
            [
                ("experiments", runs),
                ("speedups", Vec::new()),
                ("frontend", Vec::new()),
                ("locality", Vec::new()),
                ("tune", Vec::new()),
            ],
        );
        mempar_obs::validate_json(&json).expect("row-less arrays must stay valid JSON");
    }
}
