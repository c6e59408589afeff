//! Observability gates: tracing must be invisible in the simulation
//! results (bit-identical `SimResult` with the tracer on or off, in both
//! driver modes, and a bit-identical `RunPair` from a traced pair
//! experiment), the Chrome trace_event export must stay well-formed
//! JSON, and one pinned tiny Latbench configuration is held to a golden
//! Perfetto snapshot so the export format cannot drift silently.
//!
//! Regenerate the golden file after an intentional format change with
//!
//! ```text
//! MEMPAR_BLESS=1 cargo test --test obs_trace golden
//! ```

use mempar::{
    chrome_trace_json, run_pair_with, validate_json, ChromeRun, Locality, MachineConfig,
    PairOptions,
};
use mempar_sim::{
    run_program_observed, run_program_with, SimObservation, SimOptions, Stepper, Tracer,
};
use mempar_workloads::{latbench, App, LatbenchParams, Workload};

/// The pinned configuration behind the golden snapshot. Do not change
/// these numbers without re-blessing the snapshot.
fn pinned_latbench() -> Workload {
    latbench(LatbenchParams {
        chains: 4,
        chain_len: 16,
        pool: 1 << 10,
        seed: 42,
    })
}

fn observed_run(w: &Workload, stepper: Stepper) -> (String, SimObservation) {
    let cfg = MachineConfig::base_simulated(1, w.l2_bytes);
    let mut mem = w.memory(1);
    let (r, obs) = run_program_observed(
        &w.program,
        &mut mem,
        &cfg,
        SimOptions {
            stepper,
            ..SimOptions::default()
        },
        Tracer::with_capacity(1 << 16),
        None,
    );
    (format!("{r:?}"), obs)
}

/// Tracing enabled vs disabled, crossed with the two clock drivers:
/// all four `SimResult`s must be bit-identical (compared through `Debug`,
/// which prints floats at shortest-roundtrip precision).
#[test]
fn tracing_is_invisible_in_results() {
    for app in [App::Latbench, App::Erlebacher] {
        let w = app.build(0.03);
        let cfg = MachineConfig::base_simulated(1, w.l2_bytes);
        let mut results = Vec::new();
        for stepper in [Stepper::Strict, Stepper::Event] {
            let mut mem = w.memory(1);
            let untraced = run_program_with(
                &w.program,
                &mut mem,
                &cfg,
                SimOptions {
                    stepper,
                    ..SimOptions::default()
                },
            );
            results.push(format!("{untraced:?}"));
            let (traced, obs) = observed_run(&w, stepper);
            assert!(
                !obs.trace.is_empty(),
                "{}: tracer saw no events",
                app.name()
            );
            results.push(traced);
        }
        for r in &results[1..] {
            assert_eq!(
                &results[0],
                r,
                "{}: tracing or driver mode changed the simulation result",
                app.name()
            );
        }
    }
}

/// The pair experiment with tracing on must return the `RunPair` of the
/// untraced pipeline, bit for bit (through `Debug`), under both locality
/// models and on a uniprocessor and a 4-processor machine — in measured
/// mode the in-sim reuse tap rides along with the tracer.
#[test]
fn pair_tracing_is_invisible_in_results() {
    let w = App::Lu.build(0.02);
    for nprocs in [1, 4] {
        let cfg = MachineConfig::base_simulated(nprocs, 32 * 1024);
        for locality in [Locality::Analytic, Locality::Measured] {
            let untraced = PairOptions {
                locality,
                ..PairOptions::default()
            };
            let plain = run_pair_with(&w, &cfg, untraced);
            let traced = run_pair_with(
                &w,
                &cfg,
                PairOptions {
                    trace: Some(1 << 16),
                    ..untraced
                },
            );
            let ctx = format!("{nprocs}p, {locality:?}");
            assert!(plain.observed.is_none(), "{ctx}: untraced pair observed");
            let [base, clustered] = traced.observed.expect("traced pair observes both runs");
            assert!(!base.obs.trace.is_empty(), "{ctx}: no base events");
            assert!(
                !clustered.obs.trace.is_empty(),
                "{ctx}: no clustered events"
            );
            assert_eq!(
                locality == Locality::Measured,
                !base.obs.reuse_samples().is_empty(),
                "{ctx}: the reuse tap rides along exactly in measured mode"
            );
            assert_eq!(
                format!("{:?}", plain.pair),
                format!("{:?}", traced.pair),
                "{ctx}: tracing changed the pair's results"
            );
        }
    }
}

/// The trace itself must not depend on the driver mode: event stepping
/// only compresses idle spans, so every miss/MSHR/stall event must
/// appear at the same cycle in both modes (horizon jumps are scheduler
/// bookkeeping and are filtered out before comparing).
#[test]
fn trace_events_match_across_driver_modes() {
    let w = pinned_latbench();
    let scrub = |obs: &SimObservation| -> Vec<String> {
        obs.trace
            .iter()
            .filter(|e| !format!("{:?}", e.kind).starts_with("HorizonJump"))
            .map(|e| format!("{e:?}"))
            .collect()
    };
    let (_, strict) = observed_run(&w, Stepper::Strict);
    let (_, event) = observed_run(&w, Stepper::Event);
    assert_eq!(
        scrub(&strict),
        scrub(&event),
        "event trace diverges from strict"
    );
}

/// End-to-end profile sanity on a real workload pair: clustering must
/// raise the achieved overlap the profiler reports.
#[test]
fn profiler_reports_clustering_gain() {
    let w = latbench(LatbenchParams {
        chains: 16,
        chain_len: 64,
        pool: 1 << 15,
        seed: 3,
    });
    let cfg = MachineConfig::base_simulated(1, w.l2_bytes);
    let opts = PairOptions {
        trace: Some(1 << 18),
        ..PairOptions::default()
    };
    let [base, clustered] = run_pair_with(&w, &cfg, opts)
        .observed
        .expect("traced pair observes both runs");
    let b = base.profile.overall_mean_overlap();
    let c = clustered.profile.overall_mean_overlap();
    assert!(
        c > b * 1.5,
        "clustered overlap {c:.2} should clearly beat base {b:.2}"
    );
    // The profile's serialization ratio must move the other way.
    let table = clustered.profile.format_table("clustered");
    assert!(
        table.contains("next"),
        "profile must attribute the chase ref"
    );
}

fn golden_trace_json() -> String {
    // Pinned to the event stepper: its HorizonJump spans are part of the
    // blessed snapshot (strict stepping records none).
    let w = pinned_latbench();
    let (_, obs) = observed_run(&w, Stepper::Event);
    assert_eq!(obs.dropped, 0, "pinned config must fit the ring");
    let runs = [ChromeRun {
        name: "latbench/golden",
        pid: 0,
        events: &obs.trace,
        end_cycle: obs.end_cycle,
        reuse: obs.reuse_samples(),
    }];
    chrome_trace_json(&runs, obs.clock_mhz)
}

/// Golden Perfetto snapshot: the exported JSON for the pinned Latbench
/// configuration must match `tests/snapshots/latbench_trace.json` byte
/// for byte. Bless intentional changes with `MEMPAR_BLESS=1`.
#[test]
fn golden_perfetto_snapshot() {
    let json = golden_trace_json();
    validate_json(&json).expect("golden trace must be well-formed JSON");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/snapshots/latbench_trace.json"
    );
    if std::env::var("MEMPAR_BLESS").is_ok() {
        std::fs::write(path, &json).expect("bless golden snapshot");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden snapshot missing — run with MEMPAR_BLESS=1 to create it");
    assert_eq!(
        json, golden,
        "Perfetto export drifted from the golden snapshot; \
         re-bless with MEMPAR_BLESS=1 if the change is intentional"
    );
}
