//! Measured-locality gates: SHARDS sampling must be seed-stable, the
//! fetch-stage reuse tap must never move a simulated cycle, analytic
//! mode must stay byte-identical to the profiler-free seed path, and one
//! pinned Latbench configuration holds a golden predicted-vs-measured
//! snapshot so the calibration format cannot drift silently.
//!
//! Regenerate the golden file after an intentional format change with
//!
//! ```text
//! MEMPAR_BLESS=1 cargo test --test locality golden
//! ```

use mempar::{
    calibrate_locality, run_pair_with, run_program_observed, run_program_with, sim_reuse_profiler,
    Locality, MachineConfig, PairOptions, ReuseConfig, SimOptions,
};
use mempar_sim::Tracer;
use mempar_workloads::{latbench, App, LatbenchParams, Workload};

/// The pinned configuration behind the golden snapshot. Do not change
/// these numbers without re-blessing the snapshot.
fn pinned_latbench() -> Workload {
    latbench(LatbenchParams {
        chains: 8,
        chain_len: 32,
        pool: 1 << 12,
        seed: 7,
    })
}

/// The sampled profiler is deterministic: two calibration passes over
/// the same workload must agree bin for bin, and an explicit seed change
/// must still produce a full report (the hash-based sampling is seeded,
/// not wall-clock driven).
#[test]
fn sampling_is_seed_stable() {
    let w = App::Erlebacher.build(0.05);
    let cfg = MachineConfig::base_simulated(1, 32 * 1024);
    let (p1, a1) = calibrate_locality(&w, &cfg);
    let (p2, a2) = calibrate_locality(&w, &cfg);
    assert_eq!(a1.report, a2.report, "reuse report must be seed-stable");
    assert_eq!(a1.delta, a2.delta, "delta report must be seed-stable");
    assert_eq!(
        format!("{p1:?}"),
        format!("{p2:?}"),
        "measured miss profile must be seed-stable"
    );
    // A different sampling seed monitors a different subset but must
    // still attribute every array.
    let mut mem = w.memory(1);
    let (_, report) = mempar::measure_locality(
        &w.program,
        &mut mem,
        &cfg,
        ReuseConfig {
            seed: 0xDEAD_BEEF,
            ..ReuseConfig::default()
        },
    );
    // Untouched arrays (and an unused "(other)" bucket) are omitted.
    assert!(!report.arrays.is_empty());
    assert!(report.arrays.len() <= w.program.arrays.len() + 1);
    assert!(report.sampled > 0);
}

/// The in-sim fetch-stage tap is pure observation: a run with the
/// profiler attached must report the bit-identical `SimResult` of an
/// untapped run.
#[test]
fn reuse_tap_causes_zero_cycle_drift() {
    for app in [App::Latbench, App::Erlebacher] {
        let w = app.build(0.03);
        let cfg = MachineConfig::base_simulated(1, w.l2_bytes);
        let mut mem = w.memory(1);
        let plain = run_program_with(&w.program, &mut mem, &cfg, SimOptions::default());
        let mut mem = w.memory(1);
        let (tapped, obs) = run_program_observed(
            &w.program,
            &mut mem,
            &cfg,
            SimOptions::default(),
            Tracer::with_capacity(1 << 14),
            Some(sim_reuse_profiler(&w.program, &cfg, ReuseConfig::default())),
        );
        let profiler = obs.reuse.as_ref().expect("tapped run returns its profiler");
        assert_eq!(
            format!("{plain:?}"),
            format!("{tapped:?}"),
            "{}: the reuse tap changed the simulation result",
            app.name()
        );
        assert!(
            profiler.accesses() > 0,
            "{}: tap saw no accesses",
            app.name()
        );
        assert!(
            !obs.reuse_samples().is_empty(),
            "{}: no counter-track samples",
            app.name()
        );
        assert!(
            obs.metrics.counter_value("sim.reuse.accesses").is_some(),
            "{}: sim.reuse.* metrics missing",
            app.name()
        );
    }
}

/// `--locality analytic` (the default) is the profiler-free path: the
/// pipeline returns no calibration artifacts.
#[test]
fn analytic_mode_is_bit_identical_to_seed_path() {
    let w = pinned_latbench();
    let cfg = MachineConfig::base_simulated(1, w.l2_bytes);
    let out = run_pair_with(&w, &cfg, PairOptions::default());
    assert!(out.locality.is_none(), "analytic mode must not calibrate");
    assert!(out.pair.outputs_match);
}

/// Measured mode really runs: it returns calibration artifacts with one
/// delta row per profiled leading reference, and the transformed program
/// still produces matching outputs.
#[test]
fn measured_mode_calibrates_and_matches_outputs() {
    let w = pinned_latbench();
    let cfg = MachineConfig::base_simulated(1, w.l2_bytes);
    let opts = PairOptions {
        locality: Locality::Measured,
        ..PairOptions::default()
    };
    let out = run_pair_with(&w, &cfg, opts);
    assert!(
        out.pair.outputs_match,
        "measured clustering changed outputs"
    );
    let a = out.locality.expect("measured mode must return artifacts");
    assert!(a.report.sampled > 0);
    assert!(!a.delta.rows.is_empty(), "delta table must have rows");
    for r in &a.delta.rows {
        assert!(
            (0.0..=1.0).contains(&r.p_meas),
            "{}: measured P_m {} out of range",
            r.array,
            r.p_meas
        );
        assert!(r.f_meas >= 1.0, "{}: f must stay >= 1", r.array);
    }
}

/// Golden predicted-vs-measured snapshot: the `--reuse-out` JSON body
/// for the pinned Latbench configuration must match
/// `tests/snapshots/latbench_reuse.json` byte for byte. Bless
/// intentional changes with `MEMPAR_BLESS=1`.
#[test]
fn golden_delta_snapshot() {
    let w = pinned_latbench();
    let cfg = MachineConfig::base_simulated(1, w.l2_bytes);
    let (_, a) = calibrate_locality(&w, &cfg);
    let json = format!(
        "{{\n\"workloads\": [\n  {{\"name\": \"latbench\", \"report\": {}, \"delta\": {}}}\n]\n}}\n",
        a.report.to_json(),
        a.delta.to_json()
    );
    mempar::validate_json(&json).expect("reuse export must be well-formed JSON");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/snapshots/latbench_reuse.json"
    );
    if std::env::var("MEMPAR_BLESS").is_ok() {
        std::fs::write(path, &json).expect("bless golden snapshot");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden snapshot missing — run with MEMPAR_BLESS=1 to create it");
    assert_eq!(
        json, golden,
        "measured-locality export drifted from the golden snapshot; \
         re-bless with MEMPAR_BLESS=1 if the change is intentional"
    );
}
