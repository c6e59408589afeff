//! The experiment runner: base vs clustered on a configured machine —
//! the loop behind every table and figure regeneration.

use mempar_analysis::{Locality, MachineSummary, MissProfile};
use mempar_ir::{HomePolicy, Program};
use mempar_obs::{locality_delta, DeltaReport, ReuseConfig, ReuseReport};
use mempar_sim::{run_program_with, MachineConfig, SimOptions, SimResult, Topology};
use mempar_transform::{cluster_program, ClusterReport};
use mempar_workloads::Workload;

use crate::profile::{measure_locality, profile_miss_rates};

/// Distills the full machine configuration into the parameters the
/// analysis framework uses (Section 3.2.2's `W`, `lp`, line size).
pub fn machine_summary(cfg: &MachineConfig) -> MachineSummary {
    MachineSummary {
        window: cfg.proc.window,
        procs: cfg.nprocs,
        mshrs: cfg.l2.mshrs,
        line_bytes: cfg.l2.line_bytes,
        max_unroll: 16,
    }
}

/// Produces the clustered variant of a workload's program by profiling
/// miss rates and running the transformation driver — the mechanical
/// equivalent of the paper's hand-applied transformations.
pub fn cluster_workload(w: &Workload, cfg: &MachineConfig) -> (Program, ClusterReport) {
    let (clustered, report, _, _) = cluster_workload_locality(w, cfg, Locality::Analytic);
    (clustered, report)
}

/// Builds the miss profile the transformation driver consumes, under the
/// given locality mode: `analytic` measures irregular `P_m` by exact
/// cache simulation and leaves regular references to the paper's static
/// model; `measured` instead derives every array's miss probability from
/// the sampled reuse-distance profiler (returning its report).
pub fn locality_profile(
    w: &Workload,
    cfg: &MachineConfig,
    locality: Locality,
) -> (MissProfile, Option<ReuseReport>) {
    let mut profile_mem = w.memory(1);
    match locality {
        Locality::Analytic => (
            profile_miss_rates(&w.program, &mut profile_mem, &cfg.l2),
            None,
        ),
        Locality::Measured => {
            let (profile, report) =
                measure_locality(&w.program, &mut profile_mem, cfg, ReuseConfig::default());
            (profile, Some(report))
        }
    }
}

/// [`cluster_workload`] under an explicit locality mode, also handing
/// back the profile used and (in measured mode) the reuse report.
pub fn cluster_workload_locality(
    w: &Workload,
    cfg: &MachineConfig,
    locality: Locality,
) -> (Program, ClusterReport, MissProfile, Option<ReuseReport>) {
    let (profile, reuse) = locality_profile(w, cfg, locality);
    let mut clustered = w.program.clone();
    let report = cluster_program(&mut clustered, &machine_summary(cfg), &profile);
    (clustered, report, profile, reuse)
}

/// Results of one base-vs-clustered comparison.
#[derive(Debug)]
pub struct RunPair {
    /// Workload name.
    pub name: String,
    /// Machine configuration name.
    pub config: String,
    /// The untransformed run.
    pub base: SimResult,
    /// The clustered run.
    pub clustered: SimResult,
    /// What the transformation driver did.
    pub report: ClusterReport,
    /// Whether base and clustered runs produced identical outputs.
    pub outputs_match: bool,
    /// The miss profile used for `P_m`.
    pub profile: MissProfile,
}

impl RunPair {
    /// Percent execution-time reduction (Table 3's metric).
    pub fn percent_reduction(&self) -> f64 {
        let b = self.base.mean_breakdown();
        self.clustered.mean_breakdown().percent_reduction_from(&b)
    }
}

/// Runs `w` untransformed and clustered on `cfg` and compares.
///
/// The NUMA home policy follows the topology: block placement for
/// CC-NUMA (the SPLASH convention), centralized for bus-based SMPs.
pub fn run_pair(w: &Workload, cfg: &MachineConfig) -> RunPair {
    run_pair_with(w, cfg, SimOptions::default())
}

/// The measured-locality artifacts a `--locality measured` run carries
/// alongside the timing pair: the reuse report the transform profile was
/// built from, and the predicted-vs-measured calibration table over the
/// base program's innermost nests.
#[derive(Debug)]
pub struct LocalityArtifacts {
    /// Sampled reuse-distance measurements, per array.
    pub report: ReuseReport,
    /// Predicted-vs-measured `L_m`/`P_m`/`f` deltas.
    pub delta: DeltaReport,
}

/// The measured-locality pre-pass alone: runs both the analytic `P_m`
/// profiling and the sampled reuse profiler on scratch memory images,
/// returning the measured [`MissProfile`] (what the transform driver
/// consumes in measured mode) plus the calibration artifacts. No timed
/// simulation happens here.
pub fn calibrate_locality(w: &Workload, cfg: &MachineConfig) -> (MissProfile, LocalityArtifacts) {
    let mut analytic_mem = w.memory(1);
    let analytic = profile_miss_rates(&w.program, &mut analytic_mem, &cfg.l2);
    let mut reuse_mem = w.memory(1);
    let (measured, report) =
        measure_locality(&w.program, &mut reuse_mem, cfg, ReuseConfig::default());
    let delta = locality_delta(
        &w.program,
        &machine_summary(cfg),
        &analytic,
        &measured,
        &report,
    );
    (measured, LocalityArtifacts { report, delta })
}

/// [`run_pair_with`] under an explicit locality mode. Analytic mode is
/// byte-for-byte the plain path (no profiler anywhere near the run);
/// measured mode feeds the sampled reuse profile into the transformation
/// driver and returns the calibration artifacts.
pub fn run_pair_locality(
    w: &Workload,
    cfg: &MachineConfig,
    opts: SimOptions,
    locality: Locality,
) -> (RunPair, Option<LocalityArtifacts>) {
    if locality == Locality::Analytic {
        return (run_pair_with(w, cfg, opts), None);
    }
    let policy = match cfg.topology {
        Topology::Numa => HomePolicy::BlockPerArray,
        Topology::SmpBus => HomePolicy::Centralized,
    };
    let (measured, artifacts) = calibrate_locality(w, cfg);
    let mut clustered_prog = w.program.clone();
    let cluster_report = cluster_program(&mut clustered_prog, &machine_summary(cfg), &measured);

    let mut base_mem = w.memory_with_policy(cfg.nprocs, policy);
    let mut clust_mem = w.memory_with_policy(cfg.nprocs, policy);
    let (base, clustered) = rayon::join(
        || run_program_with(&w.program, &mut base_mem, cfg, opts),
        || run_program_with(&clustered_prog, &mut clust_mem, cfg, opts),
    );

    let outputs_match = w.read_outputs(&base_mem) == w.read_outputs(&clust_mem);
    let pair = RunPair {
        name: w.name.clone(),
        config: cfg.name.clone(),
        base,
        clustered,
        report: cluster_report,
        outputs_match,
        profile: measured,
    };
    (pair, Some(artifacts))
}

/// [`run_pair`] with explicit driver options (engine selection,
/// stepper — see [`SimOptions`]).
pub fn run_pair_with(w: &Workload, cfg: &MachineConfig, opts: SimOptions) -> RunPair {
    let policy = match cfg.topology {
        Topology::Numa => HomePolicy::BlockPerArray,
        Topology::SmpBus => HomePolicy::Centralized,
    };
    let mut profile_mem = w.memory(1);
    let profile = profile_miss_rates(&w.program, &mut profile_mem, &cfg.l2);
    let mut clustered_prog = w.program.clone();
    let report = cluster_program(&mut clustered_prog, &machine_summary(cfg), &profile);

    // The two timed runs are independent — run them concurrently. Each
    // simulation is fully deterministic, so the join changes wall-clock
    // time only, never results.
    let mut base_mem = w.memory_with_policy(cfg.nprocs, policy);
    let mut clust_mem = w.memory_with_policy(cfg.nprocs, policy);
    let (base, clustered) = rayon::join(
        || run_program_with(&w.program, &mut base_mem, cfg, opts),
        || run_program_with(&clustered_prog, &mut clust_mem, cfg, opts),
    );

    let outputs_match = w.read_outputs(&base_mem) == w.read_outputs(&clust_mem);
    RunPair {
        name: w.name.clone(),
        config: cfg.name.clone(),
        base,
        clustered,
        report,
        outputs_match,
        profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempar_workloads::{latbench, LatbenchParams};

    #[test]
    fn latbench_pair_speeds_up_and_matches() {
        let w = latbench(LatbenchParams {
            chains: 16,
            chain_len: 64,
            pool: 1 << 15,
            seed: 3,
        });
        let cfg = MachineConfig::base_simulated(1, w.l2_bytes);
        let pair = run_pair(&w, &cfg);
        assert!(pair.outputs_match, "clustering must preserve results");
        assert!(
            pair.report.decisions.iter().any(|d| d.uaj_degree > 1),
            "{}",
            pair.report.summary()
        );
        assert!(
            pair.percent_reduction() > 30.0,
            "chase overlap should be large: {:.1}% ({} -> {} cycles)",
            pair.percent_reduction(),
            pair.base.cycles,
            pair.clustered.cycles
        );
        // Read-miss stall per miss drops sharply (the Latbench headline).
        let base_stall = pair.base.avg_read_miss_stall_ns();
        let clust_stall = pair.clustered.avg_read_miss_stall_ns();
        assert!(
            clust_stall * 2.0 < base_stall,
            "stall/miss: {base_stall:.0} ns -> {clust_stall:.0} ns"
        );
    }

    #[test]
    fn measured_locality_pair_calibrates() {
        let w = latbench(LatbenchParams {
            chains: 16,
            chain_len: 64,
            pool: 1 << 15,
            seed: 3,
        });
        let cfg = MachineConfig::base_simulated(1, w.l2_bytes);
        let (pair, artifacts) =
            run_pair_locality(&w, &cfg, SimOptions::default(), Locality::Measured);
        let artifacts = artifacts.expect("measured mode returns artifacts");
        assert!(pair.outputs_match, "clustering must preserve results");
        assert!(pair.profile.has_measured());
        assert!(!artifacts.report.arrays.is_empty(), "arrays were observed");
        assert!(!artifacts.delta.rows.is_empty(), "delta table has rows");
        // Analytic mode stays the plain path: no artifacts, same cycles.
        let (plain, none) = run_pair_locality(&w, &cfg, SimOptions::default(), Locality::Analytic);
        assert!(none.is_none());
        assert_eq!(plain.base.cycles, run_pair(&w, &cfg).base.cycles);
    }

    #[test]
    fn machine_summary_distills() {
        let cfg = MachineConfig::base_simulated(4, 64 * 1024);
        let m = machine_summary(&cfg);
        assert_eq!(m.window, 64);
        assert_eq!(m.mshrs, 10);
        assert_eq!(m.line_bytes, 64);
    }
}
