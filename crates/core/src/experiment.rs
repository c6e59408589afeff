//! The experiment runner: base vs clustered on a configured machine —
//! the loop behind every table and figure regeneration. Tracing and
//! measured locality are options of the one pipeline ([`PairOptions`]),
//! not separate copies of it.

use mempar_analysis::{Locality, MachineSummary, MissProfile};
use mempar_ir::Program;
use mempar_obs::{
    locality_delta, profile_misses, DeltaReport, RefProfile, ReuseConfig, ReuseReport,
};
use mempar_sim::{
    run_program_observed, run_program_with, MachineConfig, SimObservation, SimOptions, SimResult,
    Tracer,
};
use mempar_transform::{cluster_program, ClusterReport};
use mempar_workloads::Workload;

use crate::profile::{measure_locality, profile_miss_rates, sim_reuse_profiler};

/// Default trace ring capacity for observed runs: large enough to hold
/// every event of the harness's scaled-down workloads; bigger runs keep
/// the most recent million events (the exporter reports the drop count).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

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
    let (profile, _) = locality_profile(w, cfg, Locality::Analytic);
    let mut clustered = w.program.clone();
    let report = cluster_program(&mut clustered, &machine_summary(cfg), &profile);
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

/// How [`run_pair_with`] runs the pair: the simulator's driver options,
/// the locality model feeding the transformation driver, and whether to
/// observe both timed runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct PairOptions {
    /// Driver options for both timed runs (engine, stepper, protocol).
    pub sim: SimOptions,
    /// `Analytic` profiles `P_m` by cache simulation; `Measured` clusters
    /// with the sampled reuse profile and returns calibration artifacts.
    pub locality: Locality,
    /// Trace ring capacity: `Some` records trace events, a metrics
    /// snapshot and the per-reference clustering profile of both runs
    /// (plus the in-sim reuse tap under measured locality). Results stay
    /// bit-identical to an untraced pair's.
    pub trace: Option<usize>,
}

/// One observed run of one program variant.
#[derive(Debug)]
pub struct ObservedRun {
    /// `<workload>/<variant>` (e.g. `latbench/clustered`).
    pub name: String,
    /// Trace events, metrics snapshot and export parameters.
    pub obs: SimObservation,
    /// Per-leading-reference clustering profile.
    pub profile: RefProfile,
}

/// Everything one [`run_pair_with`] call produces.
#[derive(Debug)]
pub struct PairOutcome {
    /// The timing comparison.
    pub pair: RunPair,
    /// Calibration artifacts (measured locality only).
    pub locality: Option<LocalityArtifacts>,
    /// Base and clustered observed runs (only when tracing).
    pub observed: Option<[ObservedRun; 2]>,
}

/// Runs `w` untransformed and clustered on `cfg` and compares, under
/// default options.
pub fn run_pair(w: &Workload, cfg: &MachineConfig) -> RunPair {
    run_pair_with(w, cfg, PairOptions::default()).pair
}

/// The pair experiment: profiles the workload under `opts.locality`,
/// clusters it, then runs base and clustered on `cfg` concurrently —
/// each on its own memory image under the topology's home policy, traced
/// when `opts.trace` asks. Each simulation is fully deterministic, so
/// the concurrency changes wall-clock time only, never results.
pub fn run_pair_with(w: &Workload, cfg: &MachineConfig, opts: PairOptions) -> PairOutcome {
    let (profile, locality) = match opts.locality {
        Locality::Analytic => (locality_profile(w, cfg, Locality::Analytic).0, None),
        Locality::Measured => {
            let (profile, artifacts) = calibrate_locality(w, cfg);
            (profile, Some(artifacts))
        }
    };
    let msum = machine_summary(cfg);
    let mut clustered_prog = w.program.clone();
    let report = cluster_program(&mut clustered_prog, &msum, &profile);

    let policy = cfg.home_policy();
    let run = |prog: &Program, variant: &str| {
        let mut mem = w.memory_with_policy(cfg.nprocs, policy);
        let Some(capacity) = opts.trace else {
            return (run_program_with(prog, &mut mem, cfg, opts.sim), None, mem);
        };
        let reuse = (opts.locality == Locality::Measured)
            .then(|| sim_reuse_profiler(prog, cfg, ReuseConfig::default()));
        let (result, obs) = run_program_observed(
            prog,
            &mut mem,
            cfg,
            opts.sim,
            Tracer::with_capacity(capacity),
            reuse,
        );
        let observed = ObservedRun {
            name: format!("{}/{variant}", w.name),
            profile: profile_misses(prog, &mem, &msum, &profile, &obs.trace, obs.line_shift),
            obs,
        };
        (result, Some(observed), mem)
    };
    let ((base, base_obs, base_mem), (clustered, clust_obs, clust_mem)) = rayon::join(
        || run(&w.program, "base"),
        || run(&clustered_prog, "clustered"),
    );

    let outputs_match = w.read_outputs(&base_mem) == w.read_outputs(&clust_mem);
    PairOutcome {
        pair: RunPair {
            name: w.name.clone(),
            config: cfg.name.clone(),
            base,
            clustered,
            report,
            outputs_match,
            profile,
        },
        locality,
        observed: base_obs.zip(clust_obs).map(|(b, c)| [b, c]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempar_workloads::{latbench, LatbenchParams};

    fn small_latbench() -> Workload {
        latbench(LatbenchParams {
            chains: 16,
            chain_len: 64,
            pool: 1 << 15,
            seed: 3,
        })
    }

    #[test]
    fn latbench_pair_speeds_up_and_matches() {
        let w = small_latbench();
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
        let w = small_latbench();
        let cfg = MachineConfig::base_simulated(1, w.l2_bytes);
        let opts = PairOptions {
            locality: Locality::Measured,
            ..PairOptions::default()
        };
        let out = run_pair_with(&w, &cfg, opts);
        let artifacts = out.locality.expect("measured mode returns artifacts");
        assert!(out.pair.outputs_match, "clustering must preserve results");
        assert!(out.pair.profile.has_measured());
        assert!(!artifacts.report.arrays.is_empty(), "arrays were observed");
        assert!(!artifacts.delta.rows.is_empty(), "delta table has rows");
        assert!(out.observed.is_none(), "untraced pairs observe nothing");
    }

    #[test]
    fn observed_pair_traces_and_profiles() {
        let w = small_latbench();
        let cfg = MachineConfig::base_simulated(1, w.l2_bytes);
        let opts = PairOptions {
            trace: Some(1 << 16),
            ..PairOptions::default()
        };
        let [base, clustered] = run_pair_with(&w, &cfg, opts)
            .observed
            .expect("traced pairs observe both runs");
        assert!(!base.obs.trace.is_empty(), "base run must trace");
        assert!(base.profile.total_misses() > 0);
        assert!(clustered.profile.total_misses() > 0);
        // The headline: clustering raises the achieved mean overlap.
        let b = base.profile.overall_mean_overlap();
        let c = clustered.profile.overall_mean_overlap();
        assert!(c > b, "clustered overlap {c:.2} must beat base {b:.2}");
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
