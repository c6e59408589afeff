//! Observed experiment runs: the same base-vs-clustered comparison as
//! [`run_pair`](crate::run_pair), but with the observability layer on —
//! structured trace events, a metrics snapshot, and the miss-clustering
//! profile joining each run's trace against the analysis framework's
//! leading references.

use mempar_analysis::{Locality, MissProfile};
use mempar_ir::{HomePolicy, Program};
use mempar_obs::{profile_misses, RefProfile, ReuseConfig};
use mempar_sim::{
    run_program_observed, run_program_observed_reuse, MachineConfig, SimObservation, SimOptions,
    SimResult, Topology, Tracer,
};
use mempar_transform::{cluster_program, ClusterReport};
use mempar_workloads::Workload;

use crate::experiment::{machine_summary, LocalityArtifacts};
use crate::profile::{profile_miss_rates, sim_reuse_profiler};

/// Default trace ring capacity for observed runs: large enough to hold
/// every event of the harness's scaled-down workloads; bigger runs keep
/// the most recent million events (the exporter reports the drop count).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// One observed run of one program variant.
#[derive(Debug)]
pub struct ObservedRun {
    /// `<workload>/<variant>` (e.g. `latbench/clustered`).
    pub name: String,
    /// The timing result — bit-identical to an untraced run's.
    pub result: SimResult,
    /// Trace events, metrics snapshot and export parameters.
    pub obs: SimObservation,
    /// Per-leading-reference clustering profile.
    pub profile: RefProfile,
}

/// Base and clustered observed runs of one workload.
#[derive(Debug)]
pub struct ObservedPair {
    /// The untransformed program's run.
    pub base: ObservedRun,
    /// The clustered program's run.
    pub clustered: ObservedRun,
    /// What the transformation driver did.
    pub report: ClusterReport,
}

/// Runs `w` untransformed and clustered on `cfg` with tracing enabled,
/// returning both observed runs. Mirrors [`run_pair`](crate::run_pair)'s
/// setup (same miss profile, machine summary and home policy) so the
/// profiler's predictions match the transformation driver's decisions.
pub fn observe_pair(w: &Workload, cfg: &MachineConfig, trace_capacity: usize) -> ObservedPair {
    observe_pair_with(w, cfg, trace_capacity, SimOptions::default())
}

/// [`observe_pair`] with explicit driver options (engine selection,
/// stepper — see [`SimOptions`]).
pub fn observe_pair_with(
    w: &Workload,
    cfg: &MachineConfig,
    trace_capacity: usize,
    opts: SimOptions,
) -> ObservedPair {
    let policy = match cfg.topology {
        Topology::Numa => HomePolicy::BlockPerArray,
        Topology::SmpBus => HomePolicy::Centralized,
    };
    let mut profile_mem = w.memory(1);
    let miss_profile = profile_miss_rates(&w.program, &mut profile_mem, &cfg.l2);
    let msum = machine_summary(cfg);
    let mut clustered_prog = w.program.clone();
    let report = cluster_program(&mut clustered_prog, &msum, &miss_profile);

    let observe = |prog: &Program, variant: &str| -> ObservedRun {
        let mut mem = w.memory_with_policy(cfg.nprocs, policy);
        let (result, obs) = run_program_observed(
            prog,
            &mut mem,
            cfg,
            opts,
            Tracer::with_capacity(trace_capacity),
        );
        let profile = profile_misses(prog, &mem, &msum, &miss_profile, &obs.trace, obs.line_shift);
        ObservedRun {
            name: format!("{}/{variant}", w.name),
            result,
            obs,
            profile,
        }
    };
    ObservedPair {
        base: observe(&w.program, "base"),
        clustered: observe(&clustered_prog, "clustered"),
        report,
    }
}

/// [`observe_pair_with`] under an explicit locality mode. Analytic mode
/// is exactly the plain observed path. Measured mode clusters with the
/// sampled reuse profile, taps both timed runs' op streams with an
/// in-simulation [`mempar_obs::ReuseProfiler`] (surfacing `sim.reuse.*`
/// metrics and the Perfetto counter track), and returns the
/// predicted-vs-measured calibration artifacts.
pub fn observe_pair_locality(
    w: &Workload,
    cfg: &MachineConfig,
    trace_capacity: usize,
    opts: SimOptions,
    locality: Locality,
) -> (ObservedPair, Option<LocalityArtifacts>) {
    if locality == Locality::Analytic {
        return (observe_pair_with(w, cfg, trace_capacity, opts), None);
    }
    let policy = match cfg.topology {
        Topology::Numa => HomePolicy::BlockPerArray,
        Topology::SmpBus => HomePolicy::Centralized,
    };
    let (measured, artifacts) = crate::experiment::calibrate_locality(w, cfg);
    let msum = machine_summary(cfg);
    let mut clustered_prog = w.program.clone();
    let cluster_report = cluster_program(&mut clustered_prog, &msum, &measured);

    let observe = |prog: &Program, variant: &str| -> ObservedRun {
        let mut mem = w.memory_with_policy(cfg.nprocs, policy);
        let (result, obs, _) = run_program_observed_reuse(
            prog,
            &mut mem,
            cfg,
            opts,
            Tracer::with_capacity(trace_capacity),
            sim_reuse_profiler(prog, cfg, ReuseConfig::default()),
        );
        let profile = profile_misses(prog, &mem, &msum, &measured, &obs.trace, obs.line_shift);
        ObservedRun {
            name: format!("{}/{variant}", w.name),
            result,
            obs,
            profile,
        }
    };
    let pair = ObservedPair {
        base: observe(&w.program, "base"),
        clustered: observe(&clustered_prog, "clustered"),
        report: cluster_report,
    };
    (pair, Some(artifacts))
}

/// Observes a single already-built program (no transformation step):
/// the building block behind `--profile-refs` on catalog binaries.
pub fn observe_program(
    name: &str,
    prog: &Program,
    w: &Workload,
    cfg: &MachineConfig,
    miss_profile: &MissProfile,
    trace_capacity: usize,
) -> ObservedRun {
    observe_program_with(
        name,
        prog,
        w,
        cfg,
        miss_profile,
        trace_capacity,
        SimOptions::default(),
    )
}

/// [`observe_program`] with explicit driver options (engine selection,
/// stepper — see [`SimOptions`]).
#[allow(clippy::too_many_arguments)]
pub fn observe_program_with(
    name: &str,
    prog: &Program,
    w: &Workload,
    cfg: &MachineConfig,
    miss_profile: &MissProfile,
    trace_capacity: usize,
    opts: SimOptions,
) -> ObservedRun {
    let policy = match cfg.topology {
        Topology::Numa => HomePolicy::BlockPerArray,
        Topology::SmpBus => HomePolicy::Centralized,
    };
    let msum = machine_summary(cfg);
    let mut mem = w.memory_with_policy(cfg.nprocs, policy);
    let (result, obs) = run_program_observed(
        prog,
        &mut mem,
        cfg,
        opts,
        Tracer::with_capacity(trace_capacity),
    );
    let profile = profile_misses(prog, &mem, &msum, miss_profile, &obs.trace, obs.line_shift);
    ObservedRun {
        name: name.to_string(),
        result,
        obs,
        profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempar_workloads::{latbench, LatbenchParams};

    #[test]
    fn observed_pair_traces_and_profiles() {
        let w = latbench(LatbenchParams {
            chains: 16,
            chain_len: 64,
            pool: 1 << 15,
            seed: 3,
        });
        let cfg = MachineConfig::base_simulated(1, w.l2_bytes);
        let pair = observe_pair(&w, &cfg, 1 << 16);
        assert!(!pair.base.obs.trace.is_empty(), "base run must trace");
        assert!(pair.base.profile.total_misses() > 0);
        assert!(pair.clustered.profile.total_misses() > 0);
        // The headline: clustering raises the achieved mean overlap.
        let b = pair.base.profile.overall_mean_overlap();
        let c = pair.clustered.profile.overall_mean_overlap();
        assert!(c > b, "clustered overlap {c:.2} must beat base {b:.2}");
        // And the observed results match the untraced experiment path.
        let untraced = crate::run_pair(&w, &cfg);
        assert_eq!(pair.base.result.cycles, untraced.base.cycles);
        assert_eq!(pair.clustered.result.cycles, untraced.clustered.cycles);
    }
}
