//! One job: a cell run through the pipeline, either with the public
//! entry point users call (`tune_workload`) or composed from an entry
//! point's public parts (`run_pair_with`'s) with a span around each call.
//!
//! Every job runs on the calling thread alone. `run_pair_with` runs its
//! base and clustered simulations side by side under `rayon::join`; on a
//! host with few CPUs that shares them with other work, such a job's time
//! depends on whether a second CPU was free, so the benchmark runs the
//! same calls one after the other instead.

use mempar::{
    locality_profile, machine_summary, profile_miss_rates, Locality, MachineConfig, RunPair,
};
use mempar_ir::{run_parallel_functional_with, run_single_with, Engine, Program, SimMem};
use mempar_sim::{run_program_with, SimOptions};
use mempar_transform::cluster_program;
use mempar_tune::{tune_workload, TuneOptions, TuneReport, Tuner};
use mempar_workloads::Workload;

use crate::cells::home_policy;
use crate::spans::Ctx;

/// Worker threads the tuner fans candidates across. Its winner is the
/// same at any thread count.
const TUNE_THREADS: usize = 1;

/// What a job computed that must repeat exactly on every pass: a change
/// here between passes of the same cell is a failed job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    Pair {
        base_cycles: u64,
        clustered_cycles: u64,
        outputs_match: bool,
    },
    Tune {
        signature: String,
    },
}

impl Outcome {
    pub fn of_pair(pair: &RunPair) -> Outcome {
        Outcome::Pair {
            base_cycles: pair.base.cycles,
            clustered_cycles: pair.clustered.cycles,
            outputs_match: pair.outputs_match,
        }
    }

    pub fn of_tune(report: &TuneReport) -> Outcome {
        Outcome::Tune {
            signature: report.outcome_signature(),
        }
    }
}

/// A fresh tuner, as one `tune` process builds: its score memo starts
/// empty, so repeated passes time the search rather than a warm cache.
pub fn new_tuner() -> Tuner {
    Tuner::new(TuneOptions {
        threads: TUNE_THREADS,
        ..TuneOptions::default()
    })
}

/// The timed base-vs-clustered job: the calls `fig3` and `table3` make
/// per cell through `run_pair_with`, in its order, on one thread.
pub fn timed_pair(w: &Workload, cfg: &MachineConfig) -> Outcome {
    Outcome::of_pair(&pair_parts(Ctx::untraced(), w, cfg).pair)
}

/// The timed tuner job: exactly what the `tune` binary runs per workload.
/// A report with oracle failures is a failed job.
pub fn timed_tune(w: &Workload, cfg: &MachineConfig, tuner: &Tuner) -> Option<Outcome> {
    let (_, report, _) = tune_workload(w, cfg, tuner, Locality::Analytic);
    report
        .oracle_failures
        .is_empty()
        .then(|| Outcome::of_tune(&report))
}

/// A pair composed from `run_pair_with`'s public parts, in its order but
/// with the two simulations one after the other, and with the final
/// memory images kept for the output check.
#[derive(Debug)]
pub struct PairParts {
    pub pair: RunPair,
    pub clustered_program: Program,
    pub base_mem: SimMem,
    pub clustered_mem: SimMem,
}

pub fn pair_parts(ctx: Ctx, w: &Workload, cfg: &MachineConfig) -> PairParts {
    let policy = home_policy(cfg);
    let mut profile_mem = ctx.span("workloads.memory", |_| w.memory(1));
    let profile = ctx.span("core.profile", |_| {
        profile_miss_rates(&w.program, &mut profile_mem, &cfg.l2)
    });
    let (clustered_program, report) = ctx.span("transform.cluster", |_| {
        let mut prog = w.program.clone();
        let report = cluster_program(&mut prog, &machine_summary(cfg), &profile);
        (prog, report)
    });
    let mut base_mem = ctx.span("workloads.memory", |_| {
        w.memory_with_policy(cfg.nprocs, policy)
    });
    let mut clustered_mem = ctx.span("workloads.memory", |_| {
        w.memory_with_policy(cfg.nprocs, policy)
    });
    let opts = SimOptions::default();
    let base = ctx.span("sim.run", |_| {
        run_program_with(&w.program, &mut base_mem, cfg, opts)
    });
    let clustered = ctx.span("sim.run", |_| {
        run_program_with(&clustered_program, &mut clustered_mem, cfg, opts)
    });
    let outputs_match = ctx.span("workloads.outputs", |_| {
        w.read_outputs(&base_mem) == w.read_outputs(&clustered_mem)
    });
    PairParts {
        pair: RunPair {
            name: w.name.clone(),
            config: cfg.name.clone(),
            base,
            clustered,
            report,
            outputs_match,
            profile,
        },
        clustered_program,
        base_mem,
        clustered_mem,
    }
}

/// A tuner job composed from `tune_workload`'s public parts. The tuner's
/// per-candidate scoring intervals become `tune.score` children of the
/// `tune.search` span.
pub fn tune_parts(
    ctx: Ctx,
    w: &Workload,
    cfg: &MachineConfig,
    tuner: &Tuner,
) -> (Program, TuneReport) {
    let (profile, _) = ctx.span("tune.profile", |_| {
        locality_profile(w, cfg, Locality::Analytic)
    });
    let policy = home_policy(cfg);
    let mem_at = |n: usize| w.memory_with_policy(n, policy);
    ctx.span("tune.search", |search| {
        // The tuner's candidate times are relative to its own start,
        // taken on entry to `tune_program`: within microseconds of this.
        let t0 = search.now_ns();
        let (tuned, report) = tuner.tune_program(&w.name, &w.program, cfg, &profile, &mem_at);
        for c in &report.candidates {
            let start = t0 + c.start_us * 1000;
            search.record("tune.score", start, start + c.dur_us * 1000);
        }
        (tuned, report)
    })
}

/// The memory image the tree-walking interpreter leaves after running
/// `prog` on a fresh copy of the workload's inputs: the reference the
/// simulator's memory images are checked against.
pub fn interp_fingerprint(w: &Workload, prog: &Program, cfg: &MachineConfig) -> u64 {
    let mut mem = w.memory_with_policy(cfg.nprocs, home_policy(cfg));
    if cfg.nprocs > 1 {
        run_parallel_functional_with(prog, &mut mem, cfg.nprocs, Engine::Interp);
    } else {
        run_single_with(prog, &mut mem, Engine::Interp);
    }
    mem.fingerprint()
}
