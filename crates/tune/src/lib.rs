//! `mempar-tune` — the composition autotuner (ROADMAP item 1).
//!
//! The paper's Table 2/3 transformations were chosen by hand; the
//! clustering driver (`mempar_transform::cluster_program`) mechanizes
//! one recipe — unroll-and-jam at an analytically chosen degree, plus
//! scalar replacement and scheduling. This crate searches the wider
//! composition space *empirically*, with the simulator as the cost
//! model:
//!
//! 1. **Constraint propagation** ([`build_space`]): per innermost nest,
//!    the five decision variables (interchange, strip-interchange,
//!    unroll-and-jam degree, inner-unroll degree, scheduling) get their
//!    domains pruned by cheap unary legality probes, then the reduced
//!    product is enumerated under pairwise exclusions — typically tens
//!    of compositions instead of the full cross product.
//! 2. **Prediction pruning**: survivors are ranked by the analysis
//!    framework's `min(f, α·lp)` (Equations 1–4) under the same
//!    [`MissProfile`](mempar_analysis::MissProfile) the driver uses
//!    (analytic or measured), and only the top few reach the simulator.
//! 3. **Simulation scoring** ([`Tuner::tune_program`]): each distinct
//!    candidate program is oracle-checked by functional runs under
//!    `TuneOptions::sim.engine` (the bytecode VM by default), which must
//!    leave the base program's sequential and parallel-functional memory
//!    images, and then timed, once per nest — a candidate `==` to the incumbent or
//!    to an earlier sibling reuses that program's verdict. Scores are
//!    memoized by *(trace digest, SimOptions, machine fingerprint)*
//!    ([`ScoreMemo`]), looked up in candidate order so the hit/miss
//!    counters do not depend on the thread count, and the oracle drains
//!    and the simulations fan out across threads with deterministic
//!    winner selection.
//!
//! The paper-default driver's output is always scored too and used as a
//! floor, so `tuned ≤ min(base, default)` cycles by construction — the
//! `tuned_vs_default` headline is honest.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod export;
mod memo;
mod space;
mod tuner;

pub use export::{export_metrics, tune_trace_json};
pub use memo::{config_fingerprint, opts_signature, MemoKey, ScoreMemo};
pub use space::{apply_composition, build_space, Composition, NestSpace, SpaceOptions, SpaceStats};
pub use tuner::{
    CandidateTrace, MemFactory, NestOutcome, SearchStats, TuneOptions, TuneReport, Tuner,
};

use mempar::locality_profile;
use mempar_analysis::{Locality, MissProfile};
use mempar_ir::Program;
use mempar_sim::MachineConfig;
use mempar_workloads::Workload;

/// Tunes a catalog workload on `cfg`: builds the miss profile under the
/// given locality mode (analytic static model or sampled reuse
/// measurement), then runs [`Tuner::tune_program`] with the topology's
/// home policy. Returns the tuned program, the report, and the profile
/// the predictions used.
pub fn tune_workload(
    w: &Workload,
    cfg: &MachineConfig,
    tuner: &Tuner,
    locality: Locality,
) -> (Program, TuneReport, MissProfile) {
    let (profile, _) = locality_profile(w, cfg, locality);
    let policy = cfg.home_policy();
    let mem_at = |n: usize| w.memory_with_policy(n, policy);
    let (tuned, report) = tuner.tune_program(&w.name, &w.program, cfg, &profile, &mem_at);
    (tuned, report, profile)
}
