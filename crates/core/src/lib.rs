//! `mempar` — a from-scratch Rust reproduction of Vijay S. Pai and Sarita
//! Adve, *Code Transformations to Improve Memory Parallelism* (MICRO-32,
//! 1999; extended in JILP 2, 2000).
//!
//! ILP processors can hide read-miss latency only by overlapping several
//! read misses within one instruction window ("read miss clustering").
//! This crate ties together the full reproduction stack:
//!
//! * [`mempar_ir`] — a loop-nest IR with an execution-driven interpreter;
//! * [`mempar_analysis`] — the paper's dependence/recurrence framework
//!   (`α = R/π`) and overlapped-miss estimate (`f`, Equations 1–4);
//! * [`mempar_transform`] — unroll-and-jam, interchange, strip-mining,
//!   inner unrolling, scalar replacement, miss-packing scheduling and the
//!   degree-search driver;
//! * [`mempar_sim`] — an RSIM-like out-of-order uni/multiprocessor with
//!   MSHR-limited caches, buses, interleaved memory banks, a mesh and
//!   directory coherence;
//! * [`mempar_workloads`] — Latbench plus the seven applications of
//!   Table 2.
//!
//! The crate's own API is the experiment layer used by the benchmark
//! harness: [`cluster_workload`] (profile + transform), [`run_pair`]
//! (base vs clustered on a configured machine) and
//! [`profile_miss_rates`] (the `P_m` measurement). [`run_pair_with`] is
//! the one pipeline behind every artifact: [`PairOptions`] selects the
//! driver options, the locality model (`analytic` or `measured`, which
//! adds [`LocalityArtifacts`]) and tracing (which adds a pair of
//! [`ObservedRun`]s carrying trace events, metrics and the
//! per-reference clustering profile) — one pass, never a rerun.
//!
//! # Quickstart
//!
//! ```no_run
//! use mempar::{run_pair, MachineConfig};
//! use mempar_workloads::{latbench, LatbenchParams};
//!
//! let w = latbench(LatbenchParams::scaled(0.05));
//! let cfg = MachineConfig::base_simulated(1, w.l2_bytes);
//! let pair = run_pair(&w, &cfg);
//! println!(
//!     "{}: {} -> {} cycles ({:+.1}%)",
//!     pair.name,
//!     pair.base.cycles,
//!     pair.clustered.cycles,
//!     -pair.percent_reduction()
//! );
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod experiment;
mod profile;

pub use experiment::{
    calibrate_locality, cluster_workload, locality_profile, machine_summary, run_pair,
    run_pair_with, LocalityArtifacts, ObservedRun, PairOptions, PairOutcome, RunPair,
    DEFAULT_TRACE_CAPACITY,
};
pub use profile::{measure_locality, profile_miss_rates, reuse_levels};

// The pieces users compose with, re-exported at the facade.
pub use mempar_analysis::{
    analyze_inner_loop, ArrayLocality, Locality, MachineSummary, MissProfile, NestAnalysis,
};
pub use mempar_obs::{
    chrome_trace_json, locality_delta, validate_json, ChromeRun, DeltaReport, RefProfile,
    ReuseConfig, ReuseReport,
};
pub use mempar_sim::{
    run_program, run_program_observed, run_program_with, Engine, MachineConfig, Protocol,
    SimOptions, SimResult, Stepper,
};
pub use mempar_stats::{
    format_breakdown_table, format_occupancy_curves, format_rows, Breakdown, Row,
};
pub use mempar_transform::{cluster_program, ClusterReport};
pub use mempar_workloads::{App, Workload};
