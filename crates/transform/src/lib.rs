//! Loop transformations for read-miss clustering — the `mempar`
//! reproduction of Pai & Adve, *Code Transformations to Improve Memory
//! Parallelism* (MICRO-32, 1999).
//!
//! The crate provides the transformations of Sections 2–3 and the driver
//! that applies them using the analysis in `mempar-analysis`:
//!
//! * [`unroll_and_jam`] — unroll an outer loop and fuse the inner-loop
//!   copies, with postlude generation, per-copy privatization of
//!   iteration-local scalars, and minimum-trip-count jamming of
//!   variable-length inner loops (the MST treatment).
//! * [`inner_unroll`] — order-preserving inner-loop unrolling for window
//!   constraints.
//! * [`interchange`] / [`strip_mine`] — the Figure 2(b)/(c)
//!   alternatives, also used for postlude interchange.
//! * [`scalar_replace`] — invariant-reference replacement (the CPU-side
//!   benefit the paper observes in FFT and LU).
//! * [`schedule_for_misses`] — local scheduling that packs leading miss
//!   references together (Section 3.3).
//! * [`cluster_program`] — the whole-program driver with the binary
//!   search on unroll degree.
//!
//! # Example
//!
//! ```
//! use mempar_ir::ProgramBuilder;
//! use mempar_analysis::{MachineSummary, MissProfile};
//! use mempar_transform::cluster_program;
//!
//! let mut b = ProgramBuilder::new("row");
//! let a = b.array_f64("a", &[64, 64]);
//! let s = b.scalar_f64("sum", 0.0);
//! let (j, i) = (b.var("j"), b.var("i"));
//! b.for_const(j, 0, 64, |b| {
//!     b.for_const(i, 0, 64, |b| {
//!         let v = b.load(a, &[b.idx(j), b.idx(i)]);
//!         let acc = b.scalar(s);
//!         let sum = b.add(acc, v);
//!         b.assign_scalar(s, sum);
//!     });
//! });
//! let mut prog = b.finish();
//! let report = cluster_program(
//!     &mut prog,
//!     &MachineSummary::base(),
//!     &MissProfile::pessimistic(),
//! );
//! assert!(report.decisions[0].uaj_degree > 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod driver;
mod interchange;
mod legality;
mod nest;
mod prefetch;
mod scalar_replace;
mod schedule;
mod subst;
mod unroll;

pub use driver::{cluster_program, ClusterReport, JammedLoop, NestDecision};
pub use interchange::{interchange, interchange_postlude, interchange_with, strip_mine};
pub use legality::{
    all_refs, can_interchange, can_unroll_and_jam, collect_ranges, pair_dependence, PairDep,
    VarRanges,
};
pub use nest::{
    contains_loop, contains_sync, deepest_inner, enclosing_vars, innermost_loops, loop_at,
    loop_at_mut, NestPath,
};
pub use prefetch::insert_prefetches;
pub use scalar_replace::{count_loads, scalar_replace};
pub use schedule::{schedule_balanced, schedule_for_misses};
pub use subst::{
    affine_to_expr, assigned_scalars, bound_to_expr, first_access_is_def, subst_body, subst_expr,
    subst_ref, subst_stmt,
};
pub use unroll::{inner_unroll, unroll_and_jam, unroll_and_jam_with, UnrollResult};

/// Whether a transformation entry point consults the conservative
/// dependence tests before rewriting.
///
/// The default everywhere is [`Legality::Enforce`]. [`Legality::Bypass`]
/// exists for the differential-testing harness (`crates/difftest`): by
/// forcing a rewrite that the dependence framework rejected and checking
/// whether the result diverges from the oracle (or fails validation), the
/// harness classifies each rejection as *justified* or merely
/// *conservative* — and, crucially, proves the enforcement path is
/// load-bearing. Structural requirements (step, loop shape, jammability)
/// are still enforced under `Bypass`; only the dependence test is skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Legality {
    /// Run the dependence tests and refuse illegal applications.
    #[default]
    Enforce,
    /// Skip the dependence tests and rewrite unconditionally. The result
    /// may be semantically wrong — callers must check it against an
    /// oracle. Never use outside testing.
    Bypass,
}

impl Legality {
    /// True when dependence tests must pass before rewriting.
    pub fn enforced(self) -> bool {
        matches!(self, Legality::Enforce)
    }
}

/// Why a transformation could not be applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransformError {
    /// The path does not lead to a loop.
    NotALoop,
    /// Only unit-step loops are transformed.
    UnsupportedStep,
    /// The conservative dependence test could not prove legality.
    IllegalDependence,
    /// Inner loops could not be jammed (mismatched structure/bounds).
    UnjammableInnerLoop,
    /// The body contains synchronization.
    SyncInBody,
    /// Interchange needs a perfect rectangular 2-nest.
    NotPerfectNest,
}

impl std::fmt::Display for TransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            TransformError::NotALoop => "path does not lead to a loop",
            TransformError::UnsupportedStep => "only unit-step loops are supported",
            TransformError::IllegalDependence => "dependences prevent the transformation",
            TransformError::UnjammableInnerLoop => "inner loops cannot be jammed",
            TransformError::SyncInBody => "synchronization in the loop body",
            TransformError::NotPerfectNest => "not a perfect rectangular nest",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for TransformError {}
