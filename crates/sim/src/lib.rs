//! Execution-driven simulator for the `mempar` reproduction of Pai & Adve,
//! *Code Transformations to Improve Memory Parallelism* (MICRO-32, 1999).
//!
//! This crate is the substrate the paper evaluates on (RSIM in the
//! original): an ILP multiprocessor with
//!
//! * out-of-order cores — instruction window with in-order retirement,
//!   multi-issue, non-blocking loads, write buffering under release
//!   consistency, bounded unresolved branches ([`Core`]);
//! * a two-level (or single-level) cache hierarchy with finite MSHRs and
//!   same-line coalescing — the resource that bounds read-miss
//!   clustering ([`MemSystem`]);
//! * split-transaction buses, permutation/skew-interleaved memory banks
//!   and a 2-D mesh for CC-NUMA configurations, or a shared-bus SMP mode
//!   for the Exemplar-like machine;
//! * one coherence state machine ([`Coherence`]) that runs the paper's
//!   full-map directory (MSI) or the snooping MESI, MOESI and Dragon
//!   protocols, chosen per run by [`Protocol`].
//!
//! The entry point is [`run_program`], which executes a
//! [`Program`](mempar_ir::Program) on a configured machine and returns a
//! [`SimResult`] with the paper's measurements: execution-time breakdowns
//! (Figure 3), MSHR occupancy histograms (Figure 4), miss counters and
//! latency statistics (Section 5.1).
//!
//! # Example
//!
//! ```
//! use mempar_ir::{ProgramBuilder, SimMem, ArrayData};
//! use mempar_sim::{run_program, MachineConfig};
//!
//! let mut b = ProgramBuilder::new("sweep");
//! let a = b.array_f64("a", &[1024]);
//! let s = b.scalar_f64("sum", 0.0);
//! let i = b.var("i");
//! b.for_const(i, 0, 1024, |b| {
//!     let v = b.load(a, &[b.idx(i)]);
//!     let acc = b.scalar(s);
//!     let sum = b.add(acc, v);
//!     b.assign_scalar(s, sum);
//! });
//! let prog = b.finish();
//! let cfg = MachineConfig::base_simulated(1, 64 * 1024);
//! let mut mem = SimMem::new(&prog, 1);
//! mem.set_array(a, ArrayData::f64_fill(1024, 1.0));
//! let result = run_program(&prog, &mut mem, &cfg);
//! assert!(result.cycles > 0);
//! assert_eq!(result.counters.l2_read_misses, 128); // 1024 f64 / 8 per line
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod config;
mod core;
mod interconnect;
mod linetable;
mod memsys;
mod protocol;
mod resource;
mod sched;
mod sync;
mod system;

pub use crate::core::Core;
pub use cache::{LineState, MshrEntry, MshrFile, MshrOutcome, TagArray, Victim};
pub use config::{
    BusParams, CacheParams, FuParams, MachineConfig, MemParams, NetParams, ProcParams, Topology,
};
pub use interconnect::{Bus, MemoryBanks, Mesh};
// The bank function lives in `mempar-ir` so the transformation driver's
// bank-conflict estimate and the simulated banks share it.
pub use mempar_ir::{bank_of, Interleave};
pub use memsys::{Access, MemSystem};
pub use protocol::{CohTxn, Coherence, DataSource, Protocol};
pub use resource::{Resource, ResourcePool};
pub use sync::SyncState;
pub use system::{
    run_program, run_program_observed, run_program_with, SimObservation, SimOptions, SimResult,
    Stepper,
};

// Observability types a traced run hands back (re-exported so harnesses
// need not depend on `mempar-obs` directly for the common path).
pub use mempar_ir::Engine;
pub use mempar_obs::{MetricsRegistry, TraceEvent, TraceEventKind, Tracer};
