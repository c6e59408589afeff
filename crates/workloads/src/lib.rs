//! The evaluation workloads of Pai & Adve, *Code Transformations to
//! Improve Memory Parallelism* (MICRO-32, 1999) — Table 2.
//!
//! Every workload is expressed as a [`Program`](mempar_ir::Program) in the
//! `mempar-ir` loop-nest representation, together with generated input
//! data:
//!
//! | Workload | Source | Clustering structure |
//! |---|---|---|
//! | [`latbench`] | lmbench's `lat_mem_rd` + chain loop | address recurrence (pointer chase) |
//! | [`em3d`] | Split-C | cache-line recurrences + irregular gathers |
//! | [`erlebacher`] | ICASE | cache-line recurrences in 3-D sweeps |
//! | [`fft`] | SPLASH-2 | strided transposes, butterfly nests |
//! | [`lu`] | SPLASH-2 (flags for diag) | trailing-update recurrences |
//! | [`mp3d`] | SPLASH | no recurrences, window-constrained body |
//! | [`mst`] | Olden | variable-length chain chases |
//! | [`ocean`] | SPLASH-2 | stencils with natural base clustering |
//!
//! The base programs are *untransformed*; the clustered variants are
//! produced mechanically by `mempar_transform::cluster_program`, exactly
//! as the paper's framework prescribes.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod catalog;
mod em3d;
mod erlebacher;
mod fft;
mod latbench;
mod lu;
mod mp3d;
mod mst;
mod ocean;
mod workload;

pub use catalog::App;
pub use em3d::{em3d, Em3dParams};
pub use erlebacher::{erlebacher, ErlebacherParams};
pub use fft::{fft, FftParams};
pub use latbench::{latbench, total_derefs, LatbenchParams};
pub use lu::{lu, LuParams};
pub use mp3d::{mp3d, Mp3dParams};
pub use mst::{mst, MstParams};
pub use ocean::{ocean, OceanParams};
pub use workload::{scaled_dim, Workload};
