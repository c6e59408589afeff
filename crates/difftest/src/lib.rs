//! Differential-testing subsystem for the mempar reproduction.
//!
//! Three layers, all driven from the same adversarial program
//! generator:
//!
//! 1. **Generation** ([`spec`], [`gen`]) — random loop-nest skeletons
//!    ([`spec::ProgSpec`]) materialized into in-bounds-by-construction
//!    IR programs with deterministic initial data.
//! 2. **Differential checking** ([`harness`]) — every transform pass,
//!    alone and in random legal compositions, must preserve the
//!    bit-exact memory image against the sequential interpreter oracle
//!    (and the parallel functional oracle where the program's mode
//!    permits); legality rejections are probed with
//!    [`mempar_transform::Legality::Bypass`] to prove they are not
//!    silent false-accepts.
//! 3. **Shrinking & reproduction** ([`shrink`]) — failing specs are
//!    minimized at the spec level and pretty-printed into
//!    `tests/corpus/` reproducers.
//!
//! The golden-trace layer ([`golden`]) snapshots
//! [`mempar_ir::TraceDigest`] summaries for a pinned corpus so that any
//! semantic drift in the interpreter or simulator fails a committed
//! snapshot.

#![warn(missing_docs)]

pub mod gen;
pub mod golden;
pub mod harness;
pub mod shrink;
pub mod spec;

pub use gen::{gen_spec, gen_spec_with, GenConfig};
pub use golden::{check_golden, snapshot, snapshot_gen_seed, BLESS_ENV, PINNED_GEN_SEEDS};
pub use harness::{check_spec, CheckOutcome, CheckReport, DivKind, Divergence, PassKind};
pub use shrink::{
    corpus_seeds, render_reproducer, reproducer_seed, shrink, shrink_with, CORPUS_DIR,
};
pub use spec::{materialize, Built, Mode, ProgSpec};
