//! Loop-nest intermediate representation for the `mempar` reproduction of
//! Pai & Adve, *Code Transformations to Improve Memory Parallelism*
//! (MICRO-32, 1999).
//!
//! This crate provides the program representation that the rest of the
//! workspace is built around:
//!
//! * [`Program`] — a collection of array/scalar declarations and a body of
//!   (possibly nested, possibly parallel) loops, with affine, indirect and
//!   pointer-chase index expressions. This is the representation the
//!   analysis (`mempar-analysis`) and transformation (`mempar-transform`)
//!   crates operate on.
//! * [`SimMem`] — a flat simulated address space in which the program's
//!   arrays are laid out, with configurable NUMA home-node policies.
//! * [`DynOp`] — dynamic instructions (loads, stores, FP/integer ops,
//!   branches, synchronization) with register dependences, produced by the
//!   interpreter and consumed by the cycle-level simulator in `mempar-sim`.
//! * [`Interp`] — a pull-based, execution-driven interpreter: each call to
//!   [`Interp::next_op`] functionally executes a little more of the program
//!   and returns the next dynamic instruction.
//!
//! # Example
//!
//! Build the paper's Figure 2(a) base matrix traversal and run it:
//!
//! ```
//! use mempar_ir::{ProgramBuilder, Interp, SimMem, ArrayData};
//!
//! let mut b = ProgramBuilder::new("fig2a");
//! let a = b.array_f64("a", &[64, 64]);
//! let s = b.scalar_f64("sum", 0.0);
//! let j = b.var("j");
//! let i = b.var("i");
//! b.for_const(j, 0, 64, |b| {
//!     b.for_const(i, 0, 64, |b| {
//!         let v = b.load(a, &[b.idx(j), b.idx(i)]);
//!         let acc = b.scalar(s);
//!         let sum = b.add(acc, v);
//!         b.assign_scalar(s, sum);
//!     });
//! });
//! let prog = b.finish();
//! let mut mem = SimMem::new(&prog, 1);
//! mem.set_array(a, ArrayData::f64_fill(64 * 64, 1.0));
//! let mut interp = Interp::new(&prog, 0, 1);
//! let mut n = 0usize;
//! while interp.next_op(&mut mem).is_some() { n += 1; }
//! assert!(n > 64 * 64);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod bytecode;
mod expr;
mod interp;
mod mem;
mod pretty;
mod program;
mod trace;
mod validate;
mod vm;

pub use builder::ProgramBuilder;
pub use bytecode::BytecodeProgram;
pub use expr::{AffineExpr, BinOp, CmpOp, Cond, Expr, UnOp};
pub use interp::{run_parallel_functional, run_single, Interp, RunSummary, Val};
pub use mem::{bank_of, ArrayData, HomeMap, HomePolicy, Interleave, SimMem, PAGE_BYTES};
pub use program::{
    block_range, ArrayDecl, ArrayId, ArrayRef, BlockEdge, Bound, Dist, DynIndex, ElemType, Index,
    Loop, Program, ScalarDecl, ScalarId, Stmt, VarId, ELEM_BYTES,
};
pub use trace::{DynOp, FpUnit, OpKind, SrcList, TraceDigest, MAX_SRCS};
pub use validate::ValidateError;
pub use vm::{
    digest_ops, run_parallel_functional_visit, run_parallel_functional_with, run_single_with,
    Engine, Executor, Vm,
};
