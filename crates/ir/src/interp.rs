//! Execution-driven interpreter.
//!
//! The interpreter functionally executes a [`Program`] against a
//! [`SimMem`] while emitting the corresponding [`DynOp`] stream on demand.
//! It is organized as an explicit control-stack machine so that the
//! simulator can pull exactly one op at a time (execution-driven
//! simulation) without coroutines or threads.
//!
//! For multiprocessor runs, one `Interp` per processor shares the same
//! `SimMem`; loops distributed by [`Dist::Block`](crate::Dist::Block)
//! split their iterations. Values are evaluated at *fetch* time, which is exact for
//! the data-race-free kernels in `mempar-workloads` (all trace-affecting
//! values — indices, chain pointers, trip counts — are either private or
//! synchronized).

use std::collections::VecDeque;

use crate::expr::{BinOp, Cond, Expr, UnOp};
use crate::mem::SimMem;
use crate::program::{
    block_range, ArrayRef, Bound, Dist, DynIndex, ElemType, Loop, Program, Stmt, VarId,
};
use crate::trace::{DynOp, FpUnit, OpKind, SrcList};

/// A dynamically-typed value (scalars, expression results).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Val {
    /// Double-precision float.
    F(f64),
    /// 64-bit integer.
    I(i64),
}

impl Val {
    /// The value as a float (integers convert).
    pub fn as_f64(self) -> f64 {
        match self {
            Val::F(x) => x,
            Val::I(x) => x as f64,
        }
    }

    /// The value as an integer (floats truncate).
    pub fn as_i64(self) -> i64 {
        match self {
            Val::F(x) => x as i64,
            Val::I(x) => x,
        }
    }

    /// Raw bit pattern.
    pub fn to_bits(self) -> u64 {
        match self {
            Val::F(x) => x.to_bits(),
            Val::I(x) => x as u64,
        }
    }

    /// Reconstructs from bits given the element type.
    pub fn from_bits(bits: u64, elem: ElemType) -> Val {
        match elem {
            ElemType::F64 => Val::F(f64::from_bits(bits)),
            ElemType::I64 => Val::I(bits as i64),
        }
    }
}

/// Summary counters from a functional run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Total dynamic ops.
    pub ops: u64,
    /// Dynamic loads.
    pub loads: u64,
    /// Dynamic stores.
    pub stores: u64,
    /// Dynamic FP operations.
    pub fp_ops: u64,
    /// Dynamic branches.
    pub branches: u64,
}

impl RunSummary {
    /// Tallies one dynamic op into the counters.
    pub(crate) fn count(&mut self, op: &DynOp) {
        self.ops += 1;
        match op.kind {
            OpKind::Load { .. } => self.loads += 1,
            OpKind::Store { .. } => self.stores += 1,
            OpKind::Fp { .. } => self.fp_ops += 1,
            OpKind::Branch => self.branches += 1,
            _ => {}
        }
    }
}

#[derive(Debug)]
enum Frame<'p> {
    Seq {
        stmts: &'p [Stmt],
        pos: usize,
    },
    LoopIter {
        lp: &'p Loop,
        /// Next iteration number (in 0..trip).
        k: i64,
        k_end: i64,
        /// First loop-variable value and per-iteration delta.
        var0: i64,
        var_step: i64,
        /// Vreg of the scalar upper bound, if any (branch dependence).
        bound_vreg: u32,
    },
}

/// The execution-driven interpreter for one simulated processor.
#[derive(Debug)]
pub struct Interp<'p> {
    prog: &'p Program,
    proc_id: usize,
    nprocs: usize,
    scalar_vals: Vec<u64>,
    scalar_vregs: Vec<u32>,
    var_vals: Vec<i64>,
    var_vregs: Vec<u32>,
    next_vreg: u32,
    buf: VecDeque<DynOp>,
    stack: Vec<Frame<'p>>,
    barriers_seen: u32,
    halted: bool,
}

impl<'p> Interp<'p> {
    /// Creates an interpreter for processor `proc_id` of `nprocs`.
    ///
    /// # Panics
    /// Panics if `proc_id >= nprocs` or `nprocs == 0`.
    pub fn new(prog: &'p Program, proc_id: usize, nprocs: usize) -> Self {
        assert!(nprocs > 0 && proc_id < nprocs, "bad processor id");
        Interp {
            prog,
            proc_id,
            nprocs,
            scalar_vals: prog.scalars.iter().map(|s| s.init_bits).collect(),
            scalar_vregs: vec![0; prog.scalars.len()],
            var_vals: vec![0; prog.var_names.len()],
            var_vregs: vec![0; prog.var_names.len()],
            next_vreg: 1,
            buf: VecDeque::with_capacity(64),
            stack: vec![Frame::Seq {
                stmts: &prog.body,
                pos: 0,
            }],
            barriers_seen: 0,
            halted: false,
        }
    }

    /// The processor this interpreter runs as.
    pub fn proc_id(&self) -> usize {
        self.proc_id
    }

    /// Produces the next dynamic op, or `None` when the program has ended
    /// (after a final [`OpKind::Halt`] has been returned).
    pub fn next_op(&mut self, mem: &mut SimMem) -> Option<DynOp> {
        loop {
            if let Some(op) = self.buf.pop_front() {
                return Some(op);
            }
            if self.halted {
                return None;
            }
            self.step(mem);
        }
    }

    /// Runs the program to completion without a timing model, returning
    /// summary counters. Useful for verification and miss-rate profiling.
    pub fn run_functional(&mut self, mem: &mut SimMem) -> RunSummary {
        let mut s = RunSummary::default();
        while let Some(op) = self.next_op(mem) {
            s.count(&op);
        }
        s
    }

    fn fresh(&mut self) -> u32 {
        let v = self.next_vreg;
        self.next_vreg += 1;
        v
    }

    fn emit(&mut self, kind: OpKind, srcs: SrcList, dst: Option<u32>) {
        self.buf.push_back(DynOp { kind, srcs, dst });
    }

    /// Advances the control machine until at least one op is buffered or
    /// the program halts.
    fn step(&mut self, mem: &mut SimMem) {
        let Some(top) = self.stack.last_mut() else {
            self.emit(OpKind::Halt, SrcList::new(), None);
            self.halted = true;
            return;
        };
        match top {
            Frame::Seq { stmts, pos } => {
                if *pos >= stmts.len() {
                    self.stack.pop();
                    return;
                }
                let stmt = &stmts[*pos];
                *pos += 1;
                self.exec_stmt(stmt, mem);
            }
            Frame::LoopIter {
                lp,
                k,
                k_end,
                var0,
                var_step,
                bound_vreg,
            } => {
                if *k >= *k_end {
                    self.stack.pop();
                    return;
                }
                let lp = *lp;
                let var = lp.var;
                let value = *var0 + *k * *var_step;
                let bound_vreg = *bound_vreg;
                *k += 1;
                self.begin_iteration(lp, var, value, bound_vreg);
            }
        }
    }

    /// Emits the per-iteration counter update and loop branch, sets the
    /// loop variable, and pushes the body.
    fn begin_iteration(&mut self, lp: &'p Loop, var: VarId, value: i64, bound_vreg: u32) {
        let prev = self.var_vregs[var.index()];
        let counter = self.fresh();
        let mut srcs = SrcList::new();
        if prev != 0 {
            srcs.push(prev);
        }
        self.emit(OpKind::Int, srcs, Some(counter));
        let mut bsrcs = SrcList::new();
        bsrcs.push(counter);
        if bound_vreg != 0 {
            bsrcs.push(bound_vreg);
        }
        self.emit(OpKind::Branch, bsrcs, None);
        self.var_vals[var.index()] = value;
        self.var_vregs[var.index()] = counter;
        self.stack.push(Frame::Seq {
            stmts: &lp.body,
            pos: 0,
        });
    }

    fn exec_stmt(&mut self, stmt: &'p Stmt, mem: &mut SimMem) {
        match stmt {
            Stmt::AssignArray { lhs, rhs } => {
                let (val, vreg) = self.eval(rhs, mem);
                let (addr, mut srcs) = self.resolve_ref(lhs, mem);
                if vreg != 0 {
                    srcs.push(vreg);
                }
                let elem = self.prog.array(lhs.array).elem;
                let coerced = match elem {
                    ElemType::F64 => Val::F(val.as_f64()),
                    ElemType::I64 => Val::I(val.as_i64()),
                };
                mem.store_bits(addr, coerced.to_bits());
                self.emit(OpKind::Store { addr }, srcs, None);
            }
            Stmt::AssignScalar { lhs, rhs } => {
                let (val, vreg) = self.eval(rhs, mem);
                let elem = self.prog.scalar(*lhs).elem;
                let coerced = match elem {
                    ElemType::F64 => Val::F(val.as_f64()),
                    ElemType::I64 => Val::I(val.as_i64()),
                };
                self.scalar_vals[lhs.index()] = coerced.to_bits();
                self.scalar_vregs[lhs.index()] = vreg;
            }
            Stmt::Loop(lp) => self.enter_loop(lp),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let taken = self.eval_cond(cond);
                let branch = if taken { then_branch } else { else_branch };
                if !branch.is_empty() {
                    self.stack.push(Frame::Seq {
                        stmts: branch,
                        pos: 0,
                    });
                }
            }
            Stmt::Barrier => {
                let id = self.barriers_seen;
                self.barriers_seen += 1;
                self.emit(OpKind::Barrier { id }, SrcList::new(), None);
            }
            Stmt::FlagSet { idx } => {
                let flag = self.eval_affine(idx) as u32;
                self.emit(OpKind::FlagSet { flag }, SrcList::new(), None);
            }
            Stmt::FlagWait { idx } => {
                let flag = self.eval_affine(idx) as u32;
                self.emit(OpKind::FlagWait { flag }, SrcList::new(), None);
            }
            Stmt::Prefetch { target } => {
                let (addr, srcs) = self.resolve_ref_clamped(target, mem);
                self.emit(OpKind::Prefetch { addr }, srcs, None);
            }
        }
    }

    /// Like [`Interp::resolve_ref`] but clamps each dimension into the
    /// array's extent — software prefetches near loop bounds may run past
    /// the end and must not fault.
    fn resolve_ref_clamped(&mut self, r: &ArrayRef, mem: &mut SimMem) -> (u64, SrcList) {
        let decl = self.prog.array(r.array).clone();
        let mut srcs = SrcList::new();
        let mut flat: i64 = 0;
        for (d, ix) in r.indices.iter().enumerate() {
            let mut v = self.eval_affine(&ix.affine);
            for var in ix.affine.vars() {
                let reg = self.var_vregs[var.index()];
                if reg != 0 {
                    srcs.push(reg);
                }
            }
            match &ix.dynamic {
                None => {}
                Some(DynIndex::Scalar { scalar, scale }) => {
                    let sv = Val::from_bits(
                        self.scalar_vals[scalar.index()],
                        self.prog.scalar(*scalar).elem,
                    )
                    .as_i64();
                    v += sv * scale;
                    let reg = self.scalar_vregs[scalar.index()];
                    if reg != 0 {
                        srcs.push(reg);
                    }
                }
                Some(DynIndex::Indirect { inner, scale }) => {
                    // The index load feeding a prefetch address is part
                    // of the non-faulting prefetch: transforms shift it
                    // past the loop bounds too, so clamp its resolution
                    // like the target's own dimensions.
                    let (iaddr, isrcs) = self.resolve_ref_clamped(inner, mem);
                    let bits = mem.load_bits(iaddr);
                    let dst = self.fresh();
                    self.emit(OpKind::Load { addr: iaddr }, isrcs, Some(dst));
                    let iv = Val::from_bits(bits, self.prog.array(inner.array).elem);
                    v += iv.as_i64() * scale;
                    srcs.push(dst);
                }
            }
            let v = v.clamp(0, decl.dims[d] as i64 - 1);
            flat = flat * decl.dims[d] as i64 + v;
        }
        (mem.elem_addr(r.array, flat as u64), srcs)
    }

    fn eval_affine(&self, e: &crate::expr::AffineExpr) -> i64 {
        e.eval(|v| self.var_vals[v.index()])
    }

    fn affine_srcs(&self, e: &crate::expr::AffineExpr) -> SrcList {
        e.vars()
            .map(|v| self.var_vregs[v.index()])
            .filter(|&r| r != 0)
            .collect()
    }

    fn eval_cond(&mut self, cond: &Cond) -> bool {
        let taken = cond.eval(|v| self.var_vals[v.index()]);
        let cmp = self.fresh();
        let srcs = self.affine_srcs(&cond.lhs);
        self.emit(OpKind::Int, srcs, Some(cmp));
        let mut bsrcs = SrcList::new();
        bsrcs.push(cmp);
        self.emit(OpKind::Branch, bsrcs, None);
        taken
    }

    fn enter_loop(&mut self, lp: &'p Loop) {
        let (lo, lo_vreg) = self.resolve_bound(&lp.lo);
        let (hi, hi_vreg) = self.resolve_bound(&lp.hi);
        let bound_vreg = if hi_vreg != 0 { hi_vreg } else { lo_vreg };
        let step = lp.step;
        assert!(step != 0, "loop step must be nonzero");
        let span = (hi - lo).max(0);
        let astep = step.abs();
        let trip = (span + astep - 1) / astep;
        let (var0, var_step) = if step > 0 { (lo, step) } else { (hi - 1, step) };
        let (k0, k_end) = match lp.dist {
            Some(Dist::Block) => block_range(trip, self.proc_id, self.nprocs),
            None | Some(Dist::Own) => (0, trip),
        };
        if k0 >= k_end {
            // Still emit the (not-taken) loop-entry branch for realism.
            let cmp = self.fresh();
            self.emit(OpKind::Int, SrcList::new(), Some(cmp));
            let mut b = SrcList::new();
            b.push(cmp);
            self.emit(OpKind::Branch, b, None);
            return;
        }
        self.stack.push(Frame::LoopIter {
            lp,
            k: k0,
            k_end,
            var0,
            var_step,
            bound_vreg,
        });
    }

    fn resolve_bound(&mut self, b: &Bound) -> (i64, u32) {
        match b {
            Bound::Const(c) => (*c, 0),
            Bound::Affine(e) => (self.eval_affine(e), 0),
            Bound::Scalar(s) => (
                Val::from_bits(self.scalar_vals[s.index()], self.prog.scalar(*s).elem).as_i64(),
                self.scalar_vregs[s.index()],
            ),
            Bound::Block(e) => (e.eval(self.proc_id, self.nprocs), 0),
        }
    }

    /// Computes the address of `r`, emitting loads for indirect index
    /// components, and returns the address plus its dependence sources.
    fn resolve_ref(&mut self, r: &ArrayRef, mem: &mut SimMem) -> (u64, SrcList) {
        let decl = self.prog.array(r.array);
        debug_assert_eq!(
            decl.dims.len(),
            r.indices.len(),
            "rank mismatch on array {}",
            decl.name
        );
        let mut srcs = SrcList::new();
        let mut flat: i64 = 0;
        // Row-major accumulation without allocating the strides vector.
        for (d, ix) in r.indices.iter().enumerate() {
            let mut v = self.eval_affine(&ix.affine);
            for var in ix.affine.vars() {
                let reg = self.var_vregs[var.index()];
                if reg != 0 {
                    srcs.push(reg);
                }
            }
            match &ix.dynamic {
                None => {}
                Some(DynIndex::Scalar { scalar, scale }) => {
                    let sv = Val::from_bits(
                        self.scalar_vals[scalar.index()],
                        self.prog.scalar(*scalar).elem,
                    )
                    .as_i64();
                    v += sv * scale;
                    let reg = self.scalar_vregs[scalar.index()];
                    if reg != 0 {
                        srcs.push(reg);
                    }
                }
                Some(DynIndex::Indirect { inner, scale }) => {
                    let (iv, ireg) = self.load_ref(inner, mem);
                    v += iv.as_i64() * scale;
                    srcs.push(ireg);
                }
            }
            debug_assert!(
                v >= 0 && (v as usize) < decl.dims[d],
                "index {v} out of bounds in dim {d} of array {} (extent {})",
                decl.name,
                decl.dims[d]
            );
            flat = flat * decl.dims[d] as i64 + v;
        }
        assert!(
            flat >= 0 && (flat as usize) < decl.len(),
            "flattened index {flat} out of bounds for array {} (len {})",
            decl.name,
            decl.len()
        );
        (mem.elem_addr(r.array, flat as u64), srcs)
    }

    /// Emits the load for `r` and returns its value and destination vreg.
    fn load_ref(&mut self, r: &ArrayRef, mem: &mut SimMem) -> (Val, u32) {
        let (addr, srcs) = self.resolve_ref(r, mem);
        let bits = mem.load_bits(addr);
        let dst = self.fresh();
        self.emit(OpKind::Load { addr }, srcs, Some(dst));
        (Val::from_bits(bits, self.prog.array(r.array).elem), dst)
    }

    /// Evaluates an expression, emitting its ops; returns value and vreg
    /// (0 when the value needs no producing op, e.g. constants).
    fn eval(&mut self, e: &Expr, mem: &mut SimMem) -> (Val, u32) {
        match e {
            Expr::ConstF(x) => (Val::F(*x), 0),
            Expr::ConstI(x) => (Val::I(*x), 0),
            Expr::LoopVar(v) => (Val::I(self.var_vals[v.index()]), self.var_vregs[v.index()]),
            Expr::BlockEdge(e) => (Val::I(e.eval(self.proc_id, self.nprocs)), 0),
            Expr::Scalar(s) => (
                Val::from_bits(self.scalar_vals[s.index()], self.prog.scalar(*s).elem),
                self.scalar_vregs[s.index()],
            ),
            Expr::Load(r) => self.load_ref(r, mem),
            Expr::Unary(op, a) => {
                let (av, areg) = self.eval(a, mem);
                let (val, kind) = match (op, av) {
                    (UnOp::Neg, Val::F(x)) => (
                        Val::F(-x),
                        OpKind::Fp {
                            unit: FpUnit::Arith,
                        },
                    ),
                    (UnOp::Neg, Val::I(x)) => (Val::I(-x), OpKind::Int),
                    (UnOp::Abs, Val::F(x)) => (
                        Val::F(x.abs()),
                        OpKind::Fp {
                            unit: FpUnit::Arith,
                        },
                    ),
                    (UnOp::Abs, Val::I(x)) => (Val::I(x.abs()), OpKind::Int),
                    (UnOp::Sqrt, v) => {
                        (Val::F(v.as_f64().sqrt()), OpKind::Fp { unit: FpUnit::Sqrt })
                    }
                };
                let dst = self.fresh();
                let mut srcs = SrcList::new();
                if areg != 0 {
                    srcs.push(areg);
                }
                self.emit(kind, srcs, Some(dst));
                (val, dst)
            }
            Expr::Binary(op, a, b) => {
                let (av, areg) = self.eval(a, mem);
                let (bv, breg) = self.eval(b, mem);
                let float = matches!(av, Val::F(_)) || matches!(bv, Val::F(_));
                let val = if float {
                    let (x, y) = (av.as_f64(), bv.as_f64());
                    Val::F(match op {
                        BinOp::Add => x + y,
                        BinOp::Sub => x - y,
                        BinOp::Mul => x * y,
                        BinOp::Div => x / y,
                        BinOp::Min => x.min(y),
                        BinOp::Max => x.max(y),
                    })
                } else {
                    let (x, y) = (av.as_i64(), bv.as_i64());
                    Val::I(match op {
                        BinOp::Add => x.wrapping_add(y),
                        BinOp::Sub => x.wrapping_sub(y),
                        BinOp::Mul => x.wrapping_mul(y),
                        BinOp::Div => {
                            if y == 0 {
                                0
                            } else {
                                x / y
                            }
                        }
                        BinOp::Min => x.min(y),
                        BinOp::Max => x.max(y),
                    })
                };
                let kind = match (float, op) {
                    (true, BinOp::Div) => OpKind::Fp { unit: FpUnit::Div },
                    (true, _) => OpKind::Fp {
                        unit: FpUnit::Arith,
                    },
                    (false, BinOp::Mul) | (false, BinOp::Div) => OpKind::IntMul,
                    (false, _) => OpKind::Int,
                };
                let dst = self.fresh();
                let mut srcs = SrcList::new();
                if areg != 0 {
                    srcs.push(areg);
                }
                if breg != 0 {
                    srcs.push(breg);
                }
                self.emit(kind, srcs, Some(dst));
                (val, dst)
            }
        }
    }
}

/// Runs `prog` to completion on a single processor and returns the final
/// memory image together with counters. Convenience for tests.
pub fn run_single(prog: &Program, mem: &mut SimMem) -> RunSummary {
    let mut interp = Interp::new(prog, 0, 1);
    interp.run_functional(mem)
}

/// Runs `prog` functionally with `nprocs` processors, interleaving ops
/// round-robin while honoring barriers and flag synchronization: a
/// processor that reaches a barrier stops consuming ops until every
/// processor has arrived; a flag wait stalls until some processor has
/// executed the matching flag set.
///
/// # Panics
/// Panics when synchronization deadlocks (a flag waited on but never
/// set).
pub fn run_parallel_functional(prog: &Program, mem: &mut SimMem, nprocs: usize) -> RunSummary {
    crate::vm::run_parallel_functional_with(prog, mem, nprocs, crate::vm::Engine::Interp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::mem::ArrayData;
    use crate::program::Index;

    /// sum += a[j][i] over a 4x8 matrix of ones.
    fn sum_program() -> (Program, crate::program::ArrayId, crate::program::ScalarId) {
        let mut b = ProgramBuilder::new("sum");
        let a = b.array_f64("a", &[4, 8]);
        let s = b.scalar_f64("sum", 0.0);
        let j = b.var("j");
        let i = b.var("i");
        b.for_const(j, 0, 4, |b| {
            b.for_const(i, 0, 8, |b| {
                let v = b.load(a, &[b.idx(j), b.idx(i)]);
                let acc = b.scalar(s);
                let add = b.add(acc, v);
                b.assign_scalar(s, add);
            });
        });
        (b.finish(), a, s)
    }

    #[test]
    fn sums_and_counts() {
        let (p, a, _s) = sum_program();
        let mut mem = SimMem::new(&p, 1);
        mem.set_array(a, ArrayData::f64_fill(32, 2.0));
        let sum = run_single(&p, &mut mem);
        assert_eq!(sum.loads, 32);
        assert_eq!(sum.fp_ops, 32);
        // 4 outer iters * (1 int + 1 branch) + 32 inner * 2 ... plus entry.
        assert!(sum.branches >= 36);
    }

    #[test]
    fn scalar_accumulation_value() {
        let mut b = ProgramBuilder::new("acc");
        let a = b.array_f64("a", &[8]);
        let out = b.array_f64("out", &[1]);
        let s = b.scalar_f64("sum", 1.0);
        let i = b.var("i");
        b.for_const(i, 0, 8, |b| {
            let v = b.load(a, &[b.idx(i)]);
            let acc = b.scalar(s);
            let add = b.add(acc, v);
            b.assign_scalar(s, add);
        });
        let sv = b.scalar(s);
        b.assign_array(out, &[Index::affine(0)], sv);
        let p = b.finish();
        let mut mem = SimMem::new(&p, 1);
        mem.set_array(a, ArrayData::F64((1..=8).map(|x| x as f64).collect()));
        run_single(&p, &mut mem);
        assert_eq!(mem.read_f64(out)[0], 37.0); // 1 + 36
    }

    #[test]
    fn store_writes_memory() {
        let mut b = ProgramBuilder::new("copy");
        let a = b.array_f64("a", &[16]);
        let c = b.array_f64("c", &[16]);
        let i = b.var("i");
        b.for_const(i, 0, 16, |b| {
            let v = b.load(a, &[b.idx(i)]);
            let two = b.constf(2.0);
            let m = b.mul(v, two);
            b.assign_array(c, &[Index::affine(crate::AffineExpr::var(i))], m);
        });
        let p = b.finish();
        let mut mem = SimMem::new(&p, 1);
        mem.set_array(a, ArrayData::F64((0..16).map(|x| x as f64).collect()));
        run_single(&p, &mut mem);
        let out = mem.read_f64(c);
        assert_eq!(out[5], 10.0);
        assert_eq!(out[15], 30.0);
    }

    #[test]
    fn indirect_index_loads_value() {
        // c[i] = data[ind[i]]
        let mut b = ProgramBuilder::new("gather");
        let ind = b.array_i64("ind", &[4]);
        let data = b.array_f64("data", &[10]);
        let c = b.array_f64("c", &[4]);
        let i = b.var("i");
        b.for_const(i, 0, 4, |b| {
            let inner = ArrayRef::new(ind, vec![Index::affine(crate::AffineExpr::var(i))]);
            let v = b.load_ref(ArrayRef::new(data, vec![Index::indirect(inner)]));
            b.assign_array(c, &[Index::affine(crate::AffineExpr::var(i))], v);
        });
        let p = b.finish();
        let mut mem = SimMem::new(&p, 1);
        mem.set_array(ind, ArrayData::I64(vec![9, 0, 3, 3]));
        mem.set_array(
            data,
            ArrayData::F64((0..10).map(|x| x as f64 * 10.0).collect()),
        );
        let sum = run_single(&p, &mut mem);
        assert_eq!(mem.read_f64(c), vec![90.0, 0.0, 30.0, 30.0]);
        assert_eq!(sum.loads, 8); // one index + one data load per iteration
    }

    #[test]
    fn pointer_chase_serializes_through_scalar() {
        // p = next[p] four times; deps must chain through the scalar vreg.
        let mut b = ProgramBuilder::new("chase");
        let next = b.array_i64("next", &[8]);
        let p_s = b.scalar_i64("p", 0);
        let i = b.var("i");
        b.for_const(i, 0, 4, |b| {
            let v = b.load_ref(ArrayRef::new(next, vec![Index::scalar(p_s)]));
            b.assign_scalar(p_s, v);
        });
        let p = b.finish();
        let mut mem = SimMem::new(&p, 1);
        mem.set_array(next, ArrayData::I64(vec![3, 0, 1, 5, 2, 7, 4, 6]));
        let mut interp = Interp::new(&p, 0, 1);
        let mut loads = Vec::new();
        let mut last_load_dst: Option<u32> = None;
        while let Some(op) = interp.next_op(&mut mem) {
            if let OpKind::Load { addr } = op.kind {
                if let Some(prev) = last_load_dst {
                    assert!(
                        op.srcs.as_slice().contains(&prev),
                        "chase load must depend on previous load"
                    );
                }
                last_load_dst = op.dst;
                loads.push(addr);
            }
        }
        assert_eq!(loads.len(), 4);
        // Chain 0 -> 3 -> 5 -> 7.
        let base = mem.base(next);
        assert_eq!(loads, vec![base, base + 24, base + 40, base + 56]);
    }

    #[test]
    fn guard_branches_taken_correctly() {
        let mut b = ProgramBuilder::new("guard");
        let c = b.array_f64("c", &[8]);
        let i = b.var("i");
        b.for_const(i, 0, 8, |b| {
            let cond = Cond::lt(crate::AffineExpr::var(i), crate::AffineExpr::konst(3));
            b.if_then(cond, |b| {
                let one = b.constf(1.0);
                b.assign_array(c, &[Index::affine(crate::AffineExpr::var(i))], one);
            });
        });
        let p = b.finish();
        let mut mem = SimMem::new(&p, 1);
        run_single(&p, &mut mem);
        let out = mem.read_f64(c);
        assert_eq!(&out[..4], &[1.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn block_distribution_partitions_iterations() {
        let mut b = ProgramBuilder::new("par");
        let c = b.array_f64("c", &[16]);
        let i = b.var("i");
        b.for_dist(i, 0, 16, Dist::Block, |b| {
            let one = b.constf(1.0);
            b.assign_array(c, &[Index::affine(crate::AffineExpr::var(i))], one);
        });
        let p = b.finish();
        let mut mem = SimMem::new(&p, 4);
        // Run only processor 1: exactly elements 4..8 get written.
        let mut interp = Interp::new(&p, 1, 4);
        interp.run_functional(&mut mem);
        let out = mem.read_f64(c);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, if (4..8).contains(&i) { 1.0 } else { 0.0 }, "index {i}");
        }
    }

    #[test]
    fn own_block_runs_the_block_split() {
        // Lowered or not, processor p writes exactly its block of 13.
        let build = |own: bool| {
            let mut b = ProgramBuilder::new("own");
            let c = b.array_f64("c", &[13]);
            let i = b.var("i");
            b.for_dist(i, 0, 13, Dist::Block, |b| {
                let one = b.constf(1.0);
                b.assign_array(c, &[Index::affine(crate::AffineExpr::var(i))], one);
            });
            let mut p = b.finish();
            if own {
                let Stmt::Loop(l) = &mut p.body[0] else {
                    unreachable!()
                };
                assert!(l.lower_to_own_block());
            }
            (p, c)
        };
        for proc in 0..4 {
            let mut written = Vec::new();
            for own in [false, true] {
                let (p, c) = build(own);
                let mut mem = SimMem::new(&p, 4);
                Interp::new(&p, proc, 4).run_functional(&mut mem);
                written.push(mem.read_f64(c));
            }
            let (start, end) = block_range(13, proc, 4);
            assert_eq!(written[0], written[1], "proc {proc}");
            for (i, &v) in written[0].iter().enumerate() {
                let mine = (start..end).contains(&(i as i64));
                assert_eq!(v, if mine { 1.0 } else { 0.0 }, "proc {proc} index {i}");
            }
        }
    }

    #[test]
    fn all_procs_cover_everything() {
        let mut b = ProgramBuilder::new("cover");
        let c = b.array_f64("c", &[13]);
        let i = b.var("i");
        b.for_dist(i, 0, 13, Dist::Block, |b| {
            let one = b.constf(1.0);
            b.assign_array(c, &[Index::affine(crate::AffineExpr::var(i))], one);
        });
        let p = b.finish();
        let mut mem = SimMem::new(&p, 4);
        run_parallel_functional(&p, &mut mem, 4);
        assert!(mem.read_f64(c).iter().all(|&v| v == 1.0));
    }

    #[test]
    fn negative_step_runs_backward() {
        let mut b = ProgramBuilder::new("back");
        let c = b.array_f64("c", &[4]);
        let pos = b.scalar_f64("pos", 0.0);
        let i = b.var("i");
        b.for_step(i, 0, 4, -1, |b| {
            // c[i] = pos; pos += 1  => c[3]=0, c[2]=1, ...
            let cur = b.scalar(pos);
            b.assign_array(c, &[Index::affine(crate::AffineExpr::var(i))], cur.clone());
            let one = b.constf(1.0);
            let next = b.add(cur, one);
            b.assign_scalar(pos, next);
        });
        let p = b.finish();
        let mut mem = SimMem::new(&p, 1);
        run_single(&p, &mut mem);
        assert_eq!(mem.read_f64(c), vec![3.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    fn barrier_ids_sequence() {
        let mut b = ProgramBuilder::new("barriers");
        b.barrier();
        b.barrier();
        let p = b.finish();
        let mut mem = SimMem::new(&p, 1);
        let mut interp = Interp::new(&p, 0, 1);
        let mut ids = Vec::new();
        while let Some(op) = interp.next_op(&mut mem) {
            if let OpKind::Barrier { id } = op.kind {
                ids.push(id);
            }
        }
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn scalar_bound_loop() {
        let mut b = ProgramBuilder::new("dynbound");
        let c = b.array_f64("c", &[8]);
        let n = b.scalar_i64("n", 5);
        let i = b.var("i");
        b.for_scalar(i, 0, n, |b| {
            let one = b.constf(1.0);
            b.assign_array(c, &[Index::affine(crate::AffineExpr::var(i))], one);
        });
        let p = b.finish();
        let mut mem = SimMem::new(&p, 1);
        run_single(&p, &mut mem);
        assert_eq!(mem.read_f64(c).iter().filter(|&&v| v == 1.0).count(), 5);
    }

    #[test]
    fn halt_is_final_op() {
        let (p, _a, _s) = sum_program();
        let mut mem = SimMem::new(&p, 1);
        let mut interp = Interp::new(&p, 0, 1);
        let mut last = None;
        while let Some(op) = interp.next_op(&mut mem) {
            last = Some(op.kind);
        }
        assert_eq!(last, Some(OpKind::Halt));
        assert!(interp.next_op(&mut mem).is_none());
    }
}
