//! Bytecode lowering: compiles a [`Program`]'s loop nests into a flat,
//! branch-target-resolved register-machine bytecode.
//!
//! The tree-walking interpreter ([`Interp`](crate::Interp)) re-walks the
//! statement tree and re-resolves every name on every dynamic instruction:
//! each array access chases `ArrayRef -> ArrayDecl -> dims/strides`, each
//! affine index iterates a `Vec<(VarId, i64)>` through a lookup closure,
//! and each expression node is dispatched recursively. The compiler in
//! this module does all of that name resolution **once**, ahead of time:
//!
//! * expression trees are flattened into linear [`Insn`] sequences over
//!   numbered temporary slots (a register machine, no recursion);
//! * array references become [`RefCode`]s with extents and — for purely
//!   affine references — a pre-folded `base + sum(coeff * var)` form with
//!   the row-major strides already multiplied through ([`FoldedRef`]);
//! * loop bounds, guard conditions and flag indices become [`AffineCode`]s
//!   indexing a dense loop-variable slot array;
//! * constant subexpressions are folded at compile time (the op is still
//!   *emitted* at run time so the dynamic op stream is unchanged — only
//!   the value computation is hoisted);
//! * control flow (loops, guards) is resolved to absolute instruction
//!   targets, so the VM in [`vm`](crate::vm) is a flat `pc`-driven loop.
//!
//! The compiled program is engine-equivalent by construction: the VM
//! yields exactly the op stream the interpreter yields — same kinds, same
//! addresses, same source/destination vregs, in the same order — which is
//! enforced by the differential gates in `crates/difftest`.

use crate::expr::{AffineExpr, BinOp, CmpOp, Expr, UnOp};
use crate::program::{
    ArrayId, ArrayRef, BlockEdge, Bound, Dist, DynIndex, ElemType, Loop, Program, Stmt,
};
use crate::trace::{FpUnit, OpKind};

/// Statically-resolved op kind of an arithmetic instruction (the dynamic
/// op emitted per execution; resolvable at compile time because operand
/// types are static — scalars are coerced to their declared element type
/// on every assignment and loads are typed by the array declaration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EmitKind {
    FpArith,
    FpDiv,
    FpSqrt,
    Int,
    IntMul,
}

impl EmitKind {
    pub(crate) fn op_kind(self) -> OpKind {
        match self {
            EmitKind::FpArith => OpKind::Fp {
                unit: FpUnit::Arith,
            },
            EmitKind::FpDiv => OpKind::Fp { unit: FpUnit::Div },
            EmitKind::FpSqrt => OpKind::Fp { unit: FpUnit::Sqrt },
            EmitKind::Int => OpKind::Int,
            EmitKind::IntMul => OpKind::IntMul,
        }
    }
}

/// Where an instruction operand's value (and producing vreg) lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Opnd {
    /// Constant bits; vreg 0 (no producing op).
    Imm(u64),
    /// Loop-variable slot.
    Var(u32),
    /// Scalar slot.
    Scalar(u32),
    /// Expression-temporary slot.
    Temp(u32),
    /// Block edge (index into [`BytecodeProgram::edges`]); vreg 0.
    Edge(u32),
}

/// An operand together with its static value type (`true` = f64 bits).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TOp {
    pub opnd: Opnd,
    pub is_f: bool,
}

/// One bytecode instruction.
#[derive(Debug, Clone)]
pub(crate) enum Insn {
    /// Binary arithmetic into temp `dst`, emitting one ALU/FPU op.
    Bin {
        op: BinOp,
        kind: EmitKind,
        a: TOp,
        b: TOp,
        dst: u32,
    },
    /// Unary arithmetic into temp `dst`.
    Un {
        op: UnOp,
        kind: EmitKind,
        a: TOp,
        dst: u32,
    },
    /// Constant-folded arithmetic: the value is precomputed, but the op is
    /// still emitted (fresh dst, no sources) to keep the stream identical.
    Folded { kind: EmitKind, bits: u64, dst: u32 },
    /// Array load into temp `dst` (emits the `Load` op).
    Load { ref_id: u32, dst: u32 },
    /// Array store of `src` (emits the `Store` op; coerces to the array's
    /// element type when `to_f` differs from the operand type).
    Store { ref_id: u32, src: TOp, to_f: bool },
    /// Scalar assignment (register-allocated: emits nothing).
    SetScalar { scalar: u32, src: TOp, to_f: bool },
    /// Software prefetch (clamped address resolution, emits `Prefetch`).
    Prefetch { ref_id: u32 },
    /// Loop entry: resolve bounds, distribute iterations; on an empty
    /// range emit the not-taken entry branch and jump to `exit`.
    LoopEnter { loop_id: u32 },
    /// Per-iteration head: emit the counter update + loop branch and fall
    /// through into the body, or pop the frame and jump to `exit`.
    /// Carries the loop's variable slot and exit target inline so the hot
    /// per-iteration path never touches the `loops` side table.
    LoopHead { loop_id: u32, var: u32, exit: u32 },
    /// Unconditional branch.
    Jump { target: u32 },
    /// Guard: emit the compare + branch ops, fall through when taken.
    CondBr { cond_id: u32, if_false: u32 },
    /// Global barrier (ids numbered per processor in execution order).
    Barrier,
    /// Flag set (release) with an affine flag index.
    FlagSet { aff_id: u32 },
    /// Flag wait (acquire) with an affine flag index.
    FlagWait { aff_id: u32 },
    /// End of program: emit `Halt` and stop.
    Halt,
}

/// A compiled affine expression over loop-variable slots.
#[derive(Debug, Clone)]
pub(crate) struct AffineCode {
    pub konst: i64,
    /// `(loop-var slot, coefficient)` in the normal-form (sorted) order.
    pub terms: Box<[(u32, i64)]>,
}

impl AffineCode {
    fn from_expr(e: &AffineExpr) -> Self {
        AffineCode {
            konst: e.constant_term(),
            terms: e.terms().map(|(v, c)| (v.index() as u32, c)).collect(),
        }
    }

    /// Evaluates against the dense loop-variable value array.
    pub(crate) fn eval(&self, vars: &[i64]) -> i64 {
        let mut v = self.konst;
        for &(vi, c) in self.terms.iter() {
            v += c * vars[vi as usize];
        }
        v
    }
}

/// The dynamic (non-affine) part of one index dimension.
#[derive(Debug, Clone)]
pub(crate) enum DynCode {
    /// `scale * scalar` (pointer chasing).
    Scalar {
        scalar: u32,
        elem_f: bool,
        scale: i64,
    },
    /// `scale * load(refs[ref_id])` (indirect indexing).
    Indirect {
        ref_id: u32,
        elem_f: bool,
        scale: i64,
    },
}

/// One dimension of a compiled array reference.
#[derive(Debug, Clone)]
pub(crate) struct DimCode {
    pub extent: i64,
    pub affine: AffineCode,
    pub dynamic: Option<DynCode>,
}

/// Pre-folded flat-index form of a purely affine reference: the row-major
/// strides are multiplied through the per-dimension affine parts, giving
/// `flat = konst + sum(coeff * var)` in one pass.
///
/// Only the release-mode VM fast path reads these fields — debug builds
/// take the general per-dimension path to preserve the interpreter's
/// per-dimension bounds asserts.
#[derive(Debug, Clone)]
#[cfg_attr(debug_assertions, allow(dead_code))]
pub(crate) struct FoldedRef {
    pub konst: i64,
    /// `(loop-var slot, stride * coefficient)` merged across dimensions.
    pub terms: Box<[(u32, i64)]>,
    /// Loop-var slots in the interpreter's per-dimension source push
    /// order (first occurrence kept — `SrcList::push` dedups anyway).
    pub srcs: Box<[u32]>,
}

/// A compiled array reference.
#[derive(Debug, Clone)]
pub(crate) struct RefCode {
    pub array: ArrayId,
    /// Total element count (release-mode flat bounds assert).
    pub len: u64,
    /// Element type of the referenced array (`true` = f64).
    pub elem_f: bool,
    /// Fast path for purely affine references (read in release builds
    /// only — see [`FoldedRef`]).
    #[cfg_attr(debug_assertions, allow(dead_code))]
    pub folded: Option<FoldedRef>,
    /// General per-dimension resolution (dynamic indices, clamped
    /// prefetch resolution, and debug-mode per-dimension bounds checks).
    pub dims: Box<[DimCode]>,
    /// Array name for panic messages.
    pub name: Box<str>,
}

/// A compiled loop bound.
#[derive(Debug, Clone)]
pub(crate) enum BoundCode {
    Const(i64),
    Affine(AffineCode),
    Scalar { scalar: u32, elem_f: bool },
    Block(BlockEdge),
}

/// A compiled loop: bounds, step, distribution and the exit target (the
/// variable slot lives inline in [`Insn::LoopHead`]).
#[derive(Debug, Clone)]
pub(crate) struct LoopCode {
    pub lo: BoundCode,
    pub hi: BoundCode,
    pub step: i64,
    pub dist: Option<Dist>,
    /// First instruction after the loop.
    pub exit: u32,
}

/// A compiled guard condition `affine OP 0`.
#[derive(Debug, Clone)]
pub(crate) struct CondCode {
    pub lhs: AffineCode,
    pub op: CmpOp,
}

/// A [`Program`] lowered to flat register-machine bytecode.
///
/// Produced by [`BytecodeProgram::compile`]; executed by one
/// [`Vm`](crate::Vm) per simulated processor. The compiled form is
/// position-independent state: any number of VMs (one per processor)
/// can share one `BytecodeProgram`.
#[derive(Debug, Clone)]
pub struct BytecodeProgram {
    pub(crate) insns: Vec<Insn>,
    pub(crate) refs: Vec<RefCode>,
    pub(crate) loops: Vec<LoopCode>,
    pub(crate) conds: Vec<CondCode>,
    pub(crate) affs: Vec<AffineCode>,
    /// Block edges read by expressions (evaluated per processor).
    pub(crate) edges: Vec<BlockEdge>,
    /// Initial scalar bit patterns (indexed by scalar slot).
    pub(crate) scalar_inits: Vec<u64>,
    pub(crate) n_vars: usize,
    /// Expression-temporary slots needed (watermark over all statements).
    pub(crate) n_temps: usize,
}

impl BytecodeProgram {
    /// Lowers `prog` into bytecode. The program should be validated
    /// (`prog.validate()`); the compiler asserts the same structural
    /// invariants the interpreter asserts (nonzero steps, rank match).
    pub fn compile(prog: &Program) -> BytecodeProgram {
        let mut c = Compiler {
            prog,
            insns: Vec::new(),
            refs: Vec::new(),
            loops: Vec::new(),
            conds: Vec::new(),
            affs: Vec::new(),
            edges: Vec::new(),
            n_temps: 0,
        };
        c.compile_block(&prog.body);
        c.insns.push(Insn::Halt);
        BytecodeProgram {
            insns: c.insns,
            refs: c.refs,
            loops: c.loops,
            conds: c.conds,
            affs: c.affs,
            edges: c.edges,
            scalar_inits: prog.scalars.iter().map(|s| s.init_bits).collect(),
            n_vars: prog.var_names.len(),
            n_temps: c.n_temps as usize,
        }
    }
}

/// Binary-op value semantics, shared verbatim between compile-time
/// folding and the VM: must match `Interp::eval` bit-for-bit.
pub(crate) fn bin_value(op: BinOp, a_f: bool, ab: u64, b_f: bool, bb: u64) -> u64 {
    if a_f || b_f {
        let (x, y) = (to_f64(ab, a_f), to_f64(bb, b_f));
        let v = match op {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => x / y,
            BinOp::Min => x.min(y),
            BinOp::Max => x.max(y),
        };
        v.to_bits()
    } else {
        let (x, y) = (ab as i64, bb as i64);
        let v = match op {
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
        };
        v as u64
    }
}

/// Unary-op value semantics (see [`bin_value`]).
pub(crate) fn un_value(op: UnOp, a_f: bool, ab: u64) -> u64 {
    match (op, a_f) {
        (UnOp::Neg, true) => (-f64::from_bits(ab)).to_bits(),
        (UnOp::Neg, false) => (-(ab as i64)) as u64,
        (UnOp::Abs, true) => f64::from_bits(ab).abs().to_bits(),
        (UnOp::Abs, false) => (ab as i64).unsigned_abs(),
        (UnOp::Sqrt, _) => to_f64(ab, a_f).sqrt().to_bits(),
    }
}

pub(crate) fn to_f64(bits: u64, is_f: bool) -> f64 {
    if is_f {
        f64::from_bits(bits)
    } else {
        (bits as i64) as f64
    }
}

pub(crate) fn to_i64(bits: u64, is_f: bool) -> i64 {
    if is_f {
        f64::from_bits(bits) as i64
    } else {
        bits as i64
    }
}

/// Coerces `bits` of type `is_f` to the target type `to_f` — the
/// assignment coercion the interpreter applies to every scalar and array
/// store (values always land in the declared element type).
pub(crate) fn coerce(bits: u64, is_f: bool, to_f: bool) -> u64 {
    match (is_f, to_f) {
        (true, true) | (false, false) => bits,
        (false, true) => ((bits as i64) as f64).to_bits(),
        (true, false) => (f64::from_bits(bits) as i64) as u64,
    }
}

struct Compiler<'p> {
    prog: &'p Program,
    insns: Vec<Insn>,
    refs: Vec<RefCode>,
    loops: Vec<LoopCode>,
    conds: Vec<CondCode>,
    affs: Vec<AffineCode>,
    edges: Vec<BlockEdge>,
    n_temps: u32,
}

impl<'p> Compiler<'p> {
    fn here(&self) -> u32 {
        self.insns.len() as u32
    }

    fn claim_temps(&mut self, n: u32) {
        self.n_temps = self.n_temps.max(n);
    }

    fn is_f_scalar(&self, s: crate::program::ScalarId) -> bool {
        matches!(self.prog.scalar(s).elem, ElemType::F64)
    }

    fn compile_block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.compile_stmt(s);
        }
    }

    fn compile_stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::AssignArray { lhs, rhs } => {
                let src = self.compile_expr(rhs, 0);
                let ref_id = self.compile_ref(lhs);
                let to_f = matches!(self.prog.array(lhs.array).elem, ElemType::F64);
                self.insns.push(Insn::Store { ref_id, src, to_f });
            }
            Stmt::AssignScalar { lhs, rhs } => {
                let src = self.compile_expr(rhs, 0);
                let to_f = self.is_f_scalar(*lhs);
                self.insns.push(Insn::SetScalar {
                    scalar: lhs.index() as u32,
                    src,
                    to_f,
                });
            }
            Stmt::Loop(lp) => self.compile_loop(lp),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let cond_id = self.conds.len() as u32;
                self.conds.push(CondCode {
                    lhs: AffineCode::from_expr(&cond.lhs),
                    op: cond.op,
                });
                let br_at = self.here() as usize;
                self.insns.push(Insn::CondBr {
                    cond_id,
                    if_false: 0,
                });
                self.compile_block(then_branch);
                if else_branch.is_empty() {
                    let end = self.here();
                    let Insn::CondBr { if_false, .. } = &mut self.insns[br_at] else {
                        unreachable!()
                    };
                    *if_false = end;
                } else {
                    let jump_at = self.here() as usize;
                    self.insns.push(Insn::Jump { target: 0 });
                    let else_start = self.here();
                    let Insn::CondBr { if_false, .. } = &mut self.insns[br_at] else {
                        unreachable!()
                    };
                    *if_false = else_start;
                    self.compile_block(else_branch);
                    let end = self.here();
                    let Insn::Jump { target } = &mut self.insns[jump_at] else {
                        unreachable!()
                    };
                    *target = end;
                }
            }
            Stmt::Barrier => self.insns.push(Insn::Barrier),
            Stmt::FlagSet { idx } => {
                let aff_id = self.push_aff(idx);
                self.insns.push(Insn::FlagSet { aff_id });
            }
            Stmt::FlagWait { idx } => {
                let aff_id = self.push_aff(idx);
                self.insns.push(Insn::FlagWait { aff_id });
            }
            Stmt::Prefetch { target } => {
                let ref_id = self.compile_ref(target);
                self.insns.push(Insn::Prefetch { ref_id });
            }
        }
    }

    fn push_aff(&mut self, e: &AffineExpr) -> u32 {
        let id = self.affs.len() as u32;
        self.affs.push(AffineCode::from_expr(e));
        id
    }

    fn compile_loop(&mut self, lp: &Loop) {
        assert!(lp.step != 0, "loop step must be nonzero");
        let loop_id = self.loops.len() as u32;
        self.loops.push(LoopCode {
            lo: self.compile_bound(&lp.lo),
            hi: self.compile_bound(&lp.hi),
            step: lp.step,
            dist: lp.dist,
            exit: 0,
        });
        self.insns.push(Insn::LoopEnter { loop_id });
        let head = self.here();
        self.insns.push(Insn::LoopHead {
            loop_id,
            var: lp.var.index() as u32,
            exit: 0,
        });
        self.compile_block(&lp.body);
        self.insns.push(Insn::Jump { target: head });
        let exit_pc = self.here();
        self.loops[loop_id as usize].exit = exit_pc;
        let Insn::LoopHead { exit, .. } = &mut self.insns[head as usize] else {
            unreachable!()
        };
        *exit = exit_pc;
    }

    fn compile_bound(&self, b: &Bound) -> BoundCode {
        match b {
            Bound::Const(c) => BoundCode::Const(*c),
            Bound::Affine(e) => BoundCode::Affine(AffineCode::from_expr(e)),
            Bound::Scalar(s) => BoundCode::Scalar {
                scalar: s.index() as u32,
                elem_f: self.is_f_scalar(*s),
            },
            Bound::Block(e) => BoundCode::Block(*e),
        }
    }

    /// Flattens an expression tree into instructions whose temporaries
    /// live in slots `base..`; returns the operand holding the result.
    /// Leaves (constants, vars, scalars) use no slot; every op-emitting
    /// node deposits its result in slot `base` exactly when evaluation
    /// reaches it, so the left subtree's result (parked in `base`) only
    /// needs one extra slot while the right subtree runs.
    fn compile_expr(&mut self, e: &Expr, base: u32) -> TOp {
        match e {
            Expr::ConstF(x) => TOp {
                opnd: Opnd::Imm(x.to_bits()),
                is_f: true,
            },
            Expr::ConstI(x) => TOp {
                opnd: Opnd::Imm(*x as u64),
                is_f: false,
            },
            Expr::LoopVar(v) => TOp {
                opnd: Opnd::Var(v.index() as u32),
                is_f: false,
            },
            Expr::Scalar(s) => TOp {
                opnd: Opnd::Scalar(s.index() as u32),
                is_f: self.is_f_scalar(*s),
            },
            Expr::BlockEdge(e) => {
                self.edges.push(*e);
                TOp {
                    opnd: Opnd::Edge(self.edges.len() as u32 - 1),
                    is_f: false,
                }
            }
            Expr::Load(r) => {
                let ref_id = self.compile_ref(r);
                self.claim_temps(base + 1);
                let elem_f = self.refs[ref_id as usize].elem_f;
                self.insns.push(Insn::Load { ref_id, dst: base });
                TOp {
                    opnd: Opnd::Temp(base),
                    is_f: elem_f,
                }
            }
            Expr::Unary(op, a) => {
                let a_t = self.compile_expr(a, base);
                let is_f = match op {
                    UnOp::Sqrt => true,
                    UnOp::Neg | UnOp::Abs => a_t.is_f,
                };
                let kind = match (op, a_t.is_f) {
                    (UnOp::Sqrt, _) => EmitKind::FpSqrt,
                    (_, true) => EmitKind::FpArith,
                    (_, false) => EmitKind::Int,
                };
                self.claim_temps(base + 1);
                if let Opnd::Imm(bits) = a_t.opnd {
                    let bits = un_value(*op, a_t.is_f, bits);
                    self.insns.push(Insn::Folded {
                        kind,
                        bits,
                        dst: base,
                    });
                } else {
                    self.insns.push(Insn::Un {
                        op: *op,
                        kind,
                        a: a_t,
                        dst: base,
                    });
                }
                TOp {
                    opnd: Opnd::Temp(base),
                    is_f,
                }
            }
            Expr::Binary(op, a, b) => {
                let a_t = self.compile_expr(a, base);
                let b_base = base + matches!(a_t.opnd, Opnd::Temp(_)) as u32;
                let b_t = self.compile_expr(b, b_base);
                let float = a_t.is_f || b_t.is_f;
                let kind = match (float, op) {
                    (true, BinOp::Div) => EmitKind::FpDiv,
                    (true, _) => EmitKind::FpArith,
                    (false, BinOp::Mul) | (false, BinOp::Div) => EmitKind::IntMul,
                    (false, _) => EmitKind::Int,
                };
                self.claim_temps(base + 1);
                if let (Opnd::Imm(ab), Opnd::Imm(bb)) = (a_t.opnd, b_t.opnd) {
                    let bits = bin_value(*op, a_t.is_f, ab, b_t.is_f, bb);
                    self.insns.push(Insn::Folded {
                        kind,
                        bits,
                        dst: base,
                    });
                } else {
                    self.insns.push(Insn::Bin {
                        op: *op,
                        kind,
                        a: a_t,
                        b: b_t,
                        dst: base,
                    });
                }
                TOp {
                    opnd: Opnd::Temp(base),
                    is_f: float,
                }
            }
        }
    }

    /// Compiles an array reference (inner indirect references first, so
    /// their ids exist before the outer reference's `DynCode` names them).
    fn compile_ref(&mut self, r: &ArrayRef) -> u32 {
        let prog = self.prog;
        let decl = prog.array(r.array);
        debug_assert_eq!(
            decl.dims.len(),
            r.indices.len(),
            "rank mismatch on array {}",
            decl.name
        );
        let mut dims = Vec::with_capacity(r.indices.len());
        for (d, ix) in r.indices.iter().enumerate() {
            let dynamic = match &ix.dynamic {
                None => None,
                Some(DynIndex::Scalar { scalar, scale }) => Some(DynCode::Scalar {
                    scalar: scalar.index() as u32,
                    elem_f: matches!(prog.scalar(*scalar).elem, ElemType::F64),
                    scale: *scale,
                }),
                Some(DynIndex::Indirect { inner, scale }) => Some(DynCode::Indirect {
                    ref_id: self.compile_ref(inner),
                    elem_f: matches!(prog.array(inner.array).elem, ElemType::F64),
                    scale: *scale,
                }),
            };
            dims.push(DimCode {
                extent: decl.dims[d] as i64,
                affine: AffineCode::from_expr(&ix.affine),
                dynamic,
            });
        }
        let folded = if r.is_affine() {
            let strides = decl.strides();
            let mut konst = 0i64;
            let mut terms: Vec<(u32, i64)> = Vec::new();
            let mut srcs: Vec<u32> = Vec::new();
            for (d, ix) in r.indices.iter().enumerate() {
                let s = strides[d] as i64;
                konst += s * ix.affine.constant_term();
                for (v, c) in ix.affine.terms() {
                    let vi = v.index() as u32;
                    match terms.iter_mut().find(|t| t.0 == vi) {
                        Some(t) => t.1 += s * c,
                        None => terms.push((vi, s * c)),
                    }
                    if !srcs.contains(&vi) {
                        srcs.push(vi);
                    }
                }
            }
            Some(FoldedRef {
                konst,
                terms: terms.into(),
                srcs: srcs.into(),
            })
        } else {
            None
        };
        let id = self.refs.len() as u32;
        self.refs.push(RefCode {
            array: r.array,
            len: decl.len() as u64,
            elem_f: matches!(decl.elem, ElemType::F64),
            folded,
            dims: dims.into(),
            name: decl.name.clone().into_boxed_str(),
        });
        id
    }
}
