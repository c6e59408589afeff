//! The flat register VM executing [`BytecodeProgram`]s, plus engine
//! selection ([`Engine`], [`Executor`]) and engine-parametric functional
//! runners.
//!
//! The VM is the drop-in replacement for the tree-walking
//! [`Interp`](crate::Interp): one `Vm` per simulated processor pulls
//! dynamic ops through [`Vm::next_op`] exactly like the interpreter, and
//! by construction yields the *identical* op stream — same kinds,
//! addresses, source/destination vregs, in the same order. Equality of
//! vreg numbering falls out of emitting ops in the same order with the
//! same fresh-allocation policy; the differential gates in
//! `crates/difftest` enforce it over the whole corpus.

use crate::bytecode::{
    bin_value, coerce, to_i64, un_value, BoundCode, BytecodeProgram, DynCode, Insn, Opnd, TOp,
};
use crate::expr::CmpOp;
use crate::interp::{run_single, Interp, RunSummary};
use crate::mem::SimMem;
use crate::program::{block_range, Dist, Program};
use crate::trace::{DynOp, OpKind, SrcList, TraceDigest};

/// Selects which functional engine produces the dynamic-op stream.
///
/// Both engines are observationally identical (bit-identical memory
/// images, op/address traces and simulated cycle counts); the bytecode
/// VM is simply faster. The interpreter remains the reference oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// The recursive tree-walking interpreter ([`Interp`]).
    Interp,
    /// The flat bytecode register VM ([`Vm`]) — the default.
    #[default]
    Bytecode,
}

impl Engine {
    /// Stable lowercase name; round-trips through [`std::str::FromStr`].
    pub fn name(self) -> &'static str {
        match self {
            Engine::Interp => "interp",
            Engine::Bytecode => "bytecode",
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "interp" | "tree" | "tree-walk" => Ok(Engine::Interp),
            "bytecode" | "vm" => Ok(Engine::Bytecode),
            other => Err(format!(
                "unknown engine '{other}' (expected 'interp' or 'bytecode')"
            )),
        }
    }
}

/// Runtime state of one active loop (mirrors the interpreter's
/// `Frame::LoopIter`).
#[derive(Debug, Clone, Copy)]
struct LoopFrame {
    loop_id: u32,
    /// Next iteration number (in 0..trip).
    k: i64,
    k_end: i64,
    /// First loop-variable value and per-iteration delta.
    var0: i64,
    var_step: i64,
    /// Vreg of the scalar upper bound, if any (branch dependence).
    bound_vreg: u32,
}

/// Maximum ops produced per [`Vm::refill`] batch: production runs ahead
/// of consumption by at most this many ops (and never past a
/// synchronization op), which amortizes the per-call dispatch cost while
/// a batch of 40-byte `DynOp`s stays L1-resident.
const BATCH_OPS: usize = 32;

/// The bytecode VM for one simulated processor.
///
/// Shares one compiled [`BytecodeProgram`] across processors; all
/// per-processor state (scalars, loop variables, temporaries, vreg
/// counter, loop frames) lives here.
#[derive(Debug)]
pub struct Vm<'p> {
    code: &'p BytecodeProgram,
    proc_id: usize,
    nprocs: usize,
    pc: u32,
    scalar_vals: Vec<u64>,
    scalar_vregs: Vec<u32>,
    var_vals: Vec<i64>,
    var_vregs: Vec<u32>,
    temps: Vec<u64>,
    temp_vregs: Vec<u32>,
    next_vreg: u32,
    /// Batch of produced-ahead ops (see [`Vm::refill`]); drained by
    /// index so nothing shifts.
    out: Vec<DynOp>,
    out_head: usize,
    frames: Vec<LoopFrame>,
    barriers_seen: u32,
    halted: bool,
}

impl<'p> Vm<'p> {
    /// Creates a VM for processor `proc_id` of `nprocs`.
    ///
    /// # Panics
    /// Panics if `proc_id >= nprocs` or `nprocs == 0`.
    pub fn new(code: &'p BytecodeProgram, proc_id: usize, nprocs: usize) -> Self {
        assert!(nprocs > 0 && proc_id < nprocs, "bad processor id");
        Vm {
            code,
            proc_id,
            nprocs,
            pc: 0,
            scalar_vals: code.scalar_inits.clone(),
            scalar_vregs: vec![0; code.scalar_inits.len()],
            var_vals: vec![0; code.n_vars],
            var_vregs: vec![0; code.n_vars],
            temps: vec![0; code.n_temps],
            temp_vregs: vec![0; code.n_temps],
            next_vreg: 1,
            out: Vec::with_capacity(BATCH_OPS + 4),
            out_head: 0,
            frames: Vec::new(),
            barriers_seen: 0,
            halted: false,
        }
    }

    /// The processor this VM runs as.
    pub fn proc_id(&self) -> usize {
        self.proc_id
    }

    /// Produces the next dynamic op, or `None` when the program has ended
    /// (after a final [`OpKind::Halt`] has been returned).
    ///
    /// The fast path is an inlined indexed pop from the current batch;
    /// [`Vm::refill`] produces the ops in bulk.
    #[inline]
    pub fn next_op(&mut self, mem: &mut SimMem) -> Option<DynOp> {
        if self.out_head < self.out.len() {
            return self.pop_out();
        }
        if self.halted {
            return None;
        }
        self.refill(mem);
        self.pop_out()
    }

    /// Runs the program to completion without a timing model.
    pub fn run_functional(&mut self, mem: &mut SimMem) -> RunSummary {
        let mut s = RunSummary::default();
        while let Some(op) = self.next_op(mem) {
            s.count(&op);
        }
        s
    }

    #[inline]
    fn fresh(&mut self) -> u32 {
        let v = self.next_vreg;
        self.next_vreg += 1;
        v
    }

    #[inline]
    fn emit(&mut self, kind: OpKind, srcs: SrcList, dst: Option<u32>) {
        self.out.push(DynOp { kind, srcs, dst });
    }

    #[inline]
    fn pop_out(&mut self) -> Option<DynOp> {
        let op = self.out.get(self.out_head).copied();
        if op.is_some() {
            self.out_head += 1;
            if self.out_head == self.out.len() {
                self.out.clear();
                self.out_head = 0;
            }
        }
        op
    }

    /// Current value bits and producing vreg of an operand.
    #[inline]
    fn operand(&self, t: TOp) -> (u64, u32) {
        match t.opnd {
            Opnd::Imm(b) => (b, 0),
            Opnd::Var(i) => (self.var_vals[i as usize] as u64, self.var_vregs[i as usize]),
            Opnd::Scalar(i) => (self.scalar_vals[i as usize], self.scalar_vregs[i as usize]),
            Opnd::Temp(i) => (self.temps[i as usize], self.temp_vregs[i as usize]),
            Opnd::Edge(i) => (
                self.code.edges[i as usize].eval(self.proc_id, self.nprocs) as u64,
                0,
            ),
        }
    }

    /// Fills the (empty) batch with up to [`BATCH_OPS`] dynamic ops by
    /// executing ahead of the consumer.
    ///
    /// Running ahead is observationally safe for exactly the programs
    /// the oracle accepts: within a synchronization phase the checked
    /// modes are conflict-free, so when a write lands relative to
    /// another processor's reads cannot change any value read — and a
    /// batch never extends past a synchronization op (`Barrier`,
    /// `FlagSet`, `FlagWait`, `Halt`), so cross-phase ordering is
    /// preserved. The tree-walking interpreter leans on the same
    /// argument at statement granularity (its per-statement buffer).
    /// Pure control flow continues in place — but every loop back-edge
    /// passes `LoopHead`, which always emits, so this cannot spin.
    fn refill(&mut self, mem: &mut SimMem) {
        debug_assert!(self.out.is_empty() && self.out_head == 0);
        let code = self.code;
        while self.out.len() < BATCH_OPS {
            match &code.insns[self.pc as usize] {
                Insn::Bin {
                    op,
                    kind,
                    a,
                    b,
                    dst,
                } => {
                    let (av, ar) = self.operand(*a);
                    let (bv, br) = self.operand(*b);
                    let bits = bin_value(*op, a.is_f, av, b.is_f, bv);
                    let v = self.fresh();
                    let mut srcs = SrcList::new();
                    if ar != 0 {
                        srcs.push(ar);
                    }
                    if br != 0 {
                        srcs.push(br);
                    }
                    self.temps[*dst as usize] = bits;
                    self.temp_vregs[*dst as usize] = v;
                    self.pc += 1;
                    self.emit(kind.op_kind(), srcs, Some(v));
                }
                Insn::Un { op, kind, a, dst } => {
                    let (av, ar) = self.operand(*a);
                    let bits = un_value(*op, a.is_f, av);
                    let v = self.fresh();
                    let mut srcs = SrcList::new();
                    if ar != 0 {
                        srcs.push(ar);
                    }
                    self.temps[*dst as usize] = bits;
                    self.temp_vregs[*dst as usize] = v;
                    self.pc += 1;
                    self.emit(kind.op_kind(), srcs, Some(v));
                }
                Insn::Folded { kind, bits, dst } => {
                    let v = self.fresh();
                    self.temps[*dst as usize] = *bits;
                    self.temp_vregs[*dst as usize] = v;
                    self.pc += 1;
                    self.emit(kind.op_kind(), SrcList::new(), Some(v));
                }
                Insn::Load { ref_id, dst } => {
                    let (addr, srcs) = self.resolve_ref(*ref_id, mem, false);
                    let bits = mem.load_bits(addr);
                    let v = self.fresh();
                    self.temps[*dst as usize] = bits;
                    self.temp_vregs[*dst as usize] = v;
                    self.pc += 1;
                    self.emit(OpKind::Load { addr }, srcs, Some(v));
                }
                Insn::Store { ref_id, src, to_f } => {
                    let (addr, mut srcs) = self.resolve_ref(*ref_id, mem, false);
                    let (bits, r) = self.operand(*src);
                    if r != 0 {
                        srcs.push(r);
                    }
                    mem.store_bits(addr, coerce(bits, src.is_f, *to_f));
                    self.pc += 1;
                    self.emit(OpKind::Store { addr }, srcs, None);
                }
                Insn::SetScalar { scalar, src, to_f } => {
                    let (bits, r) = self.operand(*src);
                    self.scalar_vals[*scalar as usize] = coerce(bits, src.is_f, *to_f);
                    self.scalar_vregs[*scalar as usize] = r;
                    self.pc += 1;
                }
                Insn::Prefetch { ref_id } => {
                    let (addr, srcs) = self.resolve_ref(*ref_id, mem, true);
                    self.pc += 1;
                    self.emit(OpKind::Prefetch { addr }, srcs, None);
                }
                Insn::LoopEnter { loop_id } => {
                    let lc = &code.loops[*loop_id as usize];
                    let (lo, lo_vreg) = self.resolve_bound(&lc.lo);
                    let (hi, hi_vreg) = self.resolve_bound(&lc.hi);
                    let bound_vreg = if hi_vreg != 0 { hi_vreg } else { lo_vreg };
                    let step = lc.step;
                    let span = (hi - lo).max(0);
                    let astep = step.abs();
                    let trip = (span + astep - 1) / astep;
                    let (var0, var_step) = if step > 0 { (lo, step) } else { (hi - 1, step) };
                    let (k0, k_end) = match lc.dist {
                        Some(Dist::Block) => block_range(trip, self.proc_id, self.nprocs),
                        None | Some(Dist::Own) => (0, trip),
                    };
                    if k0 >= k_end {
                        // Still emit the (not-taken) loop-entry branch.
                        let cmp = self.fresh();
                        self.emit(OpKind::Int, SrcList::new(), Some(cmp));
                        let mut b = SrcList::new();
                        b.push(cmp);
                        self.emit(OpKind::Branch, b, None);
                        self.pc = lc.exit;
                        continue;
                    }
                    self.frames.push(LoopFrame {
                        loop_id: *loop_id,
                        k: k0,
                        k_end,
                        var0,
                        var_step,
                        bound_vreg,
                    });
                    self.pc += 1;
                }
                Insn::LoopHead { loop_id, var, exit } => {
                    let fr = self.frames.last_mut().expect("loop head without frame");
                    debug_assert_eq!(fr.loop_id, *loop_id, "frame/insn loop mismatch");
                    if fr.k >= fr.k_end {
                        self.frames.pop();
                        self.pc = *exit;
                        continue;
                    }
                    let value = fr.var0 + fr.k * fr.var_step;
                    fr.k += 1;
                    let bound_vreg = fr.bound_vreg;
                    let var = *var as usize;
                    let prev = self.var_vregs[var];
                    let counter = self.fresh();
                    let mut srcs = SrcList::new();
                    if prev != 0 {
                        srcs.push(prev);
                    }
                    let mut bsrcs = SrcList::new();
                    bsrcs.push(counter);
                    if bound_vreg != 0 {
                        bsrcs.push(bound_vreg);
                    }
                    self.var_vals[var] = value;
                    self.var_vregs[var] = counter;
                    self.pc += 1;
                    self.emit(OpKind::Int, srcs, Some(counter));
                    self.emit(OpKind::Branch, bsrcs, None);
                }
                Insn::Jump { target } => self.pc = *target,
                Insn::CondBr { cond_id, if_false } => {
                    // One pass evaluates the affine guard and collects its
                    // variable dependences (terms order = push order).
                    let cc = &code.conds[*cond_id as usize];
                    let mut v = cc.lhs.konst;
                    let mut srcs = SrcList::new();
                    for &(vi, c) in cc.lhs.terms.iter() {
                        v += c * self.var_vals[vi as usize];
                        let r = self.var_vregs[vi as usize];
                        if r != 0 {
                            srcs.push(r);
                        }
                    }
                    let taken = match cc.op {
                        CmpOp::Lt => v < 0,
                        CmpOp::Le => v <= 0,
                        CmpOp::Gt => v > 0,
                        CmpOp::Ge => v >= 0,
                        CmpOp::Eq => v == 0,
                        CmpOp::Ne => v != 0,
                    };
                    let cmp = self.fresh();
                    self.pc = if taken { self.pc + 1 } else { *if_false };
                    self.emit(OpKind::Int, srcs, Some(cmp));
                    let mut b = SrcList::new();
                    b.push(cmp);
                    self.emit(OpKind::Branch, b, None);
                }
                Insn::Barrier => {
                    let id = self.barriers_seen;
                    self.barriers_seen += 1;
                    self.pc += 1;
                    self.emit(OpKind::Barrier { id }, SrcList::new(), None);
                    break;
                }
                Insn::FlagSet { aff_id } => {
                    let flag = code.affs[*aff_id as usize].eval(&self.var_vals) as u32;
                    self.pc += 1;
                    self.emit(OpKind::FlagSet { flag }, SrcList::new(), None);
                    break;
                }
                Insn::FlagWait { aff_id } => {
                    let flag = code.affs[*aff_id as usize].eval(&self.var_vals) as u32;
                    self.pc += 1;
                    self.emit(OpKind::FlagWait { flag }, SrcList::new(), None);
                    break;
                }
                Insn::Halt => {
                    self.halted = true;
                    self.emit(OpKind::Halt, SrcList::new(), None);
                    break;
                }
            }
        }
    }

    fn resolve_bound(&self, b: &BoundCode) -> (i64, u32) {
        match b {
            BoundCode::Const(c) => (*c, 0),
            BoundCode::Affine(a) => (a.eval(&self.var_vals), 0),
            BoundCode::Scalar { scalar, elem_f } => (
                to_i64(self.scalar_vals[*scalar as usize], *elem_f),
                self.scalar_vregs[*scalar as usize],
            ),
            BoundCode::Block(e) => (e.eval(self.proc_id, self.nprocs), 0),
        }
    }

    /// Computes the address of a compiled reference, emitting loads for
    /// indirect index components; returns the address and its dependence
    /// sources. With `clamped`, every dimension (and inner reference) is
    /// clamped into the array extent — non-faulting prefetch resolution.
    fn resolve_ref(&mut self, ref_id: u32, mem: &mut SimMem, clamped: bool) -> (u64, SrcList) {
        let code = self.code;
        let rc = &code.refs[ref_id as usize];
        // Fast path (release only): purely affine references use the
        // pre-folded base-plus-terms form. Debug builds take the general
        // path below so the interpreter's per-dimension bounds asserts
        // are preserved; both paths produce identical addresses/sources.
        #[cfg(not(debug_assertions))]
        if !clamped {
            if let Some(f) = &rc.folded {
                let mut flat = f.konst;
                for &(vi, c) in f.terms.iter() {
                    flat += c * self.var_vals[vi as usize];
                }
                let mut srcs = SrcList::new();
                for &vi in f.srcs.iter() {
                    let r = self.var_vregs[vi as usize];
                    if r != 0 {
                        srcs.push(r);
                    }
                }
                assert!(
                    flat >= 0 && (flat as u64) < rc.len,
                    "flattened index {flat} out of bounds for array {} (len {})",
                    rc.name,
                    rc.len
                );
                return (mem.elem_addr(rc.array, flat as u64), srcs);
            }
        }
        let mut srcs = SrcList::new();
        let mut flat: i64 = 0;
        for (_d, dim) in rc.dims.iter().enumerate() {
            let mut v = dim.affine.eval(&self.var_vals);
            for &(vi, _) in dim.affine.terms.iter() {
                let r = self.var_vregs[vi as usize];
                if r != 0 {
                    srcs.push(r);
                }
            }
            match &dim.dynamic {
                None => {}
                Some(DynCode::Scalar {
                    scalar,
                    elem_f,
                    scale,
                }) => {
                    let sv = to_i64(self.scalar_vals[*scalar as usize], *elem_f);
                    v += sv * scale;
                    let r = self.scalar_vregs[*scalar as usize];
                    if r != 0 {
                        srcs.push(r);
                    }
                }
                Some(DynCode::Indirect {
                    ref_id: inner,
                    elem_f,
                    scale,
                }) => {
                    let (iaddr, isrcs) = self.resolve_ref(*inner, mem, clamped);
                    let bits = mem.load_bits(iaddr);
                    let dst = self.fresh();
                    self.emit(OpKind::Load { addr: iaddr }, isrcs, Some(dst));
                    v += to_i64(bits, *elem_f) * scale;
                    srcs.push(dst);
                }
            }
            if clamped {
                v = v.clamp(0, dim.extent - 1);
            } else {
                debug_assert!(
                    v >= 0 && v < dim.extent,
                    "index {v} out of bounds in dim {_d} of array {} (extent {})",
                    rc.name,
                    dim.extent
                );
            }
            flat = flat * dim.extent + v;
        }
        if !clamped {
            assert!(
                flat >= 0 && (flat as u64) < rc.len,
                "flattened index {flat} out of bounds for array {} (len {})",
                rc.name,
                rc.len
            );
        }
        (mem.elem_addr(rc.array, flat as u64), srcs)
    }
}

/// An engine-selected functional executor for one simulated processor:
/// either a tree-walking [`Interp`] or a bytecode [`Vm`], behind one
/// `next_op` interface. The simulator keeps one per core.
#[derive(Debug)]
pub enum Executor<'p> {
    /// Tree-walking interpreter.
    Interp(Interp<'p>),
    /// Bytecode VM (borrows a shared compiled program).
    Vm(Vm<'p>),
}

impl<'p> Executor<'p> {
    /// Processor `pid` of `nprocs` running `prog`: on the VM when `code`
    /// (compiled from `prog`) is given, else on the tree-walking
    /// interpreter.
    pub fn new(
        prog: &'p Program,
        code: Option<&'p BytecodeProgram>,
        pid: usize,
        nprocs: usize,
    ) -> Self {
        match code {
            Some(code) => Executor::Vm(Vm::new(code, pid, nprocs)),
            None => Executor::Interp(Interp::new(prog, pid, nprocs)),
        }
    }

    /// Produces the next dynamic op, or `None` at end of program.
    #[inline]
    pub fn next_op(&mut self, mem: &mut SimMem) -> Option<DynOp> {
        match self {
            Executor::Interp(i) => i.next_op(mem),
            Executor::Vm(v) => v.next_op(mem),
        }
    }

    /// The processor this executor runs as.
    pub fn proc_id(&self) -> usize {
        match self {
            Executor::Interp(i) => i.proc_id(),
            Executor::Vm(v) => v.proc_id(),
        }
    }

    /// Runs to completion without a timing model.
    pub fn run_functional(&mut self, mem: &mut SimMem) -> RunSummary {
        match self {
            Executor::Interp(i) => i.run_functional(mem),
            Executor::Vm(v) => v.run_functional(mem),
        }
    }
}

/// Engine-selectable [`run_single`](crate::run_single): runs `prog` to
/// completion on a single processor.
pub fn run_single_with(prog: &Program, mem: &mut SimMem, engine: Engine) -> RunSummary {
    match engine {
        Engine::Interp => run_single(prog, mem),
        Engine::Bytecode => {
            let code = BytecodeProgram::compile(prog);
            Vm::new(&code, 0, 1).run_functional(mem)
        }
    }
}

/// Engine-selectable
/// [`run_parallel_functional`](crate::run_parallel_functional): runs
/// `prog` functionally with `nprocs` processors under `engine`,
/// interleaving ops round-robin while honoring barriers and flags.
///
/// # Panics
/// Panics when synchronization deadlocks (a flag waited on but never
/// set).
pub fn run_parallel_functional_with(
    prog: &Program,
    mem: &mut SimMem,
    nprocs: usize,
    engine: Engine,
) -> RunSummary {
    run_parallel_functional_visit(prog, mem, nprocs, engine, |_, _| {})
}

/// [`run_parallel_functional_with`] that also hands every op to `visit`,
/// together with the id of the processor that produced it, in the order
/// the run executes them.
pub fn run_parallel_functional_visit(
    prog: &Program,
    mem: &mut SimMem,
    nprocs: usize,
    engine: Engine,
    mut visit: impl FnMut(usize, &DynOp),
) -> RunSummary {
    let code = (engine == Engine::Bytecode).then(|| BytecodeProgram::compile(prog));
    let mut execs: Vec<Executor> = (0..nprocs)
        .map(|p| Executor::new(prog, code.as_ref(), p, nprocs))
        .collect();
    run_parallel_executors(&mut execs, mem, &mut visit)
}

/// Drains the op streams of processors `0..nprocs` running `prog` under
/// `engine`, one processor after another on `mem`, into one order-
/// sensitive digest. With one processor this is the program's sequential
/// op stream.
pub fn digest_ops(prog: &Program, mem: &mut SimMem, nprocs: usize, engine: Engine) -> TraceDigest {
    let code = (engine == Engine::Bytecode).then(|| BytecodeProgram::compile(prog));
    let mut digest = TraceDigest::new();
    for pid in 0..nprocs {
        let mut exec = Executor::new(prog, code.as_ref(), pid, nprocs);
        while let Some(op) = exec.next_op(mem) {
            digest.absorb(&op);
        }
    }
    digest
}

/// The shared round-robin scheduler behind the parallel functional
/// runners. Barrier arrival counts live in a flat `Vec` indexed by
/// barrier id (ids are numbered 0, 1, 2, … per processor, so the vector
/// is dense and grows to the deepest barrier reached).
fn run_parallel_executors(
    execs: &mut [Executor],
    mem: &mut SimMem,
    visit: &mut impl FnMut(usize, &DynOp),
) -> RunSummary {
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Ready,
        AtBarrier(u32),
        AtFlag(u32),
        Done,
    }
    let nprocs = execs.len();
    let mut states = vec![State::Ready; nprocs];
    let mut flags: Vec<u32> = Vec::new();
    let mut barrier_counts: Vec<usize> = Vec::new();
    let at_barrier = |counts: &[usize], id: u32| counts.get(id as usize).copied().unwrap_or(0);
    let mut total = RunSummary::default();
    loop {
        // Release processors whose sync condition is met.
        for state in states.iter_mut() {
            match *state {
                State::AtBarrier(id) if at_barrier(&barrier_counts, id) == nprocs => {
                    *state = State::Ready;
                }
                State::AtFlag(f) if flags.contains(&f) => *state = State::Ready,
                _ => {}
            }
        }
        if states.iter().all(|&s| s == State::Done) {
            return total;
        }
        let mut progressed = false;
        for (p, exec) in execs.iter_mut().enumerate() {
            if states[p] != State::Ready {
                continue;
            }
            for _ in 0..64 {
                match exec.next_op(mem) {
                    Some(op) => {
                        progressed = true;
                        total.count(&op);
                        visit(p, &op);
                        match op.kind {
                            OpKind::Barrier { id } => {
                                let i = id as usize;
                                if i >= barrier_counts.len() {
                                    barrier_counts.resize(i + 1, 0);
                                }
                                barrier_counts[i] += 1;
                                states[p] = State::AtBarrier(id);
                            }
                            OpKind::FlagSet { flag } if !flags.contains(&flag) => {
                                flags.push(flag);
                            }
                            OpKind::FlagWait { flag } if !flags.contains(&flag) => {
                                states[p] = State::AtFlag(flag);
                            }
                            _ => {}
                        }
                    }
                    None => {
                        // Reaching end-of-trace is progress too.
                        progressed = true;
                        states[p] = State::Done;
                    }
                }
                if states[p] != State::Ready {
                    break;
                }
            }
        }
        // Re-check sync releases; if nothing moved and nothing can be
        // released, the program deadlocked.
        if !progressed {
            let releasable = states.iter().any(|s| match *s {
                State::AtBarrier(id) => at_barrier(&barrier_counts, id) == nprocs,
                State::AtFlag(f) => flags.contains(&f),
                _ => false,
            });
            assert!(
                releasable,
                "functional parallel run deadlocked (unset flag or partial barrier)"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::expr::{AffineExpr, Cond};
    use crate::mem::ArrayData;
    use crate::program::{ArrayRef, Index};

    /// Asserts both engines produce op-for-op identical streams (kinds,
    /// addresses, srcs, dsts) and identical final memory for processor
    /// `proc` of `nprocs`, with `setup` initializing each memory image.
    fn assert_same_stream(
        p: &Program,
        proc: usize,
        nprocs: usize,
        setup: impl Fn(&Program, &mut SimMem),
    ) {
        let mut mi = SimMem::new(p, nprocs);
        let mut mv = SimMem::new(p, nprocs);
        setup(p, &mut mi);
        setup(p, &mut mv);
        let code = BytecodeProgram::compile(p);
        let mut interp = Interp::new(p, proc, nprocs);
        let mut vm = Vm::new(&code, proc, nprocs);
        let mut n = 0usize;
        loop {
            let oi = interp.next_op(&mut mi);
            let ov = vm.next_op(&mut mv);
            assert_eq!(oi, ov, "stream diverges at op {n} (program {})", p.name);
            n += 1;
            if oi.is_none() {
                break;
            }
        }
        assert_eq!(
            mi.fingerprint(),
            mv.fingerprint(),
            "memory diverges (program {})",
            p.name
        );
    }

    fn no_setup(_: &Program, _: &mut SimMem) {}

    #[test]
    fn sum_reduction_matches() {
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
        let p = b.finish();
        assert_same_stream(&p, 0, 1, |_, m| {
            m.set_array(a, ArrayData::f64_fill(32, 2.0));
        });
    }

    #[test]
    fn indirect_gather_matches() {
        let mut b = ProgramBuilder::new("gather");
        let ind = b.array_i64("ind", &[4]);
        let data = b.array_f64("data", &[10]);
        let c = b.array_f64("c", &[4]);
        let i = b.var("i");
        b.for_const(i, 0, 4, |b| {
            let inner = ArrayRef::new(ind, vec![Index::affine(AffineExpr::var(i))]);
            let v = b.load_ref(ArrayRef::new(data, vec![Index::indirect(inner)]));
            b.assign_array(c, &[Index::affine(AffineExpr::var(i))], v);
        });
        let p = b.finish();
        assert_same_stream(&p, 0, 1, |_, m| {
            m.set_array(ind, ArrayData::I64(vec![9, 0, 3, 3]));
            m.set_array(
                data,
                ArrayData::F64((0..10).map(|x| x as f64 * 10.0).collect()),
            );
        });
    }

    #[test]
    fn pointer_chase_matches_and_chains() {
        let mut b = ProgramBuilder::new("chase");
        let next = b.array_i64("next", &[8]);
        let p_s = b.scalar_i64("p", 0);
        let i = b.var("i");
        b.for_const(i, 0, 4, |b| {
            let v = b.load_ref(ArrayRef::new(next, vec![Index::scalar(p_s)]));
            b.assign_scalar(p_s, v);
        });
        let p = b.finish();
        assert_same_stream(&p, 0, 1, |_, m| {
            m.set_array(next, ArrayData::I64(vec![3, 0, 1, 5, 2, 7, 4, 6]));
        });
        // And the VM alone must serialize the chase through the scalar vreg.
        let mut mem = SimMem::new(&p, 1);
        mem.set_array(next, ArrayData::I64(vec![3, 0, 1, 5, 2, 7, 4, 6]));
        let code = BytecodeProgram::compile(&p);
        let mut vm = Vm::new(&code, 0, 1);
        let mut last_load_dst: Option<u32> = None;
        let mut loads = 0;
        while let Some(op) = vm.next_op(&mut mem) {
            if let OpKind::Load { .. } = op.kind {
                if let Some(prev) = last_load_dst {
                    assert!(
                        op.srcs.as_slice().contains(&prev),
                        "chase load must depend on previous load"
                    );
                }
                last_load_dst = op.dst;
                loads += 1;
            }
        }
        assert_eq!(loads, 4);
    }

    #[test]
    fn guards_and_else_branches_match() {
        let mut b = ProgramBuilder::new("guard");
        let c = b.array_f64("c", &[8]);
        let s = b.scalar_f64("s", 0.0);
        let i = b.var("i");
        b.for_const(i, 0, 8, |b| {
            let cond = Cond::lt(AffineExpr::var(i), AffineExpr::konst(3));
            b.if_then_else(
                cond,
                |b| {
                    let one = b.constf(1.0);
                    b.assign_array(c, &[Index::affine(AffineExpr::var(i))], one);
                },
                |b| {
                    let acc = b.scalar(s);
                    let two = b.constf(2.0);
                    let nv = b.add(acc, two);
                    b.assign_scalar(s, nv);
                },
            );
        });
        let p = b.finish();
        assert_same_stream(&p, 0, 1, no_setup);
    }

    /// A 13-iteration block loop, lowered to each processor's own block
    /// when `own`; the block's end is also stored through an expression.
    fn block_program(own: bool) -> Program {
        let mut b = ProgramBuilder::new("dist");
        let c = b.array_f64("c", &[13]);
        let ends = b.array_i64("ends", &[1]);
        let i = b.var("i");
        b.for_dist(i, 0, 13, Dist::Block, |b| {
            let one = b.constf(1.0);
            b.assign_array(c, &[Index::affine(AffineExpr::var(i))], one);
        });
        let mut p = b.finish();
        if own {
            let crate::Stmt::Loop(l) = &mut p.body[0] else {
                unreachable!()
            };
            assert!(l.lower_to_own_block());
            let end = crate::program::BlockEdge {
                lo: 0,
                trip: 13,
                upper: true,
            };
            p.body.push(crate::Stmt::AssignArray {
                lhs: ArrayRef::new(ends, vec![Index::affine(0)]),
                rhs: Expr::BlockEdge(end),
            });
        }
        p
    }

    #[test]
    fn distributions_match_every_proc() {
        for own in [false, true] {
            let p = block_program(own);
            for proc in 0..4 {
                assert_same_stream(&p, proc, 4, no_setup);
            }
        }
    }

    #[test]
    fn negative_step_and_affine_bounds_match() {
        // Triangular loop i in 0..j, then a backwards (negative-step) loop.
        let mut b = ProgramBuilder::new("tri");
        let c2 = b.array_f64("c", &[8, 8]);
        let j2 = b.var("j");
        let i2 = b.var("i");
        b.for_const(j2, 0, 8, |b| {
            b.for_affine(i2, 0i64, AffineExpr::var(j2), |b| {
                let one = b.constf(1.0);
                b.assign_array(
                    c2,
                    &[
                        Index::affine(AffineExpr::var(j2)),
                        Index::affine(AffineExpr::var(i2)),
                    ],
                    one,
                );
            });
        });
        let k = b.var("k");
        b.for_step(k, 0, 8, -2, |b| {
            let two = b.constf(2.0);
            b.assign_array(
                c2,
                &[
                    Index::affine(AffineExpr::konst(0)),
                    Index::affine(AffineExpr::var(k)),
                ],
                two,
            );
        });
        let p = b.finish();
        assert_same_stream(&p, 0, 1, no_setup);
    }

    #[test]
    fn scalar_bound_empty_loop_and_sync_match() {
        let mut b = ProgramBuilder::new("mix");
        let c = b.array_f64("c", &[8]);
        let n = b.scalar_i64("n", 5);
        let z = b.scalar_i64("z", 0);
        let i = b.var("i");
        let j = b.var("j");
        b.flags(2);
        b.barrier();
        b.for_scalar(i, 0, n, |b| {
            let one = b.constf(1.0);
            b.assign_array(c, &[Index::affine(AffineExpr::var(i))], one);
        });
        // Empty loop: scalar bound 0 still emits the entry branch.
        b.for_scalar(j, 0, z, |b| {
            let two = b.constf(2.0);
            b.assign_array(c, &[Index::affine(AffineExpr::var(j))], two);
        });
        b.flag_set(AffineExpr::konst(1));
        b.flag_wait(AffineExpr::konst(1));
        b.barrier();
        let p = b.finish();
        assert_same_stream(&p, 0, 1, no_setup);
    }

    #[test]
    fn arithmetic_kinds_and_folding_match() {
        let mut b = ProgramBuilder::new("arith");
        let c = b.array_f64("c", &[16]);
        let d = b.array_i64("d", &[16]);
        let i = b.var("i");
        b.for_const(i, 0, 16, |b| {
            // Constant-folded chain: (2.0 * 3.0) + 1.0.
            let t = b.mul(b.constf(2.0), b.constf(3.0));
            let f = b.add(t, b.constf(1.0));
            // Mixed int/float with div, sqrt, neg, min/max and loop var.
            let iv = b.loop_var(i);
            let q = b.div(f, b.constf(4.0));
            let sq = b.sqrt(q);
            let neg = b.neg(sq);
            let mx = b.max(neg, iv.clone());
            b.assign_array(c, &[Index::affine(AffineExpr::var(i))], mx);
            // Integer side: wrapping mul, div-by-zero => 0, abs.
            let im = b.mul(iv.clone(), b.consti(3));
            let idiv = b.div(im, b.consti(0));
            let ab = Expr::un(UnOp::Abs, b.sub(idiv, b.consti(7)));
            b.assign_array(d, &[Index::affine(AffineExpr::var(i))], ab);
        });
        let p = b.finish();
        assert_same_stream(&p, 0, 1, no_setup);
    }

    #[test]
    fn prefetch_clamping_matches() {
        let mut b = ProgramBuilder::new("pf");
        let a = b.array_f64("a", &[16]);
        let s = b.scalar_f64("acc", 0.0);
        let i = b.var("i");
        b.for_const(i, 0, 16, |b| {
            // Prefetch runs 4 ahead — clamps at the end of the array.
            b.prefetch(a, &[Index::affine(AffineExpr::var(i).offset(4))]);
            let v = b.load(a, &[b.idx(i)]);
            let acc = b.scalar(s);
            let nv = b.add(acc, v);
            b.assign_scalar(s, nv);
        });
        let p = b.finish();
        assert_same_stream(&p, 0, 1, |_, m| {
            m.set_array(a, ArrayData::F64((0..16).map(|x| x as f64).collect()));
        });
    }

    #[test]
    fn parallel_functional_matches_across_engines() {
        let mut b = ProgramBuilder::new("par");
        let c = b.array_f64("c", &[64]);
        let i = b.var("i");
        b.for_dist(i, 0, 64, Dist::Block, |b| {
            let one = b.constf(1.0);
            b.assign_array(c, &[Index::affine(AffineExpr::var(i))], one);
        });
        b.barrier();
        let s = b.scalar_f64("acc", 0.0);
        let j = b.var("j");
        b.for_dist(j, 0, 64, Dist::Block, |b| {
            let v = b.load(c, &[b.idx(j)]);
            let acc = b.scalar(s);
            let nv = b.add(acc, v);
            b.assign_scalar(s, nv);
        });
        let mut p = b.finish();
        let crate::Stmt::Loop(l) = &mut p.body[2] else {
            unreachable!()
        };
        assert!(l.lower_to_own_block());
        let mut m1 = SimMem::new(&p, 4);
        let s1 = run_parallel_functional_with(&p, &mut m1, 4, Engine::Interp);
        let mut m2 = SimMem::new(&p, 4);
        let s2 = run_parallel_functional_with(&p, &mut m2, 4, Engine::Bytecode);
        assert_eq!(s1, s2);
        assert_eq!(m1.fingerprint(), m2.fingerprint());
    }

    #[test]
    fn engine_parses_and_displays() {
        assert_eq!("interp".parse::<Engine>().unwrap(), Engine::Interp);
        assert_eq!("bytecode".parse::<Engine>().unwrap(), Engine::Bytecode);
        assert_eq!("vm".parse::<Engine>().unwrap(), Engine::Bytecode);
        assert!("jit".parse::<Engine>().is_err());
        assert_eq!(Engine::default(), Engine::Bytecode);
        assert_eq!(Engine::Bytecode.to_string(), "bytecode");
    }

    use crate::expr::{Expr, UnOp};
}
