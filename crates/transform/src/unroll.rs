//! Unroll-and-jam (Section 3.2) and inner-loop unrolling (Section 3.3).

use mempar_ir::{AffineExpr, BinOp, Bound, ElemType, Expr, Loop, Program, Stmt};

use crate::legality::{can_unroll_and_jam, collect_ranges};
use crate::nest::{container_mut, contains_sync, loop_at, NestPath};
use crate::subst::{
    assigned_scalars, bound_to_expr, first_access_is_def, rename_scalar_stmt, subst_body,
};
use crate::{Legality, TransformError};

/// Where the pieces of an unrolled loop ended up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnrollResult {
    /// Path to the main (unrolled) loop.
    pub main: NestPath,
    /// Path to the postlude loop of leftover iterations, if one was
    /// needed.
    pub postlude: Option<NestPath>,
}

/// Applies **unroll-and-jam** with the given degree to the loop at
/// `path`: the loop is unrolled `degree` times and the copies of each
/// directly nested loop are fused (jammed) into one. Leftover iterations
/// run in an untransformed postlude (Section 2.2).
///
/// Iteration-private scalars (defined before use in the body, e.g. chased
/// pointers) are renamed per copy; cross-iteration scalars (accumulators)
/// are left shared, which keeps copies sequentially dependent through
/// them — exactly as source-level unrolling would.
///
/// Nested loops whose bounds differ between copies (variable trip counts,
/// as in MST's hash chains) are fused up to the *minimum* of their
/// bounds, with per-copy remainder loops — the paper's treatment of
/// variable inner-loop lengths.
///
/// # Errors
///
/// Returns an error when the target is not a step-1 loop, when the body
/// contains synchronization, or when the conservative dependence test
/// cannot prove the jam legal (loops marked parallel are trusted).
pub fn unroll_and_jam(
    prog: &mut Program,
    path: &NestPath,
    degree: u32,
) -> Result<UnrollResult, TransformError> {
    unroll_and_jam_with(prog, path, degree, Legality::Enforce)
}

/// [`unroll_and_jam`] with an explicit [`Legality`] mode. With
/// [`Legality::Bypass`] the dependence test is skipped (structural checks
/// still apply) so a testing harness can force rejected applications and
/// observe the damage.
pub fn unroll_and_jam_with(
    prog: &mut Program,
    path: &NestPath,
    degree: u32,
    legality: Legality,
) -> Result<UnrollResult, TransformError> {
    if degree <= 1 {
        return Ok(UnrollResult {
            main: path.clone(),
            postlude: None,
        });
    }
    let l = loop_at(prog, path).ok_or(TransformError::NotALoop)?;
    if l.step != 1 {
        return Err(TransformError::UnsupportedStep);
    }
    let inner_vars: Vec<_> = collect_loop_vars(&l.body);
    let ranges = collect_ranges(prog, path);
    if legality.enforced()
        && !can_unroll_and_jam(prog, &l.body, l.var, &inner_vars, l.dist.is_some(), &ranges)
    {
        return Err(TransformError::IllegalDependence);
    }
    let l = l.clone();
    let d = degree as i64;

    // Unrolled copies with per-copy renaming of private scalars.
    let private: Vec<_> = assigned_scalars(&l.body)
        .into_iter()
        .filter(|&s| first_access_is_def(&l.body, s))
        .collect();
    let mut copies: Vec<Vec<Stmt>> = Vec::with_capacity(degree as usize);
    for k in 0..d {
        let mut body = subst_body(&l.body, l.var, &AffineExpr::var(l.var).offset(k));
        if k > 0 {
            for &s in &private {
                let decl = prog.scalar(s).clone();
                let fresh = prog.fresh_scalar(format!("{}_u{k}", decl.name), decl.elem);
                prog.scalars[fresh.index()].init_bits = decl.init_bits;
                body = body
                    .iter()
                    .map(|st| rename_scalar_stmt(st, s, fresh))
                    .collect();
            }
        }
        copies.push(body);
    }

    let jammed = jam(prog, copies)?;

    // Bound bookkeeping: main loop runs lo .. t (a multiple of `degree`
    // past lo), postlude runs t .. hi.
    let needs_postlude = match (l.lo.as_const(), l.hi.as_const()) {
        (Some(lo), Some(hi)) => (hi - lo).max(0) % d != 0,
        _ => true,
    };
    if needs_postlude {
        return unroll_and_jam_with_postlude(prog, path, degree, l, jammed);
    }
    let main = Loop {
        var: l.var,
        lo: l.lo.clone(),
        hi: l.hi.clone(),
        step: d,
        dist: l.dist,
        body: jammed,
    };
    let (body_list, idx) = container_mut(prog, path).ok_or(TransformError::NotALoop)?;
    body_list[idx] = Stmt::Loop(main);
    Ok(UnrollResult {
        main: path.clone(),
        postlude: None,
    })
}

/// The postlude-carrying variant (split out to keep borrows simple).
fn unroll_and_jam_with_postlude(
    prog: &mut Program,
    path: &NestPath,
    degree: u32,
    l: Loop,
    jammed: Vec<Stmt>,
) -> Result<UnrollResult, TransformError> {
    let d = degree as i64;
    let t = prog.fresh_scalar(format!("uaj_t_{}", prog.var_name(l.var)), ElemType::I64);
    let lo_e = bound_to_expr(&l.lo);
    let hi_e = bound_to_expr(&l.hi);
    // t = lo + d * ((hi - lo) / d); integer division truncates.
    let span = Expr::bin(BinOp::Sub, hi_e, lo_e.clone());
    let whole = Expr::bin(BinOp::Div, span, Expr::ConstI(d));
    let scaled = Expr::bin(BinOp::Mul, Expr::ConstI(d), whole);
    let t_expr = Expr::bin(BinOp::Add, lo_e, scaled);
    let prelude = Stmt::AssignScalar {
        lhs: t,
        rhs: t_expr,
    };

    let main = Loop {
        var: l.var,
        lo: l.lo.clone(),
        hi: Bound::Scalar(t),
        step: d,
        dist: l.dist,
        body: jammed,
    };
    let postlude = Loop {
        var: l.var,
        lo: Bound::Scalar(t),
        hi: l.hi.clone(),
        step: 1,
        dist: l.dist,
        body: l.body.clone(),
    };
    let (body_list, idx) = container_mut(prog, path).ok_or(TransformError::NotALoop)?;
    body_list[idx] = Stmt::Loop(main);
    body_list.insert(idx + 1, Stmt::Loop(postlude));
    body_list.insert(idx, prelude);

    let mut parent = path.0.clone();
    let last = parent.pop().expect("paths are non-empty");
    let main_path = NestPath([parent.clone(), vec![last + 1]].concat());
    let post_path = NestPath([parent, vec![last + 2]].concat());
    Ok(UnrollResult {
        main: main_path,
        postlude: Some(post_path),
    })
}

/// Fuses the per-copy bodies: non-loop statements are emitted copy-major
/// per position; loops at the same position are jammed (min-jammed when
/// bounds differ).
fn jam(prog: &mut Program, copies: Vec<Vec<Stmt>>) -> Result<Vec<Stmt>, TransformError> {
    let len = copies[0].len();
    debug_assert!(copies.iter().all(|c| c.len() == len));
    let mut out = Vec::new();
    // Transpose access: position-major.
    let mut copies: Vec<Vec<Option<Stmt>>> = copies
        .into_iter()
        .map(|c| c.into_iter().map(Some).collect())
        .collect();
    for p in 0..len {
        let is_loop = matches!(copies[0][p], Some(Stmt::Loop(_)));
        if !is_loop {
            for c in copies.iter_mut() {
                out.push(c[p].take().expect("statement visited once"));
            }
            continue;
        }
        let loops: Vec<Loop> = copies
            .iter_mut()
            .map(|c| match c[p].take() {
                Some(Stmt::Loop(l)) => l,
                _ => unreachable!("copies are structural clones"),
            })
            .collect();
        jam_loops(prog, loops, &mut out)?;
    }
    Ok(out)
}

/// Jams the copies of one nested loop.
fn jam_loops(
    prog: &mut Program,
    loops: Vec<Loop>,
    out: &mut Vec<Stmt>,
) -> Result<(), TransformError> {
    let first = &loops[0];
    let same_bounds = loops
        .iter()
        .all(|l| l.lo == first.lo && l.hi == first.hi && l.step == first.step);
    if same_bounds {
        // Recursive jam: deeper same-structure loops fuse too, so an
        // outer-outer unroll still brings its copies' innermost
        // statements into one loop body (Carr & Kennedy's multi-level
        // unroll-and-jam).
        let (var, lo, hi, step, dist) = (
            first.var,
            first.lo.clone(),
            first.hi.clone(),
            first.step,
            first.dist,
        );
        let body = jam(prog, loops.into_iter().map(|l| l.body).collect())?;
        out.push(Stmt::Loop(Loop {
            var,
            lo,
            hi,
            step,
            dist,
            body,
        }));
        return Ok(());
    }
    // Min-jam: requires equal lower bounds and unit steps.
    if loops.iter().any(|l| l.step != 1 || l.lo != first.lo) {
        return Err(TransformError::UnjammableInnerLoop);
    }
    if loops.iter().any(|l| contains_sync(&l.body)) {
        return Err(TransformError::SyncInBody);
    }
    let m = prog.fresh_scalar(
        format!("jam_min_{}", prog.var_name(first.var)),
        ElemType::I64,
    );
    let mut min_expr = bound_to_expr(&loops[0].hi);
    for l in &loops[1..] {
        min_expr = Expr::bin(BinOp::Min, min_expr, bound_to_expr(&l.hi));
    }
    out.push(Stmt::AssignScalar {
        lhs: m,
        rhs: min_expr,
    });
    let mut fused_body = Vec::new();
    for l in &loops {
        fused_body.extend(l.body.clone());
    }
    out.push(Stmt::Loop(Loop {
        var: first.var,
        lo: first.lo.clone(),
        hi: Bound::Scalar(m),
        step: 1,
        dist: first.dist,
        body: fused_body,
    }));
    // Per-copy remainders continue from the fused minimum.
    for l in loops {
        out.push(Stmt::Loop(Loop {
            var: l.var,
            lo: Bound::Scalar(m),
            hi: l.hi,
            step: 1,
            dist: l.dist,
            body: l.body,
        }));
    }
    Ok(())
}

/// Unrolls the loop at `path` in place (no jamming): the body is repeated
/// `degree` times with adjusted indices, preserving execution order
/// exactly — always legal. Used for window-constraint resolution
/// (Section 3.3).
pub fn inner_unroll(
    prog: &mut Program,
    path: &NestPath,
    degree: u32,
) -> Result<UnrollResult, TransformError> {
    if degree <= 1 {
        return Ok(UnrollResult {
            main: path.clone(),
            postlude: None,
        });
    }
    let l = loop_at(prog, path).ok_or(TransformError::NotALoop)?.clone();
    if l.step != 1 {
        return Err(TransformError::UnsupportedStep);
    }
    let d = degree as i64;
    let mut body = Vec::new();
    for k in 0..d {
        body.extend(subst_body(
            &l.body,
            l.var,
            &AffineExpr::var(l.var).offset(k),
        ));
    }
    let exact = match (l.lo.as_const(), l.hi.as_const()) {
        (Some(lo), Some(hi)) => (hi - lo).max(0) % d == 0,
        _ => false,
    };
    if exact {
        let lm = loop_at_mut_ok(prog, path)?;
        lm.body = body;
        lm.step = d;
        return Ok(UnrollResult {
            main: path.clone(),
            postlude: None,
        });
    }
    unroll_and_jam_with_postlude(prog, path, degree, l.clone(), body)
}

fn loop_at_mut_ok<'p>(
    prog: &'p mut Program,
    path: &NestPath,
) -> Result<&'p mut Loop, TransformError> {
    crate::nest::loop_at_mut(prog, path).ok_or(TransformError::NotALoop)
}

fn collect_loop_vars(body: &[Stmt]) -> Vec<mempar_ir::VarId> {
    let mut out = Vec::new();
    fn walk(body: &[Stmt], out: &mut Vec<mempar_ir::VarId>) {
        for s in body {
            match s {
                Stmt::Loop(l) => {
                    out.push(l.var);
                    walk(&l.body, out);
                }
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    walk(then_branch, out);
                    walk(else_branch, out);
                }
                _ => {}
            }
        }
    }
    walk(body, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nest::innermost_loops;
    use mempar_ir::{run_single, ArrayData, ProgramBuilder, SimMem};

    /// Builds the Figure 2(a) traversal writing `out[j] = sum(a[j][*])`.
    fn fig2a(n: usize) -> (Program, mempar_ir::ArrayId, mempar_ir::ArrayId) {
        let mut b = ProgramBuilder::new("fig2a");
        let a = b.array_f64("a", &[n, n]);
        let out = b.array_f64("out", &[n]);
        let s = b.scalar_f64("sum", 0.0);
        let j = b.var("j");
        let i = b.var("i");
        b.for_const(j, 0, n as i64, |b| {
            let zero = b.constf(0.0);
            b.assign_scalar(s, zero);
            b.for_const(i, 0, n as i64, |b| {
                let v = b.load(a, &[b.idx(j), b.idx(i)]);
                let acc = b.scalar(s);
                let e = b.add(acc, v);
                b.assign_scalar(s, e);
            });
            let fin = b.scalar(s);
            b.assign_array(out, &[b.idx(j)], fin);
        });
        (b.finish(), a, out)
    }

    fn run_fingerprint(p: &Program, a: mempar_ir::ArrayId, n: usize) -> Vec<f64> {
        let mut mem = SimMem::new(p, 1);
        mem.set_array(
            a,
            ArrayData::F64((0..n * n).map(|x| (x % 17) as f64).collect()),
        );
        run_single(p, &mut mem);
        mem.read_f64(mempar_ir::ArrayId::from_raw(1))
    }

    #[test]
    fn uaj_preserves_semantics_even_division() {
        let (mut p, a, _) = fig2a(16);
        let base = run_fingerprint(&p, a, 16);
        let r = unroll_and_jam(&mut p, &NestPath::top(0), 4).expect("legal");
        assert!(r.postlude.is_none(), "16 % 4 == 0: no postlude");
        let clustered = run_fingerprint(&p, a, 16);
        assert_eq!(base, clustered);
    }

    #[test]
    fn uaj_preserves_semantics_with_postlude() {
        let (mut p, a, _) = fig2a(19);
        let base = run_fingerprint(&p, a, 19);
        let r = unroll_and_jam(&mut p, &NestPath::top(0), 4).expect("legal");
        assert!(r.postlude.is_some(), "19 % 4 != 0: postlude required");
        let clustered = run_fingerprint(&p, a, 19);
        assert_eq!(base, clustered);
    }

    #[test]
    fn uaj_jams_inner_loops() {
        let (mut p, _, _) = fig2a(16);
        unroll_and_jam(&mut p, &NestPath::top(0), 4).expect("legal");
        // The outer loop's body should contain exactly one inner loop
        // (the jam) with 4x the statements.
        let outer = loop_at(&p, &NestPath::top(0)).expect("main loop");
        let inner_count = outer
            .body
            .iter()
            .filter(|s| matches!(s, Stmt::Loop(_)))
            .count();
        assert_eq!(inner_count, 1, "4 inner copies fused into one");
        let Stmt::Loop(inner) = outer
            .body
            .iter()
            .find(|s| matches!(s, Stmt::Loop(_)))
            .expect("inner loop")
        else {
            unreachable!()
        };
        assert_eq!(inner.body.len(), 4, "4 copies x 1 statement");
        assert_eq!(outer.step, 4);
    }

    #[test]
    fn uaj_renames_private_scalars() {
        let (mut p, _, _) = fig2a(16);
        let before = p.scalars.len();
        unroll_and_jam(&mut p, &NestPath::top(0), 4).expect("legal");
        // `sum` is defined (zeroed) before use: 3 extra copies.
        assert_eq!(p.scalars.len(), before + 3);
    }

    #[test]
    fn uaj_degree_one_is_noop() {
        let (mut p, _, _) = fig2a(8);
        let before = p.clone();
        let r = unroll_and_jam(&mut p, &NestPath::top(0), 1).expect("noop");
        assert_eq!(p, before);
        assert_eq!(r.main, NestPath::top(0));
    }

    #[test]
    fn uaj_min_jams_variable_inner_loops() {
        // for j: { len = lens[j]; p = starts[j];
        //          for k in 0..len { sum[j] += data[p]; p = next[p] } }
        let n = 12usize;
        let mut b = ProgramBuilder::new("chains");
        let lens = b.array_i64("lens", &[n]);
        let starts = b.array_i64("starts", &[n]);
        let next = b.array_i64("next", &[64]);
        let data = b.array_f64("data", &[64]);
        let sums = b.array_f64("sums", &[n]);
        let len_s = b.scalar_i64("len", 0);
        let p_s = b.scalar_i64("p", 0);
        let j = b.var("j");
        let k = b.var("k");
        b.for_const(j, 0, n as i64, |b| {
            let lv = b.load(lens, &[b.idx(j)]);
            b.assign_scalar(len_s, lv);
            let sv = b.load(starts, &[b.idx(j)]);
            b.assign_scalar(p_s, sv);
            b.for_scalar(k, 0, len_s, |b| {
                let d = b.load_ref(mempar_ir::ArrayRef::new(
                    data,
                    vec![mempar_ir::Index::scalar(p_s)],
                ));
                let old = b.load(sums, &[b.idx(j)]);
                let e = b.add(old, d);
                b.assign_array(sums, &[b.idx(j)], e);
                let nx = b.load_ref(mempar_ir::ArrayRef::new(
                    next,
                    vec![mempar_ir::Index::scalar(p_s)],
                ));
                b.assign_scalar(p_s, nx);
            });
        });
        // The outer loop is parallel in spirit (distinct sums[j]); our
        // conservative test cannot see that through the irregular refs,
        // so mark it parallel the way the paper does for MST.
        let mut p = b.finish();
        {
            let Stmt::Loop(l) = &mut p.body[0] else {
                panic!()
            };
            l.dist = Some(mempar_ir::Dist::Block);
        }

        // Reference run.
        let mk_mem = |p: &Program| {
            let mut mem = SimMem::new(p, 1);
            mem.set_array(lens, ArrayData::I64((0..n as i64).map(|x| x % 5).collect()));
            mem.set_array(
                starts,
                ArrayData::I64((0..n as i64).map(|x| (x * 7) % 64).collect()),
            );
            mem.set_array(
                next,
                ArrayData::I64((0..64).map(|x| (x + 13) % 64).collect()),
            );
            mem.set_array(data, ArrayData::F64((0..64).map(|x| x as f64).collect()));
            mem
        };
        let mut mem = mk_mem(&p);
        run_single(&p, &mut mem);
        let base = mem.read_f64(sums);

        let r = unroll_and_jam(&mut p, &NestPath::top(0), 3).expect("min-jam");
        assert!(r.postlude.is_none(), "12 % 3 == 0");
        let main = loop_at(&p, &r.main).expect("main");
        // Copy-private scalars renamed: len/p for copies 1 and 2.
        assert!(p.scalars.len() >= 2 + 4);
        // Structure: 6 scalar loads/assigns, min assign, fused loop, 3 remainders.
        let loops: Vec<&Loop> = main
            .body
            .iter()
            .filter_map(|s| if let Stmt::Loop(l) = s { Some(l) } else { None })
            .collect();
        assert_eq!(loops.len(), 4, "one fused + three remainder loops");

        let mut mem2 = mk_mem(&p);
        run_single(&p, &mut mem2);
        assert_eq!(mem2.read_f64(sums), base, "min-jam preserves results");
    }

    #[test]
    fn uaj_rejects_illegal_and_sync() {
        // Backward-carried dependence with negative inner distance:
        // a[j][i] = a[j-1][i+1].
        let mut b = ProgramBuilder::new("skew");
        let a = b.array_f64("a", &[8, 8]);
        let j = b.var("j");
        let i = b.var("i");
        b.for_const(j, 1, 8, |b| {
            b.for_const(i, 0, 7, |b| {
                let v = b.load(
                    a,
                    &[
                        b.idx_e(AffineExpr::var(j).offset(-1)),
                        b.idx_e(AffineExpr::var(i).offset(1)),
                    ],
                );
                b.assign_array(a, &[b.idx(j), b.idx(i)], v);
            });
        });
        let mut p = b.finish();
        assert_eq!(
            unroll_and_jam(&mut p, &NestPath::top(0), 2),
            Err(TransformError::IllegalDependence)
        );
    }

    #[test]
    fn inner_unroll_preserves_semantics() {
        let (mut p, a, _) = fig2a(10);
        let base = run_fingerprint(&p, a, 10);
        // Unroll the inner (innermost) loop by 4 (10 % 4 != 0: postlude).
        let inner = innermost_loops(&p)[0].clone();
        let r = inner_unroll(&mut p, &inner, 4).expect("always legal");
        assert!(r.postlude.is_some());
        assert_eq!(run_fingerprint(&p, a, 10), base);
    }

    #[test]
    fn inner_unroll_exact_division_in_place() {
        let (mut p, a, _) = fig2a(16);
        let base = run_fingerprint(&p, a, 16);
        let inner = innermost_loops(&p)[0].clone();
        let r = inner_unroll(&mut p, &inner, 4).expect("legal");
        assert!(r.postlude.is_none());
        let l = loop_at(&p, &inner).expect("in place");
        assert_eq!(l.step, 4);
        assert_eq!(l.body.len(), 4);
        assert_eq!(run_fingerprint(&p, a, 16), base);
    }

    #[test]
    fn uaj_on_distributed_loop_keeps_coverage() {
        // A parallel loop unrolled-and-jammed must still cover all
        // iterations across processors. Lowered to each processor's own
        // block first, every processor also keeps exactly its own
        // iterations: 19 iterations on 4 processors at degree 3, so
        // neither the processor count nor the degree divides the trip.
        let (n, procs) = (19usize, 4usize);
        for own in [false, true] {
            let mut b = ProgramBuilder::new("dist");
            let c = b.array_f64("c", &[n]);
            let j = b.var("j");
            b.for_dist(j, 0, n as i64, mempar_ir::Dist::Block, |b| {
                let one = b.constf(1.0);
                b.assign_array(c, &[b.idx(j)], one);
            });
            let mut p = b.finish();
            if own {
                let l = crate::nest::loop_at_mut(&mut p, &NestPath::top(0)).expect("loop");
                assert!(l.lower_to_own_block());
            }
            let r = unroll_and_jam(&mut p, &NestPath::top(0), 3).expect("parallel");
            assert!(r.postlude.is_some());
            let mut mem = SimMem::new(&p, procs);
            mempar_ir::run_parallel_functional(&p, &mut mem, procs);
            assert!(mem.read_f64(c).iter().all(|&v| v == 1.0));
            if !own {
                continue;
            }
            for proc in 0..procs {
                let mut mem = SimMem::new(&p, procs);
                mempar_ir::Interp::new(&p, proc, procs).run_functional(&mut mem);
                let out = mem.read_f64(c);
                let mine: Vec<i64> = (0..n as i64).filter(|&i| out[i as usize] == 1.0).collect();
                let (start, end) = mempar_ir::block_range(n as i64, proc, procs);
                assert_eq!(mine, (start..end).collect::<Vec<_>>(), "processor {proc}");
            }
        }
    }

    /// Regression (found by differential testing): a shared accumulator
    /// read by a *second* statement in the body is reordered by the jam's
    /// position-major emission and must be rejected, not silently
    /// mis-compiled. `s = s + a[i]; out[i] = s` unrolled by 2 used to
    /// produce `out[i] = s + a[i] + a[i+1]`.
    #[test]
    fn uaj_rejects_shared_scalar_chain_across_statements() {
        let mut b = ProgramBuilder::new("chain");
        let a = b.array_f64("a", &[16]);
        let out = b.array_f64("out", &[16]);
        let s = b.scalar_f64("s", 0.0);
        let i = b.var("i");
        b.for_const(i, 0, 16, |b| {
            let v = b.load(a, &[b.idx(i)]);
            let acc = b.scalar(s);
            let e = b.add(acc, v);
            b.assign_scalar(s, e);
            let rd = b.scalar(s);
            b.assign_array(out, &[b.idx(i)], rd);
        });
        let mut p = b.finish();
        assert_eq!(
            unroll_and_jam(&mut p, &NestPath::top(0), 2),
            Err(TransformError::IllegalDependence)
        );
        // But forcing it through Bypass must rewrite (and diverge) —
        // that is what the difftest harness leans on to prove the
        // rejection was load-bearing.
        assert!(
            crate::unroll_and_jam_with(&mut p, &NestPath::top(0), 2, crate::Legality::Bypass)
                .is_ok()
        );
    }
}
