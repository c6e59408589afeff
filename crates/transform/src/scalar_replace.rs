//! Scalar replacement of loop-invariant array references — one of the
//! secondary benefits unroll-and-jam was originally proposed for
//! (Callahan/Carr/Kennedy), and the source of the CPU-side gains the
//! paper reports for FFT and LU.

use mempar_ir::{ArrayRef, Expr, Program, Stmt, VarId};

use crate::legality::{collect_ranges, pair_dependence, PairDep};
use crate::nest::{container_mut, loop_at, NestPath};
use crate::TransformError;

/// Applies scalar replacement to the innermost loop at `path`:
///
/// * **Read-only invariants** — `t = A[...]` hoisted before the loop,
///   body loads become scalar reads.
/// * **Invariant reductions** — `A[...] = f(A[...], ...)` with an
///   invariant target becomes a scalar accumulator, stored back once
///   after the loop.
///
/// Only references provably independent of every other write in the body
/// are replaced. Returns the number of replaced references, and the new
/// path of the loop (hoisting inserts statements before it).
pub fn scalar_replace(
    prog: &mut Program,
    path: &NestPath,
) -> Result<(usize, NestPath), TransformError> {
    let l = loop_at(prog, path).ok_or(TransformError::NotALoop)?.clone();
    let var = l.var;
    let ranges = collect_ranges(prog, path);
    // Only handle straight-line bodies (no nested control flow).
    if l.body
        .iter()
        .any(|s| !matches!(s, Stmt::AssignArray { .. } | Stmt::AssignScalar { .. }))
    {
        return Ok((0, path.clone()));
    }

    // Collect distinct invariant refs and all refs.
    let mut reads: Vec<ArrayRef> = Vec::new();
    let mut writes: Vec<ArrayRef> = Vec::new();
    for s in &l.body {
        s.visit_local_refs(&mut |r, w| {
            if w {
                writes.push(r.clone());
            } else {
                reads.push(r.clone());
            }
        });
    }
    let invariant =
        |r: &ArrayRef| r.is_affine() && r.indices.iter().all(|ix| ix.affine.is_free_of(var));

    let mut candidates: Vec<(ArrayRef, bool)> = Vec::new(); // (ref, is_reduction)
    let mut seen: Vec<ArrayRef> = Vec::new();
    for r in reads.iter().filter(|r| invariant(r)) {
        if seen.contains(r) {
            continue;
        }
        seen.push(r.clone());
        // Writes to the same array must be exactly `r` (reduction) or
        // provably independent.
        let mut reduction = false;
        let mut safe = true;
        for w in &writes {
            if w.array != r.array {
                continue;
            }
            if w == r {
                reduction = true;
            } else {
                match pair_dependence(prog, r, w, &[var], &ranges) {
                    PairDep::Independent => {}
                    _ => {
                        safe = false;
                        break;
                    }
                }
            }
        }
        // Scalarizing the write target defers the memory store to the
        // postlude, so every *other* read of the same array must be
        // provably independent of `r` too — otherwise an aliasing read
        // (e.g. `a[4 - 2i]` meeting `a[0]` at i = 2) would see stale
        // memory. Found by differential testing (crates/difftest,
        // seed 397).
        if safe && reduction {
            for rd in &reads {
                if rd.array != r.array || rd == r {
                    continue;
                }
                match pair_dependence(prog, r, rd, &[var], &ranges) {
                    PairDep::Independent => {}
                    _ => {
                        safe = false;
                        break;
                    }
                }
            }
        }
        if safe {
            candidates.push((r.clone(), reduction));
        }
    }
    // Also pure write-invariant reductions where the read form matches.
    if candidates.is_empty() {
        return Ok((0, path.clone()));
    }

    // Build replacement: prelude loads, rewritten body, postlude stores.
    let mut preludes = Vec::new();
    let mut postludes = Vec::new();
    let mut body = l.body.clone();
    let n = candidates.len();
    for (r, reduction) in candidates {
        let name = format!("sr_{}", prog.array(r.array).name);
        let t = prog.fresh_scalar(name, prog.array(r.array).elem);
        preludes.push(Stmt::AssignScalar {
            lhs: t,
            rhs: Expr::Load(r.clone()),
        });
        body = body.iter().map(|s| replace_in_stmt(s, &r, t)).collect();
        if reduction {
            postludes.push(Stmt::AssignArray {
                lhs: r.clone(),
                rhs: Expr::Scalar(t),
            });
        }
    }

    let dist = l.dist;
    let new_loop = Stmt::Loop(mempar_ir::Loop {
        var,
        lo: l.lo,
        hi: l.hi,
        step: l.step,
        dist,
        body,
    });
    let (container, idx) = container_mut(prog, path).ok_or(TransformError::NotALoop)?;
    container[idx] = new_loop;
    let shift = preludes.len();
    for (k, s) in preludes.into_iter().enumerate() {
        container.insert(idx + k, s);
    }
    for (k, s) in postludes.into_iter().enumerate() {
        container.insert(idx + shift + 1 + k, s);
    }
    let mut p = path.0.clone();
    let last = p.pop().expect("non-empty");
    p.push(last + shift);
    Ok((n, NestPath(p)))
}

/// Replaces loads of `target` with scalar `t`, and stores to `target`
/// with scalar assignments.
fn replace_in_stmt(s: &Stmt, target: &ArrayRef, t: mempar_ir::ScalarId) -> Stmt {
    match s {
        Stmt::AssignArray { lhs, rhs } if lhs == target => Stmt::AssignScalar {
            lhs: t,
            rhs: replace_in_expr(rhs, target, t),
        },
        Stmt::AssignArray { lhs, rhs } => Stmt::AssignArray {
            lhs: lhs.clone(),
            rhs: replace_in_expr(rhs, target, t),
        },
        Stmt::AssignScalar { lhs, rhs } => Stmt::AssignScalar {
            lhs: *lhs,
            rhs: replace_in_expr(rhs, target, t),
        },
        other => other.clone(),
    }
}

fn replace_in_expr(e: &Expr, target: &ArrayRef, t: mempar_ir::ScalarId) -> Expr {
    match e {
        Expr::Load(r) if r == target => Expr::Scalar(t),
        Expr::Load(_)
        | Expr::ConstF(_)
        | Expr::ConstI(_)
        | Expr::Scalar(_)
        | Expr::LoopVar(_)
        | Expr::BlockEdge(_) => e.clone(),
        Expr::Unary(op, a) => Expr::un(*op, replace_in_expr(a, target, t)),
        Expr::Binary(op, a, b) => Expr::bin(
            *op,
            replace_in_expr(a, target, t),
            replace_in_expr(b, target, t),
        ),
    }
}

/// Counts array loads in a loop body (before/after comparisons in tests
/// and reports).
pub fn count_loads(body: &[Stmt]) -> usize {
    let mut n = 0;
    for s in body {
        s.visit_local_refs(&mut |_, w| {
            if !w {
                n += 1;
            }
        });
    }
    n
}

#[allow(dead_code)]
fn _unused(_: VarId) {}

#[cfg(test)]
mod tests {
    use super::*;
    use mempar_ir::{run_single, ArrayData, ProgramBuilder, SimMem};

    /// LU-like update: C[i][j] -= L[i][k] * U[k][j] over k — C[i][j] is
    /// invariant in k (a reduction).
    fn matmul_kernel(n: usize) -> (mempar_ir::Program, [mempar_ir::ArrayId; 3], NestPath) {
        let mut b = ProgramBuilder::new("mm");
        let c = b.array_f64("c", &[n, n]);
        let lmat = b.array_f64("l", &[n, n]);
        let umat = b.array_f64("u", &[n, n]);
        let i = b.var("i");
        let j = b.var("j");
        let k = b.var("k");
        b.for_const(i, 0, n as i64, |b| {
            b.for_const(j, 0, n as i64, |b| {
                b.for_const(k, 0, n as i64, |b| {
                    let cv = b.load(c, &[b.idx(i), b.idx(j)]);
                    let lv = b.load(lmat, &[b.idx(i), b.idx(k)]);
                    let uv = b.load(umat, &[b.idx(k), b.idx(j)]);
                    let prod = b.mul(lv, uv);
                    let e = b.sub(cv, prod);
                    b.assign_array(c, &[b.idx(i), b.idx(j)], e);
                });
            });
        });
        (b.finish(), [c, lmat, umat], NestPath(vec![0, 0, 0]))
    }

    fn run_mm(p: &mempar_ir::Program, ids: [mempar_ir::ArrayId; 3], n: usize) -> Vec<f64> {
        let mut mem = SimMem::new(p, 1);
        for a in ids {
            mem.set_array(
                a,
                ArrayData::F64((0..n * n).map(|x| ((x % 7) as f64) - 3.0).collect()),
            );
        }
        run_single(p, &mut mem);
        mem.read_f64(ids[0])
    }

    #[test]
    fn reduction_replaced_and_correct() {
        let n = 8;
        let (mut p, ids, path) = matmul_kernel(n);
        let base = run_mm(&p, ids, n);
        let (count, new_path) = scalar_replace(&mut p, &path).expect("ok");
        assert_eq!(count, 1, "C[i][j] is the one invariant");
        assert_eq!(run_mm(&p, ids, n), base);
        // The k-loop body no longer loads C.
        let l = loop_at(&p, &new_path).expect("loop moved by prelude");
        assert_eq!(count_loads(&l.body), 2, "only L and U remain");
        // Store-back exists after the loop.
        let parent = loop_at(&p, &new_path.parent().expect("j loop")).expect("j loop");
        assert!(
            parent
                .body
                .iter()
                .any(|s| matches!(s, Stmt::AssignArray { .. })),
            "store-back after the k loop"
        );
    }

    #[test]
    fn read_only_invariant_hoisted() {
        // y[i] += x[0] * a[i]: x[0] invariant read-only.
        let n = 16;
        let mut b = ProgramBuilder::new("ax");
        let x = b.array_f64("x", &[1]);
        let a = b.array_f64("a", &[n]);
        let y = b.array_f64("y", &[n]);
        let i = b.var("i");
        b.for_const(i, 0, n as i64, |b| {
            let xv = b.load(x, &[b.idx_e(mempar_ir::AffineExpr::konst(0))]);
            let av = b.load(a, &[b.idx(i)]);
            let yv = b.load(y, &[b.idx(i)]);
            let prod = b.mul(xv, av);
            let e = b.add(yv, prod);
            b.assign_array(y, &[b.idx(i)], e);
        });
        let mut p = b.finish();
        let (count, new_path) = scalar_replace(&mut p, &NestPath::top(0)).expect("ok");
        assert_eq!(count, 1);
        let l = loop_at(&p, &new_path).expect("loop");
        assert_eq!(count_loads(&l.body), 2, "x[0] hoisted");
        let mut mem = SimMem::new(&p, 1);
        mem.set_array(x, ArrayData::F64(vec![3.0]));
        mem.set_array(a, ArrayData::f64_fill(n, 2.0));
        run_single(&p, &mut mem);
        assert!(mem.read_f64(y).iter().all(|&v| v == 6.0));
    }

    #[test]
    fn aliasing_write_blocks_replacement() {
        // t-candidate a[0] but body writes a[i]: may alias at i=0.
        let n = 8;
        let mut b = ProgramBuilder::new("alias");
        let a = b.array_f64("a", &[n]);
        let i = b.var("i");
        b.for_const(i, 0, n as i64, |b| {
            let first = b.load(a, &[b.idx_e(mempar_ir::AffineExpr::konst(0))]);
            b.assign_array(a, &[b.idx(i)], first);
        });
        let mut p = b.finish();
        let (count, _) = scalar_replace(&mut p, &NestPath::top(0)).expect("ok");
        assert_eq!(count, 0, "possible alias must block replacement");
    }

    #[test]
    fn nested_control_flow_skipped() {
        let mut b = ProgramBuilder::new("ctl");
        let a = b.array_f64("a", &[8]);
        let j = b.var("j");
        let i = b.var("i");
        b.for_const(j, 0, 4, |b| {
            b.for_const(i, 0, 8, |b| {
                let v = b.load(a, &[b.idx(i)]);
                b.assign_array(a, &[b.idx(i)], v);
            });
        });
        let mut p = b.finish();
        // The *outer* loop body contains a loop: bail without changing.
        let (count, path) = scalar_replace(&mut p, &NestPath::top(0)).expect("ok");
        assert_eq!(count, 0);
        assert_eq!(path, NestPath::top(0));
    }
}
