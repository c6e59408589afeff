//! Substitution machinery: rewriting loop variables and renaming scalars
//! inside statements — the mechanical core of unrolling transformations.

use mempar_ir::{
    AffineExpr, ArrayRef, BinOp, Bound, Cond, DynIndex, Expr, Index, Loop, ScalarId, Stmt, VarId,
};

/// Converts an affine expression into an equivalent [`Expr`] tree
/// (integer arithmetic over loop variables).
pub fn affine_to_expr(e: &AffineExpr) -> Expr {
    let mut acc: Option<Expr> = None;
    for (v, c) in e.terms() {
        let term = if c == 1 {
            Expr::LoopVar(v)
        } else {
            Expr::bin(BinOp::Mul, Expr::ConstI(c), Expr::LoopVar(v))
        };
        acc = Some(match acc {
            None => term,
            Some(a) => Expr::bin(BinOp::Add, a, term),
        });
    }
    let k = e.constant_term();
    match acc {
        None => Expr::ConstI(k),
        Some(a) if k == 0 => a,
        Some(a) => Expr::bin(BinOp::Add, a, Expr::ConstI(k)),
    }
}

/// Converts a loop bound into an equivalent [`Expr`].
pub fn bound_to_expr(b: &Bound) -> Expr {
    match b {
        Bound::Const(c) => Expr::ConstI(*c),
        Bound::Affine(e) => affine_to_expr(e),
        Bound::Scalar(s) => Expr::Scalar(*s),
        Bound::Block(e) => Expr::BlockEdge(*e),
    }
}

/// Substitutes `v := repl` in an index.
fn subst_index(ix: &Index, v: VarId, repl: &AffineExpr) -> Index {
    Index {
        affine: ix.affine.subst(v, repl),
        dynamic: ix.dynamic.as_ref().map(|d| match d {
            DynIndex::Scalar { scalar, scale } => DynIndex::Scalar {
                scalar: *scalar,
                scale: *scale,
            },
            DynIndex::Indirect { inner, scale } => DynIndex::Indirect {
                inner: Box::new(subst_ref(inner, v, repl)),
                scale: *scale,
            },
        }),
    }
}

/// Substitutes `v := repl` in an array reference.
pub fn subst_ref(r: &ArrayRef, v: VarId, repl: &AffineExpr) -> ArrayRef {
    ArrayRef {
        array: r.array,
        indices: r
            .indices
            .iter()
            .map(|ix| subst_index(ix, v, repl))
            .collect(),
    }
}

/// Substitutes `v := repl` in an expression. `LoopVar(v)` occurrences
/// become integer arithmetic over the replacement.
pub fn subst_expr(e: &Expr, v: VarId, repl: &AffineExpr) -> Expr {
    match e {
        Expr::ConstF(_) | Expr::ConstI(_) | Expr::Scalar(_) | Expr::BlockEdge(_) => e.clone(),
        Expr::LoopVar(w) => {
            if *w == v {
                affine_to_expr(repl)
            } else {
                e.clone()
            }
        }
        Expr::Load(r) => Expr::Load(subst_ref(r, v, repl)),
        Expr::Unary(op, a) => Expr::un(*op, subst_expr(a, v, repl)),
        Expr::Binary(op, a, b) => Expr::bin(*op, subst_expr(a, v, repl), subst_expr(b, v, repl)),
    }
}

fn subst_bound(b: &Bound, v: VarId, repl: &AffineExpr) -> Bound {
    match b {
        Bound::Affine(e) => Bound::from(e.subst(v, repl)),
        other => other.clone(),
    }
}

/// Substitutes `v := repl` throughout a statement (recursively).
pub fn subst_stmt(s: &Stmt, v: VarId, repl: &AffineExpr) -> Stmt {
    match s {
        Stmt::AssignArray { lhs, rhs } => Stmt::AssignArray {
            lhs: subst_ref(lhs, v, repl),
            rhs: subst_expr(rhs, v, repl),
        },
        Stmt::AssignScalar { lhs, rhs } => Stmt::AssignScalar {
            lhs: *lhs,
            rhs: subst_expr(rhs, v, repl),
        },
        Stmt::Loop(l) => Stmt::Loop(Loop {
            var: l.var,
            lo: subst_bound(&l.lo, v, repl),
            hi: subst_bound(&l.hi, v, repl),
            step: l.step,
            dist: l.dist,
            body: subst_body(&l.body, v, repl),
        }),
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => Stmt::If {
            cond: Cond {
                lhs: cond.lhs.subst(v, repl),
                op: cond.op,
            },
            then_branch: subst_body(then_branch, v, repl),
            else_branch: subst_body(else_branch, v, repl),
        },
        Stmt::Barrier => Stmt::Barrier,
        Stmt::FlagSet { idx } => Stmt::FlagSet {
            idx: idx.subst(v, repl),
        },
        Stmt::FlagWait { idx } => Stmt::FlagWait {
            idx: idx.subst(v, repl),
        },
        Stmt::Prefetch { target } => Stmt::Prefetch {
            target: subst_ref(target, v, repl),
        },
    }
}

/// Substitutes throughout a statement list.
pub fn subst_body(body: &[Stmt], v: VarId, repl: &AffineExpr) -> Vec<Stmt> {
    body.iter().map(|s| subst_stmt(s, v, repl)).collect()
}

/// Renames scalar `from` to `to` in an expression.
pub fn rename_scalar_expr(e: &Expr, from: ScalarId, to: ScalarId) -> Expr {
    match e {
        Expr::Scalar(s) if *s == from => Expr::Scalar(to),
        Expr::ConstF(_)
        | Expr::ConstI(_)
        | Expr::LoopVar(_)
        | Expr::Scalar(_)
        | Expr::BlockEdge(_) => e.clone(),
        Expr::Load(r) => Expr::Load(rename_scalar_ref(r, from, to)),
        Expr::Unary(op, a) => Expr::un(*op, rename_scalar_expr(a, from, to)),
        Expr::Binary(op, a, b) => Expr::bin(
            *op,
            rename_scalar_expr(a, from, to),
            rename_scalar_expr(b, from, to),
        ),
    }
}

fn rename_scalar_ref(r: &ArrayRef, from: ScalarId, to: ScalarId) -> ArrayRef {
    ArrayRef {
        array: r.array,
        indices: r
            .indices
            .iter()
            .map(|ix| Index {
                affine: ix.affine.clone(),
                dynamic: ix.dynamic.as_ref().map(|d| match d {
                    DynIndex::Scalar { scalar, scale } => DynIndex::Scalar {
                        scalar: if *scalar == from { to } else { *scalar },
                        scale: *scale,
                    },
                    DynIndex::Indirect { inner, scale } => DynIndex::Indirect {
                        inner: Box::new(rename_scalar_ref(inner, from, to)),
                        scale: *scale,
                    },
                }),
            })
            .collect(),
    }
}

/// Renames scalar `from` to `to` throughout a statement.
pub fn rename_scalar_stmt(s: &Stmt, from: ScalarId, to: ScalarId) -> Stmt {
    match s {
        Stmt::AssignArray { lhs, rhs } => Stmt::AssignArray {
            lhs: rename_scalar_ref(lhs, from, to),
            rhs: rename_scalar_expr(rhs, from, to),
        },
        Stmt::AssignScalar { lhs, rhs } => Stmt::AssignScalar {
            lhs: if *lhs == from { to } else { *lhs },
            rhs: rename_scalar_expr(rhs, from, to),
        },
        Stmt::Loop(l) => Stmt::Loop(Loop {
            var: l.var,
            lo: rename_scalar_bound(&l.lo, from, to),
            hi: rename_scalar_bound(&l.hi, from, to),
            step: l.step,
            dist: l.dist,
            body: l
                .body
                .iter()
                .map(|x| rename_scalar_stmt(x, from, to))
                .collect(),
        }),
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => Stmt::If {
            cond: cond.clone(),
            then_branch: then_branch
                .iter()
                .map(|x| rename_scalar_stmt(x, from, to))
                .collect(),
            else_branch: else_branch
                .iter()
                .map(|x| rename_scalar_stmt(x, from, to))
                .collect(),
        },
        other => other.clone(),
    }
}

fn rename_scalar_bound(b: &Bound, from: ScalarId, to: ScalarId) -> Bound {
    match b {
        Bound::Scalar(s) if *s == from => Bound::Scalar(to),
        other => other.clone(),
    }
}

/// Scalars *assigned* anywhere in `body` (recursively).
pub fn assigned_scalars(body: &[Stmt]) -> Vec<ScalarId> {
    let mut out = Vec::new();
    fn walk(body: &[Stmt], out: &mut Vec<ScalarId>) {
        for s in body {
            match s {
                Stmt::AssignScalar { lhs, .. } if !out.contains(lhs) => {
                    out.push(*lhs);
                }
                Stmt::Loop(l) => walk(&l.body, out),
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

/// True when the first access to `scalar` in `body` (walking statements
/// in order, descending into loops and guards) is a definition — i.e. the
/// scalar is iteration-private and must be renamed per unroll copy.
/// Scalars read before being written (accumulators) carry values across
/// iterations and must *not* be renamed.
pub fn first_access_is_def(body: &[Stmt], scalar: ScalarId) -> bool {
    fn expr_reads(e: &Expr, scalar: ScalarId) -> bool {
        match e {
            Expr::Scalar(s) => *s == scalar,
            Expr::Load(r) => ref_reads(r, scalar),
            Expr::Unary(_, a) => expr_reads(a, scalar),
            Expr::Binary(_, a, b) => expr_reads(a, scalar) || expr_reads(b, scalar),
            _ => false,
        }
    }
    fn ref_reads(r: &ArrayRef, scalar: ScalarId) -> bool {
        r.indices.iter().any(|ix| match &ix.dynamic {
            Some(DynIndex::Scalar { scalar: s, .. }) => *s == scalar,
            Some(DynIndex::Indirect { inner, .. }) => ref_reads(inner, scalar),
            None => false,
        })
    }
    /// Returns Some(true) if first access is a def, Some(false) if a use,
    /// None if not accessed.
    fn walk(body: &[Stmt], scalar: ScalarId) -> Option<bool> {
        for s in body {
            match s {
                Stmt::AssignScalar { lhs, rhs } => {
                    if expr_reads(rhs, scalar) {
                        return Some(false);
                    }
                    if *lhs == scalar {
                        return Some(true);
                    }
                }
                Stmt::AssignArray { lhs, rhs }
                    if (expr_reads(rhs, scalar) || ref_reads(lhs, scalar)) => {
                        return Some(false);
                    }
                Stmt::Loop(l) => {
                    if let Bound::Scalar(s) = &l.lo {
                        if *s == scalar {
                            return Some(false);
                        }
                    }
                    if let Bound::Scalar(s) = &l.hi {
                        if *s == scalar {
                            return Some(false);
                        }
                    }
                    if let Some(r) = walk(&l.body, scalar) {
                        return Some(r);
                    }
                }
                Stmt::If { then_branch, else_branch, .. }
                    // Conservative: a def under a guard may not execute;
                    // treat guard-first access as a use (do not privatize).
                    if (walk(then_branch, scalar).is_some()
                        || walk(else_branch, scalar).is_some())
                    => {
                        return Some(false);
                    }
                _ => {}
            }
        }
        None
    }
    walk(body, scalar) == Some(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempar_ir::ProgramBuilder;

    #[test]
    fn affine_to_expr_roundtrip_values() {
        let v = VarId::from_raw(0);
        let e = AffineExpr::scaled_var(v, 3, -7);
        let expr = affine_to_expr(&e);
        // Evaluate the Expr by hand for v = 5: 3*5 - 7 = 8.
        fn eval(e: &Expr, val: i64) -> i64 {
            match e {
                Expr::ConstI(c) => *c,
                Expr::LoopVar(_) => val,
                Expr::Binary(BinOp::Add, a, b) => eval(a, val) + eval(b, val),
                Expr::Binary(BinOp::Mul, a, b) => eval(a, val) * eval(b, val),
                _ => panic!("unexpected node"),
            }
        }
        assert_eq!(eval(&expr, 5), 8);
        assert_eq!(affine_to_expr(&AffineExpr::konst(4)), Expr::ConstI(4));
    }

    #[test]
    fn subst_rewrites_refs_and_exprs() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array_f64("a", &[8, 8]);
        let j = b.var("j");
        let i = b.var("i");
        b.for_const(j, 0, 8, |b| {
            b.for_const(i, 0, 8, |b| {
                let v = b.load(a, &[b.idx(j), b.idx(i)]);
                b.assign_array(a, &[b.idx(j), b.idx(i)], v);
            });
        });
        let p = b.finish();
        let Stmt::Loop(outer) = &p.body[0] else {
            panic!()
        };
        let Stmt::Loop(inner) = &outer.body[0] else {
            panic!()
        };
        // j := j + 2
        let repl = AffineExpr::var(j).offset(2);
        let s2 = subst_stmt(&inner.body[0], j, &repl);
        let Stmt::AssignArray { lhs, .. } = &s2 else {
            panic!()
        };
        assert_eq!(lhs.indices[0].affine.constant_term(), 2);
        assert_eq!(lhs.indices[0].affine.coeff(j), 1);
    }

    #[test]
    fn rename_scalar_in_stmt() {
        let mut b = ProgramBuilder::new("t");
        let s0 = b.scalar_f64("x", 0.0);
        let one = b.constf(1.0);
        let x = b.scalar(s0);
        let sum = b.add(x, one);
        b.assign_scalar(s0, sum);
        let p = b.finish();
        let s1 = ScalarId::from_raw(99);
        let renamed = rename_scalar_stmt(&p.body[0], s0, s1);
        let Stmt::AssignScalar { lhs, rhs } = &renamed else {
            panic!()
        };
        assert_eq!(*lhs, s1);
        assert_eq!(rename_scalar_expr(rhs, s1, s0), {
            let Stmt::AssignScalar { rhs, .. } = &p.body[0] else {
                panic!()
            };
            rhs.clone()
        });
    }

    #[test]
    fn privatization_classification() {
        // p = head; use p  -> first access is def: private.
        let mut b = ProgramBuilder::new("t");
        let head = b.scalar_i64("head", 0);
        let pp = b.scalar_i64("p", 0);
        let acc = b.scalar_f64("acc", 0.0);
        let data = b.array_f64("data", &[8]);
        let h = b.scalar(head);
        b.assign_scalar(pp, h);
        let v = b.load_ref(mempar_ir::ArrayRef::new(
            data,
            vec![mempar_ir::Index::scalar(pp)],
        ));
        let a0 = b.scalar(acc);
        let sum = b.add(a0, v);
        b.assign_scalar(acc, sum);
        let p = b.finish();
        assert!(first_access_is_def(&p.body, pp), "p initialized before use");
        assert!(
            !first_access_is_def(&p.body, acc),
            "accumulator reads first"
        );
        assert!(!first_access_is_def(&p.body, head), "head only read");
        let assigned = assigned_scalars(&p.body);
        assert!(assigned.contains(&pp) && assigned.contains(&acc));
        assert!(!assigned.contains(&head));
    }
}
