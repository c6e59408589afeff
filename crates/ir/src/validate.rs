//! Static well-formedness checking for [`Program`]s.
//!
//! Workload authors and transformation passes both produce programs; this
//! pass catches structural mistakes (rank mismatches, undeclared ids,
//! duplicate loop variables on a nest path, flags out of range) *before*
//! they surface as interpreter panics deep inside a simulation.

use std::fmt;

use crate::expr::Expr;
use crate::program::{ArrayRef, Bound, DynIndex, ElemType, Loop, Program, Stmt, VarId};

/// A well-formedness violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// A reference's index count differs from the array's rank.
    RankMismatch {
        /// Offending array name.
        array: String,
        /// Declared rank.
        rank: usize,
        /// Indices supplied.
        got: usize,
    },
    /// An id referenced but not declared.
    UndeclaredId {
        /// Description of the id.
        what: String,
    },
    /// The same loop variable is reused by two nested loops.
    ShadowedLoopVar {
        /// The variable's name.
        var: String,
    },
    /// A loop with step 0 would never terminate.
    ZeroStep {
        /// The variable's name.
        var: String,
    },
    /// A flag index that can exceed the declared flag count.
    FlagOutOfRange {
        /// The constant flag index found.
        idx: i64,
        /// Declared flag count.
        declared: usize,
    },
    /// A statically constant index that falls outside the array extent.
    /// (Prefetch targets are exempt: the interpreter clamps them, since
    /// non-binding prefetches near loop bounds may legitimately run past
    /// the end.)
    IndexOutOfBounds {
        /// Offending array name.
        array: String,
        /// Dimension (outermost-first) of the bad index.
        dim: usize,
        /// The constant index value.
        idx: i64,
        /// Declared extent of that dimension.
        extent: usize,
    },
    /// A floating-point value used where an integer is required (dynamic
    /// array index, indirection array, or loop bound).
    TypeMismatch {
        /// Description of the misuse.
        what: String,
    },
    /// A loop bound that mentions the loop's own variable.
    MalformedLoopBound {
        /// The variable's name.
        var: String,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::RankMismatch { array, rank, got } => {
                write!(
                    f,
                    "array {array} has rank {rank} but was indexed with {got} indices"
                )
            }
            ValidateError::UndeclaredId { what } => write!(f, "undeclared {what}"),
            ValidateError::ShadowedLoopVar { var } => {
                write!(f, "loop variable {var} shadowed by a nested loop")
            }
            ValidateError::ZeroStep { var } => write!(f, "loop over {var} has step 0"),
            ValidateError::FlagOutOfRange { idx, declared } => {
                write!(f, "flag index {idx} out of range (declared {declared})")
            }
            ValidateError::IndexOutOfBounds {
                array,
                dim,
                idx,
                extent,
            } => {
                write!(
                    f,
                    "array {array} dimension {dim}: constant index {idx} outside extent {extent}"
                )
            }
            ValidateError::TypeMismatch { what } => write!(f, "type mismatch: {what}"),
            ValidateError::MalformedLoopBound { var } => {
                write!(f, "loop bound over {var} mentions {var} itself")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

impl Program {
    /// Checks structural well-formedness; returns every violation found.
    pub fn validate(&self) -> Vec<ValidateError> {
        let mut errs = Vec::new();
        let mut open_vars: Vec<VarId> = Vec::new();
        self.validate_body(&self.body, &mut open_vars, &mut errs);
        errs
    }

    /// `clamped` is true for prefetch targets, whose addresses the
    /// interpreter clamps into bounds (so constant overruns are fine).
    fn validate_ref(&self, r: &ArrayRef, clamped: bool, errs: &mut Vec<ValidateError>) {
        if r.array.index() >= self.arrays.len() {
            errs.push(ValidateError::UndeclaredId {
                what: format!("array id {}", r.array.index()),
            });
            return;
        }
        let decl = self.array(r.array);
        if decl.dims.len() != r.indices.len() {
            errs.push(ValidateError::RankMismatch {
                array: decl.name.clone(),
                rank: decl.dims.len(),
                got: r.indices.len(),
            });
        }
        for (d, ix) in r.indices.iter().enumerate() {
            if !clamped && ix.dynamic.is_none() {
                if let (Some(c), Some(&extent)) = (ix.affine.as_const(), decl.dims.get(d)) {
                    if c < 0 || c as usize >= extent {
                        errs.push(ValidateError::IndexOutOfBounds {
                            array: decl.name.clone(),
                            dim: d,
                            idx: c,
                            extent,
                        });
                    }
                }
            }
            match &ix.dynamic {
                Some(DynIndex::Indirect { inner, .. }) => {
                    if inner.array.index() < self.arrays.len()
                        && self.array(inner.array).elem == ElemType::F64
                    {
                        errs.push(ValidateError::TypeMismatch {
                            what: format!(
                                "f64 array {} used as an indirection (index) array",
                                self.array(inner.array).name
                            ),
                        });
                    }
                    self.validate_ref(inner, clamped, errs);
                }
                Some(DynIndex::Scalar { scalar, .. }) => {
                    if scalar.index() >= self.scalars.len() {
                        errs.push(ValidateError::UndeclaredId {
                            what: format!("scalar id {}", scalar.index()),
                        });
                    } else if self.scalar(*scalar).elem == ElemType::F64 {
                        errs.push(ValidateError::TypeMismatch {
                            what: format!(
                                "f64 scalar {} used as a dynamic array index",
                                self.scalar(*scalar).name
                            ),
                        });
                    }
                }
                None => {}
            }
        }
    }

    /// Checks one loop bound: declared (and integer-typed) scalar bounds,
    /// and no self-reference on the loop's own variable.
    fn validate_bound(&self, l: &Loop, b: &Bound, errs: &mut Vec<ValidateError>) {
        match b {
            Bound::Scalar(sc) => {
                if sc.index() >= self.scalars.len() {
                    errs.push(ValidateError::UndeclaredId {
                        what: format!("scalar id {} (loop bound)", sc.index()),
                    });
                } else if self.scalar(*sc).elem == ElemType::F64 {
                    errs.push(ValidateError::TypeMismatch {
                        what: format!("f64 scalar {} used as a loop bound", self.scalar(*sc).name),
                    });
                }
            }
            Bound::Affine(e) => {
                if !e.is_free_of(l.var) {
                    errs.push(ValidateError::MalformedLoopBound {
                        var: self.var_name(l.var).to_string(),
                    });
                }
            }
            Bound::Const(_) | Bound::Block(_) => {}
        }
    }

    fn validate_expr(&self, e: &Expr, errs: &mut Vec<ValidateError>) {
        match e {
            Expr::Load(r) => self.validate_ref(r, false, errs),
            Expr::Scalar(s) if s.index() >= self.scalars.len() => {
                errs.push(ValidateError::UndeclaredId {
                    what: format!("scalar id {}", s.index()),
                });
            }
            Expr::Unary(_, a) => self.validate_expr(a, errs),
            Expr::Binary(_, a, b) => {
                self.validate_expr(a, errs);
                self.validate_expr(b, errs);
            }
            _ => {}
        }
    }

    fn validate_body(
        &self,
        body: &[Stmt],
        open_vars: &mut Vec<VarId>,
        errs: &mut Vec<ValidateError>,
    ) {
        for s in body {
            match s {
                Stmt::AssignArray { lhs, rhs } => {
                    self.validate_ref(lhs, false, errs);
                    self.validate_expr(rhs, errs);
                }
                Stmt::AssignScalar { lhs, rhs } => {
                    if lhs.index() >= self.scalars.len() {
                        errs.push(ValidateError::UndeclaredId {
                            what: format!("scalar id {}", lhs.index()),
                        });
                    }
                    self.validate_expr(rhs, errs);
                }
                Stmt::Prefetch { target } => self.validate_ref(target, true, errs),
                Stmt::Loop(l) => {
                    if l.step == 0 {
                        errs.push(ValidateError::ZeroStep {
                            var: self.var_name(l.var).to_string(),
                        });
                    }
                    if open_vars.contains(&l.var) {
                        errs.push(ValidateError::ShadowedLoopVar {
                            var: self.var_name(l.var).to_string(),
                        });
                    }
                    self.validate_bound(l, &l.lo, errs);
                    self.validate_bound(l, &l.hi, errs);
                    open_vars.push(l.var);
                    self.validate_body(&l.body, open_vars, errs);
                    open_vars.pop();
                }
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    self.validate_body(then_branch, open_vars, errs);
                    self.validate_body(else_branch, open_vars, errs);
                }
                Stmt::FlagSet { idx } | Stmt::FlagWait { idx } => {
                    if let Some(c) = idx.as_const() {
                        if c < 0 || c as usize >= self.num_flags.max(1) {
                            errs.push(ValidateError::FlagOutOfRange {
                                idx: c,
                                declared: self.num_flags,
                            });
                        }
                    }
                }
                Stmt::Barrier => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::expr::AffineExpr;
    use crate::program::{ArrayRef, Index};

    #[test]
    fn valid_program_passes() {
        let mut b = ProgramBuilder::new("ok");
        let a = b.array_f64("a", &[8, 8]);
        let j = b.var("j");
        let i = b.var("i");
        b.flags(2);
        b.for_const(j, 0, 8, |b| {
            b.for_const(i, 0, 8, |b| {
                let v = b.load(a, &[b.idx(j), b.idx(i)]);
                b.assign_array(a, &[b.idx(j), b.idx(i)], v);
            });
            b.flag_set(AffineExpr::konst(1));
        });
        assert!(b.finish().validate().is_empty());
    }

    #[test]
    fn rank_mismatch_detected() {
        let mut b = ProgramBuilder::new("bad");
        let a = b.array_f64("a", &[8, 8]);
        let i = b.var("i");
        b.for_const(i, 0, 8, |b| {
            let v = b.load(a, &[b.idx(i)]); // 1 index, rank 2
            b.assign_array(a, &[b.idx(i), b.idx(i)], v);
        });
        let errs = b.finish().validate();
        assert!(
            matches!(errs[0], ValidateError::RankMismatch { .. }),
            "{errs:?}"
        );
    }

    #[test]
    fn shadowed_var_detected() {
        let mut b = ProgramBuilder::new("shadow");
        let a = b.array_f64("a", &[8]);
        let i = b.var("i");
        b.for_const(i, 0, 4, |b| {
            b.for_const(i, 0, 4, |b| {
                let one = b.constf(1.0);
                b.assign_array(a, &[b.idx(i)], one);
            });
        });
        let errs = b.finish().validate();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::ShadowedLoopVar { .. })));
    }

    #[test]
    fn flag_out_of_range_detected() {
        let mut b = ProgramBuilder::new("flags");
        b.flags(2);
        b.flag_wait(AffineExpr::konst(5));
        let errs = b.finish().validate();
        assert_eq!(
            errs,
            vec![ValidateError::FlagOutOfRange {
                idx: 5,
                declared: 2
            }]
        );
    }

    #[test]
    fn undeclared_scalar_in_indirect_detected() {
        use crate::program::{ArrayRef, ScalarId};
        let mut b = ProgramBuilder::new("und");
        let a = b.array_f64("a", &[8]);
        let ghost = ScalarId::from_raw(42);
        let i = b.var("i");
        b.for_const(i, 0, 4, |b| {
            let r = ArrayRef::new(a, vec![Index::scalar(ghost)]);
            let v = b.load_ref(r);
            b.assign_array(a, &[b.idx(i)], v);
        });
        let errs = b.finish().validate();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::UndeclaredId { .. })));
    }

    #[test]
    fn errors_display() {
        let e = ValidateError::ZeroStep { var: "i".into() };
        assert!(format!("{e}").contains("step 0"));
        let e = ValidateError::IndexOutOfBounds {
            array: "a".into(),
            dim: 1,
            idx: 9,
            extent: 8,
        };
        assert!(format!("{e}").contains("outside extent 8"));
        let e = ValidateError::TypeMismatch { what: "x".into() };
        assert!(format!("{e}").contains("type mismatch"));
        let e = ValidateError::MalformedLoopBound { var: "j".into() };
        assert!(format!("{e}").contains("itself"));
    }

    #[test]
    fn constant_index_out_of_bounds_detected() {
        let mut b = ProgramBuilder::new("oob");
        let a = b.array_f64("a", &[8, 4]);
        let j = b.var("j");
        b.for_const(j, 0, 8, |b| {
            let v = b.load(a, &[b.idx(j), b.idx_e(AffineExpr::konst(4))]);
            b.assign_array(a, &[b.idx(j), b.idx_e(AffineExpr::konst(-1))], v);
        });
        let errs = b.finish().validate();
        assert_eq!(
            errs,
            vec![
                // The store's target is visited before its operand load.
                ValidateError::IndexOutOfBounds {
                    array: "a".into(),
                    dim: 1,
                    idx: -1,
                    extent: 4
                },
                ValidateError::IndexOutOfBounds {
                    array: "a".into(),
                    dim: 1,
                    idx: 4,
                    extent: 4
                },
            ]
        );
    }

    #[test]
    fn prefetch_targets_may_overrun() {
        // The interpreter clamps prefetch addresses, so guard-free
        // prefetching past the end of an array must validate cleanly.
        let mut b = ProgramBuilder::new("pf");
        let a = b.array_f64("a", &[8]);
        let i = b.var("i");
        b.for_const(i, 0, 8, |b| {
            b.prefetch(a, &[b.idx_e(AffineExpr::var(i).offset(16))]);
            let v = b.load(a, &[b.idx(i)]);
            b.assign_array(a, &[b.idx(i)], v);
        });
        assert!(b.finish().validate().is_empty());
    }

    #[test]
    fn f64_scalar_as_dynamic_index_detected() {
        let mut b = ProgramBuilder::new("fidx");
        let a = b.array_f64("a", &[8]);
        let s = b.scalar_f64("p", 0.0);
        let i = b.var("i");
        b.for_const(i, 0, 4, |b| {
            let r = ArrayRef::new(a, vec![Index::scalar(s)]);
            let v = b.load_ref(r);
            b.assign_array(a, &[b.idx(i)], v);
        });
        let errs = b.finish().validate();
        assert!(
            errs.iter().any(|e| matches!(
                e,
                ValidateError::TypeMismatch { what } if what.contains("dynamic array index")
            )),
            "{errs:?}"
        );
    }

    #[test]
    fn f64_indirection_array_detected() {
        let mut b = ProgramBuilder::new("find");
        let a = b.array_f64("a", &[8]);
        let idx = b.array_f64("idx", &[8]); // should have been i64
        let i = b.var("i");
        b.for_const(i, 0, 8, |b| {
            let inner = ArrayRef::new(idx, vec![Index::affine(AffineExpr::var(i))]);
            let r = ArrayRef::new(a, vec![Index::indirect(inner)]);
            let v = b.load_ref(r);
            b.assign_array(a, &[b.idx(i)], v);
        });
        let errs = b.finish().validate();
        assert!(
            errs.iter().any(|e| matches!(
                e,
                ValidateError::TypeMismatch { what } if what.contains("indirection")
            )),
            "{errs:?}"
        );
    }

    #[test]
    fn f64_loop_bound_detected() {
        let mut b = ProgramBuilder::new("fbound");
        let a = b.array_f64("a", &[8]);
        let n = b.scalar_f64("n", 8.0);
        let i = b.var("i");
        b.for_scalar(i, 0, n, |b| {
            let one = b.constf(1.0);
            b.assign_array(a, &[b.idx(i)], one);
        });
        let errs = b.finish().validate();
        assert!(
            errs.iter().any(|e| matches!(
                e,
                ValidateError::TypeMismatch { what } if what.contains("loop bound")
            )),
            "{errs:?}"
        );
    }

    #[test]
    fn self_referential_loop_bound_detected() {
        use crate::program::{Bound, Loop};
        let mut b = ProgramBuilder::new("selfb");
        let a = b.array_f64("a", &[8]);
        let i = b.var("i");
        b.for_const(i, 0, 8, |b| {
            let one = b.constf(1.0);
            b.assign_array(a, &[b.idx(i)], one);
        });
        let mut p = b.finish();
        // for (i = 0; i < i + 8; i++) — the bound names its own variable.
        let Stmt::Loop(Loop { hi, .. }) = &mut p.body[0] else {
            panic!("loop")
        };
        *hi = Bound::Affine(AffineExpr::var(i).offset(8));
        let errs = p.validate();
        assert_eq!(
            errs,
            vec![ValidateError::MalformedLoopBound { var: "i".into() }]
        );
    }

    /// Every shipped workload validates cleanly (meta-test used by the
    /// workloads crate as well; kept here to pin the validator itself).
    #[test]
    fn transformed_programs_validate() {
        let mut b = ProgramBuilder::new("fig2a");
        let a = b.array_f64("a", &[32, 32]);
        let s = b.scalar_f64("sum", 0.0);
        let j = b.var("j");
        let i = b.var("i");
        b.for_const(j, 0, 32, |b| {
            b.for_const(i, 0, 32, |b| {
                let v = b.load(a, &[b.idx(j), b.idx(i)]);
                let acc = b.scalar(s);
                let e = b.add(acc, v);
                b.assign_scalar(s, e);
            });
        });
        let p = b.finish();
        assert!(p.validate().is_empty());
    }
}
