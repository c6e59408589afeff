//! Affine index expressions, arithmetic expressions and conditions.

use crate::program::{ArrayRef, BlockEdge, ScalarId, VarId};

/// An affine expression over loop variables: `sum(coeff_k * var_k) + konst`.
///
/// Affine expressions are used for loop bounds, array indices, guard
/// conditions and flag indices. They are the currency of dependence
/// analysis: two affine indices can be compared symbolically.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AffineExpr {
    /// `(variable, coefficient)` terms, kept sorted by variable and free of
    /// zero coefficients (a normal form, so `Eq`/`Hash` behave well).
    coeffs: Vec<(VarId, i64)>,
    /// The constant term.
    konst: i64,
}

impl AffineExpr {
    /// The constant expression `c`.
    pub fn konst(c: i64) -> Self {
        AffineExpr {
            coeffs: Vec::new(),
            konst: c,
        }
    }

    /// The expression `v` (a bare loop variable).
    pub fn var(v: VarId) -> Self {
        AffineExpr {
            coeffs: vec![(v, 1)],
            konst: 0,
        }
    }

    /// The expression `scale * v + offset`.
    pub fn scaled_var(v: VarId, scale: i64, offset: i64) -> Self {
        let mut e = AffineExpr {
            coeffs: vec![(v, scale)],
            konst: offset,
        };
        e.normalize();
        e
    }

    fn normalize(&mut self) {
        self.coeffs.sort_by_key(|&(v, _)| v);
        self.coeffs.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                earlier.1 += later.1;
                true
            } else {
                false
            }
        });
        self.coeffs.retain(|&(_, c)| c != 0);
    }

    /// The constant term of the expression.
    pub fn constant_term(&self) -> i64 {
        self.konst
    }

    /// The coefficient of variable `v` (0 when absent).
    pub fn coeff(&self, v: VarId) -> i64 {
        self.coeffs
            .iter()
            .find(|&&(w, _)| w == v)
            .map(|&(_, c)| c)
            .unwrap_or(0)
    }

    /// Iterator over the `(variable, coefficient)` terms.
    pub fn terms(&self) -> impl Iterator<Item = (VarId, i64)> + '_ {
        self.coeffs.iter().copied()
    }

    /// True when the expression is a plain constant.
    pub fn is_const(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Returns the constant value if [`AffineExpr::is_const`].
    pub fn as_const(&self) -> Option<i64> {
        if self.is_const() {
            Some(self.konst)
        } else {
            None
        }
    }

    /// Sum of two affine expressions.
    pub fn add(&self, other: &AffineExpr) -> AffineExpr {
        let mut e = self.clone();
        e.konst += other.konst;
        e.coeffs.extend(other.coeffs.iter().copied());
        e.normalize();
        e
    }

    /// Difference `self - other`.
    pub fn sub(&self, other: &AffineExpr) -> AffineExpr {
        self.add(&other.scale(-1))
    }

    /// The expression multiplied by a constant.
    pub fn scale(&self, k: i64) -> AffineExpr {
        let mut e = AffineExpr {
            coeffs: self.coeffs.iter().map(|&(v, c)| (v, c * k)).collect(),
            konst: self.konst * k,
        };
        e.normalize();
        e
    }

    /// The expression plus a constant.
    pub fn offset(&self, k: i64) -> AffineExpr {
        let mut e = self.clone();
        e.konst += k;
        e
    }

    /// Substitutes `v := replacement` and returns the result.
    ///
    /// Used by the loop transformations: unrolling substitutes
    /// `j := j + k*step`, strip-mining substitutes `j := jj + j_inner`.
    pub fn subst(&self, v: VarId, replacement: &AffineExpr) -> AffineExpr {
        let c = self.coeff(v);
        if c == 0 {
            return self.clone();
        }
        let mut rest = self.clone();
        rest.coeffs.retain(|&(w, _)| w != v);
        rest.add(&replacement.scale(c))
    }

    /// Evaluates the expression with `lookup` supplying variable values.
    pub fn eval(&self, mut lookup: impl FnMut(VarId) -> i64) -> i64 {
        self.konst + self.coeffs.iter().map(|&(v, c)| c * lookup(v)).sum::<i64>()
    }

    /// Variables referenced (with nonzero coefficient).
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.coeffs.iter().map(|&(v, _)| v)
    }

    /// True when the expression does not mention `v`.
    pub fn is_free_of(&self, v: VarId) -> bool {
        self.coeff(v) == 0
    }
}

impl From<i64> for AffineExpr {
    fn from(c: i64) -> Self {
        AffineExpr::konst(c)
    }
}

impl From<VarId> for AffineExpr {
    fn from(v: VarId) -> Self {
        AffineExpr::var(v)
    }
}

/// Binary arithmetic operators.
///
/// The distinction matters to the simulator: different operators map to
/// different functional units and latencies (Table 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Minimum (used for jamming variable-length loops).
    Min,
    /// Maximum.
    Max,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Negation.
    Neg,
    /// Square root (33-cycle FP unit in the base configuration).
    Sqrt,
    /// Absolute value.
    Abs,
}

/// An arithmetic expression tree (the right-hand side of assignments).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A floating-point constant.
    ConstF(f64),
    /// An integer constant.
    ConstI(i64),
    /// Load from an array element.
    Load(ArrayRef),
    /// Read a (register-allocated) scalar.
    Scalar(ScalarId),
    /// Current value of a loop variable (an integer).
    LoopVar(VarId),
    /// One end of the calling processor's block (an integer fixed per
    /// processor; the prelude of a jammed [`Dist::Own`] loop reads it).
    ///
    /// [`Dist::Own`]: crate::Dist::Own
    BlockEdge(BlockEdge),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience constructor for a binary node.
    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Binary(op, Box::new(a), Box::new(b))
    }

    /// Convenience constructor for a unary node.
    pub fn un(op: UnOp, a: Expr) -> Expr {
        Expr::Unary(op, Box::new(a))
    }

    /// Visits every [`ArrayRef`] in the expression, in evaluation order.
    pub fn visit_refs<'a>(&'a self, f: &mut impl FnMut(&'a ArrayRef)) {
        match self {
            Expr::Load(r) => {
                r.visit_inner_refs(f);
                f(r);
            }
            Expr::Unary(_, a) => a.visit_refs(f),
            Expr::Binary(_, a, b) => {
                a.visit_refs(f);
                b.visit_refs(f);
            }
            _ => {}
        }
    }

    /// Counts FP arithmetic operations in the expression.
    pub fn fp_op_count(&self) -> usize {
        match self {
            Expr::Unary(_, a) => 1 + a.fp_op_count(),
            Expr::Binary(_, a, b) => 1 + a.fp_op_count() + b.fp_op_count(),
            _ => 0,
        }
    }
}

/// Comparison operators for guard conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `lhs < 0`
    Lt,
    /// `lhs <= 0`
    Le,
    /// `lhs > 0`
    Gt,
    /// `lhs >= 0`
    Ge,
    /// `lhs == 0`
    Eq,
    /// `lhs != 0`
    Ne,
}

/// A guard condition `affine(loop vars) OP 0`.
///
/// Conditions produced by the transformations (postludes, boundary guards)
/// are always affine in the loop variables, which keeps them analyzable.
#[derive(Debug, Clone, PartialEq)]
pub struct Cond {
    /// Left-hand side, compared against zero.
    pub lhs: AffineExpr,
    /// The comparison operator.
    pub op: CmpOp,
}

impl Cond {
    /// The condition `lhs OP 0`.
    pub fn new(lhs: AffineExpr, op: CmpOp) -> Self {
        Cond { lhs, op }
    }

    /// Condition `a < b` as `a - b < 0`.
    pub fn lt(a: AffineExpr, b: AffineExpr) -> Self {
        Cond::new(a.sub(&b), CmpOp::Lt)
    }

    /// Condition `a >= b` as `a - b >= 0`.
    pub fn ge(a: AffineExpr, b: AffineExpr) -> Self {
        Cond::new(a.sub(&b), CmpOp::Ge)
    }

    /// Evaluates the condition.
    pub fn eval(&self, lookup: impl FnMut(VarId) -> i64) -> bool {
        let v = self.lhs.eval(lookup);
        match self.op {
            CmpOp::Lt => v < 0,
            CmpOp::Le => v <= 0,
            CmpOp::Gt => v > 0,
            CmpOp::Ge => v >= 0,
            CmpOp::Eq => v == 0,
            CmpOp::Ne => v != 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u32) -> VarId {
        VarId::from_raw(n)
    }

    #[test]
    fn affine_normal_form() {
        let a = AffineExpr::var(v(1)).add(&AffineExpr::var(v(0)));
        let b = AffineExpr::var(v(0)).add(&AffineExpr::var(v(1)));
        assert_eq!(a, b);
    }

    #[test]
    fn affine_zero_coeffs_removed() {
        let a = AffineExpr::var(v(0)).sub(&AffineExpr::var(v(0)));
        assert!(a.is_const());
        assert_eq!(a.as_const(), Some(0));
    }

    #[test]
    fn affine_arith() {
        let e = AffineExpr::scaled_var(v(0), 2, 3); // 2i + 3
        assert_eq!(e.coeff(v(0)), 2);
        assert_eq!(e.constant_term(), 3);
        let e2 = e.scale(3); // 6i + 9
        assert_eq!(e2.coeff(v(0)), 6);
        assert_eq!(e2.constant_term(), 9);
        assert_eq!(e2.eval(|_| 5), 39);
    }

    #[test]
    fn affine_subst_unroll() {
        // j + 1 with j := j + 4 gives j + 5  (unroll copy 4 of distance-1 ref)
        let e = AffineExpr::var(v(0)).offset(1);
        let r = AffineExpr::var(v(0)).offset(4);
        let s = e.subst(v(0), &r);
        assert_eq!(s.coeff(v(0)), 1);
        assert_eq!(s.constant_term(), 5);
    }

    #[test]
    fn affine_subst_strip_mine() {
        // 2j with j := jj + ji gives 2jj + 2ji
        let e = AffineExpr::scaled_var(v(0), 2, 0);
        let r = AffineExpr::var(v(1)).add(&AffineExpr::var(v(2)));
        let s = e.subst(v(0), &r);
        assert_eq!(s.coeff(v(1)), 2);
        assert_eq!(s.coeff(v(2)), 2);
        assert_eq!(s.coeff(v(0)), 0);
    }

    #[test]
    fn affine_subst_absent_var_is_identity() {
        let e = AffineExpr::var(v(0)).offset(7);
        let s = e.subst(v(9), &AffineExpr::konst(100));
        assert_eq!(s, e);
    }

    #[test]
    fn cond_eval() {
        // i - 10 < 0  i.e. i < 10
        let c = Cond::lt(AffineExpr::var(v(0)), AffineExpr::konst(10));
        assert!(c.eval(|_| 9));
        assert!(!c.eval(|_| 10));
        let g = Cond::ge(AffineExpr::var(v(0)), AffineExpr::konst(10));
        assert!(g.eval(|_| 10));
        assert!(!g.eval(|_| 9));
    }

    #[test]
    fn expr_fp_count() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, Expr::ConstF(1.0), Expr::ConstF(2.0)),
            Expr::ConstF(3.0),
        );
        assert_eq!(e.fp_op_count(), 2);
    }
}
