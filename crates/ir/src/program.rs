//! Program structure: declarations, loops and statements.

use crate::expr::{AffineExpr, Cond, Expr};

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl $name {
            /// Constructs an id from a raw index.
            pub fn from_raw(raw: u32) -> Self {
                $name(raw)
            }

            /// The raw index (usable to index the owning table).
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }
    };
}

id_type!(
    /// Identifies an array declared in a [`Program`].
    ArrayId
);
id_type!(
    /// Identifies a scalar (register-allocated) variable.
    ScalarId
);
id_type!(
    /// Identifies a loop variable.
    VarId
);

/// Element type of arrays and scalars. All elements are 8 bytes, matching
/// the double-word accesses the paper reasons about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ElemType {
    /// IEEE-754 double.
    #[default]
    F64,
    /// 64-bit signed integer (indices, pointers).
    I64,
}

/// Size in bytes of every array element and scalar.
pub const ELEM_BYTES: u64 = 8;

/// An array declaration: a row-major rectangular array of 8-byte elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayDecl {
    /// Human-readable name (for diagnostics and pretty-printing).
    pub name: String,
    /// Extent of each dimension, outermost first (row-major layout).
    pub dims: Vec<usize>,
    /// Element type.
    pub elem: ElemType,
}

impl ArrayDecl {
    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// True when the array has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size in bytes.
    pub fn byte_len(&self) -> u64 {
        self.len() as u64 * ELEM_BYTES
    }

    /// Row-major linearization strides, in elements, per dimension.
    pub fn strides(&self) -> Vec<usize> {
        let mut s = vec![1usize; self.dims.len()];
        for d in (0..self.dims.len().saturating_sub(1)).rev() {
            s[d] = s[d + 1] * self.dims[d + 1];
        }
        s
    }
}

/// A scalar declaration. Scalars model register-allocated temporaries
/// (accumulators, chased pointers); reading or writing one does not touch
/// the memory system.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarDecl {
    /// Human-readable name.
    pub name: String,
    /// Element type.
    pub elem: ElemType,
    /// Initial value as a raw bit pattern (f64 bits or i64 bits).
    pub init_bits: u64,
}

/// The dynamic (non-affine) component of an array index.
#[derive(Debug, Clone, PartialEq)]
pub enum DynIndex {
    /// `scale * scalar` — e.g. pointer chasing `next[p]`.
    Scalar {
        /// The scalar whose current value enters the index.
        scalar: ScalarId,
        /// Multiplier applied to the scalar value.
        scale: i64,
    },
    /// `scale * load(ref)` — e.g. indirect indexing `b[ind[i]]`.
    Indirect {
        /// The reference whose loaded value enters the index.
        inner: Box<ArrayRef>,
        /// Multiplier applied to the loaded value.
        scale: i64,
    },
}

/// One dimension of an array index: `affine + dynamic`.
#[derive(Debug, Clone, PartialEq)]
pub struct Index {
    /// Affine part over loop variables.
    pub affine: AffineExpr,
    /// Optional dynamic part (indirect or scalar-carried).
    pub dynamic: Option<DynIndex>,
}

impl Index {
    /// A purely affine index.
    pub fn affine(e: impl Into<AffineExpr>) -> Self {
        Index {
            affine: e.into(),
            dynamic: None,
        }
    }

    /// An index that is `scalar` (plus optional affine offset).
    pub fn scalar(s: ScalarId) -> Self {
        Index {
            affine: AffineExpr::konst(0),
            dynamic: Some(DynIndex::Scalar {
                scalar: s,
                scale: 1,
            }),
        }
    }

    /// An index loaded from another array reference.
    pub fn indirect(r: ArrayRef) -> Self {
        Index {
            affine: AffineExpr::konst(0),
            dynamic: Some(DynIndex::Indirect {
                inner: Box::new(r),
                scale: 1,
            }),
        }
    }

    /// True when the index has no dynamic component.
    pub fn is_affine(&self) -> bool {
        self.dynamic.is_none()
    }
}

/// A static array reference: `array[idx_0, idx_1, ...]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayRef {
    /// The referenced array.
    pub array: ArrayId,
    /// One index per declared dimension.
    pub indices: Vec<Index>,
}

impl ArrayRef {
    /// A reference with purely affine indices.
    pub fn new(array: ArrayId, indices: Vec<Index>) -> Self {
        ArrayRef { array, indices }
    }

    /// True when every index dimension is affine.
    pub fn is_affine(&self) -> bool {
        self.indices.iter().all(Index::is_affine)
    }

    /// Visits array references nested inside this one's dynamic indices
    /// (innermost first), not including `self`.
    pub fn visit_inner_refs<'a>(&'a self, f: &mut impl FnMut(&'a ArrayRef)) {
        for ix in &self.indices {
            if let Some(DynIndex::Indirect { inner, .. }) = &ix.dynamic {
                inner.visit_inner_refs(f);
                f(inner);
            }
        }
    }
}

/// How a parallel loop's iterations are distributed over processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dist {
    /// Contiguous blocks of iterations per processor (SPLASH-2 style):
    /// the engines give processor `p` the iterations [`block_range`]
    /// names.
    Block,
    /// A [`Dist::Block`] loop lowered to the calling processor's own
    /// block (see [`Loop::lower_to_own_block`]): its bounds already
    /// select that block, so the engines run it whole. It stays marked
    /// parallel, because its iterations are still independent.
    Own,
}

/// The iterations `[start, end)` of a `trip`-iteration [`Dist::Block`]
/// loop that processor `proc_id` of `nprocs` runs: chunks of
/// `c = ceil(trip / nprocs)` iterations, `[min(p·c, trip), min((p+1)·c,
/// trip))`.
pub fn block_range(trip: i64, proc_id: usize, nprocs: usize) -> (i64, i64) {
    let n = nprocs as i64;
    let chunk = (trip + n - 1) / n;
    let p = proc_id as i64;
    ((p * chunk).min(trip), ((p + 1) * chunk).min(trip))
}

/// One end of the calling processor's block of the range
/// `[lo, lo + trip)`: `lo + start` or `lo + end` of that processor's
/// [`block_range`]. Engines evaluate it from their processor id and
/// count, so one program describes every processor's block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockEdge {
    /// First value of the whole range.
    pub lo: i64,
    /// Iterations in the whole range.
    pub trip: i64,
    /// `false` for the block's first value, `true` for one past its last.
    pub upper: bool,
}

impl BlockEdge {
    /// The edge's value on processor `proc_id` of `nprocs`.
    pub fn eval(&self, proc_id: usize, nprocs: usize) -> i64 {
        let (start, end) = block_range(self.trip, proc_id, nprocs);
        self.lo + if self.upper { end } else { start }
    }
}

/// A loop bound. `lo` is inclusive, `hi` is exclusive for positive steps;
/// for negative steps iteration runs from `hi - 1` down to `lo`
/// (i.e. the same half-open range, walked backwards).
#[derive(Debug, Clone, PartialEq)]
pub enum Bound {
    /// A compile-time constant.
    Const(i64),
    /// Affine in enclosing loop variables (triangular loops).
    Affine(AffineExpr),
    /// The current value of a scalar (variable-length inner loops:
    /// hash-chain lengths in MST, node degrees in Em3d, jammed minima).
    Scalar(ScalarId),
    /// One end of the calling processor's block (a loop lowered to
    /// [`Dist::Own`]).
    Block(BlockEdge),
}

impl Bound {
    /// Constant value, if this is a [`Bound::Const`] (or constant affine).
    pub fn as_const(&self) -> Option<i64> {
        match self {
            Bound::Const(c) => Some(*c),
            Bound::Affine(e) => e.as_const(),
            Bound::Scalar(_) | Bound::Block(_) => None,
        }
    }
}

impl From<i64> for Bound {
    fn from(c: i64) -> Self {
        Bound::Const(c)
    }
}

impl From<AffineExpr> for Bound {
    fn from(e: AffineExpr) -> Self {
        match e.as_const() {
            Some(c) => Bound::Const(c),
            None => Bound::Affine(e),
        }
    }
}

/// A (possibly parallel) counted loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Loop {
    /// The loop variable (unique per loop in a well-formed program).
    pub var: VarId,
    /// Lower bound (inclusive).
    pub lo: Bound,
    /// Upper bound (exclusive).
    pub hi: Bound,
    /// Step; negative steps iterate the range backwards.
    pub step: i64,
    /// `Some` when the loop's iterations are distributed over processors.
    pub dist: Option<Dist>,
    /// Loop body.
    pub body: Vec<Stmt>,
}

impl Loop {
    /// Trip count when both bounds are compile-time constants.
    pub fn const_trip_count(&self) -> Option<i64> {
        let lo = self.lo.as_const()?;
        let hi = self.hi.as_const()?;
        let span = (hi - lo).max(0);
        let step = self.step.abs().max(1);
        Some((span + step - 1) / step)
    }

    /// Lowers a step-1 [`Dist::Block`] loop with constant bounds to the
    /// calling processor's own block: the bounds become that block's
    /// [`Bound::Block`] edges and the distribution [`Dist::Own`], so
    /// every processor runs exactly the iterations the block split gives
    /// it. Transformations of the lowered loop (an unroll-and-jam with
    /// its postlude) then stay inside each processor's block. Returns
    /// `false`, leaving the loop unchanged, for any other loop.
    pub fn lower_to_own_block(&mut self) -> bool {
        let (Some(Dist::Block), 1, Some(lo), Some(trip)) = (
            self.dist,
            self.step,
            self.lo.as_const(),
            self.const_trip_count(),
        ) else {
            return false;
        };
        let edge = |upper| Bound::Block(BlockEdge { lo, trip, upper });
        self.lo = edge(false);
        self.hi = edge(true);
        self.dist = Some(Dist::Own);
        true
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `lhs = rhs` where `lhs` is an array element (a store).
    AssignArray {
        /// Destination element.
        lhs: ArrayRef,
        /// Value stored.
        rhs: Expr,
    },
    /// `lhs = rhs` where `lhs` is a scalar (stays in a register).
    AssignScalar {
        /// Destination scalar.
        lhs: ScalarId,
        /// Value computed.
        rhs: Expr,
    },
    /// A nested loop.
    Loop(Loop),
    /// A guard: `if cond { then_branch } else { else_branch }`.
    If {
        /// The (affine) condition.
        cond: Cond,
        /// Taken when the condition holds.
        then_branch: Vec<Stmt>,
        /// Taken otherwise.
        else_branch: Vec<Stmt>,
    },
    /// Global barrier across all processors.
    Barrier,
    /// Release-semantics flag set: completes after the processor's earlier
    /// stores are globally performed. The flag index is affine in loop vars.
    FlagSet {
        /// Flag index.
        idx: AffineExpr,
    },
    /// Acquire-semantics flag wait: retires only once the flag is set.
    FlagWait {
        /// Flag index.
        idx: AffineExpr,
    },
    /// Software prefetch of an array element's line (non-binding; the
    /// interpreter clamps out-of-bounds prefetch addresses into the
    /// array, mirroring the guard-free prefetching real compilers emit).
    Prefetch {
        /// The prefetched reference.
        target: ArrayRef,
    },
}

impl Stmt {
    /// Visits every array reference in the statement (reads then writes),
    /// not descending into nested loops or guards.
    pub fn visit_local_refs<'a>(&'a self, f: &mut impl FnMut(&'a ArrayRef, bool)) {
        match self {
            Stmt::AssignArray { lhs, rhs } => {
                rhs.visit_refs(&mut |r| f(r, false));
                lhs.visit_inner_refs(&mut |r| f(r, false));
                f(lhs, true);
            }
            Stmt::AssignScalar { rhs, .. } => {
                rhs.visit_refs(&mut |r| f(r, false));
            }
            _ => {}
        }
    }
}

/// A whole program: declarations plus a top-level statement list.
///
/// A `Program` is executed SPMD-style by `nprocs` processors: every
/// processor runs the whole body, loops with [`Loop::dist`]`=
/// Some(`[`Dist::Block`]`)` split their iterations, and
/// [`Stmt::Barrier`]/flags synchronize.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Program name (diagnostics).
    pub name: String,
    /// Array declarations, indexed by [`ArrayId`].
    pub arrays: Vec<ArrayDecl>,
    /// Scalar declarations, indexed by [`ScalarId`].
    pub scalars: Vec<ScalarDecl>,
    /// Loop-variable names, indexed by [`VarId`].
    pub var_names: Vec<String>,
    /// Number of synchronization flags used.
    pub num_flags: usize,
    /// Top-level statements.
    pub body: Vec<Stmt>,
}

impl Program {
    /// Declaration of `a`.
    ///
    /// # Panics
    /// Panics if `a` was not declared in this program.
    pub fn array(&self, a: ArrayId) -> &ArrayDecl {
        &self.arrays[a.index()]
    }

    /// Declaration of scalar `s`.
    pub fn scalar(&self, s: ScalarId) -> &ScalarDecl {
        &self.scalars[s.index()]
    }

    /// Name of loop variable `v`.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.var_names[v.index()]
    }

    /// Allocates a fresh loop variable (used by transformations).
    pub fn fresh_var(&mut self, name: impl Into<String>) -> VarId {
        let id = VarId::from_raw(self.var_names.len() as u32);
        self.var_names.push(name.into());
        id
    }

    /// Allocates a fresh scalar (used by transformations, e.g. scalar
    /// replacement and variable-trip-count jamming).
    pub fn fresh_scalar(&mut self, name: impl Into<String>, elem: ElemType) -> ScalarId {
        let id = ScalarId::from_raw(self.scalars.len() as u32);
        self.scalars.push(ScalarDecl {
            name: name.into(),
            elem,
            init_bits: 0,
        });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_strides_row_major() {
        let a = ArrayDecl {
            name: "a".into(),
            dims: vec![4, 5, 6],
            elem: ElemType::F64,
        };
        assert_eq!(a.strides(), vec![30, 6, 1]);
        assert_eq!(a.len(), 120);
        assert_eq!(a.byte_len(), 960);
    }

    #[test]
    fn trip_count() {
        let l = Loop {
            var: VarId::from_raw(0),
            lo: Bound::Const(0),
            hi: Bound::Const(10),
            step: 3,
            dist: None,
            body: vec![],
        };
        assert_eq!(l.const_trip_count(), Some(4));
        let back = Loop {
            step: -1,
            ..l.clone()
        };
        assert_eq!(back.const_trip_count(), Some(10));
        let empty = Loop {
            lo: Bound::Const(5),
            hi: Bound::Const(5),
            ..l
        };
        assert_eq!(empty.const_trip_count(), Some(0));
    }

    #[test]
    fn bound_from_affine_folds_constants() {
        let b: Bound = AffineExpr::konst(7).into();
        assert_eq!(b, Bound::Const(7));
    }

    #[test]
    fn fresh_ids() {
        let mut p = Program::default();
        let v0 = p.fresh_var("i");
        let v1 = p.fresh_var("j");
        assert_ne!(v0, v1);
        assert_eq!(p.var_name(v1), "j");
        let s = p.fresh_scalar("t", ElemType::F64);
        assert_eq!(p.scalar(s).name, "t");
    }
}
