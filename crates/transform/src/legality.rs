//! Conservative data-dependence legality tests for the loop
//! transformations.
//!
//! The memory-parallelism framework (in `mempar-analysis`) is optimistic
//! by design — it estimates performance potential. Legality, as the paper
//! notes in Section 3.1, must use conventional conservative dependence
//! analysis; this module provides it for the subset of programs the IR
//! can express:
//!
//! * separable single-variable affine subscripts (GCD/offset distances);
//! * subscript **value-range disjointness** using loop bounds (proves the
//!   LU trailing submatrix independent of its pivot panels);
//! * **coupled two-variable subscripts** `c1·v1 + c2·v2 + k` with a
//!   bounded minor variable (proves FFT butterfly halves `2m·g + x` vs
//!   `2m·g + x + m` independent);
//!
//! with everything else treated as unanalyzable unless the loop is
//! explicitly marked parallel.

use mempar_ir::{
    AffineExpr, ArrayRef, Bound, DynIndex, Expr, Loop, Program, ScalarId, Stmt, VarId,
};

/// Known value ranges of loop variables (inclusive bounds), harvested
/// from constant/affine loop bounds along a nest.
#[derive(Debug, Clone, Default)]
pub struct VarRanges {
    entries: Vec<(VarId, i64, i64)>,
}

impl VarRanges {
    /// An empty range map (every variable unbounded).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `v ∈ [lo, hi]` (inclusive).
    pub fn insert(&mut self, v: VarId, lo: i64, hi: i64) {
        self.entries.retain(|&(w, _, _)| w != v);
        if lo <= hi {
            self.entries.push((v, lo, hi));
        }
    }

    /// The recorded range of `v`.
    pub fn get(&self, v: VarId) -> Option<(i64, i64)> {
        self.entries
            .iter()
            .find(|&&(w, _, _)| w == v)
            .map(|&(_, lo, hi)| (lo, hi))
    }

    /// Inclusive interval of an affine expression, when every variable is
    /// ranged.
    pub fn interval(&self, e: &AffineExpr) -> Option<(i64, i64)> {
        let mut min = e.constant_term();
        let mut max = e.constant_term();
        for (v, c) in e.terms() {
            let (lo, hi) = self.get(v)?;
            if c >= 0 {
                min += c * lo;
                max += c * hi;
            } else {
                min += c * hi;
                max += c * lo;
            }
        }
        Some((min, max))
    }
}

fn bound_interval(b: &Bound, r: &VarRanges) -> Option<(i64, i64)> {
    match b {
        Bound::Const(c) => Some((*c, *c)),
        Bound::Affine(e) => r.interval(e),
        Bound::Scalar(_) => None,
        // Every processor's block lies inside the whole range.
        Bound::Block(e) => Some((e.lo, e.lo + e.trip)),
    }
}

/// Harvests variable ranges from the loops along `path` and every loop
/// nested in the final loop's body (half-open bounds become inclusive
/// `[lo, hi-1]`; unresolvable bounds leave the variable unbounded).
pub fn collect_ranges(prog: &Program, path: &crate::nest::NestPath) -> VarRanges {
    let mut ranges = VarRanges::new();
    let mut body: &[Stmt] = &prog.body;
    for &idx in &path.0 {
        let Some(Stmt::Loop(l)) = body.get(idx) else {
            return ranges;
        };
        add_loop_range(l, &mut ranges);
        body = &l.body;
    }
    add_body_ranges(body, &mut ranges);
    ranges
}

fn add_loop_range(l: &Loop, ranges: &mut VarRanges) {
    let lo = bound_interval(&l.lo, ranges);
    let hi = bound_interval(&l.hi, ranges);
    if let (Some((lo_min, _)), Some((_, hi_max))) = (lo, hi) {
        // Iteration values lie in [lo, hi-1]; for positive non-unit steps
        // (unrolled loops) the last value is lo + step*floor(span/step),
        // which matters when copies add constant offsets up to step-1.
        let mut hi_incl = hi_max - 1;
        if l.step > 1 && lo == hi {
            // Exact bounds (constants): tighten to the stride grid.
            if let (Some((lo_c, _)), Some((_, hi_c))) = (lo, hi) {
                let span = (hi_c - 1 - lo_c).max(0);
                hi_incl = lo_c + (span / l.step) * l.step;
            }
        } else if l.step > 1 {
            if let (Some((lo_c, lo_hi)), Some((_, hi_c))) = (lo, hi) {
                if lo_c == lo_hi {
                    let span = (hi_c - 1 - lo_c).max(0);
                    hi_incl = lo_c + (span / l.step) * l.step;
                }
            }
        }
        ranges.insert(l.var, lo_min, hi_incl);
    }
}

fn add_body_ranges(body: &[Stmt], ranges: &mut VarRanges) {
    for s in body {
        match s {
            Stmt::Loop(l) => {
                add_loop_range(l, ranges);
                add_body_ranges(&l.body, ranges);
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                add_body_ranges(then_branch, ranges);
                add_body_ranges(else_branch, ranges);
            }
            _ => {}
        }
    }
}

/// Result of testing one reference pair for a dependence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PairDep {
    /// Proven independent.
    Independent,
    /// Dependent with the given per-variable distances (entries align
    /// with the queried variable list; `None` = unconstrained, '*').
    Distances(Vec<Option<i64>>),
    /// Could not analyze — must be assumed dependent in every direction.
    Unknown,
}

/// Computes the dependence between two same-array references with respect
/// to the loop variables `vars` (outermost first), using `ranges` for
/// value-based disjointness.
pub fn pair_dependence(
    prog: &Program,
    a: &ArrayRef,
    b: &ArrayRef,
    vars: &[VarId],
    ranges: &VarRanges,
) -> PairDep {
    if a.array != b.array {
        return PairDep::Independent;
    }
    if !a.is_affine() || !b.is_affine() {
        return PairDep::Unknown;
    }
    let decl = prog.array(a.array);
    debug_assert_eq!(a.indices.len(), decl.dims.len());
    let mut distances: Vec<Option<i64>> = vec![None; vars.len()];
    let mut constrained = vec![false; vars.len()];
    let mut unknown = false;

    let record = |vi: usize,
                  d: i64,
                  distances: &mut Vec<Option<i64>>,
                  constrained: &mut Vec<bool>|
     -> bool {
        match distances[vi] {
            Some(prev) if prev != d => false, // inconsistent: independent
            _ => {
                distances[vi] = Some(d);
                constrained[vi] = true;
                true
            }
        }
    };

    for (ia, ib) in a.indices.iter().zip(&b.indices) {
        let ea = &ia.affine;
        let eb = &ib.affine;
        // 1) Value-range disjointness: if this dimension's possible values
        //    never overlap, the references are independent outright.
        if let (Some((amin, amax)), Some((bmin, bmax))) = (ranges.interval(ea), ranges.interval(eb))
        {
            if amax < bmin || bmax < amin {
                return PairDep::Independent;
            }
        }
        // Residual (out-of-scope) variables must match symbolically.
        let residual_a: Vec<_> = ea.terms().filter(|(v, _)| !vars.contains(v)).collect();
        let residual_b: Vec<_> = eb.terms().filter(|(v, _)| !vars.contains(v)).collect();
        if residual_a != residual_b {
            unknown = true;
            continue;
        }
        let in_vars: Vec<VarId> = {
            let mut vs: Vec<VarId> = ea
                .terms()
                .chain(eb.terms())
                .map(|(v, _)| v)
                .filter(|v| vars.contains(v))
                .collect();
            vs.sort_unstable();
            vs.dedup();
            vs
        };
        let delta = ea.constant_term() - eb.constant_term();
        match in_vars.as_slice() {
            [] => {
                if delta != 0 {
                    return PairDep::Independent;
                }
            }
            [v] => {
                let (ca, cb) = (ea.coeff(*v), eb.coeff(*v));
                if ca != cb || ca == 0 {
                    unknown = true;
                    continue;
                }
                if delta % ca != 0 {
                    return PairDep::Independent;
                }
                let d = delta / ca;
                let vi = vars.iter().position(|x| x == v).expect("in vars");
                if !record(vi, d, &mut distances, &mut constrained) {
                    return PairDep::Independent;
                }
            }
            [v1, v2] => {
                // Coupled 2-variable subscript. Require matching coeffs.
                let (c1a, c1b) = (ea.coeff(*v1), eb.coeff(*v1));
                let (c2a, c2b) = (ea.coeff(*v2), eb.coeff(*v2));
                if c1a != c1b || c2a != c2b || c1a == 0 || c2a == 0 {
                    unknown = true;
                    continue;
                }
                // Order so |cmaj| >= |cmin|.
                let (vmaj, cmaj, vmin, cmin) = if c1a.abs() >= c2a.abs() {
                    (*v1, c1a, *v2, c2a)
                } else {
                    (*v2, c2a, *v1, c1a)
                };
                // Need the minor variable's iteration-difference range.
                let Some((lo2, hi2)) = ranges.get(vmin) else {
                    unknown = true;
                    continue;
                };
                let span = hi2 - lo2; // |D_min| <= span
                                      // cmaj*Dmaj + cmin*Dmin = delta with |Dmin| <= span.
                                      // Unique decomposition needs |cmin|*span*2 < 2*|cmaj|...
                                      // enumerate the few candidate Dmaj around delta/cmaj.
                let mut feasible: Vec<(i64, i64)> = Vec::new();
                let base = delta / cmaj;
                for q in (base - 2)..=(base + 2) {
                    let rem = delta - cmaj * q;
                    if rem % cmin == 0 {
                        let dmin = rem / cmin;
                        if dmin.abs() <= span {
                            feasible.push((q, dmin));
                        }
                    }
                }
                match feasible.len() {
                    0 => return PairDep::Independent,
                    1 => {
                        let (dmaj, dmin) = feasible[0];
                        let i_maj = vars.iter().position(|x| *x == vmaj).expect("in vars");
                        let i_min = vars.iter().position(|x| *x == vmin).expect("in vars");
                        if !record(i_maj, dmaj, &mut distances, &mut constrained)
                            || !record(i_min, dmin, &mut distances, &mut constrained)
                        {
                            return PairDep::Independent;
                        }
                    }
                    _ => {
                        unknown = true;
                        continue;
                    }
                }
            }
            _ => {
                unknown = true;
                continue;
            }
        }
    }
    if unknown {
        return PairDep::Unknown;
    }
    for (i, c) in constrained.iter().enumerate() {
        if !c {
            distances[i] = None;
        }
    }
    PairDep::Distances(distances)
}

/// Collects every array reference in `body` (recursively), tagged with
/// whether it is a write and the flattened index of its owning statement
/// (used to restrict carried dependences to intra-statement pairs, which
/// the jam's copy ordering preserves).
pub fn all_refs(body: &[Stmt]) -> Vec<(ArrayRef, bool, usize)> {
    let mut out = Vec::new();
    let mut stmt = 0usize;
    fn walk(body: &[Stmt], stmt: &mut usize, out: &mut Vec<(ArrayRef, bool, usize)>) {
        for s in body {
            match s {
                Stmt::Loop(l) => walk(&l.body, stmt, out),
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    walk(then_branch, stmt, out);
                    walk(else_branch, stmt, out);
                }
                _ => {
                    let tag = *stmt;
                    s.visit_local_refs(&mut |r, w| out.push((r.clone(), w, tag)));
                    *stmt += 1;
                }
            }
        }
    }
    walk(body, &mut stmt, &mut out);
    out
}

fn expr_scalars(e: &Expr, out: &mut Vec<ScalarId>) {
    match e {
        Expr::Scalar(s) => out.push(*s),
        Expr::Load(r) => ref_scalars(r, out),
        Expr::Unary(_, a) => expr_scalars(a, out),
        Expr::Binary(_, a, b) => {
            expr_scalars(a, out);
            expr_scalars(b, out);
        }
        _ => {}
    }
}

fn ref_scalars(r: &ArrayRef, out: &mut Vec<ScalarId>) {
    for ix in &r.indices {
        match &ix.dynamic {
            Some(DynIndex::Scalar { scalar, .. }) => out.push(*scalar),
            Some(DynIndex::Indirect { inner, .. }) => ref_scalars(inner, out),
            None => {}
        }
    }
}

fn bound_scalars(b: &Bound, out: &mut Vec<ScalarId>) {
    if let Bound::Scalar(s) = b {
        out.push(*s);
    }
}

/// Scalar-dataflow precondition for jamming.
///
/// Private scalars (defined before use) are renamed per copy and carry no
/// cross-copy state. Any *shared* scalar that the body writes is only
/// safe when every access to it — reads, writes, and loop-bound reads —
/// sits in a single leaf statement: that is the recognized reduction
/// shape `s = s ⊕ e`, whose per-position copies the jam emits in
/// iteration order. Accesses spread across statements (e.g. `s = s + a[i]`
/// followed by `out[i] = s`) would be reordered by the position-major
/// emission and must reject the jam. Found by differential testing
/// (`crates/difftest`); see the regression test in `unroll.rs`.
fn scalar_chains_jammable(body: &[Stmt]) -> bool {
    // One entry per leaf statement: the set of scalars it touches.
    fn collect(body: &[Stmt], leaves: &mut Vec<Vec<ScalarId>>) {
        for s in body {
            let mut touched = Vec::new();
            match s {
                Stmt::AssignArray { lhs, rhs } => {
                    ref_scalars(lhs, &mut touched);
                    expr_scalars(rhs, &mut touched);
                }
                Stmt::AssignScalar { lhs, rhs } => {
                    touched.push(*lhs);
                    expr_scalars(rhs, &mut touched);
                }
                Stmt::Prefetch { target } => ref_scalars(target, &mut touched),
                Stmt::Loop(l) => {
                    bound_scalars(&l.lo, &mut touched);
                    bound_scalars(&l.hi, &mut touched);
                    leaves.push(std::mem::take(&mut touched));
                    collect(&l.body, leaves);
                    continue;
                }
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    collect(then_branch, leaves);
                    collect(else_branch, leaves);
                    continue;
                }
                Stmt::Barrier | Stmt::FlagSet { .. } | Stmt::FlagWait { .. } => continue,
            }
            leaves.push(touched);
        }
    }
    let mut leaves = Vec::new();
    collect(body, &mut leaves);
    for &written in &crate::subst::assigned_scalars(body) {
        if crate::subst::first_access_is_def(body, written) {
            continue; // private: renamed per copy
        }
        let touching = leaves.iter().filter(|l| l.contains(&written)).count();
        if touching > 1 {
            return false;
        }
    }
    true
}

/// Whether it is legal to unroll-and-jam the loop over `target` whose
/// body is `body`, given the loop variables `inner_vars` of loops nested
/// inside it and the harvested `ranges`.
///
/// Legal when, for every pair of references to the same array with at
/// least one write, the pair is independent, not carried by `target`
/// (distance 0), or carried by `target` with all inner distances zero
/// (copies execute in source order inside the jammed body). Explicitly
/// parallel loops ([`mempar_ir::Loop::dist`]) are trusted to be
/// dependence-free across iterations, as the paper assumes for MST and
/// Mp3d.
pub fn can_unroll_and_jam(
    prog: &Program,
    body: &[Stmt],
    target: VarId,
    inner_vars: &[VarId],
    explicitly_parallel: bool,
    ranges: &VarRanges,
) -> bool {
    if crate::nest::contains_sync(body) {
        return false;
    }
    if explicitly_parallel {
        return true;
    }
    if !scalar_chains_jammable(body) {
        return false;
    }
    let refs = all_refs(body);
    let mut vars = vec![target];
    vars.extend_from_slice(inner_vars);
    for i in 0..refs.len() {
        for j in i..refs.len() {
            let (ra, wa, sa) = &refs[i];
            let (rb, wb, sb) = &refs[j];
            if !wa && !wb {
                continue;
            }
            match pair_dependence(prog, ra, rb, &vars, ranges) {
                PairDep::Independent => {}
                PairDep::Unknown => return false,
                PairDep::Distances(d) => {
                    let dt = d[0];
                    let inner_zero = d[1..].iter().all(|x| *x == Some(0));
                    let ok = match dt {
                        // Loop-independent pairs: the jam preserves
                        // intra-copy statement order.
                        Some(0) => true,
                        // Carried pairs survive only when no inner loop
                        // reorders them and both references sit in the
                        // same statement (the jam emits each statement
                        // position's copies in iteration order).
                        Some(_) | None => inner_zero && sa == sb,
                    };
                    if !ok {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// Whether interchanging the loop over `outer` with the directly nested
/// loop over `inner` is legal: no dependence with direction `(<, >)`
/// (i.e. distances `(positive, negative)` in (outer, inner)).
pub fn can_interchange(
    prog: &Program,
    body: &[Stmt],
    outer: VarId,
    inner: VarId,
    ranges: &VarRanges,
) -> bool {
    if crate::nest::contains_sync(body) {
        return false;
    }
    // Interchange permutes the iteration order, so scalar state woven
    // through multiple statements (e.g. a pointer chase feeding a store)
    // would observe a different update sequence. The same single-leaf
    // discipline that gates jamming applies; found by differential
    // testing (crates/difftest, seed 233).
    if !scalar_chains_jammable(body) {
        return false;
    }
    let refs = all_refs(body);
    for i in 0..refs.len() {
        for j in i..refs.len() {
            let (ra, wa, _) = &refs[i];
            let (rb, wb, _) = &refs[j];
            if !wa && !wb {
                continue;
            }
            match pair_dependence(prog, ra, rb, &[outer, inner], ranges) {
                PairDep::Independent => {}
                PairDep::Unknown => return false,
                PairDep::Distances(d) => {
                    let (o, n) = (d[0], d[1]);
                    let could_pos = matches!(o, Some(x) if x != 0) || o.is_none();
                    let could_neg = matches!(n, Some(x) if x != 0) || n.is_none();
                    if could_pos && could_neg {
                        if let (Some(a), Some(b)) = (o, n) {
                            if (a > 0 && b < 0) || (a < 0 && b > 0) {
                                return false;
                            }
                        } else {
                            return false;
                        }
                    }
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempar_ir::{AffineExpr, ProgramBuilder};

    struct Fixture {
        prog: Program,
        a: mempar_ir::ArrayId,
        j: VarId,
        i: VarId,
    }

    fn fixture() -> Fixture {
        let mut b = ProgramBuilder::new("f");
        let a = b.array_f64("a", &[64, 64]);
        let j = b.var("j");
        let i = b.var("i");
        Fixture {
            prog: b.finish(),
            a,
            j,
            i,
        }
    }

    fn r(f: &Fixture, ej: AffineExpr, ei: AffineExpr) -> ArrayRef {
        ArrayRef::new(
            f.a,
            vec![mempar_ir::Index::affine(ej), mempar_ir::Index::affine(ei)],
        )
    }

    #[test]
    fn same_ref_distance_zero() {
        let f = fixture();
        let x = r(&f, AffineExpr::var(f.j), AffineExpr::var(f.i));
        match pair_dependence(&f.prog, &x, &x.clone(), &[f.j, f.i], &VarRanges::new()) {
            PairDep::Distances(d) => assert_eq!(d, vec![Some(0), Some(0)]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn offset_gives_distance() {
        let f = fixture();
        let x = r(&f, AffineExpr::var(f.j), AffineExpr::var(f.i));
        let y = r(
            &f,
            AffineExpr::var(f.j).offset(-1),
            AffineExpr::var(f.i).offset(2),
        );
        match pair_dependence(&f.prog, &x, &y, &[f.j, f.i], &VarRanges::new()) {
            PairDep::Distances(d) => assert_eq!(d, vec![Some(1), Some(-2)]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn gcd_test_proves_independence() {
        let f = fixture();
        let x = r(&f, AffineExpr::var(f.j), AffineExpr::scaled_var(f.i, 2, 0));
        let y = r(&f, AffineExpr::var(f.j), AffineExpr::scaled_var(f.i, 2, 1));
        assert_eq!(
            pair_dependence(&f.prog, &x, &y, &[f.j, f.i], &VarRanges::new()),
            PairDep::Independent
        );
    }

    #[test]
    fn range_disjointness_proves_lu_panels_independent() {
        // Write A[r, c] with r in [16, 63]; read A[kk, c] with kk in
        // [8, 15]: the rows never meet (the LU trailing-update pattern).
        let f = fixture();
        let rr = f.prog.clone();
        let _ = rr;
        let kk = VarId::from_raw(9);
        let c = VarId::from_raw(10);
        let rvar = VarId::from_raw(11);
        let write = ArrayRef::new(
            f.a,
            vec![
                mempar_ir::Index::affine(AffineExpr::var(rvar)),
                mempar_ir::Index::affine(AffineExpr::var(c)),
            ],
        );
        let read = ArrayRef::new(
            f.a,
            vec![
                mempar_ir::Index::affine(AffineExpr::var(kk)),
                mempar_ir::Index::affine(AffineExpr::var(c)),
            ],
        );
        let mut ranges = VarRanges::new();
        ranges.insert(rvar, 16, 63);
        ranges.insert(kk, 8, 15);
        ranges.insert(c, 16, 63);
        assert_eq!(
            pair_dependence(&f.prog, &write, &read, &[kk, c], &ranges),
            PairDep::Independent
        );
        // Without ranges the same pair is unanalyzable.
        assert_eq!(
            pair_dependence(&f.prog, &write, &read, &[kk, c], &VarRanges::new()),
            PairDep::Unknown
        );
    }

    #[test]
    fn coupled_butterfly_halves_independent() {
        // FFT stage m=4: A[r, 8g + x + 4] vs A[r, 8g' + x'], x in [0,3]:
        // the halves never alias.
        let f = fixture();
        let g = VarId::from_raw(20);
        let x = VarId::from_raw(21);
        let e_hi = AffineExpr::scaled_var(g, 8, 4).add(&AffineExpr::var(x));
        let e_lo = AffineExpr::scaled_var(g, 8, 0).add(&AffineExpr::var(x));
        let hi_ref = r(&f, AffineExpr::var(f.j), e_hi);
        let lo_ref = r(&f, AffineExpr::var(f.j), e_lo);
        let mut ranges = VarRanges::new();
        ranges.insert(x, 0, 3);
        ranges.insert(g, 0, 7);
        assert_eq!(
            pair_dependence(&f.prog, &hi_ref, &lo_ref, &[g, x], &ranges),
            PairDep::Independent
        );
        // Same half against itself: distance (0, 0).
        match pair_dependence(&f.prog, &hi_ref, &hi_ref.clone(), &[g, x], &ranges) {
            PairDep::Distances(d) => assert_eq!(d, vec![Some(0), Some(0)]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn coupled_without_ranges_is_unknown() {
        let f = fixture();
        let g = VarId::from_raw(20);
        let x = VarId::from_raw(21);
        let e = AffineExpr::scaled_var(g, 8, 0).add(&AffineExpr::var(x));
        let a_ref = r(&f, AffineExpr::var(f.j), e);
        assert_eq!(
            pair_dependence(&f.prog, &a_ref, &a_ref.clone(), &[g, x], &VarRanges::new()),
            PairDep::Unknown
        );
    }

    #[test]
    fn transpose_pattern_unknown() {
        let f = fixture();
        let x = r(&f, AffineExpr::var(f.j), AffineExpr::var(f.i));
        let y = r(&f, AffineExpr::var(f.i), AffineExpr::var(f.j));
        assert_eq!(
            pair_dependence(&f.prog, &x, &y, &[f.j, f.i], &VarRanges::new()),
            PairDep::Unknown
        );
    }

    fn stencil_program(write_off: i64) -> (Program, Vec<Stmt>, VarId, VarId) {
        let mut b = ProgramBuilder::new("st");
        let a = b.array_f64("a", &[16, 16]);
        let j = b.var("j");
        let i = b.var("i");
        b.for_const(j, 1, 15, |b| {
            b.for_const(i, 1, 15, |b| {
                let up = b.load(
                    a,
                    &[b.idx_e(AffineExpr::var(j).offset(write_off)), b.idx(i)],
                );
                b.assign_array(a, &[b.idx(j), b.idx(i)], up);
            });
        });
        let p = b.finish();
        let Stmt::Loop(outer) = &p.body[0] else {
            panic!()
        };
        let body = outer.body.clone();
        (p, body, j, i)
    }

    #[test]
    fn uaj_legal_for_independent_rows() {
        let (p, body, j, i) = stencil_program(-1);
        assert!(can_unroll_and_jam(
            &p,
            &body,
            j,
            &[i],
            false,
            &VarRanges::new()
        ));
    }

    #[test]
    fn uaj_respects_parallel_annotation() {
        let mut b = ProgramBuilder::new("par");
        let a = b.array_i64("ind", &[16]);
        let d = b.array_f64("d", &[64]);
        let j = b.var("j");
        b.for_dist(j, 0, 16, mempar_ir::Dist::Block, |b| {
            let inner = ArrayRef::new(a, vec![mempar_ir::Index::affine(AffineExpr::var(j))]);
            let v = b.load_ref(ArrayRef::new(d, vec![mempar_ir::Index::indirect(inner)]));
            b.assign_ref(
                ArrayRef::new(d, vec![mempar_ir::Index::affine(AffineExpr::var(j))]),
                v,
            );
        });
        let p = b.finish();
        let Stmt::Loop(l) = &p.body[0] else { panic!() };
        assert!(!can_unroll_and_jam(
            &p,
            &l.body,
            j,
            &[],
            false,
            &VarRanges::new()
        ));
        assert!(can_unroll_and_jam(
            &p,
            &l.body,
            j,
            &[],
            true,
            &VarRanges::new()
        ));
    }

    #[test]
    fn uaj_blocked_by_sync() {
        let mut b = ProgramBuilder::new("s");
        let j = b.var("j");
        b.for_const(j, 0, 4, |b| b.barrier());
        let p = b.finish();
        let Stmt::Loop(l) = &p.body[0] else { panic!() };
        assert!(!can_unroll_and_jam(
            &p,
            &l.body,
            j,
            &[],
            true,
            &VarRanges::new()
        ));
    }

    #[test]
    fn interchange_legal_for_forward_stencil() {
        let (p, body, j, i) = stencil_program(-1);
        assert!(can_interchange(&p, &body, j, i, &VarRanges::new()));
    }

    #[test]
    fn interchange_blocked_by_skewed_dependence() {
        let mut b = ProgramBuilder::new("skew");
        let a = b.array_f64("a", &[16, 16]);
        let j = b.var("j");
        let i = b.var("i");
        b.for_const(j, 1, 15, |b| {
            b.for_const(i, 0, 15, |b| {
                let up = b.load(
                    a,
                    &[
                        b.idx_e(AffineExpr::var(j).offset(-1)),
                        b.idx_e(AffineExpr::var(i).offset(1)),
                    ],
                );
                b.assign_array(a, &[b.idx(j), b.idx(i)], up);
            });
        });
        let p = b.finish();
        let Stmt::Loop(outer) = &p.body[0] else {
            panic!()
        };
        assert!(!can_interchange(&p, &outer.body, j, i, &VarRanges::new()));
    }

    #[test]
    fn reads_never_conflict() {
        let mut b = ProgramBuilder::new("ro");
        let a = b.array_f64("a", &[16, 16]);
        let s = b.scalar_f64("s", 0.0);
        let j = b.var("j");
        let i = b.var("i");
        b.for_const(j, 0, 16, |b| {
            b.for_const(i, 0, 16, |b| {
                let x = b.load(a, &[b.idx(j), b.idx(i)]);
                let y = b.load(a, &[b.idx(i), b.idx(j)]);
                let acc = b.scalar(s);
                let e1 = b.add(x, y);
                let e = b.add(acc, e1);
                b.assign_scalar(s, e);
            });
        });
        let p = b.finish();
        let Stmt::Loop(outer) = &p.body[0] else {
            panic!()
        };
        assert!(can_unroll_and_jam(
            &p,
            &outer.body,
            j,
            &[i],
            false,
            &VarRanges::new()
        ));
        assert!(can_interchange(&p, &outer.body, j, i, &VarRanges::new()));
    }

    #[test]
    fn collect_ranges_walks_nest() {
        let mut b = ProgramBuilder::new("cr");
        let a = b.array_f64("a", &[32, 32]);
        let j = b.var("j");
        let i = b.var("i");
        b.for_const(j, 2, 30, |b| {
            b.for_affine(i, AffineExpr::var(j), AffineExpr::konst(32), |b| {
                let v = b.load(a, &[b.idx(j), b.idx(i)]);
                b.assign_array(a, &[b.idx(j), b.idx(i)], v);
            });
        });
        let p = b.finish();
        let ranges = collect_ranges(&p, &crate::nest::NestPath::top(0));
        assert_eq!(ranges.get(j), Some((2, 29)));
        // i's lower bound is affine in j: conservative superset [2, 31].
        assert_eq!(ranges.get(i), Some((2, 31)));
    }
}
