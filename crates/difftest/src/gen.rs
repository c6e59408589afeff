//! Adversarial program generation.
//!
//! Generated programs go deliberately beyond the rectangular `NestSpec`
//! nests the workloads use: triangular and trapezoidal bounds, negative
//! and non-unit steps, indirect (index-array) and pointer-carried
//! accesses, guarded branches, scalar reductions, pointer chases,
//! multi-statement bodies, aliasing views of one array, and (in
//! [`Mode::Dist`]) explicitly distributed loops with barriers.
//!
//! The generator only constrains what soundness of the *oracles*
//! demands (see [`Mode`]); everything the transform legality analysis
//! must reject is left in deliberately, so the differential harness
//! exercises both the accept and the reject path.

use crate::spec::{Mode, ProgSpec, SArr, SBound, SCond, SDyn, SExpr, SIndex, SLoop, SOp, SStmt};
use mempar_ir::{CmpOp, Dist};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Tuning knobs for [`gen_spec_with`].
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Maximum loop-nest depth (the paper's interesting cases are 1–4).
    pub max_depth: usize,
    /// Maximum statements at top level.
    pub max_top_stmts: usize,
    /// Maximum statements per loop body.
    pub max_body_stmts: usize,
    /// Force a specific oracle mode (`None` = pick randomly).
    pub mode: Option<Mode>,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_depth: 4,
            max_top_stmts: 3,
            max_body_stmts: 3,
            mode: None,
        }
    }
}

/// Generates an adversarial [`ProgSpec`] from `seed` with default knobs.
pub fn gen_spec(seed: u64) -> ProgSpec {
    gen_spec_with(seed, &GenConfig::default())
}

struct Gen<'c> {
    rng: SmallRng,
    cfg: &'c GenConfig,
    mode: Mode,
    next_var: u32,
    n_data: usize,
    n_out: usize,
    n_ind: usize,
    n_f: usize,
    n_ptr: usize,
    n_bound: usize,
    data_rank: Vec<usize>,
    out_rank: Vec<usize>,
    /// Innermost-last stack of in-scope loop vars.
    scope: Vec<u32>,
    /// The distribution variable when inside a distributed loop.
    dist_var: Option<u32>,
}

/// Generates an adversarial [`ProgSpec`] from `seed`.
pub fn gen_spec_with(seed: u64, cfg: &GenConfig) -> ProgSpec {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mode = cfg.mode.unwrap_or_else(|| match rng.gen_range(0..10u32) {
        0..=4 => Mode::Seq,
        5..=7 => Mode::ParClean,
        _ => Mode::Dist,
    });
    let data_rank: Vec<usize> = (0..rng.gen_range(1..=3usize))
        .map(|_| rng.gen_range(1..=2usize))
        .collect();
    let out_rank: Vec<usize> = (0..rng.gen_range(1..=2usize))
        .map(|_| rng.gen_range(1..=2usize))
        .collect();
    let mut g = Gen {
        mode,
        next_var: 0,
        n_data: data_rank.len(),
        n_out: out_rank.len(),
        n_ind: rng.gen_range(1..=2usize),
        n_f: rng.gen_range(1..=2usize),
        n_ptr: rng.gen_range(1..=2usize),
        n_bound: rng.gen_range(1..=2usize),
        data_rank,
        out_rank,
        scope: Vec::new(),
        dist_var: None,
        rng,
        cfg,
    };
    let bound_scalars: Vec<i64> = (0..g.n_bound).map(|_| g.rng.gen_range(2..=7i64)).collect();

    let n_top = g.rng.gen_range(1..=g.cfg.max_top_stmts.max(1));
    let mut stmts = Vec::new();
    for i in 0..n_top {
        if i > 0 && g.mode == Mode::Dist {
            // Phases of a distributed program are barrier-separated.
            stmts.push(SStmt::Barrier);
        }
        stmts.push(g.top_stmt());
    }

    ProgSpec {
        seed,
        mode,
        nprocs: g.rng.gen_range(2..=4usize),
        data_rank: g.data_rank.clone(),
        out_rank: g.out_rank.clone(),
        n_ind: g.n_ind,
        n_fscalars: g.n_f,
        n_ptrs: g.n_ptr,
        bound_scalars,
        stmts,
    }
}

impl Gen<'_> {
    fn fresh_var(&mut self) -> u32 {
        let v = self.next_var;
        self.next_var += 1;
        v
    }

    /// A top-level statement: usually a loop nest, occasionally a bare
    /// scalar statement.
    fn top_stmt(&mut self) -> SStmt {
        let depth = self.rng.gen_range(1..=self.cfg.max_depth.max(1));
        // Perfect nests keep the interchange path exercised; ragged
        // nests exercise its rejections.
        let perfect = self.rng.gen_bool(0.4);
        self.gen_loop(depth, perfect, true)
    }

    /// A loop of the given remaining depth budget.
    fn gen_loop(&mut self, depth: usize, perfect: bool, top: bool) -> SStmt {
        let var = self.fresh_var();
        let dist = if top && self.mode == Mode::Dist {
            // The draw is unused, but dropping it would shift every later
            // draw: seeds keep generating the programs that the corpus
            // reproducers and pinned goldens regenerate from them.
            let _ = self.rng.gen_bool(0.7);
            Some(Dist::Block)
        } else {
            None
        };
        let (lo, hi, step) = if dist.is_some() {
            // Distributed loops: forward, unit step, decent trip count.
            (
                SBound::Const(0),
                SBound::Const(self.rng.gen_range(4..=8i64)),
                1,
            )
        } else {
            self.gen_bounds()
        };
        let outer_dist = self.dist_var;
        if dist.is_some() {
            self.dist_var = Some(var);
        }
        self.scope.push(var);

        let mut body = Vec::new();
        if depth > 1 && (perfect || self.rng.gen_bool(0.6)) {
            // Nest deeper; a perfect nest has the inner loop alone.
            body.push(self.gen_loop(depth - 1, perfect, false));
            if !perfect && self.rng.gen_bool(0.4) {
                body.push(self.leaf_stmt());
            }
        } else {
            let n = self.rng.gen_range(1..=self.cfg.max_body_stmts.max(1));
            for _ in 0..n {
                body.push(self.body_stmt());
            }
        }

        self.scope.pop();
        if dist.is_some() {
            self.dist_var = outer_dist;
        }
        SStmt::Loop(SLoop {
            var,
            lo,
            hi,
            step,
            dist,
            body,
        })
    }

    /// Bounds for a sequential loop: constant, triangular/trapezoidal
    /// (affine in an outer var), or scalar-carried; steps of 1, 2, -1.
    fn gen_bounds(&mut self) -> (SBound, SBound, i64) {
        let lo = if !self.scope.is_empty() && self.rng.gen_bool(0.2) {
            let var = self.outer_var();
            SBound::Affine {
                var,
                coeff: 1,
                off: self.rng.gen_range(0..=1i64),
            }
        } else {
            SBound::Const(self.rng.gen_range(0..=2i64))
        };
        let hi = match self.rng.gen_range(0..10u32) {
            0..=5 => SBound::Const(self.rng.gen_range(3..=8i64)),
            6..=7 if !self.scope.is_empty() => {
                let var = self.outer_var();
                SBound::Affine {
                    var,
                    coeff: 1,
                    off: self.rng.gen_range(1..=3i64),
                }
            }
            6..=7 => SBound::Const(self.rng.gen_range(3..=8i64)),
            _ => SBound::ScalarB(self.rng.gen_range(0..self.n_bound)),
        };
        let step = match self.rng.gen_range(0..10u32) {
            0..=6 => 1,
            7..=8 => 2,
            _ => -1,
        };
        (lo, hi, step)
    }

    fn outer_var(&mut self) -> u32 {
        let i = self.rng.gen_range(0..self.scope.len());
        self.scope[i]
    }

    /// A non-loop statement inside a loop body.
    fn body_stmt(&mut self) -> SStmt {
        if self.rng.gen_bool(0.25) {
            let guarded = self.leaf_stmt();
            let els = if self.rng.gen_bool(0.4) {
                vec![self.leaf_stmt()]
            } else {
                Vec::new()
            };
            return SStmt::If {
                cond: self.gen_cond(),
                then_s: vec![guarded],
                else_s: els,
            };
        }
        self.leaf_stmt()
    }

    /// A store / scalar statement (never a loop or branch).
    fn leaf_stmt(&mut self) -> SStmt {
        let in_dist_body = self.dist_var.is_some();
        let roll = self.rng.gen_range(0..10u32);
        match roll {
            // Scalar statements are forbidden in distributed bodies:
            // sequential and per-processor executions would see
            // different accumulator state.
            0..=1 if !in_dist_body => {
                let scalar = self.rng.gen_range(0..self.n_f);
                let rhs = if self.rng.gen_bool(0.7) {
                    // A reduction accumulate (sum/min/max chain).
                    let op = match self.rng.gen_range(0..3u32) {
                        0 => SOp::Add,
                        1 => SOp::Min,
                        _ => SOp::Max,
                    };
                    SExpr::Bin(
                        op,
                        Box::new(SExpr::ScalarF(scalar)),
                        Box::new(self.gen_expr(2)),
                    )
                } else {
                    // A private temp definition.
                    self.gen_expr(2)
                };
                SStmt::SetF { scalar, rhs }
            }
            2 if !in_dist_body && self.mode != Mode::ParClean => SStmt::Chase {
                ptr: self.rng.gen_range(0..self.n_ptr),
                ind: self.rng.gen_range(0..self.n_ind),
            },
            // Barriers inside Seq-mode bodies exercise the transforms'
            // sync rejections (a single processor passes them freely).
            3 if self.mode == Mode::Seq && self.rng.gen_bool(0.3) => SStmt::Barrier,
            _ => self.gen_store(),
        }
    }

    fn gen_store(&mut self) -> SStmt {
        let (target, rank) = self.store_target();
        let mut idx = Vec::with_capacity(rank);
        for d in 0..rank {
            if d == 0 {
                if let Some(dv) = self.dist_var {
                    // Distributed stores are partitioned on dim 0.
                    idx.push(SIndex::var(dv));
                    continue;
                }
            }
            idx.push(self.gen_index());
        }
        SStmt::Store {
            target,
            idx,
            rhs: self.gen_expr(3),
        }
    }

    fn store_target(&mut self) -> (SArr, usize) {
        // Seq mode may also overwrite its own inputs (self-updates and
        // aliasing views); the parallel modes write outputs only.
        if self.mode == Mode::Seq && self.rng.gen_bool(0.5) {
            let k = self.rng.gen_range(0..self.n_data);
            (SArr::Data(k), self.data_rank[k])
        } else {
            let k = self.rng.gen_range(0..self.n_out);
            (SArr::Out(k), self.out_rank[k])
        }
    }

    fn load_source(&mut self) -> (SArr, usize) {
        // Out arrays are write-only in the parallel modes; Seq mode may
        // read back what it wrote.
        if self.mode == Mode::Seq && self.rng.gen_bool(0.25) {
            let k = self.rng.gen_range(0..self.n_out);
            (SArr::Out(k), self.out_rank[k])
        } else {
            let k = self.rng.gen_range(0..self.n_data);
            (SArr::Data(k), self.data_rank[k])
        }
    }

    fn gen_index(&mut self) -> SIndex {
        let mut terms = Vec::new();
        if !self.scope.is_empty() {
            let n = self.rng.gen_range(0..=2usize.min(self.scope.len()));
            for _ in 0..n {
                let v = self.outer_var();
                let coeff = *[-2i64, -1, 1, 1, 2]
                    .get(self.rng.gen_range(0..5usize))
                    .unwrap();
                terms.push((v, coeff));
            }
        }
        let off = self.rng.gen_range(-4i64..=4);
        let dynamic = if self.rng.gen_bool(0.25) {
            Some(if self.rng.gen_bool(0.7) || self.n_ptr == 0 {
                SDyn::Ind {
                    ind: self.rng.gen_range(0..self.n_ind),
                    inner_var: if !self.scope.is_empty() && self.rng.gen_bool(0.7) {
                        Some(self.outer_var())
                    } else {
                        None
                    },
                    inner_coeff: self.rng.gen_range(1..=2i64),
                    inner_off: self.rng.gen_range(0..=3i64),
                    scale: self.rng.gen_range(1..=2i64),
                }
            } else {
                SDyn::Ptr {
                    ptr: self.rng.gen_range(0..self.n_ptr),
                    scale: self.rng.gen_range(1..=2i64),
                }
            })
        } else {
            None
        };
        SIndex {
            terms,
            off,
            dynamic,
        }
    }

    fn gen_cond(&mut self) -> SCond {
        let var = if self.scope.is_empty() {
            0
        } else {
            self.outer_var()
        };
        let op = *[
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ]
        .get(self.rng.gen_range(0..6usize))
        .unwrap();
        SCond {
            var,
            coeff: self.rng.gen_range(1..=2i64),
            off: self.rng.gen_range(-4i64..=2),
            op,
        }
    }

    fn gen_expr(&mut self, depth: usize) -> SExpr {
        if depth == 0 || self.rng.gen_bool(0.35) {
            return self.gen_leaf_expr();
        }
        match self.rng.gen_range(0..8u32) {
            0..=5 => {
                let op = match self.rng.gen_range(0..9u32) {
                    0..=2 => SOp::Add,
                    3..=4 => SOp::Sub,
                    5..=6 => SOp::Mul,
                    7 => SOp::Min,
                    _ => SOp::Max,
                };
                SExpr::Bin(
                    op,
                    Box::new(self.gen_expr(depth - 1)),
                    Box::new(self.gen_expr(depth - 1)),
                )
            }
            6 => SExpr::Neg(Box::new(self.gen_expr(depth - 1))),
            _ => self.gen_leaf_expr(),
        }
    }

    fn gen_leaf_expr(&mut self) -> SExpr {
        match self.rng.gen_range(0..10u32) {
            0..=4 => {
                let (arr, rank) = self.load_source();
                let idx = (0..rank).map(|_| self.gen_index()).collect();
                SExpr::Load { arr, idx }
            }
            5 => SExpr::ScalarF(self.rng.gen_range(0..self.n_f)),
            6 => SExpr::Ptr(self.rng.gen_range(0..self.n_ptr)),
            7 if !self.scope.is_empty() => SExpr::Var(self.outer_var()),
            // Exact dyadic constants keep all arithmetic
            // reassociation-safe.
            _ => SExpr::ConstF(self.rng.gen_range(-8i64..=8) as f64 * 0.5),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{materialize, IND_RANGE};
    use mempar_ir::{run_parallel_functional, run_single};

    #[test]
    fn generated_specs_validate_and_run_in_bounds() {
        for seed in 0..200 {
            let spec = gen_spec(seed);
            let built = materialize(&spec);
            let errs = built.prog.validate();
            assert!(errs.is_empty(), "seed {seed}: {errs:?}");
            // The interpreter panics on any out-of-bounds access, so a
            // clean run is the in-bounds proof.
            let mut mem = built.memory(1);
            run_single(&built.prog, &mut mem);
        }
    }

    #[test]
    fn parallel_modes_match_sequential_baseline() {
        let mut checked = 0;
        for seed in 0..300 {
            let spec = gen_spec(seed);
            if !spec.mode.parallel_checked() {
                continue;
            }
            let built = materialize(&spec);
            let mut seq = built.memory(1);
            run_single(&built.prog, &mut seq);
            let mut par = built.memory(1);
            run_parallel_functional(&built.prog, &mut par, built.nprocs);
            assert_eq!(
                seq.fingerprint(),
                par.fingerprint(),
                "seed {seed} ({:?}) diverged under the parallel oracle",
                spec.mode
            );
            checked += 1;
        }
        assert!(
            checked >= 50,
            "mode mix too skewed: only {checked} parallel specs"
        );
    }

    #[test]
    fn generator_reaches_adversarial_features() {
        let (mut ind, mut tri, mut neg, mut chase, mut guard, mut dist, mut red) =
            (0u32, 0u32, 0u32, 0u32, 0u32, 0u32, 0u32);
        for seed in 0..300 {
            let spec = gen_spec(seed);
            visit(&spec.stmts, &mut |s: &SStmt| match s {
                SStmt::Loop(l) => {
                    if matches!(l.lo, SBound::Affine { .. })
                        || matches!(l.hi, SBound::Affine { .. })
                    {
                        tri += 1;
                    }
                    if l.step < 0 {
                        neg += 1;
                    }
                    if l.dist.is_some() {
                        dist += 1;
                    }
                }
                SStmt::Store { idx, .. } if idx.iter().any(|i| i.dynamic.is_some()) => {
                    ind += 1;
                }
                SStmt::Chase { .. } => chase += 1,
                SStmt::If { .. } => guard += 1,
                SStmt::SetF {
                    rhs: SExpr::Bin(_, a, _),
                    ..
                } if matches!(**a, SExpr::ScalarF(_)) => {
                    red += 1;
                }
                _ => {}
            });
        }
        assert!(
            ind > 20 && tri > 20 && neg > 20 && chase > 5 && guard > 20 && dist > 10 && red > 10,
            "feature mix too thin: ind={ind} tri={tri} neg={neg} chase={chase} guard={guard} dist={dist} red={red}"
        );
    }

    fn visit(body: &[SStmt], f: &mut impl FnMut(&SStmt)) {
        for s in body {
            f(s);
            match s {
                SStmt::Loop(l) => visit(&l.body, f),
                SStmt::If { then_s, else_s, .. } => {
                    visit(then_s, f);
                    visit(else_s, f);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn ind_range_matches_init() {
        for a in 0..4 {
            for k in 0..64 {
                let v = crate::spec::ind_init(a, k);
                assert!((0..IND_RANGE).contains(&v));
            }
        }
    }
}
