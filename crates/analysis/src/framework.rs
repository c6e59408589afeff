//! The analysis side of the transformation framework (Section 3.2.2):
//! mapping memory parallelism onto the floating-point-pipelining model and
//! estimating `f`, the per-iteration count of overlappable misses.

use mempar_ir::{Interleave, Program, Stmt, VarId};

use crate::depgraph::{summarize_recurrences, RecurrenceSummary};
use crate::refs::{collect_refs, MissProfile, RefCollection};

/// The machine parameters the framework needs (a distillation of the full
/// simulator configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineSummary {
    /// Instruction-window size `W`.
    pub window: usize,
    /// Processors the code will run on (1 = uniprocessor). Parallel-loop
    /// transformations use this to avoid cross-processor postludes.
    pub procs: usize,
    /// Simultaneous outstanding misses `lp` (MSHRs).
    pub mshrs: usize,
    /// External cache line size in bytes.
    pub line_bytes: usize,
    /// Maximum unroll(-and-jam) degree `U` the driver will consider,
    /// bounding code expansion and register pressure.
    pub max_unroll: u32,
    /// Memory banks per node.
    pub banks: usize,
    /// How lines are interleaved across those banks.
    pub interleave: Interleave,
}

impl MachineSummary {
    /// The paper's base simulated machine: 64-entry window, 10 MSHRs,
    /// 64-byte lines, 4 permutation-interleaved banks.
    pub fn base() -> Self {
        MachineSummary {
            window: 64,
            procs: 1,
            mshrs: 10,
            line_bytes: 64,
            max_unroll: 16,
            banks: 4,
            interleave: Interleave::Permutation,
        }
    }

    /// An Exemplar-like machine: 56-entry window, 10 outstanding misses,
    /// 32-byte lines, 8 skew-interleaved banks.
    pub fn exemplar() -> Self {
        MachineSummary {
            window: 56,
            procs: 1,
            mshrs: 10,
            line_bytes: 32,
            max_unroll: 16,
            banks: 8,
            interleave: Interleave::Skewed,
        }
    }
}

/// Complete analysis of one innermost loop.
#[derive(Debug, Clone)]
pub struct NestAnalysis {
    /// Collected, locality-classified references.
    pub refs: RefCollection,
    /// Recurrence structure.
    pub recurrences: RecurrenceSummary,
    /// Static instruction estimate per iteration (`i`).
    pub body_ops: usize,
    /// Expected overlappable misses per dynamically-unrolled window (`f`,
    /// Equations 2–4).
    pub f: f64,
    /// Expected misses contributed per single iteration (used for
    /// window-constraint resolution).
    pub misses_per_iter: f64,
}

impl NestAnalysis {
    /// The memory-parallelism utilization bound `f / (α · lp)` (≤ 1 means
    /// the recurrence caps MSHR usage below capacity). `None` when the
    /// loop has no miss recurrence.
    pub fn utilization_bound(&self, m: &MachineSummary) -> Option<f64> {
        if self.recurrences.alpha == 0.0 {
            return None;
        }
        Some(self.f / (self.recurrences.alpha * m.mshrs as f64))
    }

    /// The target `f` that saturates the overlap resources given the
    /// recurrence bound: `α · lp` (or plain `lp` without recurrences).
    pub fn target_f(&self, m: &MachineSummary) -> f64 {
        if self.recurrences.alpha > 0.0 {
            self.recurrences.alpha * m.mshrs as f64
        } else {
            m.mshrs as f64
        }
    }

    /// True when unroll-and-jam is the indicated transformation: a miss
    /// recurrence caps `f` below the resources.
    pub fn needs_unroll_and_jam(&self, m: &MachineSummary) -> bool {
        self.recurrences.alpha > 0.0 && self.f + 1e-9 < self.target_f(m)
    }

    /// True when the loop is window-constrained: a window's worth of
    /// iterations exposes fewer independent misses than the machine can
    /// overlap because the loop body is large (the Mp3d case,
    /// Section 3.3). Window constraints "can arise for loops with or
    /// without recurrences"; the body-size condition (a window holds only
    /// a few iterations) distinguishes them from recurrence limits, which
    /// unroll-and-jam — not inner unrolling — resolves.
    pub fn window_constrained(&self, m: &MachineSummary) -> bool {
        self.f + 1e-9 < m.mshrs as f64 && self.body_ops * 4 >= m.window
    }

    /// The inner-loop unrolling degree that exposes a full complement of
    /// independent misses to the scheduler (Section 3.3), capped at `U`.
    pub fn inner_unroll_degree(&self, m: &MachineSummary) -> u32 {
        if !self.window_constrained(m) || self.misses_per_iter <= 0.1 {
            return 1;
        }
        let need = (m.mshrs as f64 / self.misses_per_iter).ceil() as u32;
        need.clamp(1, m.max_unroll)
    }
}

/// Analyzes the innermost loop whose body is `body` and whose loop
/// variable is `iv`.
pub fn analyze_inner_loop(
    prog: &Program,
    body: &[Stmt],
    iv: VarId,
    m: &MachineSummary,
    profile: &MissProfile,
) -> NestAnalysis {
    let refs = collect_refs(prog, body, iv, m.line_bytes, profile);
    let recurrences = summarize_recurrences(&refs);
    let body_ops = refs.body_ops_estimate(body);
    let f = estimate_f(&refs, &recurrences, body_ops, m);
    let misses_per_iter = refs
        .leading()
        .map(|r| {
            if r.irregular {
                r.p_miss
            } else {
                // Analytic mode has p_miss = 1 (every line touch
                // misses); measured mode scales by the profiled
                // per-line miss probability.
                r.p_miss / r.l_m as f64
            }
        })
        .sum();
    NestAnalysis {
        refs,
        recurrences,
        body_ops,
        f,
        misses_per_iter,
    }
}

/// Equations 1–4: `f = f_reg + f_irreg` with
/// `C_m = ceil(W / (i · L_m))` when no address recurrence binds the loop,
/// else `C_m = 1`.
pub fn estimate_f(
    refs: &RefCollection,
    rec: &RecurrenceSummary,
    body_ops: usize,
    m: &MachineSummary,
) -> f64 {
    let w = m.window as f64;
    let i = body_ops.max(1) as f64;
    let mut f_reg = 0.0;
    let mut f_irr = 0.0;
    for r in refs.leading() {
        let c_m = if rec.has_address_recurrence || r.self_temporal {
            // Address recurrences defeat dynamic unrolling; self-temporal
            // references touch one line regardless of the window.
            1.0
        } else {
            (w / (i * r.l_m as f64)).ceil().max(1.0)
        };
        if r.irregular {
            f_irr += r.p_miss * c_m;
        } else {
            // p_miss is 1 under the analytic model; the measured model
            // discounts line touches the reuse profile saw hitting.
            f_reg += r.p_miss * c_m;
        }
    }
    f_reg + f_irr.ceil()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempar_ir::{ArrayRef, Index, ProgramBuilder};

    fn inner_of(p: &Program) -> (&Vec<Stmt>, VarId) {
        fn descend(body: &[Stmt]) -> Option<(&Vec<Stmt>, VarId)> {
            for s in body {
                if let Stmt::Loop(l) = s {
                    return descend(&l.body).or(Some((&l.body, l.var)));
                }
            }
            None
        }
        descend(&p.body).expect("loop")
    }

    /// The Section 3.2.2 worked example: row-wise 2-D traversal.
    /// `alpha = 1`, `f = 1` initially; unroll-and-jam by `lp` gives
    /// `f = lp`.
    #[test]
    fn motivating_example_needs_uaj() {
        let mut b = ProgramBuilder::new("row");
        let a = b.array_f64("a", &[128, 128]);
        let s = b.scalar_f64("s", 0.0);
        let j = b.var("j");
        let i = b.var("i");
        b.for_const(j, 0, 128, |b| {
            b.for_const(i, 0, 128, |b| {
                let v = b.load(a, &[b.idx(j), b.idx(i)]);
                let acc = b.scalar(s);
                let e = b.add(acc, v);
                b.assign_scalar(s, e);
            });
        });
        let p = b.finish();
        let (body, iv) = inner_of(&p);
        let m = MachineSummary::base();
        let an = analyze_inner_loop(&p, body, iv, &m, &MissProfile::pessimistic());
        // One leading ref, L_m = 8, i ≈ 3: C = ceil(64 / 24) = 3... the
        // paper's discussion expects dWi/Le most likely 1 for moderate
        // bodies; with our tiny body it's ceil(64/(3*8)) = 3.
        assert!((an.recurrences.alpha - 1.0).abs() < 1e-12);
        assert!(an.f >= 1.0);
        assert!(an.needs_unroll_and_jam(&m), "f={} < alpha*lp=10", an.f);
        assert_eq!(an.target_f(&m), 10.0);
        assert!(an.utilization_bound(&m).expect("has recurrence") < 1.0);
    }

    #[test]
    fn pointer_chase_caps_c_m_at_one() {
        let mut b = ProgramBuilder::new("chase");
        let next = b.array_i64("next", &[4096]);
        let ps = b.scalar_i64("p", 0);
        let i = b.var("i");
        b.for_const(i, 0, 64, |b| {
            let v = b.load_ref(ArrayRef::new(next, vec![Index::scalar(ps)]));
            b.assign_scalar(ps, v);
        });
        let p = b.finish();
        let (body, iv) = inner_of(&p);
        let m = MachineSummary::base();
        let an = analyze_inner_loop(&p, body, iv, &m, &MissProfile::pessimistic());
        assert!(an.recurrences.has_address_recurrence);
        // C_m = 1 despite the tiny body: dynamic unrolling cannot break an
        // address recurrence. f = ceil(1.0 * 1) = 1.
        assert_eq!(an.f, 1.0);
        assert!(an.needs_unroll_and_jam(&m));
    }

    #[test]
    fn column_traversal_already_parallel() {
        let mut b = ProgramBuilder::new("col");
        let a = b.array_f64("a", &[128, 128]);
        let s = b.scalar_f64("s", 0.0);
        let j = b.var("j");
        let i = b.var("i");
        b.for_const(j, 0, 128, |b| {
            b.for_const(i, 0, 128, |b| {
                let v = b.load(a, &[b.idx(i), b.idx(j)]);
                let acc = b.scalar(s);
                let e = b.add(acc, v);
                b.assign_scalar(s, e);
            });
        });
        let p = b.finish();
        let (body, iv) = inner_of(&p);
        let m = MachineSummary::base();
        let an = analyze_inner_loop(&p, body, iv, &m, &MissProfile::pessimistic());
        // No recurrence; every window iteration misses: f = C = ceil(W/i)
        // >> lp, so neither transformation is indicated.
        assert_eq!(an.recurrences.alpha, 0.0);
        assert!(!an.needs_unroll_and_jam(&m));
        assert!(!an.window_constrained(&m), "f={}", an.f);
        assert_eq!(an.inner_unroll_degree(&m), 1);
    }

    #[test]
    fn big_body_is_window_constrained() {
        // The Mp3d shape (Section 3.3): line-padded records (one 64-byte
        // record per iteration, so no cache-line recurrence) and a large
        // loop body — few misses fit in a window.
        let mut b = ProgramBuilder::new("big");
        let a = b.array_f64("a", &[1 << 11, 8]); // 8 f64 = one line per record
        let s = b.scalar_f64("s", 0.0);
        let i = b.var("i");
        b.for_const(i, 0, 1 << 11, |b| {
            // ~30 FP ops of "work" per iteration plus one record load.
            let zero = b.idx_e(mempar_ir::AffineExpr::konst(0));
            let mut acc = b.scalar(s);
            let v = b.load(a, &[b.idx(i), zero]);
            acc = b.add(acc, v);
            for _ in 0..30 {
                let c = b.constf(1.000001);
                acc = b.mul(acc, c);
            }
            b.assign_scalar(s, acc);
        });
        let p = b.finish();
        let (body, iv) = inner_of(&p);
        let m = MachineSummary::base();
        let an = analyze_inner_loop(&p, body, iv, &m, &MissProfile::pessimistic());
        // Record stride = line size: not self-spatial, no recurrence.
        // i ≈ 33, W=64: the window holds ~2 iterations, f = 2 < 10.
        assert_eq!(an.recurrences.alpha, 0.0);
        assert!(an.window_constrained(&m), "f={}", an.f);
        // misses_per_iter = 1: unroll to expose lp misses to the scheduler.
        assert_eq!(an.inner_unroll_degree(&m), 10);
    }

    #[test]
    fn f_counts_writes_too() {
        // Stores are counted in f (MSHRs are shared) — Section 3.2.2.
        let mut b = ProgramBuilder::new("w");
        let a = b.array_f64("a", &[4096]);
        let c = b.array_f64("c", &[4096]);
        let i = b.var("i");
        b.for_const(i, 0, 4096, |b| {
            let v = b.load(a, &[b.idx(i)]);
            b.assign_array(c, &[b.idx(i)], v);
        });
        let p = b.finish();
        let (body, iv) = inner_of(&p);
        let m = MachineSummary::base();
        let an = analyze_inner_loop(&p, body, iv, &m, &MissProfile::pessimistic());
        let leading: Vec<_> = an.refs.leading().collect();
        assert_eq!(leading.len(), 2, "load stream and store stream");
        assert!(leading.iter().any(|r| r.is_write));
    }
}
