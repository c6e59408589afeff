//! Property-based tests on the IR layer: affine algebra, distribution
//! coverage, and trace invariants.

use mempar_ir::{
    run_parallel_functional, run_single, AffineExpr, ArrayData, Dist, Interp, OpKind,
    ProgramBuilder, SimMem, SrcList, Stmt, VarId,
};
use proptest::prelude::*;

fn var(n: u32) -> VarId {
    VarId::from_raw(n)
}

proptest! {
    /// Affine substitution commutes with evaluation:
    /// eval(subst(e, v, r)) == eval(e) with v bound to eval(r).
    #[test]
    fn affine_subst_commutes_with_eval(
        coeffs in proptest::collection::vec((0u32..4, -5i64..5), 0..4),
        konst in -100i64..100,
        rcoeff in -3i64..3,
        roff in -10i64..10,
        env in proptest::collection::vec(-7i64..7, 4),
    ) {
        let mut e = AffineExpr::konst(konst);
        for &(v, c) in &coeffs {
            e = e.add(&AffineExpr::scaled_var(var(v), c, 0));
        }
        let target = var(0);
        let repl = AffineExpr::scaled_var(var(1), rcoeff, roff);
        let substituted = e.subst(target, &repl);
        let lookup = |v: VarId| env[v.index()];
        let repl_val = repl.eval(lookup);
        let direct = e.eval(|v| if v == target { repl_val } else { lookup(v) });
        prop_assert_eq!(substituted.eval(lookup), direct);
    }

    /// Affine arithmetic is a commutative group under add/sub.
    #[test]
    fn affine_add_sub_roundtrip(
        c1 in -20i64..20,
        c2 in -20i64..20,
        k1 in -50i64..50,
        k2 in -50i64..50,
    ) {
        let a = AffineExpr::scaled_var(var(0), c1, k1);
        let b = AffineExpr::scaled_var(var(1), c2, k2);
        prop_assert_eq!(a.add(&b), b.add(&a));
        prop_assert_eq!(a.add(&b).sub(&b), a.clone());
        prop_assert_eq!(a.sub(&a).as_const(), Some(0));
        prop_assert_eq!(a.scale(3).scale(-1), a.scale(-3));
    }

    /// The block distribution partitions the iteration space, as written
    /// and lowered to each processor's own block: every iteration is
    /// executed by exactly one processor.
    #[test]
    fn distribution_partitions_iterations(
        trip in 1usize..64,
        nprocs in 1usize..9,
        own in proptest::bool::ANY,
    ) {
        let mut b = ProgramBuilder::new("cover");
        let c = b.array_f64("c", &[trip]);
        let i = b.var("i");
        b.for_dist(i, 0, trip as i64, Dist::Block, |b| {
            let old = b.load(c, &[b.idx(i)]);
            let one = b.constf(1.0);
            let inc = b.add(old, one);
            b.assign_array(c, &[b.idx(i)], inc);
        });
        let mut p = b.finish();
        if own {
            let Stmt::Loop(l) = &mut p.body[0] else { unreachable!() };
            prop_assert!(l.lower_to_own_block());
        }
        let mut mem = SimMem::new(&p, nprocs);
        run_parallel_functional(&p, &mut mem, nprocs);
        let out = mem.read_f64(c);
        prop_assert!(
            out.iter().all(|&v| v == 1.0),
            "each element incremented exactly once: {out:?}"
        );
    }

    /// The op trace respects data-flow: every source vreg was produced by
    /// an earlier op.
    #[test]
    fn trace_sources_precede_uses(n in 1usize..24) {
        let mut b = ProgramBuilder::new("t");
        let a = b.array_f64("a", &[n.max(2), 8]);
        let s = b.scalar_f64("s", 0.0);
        let j = b.var("j");
        let i = b.var("i");
        b.for_const(j, 0, n as i64, |b| {
            b.for_const(i, 0, 8, |b| {
                let v = b.load(a, &[b.idx(j), b.idx(i)]);
                let acc = b.scalar(s);
                let e = b.add(acc, v);
                b.assign_scalar(s, e);
            });
        });
        let p = b.finish();
        let mut mem = SimMem::new(&p, 1);
        let mut interp = Interp::new(&p, 0, 1);
        let mut produced = std::collections::HashSet::new();
        while let Some(op) = interp.next_op(&mut mem) {
            for &src in op.srcs.as_slice() {
                prop_assert!(produced.contains(&src), "use of unproduced vreg {src}");
            }
            if let Some(dst) = op.dst {
                prop_assert!(produced.insert(dst), "vreg {dst} produced twice");
            }
        }
    }

    /// SrcList never exceeds capacity and never stores duplicates.
    #[test]
    fn srclist_invariants(vregs in proptest::collection::vec(0u32..40, 0..12)) {
        let mut s = SrcList::new();
        for &v in &vregs {
            s.push(v);
        }
        prop_assert!(s.len() <= mempar_ir::MAX_SRCS);
        let slice = s.as_slice();
        let mut dedup = slice.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), slice.len(), "duplicates in {:?}", slice);
        for &v in slice {
            prop_assert!(vregs.contains(&v));
        }
    }

    /// Functional runs are deterministic: identical programs and data
    /// produce identical memory images and op counts.
    #[test]
    fn functional_run_deterministic(n in 2usize..32, seedish in 0i64..1000) {
        let mut b = ProgramBuilder::new("det");
        let a = b.array_f64("a", &[n]);
        let out = b.array_f64("out", &[n]);
        let i = b.var("i");
        b.for_const(i, 0, n as i64, |b| {
            let v = b.load(a, &[b.idx(i)]);
            let c = b.constf(seedish as f64);
            let e = b.mul(v, c);
            b.assign_array(out, &[b.idx(i)], e);
        });
        let p = b.finish();
        let data = ArrayData::F64((0..n).map(|x| (x as f64) + 0.5).collect());
        let run = |p: &mempar_ir::Program| {
            let mut mem = SimMem::new(p, 1);
            mem.set_array(a, data.clone());
            let s = run_single(p, &mut mem);
            (mem.fingerprint(), s)
        };
        prop_assert_eq!(run(&p), run(&p));
    }
}

/// Halt is always the final op of a trace (non-proptest sanity anchor).
#[test]
fn trace_ends_with_halt() {
    let mut b = ProgramBuilder::new("h");
    let s = b.scalar_f64("s", 0.0);
    let one = b.constf(1.0);
    b.assign_scalar(s, one);
    let p = b.finish();
    let mut mem = SimMem::new(&p, 1);
    let mut interp = Interp::new(&p, 0, 1);
    let mut last = None;
    while let Some(op) = interp.next_op(&mut mem) {
        last = Some(op.kind);
    }
    assert_eq!(last, Some(OpKind::Halt));
}
