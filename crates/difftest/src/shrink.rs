//! Spec-level shrinking of failing programs.
//!
//! Shrinking operates on [`ProgSpec`], never on materialized IR: every
//! mutation below yields another well-formed spec, and materialization
//! re-derives array extents, so shrunk candidates remain in-bounds by
//! construction (no shrink step can create a memory fault that wasn't
//! the bug itself). The algorithm is deterministic greedy descent: try
//! all structural mutations, keep the first strictly-smaller candidate
//! that still exhibits the same failure signature, repeat to fixpoint.

use crate::harness::check_spec;
use crate::spec::{ProgSpec, SBound, SExpr, SIndex, SStmt};

/// Upper bound on shrink iterations (each strictly reduces the size
/// metric, so this is a safety net rather than a tuning knob).
const MAX_ROUNDS: usize = 400;

/// Size metric: statements, expression nodes, index terms, and bound
/// complexity. Strictly decreases along an accepted shrink step.
pub fn spec_size(spec: &ProgSpec) -> usize {
    fn bound(b: &SBound) -> usize {
        match b {
            SBound::Const(_) => 1,
            SBound::Affine { .. } | SBound::ScalarB(_) => 2,
        }
    }
    fn index(ix: &SIndex) -> usize {
        1 + ix.terms.len() + if ix.dynamic.is_some() { 2 } else { 0 }
    }
    fn expr(e: &SExpr) -> usize {
        match e {
            SExpr::Load { idx, .. } => 1 + idx.iter().map(index).sum::<usize>(),
            SExpr::Bin(_, a, b) => 1 + expr(a) + expr(b),
            SExpr::Neg(a) => 1 + expr(a),
            _ => 1,
        }
    }
    fn body(stmts: &[SStmt]) -> usize {
        stmts
            .iter()
            .map(|s| match s {
                SStmt::Loop(l) => {
                    2 + bound(&l.lo) + bound(&l.hi) + usize::from(l.step != 1) + body(&l.body)
                }
                SStmt::Store { idx, rhs, .. } => {
                    1 + idx.iter().map(index).sum::<usize>() + expr(rhs)
                }
                SStmt::SetF { rhs, .. } => 1 + expr(rhs),
                SStmt::Chase { .. } => 2,
                SStmt::If { then_s, else_s, .. } => 2 + body(then_s) + body(else_s),
                SStmt::Barrier => 1,
            })
            .sum()
    }
    body(&spec.stmts)
}

/// One round of candidate mutations, roughly largest-reduction first.
fn candidates(spec: &ProgSpec) -> Vec<ProgSpec> {
    let mut out = Vec::new();
    let n = count_stmts(&spec.stmts);

    // 1. Delete any single statement (top level or nested).
    for i in 0..n {
        let mut c = spec.clone();
        edit_stmt(&mut c.stmts, i, &mut |_| Edit::Delete);
        out.push(c);
    }
    // 2. Unwrap: replace a loop by its body, an If by one branch.
    for i in 0..n {
        let mut c = spec.clone();
        let mut changed = false;
        edit_stmt(&mut c.stmts, i, &mut |slot| match slot {
            SStmt::Loop(l) => {
                changed = true;
                Edit::Splice(l.body.clone())
            }
            SStmt::If { then_s, .. } => {
                changed = true;
                Edit::Splice(then_s.clone())
            }
            other => Edit::Keep(other.clone()),
        });
        if changed {
            out.push(c);
        }
    }
    // 3. Simplify in place: bounds to small constants, unit steps,
    //    drop dynamic index parts, clear affine terms, simplify rhs.
    for i in 0..n {
        for variant in 0..6 {
            let mut c = spec.clone();
            let mut changed = false;
            edit_stmt(&mut c.stmts, i, &mut |slot| {
                let mut s = slot.clone();
                changed = simplify(&mut s, variant);
                Edit::Keep(s)
            });
            if changed {
                out.push(c);
            }
        }
    }
    out
}

enum Edit {
    Keep(SStmt),
    Delete,
    Splice(Vec<SStmt>),
}

fn count_stmts(body: &[SStmt]) -> usize {
    body.iter()
        .map(|s| {
            1 + match s {
                SStmt::Loop(l) => count_stmts(&l.body),
                SStmt::If { then_s, else_s, .. } => count_stmts(then_s) + count_stmts(else_s),
                _ => 0,
            }
        })
        .sum()
}

/// Visits statement number `target` (preorder) and applies `f` to it.
fn edit_stmt(body: &mut Vec<SStmt>, target: usize, f: &mut impl FnMut(&SStmt) -> Edit) {
    fn walk(
        body: &mut Vec<SStmt>,
        counter: &mut usize,
        target: usize,
        f: &mut impl FnMut(&SStmt) -> Edit,
    ) -> bool {
        let mut i = 0;
        while i < body.len() {
            if *counter == target {
                match f(&body[i]) {
                    Edit::Keep(s) => body[i] = s,
                    Edit::Delete => {
                        body.remove(i);
                    }
                    Edit::Splice(inner) => {
                        body.splice(i..=i, inner);
                    }
                }
                return true;
            }
            *counter += 1;
            let done = match &mut body[i] {
                SStmt::Loop(l) => walk(&mut l.body, counter, target, f),
                SStmt::If { then_s, else_s, .. } => {
                    walk(then_s, counter, target, f) || walk(else_s, counter, target, f)
                }
                _ => false,
            };
            if done {
                return true;
            }
            i += 1;
        }
        false
    }
    walk(body, &mut 0, target, f);
}

/// In-place simplification variants; returns whether anything changed.
fn simplify(s: &mut SStmt, variant: usize) -> bool {
    match (variant, &mut *s) {
        (0, SStmt::Loop(l)) => {
            let mut ch = false;
            if !matches!(l.lo, SBound::Const(0)) {
                l.lo = SBound::Const(0);
                ch = true;
            }
            match l.hi {
                SBound::Const(c) if c <= 3 => {}
                _ => {
                    l.hi = SBound::Const(3);
                    ch = true;
                }
            }
            ch
        }
        (1, SStmt::Loop(l)) if l.step != 1 => {
            l.step = 1;
            true
        }
        (2, SStmt::Store { idx, .. }) => {
            let mut ch = false;
            for ix in idx.iter_mut() {
                if ix.dynamic.is_some() {
                    ix.dynamic = None;
                    ch = true;
                }
            }
            ch
        }
        (3, SStmt::Store { idx, .. }) => {
            let mut ch = false;
            for ix in idx.iter_mut() {
                if ix.terms.len() > 1 {
                    ix.terms.truncate(1);
                    ch = true;
                }
                if ix.off != 0 {
                    ix.off = 0;
                    ch = true;
                }
            }
            ch
        }
        (4, SStmt::Store { rhs, .. }) | (4, SStmt::SetF { rhs, .. }) => simplify_expr(rhs),
        (5, SStmt::If { else_s, .. }) if !else_s.is_empty() => {
            else_s.clear();
            true
        }
        _ => false,
    }
}

/// Replaces the outermost compound expression node by a child (or a
/// load by a constant); returns whether anything changed.
fn simplify_expr(e: &mut SExpr) -> bool {
    match e {
        SExpr::Bin(_, a, _) => {
            *e = (**a).clone();
            true
        }
        SExpr::Neg(a) => {
            *e = (**a).clone();
            true
        }
        SExpr::Load { .. } | SExpr::Ptr(_) | SExpr::Var(_) | SExpr::ScalarF(_) => {
            *e = SExpr::ConstF(1.0);
            true
        }
        SExpr::ConstF(x) if *x != 1.0 => {
            *e = SExpr::ConstF(1.0);
            true
        }
        _ => false,
    }
}

/// Greedy deterministic shrink against an arbitrary failure predicate.
/// The result still satisfies `still_fails` and no single mutation of it
/// does (1-minimality with respect to the mutation set).
pub fn shrink_with(spec: &ProgSpec, still_fails: impl Fn(&ProgSpec) -> bool) -> ProgSpec {
    let mut cur = spec.clone();
    let mut size = spec_size(&cur);
    for _ in 0..MAX_ROUNDS {
        let mut advanced = false;
        for cand in candidates(&cur) {
            let csize = spec_size(&cand);
            if csize < size && still_fails(&cand) {
                cur = cand;
                size = csize;
                advanced = true;
                break;
            }
        }
        if !advanced {
            break;
        }
    }
    cur
}

/// Shrinks a spec that produced a divergence with the given
/// [`crate::harness::Divergence::signature`], re-running the full
/// differential check on every candidate.
pub fn shrink(spec: &ProgSpec, signature: &str) -> ProgSpec {
    shrink_with(spec, |cand| {
        check_spec(cand)
            .divergences
            .iter()
            .any(|d| d.signature() == signature)
    })
}

/// Renders a committed reproducer file: header with the machine-readable
/// generator seed and failure metadata, then the pretty-printed
/// minimized program for human eyes. [`reproducer_seed`] reads back
/// only the `seed:` line — once the underlying bug is fixed, the seed
/// must check out clean forever.
pub fn render_reproducer(spec: &ProgSpec, signature: &str, detail: &str) -> String {
    let built = crate::spec::materialize(spec);
    let mut s = String::new();
    s.push_str("# mempar-difftest reproducer (auto-shrunk)\n");
    s.push_str(&format!("# seed: {}\n", spec.seed));
    s.push_str(&format!("# mode: {:?}\n", spec.mode));
    s.push_str(&format!("# signature: {signature}\n"));
    for line in detail.lines() {
        s.push_str(&format!("# detail: {line}\n"));
    }
    s.push_str("#\n# Minimized program at time of capture:\n#\n");
    for line in built.prog.to_string().lines() {
        s.push_str(&format!("#   {line}\n"));
    }
    s
}

/// The committed reproducer corpus: `tests/corpus/` at the workspace
/// root, where [`render_reproducer`]'s files are checked in.
pub const CORPUS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");

/// The generator seed on a reproducer's `# seed: N` header line, as
/// [`render_reproducer`] writes it.
pub fn reproducer_seed(text: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix("# seed: "))
        .and_then(|s| s.trim().parse().ok())
}

/// The seeds of every `.repro` file in [`CORPUS_DIR`], sorted and
/// deduplicated: the corpus leg of the equality sweeps.
///
/// # Panics
/// When the corpus directory is missing or no reproducer carries a seed.
pub fn corpus_seeds() -> Vec<u64> {
    let mut seeds: Vec<u64> = std::fs::read_dir(CORPUS_DIR)
        .expect("tests/corpus exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "repro"))
        .filter_map(|p| reproducer_seed(&std::fs::read_to_string(p).ok()?))
        .collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert!(!seeds.is_empty(), "corpus reproducers carry seeds");
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::gen_spec;
    use crate::spec::materialize;

    /// A synthetic "failure": the materialized program still contains an
    /// indirect (dynamic) store index. The shrinker must keep one while
    /// stripping everything else.
    fn has_dynamic_store(spec: &ProgSpec) -> bool {
        fn walk(body: &[SStmt]) -> bool {
            body.iter().any(|s| match s {
                SStmt::Store { idx, .. } => idx.iter().any(|ix| ix.dynamic.is_some()),
                SStmt::Loop(l) => walk(&l.body),
                SStmt::If { then_s, else_s, .. } => walk(then_s) || walk(else_s),
                _ => false,
            })
        }
        walk(&spec.stmts)
    }

    #[test]
    fn shrinks_to_small_witness_and_stays_well_formed() {
        let mut shrunk_any = false;
        for seed in 0..50 {
            let spec = gen_spec(seed);
            if !has_dynamic_store(&spec) {
                continue;
            }
            let small = shrink_with(&spec, has_dynamic_store);
            assert!(has_dynamic_store(&small), "seed {seed}: witness lost");
            assert!(
                spec_size(&small) <= spec_size(&spec),
                "seed {seed}: shrink grew the spec"
            );
            // Closure under mutation: the shrunk spec must still
            // materialize into a valid, runnable program.
            let built = materialize(&small);
            assert!(built.prog.validate().is_empty());
            let mut mem = built.memory(1);
            mempar_ir::run_single(&built.prog, &mut mem);
            if spec_size(&small) < spec_size(&spec) {
                shrunk_any = true;
            }
        }
        assert!(shrunk_any, "shrinker never reduced anything");
    }

    #[test]
    fn shrink_is_deterministic() {
        let spec = gen_spec(3);
        let a = shrink_with(&spec, |_| true);
        let b = shrink_with(&spec, |_| true);
        assert_eq!(a, b);
    }

    #[test]
    fn always_failing_predicate_shrinks_to_near_nothing() {
        let spec = gen_spec(11);
        let small = shrink_with(&spec, |_| true);
        assert!(spec_size(&small) <= 2, "left over: {small:?}");
    }

    #[test]
    fn reproducer_renders_seed_and_program() {
        let spec = gen_spec(5);
        let r = render_reproducer(&spec, "MemDiff|uaj", "fingerprint mismatch");
        assert!(r.contains("# seed: 5"));
        assert_eq!(reproducer_seed(&r), Some(5));
        assert!(r.contains("# signature: MemDiff|uaj"));
        assert!(r.lines().count() > 8);
    }
}
