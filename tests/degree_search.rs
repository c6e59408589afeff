//! Regression gate for the degree search's monotonicity fallback
//! (`tests/corpus/seed-14.repro`).
//!
//! The re-analyzed overlapped-miss estimate `f(d)` is *not* monotone in
//! the unroll-and-jam degree — each leading reference contributes
//! `C_m = ceil(W/(i·L_m))` and the jammed body size `i` grows with `d`,
//! so `f` dips whenever a ceiling steps down. The difftest generator
//! produces such profiles readily (seed 14, shrunk); the driver's
//! binary search must detect the violated assumption from its own
//! probes and fall back to a bounded linear scan, landing on the
//! feasible argmax of `f`.

use mempar_analysis::{analyze_inner_loop, MachineSummary, MissProfile};
use mempar_difftest::{gen_spec, materialize, reproducer_seed, CORPUS_DIR};
use mempar_ir::{run_single, Program};
use mempar_transform::{
    cluster_program, innermost_loops, loop_at, scalar_replace, unroll_and_jam, NestPath,
};

/// The degree the reproducer pins, parsed from the corpus file so the
/// two cannot drift apart.
fn corpus_seed() -> u64 {
    let text =
        std::fs::read_to_string(format!("{CORPUS_DIR}/seed-14.repro")).expect("reproducer present");
    reproducer_seed(&text).expect("numeric seed header")
}

/// `f` after jamming by `d` + scalar replacement — the same pipeline
/// the driver's search probes.
fn f_of(
    prog: &Program,
    parent: &NestPath,
    m: &MachineSummary,
    profile: &MissProfile,
    d: u32,
) -> Option<f64> {
    let mut trial = prog.clone();
    let r = unroll_and_jam(&mut trial, parent, d).ok()?;
    let mut all = innermost_loops(&trial);
    all.retain(|p| p.0.starts_with(&r.main.0));
    let ip = all
        .into_iter()
        .max_by_key(|p| loop_at(&trial, p).map(|l| l.body.len()).unwrap_or(0))?;
    let (_, ip) = scalar_replace(&mut trial, &ip).ok()?;
    let l = loop_at(&trial, &ip)?;
    Some(analyze_inner_loop(&trial, &l.body, l.var, m, profile).f)
}

#[test]
fn corpus_seed_14_degree_is_feasible_argmax() {
    let built = materialize(&gen_spec(corpus_seed()));
    let prog = &built.prog;
    let m = MachineSummary::base();
    let profile = MissProfile::pessimistic();

    let inner = innermost_loops(prog)
        .into_iter()
        .find(|p| p.parent().is_some())
        .expect("a 2-nest");
    let parent = inner.parent().unwrap();

    let fs: Vec<(u32, f64)> = (2..=m.max_unroll)
        .filter_map(|d| f_of(prog, &parent, &m, &profile, d).map(|f| (d, f)))
        .collect();
    assert!(
        fs.windows(2).any(|w| w[0].1 > w[1].1 + 1e-9),
        "premise: the pinned profile must stay non-monotone, got {fs:?}"
    );

    let l = loop_at(prog, &inner).unwrap();
    let an = analyze_inner_loop(prog, &l.body, l.var, &m, &profile);
    let target = an.target_f(&m);

    let mut clustered = prog.clone();
    let report = cluster_program(&mut clustered, &m, &profile);
    let degree = report
        .decisions
        .iter()
        .map(|d| d.uaj_degree)
        .max()
        .unwrap_or(1);

    if degree > 1 {
        let f_chosen = fs
            .iter()
            .find(|(d, _)| *d == degree)
            .map(|(_, f)| *f)
            .expect("chosen degree was probed");
        let best = fs
            .iter()
            .filter(|(_, f)| *f <= target)
            .map(|(_, f)| *f)
            .fold(f64::MIN, f64::max);
        assert!(
            (f_chosen - best).abs() < 1e-9,
            "driver chose degree {degree} (f={f_chosen}) but the feasible argmax \
             under target {target} is f={best}; profile {fs:?}"
        );
    }

    // Whatever it chose, semantics hold.
    let mut base_mem = built.memory(1);
    run_single(prog, &mut base_mem);
    let mut clust_mem = built.memory(1);
    run_single(&clustered, &mut clust_mem);
    assert_eq!(
        base_mem.fingerprint(),
        clust_mem.fingerprint(),
        "clustering must preserve the memory image"
    );
}
