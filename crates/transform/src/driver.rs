//! The clustering driver: applies the paper's full recipe to a program.
//!
//! For every innermost loop nest (Sections 3.2–3.3):
//!
//! 1. Analyze locality, dependences and recurrences.
//! 2. If a miss recurrence caps `f` below `α·lp`, **unroll-and-jam** the
//!    enclosing loop, choosing the degree by binary search on the
//!    re-analyzed `f` (at most `⌈log₂U⌉` re-analyses, as in Carr &
//!    Kennedy) while keeping `f ≤ α·lp` — conservative, to avoid MSHR
//!    contention. Loops whose unrolling would add only write misses are
//!    skipped. On a multiprocessor, a block-distributed loop is first
//!    lowered to each processor's own block, so every processor jams its
//!    own iterations (see `unroll_site`).
//! 3. **Scalar-replace** invariant references exposed by the jam.
//! 4. If window constraints remain (no recurrence but `f < lp`),
//!    **inner-unroll** to expose enough independent misses (within each
//!    processor's own block, as in step 2).
//! 5. **Schedule** the body to pack miss references together.
//! 6. **Interchange the postlude** when possible.

use mempar_analysis::{analyze_inner_loop, flat_stride, MachineSummary, MissProfile, NestAnalysis};
use mempar_ir::{bank_of, block_range, Loop, Program, VarId, ELEM_BYTES};

use crate::interchange::interchange_postlude;
use crate::nest::{deepest_inner, enclosing_vars, innermost_loops, loop_at, loop_at_mut, NestPath};
use crate::scalar_replace::scalar_replace;
use crate::schedule::schedule_for_misses;
use crate::unroll::{inner_unroll, unroll_and_jam};

/// What happened to one loop nest.
#[derive(Debug, Clone)]
pub struct NestDecision {
    /// Path of the innermost loop before transformation.
    pub path: NestPath,
    /// Loop-nest description (variable names outer→inner).
    pub nest_desc: String,
    /// Recurrence bound `α` of the original loop.
    pub alpha: f64,
    /// `f` before transformation.
    pub f_before: f64,
    /// `f` after transformation (re-analyzed).
    pub f_after: f64,
    /// Unroll-and-jam degree applied (1 = none).
    pub uaj_degree: u32,
    /// The loop that was unroll-and-jammed, when `uaj_degree > 1`.
    pub uaj_loop: Option<JammedLoop>,
    /// Inner unrolling applied (1 = none).
    pub inner_unroll: u32,
    /// Invariant references scalar-replaced.
    pub scalar_replaced: usize,
    /// Whether the body was rescheduled.
    pub scheduled: bool,
    /// Whether the postlude was interchanged.
    pub postlude_interchanged: bool,
    /// Why unroll-and-jam was skipped, if it was wanted but not applied.
    pub uaj_skip_reason: Option<String>,
}

/// The loop a nest's unroll-and-jam was applied to.
#[derive(Debug, Clone)]
pub struct JammedLoop {
    /// Its path before transformation.
    pub path: NestPath,
    /// Its induction variable's name.
    pub var: String,
    /// True when the degree exceeds its constant trip count: the jammed
    /// loop never runs, and only the postlude does.
    pub postlude_only: bool,
}

/// Summary of a whole-program clustering pass.
#[derive(Debug, Clone, Default)]
pub struct ClusterReport {
    /// Per-nest decisions, in program order.
    pub decisions: Vec<NestDecision>,
}

impl ClusterReport {
    /// True when any transformation was applied.
    pub fn any_transformed(&self) -> bool {
        self.decisions
            .iter()
            .any(|d| d.uaj_degree > 1 || d.inner_unroll > 1 || d.scheduled || d.scalar_replaced > 0)
    }

    /// One-line-per-nest human-readable summary.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        for d in &self.decisions {
            s.push_str(&format!(
                "{}: alpha={:.2} f={:.1}->{:.1} uaj={}{} unroll={} sr={} sched={} postlude-ix={}{}\n",
                d.nest_desc,
                d.alpha,
                d.f_before,
                d.f_after,
                d.uaj_degree,
                d.uaj_loop
                    .as_ref()
                    .map(|j| format!(
                        "@{}{}",
                        j.var,
                        if j.postlude_only { " (postlude only)" } else { "" }
                    ))
                    .unwrap_or_default(),
                d.inner_unroll,
                d.scalar_replaced,
                d.scheduled,
                d.postlude_interchanged,
                d.uaj_skip_reason
                    .as_deref()
                    .map(|r| format!(" (uaj skipped: {r})"))
                    .unwrap_or_default(),
            ));
        }
        s
    }
}

/// Applies the clustering transformations to every innermost nest of
/// `prog` in place, returning the per-nest report.
pub fn cluster_program(
    prog: &mut Program,
    m: &MachineSummary,
    profile: &MissProfile,
) -> ClusterReport {
    let mut report = ClusterReport::default();
    // Reverse program order keeps earlier sibling paths valid while we
    // splice prelude/postlude statements around later ones.
    let mut nests = innermost_loops(prog);
    nests.reverse();
    let mut consumed_parents: Vec<NestPath> = Vec::new();
    for path in nests {
        // Skip nests whose enclosing loop we already jammed (a jam
        // rewrites every inner loop it contains).
        if consumed_parents.iter().any(|p| path.0.starts_with(&p.0)) {
            continue;
        }
        if let Some(d) = cluster_nest(prog, &path, m, profile) {
            if let Some(j) = &d.uaj_loop {
                consumed_parents.push(j.path.clone());
            }
            report.decisions.push(d);
        }
    }
    report.decisions.reverse();
    report
}

/// Applies the recipe to the single innermost nest at `path`.
fn cluster_nest(
    prog: &mut Program,
    path: &NestPath,
    m: &MachineSummary,
    profile: &MissProfile,
) -> Option<NestDecision> {
    let l = loop_at(prog, path)?;
    let iv = l.var;
    let an = analyze_inner_loop(prog, &l.body, iv, m, profile);
    let vars = enclosing_vars(prog, path);
    let nest_desc = format!(
        "{}({})",
        prog.name,
        vars.iter()
            .map(|&v| prog.var_name(v).to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    let mut decision = NestDecision {
        path: path.clone(),
        nest_desc,
        alpha: an.recurrences.alpha,
        f_before: an.f,
        f_after: an.f,
        uaj_degree: 1,
        uaj_loop: None,
        inner_unroll: 1,
        scalar_replaced: 0,
        scheduled: false,
        postlude_interchanged: false,
        uaj_skip_reason: None,
    };

    let mut cur_inner = path.clone();

    // ---- Stage 1: recurrence resolution via unroll-and-jam ----
    // Candidate outer loops are considered from the innermost's parent
    // outward (the "choice of outer loops to unroll for deeper nests" the
    // paper defers to Carr & Kennedy). A candidate is rejected when the
    // innermost body's writes do not vary with it (unrolling a reduction
    // loop chains copies through the same memory locations and adds no
    // miss streams — the LU `kk` trap), when unrolling would add only
    // write or redundant misses, or when no profitable legal degree
    // exists. When the first site's degree is capped by a processor's
    // block, the loops enclosing it are priced against it
    // ([`widen_capped`]).
    if an.needs_unroll_and_jam(m) {
        let target = an.target_f(m);
        let mut reasons: Vec<String> = Vec::new();
        let mut cand = path.parent();
        if cand.is_none() {
            decision.uaj_skip_reason = Some("no enclosing loop to unroll".into());
        }
        while let Some(parent) = cand {
            cand = parent.parent();
            let site = match jam_site(prog, path, &parent, &an, m, profile, target) {
                Ok(site) if site.block_capped => {
                    widen_capped(prog, path, site, &an, m, profile, target)
                }
                Ok(site) => site,
                Err(reason) => {
                    reasons.push(reason);
                    continue;
                }
            };
            // A lowered loop whose every block on this machine is a
            // multiple of the degree gets a postlude that no processor
            // runs. Interchanged, it would still run a loop of empty
            // inner loops, so it is left as written.
            let postlude_idle = site.lowered.is_some()
                && site
                    .trip
                    .is_some_and(|t| blocks_divide(t, m.procs, site.degree));
            if let Some(lowered) = site.lowered {
                *prog = lowered;
            }
            match unroll_and_jam(prog, &site.path, site.degree) {
                Ok(r) => {
                    decision.uaj_degree = site.degree;
                    decision.uaj_loop = Some(JammedLoop {
                        var: prog.var_name(site.var).to_string(),
                        postlude_only: site.trip.is_some_and(|t| i64::from(site.degree) > t),
                        path: site.path,
                    });
                    if let Some(post) = r.postlude.as_ref().filter(|_| !postlude_idle) {
                        decision.postlude_interchanged = interchange_postlude(prog, post);
                    }
                    cur_inner = deepest_inner(prog, &r.main)?;
                    break;
                }
                Err(e) => {
                    reasons.push(format!("{}: {e}", prog.var_name(site.var)));
                    cand = site.path.parent();
                }
            }
        }
        if decision.uaj_degree == 1 && !reasons.is_empty() {
            decision.uaj_skip_reason = Some(reasons.join("; "));
        }
    }

    // ---- Stage 2: scalar replacement on the (possibly jammed) body ----
    if let Ok((n, new_path)) = scalar_replace(prog, &cur_inner) {
        decision.scalar_replaced = n;
        cur_inner = new_path;
    }

    // ---- Stage 3: window constraints via inner unrolling ----
    let an2 = {
        let l = loop_at(prog, &cur_inner)?;
        analyze_inner_loop(prog, &l.body, l.var, m, profile)
    };
    if decision.uaj_degree == 1 && an2.window_constrained(m) {
        let (mut lowered, max_degree) = unroll_site(prog, &cur_inner, m);
        let deg = an2.inner_unroll_degree(m).min(max_degree);
        if deg > 1 {
            if let Ok(r) = inner_unroll(lowered.as_mut().unwrap_or(prog), &cur_inner, deg) {
                if let Some(lowered) = lowered {
                    *prog = lowered;
                }
                decision.inner_unroll = deg;
                cur_inner = r.main;
            }
        }
    }

    // ---- Stage 4: local scheduling to pack misses ----
    if decision.uaj_degree > 1 || decision.inner_unroll > 1 {
        if let Ok(changed) = schedule_for_misses(prog, &cur_inner, m.line_bytes) {
            decision.scheduled = changed;
        }
    }

    // Final f for the report.
    if let Some(l) = loop_at(prog, &cur_inner) {
        let an3 = analyze_inner_loop(prog, &l.body, l.var, m, profile);
        decision.f_after = an3.f;
    }
    Some(decision)
}

/// Where the driver unrolls the loop at `path` (an unroll-and-jam or an
/// inner unroll), and the largest degree it tries there. On one
/// processor, and for a loop that is not distributed over processors,
/// that is the program as written with degrees up to `U`. On a
/// multiprocessor, a step-1 [`Dist::Block`] loop with a constant trip
/// count `T` is first lowered to each processor's own block (the SPMD
/// form the paper's multiprocessor codes are written in), returned as a
/// new program. Its unrolled loop and postlude then stay inside the
/// block, so every processor keeps its own iterations and the data homed
/// with them, and the degree is capped at the block size `ceil(T/P)`.
/// Any other block-distributed loop gets degree 1: unrolling it as
/// written would move every processor's block.
///
/// [`Dist::Block`]: mempar_ir::Dist::Block
fn unroll_site(prog: &Program, path: &NestPath, m: &MachineSummary) -> (Option<Program>, u32) {
    let Some(l) = loop_at(prog, path) else {
        return (None, 1);
    };
    if m.procs <= 1 || l.dist != Some(mempar_ir::Dist::Block) {
        return (None, m.max_unroll);
    }
    let Some(trip) = l.const_trip_count() else {
        return (None, 1);
    };
    let mut lowered = prog.clone();
    if !loop_at_mut(&mut lowered, path).is_some_and(Loop::lower_to_own_block) {
        return (None, 1);
    }
    let block = (trip as u64).div_ceil(m.procs as u64);
    (Some(lowered), m.max_unroll.min(block as u32))
}

/// True when every processor's block of a `trip`-iteration block
/// distribution over `procs` processors is a multiple of `degree`.
fn blocks_divide(trip: i64, procs: usize, degree: u32) -> bool {
    (0..procs).all(|p| {
        let (start, end) = block_range(trip, p, procs);
        (end - start) % degree as i64 == 0
    })
}

/// A loop the driver can unroll-and-jam, with the degree
/// [`search_degree`] found for it.
struct JamSite {
    /// The loop to jam.
    path: NestPath,
    /// Its induction variable.
    var: VarId,
    /// Its step (the direction its jammed copies walk memory).
    step: i64,
    /// Its constant trip count as written, if it has one.
    trip: Option<i64>,
    /// The program with this loop lowered to each processor's block, when
    /// [`unroll_site`] lowered it.
    lowered: Option<Program>,
    /// The chosen degree (> 1).
    degree: u32,
    /// Re-analyzed `f` at that degree.
    f: f64,
    /// True when a processor's block, not the model, set the degree:
    /// the loop was lowered, and the degree hit a block cap below `U`.
    block_capped: bool,
}

/// Checks the loop at `at` (enclosing the innermost nest at `inner`
/// analyzed as `an`) as an unroll-and-jam site and searches its degree.
/// `Err` says why it is rejected.
fn jam_site(
    prog: &Program,
    inner: &NestPath,
    at: &NestPath,
    an: &NestAnalysis,
    m: &MachineSummary,
    profile: &MissProfile,
    target: f64,
) -> Result<JamSite, String> {
    let l = loop_at(prog, at).ok_or("not a loop")?;
    let name = prog.var_name(l.var);
    if !writes_vary_with(prog, inner, l.var) {
        return Err(format!("{name}: writes invariant (reduction)"));
    }
    if !unrolling_adds_read_misses(an, l.var) {
        return Err(format!("{name}: adds only write/redundant misses"));
    }
    let (lowered, max_degree) = unroll_site(prog, at, m);
    let site = lowered.as_ref().unwrap_or(prog);
    let Some((degree, f)) = search_degree(site, at, m, profile, target, max_degree) else {
        return Err(format!("{name}: no profitable degree"));
    };
    Ok(JamSite {
        path: at.clone(),
        var: l.var,
        step: l.step,
        trip: l.const_trip_count(),
        block_capped: lowered.is_some() && degree == max_degree && max_degree < m.max_unroll,
        lowered,
        degree,
        f,
    })
}

/// Called when a processor's block capped `capped`'s degree: also tries
/// every loop enclosing it and returns the site with the lowest
/// [`jam_cost`]. Ties keep `capped`. Only loops whose body holds no
/// other innermost nest are tried, since a jam rewrites every nest it
/// encloses and only this one was analyzed. A loop without a constant
/// trip cannot be priced and is never chosen.
fn widen_capped(
    prog: &Program,
    inner: &NestPath,
    capped: JamSite,
    an: &NestAnalysis,
    m: &MachineSummary,
    profile: &MissProfile,
    target: f64,
) -> JamSite {
    let Some(mut best_cost) = jam_cost(prog, &capped, an, m) else {
        return capped;
    };
    let nests = innermost_loops(prog);
    let mut best = capped;
    let mut outer = best.path.parent();
    while let Some(at) = outer {
        // This loop holds another nest, and so does every loop around it.
        if nests.iter().filter(|n| n.0.starts_with(&at.0)).count() > 1 {
            break;
        }
        outer = at.parent();
        let Ok(alt) = jam_site(prog, inner, &at, an, m, profile, target) else {
            continue;
        };
        if let Some(cost) = jam_cost(prog, &alt, an, m).filter(|&c| c + 1e-9 < best_cost) {
            (best, best_cost) = (alt, cost);
        }
    }
    best
}

/// The busiest processor's time per iteration of `site` once jammed, in
/// units of one iteration's misses. A block of `t` iterations runs
/// `t - t mod d` of them jammed at `f_eff` overlapped misses and the
/// `t mod d` left over in the postlude at `f(1)`; a lowered loop's
/// blocks come from [`block_range`], any other loop is one block of its
/// trip. `f_eff = f(1) + (f(d) - f(1))·spread` discounts the copies that
/// queue on one memory bank ([`bank_spread`]). Normalizing by the widest
/// block makes sites at different nesting levels comparable: both time
/// the same nest, only split differently. `None` without a constant trip
/// or a positive `f(1)`.
fn jam_cost(prog: &Program, site: &JamSite, an: &NestAnalysis, m: &MachineSummary) -> Option<f64> {
    let trip = site.trip.filter(|&t| t > 0)?;
    let f1 = Some(an.f).filter(|&f| f > 0.0)?;
    let blocks: Vec<i64> = if site.lowered.is_some() {
        (0..m.procs)
            .map(|p| {
                let (start, end) = block_range(trip, p, m.procs);
                end - start
            })
            .collect()
    } else {
        vec![trip]
    };
    let f_eff = f1 + (site.f - f1) * bank_spread(prog, site, an, m);
    let d = i64::from(site.degree);
    let busiest = blocks
        .iter()
        .map(|&t| {
            let jammed = t - t % d;
            jammed as f64 / f_eff + (t - jammed) as f64 / f1
        })
        .fold(0.0, f64::max);
    Some(busiest / *blocks.iter().max()? as f64)
}

/// Share of the distinct lines touched by the `d` jammed copies of a
/// leading read that fall in distinct memory banks, averaged over 64
/// base lines and minimized over the leading reads that vary with the
/// jammed loop (1 when none has a regular stride). Copies that share a
/// line coalesce in one miss and do not count as a conflict; copies of
/// a large power-of-two stride queue on one bank (an 8 KB plane under
/// the Exemplar's skewed interleave, a 32 KB plane under the simulated
/// machine's permutation).
fn bank_spread(prog: &Program, site: &JamSite, an: &NestAnalysis, m: &MachineSummary) -> f64 {
    let line = m.line_bytes as u64;
    an.refs
        .leading()
        .filter(|r| !r.is_write && ref_varies_with(&r.r, site.var))
        .filter_map(|r| flat_stride(prog, &r.r, site.var))
        .map(|s| {
            let stride = (s * site.step).unsigned_abs() * ELEM_BYTES;
            let per_base = (0..64u64).map(|b| {
                let mut lines: Vec<u64> = (0..u64::from(site.degree))
                    .map(|c| (b * line + c * stride) / line)
                    .collect();
                lines.dedup();
                let mut banks: Vec<usize> = lines
                    .iter()
                    .map(|&l| bank_of(l, m.banks, m.interleave))
                    .collect();
                banks.sort_unstable();
                banks.dedup();
                banks.len() as f64 / lines.len() as f64
            });
            per_base.sum::<f64>() / 64.0
        })
        .fold(1.0, f64::min)
}

/// Searches for the degree `d ≤ max_degree` maximizing re-analyzed `f(d)`
/// subject to `f(d) ≤ target`, returning it with its `f` (`None` when no
/// degree above 1 is profitable) — bracketing binary search first (at
/// most `⌈log₂U⌉` trial jams on clones, as in Carr & Kennedy), with a
/// bounded linear verification pass when the probes contradict the
/// search's monotonicity assumption.
///
/// `f` is *not* monotone in the degree: each leading reference
/// contributes `C_m = ceil(W / (i·L_m))` (Equation 1) and the jammed
/// body size `i` grows with `d`, so `f(d) ≈ d·ceil(K/d)` dips every
/// time the ceiling steps down. The binary search assumes monotonicity
/// and can bracket onto a dip's shoulder; every probe is therefore
/// memoized, and when any probed pair has `f` decreasing — or the
/// candidate right above the proposed answer is still under `target` —
/// the search falls back to probing every candidate (at most `U - 1`
/// jams, most already cached) and picks the feasible argmax, ties to
/// the *larger* degree (same predicted overlap, fewer outer iterations
/// — matching where the bracketing search lands on monotone profiles).
///
/// `max_degree` comes from [`unroll_site`]: `U`, or for a distributed loop
/// on a multiprocessor the size of one processor's block. `prog` is the
/// program `unroll_site` chose, so a distributed loop is probed in its
/// lowered form, where every processor jams its own block and runs its
/// own postlude.
fn search_degree(
    prog: &Program,
    parent: &NestPath,
    m: &MachineSummary,
    profile: &MissProfile,
    target: f64,
    max_degree: u32,
) -> Option<(u32, f64)> {
    let cache = std::cell::RefCell::new(std::collections::BTreeMap::<u32, Option<f64>>::new());
    let f_of = |d: u32| -> Option<f64> {
        if let Some(v) = cache.borrow().get(&d) {
            return *v;
        }
        let v = (|| {
            let mut trial = prog.clone();
            let r = unroll_and_jam(&mut trial, parent, d).ok()?;
            let inner_path = deepest_inner(&trial, &r.main)?;
            let (_, inner_path) = scalar_replace(&mut trial, &inner_path).ok()?;
            let l = loop_at(&trial, &inner_path)?;
            Some(analyze_inner_loop(&trial, &l.body, l.var, m, profile).f)
        })();
        cache.borrow_mut().insert(d, v);
        v
    };
    // Candidate degrees, ascending.
    let candidates: Vec<u32> = (2..=max_degree).collect();
    // Quick legality/profit probe on the smallest candidate.
    let f_small = f_of(*candidates.first()?).filter(|&f| f <= target)?;
    // Bracketing binary search over the candidate list.
    let (mut lo, mut hi) = (0usize, candidates.len() - 1);
    let mut best_f = f_small;
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        match f_of(candidates[mid]) {
            Some(f) if f <= target => {
                lo = mid;
                best_f = f;
            }
            _ => hi = mid - 1,
        }
    }
    // Verify the monotonicity assumption against the probe record. The
    // search is only sound when `f` is non-decreasing in the degree;
    // `f(d) = Σ C_m` dips exactly when some ceiling `C_m = ceil(W/(i·L_m))`
    // steps down as the jammed body grows, and that always shows up as
    // *sublinear* growth between probes (`f(d)/d` shrinking) even when
    // the probed values themselves happen to ascend past an unprobed
    // dip. Three triggers, from cheapest to most general: the candidate
    // just above the proposed answer is still feasible; some probed
    // pair has `f` decreasing outright; or some probed pair grows
    // sublinearly.
    let neighbor_feasible =
        lo + 1 < candidates.len() && f_of(candidates[lo + 1]).is_some_and(|f| f <= target + 1e-9);
    let probes_suspect = {
        let snap: Vec<(u32, f64)> = cache
            .borrow()
            .iter()
            .filter(|(d, _)| **d >= candidates[0])
            .filter_map(|(&d, &f)| f.map(|f| (d, f)))
            .collect();
        snap.windows(2).any(|w| {
            let (d1, f1) = w[0];
            let (d2, f2) = w[1];
            f1 > f2 + 1e-9 || f2 / d2 as f64 + 1e-9 < f1 / d1 as f64
        })
    };
    if neighbor_feasible || probes_suspect {
        // Bounded linear verification: probe everything (memoized) and
        // take the feasible argmax; ties keep the larger degree — the
        // model predicts the same overlap, and the larger jam spends
        // fewer outer iterations on loop overhead (this is also where
        // the bracketing search lands when the profile is monotone, so
        // well-behaved nests keep their seed degrees).
        let mut best: Option<(usize, f64)> = None;
        for (idx, &d) in candidates.iter().enumerate() {
            if let Some(f) = f_of(d) {
                if f <= target && best.is_none_or(|(_, bf)| f + 1e-9 >= bf) {
                    best = Some((idx, f));
                }
            }
        }
        (lo, best_f) = best?;
    }
    // Unrolling that never increases the overlapped-miss estimate (all
    // copies coalesce onto the same lines) is pure code expansion: skip.
    if f_of(1).is_some_and(|f1| best_f <= f1 + 1e-9) {
        return None;
    }
    Some((candidates[lo], best_f))
}

/// True when unrolling the loop over `pv` would add new *read* miss
/// opportunities: some leading read reference's address varies with it
/// (otherwise copies coalesce, or only writes are added — the paper's
/// "we prefer not to unroll-and-jam loops that only expose additional
/// write miss references").
fn unrolling_adds_read_misses(an: &NestAnalysis, pv: mempar_ir::VarId) -> bool {
    an.refs
        .leading()
        .any(|r| !r.is_write && ref_varies_with(&r.r, pv))
}

/// True when every array write in the innermost body at `inner` varies
/// with `pv`. A write invariant in `pv` means the unrolled copies rewrite
/// the same elements — a memory-carried reduction whose copies serialize.
fn writes_vary_with(prog: &Program, inner: &NestPath, pv: mempar_ir::VarId) -> bool {
    let Some(l) = loop_at(prog, inner) else {
        return false;
    };
    let mut ok = true;
    for s in &l.body {
        s.visit_local_refs(&mut |r, w| {
            if w && !ref_varies_with(r, pv) {
                ok = false;
            }
        });
    }
    ok
}

fn ref_varies_with(r: &mempar_ir::ArrayRef, v: mempar_ir::VarId) -> bool {
    r.indices.iter().any(|ix| {
        !ix.affine.is_free_of(v)
            || match &ix.dynamic {
                Some(mempar_ir::DynIndex::Indirect { inner, .. }) => ref_varies_with(inner, v),
                // A scalar-carried address varies unpredictably: assume yes.
                Some(mempar_ir::DynIndex::Scalar { .. }) => true,
                None => false,
            }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempar_ir::{
        run_parallel_functional, run_single, AffineExpr, ArrayData, ArrayRef, Dist, Index,
        Interleave, ProgramBuilder, SimMem,
    };

    fn fig2a(n: usize) -> (Program, mempar_ir::ArrayId, mempar_ir::ArrayId) {
        let mut b = ProgramBuilder::new("fig2a");
        let a = b.array_f64("a", &[n, n]);
        let out = b.array_f64("out", &[n]);
        let s = b.scalar_f64("sum", 0.0);
        let j = b.var("j");
        let i = b.var("i");
        b.for_const(j, 0, n as i64, |b| {
            let zero = b.constf(0.0);
            b.assign_scalar(s, zero);
            b.for_const(i, 0, n as i64, |b| {
                let v = b.load(a, &[b.idx(j), b.idx(i)]);
                let acc = b.scalar(s);
                let e = b.add(acc, v);
                b.assign_scalar(s, e);
            });
            let fin = b.scalar(s);
            b.assign_array(out, &[b.idx(j)], fin);
        });
        (b.finish(), a, out)
    }

    #[test]
    fn clusters_fig2a_with_uaj() {
        let n = 64;
        let (mut p, a, out) = fig2a(n);
        let mut mem = SimMem::new(&p, 1);
        mem.set_array(
            a,
            ArrayData::F64((0..n * n).map(|x| (x % 11) as f64).collect()),
        );
        run_single(&p, &mut mem);
        let base_out = mem.read_f64(out);

        let m = MachineSummary::base();
        let report = cluster_program(&mut p, &m, &MissProfile::pessimistic());
        assert_eq!(report.decisions.len(), 1);
        let d = &report.decisions[0];
        assert!(d.uaj_degree > 1, "recurrence must trigger UAJ: {report:?}");
        assert!(d.f_after > d.f_before);
        assert!(
            d.f_after <= d.alpha * m.mshrs as f64 + 1e-9,
            "conservative bound"
        );

        // Semantics preserved.
        let mut mem2 = SimMem::new(&p, 1);
        mem2.set_array(
            a,
            ArrayData::F64((0..n * n).map(|x| (x % 11) as f64).collect()),
        );
        run_single(&p, &mut mem2);
        assert_eq!(mem2.read_f64(out), base_out);
    }

    #[test]
    fn report_summary_mentions_degree() {
        let (mut p, _, _) = fig2a(64);
        let m = MachineSummary::base();
        let report = cluster_program(&mut p, &m, &MissProfile::pessimistic());
        let s = report.summary();
        assert!(s.contains("uaj="), "{s}");
        assert!(report.any_transformed());
    }

    #[test]
    fn column_traversal_untouched() {
        // Already clustered: driver must leave it alone.
        let mut b = ProgramBuilder::new("col");
        let a = b.array_f64("a", &[64, 64]);
        let s = b.scalar_f64("s", 0.0);
        let j = b.var("j");
        let i = b.var("i");
        b.for_const(j, 0, 64, |b| {
            b.for_const(i, 0, 64, |b| {
                let v = b.load(a, &[b.idx(i), b.idx(j)]);
                let acc = b.scalar(s);
                let e = b.add(acc, v);
                b.assign_scalar(s, e);
            });
        });
        let mut p = b.finish();
        let before = p.clone();
        let report = cluster_program(&mut p, &MachineSummary::base(), &MissProfile::pessimistic());
        assert!(!report.any_transformed(), "{}", report.summary());
        assert_eq!(p, before);
    }

    #[test]
    fn independent_gathers_untouched() {
        // The paper's §3.1 sparse-matrix loop: one row's gathers
        // b[colidx[j,i]] are mutually independent, so a 64-entry window
        // already overlaps them (f >= lp) and the driver declines.
        let (rows, nnz) = (512, 16);
        let mut b = ProgramBuilder::new("spmv");
        let colidx = b.array_i64("colidx", &[rows, nnz]);
        let val = b.array_f64("val", &[rows, nnz]);
        let dense = b.array_f64("b", &[1 << 16]);
        let sum = b.array_f64("sum", &[rows]);
        let acc = b.scalar_f64("acc", 0.0);
        let j = b.var("j");
        let i = b.var("i");
        b.for_dist(j, 0, rows as i64, Dist::Block, |b| {
            let zero = b.constf(0.0);
            b.assign_scalar(acc, zero);
            b.for_const(i, 0, nnz as i64, |b| {
                let v = b.load(val, &[b.idx(j), b.idx(i)]);
                let idx = ArrayRef::new(
                    colidx,
                    vec![
                        Index::affine(AffineExpr::var(j)),
                        Index::affine(AffineExpr::var(i)),
                    ],
                );
                let gathered = b.load_ref(ArrayRef::new(dense, vec![Index::indirect(idx)]));
                let prod = b.mul(v, gathered);
                let a0 = b.scalar(acc);
                let e = b.add(a0, prod);
                b.assign_scalar(acc, e);
            });
            let fin = b.scalar(acc);
            b.assign_array(sum, &[b.idx(j)], fin);
        });
        let mut p = b.finish();
        let report = cluster_program(&mut p, &MachineSummary::base(), &MissProfile::pessimistic());
        assert_eq!(report.decisions.len(), 1);
        assert!(
            report
                .decisions
                .iter()
                .all(|d| d.uaj_degree == 1 && d.inner_unroll == 1),
            "f >= lp: nothing to do\n{}",
            report.summary()
        );
    }

    #[test]
    fn top_level_loop_cannot_uaj_but_reports() {
        // Latbench-minus-outer-loop: a bare pointer chase.
        let mut b = ProgramBuilder::new("bare-chase");
        let next = b.array_i64("next", &[1024]);
        let ps = b.scalar_i64("p", 0);
        let i = b.var("i");
        b.for_const(i, 0, 1024, |b| {
            let v = b.load_ref(mempar_ir::ArrayRef::new(
                next,
                vec![mempar_ir::Index::scalar(ps)],
            ));
            b.assign_scalar(ps, v);
        });
        let mut p = b.finish();
        let report = cluster_program(&mut p, &MachineSummary::base(), &MissProfile::pessimistic());
        let d = &report.decisions[0];
        assert_eq!(d.uaj_degree, 1);
        assert!(d.uaj_skip_reason.as_deref() == Some("no enclosing loop to unroll"));
    }

    #[test]
    fn latbench_shape_gets_uaj() {
        // Outer loop over independent chains: UAJ overlaps them.
        let nchains = 32usize;
        let len = 16usize;
        let mut b = ProgramBuilder::new("latbench");
        let heads = b.array_i64("heads", &[nchains]);
        let next = b.array_i64("next", &[1024]);
        let ps = b.scalar_i64("p", 0);
        let sink = b.array_i64("sink", &[nchains]);
        let j = b.var("j");
        let i = b.var("i");
        b.for_const(j, 0, nchains as i64, |b| {
            let h = b.load(heads, &[b.idx(j)]);
            b.assign_scalar(ps, h);
            b.for_const(i, 0, len as i64, |b| {
                let v = b.load_ref(mempar_ir::ArrayRef::new(
                    next,
                    vec![mempar_ir::Index::scalar(ps)],
                ));
                b.assign_scalar(ps, v);
            });
            let fin = b.scalar(ps);
            b.assign_array(sink, &[b.idx(j)], fin);
        });
        let mut p = b.finish();
        // The chase is irregular; mark the chain loop parallel (the
        // paper's Latbench chains are independent by construction).
        let mempar_ir::Stmt::Loop(l) = &mut p.body[0] else {
            panic!()
        };
        l.dist = Some(mempar_ir::Dist::Block);

        // Functional reference.
        let mk = |p: &Program| {
            let mut mem = SimMem::new(p, 1);
            mem.set_array(
                heads,
                ArrayData::I64((0..nchains as i64).map(|x| x * 31 % 1024).collect()),
            );
            mem.set_array(
                next,
                ArrayData::I64((0..1024).map(|x| (x + 97) % 1024).collect()),
            );
            mem
        };
        let mut mem = mk(&p);
        run_single(&p, &mut mem);
        let base = mem.read_i64(sink);

        let report = cluster_program(&mut p, &MachineSummary::base(), &MissProfile::pessimistic());
        let d = &report.decisions[0];
        assert!(d.uaj_degree > 1, "{}", report.summary());
        // alpha = 1 address recurrence: degree should reach ~lp.
        assert!(
            d.uaj_degree >= 8,
            "degree {} should approach lp",
            d.uaj_degree
        );

        let mut mem2 = mk(&p);
        run_single(&p, &mut mem2);
        assert_eq!(mem2.read_i64(sink), base);
    }

    /// Erlebacher's x-direction sweep in miniature:
    /// `for k { forall j { for i { out[k,j,i] = a[k,j,i+1] - a[k,j,i-1] } } }`.
    fn sweep3d(
        nk: usize,
        nj: usize,
        ni: usize,
    ) -> (Program, mempar_ir::ArrayId, mempar_ir::ArrayId) {
        let mut b = ProgramBuilder::new("sweep3d");
        let a = b.array_f64("a", &[nk, nj, ni]);
        let out = b.array_f64("out", &[nk, nj, ni]);
        let k = b.var("k");
        let j = b.var("j");
        let i = b.var("i");
        b.for_const(k, 0, nk as i64, |b| {
            b.for_dist(j, 0, nj as i64, Dist::Block, |b| {
                b.for_const(i, 1, ni as i64 - 1, |b| {
                    let at = |b: &ProgramBuilder, di| {
                        [b.idx(k), b.idx(j), b.idx_e(AffineExpr::var(i).offset(di))]
                    };
                    let hi = b.load(a, &at(b, 1));
                    let lo = b.load(a, &at(b, -1));
                    let e = b.sub(hi, lo);
                    b.assign_array(out, &[b.idx(k), b.idx(j), b.idx(i)], e);
                });
            });
        });
        (b.finish(), a, out)
    }

    /// Clusters `prog` for `m` and returns the jammed loop's variable and
    /// degree, after checking every processor still computes the base
    /// program's output.
    fn jam_of(
        prog: &mut Program,
        m: &MachineSummary,
        arrays: (mempar_ir::ArrayId, mempar_ir::ArrayId),
    ) -> (String, u32) {
        let (a, out) = arrays;
        let run = |p: &Program| {
            let mut mem = SimMem::new(p, m.procs);
            let n = p.array(a).len();
            mem.set_array(a, ArrayData::F64((0..n).map(|x| (x % 13) as f64).collect()));
            run_parallel_functional(p, &mut mem, m.procs);
            mem.read_f64(out)
        };
        let base = run(prog);
        let report = cluster_program(prog, m, &MissProfile::pessimistic());
        assert_eq!(run(prog), base, "{}", report.summary());
        let d = &report.decisions[0];
        let var = d
            .uaj_loop
            .as_ref()
            .map(|j| j.var.clone())
            .unwrap_or_default();
        (var, d.uaj_degree)
    }

    /// On 16 processors each owns at most `ceil(37/16) = 3` of the 37
    /// `j` planes, which caps `j`'s degree below the target; the
    /// enclosing `k` loop reaches it and prices cheaper.
    #[test]
    fn block_capped_jam_moves_to_the_enclosing_loop() {
        let (mut p, a, out) = sweep3d(16, 37, 32);
        let m = MachineSummary {
            procs: 16,
            ..MachineSummary::base()
        };
        let (var, degree) = jam_of(&mut p, &m, (a, out));
        assert_eq!(var, "k", "degree {degree}");
        assert!(degree > 3, "k must jam past the block cap, got {degree}");
    }

    /// On the Exemplar at 8 processors `j` is capped at its 4-plane
    /// block, but every 8 KB `k` plane of a 32³ cube lands in one skewed
    /// bank, so the `k` copies would queue on it: the driver keeps `j`.
    #[test]
    fn bank_conflicts_keep_the_distributed_loop() {
        let (mut p, a, out) = sweep3d(32, 32, 32);
        let m = MachineSummary {
            procs: 8,
            ..MachineSummary::exemplar()
        };
        let inner = innermost_loops(&p)[0].clone();
        let j_path = inner.parent().unwrap();
        let k_path = j_path.parent().unwrap();
        let an = {
            let l = loop_at(&p, &inner).unwrap();
            analyze_inner_loop(&p, &l.body, l.var, &m, &MissProfile::pessimistic())
        };
        let target = an.target_f(&m);
        let site = |at: &NestPath| {
            jam_site(&p, &inner, at, &an, &m, &MissProfile::pessimistic(), target).unwrap()
        };
        // The trigger holds: the block cap set `j`'s degree.
        assert!(site(&j_path).block_capped);
        // Every `k` copy of a line lands in that line's bank.
        let k = site(&k_path);
        let spread = bank_spread(&p, &k, &an, &m);
        assert!(
            (spread - 1.0 / k.degree as f64).abs() < 1e-9,
            "spread {spread}"
        );
        let (var, degree) = jam_of(&mut p, &m, (a, out));
        assert_eq!((var.as_str(), degree), ("j", 4));
    }

    /// One processor lowers nothing, so the wider search never runs and
    /// the banks do not matter: the driver jams `j` exactly as it did
    /// before jam sites were priced.
    #[test]
    fn uniprocessor_sweep_is_unchanged() {
        const EXPECTED: &str = "\
// program sweep3d
for (k = 0; k < 16; k++) {
  uaj_t_j = (0 + (5 * ((37 - 0) / 5)));
  forall_block (j = 0; j < uaj_t_j; j += 5) {
    for (i = 1; i < 31; i++) {
      out[k,j,i] = (a[k,j,i + 1] - a[k,j,i - 1]);
      out[k,j + 1,i] = (a[k,j + 1,i + 1] - a[k,j + 1,i - 1]);
      out[k,j + 2,i] = (a[k,j + 2,i + 1] - a[k,j + 2,i - 1]);
      out[k,j + 3,i] = (a[k,j + 3,i + 1] - a[k,j + 3,i - 1]);
      out[k,j + 4,i] = (a[k,j + 4,i + 1] - a[k,j + 4,i - 1]);
    }
  }
  for (i = 1; i < 31; i++) {
    forall_block (j = uaj_t_j; j < 37; j++) {
      out[k,j,i] = (a[k,j,i + 1] - a[k,j,i - 1]);
    }
  }
}
";
        for interleave in [Interleave::Permutation, Interleave::Sequential] {
            let (mut p, a, out) = sweep3d(16, 37, 32);
            let m = MachineSummary {
                interleave,
                ..MachineSummary::base()
            };
            assert_eq!(jam_of(&mut p, &m, (a, out)), ("j".into(), 5));
            assert_eq!(p.to_pseudocode(), EXPECTED);
        }
    }

    #[test]
    fn report_names_the_jammed_loop() {
        let (mut p, _, _) = sweep3d(4, 37, 32);
        let report = cluster_program(&mut p, &MachineSummary::base(), &MissProfile::pessimistic());
        assert!(
            report.summary().contains(" uaj=5@j unroll="),
            "{}",
            report.summary()
        );
        // Three `j` planes are fewer than the degree: only the postlude runs.
        let (mut p, _, _) = sweep3d(4, 3, 32);
        let report = cluster_program(&mut p, &MachineSummary::base(), &MissProfile::pessimistic());
        let s = report.summary();
        assert!(s.contains(" uaj=5@j (postlude only) unroll="), "{s}");
    }

    /// A unit-stride 2-D copy-scale: after jamming by `d`, each copy
    /// contributes leading references with `C_m = ceil(W/(i·L_m))`, so
    /// `f(d) ≈ d·ceil(K/d)` — which *dips* every time the ceiling steps
    /// down. The profile at `W = 160` is
    /// `f = [12, 12, 16, 20, 12, 14, 16, 18, ...]` for `d = 2..`.
    fn row_copy(n: usize) -> Program {
        let mut b = ProgramBuilder::new("rowcopy");
        let a = b.array_f64("a", &[n, n]);
        let out = b.array_f64("out", &[n, n]);
        let j = b.var("j");
        let i = b.var("i");
        b.for_const(j, 0, n as i64, |b| {
            b.for_const(i, 0, n as i64, |b| {
                let v = b.load(a, &[b.idx(j), b.idx(i)]);
                let two = b.constf(2.0);
                let e = b.mul(v, two);
                b.assign_array(out, &[b.idx(j), b.idx(i)], e);
            });
        });
        b.finish()
    }

    fn brute_f(
        prog: &Program,
        parent: &NestPath,
        m: &MachineSummary,
        profile: &MissProfile,
        d: u32,
    ) -> Option<f64> {
        let mut trial = prog.clone();
        let r = unroll_and_jam(&mut trial, parent, d).ok()?;
        let inner_path = deepest_inner(&trial, &r.main)?;
        let (_, inner_path) = scalar_replace(&mut trial, &inner_path).ok()?;
        let l = loop_at(&trial, &inner_path)?;
        Some(analyze_inner_loop(&trial, &l.body, l.var, m, profile).f)
    }

    /// Regression for the monotonicity bug: at `W = 160`, `target = 14`,
    /// the probes the binary search records disagree (f decreases from
    /// d=5 to d=9), and without the linear fallback it brackets onto
    /// d=3 (f=12) while d=7 achieves f=14 within target.
    #[test]
    fn search_degree_survives_non_monotone_f() {
        let prog = row_copy(128);
        let inner = innermost_loops(&prog)[0].clone();
        let parent = inner.parent().unwrap();
        let m = MachineSummary {
            window: 160,
            procs: 1,
            mshrs: 16,
            line_bytes: 64,
            max_unroll: 16,
            ..MachineSummary::base()
        };
        let profile = MissProfile::pessimistic();
        let fs: Vec<(u32, f64)> = (2..=m.max_unroll)
            .filter_map(|d| brute_f(&prog, &parent, &m, &profile, d).map(|f| (d, f)))
            .collect();
        assert!(
            fs.windows(2).any(|w| w[0].1 > w[1].1 + 1e-9),
            "premise: f must be non-monotone here, got {fs:?}"
        );
        let target = 14.0;
        let best = fs
            .iter()
            .filter(|(_, f)| *f <= target)
            .fold(None::<(u32, f64)>, |acc, &(d, f)| match acc {
                Some((_, bf)) if f <= bf + 1e-9 => acc,
                _ => Some((d, f)),
            })
            .expect("a feasible degree exists");
        assert_eq!(best, (7, 14.0), "premise drifted: {fs:?}");
        let chosen =
            search_degree(&prog, &parent, &m, &profile, target, m.max_unroll).map_or(1, |(d, _)| d);
        assert_eq!(
            chosen, best.0,
            "search must match the feasible argmax (profile {fs:?})"
        );
    }

    /// The search's answer always achieves the feasible argmax of `f`
    /// whenever it unrolls at all, across window sizes and targets.
    #[test]
    fn search_degree_is_optimal_across_windows_and_targets() {
        let prog = row_copy(128);
        let inner = innermost_loops(&prog)[0].clone();
        let parent = inner.parent().unwrap();
        let profile = MissProfile::pessimistic();
        for window in [64, 96, 128, 160, 256] {
            let m = MachineSummary {
                window,
                procs: 1,
                mshrs: 16,
                line_bytes: 64,
                max_unroll: 16,
                ..MachineSummary::base()
            };
            let f1 = brute_f(&prog, &parent, &m, &profile, 1).unwrap();
            let fs: Vec<(u32, f64)> = (2..=m.max_unroll)
                .filter_map(|d| brute_f(&prog, &parent, &m, &profile, d).map(|f| (d, f)))
                .collect();
            for target in (8..=24).map(|t| t as f64) {
                let best = fs.iter().filter(|(_, f)| *f <= target).fold(
                    None::<(u32, f64)>,
                    |acc, &(d, f)| match acc {
                        Some((_, bf)) if f <= bf + 1e-9 => acc,
                        _ => Some((d, f)),
                    },
                );
                let chosen = search_degree(&prog, &parent, &m, &profile, target, m.max_unroll)
                    .map_or(1, |(d, _)| d);
                if chosen > 1 {
                    let f_chosen = fs.iter().find(|(d, _)| *d == chosen).unwrap().1;
                    let best_f = best.expect("chosen>1 implies feasible").1;
                    assert!(
                        (f_chosen - best_f).abs() < 1e-9,
                        "W={window} target={target}: chose d={chosen} (f={f_chosen}) \
                         but feasible argmax is {best:?} in {fs:?}"
                    );
                } else if let Some((bd, bf)) = best {
                    // Declining to unroll is only allowed when nothing
                    // feasible improves on f(1), or the smallest
                    // candidate already misses target (the quick-probe
                    // fast path documents that limitation).
                    assert!(
                        bf <= f1 + 1e-9 || fs.first().is_some_and(|(_, f2)| *f2 > target),
                        "W={window} target={target}: declined but d={bd} f={bf} was available"
                    );
                }
            }
        }
    }
}
