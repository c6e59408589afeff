//! The differential checking harness.
//!
//! For one generated spec the harness establishes a sequential
//! interpreter baseline, then demands a bit-identical final memory
//! image from:
//!
//! * the parallel functional oracle (when the spec's [`Mode`] makes the
//!   redundant/distributed execution deterministic),
//! * every transform pass applied individually at every loop path,
//! * random multi-pass compositions of legally-applied transforms, and
//! * the paper's clustering driver
//!   ([`mempar_transform::cluster_program`]) end to end.
//!
//! Legality rejections are additionally *probed*: a dependence-rejected
//! unroll-and-jam or interchange is force-applied with
//! [`Legality::Bypass`] and re-run. If the forced result still validates
//! and matches the baseline, the rejection was merely conservative
//! (allowed); the probe exists to catch the opposite rot — an
//! [`TransformError::IllegalDependence`] that the dependence test would
//! silently stop returning while the transform is actually unsafe.

use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::Once;

use crate::spec::{Built, ProgSpec};
use mempar::{machine_summary, profile_miss_rates, MachineConfig, MissProfile};
use mempar_ir::{run_parallel_functional, run_single, Program, SimMem, Stmt};
use mempar_transform::{
    cluster_program, inner_unroll, insert_prefetches, interchange_with, scalar_replace, strip_mine,
    unroll_and_jam_with, Legality, NestPath, TransformError,
};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// A transform pass the harness can apply at a loop path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// Unroll-and-jam by the given degree.
    UnrollJam(u32),
    /// Loop interchange of a perfect 2-nest.
    Interchange,
    /// Strip-mining with the given strip length.
    StripMine(u32),
    /// In-place inner unrolling (always order-preserving).
    InnerUnroll(u32),
    /// Scalar replacement of invariant references.
    ScalarReplace,
    /// Software prefetch insertion (functional no-op).
    Prefetch,
}

impl PassKind {
    /// The full pass roster the harness exercises.
    pub fn all() -> &'static [PassKind] {
        &[
            PassKind::UnrollJam(2),
            PassKind::UnrollJam(3),
            PassKind::Interchange,
            PassKind::StripMine(4),
            PassKind::InnerUnroll(2),
            PassKind::ScalarReplace,
            PassKind::Prefetch,
        ]
    }

    /// Whether the pass has a [`Legality::Bypass`] variant to probe
    /// dependence rejections with.
    pub fn has_bypass(self) -> bool {
        matches!(self, PassKind::UnrollJam(_) | PassKind::Interchange)
    }

    /// Short stable name (used in failure signatures, so path- and
    /// degree-free).
    pub fn name(self) -> &'static str {
        match self {
            PassKind::UnrollJam(_) => "uaj",
            PassKind::Interchange => "interchange",
            PassKind::StripMine(_) => "strip",
            PassKind::InnerUnroll(_) => "unroll",
            PassKind::ScalarReplace => "scalrep",
            PassKind::Prefetch => "prefetch",
        }
    }
}

impl std::fmt::Display for PassKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PassKind::UnrollJam(d) => write!(f, "uaj(d={d})"),
            PassKind::Interchange => write!(f, "interchange"),
            PassKind::StripMine(s) => write!(f, "strip(s={s})"),
            PassKind::InnerUnroll(d) => write!(f, "unroll(d={d})"),
            PassKind::ScalarReplace => write!(f, "scalrep"),
            PassKind::Prefetch => write!(f, "prefetch"),
        }
    }
}

/// How a differential check failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivKind {
    /// Sequential memory image differs from the baseline.
    MemDiff,
    /// Parallel-functional memory image differs from the baseline.
    ParMemDiff,
    /// A transform produced a program the validator rejects.
    InvalidProgram,
    /// Interpreter or transform panicked.
    Panicked,
}

/// One observed divergence, with enough context to reproduce and
/// shrink it.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Generator seed of the offending spec.
    pub seed: u64,
    /// Human-readable chain of applied passes (with paths).
    pub pass_chain: String,
    /// Failure class.
    pub kind: DivKind,
    /// Diagnostic detail (fingerprints, validator errors, panic text).
    pub detail: String,
}

impl Divergence {
    /// Path- and degree-free signature used by the shrinker to decide
    /// whether a mutated spec still exhibits *the same* failure.
    pub fn signature(&self) -> String {
        let names: Vec<&str> = self
            .pass_chain
            .split('+')
            .map(|p| p.split('(').next().unwrap_or(p).trim())
            .map(|p| p.split('@').next().unwrap_or(p).trim())
            .collect();
        format!("{:?}|{}", self.kind, names.join("+"))
    }
}

/// Aggregate result of checking one spec.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// All divergences found (empty = spec passed).
    pub divergences: Vec<Divergence>,
    /// Single-pass applications that succeeded and matched.
    pub singles_ok: usize,
    /// Single-pass applications rejected by legality/structure.
    pub singles_rejected: usize,
    /// Dependence rejections where the forced (bypassed) application
    /// demonstrably broke the program — the rejection earned its keep.
    pub rejections_justified: usize,
    /// Dependence rejections where the forced application happened to
    /// still match (conservative, but sound).
    pub rejections_conservative: usize,
    /// Random compositions fully applied and matched.
    pub compositions_ok: usize,
}

impl CheckReport {
    /// True when no divergence was observed.
    pub fn passed(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Outcome of [`check_spec`] (alias for readability at call sites).
pub type CheckOutcome = CheckReport;

static HOOK: Once = Once::new();
thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f`, converting panics to `Err` without letting the default
/// panic hook spam stderr (forced-bypass probes panic by design).
fn catch_quiet<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
    QUIET.with(|q| q.set(true));
    let r = std::panic::catch_unwind(AssertUnwindSafe(f));
    QUIET.with(|q| q.set(false));
    r.map_err(|e| {
        e.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// Fresh memory for (a transform of) `built`'s program. Transforms never
/// touch array declarations, so the layout — and therefore the
/// fingerprint space — is shared with the baseline.
fn memory_for(prog: &Program, built: &Built, nprocs: usize) -> SimMem {
    let mut mem = SimMem::new(prog, nprocs);
    for (id, data) in &built.init {
        mem.set_array(*id, data.clone());
    }
    mem
}

fn seq_fingerprint(prog: &Program, built: &Built) -> Result<u64, String> {
    catch_quiet(|| {
        let mut mem = memory_for(prog, built, 1);
        run_single(prog, &mut mem);
        mem.fingerprint()
    })
}

fn par_fingerprint(prog: &Program, built: &Built, nprocs: usize) -> Result<u64, String> {
    catch_quiet(|| {
        let mut mem = memory_for(prog, built, 1);
        run_parallel_functional(prog, &mut mem, nprocs);
        mem.fingerprint()
    })
}

/// All paths to loops reachable through loop nesting (the path space the
/// transform entry points accept).
pub fn loop_paths(prog: &Program) -> Vec<NestPath> {
    fn walk(body: &[Stmt], cur: &mut Vec<usize>, out: &mut Vec<NestPath>) {
        for (i, s) in body.iter().enumerate() {
            if let Stmt::Loop(l) = s {
                cur.push(i);
                out.push(NestPath(cur.clone()));
                walk(&l.body, cur, &mut *out);
                cur.pop();
            }
        }
    }
    let mut out = Vec::new();
    walk(&prog.body, &mut Vec::new(), &mut out);
    out
}

/// Applies one pass at `path`.
pub fn apply_pass(
    prog: &mut Program,
    path: &NestPath,
    pass: PassKind,
    legality: Legality,
    profile: &MissProfile,
) -> Result<(), TransformError> {
    match pass {
        PassKind::UnrollJam(d) => unroll_and_jam_with(prog, path, d, legality).map(|_| ()),
        PassKind::Interchange => interchange_with(prog, path, legality),
        PassKind::StripMine(s) => strip_mine(prog, path, s).map(|_| ()),
        PassKind::InnerUnroll(d) => inner_unroll(prog, path, d).map(|_| ()),
        PassKind::ScalarReplace => scalar_replace(prog, path).map(|_| ()),
        PassKind::Prefetch => insert_prefetches(prog, path, 16, 64, profile).map(|_| ()),
    }
}

/// Checks a transformed program against the baseline fingerprint.
/// Returns `None` when everything matches.
fn diff_transformed(
    spec: &ProgSpec,
    built: &Built,
    prog: &Program,
    chain: &str,
    base_fp: u64,
) -> Option<Divergence> {
    let errs = prog.validate();
    if !errs.is_empty() {
        return Some(Divergence {
            seed: spec.seed,
            pass_chain: chain.to_string(),
            kind: DivKind::InvalidProgram,
            detail: format!("{errs:?}"),
        });
    }
    match seq_fingerprint(prog, built) {
        Ok(fp) if fp == base_fp => {}
        Ok(fp) => {
            return Some(Divergence {
                seed: spec.seed,
                pass_chain: chain.to_string(),
                kind: DivKind::MemDiff,
                detail: format!("seq fingerprint {fp:#018x} != baseline {base_fp:#018x}"),
            })
        }
        Err(msg) => {
            return Some(Divergence {
                seed: spec.seed,
                pass_chain: chain.to_string(),
                kind: DivKind::Panicked,
                detail: msg,
            })
        }
    }
    if built.mode.parallel_checked() {
        match par_fingerprint(prog, built, built.nprocs) {
            Ok(fp) if fp == base_fp => {}
            Ok(fp) => {
                return Some(Divergence {
                    seed: spec.seed,
                    pass_chain: chain.to_string(),
                    kind: DivKind::ParMemDiff,
                    detail: format!("par fingerprint {fp:#018x} != baseline {base_fp:#018x}"),
                })
            }
            Err(msg) => {
                return Some(Divergence {
                    seed: spec.seed,
                    pass_chain: chain.to_string(),
                    kind: DivKind::Panicked,
                    detail: msg,
                })
            }
        }
    }
    None
}

/// Runs the full differential check for one spec: baseline, parallel
/// oracle, every single pass at every path (with rejection probing),
/// random compositions, and the clustering driver.
pub fn check_spec(spec: &ProgSpec) -> CheckReport {
    let mut report = CheckReport::default();
    let built = crate::spec::materialize(spec);

    // Generated programs must always validate; anything else is a
    // generator/materializer bug and gets reported like a divergence so
    // it shrinks the same way.
    let errs = built.prog.validate();
    if !errs.is_empty() {
        report.divergences.push(Divergence {
            seed: spec.seed,
            pass_chain: "generate".into(),
            kind: DivKind::InvalidProgram,
            detail: format!("{errs:?}"),
        });
        return report;
    }

    // Baseline.
    let base_fp = match seq_fingerprint(&built.prog, &built) {
        Ok(fp) => fp,
        Err(msg) => {
            report.divergences.push(Divergence {
                seed: spec.seed,
                pass_chain: "baseline".into(),
                kind: DivKind::Panicked,
                detail: msg,
            });
            return report;
        }
    };

    // Parallel oracle on the untransformed program.
    if built.mode.parallel_checked() {
        match par_fingerprint(&built.prog, &built, built.nprocs) {
            Ok(fp) if fp == base_fp => {}
            Ok(fp) => report.divergences.push(Divergence {
                seed: spec.seed,
                pass_chain: "parallel-oracle".into(),
                kind: DivKind::ParMemDiff,
                detail: format!("par fingerprint {fp:#018x} != baseline {base_fp:#018x}"),
            }),
            Err(msg) => report.divergences.push(Divergence {
                seed: spec.seed,
                pass_chain: "parallel-oracle".into(),
                kind: DivKind::Panicked,
                detail: msg,
            }),
        }
    }

    // A miss profile for the prefetch pass (functional input only).
    let cfg = MachineConfig::base_simulated(1, 256 * 1024);
    let profile = {
        let mut mem = built.memory(1);
        profile_miss_rates(&built.prog, &mut mem, &cfg.l2)
    };

    // Every pass, alone, at every loop path.
    for path in loop_paths(&built.prog) {
        for &pass in PassKind::all() {
            let mut prog = built.prog.clone();
            let applied =
                catch_quiet(|| apply_pass(&mut prog, &path, pass, Legality::Enforce, &profile));
            let chain = format!("{pass}@{:?}", path.0);
            match applied {
                Ok(Ok(())) => match diff_transformed(spec, &built, &prog, &chain, base_fp) {
                    Some(d) => report.divergences.push(d),
                    None => report.singles_ok += 1,
                },
                Ok(Err(TransformError::IllegalDependence)) if pass.has_bypass() => {
                    report.singles_rejected += 1;
                    probe_rejection(spec, &built, &path, pass, &profile, base_fp, &mut report);
                }
                Ok(Err(_)) => report.singles_rejected += 1,
                Err(msg) => report.divergences.push(Divergence {
                    seed: spec.seed,
                    pass_chain: chain,
                    kind: DivKind::Panicked,
                    detail: format!("pass panicked under Enforce: {msg}"),
                }),
            }
        }
    }

    // Random compositions of legally-applied passes.
    let mut rng = SmallRng::seed_from_u64(spec.seed ^ 0x9e37_79b9_7f4a_7c15);
    for _ in 0..4 {
        compose_once(spec, &built, &profile, base_fp, &mut rng, &mut report);
    }

    // The clustering driver end to end ("driver-ordered" composition).
    let mut prog = built.prog.clone();
    let summary = machine_summary(&cfg);
    match catch_quiet(|| {
        cluster_program(&mut prog, &summary, &profile);
    }) {
        Ok(()) => match diff_transformed(spec, &built, &prog, "driver", base_fp) {
            Some(d) => report.divergences.push(d),
            None => report.compositions_ok += 1,
        },
        Err(msg) => report.divergences.push(Divergence {
            seed: spec.seed,
            pass_chain: "driver".into(),
            kind: DivKind::Panicked,
            detail: msg,
        }),
    }

    report
}

/// Forces a dependence-rejected pass with [`Legality::Bypass`] and
/// classifies the rejection. A rejection is *justified* when the forced
/// program breaks (invalid, diverging, or panicking); otherwise it was
/// conservative. Either way the legality analysis is sound — the probe's
/// value is the aggregate statistic and the guarantee that `Bypass`
/// really does reach the unsafe behavior the test gates.
fn probe_rejection(
    spec: &ProgSpec,
    built: &Built,
    path: &NestPath,
    pass: PassKind,
    profile: &MissProfile,
    base_fp: u64,
    report: &mut CheckReport,
) {
    let mut prog = built.prog.clone();
    let forced = catch_quiet(|| apply_pass(&mut prog, path, pass, Legality::Bypass, profile));
    match forced {
        // Structurally impossible even when forced — counts as
        // justified (the transform cannot be expressed at all).
        Ok(Err(_)) | Err(_) => report.rejections_justified += 1,
        Ok(Ok(())) => {
            let chain = format!("forced-{pass}@{:?}", path.0);
            match diff_transformed(spec, built, &prog, &chain, base_fp) {
                Some(_) => report.rejections_justified += 1,
                None => report.rejections_conservative += 1,
            }
        }
    }
}

fn compose_once(
    spec: &ProgSpec,
    built: &Built,
    profile: &MissProfile,
    base_fp: u64,
    rng: &mut SmallRng,
    report: &mut CheckReport,
) {
    let mut prog = built.prog.clone();
    let mut chain: Vec<String> = Vec::new();
    let len = rng.gen_range(1..=3usize);
    for _ in 0..len {
        let paths = loop_paths(&prog);
        if paths.is_empty() {
            break;
        }
        // A few attempts to find an applicable (pass, path) persuasion.
        let mut applied = false;
        for _ in 0..8 {
            let path = paths[rng.gen_range(0..paths.len())].clone();
            let all = PassKind::all();
            let pass = all[rng.gen_range(0..all.len())];
            let mut cand = prog.clone();
            let r = catch_quiet(|| apply_pass(&mut cand, &path, pass, Legality::Enforce, profile));
            match r {
                Ok(Ok(())) => {
                    prog = cand;
                    chain.push(format!("{pass}@{:?}", path.0));
                    applied = true;
                    break;
                }
                Ok(Err(_)) => {}
                Err(msg) => {
                    report.divergences.push(Divergence {
                        seed: spec.seed,
                        pass_chain: format!("{}+{pass}@{:?}", chain.join("+"), path.0),
                        kind: DivKind::Panicked,
                        detail: format!("pass panicked under Enforce: {msg}"),
                    });
                    return;
                }
            }
        }
        if !applied {
            break;
        }
        // Check after every link so the failing prefix is minimal.
        let descr = chain.join("+");
        if let Some(d) = diff_transformed(spec, built, &prog, &descr, base_fp) {
            report.divergences.push(d);
            return;
        }
    }
    if !chain.is_empty() {
        report.compositions_ok += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::gen_spec;

    #[test]
    fn pass_roster_covers_bypassable_passes() {
        assert!(PassKind::all().iter().any(|p| p.has_bypass()));
        assert!(PassKind::all().iter().any(|p| !p.has_bypass()));
    }

    #[test]
    fn check_spec_applies_and_rejects_on_a_seed_sweep() {
        let mut singles = 0;
        let mut rejected = 0;
        let mut probed = 0;
        for seed in 0..40 {
            let spec = gen_spec(seed);
            let r = check_spec(&spec);
            assert!(
                r.passed(),
                "seed {seed}: {:#?}",
                r.divergences
                    .iter()
                    .map(|d| (&d.pass_chain, d.kind, &d.detail))
                    .collect::<Vec<_>>()
            );
            singles += r.singles_ok;
            rejected += r.singles_rejected;
            probed += r.rejections_justified + r.rejections_conservative;
        }
        assert!(singles > 40, "too few successful applications: {singles}");
        assert!(rejected > 40, "too few rejections: {rejected}");
        assert!(probed > 5, "dependence rejections never probed: {probed}");
    }

    #[test]
    fn signature_is_path_free() {
        let d = Divergence {
            seed: 7,
            pass_chain: "uaj(d=2)@[0, 1]+strip(s=4)@[0]".into(),
            kind: DivKind::MemDiff,
            detail: String::new(),
        };
        assert_eq!(d.signature(), "MemDiff|uaj+strip");
    }
}
