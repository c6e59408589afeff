//! The per-nest composition space: which transform combinations are
//! worth scoring, phrased as constraint propagation over the legality
//! checks (node consistency first, pair exclusions at enumeration).
//!
//! Each innermost nest gets five decision variables:
//!
//! * `interchange` — swap the enclosing 2-nest (Section 3.4);
//! * `strip` — strip-mine the *outer* loop and interchange the
//!   strip-walking loop inward (the Figure 2(c) combination);
//! * `uaj` — unroll-and-jam degree on the parent (Section 3.2);
//! * `unroll` — inner unrolling degree (Section 3.3);
//! * `sched` — miss-packing schedule of the final inner body.
//!
//! Rather than enumerating the full cross product and letting most of
//! it die in `apply`, the domains are first pruned by cheap unary
//! legality probes on a scratch clone (a degree that cannot jam is
//! deleted from `uaj`'s domain, a nest with no parent loses
//! `interchange`, …), then the reduced product is enumerated under the
//! binary exclusions below. Composed legality is still re-checked by
//! [`apply_composition`] — propagation only shrinks the space, it never
//! admits an illegal program (candidates are additionally oracle-checked
//! against the interpreter before scoring).

use mempar_ir::Program;
use mempar_transform::{
    deepest_inner, inner_unroll, interchange, interchange_postlude, scalar_replace,
    schedule_for_misses, strip_mine, unroll_and_jam, NestPath, TransformError,
};

/// One point in a nest's composition space.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Composition {
    /// Interchange the enclosing 2-nest before anything else.
    pub interchange: bool,
    /// Strip-mine the parent by this width and interchange the strip
    /// loop inward (`0` = off). Mutually exclusive with `interchange`
    /// and `uaj`.
    pub strip: u32,
    /// Unroll-and-jam degree on the (possibly interchanged) parent
    /// (`1` = off).
    pub uaj: u32,
    /// Inner unrolling degree (`1` = off). Mutually exclusive with
    /// `uaj` — the paper applies inner unrolling where jamming is
    /// impossible or unnecessary.
    pub unroll: u32,
    /// Scalar-replace the final inner body (the driver's default
    /// cleanup after jamming).
    pub scalar_replace: bool,
    /// Miss-packing schedule of the final inner body.
    pub sched: bool,
}

impl Composition {
    /// The do-nothing composition.
    pub fn identity() -> Self {
        Composition {
            interchange: false,
            strip: 0,
            uaj: 1,
            unroll: 1,
            scalar_replace: false,
            sched: false,
        }
    }

    /// True when no transform is applied.
    pub fn is_identity(&self) -> bool {
        *self == Self::identity()
    }

    /// Compact stable label, e.g. `ix+uaj4+sr` or `id`.
    pub fn label(&self) -> String {
        if self.is_identity() {
            return "id".to_string();
        }
        let mut parts = Vec::new();
        if self.interchange {
            parts.push("ix".to_string());
        }
        if self.strip > 0 {
            parts.push(format!("strip{}", self.strip));
        }
        if self.uaj > 1 {
            parts.push(format!("uaj{}", self.uaj));
        }
        if self.unroll > 1 {
            parts.push(format!("unroll{}", self.unroll));
        }
        if self.scalar_replace {
            parts.push("sr".to_string());
        }
        if self.sched {
            parts.push("sched".to_string());
        }
        parts.join("+")
    }
}

/// Domain sizes before and after propagation, for the search report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpaceStats {
    /// Product of the full (unpropagated) domains.
    pub full: u64,
    /// Compositions enumerated after propagation + exclusions.
    pub enumerated: u64,
}

/// The propagated domains for one nest.
#[derive(Debug, Clone)]
pub struct NestSpace {
    /// Path to the innermost loop the space is anchored at.
    pub path: NestPath,
    /// `interchange` domain (`[false]` or `[false, true]`).
    pub interchange: Vec<bool>,
    /// `strip` domain (`0` plus surviving widths).
    pub strip: Vec<u32>,
    /// `uaj` domain (`1` plus surviving degrees).
    pub uaj: Vec<u32>,
    /// `unroll` domain (`1` plus surviving degrees).
    pub unroll: Vec<u32>,
    /// `sched` domain.
    pub sched: Vec<bool>,
    /// Domain statistics.
    pub stats: SpaceStats,
}

/// Knob menus the space is built from.
#[derive(Debug, Clone)]
pub struct SpaceOptions {
    /// Candidate unroll-and-jam degrees (besides 1).
    pub uaj_degrees: Vec<u32>,
    /// Candidate inner-unroll degrees (besides 1).
    pub unroll_degrees: Vec<u32>,
    /// Candidate strip widths (besides 0 = off).
    pub strips: Vec<u32>,
    /// Cache line size handed to the scheduler probe.
    pub line_bytes: usize,
}

impl Default for SpaceOptions {
    fn default() -> Self {
        SpaceOptions {
            uaj_degrees: vec![2, 4, 8, 16],
            unroll_degrees: vec![2, 4],
            strips: vec![4, 16],
            line_bytes: 64,
        }
    }
}

/// Builds and propagates the composition space for the innermost loop
/// at `path` in `prog`. Probes run on scratch clones; `prog` is never
/// mutated.
pub fn build_space(prog: &Program, path: &NestPath, opts: &SpaceOptions) -> NestSpace {
    let full = 2
        * (1 + opts.strips.len() as u64)
        * (1 + opts.uaj_degrees.len() as u64)
        * (1 + opts.unroll_degrees.len() as u64)
        * 2
        * 2;

    let parent = path.parent();

    // interchange: node-consistent iff the enclosing 2-nest swaps.
    let mut ix_dom = vec![false];
    if let Some(p) = &parent {
        let mut probe = prog.clone();
        if interchange(&mut probe, p).is_ok() {
            ix_dom.push(true);
        }
    }

    // strip: survives iff strip-mining the parent and interchanging the
    // strip-walking loop inward both succeed.
    let mut strip_dom = vec![0u32];
    if let Some(p) = &parent {
        for &s in &opts.strips {
            let mut probe = prog.clone();
            let ok = strip_mine(&mut probe, p, s)
                .and_then(|outer| interchange(&mut probe, &outer.child(0)))
                .is_ok();
            if ok {
                strip_dom.push(s);
            }
        }
    }

    // uaj: each degree probed individually (divisibility of distributed
    // trip counts and jam legality are both degree-dependent).
    let mut uaj_dom = vec![1u32];
    if let Some(p) = &parent {
        for &d in &opts.uaj_degrees {
            let mut probe = prog.clone();
            if unroll_and_jam(&mut probe, p, d).is_ok() {
                uaj_dom.push(d);
            }
        }
    }

    // unroll: structural legality (step-1, no sync) is degree-independent
    // — one probe decides the whole menu.
    let mut unroll_dom = vec![1u32];
    if let Some(&probe_d) = opts.unroll_degrees.first() {
        let mut probe = prog.clone();
        if inner_unroll(&mut probe, path, probe_d).is_ok() {
            unroll_dom.push(probe_d);
            unroll_dom.extend(opts.unroll_degrees.iter().skip(1).copied());
        }
    }

    // sched: only meaningful for straight-line bodies of 2+ statements
    // (schedule_for_misses returns Ok(false) otherwise — pointless to
    // enumerate).
    let mut sched_dom = vec![false];
    {
        let mut probe = prog.clone();
        if schedule_for_misses(&mut probe, path, opts.line_bytes) == Ok(true) {
            sched_dom.push(true);
        }
    }

    let mut space = NestSpace {
        path: path.clone(),
        interchange: ix_dom,
        strip: strip_dom,
        uaj: uaj_dom,
        unroll: unroll_dom,
        sched: sched_dom,
        stats: SpaceStats {
            full,
            enumerated: 0,
        },
    };
    space.stats.enumerated = space.enumerate().len() as u64;
    space
}

impl NestSpace {
    /// Enumerates the reduced product under the binary exclusions:
    /// `strip` excludes `interchange` and `uaj` (the strip combination
    /// already interchanges), and `uaj` excludes `unroll` (the paper
    /// applies one or the other). Deterministic order; the identity
    /// composition is always first.
    pub fn enumerate(&self) -> Vec<Composition> {
        let mut out = Vec::new();
        for &ix in &self.interchange {
            for &strip in &self.strip {
                if strip > 0 && ix {
                    continue;
                }
                for &uaj in &self.uaj {
                    if strip > 0 && uaj > 1 {
                        continue;
                    }
                    for &unroll in &self.unroll {
                        if uaj > 1 && unroll > 1 {
                            continue;
                        }
                        for sr in [false, true] {
                            for &sched in &self.sched {
                                out.push(Composition {
                                    interchange: ix,
                                    strip,
                                    uaj,
                                    unroll,
                                    scalar_replace: sr,
                                    sched,
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// Applies `c` to the nest at `path`, returning the path of the final
/// innermost loop (where scalar replacement and scheduling landed).
/// Composed legality is re-checked by each constituent transform — a
/// combination whose pieces probed legal in isolation can still fail
/// here, and that is the correct outcome (the candidate is dropped).
pub fn apply_composition(
    prog: &mut Program,
    path: &NestPath,
    c: &Composition,
    line_bytes: usize,
) -> Result<NestPath, TransformError> {
    let mut inner = path.clone();

    if c.interchange {
        let parent = inner.parent().ok_or(TransformError::NotALoop)?;
        interchange(prog, &parent)?;
        // Loops swap in place; the innermost position is unchanged.
    }

    if c.strip > 1 {
        let parent = inner.parent().ok_or(TransformError::NotALoop)?;
        let outer = strip_mine(prog, &parent, c.strip)?;
        // The strip-walking copy of the parent sits directly under the
        // new strips loop; interchanging it inward leaves the original
        // innermost body under it.
        interchange(prog, &outer.child(0))?;
        inner = deepest_inner(prog, &outer).ok_or(TransformError::NotALoop)?;
    }

    if c.uaj > 1 {
        let parent = inner.parent().ok_or(TransformError::NotALoop)?;
        let r = unroll_and_jam(prog, &parent, c.uaj)?;
        if let Some(post) = &r.postlude {
            // Same cleanup as the driver: interchange the postlude when
            // possible so it clusters too (Section 2.2).
            interchange_postlude(prog, post);
        }
        inner = deepest_inner(prog, &r.main).ok_or(TransformError::NotALoop)?;
    }

    if c.unroll > 1 {
        let r = inner_unroll(prog, &inner, c.unroll)?;
        inner = r.main;
    }

    if c.scalar_replace {
        let (_, p) = scalar_replace(prog, &inner)?;
        inner = p;
    }

    if c.sched {
        schedule_for_misses(prog, &inner, line_bytes)?;
    }

    Ok(inner)
}
