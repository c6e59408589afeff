//! The memory-parallelism dependence graph and its recurrences
//! (Section 3.1–3.2 of the paper).
//!
//! Nodes are static references; edges are *cache-line dependences* (a miss
//! on A brings in B's data) and *address dependences* (A's value forms B's
//! address). Cycles (recurrences) bound read-miss parallelism: a
//! recurrence with `R` leading references spanning `π` iterations allows
//! at most `α = R/π` overlapped misses per iteration.

use crate::refs::RefCollection;

/// Edge kinds in the memory-parallelism graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// A miss on the source brings in the target's data.
    CacheLine,
    /// The source's loaded value forms the target's address.
    Address,
}

/// A dependence edge with its inner-loop distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Source reference id.
    pub from: usize,
    /// Target reference id.
    pub to: usize,
    /// Minimum inner-loop iterations separating the dependent operations.
    pub distance: u32,
    /// Why the target serializes behind the source.
    pub kind: DepKind,
}

/// A recurrence (cycle) in the graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Recurrence {
    /// Reference ids on the cycle.
    pub nodes: Vec<usize>,
    /// Sum of edge distances around the cycle (`π`).
    pub distance: u32,
    /// Leading references on the cycle (`R`).
    pub leading: usize,
    /// True when any edge is an address dependence.
    pub is_address: bool,
}

impl Recurrence {
    /// The recurrence's parallelism bound `α = R / π` (misses that must
    /// serialize per iteration).
    pub fn alpha(&self) -> f64 {
        if self.distance == 0 {
            // Loop-independent cycle cannot exist in well-formed code;
            // treat as fully serializing.
            self.leading as f64
        } else {
            self.leading as f64 / self.distance as f64
        }
    }
}

/// The dependence graph over a [`RefCollection`].
#[derive(Debug, Clone, Default)]
pub struct DepGraph {
    /// Number of nodes (= refs).
    pub nodes: usize,
    /// All edges.
    pub edges: Vec<DepEdge>,
}

impl DepGraph {
    /// Builds the graph from collected references.
    pub fn build(coll: &RefCollection) -> Self {
        let mut edges = Vec::new();
        // Cache-line dependences.
        for r in &coll.refs {
            if !r.leading {
                continue;
            }
            if r.self_spatial {
                // A self-spatial leading reference depends on itself with
                // distance 1 (the next iteration shares its line).
                edges.push(DepEdge {
                    from: r.id,
                    to: r.id,
                    distance: 1,
                    kind: DepKind::CacheLine,
                });
            }
            // Leading -> non-leading group members (their data arrives with
            // the leader's miss). Distance 0 is conservative and simple —
            // these edges never close a cycle on their own.
            for other in &coll.refs {
                if other.id != r.id && other.group == r.group && !other.leading {
                    edges.push(DepEdge {
                        from: r.id,
                        to: other.id,
                        distance: 0,
                        kind: DepKind::CacheLine,
                    });
                }
            }
        }
        // Address dependences through indirect indices.
        for r in &coll.refs {
            for &src in &r.addr_refs {
                edges.push(DepEdge {
                    from: src,
                    to: r.id,
                    distance: 0,
                    kind: DepKind::Address,
                });
            }
            // Address dependences through scalars: def reaches uses in the
            // same iteration (later statements) at distance 0, or the next
            // iteration (same/earlier statements) at distance 1.
            for &scalar in &r.addr_scalars {
                for def in &coll.scalar_defs {
                    if def.scalar != scalar {
                        continue;
                    }
                    let distance = if r.stmt_idx > def.stmt_idx { 0 } else { 1 };
                    for &src in &def.src_refs {
                        edges.push(DepEdge {
                            from: src,
                            to: r.id,
                            distance,
                            kind: DepKind::Address,
                        });
                    }
                }
            }
        }
        DepGraph {
            nodes: coll.refs.len(),
            edges,
        }
    }

    fn succ(&self, n: usize) -> impl Iterator<Item = &DepEdge> {
        self.edges.iter().filter(move |e| e.from == n)
    }

    /// Enumerates simple cycles (recurrences). Graphs here are tiny
    /// (references of one loop body), so a DFS per start node suffices;
    /// each cycle is reported once (from its smallest node id).
    pub fn recurrences(&self, coll: &RefCollection) -> Vec<Recurrence> {
        let mut cycles = Vec::new();
        for start in 0..self.nodes {
            let mut path = vec![start];
            let mut dist = 0u32;
            self.dfs_cycles(start, start, &mut path, &mut dist, coll, &mut cycles);
        }
        cycles
    }

    fn dfs_cycles(
        &self,
        start: usize,
        at: usize,
        path: &mut Vec<usize>,
        dist: &mut u32,
        coll: &RefCollection,
        out: &mut Vec<Recurrence>,
    ) {
        if out.len() >= 64 || path.len() > 16 {
            return; // safety bound; real bodies are far smaller
        }
        let succs: Vec<DepEdge> = self.succ(at).copied().collect();
        for e in succs {
            if e.to == start {
                let distance = *dist + e.distance;
                let leading = path.iter().filter(|&&n| coll.refs[n].leading).count();
                let is_address = path
                    .windows(2)
                    .map(|w| (w[0], w[1]))
                    .chain(std::iter::once((at, start)))
                    .any(|(a, b)| {
                        self.edges
                            .iter()
                            .any(|x| x.from == a && x.to == b && x.kind == DepKind::Address)
                    });
                out.push(Recurrence {
                    nodes: path.clone(),
                    distance,
                    leading,
                    is_address,
                });
            } else if e.to > start && !path.contains(&e.to) {
                path.push(e.to);
                *dist += e.distance;
                self.dfs_cycles(start, e.to, path, dist, coll, out);
                *dist -= e.distance;
                path.pop();
            }
        }
    }
}

/// Summary of the recurrences that matter for read-miss parallelism.
#[derive(Debug, Clone, PartialEq)]
pub struct RecurrenceSummary {
    /// All recurrences containing at least one leading reference.
    pub recurrences: Vec<Recurrence>,
    /// Max `α` over miss recurrences (0 when there are none).
    pub alpha: f64,
    /// True when any miss recurrence involves an address dependence
    /// (pointer chasing / indirection), which dynamic unrolling cannot
    /// break (Section 3.2.2).
    pub has_address_recurrence: bool,
}

/// Computes the recurrence summary for a collection.
pub fn summarize_recurrences(coll: &RefCollection) -> RecurrenceSummary {
    let g = DepGraph::build(coll);
    let recurrences: Vec<Recurrence> = g
        .recurrences(coll)
        .into_iter()
        .filter(|r| r.leading > 0)
        .collect();
    let alpha = recurrences
        .iter()
        .map(Recurrence::alpha)
        .fold(0.0, f64::max);
    let has_address_recurrence = recurrences.iter().any(|r| r.is_address);
    RecurrenceSummary {
        recurrences,
        alpha,
        has_address_recurrence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refs::{collect_refs, MissProfile};
    use mempar_ir::{AffineExpr, ArrayRef, Index, ProgramBuilder, Stmt, VarId};

    fn inner_body(p: &mempar_ir::Program) -> (&Vec<Stmt>, VarId) {
        fn descend(body: &[Stmt]) -> Option<(&Vec<Stmt>, VarId)> {
            for s in body {
                if let Stmt::Loop(l) = s {
                    if let Some(found) = descend(&l.body) {
                        return Some(found);
                    }
                    return Some((&l.body, l.var));
                }
            }
            None
        }
        descend(&p.body).expect("program has a loop")
    }

    #[test]
    fn row_traversal_has_unit_cache_line_recurrence() {
        let mut b = ProgramBuilder::new("row");
        let a = b.array_f64("a", &[64, 64]);
        let s = b.scalar_f64("s", 0.0);
        let j = b.var("j");
        let i = b.var("i");
        b.for_const(j, 0, 64, |b| {
            b.for_const(i, 0, 64, |b| {
                let v = b.load(a, &[b.idx(j), b.idx(i)]);
                let acc = b.scalar(s);
                let e = b.add(acc, v);
                b.assign_scalar(s, e);
            });
        });
        let p = b.finish();
        let (body, iv) = inner_body(&p);
        let coll = collect_refs(&p, body, iv, 64, &MissProfile::pessimistic());
        let sum = summarize_recurrences(&coll);
        assert_eq!(sum.recurrences.len(), 1);
        assert!(!sum.has_address_recurrence);
        // R = 1 leading ref, pi = 1: alpha = 1 (the motivating example,
        // Section 3.2.2's "alpha = 1" matrix traversal).
        assert!((sum.alpha - 1.0).abs() < 1e-12);
    }

    #[test]
    fn column_traversal_has_no_recurrence() {
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
        let p = b.finish();
        let (body, iv) = inner_body(&p);
        let coll = collect_refs(&p, body, iv, 64, &MissProfile::pessimistic());
        let sum = summarize_recurrences(&coll);
        assert!(sum.recurrences.is_empty());
        assert_eq!(sum.alpha, 0.0);
    }

    #[test]
    fn pointer_chase_is_address_recurrence() {
        // p = next[p] — the lat_mem_rd pattern.
        let mut b = ProgramBuilder::new("chase");
        let next = b.array_i64("next", &[64]);
        let ps = b.scalar_i64("p", 0);
        let i = b.var("i");
        b.for_const(i, 0, 64, |b| {
            let v = b.load_ref(ArrayRef::new(next, vec![Index::scalar(ps)]));
            b.assign_scalar(ps, v);
        });
        let p = b.finish();
        let (body, iv) = inner_body(&p);
        let coll = collect_refs(&p, body, iv, 64, &MissProfile::pessimistic());
        let sum = summarize_recurrences(&coll);
        assert_eq!(sum.recurrences.len(), 1);
        assert!(sum.has_address_recurrence);
        assert!((sum.alpha - 1.0).abs() < 1e-12);
        assert_eq!(sum.recurrences[0].distance, 1);
    }

    #[test]
    fn sparse_indirection_is_not_a_recurrence() {
        // sum[j] += b[ind]; ind = a[j,i] — address dep but acyclic
        // (the paper's sparse-matrix example: a has a cache-line
        // self-recurrence; b[ind] hangs off it without closing a cycle).
        let mut b = ProgramBuilder::new("sparse");
        let a = b.array_i64("a", &[64, 64]);
        let data = b.array_f64("data", &[4096]);
        let s = b.scalar_f64("s", 0.0);
        let j = b.var("j");
        let i = b.var("i");
        b.for_const(j, 0, 64, |b| {
            b.for_const(i, 0, 64, |b| {
                let inner = ArrayRef::new(
                    a,
                    vec![
                        Index::affine(AffineExpr::var(j)),
                        Index::affine(AffineExpr::var(i)),
                    ],
                );
                let v = b.load_ref(ArrayRef::new(data, vec![Index::indirect(inner)]));
                let acc = b.scalar(s);
                let e = b.add(acc, v);
                b.assign_scalar(s, e);
            });
        });
        let p = b.finish();
        let (body, iv) = inner_body(&p);
        let coll = collect_refs(&p, body, iv, 64, &MissProfile::pessimistic());
        let g = DepGraph::build(&coll);
        assert!(
            g.edges.iter().any(|e| e.kind == DepKind::Address),
            "indirection produces an address edge"
        );
        let sum = summarize_recurrences(&coll);
        // Only the cache-line self-recurrence on a[j,i].
        assert_eq!(sum.recurrences.len(), 1);
        assert!(sum.alpha > 0.0);
        assert!(!sum.has_address_recurrence);
        // The gather is an irregular leading reference.
        assert!(coll.leading().any(|r| r.irregular));
    }

    #[test]
    fn alpha_counts_leading_over_distance() {
        let r = Recurrence {
            nodes: vec![0, 1],
            distance: 2,
            leading: 1,
            is_address: false,
        };
        assert!((r.alpha() - 0.5).abs() < 1e-12);
        let r2 = Recurrence {
            nodes: vec![0],
            distance: 0,
            leading: 2,
            is_address: true,
        };
        assert_eq!(r2.alpha(), 2.0);
    }
}
