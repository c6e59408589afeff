//! Locating and navigating loop nests inside a [`Program`].

use mempar_ir::{Loop, Program, Stmt, VarId};

/// A path to a loop: successive statement indices, each stepping into the
/// body of the loop at that index (intermediate elements must all be
/// [`Stmt::Loop`] statements).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct NestPath(pub Vec<usize>);

impl NestPath {
    /// Path to a top-level statement.
    pub fn top(idx: usize) -> Self {
        NestPath(vec![idx])
    }

    /// The path one level in (child statement `idx` of this loop's body).
    pub fn child(&self, idx: usize) -> Self {
        let mut v = self.0.clone();
        v.push(idx);
        NestPath(v)
    }

    /// The enclosing loop's path (`None` at top level).
    pub fn parent(&self) -> Option<NestPath> {
        if self.0.len() <= 1 {
            None
        } else {
            Some(NestPath(self.0[..self.0.len() - 1].to_vec()))
        }
    }

    /// Nesting depth (1 = top-level loop).
    pub fn depth(&self) -> usize {
        self.0.len()
    }
}

/// Immutable access to the loop at `path`.
///
/// Returns `None` when the path does not lead to a loop.
pub fn loop_at<'p>(prog: &'p Program, path: &NestPath) -> Option<&'p Loop> {
    let mut body: &[Stmt] = &prog.body;
    let mut found: Option<&Loop> = None;
    for &idx in &path.0 {
        match body.get(idx) {
            Some(Stmt::Loop(l)) => {
                found = Some(l);
                body = &l.body;
            }
            _ => return None,
        }
    }
    found
}

/// Mutable access to the loop at `path`.
pub fn loop_at_mut<'p>(prog: &'p mut Program, path: &NestPath) -> Option<&'p mut Loop> {
    let mut body: &mut Vec<Stmt> = &mut prog.body;
    let (last, init) = path.0.split_last()?;
    for &idx in init {
        match body.get_mut(idx) {
            Some(Stmt::Loop(l)) => body = &mut l.body,
            _ => return None,
        }
    }
    match body.get_mut(*last) {
        Some(Stmt::Loop(l)) => Some(l),
        _ => None,
    }
}

/// Mutable access to the statement list *containing* the loop at `path`,
/// plus the loop's index in it.
pub fn container_mut<'p>(
    prog: &'p mut Program,
    path: &NestPath,
) -> Option<(&'p mut Vec<Stmt>, usize)> {
    let (last, init) = path.0.split_last()?;
    let mut body: &mut Vec<Stmt> = &mut prog.body;
    for &idx in init {
        match body.get_mut(idx) {
            Some(Stmt::Loop(l)) => body = &mut l.body,
            _ => return None,
        }
    }
    if matches!(body.get(*last), Some(Stmt::Loop(_))) {
        Some((body, *last))
    } else {
        None
    }
}

/// Paths to every *innermost* loop (loops whose bodies contain no loops),
/// in program order. Guards are descended but do not extend paths (a loop
/// inside an `if` is not addressable by a `NestPath`, so it is skipped —
/// the transformations never target guard-nested loops).
pub fn innermost_loops(prog: &Program) -> Vec<NestPath> {
    let mut out = Vec::new();
    fn walk(body: &[Stmt], prefix: &NestPath, out: &mut Vec<NestPath>) {
        for (idx, s) in body.iter().enumerate() {
            if let Stmt::Loop(l) = s {
                let here = prefix.child(idx);
                let had = out.len();
                walk(&l.body, &here, out);
                if out.len() == had && !contains_loop(&l.body) {
                    out.push(here);
                }
            }
        }
    }
    let root = NestPath(Vec::new());
    walk(&prog.body, &root, &mut out);
    out
}

/// The deepest first innermost loop under `start` (after a jam, the fused
/// loop is the one with the largest body; prefer it).
pub fn deepest_inner(prog: &Program, start: &NestPath) -> Option<NestPath> {
    let mut all = innermost_loops(prog);
    all.retain(|p| p.0.starts_with(&start.0));
    if all.is_empty() {
        // `start` itself is innermost.
        return loop_at(prog, start).map(|_| start.clone());
    }
    // Prefer the innermost loop with the largest body (the fused jam).
    all.into_iter()
        .max_by_key(|p| loop_at(prog, p).map(|l| l.body.len()).unwrap_or(0))
}

/// True when `body` contains a loop anywhere (including inside guards).
pub fn contains_loop(body: &[Stmt]) -> bool {
    body.iter().any(|s| match s {
        Stmt::Loop(_) => true,
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => contains_loop(then_branch) || contains_loop(else_branch),
        _ => false,
    })
}

/// True when `body` contains synchronization statements anywhere.
pub fn contains_sync(body: &[Stmt]) -> bool {
    body.iter().any(|s| match s {
        Stmt::Barrier | Stmt::FlagSet { .. } | Stmt::FlagWait { .. } => true,
        Stmt::Loop(l) => contains_sync(&l.body),
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => contains_sync(then_branch) || contains_sync(else_branch),
        _ => false,
    })
}

/// The loop variables of the loops along `path`, outermost first.
pub fn enclosing_vars(prog: &Program, path: &NestPath) -> Vec<VarId> {
    let mut vars = Vec::new();
    let mut body: &[Stmt] = &prog.body;
    for &idx in &path.0 {
        if let Some(Stmt::Loop(l)) = body.get(idx) {
            vars.push(l.var);
            body = &l.body;
        } else {
            break;
        }
    }
    vars
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempar_ir::ProgramBuilder;

    fn two_nests() -> Program {
        let mut b = ProgramBuilder::new("two");
        let a = b.array_f64("a", &[8, 8]);
        let j = b.var("j");
        let i = b.var("i");
        let k = b.var("k");
        b.for_const(j, 0, 8, |b| {
            b.for_const(i, 0, 8, |b| {
                let one = b.constf(1.0);
                b.assign_array(a, &[b.idx(j), b.idx(i)], one);
            });
        });
        b.for_const(k, 0, 8, |b| {
            let one = b.constf(2.0);
            b.assign_array(a, &[b.idx(k), b.idx(k)], one);
        });
        b.finish()
    }

    #[test]
    fn finds_innermost_loops() {
        let p = two_nests();
        let paths = innermost_loops(&p);
        assert_eq!(paths, vec![NestPath(vec![0, 0]), NestPath(vec![1])]);
    }

    #[test]
    fn loop_lookup_and_vars() {
        let p = two_nests();
        let path = NestPath(vec![0, 0]);
        let l = loop_at(&p, &path).expect("inner loop");
        assert_eq!(p.var_name(l.var), "i");
        let vars = enclosing_vars(&p, &path);
        assert_eq!(vars.len(), 2);
        assert_eq!(p.var_name(vars[0]), "j");
        assert_eq!(loop_at(&p, &NestPath(vec![5])), None);
        assert_eq!(loop_at(&p, &NestPath(vec![0, 0, 0])), None);
    }

    #[test]
    fn parent_paths() {
        let path = NestPath(vec![2, 1, 0]);
        assert_eq!(path.parent(), Some(NestPath(vec![2, 1])));
        assert_eq!(NestPath::top(3).parent(), None);
        assert_eq!(path.depth(), 3);
    }

    #[test]
    fn container_access() {
        let mut p = two_nests();
        let (body, idx) = container_mut(&mut p, &NestPath(vec![0, 0])).expect("container");
        assert_eq!(idx, 0);
        assert_eq!(body.len(), 1);
    }

    #[test]
    fn sync_detection() {
        let mut b = ProgramBuilder::new("s");
        let j = b.var("j");
        b.for_const(j, 0, 4, |b| b.barrier());
        let p = b.finish();
        let mempar_ir::Stmt::Loop(l) = &p.body[0] else {
            panic!()
        };
        assert!(contains_sync(&l.body));
        assert!(!contains_loop(&l.body));
    }
}
