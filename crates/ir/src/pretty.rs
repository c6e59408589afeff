//! Pretty-printing of programs as C-like pseudocode (the notation the
//! paper's Figure 2 uses). Useful for debugging transformations and for
//! the examples.

use std::fmt::{self, Write as _};

use crate::expr::{AffineExpr, BinOp, CmpOp, Expr, UnOp};
use crate::program::{ArrayRef, BlockEdge, Bound, DynIndex, Loop, Program, Stmt};

impl Program {
    /// Renders the program as indented pseudocode.
    pub fn to_pseudocode(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "// program {}", self.name);
        for s in &self.body {
            self.fmt_stmt(&mut out, s, 0);
        }
        out
    }

    fn fmt_stmt(&self, out: &mut String, s: &Stmt, depth: usize) {
        let pad = "  ".repeat(depth);
        match s {
            Stmt::AssignArray { lhs, rhs } => {
                let _ = writeln!(out, "{pad}{} = {};", self.fmt_ref(lhs), self.fmt_expr(rhs));
            }
            Stmt::AssignScalar { lhs, rhs } => {
                let _ = writeln!(
                    out,
                    "{pad}{} = {};",
                    self.scalar(*lhs).name,
                    self.fmt_expr(rhs)
                );
            }
            Stmt::Loop(l) => {
                let _ = writeln!(out, "{pad}{} {{", self.fmt_loop_header(l));
                for inner in &l.body {
                    self.fmt_stmt(out, inner, depth + 1);
                }
                let _ = writeln!(out, "{pad}}}");
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let op = match cond.op {
                    CmpOp::Lt => "<",
                    CmpOp::Le => "<=",
                    CmpOp::Gt => ">",
                    CmpOp::Ge => ">=",
                    CmpOp::Eq => "==",
                    CmpOp::Ne => "!=",
                };
                let _ = writeln!(out, "{pad}if ({} {op} 0) {{", self.fmt_affine(&cond.lhs));
                for inner in then_branch {
                    self.fmt_stmt(out, inner, depth + 1);
                }
                if !else_branch.is_empty() {
                    let _ = writeln!(out, "{pad}}} else {{");
                    for inner in else_branch {
                        self.fmt_stmt(out, inner, depth + 1);
                    }
                }
                let _ = writeln!(out, "{pad}}}");
            }
            Stmt::Barrier => {
                let _ = writeln!(out, "{pad}BARRIER();");
            }
            Stmt::FlagSet { idx } => {
                let _ = writeln!(out, "{pad}FLAG_SET({});", self.fmt_affine(idx));
            }
            Stmt::FlagWait { idx } => {
                let _ = writeln!(out, "{pad}FLAG_WAIT({});", self.fmt_affine(idx));
            }
            Stmt::Prefetch { target } => {
                let _ = writeln!(out, "{pad}PREFETCH({});", self.fmt_ref(target));
            }
        }
    }

    fn fmt_loop_header(&self, l: &Loop) -> String {
        let var = self.var_name(l.var);
        let dist = match l.dist {
            Some(crate::program::Dist::Block) => "forall_block ",
            Some(crate::program::Dist::Own) => "forall_own ",
            None => "for ",
        };
        let step = if l.step == 1 {
            format!("{var}++")
        } else if l.step == -1 {
            format!("{var}--")
        } else {
            format!("{var} += {}", l.step)
        };
        format!(
            "{dist}({var} = {}; {var} < {}; {step})",
            self.fmt_bound(&l.lo),
            self.fmt_bound(&l.hi)
        )
    }

    fn fmt_bound(&self, b: &Bound) -> String {
        match b {
            Bound::Const(c) => c.to_string(),
            Bound::Affine(e) => self.fmt_affine(e),
            Bound::Scalar(s) => self.scalar(*s).name.clone(),
            Bound::Block(e) => fmt_edge(e),
        }
    }

    fn fmt_affine(&self, e: &AffineExpr) -> String {
        let mut parts = Vec::new();
        for (v, c) in e.terms() {
            let name = self.var_name(v);
            parts.push(match c {
                1 => name.to_string(),
                -1 => format!("-{name}"),
                _ => format!("{c}*{name}"),
            });
        }
        if e.constant_term() != 0 || parts.is_empty() {
            parts.push(e.constant_term().to_string());
        }
        parts.join(" + ").replace("+ -", "- ")
    }

    fn fmt_ref(&self, r: &ArrayRef) -> String {
        let mut s = self.array(r.array).name.clone();
        let _ = write!(s, "[");
        for (d, ix) in r.indices.iter().enumerate() {
            if d > 0 {
                let _ = write!(s, ",");
            }
            let mut term = String::new();
            if !ix.affine.is_const() || ix.affine.constant_term() != 0 || ix.dynamic.is_none() {
                term.push_str(&self.fmt_affine(&ix.affine));
            }
            if let Some(dy) = &ix.dynamic {
                let dstr = match dy {
                    DynIndex::Scalar { scalar, scale } => {
                        let n = &self.scalar(*scalar).name;
                        if *scale == 1 {
                            n.clone()
                        } else {
                            format!("{scale}*{n}")
                        }
                    }
                    DynIndex::Indirect { inner, scale } => {
                        let n = self.fmt_ref(inner);
                        if *scale == 1 {
                            n
                        } else {
                            format!("{scale}*{n}")
                        }
                    }
                };
                if term == "0" || term.is_empty() {
                    term = dstr;
                } else {
                    term = format!("{term} + {dstr}");
                }
            }
            let _ = write!(s, "{term}");
        }
        let _ = write!(s, "]");
        s
    }

    fn fmt_expr(&self, e: &Expr) -> String {
        match e {
            Expr::ConstF(x) => format!("{x}"),
            Expr::ConstI(x) => format!("{x}"),
            Expr::Load(r) => self.fmt_ref(r),
            Expr::Scalar(s) => self.scalar(*s).name.clone(),
            Expr::LoopVar(v) => self.var_name(*v).to_string(),
            Expr::BlockEdge(e) => fmt_edge(e),
            Expr::Unary(op, a) => match op {
                UnOp::Neg => format!("-({})", self.fmt_expr(a)),
                UnOp::Sqrt => format!("sqrt({})", self.fmt_expr(a)),
                UnOp::Abs => format!("abs({})", self.fmt_expr(a)),
            },
            Expr::Binary(op, a, b) => {
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Min => {
                        return format!("min({}, {})", self.fmt_expr(a), self.fmt_expr(b))
                    }
                    BinOp::Max => {
                        return format!("max({}, {})", self.fmt_expr(a), self.fmt_expr(b))
                    }
                };
                format!("({} {sym} {})", self.fmt_expr(a), self.fmt_expr(b))
            }
        }
    }
}

/// `block_start(lo, trip)` / `block_end(lo, trip)`: the calling
/// processor's block edge of the range `[lo, lo + trip)`.
fn fmt_edge(e: &BlockEdge) -> String {
    let end = if e.upper { "end" } else { "start" };
    format!("block_{end}({}, {})", e.lo, e.trip)
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_pseudocode())
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::ProgramBuilder;

    #[test]
    fn renders_fig2a_style() {
        let mut b = ProgramBuilder::new("fig2a");
        let a = b.array_f64("A", &[8, 8]);
        let j = b.var("j");
        let i = b.var("i");
        let s = b.scalar_f64("sum", 0.0);
        b.for_const(j, 0, 8, |b| {
            b.for_const(i, 0, 8, |b| {
                let v = b.load(a, &[b.idx(j), b.idx(i)]);
                let acc = b.scalar(s);
                let e = b.add(acc, v);
                b.assign_scalar(s, e);
            });
        });
        let text = b.finish().to_pseudocode();
        assert!(text.contains("for (j = 0; j < 8; j++)"), "{text}");
        assert!(text.contains("A[j,i]"), "{text}");
        assert!(text.contains("sum = (sum + A[j,i]);"), "{text}");
    }

    #[test]
    fn renders_offsets_and_strides() {
        let mut b = ProgramBuilder::new("x");
        let a = b.array_f64("A", &[8, 8]);
        let j = b.var("j");
        let i = b.var("i");
        b.for_const(j, 0, 4, |b| {
            b.for_const(i, 0, 4, |b| {
                let r = b.load(
                    a,
                    &[
                        b.idx_e(crate::AffineExpr::var(j).offset(1)),
                        b.idx_e(crate::AffineExpr::scaled_var(i, 2, 0)),
                    ],
                );
                b.assign_array(a, &[b.idx(j), b.idx(i)], r);
            });
        });
        let text = b.finish().to_pseudocode();
        assert!(text.contains("A[j + 1,2*i]"), "{text}");
    }
}
