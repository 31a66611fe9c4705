//! SQL text rendering of statement programs.
//!
//! Two dialects mirror Fig. 4 of the paper:
//!
//! * [`SqlDialect::Sql99`] — recursive common table expressions (the
//!   portable form; also what SQL Server's common tables accept);
//! * [`SqlDialect::Oracle`] — `START WITH … CONNECT BY PRIOR` (Fig. 4(a)).
//!
//! Rendering walks each statement's nodes: a node of an earlier statement
//! is read as that statement's temporary. It is purely syntactic; semantic
//! correctness of the underlying programs is established by executing them
//! on the engine and comparing with the native XPath oracle. The rendered
//! text is what a user would hand to a real RDBMS.

use crate::plan::{JoinKind, LfpSpec, MultiLfpSpec, Pred, PushSpec};
use crate::program::{Node, NodeId, Program, TempId};
use crate::value::sql_text_literal;
use std::fmt::Write as _;

/// Target SQL dialect.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SqlDialect {
    /// SQL'99 recursive CTEs (the portable default).
    #[default]
    Sql99,
    /// Oracle `CONNECT BY`.
    Oracle,
}

/// Render a whole program as a SQL script: one `CREATE TEMPORARY TABLE`
/// statement per temp, ending with a `SELECT` of the result.
///
/// In debug builds, complete programs (ones naming a result) are verified
/// by the static analyzer first — rendering an ill-formed program panics
/// with its diagnostic. Result-less fragments render unchecked (useful for
/// tests and debugging partial programs).
pub fn render_program(prog: &Program, dialect: SqlDialect) -> String {
    #[cfg(debug_assertions)]
    if prog.result().is_some() {
        if let Err(e) = crate::analyze::analyze_program(prog) {
            panic!("refusing to render an ill-formed program: {e}");
        }
    }
    let mut out = String::new();
    for (t, stmt) in prog.stmts().iter().enumerate() {
        let r = Renderer {
            prog,
            lo: prog.first_node(TempId(t as u32)),
            dialect,
        };
        let _ = writeln!(out, "-- T{t}: {}", stmt.comment);
        let _ = writeln!(
            out,
            "CREATE TEMPORARY TABLE T{t} AS\n{};\n",
            r.render(stmt.root, 0)
        );
    }
    if let Some(result) = prog.result() {
        let _ = writeln!(out, "SELECT * FROM T{};", result.0);
    }
    out
}

fn indent(level: usize) -> String {
    "  ".repeat(level)
}

/// Renders one statement's nodes, those from `lo` on; a node before `lo` is
/// an earlier statement's temporary.
struct Renderer<'p> {
    prog: &'p Program,
    lo: NodeId,
    dialect: SqlDialect,
}

impl Renderer<'_> {
    /// Render node `id` as a SQL `SELECT`.
    fn render(&self, id: NodeId, level: usize) -> String {
        let pad = indent(level);
        if id < self.lo {
            if let Some(t) = self.prog.stmt_at(id) {
                return format!("{pad}SELECT * FROM T{}", t.0);
            }
        }
        match self.prog.node(id) {
            Node::Scan(name) => format!("{pad}SELECT * FROM {name}"),
            Node::Values(rel) => {
                let rows: Vec<String> = rel
                    .rows()
                    .map(|t| {
                        let vals: Vec<String> = t.iter().map(|v| v.to_sql_literal()).collect();
                        format!("({})", vals.join(", "))
                    })
                    .collect();
                if rows.is_empty() {
                    format!("{pad}SELECT * FROM (VALUES (NULL)) AS empty WHERE 1 = 0")
                } else {
                    format!("{pad}SELECT * FROM (VALUES {}) AS v", rows.join(", "))
                }
            }
            Node::Select { input, pred } => format!(
                "{pad}SELECT * FROM (\n{}\n{pad}) s WHERE {}",
                self.render(*input, level + 1),
                render_pred(pred, "s")
            ),
            Node::Project { input, cols } => {
                let exprs: Vec<String> =
                    cols.iter().map(|(i, n)| format!("p.c{i} AS {n}")).collect();
                format!(
                    "{pad}SELECT {} FROM (\n{}\n{pad}) p",
                    exprs.join(", "),
                    self.render(*input, level + 1)
                )
            }
            Node::Join {
                left,
                right,
                on,
                kind,
            } => {
                let cond = format!("l.c{} = r.c{}", on.0, on.1);
                let (l, r) = (
                    self.render(*left, level + 1),
                    self.render(*right, level + 1),
                );
                match kind {
                    JoinKind::Inner => format!(
                        "{pad}SELECT l.*, r.* FROM (\n{l}\n{pad}) l JOIN (\n{r}\n{pad}) r ON {cond}"
                    ),
                    JoinKind::Semi => format!(
                        "{pad}SELECT l.* FROM (\n{l}\n{pad}) l WHERE EXISTS (SELECT 1 FROM (\n{r}\n{pad}) r WHERE {cond})"
                    ),
                    JoinKind::Anti => format!(
                        "{pad}SELECT l.* FROM (\n{l}\n{pad}) l WHERE NOT EXISTS (SELECT 1 FROM (\n{r}\n{pad}) r WHERE {cond})"
                    ),
                }
            }
            Node::Union { inputs, distinct } => {
                let op = if *distinct { "UNION" } else { "UNION ALL" };
                let parts: Vec<String> =
                    inputs.iter().map(|&p| self.render(p, level + 1)).collect();
                parts.join(&format!("\n{pad}{op}\n"))
            }
            Node::Distinct(input) => format!(
                "{pad}SELECT DISTINCT * FROM (\n{}\n{pad}) d",
                self.render(*input, level + 1)
            ),
            Node::Lfp(spec) => self.render_lfp(spec, level),
            Node::MultiLfp(spec) => self.render_multilfp(spec, level),
            // Interval fast path: a pure range predicate against the
            // backend's interval-label side table (the XPath-accelerator
            // encoding — the same `Interval_start`/`Interval_end`
            // comparisons the SNIPPETS exemplar generates).
            // `R__intervals(node, pre, post)` holds one row per labeled
            // node; descendant-of is strict containment of the descendant's
            // `pre` in the ancestor's `(pre, post)` window.
            Node::IntervalJoin(spec) => format!(
                "{pad}SELECT DISTINCT a.c{col} AS c0, d.c1 AS c1\
                 \n{pad}FROM (\n{}\n{pad}) a, R__intervals ai, {right} d, R__intervals di\
                 \n{pad}WHERE ai.node = a.c{col} AND di.node = d.c1\
                 \n{pad}  AND di.pre > ai.pre AND di.pre < ai.post",
                self.render(spec.left, level + 1),
                col = spec.left_col,
                right = spec.right,
            ),
        }
    }

    fn render_lfp(&self, spec: &LfpSpec<NodeId>, level: usize) -> String {
        let pad = indent(level);
        let edges = self.render(spec.input, level + 1);
        let (f, t) = (spec.from_col, spec.to_col);
        let push_comment = match &spec.push {
            None => String::new(),
            Some(PushSpec::Forward { col, .. }) => {
                format!("{pad}-- pushed selection: start nodes restricted (seed col {col})\n")
            }
            Some(PushSpec::Backward { col, .. }) => {
                format!("{pad}-- pushed selection: end nodes restricted (target col {col})\n")
            }
        };
        match self.dialect {
            SqlDialect::Oracle => {
                // Fig. 4(a): CONNECT BY PRIOR over the edge set.
                let start = match &spec.push {
                    Some(PushSpec::Forward { seeds, col }) => format!(
                        "{pad}START WITH e.c{f} IN (SELECT s.c{col} FROM (\n{}\n{pad}) s)\n",
                        self.render(*seeds, level + 1)
                    ),
                    _ => format!("{pad}START WITH 1 = 1\n"),
                };
                format!(
                    "{push_comment}{pad}SELECT CONNECT_BY_ROOT e.c{f} AS F, e.c{t} AS T FROM (\n{edges}\n{pad}) e\n{start}{pad}CONNECT BY NOCYCLE PRIOR e.c{t} = e.c{f}"
                )
            }
            SqlDialect::Sql99 => {
                let seed_filter = match &spec.push {
                    Some(PushSpec::Forward { seeds, col }) => format!(
                        " WHERE e.c{f} IN (SELECT s.c{col} FROM (\n{}\n{pad}  ) s)",
                        self.render(*seeds, level + 2)
                    ),
                    _ => String::new(),
                };
                let target_filter = match &spec.push {
                    Some(PushSpec::Backward { targets, col }) => format!(
                        "\n{pad}WHERE closure.T IN (SELECT s.c{col} FROM (\n{}\n{pad}) s)",
                        self.render(*targets, level + 1)
                    ),
                    _ => String::new(),
                };
                format!(
                    "{push_comment}{pad}WITH RECURSIVE closure (F, T) AS (\n\
                     {pad}  SELECT e.c{f}, e.c{t} FROM (\n{edges}\n{pad}  ) e{seed_filter}\n\
                     {pad}  UNION ALL\n\
                     {pad}  SELECT closure.F, e.c{t} FROM closure, (\n{edges}\n{pad}  ) e WHERE closure.T = e.c{f}\n\
                     {pad})\n\
                     {pad}SELECT DISTINCT F, T FROM closure{target_filter}"
                )
            }
        }
    }

    fn render_multilfp(&self, spec: &MultiLfpSpec<NodeId>, level: usize) -> String {
        let pad = indent(level);
        let mut init_parts = Vec::new();
        for (tag, part) in &spec.init {
            let body = self.render(*part, level + 1);
            init_parts.push(format!(
                "{pad}  SELECT i.c0 AS S, i.c1 AS T, '{tag}' AS Rid FROM (\n{body}\n{pad}  ) i"
            ));
        }
        let init = init_parts.join(&format!("\n{pad}  UNION ALL\n"));
        let mut arms = String::new();
        for e in &spec.edges {
            let rel = self.render(e.rel, level + 1);
            let _ = write!(
                arms,
                "\n{pad}  UNION ALL\n{pad}  SELECT r.S, e.c1 AS T, '{}' AS Rid FROM R r, (\n{rel}\n{pad}  ) e WHERE r.Rid = '{}' AND r.T = e.c0",
                e.dst_tag, e.src_tag
            );
        }
        // SQL'99 multi-relation recursion (the Fig. 2 shape). Oracle cannot
        // express this (the paper's point); render it as the portable form
        // with a warning comment.
        let warn = if self.dialect == SqlDialect::Oracle {
            format!("{pad}-- NOTE: Oracle lacks SQL'99 multi-relation recursion (paper §3.1);\n{pad}-- portable WITH RECURSIVE shown instead\n")
        } else {
            String::new()
        };
        format!(
            "{warn}{pad}WITH RECURSIVE R (S, T, Rid) AS (\n{init}{arms}\n{pad})\n{pad}SELECT S, T, Rid FROM R"
        )
    }
}

fn render_pred(pred: &Pred, alias: &str) -> String {
    match pred {
        Pred::ColEqValue(c, v) => format!("{alias}.c{c} = {}", v.to_sql_literal()),
        Pred::ColEqText(c, text) => format!("{alias}.c{c} = {}", sql_text_literal(text)),
        Pred::And(a, b) => format!("({} AND {})", render_pred(a, alias), render_pred(b, alias)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{MultiLfpEdge, Plan};
    use crate::value::Value;

    /// `plan` rendered as the one statement of a result-less program.
    fn render(plan: Plan) -> String {
        let mut prog = Program::new();
        prog.push(plan, "plan");
        render_program(&prog, SqlDialect::Sql99)
    }

    fn closure_program() -> Program {
        let mut prog = Program::new();
        let base = prog.push(Plan::Scan("Rc".into()), "edges");
        let lfp = prog.push(
            Plan::Lfp(LfpSpec {
                input: Box::new(Plan::Temp(base)),
                from_col: 0,
                to_col: 1,
                push: None,
            }),
            "Φ(Rc)",
        );
        prog.set_result(lfp);
        prog
    }

    #[test]
    fn sql99_uses_recursive_cte() {
        let sql = render_program(&closure_program(), SqlDialect::Sql99);
        assert!(sql.contains("WITH RECURSIVE closure"));
        assert!(sql.contains("UNION ALL"));
        assert!(sql.contains("SELECT * FROM T1;"));
        assert!(sql.contains("CREATE TEMPORARY TABLE T0"));
    }

    #[test]
    fn oracle_uses_connect_by() {
        let sql = render_program(&closure_program(), SqlDialect::Oracle);
        assert!(sql.contains("CONNECT BY NOCYCLE PRIOR"));
        assert!(sql.contains("CONNECT_BY_ROOT"));
        assert!(!sql.contains("WITH RECURSIVE closure"));
    }

    #[test]
    fn forward_push_appears_in_seed_filter() {
        let mut prog = Program::new();
        let seeds = prog.push(
            Plan::Scan("Rd".into()).select(Pred::ColEqValue(0, Value::Doc)),
            "seeds",
        );
        let lfp = prog.push(
            Plan::Lfp(LfpSpec {
                input: Box::new(Plan::Scan("Rc".into())),
                from_col: 0,
                to_col: 1,
                push: Some(PushSpec::Forward {
                    seeds: Box::new(Plan::Temp(seeds)),
                    col: 1,
                }),
            }),
            "pushed",
        );
        prog.set_result(lfp);
        let sql = render_program(&prog, SqlDialect::Sql99);
        assert!(sql.contains("pushed selection"));
        assert!(sql.contains("IN (SELECT"));
    }

    #[test]
    fn multilfp_renders_one_arm_per_edge() {
        let mut prog = Program::new();
        let init = prog.push(Plan::Scan("Init".into()), "init");
        let m = prog.push(
            Plan::MultiLfp(MultiLfpSpec {
                init: vec![("c".to_string(), Plan::Temp(init))],
                edges: vec![
                    MultiLfpEdge {
                        src_tag: "c".into(),
                        dst_tag: "c".into(),
                        rel: Plan::Scan("Rc".into()),
                    },
                    MultiLfpEdge {
                        src_tag: "c".into(),
                        dst_tag: "s".into(),
                        rel: Plan::Scan("Rs".into()),
                    },
                ],
            }),
            "φ",
        );
        prog.set_result(m);
        let sql = render_program(&prog, SqlDialect::Sql99);
        assert_eq!(sql.matches("UNION ALL").count(), 2);
        assert!(sql.contains("r.Rid = 'c'"));
        assert!(sql.contains("'s' AS Rid"));
    }

    #[test]
    fn semi_and_anti_render_exists() {
        let semi = Plan::Scan("A".into()).semi_join(Plan::Scan("B".into()), 1, 0);
        let s = render(semi);
        assert!(s.contains("WHERE EXISTS"));
        let anti = Plan::Scan("A".into()).anti_join(Plan::Scan("B".into()), 1, 0);
        let s = render(anti);
        assert!(s.contains("WHERE NOT EXISTS"));
    }

    #[test]
    fn preds_render() {
        let p = Pred::And(
            Box::new(Pred::ColEqText(2, "cs66".into())),
            Box::new(Pred::ColEqValue(0, Value::Doc)),
        );
        let s = render_pred(&p, "x");
        assert_eq!(s, "(x.c2 = 'cs66' AND x.c0 = '_')");
    }

    #[test]
    fn values_render_inline() {
        let mut rel = crate::relation::Relation::new(1);
        rel.push(vec![Value::Id(3)]);
        let s = render(Plan::Values(rel));
        assert!(s.contains("VALUES (3)"));
        let empty = crate::relation::Relation::new(1);
        let s = render(Plan::Values(empty));
        assert!(s.contains("WHERE 1 = 0"));
    }
}
