//! SQL text rendering of statement programs.
//!
//! Two dialects mirror Fig. 4 of the paper:
//!
//! * [`SqlDialect::Sql99`] — recursive common table expressions (the
//!   portable form; also what SQL Server's common tables accept);
//! * [`SqlDialect::Oracle`] — `START WITH … CONNECT BY PRIOR` (Fig. 4(a)).
//!
//! Rendering is purely syntactic; semantic correctness of the underlying
//! plans is established by executing them on the engine and comparing with
//! the native XPath oracle. The rendered text is what a user would hand to a
//! real RDBMS.

use crate::plan::{JoinKind, Plan, Pred, PushSpec};
use crate::program::Program;
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
    if prog.result.is_some() {
        if let Err(e) = crate::analyze::analyze_program(prog) {
            panic!("refusing to render an ill-formed program: {e}");
        }
    }
    let mut out = String::new();
    for stmt in &prog.stmts {
        let _ = writeln!(out, "-- T{}: {}", stmt.target.0, stmt.comment);
        let _ = writeln!(
            out,
            "CREATE TEMPORARY TABLE T{} AS\n{};\n",
            stmt.target.0,
            render_plan(&stmt.plan, dialect, 0)
        );
    }
    if let Some(result) = prog.result {
        let _ = writeln!(out, "SELECT * FROM T{};", result.0);
    }
    out
}

fn indent(level: usize) -> String {
    "  ".repeat(level)
}

/// Render one plan as a SQL `SELECT`.
pub fn render_plan(plan: &Plan, dialect: SqlDialect, level: usize) -> String {
    let pad = indent(level);
    match plan {
        Plan::Scan(name) => format!("{pad}SELECT * FROM {name}"),
        Plan::Temp(t) => format!("{pad}SELECT * FROM T{}", t.0),
        Plan::Values(rel) => {
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
        Plan::Select { input, pred } => format!(
            "{pad}SELECT * FROM (\n{}\n{pad}) s WHERE {}",
            render_plan(input, dialect, level + 1),
            render_pred(pred, "s")
        ),
        Plan::Project { input, cols } => {
            let exprs: Vec<String> = cols.iter().map(|(i, n)| format!("p.c{i} AS {n}")).collect();
            format!(
                "{pad}SELECT {} FROM (\n{}\n{pad}) p",
                exprs.join(", "),
                render_plan(input, dialect, level + 1)
            )
        }
        Plan::Join {
            left,
            right,
            on,
            kind,
        } => {
            let conds: Vec<String> = on.iter().map(|(l, r)| format!("l.c{l} = r.c{r}")).collect();
            let cond = conds.join(" AND ");
            match kind {
                JoinKind::Inner => format!(
                    "{pad}SELECT l.*, r.* FROM (\n{}\n{pad}) l JOIN (\n{}\n{pad}) r ON {cond}",
                    render_plan(left, dialect, level + 1),
                    render_plan(right, dialect, level + 1)
                ),
                JoinKind::Semi => format!(
                    "{pad}SELECT l.* FROM (\n{}\n{pad}) l WHERE EXISTS (SELECT 1 FROM (\n{}\n{pad}) r WHERE {cond})",
                    render_plan(left, dialect, level + 1),
                    render_plan(right, dialect, level + 1)
                ),
                JoinKind::Anti => format!(
                    "{pad}SELECT l.* FROM (\n{}\n{pad}) l WHERE NOT EXISTS (SELECT 1 FROM (\n{}\n{pad}) r WHERE {cond})",
                    render_plan(left, dialect, level + 1),
                    render_plan(right, dialect, level + 1)
                ),
            }
        }
        Plan::Union { inputs, distinct } => {
            let op = if *distinct { "UNION" } else { "UNION ALL" };
            let parts: Vec<String> = inputs
                .iter()
                .map(|p| render_plan(p, dialect, level + 1))
                .collect();
            parts.join(&format!("\n{pad}{op}\n"))
        }
        Plan::Diff { left, right } => format!(
            "{}\n{pad}EXCEPT\n{}",
            render_plan(left, dialect, level + 1),
            render_plan(right, dialect, level + 1)
        ),
        Plan::Intersect { left, right } => format!(
            "{}\n{pad}INTERSECT\n{}",
            render_plan(left, dialect, level + 1),
            render_plan(right, dialect, level + 1)
        ),
        Plan::Distinct(input) => format!(
            "{pad}SELECT DISTINCT * FROM (\n{}\n{pad}) d",
            render_plan(input, dialect, level + 1)
        ),
        Plan::Lfp(spec) => render_lfp(spec, dialect, level),
        Plan::MultiLfp(spec) => render_multilfp(spec, dialect, level),
        // Interval fast path: a pure range predicate against the backend's
        // interval-label side table (the XPath-accelerator encoding — the
        // same `Interval_start`/`Interval_end` comparisons the SNIPPETS
        // exemplar generates). `R__intervals(node, pre, post)` holds one
        // row per labeled node; descendant-of is strict containment of the
        // descendant's `pre` in the ancestor's `(pre, post)` window.
        Plan::IntervalJoin(spec) => {
            let pad = indent(level);
            format!(
                "{pad}SELECT DISTINCT a.c{col} AS c0, d.c1 AS c1\
                 \n{pad}FROM (\n{}\n{pad}) a, R__intervals ai, {right} d, R__intervals di\
                 \n{pad}WHERE ai.node = a.c{col} AND di.node = d.c1\
                 \n{pad}  AND di.pre > ai.pre AND di.pre < ai.post",
                render_plan(&spec.left, dialect, level + 1),
                col = spec.left_col,
                right = spec.right,
            )
        }
    }
}

fn render_lfp(spec: &crate::plan::LfpSpec, dialect: SqlDialect, level: usize) -> String {
    let pad = indent(level);
    let edges = render_plan(&spec.input, dialect, level + 1);
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
    match dialect {
        SqlDialect::Oracle => {
            // Fig. 4(a): CONNECT BY PRIOR over the edge set.
            let start = match &spec.push {
                Some(PushSpec::Forward { seeds, col }) => format!(
                    "{pad}START WITH e.c{f} IN (SELECT s.c{col} FROM (\n{}\n{pad}) s)\n",
                    render_plan(seeds, dialect, level + 1)
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
                    render_plan(seeds, dialect, level + 2)
                ),
                _ => String::new(),
            };
            let target_filter = match &spec.push {
                Some(PushSpec::Backward { targets, col }) => format!(
                    "\n{pad}WHERE closure.T IN (SELECT s.c{col} FROM (\n{}\n{pad}) s)",
                    render_plan(targets, dialect, level + 1)
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

fn render_multilfp(spec: &crate::plan::MultiLfpSpec, dialect: SqlDialect, level: usize) -> String {
    let pad = indent(level);
    let mut init_parts = Vec::new();
    for (tag, plan) in &spec.init {
        let body = render_plan(plan, dialect, level + 1);
        init_parts.push(format!(
            "{pad}  SELECT i.c0 AS S, i.c1 AS T, '{tag}' AS Rid FROM (\n{body}\n{pad}  ) i"
        ));
    }
    let init = init_parts.join(&format!("\n{pad}  UNION ALL\n"));
    let mut arms = String::new();
    for e in &spec.edges {
        let rel = render_plan(&e.rel, dialect, level + 1);
        let _ = write!(
            arms,
            "\n{pad}  UNION ALL\n{pad}  SELECT r.S, e.c1 AS T, '{}' AS Rid FROM R r, (\n{rel}\n{pad}  ) e WHERE r.Rid = '{}' AND r.T = e.c0",
            e.dst_tag, e.src_tag
        );
    }
    // SQL'99 multi-relation recursion (the Fig. 2 shape). Oracle cannot
    // express this (the paper's point); render it as the portable form with
    // a warning comment.
    let warn = if dialect == SqlDialect::Oracle {
        format!("{pad}-- NOTE: Oracle lacks SQL'99 multi-relation recursion (paper §3.1);\n{pad}-- portable WITH RECURSIVE shown instead\n")
    } else {
        String::new()
    };
    format!(
        "{warn}{pad}WITH RECURSIVE R (S, T, Rid) AS (\n{init}{arms}\n{pad})\n{pad}SELECT S, T, Rid FROM R"
    )
}

fn render_pred(pred: &Pred, alias: &str) -> String {
    match pred {
        Pred::True => "1 = 1".to_string(),
        Pred::ColEqValue(c, v) => format!("{alias}.c{c} = {}", v.to_sql_literal()),
        Pred::ColEqCol(a, b) => format!("{alias}.c{a} = {alias}.c{b}"),
        Pred::And(a, b) => format!("({} AND {})", render_pred(a, alias), render_pred(b, alias)),
        Pred::Or(a, b) => format!("({} OR {})", render_pred(a, alias), render_pred(b, alias)),
        Pred::Not(p) => format!("NOT ({})", render_pred(p, alias)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{LfpSpec, MultiLfpEdge, MultiLfpSpec};
    use crate::program::Program;
    use crate::value::Value;

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
        prog.result = Some(lfp);
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
        prog.result = Some(lfp);
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
        prog.result = Some(m);
        let sql = render_program(&prog, SqlDialect::Sql99);
        assert_eq!(sql.matches("UNION ALL").count(), 2);
        assert!(sql.contains("r.Rid = 'c'"));
        assert!(sql.contains("'s' AS Rid"));
    }

    #[test]
    fn semi_and_anti_render_exists() {
        let semi = Plan::Scan("A".into()).semi_join(Plan::Scan("B".into()), 1, 0);
        let s = render_plan(&semi, SqlDialect::Sql99, 0);
        assert!(s.contains("WHERE EXISTS"));
        let anti = Plan::Scan("A".into()).anti_join(Plan::Scan("B".into()), 1, 0);
        let s = render_plan(&anti, SqlDialect::Sql99, 0);
        assert!(s.contains("WHERE NOT EXISTS"));
    }

    #[test]
    fn preds_render() {
        let p = Pred::And(
            Box::new(Pred::ColEqValue(2, Value::str("cs66"))),
            Box::new(Pred::Not(Box::new(Pred::ColEqCol(0, 1)))),
        );
        let s = render_pred(&p, "x");
        assert_eq!(s, "(x.c2 = 'cs66' AND NOT (x.c0 = x.c1))");
    }

    #[test]
    fn values_render_inline() {
        let mut rel = crate::relation::Relation::new(1);
        rel.push(vec![Value::Id(3)]);
        let s = render_plan(&Plan::Values(rel), SqlDialect::Sql99, 0);
        assert!(s.contains("VALUES (3)"));
        let empty = crate::relation::Relation::new(1);
        let s = render_plan(&Plan::Values(empty), SqlDialect::Sql99, 0);
        assert!(s.contains("WHERE 1 = 0"));
    }
}
