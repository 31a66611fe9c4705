//! `EXPLAIN`-style rendering of programs: a compact indented operator tree
//! per statement, walked over the program's nodes, independent of SQL
//! dialect. Useful for inspecting what a
//! translation produced (`examples/`, debugging) without reading full SQL.

use crate::opt::OptReport;
use crate::plan::{JoinKind, Pred, PushSpec};
use crate::program::{Node, NodeId, OpCounts, Program, TempId};
use crate::value::sql_text_literal;
use std::fmt::Write as _;

/// Render an optimizer report as a before/after operator-count table plus
/// the pass-level counters — what `explain`-style output prepends so a
/// reader sees at a glance what the optimizer bought (§5.2's Table 5
/// quantities).
pub fn explain_opt_report(report: &OptReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "optimizer: {:?}", report.level);
    let row = |label: &str, c: &OpCounts| {
        format!(
            "  {label:<9} lfp={} joins={} unions={} other={} | ALL={} ALL+fixpoint-iter-ops={}",
            c.lfp,
            c.joins,
            c.unions,
            c.other,
            c.total(),
            c.total_with_fixpoint_ops(),
        )
    };
    let _ = writeln!(out, "{}", row("before:", &report.before));
    let _ = writeln!(out, "{}", row("after:", &report.after));
    let s = &report.stats;
    let _ = writeln!(
        out,
        "  passes:   stmts-eliminated={} plans-hash-consed={} preds-pushed={} \
         preds-simplified={} projections-narrowed={} lfps-merged={} rounds={}",
        s.stmts_eliminated,
        s.plans_hash_consed,
        s.preds_pushed,
        s.preds_simplified,
        s.projections_narrowed,
        s.lfps_merged,
        s.rounds,
    );
    out
}

/// Render a whole program as indented operator trees, one per statement;
/// a read of an earlier statement shows as `Temp T<i>`.
pub fn explain_program(prog: &Program) -> String {
    let mut out = String::new();
    for (t, stmt) in prog.stmts().iter().enumerate() {
        let _ = writeln!(out, "T{t} := {}", stmt.comment);
        let lo = prog.first_node(TempId(t as u32));
        explain_into(prog, lo, stmt.root, 1, &mut out);
    }
    if let Some(result) = prog.result() {
        let _ = writeln!(out, "result: T{}", result.0);
    }
    out
}

fn explain_into(prog: &Program, lo: NodeId, id: NodeId, level: usize, out: &mut String) {
    let pad = "  ".repeat(level);
    if id < lo {
        if let Some(t) = prog.stmt_at(id) {
            let _ = writeln!(out, "{pad}Temp T{}", t.0);
            return;
        }
    }
    let child = |c: NodeId, level: usize, out: &mut String| explain_into(prog, lo, c, level, out);
    match prog.node(id) {
        Node::Scan(name) => {
            let _ = writeln!(out, "{pad}Scan {name}");
        }
        Node::Values(rel) => {
            let _ = writeln!(out, "{pad}Values ({} rows)", rel.len());
        }
        Node::Select { input, pred } => {
            let _ = writeln!(out, "{pad}Select {}", pred_text(pred));
            child(*input, level + 1, out);
        }
        Node::Project { input, cols } => {
            let cols_text: Vec<String> = cols.iter().map(|(i, n)| format!("c{i}→{n}")).collect();
            let _ = writeln!(out, "{pad}Project [{}]", cols_text.join(", "));
            child(*input, level + 1, out);
        }
        Node::Join {
            left,
            right,
            on,
            kind,
        } => {
            let kind_text = match kind {
                JoinKind::Inner => "Join",
                JoinKind::Semi => "SemiJoin",
                JoinKind::Anti => "AntiJoin",
            };
            let _ = writeln!(out, "{pad}{kind_text} on l.c{}=r.c{}", on.0, on.1);
            child(*left, level + 1, out);
            child(*right, level + 1, out);
        }
        Node::Union { inputs, distinct } => {
            let _ = writeln!(
                out,
                "{pad}Union{} ({} inputs)",
                if *distinct { " distinct" } else { "" },
                inputs.len()
            );
            for &p in inputs {
                child(p, level + 1, out);
            }
        }
        Node::Distinct(input) => {
            let _ = writeln!(out, "{pad}Distinct");
            child(*input, level + 1, out);
        }
        Node::Lfp(spec) => {
            let push_text = match &spec.push {
                None => "",
                Some(PushSpec::Forward { .. }) => " [pushed: forward seeds]",
                Some(PushSpec::Backward { .. }) => " [pushed: backward targets]",
            };
            let _ = writeln!(
                out,
                "{pad}Φ LFP closure (c{}→c{}){push_text}",
                spec.from_col, spec.to_col
            );
            child(spec.input, level + 1, out);
            match &spec.push {
                Some(PushSpec::Forward { seeds, .. }) => {
                    let _ = writeln!(out, "{pad}  seeds:");
                    child(*seeds, level + 2, out);
                }
                Some(PushSpec::Backward { targets, .. }) => {
                    let _ = writeln!(out, "{pad}  targets:");
                    child(*targets, level + 2, out);
                }
                None => {}
            }
        }
        Node::MultiLfp(spec) => {
            let _ = writeln!(
                out,
                "{pad}φ multi-relation fixpoint ({} init parts, {} edge rules)",
                spec.init.len(),
                spec.edges.len()
            );
            for (tag, p) in &spec.init {
                let _ = writeln!(out, "{pad}  init[{tag}]:");
                child(*p, level + 2, out);
            }
            for e in &spec.edges {
                let _ = writeln!(out, "{pad}  rule {} → {}:", e.src_tag, e.dst_tag);
                child(e.rel, level + 2, out);
            }
        }
        Node::IntervalJoin(spec) => {
            let _ = writeln!(
                out,
                "{pad}IntervalJoin pre/post range (c{} ⊐ {}) [no fixpoint]",
                spec.left_col, spec.right
            );
            child(spec.left, level + 1, out);
        }
    }
}

fn pred_text(pred: &Pred) -> String {
    match pred {
        Pred::ColEqValue(c, v) => format!("c{c} = {}", v.to_sql_literal()),
        Pred::ColEqText(c, text) => format!("c{c} = {}", sql_text_literal(text)),
        Pred::And(a, b) => format!("({} ∧ {})", pred_text(a), pred_text(b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{LfpSpec, MultiLfpEdge, MultiLfpSpec, Plan};
    use crate::value::Value;

    /// `plan` explained as the last statement of `prog`.
    fn explain(mut prog: Program, plan: Plan) -> String {
        let t = prog.push(plan, "plan");
        prog.set_result(t);
        explain_program(&prog)
    }

    #[test]
    fn explains_nested_plan() {
        let mut prog = Program::new();
        let seeds = prog.push(Plan::Scan("R_c".into()).project(vec![(1, "T")]), "seeds");
        let plan = Plan::Scan("R_a".into())
            .select(Pred::ColEqValue(0, Value::Doc))
            .join_on(
                Plan::Lfp(LfpSpec {
                    input: Box::new(Plan::Scan("R_b".into())),
                    from_col: 0,
                    to_col: 1,
                    push: Some(PushSpec::Forward {
                        seeds: Box::new(Plan::Temp(seeds)),
                        col: 0,
                    }),
                }),
                1,
                0,
            );
        let text = explain(prog, plan);
        assert!(text.contains("\n  Join on l.c1=r.c0"));
        assert!(text.contains("Select c0 = '_'"));
        assert!(text.contains("Φ LFP closure (c0→c1) [pushed: forward seeds]"));
        // indentation reflects nesting; the seeds are read as a temporary
        assert!(text.contains("\n    Select"));
        assert!(text.contains("seeds:\n        Temp T0\n"), "{text}");
    }

    #[test]
    fn explains_multilfp() {
        let plan = Plan::MultiLfp(MultiLfpSpec {
            init: vec![("c".into(), Plan::Scan("R_c".into()))],
            edges: vec![MultiLfpEdge {
                src_tag: "c".into(),
                dst_tag: "s".into(),
                rel: Plan::Scan("R_s".into()),
            }],
        });
        let text = explain(Program::new(), plan);
        assert!(text.contains("φ multi-relation fixpoint (1 init parts, 1 edge rules)"));
        assert!(text.contains("rule c → s:"));
        assert!(text.contains("init[c]:"));
    }

    #[test]
    fn explains_program_with_result() {
        let mut prog = Program::new();
        let t = prog.push(Plan::Scan("R_x".into()), "base");
        prog.set_result(t);
        let text = explain_program(&prog);
        assert!(text.contains("T0 := base"));
        assert!(text.contains("result: T0"));
    }

    #[test]
    fn opt_report_renders_before_after_counts() {
        let mut prog = Program::new();
        let t = prog.push(
            Plan::Scan("E".into())
                .select(Pred::ColEqValue(0, Value::Doc))
                .project(vec![(0, "F"), (1, "T")])
                .project(vec![(0, "F")]),
            "messy",
        );
        prog.set_result(t);
        let (_, report) = crate::opt::optimize(&prog, crate::opt::OptLevel::Full);
        let text = explain_opt_report(&report);
        assert!(text.contains("optimizer: Full"));
        assert!(text.contains("before:"));
        assert!(text.contains("after:"));
        assert!(text.contains("ALL="));
        assert!(text.contains("preds-pushed="));
    }

    #[test]
    fn pred_rendering() {
        let p = Pred::And(
            Box::new(Pred::ColEqValue(0, Value::Doc)),
            Box::new(Pred::ColEqText(2, "cs66".into())),
        );
        assert_eq!(pred_text(&p), "(c0 = '_' ∧ c2 = 'cs66')");
    }
}
