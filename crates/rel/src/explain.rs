//! `EXPLAIN`-style rendering of plans and programs: a compact indented
//! operator tree, independent of SQL dialect. Useful for inspecting what a
//! translation produced (`examples/`, debugging) without reading full SQL.

use crate::opt::OptReport;
use crate::plan::{JoinKind, Plan, Pred, PushSpec};
use crate::program::{OpCounts, Program};
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

/// Render a whole program as indented operator trees.
pub fn explain_program(prog: &Program) -> String {
    let mut out = String::new();
    for stmt in &prog.stmts {
        let _ = writeln!(out, "T{} := {}", stmt.target.0, stmt.comment);
        explain_into(&stmt.plan, 1, &mut out);
    }
    if let Some(result) = prog.result {
        let _ = writeln!(out, "result: T{}", result.0);
    }
    out
}

/// Render one plan as an indented operator tree.
pub fn explain_plan(plan: &Plan) -> String {
    let mut out = String::new();
    explain_into(plan, 0, &mut out);
    out
}

fn explain_into(plan: &Plan, level: usize, out: &mut String) {
    let pad = "  ".repeat(level);
    match plan {
        Plan::Scan(name) => {
            let _ = writeln!(out, "{pad}Scan {name}");
        }
        Plan::Temp(t) => {
            let _ = writeln!(out, "{pad}Temp T{}", t.0);
        }
        Plan::Values(rel) => {
            let _ = writeln!(out, "{pad}Values ({} rows)", rel.len());
        }
        Plan::Select { input, pred } => {
            let _ = writeln!(out, "{pad}Select {}", pred_text(pred));
            explain_into(input, level + 1, out);
        }
        Plan::Project { input, cols } => {
            let cols_text: Vec<String> = cols.iter().map(|(i, n)| format!("c{i}→{n}")).collect();
            let _ = writeln!(out, "{pad}Project [{}]", cols_text.join(", "));
            explain_into(input, level + 1, out);
        }
        Plan::Join {
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
            explain_into(left, level + 1, out);
            explain_into(right, level + 1, out);
        }
        Plan::Union { inputs, distinct } => {
            let _ = writeln!(
                out,
                "{pad}Union{} ({} inputs)",
                if *distinct { " distinct" } else { "" },
                inputs.len()
            );
            for p in inputs {
                explain_into(p, level + 1, out);
            }
        }
        Plan::Distinct(input) => {
            let _ = writeln!(out, "{pad}Distinct");
            explain_into(input, level + 1, out);
        }
        Plan::Lfp(spec) => {
            let push_text = match &spec.push {
                None => String::new(),
                Some(PushSpec::Forward { .. }) => " [pushed: forward seeds]".into(),
                Some(PushSpec::Backward { .. }) => " [pushed: backward targets]".into(),
            };
            let _ = writeln!(
                out,
                "{pad}Φ LFP closure (c{}→c{}){push_text}",
                spec.from_col, spec.to_col
            );
            explain_into(&spec.input, level + 1, out);
            match &spec.push {
                Some(PushSpec::Forward { seeds, .. }) => {
                    let _ = writeln!(out, "{pad}  seeds:");
                    explain_into(seeds, level + 2, out);
                }
                Some(PushSpec::Backward { targets, .. }) => {
                    let _ = writeln!(out, "{pad}  targets:");
                    explain_into(targets, level + 2, out);
                }
                None => {}
            }
        }
        Plan::MultiLfp(spec) => {
            let _ = writeln!(
                out,
                "{pad}φ multi-relation fixpoint ({} init parts, {} edge rules)",
                spec.init.len(),
                spec.edges.len()
            );
            for (tag, p) in &spec.init {
                let _ = writeln!(out, "{pad}  init[{tag}]:");
                explain_into(p, level + 2, out);
            }
            for e in &spec.edges {
                let _ = writeln!(out, "{pad}  rule {} → {}:", e.src_tag, e.dst_tag);
                explain_into(&e.rel, level + 2, out);
            }
        }
        Plan::IntervalJoin(spec) => {
            let _ = writeln!(
                out,
                "{pad}IntervalJoin pre/post range (c{} ⊐ {}) [no fixpoint]",
                spec.left_col, spec.right
            );
            explain_into(&spec.left, level + 1, out);
        }
    }
}

fn pred_text(pred: &Pred) -> String {
    match pred {
        Pred::ColEqValue(c, v) => format!("c{c} = {}", v.to_sql_literal()),
        Pred::And(a, b) => format!("({} ∧ {})", pred_text(a), pred_text(b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{LfpSpec, MultiLfpEdge, MultiLfpSpec};
    use crate::program::Program;
    use crate::value::Value;

    #[test]
    fn explains_nested_plan() {
        let plan = Plan::Scan("R_a".into())
            .select(Pred::ColEqValue(0, Value::Doc))
            .join_on(
                Plan::Lfp(LfpSpec {
                    input: Box::new(Plan::Scan("R_b".into())),
                    from_col: 0,
                    to_col: 1,
                    push: Some(PushSpec::Forward {
                        seeds: Box::new(Plan::Temp(crate::TempId(3))),
                        col: 0,
                    }),
                }),
                1,
                0,
            );
        let text = explain_plan(&plan);
        assert!(text.contains("Join on l.c1=r.c0"));
        assert!(text.contains("Select c0 = '_'"));
        assert!(text.contains("Φ LFP closure (c0→c1) [pushed: forward seeds]"));
        assert!(text.contains("seeds:"));
        // indentation reflects nesting
        assert!(text.contains("\n  Select") || text.starts_with("Join"));
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
        let text = explain_plan(&plan);
        assert!(text.contains("φ multi-relation fixpoint (1 init parts, 1 edge rules)"));
        assert!(text.contains("rule c → s:"));
        assert!(text.contains("init[c]:"));
    }

    #[test]
    fn explains_program_with_result() {
        let mut prog = Program::new();
        let t = prog.push(Plan::Scan("R_x".into()), "base");
        prog.result = Some(t);
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
        prog.result = Some(t);
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
            Box::new(Pred::ColEqValue(2, Value::str("cs66"))),
        );
        assert_eq!(pred_text(&p), "(c0 = '_' ∧ c2 = 'cs66')");
    }
}
