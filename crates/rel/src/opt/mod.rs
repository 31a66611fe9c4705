//! The logical optimizer: a hash-consed copy of the program's node arena
//! plus a deterministic rewrite-pass pipeline, shared by the native executor
//! and every SQL dialect renderer.
//!
//! # Why (paper §5.2)
//!
//! The translation's whole contribution is that the produced program stays
//! *small* — a bounded number of LFP operators and joins (Table 5). The
//! compiler in `EXpToSQL` emits plans structurally, one rewrite case at a
//! time, so duplicate subplans, dead temporaries, unfused selections and
//! projection chains survive into the program. This module simplifies the
//! *relational program* after translation, the same way fixpoint-aware
//! systems simplify before evaluation:
//!
//! * **Hash-consing / CSE** — [`ir::Dag`] interns the program's nodes in
//!   one pass; structurally identical subplans (including structurally
//!   identical `Φ` closures — the LFP dedup that `multilfp`'s shared-edge
//!   tagging started) collapse into a single node, which becomes one shared
//!   temporary.
//! * **Dead-statement elimination** — the compacted program holds only what
//!   the result transitively reads; statements nothing reaches disappear.
//! * **Predicate simplification & pushdown** —
//!   [`passes::SimplifyPredicates`] merges adjacent selections into one
//!   conjunction and folds `p ∧ p`; [`passes::PushdownPredicates`] moves `σ` through
//!   projections and `Distinct` and into the matching side of joins
//!   (§5.2's "pushing selections", applied at the relational level).
//! * **Projection narrowing** — [`passes::NarrowProjections`] fuses
//!   projection chains, drops redundant `Distinct`s over set-producing
//!   plans, deduplicates and flattens union branches.
//!
//! Every rule is count-safe: on any program, the optimized operator counts
//! ([`crate::OpCounts`]) never exceed the unoptimized ones.
//!
//! # Levels
//!
//! [`OptLevel::None`] bypasses the optimizer entirely — the program is
//! returned byte-identical, which keeps an ablation baseline and the
//! pre-optimizer behaviour reachable. [`OptLevel::Full`] (the default) runs
//! the whole pipeline to a fixpoint, then compacts the arena into a fresh
//! program and analyzes it once.

pub mod ir;
pub mod passes;

pub use crate::program::{Node, NodeId};
pub use ir::{Dag, RewriteCtx};
pub use passes::{default_passes, NarrowProjections, Pass, PushdownPredicates, SimplifyPredicates};

use crate::analyze::{analyze_program_with, Analysis};
use crate::program::{OpCounts, Program};
use std::fmt;

/// How hard the optimizer works on a translated program.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum OptLevel {
    /// Bypass the optimizer: the translated program is used byte-identical
    /// to what `EXpToSQL` emitted (ablation baseline).
    None,
    /// Run the full pass pipeline to a fixpoint (the default).
    #[default]
    Full,
}

/// Pass-level counters accumulated over one [`optimize`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Statements removed (dead-statement elimination + CSE merging +
    /// inlining of single-use temporaries).
    pub stmts_eliminated: usize,
    /// Structurally duplicate subplans that collapsed onto an existing
    /// node when the program was hash-consed (leaves excluded).
    pub plans_hash_consed: usize,
    /// Selections pushed through a projection, a `Distinct`, or into a
    /// join side.
    pub preds_pushed: usize,
    /// Duplicate conjuncts folded and adjacent selections merged.
    pub preds_simplified: usize,
    /// Projection chains fused, redundant `Distinct`s dropped, union
    /// branches deduplicated or flattened.
    pub projections_narrowed: usize,
    /// `Φ`/`φ` occurrences that collapsed onto a structurally identical
    /// fixpoint (hash-consing hits on fixpoint nodes; dead fixpoints the
    /// result never references are *not* counted here — they fall under
    /// [`OptStats::stmts_eliminated`]).
    pub lfps_merged: usize,
    /// Pipeline rounds executed (each round runs every pass once).
    pub rounds: usize,
}

/// What one [`optimize`] run did: level, operator counts before/after, and
/// the pass-level counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OptReport {
    /// The level the program was optimized at.
    pub level: OptLevel,
    /// Operator counts of the program as translated.
    pub before: OpCounts,
    /// Operator counts of the optimized program.
    pub after: OpCounts,
    /// Pass-level counters.
    pub stats: OptStats,
}

impl fmt::Display for OptReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "opt[{:?}] ops {} -> {} (lfp {} -> {}), stmts -{}, cse {}, pushed {}, simplified {}, narrowed {}",
            self.level,
            self.before.total(),
            self.after.total(),
            self.before.lfp,
            self.after.lfp,
            self.stats.stmts_eliminated,
            self.stats.plans_hash_consed,
            self.stats.preds_pushed,
            self.stats.preds_simplified,
            self.stats.projections_narrowed,
        )
    }
}

/// Upper bound on pipeline rounds. Each round is a fixed pass order; the
/// pipeline stops early as soon as a round changes nothing. Real programs
/// converge in 2–4 rounds; the cap only guards against a pathological rule
/// interaction.
const MAX_ROUNDS: usize = 12;

/// Optimize a statement program at `level` with the default pass pipeline.
///
/// `OptLevel::None` returns the program unchanged (a clone). Programs
/// without a result are returned unchanged too — there is nothing sound to
/// optimize against.
pub fn optimize(prog: &Program, level: OptLevel) -> (Program, OptReport) {
    let (out, report, _) = optimize_with(prog, level, &default_passes(), &|_| None);
    (out, report)
}

/// [`optimize`] with an explicit pass list (pipeline experiments, tests),
/// also returning the analysis of the optimized program — the one analyzer
/// run after the pipeline, against the base-relation catalog `scan_arity`
/// (see [`crate::analyze::analyze_program_with`]). It is `None` when the
/// program came back unchanged: at `OptLevel::None`, without a result, or
/// because the optimized program failed that analysis (release builds then
/// fall back to the input rather than abort the query; debug builds panic
/// when the input itself was well-formed).
pub fn optimize_with(
    prog: &Program,
    level: OptLevel,
    passes: &[Box<dyn Pass>],
    scan_arity: &dyn Fn(&str) -> Option<usize>,
) -> (Program, OptReport, Option<Analysis>) {
    let before = prog.op_counts();
    let unchanged = |level| {
        (
            prog.clone(),
            OptReport {
                level,
                before,
                after: before,
                stats: OptStats::default(),
            },
            None,
        )
    };
    if level == OptLevel::None {
        return unchanged(level);
    }
    let Some((mut dag, mut stats)) = Dag::from_program(prog) else {
        return unchanged(level);
    };
    // Debug-build gate, only over programs that were well-formed going in:
    // an ill-formed input is the translator's bug, not a pass's, and is
    // reported by the translation/render gates instead.
    let gated = cfg!(debug_assertions) && dag.check().is_ok();
    for _ in 0..MAX_ROUNDS {
        let mut changed = false;
        for pass in passes {
            let pass_changed = pass.run(&mut dag, &mut stats);
            changed |= pass_changed;
            // re-verify the arena after every pass that changed something,
            // so a schema-breaking rewrite is caught at the pass that
            // introduced it, by name
            if gated && pass_changed {
                if let Err(e) = dag.check() {
                    panic!(
                        "optimizer pass '{}' produced an ill-formed program: {e}",
                        pass.name()
                    );
                }
            }
        }
        stats.rounds += 1;
        if !changed {
            break;
        }
    }
    let out = dag.into_program();
    // Unconditional post-pipeline gate: never hand an ill-formed program
    // downstream.
    let analysis = match analyze_program_with(&out, scan_arity) {
        Ok(analysis) => analysis,
        Err(e) => {
            assert!(!gated, "optimizer pipeline broke the program: {e}");
            return unchanged(level);
        }
    };
    let after = out.op_counts();
    stats.stmts_eliminated = prog.len().saturating_sub(out.len());
    (
        out,
        OptReport {
            level,
            before,
            after,
            stats,
        },
        Some(analysis),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Database, ExecOptions};
    use crate::plan::{LfpSpec, Plan, Pred};
    use crate::relation::Relation;
    use crate::sql::{render_program, SqlDialect};
    use crate::stats::Stats;
    use crate::value::Value;

    fn edge_db() -> Database {
        let mut rel = Relation::new(2);
        for (f, t) in [(1u32, 2u32), (2, 3), (3, 4), (1, 4)] {
            rel.push(vec![Value::Id(f), Value::Id(t)]);
        }
        let mut db = Database::new();
        db.insert("E", rel);
        db
    }

    fn run(prog: &Program) -> Vec<Vec<Value>> {
        let mut stats = Stats::default();
        prog.execute(&edge_db(), ExecOptions::default(), &mut stats)
            .expect("test programs execute")
            .sorted_tuples()
    }

    fn closure_of_temp(edges: crate::TempId) -> Plan {
        Plan::Lfp(LfpSpec {
            input: Box::new(Plan::Temp(edges)),
            from_col: 0,
            to_col: 1,
            push: None,
        })
    }

    #[test]
    fn level_none_is_byte_identical() {
        let mut prog = Program::new();
        let dead = prog.push(Plan::Scan("E".into()).project(vec![(0, "F")]), "dead");
        let _ = dead;
        let t = prog.push(
            Plan::Scan("E".into()).select(Pred::ColEqValue(0, Value::Id(1))),
            "messy",
        );
        prog.set_result(t);
        let (out, report) = optimize(&prog, OptLevel::None);
        assert_eq!(
            render_program(&out, SqlDialect::Sql99),
            render_program(&prog, SqlDialect::Sql99),
            "None must not touch the program"
        );
        assert_eq!(report.before, report.after);
        assert_eq!(report.stats, OptStats::default());
    }

    #[test]
    fn full_pipeline_shrinks_and_preserves_results() {
        let mut prog = Program::new();
        let dead = prog.push(Plan::Scan("E".into()).project(vec![(0, "F")]), "dead temp");
        let _ = dead;
        let messy = Plan::Scan("E".into())
            .project(vec![(0, "F"), (1, "T")])
            .project(vec![(1, "T"), (0, "F")])
            .select(Pred::ColEqValue(1, Value::Id(1)))
            .select(Pred::ColEqValue(1, Value::Id(1)));
        let t = prog.push(messy, "messy chain");
        prog.set_result(t);
        let baseline = run(&prog);
        let (out, report) = optimize(&prog, OptLevel::Full);
        assert_eq!(run(&out), baseline, "optimization must preserve results");
        assert!(report.after.total() < report.before.total());
        assert!(report.stats.stmts_eliminated >= 1, "the dead temp");
        assert!(report.stats.preds_simplified >= 1);
        assert!(report.stats.projections_narrowed >= 1);
    }

    #[test]
    fn structurally_identical_closures_merge() {
        // two statements each build their own Φ over the same edges; the
        // optimizer must keep exactly one LFP operator
        let mut prog = Program::new();
        let e1 = prog.push(
            Plan::Scan("E".into()).project(vec![(0, "F"), (1, "T")]),
            "edges a",
        );
        let e2 = prog.push(
            Plan::Scan("E".into()).project(vec![(0, "F"), (1, "T")]),
            "edges b",
        );
        let c1 = prog.push(closure_of_temp(e1), "Φ a");
        let c2 = prog.push(closure_of_temp(e2), "Φ b");
        let j = prog.push(
            Plan::Temp(c1).join_on(Plan::Temp(c2), 1, 0),
            "join of twins",
        );
        prog.set_result(j);
        let baseline = run(&prog);
        let (out, report) = optimize(&prog, OptLevel::Full);
        assert_eq!(run(&out), baseline);
        assert_eq!(report.before.lfp, 2);
        assert_eq!(report.after.lfp, 1, "identical closures must merge");
        assert_eq!(report.stats.lfps_merged, 1);
        assert!(report.stats.plans_hash_consed >= 1);
    }

    #[test]
    fn optimized_counts_never_exceed_unoptimized() {
        // a grab-bag of shapes, including ones no rule improves
        let shapes: Vec<Plan> = vec![
            Plan::Scan("E".into()),
            Plan::Scan("E".into()).select(Pred::ColEqValue(1, Value::Id(4))),
            Plan::Scan("E".into()).anti_join(
                Plan::Scan("E".into()).select(Pred::ColEqValue(0, Value::Id(1))),
                0,
                0,
            ),
            Plan::Scan("E".into()).semi_join(Plan::Scan("E".into()), 1, 0),
            Plan::Union {
                inputs: vec![Plan::Scan("E".into()), Plan::Scan("E".into())],
                distinct: false,
            },
        ];
        for plan in shapes {
            let mut prog = Program::new();
            let t = prog.push(plan, "shape");
            prog.set_result(t);
            let baseline = run(&prog);
            let (out, report) = optimize(&prog, OptLevel::Full);
            assert_eq!(run(&out), baseline);
            assert!(
                report.after.total() <= report.before.total(),
                "counts grew: {report}"
            );
        }
    }

    #[test]
    fn dead_fixpoints_do_not_count_as_merged() {
        // one dead Φ statement, no duplicates anywhere: stmts_eliminated
        // reports the removal; lfps_merged must stay 0
        let mut prog = Program::new();
        let edges = prog.push(
            Plan::Scan("E".into()).project(vec![(0, "F"), (1, "T")]),
            "edges",
        );
        let _dead = prog.push(closure_of_temp(edges), "dead Φ");
        let live = prog.push(
            Plan::Temp(edges).select(Pred::ColEqValue(0, Value::Id(1))),
            "live",
        );
        prog.set_result(live);
        let (out, report) = optimize(&prog, OptLevel::Full);
        assert_eq!(out.op_counts().lfp, 0, "the dead closure is gone");
        assert_eq!(report.stats.lfps_merged, 0, "nothing merged");
        assert!(report.stats.stmts_eliminated >= 1);
    }

    #[test]
    fn arity_is_memoized_on_self_join_ladders() {
        // J_{i+1} = Temp(J_i) ⋈ Temp(J_i): import resolves the temps so
        // both sides of every join are the *same* DAG node. An unmemoized
        // arity walk would cost O(2^levels) recursive calls the moment the
        // pushdown pass asks for the left arity of the top join; with the
        // memo this optimizes instantly. At 64 levels the arity, 2⁶⁵,
        // passes usize::MAX: it reads as unknown (no panic, no wrapped
        // value), so the σ stays put.
        for levels in [40, 64] {
            let mut prog = Program::new();
            let mut t = prog.push(
                Plan::Scan("E".into()).project(vec![(0, "F"), (1, "T")]),
                "base",
            );
            for i in 0..levels {
                t = prog.push(Plan::Temp(t).join_on(Plan::Temp(t), 1, 0), format!("J{i}"));
            }
            let top = prog.push(
                Plan::Temp(t).select(Pred::ColEqValue(0, Value::Id(1))),
                "σ over the ladder",
            );
            prog.set_result(top);
            let (out, report) = optimize(&prog, OptLevel::Full);
            assert_eq!(
                report.stats.preds_pushed >= 1,
                levels == 40,
                "σ pushed into the top join only while its arity is known"
            );
            assert_eq!(
                out.op_counts().joins,
                prog.op_counts().joins,
                "shared joins must not duplicate ({levels} levels)"
            );
        }
    }

    #[test]
    fn report_displays_compactly() {
        let mut prog = Program::new();
        let t = prog.push(Plan::Scan("E".into()), "scan");
        prog.set_result(t);
        let (_, report) = optimize(&prog, OptLevel::Full);
        let s = report.to_string();
        assert!(s.contains("opt[Full]"));
        assert!(s.contains("ops"));
    }

    #[test]
    fn programs_without_result_are_left_alone() {
        let mut prog = Program::new();
        prog.push(Plan::Scan("E".into()), "no result set");
        let (out, _) = optimize(&prog, OptLevel::Full);
        assert_eq!(out.len(), 1);
        assert!(out.result().is_none());
    }
}
