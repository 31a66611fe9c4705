//! Statement programs: the "(sequence of) equivalent sql queries Q′" the
//! translation produces — a list `R_e ← e2s(e)` of temporary-table
//! assignments with one designated result (paper §5.1).
//!
//! Evaluation is **lazy top–down** (§5.2): only statements the result
//! transitively depends on are materialized, and
//! [`Stats::stmts_skipped`] counts the rest.

use crate::exec::{eval_plan, Database, ExecCtx, ExecError, ExecOptions};
use crate::plan::Plan;
use crate::relation::Relation;
use crate::stats::Stats;
use std::collections::HashMap;

/// Identifier of a temporary relation within one [`Program`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TempId(pub u32);

/// One statement `target ← plan`.
#[derive(Clone, Debug)]
pub struct Stmt {
    /// The temporary this statement fills.
    pub target: TempId,
    /// Its defining plan.
    pub plan: Plan,
    /// Human-readable provenance (e.g. the extended XPath sub-expression).
    pub comment: String,
}

/// A sequence of statements plus the result temporary.
///
/// Statements are ordered so that a statement only references earlier
/// targets (the translation emits them that way).
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// The statements in dependency order.
    pub stmts: Vec<Stmt>,
    /// Which temporary holds the query answer.
    pub result: Option<TempId>,
}

/// Static operator counts over a program (the quantities of Table 5).
///
/// The tree walk behind [`Program::op_counts`] recurses into *everything* a
/// statement references: LFP edge plans, `PushSpec` seed/target plans, and
/// the init parts and edge rules of multi-relation fixpoints — so operators
/// "hidden" inside a fixpoint's body count toward `joins`/`unions`/`other`
/// like any visible operator.
///
/// What a plain tree walk *cannot* see are the per-iteration joins and
/// unions a fixpoint performs inside its recursion box (Fig. 2): a simple
/// `Φ` costs one delta join + one union per iteration, and a `φ(R, R₁…R_k)`
/// costs *k* joins + *k* unions per iteration. Those static per-iteration
/// operator counts are tallied separately in [`OpCounts::fixpoint_joins`] /
/// [`OpCounts::fixpoint_unions`]; [`OpCounts::total`] remains the paper's
/// "ALL" column (fixpoints count once), while
/// [`OpCounts::total_with_fixpoint_ops`] adds the per-iteration machinery.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Number of `Φ`/`φ` fixpoint operators.
    pub lfp: usize,
    /// Number of join operators (inner/semi/anti), excluding per-iteration
    /// joins hidden inside fixpoints (see [`OpCounts::fixpoint_joins`]).
    pub joins: usize,
    /// Number of union operators (an n-way union counts n−1).
    pub unions: usize,
    /// Selections + projections + set operations.
    pub other: usize,
    /// Static joins performed *per iteration* inside fixpoint recursion
    /// boxes: 1 per `Φ`, k per `φ(R, R₁…R_k)` with k edge rules.
    pub fixpoint_joins: usize,
    /// Static unions performed per iteration inside fixpoint recursion
    /// boxes (plus the union glue between a `φ`'s init parts).
    pub fixpoint_unions: usize,
}

impl OpCounts {
    /// Total operators (the "ALL" column of Table 5; fixpoints count once).
    pub fn total(&self) -> usize {
        self.lfp + self.joins + self.unions + self.other
    }

    /// Total including the static per-iteration join/union machinery inside
    /// fixpoint recursion boxes — the honest "ALL" a SQL'99 engine executes
    /// text for.
    pub fn total_with_fixpoint_ops(&self) -> usize {
        self.total() + self.fixpoint_joins + self.fixpoint_unions
    }
}

impl Program {
    /// New empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Append a statement and return its target.
    pub fn push(&mut self, plan: Plan, comment: impl Into<String>) -> TempId {
        let target = TempId(self.stmts.len() as u32);
        self.stmts.push(Stmt {
            target,
            plan,
            comment: comment.into(),
        });
        target
    }

    /// Execute against a database, materializing only the statements the
    /// result needs.
    pub fn execute(
        &self,
        db: &Database,
        opts: ExecOptions,
        stats: &mut Stats,
    ) -> Result<Relation, ExecError> {
        let result = self
            .result
            .ok_or(ExecError::UnknownTemp(TempId(u32::MAX)))?;
        let by_target: HashMap<TempId, &Stmt> = self.stmts.iter().map(|s| (s.target, s)).collect();
        let mut env: HashMap<TempId, Relation> = HashMap::new();
        // `stats` may carry earlier executions: skipped = this program's
        // statements minus what *this* execution evaluated
        let evaluated_before = stats.stmts_evaluated;
        materialize(result, &by_target, db, opts, &mut env, stats)?;
        let evaluated = stats.stmts_evaluated - evaluated_before;
        stats.stmts_skipped += self.stmts.len().saturating_sub(evaluated);
        env.remove(&result).ok_or(ExecError::UnknownTemp(result))
    }

    /// Static operator counts (Table 5's LFP / ALL columns). The walk
    /// covers LFP bodies, `PushSpec` seed plans and multi-fixpoint
    /// init/edge plans; per-iteration fixpoint machinery is tallied in the
    /// `fixpoint_*` fields.
    pub fn op_counts(&self) -> OpCounts {
        let mut c = OpCounts::default();
        for stmt in &self.stmts {
            stmt.plan.visit(&mut |p| match p {
                Plan::Lfp(_) => {
                    c.lfp += 1;
                    c.fixpoint_joins += 1;
                    c.fixpoint_unions += 1;
                }
                Plan::MultiLfp(spec) => {
                    c.lfp += 1;
                    c.fixpoint_joins += spec.edges.len();
                    c.fixpoint_unions += spec.edges.len() + spec.init.len().saturating_sub(1);
                }
                Plan::Join { .. } | Plan::IntervalJoin(_) => c.joins += 1,
                Plan::Union { inputs, .. } => c.unions += inputs.len().saturating_sub(1),
                Plan::Select { .. } | Plan::Project { .. } | Plan::Distinct(_) => c.other += 1,
                Plan::Scan(_) | Plan::Temp(_) | Plan::Values(_) => {}
            });
        }
        c
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// Whether the program has no statements.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }
}

fn materialize(
    id: TempId,
    by_target: &HashMap<TempId, &Stmt>,
    db: &Database,
    opts: ExecOptions,
    env: &mut HashMap<TempId, Relation>,
    stats: &mut Stats,
) -> Result<(), ExecError> {
    if env.contains_key(&id) {
        return Ok(());
    }
    // Statement boundary: poll the cancellation token between statements
    // so a multi-statement program cannot outlive its deadline by more than
    // one statement.
    opts.check_cancel(stats)?;
    let stmt = *by_target.get(&id).ok_or(ExecError::UnknownTemp(id))?;
    for dep in stmt.plan.referenced_temps() {
        materialize(dep, by_target, db, opts, env, stats)?;
    }
    // into_owned inside the scope: a statement that is a bare Scan/Temp
    // clones (it must own its entry), everything else is already owned
    let rel = {
        let mut ctx = ExecCtx {
            db,
            env,
            opts,
            stats,
        };
        eval_plan(&stmt.plan, &mut ctx)?.into_owned()
    };
    stats.stmts_evaluated += 1;
    // ... and after it: what the statement emitted counts against the
    // tuple budget even when no later statement polls it
    opts.check_tuples(stats.tuples_emitted)?;
    env.insert(id, rel);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{LfpSpec, Pred};
    use crate::value::Value;

    fn edge_rel(pairs: &[(u32, u32)]) -> Relation {
        let mut r = Relation::new(2);
        for &(f, t) in pairs {
            r.push(vec![Value::Id(f), Value::Id(t)]);
        }
        r
    }

    fn db() -> Database {
        let mut db = Database::new();
        db.insert("E", edge_rel(&[(1, 2), (2, 3)]));
        db
    }

    #[test]
    fn lazy_skips_unused_statements() {
        let mut prog = Program::new();
        let _unused = prog.push(Plan::Scan("E".into()), "unused");
        let used = prog.push(
            Plan::Scan("E".into()).select(Pred::ColEqValue(0, Value::Id(1))),
            "used",
        );
        prog.result = Some(used);
        let mut stats = Stats::default();
        let out = prog
            .execute(&db(), ExecOptions::default(), &mut stats)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(stats.stmts_evaluated, 1);
        assert_eq!(stats.stmts_skipped, 1);
        // a second execution into the same `Stats` accumulates: the skip
        // count is this execution's delta, not a function of the running
        // `stmts_evaluated` total
        prog.execute(&db(), ExecOptions::default(), &mut stats)
            .unwrap();
        assert_eq!(stats.stmts_evaluated, 2);
        assert_eq!(stats.stmts_skipped, 2);
    }

    #[test]
    fn temp_references_resolve_in_dependency_order() {
        let mut prog = Program::new();
        let base = prog.push(Plan::Scan("E".into()), "base");
        let join = prog.push(
            Plan::Temp(base)
                .join_on(Plan::Temp(base), 1, 0)
                .project(vec![(0, "F"), (3, "T")]),
            "E∘E",
        );
        prog.result = Some(join);
        let mut stats = Stats::default();
        let out = prog
            .execute(&db(), ExecOptions::default(), &mut stats)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0), &[Value::Id(1), Value::Id(3)]);
    }

    /// An expired deadline aborts at the statement boundary with the typed
    /// error (not a hang or a panic).
    #[test]
    fn expired_deadline_aborts_program() {
        let mut prog = Program::new();
        let t = prog.push(Plan::Scan("E".into()), "scan");
        prog.result = Some(t);
        let opts = ExecOptions::default().with_deadline(std::time::Instant::now());
        let mut stats = Stats::default();
        let err = prog.execute(&db(), opts, &mut stats).unwrap_err();
        assert_eq!(err, ExecError::DeadlineExceeded);
    }

    /// The tuple budget binds the last statement too: a program whose whole
    /// output comes from one join, with no later boundary to poll at, aborts
    /// instead of returning past its budget.
    #[test]
    fn tuple_budget_binds_the_final_statement() {
        let mut prog = Program::new();
        let t = prog.push(
            Plan::Scan("E".into()).join_on(Plan::Scan("E".into()), 1, 0),
            "E∘E",
        );
        prog.result = Some(t);
        let run = |budget| {
            let opts = ExecOptions::default().with_tuple_budget(budget);
            prog.execute(&db(), opts, &mut Stats::default())
        };
        let err = run(0).unwrap_err();
        assert!(matches!(err, ExecError::BudgetExceeded(_)), "{err:?}");
        assert_eq!(run(1).unwrap().len(), 1, "one tuple fits a budget of one");
    }

    #[test]
    fn missing_result_errors() {
        let prog = Program::new();
        let mut stats = Stats::default();
        assert!(prog
            .execute(&db(), ExecOptions::default(), &mut stats)
            .is_err());
    }

    #[test]
    fn op_counts_statics() {
        let mut prog = Program::new();
        let base = prog.push(
            Plan::Union {
                inputs: vec![
                    Plan::Scan("E".into()),
                    Plan::Scan("E".into()),
                    Plan::Scan("E".into()),
                ],
                distinct: true,
            },
            "u",
        );
        let closed = prog.push(
            Plan::Lfp(LfpSpec {
                input: Box::new(Plan::Temp(base)),
                from_col: 0,
                to_col: 1,
                push: None,
            }),
            "Φ",
        );
        let j = prog.push(Plan::Temp(closed).join_on(Plan::Temp(base), 1, 0), "join");
        prog.result = Some(j);
        let counts = prog.op_counts();
        assert_eq!(counts.lfp, 1);
        assert_eq!(counts.joins, 1);
        assert_eq!(counts.unions, 2);
        assert_eq!(counts.total(), 4);
    }

    /// Operators hidden inside LFP bodies and `PushSpec` seed plans count
    /// toward the ALL column, and the per-iteration fixpoint machinery is
    /// reported separately (Table 5's honest totals).
    #[test]
    fn op_counts_cover_lfp_bodies_and_seed_plans() {
        use crate::plan::PushSpec;
        let mut prog = Program::new();
        // edges = σ(E) ⋈ E, seeds = π(σ(E)): one join + two selects + one
        // project hidden inside the LFP spec
        let edges = Plan::Scan("E".into())
            .select(Pred::ColEqValue(0, Value::Id(1)))
            .join_on(Plan::Scan("E".into()), 1, 0);
        let seeds = Plan::Scan("E".into())
            .select(Pred::ColEqValue(0, Value::Id(1)))
            .project(vec![(0, "N")]);
        let t = prog.push(
            Plan::Lfp(LfpSpec {
                input: Box::new(edges),
                from_col: 0,
                to_col: 1,
                push: Some(PushSpec::Forward {
                    seeds: Box::new(seeds),
                    col: 0,
                }),
            }),
            "Φ with busy body and seeds",
        );
        prog.result = Some(t);
        let c = prog.op_counts();
        assert_eq!(c.lfp, 1);
        assert_eq!(c.joins, 1, "the join inside the LFP body");
        assert_eq!(c.other, 3, "two selects + one project, body and seeds");
        assert_eq!((c.fixpoint_joins, c.fixpoint_unions), (1, 1));
        assert_eq!(c.total(), 5);
        assert_eq!(c.total_with_fixpoint_ops(), 7);
        // a multi-relation fixpoint pays k joins + k unions per iteration
        let mut prog = Program::new();
        let t = prog.push(
            Plan::MultiLfp(crate::plan::MultiLfpSpec {
                init: vec![
                    ("a".into(), Plan::Scan("I1".into())),
                    ("b".into(), Plan::Scan("I2".into())),
                ],
                edges: vec![
                    crate::plan::MultiLfpEdge {
                        src_tag: "a".into(),
                        dst_tag: "b".into(),
                        rel: Plan::Scan("AB".into()).select(Pred::ColEqValue(2, Value::Null)),
                    },
                    crate::plan::MultiLfpEdge {
                        src_tag: "b".into(),
                        dst_tag: "a".into(),
                        rel: Plan::Scan("BA".into()),
                    },
                ],
            }),
            "φ",
        );
        prog.result = Some(t);
        let c = prog.op_counts();
        assert_eq!(c.lfp, 1);
        assert_eq!(c.other, 1, "the select inside an edge rule");
        assert_eq!(c.fixpoint_joins, 2, "one join per edge rule");
        assert_eq!(c.fixpoint_unions, 3, "two edge unions + one init union");
        assert_eq!(c.total_with_fixpoint_ops(), c.total() + 5);
    }

    #[test]
    fn closure_program_end_to_end() {
        let mut prog = Program::new();
        let closed = prog.push(
            Plan::Lfp(LfpSpec {
                input: Box::new(Plan::Scan("E".into())),
                from_col: 0,
                to_col: 1,
                push: None,
            }),
            "Φ(E)",
        );
        prog.result = Some(closed);
        let mut stats = Stats::default();
        let out = prog
            .execute(&db(), ExecOptions::default(), &mut stats)
            .unwrap();
        assert_eq!(out.len(), 3); // (1,2),(2,3),(1,3)
    }
}
