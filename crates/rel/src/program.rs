//! Statement programs: the "(sequence of) equivalent sql queries Q′" the
//! translation produces — a list `R_e ← e2s(e)` of temporary-table
//! assignments with one designated result (paper §5.1).
//!
//! A [`Program`] is one node arena: a `Vec` of [`Node`]s in topological
//! order (every child precedes its parent) and the statements over it, each
//! the root node of one `R_e ← e2s(e)` plus its comment. Statement `T_i`
//! owns the nodes after `T_{i-1}`'s root up to and including its own root,
//! and a node reads outside its statement only through an earlier
//! statement's root — the temporary the SQL text names `T_j`. A
//! [`Plan`] is only the syntax programs are written in:
//! [`Program::push`] lowers it into nodes once. The executor, the analyzer,
//! the SQL renderer, `explain` and the optimizer all read the nodes.
//!
//! Evaluation is **lazy top–down** (§5.2): only statements the result
//! transitively depends on are materialized, and
//! [`Stats::stmts_skipped`] counts the rest.

use crate::exec::{Database, ExecError, ExecOptions};
use crate::plan::{
    IntervalJoinSpec, JoinKind, LfpSpec, MultiLfpEdge, MultiLfpSpec, Plan, Pred, PushSpec,
};
use crate::relation::Relation;
use crate::stats::Stats;

/// Identifier of a temporary relation within one [`Program`]: the index of
/// the statement that fills it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TempId(pub u32);

/// Index of a node in a program's arena.
pub type NodeId = u32;

/// One operator of a program; children are arena ids. The same operator set
/// as [`Plan`], with the specs instantiated at [`NodeId`] and no `Temp`:
/// a statement's result is read through its root node.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Node {
    /// Scan of a base relation.
    Scan(String),
    /// Inline constant relation.
    Values(Relation),
    /// `σ_pred(input)`.
    Select {
        /// Input node.
        input: NodeId,
        /// Filter predicate.
        pred: Pred,
    },
    /// `π_cols(input)` with column renaming.
    Project {
        /// Input node.
        input: NodeId,
        /// (source column, output name) pairs.
        cols: Vec<(usize, String)>,
    },
    /// Hash equijoin on one column pair.
    Join {
        /// Left input.
        left: NodeId,
        /// Right input.
        right: NodeId,
        /// The equality condition `(left col, right col)`.
        on: (usize, usize),
        /// Inner / semi / anti.
        kind: JoinKind,
    },
    /// Bag union of equal-arity inputs; `distinct` applies set semantics.
    Union {
        /// Inputs.
        inputs: Vec<NodeId>,
        /// Deduplicate the result.
        distinct: bool,
    },
    /// Duplicate elimination.
    Distinct(NodeId),
    /// Simple LFP `Φ(R)`.
    Lfp(LfpSpec<NodeId>),
    /// Multi-relation fixpoint `φ(R, R₁…R_k)` (SQLGen-R only).
    MultiLfp(MultiLfpSpec<NodeId>),
    /// Pre/post interval range join (instance fast path for `rec(A, B)`).
    IntervalJoin(IntervalJoinSpec<NodeId>),
}

impl Node {
    /// Call `f` on every child in structural order (push seeds and
    /// fixpoint init/edge inputs included).
    pub(crate) fn for_each_child(&self, mut f: impl FnMut(NodeId)) {
        match self {
            Node::Scan(_) | Node::Values(_) => {}
            Node::Select { input, .. } | Node::Project { input, .. } | Node::Distinct(input) => {
                f(*input)
            }
            Node::Join { left, right, .. } => {
                f(*left);
                f(*right);
            }
            Node::Union { inputs, .. } => inputs.iter().for_each(|&i| f(i)),
            Node::Lfp(spec) => {
                f(spec.input);
                if let Some(push) = &spec.push {
                    f(*push.input().0);
                }
            }
            Node::MultiLfp(spec) => {
                spec.init.iter().for_each(|(_, n)| f(*n));
                spec.edges.iter().for_each(|e| f(e.rel));
            }
            Node::IntervalJoin(spec) => f(spec.left),
        }
    }

    /// Call `f` on every child id, mutably, in the order of
    /// [`Node::for_each_child`].
    pub(crate) fn children_mut(&mut self, mut f: impl FnMut(&mut NodeId)) {
        match self {
            Node::Scan(_) | Node::Values(_) => {}
            Node::Select { input, .. } | Node::Project { input, .. } | Node::Distinct(input) => {
                f(input)
            }
            Node::Join { left, right, .. } => {
                f(left);
                f(right);
            }
            Node::Union { inputs, .. } => inputs.iter_mut().for_each(f),
            Node::Lfp(spec) => {
                f(&mut spec.input);
                if let Some(
                    PushSpec::Forward { seeds: c, .. } | PushSpec::Backward { targets: c, .. },
                ) = &mut spec.push
                {
                    f(c);
                }
            }
            Node::MultiLfp(spec) => {
                spec.init.iter_mut().for_each(|(_, n)| f(n));
                spec.edges.iter_mut().for_each(|e| f(&mut e.rel));
            }
            Node::IntervalJoin(spec) => f(&mut spec.left),
        }
    }

    /// Leaves never become statements of their own.
    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Scan(_) | Node::Values(_))
    }

    /// Fixpoints always become statements (the natural §5.1 boundary).
    pub fn is_fixpoint(&self) -> bool {
        matches!(self, Node::Lfp(_) | Node::MultiLfp(_))
    }
}

/// One statement `T_i ← root`.
#[derive(Clone, Debug)]
pub struct Stmt {
    /// The node whose result the statement's temporary holds.
    pub root: NodeId,
    /// Human-readable provenance (e.g. the extended XPath sub-expression).
    pub comment: String,
}

/// A node arena in topological order, the statements over it, and the
/// result temporary (see the [module docs](self)).
#[derive(Clone, Debug, Default)]
pub struct Program {
    nodes: Vec<Node>,
    stmts: Vec<Stmt>,
    result: Option<TempId>,
}

/// Static operator counts over a program (the quantities of Table 5).
///
/// Every node of a program belongs to exactly one statement, so the counts
/// cover *everything* a statement holds: LFP edge inputs, `PushSpec`
/// seed/target inputs, and the init parts and edge rules of multi-relation
/// fixpoints — operators "hidden" inside a fixpoint's body count toward
/// `joins`/`unions`/`other` like any visible operator. A read of another
/// statement's temporary counts nothing.
///
/// What a static count *cannot* see are the per-iteration joins and
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
    /// Selections, projections and `Distinct`s.
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

    /// Lower `plan` into nodes and append it as a statement; returns its
    /// temporary. A bare [`Plan::Temp`] adds nothing and returns the
    /// temporary it names.
    ///
    /// # Panics
    ///
    /// If `plan` reads a temporary this program has not defined.
    pub fn push(&mut self, plan: Plan, comment: impl Into<String>) -> TempId {
        if let Plan::Temp(t) = plan {
            let _defined = self.stmt(t);
            return t;
        }
        self.lower(plan);
        self.push_stmt(comment.into())
    }

    /// Append `plan`'s nodes children first; returns its root. A `Temp`
    /// resolves to the root of the statement it names.
    fn lower(&mut self, plan: Plan) -> NodeId {
        let node = match plan {
            Plan::Temp(t) => return self.stmts[t.0 as usize].root,
            Plan::Scan(name) => Node::Scan(name),
            Plan::Values(rel) => Node::Values(rel),
            Plan::Select { input, pred } => Node::Select {
                input: self.lower(*input),
                pred,
            },
            Plan::Project { input, cols } => Node::Project {
                input: self.lower(*input),
                cols,
            },
            Plan::Join {
                left,
                right,
                on,
                kind,
            } => Node::Join {
                left: self.lower(*left),
                right: self.lower(*right),
                on,
                kind,
            },
            Plan::Union { inputs, distinct } => Node::Union {
                inputs: inputs.into_iter().map(|p| self.lower(p)).collect(),
                distinct,
            },
            Plan::Distinct(input) => Node::Distinct(self.lower(*input)),
            Plan::Lfp(spec) => {
                let input = self.lower(*spec.input);
                Node::Lfp(LfpSpec {
                    input,
                    from_col: spec.from_col,
                    to_col: spec.to_col,
                    push: spec.push.map(|p| match p {
                        PushSpec::Forward { seeds, col } => PushSpec::Forward {
                            seeds: self.lower(*seeds),
                            col,
                        },
                        PushSpec::Backward { targets, col } => PushSpec::Backward {
                            targets: self.lower(*targets),
                            col,
                        },
                    }),
                })
            }
            Plan::MultiLfp(spec) => Node::MultiLfp(MultiLfpSpec {
                init: spec
                    .init
                    .into_iter()
                    .map(|(tag, p)| (tag, self.lower(p)))
                    .collect(),
                edges: spec
                    .edges
                    .into_iter()
                    .map(|e| MultiLfpEdge {
                        src_tag: e.src_tag,
                        dst_tag: e.dst_tag,
                        rel: self.lower(e.rel),
                    })
                    .collect(),
            }),
            Plan::IntervalJoin(spec) => Node::IntervalJoin(IntervalJoinSpec {
                left: self.lower(*spec.left),
                left_col: spec.left_col,
                right: spec.right,
            }),
        };
        self.push_node(node)
    }

    /// Append one node whose children are already in the arena; returns its
    /// id. The caller keeps the statement layout (see the module docs).
    pub(crate) fn push_node(&mut self, node: Node) -> NodeId {
        self.nodes.push(node);
        self.nodes.len() as NodeId - 1
    }

    /// Append a statement rooted at the last node pushed.
    pub(crate) fn push_stmt(&mut self, comment: String) -> TempId {
        self.stmts.push(Stmt {
            root: self.nodes.len() as NodeId - 1,
            comment,
        });
        TempId(self.stmts.len() as u32 - 1)
    }

    /// Designate the result temporary.
    ///
    /// # Panics
    ///
    /// If `t` is not a statement of this program.
    pub fn set_result(&mut self, t: TempId) {
        let _defined = self.stmt(t);
        self.result = Some(t);
    }

    /// The result temporary, once set.
    pub fn result(&self) -> Option<TempId> {
        self.result
    }

    /// The statements in dependency order.
    pub fn stmts(&self) -> &[Stmt] {
        &self.stmts
    }

    /// Statement `t`.
    pub fn stmt(&self, t: TempId) -> &Stmt {
        &self.stmts[t.0 as usize]
    }

    /// The node arena, children before parents.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Node `id`.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    /// The first node statement `t` owns; its last is its root.
    pub(crate) fn first_node(&self, t: TempId) -> NodeId {
        match t.0 {
            0 => 0,
            i => self.stmts[i as usize - 1].root + 1,
        }
    }

    /// The statement whose root is `id`, if any.
    pub fn stmt_at(&self, id: NodeId) -> Option<TempId> {
        let i = self.stmts.partition_point(|s| s.root < id);
        (self.stmts.get(i)?.root == id).then_some(TempId(i as u32))
    }

    /// Edit node `id` in place, for tools that derive one program from
    /// another (the analyzer's mutation tests). The edit may change
    /// anything but the children, of which it may only drop some.
    ///
    /// # Panics
    ///
    /// If the edited node reads a child the original did not.
    pub fn edit_node(&mut self, id: NodeId, edit: impl FnOnce(&mut Node)) {
        let mut before = Vec::new();
        self.nodes[id as usize].for_each_child(|c| before.push(c));
        edit(&mut self.nodes[id as usize]);
        self.nodes[id as usize].for_each_child(|c| match before.iter().position(|&b| b == c) {
            Some(at) => drop(before.swap_remove(at)),
            None => panic!("the edit of node {id} added child {c}"),
        });
    }

    /// Call `f` with each statement statement `t` reads, once per read.
    pub(crate) fn for_each_read(&self, t: TempId, mut f: impl FnMut(TempId)) {
        let lo = self.first_node(t);
        for node in &self.nodes[lo as usize..=self.stmt(t).root as usize] {
            node.for_each_child(|c| {
                if let Some(read) = (c < lo).then(|| self.stmt_at(c)).flatten() {
                    f(read);
                }
            });
        }
    }

    /// Which statements the result transitively reads, by index.
    pub(crate) fn live_stmts(&self, result: TempId) -> Vec<bool> {
        let mut live = vec![false; self.stmts.len()];
        live[result.0 as usize] = true;
        for s in (0..=result.0).rev() {
            if live[s as usize] {
                self.for_each_read(TempId(s), |read| live[read.0 as usize] = true);
            }
        }
        live
    }

    /// Execute against a database, materializing only the statements the
    /// result needs.
    pub fn execute(
        &self,
        db: &Database,
        opts: ExecOptions,
        stats: &mut Stats,
    ) -> Result<Relation, ExecError> {
        Ok(crate::exec::run(self, db, opts, stats)?.into_owned())
    }

    /// Static operator counts (Table 5's LFP / ALL columns), over every
    /// node — each belongs to exactly one statement. Per-iteration fixpoint
    /// machinery is tallied in the `fixpoint_*` fields.
    pub fn op_counts(&self) -> OpCounts {
        let mut c = OpCounts::default();
        for node in &self.nodes {
            match node {
                Node::Lfp(_) => {
                    c.lfp += 1;
                    c.fixpoint_joins += 1;
                    c.fixpoint_unions += 1;
                }
                Node::MultiLfp(spec) => {
                    c.lfp += 1;
                    c.fixpoint_joins += spec.edges.len();
                    c.fixpoint_unions += spec.edges.len() + spec.init.len().saturating_sub(1);
                }
                Node::Join { .. } | Node::IntervalJoin(_) => c.joins += 1,
                Node::Union { inputs, .. } => c.unions += inputs.len().saturating_sub(1),
                Node::Select { .. } | Node::Project { .. } | Node::Distinct(_) => c.other += 1,
                Node::Scan(_) | Node::Values(_) => {}
            }
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
        prog.set_result(used);
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
        prog.set_result(join);
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
        prog.set_result(t);
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
        prog.set_result(t);
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
        prog.set_result(j);
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
        prog.set_result(t);
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
        prog.set_result(t);
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
        prog.set_result(closed);
        let mut stats = Stats::default();
        let out = prog
            .execute(&db(), ExecOptions::default(), &mut stats)
            .unwrap();
        assert_eq!(out.len(), 3); // (1,2),(2,3),(1,3)
    }
}
