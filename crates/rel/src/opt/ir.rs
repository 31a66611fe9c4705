//! Arena-based program IR with hash-consed plan nodes.
//!
//! [`ProgramIr::import`] interns every statement of a [`Program`] bottom-up
//! into one DAG: `Temp` references are resolved to the node of the defining
//! statement, and structurally identical subplans collapse into a single
//! arena node (hash-consing). Rewrite passes ([`crate::opt::Pass`]) produce
//! new interned nodes; [`ProgramIr::export`] walks the DAG from the result
//! and emits a fresh dependency-ordered [`Program`].
//!
//! The export policy is where common-subexpression elimination and
//! dead-statement elimination fall out for free: a statement is created
//! only for (a) the result, (b) fixpoint operators (the natural statement
//! boundary of the paper's `R_e ← e2s(e)` programs, §5.1), and (c) nodes
//! the DAG *shares* — everything else inlines into its single consumer, and
//! anything the result does not reach is simply never visited.

use crate::plan::{
    IntervalJoinSpec, JoinKind, LfpSpec, MultiLfpEdge, MultiLfpSpec, Plan, Pred, PushSpec,
};
use crate::program::{Program, TempId};
use crate::relation::Relation;
use std::collections::HashMap;

/// Index of a node in the arena.
pub type NodeId = u32;

/// One hash-consed plan operator; children are arena ids. Mirrors
/// [`Plan`], with `Temp` references already resolved away.
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
    /// `π_cols(input)`.
    Project {
        /// Input node.
        input: NodeId,
        /// (source column, output name) pairs.
        cols: Vec<(usize, String)>,
    },
    /// Hash join.
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
    /// Union of equal-arity inputs.
    Union {
        /// Inputs.
        inputs: Vec<NodeId>,
        /// Set semantics.
        distinct: bool,
    },
    /// Duplicate elimination.
    Distinct(NodeId),
    /// Simple LFP `Φ(R)`.
    Lfp {
        /// Edge relation node.
        input: NodeId,
        /// Column holding edge sources.
        from_col: usize,
        /// Column holding edge targets.
        to_col: usize,
        /// Optional pushed selection (§5.2).
        push: Option<Push>,
    },
    /// Multi-relation fixpoint `φ(R, R₁…R_k)`.
    MultiLfp {
        /// Tagged initialization parts.
        init: Vec<(String, NodeId)>,
        /// Edge rules.
        edges: Vec<Edge>,
    },
    /// Pre/post interval descendant join (the instance fast path that
    /// replaces an `LFP(descendant)` closure on labeled stores).
    IntervalJoin {
        /// Probe side: node producing the ancestor candidates.
        left: NodeId,
        /// Column of `left` holding the ancestor node ids.
        left_col: usize,
        /// Base relation whose sorted interval view supplies descendants.
        right: String,
    },
}

/// Pushed selection of an LFP node (mirrors [`PushSpec`]).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Push {
    /// Seed-restricted closure.
    Forward {
        /// Node producing the seed relation.
        seeds: NodeId,
        /// Seed column.
        col: usize,
    },
    /// Target-restricted closure.
    Backward {
        /// Node producing the target relation.
        targets: NodeId,
        /// Target column.
        col: usize,
    },
}

/// One edge rule of a multi-relation fixpoint.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Source tag.
    pub src_tag: String,
    /// Destination tag.
    pub dst_tag: String,
    /// Edge relation node.
    pub rel: NodeId,
}

impl Node {
    /// Children in structural order (including push seeds and fixpoint
    /// init/edge plans).
    pub fn children(&self) -> Vec<NodeId> {
        match self {
            Node::Scan(_) | Node::Values(_) => Vec::new(),
            Node::Select { input, .. } | Node::Project { input, .. } | Node::Distinct(input) => {
                vec![*input]
            }
            Node::Join { left, right, .. } => vec![*left, *right],
            Node::Union { inputs, .. } => inputs.clone(),
            Node::Lfp { input, push, .. } => {
                let mut v = vec![*input];
                match push {
                    Some(Push::Forward { seeds, .. }) => v.push(*seeds),
                    Some(Push::Backward { targets, .. }) => v.push(*targets),
                    None => {}
                }
                v
            }
            Node::MultiLfp { init, edges } => init
                .iter()
                .map(|(_, n)| *n)
                .chain(edges.iter().map(|e| e.rel))
                .collect(),
            Node::IntervalJoin { left, .. } => vec![*left],
        }
    }

    /// Rebuild this node with every child id passed through `f`.
    pub fn map_children(self, f: &mut impl FnMut(NodeId) -> NodeId) -> Node {
        match self {
            leaf @ (Node::Scan(_) | Node::Values(_)) => leaf,
            Node::Select { input, pred } => Node::Select {
                input: f(input),
                pred,
            },
            Node::Project { input, cols } => Node::Project {
                input: f(input),
                cols,
            },
            Node::Join {
                left,
                right,
                on,
                kind,
            } => Node::Join {
                left: f(left),
                right: f(right),
                on,
                kind,
            },
            Node::Union { inputs, distinct } => Node::Union {
                inputs: inputs.into_iter().map(f).collect(),
                distinct,
            },
            Node::Distinct(input) => Node::Distinct(f(input)),
            Node::Lfp {
                input,
                from_col,
                to_col,
                push,
            } => Node::Lfp {
                input: f(input),
                from_col,
                to_col,
                push: push.map(|p| match p {
                    Push::Forward { seeds, col } => Push::Forward {
                        seeds: f(seeds),
                        col,
                    },
                    Push::Backward { targets, col } => Push::Backward {
                        targets: f(targets),
                        col,
                    },
                }),
            },
            Node::MultiLfp { init, edges } => Node::MultiLfp {
                init: init.into_iter().map(|(t, n)| (t, f(n))).collect(),
                edges: edges
                    .into_iter()
                    .map(|e| Edge {
                        src_tag: e.src_tag,
                        dst_tag: e.dst_tag,
                        rel: f(e.rel),
                    })
                    .collect(),
            },
            Node::IntervalJoin {
                left,
                left_col,
                right,
            } => Node::IntervalJoin {
                left: f(left),
                left_col,
                right,
            },
        }
    }

    /// Leaves never become statements of their own.
    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Scan(_) | Node::Values(_))
    }

    /// Fixpoints always become statements (the natural §5.1 boundary).
    pub fn is_fixpoint(&self) -> bool {
        matches!(self, Node::Lfp { .. } | Node::MultiLfp { .. })
    }
}

/// Sharing information handed to rewrite rules: a rule that *destructures*
/// a child (select merge, pushdown through a projection or join, union
/// flattening) must only fire when that child has a single consumer —
/// otherwise the rewrite duplicates the child for one parent while the
/// other parents keep the original, growing the program.
pub struct RewriteCtx<'a> {
    counts: &'a HashMap<NodeId, usize>,
    reverse: &'a HashMap<NodeId, NodeId>,
}

impl RewriteCtx<'_> {
    /// Whether `id` has more than one consumer in the pre-rewrite DAG.
    ///
    /// Conservative for nodes created mid-rewrite: a rewritten node is
    /// attributed the consumer count of the node it replaced (all parents
    /// of the original are remapped to it), and a node the pass invented
    /// from scratch has exactly the one consumer that invented it.
    pub fn shared(&self, id: NodeId) -> bool {
        let old = self.reverse.get(&id).copied();
        let mut uses = 0usize;
        if let Some(o) = old {
            uses += self.counts.get(&o).copied().unwrap_or(0);
        }
        if old != Some(id) {
            uses += self.counts.get(&id).copied().unwrap_or(0);
        }
        uses > 1
    }
}

/// The hash-consing arena for one program.
pub struct ProgramIr {
    nodes: Vec<Node>,
    cache: HashMap<Node, NodeId>,
    result: NodeId,
    /// Original statement comments, for readable exported programs.
    comments: HashMap<NodeId, String>,
    consed_on_import: usize,
    consed_fixpoints: usize,
    /// Memoized [`ProgramIr::arity`] results; node ids are stable and nodes
    /// immutable once interned, so entries never invalidate.
    arity_memo: std::cell::RefCell<HashMap<NodeId, Option<usize>>>,
}

/// Rewrite-rule application cap per node — a safety net against a rule pair
/// that cycles; well-formed rules strictly shrink or sink and never hit it.
const MAX_RULE_APPLICATIONS: usize = 64;

impl ProgramIr {
    /// Import a program, hash-consing every plan. Returns `None` when the
    /// program has no result or references an undefined temporary (such
    /// programs are left untouched by the optimizer).
    pub fn import(prog: &Program) -> Option<ProgramIr> {
        let result_temp = prog.result?;
        let mut ir = ProgramIr {
            nodes: Vec::new(),
            cache: HashMap::new(),
            result: 0,
            comments: HashMap::new(),
            consed_on_import: 0,
            consed_fixpoints: 0,
            arity_memo: std::cell::RefCell::new(HashMap::new()),
        };
        let mut env: HashMap<TempId, NodeId> = HashMap::new();
        for stmt in &prog.stmts {
            let id = ir.intern_plan(&stmt.plan, &env)?;
            ir.comments
                .entry(id)
                .or_insert_with(|| stmt.comment.clone());
            env.insert(stmt.target, id);
        }
        ir.result = *env.get(&result_temp)?;
        Some(ir)
    }

    /// Structurally new occurrences that collapsed onto an existing node
    /// during import (leaves excluded — re-scanning the same base relation
    /// is not a shared plan worth reporting).
    pub fn consed_on_import(&self) -> usize {
        self.consed_on_import
    }

    /// `Φ`/`φ` occurrences that collapsed onto a structurally identical
    /// fixpoint node during import — the LFP-dedup count.
    pub fn consed_fixpoints(&self) -> usize {
        self.consed_fixpoints
    }

    /// The result node.
    pub fn result(&self) -> NodeId {
        self.result
    }

    /// Look up a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    /// Intern a node, returning the id of its unique arena copy.
    pub fn intern(&mut self, node: Node) -> NodeId {
        if let Some(&id) = self.cache.get(&node) {
            return id;
        }
        let id = self.nodes.len() as NodeId;
        self.nodes.push(node.clone());
        self.cache.insert(node, id);
        id
    }

    fn intern_counting(&mut self, node: Node) -> NodeId {
        if let Some(&id) = self.cache.get(&node) {
            if !node.is_leaf() {
                self.consed_on_import += 1;
            }
            if node.is_fixpoint() {
                self.consed_fixpoints += 1;
            }
            return id;
        }
        self.intern(node)
    }

    fn intern_plan(&mut self, plan: &Plan, env: &HashMap<TempId, NodeId>) -> Option<NodeId> {
        let node = match plan {
            Plan::Scan(name) => Node::Scan(name.clone()),
            Plan::Temp(t) => return env.get(t).copied(),
            Plan::Values(rel) => Node::Values(rel.clone()),
            Plan::Select { input, pred } => Node::Select {
                input: self.intern_plan(input, env)?,
                pred: pred.clone(),
            },
            Plan::Project { input, cols } => Node::Project {
                input: self.intern_plan(input, env)?,
                cols: cols.clone(),
            },
            Plan::Join {
                left,
                right,
                on,
                kind,
            } => Node::Join {
                left: self.intern_plan(left, env)?,
                right: self.intern_plan(right, env)?,
                on: *on,
                kind: *kind,
            },
            Plan::Union { inputs, distinct } => {
                let mut ids = Vec::with_capacity(inputs.len());
                for p in inputs {
                    ids.push(self.intern_plan(p, env)?);
                }
                Node::Union {
                    inputs: ids,
                    distinct: *distinct,
                }
            }
            Plan::Distinct(input) => Node::Distinct(self.intern_plan(input, env)?),
            Plan::Lfp(spec) => Node::Lfp {
                input: self.intern_plan(&spec.input, env)?,
                from_col: spec.from_col,
                to_col: spec.to_col,
                push: match &spec.push {
                    None => None,
                    Some(PushSpec::Forward { seeds, col }) => Some(Push::Forward {
                        seeds: self.intern_plan(seeds, env)?,
                        col: *col,
                    }),
                    Some(PushSpec::Backward { targets, col }) => Some(Push::Backward {
                        targets: self.intern_plan(targets, env)?,
                        col: *col,
                    }),
                },
            },
            Plan::MultiLfp(spec) => {
                let mut init = Vec::with_capacity(spec.init.len());
                for (tag, p) in &spec.init {
                    init.push((tag.clone(), self.intern_plan(p, env)?));
                }
                let mut edges = Vec::with_capacity(spec.edges.len());
                for e in &spec.edges {
                    edges.push(Edge {
                        src_tag: e.src_tag.clone(),
                        dst_tag: e.dst_tag.clone(),
                        rel: self.intern_plan(&e.rel, env)?,
                    });
                }
                Node::MultiLfp { init, edges }
            }
            Plan::IntervalJoin(spec) => Node::IntervalJoin {
                left: self.intern_plan(&spec.left, env)?,
                left_col: spec.left_col,
                right: spec.right.clone(),
            },
        };
        Some(self.intern_counting(node))
    }

    /// Consumer counts over the DAG reachable from the result: each
    /// (parent, child) edge counts once, duplicate edges from the same
    /// parent count separately.
    pub fn use_counts(&self) -> HashMap<NodeId, usize> {
        let mut counts: HashMap<NodeId, usize> = HashMap::new();
        counts.insert(self.result, 1);
        let mut visited = vec![false; self.nodes.len()];
        let mut stack = vec![self.result];
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut visited[id as usize], true) {
                continue;
            }
            for c in self.node(id).children() {
                *counts.entry(c).or_insert(0) += 1;
                stack.push(c);
            }
        }
        counts
    }

    /// Output arity of a node, when statically known. `Scan` arities are
    /// unknown (base-relation schemas live in the database, not the plan),
    /// so rules that need an arity simply skip those shapes. Memoized —
    /// the hash-consed DAG shares subtrees aggressively, and an unmemoized
    /// walk would revisit a shared subtree once per reference (exponential
    /// on self-join ladders).
    pub fn arity(&self, id: NodeId) -> Option<usize> {
        if let Some(&a) = self.arity_memo.borrow().get(&id) {
            return a;
        }
        let a = self.arity_uncached(id);
        self.arity_memo.borrow_mut().insert(id, a);
        a
    }

    fn arity_uncached(&self, id: NodeId) -> Option<usize> {
        match self.node(id) {
            Node::Scan(_) => None,
            Node::Values(rel) => Some(rel.arity()),
            Node::Select { input, .. } | Node::Distinct(input) => self.arity(*input),
            Node::Project { cols, .. } => Some(cols.len()),
            Node::Join {
                left, right, kind, ..
            } => match kind {
                JoinKind::Inner => Some(self.arity(*left)? + self.arity(*right)?),
                JoinKind::Semi | JoinKind::Anti => self.arity(*left),
            },
            Node::Union { inputs, .. } => inputs.iter().find_map(|&i| self.arity(i)),
            Node::Lfp { .. } => Some(2),
            Node::MultiLfp { .. } => Some(3),
            Node::IntervalJoin { .. } => Some(2),
        }
    }

    /// Whether a node's output is duplicate-free by construction (closure
    /// results are sets, distinct unions and `Distinct` dedup explicitly,
    /// interval joins emit each (ancestor, descendant) pair once) — a
    /// `Distinct` directly above such a node is redundant.
    pub fn is_set_producing(&self, id: NodeId) -> bool {
        matches!(
            self.node(id),
            Node::Distinct(_)
                | Node::Union { distinct: true, .. }
                | Node::Lfp { .. }
                | Node::IntervalJoin { .. }
        )
    }

    /// One bottom-up rewrite sweep from the result. `rule` is applied to
    /// each reachable node (children already rewritten) repeatedly until it
    /// returns `None` or stops changing the node; the rewritten node is
    /// re-interned, so rewrites hash-cons for free. Returns whether
    /// anything changed.
    pub fn rewrite(
        &mut self,
        rule: &mut dyn FnMut(&mut ProgramIr, &RewriteCtx<'_>, &Node) -> Option<Node>,
    ) -> bool {
        let counts = self.use_counts();
        let mut memo: HashMap<NodeId, NodeId> = HashMap::new();
        let mut reverse: HashMap<NodeId, NodeId> = HashMap::new();
        let mut changed = false;
        let result = self.rewrite_node(
            self.result,
            &counts,
            &mut memo,
            &mut reverse,
            rule,
            &mut changed,
        );
        self.result = result;
        changed
    }

    fn rewrite_node(
        &mut self,
        id: NodeId,
        counts: &HashMap<NodeId, usize>,
        memo: &mut HashMap<NodeId, NodeId>,
        reverse: &mut HashMap<NodeId, NodeId>,
        rule: &mut dyn FnMut(&mut ProgramIr, &RewriteCtx<'_>, &Node) -> Option<Node>,
        changed: &mut bool,
    ) -> NodeId {
        if let Some(&n) = memo.get(&id) {
            return n;
        }
        let node = self.node(id).clone();
        let mut map = |c: NodeId| self.rewrite_node(c, counts, memo, reverse, rule, changed);
        let node = node.map_children(&mut map);
        let mut cur = node;
        for _ in 0..MAX_RULE_APPLICATIONS {
            let ctx = RewriteCtx {
                counts,
                reverse: &*reverse,
            };
            match rule(self, &ctx, &cur) {
                Some(next) if next != cur => {
                    *changed = true;
                    cur = next;
                }
                _ => break,
            }
        }
        let new_id = self.intern(cur);
        if new_id != id {
            *changed = true;
            // carry the comment across so exported statements keep their
            // provenance even after the plan is rewritten
            if let Some(c) = self.comments.get(&id).cloned() {
                self.comments.entry(new_id).or_insert(c);
            }
        }
        memo.insert(id, new_id);
        reverse.entry(new_id).or_insert(id);
        new_id
    }

    /// Emit a fresh dependency-ordered [`Program`]: statements for the
    /// result, for fixpoints, and for shared non-leaf nodes; everything
    /// else inlines. Unreachable nodes are never visited (dead-statement
    /// elimination).
    pub fn export(&self) -> Program {
        let uses = self.use_counts();
        let mut prog = Program::new();
        let mut temp_of: HashMap<NodeId, TempId> = HashMap::new();
        let plan = self.emit(self.result, &uses, &mut prog, &mut temp_of);
        let result = match plan {
            Plan::Temp(t) => t,
            plan => prog.push(plan, self.comment_for(self.result)),
        };
        prog.result = Some(result);
        prog
    }

    fn comment_for(&self, id: NodeId) -> String {
        if let Some(c) = self.comments.get(&id) {
            return c.clone();
        }
        match self.node(id) {
            Node::Lfp { .. } => "opt: Φ closure".to_string(),
            Node::MultiLfp { .. } => "opt: φ fixpoint".to_string(),
            _ => "opt: shared subplan (cse)".to_string(),
        }
    }

    fn emit(
        &self,
        id: NodeId,
        uses: &HashMap<NodeId, usize>,
        prog: &mut Program,
        temp_of: &mut HashMap<NodeId, TempId>,
    ) -> Plan {
        if let Some(&t) = temp_of.get(&id) {
            return Plan::Temp(t);
        }
        let node = self.node(id);
        let plan = match node {
            Node::Scan(name) => Plan::Scan(name.clone()),
            Node::Values(rel) => Plan::Values(rel.clone()),
            Node::Select { input, pred } => Plan::Select {
                input: Box::new(self.emit(*input, uses, prog, temp_of)),
                pred: pred.clone(),
            },
            Node::Project { input, cols } => Plan::Project {
                input: Box::new(self.emit(*input, uses, prog, temp_of)),
                cols: cols.clone(),
            },
            Node::Join {
                left,
                right,
                on,
                kind,
            } => Plan::Join {
                left: Box::new(self.emit(*left, uses, prog, temp_of)),
                right: Box::new(self.emit(*right, uses, prog, temp_of)),
                on: *on,
                kind: *kind,
            },
            Node::Union { inputs, distinct } => Plan::Union {
                inputs: inputs
                    .iter()
                    .map(|&i| self.emit(i, uses, prog, temp_of))
                    .collect(),
                distinct: *distinct,
            },
            Node::Distinct(input) => {
                Plan::Distinct(Box::new(self.emit(*input, uses, prog, temp_of)))
            }
            Node::Lfp {
                input,
                from_col,
                to_col,
                push,
            } => Plan::Lfp(LfpSpec {
                input: Box::new(self.emit(*input, uses, prog, temp_of)),
                from_col: *from_col,
                to_col: *to_col,
                push: push.as_ref().map(|p| match p {
                    Push::Forward { seeds, col } => PushSpec::Forward {
                        seeds: Box::new(self.emit(*seeds, uses, prog, temp_of)),
                        col: *col,
                    },
                    Push::Backward { targets, col } => PushSpec::Backward {
                        targets: Box::new(self.emit(*targets, uses, prog, temp_of)),
                        col: *col,
                    },
                }),
            }),
            Node::MultiLfp { init, edges } => Plan::MultiLfp(MultiLfpSpec {
                init: init
                    .iter()
                    .map(|(tag, n)| (tag.clone(), self.emit(*n, uses, prog, temp_of)))
                    .collect(),
                edges: edges
                    .iter()
                    .map(|e| MultiLfpEdge {
                        src_tag: e.src_tag.clone(),
                        dst_tag: e.dst_tag.clone(),
                        rel: self.emit(e.rel, uses, prog, temp_of),
                    })
                    .collect(),
            }),
            Node::IntervalJoin {
                left,
                left_col,
                right,
            } => Plan::IntervalJoin(IntervalJoinSpec {
                left: Box::new(self.emit(*left, uses, prog, temp_of)),
                left_col: *left_col,
                right: right.clone(),
            }),
        };
        let node = self.node(id);
        let shared = uses.get(&id).copied().unwrap_or(0) > 1 && !node.is_leaf();
        if shared || node.is_fixpoint() {
            let t = prog.push(plan, self.comment_for(id));
            temp_of.insert(id, t);
            Plan::Temp(t)
        } else {
            plan
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Pred;
    use crate::value::Value;

    #[test]
    fn import_resolves_temps_and_export_round_trips() {
        let mut prog = Program::new();
        let base = prog.push(Plan::Scan("E".into()), "base");
        let sel = prog.push(
            Plan::Temp(base).select(Pred::ColEqValue(0, Value::Id(1))),
            "sel",
        );
        prog.result = Some(sel);
        let ir = ProgramIr::import(&prog).unwrap();
        let out = ir.export();
        // base is used once: inlined into the single result statement
        assert_eq!(out.len(), 1);
        assert!(matches!(
            &out.stmts[0].plan,
            Plan::Select { input, .. } if matches!(**input, Plan::Scan(_))
        ));
    }

    #[test]
    fn identical_statements_hash_cons() {
        let mut prog = Program::new();
        let a = prog.push(Plan::Scan("E".into()).project(vec![(0, "F")]), "a");
        let b = prog.push(Plan::Scan("E".into()).project(vec![(0, "F")]), "b");
        let j = prog.push(Plan::Temp(a).join_on(Plan::Temp(b), 0, 0), "join");
        prog.result = Some(j);
        let ir = ProgramIr::import(&prog).unwrap();
        assert_eq!(ir.consed_on_import(), 1, "the duplicate projection");
        let out = ir.export();
        // the shared projection becomes one temp, read twice
        assert_eq!(out.len(), 2);
        let temps = out.stmts.last().unwrap().plan.referenced_temps();
        assert_eq!(temps, vec![out.stmts[0].target, out.stmts[0].target]);
    }

    #[test]
    fn dead_statements_are_dropped() {
        let mut prog = Program::new();
        let _dead = prog.push(Plan::Scan("E".into()).project(vec![(0, "F")]), "dead");
        let live = prog.push(Plan::Scan("E".into()), "live");
        prog.result = Some(live);
        let ir = ProgramIr::import(&prog).unwrap();
        let out = ir.export();
        assert_eq!(out.len(), 1);
        assert!(matches!(out.stmts[0].plan, Plan::Scan(_)));
    }

    #[test]
    fn use_counts_count_duplicate_edges() {
        let mut prog = Program::new();
        let t = prog.push(
            Plan::Scan("E".into())
                .project(vec![(0, "F"), (1, "T")])
                .join_on(
                    Plan::Scan("E".into()).project(vec![(0, "F"), (1, "T")]),
                    1,
                    0,
                ),
            "self join of the same projection",
        );
        prog.result = Some(t);
        let ir = ProgramIr::import(&prog).unwrap();
        let counts = ir.use_counts();
        // the hash-consed projection is referenced twice by the join
        assert!(counts.values().any(|&c| c == 2));
    }

    #[test]
    fn arity_inference() {
        let mut prog = Program::new();
        let t = prog.push(
            Plan::Scan("E".into()).project(vec![(0, "F"), (1, "T"), (2, "V")]),
            "proj",
        );
        prog.result = Some(t);
        let ir = ProgramIr::import(&prog).unwrap();
        assert_eq!(ir.arity(ir.result()), Some(3));
        let scan = match ir.node(ir.result()) {
            Node::Project { input, .. } => *input,
            _ => unreachable!(),
        };
        assert_eq!(ir.arity(scan), None, "base-relation schemas are unknown");
    }

    #[test]
    fn import_bails_on_programs_without_result() {
        let prog = Program::new();
        assert!(ProgramIr::import(&prog).is_none());
    }
}
