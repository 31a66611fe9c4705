//! The optimizer's hash-consed arena.
//!
//! `Dag::from_program` hash-conses a [`Program`]'s nodes in one pass over
//! them: a node whose children map to already-interned nodes and that is
//! structurally equal to one interned before collapses onto it, so equal
//! subplans — across statements too — become one node. Rewrite passes
//! ([`crate::opt::Pass`]) intern new nodes into the same arena; nothing is
//! removed until `Dag::into_program` compacts it into a fresh program.
//!
//! The statement choice there is where common-subexpression elimination and
//! dead-statement elimination fall out for free: a statement is created
//! only for (a) the result, (b) fixpoint operators (the natural statement
//! boundary of the paper's `R_e ← e2s(e)` programs, §5.1), and (c) nodes
//! the DAG *shares* — everything else inlines into its single consumer, and
//! anything the result does not reach is simply never visited.

use super::OptStats;
use crate::analyze::{self, AnalyzeError};
use crate::program::{Node, NodeId, Program, TempId};
use std::collections::HashMap;

/// Sharing information handed to rewrite rules: a rule that *destructures*
/// a child (select merge, pushdown through a projection or join, union
/// flattening) must only fire when that child has a single consumer —
/// otherwise the rewrite duplicates the child for one parent while the
/// other parents keep the original, growing the program.
pub struct RewriteCtx<'a> {
    counts: &'a [usize],
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
        let count = |n: NodeId| self.counts.get(n as usize).copied().unwrap_or(0);
        let old = self.reverse.get(&id).copied();
        let mut uses = old.map_or(0, count);
        if old != Some(id) {
            uses += count(id);
        }
        uses > 1
    }
}

/// The hash-consing arena for one program: nodes in topological order
/// (interning only ever appends a node over existing ones), each with its
/// output arity.
pub struct Dag {
    nodes: Vec<Node>,
    cache: HashMap<Node, NodeId>,
    /// Output arity of each node, when statically known: the analyzer's
    /// [`analyze::arity`] over unknown base relations, taken at intern.
    arity: Vec<Option<usize>>,
    result: NodeId,
    /// Original statement comments, for readable exported programs.
    comments: HashMap<NodeId, String>,
}

/// Rewrite-rule application cap per node — a safety net against a rule pair
/// that cycles; well-formed rules strictly shrink or sink and never hit it.
const MAX_RULE_APPLICATIONS: usize = 64;

impl Dag {
    /// Hash-cons `prog`'s nodes in one pass. Returns the DAG and the
    /// optimizer's counters, started with how many structurally new
    /// occurrences collapsed onto an existing node: non-leaf ones
    /// (`plans_hash_consed`; re-scanning the same base relation is not a
    /// shared plan worth reporting) and `Φ`/`φ` fixpoints among them
    /// (`lfps_merged`). `None` when the program has no result (such programs
    /// are left untouched by the optimizer).
    pub(crate) fn from_program(prog: &Program) -> Option<(Dag, OptStats)> {
        let result = prog.result()?;
        let mut dag = Dag {
            nodes: Vec::new(),
            cache: HashMap::new(),
            arity: Vec::new(),
            result: 0,
            comments: HashMap::new(),
        };
        let mut stats = OptStats::default();
        let mut map: Vec<NodeId> = Vec::with_capacity(prog.nodes().len());
        for node in prog.nodes() {
            let mut node = node.clone();
            node.children_mut(|c| *c = map[*c as usize]);
            if dag.cache.contains_key(&node) {
                stats.plans_hash_consed += usize::from(!node.is_leaf());
                stats.lfps_merged += usize::from(node.is_fixpoint());
            }
            map.push(dag.intern(node));
        }
        for stmt in prog.stmts() {
            dag.comments
                .entry(map[stmt.root as usize])
                .or_insert_with(|| stmt.comment.clone());
        }
        dag.result = map[prog.stmt(result).root as usize];
        Some((dag, stats))
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
        let a = analyze::arity(&node, &self.arity, &|_| None);
        let id = self.nodes.len() as NodeId;
        self.nodes.push(node.clone());
        self.arity.push(a);
        self.cache.insert(node, id);
        id
    }

    /// Output arity of a node, when statically known ([`analyze::arity`]).
    /// The DAG reads every `Scan` as unknown (base-relation arities live in
    /// the database, not the plan), so rules that need an arity skip the
    /// shapes that rest on a scan; so does a self-join ladder past
    /// `usize::MAX` columns.
    pub fn arity(&self, id: NodeId) -> Option<usize> {
        self.arity[id as usize]
    }

    /// Consumer counts over the DAG reachable from the result, by node id:
    /// each (parent, child) edge counts once, duplicate edges from the same
    /// parent count separately, and the result counts one use.
    pub(crate) fn use_counts(&self) -> Vec<usize> {
        let mut counts = vec![0; self.nodes.len()];
        let mut visited = vec![false; self.nodes.len()];
        counts[self.result as usize] = 1;
        let mut stack = vec![self.result];
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut visited[id as usize], true) {
                continue;
            }
            self.node(id).for_each_child(|c| {
                counts[c as usize] += 1;
                stack.push(c);
            });
        }
        counts
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
                | Node::Lfp(_)
                | Node::IntervalJoin(_)
        )
    }

    /// Check the nodes the result reaches against the arities taken at
    /// intern, in place and over unknown base relations — the optimizer's
    /// per-pass debug gate.
    pub(crate) fn check(&self) -> Result<(), AnalyzeError> {
        let uses = self.use_counts();
        for (id, node) in self.nodes.iter().enumerate() {
            if uses[id] == 0 {
                continue;
            }
            analyze::check(node, &self.arity, &|_| None).map_err(|kind| AnalyzeError {
                stmt: None,
                comment: self
                    .comments
                    .get(&(id as NodeId))
                    .cloned()
                    .unwrap_or_default(),
                kind,
            })?;
        }
        Ok(())
    }

    /// One bottom-up rewrite sweep from the result. `rule` is applied to
    /// each reachable node (children already rewritten) repeatedly until it
    /// returns `None` or stops changing the node; the rewritten node is
    /// re-interned, so rewrites hash-cons for free. Returns whether
    /// anything changed.
    pub fn rewrite(
        &mut self,
        rule: &mut dyn FnMut(&mut Dag, &RewriteCtx<'_>, &Node) -> Option<Node>,
    ) -> bool {
        let counts = self.use_counts();
        let mut memo: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
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
        counts: &[usize],
        memo: &mut [Option<NodeId>],
        reverse: &mut HashMap<NodeId, NodeId>,
        rule: &mut dyn FnMut(&mut Dag, &RewriteCtx<'_>, &Node) -> Option<Node>,
        changed: &mut bool,
    ) -> NodeId {
        if let Some(n) = memo[id as usize] {
            return n;
        }
        let mut cur = self.node(id).clone();
        cur.children_mut(|c| *c = self.rewrite_node(*c, counts, memo, reverse, rule, changed));
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
        memo[id as usize] = Some(new_id);
        reverse.entry(new_id).or_insert(id);
        new_id
    }

    /// Compact the DAG into a fresh program: statements for the result, for
    /// fixpoints, and for shared non-leaf nodes, in the order a depth-first
    /// walk from the result finishes them; everything else inlines into its
    /// one consumer (a leaf into each of its consumers). Unreachable nodes
    /// are never visited (dead-statement elimination).
    pub(crate) fn into_program(self) -> Program {
        let uses = self.use_counts();
        let mut roots = Vec::new();
        let mut is_root = vec![false; self.nodes.len()];
        self.pick_roots(self.result, &uses, &mut is_root, &mut roots);
        if !is_root[self.result as usize] {
            is_root[self.result as usize] = true;
            roots.push(self.result);
        }
        let mut prog = Program::new();
        let mut new_id: Vec<NodeId> = vec![0; self.nodes.len()];
        for &root in &roots {
            let id = self.emit(root, root, &is_root, &new_id, &mut prog);
            new_id[root as usize] = id;
            prog.push_stmt(self.comment_for(root));
        }
        prog.set_result(TempId(roots.len() as u32 - 1));
        prog
    }

    /// Mark the statement roots under `id`, appending each once its
    /// children's are.
    fn pick_roots(
        &self,
        id: NodeId,
        uses: &[usize],
        is_root: &mut [bool],
        roots: &mut Vec<NodeId>,
    ) {
        if is_root[id as usize] {
            return;
        }
        let node = self.node(id);
        node.for_each_child(|c| self.pick_roots(c, uses, is_root, roots));
        if (uses[id as usize] > 1 && !node.is_leaf()) || node.is_fixpoint() {
            is_root[id as usize] = true;
            roots.push(id);
        }
    }

    /// Append the nodes of the statement rooted at `top` under `id`, children
    /// first; another statement's root is read, not copied.
    fn emit(
        &self,
        id: NodeId,
        top: NodeId,
        is_root: &[bool],
        new_id: &[NodeId],
        prog: &mut Program,
    ) -> NodeId {
        if id != top && is_root[id as usize] {
            return new_id[id as usize];
        }
        let mut node = self.node(id).clone();
        node.children_mut(|c| *c = self.emit(*c, top, is_root, new_id, prog));
        prog.push_node(node)
    }

    fn comment_for(&self, id: NodeId) -> String {
        if let Some(c) = self.comments.get(&id) {
            return c.clone();
        }
        match self.node(id) {
            Node::Lfp(_) => "opt: Φ closure".to_string(),
            Node::MultiLfp(_) => "opt: φ fixpoint".to_string(),
            _ => "opt: shared subplan (cse)".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Plan, Pred};
    use crate::value::Value;

    fn dag_of(prog: &Program) -> (Dag, usize) {
        let (dag, stats) = Dag::from_program(prog).expect("test programs have a result");
        (dag, stats.plans_hash_consed)
    }

    #[test]
    fn temps_resolve_and_single_uses_inline() {
        let mut prog = Program::new();
        let base = prog.push(Plan::Scan("E".into()), "base");
        let sel = prog.push(
            Plan::Temp(base).select(Pred::ColEqValue(0, Value::Id(1))),
            "sel",
        );
        prog.set_result(sel);
        let out = dag_of(&prog).0.into_program();
        // base is used once: inlined into the single result statement
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out.node(out.stmts()[0].root),
            Node::Select { input, .. } if matches!(out.node(*input), Node::Scan(_))
        ));
    }

    #[test]
    fn identical_statements_hash_cons() {
        let mut prog = Program::new();
        let a = prog.push(Plan::Scan("E".into()).project(vec![(0, "F")]), "a");
        let b = prog.push(Plan::Scan("E".into()).project(vec![(0, "F")]), "b");
        let j = prog.push(Plan::Temp(a).join_on(Plan::Temp(b), 0, 0), "join");
        prog.set_result(j);
        let (dag, plans) = dag_of(&prog);
        assert_eq!(plans, 1, "the duplicate projection");
        let out = dag.into_program();
        // the shared projection becomes one temp, read twice
        assert_eq!(out.len(), 2);
        let shared = out.stmts()[0].root;
        assert!(matches!(
            out.node(out.stmts()[1].root),
            Node::Join { left, right, .. } if *left == shared && *right == shared
        ));
    }

    #[test]
    fn dead_statements_are_dropped() {
        let mut prog = Program::new();
        let _dead = prog.push(Plan::Scan("E".into()).project(vec![(0, "F")]), "dead");
        let live = prog.push(Plan::Scan("E".into()), "live");
        prog.set_result(live);
        let out = dag_of(&prog).0.into_program();
        assert_eq!(out.len(), 1);
        assert_eq!(out.nodes(), &[Node::Scan("E".into())]);
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
        prog.set_result(t);
        let counts = dag_of(&prog).0.use_counts();
        // the hash-consed projection is referenced twice by the join
        assert!(counts.contains(&2));
    }

    #[test]
    fn arity_inference() {
        let mut prog = Program::new();
        let t = prog.push(
            Plan::Scan("E".into()).project(vec![(0, "F"), (1, "T"), (2, "V")]),
            "proj",
        );
        prog.set_result(t);
        let dag = dag_of(&prog).0;
        assert_eq!(dag.arity(dag.result), Some(3));
        let scan = match dag.node(dag.result) {
            Node::Project { input, .. } => *input,
            _ => unreachable!(),
        };
        assert_eq!(dag.arity(scan), None, "base-relation arities are unknown");
    }

    #[test]
    fn programs_without_result_are_not_hash_consed() {
        let mut prog = Program::new();
        prog.push(Plan::Scan("E".into()), "no result");
        assert!(Dag::from_program(&prog).is_none());
    }
}
