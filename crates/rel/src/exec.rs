//! Program execution: databases, the evaluator, and execution options.
//!
//! # Columnar execution core
//!
//! What shapes this module's hot path:
//!
//! * **A loop, not a recursion** — a statement's nodes are evaluated in
//!   arena order (children first); a node's relation waits until its one
//!   consumer takes it, and a read of an earlier statement borrows that
//!   statement's result. Stack use does not grow with the program's depth.
//! * **Borrowed scans** — a `Scan` or `Values` node borrows the stored
//!   relation instead of cloning it, so operators read base relations in
//!   place and only materialize what they actually produce.
//! * **One row-multimap under every build table** — a hash-join build side,
//!   keyed on its one join column, is a `crate::multimap::RowMultimap`: a
//!   hash map from the key to its first row plus one `next` array chaining
//!   the rows with an equal key, in ascending row order. Two allocations per
//!   table instead of one `Vec` per distinct key; `Relation::dedup` uses the
//!   same table, and the fixpoint operators the dense-key variant (CSR).
//! * **σ/π fused into the join below** — a `Project`, a `Select`, or
//!   `Project(Select(…))` directly above an inner `Join` of the same
//!   statement is applied while
//!   the join emits: a joined row failing the predicate is never built, and
//!   of one that passes only the projected columns are copied
//!   ([`Stats::tuples_emitted`] counts the narrow rows; `joins`, `selects`
//!   and `projects` still count one per logical operator).
//! * **Seed-restricted range joins** — `Semi(IntervalJoin, seeds)` evaluates
//!   `seeds` first and hands the interval join only those ancestors (§5.2's
//!   `push(R1, R0)`, for the range join): its sweep-or-nested-loop choice is
//!   made on the seeds and it emits exactly the pairs the semi-join keeps.
//! * **Load-time base-edge indexes** — the [`Database`] carries per-relation
//!   indexes on the edge columns (`F` → rows, `T` → rows): the same
//!   `RowMultimap` a join would build, built by [`Database::build_indexes`]
//!   before the store goes behind its `Arc`. A relation has one iff
//!   `build_indexes` ran after its last [`Database::insert`]. A join whose
//!   *build* (right) side is a plain base-table scan probes that index
//!   instead of building a table ([`Stats::join_index_reuses`] counts
//!   them); a temporary on the build side builds one, even when its
//!   statement is a bare scan. The translator's child steps are
//!   `SemiJoin(Scan R_x, small)` — the scan on the *probe* side — so none
//!   of the ten benchmark
//!   queries reaches an index today
//!   (`rel.exec.join_index_reuses = 0`); driving those joins from the small
//!   side through the index is the follow-up (ROADMAP item 5).
//! * **Integer keys** — every cell is an 8-byte `Copy` [`Value`]: text is
//!   dictionary-coded at load ([`crate::dict`]), so a join key is a node
//!   id, a code or the document marker, and executor tables hash it with
//!   the internal Fx hasher ([`crate::fxhash`]).

use crate::dict::Dictionary;
use crate::fixpoint::{eval_lfp, eval_multilfp};
use crate::fxhash::FxHashSet;
use crate::interval::{eval_interval_join, IntervalLabels, IntervalView};
use crate::multimap::RowMultimap;
use crate::plan::{JoinKind, Pred};
use crate::program::{Node, NodeId, Program, TempId};
use crate::relation::Relation;
use crate::stats::Stats;
use crate::value::Value;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A database: named base relations (the shredded store), their load-time
/// string [`Dictionary`], per-relation edge indexes, and — when the store
/// was shredded from a document — per-node pre/post [`IntervalLabels`] with
/// per-relation sorted interval views.
///
/// Plain data: the indexes and views are **derived**, and only the calls
/// that change the store change them — reads never build anything.
///
/// # Invariants
///
/// * Dictionary codes ([`Value::Code`]) stored in the relations are
///   load-scoped to this database's dictionary;
/// * interval views exist iff interval labels do: [`Database::set_intervals`]
///   builds one per arity ≥ 2 relation, and [`Database::insert`] drops the
///   labels (inserted rows carry none) and with them every view;
/// * a relation has an index iff [`Database::build_indexes`] ran after its
///   last [`Database::insert`] — a mutated store never serves a stale
///   index; until the next `build_indexes` its joins build a fresh table.
#[derive(Clone, Debug, Default)]
pub struct Database {
    relations: HashMap<String, Relation>,
    dict: Dictionary,
    /// name → (index on col 0, index on col 1), for arity ≥ 2 relations.
    indexes: HashMap<String, [Arc<RowMultimap<Value>>; 2]>,
    /// Pre/post interval labels from the shredder's DFS, or `None` for
    /// stores that were not shredded from a document — or were mutated
    /// after shredding (any [`Database::insert`] clears this, which makes
    /// executions fall back to the LFP path).
    intervals: Option<Arc<IntervalLabels>>,
    /// name → that relation's `T`-column nodes sorted by `start` label
    /// (the sort-merge side of [`Node::IntervalJoin`]); built with the
    /// labels, dropped with them.
    interval_views: HashMap<String, Arc<IntervalView>>,
}

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Register a base relation. Drops the replaced relation's index and
    /// the document-wide interval labels with every view built from them —
    /// rows inserted after shredding carry no pre/post label, so the
    /// interval fast path must not run against a mutated store. The index
    /// comes back with the next [`Database::build_indexes`], the labels
    /// only with a fresh [`Database::set_intervals`].
    pub fn insert(&mut self, name: &str, rel: Relation) {
        self.indexes.remove(name);
        self.interval_views.clear();
        self.intervals = None;
        self.relations.insert(name.to_string(), rel);
    }

    /// Look up a base relation.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Names of all base relations, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.relations.keys().map(|s| s.as_str()).collect();
        v.sort();
        v
    }

    /// Total number of tuples across base relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// The load-time string dictionary.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// Mutable dictionary access (loaders only; executions never mutate).
    pub fn dict_mut(&mut self) -> &mut Dictionary {
        &mut self.dict
    }

    /// Intern a text value into the dictionary, returning its coded form.
    pub fn intern_str(&mut self, s: &str) -> Value {
        Value::Code(self.dict.intern(s))
    }

    /// The text a [`Value::Code`] stands for in this store's dictionary;
    /// `None` for any other cell, or a code this dictionary does not hold.
    pub fn text(&self, v: &Value) -> Option<&str> {
        self.dict.get(v.as_code()?)
    }

    /// Build the per-relation edge-column indexes (`F` → rows, `T` → rows)
    /// for every arity ≥ 2 relation that does not have one yet. Loaders
    /// call this before the store goes behind an `Arc`; idempotent. A
    /// relation inserted afterwards has no index until the next call.
    pub fn build_indexes(&mut self) {
        for (name, rel) in &self.relations {
            if rel.arity() >= 2 && !self.indexes.contains_key(name) {
                let index = |col: usize| {
                    Arc::new(RowMultimap::build(rel.len(), |i| non_null(rel.row(i)[col])))
                };
                self.indexes.insert(name.clone(), [index(0), index(1)]);
            }
        }
    }

    /// The index of `name` on column `col` (0 = `F`, 1 = `T`): `Some` iff
    /// [`Database::build_indexes`] ran after `name`'s last
    /// [`Database::insert`].
    pub(crate) fn index_of(&self, name: &str, col: usize) -> Option<&RowMultimap<Value>> {
        self.indexes.get(name)?.get(col).map(Arc::as_ref)
    }

    /// Number of relations with edge indexes.
    pub fn indexed_relations(&self) -> usize {
        self.indexes.len()
    }

    /// Attach the shredder's per-node pre/post interval labels, replacing
    /// any previous labels, and build every arity ≥ 2 relation's sorted
    /// interval view from them.
    pub fn set_intervals(&mut self, labels: IntervalLabels) {
        self.interval_views = self
            .relations
            .iter()
            .filter(|(_, rel)| rel.arity() >= 2)
            .map(|(name, rel)| (name.clone(), Arc::new(IntervalView::build(rel, &labels))))
            .collect();
        self.intervals = Some(Arc::new(labels));
    }

    /// Whether this store carries interval labels (shredded from a
    /// document and not mutated since) — the gate for the interval fast
    /// path.
    pub fn has_intervals(&self) -> bool {
        self.intervals.is_some()
    }

    /// The per-node interval labels, if present.
    pub fn intervals(&self) -> Option<&Arc<IntervalLabels>> {
        self.intervals.as_ref()
    }

    /// The sorted interval view of `name`'s `T` column: `Some` iff the
    /// store has interval labels and `name` is an arity ≥ 2 relation.
    pub fn interval_view(&self, name: &str) -> Option<&IntervalView> {
        self.interval_views.get(name).map(Arc::as_ref)
    }
}

/// Execution options.
///
/// Besides the interval-path switch, the options carry the **cooperative
/// cancellation/budget token**: an optional wall-clock deadline, a tuple
/// budget, and a closure-memory budget. The executor polls the token at
/// natural loop boundaries — per-round LFP frontiers, hash-join entry,
/// interval-sweep chunks, statement boundaries — and aborts with a typed
/// [`ExecError::DeadlineExceeded`] / [`ExecError::BudgetExceeded`] instead
/// of running away. Checks are cooperative (no preemption): a single
/// operator invocation between two checkpoints bounds the overshoot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecOptions {
    /// Allow the interval fast path: when the prepared translation carries
    /// an interval variant *and* the database has interval labels, run the
    /// `IntervalJoin` program instead of the LFP program. Default true;
    /// set false to force the pure LFP path (the bench ablation does).
    pub interval: bool,
    /// Cooperative wall-clock deadline: execution aborts with
    /// [`ExecError::DeadlineExceeded`] at the next checkpoint once this
    /// instant has passed. `None` (the default) never times out.
    pub deadline: Option<std::time::Instant>,
    /// Cooperative tuple budget: execution aborts with
    /// [`ExecError::BudgetExceeded`] once more than this many tuples have
    /// been emitted across all operators ([`Stats::tuples_emitted`]).
    /// `None` (the default) is unbounded.
    pub tuple_budget: Option<u64>,
    /// Cooperative closure-memory budget: a fixpoint aborts with
    /// [`ExecError::BudgetExceeded`] once its materialized closure (pair
    /// set) exceeds this many entries. `None` (the default) is unbounded.
    pub closure_budget: Option<usize>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            interval: true,
            deadline: None,
            tuple_budget: None,
            closure_budget: None,
        }
    }
}

impl ExecOptions {
    /// These options with the interval fast path enabled or disabled.
    pub fn with_interval(mut self, interval: bool) -> Self {
        self.interval = interval;
        self
    }

    /// These options with a cooperative wall-clock deadline.
    pub fn with_deadline(mut self, deadline: std::time::Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// These options with a deadline `timeout` from now.
    pub fn with_timeout(self, timeout: std::time::Duration) -> Self {
        self.with_deadline(std::time::Instant::now() + timeout)
    }

    /// These options with a cooperative tuple budget.
    pub fn with_tuple_budget(mut self, budget: u64) -> Self {
        self.tuple_budget = Some(budget);
        self
    }

    /// These options with a cooperative closure-memory budget (entries).
    pub fn with_closure_budget(mut self, budget: usize) -> Self {
        self.closure_budget = Some(budget);
        self
    }

    /// Whether any governance limit (deadline or budget) is set — lets hot
    /// loops skip per-chunk checks entirely in the common unbounded case.
    #[inline]
    pub fn governed(&self) -> bool {
        self.deadline.is_some() || self.tuple_budget.is_some() || self.closure_budget.is_some()
    }

    /// Poll the cancellation token: deadline first, then the tuple budget
    /// against `stats`. Called at executor loop boundaries.
    #[inline]
    pub fn check_cancel(&self, stats: &Stats) -> Result<(), ExecError> {
        if let Some(deadline) = self.deadline {
            if std::time::Instant::now() >= deadline {
                return Err(ExecError::DeadlineExceeded);
            }
        }
        self.check_tuples(stats.tuples_emitted)
    }

    /// Check an emitted-tuple count against the tuple budget (used by
    /// operators that stage output before folding it into [`Stats`]).
    #[inline]
    pub fn check_tuples(&self, emitted: u64) -> Result<(), ExecError> {
        if let Some(budget) = self.tuple_budget {
            if emitted > budget {
                return Err(ExecError::BudgetExceeded(format!(
                    "tuple budget: {emitted} tuples emitted > {budget} allowed"
                )));
            }
        }
        Ok(())
    }

    /// Check a fixpoint's materialized closure size against the
    /// closure-memory budget.
    #[inline]
    pub fn check_closure(&self, len: usize) -> Result<(), ExecError> {
        if let Some(budget) = self.closure_budget {
            if len > budget {
                return Err(ExecError::BudgetExceeded(format!(
                    "closure budget: {len} pairs materialized > {budget} allowed"
                )));
            }
        }
        Ok(())
    }
}

/// Execution errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A scan referenced an unknown base relation.
    UnknownRelation(String),
    /// The program names no result statement.
    NoResult,
    /// Schema mismatch in a set operation.
    SchemaMismatch(String),
    /// An [`Node::IntervalJoin`] ran against a store without interval
    /// labels (never shredded, or mutated since shredding). The engine
    /// selects the LFP program for such stores; hitting this means a
    /// caller executed an interval program against the wrong database.
    MissingIntervals(String),
    /// The cooperative deadline ([`ExecOptions::deadline`]) passed; the
    /// executor aborted at the next checkpoint instead of running away.
    DeadlineExceeded,
    /// A resource budget ([`ExecOptions::tuple_budget`] or
    /// [`ExecOptions::closure_budget`]) was exhausted; the message names
    /// the budget and the observed value.
    BudgetExceeded(String),
    /// The multi-relation fixpoint tags its tuples with a text the store's
    /// dictionary has no code for, so the tag cannot be a cell. Stores from
    /// `x2s_shred::edge_database` hold a code for every element name.
    UncodedTag(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownRelation(n) => write!(f, "unknown base relation {n}"),
            ExecError::NoResult => write!(f, "program has no result statement"),
            ExecError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            ExecError::MissingIntervals(n) => {
                write!(
                    f,
                    "interval join over {n} on a store without interval labels"
                )
            }
            ExecError::DeadlineExceeded => write!(f, "execution deadline exceeded"),
            ExecError::BudgetExceeded(m) => write!(f, "execution budget exceeded: {m}"),
            ExecError::UncodedTag(t) => {
                write!(
                    f,
                    "fixpoint tag {t:?} has no code in the store's dictionary"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Mutable execution context the operators share.
pub(crate) struct ExecCtx<'a> {
    /// The database of base relations.
    pub(crate) db: &'a Database,
    /// Options.
    pub(crate) opts: ExecOptions,
    /// Statistics accumulator.
    pub(crate) stats: &'a mut Stats,
}

impl ExecCtx<'_> {
    /// Poll this execution's cancellation token (deadline + tuple budget).
    #[inline]
    pub(crate) fn check_cancel(&self) -> Result<(), ExecError> {
        self.opts.check_cancel(self.stats)
    }
}

/// A predicate compiled against the database dictionary: a text literal
/// is resolved to its dictionary code *once per operator invocation*, so
/// the per-row test is one [`Value`] equality. Every cell is a `Value`, so
/// a text literal can only ever match a [`Value::Code`].
enum CompiledPred {
    /// `col = v`; `None` is a text literal the dictionary lacks, which no
    /// cell equals.
    Eq(usize, Option<Value>),
    And(Box<CompiledPred>, Box<CompiledPred>),
}

impl CompiledPred {
    fn compile(pred: &Pred, dict: &Dictionary) -> CompiledPred {
        match pred {
            Pred::ColEqText(c, text) => {
                let code = dict.code_of(text);
                if let Some(code) = code {
                    dict.verify_code(code, text);
                }
                CompiledPred::Eq(*c, code.map(Value::Code))
            }
            Pred::ColEqValue(c, v) => CompiledPred::Eq(*c, Some(*v)),
            Pred::And(a, b) => CompiledPred::And(
                Box::new(CompiledPred::compile(a, dict)),
                Box::new(CompiledPred::compile(b, dict)),
            ),
        }
    }

    /// Column indexes are verified statically by [`crate::analyze`]; debug
    /// builds additionally fail here with a named diagnostic instead of a
    /// bare slice panic. The release path is unchanged.
    fn eval<R: Row + ?Sized>(&self, tuple: &R) -> bool {
        match self {
            CompiledPred::Eq(c, v) => {
                debug_assert!(
                    *c < tuple.arity(),
                    "compiled predicate column {c} out of range (tuple arity {}); \
                     the plan bypassed the static analyzer",
                    tuple.arity()
                );
                v.as_ref() == Some(tuple.col(*c))
            }
            CompiledPred::And(a, b) => a.eval(tuple) && b.eval(tuple),
        }
    }
}

/// What a predicate or a projection reads a row through: a stored row, or
/// the `left ++ right` row an inner join is about to emit ([`Joined`]) —
/// which σ/π fused into the join look at *before* anything is copied.
trait Row {
    fn col(&self, c: usize) -> &Value;
    fn arity(&self) -> usize;
}

impl Row for [Value] {
    #[inline]
    fn col(&self, c: usize) -> &Value {
        &self[c]
    }

    #[inline]
    fn arity(&self) -> usize {
        self.len()
    }
}

/// The concatenation `left ++ right` of two stored rows, unmaterialised.
struct Joined<'r>(&'r [Value], &'r [Value]);

impl Row for Joined<'_> {
    #[inline]
    fn col(&self, c: usize) -> &Value {
        match c.checked_sub(self.0.len()) {
            None => &self.0[c],
            Some(rc) => &self.1[rc],
        }
    }

    #[inline]
    fn arity(&self) -> usize {
        self.0.len() + self.1.len()
    }
}

/// The σ and π sitting directly above a join, applied while the join emits:
/// a joined row that fails `pred` is never built, and of one that passes
/// only `cols` are copied. With neither, the join emits whole rows.
#[derive(Default)]
struct Fused<'p> {
    pred: Option<CompiledPred>,
    cols: Option<&'p [(usize, String)]>,
}

impl Fused<'_> {
    /// Arity of the fused output over a join with these inputs.
    fn arity(&self, left: &Relation, right: &Relation, kind: JoinKind) -> usize {
        match self.cols {
            Some(cols) => cols.len(),
            None if kind == JoinKind::Inner => left.arity() + right.arity(),
            None => left.arity(),
        }
    }

    /// Emit `left ++ right` (semi and anti joins pass an empty `right`).
    #[inline]
    fn emit(&self, left: &[Value], right: &[Value], out: &mut Relation) {
        let row = Joined(left, right);
        if self.pred.as_ref().is_some_and(|p| !p.eval(&row)) {
            return;
        }
        match self.cols {
            Some(cols) => out.push_iter(cols.iter().map(|(c, _)| *row.col(*c))),
            None => out.push_concat(left, right),
        }
    }
}

/// How a node evaluates, given the statement it belongs to starts at `lo`.
enum Shape<'p> {
    /// On its own, from its inputs' relations.
    Plain,
    /// As the inner join `join` below it — with the σ `select` between
    /// when there is one — emitting through `pred` and `cols`.
    Fused {
        join: NodeId,
        select: Option<NodeId>,
        pred: Option<&'p Pred>,
        cols: Option<&'p [(usize, String)]>,
    },
    /// `Semi(IntervalJoin, seeds)` joining on the pairs' ancestor column:
    /// the interval join `interval` runs on the seeds only (§5.2's
    /// `push(R1, R0)` for the range join), and emits exactly the pairs the
    /// semi-join keeps.
    Seeded { interval: NodeId },
}

impl<'p> Shape<'p> {
    /// The shape of `nodes[id]`. Only a node of the same statement fuses:
    /// a temporary is read as it is.
    fn of(nodes: &'p [Node], lo: NodeId, id: NodeId) -> Shape<'p> {
        let local = |c: NodeId| Some(&nodes[c as usize]).filter(|_| c >= lo);
        let fused = |join, select, pred, cols| match local(join) {
            Some(Node::Join {
                kind: JoinKind::Inner,
                ..
            }) => Shape::Fused {
                join,
                select,
                pred,
                cols,
            },
            _ => Shape::Plain,
        };
        match &nodes[id as usize] {
            Node::Select { input, pred } => fused(*input, None, Some(pred), None),
            Node::Project { input, cols } => match local(*input) {
                Some(Node::Select { input: join, pred }) => {
                    fused(*join, Some(*input), Some(pred), Some(cols))
                }
                _ => fused(*input, None, None, Some(cols)),
            },
            Node::Join {
                left,
                kind: JoinKind::Semi,
                on: (0, _),
                ..
            } if matches!(local(*left), Some(Node::IntervalJoin(_))) => {
                Shape::Seeded { interval: *left }
            }
            _ => Shape::Plain,
        }
    }
}

/// Execute `prog`: evaluate the statements the result reads, in order, and
/// return the result's relation (borrowed when the result statement is a
/// bare scan).
pub(crate) fn run<'a>(
    prog: &'a Program,
    db: &'a Database,
    opts: ExecOptions,
    stats: &'a mut Stats,
) -> Result<Cow<'a, Relation>, ExecError> {
    let result = prog.result().ok_or(ExecError::NoResult)?.0 as usize;
    let (nodes, stmts) = (prog.nodes(), &prog.stmts()[..=result]);
    let root = |t: TempId| prog.stmt(t).root as usize;
    // the nodes not evaluated on their own: the roots of the statements the
    // result does not read, and the nodes fused into their consumer
    let mut skip = vec![false; nodes.len()];
    for stmt in &stmts[..result] {
        skip[stmt.root as usize] = true;
    }
    for t in (0..=result as u32).rev().map(TempId) {
        if !skip[root(t)] {
            prog.for_each_read(t, |read| skip[root(read)] = false);
        }
    }
    // each evaluated statement's relation, for the later ones that read it
    let mut temps: Vec<Option<Cow<'a, Relation>>> = (0..=result).map(|_| None).collect();
    // what the running statement's nodes produced and their one consumer
    // has not read yet
    let mut pending: Vec<(NodeId, Cow<'a, Relation>)> = Vec::new();
    let mut ctx = ExecCtx { db, opts, stats };
    for (s, stmt) in stmts.iter().enumerate() {
        if skip[stmt.root as usize] {
            continue;
        }
        // Statement boundary: poll the cancellation token between statements
        // so a multi-statement program cannot outlive its deadline by more
        // than one statement.
        ctx.check_cancel()?;
        let lo = prog.first_node(TempId(s as u32));
        for id in lo..=stmt.root {
            match Shape::of(nodes, lo, id) {
                Shape::Fused { join, select, .. } => {
                    skip[join as usize] = true;
                    if let Some(select) = select {
                        skip[select as usize] = true;
                    }
                }
                Shape::Seeded { interval } => skip[interval as usize] = true,
                Shape::Plain => {}
            }
        }
        for id in lo..=stmt.root {
            if skip[id as usize] {
                continue;
            }
            let mut inputs = Inputs {
                prog,
                lo,
                temps: &temps,
                pending: &mut pending,
            };
            let out = eval_node(nodes, id, &mut inputs, &mut ctx)?;
            pending.push((id, out));
        }
        // the root is the statement's last node; anything else left over
        // read nothing
        temps[s] = pending.pop().map(|(_, rel)| rel);
        pending.clear();
        ctx.stats.stmts_evaluated += 1;
        // ... and after it: what the statement emitted counts against the
        // tuple budget even when no later statement polls it
        ctx.opts.check_tuples(ctx.stats.tuples_emitted)?;
    }
    // `stats` may carry earlier executions: skipped = this program's
    // statements minus what *this* execution evaluated
    ctx.stats.stmts_skipped += prog.len() - temps.iter().flatten().count();
    match temps.swap_remove(result) {
        Some(rel) => Ok(rel),
        None => unreachable!("the result statement is evaluated"),
    }
}

/// How a node reads its inputs while a statement (its nodes from `lo`)
/// runs.
struct Inputs<'s, 'a> {
    prog: &'a Program,
    lo: NodeId,
    temps: &'s [Option<Cow<'a, Relation>>],
    pending: &'s mut Vec<(NodeId, Cow<'a, Relation>)>,
}

impl<'s, 'a: 's> Inputs<'s, 'a> {
    /// The relation of input `c`: an earlier statement's is borrowed, one of
    /// this statement's moved out to its one consumer.
    fn take(&mut self, c: NodeId) -> Cow<'s, Relation> {
        if c < self.lo {
            if let Some(Some(rel)) = self.prog.stmt_at(c).map(|t| &self.temps[t.0 as usize]) {
                return Cow::Borrowed(rel);
            }
        } else if let Some(i) = self.pending.iter().position(|(id, _)| *id == c) {
            return self.pending.swap_remove(i).1;
        }
        unreachable!("node {c} is read before it is evaluated")
    }
}

/// Evaluate `nodes[id]` from its inputs.
fn eval_node<'a>(
    nodes: &'a [Node],
    id: NodeId,
    inputs: &mut Inputs<'_, 'a>,
    ctx: &mut ExecCtx<'a>,
) -> Result<Cow<'a, Relation>, ExecError> {
    let out = match (&nodes[id as usize], Shape::of(nodes, inputs.lo, id)) {
        (
            _,
            Shape::Fused {
                join, pred, cols, ..
            },
        ) => {
            ctx.stats.selects += usize::from(pred.is_some());
            ctx.stats.projects += usize::from(cols.is_some());
            let fused = Fused {
                pred: pred.map(|p| CompiledPred::compile(p, ctx.db.dict())),
                cols,
            };
            eval_join(nodes, join, &fused, inputs, ctx)?
        }
        (Node::Join { right, on, .. }, Shape::Seeded { interval }) => {
            let Node::IntervalJoin(spec) = &nodes[interval as usize] else {
                unreachable!("a seeded shape sits over an interval join")
            };
            // Join boundary, as for any join.
            ctx.check_cancel()?;
            ctx.stats.joins += 1;
            // Non-id seed values (NULL, the document marker) equal no
            // ancestor.
            let seeds: FxHashSet<u32> = inputs
                .take(*right)
                .rows()
                .filter_map(|t| t[on.1].as_id())
                .collect();
            eval_interval_join(spec, &inputs.take(spec.left), Some(&seeds), ctx)?
        }
        (Node::Scan(name), _) => {
            return ctx
                .db
                .get(name)
                .map(Cow::Borrowed)
                .ok_or_else(|| ExecError::UnknownRelation(name.clone()))
        }
        (Node::Values(rel), _) => return Ok(Cow::Borrowed(rel)),
        (Node::Select { input, pred }, _) => {
            let rel = inputs.take(*input);
            ctx.stats.selects += 1;
            let compiled = CompiledPred::compile(pred, ctx.db.dict());
            let mut out = Relation::new(rel.arity());
            for t in rel.rows() {
                if compiled.eval(t) {
                    out.push_row(t);
                }
            }
            ctx.stats.tuples_emitted += out.len() as u64;
            out
        }
        (Node::Project { input, cols }, _) => {
            let rel = inputs.take(*input);
            ctx.stats.projects += 1;
            // Source columns are verified statically by [`crate::analyze`];
            // debug builds re-check once per projection (not per row) so an
            // unanalyzed program fails with a diagnostic, not a slice panic.
            debug_assert!(
                rel.is_empty() || cols.iter().all(|(i, _)| *i < rel.arity()),
                "projection source column out of range ({:?} over arity {}); \
                 the program bypassed the static analyzer",
                cols.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
                rel.arity()
            );
            let mut out = Relation::new(cols.len());
            out.reserve(rel.len());
            for t in rel.rows() {
                out.push_iter(cols.iter().map(|(i, _)| t[*i]));
            }
            ctx.stats.tuples_emitted += out.len() as u64;
            out
        }
        (Node::Join { .. }, _) => eval_join(nodes, id, &Fused::default(), inputs, ctx)?,
        (
            Node::Union {
                inputs: arms,
                distinct,
            },
            _,
        ) => {
            let rels: Vec<Cow<'_, Relation>> = arms.iter().map(|&c| inputs.take(c)).collect();
            let arity = rels.first().map(|r| r.arity()).unwrap_or(0);
            if rels.iter().any(|r| r.arity() != arity) {
                return Err(ExecError::SchemaMismatch("union arity".into()));
            }
            ctx.stats.unions += rels.len().saturating_sub(1);
            // bulk merge: adopt the first owned buffer outright, then
            // reserve for the rest (reserving before an adopt would waste
            // the allocation — adopt replaces an empty relation's buffer)
            let rest_len: usize = rels.iter().skip(1).map(|r| r.len()).sum();
            let mut rels = rels.into_iter();
            let mut out = match rels.next() {
                Some(Cow::Owned(r)) => r,
                Some(Cow::Borrowed(r)) => {
                    let mut out = Relation::new(arity);
                    out.reserve(r.len());
                    out.extend_from(r);
                    out
                }
                None => Relation::new(arity),
            };
            out.reserve(rest_len);
            for r in rels {
                match r {
                    Cow::Owned(r) => out.adopt(r),
                    Cow::Borrowed(r) => out.extend_from(r),
                }
            }
            if *distinct {
                out.dedup();
            }
            ctx.stats.tuples_emitted += out.len() as u64;
            out
        }
        (Node::Distinct(input), _) => {
            let mut rel = inputs.take(*input).into_owned();
            rel.dedup();
            ctx.stats.tuples_emitted += rel.len() as u64;
            rel
        }
        (Node::Lfp(spec), _) => {
            let edges = inputs.take(spec.input);
            let push = spec.push.as_ref().map(|p| inputs.take(*p.input().0));
            eval_lfp(spec, &edges, push.as_deref(), ctx)?
        }
        (Node::MultiLfp(spec), _) => {
            let mut rels = HashMap::new();
            let parts = spec.init.iter().map(|(_, c)| *c);
            for c in parts.chain(spec.edges.iter().map(|e| e.rel)) {
                rels.entry(c).or_insert_with(|| inputs.take(c));
            }
            eval_multilfp(spec, |c| &rels[&c], ctx)?
        }
        (Node::IntervalJoin(spec), _) => {
            eval_interval_join(spec, &inputs.take(spec.left), None, ctx)?
        }
    };
    Ok(Cow::Owned(out))
}

/// Evaluate the join `nodes[join]`, applying `fused` to every row it emits.
fn eval_join(
    nodes: &[Node],
    join: NodeId,
    fused: &Fused<'_>,
    inputs: &mut Inputs<'_, '_>,
    ctx: &mut ExecCtx<'_>,
) -> Result<Relation, ExecError> {
    let Node::Join {
        left,
        right,
        on,
        kind,
    } = &nodes[join as usize]
    else {
        unreachable!("node {join} is a join")
    };
    // Join boundary: the cheapest place to poll the token before
    // committing to a potentially large build/probe.
    ctx.check_cancel()?;
    // Cached-index fast path: a join whose build side is a raw base-table
    // scan on an indexed column reuses the load-time index instead of
    // building a hash table.
    let prebuilt = match &nodes[*right as usize] {
        Node::Scan(name) if *right >= inputs.lo => ctx.db.index_of(name, on.1),
        _ => None,
    };
    let (l, r) = (inputs.take(*left), inputs.take(*right));
    debug_assert!(
        fused
            .cols
            .is_none_or(|cols| cols.iter().all(|(i, _)| *i < l.arity() + r.arity())),
        "projection source column out of range over join arity {}; \
         the program bypassed the static analyzer",
        l.arity() + r.arity()
    );
    Ok(hash_join(&l, &r, *on, *kind, ctx.stats, prebuilt, fused))
}

/// `v` as a join key: NULL is none.
#[inline]
fn non_null(v: Value) -> Option<Value> {
    (v != Value::Null).then_some(v)
}

/// Hash join on `left.c_l = right.c_r`. Builds on the right input — or
/// reads `prebuilt`, the database's cached base-edge index of `right` on
/// `c_r`, instead of building — probes with the left, and applies the σ/π
/// `fused` to every row it emits.
///
/// Join keys follow SQL comparison semantics: `NULL = NULL` is *not* true,
/// so [`Value::Null`] keys never match. Build rows with NULL keys are
/// skipped, and probe rows with NULL keys match nothing — dropped by
/// inner/semi joins, kept by anti joins (exactly what the generated SQL's
/// `NOT EXISTS` would do).
fn hash_join(
    left: &Relation,
    right: &Relation,
    (lcol, rcol): (usize, usize),
    kind: JoinKind,
    stats: &mut Stats,
    prebuilt: Option<&RowMultimap<Value>>,
    fused: &Fused<'_>,
) -> Relation {
    stats.joins += 1;
    let out = if let Some(idx) = prebuilt {
        // Cached-index path: no build phase at all.
        stats.join_index_reuses += 1;
        probe(left, right, kind, fused, |t| {
            idx.rows_of(non_null(t[lcol]).as_ref())
        })
    } else {
        let table = RowMultimap::build(right.len(), |i| non_null(right.row(i)[rcol]));
        probe(left, right, kind, fused, |t| {
            table.rows_of(non_null(t[lcol]).as_ref())
        })
    };
    stats.tuples_emitted += out.len() as u64;
    out
}

/// The probe loop of every join: `matches(t)` yields, in
/// ascending order, the build rows whose (non-NULL) key equals probe row
/// `t`'s; the join kind decides what is emitted through `fused`.
fn probe<'l, M: Iterator<Item = u32>>(
    left: &'l Relation,
    right: &Relation,
    kind: JoinKind,
    fused: &Fused<'_>,
    matches: impl Fn(&'l [Value]) -> M,
) -> Relation {
    let mut out = Relation::new(fused.arity(left, right, kind));
    for t in left.rows() {
        let mut matched = matches(t);
        match kind {
            JoinKind::Inner => {
                for ri in matched {
                    fused.emit(t, right.row(ri as usize), &mut out);
                }
            }
            JoinKind::Semi => {
                if matched.next().is_some() {
                    fused.emit(t, &[], &mut out);
                }
            }
            JoinKind::Anti => {
                if matched.next().is_none() {
                    fused.emit(t, &[], &mut out);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Plan, Pred};

    fn rel2(rows: &[(u32, u32)]) -> Relation {
        let mut r = Relation::new(2);
        for &(a, b) in rows {
            r.push(vec![Value::Id(a), Value::Id(b)]);
        }
        r
    }

    /// `plan` as the one statement of a program.
    fn program(plan: &Plan) -> Program {
        let mut prog = Program::new();
        let t = prog.push(plan.clone(), "test");
        prog.set_result(t);
        prog
    }

    fn run_stats(plan: &Plan, db: &Database) -> (Relation, Stats) {
        let mut stats = Stats::default();
        let out = program(plan)
            .execute(db, ExecOptions::default(), &mut stats)
            .unwrap();
        (out, stats)
    }

    fn run(plan: &Plan, db: &Database) -> Relation {
        run_stats(plan, db).0
    }

    fn db_with(name: &str, rel: Relation) -> Database {
        let mut db = Database::new();
        db.insert(name, rel);
        db
    }

    #[test]
    fn scan_and_select() {
        let db = db_with("R", rel2(&[(1, 2), (2, 3)]));
        let p = Plan::Scan("R".into()).select(Pred::ColEqValue(0, Value::Id(1)));
        let out = run(&p, &db);
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0), &[Value::Id(1), Value::Id(2)]);
    }

    #[test]
    fn scan_borrows_without_cloning() {
        let db = db_with("R", rel2(&[(1, 2)]));
        let mut stats = Stats::default();
        let prog = program(&Plan::Scan("R".into()));
        let out = super::run(&prog, &db, ExecOptions::default(), &mut stats).unwrap();
        assert!(
            matches!(out, Cow::Borrowed(_)),
            "a raw scan must not copy the base relation"
        );
        assert!(std::ptr::eq(out.as_ref(), db.get("R").unwrap()));
    }

    #[test]
    fn unknown_relation_errors() {
        let db = Database::new();
        let err = program(&Plan::Scan("missing".into()))
            .execute(&db, ExecOptions::default(), &mut Stats::default())
            .unwrap_err();
        assert_eq!(err, ExecError::UnknownRelation("missing".into()));
    }

    #[test]
    fn project_renames() {
        let db = db_with("R", rel2(&[(1, 2)]));
        let p = Plan::Scan("R".into()).project(vec![(1, "X")]);
        let out = run(&p, &db);
        assert_eq!(out.arity(), 1);
        assert_eq!(out.row(0), &[Value::Id(2)]);
    }

    #[test]
    fn inner_join_concatenates() {
        let mut db = Database::new();
        db.insert("A", rel2(&[(1, 2), (1, 3)]));
        db.insert("B", rel2(&[(2, 9), (3, 8), (4, 7)]));
        // A.T = B.F
        let p = Plan::Scan("A".into()).join_on(Plan::Scan("B".into()), 1, 0);
        let out = run(&p, &db);
        assert_eq!(out.arity(), 4);
        let sorted = out.sorted_tuples();
        assert_eq!(sorted.len(), 2);
        assert_eq!(
            sorted[0],
            vec![Value::Id(1), Value::Id(2), Value::Id(2), Value::Id(9)]
        );
    }

    /// The same join must produce the same rows whether the build table is
    /// fresh or the database's cached base-edge index — and the cached path
    /// must record its reuse.
    #[test]
    fn cached_index_join_matches_fresh_build() {
        let mut db = Database::new();
        db.insert("A", rel2(&[(1, 2), (1, 3), (9, 9)]));
        db.insert("B", rel2(&[(2, 9), (3, 8), (4, 7)]));
        let plans = [
            Plan::Scan("A".into()).join_on(Plan::Scan("B".into()), 1, 0),
            Plan::Scan("A".into()).semi_join(Plan::Scan("B".into()), 1, 0),
            Plan::Scan("A".into()).anti_join(Plan::Scan("B".into()), 1, 0),
        ];
        let fresh: Vec<Relation> = plans.iter().map(|p| run(p, &db)).collect();
        db.build_indexes();
        assert_eq!(db.indexed_relations(), 2);
        for (p, want) in plans.iter().zip(&fresh) {
            let (got, stats) = run_stats(p, &db);
            assert_eq!(got.sorted_tuples(), want.sorted_tuples());
            assert_eq!(stats.join_index_reuses, 1, "cached index was used");
        }
    }

    /// An insert drops the replaced relation's index, and nothing rebuilds
    /// it behind the caller's back: it is gone until the next
    /// `build_indexes`, which then indexes exactly the new rows — every row
    /// under its own key, in ascending order, and no stale row.
    #[test]
    fn insert_invalidates_stale_index() {
        let mut db = db_with("A", rel2(&[(1, 2)]));
        db.build_indexes();
        assert!(db.index_of("A", 0).is_some());
        db.insert("A", rel2(&[(5, 6), (5, 7), (8, 6)]));
        assert_eq!(db.indexed_relations(), 0, "index dropped");
        assert!(db.index_of("A", 0).is_none(), "and not rebuilt on a read");
        db.build_indexes();
        let rel = db.get("A").unwrap();
        for col in 0..2 {
            let idx = db.index_of("A", col).expect("rebuilt by build_indexes");
            for (i, t) in rel.rows().enumerate() {
                let want: Vec<u32> = (0..rel.len() as u32)
                    .filter(|&j| rel.row(j as usize)[col] == t[col])
                    .collect();
                let got: Vec<u32> = idx.rows_of(Some(&t[col])).collect();
                assert_eq!(got, want, "col {col}, key of row {i}");
            }
            assert_eq!(idx.rows_of(Some(&Value::Id(1))).count(), 0, "no stale rows");
        }
        assert_eq!(db.indexed_relations(), 1);
    }

    /// A store that never called `build_indexes` has no index —
    /// plain test databases keep exercising the index-free join path.
    #[test]
    fn never_indexed_store_stays_index_free() {
        let mut db = db_with("A", rel2(&[(1, 2)]));
        assert!(db.index_of("A", 0).is_none());
        db.insert("A", rel2(&[(5, 6)]));
        assert!(db.index_of("A", 0).is_none());
        assert_eq!(db.indexed_relations(), 0);
    }

    /// The derived data's lifecycle, step by step on a small store: after
    /// every `insert`, `set_intervals` and `build_indexes`, each relation
    /// has an interval view iff the store has labels, an index iff
    /// `build_indexes` ran after its last `insert`, and every join answers
    /// row for row what the index-free evaluation answers — a mutated store
    /// never serves a stale index.
    #[test]
    fn mutated_store_queries_are_fresh() {
        enum Step {
            Insert(&'static str, Relation),
            Label,
            Index,
        }
        let labels = || {
            let mut labels = IntervalLabels::with_len(10);
            for n in 0..10u32 {
                labels.set(n, u64::from(n) * 10, u64::from(n) * 10 + 5);
            }
            labels
        };
        let steps = [
            Step::Insert("A", rel2(&[(1, 2), (1, 3)])),
            Step::Insert("B", rel2(&[(2, 9), (3, 8)])),
            Step::Label,
            Step::Index,
            // replace B: old edge (2,9) gone, new edge (2,7) present
            Step::Insert("B", rel2(&[(2, 7)])),
            Step::Label,
            Step::Index,
            Step::Insert("A", rel2(&[(4, 2), (4, 4)])),
            Step::Index,
            Step::Label,
        ];
        // each join with the relation on its build (right) side
        let plans = [
            (
                Plan::Scan("A".into()).join_on(Plan::Scan("B".into()), 1, 0),
                "B",
            ),
            (
                Plan::Scan("A".into()).semi_join(Plan::Scan("B".into()), 1, 0),
                "B",
            ),
            (
                Plan::Scan("A".into()).anti_join(Plan::Scan("B".into()), 1, 0),
                "B",
            ),
            (
                Plan::Scan("B".into()).join_on(Plan::Scan("A".into()), 0, 1),
                "A",
            ),
        ];
        let mut db = Database::new();
        let mut indexed: HashMap<&str, bool> = HashMap::new();
        for (at, step) in steps.into_iter().enumerate() {
            match step {
                Step::Insert(name, rel) => {
                    db.insert(name, rel);
                    indexed.insert(name, false);
                }
                Step::Label => db.set_intervals(labels()),
                Step::Index => {
                    db.build_indexes();
                    indexed.values_mut().for_each(|i| *i = true);
                }
            }
            for (&name, &want) in &indexed {
                let view = db.interval_view(name).is_some();
                assert_eq!(view, db.has_intervals(), "step {at}: {name} view");
                for col in 0..2 {
                    let index = db.index_of(name, col).is_some();
                    assert_eq!(index, want, "step {at}: {name} index on {col}");
                }
            }
            if indexed.len() < 2 {
                continue;
            }
            let mut bare = Database::new();
            for name in db.names() {
                bare.insert(name, db.get(name).unwrap().clone());
            }
            for (p, build_side) in &plans {
                let (got, stats) = run_stats(p, &db);
                assert_eq!(got, run(p, &bare), "step {at}: {p:?}");
                let reused = usize::from(indexed[build_side]);
                assert_eq!(stats.join_index_reuses, reused, "step {at}: {p:?}");
            }
        }
        assert_eq!(
            run(&plans[0].0, &db).sorted_tuples(),
            vec![vec![Value::Id(4), Value::Id(2), Value::Id(2), Value::Id(7)]],
            "the store serves the mutated rows, not the stale ones"
        );
    }

    /// Mutation drops interval labels and every view: the fast path's
    /// gate (`has_intervals`) closes, so interval programs can never run
    /// against rows that carry no label.
    #[test]
    fn insert_drops_interval_labels() {
        let mut db = db_with("A", rel2(&[(0, 1)]));
        let mut labels = IntervalLabels::with_len(2);
        labels.set(0, 0, 30);
        labels.set(1, 10, 20);
        db.set_intervals(labels);
        assert!(db.has_intervals());
        assert_eq!(db.interval_view("A").expect("view built").len(), 1);
        db.insert("B", rel2(&[(0, 1), (1, 2)]));
        assert!(!db.has_intervals(), "mutation clears the labels");
        assert!(db.interval_view("A").is_none(), "and every view");
    }

    #[test]
    fn semi_and_anti_join() {
        let mut db = Database::new();
        db.insert("A", rel2(&[(1, 2), (1, 3), (1, 4)]));
        db.insert("B", rel2(&[(2, 0), (4, 0)]));
        let semi = Plan::Scan("A".into()).semi_join(Plan::Scan("B".into()), 1, 0);
        let out = run(&semi, &db);
        assert_eq!(out.len(), 2);
        let anti = Plan::Scan("A".into()).anti_join(Plan::Scan("B".into()), 1, 0);
        let out = run(&anti, &db);
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0)[1], Value::Id(3));
    }

    #[test]
    fn union_distinct_and_bag() {
        let mut db = Database::new();
        db.insert("A", rel2(&[(1, 2)]));
        db.insert("B", rel2(&[(1, 2), (3, 4)]));
        let bag = Plan::Union {
            inputs: vec![Plan::Scan("A".into()), Plan::Scan("B".into())],
            distinct: false,
        };
        assert_eq!(run(&bag, &db).len(), 3);
        let set = Plan::Union {
            inputs: vec![Plan::Scan("A".into()), Plan::Scan("B".into())],
            distinct: true,
        };
        assert_eq!(run(&set, &db).len(), 2);
    }

    #[test]
    fn distinct_dedups() {
        let db = db_with("A", rel2(&[(1, 2), (1, 2)]));
        let p = Plan::Distinct(Box::new(Plan::Scan("A".into())));
        assert_eq!(run(&p, &db).len(), 1);
    }

    /// A text selection matches the dictionary code of its literal — and a
    /// literal absent from the dictionary matches no row.
    #[test]
    fn compiled_predicates_match_codes_and_strings() {
        let mut db = Database::new();
        let mut coded = Relation::new(2);
        let sel = db.intern_str("sel");
        let other = db.intern_str("other");
        coded.push(vec![Value::Id(1), sel]);
        coded.push(vec![Value::Id(2), other]);
        coded.push(vec![Value::Id(3), Value::Null]);
        db.insert("C", coded);
        let p = Plan::Scan("C".into()).select(Pred::ColEqText(1, "sel".into()));
        let out = run(&p, &db);
        assert_eq!(out.len(), 1, "one 'sel' row");
        assert_eq!(out.row(0)[0], Value::Id(1));
        // a literal the dictionary has never seen: no row carries it
        let p = Plan::Scan("C".into()).select(Pred::ColEqText(1, "absent".into()));
        assert!(run(&p, &db).is_empty(), "absent");
        assert_eq!(db.text(&sel), Some("sel"));
        assert_eq!(db.text(&Value::Id(1)), None, "an id is no text");
    }

    /// SQL comparison semantics: `NULL = NULL` is not true, so NULL keys
    /// must never join — this is exactly what an RDBMS does with the
    /// generated SQL'(LFP) over a nullable `V` column.
    #[test]
    fn null_keys_never_match_in_joins() {
        let vt = |v: Value, t: u32| vec![v, Value::Id(t)];
        let mut db = Database::new();
        let x = db.intern_str("x");
        let mut a = Relation::new(2);
        a.push(vt(Value::Null, 1));
        a.push(vt(x, 2));
        a.push(vt(Value::Null, 3));
        let mut b = Relation::new(2);
        b.push(vt(Value::Null, 10));
        b.push(vt(x, 20));
        db.insert("A", a);
        db.insert("B", b);
        // inner: only the 'x' = 'x' pair, never NULL = NULL
        let inner = Plan::Scan("A".into()).join_on(Plan::Scan("B".into()), 0, 0);
        let out = run(&inner, &db);
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0)[1], Value::Id(2));
        // semi: only the 'x' row survives
        let semi = Plan::Scan("A".into()).semi_join(Plan::Scan("B".into()), 0, 0);
        let out = run(&semi, &db);
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0)[1], Value::Id(2));
        // anti (NOT EXISTS): NULL probe keys match nothing, so they are kept
        let anti = Plan::Scan("A".into()).anti_join(Plan::Scan("B".into()), 0, 0);
        let out = run(&anti, &db);
        let kept: Vec<_> = out.rows().map(|t| t[1]).collect();
        assert_eq!(kept, vec![Value::Id(1), Value::Id(3)]);
    }

    #[test]
    fn stats_count_joins() {
        let mut db = Database::new();
        db.insert("A", rel2(&[(1, 2)]));
        db.insert("B", rel2(&[(2, 3)]));
        let p = Plan::Scan("A".into()).join_on(Plan::Scan("B".into()), 1, 0);
        let (_, stats) = run_stats(&p, &db);
        assert_eq!(stats.joins, 1);
    }
}
