//! Plan execution: databases, the evaluator, and execution options.
//!
//! # Columnar execution core
//!
//! What shapes this module's hot path:
//!
//! * **Borrowed scans** — [`eval_plan`] returns `Cow<Relation>`: a `Scan`
//!   or `Temp` borrows the stored relation instead of cloning it, so
//!   operators read base relations in place and only materialize what they
//!   actually produce.
//! * **One row-multimap under every build table** — a hash-join build side
//!   (single- or multi-column key) is a `crate::multimap::RowMultimap`: a
//!   hash map from the key to its first row plus one `next` array chaining
//!   the rows with an equal key, in ascending row order. Two allocations per
//!   table instead of one `Vec` per distinct key; `Relation::dedup` uses the
//!   same table, and the fixpoint operators the dense-key variant (CSR).
//! * **σ/π fused into the join below** — a `Project`, a `Select`, or
//!   `Project(Select(…))` directly above an inner `Join` is applied while
//!   the join emits: a joined row failing the predicate is never built, and
//!   of one that passes only the projected columns are copied
//!   ([`Stats::tuples_emitted`] counts the narrow rows; `joins`, `selects`
//!   and `projects` still count one per logical operator).
//! * **Seed-restricted range joins** — `Semi(IntervalJoin, seeds)` evaluates
//!   `seeds` first and hands the interval join only those ancestors (§5.2's
//!   `push(R1, R0)`, for the range join): its sweep-or-nested-loop choice is
//!   made on the seeds and it emits exactly the pairs the semi-join keeps.
//! * **Load-time base-edge indexes** — the [`Database`] carries per-relation
//!   hash indexes on the edge columns (`F` → rows, `T` → rows), built once
//!   at load under the `Arc`. A join whose *build* (right) side is a plain
//!   base-table scan probes the cached index instead of building a table
//!   ([`Stats::join_index_reuses`] counts them). The translator's child
//!   steps are `SemiJoin(Scan R_x, small)` — the scan on the *probe* side —
//!   so none of the ten benchmark queries reaches an index today
//!   (`rel.exec.join_index_reuses = 0`); driving those joins from the small
//!   side through the index is the follow-up (ROADMAP item 5).
//! * **Integer-dominated keys** — text values are dictionary-coded at load
//!   ([`crate::dict`]), executor tables hash with the internal Fx hasher
//!   ([`crate::fxhash`]), and multi-column join keys pack into a single
//!   `u128` when every component is a node id / code / small int.

use crate::dict::Dictionary;
use crate::fxhash::{fx_map_with_capacity, fx_set_with_capacity, FxHashMap, FxHashSet};
use crate::interval::{eval_interval_join, IntervalLabels, IntervalView};
use crate::lfp::eval_lfp;
use crate::multilfp::eval_multilfp;
use crate::multimap::RowMultimap;
use crate::plan::{JoinKind, Plan, Pred};
use crate::program::TempId;
use crate::relation::Relation;
use crate::stats::Stats;
use crate::value::Value;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Acquire a read lock, recovering the data from a poisoned lock (the
/// caches hold derived data that is rebuilt deterministically, so a
/// panicked writer cannot leave them logically inconsistent).
fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Acquire a write lock, recovering from poisoning (see [`read_lock`]).
fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// A per-column hash index over a stored relation: value → row indexes.
/// NULL keys are excluded (they can never compare equal in a join).
#[derive(Clone, Debug, Default)]
pub struct ColIndex {
    map: FxHashMap<Value, Vec<u32>>,
}

impl ColIndex {
    fn build(rel: &Relation, col: usize) -> Self {
        let mut map: FxHashMap<Value, Vec<u32>> = fx_map_with_capacity(rel.len());
        for (i, t) in rel.rows().enumerate() {
            if t[col] != Value::Null {
                map.entry(t[col].clone()).or_default().push(i as u32);
            }
        }
        ColIndex { map }
    }

    /// Row indexes holding `v` in the indexed column.
    #[inline]
    pub fn get(&self, v: &Value) -> Option<&[u32]> {
        self.map.get(v).map(Vec::as_slice)
    }

    /// Number of distinct indexed values.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// A database: named base relations (the shredded store), their load-time
/// string [`Dictionary`], cached per-relation edge indexes, and — when the
/// store was shredded from a document — per-node pre/post
/// [`IntervalLabels`] with per-relation sorted interval views.
///
/// # Invariants
///
/// * Dictionary codes ([`Value::Code`]) stored in the relations are
///   load-scoped to this database's dictionary;
/// * cached indexes and interval views are **derived** data:
///   [`Database::insert`] drops the replaced relation's cache entries and
///   the document-wide interval labels (inserted rows carry no label), and
///   the next use rebuilds indexes lazily — a mutated store never serves
///   stale index results;
/// * lazy rebuilds only happen on stores that opted into indexing via
///   [`Database::build_indexes`] — a never-indexed database keeps
///   returning `None` from [`Database::index_of`].
#[derive(Debug, Default)]
pub struct Database {
    relations: HashMap<String, Relation>,
    dict: Dictionary,
    /// name → (index on col 0, index on col 1), for arity ≥ 2 relations.
    /// Interior-mutable so invalidated entries rebuild lazily on next use
    /// (`&self`), even behind an `Arc`.
    indexes: RwLock<HashMap<String, [Arc<ColIndex>; 2]>>,
    /// Whether [`Database::build_indexes`] has run — the opt-in that
    /// enables lazy index (re)builds in [`Database::index_of`].
    indexed: bool,
    /// Pre/post interval labels from the shredder's DFS, or `None` for
    /// stores that were not shredded from a document — or were mutated
    /// after shredding (any [`Database::insert`] clears this, which makes
    /// executions fall back to the LFP path).
    intervals: Option<Arc<IntervalLabels>>,
    /// name → that relation's `T`-column nodes sorted by `start` label
    /// (the sort-merge side of [`Plan::IntervalJoin`]); built alongside
    /// the hash indexes, rebuilt lazily like them.
    interval_views: RwLock<HashMap<String, Arc<IntervalView>>>,
}

impl Clone for Database {
    fn clone(&self) -> Self {
        Database {
            relations: self.relations.clone(),
            dict: self.dict.clone(),
            indexes: RwLock::new(read_lock(&self.indexes).clone()),
            indexed: self.indexed,
            intervals: self.intervals.clone(),
            interval_views: RwLock::new(read_lock(&self.interval_views).clone()),
        }
    }
}

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Register a base relation. Drops the replaced relation's cached
    /// index and interval view, and clears the document-wide interval
    /// labels — rows inserted after shredding carry no pre/post label, so
    /// the interval fast path must not run against a mutated store.
    /// Hash indexes rebuild lazily on next use (if
    /// [`Database::build_indexes`] ever ran); interval labels only come
    /// back via a fresh [`Database::set_intervals`].
    pub fn insert(&mut self, name: &str, rel: Relation) {
        write_lock(&self.indexes).remove(name);
        write_lock(&self.interval_views).remove(name);
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

    /// Decode a value for rendering ([`Value::Code`] → [`Value::Str`]).
    pub fn decode_value(&self, v: &Value) -> Value {
        self.dict.decode(v)
    }

    /// A copy of `rel` with every dictionary code decoded back to its
    /// string — for rendering stored relations to humans.
    pub fn decoded(&self, rel: &Relation) -> Relation {
        let mut out = Relation::new(rel.arity());
        out.reserve(rel.len());
        for t in rel.rows() {
            out.push_iter(t.iter().map(|v| self.dict.decode(v)));
        }
        out
    }

    /// Build the per-relation edge-column indexes (`F` → rows, `T` → rows)
    /// for every arity ≥ 2 relation that does not have one yet — and, when
    /// interval labels are present, the per-relation sorted interval views
    /// alongside them. Loaders call this once before the store goes behind
    /// an `Arc`; idempotent. It also opts the store into *lazy* rebuilds:
    /// after a later [`Database::insert`], the next [`Database::index_of`]
    /// on the replaced relation rebuilds its index on the fly.
    pub fn build_indexes(&mut self) {
        self.indexed = true;
        let mut indexes = write_lock(&self.indexes);
        let mut views = write_lock(&self.interval_views);
        for (name, rel) in &self.relations {
            if rel.arity() < 2 {
                continue;
            }
            if !indexes.contains_key(name) {
                indexes.insert(
                    name.clone(),
                    [
                        Arc::new(ColIndex::build(rel, 0)),
                        Arc::new(ColIndex::build(rel, 1)),
                    ],
                );
            }
            if let Some(labels) = &self.intervals {
                if !views.contains_key(name) {
                    views.insert(name.clone(), Arc::new(IntervalView::build(rel, labels)));
                }
            }
        }
    }

    /// The index of `name` on column `col` (0 = `F`, 1 = `T`), if this
    /// store is indexed ([`Database::build_indexes`]). A relation whose
    /// cached entry was invalidated by [`Database::insert`] is re-indexed
    /// here, lazily, so callers never observe a stale index.
    pub fn index_of(&self, name: &str, col: usize) -> Option<Arc<ColIndex>> {
        if col > 1 || !self.indexed {
            return None;
        }
        if let Some(pair) = read_lock(&self.indexes).get(name) {
            return Some(Arc::clone(&pair[col]));
        }
        let rel = self.relations.get(name)?;
        if rel.arity() < 2 {
            return None;
        }
        let pair = [
            Arc::new(ColIndex::build(rel, 0)),
            Arc::new(ColIndex::build(rel, 1)),
        ];
        let got = Arc::clone(&pair[col]);
        // A racing rebuild of the same relation produces an identical
        // index; either insert order yields a correct cache.
        write_lock(&self.indexes).insert(name.to_string(), pair);
        Some(got)
    }

    /// Number of relations with cached edge indexes.
    pub fn indexed_relations(&self) -> usize {
        read_lock(&self.indexes).len()
    }

    /// Attach the shredder's per-node pre/post interval labels, replacing
    /// any previous labels and dropping every cached interval view (views
    /// are derived from the labels).
    pub fn set_intervals(&mut self, labels: IntervalLabels) {
        write_lock(&self.interval_views).clear();
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

    /// The sorted interval view of `name`'s `T` column, building (or
    /// lazily rebuilding, after an invalidation) on first use. `None` when
    /// the store has no interval labels or no such relation.
    pub fn interval_view(&self, name: &str) -> Option<Arc<IntervalView>> {
        let labels = self.intervals.as_ref()?;
        if let Some(view) = read_lock(&self.interval_views).get(name) {
            return Some(Arc::clone(view));
        }
        let rel = self.relations.get(name)?;
        let view = Arc::new(IntervalView::build(rel, labels));
        write_lock(&self.interval_views).insert(name.to_string(), Arc::clone(&view));
        Some(view)
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
    /// A plan referenced a temporary that has not been produced.
    UnknownTemp(TempId),
    /// Schema mismatch in a set operation.
    SchemaMismatch(String),
    /// An [`Plan::IntervalJoin`] ran against a store without interval
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
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownRelation(n) => write!(f, "unknown base relation {n}"),
            ExecError::UnknownTemp(t) => write!(f, "unknown temporary {t:?}"),
            ExecError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            ExecError::MissingIntervals(n) => {
                write!(
                    f,
                    "interval join over {n} on a store without interval labels"
                )
            }
            ExecError::DeadlineExceeded => write!(f, "execution deadline exceeded"),
            ExecError::BudgetExceeded(m) => write!(f, "execution budget exceeded: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Mutable execution context threaded through evaluation.
pub struct ExecCtx<'a> {
    /// The database of base relations.
    pub db: &'a Database,
    /// Materialized temporaries.
    pub env: &'a HashMap<TempId, Relation>,
    /// Options.
    pub opts: ExecOptions,
    /// Statistics accumulator.
    pub stats: &'a mut Stats,
}

impl ExecCtx<'_> {
    /// Poll this execution's cancellation token (deadline + tuple budget).
    #[inline]
    pub fn check_cancel(&self) -> Result<(), ExecError> {
        self.opts.check_cancel(self.stats)
    }
}

/// A predicate compiled against the database dictionary: string literals
/// are resolved to their dictionary codes *once per operator invocation*,
/// so the per-row comparison on a coded column is a `u32` equality. A
/// literal may still meet runtime-produced [`Value::Str`]s (the
/// multi-fixpoint's `Rid` tags), which the compiled form matches by text.
enum CompiledPred {
    True,
    ColEqValue(usize, Value),
    ColEqStr {
        col: usize,
        code: Option<u32>,
        lit: Arc<str>,
    },
    ColEqCol(usize, usize),
    And(Box<CompiledPred>, Box<CompiledPred>),
    Or(Box<CompiledPred>, Box<CompiledPred>),
    Not(Box<CompiledPred>),
}

impl CompiledPred {
    fn compile(pred: &Pred, dict: &Dictionary) -> CompiledPred {
        match pred {
            Pred::True => CompiledPred::True,
            Pred::ColEqValue(c, Value::Str(s)) => {
                let code = dict.code_of(s);
                if let Some(code) = code {
                    dict.verify_code(code, s);
                }
                CompiledPred::ColEqStr {
                    col: *c,
                    code,
                    lit: Arc::clone(s),
                }
            }
            Pred::ColEqValue(c, v) => CompiledPred::ColEqValue(*c, v.clone()),
            Pred::ColEqCol(a, b) => CompiledPred::ColEqCol(*a, *b),
            Pred::And(a, b) => CompiledPred::And(
                Box::new(CompiledPred::compile(a, dict)),
                Box::new(CompiledPred::compile(b, dict)),
            ),
            Pred::Or(a, b) => CompiledPred::Or(
                Box::new(CompiledPred::compile(a, dict)),
                Box::new(CompiledPred::compile(b, dict)),
            ),
            Pred::Not(p) => CompiledPred::Not(Box::new(CompiledPred::compile(p, dict))),
        }
    }

    /// Column indexes are verified statically by [`crate::analyze`]; debug
    /// builds additionally fail here with a named diagnostic instead of a
    /// bare slice panic. The release path is unchanged.
    fn eval<R: Row + ?Sized>(&self, tuple: &R) -> bool {
        #[inline]
        fn check<R: Row + ?Sized>(col: usize, tuple: &R) {
            debug_assert!(
                col < tuple.arity(),
                "compiled predicate column {col} out of range (tuple arity {}); \
                 the plan bypassed the static analyzer",
                tuple.arity()
            );
        }
        match self {
            CompiledPred::True => true,
            CompiledPred::ColEqValue(c, v) => {
                check(*c, tuple);
                tuple.col(*c) == v
            }
            CompiledPred::ColEqStr { col, code, lit } => {
                check(*col, tuple);
                match tuple.col(*col) {
                    Value::Code(c) => *code == Some(*c),
                    Value::Str(s) => **s == **lit,
                    _ => false,
                }
            }
            CompiledPred::ColEqCol(a, b) => {
                check(*a, tuple);
                check(*b, tuple);
                tuple.col(*a) == tuple.col(*b)
            }
            CompiledPred::And(a, b) => a.eval(tuple) && b.eval(tuple),
            CompiledPred::Or(a, b) => a.eval(tuple) || b.eval(tuple),
            CompiledPred::Not(p) => !p.eval(tuple),
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
            Some(cols) => out.push_iter(cols.iter().map(|(c, _)| row.col(*c).clone())),
            None => out.push_concat(left, right),
        }
    }
}

/// Evaluate one plan to a relation. `Scan`/`Temp`/`Values` borrow their
/// stored relation (no clone); operator nodes produce owned results.
pub fn eval_plan<'a>(
    plan: &'a Plan,
    ctx: &mut ExecCtx<'a>,
) -> Result<Cow<'a, Relation>, ExecError> {
    match plan {
        Plan::Scan(name) => ctx
            .db
            .get(name)
            .map(Cow::Borrowed)
            .ok_or_else(|| ExecError::UnknownRelation(name.clone())),
        Plan::Temp(t) => ctx
            .env
            .get(t)
            .map(Cow::Borrowed)
            .ok_or(ExecError::UnknownTemp(*t)),
        Plan::Values(rel) => Ok(Cow::Borrowed(rel)),
        Plan::Select { input, pred } => {
            if let Some(join) = JoinNode::fusable(input) {
                ctx.stats.selects += 1;
                let fused = Fused {
                    pred: Some(CompiledPred::compile(pred, ctx.db.dict())),
                    cols: None,
                };
                return Ok(Cow::Owned(eval_join(join, fused, ctx)?));
            }
            let rel = eval_plan(input, ctx)?;
            ctx.stats.selects += 1;
            let compiled = CompiledPred::compile(pred, ctx.db.dict());
            let mut out = Relation::new(rel.arity());
            for t in rel.rows() {
                if compiled.eval(t) {
                    out.push_row(t);
                }
            }
            ctx.stats.tuples_emitted += out.len() as u64;
            Ok(Cow::Owned(out))
        }
        Plan::Project { input, cols } => {
            // π, or π over σ, directly above an inner join
            let (below, pred) = match &**input {
                Plan::Select { input, pred } => (&**input, Some(pred)),
                other => (other, None),
            };
            if let Some(join) = JoinNode::fusable(below) {
                ctx.stats.projects += 1;
                ctx.stats.selects += usize::from(pred.is_some());
                let fused = Fused {
                    pred: pred.map(|p| CompiledPred::compile(p, ctx.db.dict())),
                    cols: Some(cols),
                };
                return Ok(Cow::Owned(eval_join(join, fused, ctx)?));
            }
            let rel = eval_plan(input, ctx)?;
            ctx.stats.projects += 1;
            // Source columns are verified statically by [`crate::analyze`];
            // debug builds re-check once per projection (not per row) so an
            // unanalyzed plan fails with a diagnostic, not a slice panic.
            debug_assert!(
                rel.is_empty() || cols.iter().all(|(i, _)| *i < rel.arity()),
                "projection source column out of range ({:?} over arity {}); \
                 the plan bypassed the static analyzer",
                cols.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
                rel.arity()
            );
            let mut out = Relation::new(cols.len());
            out.reserve(rel.len());
            for t in rel.rows() {
                out.push_iter(cols.iter().map(|(i, _)| t[*i].clone()));
            }
            ctx.stats.tuples_emitted += out.len() as u64;
            Ok(Cow::Owned(out))
        }
        Plan::Join {
            left,
            right,
            on,
            kind,
        } => {
            let join = JoinNode {
                left,
                right,
                on,
                kind: *kind,
            };
            Ok(Cow::Owned(eval_join(join, Fused::default(), ctx)?))
        }
        Plan::Union { inputs, distinct } => {
            let mut rels = Vec::with_capacity(inputs.len());
            for p in inputs {
                rels.push(eval_plan(p, ctx)?);
            }
            let arity = rels.first().map(|r| r.arity()).unwrap_or(0);
            if rels.iter().any(|r| r.arity() != arity) {
                return Err(ExecError::SchemaMismatch("union arity".into()));
            }
            ctx.stats.unions += rels.len().saturating_sub(1);
            // bulk merge: adopt the first owned buffer outright, then
            // reserve for the rest (reserving before an adopt would waste
            // the allocation — adopt replaces an empty relation's buffer)
            let rest_len: usize = rels.iter().skip(1).map(|r| r.len()).sum();
            let mut inputs = rels.into_iter();
            let mut out = match inputs.next() {
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
            for r in inputs {
                match r {
                    Cow::Owned(r) => out.adopt(r),
                    Cow::Borrowed(r) => out.extend_from(r),
                }
            }
            if *distinct {
                out.dedup();
            }
            ctx.stats.tuples_emitted += out.len() as u64;
            Ok(Cow::Owned(out))
        }
        Plan::Diff { left, right } => {
            let l = eval_plan(left, ctx)?;
            let r = eval_plan(right, ctx)?;
            if l.arity() != r.arity() {
                return Err(ExecError::SchemaMismatch("difference arity".into()));
            }
            ctx.stats.set_ops += 1;
            let mut rset = fx_set_with_capacity::<&[Value]>(r.len());
            rset.extend(r.rows());
            let mut out = Relation::new(l.arity());
            for t in l.rows() {
                if !rset.contains(t) {
                    out.push_row(t);
                }
            }
            ctx.stats.tuples_emitted += out.len() as u64;
            Ok(Cow::Owned(out))
        }
        Plan::Intersect { left, right } => {
            let l = eval_plan(left, ctx)?;
            let r = eval_plan(right, ctx)?;
            if l.arity() != r.arity() {
                return Err(ExecError::SchemaMismatch("intersection arity".into()));
            }
            ctx.stats.set_ops += 1;
            let mut rset = fx_set_with_capacity::<&[Value]>(r.len());
            rset.extend(r.rows());
            let mut out = Relation::new(l.arity());
            for t in l.rows() {
                if rset.contains(t) {
                    out.push_row(t);
                }
            }
            ctx.stats.tuples_emitted += out.len() as u64;
            Ok(Cow::Owned(out))
        }
        Plan::Distinct(input) => {
            let mut rel = eval_plan(input, ctx)?.into_owned();
            rel.dedup();
            ctx.stats.tuples_emitted += rel.len() as u64;
            Ok(Cow::Owned(rel))
        }
        Plan::Lfp(spec) => Ok(Cow::Owned(eval_lfp(spec, ctx)?)),
        Plan::MultiLfp(spec) => Ok(Cow::Owned(eval_multilfp(spec, ctx)?)),
        Plan::IntervalJoin(spec) => Ok(Cow::Owned(eval_interval_join(spec, None, ctx)?)),
    }
}

/// The fields of a [`Plan::Join`].
struct JoinNode<'a> {
    left: &'a Plan,
    right: &'a Plan,
    on: &'a [(usize, usize)],
    kind: JoinKind,
}

impl<'a> JoinNode<'a> {
    /// `plan` as the join a σ/π directly above it fuses into: an inner join
    /// (semi and anti joins emit stored left rows as they are).
    fn fusable(plan: &'a Plan) -> Option<Self> {
        match plan {
            Plan::Join {
                left,
                right,
                on,
                kind: JoinKind::Inner,
            } => Some(JoinNode {
                left,
                right,
                on,
                kind: JoinKind::Inner,
            }),
            _ => None,
        }
    }
}

/// Evaluate a join, applying `fused` to every row it emits.
fn eval_join<'a>(
    join: JoinNode<'a>,
    fused: Fused<'a>,
    ctx: &mut ExecCtx<'a>,
) -> Result<Relation, ExecError> {
    // Join boundary: the cheapest place to poll the token before
    // committing to a potentially large build/probe.
    ctx.check_cancel()?;
    if let (JoinKind::Semi, Plan::IntervalJoin(spec), [(0, seed_col)]) =
        (join.kind, join.left, join.on)
    {
        // Seed push-down (the paper's `push(R1, R0)` for the range join):
        // a semi-join keeps the (ancestor, descendant) pairs whose ancestor
        // is in `right`, so only those ancestors enter the interval join —
        // it then emits exactly the pairs the semi-join would have kept.
        // Non-id seed values (NULL, the document marker) equal no ancestor.
        let seeds = eval_plan(join.right, ctx)?;
        ctx.stats.joins += 1;
        let seeds: FxHashSet<u32> = seeds.rows().filter_map(|t| t[*seed_col].as_id()).collect();
        return eval_interval_join(spec, Some(&seeds), ctx);
    }
    let l = eval_plan(join.left, ctx)?;
    // Cached-index fast path: a single-column join whose build side is a
    // raw base-table scan on an indexed column reuses the load-time index
    // instead of building a hash table.
    let prebuilt = match (join.right, join.on) {
        (Plan::Scan(name), [(_, rcol)]) => ctx.db.index_of(name, *rcol),
        _ => None,
    };
    let r = eval_plan(join.right, ctx)?;
    debug_assert!(
        fused
            .cols
            .is_none_or(|cols| cols.iter().all(|(i, _)| *i < l.arity() + r.arity())),
        "projection source column out of range over join arity {}; \
         the plan bypassed the static analyzer",
        l.arity() + r.arity()
    );
    Ok(hash_join(
        &l,
        &r,
        join.on,
        join.kind,
        ctx.stats,
        prebuilt.as_deref(),
        &fused,
    ))
}

/// A multi-column join key. When every component is a node id, dictionary
/// code, document marker or small integer (the hot case — join columns are
/// ids), an arity ≤ 2 key packs into one `u128` and the table hashes one
/// word. Otherwise the key falls back to a borrowed composite. The variant
/// is a deterministic function of the component *values*, so equal logical
/// keys always land in the same variant and `Eq`/`Hash` stay consistent.
#[derive(PartialEq, Eq, Hash)]
enum JoinKey<'a> {
    Packed(u128),
    Mixed(Vec<&'a Value>),
}

/// Pack one key component into a tagged 64-bit word, or `None` when the
/// value doesn't fit (strings, large integers).
#[inline]
fn pack_component(v: &Value) -> Option<u64> {
    match v {
        Value::Doc => Some(1 << 32),
        Value::Id(n) => Some((2 << 32) | u64::from(*n)),
        Value::Code(c) => Some((3 << 32) | u64::from(*c)),
        Value::Int(i) => u32::try_from(*i).ok().map(|u| (4 << 32) | u64::from(u)),
        Value::Null | Value::Str(_) => None,
    }
}

/// Borrowed multi-column join key, or `None` if any key column is NULL (a
/// NULL key can never compare equal to anything). Keys of arity ≤ 2 with
/// packable components allocate nothing (one table only ever holds keys of
/// one arity, so 1- and 2-component packings cannot collide).
fn key_of<'a>(t: &'a [Value], cols: &[usize]) -> Option<JoinKey<'a>> {
    for &c in cols {
        if t[c] == Value::Null {
            return None;
        }
    }
    if cols.len() <= 2 {
        let mut packed: u128 = 0;
        let mut all_packable = true;
        for &c in cols {
            match pack_component(&t[c]) {
                Some(w) => packed = (packed << 64) | u128::from(w),
                None => {
                    all_packable = false;
                    break;
                }
            }
        }
        if all_packable {
            return Some(JoinKey::Packed(packed));
        }
    }
    Some(JoinKey::Mixed(cols.iter().map(|&c| &t[c]).collect()))
}

/// `v` as a join key: NULL is none.
#[inline]
fn non_null(v: &Value) -> Option<&Value> {
    (*v != Value::Null).then_some(v)
}

/// Hash join. Builds on the right input — or reads `prebuilt`, the
/// database's cached base-edge index of `right` on the single join column,
/// instead of building — probes with the left, and applies the σ/π `fused`
/// to every row it emits. The common single-column equijoin path avoids
/// per-row key allocation.
///
/// Join keys follow SQL comparison semantics: `NULL = NULL` is *not* true,
/// so [`Value::Null`] keys never match. Build rows with NULL keys are
/// skipped, and probe rows with NULL keys match nothing — dropped by
/// inner/semi joins, kept by anti joins (exactly what the generated SQL's
/// `NOT EXISTS` would do).
fn hash_join(
    left: &Relation,
    right: &Relation,
    on: &[(usize, usize)],
    kind: JoinKind,
    stats: &mut Stats,
    prebuilt: Option<&ColIndex>,
    fused: &Fused<'_>,
) -> Relation {
    stats.joins += 1;
    let out = if let (Some(idx), [(lcol, _)]) = (prebuilt, on) {
        // Cached-index path: no build phase at all.
        stats.join_index_reuses += 1;
        probe(left, right, kind, fused, |t| {
            let rows = non_null(&t[*lcol]).and_then(|v| idx.get(v));
            rows.unwrap_or_default().iter().copied()
        })
    } else if let [(lcol, rcol)] = *on {
        // fast path: borrowed single-column key
        let table = RowMultimap::build(right.len(), |i| non_null(&right.row(i)[rcol]));
        probe(left, right, kind, fused, |t| {
            table.rows_of(non_null(&t[lcol]).as_ref())
        })
    } else {
        // general path: multi-column keys, packed into one word when
        // possible; `key_of` is None when the key contains a NULL and can
        // never compare equal to anything
        let lcols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
        let rcols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
        let table = RowMultimap::build(right.len(), |i| key_of(right.row(i), &rcols));
        probe(left, right, kind, fused, |t| {
            table.rows_of(key_of(t, &lcols).as_ref())
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
    use crate::plan::Pred;

    fn rel2(rows: &[(u32, u32)]) -> Relation {
        let mut r = Relation::new(2);
        for &(a, b) in rows {
            r.push(vec![Value::Id(a), Value::Id(b)]);
        }
        r
    }

    fn run(plan: &Plan, db: &Database) -> Relation {
        let env = HashMap::new();
        let mut stats = Stats::default();
        let mut ctx = ExecCtx {
            db,
            env: &env,
            opts: ExecOptions::default(),
            stats: &mut stats,
        };
        eval_plan(plan, &mut ctx).unwrap().into_owned()
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
        let env = HashMap::new();
        let mut stats = Stats::default();
        let mut ctx = ExecCtx {
            db: &db,
            env: &env,
            opts: ExecOptions::default(),
            stats: &mut stats,
        };
        let plan = Plan::Scan("R".into());
        let out = eval_plan(&plan, &mut ctx).unwrap();
        assert!(
            matches!(out, Cow::Borrowed(_)),
            "a raw scan must not copy the base relation"
        );
        assert!(std::ptr::eq(out.as_ref(), db.get("R").unwrap()));
    }

    #[test]
    fn unknown_relation_errors() {
        let db = Database::new();
        let env = HashMap::new();
        let mut stats = Stats::default();
        let mut ctx = ExecCtx {
            db: &db,
            env: &env,
            opts: ExecOptions::default(),
            stats: &mut stats,
        };
        let plan = Plan::Scan("missing".into());
        let err = eval_plan(&plan, &mut ctx).unwrap_err();
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
            let env = HashMap::new();
            let mut stats = Stats::default();
            let mut ctx = ExecCtx {
                db: &db,
                env: &env,
                opts: ExecOptions::default(),
                stats: &mut stats,
            };
            let got = eval_plan(p, &mut ctx).unwrap().into_owned();
            assert_eq!(got.sorted_tuples(), want.sorted_tuples());
            assert_eq!(stats.join_index_reuses, 1, "cached index was used");
        }
    }

    /// An insert must never leave a stale index observable: the replaced
    /// relation's index rebuilds lazily on next use, so the first lookup
    /// after the mutation already reflects the new rows.
    #[test]
    fn insert_invalidates_stale_index() {
        let mut db = db_with("A", rel2(&[(1, 2)]));
        db.build_indexes();
        assert!(db.index_of("A", 0).is_some());
        db.insert("A", rel2(&[(5, 6)]));
        assert_eq!(db.indexed_relations(), 0, "cached entry dropped");
        let idx = db.index_of("A", 0).expect("rebuilt lazily on next use");
        assert!(idx.get(&Value::Id(5)).is_some(), "fresh rows indexed");
        assert!(idx.get(&Value::Id(1)).is_none(), "no stale rows");
        assert_eq!(db.indexed_relations(), 1, "lazy rebuild cached");
    }

    /// A store that never called `build_indexes` must not index lazily —
    /// plain test databases keep exercising the index-free join path.
    #[test]
    fn never_indexed_store_stays_index_free() {
        let mut db = db_with("A", rel2(&[(1, 2)]));
        assert!(db.index_of("A", 0).is_none());
        db.insert("A", rel2(&[(5, 6)]));
        assert!(db.index_of("A", 0).is_none());
        assert_eq!(db.indexed_relations(), 0);
    }

    /// A query against a mutated store must see the mutation — the join
    /// result served through the lazily rebuilt index equals a fresh
    /// index-free evaluation (the regression ISSUE 9 satellite pins).
    #[test]
    fn mutated_store_queries_are_fresh() {
        let mut db = Database::new();
        db.insert("A", rel2(&[(1, 2), (1, 3)]));
        db.insert("B", rel2(&[(2, 9), (3, 8)]));
        db.build_indexes();
        let p = Plan::Scan("A".into()).join_on(Plan::Scan("B".into()), 1, 0);
        assert_eq!(run(&p, &db).len(), 2);
        // replace B: old edge (2,9) gone, new edge (2,77) present
        db.insert("B", rel2(&[(2, 77)]));
        let out = run(&p, &db);
        assert_eq!(out.len(), 1);
        assert_eq!(
            out.row(0),
            &[Value::Id(1), Value::Id(2), Value::Id(2), Value::Id(77)],
            "the rebuilt index serves the mutated rows, not the stale ones"
        );
    }

    /// Mutation drops interval labels and cached views: the fast path's
    /// gate (`has_intervals`) closes, so interval programs can never run
    /// against rows that carry no label.
    #[test]
    fn insert_drops_interval_labels() {
        let mut db = db_with("A", rel2(&[(0, 1)]));
        let mut labels = IntervalLabels::with_len(2);
        labels.set(0, 0, 30);
        labels.set(1, 10, 20);
        db.set_intervals(labels);
        db.build_indexes();
        assert!(db.has_intervals());
        assert_eq!(db.interval_view("A").expect("view built").len(), 1);
        db.insert("A", rel2(&[(0, 1), (1, 2)]));
        assert!(!db.has_intervals(), "mutation clears the labels");
        assert!(db.interval_view("A").is_none(), "and the views");
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
    fn diff_and_intersect() {
        let mut db = Database::new();
        db.insert("A", rel2(&[(1, 2), (3, 4)]));
        db.insert("B", rel2(&[(3, 4)]));
        let diff = Plan::Diff {
            left: Box::new(Plan::Scan("A".into())),
            right: Box::new(Plan::Scan("B".into())),
        };
        let out = run(&diff, &db);
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0)[0], Value::Id(1));
        let inter = Plan::Intersect {
            left: Box::new(Plan::Scan("A".into())),
            right: Box::new(Plan::Scan("B".into())),
        };
        let out = run(&inter, &db);
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0)[0], Value::Id(3));
    }

    #[test]
    fn distinct_dedups() {
        let db = db_with("A", rel2(&[(1, 2), (1, 2)]));
        let p = Plan::Distinct(Box::new(Plan::Scan("A".into())));
        assert_eq!(run(&p, &db).len(), 1);
    }

    /// String selections work identically against dictionary-coded columns
    /// (the loaded store) and raw `Str` columns (runtime-produced
    /// relations) — including under negation when the literal is absent
    /// from the dictionary.
    #[test]
    fn compiled_predicates_match_codes_and_strings() {
        let mut db = Database::new();
        let mut coded = Relation::new(2);
        let sel = db.intern_str("sel");
        let other = db.intern_str("other");
        coded.push(vec![Value::Id(1), sel.clone()]);
        coded.push(vec![Value::Id(2), other]);
        coded.push(vec![Value::Id(3), Value::Null]);
        db.insert("C", coded);
        let mut raw = Relation::new(2);
        raw.push(vec![Value::Id(1), Value::str("sel")]);
        raw.push(vec![Value::Id(2), Value::str("other")]);
        db.insert("S", raw);
        for rel in ["C", "S"] {
            let p = Plan::Scan(rel.into()).select(Pred::ColEqValue(1, Value::str("sel")));
            let out = run(&p, &db);
            assert_eq!(out.len(), 1, "{rel}: one 'sel' row");
            assert_eq!(out.row(0)[0], Value::Id(1));
            // negation with a literal the dictionary has never seen: every
            // row passes (no row carries that text)
            let p = Plan::Scan(rel.into()).select(Pred::Not(Box::new(Pred::ColEqValue(
                1,
                Value::str("absent"),
            ))));
            let out = run(&p, &db);
            assert_eq!(out.len(), db.get(rel).unwrap().len(), "{rel}: ¬absent");
        }
        assert_eq!(db.decode_value(&sel), Value::str("sel"));
    }

    /// SQL comparison semantics: `NULL = NULL` is not true, so NULL keys
    /// must never join — this is exactly what an RDBMS does with the
    /// generated SQL'(LFP) over a nullable `V` column.
    #[test]
    fn null_keys_never_match_in_joins() {
        let vt = |v: Value, t: u32| vec![v, Value::Id(t)];
        let mut a = Relation::new(2);
        a.push(vt(Value::Null, 1));
        a.push(vt(Value::str("x"), 2));
        a.push(vt(Value::Null, 3));
        let mut b = Relation::new(2);
        b.push(vt(Value::Null, 10));
        b.push(vt(Value::str("x"), 20));
        let mut db = Database::new();
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
        let kept: Vec<_> = out.rows().map(|t| t[1].clone()).collect();
        assert_eq!(kept, vec![Value::Id(1), Value::Id(3)]);
    }

    /// The multi-column key path must apply the same NULL rule: a key with
    /// any NULL component matches nothing.
    #[test]
    fn null_keys_never_match_multi_column() {
        let row = |a: Value, b: Value, id: u32| vec![a, b, Value::Id(id)];
        let mut l = Relation::new(3);
        l.push(row(Value::Id(1), Value::Null, 1));
        l.push(row(Value::Id(1), Value::str("y"), 2));
        let mut r = Relation::new(3);
        r.push(row(Value::Id(1), Value::Null, 10));
        r.push(row(Value::Id(1), Value::str("y"), 20));
        let mut db = Database::new();
        db.insert("L", l);
        db.insert("R", r);
        let p = Plan::Join {
            left: Box::new(Plan::Scan("L".into())),
            right: Box::new(Plan::Scan("R".into())),
            on: vec![(0, 0), (1, 1)],
            kind: JoinKind::Inner,
        };
        let out = run(&p, &db);
        assert_eq!(out.len(), 1, "only (1,'y') matches (1,'y')");
        assert_eq!(out.row(0)[2], Value::Id(2));
        let anti = Plan::Join {
            left: Box::new(Plan::Scan("L".into())),
            right: Box::new(Plan::Scan("R".into())),
            on: vec![(0, 0), (1, 1)],
            kind: JoinKind::Anti,
        };
        let out = run(&anti, &db);
        assert_eq!(out.len(), 1, "the NULL-key probe row is kept by anti");
        assert_eq!(out.row(0)[2], Value::Id(1));
    }

    /// Two-column keys over ids/codes pack into one `u128` word; mixed
    /// rows with strings fall back to the composite key. Both must agree
    /// with each other (equal logical keys → same variant) and join
    /// correctly together in one table.
    #[test]
    fn packed_and_mixed_keys_coexist() {
        let row = |a: Value, b: Value, id: u32| vec![a, b, Value::Id(id)];
        let mut l = Relation::new(3);
        l.push(row(Value::Id(1), Value::Id(2), 1)); // packs
        l.push(row(Value::Id(1), Value::str("s"), 2)); // mixed
        l.push(row(Value::Doc, Value::Int(7), 3)); // packs
        l.push(row(Value::Int(1 << 40), Value::Id(1), 4)); // big int: mixed
        let mut r = Relation::new(3);
        r.push(row(Value::Id(1), Value::Id(2), 10));
        r.push(row(Value::Id(1), Value::str("s"), 20));
        r.push(row(Value::Doc, Value::Int(7), 30));
        r.push(row(Value::Int(1 << 40), Value::Id(1), 40));
        r.push(row(Value::Id(9), Value::Id(9), 50));
        let mut db = Database::new();
        db.insert("L", l);
        db.insert("R", r);
        let p = Plan::Join {
            left: Box::new(Plan::Scan("L".into())),
            right: Box::new(Plan::Scan("R".into())),
            on: vec![(0, 0), (1, 1)],
            kind: JoinKind::Inner,
        };
        let out = run(&p, &db);
        assert_eq!(out.len(), 4, "every left row finds exactly its match");
        // key components must not cross-match between types (Id vs Code vs
        // Int with equal payloads)
        assert_eq!(pack_component(&Value::Id(5)), Some((2 << 32) | 5));
        assert_ne!(
            pack_component(&Value::Id(5)),
            pack_component(&Value::Code(5))
        );
        assert_ne!(
            pack_component(&Value::Id(5)),
            pack_component(&Value::Int(5))
        );
        assert_eq!(
            pack_component(&Value::Int(1 << 40)),
            None,
            "big int falls back"
        );
        assert_eq!(pack_component(&Value::Null), None);
    }

    #[test]
    fn stats_count_joins() {
        let mut db = Database::new();
        db.insert("A", rel2(&[(1, 2)]));
        db.insert("B", rel2(&[(2, 3)]));
        let p = Plan::Scan("A".into()).join_on(Plan::Scan("B".into()), 1, 0);
        let env = HashMap::new();
        let mut stats = Stats::default();
        let mut ctx = ExecCtx {
            db: &db,
            env: &env,
            opts: ExecOptions::default(),
            stats: &mut stats,
        };
        eval_plan(&p, &mut ctx).unwrap();
        assert_eq!(stats.joins, 1);
    }
}
