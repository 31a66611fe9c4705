//! The `Engine`: one entry point for the whole XPath → SQL'(LFP) pipeline.
//!
//! The paper's pipeline (Fig. 5 / Corollary 5.1) is built from deliberately
//! small pieces — `parse_dtd`, [`Translator`], `edge_database`,
//! `Program::execute`, `render_program` — which is the right shape for
//! studying each stage but the wrong shape for *serving* queries: every
//! caller re-wires the same five steps and re-translates every query from
//! scratch. The `Engine` packages a session against one DTD:
//!
//! * [`Engine::builder`] fixes the translation strategy
//!   ([`RecStrategy`]), SQL generation options ([`SqlOptions`]), execution
//!   options ([`ExecOptions`]), and a default rendering dialect
//!   ([`SqlDialect`]) once, for the engine's lifetime;
//! * [`Engine::load`] / [`Engine::load_xml`] shred a document into the
//!   edge store the engine owns;
//! * [`Engine::prepare`] returns a [`PreparedQuery`] backed by an LRU
//!   translation/plan cache keyed by the *normalized* query — the [`Path`]
//!   value [`Engine::normalize_path`] returns, not its printed text —
//!   so preparing the same query again skips CycleEX and SQL generation
//!   entirely;
//! * [`PreparedQuery::execute`] runs the cached program against the loaded
//!   store; [`PreparedQuery::sql`] renders it for an external RDBMS;
//!   [`Engine::query`] is the one-shot convenience.
//!
//! Everything is `Result`-based end to end: [`EngineError`] unifies XPath
//! parse, XML parse, DTD validation, translation, and execution failures.
//! Cache effectiveness is observable through the engine's [`Stats`]
//! (`plan_cache_hits` / `plan_cache_misses`), merged with the execution
//! counters of every query the engine runs.
//!
//! # Threading model
//!
//! A loaded `Engine` is built for concurrent serving — share `&Engine`
//! across worker threads (e.g. under `std::thread::scope`) and call
//! [`prepare`](Engine::prepare) / [`PreparedQuery::execute`] /
//! [`Engine::query`] freely:
//!
//! * **One cache lock** — the plan cache is one LRU map behind one mutex,
//!   held only for a lookup or an insert, never while translating; it holds
//!   exactly its configured capacity and evicts in exact LRU order.
//! * **Atomic statistics** — hit/miss and execution counters are lock-free
//!   atomics ([`x2s_rel::SharedStats`]); `hits + misses + sat_pruned`
//!   always equals the number of prepares, with no lost updates under
//!   contention.
//! * **Shared read-only store** — the loaded edge database sits behind an
//!   `Arc` ([`Engine::load_shared`] adopts an existing one without copying);
//!   loading requires `&mut self`, so queries never observe a store swap.
//! * **No intra-query parallelism** — one query runs on the thread that
//!   called it; concurrency is the caller's (the `serve` crate's worker
//!   pool over one shared `Engine`).
//!
//! Two racing prepares of the same new query may both translate; the later
//! insert refreshes the cache entry and both count as misses — wasted work
//! bounded by one translation, never a wrong answer.
//!
//! The low-level pieces remain public: the engine is a front door, not a
//! wall. Code that needs one stage in isolation (view rewriting, the
//! SQLGen-R baseline, the benchmarks' per-stage timings) keeps using the
//! per-crate APIs underneath.

use crate::e2sql::SqlOptions;
use crate::pipeline::{RecStrategy, TranslateError, Translation, Translator};
use std::cell::Cell;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use x2s_dtd::Dtd;
use x2s_rel::{render_program, Database, ExecError, ExecOptions, SharedStats, SqlDialect, Stats};
use x2s_shred::edge_database;
use x2s_xml::{parse_xml, validate, Tree, ValidationError, XmlError};
use x2s_xpath::{parse_xpath, ParseError, Path, Sat, SatAnalyzer, Witness};

/// Default number of cached translations per engine.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 128;

/// Unified error type for every stage the engine drives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The XPath text did not parse.
    Xpath(ParseError),
    /// The XML text did not parse.
    Xml(XmlError),
    /// The document does not conform to the engine's DTD.
    Validate(ValidationError),
    /// The query did not translate (e.g. a CycleE blowup).
    Translate(TranslateError),
    /// The translated program failed to execute.
    Exec(ExecError),
    /// Execution hit its cooperative deadline
    /// ([`ExecOptions::deadline`]) and aborted at a checkpoint. Serving
    /// layers answer this with `503 Retry-After`.
    DeadlineExceeded,
    /// Execution exhausted a tuple or closure-memory budget
    /// ([`ExecOptions::tuple_budget`] / [`ExecOptions::closure_budget`]).
    BudgetExceeded(String),
    /// A worker panicked while executing the query and the panic was
    /// contained (the worker survived). Produced by the serving layer's
    /// flight isolation, never by the engine itself; every coalesced
    /// caller of the poisoned flight receives this error.
    ExecutionPanicked,
    /// `execute`/`query` was called before any document was loaded.
    NoDocument,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Xpath(e) => write!(f, "xpath parse error: {e}"),
            EngineError::Xml(e) => write!(f, "xml parse error: {e}"),
            EngineError::Validate(e) => write!(f, "document does not conform to the DTD: {e}"),
            EngineError::Translate(e) => write!(f, "translation error: {e}"),
            EngineError::Exec(e) => write!(f, "execution error: {e}"),
            EngineError::DeadlineExceeded => write!(f, "execution deadline exceeded"),
            EngineError::BudgetExceeded(m) => write!(f, "execution budget exceeded: {m}"),
            EngineError::ExecutionPanicked => {
                write!(f, "query execution panicked (contained; worker survived)")
            }
            EngineError::NoDocument => {
                write!(
                    f,
                    "no document loaded (call Engine::load or load_xml first)"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Xpath(e) => Some(e),
            EngineError::Xml(e) => Some(e),
            EngineError::Validate(e) => Some(e),
            EngineError::Translate(e) => Some(e),
            EngineError::Exec(e) => Some(e),
            EngineError::DeadlineExceeded
            | EngineError::BudgetExceeded(_)
            | EngineError::ExecutionPanicked => None,
            EngineError::NoDocument => None,
        }
    }
}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Xpath(e)
    }
}
impl From<XmlError> for EngineError {
    fn from(e: XmlError) -> Self {
        EngineError::Xml(e)
    }
}
impl From<ValidationError> for EngineError {
    fn from(e: ValidationError) -> Self {
        EngineError::Validate(e)
    }
}
impl From<TranslateError> for EngineError {
    fn from(e: TranslateError) -> Self {
        EngineError::Translate(e)
    }
}
impl From<ExecError> for EngineError {
    fn from(e: ExecError) -> Self {
        match e {
            // Governance aborts are first-class outcomes, not generic
            // execution failures: the serving layer maps them to 503.
            ExecError::DeadlineExceeded => EngineError::DeadlineExceeded,
            ExecError::BudgetExceeded(m) => EngineError::BudgetExceeded(m),
            e => EngineError::Exec(e),
        }
    }
}

/// A small LRU map from normalized queries to finished translations. The
/// key is the [`Path`] value itself, so two queries share an entry exactly
/// when they are the same tree — no printer sits between them.
///
/// Capacities are session-sized (tens to hundreds of distinct queries), so
/// eviction scans for the least-recently-used entry instead of maintaining
/// an intrusive list; `get`/`insert` stay O(1) hashing plus an O(capacity)
/// worst case on eviction only.
#[derive(Debug)]
struct PlanCache {
    capacity: usize,
    tick: u64,
    /// Last use of each entry; a `Cell` so a hit stamps it in the same
    /// lookup that found the key.
    entries: HashMap<Arc<Path>, (Cell<u64>, Arc<Translation>)>,
}

impl PlanCache {
    fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            tick: 0,
            entries: HashMap::new(),
        }
    }

    /// The cached key and translation for `path`, marked most recently used.
    fn get(&mut self, path: &Path) -> Option<(Arc<Path>, Arc<Translation>)> {
        self.tick += 1;
        let (key, (used, tr)) = self.entries.get_key_value(path)?;
        used.set(self.tick);
        Some((Arc::clone(key), Arc::clone(tr)))
    }

    fn insert(&mut self, key: Arc<Path>, tr: Arc<Translation>) {
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some(lru) = self
                .entries
                .iter()
                .min_by_key(|(_, (used, _))| used.get())
                .map(|(k, _)| Arc::clone(k))
            {
                self.entries.remove(&lru);
            }
        }
        self.entries.insert(key, (Cell::new(self.tick), tr));
    }
}

/// Lock the plan cache, recovering from poisoning: it holds only immutable
/// `Arc` snapshots plus LRU stamps, so a panic in another thread cannot
/// leave an entry half-written — the worst case is a stale recency order.
fn lock(cache: &Mutex<PlanCache>) -> MutexGuard<'_, PlanCache> {
    cache.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Configures and constructs an [`Engine`]. Created by [`Engine::builder`].
#[derive(Clone, Debug)]
pub struct EngineBuilder<'d> {
    dtd: &'d Dtd,
    strategy: RecStrategy,
    sql_options: SqlOptions,
    exec_options: ExecOptions,
    dialect: SqlDialect,
    cache_capacity: usize,
}

impl<'d> EngineBuilder<'d> {
    /// Select the `rec(A,B)` instantiation strategy (default: CycleEX).
    pub fn strategy(mut self, strategy: RecStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Select SQL generation options (default: all §5.2 optimizations on).
    pub fn sql_options(mut self, opts: SqlOptions) -> Self {
        self.sql_options = opts;
        self
    }

    /// Select execution options (default: interval fast path on, no
    /// deadline, no budgets).
    pub fn exec_options(mut self, opts: ExecOptions) -> Self {
        self.exec_options = opts;
        self
    }

    /// Select the default rendering dialect for [`PreparedQuery::sql_text`]
    /// (default: SQL'99).
    pub fn dialect(mut self, dialect: SqlDialect) -> Self {
        self.dialect = dialect;
        self
    }

    /// Cap the translation/plan cache at `capacity` entries (LRU eviction;
    /// clamped to at least 1). Default
    /// [`DEFAULT_PLAN_CACHE_CAPACITY`].
    pub fn plan_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Finish configuration.
    pub fn build(self) -> Engine<'d> {
        Engine {
            dtd: self.dtd,
            strategy: self.strategy,
            sql_options: self.sql_options,
            exec_options: self.exec_options,
            dialect: self.dialect,
            db: None,
            doc_len: 0,
            cache: Mutex::new(PlanCache::new(self.cache_capacity)),
            stats: SharedStats::new(),
            sat: SatAnalyzer::new(self.dtd),
        }
    }
}

/// A query-serving session over one DTD: owns the shredded store, a
/// translation/plan cache, and accumulated execution statistics.
///
/// ```
/// use x2s_core::engine::Engine;
/// use x2s_dtd::samples;
///
/// let dtd = samples::dept_simplified();
/// let mut engine = Engine::new(&dtd);
/// engine
///     .load_xml("<dept><course><project/></course></dept>")
///     .unwrap();
/// let answers = engine.query("dept//project").unwrap();
/// assert_eq!(answers.len(), 1);
/// // the second identical query is served from the plan cache
/// engine.query("dept//project").unwrap();
/// assert_eq!(engine.stats().plan_cache_hits, 1);
/// ```
///
/// Load a document *before* preparing queries: [`Engine::load`] takes
/// `&mut self`, while a [`PreparedQuery`] borrows the engine shared.
/// Prepared handles stay cheap to re-create — a re-`prepare` of a cached
/// query is a hash lookup.
pub struct Engine<'d> {
    dtd: &'d Dtd,
    strategy: RecStrategy,
    sql_options: SqlOptions,
    exec_options: ExecOptions,
    dialect: SqlDialect,
    db: Option<Arc<Database>>,
    doc_len: usize,
    cache: Mutex<PlanCache>,
    stats: SharedStats,
    sat: SatAnalyzer<'d>,
}

impl fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("strategy", &self.strategy)
            .field("sql_options", &self.sql_options)
            .field("exec_options", &self.exec_options)
            .field("dialect", &self.dialect)
            .field("doc_len", &self.doc_len)
            .field("cached_plans", &self.cached_plans())
            .field("stats", &self.stats.snapshot())
            .finish_non_exhaustive()
    }
}

impl<'d> Engine<'d> {
    /// Start configuring an engine for `dtd`.
    pub fn builder(dtd: &'d Dtd) -> EngineBuilder<'d> {
        EngineBuilder {
            dtd,
            strategy: RecStrategy::default(),
            sql_options: SqlOptions::default(),
            exec_options: ExecOptions::default(),
            dialect: SqlDialect::default(),
            cache_capacity: DEFAULT_PLAN_CACHE_CAPACITY,
        }
    }

    /// An engine with all defaults (CycleEX, full optimizations, SQL'99).
    pub fn new(dtd: &'d Dtd) -> Self {
        Engine::builder(dtd).build()
    }

    /// The DTD this engine serves.
    pub fn dtd(&self) -> &'d Dtd {
        self.dtd
    }

    /// The default rendering dialect.
    pub fn dialect(&self) -> SqlDialect {
        self.dialect
    }

    /// The configured execution options — the base a serving layer extends
    /// with a per-request deadline ([`ExecOptions::with_deadline`]) before
    /// calling [`PreparedQuery::execute_with`].
    pub fn exec_options(&self) -> ExecOptions {
        self.exec_options
    }

    /// Shred `tree` into the engine's edge store, replacing any previous
    /// document. Cached translations survive — they depend only on the DTD.
    ///
    /// The tree is trusted to be a document *of this engine's DTD* (labels
    /// interned against it; content models not re-checked). That is the
    /// right trade for trees the system produced itself — `parse_xml`
    /// against the same DTD, or the generator. For untrusted text use
    /// [`load_xml`](Engine::load_xml), which validates and reports
    /// [`EngineError::Validate`]; a tree shredded under a different DTD
    /// yields wrong answers, not an error.
    pub fn load(&mut self, tree: &Tree) -> &mut Self {
        self.db = Some(Arc::new(edge_database(tree, self.dtd)));
        self.doc_len = tree.len();
        self
    }

    /// Parse `xml`, validate it against the engine's DTD, and
    /// [`load`](Engine::load) it.
    pub fn load_xml(&mut self, xml: &str) -> Result<&mut Self, EngineError> {
        let tree = parse_xml(self.dtd, xml)?;
        validate(&tree, self.dtd)?;
        Ok(self.load(&tree))
    }

    /// Adopt an already-shredded edge store (e.g. a benchmark dataset),
    /// replacing any previous document. Like [`load`](Engine::load), the
    /// store is trusted to be an edge shredding under this engine's DTD.
    /// Builds any missing base-edge indexes before the store becomes
    /// shared (idempotent — stores from `edge_database` already carry
    /// them).
    pub fn load_database(&mut self, db: Database) -> &mut Self {
        let mut db = db;
        db.build_indexes();
        self.load_shared(Arc::new(db))
    }

    /// Adopt a *shared* edge store without copying it — multiple engines
    /// (or a throughput harness and its oracle) can serve the same
    /// `Arc<Database>` read-only. The store is trusted to be an edge
    /// shredding under this engine's DTD, and is served exactly as given
    /// (its dictionary and cached indexes are immutable under the `Arc`).
    pub fn load_shared(&mut self, db: Arc<Database>) -> &mut Self {
        self.doc_len = 0;
        self.db = Some(db);
        self
    }

    /// The loaded edge store, if any.
    pub fn database(&self) -> Option<&Database> {
        self.db.as_deref()
    }

    /// The loaded edge store as a shareable handle, if any (see
    /// [`Engine::load_shared`]).
    pub fn database_shared(&self) -> Option<Arc<Database>> {
        self.db.clone()
    }

    /// Element count of the loaded document (0 when loaded via
    /// [`Engine::load_database`] or nothing is loaded).
    pub fn doc_len(&self) -> usize {
        self.doc_len
    }

    /// Prepare `query` with the engine's configured strategy and SQL
    /// options, consulting the plan cache: parse, [normalize
    /// once](Engine::normalize_path), then [`prepare_path`](Engine::prepare_path).
    pub fn prepare(&self, query: &str) -> Result<PreparedQuery<'_, 'd>, EngineError> {
        let path = parse_xpath(query)?;
        self.prepare_path(&self.normalize_path(&path))
    }

    /// Prepare an already-parsed [`Path`], keying the plan cache on the
    /// path *as given* — it is not normalized again here. Pass the output
    /// of [`Engine::normalize_path`] so that trivially equivalent spellings
    /// — `a/descendant-or-self::*/b` vs `a//b`, redundant `self::*`/`.`
    /// steps, reordered qualifier conjuncts, DTD-implied tautological
    /// qualifiers — share one cache entry (and, in a serving layer keyed on
    /// the same value, one flight). A hit neither clones nor prints `path`.
    ///
    /// Before translating, the query passes the static satisfiability gate
    /// ([`x2s_xpath::sat`]): a query no document of the DTD can answer
    /// returns a constant-empty [`PreparedQuery`] carrying the proof
    /// ([`PreparedQuery::sat_witness`]) and never reaches CycleEX, SQL
    /// generation, the plan cache, or the executor. Such prepares count in
    /// `sat_pruned`, not in the plan-cache hit/miss counters.
    pub fn prepare_path(&self, path: &Path) -> Result<PreparedQuery<'_, 'd>, EngineError> {
        let hit = lock(&self.cache).get(path);
        if let Some((path, translation)) = hit {
            self.stats.plan_cache_hit();
            return Ok(self.prepared(path, Plan::Translated(translation)));
        }
        // Satisfiability gate — only on the miss path: a cached plan
        // already proved itself satisfiable when it was first admitted.
        if let Sat::Empty { witness } = self.sat.check(path) {
            self.stats.sat_check(true);
            let plan = Plan::StaticallyEmpty(Arc::new(witness));
            return Ok(self.prepared(Arc::new(path.clone()), plan));
        }
        self.stats.sat_check(false);
        self.stats.plan_cache_miss();
        // Translate outside the lock: CycleEX is the expensive part, and a
        // concurrent prepare of a *different* query must not wait on it.
        // Two racing prepares of the same query both translate; the later
        // insert simply refreshes the entry.
        let translation = Arc::new(
            Translator::new(self.dtd)
                .with_strategy(self.strategy.clone())
                .with_sql_options(self.sql_options)
                .translate(path)?,
        );
        // Static-analyzer gate: no program enters the plan cache (where it
        // would be re-served indefinitely) without the translator's
        // verification; count it with its warnings.
        self.stats.analyze_check(translation.warnings.len());
        // Pass-level optimizer counters accumulate with the execution
        // counters — only on misses, since a cache hit re-serves the same
        // already-optimized program.
        self.stats.record_opt(&translation.opt.stats);
        let path = Arc::new(path.clone());
        lock(&self.cache).insert(Arc::clone(&path), Arc::clone(&translation));
        Ok(self.prepared(path, Plan::Translated(translation)))
    }

    fn prepared(&self, path: Arc<Path>, plan: Plan) -> PreparedQuery<'_, 'd> {
        PreparedQuery {
            engine: self,
            plan,
            path,
        }
    }

    /// The DTD-aware normal form of `path` used for plan-cache and
    /// single-flight keys: [`Path::canonical`] plus schema-driven
    /// simplifications ([`SatAnalyzer::normalize`] — tautological
    /// qualifiers dropped, statically-empty union arms removed). Pure: no
    /// counters move and the plan cache is not consulted.
    pub fn normalize_path(&self, path: &Path) -> Path {
        self.sat.normalize(path)
    }

    /// Statically check `path` against the engine's DTD without preparing
    /// it ([`SatAnalyzer::check`]). Pure: no counters move. Serving layers
    /// use this to answer impossible queries before occupying a flight.
    pub fn check_sat(&self, path: &Path) -> Sat {
        self.sat.check(path)
    }

    /// One-shot convenience: prepare (through the cache) and execute.
    pub fn query(&self, query: &str) -> Result<BTreeSet<u32>, EngineError> {
        self.prepare(query)?.execute()
    }

    /// Translate (through the cache) and render `query` in the engine's
    /// default dialect, without needing a loaded document.
    pub fn sql(&self, query: &str) -> Result<String, EngineError> {
        let dialect = self.dialect;
        Ok(self.prepare(query)?.sql(dialect))
    }

    /// Snapshot of the engine's accumulated statistics: plan-cache hit/miss
    /// counters plus the merged execution counters of every query run. The
    /// counters are atomics — the snapshot is lock-free and can be taken
    /// while other threads serve queries.
    ///
    /// This is the *one* read path for observability: endpoints reporting
    /// engine state should take a single snapshot and render it, rather
    /// than loading individual atomic fields at different instants (a
    /// snapshot is internally consistent per counter, and all counters are
    /// read in one pass).
    pub fn stats(&self) -> Stats {
        self.stats.snapshot()
    }

    /// The engine's live statistics accumulator. Serving layers stacked on
    /// top of the engine (admission queues, single-flight coalescing,
    /// streaming encoders) record their counters here so one
    /// [`Engine::stats`] snapshot covers the whole stack.
    pub fn shared_stats(&self) -> &SharedStats {
        &self.stats
    }

    /// Zero the accumulated statistics (the plan cache itself is kept).
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Number of currently cached translations — at most the configured
    /// [`plan_cache_capacity`](EngineBuilder::plan_cache_capacity), and
    /// exactly that many once as many distinct paths have been prepared.
    pub fn cached_plans(&self) -> usize {
        lock(&self.cache).entries.len()
    }

    /// Drop every cached translation (counters are kept).
    pub fn clear_plan_cache(&self) {
        lock(&self.cache).entries.clear();
    }

    fn record(&self, stats: &Stats) {
        self.stats.record(stats);
    }
}

/// What a [`PreparedQuery`] will do when executed: run a real translated
/// program, or return the constant empty set the satisfiability gate
/// proved.
#[derive(Clone)]
enum Plan {
    /// A finished translation admitted to the plan cache.
    Translated(Arc<Translation>),
    /// The satisfiability gate proved the query empty; the witness says
    /// which step failed and why.
    StaticallyEmpty(Arc<Witness>),
}

/// A prepared query handle: executes against the engine's store and
/// renders SQL, without ever re-translating.
///
/// Handles are cheap (an `Arc` around the finished [`Translation`], or
/// around the emptiness [`Witness`] for statically-pruned queries) and
/// borrow the engine shared, so any number can be alive at once.
#[derive(Clone)]
pub struct PreparedQuery<'e, 'd> {
    engine: &'e Engine<'d>,
    plan: Plan,
    path: Arc<Path>,
}

impl fmt::Debug for PreparedQuery<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("PreparedQuery");
        s.field("query", &self.xpath());
        match &self.plan {
            Plan::Translated(tr) => s.field("statements", &tr.program.len()),
            Plan::StaticallyEmpty(w) => s.field("statically_empty", &w.to_string()),
        };
        s.finish_non_exhaustive()
    }
}

impl PreparedQuery<'_, '_> {
    /// The text of the path this handle was prepared from — for
    /// [`Engine::prepare`], its normalized form. Rendered on each call.
    pub fn xpath(&self) -> String {
        self.path.to_string()
    }

    /// The underlying translation (extended XPath + SQL program), or
    /// `None` if the satisfiability gate proved the query empty and no
    /// translation was ever produced.
    pub fn translation(&self) -> Option<&Translation> {
        match &self.plan {
            Plan::Translated(tr) => Some(tr),
            Plan::StaticallyEmpty(_) => None,
        }
    }

    /// The satisfiability gate's emptiness proof, if this query was
    /// statically pruned ([`PreparedQuery::is_statically_empty`]).
    pub fn sat_witness(&self) -> Option<&Witness> {
        match &self.plan {
            Plan::Translated(_) => None,
            Plan::StaticallyEmpty(w) => Some(w),
        }
    }

    /// Whether the satisfiability gate proved this query can return no
    /// answers on *any* document valid against the engine's DTD. Such
    /// queries execute to the empty set without touching the store.
    pub fn is_statically_empty(&self) -> bool {
        matches!(self.plan, Plan::StaticallyEmpty(_))
    }

    /// Execute with the engine's configured [`ExecOptions`]; returns answer
    /// node ids. Statistics accumulate on the engine ([`Engine::stats`]).
    pub fn execute(&self) -> Result<BTreeSet<u32>, EngineError> {
        self.execute_with(self.engine.exec_options)
    }

    /// Execute with explicit options (e.g. a per-request deadline, or the
    /// interval fast path off for an LFP comparison run).
    ///
    /// A statically-empty query answers `Ok(∅)` immediately — even with no
    /// document loaded, since the proof holds for every valid document.
    pub fn execute_with(&self, opts: ExecOptions) -> Result<BTreeSet<u32>, EngineError> {
        let Plan::Translated(translation) = &self.plan else {
            return Ok(BTreeSet::new());
        };
        let db = self.engine.db.as_ref().ok_or(EngineError::NoDocument)?;
        let mut stats = Stats::default();
        let result = translation.try_run(db, opts, &mut stats);
        self.engine.record(&stats);
        match result {
            Ok(answers) => Ok(answers),
            Err(ExecError::DeadlineExceeded) => {
                self.engine.stats.exec_timeout();
                Err(EngineError::DeadlineExceeded)
            }
            Err(ExecError::BudgetExceeded(m)) => {
                self.engine.stats.budget_abort();
                Err(EngineError::BudgetExceeded(m))
            }
            Err(e) => Err(EngineError::Exec(e)),
        }
    }

    /// Render the cached program as SQL in `dialect`. A statically-empty
    /// query renders as a constant-empty `SELECT` carrying the witness as
    /// a comment.
    pub fn sql(&self, dialect: SqlDialect) -> String {
        match &self.plan {
            Plan::Translated(tr) => render_program(&tr.program, dialect),
            Plan::StaticallyEmpty(w) => {
                format!("-- statically empty: {w}\nSELECT 0 WHERE 0 = 1;\n")
            }
        }
    }

    /// Render in the engine's default dialect.
    pub fn sql_text(&self) -> String {
        self.sql(self.engine.dialect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2s_dtd::samples;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn engine_is_send_and_sync() {
        // A session type for "heavy traffic" must be shareable across
        // worker threads once loaded.
        assert_send_sync::<Engine<'_>>();
        assert_send_sync::<PreparedQuery<'_, '_>>();
        assert_send_sync::<EngineError>();
    }

    #[test]
    fn execute_without_document_errors() {
        let d = samples::dept_simplified();
        let engine = Engine::new(&d);
        let prepared = engine.prepare("dept//project").unwrap();
        assert_eq!(prepared.execute().unwrap_err(), EngineError::NoDocument);
    }

    #[test]
    fn bad_xpath_is_an_engine_error() {
        let d = samples::dept_simplified();
        let engine = Engine::new(&d);
        assert!(matches!(
            engine.prepare("dept//["),
            Err(EngineError::Xpath(_))
        ));
    }

    #[test]
    fn invalid_document_is_a_validate_error() {
        let d = samples::dept_simplified();
        let mut engine = Engine::new(&d);
        // `student` may not appear directly under `dept`.
        let err = engine.load_xml("<dept><student/></dept>").unwrap_err();
        assert!(matches!(err, EngineError::Validate(_)), "got {err:?}");
    }

    #[test]
    fn too_deep_document_is_an_xml_error() {
        use x2s_xml::parser::MAX_DEPTH;
        let d = samples::dept_simplified();
        let mut engine = Engine::new(&d);
        let nested = |levels: usize| {
            let inner = levels - 1;
            format!(
                "<dept>{}{}</dept>",
                "<course>".repeat(inner),
                "</course>".repeat(inner)
            )
        };
        // at the bound: parsed, validated and shredded
        engine.load_xml(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(engine.doc_len, MAX_DEPTH);
        let err = engine.load_xml(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(
            matches!(err, EngineError::Xml(XmlError::TooDeep { .. })),
            "got {err:?}"
        );
    }

    #[test]
    fn normalization_unifies_spelling_variants() {
        let d = samples::dept_simplified();
        let mut engine = Engine::new(&d);
        engine
            .load_xml("<dept><course><project/></course></dept>")
            .unwrap();
        let a = engine.prepare("dept//project").unwrap();
        let b = engine.prepare("dept // project").unwrap();
        assert_eq!(a.xpath(), b.xpath());
        let stats = engine.stats();
        assert_eq!((stats.plan_cache_misses, stats.plan_cache_hits), (1, 1));
    }

    #[test]
    fn canonicalization_unifies_equivalent_queries() {
        let d = samples::dept_simplified();
        let mut engine = Engine::new(&d);
        engine
            .load_xml("<dept><course><project/></course></dept>")
            .unwrap();
        // 6 spellings, 2 canonical queries: `dept//project` and
        // `dept/course` — misses == distinct canonical queries, the rest
        // are hits on the shared entries.
        let spellings = [
            "dept//project",
            "dept/descendant-or-self::*/project",
            "dept/./descendant-or-self::*/descendant-or-self::*/project",
            "./dept//(//project)",
            "dept/course",
            "dept/child::course/self::*",
        ];
        let mut answers = Vec::new();
        for q in spellings {
            answers.push(engine.query(q).unwrap());
        }
        let stats = engine.stats();
        assert_eq!(
            (stats.plan_cache_misses, stats.plan_cache_hits),
            (2, 4),
            "hit count == spellings - distinct canonical queries"
        );
        assert_eq!(engine.cached_plans(), 2);
        // equivalent spellings really returned the same answers
        assert_eq!(answers[0], answers[1]);
        assert_eq!(answers[0], answers[2]);
        assert_eq!(answers[0], answers[3]);
        assert_eq!(answers[4], answers[5]);
        // the prepared handle reports the canonical text
        let p = engine
            .prepare("dept/descendant-or-self::*/project")
            .unwrap();
        assert_eq!(p.xpath(), "dept//project");
    }

    #[test]
    fn statically_empty_queries_skip_translation_and_planning() {
        let d = samples::dept_simplified();
        let engine = Engine::new(&d);
        // `student` is never a direct child of `dept` in this DTD.
        let p = engine.prepare("dept/student").unwrap();
        assert!(p.is_statically_empty());
        assert!(p.translation().is_none());
        let w = p.sat_witness().expect("pruned query carries a witness");
        assert_eq!(w.kind, x2s_xpath::WitnessKind::NoChildEdge);
        // Executes to the empty set without a loaded document: the proof
        // holds for every valid document.
        assert_eq!(p.execute().unwrap(), BTreeSet::new());
        assert!(p.sql_text().contains("statically empty"));
        let stats = engine.stats();
        assert_eq!((stats.sat_checked, stats.sat_pruned), (1, 1));
        assert_eq!((stats.plan_cache_misses, stats.plan_cache_hits), (0, 0));
        assert_eq!(engine.cached_plans(), 0);
    }

    #[test]
    fn prepare_counter_identity_includes_pruned_queries() {
        // `hits + misses + sat_pruned == prepares`, across a mixed batch.
        // Pruned queries never enter the cache, so repeating one prunes it
        // again rather than hitting.
        let d = samples::dept_simplified();
        let engine = Engine::new(&d);
        let batch = [
            "dept//project",
            "dept//project",
            "dept/student",
            "dept/student",
        ];
        for q in batch {
            engine.prepare(q).unwrap();
        }
        let stats = engine.stats();
        assert_eq!((stats.plan_cache_misses, stats.plan_cache_hits), (1, 1));
        assert_eq!(stats.sat_pruned, 2);
        // one pre-miss check plus two prunes; the cache hit skips the gate
        assert_eq!(stats.sat_checked, 3);
        assert_eq!(
            stats.plan_cache_hits + stats.plan_cache_misses + stats.sat_pruned,
            batch.len()
        );
    }

    #[test]
    fn qualifier_reordered_spellings_share_one_plan() {
        let d = samples::dept_simplified();
        let mut engine = Engine::new(&d);
        engine
            .load_xml("<dept><course><student/><project/></course></dept>")
            .unwrap();
        let a = engine.query("dept/course[student][project]").unwrap();
        let b = engine.query("dept/course[project][student]").unwrap();
        assert_eq!(a, b);
        let stats = engine.stats();
        assert_eq!((stats.plan_cache_misses, stats.plan_cache_hits), (1, 1));
        assert_eq!(engine.cached_plans(), 1);
    }

    #[test]
    fn shared_stats_accessor_feeds_the_same_snapshot() {
        let d = samples::dept_simplified();
        let engine = Engine::new(&d);
        engine.shared_stats().request_admitted();
        engine.shared_stats().request_coalesced();
        engine.shared_stats().add_stream_chunks(3);
        let snap = engine.stats();
        assert_eq!(snap.requests_admitted, 1);
        assert_eq!(snap.requests_coalesced, 1);
        assert_eq!(snap.stream_chunks, 3);
    }

    #[test]
    fn load_shared_serves_the_same_store_without_copying() {
        let d = samples::dept_simplified();
        let mut a = Engine::new(&d);
        a.load_xml("<dept><course><project/></course></dept>")
            .unwrap();
        let store = a.database_shared().unwrap();
        let mut b = Engine::new(&d);
        b.load_shared(Arc::clone(&store));
        assert_eq!(
            a.query("dept//project").unwrap(),
            b.query("dept//project").unwrap()
        );
        assert!(std::ptr::eq(b.database().unwrap(), store.as_ref()));
    }

    #[test]
    fn plan_cache_lru_evicts_least_recently_used() {
        let mut cache = PlanCache::new(2);
        let d = samples::dept_simplified();
        let tr = |q: &str| {
            Arc::new(
                Translator::new(&d)
                    .translate(&parse_xpath(q).unwrap())
                    .unwrap(),
            )
        };
        let key = |q: &str| Arc::new(parse_xpath(q).unwrap());
        cache.insert(key("dept/course"), tr("dept/course"));
        cache.insert(key("dept//project"), tr("dept//project"));
        // touch the first entry so the second becomes LRU
        assert!(cache.get(&key("dept/course")).is_some());
        cache.insert(key("dept//course"), tr("dept//course"));
        assert!(cache.get(&key("dept/course")).is_some());
        assert!(cache.get(&key("dept//project")).is_none(), "LRU evicted");
        assert!(cache.get(&key("dept//course")).is_some());
    }

    #[test]
    fn expired_deadline_surfaces_as_engine_error_and_counts() {
        let d = samples::dept_simplified();
        let mut engine = Engine::new(&d);
        engine
            .load_xml("<dept><course><project/></course></dept>")
            .unwrap();
        let prepared = engine.prepare("dept//project").unwrap();
        let opts = engine
            .exec_options()
            .with_deadline(std::time::Instant::now());
        assert_eq!(
            prepared.execute_with(opts).unwrap_err(),
            EngineError::DeadlineExceeded
        );
        assert_eq!(engine.stats().exec_timeouts, 1);
        assert_eq!(engine.stats().budget_aborts, 0);
        // The engine stays serviceable: the same prepared query succeeds
        // under the ungoverned default options.
        assert!(!prepared.execute().unwrap().is_empty());
    }

    #[test]
    fn exhausted_budget_surfaces_as_engine_error_and_counts() {
        let d = samples::dept_simplified();
        let mut engine = Engine::new(&d);
        engine
            .load_xml("<dept><course><project/></course><course><project/></course></dept>")
            .unwrap();
        let prepared = engine.prepare("dept//project").unwrap();
        let opts = engine.exec_options().with_tuple_budget(1);
        assert!(matches!(
            prepared.execute_with(opts).unwrap_err(),
            EngineError::BudgetExceeded(_)
        ));
        assert_eq!(engine.stats().budget_aborts, 1);
        assert!(!prepared.execute().unwrap().is_empty());
    }
}
