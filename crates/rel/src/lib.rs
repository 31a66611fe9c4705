#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! An in-memory relational engine — the RDBMS substrate standing in for the
//! paper's IBM DB2 Enterprise 9 (§6).
//!
//! The engine provides exactly the machinery the translation needs and the
//! evaluation measures:
//!
//! * positional relations over [`Value`] tuples: an arity and one flat row
//!   buffer ([`relation`]) — one allocation per relation, not per row;
//! * a load-time string [`dict`]ionary and cached base-edge indexes on the
//!   [`Database`], so hot-path comparisons are integer equalities and
//!   base-table join build sides are reused across executions;
//! * an internal Fx-style hasher ([`fxhash`]) for every executor-side
//!   hash table;
//! * relational-algebra plans ([`plan`]): scan, select on constants,
//!   project, inner/semi/anti hash equijoins on one column pair, union,
//!   distinct — the syntax programs are written in;
//! * the paper's two recursion operators (`fixpoint`), closed by one
//!   delta-driven loop over a state graph: the **simple LFP `Φ(R)`** over a
//!   *single* input relation (§3.3 Eq. 2), with optional *pushed
//!   selections* (§5.2) — seed-restricted (forward) and target-restricted
//!   (backward) closures — and the **multi-relation fixpoint
//!   `φ(R, R₁…R_k)`** that SQL'99 `WITH…RECURSIVE` requires (§3.1 Eq. 1),
//!   used by the SQLGen-R baseline and paying k joins and k unions per
//!   iteration;
//! * statement *programs* `R_e ← e2s(e)` ([`program`], §5.1): one node
//!   arena in topological order that the executor, the analyzer, the SQL
//!   renderer, `explain` and the optimizer all read, evaluated lazily
//!   top–down by a loop over the nodes (§5.2 "Top–down evaluation");
//! * execution statistics ([`stats`]) counting joins, unions, LFP
//!   invocations and iterations and the adjacency entries those iterations
//!   read — the quantities behind Table 5 and the relative timings of
//!   Figs. 12–17;
//! * a **logical optimizer** ([`opt`]): the program's arena hash-consed in
//!   one pass, a deterministic rewrite-pass pipeline over it (CSE,
//!   dead-statement elimination, predicate simplification/pushdown,
//!   projection narrowing, LFP dedup) applied between translation and
//!   execution/rendering, and a compacted program out;
//! * SQL text rendering in two dialects ([`sql`]): SQL'99 recursive CTEs
//!   and Oracle `CONNECT BY` (Fig. 4);
//! * a **static plan analyzer** ([`analyze`]): one forward pass over the
//!   nodes inferring an arity per node — the one arity rule the optimizer
//!   shares — plus well-formedness verification (column ranges, union
//!   arities, closure shapes), gating translation, every optimizer pass,
//!   and SQL rendering.

pub mod analyze;
pub mod dict;
pub mod exec;
pub mod explain;
mod fixpoint;
pub mod fxhash;
pub mod interval;
mod multimap;
pub mod opt;
pub mod plan;
pub mod program;
pub mod relation;
pub mod sql;
pub mod stats;
pub mod value;

pub use analyze::{
    analyze_program, analyze_program_with, edge_scan_schema, Analysis, AnalyzeError,
    AnalyzeErrorKind, AnalyzeWarning,
};
pub use dict::Dictionary;
pub use exec::{Database, ExecError, ExecOptions};
pub use explain::{explain_opt_report, explain_program};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use interval::{IntervalLabels, IntervalView, LABEL_GAP};
pub use opt::{optimize, OptLevel, OptReport, OptStats};
pub use plan::{
    IntervalJoinSpec, JoinKind, LfpSpec, MultiLfpEdge, MultiLfpSpec, Plan, Pred, PushSpec,
};
pub use program::{Node, NodeId, OpCounts, Program, Stmt, TempId};
pub use relation::Relation;
pub use sql::{render_program, SqlDialect};
pub use stats::{SharedStats, Stats};
pub use value::Value;
