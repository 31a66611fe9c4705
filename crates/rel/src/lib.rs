#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! An in-memory relational engine — the RDBMS substrate standing in for the
//! paper's IBM DB2 Enterprise 9 (§6).
//!
//! The engine provides exactly the machinery the translation needs and the
//! evaluation measures:
//!
//! * named-column relations over [`Value`] tuples, stored in a single flat
//!   buffer with an arity stride ([`relation`]) — one allocation per
//!   relation, not per row;
//! * a load-time string [`dict`]ionary and cached base-edge indexes on the
//!   [`Database`], so hot-path comparisons are integer equalities and
//!   base-table join build sides are reused across executions;
//! * an internal Fx-style hasher ([`fxhash`]) for every executor-side
//!   hash table;
//! * relational-algebra plans ([`plan`]): scan, select, project, inner/semi/
//!   anti hash joins, union, difference, intersection, distinct;
//! * the paper's **simple LFP operator `Φ(R)`** over a *single* input
//!   relation ([`lfp`], §3.3 Eq. 2) — with optional *pushed selections*
//!   (§5.2): seed-restricted (forward) and target-restricted (backward)
//!   closures, iterated semi-naively;
//! * the **multi-relation fixpoint `φ(R, R₁…R_k)`** that SQL'99
//!   `WITH…RECURSIVE` requires ([`multilfp`], §3.1 Eq. 1) — used by the
//!   SQLGen-R baseline, paying k joins and k unions over the whole
//!   accumulated relation per iteration;
//! * statement *programs* `R_e ← e2s(e)` with lazy top–down evaluation
//!   ([`program`], §5.2 "Top–down evaluation");
//! * execution statistics ([`stats`]) counting joins, unions, LFP
//!   invocations and iterations — the quantities behind Table 5 and the
//!   relative timings of Figs. 12–17;
//! * a **logical optimizer** ([`opt`]): an arena-based, hash-consed program
//!   IR with a deterministic rewrite-pass pipeline (CSE, dead-statement
//!   elimination, predicate simplification/pushdown, projection narrowing,
//!   LFP dedup) applied between translation and execution/rendering;
//! * SQL text rendering in two dialects ([`sql`]): SQL'99 recursive CTEs
//!   and Oracle `CONNECT BY` (Fig. 4);
//! * a **static plan analyzer** ([`analyze`]): schema/type inference over
//!   an abstract column lattice plus well-formedness verification (column
//!   ranges, set-operation arities, dependency order, closure shapes),
//!   gating translation, every optimizer pass, and SQL rendering.

pub mod analyze;
pub mod dict;
pub mod exec;
pub mod explain;
pub mod fxhash;
pub mod intern;
pub mod interval;
pub mod lfp;
pub mod multilfp;
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
    AnalyzeErrorKind, AnalyzeWarning, ColType, Schema,
};
pub use dict::Dictionary;
pub use exec::{Database, ExecError, ExecOptions};
pub use explain::{explain_opt_report, explain_plan, explain_program};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use interval::{IntervalLabels, IntervalView, LABEL_GAP};
pub use opt::{optimize, OptLevel, OptReport, OptStats};
pub use plan::{
    IntervalJoinSpec, JoinKind, LfpSpec, MultiLfpEdge, MultiLfpSpec, Plan, Pred, PushSpec,
};
pub use program::{OpCounts, Program, Stmt, TempId};
pub use relation::Relation;
pub use sql::{render_program, SqlDialect};
pub use stats::{SharedStats, Stats};
pub use value::Value;
