#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! The paper's primary contribution: translating XPath over (possibly
//! recursive) DTDs to SQL with a simple LFP operator.
//!
//! Pipeline (paper Fig. 5):
//!
//! ```text
//!          XPathToEXp                EXpToSQL
//! XPath Q ───────────► extended XPath EQ ───────────► SQL program Q′
//!          over DTD D                 over mapping τ: D → R
//! ```
//!
//! * [`graph`] — the *translation graph*: the DTD graph extended with a
//!   virtual document node (the shredded `'_'` parent of the root);
//! * [`cyclee`] — Tarjan's path-expression algorithm (Fig. 6, `CycleE`):
//!   `rec(A,B)` as a plain regular expression; exponential in the worst
//!   case (Lemma 4.1), size-capped;
//! * [`cycleex`] — the paper's `CycleEX` (Fig. 7): `rec(A,B)` as an
//!   extended XPath query with variables, `O(n³ log n)` (Theorem 4.1),
//!   computed once per DTD for *all* pairs;
//! * [`x2e`] — `XPathToEXp` (Fig. 8) with `RewQual` (Fig. 9): dynamic
//!   programming over (sub-query, context type, target type), DTD-driven
//!   qualifier elimination, equivalence over all containing DTDs
//!   (Theorem 4.2);
//! * [`e2sql`] — `EXpToSQL` (Fig. 10): compilation to a statement program
//!   over the shredded store, ε handled by reflexivity flags instead of a
//!   materialized identity relation, with the §5.2 optimizations (pushing
//!   selections into LFP, root-filter pushdown, lazy programs); the
//!   emitted program goes through the logical optimizer
//!   ([`x2s_rel::opt`]) at [`SqlOptions::optimize`], making `exp_to_sql`
//!   the single choke point the executor and every dialect renderer sit
//!   behind;
//! * [`pipeline`] — the end-to-end [`pipeline::Translator`];
//! * [`views`] — query answering over virtual XML views (§3.4);
//! * [`engine`] — the session-level front door: [`engine::Engine`] wraps
//!   the whole pipeline behind prepared queries, an LRU translation/plan
//!   cache, and pluggable SQL dialects.

pub mod cyclee;
pub mod cycleex;
pub mod e2sql;
pub mod engine;
pub mod graph;
pub mod pipeline;
pub mod views;
pub mod x2e;

pub use cyclee::{rec_matrix, CycleEError};
pub use cycleex::RecTable;
pub use e2sql::{exp_to_sql, exp_to_sql_checked, exp_to_sql_with_report, SqlOptions};
pub use engine::{Engine, EngineBuilder, EngineError, PreparedQuery};
pub use graph::{TransGraph, DOC};
pub use pipeline::{IntervalVariant, RecStrategy, TranslateError, Translation, Translator};
pub use views::rewrite_for_view;
pub use x2e::{xpath_to_exp, XpathTranslation};
pub use x2s_rel::{OptLevel, OptReport};
