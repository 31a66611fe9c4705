#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! The paper's own evaluation (§6), regenerated as a report: Tables 1–3 and
//! 5, and Figs 12–17 comparing R = SQLGen-R, E = CycleE and X = CycleEX.
//!
//! This crate times nothing for a performance claim — that is `benchmark/`
//! (see its README and `BENCHMARK.json`). It follows the same discipline:
//! fixed work, exact counts first, best-of-`reps` milliseconds second, every
//! cell checked against the native XPath evaluator.
//!
//! * [`harness`] — the three approaches behind one interface, dataset
//!   construction following the paper's generator protocol, the oracle, and
//!   the one measurement loop;
//! * [`workloads`] — one function per artifact (Tables 1–3, Table 5, Exp-1 …
//!   Exp-5) returning printable tables;
//! * `src/bin/repro.rs` — the command-line runner that prints them.
//!
//! Absolute numbers are not comparable to the paper's 2005 DB2 testbed; each
//! table's note records the *shape* the paper reports (who wins, by what
//! factor, where behaviour crosses over).

pub mod harness;
pub mod workloads;

pub use workloads::{exp1, exp2, exp3, exp4, exp5, table5, tables123, Table};
