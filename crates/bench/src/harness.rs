//! The three compared approaches, dataset construction, and the one
//! measurement loop every figure cell goes through.
//!
//! A cell is fixed work — translate one query, execute it on one dataset —
//! repeated `reps` times. What it reports first is exact and repeats run to
//! run: the operator counts of the translated program and the executor's
//! counters. The best-of-`reps` wall-clock comes second, translation and
//! execution timed apart so neither hides inside the other. Every cell's
//! answer *set* must equal the native XPath evaluator's before anything is
//! reported.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};
use x2s_core::pipeline::{RecStrategy, TranslateError, Translation, Translator};
use x2s_core::views::extract_view;
use x2s_core::SqlOptions;
use x2s_dtd::Dtd;
use x2s_rel::{Database, ExecOptions, OpCounts, Stats};
use x2s_shred::edge_database;
use x2s_sqlgenr::SqlGenR;
use x2s_xml::{Generator, GeneratorConfig, Tree};
use x2s_xpath::{eval_from_document, parse_xpath};

/// The three compared approaches, labelled as in the paper's figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Approach {
    /// `R` — SQLGen-R \[39\]: SQL'99 multi-relation recursion.
    SqlGenR,
    /// `E` — our framework with Tarjan's CycleE for `rec(A,B)`.
    CycleE,
    /// `X` — our framework with CycleEX (the paper's proposal).
    CycleEx,
}

impl Approach {
    /// All three, in the paper's R/E/X order.
    pub fn all() -> [Approach; 3] {
        [Approach::SqlGenR, Approach::CycleE, Approach::CycleEx]
    }

    /// One-letter figure label.
    pub fn label(self) -> &'static str {
        match self {
            Approach::SqlGenR => "R",
            Approach::CycleE => "E",
            Approach::CycleEx => "X",
        }
    }
}

/// Cap for CycleE intermediate expressions: large enough for every
/// evaluation DTD, small enough to fail fast on adversarial inputs.
pub const CYCLEE_CAP: usize = 4_000_000;

/// Translate a query with one of the approaches. `sql` shapes the E and X
/// programs (Exp-2 toggles selection pushing); SQLGen-R has no such options.
///
/// The paper's figures compare *LFP programs*, so no interval variant is
/// compiled: every approach executes fixpoints. Interval-vs-LFP is measured
/// by the `scan_interval` and `write_then_scan` workloads of `benchmark/`.
pub fn translate_with(
    approach: Approach,
    dtd: &Dtd,
    path: &x2s_xpath::Path,
    sql: SqlOptions,
) -> Result<Translation, TranslateError> {
    let strategy = match approach {
        Approach::SqlGenR => return SqlGenR::new(dtd).translate(path),
        Approach::CycleE => RecStrategy::CycleE { cap: CYCLEE_CAP },
        Approach::CycleEx => RecStrategy::CycleEx,
    };
    Translator::new(dtd)
        .with_strategy(strategy)
        .with_sql_options(sql)
        .with_interval(false)
        .translate(path)
}

/// A dataset: an XML tree of `dtd` and its edge-shredded database.
pub struct Dataset<'a> {
    /// The DTD the document conforms to.
    pub dtd: &'a Dtd,
    /// The document.
    pub tree: Tree,
    /// Its shredded relational store.
    pub db: Database,
}

/// Generate a dataset following the paper's protocol: IBM-generator
/// semantics with `X_L`/`X_R`, trimmed/budgeted to `target` elements.
pub fn dataset(dtd: &Dtd, xl: usize, xr: usize, target: Option<usize>, seed: u64) -> Dataset<'_> {
    let cfg = GeneratorConfig::shaped(xl, xr, target).with_seed(seed);
    let tree = Generator::new(dtd, cfg).generate();
    let db = edge_database(&tree, dtd);
    Dataset { dtd, tree, db }
}

/// What the native evaluator answers for `query` on the part of the
/// document that `dtd` describes, as node ids of the document. `dtd` is the
/// DTD the query is translated over; when it is a subgraph of the
/// document's own (Exp-4, the containment setting of Theorem 4.2) the
/// translation cannot follow edges it does not know, so the oracle
/// evaluates on the extracted view.
pub fn oracle(query: &str, ds: &Dataset<'_>, dtd: &Dtd) -> BTreeSet<u32> {
    let path = parse_xpath(query).expect("report queries parse");
    let (view, origin) = extract_view(&ds.tree, ds.dtd, dtd);
    eval_from_document(&path, &view, dtd)
        .into_iter()
        .map(|n| origin[n.index()].0)
        .collect()
}

/// One measured cell.
#[derive(Clone, Debug)]
pub struct Measured {
    /// Operator counts of the translated program (Table 5's quantities).
    pub ops: OpCounts,
    /// Executor counters of one run; identical in every rep.
    pub stats: Stats,
    /// Fastest translation wall-clock over the reps.
    pub translate: Duration,
    /// Fastest execution wall-clock over the reps.
    pub exec: Duration,
}

impl Measured {
    /// Fixpoint iterations executed, simple and multi-relation together.
    pub fn fixpoint_iterations(&self) -> usize {
        self.stats.lfp_iterations + self.stats.multilfp_iterations
    }

    /// Translation milliseconds, for table rendering.
    pub fn translate_ms(&self) -> f64 {
        self.translate.as_secs_f64() * 1e3
    }

    /// Execution milliseconds, for table rendering.
    pub fn exec_ms(&self) -> f64 {
        self.exec.as_secs_f64() * 1e3
    }
}

/// Measure one cell: translate + execute `reps` times, keeping each
/// phase's fastest wall-clock (the standard way to suppress scheduler noise
/// in single-shot timings). Every rep must answer exactly `expected`, run
/// no interval rewrite, and report the same counters as the rep before it.
pub fn measure(
    approach: Approach,
    dtd: &Dtd,
    query: &str,
    db: &Database,
    sql: SqlOptions,
    expected: &BTreeSet<u32>,
    reps: usize,
) -> Measured {
    let path = parse_xpath(query).expect("report queries parse");
    let label = approach.label();
    let mut best: Option<Measured> = None;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let tr = translate_with(approach, dtd, &path, sql).expect("report queries translate");
        let translate = started.elapsed();
        let started = Instant::now();
        let mut stats = Stats::default();
        let answers = tr
            .try_run(db, ExecOptions::default(), &mut stats)
            .expect("report programs execute");
        let exec = started.elapsed();
        assert_eq!(&answers, expected, "{label} on {query}: wrong answer set");
        assert_eq!(stats.interval_rewrites, 0, "{label} on {query}: not LFP");
        match &mut best {
            Some(b) => {
                assert_eq!(stats, b.stats, "{label} on {query}: counters moved");
                b.translate = b.translate.min(translate);
                b.exec = b.exec.min(exec);
            }
            None => {
                best = Some(Measured {
                    ops: tr.program.op_counts(),
                    stats,
                    translate,
                    exec,
                })
            }
        }
    }
    best.expect("reps >= 1")
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2s_dtd::samples;

    fn measure_default(a: Approach, d: &Dtd, q: &str, ds: &Dataset<'_>) -> Measured {
        let expected = oracle(q, ds, d);
        assert!(!expected.is_empty(), "{q} finds something");
        measure(a, d, q, &ds.db, SqlOptions::default(), &expected, 2)
    }

    #[test]
    fn three_approaches_agree_on_cross() {
        // agreement with the oracle, hence with each other, is asserted
        // inside `measure`
        let d = samples::cross();
        let ds = dataset(&d, 8, 3, Some(3_000), 11);
        for a in Approach::all() {
            measure_default(a, &d, "a//d", &ds);
        }
    }

    #[test]
    fn figure_cells_run_fixpoints_not_interval_joins() {
        // Fig. 12's Qa: the store carries interval labels, and still every
        // approach must execute the LFP program the paper compares
        let d = samples::cross();
        let ds = dataset(&d, 12, 4, Some(3_000), 54);
        assert!(ds.db.has_intervals());
        for a in Approach::all() {
            let m = measure_default(a, &d, "a/b//c/d", &ds);
            let invocations = match a {
                Approach::SqlGenR => m.stats.multilfp_invocations,
                Approach::CycleE | Approach::CycleEx => m.stats.lfp_invocations,
            };
            assert!(invocations >= 1, "{}: {}", a.label(), m.stats);
            assert!(m.ops.lfp >= 1 && m.fixpoint_iterations() >= 1);
        }
    }

    #[test]
    fn dataset_is_deterministic_and_sized() {
        let d = samples::cross();
        let a = dataset(&d, 10, 4, Some(2_000), 5);
        let b = dataset(&d, 10, 4, Some(2_000), 5);
        assert_eq!(a.tree.len(), 2_000);
        assert_eq!(a.tree.len(), b.tree.len());
        assert_eq!(a.db.total_tuples(), b.db.total_tuples());
    }

    #[test]
    fn push_options_agree_with_plain() {
        let d = samples::cross();
        let ds = dataset(&d, 10, 4, Some(4_000), 7);
        let expected = oracle("a/b//c/d", &ds, &d);
        for push in [true, false] {
            let sql = SqlOptions {
                push_selections: push,
                ..SqlOptions::default()
            };
            measure(Approach::CycleEx, &d, "a/b//c/d", &ds.db, sql, &expected, 1);
        }
    }

    #[test]
    fn subgraph_oracle_sees_only_the_subgraph() {
        // Exp-4's setting: a query over BIOMLa cannot follow locus→gene
        let (full, sub) = (samples::bioml_d(), samples::bioml_a());
        let ds = dataset(&full, 7, 3, Some(900), 3);
        let direct = oracle("gene//locus", &ds, &full);
        let through = oracle("gene//locus", &ds, &sub);
        assert!(through.is_subset(&direct) && through.len() < direct.len());
        for a in Approach::all() {
            let sql = SqlOptions::default();
            measure(a, &sub, "gene//locus", &ds.db, sql, &through, 1);
        }
    }
}
