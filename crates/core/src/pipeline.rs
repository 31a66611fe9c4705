//! The end-to-end translator (paper Fig. 5): XPath → extended XPath → SQL.

use crate::e2sql::{exp_to_sql_checked, exp_to_sql_with_report, SqlOptions};
use crate::x2e::{xpath_to_exp, RecMode, XpathTranslation};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use x2s_dtd::Dtd;
use x2s_exp::ExtendedQuery;
use x2s_rel::opt::OptReport;
use x2s_rel::{
    AnalyzeWarning, Database, ExecError, ExecOptions, IntervalJoinSpec, Node, Plan, Program, Stats,
};
use x2s_xpath::Path;

/// Which algorithm instantiates `rec(A, B)` for the descendant axis. An
/// [`Engine`](crate::Engine) fixes one at `build`; compare strategies by
/// building one engine per strategy over a shared store
/// ([`Engine::load_shared`](crate::Engine::load_shared)).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum RecStrategy {
    /// CycleEX (the paper's contribution; default).
    #[default]
    CycleEx,
    /// CycleE (Tarjan's exponential expansion) with a size cap.
    CycleE {
        /// AST-node cap for intermediate regular expressions.
        cap: usize,
    },
}

/// Translation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslateError {
    /// CycleE exceeded its size cap (the expected exponential blowup).
    RecBlowup {
        /// the cap
        cap: usize,
        /// the size reached
        reached: usize,
    },
    /// An expression referenced a variable with no defining equation.
    UnboundVariable(u32),
    /// The translated program failed the static plan analyzer
    /// ([`x2s_rel::analyze`]) — a translator bug caught before execution.
    Analyze(x2s_rel::AnalyzeError),
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::RecBlowup { cap, reached } => {
                write!(
                    f,
                    "rec(A,B) expression blew past the cap: {reached} > {cap}"
                )
            }
            TranslateError::UnboundVariable(v) => write!(f, "unbound variable X{v}"),
            TranslateError::Analyze(e) => {
                write!(f, "translated program failed static analysis: {e}")
            }
        }
    }
}

impl std::error::Error for TranslateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TranslateError::Analyze(e) => Some(e),
            _ => None,
        }
    }
}

impl From<x2s_rel::AnalyzeError> for TranslateError {
    fn from(e: x2s_rel::AnalyzeError) -> Self {
        TranslateError::Analyze(e)
    }
}

/// The interval fast-path compilation of a query: the same extended query
/// compiled with every whole-`rec(A, B)` variable overridden by a
/// [`Plan::IntervalJoin`] pre/post range join instead of an `LFP`.
///
/// Kept *alongside* the LFP program, never instead of it: the schema-level
/// translation, all SQL dialect renderers and stores without interval
/// labels keep consuming [`Translation::program`]. [`Translation::try_run`]
/// picks this variant only when both the caller
/// ([`ExecOptions::interval`]) and the store
/// ([`Database::has_intervals`]) permit it.
#[derive(Debug)]
pub struct IntervalVariant {
    /// The interval-rewritten program (same optimizer level as the main
    /// program).
    pub program: Program,
    /// Number of `IntervalJoin` nodes in the optimized program — each one
    /// is the `rec(A, B)` of a whole child-step `//` that became one range
    /// join into `R_B`.
    pub rewrites: usize,
}

/// A completed translation: the intermediate extended XPath query and the
/// final SQL program.
#[derive(Debug)]
pub struct Translation {
    /// Pruned extended XPath query (step 1, Theorem 4.2).
    pub extended: ExtendedQuery,
    /// The SQL statement program (step 2, Corollary 5.1), already through
    /// the logical optimizer at [`SqlOptions::optimize`] — the executor,
    /// every dialect renderer and `explain` all consume this one program.
    pub program: Program,
    /// What the optimizer did: operator counts before/after and pass-level
    /// counters ([`x2s_rel::opt::OptStats`]).
    pub opt: OptReport,
    /// The static analyzer's non-fatal warnings on [`Translation::program`]
    /// (dead statements), from the analysis the translator ran.
    pub warnings: Vec<AnalyzeWarning>,
    /// Interval fast-path variant, when the query has at least one
    /// rewritable `rec(A, B)` and the translator has the path enabled.
    pub interval: Option<IntervalVariant>,
}

impl Translation {
    /// Execute against an edge-shredded database; returns answer node ids.
    ///
    /// Execution can fail when the database does not carry the relations the
    /// program scans — e.g. a store shredded under a different DTD, or a
    /// hand-built [`Database`] missing `R_A` tables. Those are caller errors,
    /// not translation bugs, so they surface as [`ExecError`] rather than a
    /// panic.
    pub fn try_run(
        &self,
        db: &Database,
        opts: ExecOptions,
        stats: &mut Stats,
    ) -> Result<BTreeSet<u32>, ExecError> {
        let program = match &self.interval {
            Some(v) if opts.interval && db.has_intervals() => {
                stats.interval_rewrites += v.rewrites;
                &v.program
            }
            Some(_) if opts.interval => {
                stats.interval_fallbacks += 1;
                &self.program
            }
            _ => &self.program,
        };
        let rel = program.execute(db, opts, stats)?;
        Ok(rel.rows().filter_map(|t| t[0].as_id()).collect())
    }
}

/// The translator: fixes a DTD, a rec strategy, and SQL options.
pub struct Translator<'a> {
    dtd: &'a Dtd,
    strategy: RecStrategy,
    sql_options: SqlOptions,
    interval: bool,
}

impl<'a> Translator<'a> {
    /// Default translator (CycleEX + all optimizations + interval variant).
    pub fn new(dtd: &'a Dtd) -> Self {
        Translator {
            dtd,
            strategy: RecStrategy::CycleEx,
            sql_options: SqlOptions::default(),
            interval: true,
        }
    }

    /// Select the rec strategy.
    pub fn with_strategy(mut self, strategy: RecStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Select SQL options.
    pub fn with_sql_options(mut self, opts: SqlOptions) -> Self {
        self.sql_options = opts;
        self
    }

    /// Enable or disable compiling the interval fast-path variant
    /// (enabled by default; the main LFP program is built either way).
    pub fn with_interval(mut self, interval: bool) -> Self {
        self.interval = interval;
        self
    }

    fn rec_mode(&self) -> RecMode {
        match &self.strategy {
            RecStrategy::CycleEx => RecMode::CycleEx,
            RecStrategy::CycleE { cap } => RecMode::CycleE { cap: *cap },
        }
    }

    /// Step 1 only: XPath → pruned extended XPath (also the view-rewriting
    /// entry point, §3.4).
    pub fn to_extended(&self, path: &Path) -> Result<ExtendedQuery, TranslateError> {
        let tr = xpath_to_exp(path, self.dtd, &self.rec_mode())?;
        Ok(tr.query.pruned())
    }

    /// Full pipeline: XPath → extended XPath → SQL program (optimized at
    /// [`SqlOptions::optimize`]).
    ///
    /// When the query has a child-step `//` below the document (one
    /// [`crate::x2e::RecHint`] per entry) and the interval path is enabled,
    /// a second program is compiled with those variables overridden by
    /// [`Plan::IntervalJoin`] range joins; the main program stays pure LFP so
    /// schema-only translation and dialect rendering are unchanged.
    pub fn translate(&self, path: &Path) -> Result<Translation, TranslateError> {
        let tr = xpath_to_exp(path, self.dtd, &self.rec_mode())?;
        let (extended, var_map) = tr.query.pruned_with_map();
        let (program, opt, warnings) =
            exp_to_sql_checked(&extended, &self.sql_options, &HashMap::new())?;
        let interval = self.compile_interval_variant(&tr, &extended, &var_map)?;
        Ok(Translation {
            extended,
            program,
            opt,
            warnings,
            interval,
        })
    }

    /// Compile the interval fast-path variant, if the query admits one.
    /// Returns `None` when disabled, when no hint survives pruning, or when
    /// the optimizer eliminated every rewritten variable (e.g. the pruned
    /// query never reads it), so callers can trust `rewrites > 0`.
    fn compile_interval_variant(
        &self,
        tr: &XpathTranslation,
        extended: &ExtendedQuery,
        var_map: &HashMap<x2s_exp::VarId, x2s_exp::VarId>,
    ) -> Result<Option<IntervalVariant>, TranslateError> {
        if !self.interval || tr.rec_hints.is_empty() {
            return Ok(None);
        }
        let overrides: HashMap<x2s_exp::VarId, Plan> = tr
            .rec_hints
            .iter()
            .filter_map(|hint| {
                // hints name unpruned variables; drop those pruned away
                let new_var = *var_map.get(&hint.var)?;
                let spec = IntervalJoinSpec {
                    left: Box::new(Plan::Scan(format!("R_{}", hint.from))),
                    left_col: 1,
                    right: format!("R_{}", hint.to),
                };
                Some((new_var, Plan::IntervalJoin(spec)))
            })
            .collect();
        if overrides.is_empty() {
            return Ok(None);
        }
        let (program, _) = exp_to_sql_with_report(extended, &self.sql_options, &overrides)?;
        let rewrites = program
            .nodes()
            .iter()
            .filter(|n| matches!(n, Node::IntervalJoin(_)))
            .count();
        if rewrites == 0 {
            return Ok(None);
        }
        Ok(Some(IntervalVariant { program, rewrites }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2s_dtd::samples;
    use x2s_shred::edge_database;
    use x2s_xml::parse_xml;
    use x2s_xpath::{eval_from_document, parse_xpath};

    /// End-to-end: SQL result == native XPath oracle (Corollary 5.1).
    fn check_sql_equiv(dtd: &x2s_dtd::Dtd, xml: &str, queries: &[&str]) {
        let tree = parse_xml(dtd, xml).unwrap();
        let db = edge_database(&tree, dtd);
        for q in queries {
            let path = parse_xpath(q).unwrap();
            let native: BTreeSet<u32> = eval_from_document(&path, &tree, dtd)
                .into_iter()
                .map(|n| n.0)
                .collect();
            for strategy in [RecStrategy::CycleEx, RecStrategy::CycleE { cap: 1_000_000 }] {
                for push in [true, false] {
                    for optimize in [x2s_rel::OptLevel::Full, x2s_rel::OptLevel::None] {
                        let tr = Translator::new(dtd)
                            .with_strategy(strategy.clone())
                            .with_sql_options(SqlOptions {
                                push_selections: push,
                                optimize,
                            })
                            .translate(&path)
                            .unwrap();
                        assert!(
                            tr.opt.after.total() <= tr.opt.before.total(),
                            "optimizer grew {q}: {}",
                            tr.opt
                        );
                        let mut stats = Stats::default();
                        let got = tr.try_run(&db, ExecOptions::default(), &mut stats).unwrap();
                        assert_eq!(
                            got, native,
                            "query {q}, {strategy:?}, push={push}, {optimize:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dept_queries_end_to_end() {
        let d = samples::dept_simplified();
        check_sql_equiv(
            &d,
            "<dept><course><course><course/><project><course><project/></course></project></course><student/><student><course/></student></course></dept>",
            &[
                "dept//project",
                "dept/course",
                "dept//course",
                "dept/course/student[course]",
                "dept//course[not //project]",
                "dept//course[project or student]",
                "dept/course/(student | project)",
            ],
        );
    }

    #[test]
    fn cross_queries_end_to_end() {
        let d = samples::cross();
        check_sql_equiv(
            &d,
            "<a><b><a><c><d/><a/></c></a></b><c><d/></c></a>",
            &[
                "a/b//c/d",
                "a[//c]//d",
                "a[not //c]",
                "a[not //c or (b and //d)]",
                "a//d",
                "a//a",
            ],
        );
    }

    #[test]
    fn gedml_recursive_root_end_to_end() {
        let d = samples::gedml();
        check_sql_equiv(
            &d,
            "<Even><Sour><Data><Even><Sour/></Even></Data><Note><Obje/></Note></Sour><Obje><Sour><Data/></Sour></Obje></Even>",
            &["Even//Data", "//Even", "Even//Even", "Even/Sour/Data", "Even//Obje[Sour]"],
        );
    }

    #[test]
    fn lazy_program_skips_unused_statements() {
        let d = samples::dept_simplified();
        let tree = parse_xml(&d, "<dept><course><project/></course></dept>").unwrap();
        let db = edge_database(&tree, &d);
        let path = parse_xpath("dept//project").unwrap();
        // unoptimized: the optimizer's dead-statement pass would leave
        // nothing to skip
        let tr = Translator::new(&d)
            .with_sql_options(SqlOptions {
                optimize: x2s_rel::OptLevel::None,
                ..SqlOptions::default()
            })
            .translate(&path)
            .unwrap();
        let mut stats = Stats::default();
        tr.try_run(&db, ExecOptions::default().with_interval(false), &mut stats)
            .unwrap();
        assert!(stats.stmts_skipped > 0);
        assert_eq!(
            stats.stmts_evaluated + stats.stmts_skipped,
            tr.program.len()
        );
    }

    #[test]
    fn translation_exposes_extended_query() {
        let d = samples::dept_simplified();
        let path = parse_xpath("dept//project").unwrap();
        let tr = Translator::new(&d).translate(&path).unwrap();
        assert!(!tr.extended.result.is_empty_set());
        assert!(!tr.program.is_empty());
        let counts = tr.program.op_counts();
        assert!(counts.lfp >= 1, "descendant axis needs at least one LFP");
    }

    #[test]
    fn try_run_surfaces_missing_relations() {
        // Execute a dept-translated program against an empty store: the
        // program scans relations that do not exist, and the error must
        // come back as a Result, not a panic.
        let d = samples::dept_simplified();
        let path = parse_xpath("dept//project").unwrap();
        let tr = Translator::new(&d).translate(&path).unwrap();
        let mut stats = Stats::default();
        let err = tr
            .try_run(&Database::new(), ExecOptions::default(), &mut stats)
            .unwrap_err();
        assert!(matches!(err, ExecError::UnknownRelation(_)), "got {err:?}");
    }

    #[test]
    fn cyclee_strategy_errors_on_blowup() {
        let d = samples::complete_dag(14);
        let path = parse_xpath("//A14").unwrap();
        let err = Translator::new(&d)
            .with_strategy(RecStrategy::CycleE { cap: 500 })
            .translate(&path)
            .unwrap_err();
        assert!(matches!(err, TranslateError::RecBlowup { .. }));
    }
}
