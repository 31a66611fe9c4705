//! Optimizer correctness: every Table-5 workload query must return the
//! *identical result relation* at `OptLevel::None` and `OptLevel::Full`
//! under the native executor, and the optimized program must render sanely in both SQL dialects with
//! operator counts that never exceed the unoptimized ones (§5.2 / Table 5:
//! the translation's value is a small program — the optimizer may only make
//! it smaller).

use std::collections::BTreeSet;
use xpath2sql::core::{OptLevel, SqlOptions, Translation, Translator};
use xpath2sql::dtd::{samples, Dtd};
use xpath2sql::rel::{
    analyze_program_with, edge_scan_schema, render_program, ExecOptions, Relation, SqlDialect,
    Stats,
};
use xpath2sql::shred::edge_database;
use xpath2sql::xml::{Generator, GeneratorConfig};
use xpath2sql::xpath::parse_xpath;

/// The Table-5 evaluation DTDs with the workload queries the figures run
/// over them (Qa–Qd + scalability on Cross, Even//Data on GedML, the BIOML
/// cases, and the running dept example).
fn workload() -> Vec<(&'static str, Dtd, Vec<&'static str>)> {
    vec![
        (
            "cross",
            samples::cross(),
            vec![
                "a/b//c/d",
                "a[//c]//d",
                "a[not //c]",
                "a[not //c or (b and //d)]",
                "a//d",
                "a//a",
            ],
        ),
        (
            "dept",
            samples::dept_simplified(),
            vec![
                "dept//project",
                "dept//course[project or student]",
                "dept/course/student[course]",
            ],
        ),
        (
            "gedml",
            samples::gedml(),
            vec!["Even//Data", "Even//Even", "Even//Obje[Sour]"],
        ),
        ("bioml", samples::bioml(), vec!["gene//locus", "gene//dna"]),
    ]
}

fn translate(dtd: &Dtd, query: &str, optimize: OptLevel) -> Translation {
    let path = parse_xpath(query).unwrap();
    Translator::new(dtd)
        .with_sql_options(SqlOptions {
            optimize,
            ..SqlOptions::default()
        })
        .translate(&path)
        .unwrap()
}

/// Execute a translation's program to its full result relation.
fn result_relation(tr: &Translation, db: &xpath2sql::rel::Database) -> Relation {
    let mut stats = Stats::default();
    tr.program
        .execute(db, ExecOptions::default(), &mut stats)
        .unwrap()
}

/// The acceptance property: identical relations (arity and row sets) at
/// both levels, plus answer-set equality.
#[test]
fn optimized_programs_return_identical_relations() {
    for (name, dtd, queries) in workload() {
        let tree = Generator::new(
            &dtd,
            GeneratorConfig::shaped(8, 3, Some(900)).with_seed(0xA11CE),
        )
        .generate();
        let db = edge_database(&tree, &dtd);
        for q in queries {
            let off = translate(&dtd, q, OptLevel::None);
            let on = translate(&dtd, q, OptLevel::Full);
            let base = result_relation(&off, &db);
            let opt = result_relation(&on, &db);
            assert_eq!(opt.arity(), base.arity(), "{name}/{q}: arity differs");
            assert_eq!(
                opt.sorted_tuples(),
                base.sorted_tuples(),
                "{name}/{q}: tuples differ"
            );
            // answer-set view through try_run as well
            let mut s1 = Stats::default();
            let mut s2 = Stats::default();
            let a: BTreeSet<u32> = off.try_run(&db, ExecOptions::default(), &mut s1).unwrap();
            let b: BTreeSet<u32> = on.try_run(&db, ExecOptions::default(), &mut s2).unwrap();
            assert_eq!(a, b, "{name}/{q}: answers differ");
        }
    }
}

/// Acceptance: optimized operator counts are ≤ unoptimized on *every*
/// workload query, and strictly smaller on at least 3.
#[test]
fn optimized_op_counts_never_grow_and_strictly_shrink_somewhere() {
    let mut strictly_smaller = 0usize;
    let mut checked = 0usize;
    for (name, dtd, queries) in workload() {
        for q in queries {
            let off = translate(&dtd, q, OptLevel::None).program.op_counts();
            let on_tr = translate(&dtd, q, OptLevel::Full);
            let on = on_tr.program.op_counts();
            checked += 1;
            assert!(
                on.total() <= off.total(),
                "{name}/{q}: ALL grew {} -> {}",
                off.total(),
                on.total()
            );
            assert!(
                on.lfp <= off.lfp,
                "{name}/{q}: LFP count grew {} -> {}",
                off.lfp,
                on.lfp
            );
            assert!(
                on.total_with_fixpoint_ops() <= off.total_with_fixpoint_ops(),
                "{name}/{q}: ALL+fixpoint ops grew"
            );
            if on.total() < off.total() {
                strictly_smaller += 1;
            }
            // the report the translation carries must agree with the
            // programs themselves
            assert_eq!(on_tr.opt.after, on);
            assert_eq!(on_tr.opt.before, off);
            // dead statements survive only in unoptimized programs
            let analysis = analyze_program_with(&on_tr.program, &edge_scan_schema).unwrap();
            assert!(analysis.warnings.is_empty(), "{name}/{q}: dead statements");
        }
    }
    assert!(
        strictly_smaller >= 3,
        "only {strictly_smaller}/{checked} queries shrank strictly"
    );
}

/// The optimized program is the one program every dialect renders: the text
/// must keep the structural landmarks of Fig. 4 (recursion shape per
/// dialect, one CREATE per statement, balanced parentheses, the final
/// result SELECT) for every workload query.
#[test]
fn optimized_programs_render_sanely_in_all_dialects() {
    for (name, dtd, queries) in workload() {
        for q in queries {
            let tr = translate(&dtd, q, OptLevel::Full);
            let counts = tr.program.op_counts();
            for dialect in [SqlDialect::Sql99, SqlDialect::Oracle] {
                let sql = render_program(&tr.program, dialect);
                assert_eq!(
                    sql.matches("CREATE TEMPORARY TABLE").count(),
                    tr.program.len(),
                    "{name}/{q}: one CREATE per statement ({dialect:?})"
                );
                let result = tr.program.result().unwrap();
                assert!(
                    sql.trim_end()
                        .ends_with(&format!("SELECT * FROM T{};", result.0)),
                    "{name}/{q}: script ends with the result SELECT ({dialect:?})"
                );
                assert_eq!(
                    sql.matches('(').count(),
                    sql.matches(')').count(),
                    "{name}/{q}: unbalanced parentheses ({dialect:?})"
                );
                if counts.lfp > 0 {
                    match dialect {
                        SqlDialect::Sql99 => {
                            assert!(
                                sql.contains("WITH RECURSIVE"),
                                "{name}/{q}: closures must render recursively ({dialect:?})"
                            );
                        }
                        SqlDialect::Oracle => {
                            assert!(
                                sql.contains("CONNECT BY"),
                                "{name}/{q}: closures must render CONNECT BY"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// `OptLevel::None` must preserve the raw compiler output byte-identically
/// (ablation baseline) — pinned through the renderer, which serializes the
/// whole program.
#[test]
fn opt_level_none_is_byte_identical_to_raw_translation() {
    let d = samples::dept_simplified();
    let q = parse_xpath("dept//course[project or student]").unwrap();
    let none_a = Translator::new(&d)
        .with_sql_options(SqlOptions {
            optimize: OptLevel::None,
            ..SqlOptions::default()
        })
        .translate(&q)
        .unwrap();
    let none_b = Translator::new(&d)
        .with_sql_options(SqlOptions {
            optimize: OptLevel::None,
            ..SqlOptions::default()
        })
        .translate(&q)
        .unwrap();
    assert_eq!(
        render_program(&none_a.program, SqlDialect::Sql99),
        render_program(&none_b.program, SqlDialect::Sql99),
        "translation is deterministic"
    );
    assert_eq!(none_a.opt.before, none_a.opt.after);
    assert_eq!(none_a.opt.stats.rounds, 0, "the optimizer never ran");
    // and the optimized program of the same query is genuinely different
    let full = translate(&d, "dept//course[project or student]", OptLevel::Full);
    assert!(full.program.len() < none_a.program.len());
}

/// Optimizer pass counters reach the engine's stats on a plan-cache miss
/// only: a hit re-serves the already-optimized program.
#[test]
fn engine_records_optimizer_counters_on_misses_only() {
    let d = samples::dept_simplified();
    let engine = xpath2sql::core::Engine::new(&d);
    engine.prepare("dept//project").unwrap();
    let miss = engine.stats();
    assert!(
        miss.opt_plans_hash_consed > 0 || miss.opt_stmts_eliminated > 0,
        "optimizer counters surface through engine stats: {miss}"
    );
    engine.prepare("dept//project").unwrap();
    let hit = engine.stats();
    assert_eq!(hit.plan_cache_hits, 1);
    assert_eq!(hit.opt_stmts_eliminated, miss.opt_stmts_eliminated);
    assert_eq!(hit.opt_plans_hash_consed, miss.opt_plans_hash_consed);
}
