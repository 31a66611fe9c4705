//! Interval fast path ⇔ LFP oracle suite.
//!
//! The interval rewrite replaces `LFP(descendant)` with a pre/post
//! range join over the shredder's interval labels. This suite pins its
//! soundness: for every workload the interval program, the LFP program,
//! and the native XPath evaluator must return the *same* answer set at
//! both optimizer levels — plus a seeded property test over randomly
//! generated `//` queries.

use std::collections::BTreeSet;
use xpath2sql::core::{SqlOptions, Translator};
use xpath2sql::dtd::{samples, Dtd};
use xpath2sql::rel::{ExecOptions, OptLevel, Stats};
use xpath2sql::shred::edge_database;
use xpath2sql::xml::{Generator, GeneratorConfig, Tree};
use xpath2sql::xpath::{eval_from_document, parse_xpath};

/// One workload: a query and whether the translation must carry the
/// interval variant (`//` sourced at the document node stays on the LFP
/// path — the document has no interval label).
struct Case {
    query: &'static str,
    expect_variant: bool,
}

fn case(query: &'static str) -> Case {
    Case {
        query,
        expect_variant: true,
    }
}

fn lfp_only(query: &'static str) -> Case {
    Case {
        query,
        expect_variant: false,
    }
}

/// The full grid for one document: queries × OptLevel {None, Full},
/// interval vs LFP vs native oracle.
fn check_interval_equiv(dtd: &Dtd, tree: &Tree, cases: &[Case]) {
    let db = edge_database(tree, dtd);
    assert!(db.has_intervals(), "shredded store carries labels");
    for c in cases {
        let path = parse_xpath(c.query).unwrap_or_else(|e| panic!("query {}: {e}", c.query));
        let native: BTreeSet<u32> = eval_from_document(&path, tree, dtd)
            .into_iter()
            .map(|n| n.0)
            .collect();
        for optimize in [OptLevel::None, OptLevel::Full] {
            let tr = Translator::new(dtd)
                .with_sql_options(SqlOptions {
                    optimize,
                    ..SqlOptions::default()
                })
                .translate(&path)
                .unwrap();
            assert_eq!(
                tr.interval.is_some(),
                c.expect_variant,
                "{} ({optimize:?}): interval variant presence",
                c.query
            );
            if let Some(v) = &tr.interval {
                assert!(v.rewrites > 0, "{}: empty variant survived", c.query);
            }
            let base = ExecOptions::default();
            let mut lfp_stats = Stats::default();
            let lfp = tr
                .try_run(&db, base.with_interval(false), &mut lfp_stats)
                .unwrap();
            assert_eq!(lfp_stats.interval_rewrites, 0, "{}: opted out", c.query);
            let mut iv_stats = Stats::default();
            let iv = tr
                .try_run(&db, base.with_interval(true), &mut iv_stats)
                .unwrap();
            let ctx = format!("{} ({optimize:?})", c.query);
            assert_eq!(iv, lfp, "{ctx}: interval differs from LFP");
            assert_eq!(lfp, native, "{ctx}: LFP differs from native oracle");
            if c.expect_variant {
                assert!(
                    iv_stats.interval_rewrites > 0,
                    "{ctx}: interval program was not selected"
                );
            }
        }
    }
}

#[test]
fn dept_interval_equivalence() {
    let d = samples::dept_simplified();
    let tree = Generator::new(
        &d,
        GeneratorConfig::shaped(10, 4, Some(4_000)).with_seed(42),
    )
    .generate();
    check_interval_equiv(
        &d,
        &tree,
        &[
            case("dept//project"),
            case("dept//course"),
            case("dept//course[project or student]"),
            case("dept//course[not //project]"),
            // no `//` at all → nothing to rewrite
            lfp_only("dept/course/student[course]"),
            lfp_only("dept/course"),
        ],
    );
}

#[test]
fn cross_interval_equivalence() {
    let d = samples::cross();
    let tree =
        Generator::new(&d, GeneratorConfig::shaped(10, 4, Some(4_000)).with_seed(7)).generate();
    check_interval_equiv(
        &d,
        &tree,
        &[
            case("a//d"),
            case("a/b//c/d"),
            // self-recursive pair rec(a, a): strict containment only
            case("a//a"),
            case("a[//c]//d"),
            case("a[not //c or (b and //d)]"),
        ],
    );
}

#[test]
fn gedml_interval_equivalence() {
    let d = samples::gedml();
    let tree = Generator::new(
        &d,
        GeneratorConfig::shaped(11, 5, Some(5_000)).with_seed(13),
    )
    .generate();
    check_interval_equiv(
        &d,
        &tree,
        &[
            case("Even//Data"),
            case("Even//Obje[Sour]"),
            case("Even//Even"),
            lfp_only("Even/Sour/Data"),
            // document-sourced descendant: the doc node has no interval
            // label, so `rec(#doc, Even)` must stay on the LFP path
            lfp_only("//Even"),
        ],
    );
}

/// A `//` whose operand is one child step (`A//B`, `A//B[q]`, `A//*`)
/// runs as one range join per target type straight into `R_B`, with no
/// fixpoint left in the interval program and no child join behind it; the
/// answers still equal the native evaluator's. Any other operand is pushed
/// down to child steps first: `A//(B/C)` runs as `(A//B)/C`, `A//.` as
/// `. | A//*`.
#[test]
fn child_step_descendants_run_one_range_join_each() {
    let d = samples::dept_simplified();
    let tree = Generator::new(
        &d,
        GeneratorConfig::shaped(10, 4, Some(4_000)).with_seed(42),
    )
    .generate();
    let db = edge_database(&tree, &d);
    for (q, joins) in [
        ("dept//project", 1),
        ("dept//course", 1),
        ("dept//course[project or student]", 1),
        ("dept//student[course]", 1),
        ("dept/course//course/project", 1),
        ("dept//course[project][student]", 1),
        ("dept//course[not //project]", 2),
        ("dept//*", 3),
        ("dept//(student | project)[course]", 2),
        ("dept//(course/project)", 1),
        ("dept//(student | course/project)", 2),
        ("dept//(course/student)[course]", 1),
        ("dept//.", 3),
    ] {
        let path = parse_xpath(q).unwrap();
        let tr = Translator::new(&d).translate(&path).unwrap();
        let v = tr.interval.as_ref().expect("a labelled // step");
        assert_eq!(v.rewrites, joins, "{q}: range joins");
        assert_eq!(v.program.op_counts().lfp, 0, "{q}: no fixpoint left");
        let native: BTreeSet<u32> = eval_from_document(&path, &tree, &d)
            .into_iter()
            .map(|n| n.0)
            .collect();
        let mut stats = Stats::default();
        let got = tr.try_run(&db, ExecOptions::default(), &mut stats).unwrap();
        assert_eq!(got, native, "{q}");
        assert_eq!(stats.interval_rewrites, joins, "{q}: interval program ran");
        assert_eq!(stats.lfp_invocations, 0, "{q}");
    }
}

/// Seeded property test: random `A//B` and `A//B[C]` queries over the
/// element types of each sample DTD. Many are empty (wrong root, no path
/// between the types) — emptiness must agree across paths too.
#[test]
fn random_descendant_queries_agree() {
    let mut rng: u64 = 0x17e4_a150_5eed;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for (dtd, seed) in [
        (samples::dept_simplified(), 3u64),
        (samples::cross(), 11),
        (samples::gedml(), 5),
    ] {
        let tree = Generator::new(
            &dtd,
            GeneratorConfig::shaped(9, 4, Some(2_500)).with_seed(seed),
        )
        .generate();
        let db = edge_database(&tree, &dtd);
        let names: Vec<&str> = dtd.ids().map(|id| dtd.name(id)).collect();
        let mut variants_seen = 0usize;
        for _ in 0..24 {
            let a = names[(next() as usize) % names.len()];
            let b = names[(next() as usize) % names.len()];
            let q = if next() % 2 == 0 {
                format!("{a}//{b}")
            } else {
                let c = names[(next() as usize) % names.len()];
                format!("{a}//{b}[{c}]")
            };
            let path = parse_xpath(&q).unwrap();
            let native: BTreeSet<u32> = eval_from_document(&path, &tree, &dtd)
                .into_iter()
                .map(|n| n.0)
                .collect();
            let tr = Translator::new(&dtd).translate(&path).unwrap();
            let mut lfp_stats = Stats::default();
            let lfp = tr
                .try_run(
                    &db,
                    ExecOptions::default().with_interval(false),
                    &mut lfp_stats,
                )
                .unwrap();
            let mut iv_stats = Stats::default();
            let iv = tr
                .try_run(&db, ExecOptions::default(), &mut iv_stats)
                .unwrap();
            assert_eq!(iv, lfp, "{q}: interval differs from LFP");
            assert_eq!(lfp, native, "{q}: LFP differs from native oracle");
            if tr.interval.is_some() {
                variants_seen += 1;
                assert!(iv_stats.interval_rewrites > 0, "{q}: variant not selected");
            }
        }
        assert!(
            variants_seen > 0,
            "at least one random query per DTD takes the fast path"
        );
    }
}

/// A store that lost its labels says so: `interval_fallbacks` stays 0 on a
/// freshly shredded store and counts every execution that had an interval
/// variant, was allowed to use it, and ran the LFP program anyway because a
/// `Database::insert` dropped the labels. Opting out, or having no variant
/// to fall back from, is not a fallback.
#[test]
fn mutated_store_counts_interval_fallbacks() {
    let dtd = samples::dept_simplified();
    let tree = Generator::new(
        &dtd,
        GeneratorConfig::shaped(8, 3, Some(1_500)).with_seed(42),
    )
    .generate();
    let mut db = edge_database(&tree, &dtd);
    let recursive = Translator::new(&dtd)
        .translate(&parse_xpath("dept//project").unwrap())
        .unwrap();
    let flat = Translator::new(&dtd)
        .translate(&parse_xpath("dept/course").unwrap())
        .unwrap();
    assert!(recursive.interval.is_some() && flat.interval.is_none());

    let mut fresh = Stats::default();
    let labelled = recursive
        .try_run(&db, ExecOptions::default(), &mut fresh)
        .unwrap();
    assert_eq!(fresh.interval_fallbacks, 0, "labels intact: fast path");
    assert!(fresh.interval_rewrites > 0);

    let project = db.get("R_project").unwrap().clone();
    db.insert("R_project", project);
    assert!(!db.has_intervals(), "any insert drops the labels");
    let mut mutated = Stats::default();
    let unlabelled = recursive
        .try_run(&db, ExecOptions::default(), &mut mutated)
        .unwrap();
    assert_eq!(unlabelled, labelled, "same rows, same answer, other path");
    assert_eq!(mutated.interval_fallbacks, 1);
    assert_eq!(mutated.interval_rewrites, 0);
    assert!(
        mutated.lfp_invocations > 0,
        "the fallback is the LFP program"
    );
    recursive
        .try_run(&db, ExecOptions::default(), &mut mutated)
        .unwrap();
    assert_eq!(mutated.interval_fallbacks, 2, "one per execution");

    recursive
        .try_run(
            &db,
            ExecOptions::default().with_interval(false),
            &mut mutated,
        )
        .unwrap();
    flat.try_run(&db, ExecOptions::default(), &mut mutated)
        .unwrap();
    assert_eq!(mutated.interval_fallbacks, 2, "opt-out / no variant");
}
