//! Property-based testing of the translation pipeline: random queries from
//! the fragment grammar × random generated documents, checked against the
//! native XPath oracle through both translation steps.
//!
//! The build environment has no network access, so instead of the `proptest`
//! crate this harness drives its own seeded random query generator (the same
//! weighted grammar the original strategies encoded: labels including ones
//! the DTD does not declare to exercise ∅ folding, `//`, unions, and nested
//! qualifiers with negation). Every case is deterministic in its seed, and
//! failures report the offending query and seed, so a failing case can be
//! replayed by rerunning the test.

mod support;

use std::collections::BTreeSet;
use support::{arb_path, case_rng};
use xpath2sql::core::{OptLevel, SqlOptions, Translator};
use xpath2sql::dtd::{samples, Dtd};
use xpath2sql::rel::{Database, ExecOptions, Stats};
use xpath2sql::shred::edge_database;
use xpath2sql::sqlgenr::SqlGenR;
use xpath2sql::xml::{Generator, GeneratorConfig};
use xpath2sql::xpath::{eval_from_document, Path};

/// Cases per (property, document-seed) pair, sized so every property runs at
/// least the 48 cases the original proptest configuration did: 16 × 4 seeds
/// for cross, 16 × 3 for dept, and 24 × 2 for gedml (see `GEDML_CASES`).
const CASES_PER_SEED: usize = 16;

/// gedml only has two document seeds, so it takes more queries per seed.
const GEDML_CASES: usize = 24;

/// Text literals for `text() = "…"`: beside document values, literals
/// holding either quote (never both: no XPath 1.0 literal can), `]`, `|`
/// and spaces — the characters a printer could confuse with query syntax.
const LITERALS: &[&str] = &[
    "v0",
    "v1",
    "sel",
    "it's",
    r#"say "hi""#,
    r#"x"][text()="y"#,
    "a]b",
    "x|y",
    " two  words ",
];

fn check_one(dtd: &Dtd, tree: &xpath2sql::xml::Tree, db: &Database, query: &Path, seed: u64) {
    let native: BTreeSet<u32> = eval_from_document(query, tree, dtd)
        .into_iter()
        .map(|n| n.0)
        .collect();
    // step 1 equivalence
    let extended = Translator::new(dtd).to_extended(query).unwrap();
    let via_extended: BTreeSet<u32> = extended
        .eval_from_document(tree, dtd)
        .into_iter()
        .map(|n| n.0)
        .collect();
    assert_eq!(
        via_extended, native,
        "extended mismatch for {query} (doc seed {seed})"
    );
    // step 2 equivalence, §5.2 pushing and the logical optimizer each on
    // and off — the optimizer must never change an answer
    for push in [true, false] {
        for optimize in [OptLevel::Full, OptLevel::None] {
            let tr = Translator::new(dtd)
                .with_sql_options(SqlOptions {
                    push_selections: push,
                    optimize,
                })
                .translate(query)
                .unwrap();
            assert!(
                tr.opt.after.total() <= tr.opt.before.total(),
                "optimizer grew {query} (doc seed {seed}): {}",
                tr.opt
            );
            let mut stats = Stats::default();
            let got = tr.try_run(db, ExecOptions::default(), &mut stats).unwrap();
            assert_eq!(
                got, native,
                "SQL mismatch for {query} (push={push}, {optimize:?}, doc seed {seed})"
            );
        }
    }
    // baseline equivalence
    let tr = SqlGenR::new(dtd).translate(query).unwrap();
    let mut stats = Stats::default();
    let got = tr.try_run(db, ExecOptions::default(), &mut stats).unwrap();
    assert_eq!(
        got, native,
        "SQLGen-R mismatch for {query} (doc seed {seed})"
    );
}

#[test]
fn random_queries_on_cross() {
    let labels = ["a", "b", "c", "d", "zzz"];
    let dtd = samples::cross();
    for seed in 0u64..4 {
        let tree = Generator::new(
            &dtd,
            GeneratorConfig::shaped(7, 3, Some(350)).with_seed(seed),
        )
        .generate();
        let db = edge_database(&tree, &dtd);
        for case in 0..CASES_PER_SEED {
            let mut rng = case_rng(1, seed, case);
            let query = arb_path(&mut rng, &labels, LITERALS, 3);
            check_one(&dtd, &tree, &db, &query, seed);
        }
    }
}

#[test]
fn random_queries_on_dept() {
    let labels = ["dept", "course", "student", "project"];
    let dtd = samples::dept_simplified();
    for seed in 10u64..13 {
        let tree = Generator::new(
            &dtd,
            GeneratorConfig::shaped(6, 3, Some(300)).with_seed(seed),
        )
        .generate();
        let db = edge_database(&tree, &dtd);
        for case in 0..CASES_PER_SEED {
            let mut rng = case_rng(2, seed, case);
            let query = arb_path(&mut rng, &labels, LITERALS, 3);
            check_one(&dtd, &tree, &db, &query, seed);
        }
    }
}

#[test]
fn random_queries_on_gedml() {
    let labels = ["Even", "Sour", "Note", "Obje", "Data"];
    let dtd = samples::gedml();
    for seed in 20u64..22 {
        let tree = Generator::new(
            &dtd,
            GeneratorConfig::shaped(5, 3, Some(250)).with_seed(seed),
        )
        .generate();
        let db = edge_database(&tree, &dtd);
        for case in 0..GEDML_CASES {
            let mut rng = case_rng(3, seed, case);
            let query = arb_path(&mut rng, &labels, LITERALS, 2);
            check_one(&dtd, &tree, &db, &query, seed);
        }
    }
}

/// Pruning never changes extended-query semantics.
#[test]
fn pruning_preserves_semantics() {
    let labels = ["a", "b", "c", "d"];
    let dtd = samples::cross();
    for seed in 30u64..33 {
        let tree = Generator::new(
            &dtd,
            GeneratorConfig::shaped(6, 3, Some(250)).with_seed(seed),
        )
        .generate();
        for case in 0..CASES_PER_SEED {
            let mut rng = case_rng(4, seed, case);
            let query = arb_path(&mut rng, &labels, LITERALS, 3);
            let raw = xpath2sql::core::xpath_to_exp(
                &query,
                &dtd,
                &xpath2sql::core::x2e::RecMode::CycleEx,
            )
            .unwrap()
            .query;
            let pruned = raw.pruned();
            assert_eq!(
                raw.eval_from_document(&tree, &dtd),
                pruned.eval_from_document(&tree, &dtd),
                "pruning changed semantics for {query} (doc seed {seed})"
            );
        }
    }
}

/// Parser/Display round trip over the seeded random query generator.
///
/// `Display` is not injective on AST *shape* — `Seq` prints without
/// parentheses, so `a/(b/c)` and `(a/b)/c` both print `a/b/c` and the
/// parser (left-associative) can only give one of them back. The honest
/// round-trip properties are therefore:
///
/// 1. every generated query's rendering re-parses;
/// 2. on parser-shaped ASTs the round trip is the identity:
///    `parse(p.to_string()) == p` for every `p` the parser produced (one
///    round trip canonicalizes, after which text and shape are stable);
/// 3. the reparsed query is semantically identical to the original on real
///    documents (nothing was lost in printing).
#[test]
fn display_round_trip_over_random_queries() {
    use xpath2sql::xpath::parse_xpath;
    let labels = ["a", "b", "c", "d", "zzz"];
    let dtd = samples::cross();
    let tree =
        Generator::new(&dtd, GeneratorConfig::shaped(7, 3, Some(300)).with_seed(77)).generate();
    for seed in 40u64..44 {
        for case in 0..CASES_PER_SEED {
            let mut rng = case_rng(5, seed, case);
            let query = arb_path(&mut rng, &labels, LITERALS, 3);
            let printed = query.to_string();
            let reparsed = parse_xpath(&printed)
                .unwrap_or_else(|e| panic!("rendering {printed:?} did not re-parse: {e}"));
            // (2): the parser-shaped AST round-trips exactly
            let reprinted = reparsed.to_string();
            assert_eq!(
                parse_xpath(&reprinted).unwrap(),
                reparsed,
                "parse(p.to_string()) != p for parser-shaped {reprinted:?} \
                 (case {case}, seed {seed})"
            );
            // (3): printing lost nothing semantically
            let native: BTreeSet<u32> = eval_from_document(&query, &tree, &dtd)
                .into_iter()
                .map(|n| n.0)
                .collect();
            let via_reparse: BTreeSet<u32> = eval_from_document(&reparsed, &tree, &dtd)
                .into_iter()
                .map(|n| n.0)
                .collect();
            assert_eq!(
                via_reparse, native,
                "reparse changed semantics for {printed:?} (case {case}, seed {seed})"
            );
        }
    }
}

/// Generated documents always conform to their DTD (no trimming).
#[test]
fn generator_produces_valid_documents() {
    let dtd = samples::dept();
    for seed in 0u64..24 {
        let tree =
            Generator::new(&dtd, GeneratorConfig::shaped(6, 2, None).with_seed(seed)).generate();
        assert!(
            xpath2sql::xml::validate(&tree, &dtd).is_ok(),
            "invalid document for seed {seed}"
        );
    }
}
