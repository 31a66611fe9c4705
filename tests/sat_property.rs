//! Property-based soundness of the DTD-aware satisfiability analyzer
//! (`x2s_xpath::sat`), driven by the same seeded random query generator the
//! translation property suite uses (no network, no proptest crate; every
//! case is deterministic in its seed and replayable).
//!
//! The contract under test:
//!
//! * **Soundness (hard)** — every `Sat::Empty` verdict is a *proof*: the
//!   native oracle returns zero answers for that query on every generated
//!   document of the DTD. A single violation is a bug, because the engine
//!   and the serving layer answer such queries ∅ without executing them.
//! * **Completeness (measured)** — queries that happen to be empty on the
//!   sampled documents but get `NonEmpty` verdicts are counted and printed,
//!   not asserted: document-dependent emptiness is invisible to a
//!   schema-only analysis.
//! * **Normalization preserves semantics** — the schema-driven normal form
//!   used for plan-cache keys never changes the oracle answer set.
//! * **The engine never falsely prunes** — end-to-end through
//!   `Engine::prepare`, a statically-empty verdict always agrees with the
//!   oracle on the loaded document.
//! * **x2e's ∅ is a sat `Empty`** — both judge emptiness from the same DTD
//!   graph, so a query x2e prunes to `∅` must get an `Empty` verdict.

mod support;

use std::collections::BTreeSet;
use support::{arb_path, case_rng};

use xpath2sql::core::x2e::RecMode;
use xpath2sql::core::{xpath_to_exp, Engine};
use xpath2sql::dtd::{samples, Dtd};
use xpath2sql::xml::{Generator, GeneratorConfig, Tree};
use xpath2sql::xpath::{eval_from_document, Path, Sat, SatAnalyzer};

const CASES_PER_SEED: usize = 24;

/// Text literals for `text() = "…"`.
const LITERALS: &[&str] = &["v0", "v1", "sel"];

fn oracle(query: &Path, tree: &Tree, dtd: &Dtd) -> BTreeSet<u32> {
    eval_from_document(query, tree, dtd)
        .into_iter()
        .map(|n| n.0)
        .collect()
}

/// Soundness + measured completeness over one DTD: every `Empty` verdict
/// must have zero oracle answers on every sampled document.
fn check_soundness(dtd: &Dtd, labels: &[&str], property: u64, seeds: std::ops::Range<u64>) {
    let analyzer = SatAnalyzer::new(dtd);
    let mut pruned = 0usize;
    let mut missed_empty = 0usize;
    let mut total = 0usize;
    for seed in seeds {
        let tree = Generator::new(
            dtd,
            GeneratorConfig::shaped(7, 3, Some(350)).with_seed(seed),
        )
        .generate();
        for case in 0..CASES_PER_SEED {
            let mut rng = case_rng(property, seed, case);
            let query = arb_path(&mut rng, labels, LITERALS, 3);
            total += 1;
            let answers = oracle(&query, &tree, dtd);
            match analyzer.check(&query) {
                Sat::Empty { witness } => {
                    pruned += 1;
                    assert!(
                        answers.is_empty(),
                        "UNSOUND: {query} pruned ({witness}) but the oracle found \
                         {} answers (doc seed {seed}, case {case})",
                        answers.len()
                    );
                }
                Sat::NonEmpty { .. } => {
                    if answers.is_empty() {
                        missed_empty += 1;
                    }
                }
            }
        }
    }
    assert!(pruned > 0, "the corpus must exercise the Empty verdict");
    // Completeness is measured, not required: print so a corpus-wide
    // regression is visible in verbose test output.
    println!(
        "satcheck completeness on {}: {pruned}/{total} proven empty, \
         {missed_empty} oracle-empty cases not provable from the schema",
        dtd.name(dtd.root())
    );
}

#[test]
fn empty_verdicts_are_sound_on_cross() {
    check_soundness(&samples::cross(), &["a", "b", "c", "d", "zzz"], 11, 0..4);
}

#[test]
fn empty_verdicts_are_sound_on_dept() {
    check_soundness(
        &samples::dept_simplified(),
        &["dept", "course", "student", "project", "zzz"],
        12,
        10..13,
    );
}

#[test]
fn empty_verdicts_are_sound_on_gedml() {
    check_soundness(
        &samples::gedml(),
        &["Even", "Sour", "Note", "Obje", "Data", "zzz"],
        13,
        20..22,
    );
}

/// The schema-driven normal form (plan-cache key) never changes answers:
/// `eval(normalize(p)) == eval(p)` on generated documents.
#[test]
fn normalization_preserves_oracle_semantics() {
    let labels = ["a", "b", "c", "d", "zzz"];
    let dtd = samples::cross();
    let analyzer = SatAnalyzer::new(&dtd);
    for seed in 50u64..53 {
        let tree = Generator::new(
            &dtd,
            GeneratorConfig::shaped(7, 3, Some(300)).with_seed(seed),
        )
        .generate();
        for case in 0..CASES_PER_SEED {
            let mut rng = case_rng(14, seed, case);
            let query = arb_path(&mut rng, &labels, LITERALS, 3);
            let normal = analyzer.normalize(&query);
            assert_eq!(
                oracle(&normal, &tree, &dtd),
                oracle(&query, &tree, &dtd),
                "normalize changed semantics: {query} → {normal} (doc seed {seed})"
            );
        }
    }
}

/// End-to-end through `Engine::prepare`: zero false prunes on the loaded
/// document, and statically-empty handles really execute to ∅.
#[test]
fn engine_never_falsely_prunes() {
    let labels = ["a", "b", "c", "d", "zzz"];
    let dtd = samples::cross();
    let tree =
        Generator::new(&dtd, GeneratorConfig::shaped(7, 3, Some(400)).with_seed(99)).generate();
    let mut engine = Engine::new(&dtd);
    engine.load(&tree);
    let mut pruned = 0usize;
    for seed in 60u64..63 {
        for case in 0..CASES_PER_SEED {
            let mut rng = case_rng(15, seed, case);
            let query = arb_path(&mut rng, &labels, LITERALS, 3);
            let prepared = engine
                .prepare_path(&engine.normalize_path(&query))
                .expect("queries prepare");
            let got = prepared.execute().expect("queries execute");
            if prepared.is_statically_empty() {
                pruned += 1;
                assert!(got.is_empty(), "pruned handle executed non-empty");
            }
            assert_eq!(
                got,
                oracle(&query, &tree, &dtd),
                "engine answer disagrees with the oracle for {query}"
            );
        }
    }
    assert!(pruned > 0, "the corpus must exercise the pruned path");
    let stats = engine.stats();
    assert_eq!(stats.sat_pruned as usize, pruned);
    assert_eq!(
        stats.plan_cache_hits + stats.plan_cache_misses + stats.sat_pruned,
        3 * CASES_PER_SEED,
        "hits + misses + sat_pruned accounts for every prepare"
    );
}

/// x2e and the sat analyzer read the same DTD graph: a query whose pruned
/// extended query is `∅` (x2e proved it empty) must get a `Sat::Empty`
/// verdict too. Returns how many of the `cases` queries x2e proved empty.
fn x2e_empty_implies_sat_empty(dtd: &Dtd, labels: &[&str], property: u64, cases: usize) -> usize {
    let analyzer = SatAnalyzer::new(dtd);
    let mut x2e_empty = 0;
    for case in 0..cases {
        let mut rng = case_rng(property, 7, case);
        let query = analyzer.normalize(&arb_path(&mut rng, labels, LITERALS, 3));
        let translated = xpath_to_exp(&query, dtd, &RecMode::CycleEx).expect("CycleEX translates");
        if !translated.query.pruned().result.is_empty_set() {
            continue;
        }
        x2e_empty += 1;
        assert!(
            matches!(analyzer.check(&query), Sat::Empty { .. }),
            "INCOMPLETE: x2e proves {query} empty, sat says NonEmpty (case {case})"
        );
    }
    x2e_empty
}

/// 1 000 queries per DTD (about 2 s in debug). Unless `//q` must exist
/// wherever `q` does, `(//dept)[not(//.)]` on `dept` and
/// `(//clone)[not(//.)]` on `bioml` fail it.
#[test]
fn x2e_empty_queries_are_sat_empty() {
    let cases: [(Dtd, &[&str]); 4] = [
        (samples::cross(), &["a", "b", "c", "d", "zzz"]),
        (
            samples::dept_simplified(),
            &["dept", "course", "student", "project", "zzz"],
        ),
        (
            samples::gedml(),
            &["Even", "Sour", "Note", "Obje", "Data", "zzz"],
        ),
        (samples::bioml(), &["gene", "dna", "locus", "clone", "zzz"]),
    ];
    for (i, (dtd, labels)) in cases.iter().enumerate() {
        let n = x2e_empty_implies_sat_empty(dtd, labels, 77 + i as u64, 1000);
        assert!(n > 0, "the corpus must exercise x2e's ∅");
    }
}
