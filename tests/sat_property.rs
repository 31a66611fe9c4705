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

use std::collections::BTreeSet;

use xpath2sql::core::Engine;
use xpath2sql::dtd::{samples, Dtd};
use xpath2sql::xml::rng::SplitMix64;
use xpath2sql::xml::{Generator, GeneratorConfig, Tree};
use xpath2sql::xpath::{eval_from_document, Path, Qual, Sat, SatAnalyzer};

const CASES_PER_SEED: usize = 24;

/// Random path expression over a fixed label alphabet (including labels the
/// DTD does not declare). Same weighted grammar as the translation
/// property suite.
fn arb_path(rng: &mut SplitMix64, labels: &[&str], depth: u32) -> Path {
    if depth == 0 {
        return arb_leaf(rng, labels);
    }
    match rng.gen_range(0..9) {
        0..=2 => Path::Seq(
            Box::new(arb_path(rng, labels, depth - 1)),
            Box::new(arb_path(rng, labels, depth - 1)),
        ),
        3..=4 => Path::Descendant(Box::new(arb_path(rng, labels, depth - 1))),
        5 => Path::Union(
            Box::new(arb_path(rng, labels, depth - 1)),
            Box::new(arb_path(rng, labels, depth - 1)),
        ),
        6 => {
            let p = arb_path(rng, labels, depth - 1);
            let q = arb_qual(rng, labels, depth - 1, 2);
            Path::Qualified(Box::new(p), q)
        }
        _ => arb_leaf(rng, labels),
    }
}

fn arb_leaf(rng: &mut SplitMix64, labels: &[&str]) -> Path {
    match rng.gen_range(0..6) {
        0..=3 => Path::label(labels[rng.gen_range(0..labels.len())]),
        4 => Path::Wildcard,
        _ => Path::Empty,
    }
}

fn arb_qual(rng: &mut SplitMix64, labels: &[&str], depth: u32, qdepth: u32) -> Qual {
    if qdepth > 0 && rng.gen_bool(0.4) {
        return match rng.gen_range(0..4) {
            0..=1 => Qual::not(arb_qual(rng, labels, depth, qdepth - 1)),
            2 => arb_qual(rng, labels, depth, qdepth - 1).and(arb_qual(
                rng,
                labels,
                depth,
                qdepth - 1,
            )),
            _ => arb_qual(rng, labels, depth, qdepth - 1).or(arb_qual(
                rng,
                labels,
                depth,
                qdepth - 1,
            )),
        };
    }
    if rng.gen_range(0..5) < 4 {
        Qual::path(arb_path(rng, labels, depth.min(2)))
    } else {
        let consts = ["v0", "v1", "sel"];
        Qual::TextEq(consts[rng.gen_range(0..consts.len())].into())
    }
}

/// Distinct query-generator seed per (property, document seed, case index).
fn case_rng(property: u64, seed: u64, case: usize) -> SplitMix64 {
    SplitMix64::seed_from_u64(
        property
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(seed.wrapping_mul(1 << 20))
            .wrapping_add(case as u64),
    )
}

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
            let query = arb_path(&mut rng, labels, 3);
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
            let query = arb_path(&mut rng, &labels, 3);
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
            let query = arb_path(&mut rng, &labels, 3);
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
