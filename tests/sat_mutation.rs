//! Mutation testing for the satisfiability analyzer (`x2s_xpath::sat`):
//! hand-corrupted DTDs and impossible query steps, each driven to the
//! *distinct* witness kind that names the defect.
//!
//! | defect                                  | witness kind              |
//! |-----------------------------------------|---------------------------|
//! | child edge removed from the DTD         | `NoChildEdge`             |
//! | same removal, reached via `//`          | `NoDescendant`            |
//! | element declaration removed             | `UnknownTag`              |
//! | root wrapped under a new element        | `RootMismatch`            |
//! | `#PCDATA` removed from a content model  | `TextUnsupported`         |
//! | qualifier target made unreachable       | `QualifierNeverHolds`     |
//! | qualifier and its own negation          | `ContradictoryQualifiers` |
//! | the ∅ literal                           | `EmptySetLiteral`         |
//! | document-only selection (`.`)           | `DocumentOnly`            |
//!
//! Every DTD corruption is checked two-sided: the pristine DTD proves the
//! query satisfiable, the corrupted one proves it empty with the expected
//! witness — so each test also kills an analyzer mutant that answers
//! always-empty or always-non-empty.

use xpath2sql::core::Engine;
use xpath2sql::dtd::{samples, Dtd, DtdBuilder, ModelSpec};
use xpath2sql::xpath::{check_sat, parse_xpath, Sat, WitnessKind};

fn verdict(query: &str, dtd: &Dtd) -> Sat {
    check_sat(&parse_xpath(query).expect("query parses"), dtd)
}

fn assert_satisfiable(query: &str, dtd: &Dtd) {
    assert!(
        matches!(verdict(query, dtd), Sat::NonEmpty { .. }),
        "{query} must be satisfiable on the pristine DTD"
    );
}

/// Assert `query` is proven empty with witness `kind`, and that the witness
/// names `step` as the offending sub-expression.
fn assert_empty(query: &str, dtd: &Dtd, kind: WitnessKind, step: &str) {
    match verdict(query, dtd) {
        Sat::Empty { witness } => {
            assert_eq!(witness.kind, kind, "{query}: wrong kind ({witness})");
            assert!(
                witness.step.contains(step),
                "{query}: witness must name `{step}`, got `{}`",
                witness.step
            );
            assert!(!witness.reason.is_empty(), "{query}: reason rendered");
        }
        Sat::NonEmpty { types } => {
            panic!("{query} must be empty, got non-empty → {types:?}")
        }
    }
}

/// An acyclic 4-node DTD: r → s,t; s → d; t → s. Queries can reach `d`
/// directly (`r/s/d`) and through a descendant step (`r/t//d`).
fn pristine_chain() -> Dtd {
    DtdBuilder::new("r")
        .elem_star_children("r", &["s", "t"])
        .elem_star_children("s", &["d"])
        .elem_star_children("t", &["s"])
        .elem_star_children("d", &[])
        .build()
        .expect("pristine chain DTD is well-formed")
}

/// The corrupted chain: the s→d edge is moved up to the root, so `d` is
/// still declared and reachable — just never below `s` or `t`.
fn corrupted_chain() -> Dtd {
    DtdBuilder::new("r")
        .elem_star_children("r", &["s", "t", "d"])
        .elem_star_children("s", &[])
        .elem_star_children("t", &["s"])
        .elem_star_children("d", &[])
        .build()
        .expect("corrupted chain DTD is well-formed")
}

#[test]
fn removed_edge_drives_no_child_edge() {
    assert_satisfiable("r/s/d", &pristine_chain());
    assert_empty("r/s/d", &corrupted_chain(), WitnessKind::NoChildEdge, "d");
}

#[test]
fn removed_edge_behind_descendant_drives_no_descendant() {
    assert_satisfiable("r/t//d", &pristine_chain());
    assert_empty("r/t//d", &corrupted_chain(), WitnessKind::NoDescendant, "d");
}

#[test]
fn removed_declaration_drives_unknown_tag() {
    // the whole `d` declaration vanishes (and with it the s→d edge)
    let corrupted = DtdBuilder::new("r")
        .elem_star_children("r", &["s", "t"])
        .elem_star_children("s", &[])
        .elem_star_children("t", &["s"])
        .build()
        .expect("declaration-dropped DTD is well-formed");
    assert_satisfiable("r/s/d", &pristine_chain());
    assert_empty("r/s/d", &corrupted, WitnessKind::UnknownTag, "d");
}

#[test]
fn wrapped_root_drives_root_mismatch() {
    // the document root is no longer `a`: every `a…` query dies at step 1
    let wrapped = DtdBuilder::new("wrapper")
        .elem_star_children("wrapper", &["a"])
        .elem_star_children("a", &["b", "c"])
        .elem_star_children("b", &["a"])
        .elem_star_children("c", &["a", "d"])
        .elem_star_children("d", &[])
        .build()
        .expect("wrapped cross DTD is well-formed");
    assert_satisfiable("a/b", &samples::cross());
    assert_empty("a/b", &wrapped, WitnessKind::RootMismatch, "a");
}

fn note_dtd(line_has_text: bool) -> Dtd {
    let line = if line_has_text {
        ModelSpec::Text
    } else {
        ModelSpec::Empty
    };
    DtdBuilder::new("note")
        .elem("note", ModelSpec::star_of("line"))
        .elem("line", line)
        .build()
        .expect("note DTD is well-formed")
}

#[test]
fn dropped_pcdata_drives_text_unsupported() {
    assert_satisfiable("note/line[text()=\"x\"]", &note_dtd(true));
    assert_empty(
        "note/line[text()=\"x\"]",
        &note_dtd(false),
        WitnessKind::TextUnsupported,
        "line",
    );
}

#[test]
fn unreachable_qualifier_target_drives_qualifier_never_holds() {
    // pristine: s has a d child, so `r/s[d]` can hold; corrupted: it can't
    assert_satisfiable("r/s[d]", &pristine_chain());
    assert_empty(
        "r/s[d]",
        &corrupted_chain(),
        WitnessKind::QualifierNeverHolds,
        "s[d]",
    );
}

#[test]
fn negated_conjunct_drives_contradictory_qualifiers() {
    // no DTD corruption needed: the query contradicts itself on any schema
    assert_satisfiable("r/s", &pristine_chain());
    assert_empty(
        "r/s[d][not d]",
        &pristine_chain(),
        WitnessKind::ContradictoryQualifiers,
        "s",
    );
}

#[test]
fn empty_set_literal_drives_its_own_witness() {
    assert_empty("r/∅", &pristine_chain(), WitnessKind::EmptySetLiteral, "∅");
}

#[test]
fn document_only_selection_drives_document_only() {
    // `.` from the document selects only the virtual document node, which
    // the native evaluator never reports as an element answer
    assert_empty(".", &pristine_chain(), WitnessKind::DocumentOnly, ".");
}

/// The same witness kinds on the paper's own DTDs, uncorrupted: impossible
/// companions of the evaluation queries, each proven empty at the step that
/// the schema rules out.
#[test]
fn impossible_queries_on_the_sample_dtds_are_proven_empty() {
    use WitnessKind::*;
    let (cross, dept) = (samples::cross(), samples::dept_simplified());
    let cases = [
        (&cross, "a/d", NoChildEdge, "d"),
        (&cross, "a//zzz", UnknownTag, "zzz"),
        (&cross, "a/c[d/a]", QualifierNeverHolds, "c[d/a]"),
        (&dept, "dept/student", NoChildEdge, "student"),
        (
            &dept,
            "dept//course[text()=\"x\" and not text()=\"x\"]",
            ContradictoryQualifiers,
            "course[",
        ),
        (&samples::gedml(), "Even/Data", NoChildEdge, "Data"),
        (
            &samples::bioml(),
            "gene/locus[dna]",
            QualifierNeverHolds,
            "locus[dna]",
        ),
    ];
    for (dtd, query, kind, step) in cases {
        assert_empty(query, dtd, kind, step);
    }
}

/// The corrupted-DTD family end-to-end: an engine over the corrupted DTD
/// statically answers the formerly-fine query ∅ — no translation, no plan.
#[test]
fn corrupted_dtd_prunes_end_to_end_through_the_engine() {
    let pristine = pristine_chain();
    let engine = Engine::new(&pristine);
    let fine = engine.prepare("r/s/d").expect("prepares");
    assert!(!fine.is_statically_empty());

    let corrupted = corrupted_chain();
    let engine = Engine::new(&corrupted);
    let pruned = engine.prepare("r/s/d").expect("prepares");
    assert!(pruned.is_statically_empty());
    assert_eq!(
        pruned.sat_witness().expect("witness carried").kind,
        WitnessKind::NoChildEdge
    );
    assert!(pruned.execute().expect("executes").is_empty());
    let stats = engine.stats();
    assert_eq!((stats.sat_pruned, stats.plan_cache_misses), (1, 0));
}
