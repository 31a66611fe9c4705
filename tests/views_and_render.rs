//! Integration tests for §3.4 view answering and SQL text rendering.

use std::collections::BTreeSet;
use xpath2sql::core::views::{answer_on_source, extract_view};
use xpath2sql::core::Translator;
use xpath2sql::dtd::{is_contained_in, samples};
use xpath2sql::rel::{render_program, SqlDialect};
use xpath2sql::xml::{Generator, GeneratorConfig, NodeId};
use xpath2sql::xpath::{eval_from_document, parse_xpath};

#[test]
fn view_answering_on_generated_bioml_documents() {
    // view ⊂ source across three containment pairs, random documents
    let pairs = [
        (samples::bioml_a(), samples::bioml_d()),
        (samples::bioml_b(), samples::bioml_d()),
        (samples::bioml_c(), samples::bioml_d()),
    ];
    let queries = [
        "gene//locus",
        "gene//dna",
        "//clone",
        "gene/dna[clone]",
        "gene//dna[not clone]",
    ];
    for (view_dtd, source_dtd) in pairs {
        assert!(is_contained_in(&view_dtd, &source_dtd));
        for seed in [1u64, 2] {
            let source = Generator::new(
                &source_dtd,
                GeneratorConfig::shaped(6, 3, Some(500)).with_seed(seed),
            )
            .generate();
            let (view, origin) = extract_view(&source, &source_dtd, &view_dtd);
            for q in queries {
                let path = parse_xpath(q).unwrap();
                let on_view: BTreeSet<NodeId> = eval_from_document(&path, &view, &view_dtd)
                    .into_iter()
                    .map(|n| origin[n.index()])
                    .collect();
                let on_source = answer_on_source(&path, &view_dtd, &source, &source_dtd).unwrap();
                assert_eq!(on_source, on_view, "view query {q} seed {seed}");
            }
        }
    }
}

#[test]
fn view_answers_can_differ_from_direct_answers() {
    // sanity that views are non-trivial: the same query, asked of the
    // source DTD directly, may see more nodes than through the view
    let view_dtd = samples::bioml_a();
    let source_dtd = samples::bioml_d();
    let source = Generator::new(
        &source_dtd,
        GeneratorConfig::shaped(7, 3, Some(900)).with_seed(3),
    )
    .generate();
    let q = parse_xpath("gene//locus").unwrap();
    let direct = eval_from_document(&q, &source, &source_dtd);
    let through_view = answer_on_source(&q, &view_dtd, &source, &source_dtd).unwrap();
    assert!(through_view.is_subset(&direct));
}

#[test]
fn rendered_sql_covers_all_dialects_for_complex_query() {
    let d = samples::dept();
    let q = parse_xpath(r#"dept/course[//prereq/course[cno = "cs66"] and not //project]"#).unwrap();
    let tr = Translator::new(&d).translate(&q).unwrap();
    for dialect in [SqlDialect::Sql99, SqlDialect::Oracle] {
        let sql = render_program(&tr.program, dialect);
        assert!(sql.contains("CREATE TEMPORARY TABLE"));
        assert!(
            sql.contains("SELECT * FROM T"),
            "script ends with the answer"
        );
        assert!(sql.contains("NOT EXISTS"), "negation rendered as anti-join");
        // every temp referenced is defined earlier
        for (i, line) in sql.lines().enumerate() {
            if let Some(pos) = line.find("FROM T") {
                let id: String = line[pos + 6..]
                    .chars()
                    .take_while(|c| c.is_ascii_digit())
                    .collect();
                let id: usize = id.parse().unwrap_or(usize::MAX);
                assert!(
                    sql.lines()
                        .take(i + 1)
                        .any(|l| l.contains(&format!("CREATE TEMPORARY TABLE T{id} ")))
                        || sql.contains(&format!("CREATE TEMPORARY TABLE T{id} ")),
                    "T{id} referenced before definition"
                );
            }
        }
    }
}

#[test]
fn oracle_rendering_uses_connect_by_for_closures() {
    let d = samples::cross();
    let q = parse_xpath("a//d").unwrap();
    let tr = Translator::new(&d).translate(&q).unwrap();
    let sql = render_program(&tr.program, SqlDialect::Oracle);
    assert!(sql.contains("CONNECT BY NOCYCLE PRIOR"));
    assert!(!sql.contains("WITH RECURSIVE closure"));
}

#[test]
fn sqlgenr_rendering_is_multi_arm_recursion() {
    let d = samples::dept_simplified();
    let q = parse_xpath("dept//project").unwrap();
    let tr = xpath2sql::sqlgenr::SqlGenR::new(&d).translate(&q).unwrap();
    let sql = render_program(&tr.program, SqlDialect::Sql99);
    assert!(sql.contains("WITH RECURSIVE R (S, T, Rid)"));
    // the Fig. 2 shape: several UNION ALL arms inside one recursion
    let arms = sql
        .split("WITH RECURSIVE R (S, T, Rid)")
        .nth(1)
        .unwrap()
        .matches("UNION ALL")
        .count();
    assert!(arms >= 5, "five SCC edges plus init arms, got {arms}");
}
