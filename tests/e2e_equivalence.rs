//! The central end-to-end property (Theorem 4.2 + Corollary 5.1):
//!
//! for every DTD `D`, conforming tree `T`, and query `Q` of the fragment,
//!
//! ```text
//! native_xpath(Q, T)
//!   == eval_extended(XPathToEXp(Q, D), T)
//!   == exec(EXpToSQL(…), edge_shred(T))          (CycleEX, push on/off)
//!   == exec(CycleE-based translation)
//!   == exec(SQLGen-R translation)
//! ```
//!
//! checked over a grid of DTDs × queries × generated documents.

use std::collections::BTreeSet;
use xpath2sql::core::{RecStrategy, SqlOptions, Translator};
use xpath2sql::dtd::{samples, Dtd};
use xpath2sql::rel::{ExecOptions, Stats};
use xpath2sql::shred::edge_database;
use xpath2sql::sqlgenr::SqlGenR;
use xpath2sql::xml::{Generator, GeneratorConfig, Tree};
use xpath2sql::xpath::{eval_from_document, parse_xpath};

fn check_all_paths(dtd: &Dtd, tree: &Tree, queries: &[&str]) {
    let db = edge_database(tree, dtd);
    for q in queries {
        let path = parse_xpath(q).unwrap_or_else(|e| panic!("query {q}: {e}"));
        let native: BTreeSet<u32> = eval_from_document(&path, tree, dtd)
            .into_iter()
            .map(|n| n.0)
            .collect();

        // extended XPath evaluation (step 1 only)
        let extended = Translator::new(dtd).to_extended(&path).unwrap();
        let via_extended: BTreeSet<u32> = extended
            .eval_from_document(tree, dtd)
            .into_iter()
            .map(|n| n.0)
            .collect();
        assert_eq!(via_extended, native, "extended XPath eval differs: {q}");

        // SQL via CycleEX, both optimization settings
        for push in [true, false] {
            let tr = Translator::new(dtd)
                .with_sql_options(SqlOptions {
                    push_selections: push,
                    ..SqlOptions::default()
                })
                .translate(&path)
                .unwrap();
            let mut stats = Stats::default();
            let got = tr.try_run(&db, ExecOptions::default(), &mut stats).unwrap();
            assert_eq!(got, native, "CycleEX SQL differs: {q} (push={push})");
        }

        // SQL via CycleE
        let tr = Translator::new(dtd)
            .with_strategy(RecStrategy::CycleE { cap: 4_000_000 })
            .translate(&path)
            .unwrap();
        let mut stats = Stats::default();
        let got = tr.try_run(&db, ExecOptions::default(), &mut stats).unwrap();
        assert_eq!(got, native, "CycleE SQL differs: {q}");

        // SQL via SQLGen-R
        let tr = SqlGenR::new(dtd).translate(&path).unwrap();
        let mut stats = Stats::default();
        let got = tr.try_run(&db, ExecOptions::default(), &mut stats).unwrap();
        assert_eq!(got, native, "SQLGen-R differs: {q}");
    }
}

fn generated(dtd: &Dtd, xl: usize, xr: usize, n: usize, seed: u64) -> Tree {
    Generator::new(
        dtd,
        GeneratorConfig::shaped(xl, xr, Some(n)).with_seed(seed),
    )
    .generate()
}

#[test]
fn cross_grid() {
    let d = samples::cross();
    let queries = [
        "a",
        "a/b",
        "a//d",
        "a/b//c/d",
        "a[//c]//d",
        "a[not //c]",
        "a[not //c or (b and //d)]",
        "//d",
        "//a",
        "a//a",
        "a/*/a",
        "a//*[d]",
        "a/b//c[a]/d",
        "a/(b | c)//d",
        "a//c[not a and d]",
    ];
    for seed in [1u64, 2, 3] {
        let t = generated(&d, 9, 3, 1500, seed);
        check_all_paths(&d, &t, &queries);
    }
}

#[test]
fn dept_grid() {
    let d = samples::dept_simplified();
    let queries = [
        "dept//project",
        "dept//course",
        "dept/course/student//project",
        "dept//student[course]",
        "dept//course[not student]",
        "dept//course[student or project]",
        "dept/course//course[project and student]",
        "dept//*",
        "dept/course/(student | project)//course",
    ];
    for seed in [10u64, 20] {
        let t = generated(&d, 8, 3, 1200, seed);
        check_all_paths(&d, &t, &queries);
    }
}

#[test]
fn gedml_grid_recursive_root() {
    let d = samples::gedml();
    let queries = [
        "Even//Data",
        "//Even",
        "Even//Even",
        "Even/Sour/Data",
        "Even//Obje[Sour]",
        "Even//Sour[not Data]",
        "//Data[Even]",
    ];
    let t = generated(&d, 7, 3, 1000, 5);
    check_all_paths(&d, &t, &queries);
}

#[test]
fn bioml_grid() {
    let d = samples::bioml();
    let queries = [
        "gene//locus",
        "gene//dna",
        "gene//dna[clone]",
        "gene/dna//gene",
        "gene//clone[not dna]",
        "//locus",
    ];
    let t = generated(&d, 7, 3, 1000, 6);
    check_all_paths(&d, &t, &queries);
}

#[test]
fn full_dept_with_values() {
    // the full 14-type dept DTD with text()= qualifiers
    let d = samples::dept();
    let t = generated(&d, 7, 2, 900, 8);
    let queries = [
        "dept/course/cno",
        "dept//course[cno = \"v1\"]",
        "dept//course[not cno = \"v1\"]",
        "dept//student[qualified//course]",
        "dept//course[prereq/course and not project]",
        "dept//required//course",
    ];
    check_all_paths(&d, &t, &queries);
}

#[test]
fn text_qualifier_selectivity() {
    use xpath2sql::xml::generator::mark_values;
    let d = samples::cross();
    let mut t = generated(&d, 10, 4, 4000, 9);
    let a = d.elem("a").unwrap();
    let marked = mark_values(&mut t, a, 40, "sel", 123);
    assert_eq!(marked, 40);
    check_all_paths(
        &d,
        &t,
        &[
            "a[text()=\"sel\"]",
            "//a[text()=\"sel\"]",
            "a[text()=\"sel\"]/b//c/d",
            "a/b//c/d[text()=\"sel\"]",
            "//a[not text()=\"sel\"]",
        ],
    );
}

#[test]
fn trimmed_documents_still_agree() {
    // BFS-trimmed trees may violate required-children constraints; the
    // equivalence must hold regardless (it never assumed validity).
    let d = samples::dept();
    let big = generated(&d, 9, 3, 5000, 11);
    let t = big.trim_bfs(700);
    check_all_paths(
        &d,
        &t,
        &[
            "dept//project",
            "dept//course[cno]",
            "dept//qualified//course",
        ],
    );
}

#[test]
fn single_node_document() {
    let d = samples::cross();
    let t = Tree::with_root(d.root());
    check_all_paths(&d, &t, &["a", "a//d", "//a", "a[not b]", "a[b]"]);
}
