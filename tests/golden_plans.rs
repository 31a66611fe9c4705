//! Golden plans: the `explain` text and the rendered SQL (two dialects)
//! of every benchmark query, committed under `tests/golden/`.
//!
//! The benchmark only checks that SQL hashes repeat *within* a run, so
//! without these files nothing notices a plan change between commits. With
//! them, a translator or optimizer PR shows its plan change as a reviewed
//! diff, and an executor-only PR proves it moved nothing above the executor
//! by leaving every file byte-identical.
//!
//! One file per query, `tests/golden/<dtd>__<n>.txt`: the canonical query
//! the engine keys its plan cache on, `explain_program` of the LFP program
//! and of the interval variant, and `render_program` in `Sql99` and
//! `Oracle`. The queries are the 15 `translate_cold` queries and the 10
//! document-workload queries of `benchmark/README.md`.
//!
//! Regenerate after an intended plan change, then review the diff:
//!
//! ```text
//! X2S_BLESS=1 cargo test --test golden_plans
//! ```
//!
//! Blessing panics when `CI` is also set: goldens are never rewritten in CI.

use std::fmt::Write as _;
use std::path::PathBuf;
use xpath2sql::dtd::{samples, Dtd};
use xpath2sql::prelude::*;

/// `benchmark/src/inputs.rs`: `TRANSLATE_QUERIES`, then `POINT_QUERIES` and
/// `SCAN_QUERIES` (both over `dept_simplified`).
fn corpus() -> Vec<(&'static str, Dtd, Vec<&'static str>)> {
    vec![
        (
            "dept",
            samples::dept(),
            vec![
                "dept//project",
                "dept//course[project or takenBy/student]",
                "dept/course/takenBy/student/qualified//course",
                "dept//course[not //project]",
                "dept//project/required//course[prereq/course]",
            ],
        ),
        (
            "cross",
            samples::cross(),
            vec![
                "a/b//c/d",
                "a[//c]//d",
                "a[not //c or (b and //d)]",
                "a//b/a//c[d]",
            ],
        ),
        (
            "gedml",
            samples::gedml(),
            vec!["Even//Data", "Even//Obje[Sour]", "Even//Sour[//Note]//Obje"],
        ),
        (
            "bioml",
            samples::bioml(),
            vec![
                "gene//locus",
                "gene/dna//clone[dna]",
                "gene//clone//gene/locus",
            ],
        ),
        (
            "dept_simplified",
            samples::dept_simplified(),
            vec![
                "dept/course",
                "dept/course/student",
                "dept/student",
                "dept/course/course/project",
                "dept/course[project]",
                "dept//project",
                "dept//course[project or student]",
                "dept//student[course]",
                "dept/course//course/project",
                "dept//course",
            ],
        ),
    ]
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Everything the plan layer decides about `query`, as text.
fn render_golden(dtd_name: &str, engine: &Engine<'_>, query: &str) -> String {
    let prepared = engine.prepare(query).unwrap();
    let mut out = String::new();
    writeln!(out, "dtd: {dtd_name}").unwrap();
    writeln!(out, "query: {query}").unwrap();
    writeln!(out, "canonical: {}", prepared.xpath()).unwrap();
    match prepared.translation() {
        Some(tr) => {
            writeln!(out, "\n== explain: LFP program ==").unwrap();
            out.push_str(&explain_program(&tr.program));
            match &tr.interval {
                Some(v) => {
                    writeln!(
                        out,
                        "\n== explain: interval variant ({} rewrites) ==",
                        v.rewrites
                    )
                    .unwrap();
                    out.push_str(&explain_program(&v.program));
                }
                None => writeln!(out, "\n== explain: interval variant (none) ==").unwrap(),
            }
        }
        None => writeln!(out, "\n== statically empty: no program ==").unwrap(),
    }
    for dialect in [SqlDialect::Sql99, SqlDialect::Oracle] {
        writeln!(out, "\n== sql: {dialect:?} ==").unwrap();
        out.push_str(&prepared.sql(dialect));
    }
    out
}

#[test]
fn plans_and_sql_match_the_golden_files() {
    let bless = std::env::var_os("X2S_BLESS").is_some();
    // Blessing rewrites every file, so a CI job that set it would pass any
    // plan change; goldens are regenerated locally and reviewed as a diff.
    assert!(
        !(bless && std::env::var_os("CI").is_some()),
        "X2S_BLESS is set under CI: regenerate golden files locally, not in CI"
    );
    let dir = golden_dir();
    if bless {
        std::fs::create_dir_all(&dir).unwrap();
    }
    let mut files = 0;
    let mut stale: Vec<String> = Vec::new();
    for (dtd_name, dtd, queries) in corpus() {
        let engine = Engine::new(&dtd);
        for (i, query) in queries.iter().enumerate() {
            let name = format!("{dtd_name}__{}.txt", i + 1);
            let path = dir.join(&name);
            let got = render_golden(dtd_name, &engine, query);
            files += 1;
            if bless {
                std::fs::write(&path, &got).unwrap();
                continue;
            }
            let want = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e} (X2S_BLESS=1 writes it)", path.display()));
            if got != want {
                let line = got
                    .lines()
                    .zip(want.lines())
                    .position(|(g, w)| g != w)
                    .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
                stale.push(format!(
                    "{name} ({query}): first difference at line {}\n  golden: {}\n  now:    {}",
                    line + 1,
                    want.lines().nth(line).unwrap_or("<end of file>"),
                    got.lines().nth(line).unwrap_or("<end of file>"),
                ));
            }
        }
    }
    assert_eq!(
        files, 25,
        "15 translate_cold + 10 document-workload queries"
    );
    assert!(
        stale.is_empty(),
        "{} golden file(s) differ; if the plan change is intended, regenerate with \
         `X2S_BLESS=1 cargo test --test golden_plans` and review the diff:\n{}",
        stale.len(),
        stale.join("\n")
    );
}
