//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [all|sql|tables123|table5|exp1|exp2|exp3|exp4|exp5]…
//!       [--scale F] [--reps N] [--dtd NAME] [--query XPATH] [--quick]
//! ```
//!
//! `--scale 1.0` uses the paper's element counts (minutes of runtime);
//! the default 0.25 preserves every qualitative shape at laptop scale.
//! `--quick` forces the smallest useful configuration (scale 0.02, one
//! rep) so CI can smoke-run every section cheaply.
//! The `sql` section translates `--query` (default `dept//project`) over
//! `--dtd` (default `dept`) and prints the generated SQL'(LFP) script before
//! executing it against a freshly generated document.
//!
//! The figure sections print exact counts beside best-of-`--reps` timings
//! and check every cell against the native XPath evaluator. Performance
//! claims do not come from here but from `benchmark/` (see its README).

use std::env;
use x2s_bench::{exp1, exp2, exp3, exp4, exp5, table5, tables123, Table};
use x2s_core::Engine;
use x2s_dtd::{samples, Dtd};
use x2s_rel::SqlDialect;
use x2s_xml::{Generator, GeneratorConfig};

const SECTIONS: [&str; 9] = [
    "all",
    "sql",
    "tables123",
    "table5",
    "exp1",
    "exp2",
    "exp3",
    "exp4",
    "exp5",
];

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut scale = 0.25f64;
    let mut reps = 3usize;
    let mut dtd_name = "dept".to_string();
    let mut query = "dept//project".to_string();
    let mut quick = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dtd" => {
                i += 1;
                dtd_name = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| usage("--dtd needs a sample name"));
            }
            "--query" => {
                i += 1;
                query = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| usage("--query needs an XPath expression"));
            }
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--scale needs a number"));
            }
            "--reps" => {
                i += 1;
                reps = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--reps needs an integer"));
            }
            "--quick" => quick = true,
            "--help" | "-h" => usage(""),
            section if SECTIONS.contains(&section) => which.push(section.to_string()),
            other => usage(&format!("unknown section or flag {other:?}")),
        }
        i += 1;
    }
    if which.is_empty() {
        which.push("all".to_string());
    }
    if quick {
        // applied after the parse loop so it wins regardless of flag order:
        // --quick *forces* the smallest useful configuration
        scale = 0.02;
        reps = 1;
    }

    println!("# xpath2sql — regenerated evaluation artifacts");
    println!("scale = {scale}, reps = {reps} (fastest of N timings per cell)\n");

    let run_all = which.iter().any(|w| w == "all");
    let wants = |name: &str| run_all || which.iter().any(|w| w == name);

    if wants("sql") {
        sql_section(&dtd_name, &query);
    }
    if wants("tables123") {
        emit("Tables 1–3 (running example)", tables123());
    }
    if wants("table5") {
        emit("Table 5 (operator counts)", table5());
    }
    if wants("exp1") {
        emit("Exp-1 (Fig. 12)", exp1(scale, reps));
    }
    if wants("exp2") {
        emit("Exp-2 (Fig. 13)", exp2(scale, reps));
    }
    if wants("exp3") {
        emit("Exp-3 (Fig. 14)", exp3(scale, reps));
    }
    if wants("exp4") {
        emit("Exp-4 (Table 4 / Fig. 16)", exp4(scale, reps));
    }
    if wants("exp5") {
        emit("Exp-4 (Fig. 17)", exp5(scale, reps));
    }
}

/// Resolve a sample-DTD name from `x2s_dtd::samples`.
fn sample_dtd(name: &str) -> Dtd {
    match name {
        "dept" => samples::dept(),
        "dept_simplified" => samples::dept_simplified(),
        "cross" => samples::cross(),
        "bioml" => samples::bioml(),
        "gedml" => samples::gedml(),
        other => usage(&format!(
            "unknown sample dtd {other:?} (try dept, dept_simplified, cross, bioml, gedml)"
        )),
    }
}

/// Translate one query end-to-end through the [`Engine`] session API, print
/// the generated SQL'(LFP) script, then execute the prepared query against a
/// generated document as a sanity check.
fn sql_section(dtd_name: &str, query: &str) {
    let dtd = sample_dtd(dtd_name);
    println!("\n## Generated SQL — `{query}` over the `{dtd_name}` DTD");
    let mut engine = Engine::builder(&dtd).dialect(SqlDialect::Sql99).build();
    // Prepare (and report bad queries) before spending time generating a
    // demo document — translation needs only the DTD.
    {
        let prepared = match engine.prepare(query) {
            Ok(p) => p,
            Err(e) => usage(&format!("cannot prepare query {query:?}: {e}")),
        };
        match prepared.translation() {
            Some(translation) => {
                println!(
                    "\nextended XPath (step 1, pruned):\n    {}",
                    translation.extended
                );
                println!("\nlogical optimizer (between steps 2 and execution):\n");
                for line in x2s_rel::explain_opt_report(&translation.opt).lines() {
                    println!("    {line}");
                }
            }
            None => {
                let witness = prepared
                    .sat_witness()
                    .map(|w| w.to_string())
                    .unwrap_or_default();
                println!("\nstatically empty — never translated:\n    {witness}");
            }
        }
        println!("\nSQL'(LFP) script (step 2, SQL'99 dialect, optimized):\n");
        for line in prepared.sql_text().lines() {
            println!("    {line}");
        }
    }
    // Starred roots can legitimately produce near-empty documents for an
    // unlucky seed; retry a few seeds so the demo document is non-trivial.
    let tree = (0..16)
        .map(|s| {
            Generator::new(
                &dtd,
                GeneratorConfig::shaped(8, 3, Some(2_000)).with_seed(0xF005_BA11 + s),
            )
            .generate()
        })
        .find(|t| t.len() >= 100)
        .unwrap_or_else(|| {
            Generator::new(&dtd, GeneratorConfig::shaped(8, 3, Some(2_000))).generate()
        });
    engine.load(&tree);
    // A satisfiable query re-prepares as a plan-cache hit (the translation
    // above is reused); a statically-empty one is re-pruned by the gate.
    let prepared = engine.prepare(query).expect("already prepared once");
    let answers = prepared.execute().expect("sample programs execute");
    if prepared.is_statically_empty() {
        assert_eq!(engine.stats().sat_pruned, 2, "both prepares pruned");
        assert!(answers.is_empty(), "pruned queries answer ∅");
        println!(
            "statically empty: answered ∅ against a generated {}-element \
             document with no translation, plan, or executor time",
            engine.doc_len()
        );
        return;
    }
    assert_eq!(engine.stats().plan_cache_hits, 1, "second prepare hits");
    println!(
        "executed against a generated {}-element document: {} answer node(s)",
        engine.doc_len(),
        answers.len()
    );
}

fn emit(section: &str, tables: Vec<Table>) {
    println!("\n## {section}");
    for t in tables {
        print!("{t}");
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: repro [{}]… [--scale F] [--reps N] [--dtd NAME] [--query XPATH] [--quick]",
        SECTIONS.join("|")
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}
