//! Property-based agreement between the static plan analyzer and the
//! executor: for random queries from the seeded XPath generator (the same
//! weighted grammar `proptest_equivalence.rs` drives), every translated
//! program the analyzer accepts must
//!
//! 1. execute without the error classes the analyzer claims to rule out
//!    (`ExecError::SchemaMismatch`, `ExecError::NoResult`), and
//! 2. produce a result relation whose arity equals the analyzer's inferred
//!    result arity — at `OptLevel::None` and `OptLevel::Full` alike.
//!
//! Everything is deterministic in the seeds; failures print the query and
//! document seed for replay.

mod support;

use support::arb_path;
use xpath2sql::core::{OptLevel, SqlOptions, Translator};
use xpath2sql::dtd::{samples, Dtd};
use xpath2sql::rel::{
    analyze_program_with, edge_scan_schema, Database, ExecError, ExecOptions, Stats,
};
use xpath2sql::shred::edge_database;
use xpath2sql::xml::rng::SplitMix64;
use xpath2sql::xml::{Generator, GeneratorConfig};
use xpath2sql::xpath::Path;

const CASES_PER_SEED: usize = 12;

/// Text literals for `text() = "…"`.
const LITERALS: &[&str] = &["v0", "v1", "sel"];

/// The property itself: analyzer acceptance ⇒ schema-clean execution with
/// the inferred result arity.
fn check_one(dtd: &Dtd, db: &Database, query: &Path, seed: u64) {
    for optimize in [OptLevel::None, OptLevel::Full] {
        let tr = Translator::new(dtd)
            .with_sql_options(SqlOptions {
                optimize,
                ..SqlOptions::default()
            })
            .translate(query)
            .unwrap_or_else(|e| panic!("translate {query} (doc seed {seed}): {e}"));
        // Translation already passed the pipeline's analyzer gate; re-run
        // explicitly so this test keeps failing loudly if that gate is ever
        // removed.
        let analysis = analyze_program_with(&tr.program, &edge_scan_schema).unwrap_or_else(|e| {
            panic!("analyzer rejected translated {query} at {optimize:?} (doc seed {seed}): {e}")
        });
        let mut stats = Stats::default();
        match tr.program.execute(db, ExecOptions::default(), &mut stats) {
            Ok(rel) => {
                if let Some(arity) = analysis.result {
                    assert_eq!(
                        arity,
                        rel.arity(),
                        "inferred result arity disagrees with executed arity \
                         for {query} at {optimize:?} (doc seed {seed})"
                    );
                }
            }
            Err(e @ (ExecError::SchemaMismatch(_) | ExecError::NoResult)) => panic!(
                "analyzer accepted {query} at {optimize:?} (doc seed {seed}) \
                 but execution failed with an error it rules out: {e}"
            ),
            // other classes (e.g. a missing base relation) are outside the
            // analyzer's contract — the schema catalog treats every R_* as
            // declared, the database only holds the DTD's actual labels
            Err(_) => {}
        }
    }
}

#[test]
fn accepted_programs_execute_schema_clean_on_cross() {
    let labels = ["a", "b", "c", "d", "zzz"];
    let dtd = samples::cross();
    for seed in 40u64..43 {
        let tree = Generator::new(
            &dtd,
            GeneratorConfig::shaped(7, 3, Some(300)).with_seed(seed),
        )
        .generate();
        let db = edge_database(&tree, &dtd);
        for case in 0..CASES_PER_SEED {
            let mut rng =
                SplitMix64::seed_from_u64(0xA11A_1000u64 ^ (seed << 16).wrapping_add(case as u64));
            let query = arb_path(&mut rng, &labels, LITERALS, 3);
            check_one(&dtd, &db, &query, seed);
        }
    }
}

#[test]
fn accepted_programs_execute_schema_clean_on_dept() {
    let labels = ["dept", "course", "student", "project"];
    let dtd = samples::dept_simplified();
    for seed in 50u64..53 {
        let tree = Generator::new(
            &dtd,
            GeneratorConfig::shaped(6, 3, Some(250)).with_seed(seed),
        )
        .generate();
        let db = edge_database(&tree, &dtd);
        for case in 0..CASES_PER_SEED {
            let mut rng =
                SplitMix64::seed_from_u64(0xA11A_2000u64 ^ (seed << 16).wrapping_add(case as u64));
            let query = arb_path(&mut rng, &labels, LITERALS, 3);
            check_one(&dtd, &db, &query, seed);
        }
    }
}

#[test]
fn accepted_programs_execute_schema_clean_on_gedml() {
    let labels = ["Even", "Sour", "Note", "Obje", "Data"];
    let dtd = samples::gedml();
    for seed in 60u64..62 {
        let tree = Generator::new(
            &dtd,
            GeneratorConfig::shaped(5, 3, Some(200)).with_seed(seed),
        )
        .generate();
        let db = edge_database(&tree, &dtd);
        for case in 0..CASES_PER_SEED {
            let mut rng =
                SplitMix64::seed_from_u64(0xA11A_3000u64 ^ (seed << 16).wrapping_add(case as u64));
            let query = arb_path(&mut rng, &labels, LITERALS, 2);
            check_one(&dtd, &db, &query, seed);
        }
    }
}
