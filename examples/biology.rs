//! A BIOML-flavoured scenario (paper §6, Exp-4): genomics documents with
//! nested gene/dna/clone/locus recursion, queried through all three
//! translation approaches, with engine statistics that expose *why* CycleEX
//! wins — joins and unions run once outside the fixpoint instead of once
//! per iteration inside SQL'99 recursion.
//!
//! The two in-framework approaches (CycleE, CycleEX) each get an
//! [`Engine`] built with that strategy over the same shared store, stats
//! from the engine. The SQLGen-R baseline is a different translator
//! entirely, so it uses the low-level `Translation::try_run` path against
//! the engine's store.
//!
//! ```sh
//! cargo run --release --example biology
//! ```

use std::time::Instant;
use xpath2sql::dtd::samples;
use xpath2sql::prelude::*;

fn main() {
    // the full 4-cycle BIOML graph of Fig. 11b
    let dtd = samples::bioml();
    println!(
        "BIOML DTD: {}",
        dtd.to_dtd_text().trim().replace('\n', "\n           ")
    );

    let cfg = GeneratorConfig::shaped(16, 6, Some(60_000));
    let tree = Generator::new(&dtd, cfg).generate();
    let mut engine = Engine::new(&dtd);
    engine.load(&tree);
    let db = engine.database().expect("document is loaded");
    println!(
        "\nloaded {} elements (gene: {}, dna: {}, clone: {}, locus: {})",
        engine.doc_len(),
        db.get("R_gene").unwrap().len(),
        db.get("R_dna").unwrap().len(),
        db.get("R_clone").unwrap().len(),
        db.get("R_locus").unwrap().len(),
    );

    for query_text in ["gene//locus", "gene//dna", "gene//dna[clone]"] {
        let query = parse_xpath(query_text).unwrap();
        println!("\n== {query_text} ==");
        // R — the SQLGen-R baseline, via the low-level translation API.
        let last_answers = {
            let translation = xpath2sql::sqlgenr::SqlGenR::new(&dtd)
                .translate(&query)
                .unwrap();
            let mut stats = Stats::default();
            let started = Instant::now();
            let answers = translation
                .try_run(
                    engine.database().unwrap(),
                    ExecOptions::default(),
                    &mut stats,
                )
                .expect("SQLGen-R programs execute");
            report("R (SQLGen-R, SQL'99 recursion)", started, &answers, &stats);
            answers
        };
        // E and X — one engine per strategy, sharing the loaded store.
        for (label, strategy) in [
            (
                "E (CycleE regular expressions)",
                RecStrategy::CycleE { cap: 4_000_000 },
            ),
            ("X (CycleEX + simple LFP)", RecStrategy::CycleEx),
        ] {
            let mut approach = Engine::builder(&dtd).strategy(strategy).build();
            approach.load_shared(engine.database_shared().expect("document is loaded"));
            let prepared = approach.prepare(query_text).unwrap();
            approach.reset_stats();
            let started = Instant::now();
            let answers = prepared.execute().unwrap();
            report(label, started, &answers, &approach.stats());
            assert_eq!(last_answers, answers, "all approaches agree");
        }
    }
    println!("\nall three approaches returned identical answers ✓");
}

fn report(label: &str, started: Instant, answers: &std::collections::BTreeSet<u32>, stats: &Stats) {
    println!(
        "  {label:34} {:>8.1} ms  {:>6} answers  joins={:<5} unions={:<5} fixpoint iters={}",
        started.elapsed().as_secs_f64() * 1e3,
        answers.len(),
        stats.joins,
        stats.unions,
        stats.lfp_iterations + stats.multilfp_iterations,
    );
}
