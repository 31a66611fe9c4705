//! The `Engine` API in one screen: builder → load → prepare → execute →
//! dialect-specific SQL. (`cargo run --example engine_quickstart`)

use xpath2sql::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dtd = parse_dtd(
        "<!ELEMENT dept (course*)>
         <!ELEMENT course (course | project | student)*>
         <!ELEMENT project (course*)>
         <!ELEMENT student (course*)>",
    )?;

    // One session: strategy, SQL options, and dialect fixed up front.
    let mut engine = Engine::builder(&dtd)
        .strategy(RecStrategy::CycleEx)
        .dialect(SqlDialect::Sql99)
        .build();
    engine.load_xml(
        "<dept><course><course><project/></course><student><course/></student></course></dept>",
    )?;

    // Prepared once (one CycleEX translation), executable many times; the
    // cached program renders in any dialect of paper Fig. 4.
    let q = engine.prepare("dept//project")?;
    println!("answers: {:?}", q.execute()?);
    for dialect in [SqlDialect::Sql99, SqlDialect::Oracle] {
        let sql = q.sql(dialect);
        let rec = sql
            .lines()
            .find(|l| l.contains("RECURSIVE") || l.contains("CONNECT BY"));
        println!(
            "{dialect:>6?}: {}",
            rec.expect("recursive construct").trim()
        );
    }
    println!("\nstats: {}", engine.stats());
    Ok(())
}
