//! The paper's running example, end to end: the `dept` DTD (Fig. 1), the
//! Table 1 document, query Q1 = `dept//project` through all three
//! approaches (Tables 2–3, Examples 3.1/3.5), and the Q2 query with rich
//! qualifiers that SQLGen-R alone cannot express (Example 4.3).
//!
//! ```sh
//! cargo run --example courseware
//! ```

use xpath2sql::core::Engine;
use xpath2sql::rel::{ExecOptions, SqlDialect, Stats};
use xpath2sql::shred::{edge_database, InlinedDatabase};
use xpath2sql::sqlgenr::SqlGenR;
use xpath2sql::xml::{paper_ids, parse_xml};
use xpath2sql::xpath::parse_xpath;

fn main() {
    // ——— the dept DTD of Example 2.1 and the Table 1 document ———
    let dept_full = xpath2sql::dtd::samples::dept();
    let dtd = xpath2sql::dtd::samples::dept_simplified();
    let doc = "<dept>\
                 <course>\
                   <course><course/><project><course><project/></course></project></course>\
                   <student/>\
                   <student><course/></student>\
                 </course>\
               </dept>";
    let tree = parse_xml(&dtd, doc).expect("document parses");
    let ids = paper_ids(&tree, &dtd);
    let db = edge_database(&tree, &dtd);

    println!("== Table 1: the shredded database ==");
    for rel in ["R_dept", "R_course", "R_student", "R_project"] {
        let r = db.get(rel).unwrap();
        println!("\n{rel} ({} tuples):", r.len());
        for t in r.sorted_tuples() {
            let show = |v: &xpath2sql::rel::Value| match v {
                xpath2sql::rel::Value::Doc => "–".to_string(),
                xpath2sql::rel::Value::Id(n) => ids[*n as usize].clone(),
                other => other.to_string(),
            };
            println!("  F={:4} T={:4}", show(&t[0]), show(&t[1]));
        }
    }

    // ——— shared inlining (Example 2.3): the Rd/Rc/Rs/Rp partition ———
    let inlined = InlinedDatabase::shred(
        &parse_xml(
            &dept_full,
            "<dept><course><cno>cs66</cno><title>db</title><prereq/><takenBy/></course></dept>",
        )
        .unwrap(),
        &dept_full,
    );
    println!("\n== Example 2.3: shared-inlining schema ==");
    let mut roots: Vec<&str> = inlined
        .schema
        .roots
        .iter()
        .map(|&r| dept_full.name(r))
        .collect();
    roots.sort_unstable();
    println!("relation roots: {roots:?}");
    let course = dept_full.elem("course").unwrap();
    println!("I_course columns: {:?}", inlined.schema.columns[&course]);

    // ——— Q1 = dept//project via SQLGen-R (Fig. 2 / Table 2) ———
    let q1 = parse_xpath("dept//project").unwrap();
    let genr = SqlGenR::new(&dtd);
    println!("\n== SQLGen-R on Q1 (the Fig. 2 recursion) ==");
    println!(
        "query-graph SCCs for rec(dept, project): {:?}",
        genr.region_sccs("dept", "project")
    );
    let tr_r = genr.translate(&q1).unwrap();
    let mut stats_r = Stats::default();
    let answers_r = tr_r
        .try_run(&db, ExecOptions::default(), &mut stats_r)
        .expect("SQLGen-R program executes");
    println!(
        "answers: {:?}  ({} fixpoint iterations, {} joins total)",
        answers_r
            .iter()
            .map(|&n| &ids[n as usize])
            .collect::<Vec<_>>(),
        stats_r.multilfp_iterations,
        stats_r.joins
    );

    // ——— Q1 via CycleEX, through an Engine session (Example 3.5 / Table 3) ———
    println!("\n== CycleEX on Q1 (Example 3.5) ==");
    let mut engine = Engine::new(&dtd);
    engine.load(&tree);
    let q1_prepared = engine.prepare("dept//project").unwrap();
    let q1_translation = q1_prepared
        .translation()
        .expect("dept//project is satisfiable");
    println!(
        "extended XPath translation (pruned):\n{}",
        q1_translation.extended
    );
    let answers_x = q1_prepared.execute().unwrap();
    let stats_x = engine.stats();
    println!(
        "\nR_f answers: {:?}  ({} LFP invocation(s), {} joins total)",
        answers_x
            .iter()
            .map(|&n| &ids[n as usize])
            .collect::<Vec<_>>(),
        stats_x.lfp_invocations,
        stats_x.joins
    );
    assert_eq!(answers_r, answers_x);

    // ——— the generated SQL, in the two dialects of Fig. 4 ———
    println!("\n== Q1 SQL (Oracle CONNECT BY flavour, excerpt) ==");
    let oracle = q1_prepared.sql(SqlDialect::Oracle);
    for line in oracle.lines().filter(|l| l.contains("CONNECT")).take(4) {
        println!("  {line}");
    }
    println!("== Q1 SQL (SQL'99 recursive CTE flavour, excerpt) ==");
    let sql99 = q1_prepared.sql(SqlDialect::Sql99);
    for line in sql99.lines().filter(|l| l.contains("RECURSIVE")).take(4) {
        println!("  {line}");
    }

    // ——— Q2 (Example 2.2): negation + data values, beyond SQLGen-R [39] ———
    println!("\n== Q2 over the full dept DTD (Example 4.3) ==");
    let q2 = r#"dept/course[//prereq/course[cno = "cs66"] and not //project and not takenBy/student/qualified//course[cno = "cs66"]]"#;
    let doc2 = "<dept>\
          <course><cno>cs01</cno><title/><prereq><course><cno>cs66</cno><title/><prereq/><takenBy/></course></prereq><takenBy/></course>\
          <course><cno>cs02</cno><title/><prereq><course><cno>cs66</cno><title/><prereq/><takenBy/></course></prereq><takenBy/><project><pno/><ptitle/><required/></project></course>\
        </dept>";
    let tree2 = parse_xml(&dept_full, doc2).unwrap();
    let mut engine2 = Engine::new(&dept_full);
    engine2.load(&tree2);
    let answers2 = engine2.prepare(q2).unwrap().execute().unwrap();
    let cno_of = |course_id: u32| -> String {
        let node = xpath2sql::xml::NodeId(course_id);
        let cno = tree2.children(node)[0];
        tree2.value(cno).unwrap_or("?").to_string()
    };
    println!(
        "courses with prereq cs66, no project, no cs66-qualified student: {:?}",
        answers2.iter().map(|&n| cno_of(n)).collect::<Vec<_>>()
    );
    assert_eq!(
        answers2.len(),
        1,
        "only cs01 qualifies (cs02 has a project)"
    );
    println!("\nall checks passed ✓");
}
