//! Integration tests for the `Engine` session API: the prepared-query plan
//! cache (hit/miss accounting, capacity, LRU eviction) and
//! end-to-end equivalence of the engine path with the native XPath oracle
//! on the three sample DTDs.

use std::collections::BTreeSet;
use xpath2sql::dtd::samples;
use xpath2sql::prelude::*;
use xpath2sql::xpath::eval_from_document;

/// (dtd, document, queries) triples mirroring the pipeline's end-to-end
/// suites, so the engine path is held to the same oracle as the low-level
/// path.
fn sample_workloads() -> Vec<(Dtd, &'static str, Vec<&'static str>)> {
    vec![
        (
            samples::dept_simplified(),
            "<dept><course><course><course/><project><course><project/></course></project></course><student/><student><course/></student></course></dept>",
            vec![
                "dept//project",
                "dept/course",
                "dept//course",
                "dept/course/student[course]",
                "dept//course[not //project]",
                "dept//course[project or student]",
            ],
        ),
        (
            samples::cross(),
            "<a><b><a><c><d/><a/></c></a></b><c><d/></c></a>",
            vec!["a/b//c/d", "a[//c]//d", "a[not //c]", "a//d", "a//a"],
        ),
        (
            samples::gedml(),
            "<Even><Sour><Data><Even><Sour/></Even></Data><Note><Obje/></Note></Sour><Obje><Sour><Data/></Sour></Obje></Even>",
            vec!["Even//Data", "//Even", "Even//Even", "Even/Sour/Data", "Even//Obje[Sour]"],
        ),
    ]
}

#[test]
fn engine_results_match_native_oracle_on_all_samples() {
    for (dtd, xml, queries) in sample_workloads() {
        let tree = parse_xml(&dtd, xml).unwrap();
        let mut engine = Engine::new(&dtd);
        engine.load(&tree);
        for q in queries {
            let native: BTreeSet<u32> = eval_from_document(&parse_xpath(q).unwrap(), &tree, &dtd)
                .into_iter()
                .map(|n| n.0)
                .collect();
            let got = engine.query(q).unwrap();
            assert_eq!(got, native, "engine differs from oracle on {q}");
        }
    }
}

#[test]
fn same_query_n_times_translates_exactly_once() {
    for (dtd, xml, queries) in sample_workloads() {
        // parse without strict content-model validation: the hand-written
        // sample docs exercise structure, not conformance
        let tree = parse_xml(&dtd, xml).unwrap();
        let mut engine = Engine::new(&dtd);
        engine.load(&tree);
        let q = queries[0];
        let first = engine.query(q).unwrap();
        for _ in 0..4 {
            assert_eq!(engine.query(q).unwrap(), first);
        }
        let stats = engine.stats();
        assert_eq!(
            stats.plan_cache_misses, 1,
            "5 executions of {q} must cost exactly one translation"
        );
        assert_eq!(stats.plan_cache_hits, 4, "the other 4 are cache hits");
        assert_eq!(engine.cached_plans(), 1);
    }
}

#[test]
fn lru_eviction_at_capacity() {
    let dtd = samples::dept_simplified();
    let engine = Engine::builder(&dtd).plan_cache_capacity(2).build();
    engine.prepare("dept/course").unwrap(); // miss
    engine.prepare("dept//project").unwrap(); // miss
    engine.prepare("dept/course").unwrap(); // hit; //project becomes LRU
    engine.prepare("dept//course").unwrap(); // miss, evicts dept//project
    assert_eq!(engine.cached_plans(), 2);
    engine.prepare("dept/course").unwrap(); // still cached: hit
    engine.prepare("dept//project").unwrap(); // evicted: miss again
    let stats = engine.stats();
    assert_eq!((stats.plan_cache_misses, stats.plan_cache_hits), (4, 2));
}

/// At the default capacity the cache holds exactly what it is configured
/// to hold, a second pass over as many distinct queries is all hits, and
/// one more query evicts exactly the least-recently-used plan.
#[test]
fn plan_cache_holds_its_configured_capacity() {
    let dtd = xpath2sql::dtd::parse_dtd("<!ELEMENT r (a*)> <!ELEMENT a (#PCDATA)>").unwrap();
    let engine = Engine::new(&dtd);
    let capacity = xpath2sql::core::engine::DEFAULT_PLAN_CACHE_CAPACITY;
    let query = |i: usize| format!(r#"r/a[text()="v{i}"]"#);
    let counts = || {
        let s = engine.stats();
        (s.plan_cache_misses, s.plan_cache_hits)
    };
    for i in 0..capacity {
        engine.prepare(&query(i)).unwrap();
    }
    assert_eq!(engine.cached_plans(), capacity);
    assert_eq!(counts(), (capacity, 0));
    for i in 0..capacity {
        engine.prepare(&query(i)).unwrap();
    }
    assert_eq!(counts(), (capacity, capacity), "second pass: all hits");
    // one more query evicts `v0`, the least recently used, and nothing else
    engine.prepare(&query(capacity)).unwrap();
    assert_eq!(engine.cached_plans(), capacity);
    for i in 1..=capacity {
        engine.prepare(&query(i)).unwrap();
    }
    assert_eq!(counts(), (capacity + 1, 2 * capacity), "the rest still hit");
    engine.prepare(&query(0)).unwrap();
    assert_eq!(counts(), (capacity + 2, 2 * capacity), "v0 was evicted");
}

#[test]
fn dialect_rendering_and_one_shot_sql() {
    let dtd = samples::dept_simplified();
    let engine = Engine::builder(&dtd).dialect(SqlDialect::Oracle).build();
    let prepared = engine.prepare("dept//project").unwrap();
    assert!(prepared.sql(SqlDialect::Oracle).contains("CONNECT BY"));
    assert!(prepared.sql(SqlDialect::Sql99).contains("WITH RECURSIVE"));
    assert_eq!(prepared.sql_text(), prepared.sql(SqlDialect::Oracle));
    // `Engine::sql` renders without a loaded document, through the cache.
    let sql = engine.sql("dept//project").unwrap();
    assert_eq!(sql, prepared.sql(SqlDialect::Oracle));
    assert_eq!(engine.stats().plan_cache_hits, 1);
}

#[test]
fn engine_error_covers_every_stage() {
    let dtd = samples::dept_simplified();
    let mut engine = Engine::new(&dtd);
    // xpath parse
    assert!(matches!(
        engine.prepare("dept//["),
        Err(EngineError::Xpath(_))
    ));
    // xml parse
    assert!(matches!(
        engine.load_xml("<dept><unclosed>"),
        Err(EngineError::Xml(_))
    ));
    // validation
    assert!(matches!(
        engine.load_xml("<dept><student/></dept>"),
        Err(EngineError::Validate(_))
    ));
    // translation (CycleE blowup)
    let blowup = samples::complete_dag(14);
    let tiny = Engine::builder(&blowup)
        .strategy(RecStrategy::CycleE { cap: 500 })
        .build();
    assert!(matches!(
        tiny.prepare("//A14"),
        Err(EngineError::Translate(TranslateError::RecBlowup { .. }))
    ));
    // execution without a document
    let prepared = engine.prepare("dept//project").unwrap();
    assert_eq!(prepared.execute().unwrap_err(), EngineError::NoDocument);
}

#[test]
fn stats_accumulate_and_reset() {
    let dtd = samples::dept_simplified();
    let mut engine = Engine::new(&dtd);
    engine
        .load_xml("<dept><course><project/></course></dept>")
        .unwrap();
    engine.query("dept//project").unwrap();
    let s1 = engine.stats();
    // the loaded store carries interval labels, so the descendant axis
    // takes the range-join fast path — no fixpoint at all
    assert!(
        s1.interval_rewrites >= 1,
        "descendant axis took the interval fast path: {s1}"
    );
    assert_eq!(s1.lfp_invocations, 0, "no fixpoint ran: {s1}");
    assert!(s1.stmts_evaluated > 0);
    engine.reset_stats();
    let s2 = engine.stats();
    assert_eq!(s2.plan_cache_misses, 0);
    assert_eq!(s2.stmts_evaluated, 0);
    // the cache itself survives a stats reset
    engine.query("dept//project").unwrap();
    assert_eq!(engine.stats().plan_cache_hits, 1);
}

/// ROADMAP aim 2 counts options: each independently settable field
/// multiplies what every equivalence suite has to cover. The destructuring
/// has no `..`, so a fifth `ExecOptions` field fails to compile here.
#[test]
fn exec_options_has_exactly_four_fields() {
    let ExecOptions {
        interval,
        deadline,
        tuple_budget,
        closure_budget,
    } = ExecOptions::default();
    assert!(interval, "the interval fast path is on by default");
    assert_eq!(deadline, None);
    assert_eq!(tuple_budget, None);
    assert_eq!(closure_budget, None);
}

/// A query is outside input and everything downstream of the parser recurses
/// on its tree, so the parser bounds the depth of what it accepts (ROADMAP
/// item 2). Each shape below used to abort the process — a stack overflow,
/// past `catch_unwind` — at a few hundred repetitions on a server worker's
/// 2 MiB stack. Here each goes through parse, normalization, the sat check,
/// translation and execution at its largest accepted size on half that
/// stack, answering what the native evaluator answers, and is a typed parse
/// error one repetition later and at the sizes that used to kill the
/// process. (Execution evaluates a program's nodes in a loop; the recursive
/// evaluator it replaced overflowed this stack on `a[a[…]]`.)
#[test]
fn deep_queries_are_a_parse_error_not_a_stack_overflow() {
    // (shape, builder, largest accepted n): the bound is 128 levels, of
    // syntax nesting or of tree depth, whichever a shape reaches first
    type Shape = (&'static str, fn(usize) -> String, usize);
    let shapes: [Shape; 5] = [
        // n steps are a left-deep `Seq` spine n nodes tall
        ("a/a/…/a", |n| format!("a{}", "/a".repeat(n - 1)), 128),
        ("a|a|…|a", |n| format!("a{}", "|a".repeat(n - 1)), 128),
        // n pairs of parentheses inside the top level: 1 + n levels
        ("(((a)))", |n| "(".repeat(n) + "a" + &")".repeat(n), 127),
        // each `a[…]` is a `Qualified` over a `Qual::Path`: 1 + 2n nodes tall
        ("a[a[a[…]]]", |n| "a[".repeat(n) + "a" + &"]".repeat(n), 63),
        // `Qualified`, n × `Not`, `Qual::Path`, `a`: n + 3 nodes tall
        (
            "a[not not … a]",
            |n| format!("a[{}a]", "not ".repeat(n)),
            125,
        ),
    ];
    let worker = std::thread::Builder::new().stack_size(1 << 20);
    let run = worker.spawn(move || {
        let dtd = xpath2sql::dtd::parse_dtd("<!ELEMENT a (a*)>").unwrap();
        let tree = xpath2sql::xml::parse_xml(&dtd, "<a><a><a/></a></a>").unwrap();
        let mut engine = Engine::new(&dtd);
        engine.load(&tree);
        for (name, build, limit) in shapes {
            let path = xpath2sql::xpath::parse_xpath(&build(limit))
                .unwrap_or_else(|e| panic!("{name} × {limit}: {e}"));
            let normal = engine.normalize_path(&path);
            engine.check_sat(&normal);
            let answers = engine.prepare_path(&normal).unwrap().execute().unwrap();
            let oracle: BTreeSet<u32> = eval_from_document(&path, &tree, &dtd)
                .into_iter()
                .map(|n| n.0)
                .collect();
            assert_eq!(answers, oracle, "{name} × {limit}");
            for n in [limit + 1, 4_096, 200_000] {
                let err = engine.prepare(&build(n)).err();
                assert!(
                    matches!(&err, Some(EngineError::Xpath(e)) if e.message.contains("deeper")),
                    "{name} × {n}: {err:?}"
                );
            }
        }
    });
    run.unwrap().join().unwrap();
}

/// Two queries whose literals once printed alike get two plans (ROADMAP
/// item 1). `Display` used to wrap every literal in `"`: the one literal
/// `x"][text()="y` then printed as the two literals `x` and `y`, and while
/// the plan cache keyed on that text, whichever query was prepared first
/// answered for both. It now keys on the `Path` value.
#[test]
fn literals_holding_a_quote_get_their_own_plan() {
    let dtd = xpath2sql::dtd::parse_dtd("<!ELEMENT r (a*)> <!ELEMENT a (#PCDATA)>").unwrap();
    let xml = "<r><a>x</a><a>y</a><a>x\"][text()=\"y</a></r>";
    let tree = xpath2sql::xml::parse_xml(&dtd, xml).unwrap();
    let mut engine = Engine::new(&dtd);
    engine.load(&tree);
    let one_literal = r#"r/a[text()='x"][text()="y']"#;
    let two_literals = r#"r/a[text()="x"][text()="y"]"#;
    for (query, answers) in [(one_literal, 1), (two_literals, 0)] {
        let path = xpath2sql::xpath::parse_xpath(query).unwrap();
        let oracle: BTreeSet<u32> = eval_from_document(&path, &tree, &dtd)
            .into_iter()
            .map(|n| n.0)
            .collect();
        assert_eq!(oracle.len(), answers, "{query}");
        assert_eq!(engine.query(query).unwrap(), oracle, "{query}");
    }
    let stats = engine.stats();
    assert_eq!(
        (stats.plan_cache_misses, stats.plan_cache_hits),
        (2, 0),
        "two queries, two plans"
    );
}
