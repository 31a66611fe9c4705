//! Concurrent-engine stress test (ISSUE 3): N threads hammering
//! `prepare`/`execute`/`query` on ONE shared `Engine`, asserting
//!
//! * every concurrent answer equals the single-threaded oracle result,
//! * `plan_cache_hits + plan_cache_misses` equals the total number of
//!   prepares issued (atomic stats lose no updates),
//! * the plan cache never exceeds its configured capacity.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use xpath2sql::dtd::samples;
use xpath2sql::prelude::*;
use xpath2sql::xml::{Generator, GeneratorConfig};

const WORKERS: usize = 8;
const ROUNDS: usize = 10;

fn generated(dtd: &Dtd, n: usize, seed: u64) -> xpath2sql::xml::Tree {
    Generator::new(dtd, GeneratorConfig::shaped(8, 3, Some(n)).with_seed(seed)).generate()
}

fn stress(dtd: &Dtd, tree: &xpath2sql::xml::Tree, queries: &[&str]) {
    // single-thread oracle answers, from an independent engine
    let mut oracle = Engine::new(dtd);
    oracle.load(tree);
    let expected: Vec<BTreeSet<u32>> = queries.iter().map(|q| oracle.query(q).unwrap()).collect();

    let capacity = 64;
    let mut engine = Engine::builder(dtd).plan_cache_capacity(capacity).build();
    engine.load(tree);
    let engine = &engine;
    let prepares = AtomicUsize::new(0);
    thread::scope(|s| {
        for w in 0..WORKERS {
            let (expected, prepares) = (&expected, &prepares);
            s.spawn(move || {
                for r in 0..ROUNDS {
                    for (qi, q) in queries.iter().enumerate() {
                        // alternate between the one-shot and the explicit
                        // prepare/execute paths; both cost one prepare
                        let got = if (w + r + qi) % 2 == 0 {
                            engine.query(q).unwrap()
                        } else {
                            engine.prepare(q).unwrap().execute().unwrap()
                        };
                        prepares.fetch_add(1, Ordering::Relaxed);
                        assert_eq!(got, expected[qi], "worker {w} round {r} query {q}");
                    }
                }
            });
        }
    });
    let total = prepares.load(Ordering::Relaxed);
    assert_eq!(total, WORKERS * ROUNDS * queries.len());
    let stats = engine.stats();
    assert_eq!(
        stats.plan_cache_hits + stats.plan_cache_misses,
        total,
        "hits + misses must equal total prepares (no lost atomic updates)"
    );
    assert!(
        stats.plan_cache_misses >= queries.len(),
        "each distinct query translates at least once"
    );
    assert!(engine.cached_plans() <= capacity);
}

#[test]
fn concurrent_cross_matches_single_thread_oracle() {
    let d = samples::cross();
    let tree = generated(&d, 2_000, 42);
    stress(
        &d,
        &tree,
        &["a//d", "a/b//c/d", "a[//c]//d", "a[not //c]", "a//a"],
    );
}

#[test]
fn concurrent_gedml_with_parallel_exec() {
    // a recursive root: `//Even` starts at the document node, which has no
    // interval label, so these workers execute fixpoints in parallel too
    let d = samples::gedml();
    let tree = generated(&d, 2_000, 7);
    stress(
        &d,
        &tree,
        &["Even//Data", "//Even", "Even//Even", "Even/Sour/Data"],
    );
}

#[test]
fn concurrent_prepares_of_distinct_queries_all_land_in_cache() {
    let d = samples::dept_simplified();
    let engine = Engine::builder(&d).plan_cache_capacity(128).build();
    let engine = &engine;
    let queries = [
        "dept//project",
        "dept//course",
        "dept/course",
        "dept/course/student",
        "dept//student[course]",
        "dept//course[project]",
    ];
    thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(move || {
                for q in queries {
                    engine.prepare(q).unwrap();
                }
            });
        }
    });
    // Racing prepares of the same query may translate more than once, but
    // the cache converges to one entry per distinct key.
    assert_eq!(engine.cached_plans(), queries.len());
    let stats = engine.stats();
    assert_eq!(
        stats.plan_cache_hits + stats.plan_cache_misses,
        WORKERS * queries.len()
    );
    assert!(stats.plan_cache_misses >= queries.len());
}
