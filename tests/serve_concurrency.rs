//! Concurrency contract of the serving layer (`x2s_serve`):
//!
//! * N threads issuing the *same* query produce exactly one executor
//!   flight — one plan-cache miss, N−1 coalesced joins — and everyone
//!   gets the oracle answer; two queries that once printed alike get a
//!   flight each;
//! * a full admission queue rejects explicitly (`503` + `Retry-After`),
//!   it never panics or hangs;
//! * graceful shutdown under load completes every admitted request: each
//!   accepted connection receives a complete response (a terminated
//!   chunked body or an explicit rejection) before `run` returns;
//! * streaming answers leave in multiple bounded chunks when asked;
//! * under mixed concurrent load every request is accounted for exactly
//!   once: it led a flight, joined one, was pruned, or timed out.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::Duration;

use xpath2sql::core::Engine;
use xpath2sql::dtd::samples;
use xpath2sql::serve::{QueryService, ServeConfig, Server};
use xpath2sql::xml::{Generator, GeneratorConfig};
use xpath2sql::xpath::{eval_from_document, parse_xpath};

fn loaded_engine() -> (Engine<'static>, xpath2sql::xml::Tree) {
    let dtd = Box::leak(Box::new(samples::dept_simplified()));
    // Starred roots can produce near-empty documents for an unlucky seed;
    // retry a few so the serving tests exercise real answer sets.
    let tree = (0..16)
        .map(|s| {
            Generator::new(
                dtd,
                GeneratorConfig::shaped(8, 3, Some(3_000)).with_seed(7 + s),
            )
            .generate()
        })
        .find(|t| t.len() >= 500)
        .expect("some seed yields a non-trivial document");
    let mut engine = Engine::new(dtd);
    engine.load(&tree);
    (engine, tree)
}

/// A raw one-shot HTTP exchange: send `request`, read what arrives.
/// Read errors (reset, timeout) yield whatever partial response was read —
/// the asserting tests decide whether that is acceptable.
fn raw_http(addr: &str, request: &str) -> String {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    conn.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    let _ = conn.read_to_string(&mut response);
    response
}

fn get(addr: &str, target: &str) -> String {
    raw_http(addr, &format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

/// Split a response into (status line, headers, raw body).
fn split_response(resp: &str) -> (&str, &str, &str) {
    let (head, body) = resp.split_once("\r\n\r\n").expect("header/body split");
    let (status, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    (status, headers, body)
}

/// Decode a chunked body into (payload, chunk count); panics unless the
/// terminating 0-chunk is present (i.e. the response is *complete*).
fn decode_chunked(body: &str) -> (String, usize) {
    let mut reader = BufReader::new(body.as_bytes());
    let mut payload = String::new();
    let mut chunks = 0usize;
    loop {
        let mut size_line = String::new();
        reader.read_line(&mut size_line).unwrap();
        let size = usize::from_str_radix(size_line.trim(), 16).expect("chunk size");
        if size == 0 {
            return (payload, chunks);
        }
        let mut data = vec![0u8; size + 2]; // data + CRLF
        reader.read_exact(&mut data).unwrap();
        payload.push_str(std::str::from_utf8(&data[..size]).unwrap());
        chunks += 1;
    }
}

#[test]
fn n_identical_queries_one_flight_one_cache_miss() {
    const N: usize = 8;
    let (engine, tree) = loaded_engine();
    let oracle: BTreeSet<u32> =
        eval_from_document(&parse_xpath("dept//project").unwrap(), &tree, engine.dtd())
            .into_iter()
            .map(|n| n.0)
            .collect();

    let service = QueryService::with_hold(&engine, Duration::from_millis(80));
    let barrier = Barrier::new(N);
    thread::scope(|s| {
        for _ in 0..N {
            s.spawn(|| {
                barrier.wait();
                let out = service.query("dept//project").unwrap();
                assert_eq!(*out.answers, oracle, "coalesced answer matches oracle");
            });
        }
    });
    let stats = engine.stats();
    assert_eq!(stats.plan_cache_misses, 1, "exactly one flight prepared");
    assert_eq!(stats.plan_cache_hits, 0);
    assert_eq!(stats.requests_coalesced, N - 1);

    // A second wave after the first completes is a fresh flight — but a
    // plan-cache *hit* now.
    let out = service.query("dept//project").unwrap();
    assert!(!out.coalesced);
    assert_eq!(engine.stats().plan_cache_hits, 1);
}

#[test]
fn spelling_variants_coalesce_under_one_canonical_key() {
    const N: usize = 6;
    // Three spellings of the same canonical query, issued concurrently:
    // canonicalization must unify the flight key, not just the plan key.
    let spellings = [
        "dept//project",
        "dept/descendant-or-self::*/project",
        "dept//self::*/project",
    ];
    let (engine, _tree) = loaded_engine();
    let service = QueryService::with_hold(&engine, Duration::from_millis(80));
    let barrier = Barrier::new(N);
    thread::scope(|s| {
        for i in 0..N {
            let spelling = spellings[i % spellings.len()];
            let service = &service;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                service.query(spelling).unwrap();
            });
        }
    });
    let stats = engine.stats();
    assert_eq!(
        stats.plan_cache_misses, 1,
        "all spellings share one canonical plan"
    );
    assert_eq!(stats.requests_coalesced, N - 1, "and one flight");
}

#[test]
fn qualifier_reordered_spellings_coalesce_under_one_key() {
    const N: usize = 6;
    // `a[b][c]` ≡ `a[c][b]`: conjunct order is normalized away, so the
    // reordered spellings must share one plan-cache entry AND one flight.
    let spellings = [
        "dept/course[student][project]",
        "dept/course[project][student]",
        "dept/course[project and student]",
    ];
    let (engine, _tree) = loaded_engine();
    let service = QueryService::with_hold(&engine, Duration::from_millis(80));
    let barrier = Barrier::new(N);
    thread::scope(|s| {
        for i in 0..N {
            let spelling = spellings[i % spellings.len()];
            let service = &service;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                service.query(spelling).unwrap();
            });
        }
    });
    let stats = engine.stats();
    assert_eq!(
        stats.plan_cache_misses, 1,
        "reordered qualifier chains share one plan-cache key"
    );
    assert_eq!(stats.requests_coalesced, N - 1, "and one flight");
}

/// ROADMAP item 1: flights key on the normalized `Path`, not its text. The
/// one literal `x"][text()="y` once printed as the two literals `x` and `y`;
/// sent together, the two queries must neither share a flight nor a plan.
#[test]
fn queries_that_once_printed_alike_take_separate_flights() {
    let dtd = xpath2sql::dtd::parse_dtd("<!ELEMENT r (a*)> <!ELEMENT a (#PCDATA)>").unwrap();
    let xml = "<r><a>x</a><a>y</a><a>x\"][text()=\"y</a></r>";
    let tree = xpath2sql::xml::parse_xml(&dtd, xml).unwrap();
    let mut engine = Engine::new(&dtd);
    engine.load(&tree);
    let service = QueryService::with_hold(&engine, Duration::from_millis(80));
    let queries = [
        r#"r/a[text()='x"][text()="y']"#,
        r#"r/a[text()="x"][text()="y"]"#,
    ];
    let barrier = Barrier::new(queries.len());
    thread::scope(|s| {
        for q in queries {
            let (service, barrier, tree, dtd) = (&service, &barrier, &tree, &dtd);
            s.spawn(move || {
                let oracle: BTreeSet<u32> = eval_from_document(&parse_xpath(q).unwrap(), tree, dtd)
                    .into_iter()
                    .map(|n| n.0)
                    .collect();
                barrier.wait();
                assert_eq!(*service.query(q).unwrap().answers, oracle, "{q}");
            });
        }
    });
    let stats = engine.stats();
    assert_eq!(stats.requests_coalesced, 0, "two flights");
    assert_eq!((stats.plan_cache_misses, stats.plan_cache_hits), (2, 0));
}

#[test]
fn statically_empty_queries_are_answered_without_flights() {
    let (engine, _tree) = loaded_engine();
    let service = QueryService::new(&engine);
    // `student` is never a direct child of `dept` in this DTD: the
    // admission gate answers ∅ before any flight, translation, or plan.
    let out = service.query("dept/student").unwrap();
    assert!(out.pruned);
    assert!(out.answers.is_empty());
    let stats = engine.stats();
    assert_eq!((stats.sat_checked, stats.sat_pruned), (1, 1));
    assert_eq!(stats.plan_cache_misses, 0, "no flight ever prepared");
    assert_eq!(engine.cached_plans(), 0);
}

#[test]
fn http_prune_path_sets_header_and_stats() {
    let (engine, _tree) = loaded_engine();
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let shutdown = server.shutdown_handle().unwrap();

    thread::scope(|s| {
        let server = &server;
        let engine = &engine;
        s.spawn(move || server.run(engine).unwrap());

        // statically empty: 200 with zero answers, marked pruned
        let pruned = get(&addr, "/query?q=dept/student");
        let (status, headers, body) = split_response(&pruned);
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        assert!(headers.contains("X-Sat-Pruned: true"), "{headers}");
        assert!(headers.contains("X-Answer-Count: 0"), "{headers}");
        let (payload, _) = decode_chunked(body);
        assert!(payload.trim().is_empty(), "no answer ids for ∅");

        // satisfiable queries are not marked pruned
        let served = get(&addr, "/query?q=dept//project");
        let (_, headers, _) = split_response(&served);
        assert!(headers.contains("X-Sat-Pruned: false"), "{headers}");

        // both sat counters surface on /stats
        let stats = get(&addr, "/stats");
        assert!(stats.contains("\"sat_checked\""), "{stats}");
        assert!(stats.contains("\"sat_pruned\": 1"), "{stats}");

        shutdown.trigger();
    });
}

/// Fixed mixed load through one `QueryService`: 4 threads × 50 rounds over a
/// descendant query, a child/descendant chain and `a/d`, which is statically
/// empty on Cross (no a→d edge) and so answered by the admission gate, not
/// by a flight. Threads start at staggered offsets so the same query is in
/// flight on several of them at once. Returns the requests issued, how many
/// returned an error, and the engine's counters for the load.
fn mixed_load(deadline: Option<Duration>) -> (usize, usize, xpath2sql::rel::Stats) {
    const THREADS: usize = 4;
    const ROUNDS: usize = 50;
    let queries = ["a//d", "a/b//c/d", "a/d"];
    let dtd = samples::cross();
    let tree = Generator::new(
        &dtd,
        GeneratorConfig::shaped(8, 3, Some(2_000)).with_seed(23),
    )
    .generate();
    let mut engine = Engine::new(&dtd);
    engine.load(&tree);
    let mut service = QueryService::new(&engine);
    if let Some(deadline) = deadline {
        service = service.deadline(deadline);
    }
    let errors = AtomicUsize::new(0);
    thread::scope(|s| {
        for t in 0..THREADS {
            let (service, errors) = (&service, &errors);
            s.spawn(move || {
                for i in 0..ROUNDS * queries.len() {
                    if service.query(queries[(t + i) % queries.len()]).is_err() {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let requests = THREADS * ROUNDS * queries.len();
    (requests, errors.into_inner(), engine.stats())
}

/// Executor flights that ran to completion: only flight leaders prepare, so
/// the prepares count the flights led; a timed-out leader prepared too.
fn completed_flights(stats: &xpath2sql::rel::Stats) -> usize {
    stats.plan_cache_hits + stats.plan_cache_misses - stats.exec_timeouts
}

#[test]
fn closed_loop_accounts_for_every_request() {
    let (requests, errors, stats) = mixed_load(None);
    assert_eq!(errors, 0);
    assert_eq!(stats.exec_timeouts, 0, "ungoverned run never times out");
    assert_eq!(stats.sat_pruned, requests / 3, "every a/d was pruned");
    assert_eq!(
        stats.requests_coalesced + completed_flights(&stats) + stats.sat_pruned,
        requests,
        "every request led a flight, joined one, or was pruned"
    );
}

#[test]
fn governed_run_reports_timeouts_and_accounting_stays_exact() {
    // an already-expired deadline: every flight aborts at its first
    // cancellation checkpoint
    let (requests, errors, stats) = mixed_load(Some(Duration::ZERO));
    assert!(stats.exec_timeouts > 0, "expired deadline aborts flights");
    assert_eq!(completed_flights(&stats), 0, "no flight ran to completion");
    assert_eq!(
        errors,
        stats.requests_coalesced + stats.exec_timeouts,
        "every timed-out leader and every follower saw the typed error"
    );
    assert_eq!(
        stats.requests_coalesced + stats.sat_pruned + stats.exec_timeouts,
        requests,
        "governed accounting is exact"
    );
}

#[test]
fn overloaded_server_sends_503_with_retry_after() {
    let (engine, _tree) = loaded_engine();
    // One worker, queue of one, every flight pinned for 300ms: concurrent
    // clients must overflow admission.
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        flight_hold: Some(Duration::from_millis(300)),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let shutdown = server.shutdown_handle().unwrap();

    thread::scope(|s| {
        let server = &server;
        let engine = &engine;
        s.spawn(move || server.run(engine).unwrap());

        let responses: Vec<String> = thread::scope(|cs| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let addr = addr.clone();
                    cs.spawn(move || get(&addr, "/query?q=dept//project"))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let rejected: Vec<&String> = responses
            .iter()
            .filter(|r| r.starts_with("HTTP/1.1 503 "))
            .collect();
        let served = responses
            .iter()
            .filter(|r| r.starts_with("HTTP/1.1 200 "))
            .count();
        assert!(
            !rejected.is_empty(),
            "8 clients vs 1 worker + 1 slot must overflow"
        );
        assert!(served >= 1, "admitted requests are served");
        for r in &rejected {
            let (_, headers, _) = split_response(r);
            assert!(
                headers.contains("Retry-After:"),
                "rejection carries Retry-After: {headers}"
            );
        }
        let stats = engine.stats();
        assert!(stats.requests_rejected >= rejected.len());
        assert!(stats.requests_admitted >= served);

        shutdown.trigger();
    });
}

#[test]
fn shutdown_under_load_completes_every_admitted_request() {
    const CLIENTS: usize = 12;
    let (engine, _tree) = loaded_engine();
    let config = ServeConfig {
        workers: 2,
        queue_capacity: 64,
        flight_hold: Some(Duration::from_millis(50)),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let shutdown = server.shutdown_handle().unwrap();

    thread::scope(|s| {
        let server = &server;
        let engine = &engine;
        let run = s.spawn(move || server.run(engine));

        let responses: Vec<String> = thread::scope(|cs| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|i| {
                    let addr = addr.clone();
                    let shutdown = shutdown.clone();
                    cs.spawn(move || {
                        // trigger shutdown mid-flight, from a client thread
                        if i == CLIENTS / 2 {
                            thread::sleep(Duration::from_millis(20));
                            shutdown.trigger();
                        }
                        // distinct queries so flights don't absorb the load
                        let q = ["dept//project", "dept//student", "dept//course"][i % 3];
                        get(&addr, &format!("/query?q={q}"))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        assert!(run.join().unwrap().is_ok(), "run() returns after drain");

        // Every ADMITTED connection got a COMPLETE response: a 200 whose
        // chunked body terminates. Connections refused at or after the
        // shutdown edge see an explicit 503 (the backlog sweep), never a
        // torn response.
        let mut served = 0usize;
        for r in &responses {
            if r.starts_with("HTTP/1.1 200 ") {
                let (_, headers, body) = split_response(r);
                assert!(headers.contains("Transfer-Encoding: chunked"));
                decode_chunked(body); // panics if not terminated
                served += 1;
            } else {
                assert!(
                    r.starts_with("HTTP/1.1 503 "),
                    "complete response required, got: {:?}",
                    r.lines().next().unwrap_or("")
                );
            }
        }
        assert!(served >= 1, "work in flight at shutdown still completed");
        let stats = engine.stats();
        assert!(
            stats.requests_admitted >= served,
            "every 200 was an admitted request"
        );
    });
}

#[test]
fn streaming_splits_large_answers_into_chunks() {
    let (engine, _tree) = loaded_engine();
    let config = ServeConfig {
        workers: 1,
        rows_per_chunk: 1,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let shutdown = server.shutdown_handle().unwrap();

    thread::scope(|s| {
        let server = &server;
        let engine = &engine;
        s.spawn(move || server.run(engine).unwrap());

        let resp = get(&addr, "/query?q=dept//project");
        shutdown.trigger();

        let (status, headers, body) = split_response(&resp);
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        assert!(headers.contains("Transfer-Encoding: chunked"));
        let count: usize = headers
            .lines()
            .find_map(|l| l.strip_prefix("X-Answer-Count: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        let (payload, chunks) = decode_chunked(body);
        assert_eq!(payload.lines().count(), count, "one id per line");
        assert!(count >= 2, "document large enough to have several answers");
        assert_eq!(chunks, count, "rows_per_chunk=1 → one chunk per answer");
        assert!(engine.stats().stream_chunks >= chunks);
    });
}

#[test]
fn endpoints_health_stats_and_errors() {
    let (engine, _tree) = loaded_engine();
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let shutdown = server.shutdown_handle().unwrap();

    thread::scope(|s| {
        let server = &server;
        let engine = &engine;
        s.spawn(move || server.run(engine).unwrap());

        let health = get(&addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200"));
        assert!(health.contains("ok"));

        let _ = get(&addr, "/query?q=dept//project");
        let stats = get(&addr, "/stats");
        assert!(stats.starts_with("HTTP/1.1 200"));
        // one coherent snapshot carrying every counter by name, so it says
        // which physical path the `//` took
        for (name, _) in engine.stats().fields() {
            assert!(stats.contains(&format!("\"{name}\": ")), "{name}: {stats}");
        }
        assert!(stats.contains("\"plan_cache_misses\": 1"));
        assert!(stats.contains("\"interval_rewrites\": 1"), "{stats}");
        assert!(stats.contains("\"lfp_invocations\": 0"), "{stats}");

        let bad = get(&addr, "/query?q=dept%5B");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");

        let missing = get(&addr, "/query");
        assert!(missing.starts_with("HTTP/1.1 400"));

        let nowhere = get(&addr, "/nope");
        assert!(nowhere.starts_with("HTTP/1.1 404"));

        shutdown.trigger();
    });
}
