//! Chaos suite: real faults against the live HTTP server.
//!
//! Each scenario drives the server through one fault — a deadline that
//! expires, a budget that runs out, a client that hangs up mid-response —
//! and asserts the containment contract: clients get typed error responses
//! (never hangs or torn workers), the governance counters record the event,
//! and the next request succeeds, proof the worker pool survived. The
//! panicking flight leader, the one fault with no outside trigger, is
//! tested beside the server in `x2s_serve`'s own tests.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::thread;
use std::time::Duration;

use xpath2sql::core::Engine;
use xpath2sql::dtd::{samples, Dtd};
use xpath2sql::rel::ExecOptions;
use xpath2sql::serve::{ServeConfig, Server};
use xpath2sql::xml::{Generator, GeneratorConfig, Tree};

/// An adversarial deep-recursion document on the Cross DTD: deep nesting
/// drives many LFP rounds.
fn deep_recursion_doc(dtd: &Dtd) -> Tree {
    (0..16)
        .map(|s| {
            Generator::new(
                dtd,
                GeneratorConfig::shaped(14, 3, Some(4_000)).with_seed(101 + s),
            )
            .generate()
        })
        .find(|t| t.len() >= 1_000)
        .expect("some seed yields a deep non-trivial document")
}

/// Serve `engine` under `config` while `client` talks to the server's
/// address, then shut it down, even when `client` panics.
fn with_server(engine: &Engine<'_>, config: ServeConfig, client: impl FnOnce(&str)) {
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let shutdown = server.shutdown_handle().unwrap();
    thread::scope(|s| {
        s.spawn(|| server.run(engine).unwrap());
        let outcome = catch_unwind(AssertUnwindSafe(|| client(&addr)));
        shutdown.trigger();
        if let Err(panic) = outcome {
            resume_unwind(panic);
        }
    });
}

fn connect(addr: &str, target: &str) -> TcpStream {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(conn, "GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    conn
}

fn get(addr: &str, target: &str) -> String {
    let mut response = String::new();
    let _ = connect(addr, target).read_to_string(&mut response);
    response
}

/// A deadline shorter than the flight hold has expired before execution
/// starts, on any machine: the reply is `503` with `Retry-After`, both
/// layers count it, and the lone worker serves the next request.
#[test]
fn deadline_expiry_answers_503_and_the_worker_recovers() {
    let dtd = samples::dept_simplified();
    let mut engine = Engine::new(&dtd);
    engine
        .load_xml("<dept><course><course><project/></course><project/></course></dept>")
        .unwrap();
    let config = ServeConfig {
        workers: 1,
        // The deadline is stamped before the flight, so the hold spends it.
        flight_hold: Some(Duration::from_millis(200)),
        query_deadline: Some(Duration::from_millis(50)),
        ..ServeConfig::default()
    };
    with_server(&engine, config, |addr| {
        let resp = get(addr, "/query?q=dept//project");
        assert!(resp.starts_with("HTTP/1.1 503 "), "{resp}");
        assert!(resp.contains("Retry-After:"), "{resp}");
        assert!(resp.contains("deadline exceeded"), "{resp}");
        let stats = engine.stats();
        assert!(stats.exec_timeouts >= 1, "executor counted the expiry");
        assert!(stats.requests_timed_out >= 1, "HTTP layer counted the 503");

        // Same worker, next request: the sat gate answers it without a
        // flight, so neither the hold nor the deadline applies.
        let healthy = get(addr, "/query?q=dept/student");
        assert!(healthy.starts_with("HTTP/1.1 200 "), "{healthy}");
    });
}

/// A tuple budget must abort an adversarial closure-heavy query with a
/// typed error while leaving cheap queries (and the worker) untouched.
#[test]
fn budget_abort_on_adversarial_document_leaves_pool_serviceable() {
    let dtd = samples::cross();
    let tree = deep_recursion_doc(&dtd);
    let mut engine = Engine::builder(&dtd)
        // Tight tuple budget: the `a//d` closure over the deep document
        // blows through it; the statically-empty probe stays under it.
        .exec_options(
            ExecOptions::default()
                .with_interval(false)
                .with_tuple_budget(64),
        )
        .build();
    engine.load(&tree);
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    with_server(&engine, config, |addr| {
        let resp = get(addr, "/query?q=a//d");
        assert!(resp.starts_with("HTTP/1.1 500 "), "{resp}");
        assert!(resp.contains("budget exceeded"), "typed abort: {resp}");
        assert!(engine.stats().budget_aborts >= 1);

        // Same worker, next request: the admission gate answers the
        // impossible query without executing — the pool is serviceable.
        let healthy = get(addr, "/query?q=a/d");
        assert!(healthy.starts_with("HTTP/1.1 200 "), "{healthy}");
    });
}

/// A client that hangs up before its answer arrives costs only its own
/// response: the server's writes fail on the closed socket, and the lone
/// worker streams a complete body to the next client.
#[test]
fn client_hangup_mid_stream_keeps_the_worker_alive() {
    const ANSWERS: usize = 600;
    let dtd = samples::dept_simplified();
    let mut engine = Engine::new(&dtd);
    let xml = format!(
        "<dept><course>{}</course></dept>",
        "<project/>".repeat(ANSWERS)
    );
    engine.load_xml(&xml).unwrap();
    let config = ServeConfig {
        workers: 1,
        // One row per chunk: a write per answer, most of them after the
        // peer has reset the connection.
        rows_per_chunk: 1,
        flight_hold: Some(Duration::from_millis(100)),
        ..ServeConfig::default()
    };
    with_server(&engine, config, |addr| {
        // Send the request, then hang up while its flight is held.
        drop(connect(addr, "/query?q=dept//project"));

        let healthy = get(addr, "/query?q=dept//project");
        assert!(healthy.starts_with("HTTP/1.1 200 "), "{healthy}");
        assert!(healthy.ends_with("0\r\n\r\n"), "terminated chunked body");
        // Only a stream that ran to its terminator counts its chunks: the
        // torn one counted none.
        assert_eq!(engine.stats().stream_chunks, ANSWERS);
    });
}
