//! `serve` — stand up the XPath-to-SQL engine behind an HTTP front end.
//!
//! ```text
//! serve [--addr HOST:PORT] [--dtd NAME] [--xml FILE | --elements N --seed N]
//!       [--workers N] [--queue N] [--hold-ms N] [--rows-per-chunk N]
//!       [--deadline-ms N]
//! ```
//!
//! Endpoints: `GET /query?q=<xpath>` (chunked streaming answer ids),
//! `GET /stats`, `GET /healthz`, `POST /shutdown`. See the README's
//! "Serving" section.
//!
//! Every query runs under a cooperative execution deadline,
//! [`DEFAULT_DEADLINE_MS`] unless `--deadline-ms` sets another, so no
//! request holds a worker indefinitely.

use std::process::ExitCode;
use std::time::Duration;

use x2s_core::Engine;
use x2s_dtd::{samples, Dtd};
use x2s_serve::server::{ServeConfig, Server};
use x2s_xml::{Generator, GeneratorConfig};

/// The per-query execution deadline when `--deadline-ms` is not given: far
/// above any benchmark read (the slowest takes about 60 ms), far below
/// "a worker is gone".
const DEFAULT_DEADLINE_MS: u64 = 10_000;

struct Args {
    addr: String,
    dtd: String,
    xml: Option<String>,
    elements: usize,
    seed: u64,
    workers: usize,
    queue: usize,
    hold_ms: Option<u64>,
    rows_per_chunk: usize,
    deadline_ms: u64,
}

fn fail(msg: &str) -> ! {
    eprintln!("serve: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_string(),
        dtd: "dept_simplified".to_string(),
        xml: None,
        elements: 20_000,
        seed: 0xF005_BA11,
        workers: 4,
        queue: 64,
        hold_ms: None,
        rows_per_chunk: 4096,
        deadline_ms: DEFAULT_DEADLINE_MS,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| match it.next() {
            Some(v) => v,
            None => fail(&format!("{name} requires a value")),
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr"),
            "--dtd" => args.dtd = value("--dtd"),
            "--xml" => args.xml = Some(value("--xml")),
            "--elements" => args.elements = parse_num(&value("--elements"), "--elements"),
            "--seed" => args.seed = parse_num(&value("--seed"), "--seed"),
            "--workers" => args.workers = parse_num(&value("--workers"), "--workers"),
            "--queue" => args.queue = parse_num(&value("--queue"), "--queue"),
            "--hold-ms" => args.hold_ms = Some(parse_num(&value("--hold-ms"), "--hold-ms")),
            "--rows-per-chunk" => {
                args.rows_per_chunk = parse_num(&value("--rows-per-chunk"), "--rows-per-chunk")
            }
            "--deadline-ms" => {
                args.deadline_ms = parse_num(&value("--deadline-ms"), "--deadline-ms")
            }
            "--help" | "-h" => {
                println!(
                    "usage: serve [--addr HOST:PORT] [--dtd NAME] [--xml FILE] \
                     [--elements N] [--seed N] [--workers N] [--queue N] \
                     [--hold-ms N] [--rows-per-chunk N] [--deadline-ms N]\n\
                     --deadline-ms defaults to {DEFAULT_DEADLINE_MS}\n\
                     DTDs: dept, dept_simplified, cross, gedml, bioml"
                );
                std::process::exit(0);
            }
            other => fail(&format!("unknown flag {other} (try --help)")),
        }
    }
    args
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    match s.parse() {
        Ok(v) => v,
        Err(_) => fail(&format!("{flag}: invalid number {s:?}")),
    }
}

fn sample_dtd(name: &str) -> Dtd {
    match name {
        "dept" => samples::dept(),
        "dept_simplified" => samples::dept_simplified(),
        "cross" => samples::cross(),
        "bioml" => samples::bioml(),
        "gedml" => samples::gedml(),
        other => fail(&format!(
            "unknown DTD {other:?} (dept, dept_simplified, cross, gedml, bioml)"
        )),
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let dtd = sample_dtd(&args.dtd);
    let mut engine = Engine::new(&dtd);

    match &args.xml {
        Some(path) => {
            let xml = match std::fs::read_to_string(path) {
                Ok(x) => x,
                Err(e) => fail(&format!("cannot read {path}: {e}")),
            };
            if let Err(e) = engine.load_xml(&xml) {
                fail(&format!("cannot load {path}: {e}"));
            }
        }
        None => {
            // Starred roots can produce near-empty documents for an unlucky
            // seed; retry a few so the served document is non-trivial.
            let generate = |seed: u64| {
                let cfg = GeneratorConfig::shaped(8, 3, Some(args.elements)).with_seed(seed);
                Generator::new(&dtd, cfg).generate()
            };
            let tree = (0..16)
                .map(|s| generate(args.seed + s))
                .find(|t| t.len() >= args.elements / 4)
                .unwrap_or_else(|| generate(args.seed));
            engine.load(&tree);
        }
    }

    let config = ServeConfig {
        workers: args.workers,
        queue_capacity: args.queue,
        rows_per_chunk: args.rows_per_chunk,
        flight_hold: args.hold_ms.map(Duration::from_millis),
        query_deadline: Some(Duration::from_millis(args.deadline_ms)),
        ..ServeConfig::default()
    };
    let server = match Server::bind(&args.addr, config) {
        Ok(s) => s,
        Err(e) => fail(&format!("cannot bind {}: {e}", args.addr)),
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => fail(&format!("cannot resolve bound address: {e}")),
    };
    println!(
        "serving DTD {:?} ({} elements) on http://{addr}",
        args.dtd,
        engine.doc_len()
    );
    println!("endpoints: /query?q=<xpath>  /stats  /healthz  /shutdown");

    if let Err(e) = server.run(&engine) {
        fail(&format!("server error: {e}"));
    }
    println!("shut down cleanly; final stats: {}", engine.stats());
    ExitCode::SUCCESS
}
