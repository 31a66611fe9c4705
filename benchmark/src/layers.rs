//! The traced run: every call the benchmark makes into a product layer
//! *below* the front doors lives in this one file, which only `x2s-trace`
//! compiles (`#[path]` module of that binary, not of the library). A change
//! to a layer's API can therefore break the traced run and nothing else —
//! `x2s-bench` and the end-to-end numbers never see these symbols.
//!
//! Each workload's operation list is replayed by calling the layers' public
//! functions in the engine's order, a span per call. Beside the replayed
//! rounds, the same rounds run through the front doors (the library's own
//! `Workload` objects, on a second set of engines in the same process): the
//! ratio of the two is the trace's coverage.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use x2s_benchmark::descriptor::describe;
use x2s_benchmark::inputs::{generate, Doc, Inputs, WorkloadId, WriteSchedule, WRITE_BATCH};
use x2s_benchmark::json::{obj, Json};
use x2s_benchmark::metrics::{metrics_json, result_line};
use x2s_benchmark::stats::{median, percentile, sorted, Better};
use x2s_benchmark::trace::Recorder;
use x2s_benchmark::weather::Weather;
use x2s_benchmark::workloads::{build, load_engines, parse_dtds};

use x2s_core::x2e::RecMode;
use x2s_core::{exp_to_sql_with_report, xpath_to_exp, Engine, RecTable, SqlOptions, TransGraph};
use x2s_dtd::parse_dtd;
use x2s_rel::{
    analyze_program_with, edge_scan_schema, optimize, render_program, Database, IntervalJoinSpec,
    OptLevel, Plan, Program, Relation, Stats, Value,
};
use x2s_serve::{read_request, stream_answers, QueryService, ServeConfig, Server};
use x2s_shred::edge::{edge_database, interval_labels};
use x2s_xml::{parse_xml, validate, NodeId};
use x2s_xpath::{parse_xpath, Sat};

/// What to trace.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// The workload.
    pub workload: WorkloadId,
    /// Input seed.
    pub seed: u64,
    /// Length of the replay phase; whole blocks are run until it is used up.
    pub seconds: f64,
    /// Smoke size.
    pub quick: bool,
}

/// The per-layer metrics, in report order: name, unit, which way is better.
/// A time is the median, over the requests the layer ran in, of its self
/// time per request; a count is the mean per request the layer ran in; a
/// ratio is over all replayed requests. A metric that does not apply to a
/// workload reads 0 there.
pub const PER_LAYER: [(&str, &str, Better); 53] = {
    use Better::{Higher, Lower};
    [
        // set-up: should move setup_s and setup_alloc_mb on all four
        ("dtd.parser.parse_us", "us", Lower),
        ("core.engine.new_us", "us", Lower),
        ("xml.parser.parse_ms", "ms", Lower),
        ("xml.validate.validate_ms", "ms", Lower),
        ("shred.edge.shred_ms", "ms", Lower),
        ("shred.edge.labels_ms", "ms", Lower),
        ("rel.exec.build_indexes_ms", "ms", Lower),
        // the write path: write_ms_p50 and throughput_qps on write_then_scan
        ("rel.relation.append_us", "us", Lower),
        ("rel.exec.insert_us", "us", Lower),
        ("rel.exec.db_clone_ms", "ms", Lower),
        ("rel.exec.reindex_ms", "ms", Lower),
        // the front of every request: 1–2 % of latency_p50_ms on point_warm
        ("xpath.parser.parse_us", "us", Lower),
        ("xpath.canon.normalize_us", "us", Lower),
        ("xpath.sat.check_us", "us", Lower),
        ("xpath.sat.pruned_ratio", "ratio", Higher),
        ("core.engine.prepare_hit_us", "us", Lower),
        ("core.engine.cache_hit_ratio", "ratio", Higher),
        ("serve.service.overhead_us", "us", Lower),
        // cold translation: everything on translate_cold
        ("core.engine.prepare_miss_us", "us", Lower),
        ("core.x2e.translate_us", "us", Lower),
        ("core.cycleex.rectable_us", "us", Lower),
        ("exp.query.prune_us", "us", Lower),
        ("core.e2sql.compile_us", "us", Lower),
        ("rel.opt.optimize_us", "us", Lower),
        ("rel.opt.ops_before", "count", Lower),
        ("rel.opt.ops_after", "count", Lower),
        ("rel.analyze.check_us", "us", Lower),
        ("core.pipeline.interval_variant_us", "us", Lower),
        ("rel.sql.render_us", "us", Lower),
        ("rel.sql.bytes", "B", Lower),
        // non-recursive execution: latency on point_warm
        ("rel.exec.joins_us", "us", Lower),
        ("rel.exec.stmts_evaluated", "count", Lower),
        ("rel.exec.join_index_reuses", "count", Higher),
        // the interval path: latency, throughput, alloc_kb_per_op on scan_interval
        ("rel.interval.exec_ms", "ms", Lower),
        ("rel.interval.rows_scanned", "count", Lower),
        ("rel.interval.used_ratio", "ratio", Higher),
        ("rel.exec.tuples_emitted", "count", Lower),
        ("rel.exec.rows_per_answer", "ratio", Lower),
        ("core.pipeline.answer_build_us", "us", Lower),
        ("core.pipeline.answers", "count", Lower),
        // the fixpoint path: latency, tuples_per_op, peak_rss_mb on write_then_scan
        ("rel.lfp.exec_ms", "ms", Lower),
        ("rel.lfp.iterations", "count", Lower),
        ("rel.lfp.peak_closure", "count", Lower),
        // serving steps around the engine: informational, no end-to-end
        // metric rides on a socket yet
        ("serve.protocol.parse_us", "us", Lower),
        ("serve.stream.encode_us", "us", Lower),
        ("serve.stream.chunks", "count", Lower),
        ("serve.stream.bytes", "B", Lower),
        ("serve.http.rtt_us_p50", "us", Lower),
        ("serve.http.transport_us", "us", Lower),
        // the trace about itself, and the machine
        ("trace.coverage_ratio", "ratio", Higher),
        ("trace.overhead_ratio", "ratio", Lower),
        ("weather.cpu_ms", "ms", Lower),
        ("weather.mem_ms", "ms", Lower),
    ]
};

/// Coverage must land here on every workload: the layers, called one by one,
/// account for what the front door takes.
pub const COVERAGE_RANGE: std::ops::RangeInclusive<f64> = 0.85..=1.15;

/// Answer rows per chunk, as `ServeConfig::default()` streams them.
const ROWS_PER_CHUNK: usize = 4096;
/// Requests the loopback probe sends, one connection at a time.
const PROBE_REQUESTS: usize = 40;
/// Fresh layered set-ups timed (after one discarded).
const SETUP_REPEATS: usize = 3;
/// Passes of the layer probe (after one discarded).
const PROBE_REPEATS: usize = 5;
/// Spans written to the trace file (all are kept in memory and counted).
const SPANS_IN_FILE: usize = 20_000;

/// Counts taken at the span boundaries, summed over the replay.
#[derive(Default, Debug)]
struct Counts {
    requests: u64,
    pruned: u64,
    failed: u64,
    joins_runs: u64,
    stmts_evaluated: u64,
    join_index_reuses: u64,
    interval_capable: u64,
    interval_runs: u64,
    interval_rows_scanned: u64,
    executions: u64,
    tuples_emitted: u64,
    answers: u64,
    lfp_runs: u64,
    lfp_iterations: u64,
    lfp_peak_closure: u64,
    translations: u64,
    ops_before: u64,
    ops_after: u64,
    sql_bytes: u64,
    streams: u64,
    stream_chunks: u64,
    stream_bytes: u64,
}

/// One per-layer metric from one recorder's layer medians and the counts
/// taken beside them; `None` when the layer never ran there.
fn layer_value(name: &str, medians_ns: &BTreeMap<&'static str, f64>, c: &Counts) -> Option<f64> {
    let per = |total: u64, runs: u64| (runs > 0).then(|| total as f64 / runs as f64);
    match name {
        "xpath.sat.pruned_ratio" => per(c.pruned, c.requests),
        "rel.opt.ops_before" => per(c.ops_before, c.translations),
        "rel.opt.ops_after" => per(c.ops_after, c.translations),
        "rel.sql.bytes" => per(c.sql_bytes, c.translations),
        "rel.exec.stmts_evaluated" => per(c.stmts_evaluated, c.joins_runs),
        "rel.exec.join_index_reuses" => per(c.join_index_reuses, c.joins_runs),
        "rel.interval.rows_scanned" => per(c.interval_rows_scanned, c.interval_runs),
        "rel.interval.used_ratio" => per(c.interval_runs, c.interval_capable),
        "rel.exec.tuples_emitted" => per(c.tuples_emitted, c.executions),
        "rel.exec.rows_per_answer" => per(c.tuples_emitted, c.answers),
        "core.pipeline.answers" => per(c.answers, c.executions),
        "rel.lfp.iterations" => per(c.lfp_iterations, c.lfp_runs),
        "rel.lfp.peak_closure" => (c.lfp_runs > 0).then_some(c.lfp_peak_closure as f64),
        "serve.stream.chunks" => per(c.stream_chunks, c.streams),
        "serve.stream.bytes" => per(c.stream_bytes, c.streams),
        timed => {
            let per_unit = if timed.ends_with("_ms") { 1e6 } else { 1e3 };
            medians_ns.get(timed).map(|ns| ns / per_unit)
        }
    }
}

/// One set-up, layer by layer: what `parse_dtd` + `Engine::new` +
/// `Engine::load_xml` do, as separate calls. `shred.edge.labels` and
/// `rel.exec.build_indexes` run again in isolation beside the chain (inside
/// `edge_database` they cannot be told apart).
fn replay_setup(rec: &mut Recorder, inputs: &Inputs) {
    rec.begin_request();
    for doc in &inputs.docs {
        let dtd = rec
            .chain("dtd.parser.parse_us", |_| parse_dtd(&doc.dtd_text))
            .expect("generated DTD text parses");
        let mut engine = rec.chain("core.engine.new_us", |_| Engine::new(&dtd));
        let tree = rec
            .chain("xml.parser.parse_ms", |_| parse_xml(&dtd, &doc.xml))
            .expect("generated XML parses");
        rec.chain("xml.validate.validate_ms", |_| validate(&tree, &dtd))
            .expect("generated XML is valid");
        let db = rec.chain("shred.edge.shred_ms", |_| edge_database(&tree, &dtd));
        rec.aside("shred.edge.labels_ms", |_| interval_labels(&tree));
        // a clone whose every index was invalidated by re-inserting its
        // relations: `build_indexes` then does the whole job again
        let mut bare = db.clone();
        let names: Vec<String> = bare.names().iter().map(|n| n.to_string()).collect();
        for name in &names {
            let rel = bare.get(name).expect("listed relation").clone();
            bare.insert(name, rel);
        }
        rec.aside("rel.exec.build_indexes_ms", |_| bare.build_indexes());
        engine.load_database(db);
    }
}

/// Replay one read the way the front door runs it: `QueryService::query`
/// (parse → normalize → sat → `prepare_path` → execute) when
/// `through_service`, `Engine::query` (parse → `prepare_path` → execute)
/// otherwise — in which case normalize and sat, which `prepare_path` does
/// inside itself, are timed again beside the chain.
fn replay_read(
    rec: &mut Recorder,
    engine: &Engine<'_>,
    query: &str,
    through_service: bool,
    counts: &mut Counts,
) -> BTreeSet<u32> {
    rec.begin_request();
    counts.requests += 1;
    let path = rec
        .chain("xpath.parser.parse_us", |_| parse_xpath(query))
        .expect("benchmark queries parse");
    let prepared = if through_service {
        let canon = rec.chain("xpath.canon.normalize_us", |_| engine.normalize_path(&path));
        let sat = rec.chain("xpath.sat.check_us", |_| engine.check_sat(&canon));
        if matches!(sat, Sat::Empty { .. }) {
            counts.pruned += 1;
            return BTreeSet::new();
        }
        rec.chain("core.engine.prepare_hit_us", |_| {
            engine.prepare_path(&canon)
        })
    } else {
        let canon = rec.aside("xpath.canon.normalize_us", |_| engine.normalize_path(&path));
        rec.aside("xpath.sat.check_us", |_| engine.check_sat(&canon));
        rec.chain("core.engine.prepare_hit_us", |_| engine.prepare_path(&path))
    }
    .expect("benchmark queries prepare");
    let Some(translation) = prepared.translation() else {
        counts.pruned += 1;
        return BTreeSet::new();
    };

    // what `Translation::try_run` does: pick the physical program, execute
    // it, build the answer set
    let db = engine.database().expect("set-up loaded a document");
    let opts = engine.exec_options();
    let mut stats = Stats::default();
    counts.interval_capable += u64::from(translation.interval.is_some());
    let (layer, program): (&'static str, &Program) = match &translation.interval {
        Some(variant) if opts.interval && db.has_intervals() => {
            counts.interval_runs += 1;
            ("rel.interval.exec_ms", &variant.program)
        }
        _ if translation.program.op_counts().lfp > 0 => {
            counts.lfp_runs += 1;
            ("rel.lfp.exec_ms", &translation.program)
        }
        _ => {
            counts.joins_runs += 1;
            ("rel.exec.joins_us", &translation.program)
        }
    };
    let rows = rec
        .chain(layer, |_| program.execute(db, opts, &mut stats))
        .expect("benchmark queries execute");
    let answers: BTreeSet<u32> = rec.chain("core.pipeline.answer_build_us", |_| {
        rows.rows().filter_map(|t| t[0].as_id()).collect()
    });

    counts.executions += 1;
    counts.tuples_emitted += stats.tuples_emitted;
    counts.answers += answers.len() as u64;
    match layer {
        "rel.exec.joins_us" => {
            counts.stmts_evaluated += stats.stmts_evaluated as u64;
            counts.join_index_reuses += stats.join_index_reuses as u64;
        }
        "rel.interval.exec_ms" => counts.interval_rows_scanned += stats.interval_rows_scanned,
        _ => {
            counts.lfp_iterations += stats.lfp_iterations as u64;
            counts.lfp_peak_closure = counts.lfp_peak_closure.max(stats.lfp_peak_closure as u64);
        }
    }
    answers
}

/// The serving steps on either side of the engine, in isolation: parsing
/// the request an HTTP client would send, and chunk-encoding the answer.
fn serving_asides(rec: &mut Recorder, query: &str, answers: &BTreeSet<u32>, counts: &mut Counts) {
    let wire = http_request(query);
    rec.aside("serve.protocol.parse_us", |_| {
        read_request(&mut BufReader::new(wire.as_bytes()))
    })
    .expect("own request parses");
    let mut sink = Vec::new();
    let chunks = rec
        .aside("serve.stream.encode_us", |_| {
            stream_answers(&mut sink, answers, ROWS_PER_CHUNK)
        })
        .expect("writing to memory");
    counts.streams += 1;
    counts.stream_chunks += chunks as u64;
    counts.stream_bytes += sink.len() as u64;
}

fn http_request(query: &str) -> String {
    let encoded: String = query
        .bytes()
        .map(|b| match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' => (b as char).to_string(),
            other => format!("%{other:02X}"),
        })
        .collect();
    format!("GET /query?q={encoded} HTTP/1.1\r\nHost: localhost\r\n\r\n")
}

/// Replay one cold translation to SQL: what `Engine::sql` does on a cleared
/// plan cache, layer by layer. The coarse call itself (`Engine::prepare`
/// after `clear_plan_cache`) and the all-pairs CycleEX table (built inside
/// `xpath_to_exp`) are timed beside the chain.
fn replay_translate(
    rec: &mut Recorder,
    engine: &Engine<'_>,
    query: &str,
    counts: &mut Counts,
) -> (String, Option<Program>) {
    let dtd = engine.dtd();
    rec.begin_request();
    counts.requests += 1;
    counts.translations += 1;
    let path = rec
        .chain("xpath.parser.parse_us", |_| parse_xpath(query))
        .expect("benchmark queries parse");
    let canon = rec.chain("xpath.canon.normalize_us", |_| engine.normalize_path(&path));
    let sat = rec.chain("xpath.sat.check_us", |_| engine.check_sat(&canon));
    assert!(
        matches!(sat, Sat::NonEmpty { .. }),
        "translate_cold queries are never sat-pruned: {query}"
    );
    let x2e = rec
        .chain("core.x2e.translate_us", |_| {
            xpath_to_exp(&canon, dtd, &RecMode::CycleEx)
        })
        .expect("benchmark queries translate");
    let (extended, var_map) = rec.chain("exp.query.prune_us", |_| x2e.query.pruned_with_map());
    let unoptimized = SqlOptions {
        optimize: OptLevel::None,
        ..SqlOptions::default()
    };
    let (raw, _) = rec
        .chain("core.e2sql.compile_us", |_| {
            exp_to_sql_with_report(&extended, &unoptimized, &HashMap::new())
        })
        .expect("benchmark queries compile");
    let (program, report) = rec.chain("rel.opt.optimize_us", |_| optimize(&raw, OptLevel::Full));
    counts.ops_before += report.before.total() as u64;
    counts.ops_after += report.after.total() as u64;
    // verified twice on the engine's path: leaving the translator, and
    // entering the plan cache
    for _ in 0..2 {
        rec.chain("rel.analyze.check_us", |_| {
            analyze_program_with(&program, &edge_scan_schema)
        })
        .expect("optimized program is well-formed");
    }
    // the second compile: every whole-rec(A, B) variable that survived
    // pruning overridden by a pre/post range join, as `Translator` builds it
    let overrides: HashMap<x2s_exp::VarId, Plan> = x2e
        .rec_hints
        .iter()
        .filter_map(|hint| {
            let spec = IntervalJoinSpec {
                left: Box::new(Plan::Scan(format!("R_{}", hint.from))),
                left_col: 1,
                right: format!("R_{}", hint.to),
            };
            Some((*var_map.get(&hint.var)?, Plan::IntervalJoin(spec)))
        })
        .collect();
    let variant = (!overrides.is_empty()).then(|| {
        rec.chain("core.pipeline.interval_variant_us", |_| {
            exp_to_sql_with_report(&extended, &SqlOptions::default(), &overrides)
        })
        .expect("interval variant compiles")
        .0
    });
    let sql = rec.chain("rel.sql.render_us", |_| {
        render_program(&program, engine.dialect())
    });
    counts.sql_bytes += sql.len() as u64;

    rec.aside("core.engine.prepare_miss_us", |_| {
        engine.clear_plan_cache();
        engine.prepare(query).map(|_| ())
    })
    .expect("benchmark queries prepare");
    rec.aside("core.cycleex.rectable_us", |_| {
        RecTable::standalone(&TransGraph::new(dtd))
    });
    (sql, variant)
}

/// The replay's mutable side of `write_then_scan`: its own engine, store
/// and schedule, stepping in lockstep with the front-door workload.
struct WriteReplay<'e, 'd> {
    engine: &'e mut Engine<'d>,
    base_db: Database,
    db: Database,
    schedule: WriteSchedule,
    base_len: usize,
    round: usize,
}

impl<'e, 'd> WriteReplay<'e, 'd> {
    fn new(doc: &Doc, seed: u64, engine: &'e mut Engine<'d>) -> Self {
        let db = engine.database().expect("set-up loaded a document").clone();
        let mut replay = WriteReplay {
            engine,
            base_db: Database::new(),
            db,
            schedule: WriteSchedule::new(doc, seed),
            base_len: doc.tree.len() + WRITE_BATCH,
            round: 0,
        };
        // the label-dropping first write, as the front-door workload makes it
        let parents = replay.schedule.next_parents();
        replay.write(&mut Recorder::new(), &parents, doc.tree.len());
        replay.base_db = replay.db.clone();
        replay
    }

    fn begin_block(&mut self) {
        self.db = self.base_db.clone();
        self.engine.load_database(self.db.clone());
        self.schedule.restart();
        self.schedule.next_parents();
        self.round = 0;
    }

    fn next_write(&mut self, rec: &mut Recorder) {
        let parents = self.schedule.next_parents();
        let first_id = self.base_len + self.round * WRITE_BATCH;
        rec.begin_request();
        self.write(rec, &parents, first_id);
        self.round += 1;
    }

    /// One write, layer by layer, in the front door's order.
    fn write(&mut self, rec: &mut Recorder, parents: &[NodeId; WRITE_BATCH], first_id: usize) {
        let grown: Vec<(&str, Relation)> = rec.chain("rel.relation.append_us", |_| {
            ["R_project", "R__nodes"]
                .into_iter()
                .map(|name| {
                    let mut rel = self.db.get(name).expect("edge relation").clone();
                    for (k, parent) in parents.iter().enumerate() {
                        rel.push_row(&[
                            Value::Id(parent.0),
                            Value::Id((first_id + k) as u32),
                            Value::Null,
                        ]);
                    }
                    (name, rel)
                })
                .collect()
        });
        rec.chain("rel.exec.insert_us", |_| {
            for (name, rel) in grown {
                self.db.insert(name, rel);
            }
        });
        let copy = rec.chain("rel.exec.db_clone_ms", |_| self.db.clone());
        rec.chain("rel.exec.reindex_ms", |_| {
            self.engine.load_database(copy);
        });
    }
}

/// Request/response over a real loopback socket: `Server::bind` on an
/// ephemeral port, two workers, one connection at a time, each round trip
/// beside the same query through `QueryService::query` in this process.
/// Returns `(round trip, in-process)` microseconds per request; empty if the
/// sandbox refuses the socket.
fn loopback_probe(engine: &Engine<'_>, queries: &[&str]) -> Vec<(f64, f64)> {
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let Ok(server) = Server::bind("127.0.0.1:0", config) else {
        return Vec::new();
    };
    let (Ok(addr), Ok(stop)) = (server.local_addr(), server.shutdown_handle()) else {
        return Vec::new();
    };
    let in_process = QueryService::new(engine);
    let mut samples = Vec::new();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(engine));
        for i in 0..PROBE_REQUESTS + queries.len() {
            let query = queries[i % queries.len()];
            let start = Instant::now();
            let exchange = TcpStream::connect(addr).and_then(|mut conn| {
                conn.set_read_timeout(Some(Duration::from_secs(20)))?;
                conn.write_all(http_request(query).as_bytes())?;
                let mut reply = Vec::new();
                conn.read_to_end(&mut reply)?;
                Ok(reply)
            });
            let round_trip = start.elapsed().as_secs_f64() * 1e6;
            let start = Instant::now();
            let direct = in_process.query(query);
            let direct_us = start.elapsed().as_secs_f64() * 1e6;
            match exchange {
                // the first pass over the queries warms the connection path
                Ok(reply)
                    if reply.starts_with(b"HTTP/1.1 200")
                        && direct.is_ok()
                        && i >= queries.len() =>
                {
                    samples.push((round_trip, direct_us));
                }
                Ok(_) => {}
                Err(_) => break,
            }
        }
        stop.trigger();
        // joined by the scope; a server error only loses the probe
        let _ = serving.join();
    });
    samples
}

/// What [`layer_probe`] recorded.
struct Probe {
    rec: Recorder,
    counts: Counts,
    /// `QueryService::query` latency of the point lookup, microseconds.
    service_us: Vec<f64>,
    /// Chain total of the same lookup replayed.
    service_chain_us: Vec<f64>,
}

/// A layer that a workload's own operations never reach is still timed, on a
/// fixed probe over the workload's first document (always a `dept` one): a
/// point lookup through the service (`rel.exec.joins`), a `//` scan on intact
/// labels (`rel.interval`), a write and the same scan on the written store
/// (the write path, `rel.lfp`), and one cold translation. Every layer then
/// reports on every workload, on that workload's document size; the probe's
/// numbers are used only for layers the replay itself left empty.
fn layer_probe(inputs: &Inputs) -> Probe {
    const POINT: &str = "dept/course";
    const SCAN: &str = "dept//project";
    let doc = &inputs.docs[0];
    let dtd = parse_dtd(&doc.dtd_text).expect("generated DTD text parses");
    let load = || {
        let mut engine = Engine::new(&dtd);
        engine.load_xml(&doc.xml).expect("generated XML loads");
        engine
    };
    let (intact, mut written, translator) = (load(), load(), Engine::new(&dtd));
    let service = QueryService::new(&intact);
    let mut writer = WriteReplay::new(doc, inputs.seed, &mut written);
    let mut probe = Probe {
        rec: Recorder::new(),
        counts: Counts::default(),
        service_us: Vec::new(),
        service_chain_us: Vec::new(),
    };
    // the first pass warms plan caches and lazy indexes, and is discarded
    for pass in 0..=PROBE_REPEATS {
        if pass == 1 {
            probe.rec = Recorder::new();
            probe.counts = Counts::default();
            probe.service_us.clear();
            probe.service_chain_us.clear();
        }
        let (rec, counts) = (&mut probe.rec, &mut probe.counts);
        // once untimed: the scan and translation of the previous pass left
        // the caches cold for the front door and warm for its replay
        let _ = service.query(POINT);
        let start = Instant::now();
        let direct = service.query(POINT);
        probe.service_us.push(start.elapsed().as_secs_f64() * 1e6);
        let mark = rec.mark();
        let answers = replay_read(rec, &intact, POINT, true, counts);
        probe
            .service_chain_us
            .push(rec.chain_totals_ns(mark)[0] as f64 / 1e3);
        if direct.map(|o| (*o.answers).clone()).as_ref() != Ok(&answers) {
            mismatch(
                counts,
                "probe lookup differs from QueryService::query",
                POINT,
            );
        }
        serving_asides(rec, POINT, &answers, counts);
        let scanned = replay_read(rec, &intact, SCAN, false, counts);
        serving_asides(rec, SCAN, &scanned, counts);
        writer.next_write(rec);
        let rescanned = replay_read(rec, writer.engine, SCAN, false, counts);
        // every write so far added WRITE_BATCH projects
        if rescanned.len() != scanned.len() + (pass + 2) * WRITE_BATCH {
            mismatch(counts, "probe scan after a write", SCAN);
        }
        replay_translate(rec, &translator, SCAN, counts);
    }
    probe
}

/// The replayed side of a traced run: its own engines, recorder and counts.
struct Replay<'a, 'd> {
    inputs: &'a Inputs,
    /// One engine per document — empty on `write_then_scan`, whose single
    /// engine the writer holds mutably.
    readers: &'a [Engine<'d>],
    writer: Option<WriteReplay<'a, 'd>>,
    rec: Recorder,
    counts: Counts,
    /// Per operation slot of a round: what the chain added up to, in
    /// microseconds, a sample per replayed round.
    chain_us: Vec<Vec<f64>>,
}

impl<'a, 'd> Replay<'a, 'd> {
    fn new(inputs: &'a Inputs, engines: &'a mut [Engine<'d>]) -> Self {
        let (readers, writer): (&[Engine<'d>], _) = match inputs.workload {
            WorkloadId::WriteThenScan => (
                &[],
                Some(WriteReplay::new(
                    &inputs.docs[0],
                    inputs.seed,
                    &mut engines[0],
                )),
            ),
            _ => (engines, None),
        };
        let slots = inputs.queries.len() + usize::from(writer.is_some());
        Replay {
            inputs,
            readers,
            writer,
            rec: Recorder::new(),
            counts: Counts::default(),
            chain_us: vec![Vec::new(); slots],
        }
    }

    /// The engine an operation on document `d` runs against.
    fn engine(&self, d: usize) -> &Engine<'d> {
        match &self.writer {
            Some(w) => &*w.engine,
            None => &self.readers[d],
        }
    }

    /// Plan-cache `(hits, misses)` so far, summed over the engines.
    fn cache_counters(&self) -> (u64, u64) {
        let engines = (0..self.inputs.docs.len()).map(|d| self.engine(d).stats());
        engines.fold((0, 0), |(hits, misses), s| {
            (
                hits + s.plan_cache_hits as u64,
                misses + s.plan_cache_misses as u64,
            )
        })
    }

    fn begin_block(&mut self) {
        if let Some(w) = self.writer.as_mut() {
            w.begin_block();
        }
    }

    /// Forget everything recorded so far (after the verification pass).
    fn discard(&mut self) {
        self.rec = Recorder::new();
        self.counts = Counts::default();
        self.chain_us.iter_mut().for_each(Vec::clear);
    }

    /// One replayed round. `check` also compares every replayed result with
    /// the replay engine's own front door — an extra call per operation, so
    /// only the verification pass asks for it.
    fn round(&mut self, check: bool) {
        let mark = self.rec.mark();
        if let Some(w) = self.writer.as_mut() {
            w.next_write(&mut self.rec);
            self.counts.requests += 1;
        }
        let through_service = self.inputs.workload == WorkloadId::PointWarm;
        for &(d, q) in &self.inputs.queries {
            let engine = match &self.writer {
                Some(w) => &*w.engine,
                None => &self.readers[d],
            };
            let (rec, counts) = (&mut self.rec, &mut self.counts);
            if self.inputs.workload == WorkloadId::TranslateCold {
                let (sql, variant) = replay_translate(rec, engine, q, counts);
                if check {
                    engine.clear_plan_cache();
                    if engine.sql(q).as_ref() != Ok(&sql) {
                        mismatch(counts, "replayed SQL differs from Engine::sql", q);
                    }
                    let prepared = engine.prepare(q).expect("benchmark queries prepare");
                    let theirs = prepared.translation().and_then(|t| t.interval.as_ref());
                    if theirs.map(|v| v.program.op_counts()) != variant.map(|p| p.op_counts()) {
                        mismatch(counts, "replayed interval variant differs", q);
                    }
                }
            } else {
                let answers = replay_read(rec, engine, q, through_service, counts);
                serving_asides(rec, q, &answers, counts);
                if check && engine.query(q).as_ref() != Ok(&answers) {
                    mismatch(counts, "replayed answer differs from Engine::query", q);
                }
            }
        }
        for (slot, total) in self.chain_us.iter_mut().zip(self.rec.chain_totals_ns(mark)) {
            slot.push(total as f64 / 1e3);
        }
    }
}

/// A finished traced run.
pub struct TraceReport {
    /// Every per-layer metric, in `PER_LAYER` order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Replayed requests plus front-door operations.
    pub attempted: u64,
    /// Replays that disagreed with the engine, and front-door failures.
    pub failed: u64,
    /// The trace file: descriptor, metrics, spans.
    pub file: Json,
}

impl TraceReport {
    /// The value of one metric.
    pub fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |&(_, v)| v)
    }

    /// Replay and engine agreed everywhere, and the layers account for the
    /// front door.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && COVERAGE_RANGE.contains(&self.metric("trace.coverage_ratio"))
    }

    /// The one-line result a driver reads.
    pub fn result_line(&self) -> String {
        result_line(
            self.correct(),
            self.attempted,
            self.failed,
            with_units(&self.metrics),
        )
    }
}

/// Per-layer values (in `PER_LAYER` order) with their units, as every output
/// carries them.
fn with_units(metrics: &[(&'static str, f64)]) -> Json {
    let units = PER_LAYER.iter().map(|&(_, unit, _)| unit);
    metrics_json(
        metrics
            .iter()
            .zip(units)
            .map(|(&(name, value), unit)| (name, value, unit)),
    )
}

fn mismatch(counts: &mut Counts, what: &str, query: &str) {
    eprintln!("MISMATCH {what}: {query}");
    counts.failed += 1;
}

/// Trace `cfg.workload` on inputs generated from `cfg.seed`.
pub fn trace(cfg: TraceConfig) -> TraceReport {
    let phase = Instant::now();
    let inputs = generate(cfg.workload, cfg.seed);
    trace_inputs(cfg, &inputs, phase.elapsed().as_secs_f64())
}

/// Trace `cfg.workload` on `inputs`, which took `generate_s` to make.
fn trace_inputs(cfg: TraceConfig, inputs: &Inputs, generate_s: f64) -> TraceReport {
    let mut weather = Weather::new();

    // set-up, layer by layer (its own recorder: a "request" here is one
    // complete set-up)
    let phase = Instant::now();
    let mut setup_rec = Recorder::new();
    replay_setup(&mut Recorder::new(), inputs);
    for _ in 0..SETUP_REPEATS {
        replay_setup(&mut setup_rec, inputs);
    }
    // two sets of engines: the front-door workload owns one, the replay
    // the other
    let dtds = parse_dtds(inputs);
    let mut front_engines = load_engines(&dtds, inputs);
    let mut replay_engines = load_engines(&dtds, inputs);
    let setup_s = phase.elapsed().as_secs_f64();

    let rounds = cfg.workload.rounds_per_block(cfg.quick).div_ceil(2);
    let mut front = build(inputs, &mut front_engines);
    front.prepare(rounds);
    let mut replay = Replay::new(inputs, &mut replay_engines);

    // verification pass and warm-up, then discard what they recorded
    let phase = Instant::now();
    front.begin_block();
    replay.begin_block();
    let (oracle_checked, oracle_failed) = front.verify();
    replay.round(true);
    let mut front_failed = 0u64;
    for i in 0..front.ops_per_round() {
        front_failed += u64::from(!front.op(i).ok);
    }
    let verify_failed = replay.counts.failed + front_failed + oracle_failed;
    let verify_requests = replay.counts.requests + oracle_checked;
    replay.discard();
    let verify_s = phase.elapsed().as_secs_f64();

    // Per operation slot: what the front door took, a sample per round.
    let mut front_door_us = vec![Vec::new(); front.ops_per_round()];
    let mut front_round_us = Vec::new();
    let mut replay_round_us = Vec::new();
    let mut front_ops = 0u64;
    let mut front_failed = 0u64;
    let mut weather_cpu = Vec::new();
    let mut weather_mem = Vec::new();
    let cache_before = replay.cache_counters();
    let phase = Instant::now();
    loop {
        weather_cpu.push(weather.cpu_ms());
        weather_mem.push(weather.mem_ms());
        front.begin_block();
        replay.begin_block();
        for _ in 0..rounds {
            let start = Instant::now();
            for (i, slot) in front_door_us.iter_mut().enumerate() {
                let outcome = front.op(i);
                front_ops += 1;
                front_failed += u64::from(!outcome.ok);
                slot.push(outcome.latency.as_secs_f64() * 1e6);
            }
            front_round_us.push(start.elapsed().as_secs_f64() * 1e6);
            let start = Instant::now();
            replay.round(false);
            replay_round_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        let elapsed = phase.elapsed().as_secs_f64();
        let blocks = weather_cpu.len() as f64;
        if elapsed + elapsed / blocks / 2.0 >= cfg.seconds {
            break;
        }
    }
    let replay_s = phase.elapsed().as_secs_f64();
    let (hits, misses) = {
        let (hits, misses) = replay.cache_counters();
        (hits - cache_before.0, misses - cache_before.1)
    };

    // the socket, last: it borrows an engine for its server threads
    let sockets = {
        let first_doc = inputs.queries.iter().filter(|&&(d, _)| d == 0);
        let queries: Vec<&str> = first_doc.map(|&(_, q)| q).collect();
        loopback_probe(replay.engine(0), &queries)
    };
    let through_service = cfg.workload == WorkloadId::PointWarm;
    let Replay {
        rec,
        counts,
        chain_us,
        ..
    } = replay;
    let probe = layer_probe(inputs);

    // ---- reduce ----
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let mut replayed = rec.layer_medians_ns();
    replayed.extend(setup_rec.layer_medians_ns());
    let probed = probe.rec.layer_medians_ns();
    let front_sum: f64 = front_door_us.iter().map(|s| med(s)).sum();
    let chain_sum: f64 = chain_us.iter().map(|s| med(s)).sum();
    // Round r through the front doors and round r replayed ran back to back,
    // under the same weather: their ratio, round by round, is what the
    // machine's slow minutes cannot move.
    let round_sum = |slots: &[Vec<f64>], r: usize| slots.iter().map(|s| s[r]).sum::<f64>();
    let coverage: Vec<f64> = (0..replay_round_us.len())
        .map(|r| round_sum(&chain_us, r) / round_sum(&front_door_us, r))
        .collect();
    let overhead: Vec<f64> = replay_round_us
        .iter()
        .zip(&front_round_us)
        .map(|(replayed, front)| replayed / front)
        .collect();
    let rtts = sorted(&sockets.iter().map(|&(rtt, _)| rtt).collect::<Vec<f64>>());
    let transport: Vec<f64> = sockets.iter().map(|&(rtt, direct)| rtt - direct).collect();

    let metrics: Vec<(&'static str, f64)> = PER_LAYER
        .iter()
        .map(|&(name, _, _)| {
            let value = match name {
                "core.engine.cache_hit_ratio" if hits + misses > 0 => {
                    hits as f64 / (hits + misses) as f64
                }
                // `QueryService::query` minus its parts, per request
                "serve.service.overhead_us" if through_service => {
                    (front_sum - chain_sum) / front_door_us.len() as f64
                }
                "serve.service.overhead_us" => {
                    med(&probe.service_us) - med(&probe.service_chain_us)
                }
                "serve.http.rtt_us_p50" if !rtts.is_empty() => percentile(&rtts, 50),
                "serve.http.rtt_us_p50" => 0.0,
                "serve.http.transport_us" => med(&transport),
                "trace.coverage_ratio" => med(&coverage),
                "trace.overhead_ratio" => med(&overhead),
                "weather.cpu_ms" => med(&weather_cpu),
                "weather.mem_ms" => med(&weather_mem),
                // a ratio describes the workload's own requests; every other
                // layer number the replay left empty comes from the probe
                ratio if ratio.ends_with("_ratio") => {
                    layer_value(ratio, &replayed, &counts).unwrap_or(0.0)
                }
                layer => layer_value(layer, &replayed, &counts)
                    .or_else(|| layer_value(layer, &probed, &probe.counts))
                    .unwrap_or(0.0),
            };
            (name, value)
        })
        .collect();

    let attempted = verify_requests + counts.requests + front_ops + probe.counts.requests;
    let failed = verify_failed + counts.failed + front_failed + probe.counts.failed;
    let file = obj([
        ("tool", Json::from("x2s-trace")),
        ("workload", Json::from(cfg.workload.name())),
        ("descriptor", describe(inputs, cfg.quick)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", with_units(&metrics)),
        (
            "informational",
            obj([
                ("replayed_requests", Json::from(counts.requests)),
                ("replayed_rounds", Json::from(replay_round_us.len())),
                ("front_door_operations", Json::from(front_ops)),
                ("loopback_probe_requests", Json::from(sockets.len())),
                ("layer_probe_requests", Json::from(probe.counts.requests)),
                ("front_door_round_us", Json::from(med(&front_round_us))),
                ("replayed_round_us", Json::from(med(&replay_round_us))),
            ]),
        ),
        (
            "phases_s",
            obj([
                ("generate", Json::from(generate_s)),
                ("set_up", Json::from(setup_s)),
                ("verify", Json::from(verify_s)),
                ("replay", Json::from(replay_s)),
            ]),
        ),
        ("set_up_spans", setup_rec.to_json(SPANS_IN_FILE)),
        ("spans", rec.to_json(SPANS_IN_FILE)),
        ("probe_spans", probe.rec.to_json(SPANS_IN_FILE)),
    ]);
    TraceReport {
        metrics,
        attempted,
        failed,
        file,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-layer list a driver reads is the list this file reports.
    #[test]
    fn benchmark_json_lists_these_layers() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let declared = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer");
        assert_eq!(declared.len(), PER_LAYER.len());
        for (entry, (name, unit, better)) in declared.iter().zip(PER_LAYER) {
            let field = |k: &str| entry.get(k).and_then(Json::as_str);
            assert_eq!(field("name"), Some(name));
            assert_eq!(field("unit"), Some(unit), "{name}");
            assert_eq!(field("better"), Some(better.as_str()), "{name}");
        }
    }

    /// A traced smoke run of each workload: every layer that applies
    /// reports, the replay agrees with the engine, and the physical path is
    /// the one the workload exists for.
    #[test]
    fn quick_traces_are_correct_and_take_the_expected_path() {
        use x2s_benchmark::inputs::generate_sized;
        for workload in WorkloadId::ALL {
            let cfg = TraceConfig {
                workload,
                seed: 42,
                seconds: 0.2,
                quick: true,
            };
            // the real workloads on documents of 600 elements
            let report = trace_inputs(cfg, &generate_sized(workload, 42, 600), 0.0);
            assert_eq!(report.failed, 0, "{}", workload.name());
            assert_eq!(report.metrics.len(), PER_LAYER.len());
            // every layer is timed on every workload, by the replay or by
            // the probe (the socket may be refused in a sandbox)
            for (name, unit, _) in PER_LAYER {
                let timed = matches!(unit, "us" | "ms") && !name.starts_with("serve.http.");
                assert!(
                    !timed || report.metric(name) != 0.0,
                    "{name} on {}",
                    workload.name()
                );
            }
            let used = report.metric("rel.interval.used_ratio");
            let hit = report.metric("core.engine.cache_hit_ratio");
            match workload {
                WorkloadId::PointWarm => {
                    assert_eq!(report.metric("xpath.sat.pruned_ratio"), 0.2);
                    assert!(report.metric("rel.exec.joins_us") > 0.0);
                    assert_eq!(hit, 1.0);
                }
                WorkloadId::ScanInterval => {
                    assert_eq!(used, 1.0);
                    assert_eq!(hit, 1.0);
                }
                WorkloadId::WriteThenScan => {
                    assert_eq!(used, 0.0);
                    assert!(report.metric("rel.lfp.iterations") > 0.0);
                }
                WorkloadId::TranslateCold => {
                    assert_eq!(hit, 0.0);
                    assert!(report.metric("rel.opt.ops_after") > 0.0);
                    assert!(
                        report.metric("rel.opt.ops_after") <= report.metric("rel.opt.ops_before")
                    );
                }
            }
        }
    }
}
