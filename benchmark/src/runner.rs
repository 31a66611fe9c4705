//! The end-to-end run: generate → set up (several times) → verify → warm up
//! → timed blocks → verify, and the report made from it.
//!
//! One process, one thread, one caller in a closed loop. A block is a fixed
//! amount of work (`R` rounds of the workload's operation list); `--seconds`
//! only decides how many blocks are run. Every wall-clock metric is the
//! best block's value, every count metric is a total over all blocks.

use crate::alloc::Snapshot;
use crate::descriptor::{describe, peak_rss_bytes};
use crate::inputs::{generate, Inputs, WorkloadId};
use crate::json::{obj, Json};
use crate::metrics::{metrics_json, result_line, MetricDef, END_TO_END};
use crate::stats::{best_block, median, percentile, Better};
use crate::weather::Weather;
use crate::workloads::{build, load_engines, parse_dtds, OpKind, Workload};
use std::time::Instant;

/// Warm-up rounds before the first block.
const WARMUP_ROUNDS: usize = 2;
/// Never fewer blocks than this, whatever `--seconds` says.
const MIN_BLOCKS: usize = 2;
/// Nor more (bounds the samples kept in memory).
const MAX_BLOCKS: usize = 64;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// The workload.
    pub workload: WorkloadId,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase; whole blocks are run until it is used up.
    pub seconds: f64,
    /// Smoke size: small blocks, few set-ups, every check still on.
    pub quick: bool,
}

/// One block's measurements.
#[derive(Clone, Debug)]
pub struct Block {
    /// Operations run (reads + writes).
    pub ops: u64,
    /// Operations that errored or disagreed with the oracle.
    pub failed: u64,
    /// Wall time of the block's rounds.
    pub wall_s: f64,
    /// Read latencies, ascending, in milliseconds.
    pub reads_ms: Vec<f64>,
    /// Write latencies, ascending, in milliseconds.
    pub writes_ms: Vec<f64>,
    /// Allocator calls and bytes requested during the rounds.
    pub alloc: Snapshot,
    /// `tuples_emitted` delta.
    pub tuples: u64,
    /// SQL bytes rendered.
    pub sql_bytes: u64,
    /// Weather probes taken just before the block.
    pub weather_cpu_ms: f64,
    /// See `weather_cpu_ms`.
    pub weather_mem_ms: f64,
}

impl Block {
    fn qps(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }
}

/// The timed phase and the checks around it.
#[derive(Clone, Debug, Default)]
pub struct Timed {
    /// The blocks, in run order.
    pub blocks: Vec<Block>,
    /// Oracle comparisons made outside the timed phase …
    pub verified: u64,
    /// … and how many disagreed.
    pub verify_failed: u64,
    /// Seconds spent in each phase of `drive`.
    pub verify_s: f64,
    /// See `verify_s`.
    pub warmup_s: f64,
    /// See `verify_s`.
    pub timed_s: f64,
}

impl Timed {
    /// Operations attempted: timed operations plus oracle comparisons.
    pub fn attempted(&self) -> u64 {
        self.verified + self.blocks.iter().map(|b| b.ops).sum::<u64>()
    }

    /// Operations that failed, same scope.
    pub fn failed(&self) -> u64 {
        self.verify_failed + self.blocks.iter().map(|b| b.failed).sum::<u64>()
    }
}

fn run_rounds(w: &mut dyn Workload, rounds: usize, block: &mut Block) {
    let ops = w.ops_per_round();
    for _ in 0..rounds {
        for i in 0..ops {
            let outcome = w.op(i);
            let ms = outcome.latency.as_secs_f64() * 1e3;
            match outcome.kind {
                OpKind::Read => block.reads_ms.push(ms),
                OpKind::Write => block.writes_ms.push(ms),
            }
            block.ops += 1;
            block.failed += u64::from(!outcome.ok);
        }
    }
}

fn empty_block(w: &dyn Workload, rounds: usize) -> Block {
    // sample vectors are sized up front: the harness allocates nothing
    // while the allocator is being read
    let capacity = rounds * w.ops_per_round();
    Block {
        ops: 0,
        failed: 0,
        wall_s: 0.0,
        reads_ms: Vec::with_capacity(capacity),
        writes_ms: Vec::with_capacity(capacity),
        alloc: Snapshot::default(),
        tuples: 0,
        sql_bytes: 0,
        weather_cpu_ms: 0.0,
        weather_mem_ms: 0.0,
    }
}

/// Verify, warm up, run blocks of `rounds` rounds for about `seconds`, and
/// verify again.
pub fn drive(w: &mut dyn Workload, rounds: usize, seconds: f64, weather: &mut Weather) -> Timed {
    let mut timed = Timed::default();
    let start = Instant::now();
    w.prepare(rounds);
    w.begin_block();
    let (checked, failed) = w.verify();
    timed.verified += checked;
    timed.verify_failed += failed;
    timed.verify_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    w.begin_block();
    let mut scratch = empty_block(w, WARMUP_ROUNDS);
    run_rounds(w, WARMUP_ROUNDS.min(rounds), &mut scratch);
    timed.warmup_s = start.elapsed().as_secs_f64();

    let phase = Instant::now();
    loop {
        let mut block = empty_block(w, rounds);
        block.weather_cpu_ms = weather.cpu_ms();
        block.weather_mem_ms = weather.mem_ms();
        w.begin_block();
        let (tuples, sql_bytes) = (w.tuples_emitted(), w.sql_bytes());
        let alloc = Snapshot::now();
        let start = Instant::now();
        run_rounds(w, rounds, &mut block);
        block.wall_s = start.elapsed().as_secs_f64();
        block.alloc = alloc.elapsed();
        block.tuples = w.tuples_emitted() - tuples;
        block.sql_bytes = w.sql_bytes() - sql_bytes;
        block.reads_ms.sort_by(f64::total_cmp);
        block.writes_ms.sort_by(f64::total_cmp);
        timed.blocks.push(block);
        // another whole block only if at least half of it fits
        let elapsed = phase.elapsed().as_secs_f64();
        let per_block = elapsed / timed.blocks.len() as f64;
        let enough = elapsed + per_block / 2.0 >= seconds;
        if timed.blocks.len() >= MAX_BLOCKS || (enough && timed.blocks.len() >= MIN_BLOCKS) {
            break;
        }
    }
    timed.timed_s = phase.elapsed().as_secs_f64();

    // the store is now in its end-of-block state: for `write_then_scan`,
    // the final tree after the last write
    let start = Instant::now();
    let (checked, failed) = w.verify();
    timed.verified += checked;
    timed.verify_failed += failed;
    timed.verify_s += start.elapsed().as_secs_f64();
    timed
}

/// Set-up time: complete fresh set-ups from text, each `parse_dtd` +
/// `Engine::new` + `Engine::load_xml` per document.
#[derive(Clone, Debug)]
pub struct SetupTimes {
    /// Seconds per set-up, in run order (the discarded first one excluded).
    pub samples_s: Vec<f64>,
    /// Bytes one set-up requested from the allocator.
    pub alloc_bytes: u64,
}

/// Time fresh set-ups: one discarded first-touch set-up, then at least
/// `min_count`, continuing until `min_seconds` have been spent.
pub fn measure_setups(inputs: &Inputs, min_count: usize, min_seconds: f64) -> SetupTimes {
    let once = || {
        let alloc = Snapshot::now();
        let start = Instant::now();
        let dtds = parse_dtds(inputs);
        let engines = load_engines(&dtds, inputs);
        let took = start.elapsed().as_secs_f64();
        let bytes = alloc.elapsed().bytes;
        // dropped after the clock stopped, before the next set-up starts
        drop(engines);
        (took, bytes)
    };
    once();
    let mut times = SetupTimes {
        samples_s: Vec::new(),
        alloc_bytes: 0,
    };
    let phase = Instant::now();
    while times.samples_s.len() < min_count || phase.elapsed().as_secs_f64() < min_seconds {
        let (took, bytes) = once();
        times.samples_s.push(took);
        times.alloc_bytes = bytes;
    }
    times
}

/// A finished run.
pub struct RunReport {
    /// The workload run.
    pub workload: WorkloadId,
    /// Every end-to-end metric that applies, with its value.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// Operations attempted (timed operations + oracle comparisons).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The run file: descriptor, metrics, informational numbers, blocks.
    pub file: Json,
}

impl RunReport {
    /// Every answer agreed with the oracle and every operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The process exit code a run ends with: non-zero on any wrong answer.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.correct())
    }

    /// The one-line result a driver reads: `correct`, `attempted`,
    /// `failed`, and the metrics `BENCHMARK.json` lists as end-to-end.
    pub fn result_line(&self) -> String {
        let listed = self.metrics.iter().filter(|(def, _)| def.is_universal());
        result_line(
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(listed.map(|&(def, value)| (def.name, value, def.unit))),
        )
    }
}

fn per_block(blocks: &[Block], f: impl Fn(&Block) -> f64) -> Vec<f64> {
    blocks.iter().map(f).collect()
}

/// Reduce the timed phase to the end-to-end metrics that apply to
/// `workload`.
pub fn end_to_end_metrics(
    workload: WorkloadId,
    setups: &SetupTimes,
    timed: &Timed,
    peak_rss_bytes: u64,
) -> Vec<(&'static MetricDef, f64)> {
    let blocks = &timed.blocks;
    let ops: u64 = blocks.iter().map(|b| b.ops).sum();
    let per_op = |total: u64, unit: f64| total as f64 / unit / ops as f64;
    const KIB: f64 = 1024.0;
    const MIB: f64 = 1024.0 * 1024.0;
    END_TO_END
        .iter()
        .filter(|def| def.applies_to(workload))
        .map(|def| {
            let value = match def.name {
                "setup_s" => best_block(&setups.samples_s, Better::Lower),
                "latency_p50_ms" => best_block(
                    &per_block(blocks, |b| percentile(&b.reads_ms, 50)),
                    def.better,
                ),
                "latency_p90_ms" => best_block(
                    &per_block(blocks, |b| percentile(&b.reads_ms, 90)),
                    def.better,
                ),
                "throughput_qps" => best_block(&per_block(blocks, Block::qps), def.better),
                "write_ms_p50" => best_block(
                    &per_block(blocks, |b| percentile(&b.writes_ms, 50)),
                    def.better,
                ),
                "allocs_per_op" => per_op(blocks.iter().map(|b| b.alloc.calls).sum(), 1.0),
                "alloc_kb_per_op" => per_op(blocks.iter().map(|b| b.alloc.bytes).sum(), KIB),
                "tuples_per_op" => per_op(blocks.iter().map(|b| b.tuples).sum(), 1.0),
                "sql_kb_per_op" => per_op(blocks.iter().map(|b| b.sql_bytes).sum(), KIB),
                "setup_alloc_mb" => setups.alloc_bytes as f64 / MIB,
                "peak_rss_mb" => peak_rss_bytes as f64 / MIB,
                "failed_ratio" => timed.failed() as f64 / timed.attempted().max(1) as f64,
                other => unreachable!("metric {other} has no definition"),
            };
            (def, value)
        })
        .collect()
}

fn block_json(b: &Block) -> Json {
    let mut members = vec![
        ("ops", Json::from(b.ops)),
        ("failed", Json::from(b.failed)),
        ("wall_s", Json::from(b.wall_s)),
        ("throughput_qps", Json::from(b.qps())),
        ("latency_p50_ms", Json::from(percentile(&b.reads_ms, 50))),
        ("latency_p90_ms", Json::from(percentile(&b.reads_ms, 90))),
        ("allocs", Json::from(b.alloc.calls)),
        ("alloc_bytes", Json::from(b.alloc.bytes)),
        ("tuples", Json::from(b.tuples)),
        ("weather_cpu_ms", Json::from(b.weather_cpu_ms)),
        ("weather_mem_ms", Json::from(b.weather_mem_ms)),
    ];
    if !b.writes_ms.is_empty() {
        members.push(("write_ms_p50", Json::from(percentile(&b.writes_ms, 50))));
    }
    obj(members)
}

/// Run `cfg.workload` start to finish.
pub fn run(cfg: RunConfig) -> RunReport {
    // first, so its 64 MiB are a constant part of the resident set
    let mut weather = Weather::new();

    let start = Instant::now();
    let inputs = generate(cfg.workload, cfg.seed);
    let generate_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let (min_setups, min_setup_s) = if cfg.quick { (3, 0.1) } else { (7, 1.0) };
    let setups = measure_setups(&inputs, min_setups, min_setup_s);
    let dtds = parse_dtds(&inputs);
    let mut engines = load_engines(&dtds, &inputs);
    let setup_phase_s = start.elapsed().as_secs_f64();

    let rounds = cfg.workload.rounds_per_block(cfg.quick);
    let timed = {
        let mut workload = build(&inputs, &mut engines);
        drive(workload.as_mut(), rounds, cfg.seconds, &mut weather)
    };

    let peak = peak_rss_bytes().saturating_sub(weather.resident_bytes());
    let metrics = end_to_end_metrics(cfg.workload, &setups, &timed, peak);

    // whole-run statistics: informational, never compared
    let mut pooled: Vec<f64> = timed
        .blocks
        .iter()
        .flat_map(|b| b.reads_ms.iter().copied())
        .collect();
    pooled.sort_by(f64::total_cmp);
    let first = &timed.blocks[0];
    let counts_repeat = timed
        .blocks
        .iter()
        .all(|b| (b.alloc, b.tuples, b.sql_bytes) == (first.alloc, first.tuples, first.sql_bytes));
    let weather_cpu = median(&per_block(&timed.blocks, |b| b.weather_cpu_ms));
    let weather_mem = median(&per_block(&timed.blocks, |b| b.weather_mem_ms));

    let with_units = metrics
        .iter()
        .map(|&(def, value)| (def.name, value, def.unit));
    let file = obj([
        ("tool", Json::from("x2s-bench run")),
        ("workload", Json::from(cfg.workload.name())),
        ("descriptor", describe(&inputs, cfg.quick)),
        ("correct", Json::from(timed.failed() == 0)),
        ("attempted", Json::from(timed.attempted())),
        ("failed", Json::from(timed.failed())),
        ("metrics", metrics_json(with_units)),
        (
            "weather",
            obj([
                ("weather.cpu_ms", Json::from(weather_cpu)),
                ("weather.mem_ms", Json::from(weather_mem)),
            ]),
        ),
        (
            "informational",
            obj([
                ("blocks", Json::from(timed.blocks.len())),
                ("read_samples", Json::from(pooled.len())),
                ("whole_run_p50_ms", Json::from(percentile(&pooled, 50))),
                ("whole_run_p90_ms", Json::from(percentile(&pooled, 90))),
                (
                    "whole_run_mean_ms",
                    Json::from(pooled.iter().sum::<f64>() / pooled.len() as f64),
                ),
                ("setups", Json::from(setups.samples_s.len())),
                ("setup_median_s", Json::from(median(&setups.samples_s))),
                ("counts_identical_in_every_block", Json::from(counts_repeat)),
                (
                    "peak_rss_excludes_weather_table_mb",
                    Json::from(weather.resident_bytes() as f64 / (1024.0 * 1024.0)),
                ),
            ]),
        ),
        (
            "phases_s",
            obj([
                ("generate", Json::from(generate_s)),
                ("set_up", Json::from(setup_phase_s)),
                ("verify", Json::from(timed.verify_s)),
                ("warm_up", Json::from(timed.warmup_s)),
                ("timed", Json::from(timed.timed_s)),
            ]),
        ),
        (
            "blocks",
            Json::Arr(timed.blocks.iter().map(block_json).collect()),
        ),
    ]);
    RunReport {
        workload: cfg.workload,
        metrics,
        attempted: timed.attempted(),
        failed: timed.failed(),
        file,
    }
}
