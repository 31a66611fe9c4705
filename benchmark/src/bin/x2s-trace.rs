//! `x2s-trace`: the per-layer numbers. Replays each workload's operation
//! list layer by layer, records a span per call, and writes
//! `out/trace-<workload>.json`.
//!
//! ```text
//! x2s-trace [--workload NAME|all] [--seed N] [--seconds S] [--quick] [--out DIR]
//! ```

// The one file that calls below the product's front doors; see its header.
#[path = "../layers.rs"]
mod layers;

use layers::{trace, TraceConfig, COVERAGE_RANGE, PER_LAYER};
use std::process::ExitCode;
use x2s_benchmark::cli::RunArgs;

const USAGE: &str =
    "usage: x2s-trace [--workload NAME|all] [--seed N] [--seconds S] [--quick] [--out DIR]
workloads: point_warm scan_interval write_then_scan translate_cold";

fn run(args: &RunArgs) -> Result<ExitCode, String> {
    let mut all_correct = true;
    for workload in args.workloads() {
        let report = trace(TraceConfig {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            quick: args.quick,
        });
        let name = format!("trace-{}.json", workload.name());
        let path = args.write_out(&name, &report.file.pretty())?;
        println!("workload {} (traced)", workload.name());
        for (&(name, value), (_, unit, _)) in report.metrics.iter().zip(PER_LAYER) {
            println!("  {name:<36} {value:>14.4} {unit}");
        }
        let coverage = report.metric("trace.coverage_ratio");
        println!(
            "  attempted {} failed {}; coverage {coverage:.3} ({}) -> {}",
            report.attempted,
            report.failed,
            if COVERAGE_RANGE.contains(&coverage) {
                "within 0.85-1.15"
            } else {
                "OUTSIDE 0.85-1.15"
            },
            if report.correct() {
                "correct"
            } else {
                "FAILED"
            }
        );
        println!("  trace file {}", path.display());
        // last line of standard output per workload: the result a driver reads
        println!("{}", report.result_line());
        all_correct &= report.correct();
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    RunArgs::parse(&args)
        .and_then(|parsed| run(&parsed))
        .unwrap_or_else(|message| {
            eprintln!("x2s-trace: {message}\n{USAGE}");
            ExitCode::from(2)
        })
}
