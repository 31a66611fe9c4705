//! `x2s-bench`: the end-to-end benchmark (tracing off) and the run-file
//! comparison.
//!
//! ```text
//! x2s-bench run [--workload NAME|all] [--seed N] [--seconds S] [--quick] [--out DIR]
//! x2s-bench compare --a A1.json A2.json … --b B1.json B2.json …
//! ```

use std::process::{Command, ExitCode};
use x2s_benchmark::cli::RunArgs;
use x2s_benchmark::compare::{compare, read_runs};
use x2s_benchmark::inputs::WorkloadId;
use x2s_benchmark::runner::{run, RunConfig, RunReport};

const USAGE: &str = "usage:
  x2s-bench run [--workload NAME|all] [--seed N] [--seconds S] [--quick] [--out DIR]
  x2s-bench compare --a A1.json A2.json ... --b B1.json B2.json ...
workloads: point_warm scan_interval write_then_scan translate_cold";

fn print_report(report: &RunReport, path: &std::path::Path) {
    println!("workload {}", report.workload.name());
    for &(def, value) in &report.metrics {
        println!(
            "  {:<18} {value:>14.4} {:<6} ({} is better, bound {:.0}%)",
            def.name,
            def.unit,
            def.better.as_str(),
            100.0 * def.bound
        );
    }
    for section in ["weather", "informational", "phases_s"] {
        let members = report.file.get(section).and_then(|s| s.as_obj());
        for (name, value) in members.unwrap_or(&[]) {
            println!("  {section}: {name} = {}", value.compact());
        }
    }
    println!(
        "  attempted {} failed {} -> {}",
        report.attempted,
        report.failed,
        if report.correct() {
            "correct"
        } else {
            "WRONG ANSWERS"
        }
    );
    println!("  run file {}", path.display());
}

fn run_one(workload: WorkloadId, args: &RunArgs) -> Result<ExitCode, String> {
    let report = run(RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
    });
    let name = format!("run-{}-seed{}.json", workload.name(), args.seed);
    let path = args.write_out(&name, &report.file.pretty())?;
    print_report(&report, &path);
    // last line of standard output: the result a driver reads
    println!("{}", report.result_line());
    Ok(ExitCode::from(report.exit_code() as u8))
}

/// `--workload all`: one child process per workload, so `peak_rss_mb` is
/// each workload's own and no workload runs on another's heap.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut failed = Vec::new();
    for workload in WorkloadId::ALL {
        let status = Command::new(&exe)
            .arg("run")
            .args(args)
            .args(["--workload", workload.name()])
            .status()
            .map_err(|e| format!("starting {}: {e}", workload.name()))?;
        if !status.success() {
            failed.push(workload.name());
        }
    }
    if failed.is_empty() {
        println!("all four workloads correct");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("FAILED: {}", failed.join(" "));
        Ok(ExitCode::FAILURE)
    }
}

fn compare_command(args: &[String]) -> Result<ExitCode, String> {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut side: Option<&mut Vec<String>> = None;
    for arg in args {
        match arg.as_str() {
            "--a" => side = Some(&mut a),
            "--b" => side = Some(&mut b),
            file => side
                .as_mut()
                .ok_or(format!("{file}: give --a or --b first"))?
                .push(file.to_string()),
        }
    }
    if a.is_empty() || b.is_empty() {
        return Err("compare needs run files on both --a and --b".to_string());
    }
    let (report, ok) = compare(&read_runs(&a)?, &read_runs(&b)?)?;
    print!("{report}");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => RunArgs::parse(rest).and_then(|parsed| {
            match parsed.workload {
                Some(workload) => run_one(workload, &parsed),
                None => {
                    // pass everything but the `--workload all` pair through
                    let mut pass = rest.to_vec();
                    if let Some(i) = pass.iter().position(|a| a == "--workload") {
                        pass.drain(i..i + 2);
                    }
                    run_all(&pass)
                }
            }
        }),
        Some((cmd, rest)) if cmd == "compare" => compare_command(rest),
        _ => Err("expected `run` or `compare`".to_string()),
    };
    result.unwrap_or_else(|message| {
        eprintln!("x2s-bench: {message}\n{USAGE}");
        ExitCode::from(2)
    })
}
