//! The run descriptor written into every output file: enough to say which
//! code ran, on what machine, over which inputs, and where the wall time of
//! the run went.

use crate::inputs::{Inputs, WorkloadId};
use crate::json::{obj, Json};
use std::process::Command;

/// The benchmark's own directory, fixed when the binary is built — outputs
/// go to `out/` under it wherever the command is started from.
pub const BENCHMARK_DIR: &str = env!("CARGO_MANIFEST_DIR");

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// The commit of the repository this directory sits at the root of. Asked
/// only when `../.git` exists, so a plain checkout never sends git looking
/// through the directories above it.
fn git_commit() -> Option<String> {
    if !std::path::Path::new(BENCHMARK_DIR).join("../.git").exists() {
        return None;
    }
    command_line("git", &["-C", BENCHMARK_DIR, "rev-parse", "HEAD"])
}

fn or_unknown(v: Option<String>) -> Json {
    Json::from(v.unwrap_or_else(|| "unknown".to_string()))
}

/// Peak resident set of this process so far (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> u64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Describe the run: code, machine, block sizes of all four workloads, and
/// the documents actually generated for this one.
pub fn describe(inputs: &Inputs, quick: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let blocks = WorkloadId::ALL.into_iter().map(|w| {
        let rounds = w.rounds_per_block(quick);
        let writes = usize::from(w == WorkloadId::WriteThenScan);
        (
            w.name(),
            obj([
                ("rounds_per_block", Json::from(rounds)),
                ("reads_per_block", Json::from(rounds * w.reads_per_round())),
                ("writes_per_block", Json::from(rounds * writes)),
            ]),
        )
    });
    let docs: Vec<Json> = inputs
        .docs
        .iter()
        .map(|d| {
            obj([
                ("dtd", Json::from(d.dtd_name)),
                ("elements", Json::from(d.tree.len())),
                ("xml_bytes", Json::from(d.xml.len())),
                ("doc_seed", Json::from(d.doc_seed)),
            ])
        })
        .collect();
    obj([
        ("git_commit", or_unknown(git_commit())),
        ("seed", Json::from(inputs.seed)),
        ("quick", Json::from(quick)),
        ("block_sizes", obj(blocks)),
        ("documents", Json::Arr(docs)),
        ("nproc", Json::from(nproc)),
        (
            "cpu_model",
            or_unknown(proc_field("/proc/cpuinfo", "model name")),
        ),
        (
            "kernel",
            or_unknown(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .ok()
                    .map(|s| s.trim().to_string()),
            ),
        ),
        ("rustc", or_unknown(command_line("rustc", &["--version"]))),
    ])
}
