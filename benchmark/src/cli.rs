//! The arguments `x2s-bench run` and `x2s-trace` share.

use crate::descriptor::BENCHMARK_DIR;
use crate::inputs::WorkloadId;
use std::path::PathBuf;

/// Length of the timed phase when `--seconds` is not given; the same value
/// `BENCHMARK.json` carries as `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 12.0;
/// Length of the timed phase under `--quick`.
pub const QUICK_SECONDS: f64 = 0.5;

/// Parsed `[--workload NAME|all] [--seed N] [--seconds S] [--quick] [--out DIR]`.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// One workload, or `None` for all four.
    pub workload: Option<WorkloadId>,
    /// Input seed (default 42).
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Smoke size.
    pub quick: bool,
    /// Where output files go (default: `out/` beside the benchmark's
    /// sources).
    pub out: PathBuf,
}

impl RunArgs {
    /// Parse; anything unknown is an error.
    pub fn parse(args: &[String]) -> Result<RunArgs, String> {
        let mut parsed = RunArgs {
            workload: None,
            seed: 42,
            seconds: 0.0,
            quick: false,
            out: PathBuf::from(BENCHMARK_DIR).join("out"),
        };
        let mut seconds = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    parsed.workload = match name.as_str() {
                        "all" => None,
                        name => Some(
                            WorkloadId::parse(name).ok_or(format!("unknown workload {name}"))?,
                        ),
                    };
                }
                "--seed" => {
                    parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                }
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {s} is outside 0..600"));
                    }
                    seconds = Some(s);
                }
                "--quick" => parsed.quick = true,
                "--out" => parsed.out = PathBuf::from(value()?),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let default = if parsed.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        };
        parsed.seconds = seconds.unwrap_or(default);
        Ok(parsed)
    }

    /// The workloads to run, in order.
    pub fn workloads(&self) -> Vec<WorkloadId> {
        self.workload.map_or(WorkloadId::ALL.to_vec(), |w| vec![w])
    }

    /// Write `text` to `<out>/<file_name>`, creating the directory.
    pub fn write_out(&self, file_name: &str, text: &str) -> Result<PathBuf, String> {
        std::fs::create_dir_all(&self.out).map_err(|e| format!("{}: {e}", self.out.display()))?;
        let path = self.out.join(file_name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn parses_what_a_driver_passes() {
        let parsed = RunArgs::parse(&args(&[
            "--workload",
            "scan_interval",
            "--seed",
            "7",
            "--seconds",
            "12",
        ]))
        .expect("valid");
        assert_eq!(parsed.workload, Some(WorkloadId::ScanInterval));
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.quick),
            (7, 12.0, false)
        );
        assert_eq!(parsed.workloads(), vec![WorkloadId::ScanInterval]);
    }

    #[test]
    fn defaults_and_errors() {
        let parsed = RunArgs::parse(&args(&["--quick"])).expect("valid");
        assert_eq!(parsed.workloads().len(), 4);
        assert_eq!((parsed.seed, parsed.seconds), (42, QUICK_SECONDS));
        assert_eq!(RunArgs::parse(&[]).expect("valid").seconds, DEFAULT_SECONDS);
        for bad in [
            &["--workload", "deep_scan"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--trace", "1"],
        ] {
            assert!(RunArgs::parse(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
