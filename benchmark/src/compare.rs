//! `x2s-bench compare`: two sets of run files, one verdict per workload ×
//! end-to-end metric.

use crate::json::Json;
use crate::metrics::{END_TO_END, EXACT_METRICS};
use crate::stats::{median, quartiles, spread, worse_by};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Weather on the two sides may differ by this share before `compare`
/// warns that the machine, not the code, may explain a gap.
const WEATHER_TOLERANCE: f64 = 0.10;

/// workload → metric name → one value per run file.
type Side = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Read run files from disk.
pub fn read_runs(files: &[String]) -> Result<Vec<Json>, String> {
    files
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

fn collect(runs: &[Json]) -> Result<Side, String> {
    let mut side = Side::new();
    for doc in runs {
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("a run file has no \"workload\"")?;
        let per_metric = side.entry(workload.to_string()).or_default();
        for section in ["metrics", "weather"] {
            let members = doc.get(section).and_then(Json::as_obj).unwrap_or(&[]);
            for (name, entry) in members {
                let value = entry.get("value").unwrap_or(entry).as_f64();
                let value = value.ok_or_else(|| format!("{workload}: {name} is not a number"))?;
                per_metric.entry(name.clone()).or_default().push(value);
            }
        }
    }
    Ok(side)
}

/// Compare side `b` (the change) against side `a` (the baseline). Returns
/// the report and whether every metric of every workload stayed within its
/// bound.
pub fn compare(a_runs: &[Json], b_runs: &[Json]) -> Result<(String, bool), String> {
    let (a, b) = (collect(a_runs)?, collect(b_runs)?);
    let mut out = String::new();
    let mut ok = true;
    for (workload, a_metrics) in &a {
        let Some(b_metrics) = b.get(workload) else {
            let _ = writeln!(out, "{workload}: in --a only, not compared");
            continue;
        };
        let runs = |m: &BTreeMap<String, Vec<f64>>| m.values().map(Vec::len).max().unwrap_or(0);
        let _ = writeln!(
            out,
            "\n{workload}  (a: {} runs, b: {} runs)\n  {:<16} {:>13} {:>34} {:>13} {:>34} {:>8} {:>6}  verdict",
            runs(a_metrics),
            runs(b_metrics),
            "metric",
            "a median",
            "a quartiles (spread)",
            "b median",
            "b quartiles (spread)",
            "gap",
            "bound",
        );
        for def in END_TO_END {
            let (Some(av), Some(bv)) = (a_metrics.get(def.name), b_metrics.get(def.name)) else {
                continue;
            };
            let (am, bm) = (median(av), median(bv));
            let gap = worse_by(am, bm, def.better);
            let within_floor = (bm - am).abs() <= def.floor;
            let regressed = gap > def.bound && !within_floor;
            // a count that is meant to repeat exactly but differs between
            // runs of one side at one seed is worth a look even when the
            // medians agree
            let unsteady = EXACT_METRICS.contains(&def.name)
                && (spread(av) > def.bound || spread(bv) > def.bound);
            let verdict = match (regressed, unsteady) {
                (true, _) => "REGRESSED",
                (false, true) => "ok (spread exceeds bound)",
                (false, false) => "ok",
            };
            ok &= !regressed;
            let side = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{q1:.3}..{q3:.3} ({:.1}%)", 100.0 * spread(v))
            };
            let _ = writeln!(
                out,
                "  {:<16} {:>13.4} {:>34} {:>13.4} {:>34} {:>+7.1}% {:>5.0}%  {verdict}  [{}]",
                def.name,
                am,
                side(av),
                bm,
                side(bv),
                100.0 * gap,
                100.0 * def.bound,
                def.unit,
            );
        }
        for probe in ["weather.cpu_ms", "weather.mem_ms"] {
            let (Some(av), Some(bv)) = (a_metrics.get(probe), b_metrics.get(probe)) else {
                continue;
            };
            let (am, bm) = (median(av), median(bv));
            let apart = (bm - am).abs() / am.max(f64::MIN_POSITIVE);
            let _ = writeln!(
                out,
                "  {:<16} {:>13.4} {:>34} {:>13.4} {:>34} {:>+7.1}%",
                probe,
                am,
                "",
                bm,
                "",
                100.0 * (bm - am) / am.max(f64::MIN_POSITIVE),
            );
            if apart > WEATHER_TOLERANCE {
                let _ = writeln!(
                    out,
                    "  WARNING: {probe} differs by {:.0}% between the sides — the machine changed \
                     under the runs; a wall-clock gap here may be weather, not code",
                    100.0 * apart
                );
            }
        }
    }
    for workload in b.keys().filter(|w| !a.contains_key(*w)) {
        let _ = writeln!(out, "{workload}: in --b only, not compared");
    }
    let _ = writeln!(
        out,
        "\n{}",
        if ok {
            "compare: every gap within its bound"
        } else {
            "compare: at least one metric REGRESSED beyond its bound"
        }
    );
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    fn run_file(p50: f64, allocs: f64, cpu: f64) -> Json {
        let metric = |v: f64, unit: &str| obj([("value", Json::from(v)), ("unit", unit.into())]);
        obj([
            ("workload", Json::from("scan_interval")),
            (
                "metrics",
                obj([
                    ("latency_p50_ms", metric(p50, "ms")),
                    ("allocs_per_op", metric(allocs, "count")),
                    ("setup_s", metric(0.0040, "s")),
                ]),
            ),
            ("weather", obj([("weather.cpu_ms", Json::from(cpu))])),
        ])
    }

    #[test]
    fn gap_beyond_bound_fails_and_weather_is_flagged() {
        let a: Vec<Json> = [40.0, 41.0, 42.0]
            .iter()
            .map(|&v| run_file(v, 1000.0, 50.0))
            .collect();
        // same code, same machine: passes
        let (report, ok) = compare(&a, &a).expect("well-formed");
        assert!(ok, "{report}");
        assert!(!report.contains("WARNING"));
        // 29 % slower median on a 25 % bound, on a machine 20 % slower
        let b: Vec<Json> = [52.9, 53.0, 54.0]
            .iter()
            .map(|&v| run_file(v, 1000.0, 60.0))
            .collect();
        let (report, ok) = compare(&a, &b).expect("well-formed");
        assert!(!ok, "{report}");
        assert!(report.contains("REGRESSED"));
        assert!(report.contains("WARNING: weather.cpu_ms"));
        // the other direction is an improvement, not a regression
        let (_, ok) = compare(&b, &a).expect("well-formed");
        assert!(ok);
        // a count moving by 12 % on a 10 % bound fails on its own
        let c: Vec<Json> = (0..3).map(|_| run_file(41.0, 1120.0, 50.0)).collect();
        let (report, ok) = compare(&a, &c).expect("well-formed");
        assert!(!ok, "{report}");
    }

    #[test]
    fn the_absolute_floor_forgives_a_millisecond_of_set_up() {
        let with_setup = |seconds: f64| {
            obj([
                ("workload", Json::from("translate_cold")),
                (
                    "metrics",
                    obj([(
                        "setup_s",
                        obj([("value", Json::from(seconds)), ("unit", "s".into())]),
                    )]),
                ),
            ])
        };
        // 3.0 ms → 3.9 ms is 30 % on a 25 % bound, but under the 1 ms floor
        let (report, ok) = compare(&[with_setup(0.0030)], &[with_setup(0.0039)]).expect("ok");
        assert!(ok, "{report}");
        // the same 30 % on 300 ms is a regression
        let (report, ok) = compare(&[with_setup(0.30)], &[with_setup(0.39)]).expect("ok");
        assert!(!ok, "{report}");
    }

    #[test]
    fn malformed_inputs_are_errors() {
        assert!(read_runs(&["/nonexistent/a.json".to_string()]).is_err());
        assert!(compare(&[obj([("metrics", obj::<&str>([]))])], &[]).is_err());
    }
}
