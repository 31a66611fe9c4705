//! Golden of `repro all --quick`: every count the report prints, committed
//! as `tests/repro_quick.txt`.
//!
//! The file holds the report with the two timing columns (`translate ms`,
//! `exec ms`) cut out of every table, so what is left repeats exactly from
//! run to run: Table 5's raw operator counts, the `sql` section's optimizer
//! report (before/after counts, `plans-hash-consed`, `lfps-merged`,
//! `stmts-eliminated`) and SQL script, and every figure's `LFP ops`,
//! `ALL ops`, `fixpoint iters`, `probes` and `tuples` columns. A change to the
//! translator, the optimizer or the executor that moves any of them shows as
//! a diff here.
//!
//! The tier-1 test diffs the cheap sections; the `#[ignore]`d one diffs
//! every section (`cargo test -p x2s_bench -- --include-ignored`).
//! Regenerate after an intended change, then review the diff:
//!
//! ```text
//! X2S_BLESS=1 cargo test -p x2s_bench --test repro_golden -- --include-ignored
//! ```
//!
//! Blessing panics when `CI` is also set: the golden is never rewritten in
//! CI.

use std::path::PathBuf;
use std::process::Command;

/// The sections cheap enough for every test run (a few seconds in debug):
/// `exp1` is the one whose R rows run the multi-relation fixpoint.
const TIER1_SECTIONS: [&str; 6] = ["sql", "tables123", "table5", "exp1", "exp2", "exp3"];

/// Header cells of the columns that hold wall-clock times.
const TIMING_COLUMNS: [&str; 2] = ["translate ms", "exec ms"];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/repro_quick.txt")
}

/// `repro <sections> --quick` with the timing columns cut out.
fn repro(sections: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(sections)
        .arg("--quick")
        .output()
        .expect("repro starts");
    assert!(
        out.status.success(),
        "repro {sections:?} --quick failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    strip_timings(&String::from_utf8(out.stdout).expect("repro prints UTF-8"))
}

/// Drop the [`TIMING_COLUMNS`] cells from every markdown table: a header
/// row names the columns, and the rows after it up to the first non-table
/// line lose the same cells.
fn strip_timings(report: &str) -> String {
    let mut out = String::new();
    let mut drop: Vec<usize> = Vec::new();
    for line in report.lines() {
        if !line.starts_with('|') {
            drop.clear();
            out.push_str(line);
            out.push('\n');
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').collect();
        if drop.is_empty() {
            drop = (0..cells.len())
                .filter(|&i| TIMING_COLUMNS.contains(&cells[i].trim()))
                .collect();
        }
        let kept: Vec<&str> = (0..cells.len())
            .filter(|i| !drop.contains(i))
            .map(|i| cells[i])
            .collect();
        out.push_str(&format!("|{}|\n", kept.join("|")));
    }
    out
}

/// The report's preamble and its `## ` sections, each with its heading.
fn sections(report: &str) -> Vec<&str> {
    let mut starts: Vec<usize> = report.match_indices("\n## ").map(|(i, _)| i).collect();
    starts.insert(0, 0);
    starts.push(report.len());
    starts.windows(2).map(|w| &report[w[0]..w[1]]).collect()
}

fn check_against_golden(got: &str, all: bool) {
    let bless = std::env::var_os("X2S_BLESS").is_some();
    assert!(
        !(bless && std::env::var_os("CI").is_some()),
        "X2S_BLESS is set under CI: regenerate the repro golden locally, not in CI"
    );
    let path = golden_path();
    if bless {
        // only the full run writes the file; the cheap one neither writes
        // nor reads it, so it cannot see a file being rewritten
        if all {
            std::fs::write(&path, got).expect("golden is writable");
        }
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}; run X2S_BLESS=1 cargo test -p x2s_bench --test repro_golden \
             -- --include-ignored",
            path.display()
        )
    });
    let want_sections = sections(&want);
    let got_sections = sections(got);
    if all {
        assert_eq!(got_sections.len(), want_sections.len(), "section count");
    }
    for section in got_sections {
        let heading = section.lines().find(|l| !l.is_empty()).unwrap_or_default();
        let expected = want_sections
            .iter()
            .find(|w| w.lines().find(|l| !l.is_empty()) == Some(heading))
            .unwrap_or_else(|| panic!("{heading:?} is not in {}", path.display()));
        if section != *expected {
            let line = section
                .lines()
                .zip(expected.lines())
                .position(|(a, b)| a != b)
                .unwrap_or(section.lines().count().min(expected.lines().count()));
            panic!(
                "{heading:?} differs from {} at its line {}:\n  got:  {:?}\n  want: {:?}\n\
                 review the change, then rerun with X2S_BLESS=1",
                path.display(),
                line + 1,
                section.lines().nth(line),
                expected.lines().nth(line)
            );
        }
    }
}

#[test]
fn cheap_sections_match_the_golden() {
    check_against_golden(&repro(&TIER1_SECTIONS), false);
}

#[test]
#[ignore = "every section: about 20 s in debug"]
fn every_section_matches_the_golden() {
    check_against_golden(&repro(&["all"]), true);
}

#[test]
fn timing_cells_are_cut_and_counts_kept() {
    let table = "intro\n| X_L | tuples | translate ms | exec ms |\n|---|---|---|---|\n\
                 | 8 | 6068 | 4.1 | 12.1 |\n_paper: note_\n| a | b |\n| 1 | 2 |\n";
    assert_eq!(
        strip_timings(table),
        "intro\n| X_L | tuples |\n|---|---|\n| 8 | 6068 |\n_paper: note_\n| a | b |\n| 1 | 2 |\n"
    );
}
