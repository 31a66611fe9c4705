//! One function per evaluation artifact; each returns printable [`Table`]s.
//!
//! Sizes accept a `scale` factor (1.0 = the paper's element counts); the
//! `repro` binary defaults to a scale chosen to finish in minutes on a laptop
//! while preserving every qualitative shape.
//!
//! Figs 12–17 compare *LFP programs*: all three approaches execute
//! fixpoints, and no cell may report an interval rewrite (see
//! [`crate::harness::translate_with`]). Every figure table has one row per
//! approach and point — the exact counts first, the best-of-`reps`
//! translation and execution milliseconds last — and every cell is checked against the native XPath
//! evaluator before it is printed.

use crate::harness::{dataset, measure, oracle, Approach, Dataset, Measured, CYCLEE_CAP};
use std::collections::HashMap;
use std::fmt;
use x2s_core::{OptLevel, SqlOptions};
use x2s_dtd::{cycles, samples, Dtd, DtdGraph};
use x2s_exp::to_regular;
use x2s_shred::edge_database;
use x2s_xml::generator::mark_values;
use x2s_xml::parse_xml;
use x2s_xpath::parse_xpath;

/// A printable series table.
pub struct Table {
    /// Title, e.g. `Fig. 12(a) — Qa, vary X_L (X_R = 4)`.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows.
    pub rows: Vec<Vec<String>>,
    /// What the paper reports for this artifact, and how to read the rows.
    pub note: String,
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n### {}", self.title)?;
        writeln!(f, "| {} |", self.headers.join(" | "))?;
        writeln!(
            f,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        )?;
        for row in &self.rows {
            writeln!(f, "| {} |", row.join(" | "))?;
        }
        if !self.note.is_empty() {
            writeln!(f, "\n_{}_", self.note)?;
        }
        Ok(())
    }
}

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale) as usize).max(200)
}

/// The columns every figure table ends with: which run, its exact counts
/// (translated-program operators, executed fixpoint iterations, adjacency
/// entries those iterations read, tuples emitted), then its timing,
/// translation and execution apart.
const CELL_HEADERS: [&str; 8] = [
    "approach",
    "LFP ops",
    "ALL ops",
    "fixpoint iters",
    "probes",
    "tuples",
    "translate ms",
    "exec ms",
];

/// Appended to every figure's note.
const LFP_ONLY: &str = "all rows execute LFP programs (0 interval rewrites, asserted) and \
                        passed the native-evaluator check; interval-vs-LFP is measured by the \
                        scan_interval and write_then_scan workloads of benchmark/";

/// A figure table: `key` columns, then [`CELL_HEADERS`].
fn figure(title: String, key: &[&str], rows: Vec<Vec<String>>, paper: &str) -> Table {
    Table {
        title,
        headers: key
            .iter()
            .chain(&CELL_HEADERS)
            .map(|h| h.to_string())
            .collect(),
        rows,
        note: format!("{paper}; {LFP_ONLY}"),
    }
}

/// One table row: the point's `key` cells, then the run's [`CELL_HEADERS`].
fn cell(key: &[String], run: &str, m: &Measured) -> Vec<String> {
    let mut row = key.to_vec();
    row.extend([
        run.to_string(),
        m.ops.lfp.to_string(),
        m.ops.total().to_string(),
        m.fixpoint_iterations().to_string(),
        m.stats.fixpoint_probes.to_string(),
        m.stats.tuples_emitted.to_string(),
        format!("{:.1}", m.translate_ms()),
        format!("{:.1}", m.exec_ms()),
    ]);
    row
}

/// One figure point: R, E and X answer `query`, translated over `dtd`, on
/// the same dataset, one row each.
fn point(
    rows: &mut Vec<Vec<String>>,
    key: &[String],
    dtd: &Dtd,
    query: &str,
    ds: &Dataset<'_>,
    reps: usize,
) {
    let expected = oracle(query, ds, dtd);
    for a in Approach::all() {
        let sql = SqlOptions::default();
        let m = measure(a, dtd, query, &ds.db, sql, &expected, reps);
        rows.push(cell(key, a.label(), &m));
    }
}

/// Exp-1 (Fig. 12a–h): the four Cross-DTD queries under varying tree
/// shapes, 120 000 elements, approaches R/E/X.
pub fn exp1(scale: f64, reps: usize) -> Vec<Table> {
    let d = samples::cross();
    let elements = scaled(120_000, scale);
    let queries: [(&str, &str); 4] = [
        ("Qa", "a/b//c/d"),
        ("Qb", "a[//c]//d"),
        ("Qc", "a[not //c]"),
        ("Qd", "a[not //c or (b and //d)]"),
    ];
    // (varied, fixed, points as (x, X_L, X_R, seed), what the paper reports)
    let sweeps = [
        (
            "X_L",
            "X_R = 4",
            [8usize, 12, 16, 20].map(|xl| (xl, xl, 4, 42 + xl as u64)),
            "paper: X lowest and nearly flat; R and E grow with X_L",
        ),
        (
            "X_R",
            "X_L = 12",
            [4usize, 6, 8, 10].map(|xr| (xr, 12, xr, 142 + xr as u64)),
            "paper: X marginally affected by X_R; E worst; R improves as leaves dominate",
        ),
    ];
    let mut out = Vec::new();
    let mut panels = 'a'..='h';
    for (qname, query) in queries {
        for (varied, fixed, points, paper) in &sweeps {
            let panel = panels.next().expect("four queries × two sweeps");
            let mut rows = Vec::new();
            for &(x, xl, xr, seed) in points {
                let ds = dataset(&d, xl, xr, Some(elements), seed);
                point(&mut rows, &[x.to_string()], &d, query, &ds, reps);
            }
            out.push(figure(
                format!(
                    "Fig. 12({panel}) — {qname} = {query}: vary {varied} \
                     ({fixed}, {elements} elements)"
                ),
                &[varied],
                rows,
                paper,
            ));
        }
    }
    out
}

/// Exp-2 (Fig. 13a,b): pushing selections into the LFP operator.
/// Qe = `a[text()=sel]/b//c/d`, Qf = `a/b//c/d[text()=sel]`; the number of
/// marked (qualified) nodes varies; Push-Selection vs plain Selection, both
/// CycleEX. Both must give the oracle's answer, hence each other's.
pub fn exp2(scale: f64, reps: usize) -> Vec<Table> {
    let d = samples::cross();
    let elements = scaled(120_000, scale);
    let sizes = [100usize, 1_000, 10_000, 50_000].map(|s| scaled(s, scale));
    let cases = [
        (
            "a",
            "Qe = a[text()=\"sel\"]/b//c/d",
            "a",
            "a[text()='sel']/b//c/d",
        ),
        (
            "b",
            "Qf = a/b//c/d[text()=\"sel\"]",
            "d",
            "a/b//c/d[text()='sel']",
        ),
    ];
    let mut out = Vec::new();
    for (panel, title, marked_label, query) in cases {
        let mut rows = Vec::new();
        for m in sizes {
            // paper setting: X_R = 8, X_L = 12
            let mut ds = dataset(&d, 12, 8, Some(elements), 77);
            let label = d.elem(marked_label).expect("cross declares it");
            let marked = mark_values(&mut ds.tree, label, m, "sel", 99);
            ds.db = edge_database(&ds.tree, &d);
            let expected = oracle(query, &ds, &d);
            for (run, push) in [("Push-Selection", true), ("Selection", false)] {
                let sql = SqlOptions {
                    push_selections: push,
                    ..SqlOptions::default()
                };
                let measured = measure(Approach::CycleEx, &d, query, &ds.db, sql, &expected, reps);
                rows.push(cell(&[marked.to_string()], run, &measured));
            }
        }
        out.push(figure(
            format!(
                "Fig. 13({panel}) — {title}: vary #qualified `{marked_label}` \
                 (X_R=8, X_L=12, {elements} elements)"
            ),
            &[&format!("#{marked_label} marked")],
            rows,
            "paper: pushing selections into the lfp is significantly faster",
        ));
    }
    out
}

/// Exp-3 (Fig. 14): scalability of `a//d` on Cross, 60k → 480k elements,
/// X_R = 4, X_L = 16.
pub fn exp3(scale: f64, reps: usize) -> Vec<Table> {
    let d = samples::cross();
    let mut rows = Vec::new();
    for base in [60_000usize, 120_000, 240_000, 480_000] {
        let elements = scaled(base, scale);
        let ds = dataset(&d, 16, 4, Some(elements), 7);
        let key = [elements.to_string()];
        point(&mut rows, &key, &d, "a//d", &ds, reps);
    }
    vec![figure(
        "Fig. 14 — scalability of a//d on Cross (X_R = 4, X_L = 16)".into(),
        &["elements"],
        rows,
        "paper at 480k: E ≈ 2.4× and R ≈ 1.7× the cost of X",
    )]
}

/// Exp-4 part 1 (Table 4 + Fig. 16): BIOML subgraph cases, one dataset
/// generated from the largest 4-cycle graph (X_R = 6, X_L = 16).
///
/// Queries are translated over the *subgraph* DTDs but executed on the full
/// dataset — exactly the containment setting of Theorem 4.2.
pub fn exp4(scale: f64, reps: usize) -> Vec<Table> {
    let full = samples::bioml_d();
    let elements = scaled(1_990_858, scale);
    let ds = dataset(&full, 16, 6, Some(elements), 3);
    let cases: [(&str, &str, Dtd, usize); 7] = [
        ("2a", "gene//locus", samples::bioml_a(), 2),
        ("2b", "gene//locus", samples::bioml_b(), 3),
        ("2c", "gene//dna", samples::bioml_b(), 3),
        ("3a", "gene//locus", samples::bioml_c(), 3),
        ("3b", "gene//locus", samples::bioml_d(), 4),
        ("4a", "gene//locus", samples::bioml(), 4),
        ("4b", "gene//dna", samples::bioml(), 4),
    ];
    let mut rows = Vec::new();
    for (case, query, dtd, n_cycles) in cases {
        let key = [case.to_string(), query.to_string(), n_cycles.to_string()];
        point(&mut rows, &key, &dtd, query, &ds, reps);
    }
    vec![figure(
        format!(
            "Table 4 + Fig. 16 — BIOML subgraph cases ({elements} elements from the 4-cycle graph)"
        ),
        &["case", "query", "cycles"],
        rows,
        "paper: X beats R and E in all cases except 2b; our Fig. 15d equals Fig. 11b so \
         cases 3b and 4a coincide",
    )]
}

/// Exp-4 part 2 (Fig. 17a,b): `Even//Data` on the 9-cycle GedML graph.
pub fn exp5(scale: f64, reps: usize) -> Vec<Table> {
    let d = samples::gedml();
    // (panel, varied, fixed, points as (x, X_L, X_R, paper's element count),
    // seed, what the paper reports)
    let sweeps = [
        (
            "a",
            "X_L",
            "X_R = 6",
            [(13usize, 286_845usize), (14, 845_045), (15, 1_019_798)].map(|(xl, n)| (xl, xl, 6, n)),
            13,
            "paper: X outperforms E and R for all X_L",
        ),
        (
            "b",
            "X_R",
            "X_L = 16",
            [(6usize, 226_663usize), (7, 1_199_990), (8, 5_041_437)].map(|(xr, n)| (xr, 16, xr, n)),
            17,
            "paper: X noticeably beats E; X similar to R as X_R grows (X_R affects join \
             selectivity, not iteration count)",
        ),
    ];
    let mut out = Vec::new();
    for (panel, varied, fixed, points, seed, paper) in sweeps {
        let mut rows = Vec::new();
        for (x, xl, xr, paper_elements) in points {
            let elements = scaled(paper_elements, scale);
            let ds = dataset(&d, xl, xr, Some(elements), seed);
            let key = [x.to_string(), elements.to_string()];
            point(&mut rows, &key, &d, "Even//Data", &ds, reps);
        }
        out.push(figure(
            format!("Fig. 17({panel}) — Even//Data on GedML: vary {varied} ({fixed})"),
            &[varied, "elements"],
            rows,
            paper,
        ));
    }
    out
}

/// Table 5: LFP / ALL operator counts (min/max/avg over all reachable node
/// pairs) of the SQL programs produced via CycleE vs CycleEX.
pub fn table5() -> Vec<Table> {
    let dtds: [(&str, Dtd); 6] = [
        ("Cross (Fig. 11a)", samples::cross()),
        ("BIOMLa (Fig. 15a)", samples::bioml_a()),
        ("BIOMLb (Fig. 15b)", samples::bioml_b()),
        ("BIOMLc (Fig. 15c)", samples::bioml_c()),
        ("BIOMLd (Fig. 15d)", samples::bioml_d()),
        ("GedML (Fig. 11c)", samples::gedml()),
    ];
    let mut rows = Vec::new();
    for (name, dtd) in &dtds {
        let graph = DtdGraph::of(dtd);
        let n = graph.node_count();
        let m = graph.edge_count();
        let c = cycles::cycle_count(&graph);
        // The paper measures rec(A,B) itself ("for each pair of A and B, we
        // use CycleE and CycleEX to compute the extended xpath expression
        // representing all paths from A to B, and then determine the number
        // of operations in the resulting relational algebra").
        let mut e_lfp = MinMaxAvg::new();
        let mut e_all = MinMaxAvg::new();
        let mut x_lfp = MinMaxAvg::new();
        let mut x_all = MinMaxAvg::new();
        let tg = x2s_core::TransGraph::new(dtd);
        let (rec_query, rec_table) = x2s_core::RecTable::standalone(&tg);
        let cyclee = x2s_core::rec_matrix(&tg, CYCLEE_CAP).expect("under the cap");
        // Count with pushing disabled: pushing clones one LFP per closure
        // *use*, whereas Table 5 counts the shared operators of the program.
        // The logical optimizer is off too — this table reproduces the
        // paper's *raw translation* counts (the CycleE-vs-CycleEX contrast);
        // the optimizer's own effect is `rel.opt.ops_before/after` in
        // `benchmark/`'s `x2s-trace`.
        let count_opts = SqlOptions {
            push_selections: false,
            optimize: OptLevel::None,
        };
        for from in dtd.ids() {
            for to in dtd.ids() {
                if from == to || !graph.reach_strict(from).contains(to) {
                    continue;
                }
                let (a, b) = (tg.node(from), tg.node(to));
                let count = |q: &x2s_exp::ExtendedQuery| {
                    x2s_core::exp_to_sql(q, &count_opts, &HashMap::new())
                        .expect("rec(A,B) compiles")
                        .op_counts()
                };
                // CycleE: a variable-free regular expression per pair
                let e = count(&x2s_exp::ExtendedQuery::of(cyclee[a][b].clone()));
                // CycleEX: the shared all-pairs table, pruned per pair
                let mut q = rec_query.clone();
                q.result = rec_table.rec_full(a, b);
                let x = count(&q.pruned());
                // the ordering the paper's Table 5 reports, pair by pair
                assert!(
                    x.lfp <= e.lfp && x.total() <= e.total(),
                    "{name}: CycleEX {x:?} above CycleE {e:?} for {}//{}",
                    dtd.name(from),
                    dtd.name(to)
                );
                e_lfp.push(e.lfp);
                e_all.push(e.total());
                x_lfp.push(x.lfp);
                x_all.push(x.total());
            }
        }
        rows.push(vec![
            name.to_string(),
            n.to_string(),
            m.to_string(),
            c.to_string(),
            e_lfp.show(),
            e_all.show(),
            x_lfp.show(),
            x_all.show(),
        ]);
    }
    vec![Table {
        title: "Table 5 — number of operations (min/max/average over reachable pairs A//B)".into(),
        headers: vec![
            "DTD".into(),
            "n".into(),
            "m".into(),
            "c".into(),
            "CycleE LFP".into(),
            "CycleE ALL".into(),
            "CycleEX LFP".into(),
            "CycleEX ALL".into(),
        ],
        rows,
        note: "paper: CycleEX uses fewer lfp and fewer total operations in all cases \
               (e.g. GedML avg 16 → 4 LFPs, 188 → 19 ops); CycleEX ≤ CycleE in LFP and ALL is \
               asserted for every pair behind every row"
            .into(),
    }]
}

/// Tables 1–3 (§2.3/§3): the running `dept` example — sample shredded
/// database, SQLGen-R's tagged recursion output, and CycleEX's
/// intermediates. (Also reproduced, with narration, by
/// `examples/courseware.rs`.)
pub fn tables123() -> Vec<Table> {
    let d = samples::dept_simplified();
    let t = parse_xml(
        &d,
        "<dept><course><course><course/><project><course><project/></course></project></course><student/><student><course/></student></course></dept>",
    )
    .expect("table 1 document parses");
    let ids = x2s_xml::paper_ids(&t, &d);
    let ds = Dataset {
        dtd: &d,
        db: edge_database(&t, &d),
        tree: t,
    };
    let name_of = |v: &x2s_rel::Value| -> String {
        match v {
            x2s_rel::Value::Doc => "–".into(),
            x2s_rel::Value::Id(n) => ids[*n as usize].clone(),
            other => other.to_string(),
        }
    };
    let mut out = Vec::new();
    // Table 1
    let mut rows = Vec::new();
    for rel_name in ["R_dept", "R_course", "R_student", "R_project"] {
        let rel = ds.db.get(rel_name).expect("shredded");
        for tuple in rel.sorted_tuples() {
            rows.push(vec![
                rel_name.to_string(),
                name_of(&tuple[0]),
                name_of(&tuple[1]),
            ]);
        }
    }
    out.push(Table {
        title: "Table 1 — a database encoding an xml tree of the dept dtd".into(),
        headers: vec!["relation".into(), "F".into(), "T".into()],
        rows,
        note: "matches the paper's Table 1 (d1.c1.c2.c3 and d1.c1.c2.p1.c4.p2 paths)".into(),
    });
    // Tables 2 and 3 answer dept//project; `measure` holds both runs to the
    // native evaluator's answer, so the rows come from that one set
    let query = "dept//project";
    let expected = oracle(query, &ds, &d);
    let mut projects: Vec<Vec<String>> = expected
        .iter()
        .map(|id| vec![ids[*id as usize].clone()])
        .collect();
    projects.sort();
    let run = |a: Approach| measure(a, &d, query, &ds.db, SqlOptions::default(), &expected, 1);
    // Table 2: SQLGen-R product recursion output
    out.push(Table {
        title: format!(
            "Table 2 — SQLGen-R on dept//project: {} iterations of a {}-join recursion → answers",
            run(Approach::SqlGenR).stats.multilfp_iterations,
            5
        ),
        headers: vec!["descendant projects".into()],
        rows: projects.clone(),
        note: "paper's Table 2 traces the same recursion to p1, p2".into(),
    });
    // Table 3: CycleEX intermediates
    let x = run(Approach::CycleEx).stats;
    out.push(Table {
        title: format!(
            "Table 3 — CycleEX on dept//project: {} LFP invocation(s), {} statements → R_f",
            x.lfp_invocations, x.stmts_evaluated
        ),
        headers: vec!["R_f (descendant projects)".into()],
        rows: projects,
        note: "paper's Table 3 shows R, Rγ and R_f = {(d1,p1),(d1,p2)}".into(),
    });
    // bonus: the extended XPath query itself (Example 3.5's EQ1)
    let path = parse_xpath(query).expect("parses");
    let eq = x2s_core::Translator::new(&d)
        .to_extended(&path)
        .expect("translates");
    let regular = to_regular(&eq, 100_000)
        .map(|e| e.to_string())
        .unwrap_or_else(|_| "(too large)".into());
    out.push(Table {
        title: "Example 3.5 — EQ1, the extended XPath translation of dept//project".into(),
        headers: vec!["form".into(), "expression".into()],
        rows: vec![
            vec![
                "equations".into(),
                format!("{} bindings", eq.equations.len()),
            ],
            vec!["eliminated".into(), regular],
        ],
        note: "paper: EQ1 = (X_Q1 = Rd/Rc/X*/Rp, X = Rc ∪ Rs/Rc ∪ Rp/Rc)".into(),
    });
    out
}

struct MinMaxAvg {
    min: usize,
    max: usize,
    sum: usize,
    count: usize,
}

impl MinMaxAvg {
    fn new() -> Self {
        MinMaxAvg {
            min: usize::MAX,
            max: 0,
            sum: 0,
            count: 0,
        }
    }

    fn push(&mut self, v: usize) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v;
        self.count += 1;
    }

    fn show(&self) -> String {
        if self.count == 0 {
            "-".into()
        } else {
            format!(
                "{}/{}/{}",
                self.min,
                self.max,
                self.sum.checked_div(self.count).unwrap_or(0)
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_shapes_hold() {
        // the CycleEX ≤ CycleE ordering is asserted inside table5 itself
        let tables = table5();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), 6);
    }

    #[test]
    fn tables123_reproduce_paper_rows() {
        let tables = tables123();
        let t1 = &tables[0];
        // Rd: 1 row; Rc: 5; Rs: 2; Rp: 2 — 10 total
        assert_eq!(t1.rows.len(), 10);
        assert!(t1
            .rows
            .iter()
            .any(|r| r.iter().map(String::as_str).eq(["R_course", "d1", "c1"])));
        let t2 = &tables[1];
        assert_eq!(t2.rows.len(), 2, "p1 and p2");
        let t3 = &tables[2];
        assert_eq!(t3.rows.len(), 2, "p1 and p2");
    }

    #[test]
    fn exp3_smoke_runs_and_x_is_competitive() {
        // oracle agreement and "no interval rewrite" are asserted per cell
        let t = exp3(0.02, 1).remove(0);
        assert_eq!(t.rows.len(), 12, "4 sizes × R/E/X");
        for row in &t.rows {
            assert_eq!(row.len(), t.headers.len());
            let (lfp, all): (usize, usize) = (row[2].parse().unwrap(), row[3].parse().unwrap());
            assert!(1 <= lfp && lfp < all, "a//d needs a fixpoint: {row:?}");
            assert!(
                row[4].parse::<usize>().unwrap() >= 1,
                "it iterates: {row:?}"
            );
        }
        // X's program is no larger than E's, at every size
        for size in t.rows.chunks(3) {
            let all = |r: &Vec<String>| r[3].parse::<usize>().unwrap();
            assert!(all(&size[2]) <= all(&size[1]), "{size:?}");
        }
        // fixed work: a second run repeats every count column exactly
        let again = exp3(0.02, 1).remove(0);
        for (a, b) in t.rows.iter().zip(&again.rows) {
            assert_eq!(a[..6], b[..6], "only the ms columns may move");
        }
    }

    #[test]
    fn exp2_smoke_push_agrees() {
        // both variants are checked against the oracle inside exp2
        let tables = exp2(0.02, 1);
        assert_eq!(tables.len(), 2);
        assert!(tables.iter().all(|t| t.rows.len() == 8), "4 sizes × 2 runs");
    }
}
