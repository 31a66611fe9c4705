//! Mutation testing for the static plan analyzer (`x2s_rel::analyze`).
//!
//! Well-formed Table-5 programs are corrupted by a seeded node mutator
//! (`Program::edit_node`) — one corruption class per test — and every
//! mutant must be *rejected*, with the error variant that names the
//! corruption:
//!
//! | mutation                               | node edited     | expected variant   |
//! |----------------------------------------|-----------------|--------------------|
//! | shift a projection column out of range | `Project`       | `ColumnOutOfRange` |
//! | widen one union arm by a column        | the arm's `Project` | `ArityMismatch` |
//! | drop a `MultiLfp` init tag             | `MultiLfp`      | `UnproducibleTag`  |
//!
//! Statement order is not mutated: a program's arena holds every child
//! before its parent, so a statement reading a later one cannot be built.
//!
//! A final test registers a deliberately schema-breaking optimizer pass and
//! checks the per-pass debug gate aborts naming that pass.
//!
//! Everything is deterministic in the `SplitMix64` seeds, so a failure can
//! be replayed by rerunning the test.

use xpath2sql::core::{OptLevel, SqlOptions, Translator};
use xpath2sql::dtd::{samples, Dtd};
use xpath2sql::rel::opt::{optimize_with, Dag, Node, OptStats, Pass};
use xpath2sql::rel::{
    analyze_program_with, edge_scan_schema, AnalyzeErrorKind, MultiLfpSpec, NodeId, Program,
};
use xpath2sql::sqlgenr::SqlGenR;
use xpath2sql::xml::rng::SplitMix64;
use xpath2sql::xpath::parse_xpath;

/// The Table-5 style workloads used by the optimizer-ablation benchmark.
fn workloads() -> Vec<(Dtd, Vec<&'static str>)> {
    vec![
        (
            samples::cross(),
            vec![
                "a/b//c/d",
                "a[//c]//d",
                "a[not //c]",
                "a[not //c or (b and //d)]",
                "a//d",
            ],
        ),
        (
            samples::dept_simplified(),
            vec!["dept//project", "dept//course[project or student]"],
        ),
        (samples::gedml(), vec!["Even//Data", "Even//Obje[Sour]"]),
    ]
}

/// Translate every workload query at `OptLevel::None` — unoptimized
/// programs keep the most plan structure, so the mutator has the most
/// sites to corrupt.
fn corpus() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    for (dtd, queries) in workloads() {
        for q in queries {
            let tr = Translator::new(&dtd)
                .with_sql_options(SqlOptions {
                    optimize: OptLevel::None,
                    ..SqlOptions::default()
                })
                .translate(&parse_xpath(q).unwrap())
                .unwrap();
            out.push((q.to_string(), tr.program));
        }
    }
    out
}

/// SQLGen-R programs carry the `MultiLfp` fixpoints the init-tag mutation
/// needs.
fn sqlgenr_corpus() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    for (dtd, queries) in [
        (
            samples::dept_simplified(),
            vec!["dept//project", "dept//course"],
        ),
        (samples::gedml(), vec!["Even//Data"]),
        (samples::bioml(), vec!["gene//locus", "gene//dna"]),
    ] {
        for q in queries {
            let tr = SqlGenR::new(&dtd)
                .translate(&parse_xpath(q).unwrap())
                .unwrap();
            out.push((q.to_string(), tr.program));
        }
    }
    out
}

/// The nodes matched by `pred`, in arena order.
fn sites(prog: &Program, pred: &dyn Fn(&Program, NodeId) -> bool) -> Vec<NodeId> {
    (0..prog.nodes().len() as NodeId)
        .filter(|&id| pred(prog, id))
        .collect()
}

fn reject(prog: &Program) -> AnalyzeErrorKind {
    analyze_program_with(prog, &edge_scan_schema)
        .expect_err("mutant must be rejected")
        .kind
}

#[test]
fn mutation_project_column_out_of_range() {
    let mut rng = SplitMix64::seed_from_u64(0x5eed_0001);
    let mut mutants = 0usize;
    for (q, prog) in corpus() {
        analyze_program_with(&prog, &edge_scan_schema)
            .unwrap_or_else(|e| panic!("pristine {q} must be well-formed: {e}"));
        let sites = sites(&prog, &|p, id| matches!(p.node(id), Node::Project { .. }));
        if sites.is_empty() {
            continue;
        }
        let site = sites[rng.gen_range(0..sites.len())];
        let mut m = prog.clone();
        m.edit_node(site, |node| {
            if let Node::Project { cols, .. } = node {
                cols[0].0 = 999;
            }
        });
        let kind = reject(&m);
        assert!(
            matches!(kind, AnalyzeErrorKind::ColumnOutOfRange { col: 999, .. }),
            "{q}: wrong variant {kind:?}"
        );
        mutants += 1;
    }
    assert!(mutants >= 5, "only {mutants} projection mutants exercised");
}

#[test]
fn mutation_union_arm_arity_swap() {
    let mut rng = SplitMix64::seed_from_u64(0x5eed_0002);
    let mut mutants = 0usize;
    // a union of two or more arms whose first arm is a projection of the
    // same statement (a temporary is another statement's result)
    let first_arm = |p: &Program, id: NodeId| match p.node(id) {
        Node::Union { inputs, .. } if inputs.len() >= 2 => Some(inputs[0]),
        _ => None,
    };
    let is_site = |p: &Program, id: NodeId| {
        first_arm(p, id).is_some_and(|arm| {
            p.stmt_at(arm).is_none() && matches!(p.node(arm), Node::Project { .. })
        })
    };
    for (q, prog) in corpus() {
        let sites = sites(&prog, &is_site);
        if sites.is_empty() {
            continue;
        }
        let site = sites[rng.gen_range(0..sites.len())];
        let mut m = prog.clone();
        // Widen the first arm by one column: whatever the arms' arity was,
        // it now disagrees with the others'.
        m.edit_node(first_arm(&prog, site).unwrap(), |node| {
            if let Node::Project { cols, .. } = node {
                cols.push((0, "MX".into()));
            }
        });
        let kind = reject(&m);
        assert!(
            matches!(kind, AnalyzeErrorKind::ArityMismatch { .. }),
            "{q}: wrong variant {kind:?}"
        );
        mutants += 1;
    }
    assert!(mutants >= 3, "only {mutants} union mutants exercised");
}

/// Does removing init entry `without` leave some edge rule with an
/// unproducible `src_tag`? (Same liveness fixpoint the analyzer runs.)
fn drop_breaks_liveness(spec: &MultiLfpSpec<NodeId>, without: usize) -> bool {
    let mut live: std::collections::BTreeSet<&str> = spec
        .init
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != without)
        .map(|(_, (t, _))| t.as_str())
        .collect();
    loop {
        let before = live.len();
        for e in &spec.edges {
            if live.contains(e.src_tag.as_str()) {
                live.insert(e.dst_tag.as_str());
            }
        }
        if live.len() == before {
            break;
        }
    }
    spec.edges
        .iter()
        .any(|e| !live.contains(e.src_tag.as_str()))
}

#[test]
fn mutation_multilfp_init_tag_dropped() {
    let mut rng = SplitMix64::seed_from_u64(0x5eed_0004);
    let mut mutants = 0usize;
    let has_fixpoint = |p: &Program, id: NodeId| matches!(p.node(id), Node::MultiLfp(s) if !s.init.is_empty() && !s.edges.is_empty());
    for (q, prog) in sqlgenr_corpus() {
        analyze_program_with(&prog, &edge_scan_schema)
            .unwrap_or_else(|e| panic!("pristine {q} must be well-formed: {e}"));
        let sites = sites(&prog, &has_fixpoint);
        if sites.is_empty() {
            continue;
        }
        let site = sites[rng.gen_range(0..sites.len())];
        let mut m = prog.clone();
        let mut applied = false;
        m.edit_node(site, |node| {
            if let Node::MultiLfp(spec) = node {
                // Only drop an entry whose removal actually strands a rule;
                // dropping a redundant entry would leave a (semantically
                // different but) still well-formed fixpoint.
                let cands: Vec<usize> = (0..spec.init.len())
                    .filter(|&i| drop_breaks_liveness(spec, i))
                    .collect();
                if !cands.is_empty() {
                    let drop = cands[rng.gen_range(0..cands.len())];
                    spec.init.remove(drop);
                    applied = true;
                }
            }
        });
        if !applied {
            continue;
        }
        match reject(&m) {
            AnalyzeErrorKind::UnproducibleTag(_) => mutants += 1,
            kind => panic!("{q}: wrong variant {kind:?}"),
        }
    }
    assert!(mutants >= 2, "only {mutants} init-tag mutants exercised");
}

/// A deliberately schema-breaking pass: rewrites every projection to read
/// column 999. The optimizer's per-pass debug gate must abort naming it.
struct BreakProjections;

impl Pass for BreakProjections {
    fn name(&self) -> &'static str {
        "test-break-projections"
    }

    fn run(&self, ir: &mut Dag, _stats: &mut OptStats) -> bool {
        ir.rewrite(&mut |_ir, _ctx, node| {
            let Node::Project { input, cols } = node else {
                return None;
            };
            if cols.iter().any(|(i, _)| *i == 999) {
                return None; // already broken: stop so the rewrite converges
            }
            Some(Node::Project {
                input: *input,
                cols: vec![(999, "BROKEN".into())],
            })
        })
    }
}

#[test]
fn schema_breaking_pass_is_caught_by_name() {
    if !cfg!(debug_assertions) {
        return; // the per-pass gate only exists in debug builds
    }
    let dtd = samples::dept_simplified();
    let tr = Translator::new(&dtd)
        .with_sql_options(SqlOptions {
            optimize: OptLevel::None,
            ..SqlOptions::default()
        })
        .translate(&parse_xpath("dept//project").unwrap())
        .unwrap();
    let passes: Vec<Box<dyn Pass>> = vec![Box::new(BreakProjections)];
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        optimize_with(&tr.program, OptLevel::Full, &passes, &edge_scan_schema)
    }))
    .expect_err("the debug gate must abort on a schema-breaking pass");
    let msg = caught
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| caught.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("test-break-projections") && msg.contains("ill-formed"),
        "panic must name the pass: {msg}"
    );
}
