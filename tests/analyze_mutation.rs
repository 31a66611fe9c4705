//! Mutation testing for the static plan analyzer (`x2s_rel::analyze`).
//!
//! Well-formed Table-5 programs are corrupted by a seeded plan mutator —
//! one corruption class per test — and every mutant must be *rejected*,
//! with the error variant that names the corruption:
//!
//! | mutation                                | expected variant     |
//! |-----------------------------------------|----------------------|
//! | shift a projection column out of range  | `ColumnOutOfRange`   |
//! | give one union arm a different arity    | `ArityMismatch`      |
//! | reorder statements against dependencies | `ForwardTempRef`     |
//! | drop a `MultiLfp` init tag              | `UnproducibleTag`    |
//!
//! A final test registers a deliberately schema-breaking optimizer pass and
//! checks the per-pass debug gate aborts naming that pass.
//!
//! Everything is deterministic in the `SplitMix64` seeds, so a failure can
//! be replayed by rerunning the test.

use xpath2sql::core::{OptLevel, SqlOptions, Translator};
use xpath2sql::dtd::{samples, Dtd};
use xpath2sql::rel::opt::{optimize_with, Node, OptStats, Pass, ProgramIr};
use xpath2sql::rel::{
    analyze_program_with, edge_scan_schema, AnalyzeErrorKind, MultiLfpSpec, Plan, Program, PushSpec,
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

/// Mutable pre-order walk over a plan tree (the read-only `Plan::visit`
/// cannot edit nodes in place).
fn for_each_plan_mut(plan: &mut Plan, f: &mut dyn FnMut(&mut Plan)) {
    f(plan);
    match plan {
        Plan::Scan(_) | Plan::Temp(_) | Plan::Values(_) => {}
        Plan::Select { input, .. } | Plan::Distinct(input) | Plan::Project { input, .. } => {
            for_each_plan_mut(input, f)
        }
        Plan::Join { left, right, .. } => {
            for_each_plan_mut(left, f);
            for_each_plan_mut(right, f);
        }
        Plan::Union { inputs, .. } => {
            for p in inputs {
                for_each_plan_mut(p, f);
            }
        }
        Plan::Lfp(spec) => {
            for_each_plan_mut(&mut spec.input, f);
            match &mut spec.push {
                Some(PushSpec::Forward { seeds, .. }) => for_each_plan_mut(seeds, f),
                Some(PushSpec::Backward { targets, .. }) => for_each_plan_mut(targets, f),
                None => {}
            }
        }
        Plan::MultiLfp(spec) => {
            for (_, p) in &mut spec.init {
                for_each_plan_mut(p, f);
            }
            for e in &mut spec.edges {
                for_each_plan_mut(&mut e.rel, f);
            }
        }
        Plan::IntervalJoin(spec) => for_each_plan_mut(&mut spec.left, f),
    }
}

/// Count plan nodes matched by `pred` across the whole program.
fn count_sites(prog: &Program, pred: &dyn Fn(&Plan) -> bool) -> usize {
    let mut n = 0;
    for s in &prog.stmts {
        s.plan.visit(&mut |p| {
            if pred(p) {
                n += 1;
            }
        });
    }
    n
}

/// Apply `mutate` to the `k`-th plan node matched by `pred` (pre-order,
/// statement order). Returns whether a site was hit.
fn mutate_site(
    prog: &mut Program,
    pred: &dyn Fn(&Plan) -> bool,
    k: usize,
    mutate: &mut dyn FnMut(&mut Plan),
) -> bool {
    let mut seen = 0usize;
    let mut done = false;
    for s in &mut prog.stmts {
        for_each_plan_mut(&mut s.plan, &mut |p| {
            if !done && pred(p) {
                if seen == k {
                    mutate(p);
                    done = true;
                }
                seen += 1;
            }
        });
        if done {
            break;
        }
    }
    done
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
        let sites = count_sites(&prog, &|p| matches!(p, Plan::Project { .. }));
        if sites == 0 {
            continue;
        }
        let k = rng.gen_range(0..sites);
        let mut m = prog.clone();
        assert!(mutate_site(
            &mut m,
            &|p| matches!(p, Plan::Project { .. }),
            k,
            &mut |p| {
                if let Plan::Project { cols, .. } = p {
                    cols[0].0 = 999;
                }
            }
        ));
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
    let is_wide_union = |p: &Plan| matches!(p, Plan::Union { inputs, .. } if inputs.len() >= 2);
    for (q, prog) in corpus() {
        let sites = count_sites(&prog, &is_wide_union);
        if sites == 0 {
            continue;
        }
        let k = rng.gen_range(0..sites);
        let mut m = prog.clone();
        assert!(mutate_site(&mut m, &is_wide_union, k, &mut |p| {
            if let Plan::Union { inputs, .. } = p {
                // Rebuild the first two arms with arities 1 and 2: whatever
                // the original arm arity was, the arms now disagree.
                let a0 = std::mem::replace(&mut inputs[0], Plan::Scan(String::new()));
                inputs[0] = a0.project(vec![(0, "MX")]);
                let a1 = std::mem::replace(&mut inputs[1], Plan::Scan(String::new()));
                inputs[1] = a1.project(vec![(0, "MX"), (0, "MY")]);
            }
        }));
        let kind = reject(&m);
        assert!(
            matches!(kind, AnalyzeErrorKind::ArityMismatch { .. }),
            "{q}: wrong variant {kind:?}"
        );
        mutants += 1;
    }
    assert!(mutants >= 3, "only {mutants} union mutants exercised");
}

#[test]
fn mutation_statement_reorder_breaks_dependencies() {
    let mut rng = SplitMix64::seed_from_u64(0x5eed_0003);
    let mut mutants = 0usize;
    for (q, prog) in corpus() {
        // statements that read at least one temporary
        let readers: Vec<usize> = (0..prog.stmts.len())
            .filter(|&i| !prog.stmts[i].plan.referenced_temps().is_empty())
            .collect();
        if readers.is_empty() {
            continue;
        }
        let i = readers[rng.gen_range(0..readers.len())];
        let deps = prog.stmts[i].plan.referenced_temps();
        let dep = deps[rng.gen_range(0..deps.len())];
        let j = prog
            .stmts
            .iter()
            .position(|s| s.target == dep)
            .expect("dependency is defined in a well-formed program");
        assert!(j < i);
        let mut m = prog.clone();
        m.stmts.swap(i, j);
        let kind = reject(&m);
        assert!(
            matches!(kind, AnalyzeErrorKind::ForwardTempRef(_)),
            "{q}: wrong variant {kind:?}"
        );
        mutants += 1;
    }
    assert!(mutants >= 5, "only {mutants} reorder mutants exercised");
}

/// Does removing init entry `without` leave some edge rule with an
/// unproducible `src_tag`? (Same liveness fixpoint the analyzer runs.)
fn drop_breaks_liveness(spec: &MultiLfpSpec, without: usize) -> bool {
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
    let has_fixpoint =
        |p: &Plan| matches!(p, Plan::MultiLfp(s) if !s.init.is_empty() && !s.edges.is_empty());
    for (q, prog) in sqlgenr_corpus() {
        analyze_program_with(&prog, &edge_scan_schema)
            .unwrap_or_else(|e| panic!("pristine {q} must be well-formed: {e}"));
        let sites = count_sites(&prog, &has_fixpoint);
        if sites == 0 {
            continue;
        }
        let k = rng.gen_range(0..sites);
        let mut m = prog.clone();
        let mut applied = false;
        assert!(mutate_site(&mut m, &has_fixpoint, k, &mut |p| {
            if let Plan::MultiLfp(spec) = p {
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
        }));
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

    fn run(&self, ir: &mut ProgramIr, _stats: &mut OptStats) -> bool {
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
        optimize_with(&tr.program, OptLevel::Full, &passes)
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
