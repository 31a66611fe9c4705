//! Static analysis over [`Program`]s: arity inference and well-formedness
//! verification.
//!
//! The translation emits a *sequence* of SQL'(LFP) statements whose
//! correctness rests on invariants nothing in the executor checks until it
//! is too late: column indexes in predicates, projections and join keys
//! must be in range, set-operation arms must agree on arity, and the
//! fixpoint operators must be shape-correct. This module verifies all of
//! that *statically* — before execution, before SQL rendering, and (under
//! `debug_assertions`) after every optimizer rewrite — and reports typed
//! diagnostics instead of panicking deep inside the columnar executor.
//! Dependency order needs no check: a program's arena holds every child
//! before its parent, so the analysis is one forward pass over the nodes
//! that stores an arity per node.
//!
//! # Arity inference
//!
//! Every check below reads one fact per node: its output arity, `None`
//! when the node rests on a base relation the catalog does not describe.
//! [`arity`] is the one rule, shared with the optimizer's
//! [`Dag`](crate::opt::Dag). An inner join adds its inputs' arities; a sum
//! past `usize::MAX` (a shared self-join ladder doubles per level) is
//! unknown, never a panic or a wrapped value.
//!
//! # What is checked
//!
//! * **Column ranges** — every column index appearing in a [`Pred`], a
//!   `Project`, a `Join::on` pair, an [`LfpSpec`] (`from_col`, `to_col`,
//!   push-seed column) or a [`MultiLfpEdge`](crate::plan::MultiLfpEdge) is
//!   in range of its input's
//!   inferred arity ([`AnalyzeErrorKind::ColumnOutOfRange`]).
//! * **Union arity** — every `Union` arm has the same arity
//!   ([`AnalyzeErrorKind::ArityMismatch`]).
//! * **Result reachability** — the program names a result
//!   ([`AnalyzeErrorKind::NoResult`]); statements the result does not
//!   transitively depend on are reported as non-fatal
//!   [`AnalyzeWarning::DeadStatement`]s.
//! * **Closure shapes** — fixpoint inputs have at least the two columns a
//!   closure needs ([`AnalyzeErrorKind::BadClosureShape`]); every
//!   `MultiLfp` edge rule's `src_tag` is *live*: producible by some init
//!   part or by a chain of producible edge rules
//!   ([`AnalyzeErrorKind::UnproducibleTag`]).
//!
//! Errors carry statement provenance (the temporary of the statement that
//! owns the offending node, and its
//! [`Stmt::comment`](crate::program::Stmt::comment)); see [`AnalyzeError`].
//!
//! # Entry points
//!
//! [`analyze_program`] treats every base-relation scan as unknown (arity
//! unchecked until it meets a known one); [`analyze_program_with`] takes
//! a catalog callback, and [`edge_scan_schema`] is the catalog for the
//! shredded edge databases used throughout this repo (every `R_*` relation
//! is `(F, T, V)`, arity 3).

use std::fmt;

use crate::fxhash::FxHashSet;
use crate::plan::{IntervalJoinSpec, JoinKind, LfpSpec, MultiLfpSpec, Pred};
use crate::program::{Node, NodeId, Program, TempId};

/// What went wrong, without provenance — see [`AnalyzeError`] for the
/// statement-level wrapper.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnalyzeErrorKind {
    /// A column index is out of range of its input's inferred arity.
    ColumnOutOfRange {
        /// Where the index appears (e.g. `"predicate"`, `"projection"`).
        context: String,
        /// The offending column index.
        col: usize,
        /// The input's inferred arity.
        arity: usize,
    },
    /// Two set-operation arms (or join-adjacent inputs) disagree on arity.
    ArityMismatch {
        /// Which operation (e.g. `"union arms"`).
        context: String,
        /// Arity of the first/left arm.
        left: usize,
        /// Arity of the offending arm.
        right: usize,
    },
    /// The program has no result statement.
    NoResult,
    /// A fixpoint input cannot be a closure: fewer than two columns.
    BadClosureShape(String),
    /// A `MultiLfp` edge rule's `src_tag` is produced by no init part and
    /// no live edge rule — the rule can never fire.
    UnproducibleTag(String),
}

impl fmt::Display for AnalyzeErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeErrorKind::ColumnOutOfRange {
                context,
                col,
                arity,
            } => write!(
                f,
                "column {col} out of range in {context} (input arity {arity})"
            ),
            AnalyzeErrorKind::ArityMismatch {
                context,
                left,
                right,
            } => write!(f, "arity mismatch in {context}: {left} vs {right}"),
            AnalyzeErrorKind::NoResult => write!(f, "program has no result statement"),
            AnalyzeErrorKind::BadClosureShape(what) => {
                write!(f, "fixpoint input is not closure-shaped: {what}")
            }
            AnalyzeErrorKind::UnproducibleTag(tag) => {
                write!(f, "multi-lfp edge rule has unproducible source tag '{tag}'")
            }
        }
    }
}

/// A fatal diagnostic with statement provenance: which statement (by
/// temporary) was ill-formed and its [`Stmt::comment`](crate::program::Stmt::comment).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnalyzeError {
    /// The offending statement; `None` for program-level errors
    /// ([`AnalyzeErrorKind::NoResult`]) and for nodes the optimizer has not
    /// assigned to a statement yet.
    pub stmt: Option<TempId>,
    /// The offending statement's comment (empty for program-level errors).
    pub comment: String,
    /// What went wrong.
    pub kind: AnalyzeErrorKind,
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.stmt {
            Some(t) if self.comment.is_empty() => {
                write!(f, "statement T{}: {}", t.0, self.kind)
            }
            Some(t) => write!(f, "statement T{} ({}): {}", t.0, self.comment, self.kind),
            None => write!(f, "{}", self.kind),
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// A non-fatal diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnalyzeWarning {
    /// A statement the result does not (transitively) depend on.
    DeadStatement {
        /// The statement's target temporary.
        stmt: TempId,
        /// The statement's comment.
        comment: String,
    },
}

impl fmt::Display for AnalyzeWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeWarning::DeadStatement { stmt, comment } => {
                if comment.is_empty() {
                    write!(f, "statement T{} is dead (result never reads it)", stmt.0)
                } else {
                    write!(
                        f,
                        "statement T{} ({comment}) is dead (result never reads it)",
                        stmt.0
                    )
                }
            }
        }
    }
}

/// The result of a successful analysis.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Inferred arity of every node, indexed by [`NodeId`]; a statement's
    /// is its root's.
    pub arities: Vec<Option<usize>>,
    /// Inferred arity of the program result.
    pub result: Option<usize>,
    /// Non-fatal diagnostics.
    pub warnings: Vec<AnalyzeWarning>,
}

/// The catalog for shredded edge databases ([`x2s_shred`]'s convention):
/// every relation named `R_*` — each per-type `R_A` plus the `R__nodes`
/// union — is `(F, T, V)`, arity 3. Anything else is unknown.
///
/// [`x2s_shred`]: crate
pub fn edge_scan_schema(name: &str) -> Option<usize> {
    name.starts_with("R_").then_some(3)
}

/// Analyze a program treating every base-relation scan as unknown.
pub fn analyze_program(prog: &Program) -> Result<Analysis, AnalyzeError> {
    analyze_program_with(prog, &|_| None)
}

/// Analyze a program against a base-relation catalog: `scan_arity` maps a
/// relation name to its arity (`None` when the relation is not in the
/// catalog).
pub fn analyze_program_with(
    prog: &Program,
    scan_arity: &dyn Fn(&str) -> Option<usize>,
) -> Result<Analysis, AnalyzeError> {
    let mut arities = Vec::with_capacity(prog.nodes().len());
    for (id, node) in prog.nodes().iter().enumerate() {
        check(node, &arities, scan_arity).map_err(|kind| {
            // the statement owning a node is the first whose root is not before it
            let t = prog.stmts().partition_point(|s| (s.root as usize) < id);
            AnalyzeError {
                stmt: Some(TempId(t as u32)),
                comment: prog.stmts()[t].comment.clone(),
                kind,
            }
        })?;
        arities.push(arity(node, &arities, scan_arity));
    }
    let result_temp = prog.result().ok_or(AnalyzeError {
        stmt: None,
        comment: String::new(),
        kind: AnalyzeErrorKind::NoResult,
    })?;
    let result = arities[prog.stmt(result_temp).root as usize];
    let warnings = prog
        .live_stmts(result_temp)
        .into_iter()
        .zip(prog.stmts())
        .enumerate()
        .filter(|(_, (live, _))| !live)
        .map(|(t, (_, s))| AnalyzeWarning::DeadStatement {
            stmt: TempId(t as u32),
            comment: s.comment.clone(),
        })
        .collect();
    Ok(Analysis {
        arities,
        result,
        warnings,
    })
}

/// The output arity of `node`, from its children's (`arities[c]`) and the
/// base-relation catalog `scan_arity`; `None` when unknown. The analyzer
/// and the optimizer's [`Dag`](crate::opt::Dag) both read arities off this
/// one rule.
pub fn arity(
    node: &Node,
    arities: &[Option<usize>],
    scan_arity: &dyn Fn(&str) -> Option<usize>,
) -> Option<usize> {
    let of = |c: &NodeId| arities[*c as usize];
    match node {
        Node::Scan(name) => scan_arity(name),
        Node::Values(rel) => Some(rel.arity()),
        Node::Select { input, .. } | Node::Distinct(input) => of(input),
        Node::Project { cols, .. } => Some(cols.len()),
        Node::Join {
            left, right, kind, ..
        } => match kind {
            JoinKind::Inner => of(left)?.checked_add(of(right)?),
            JoinKind::Semi | JoinKind::Anti => of(left),
        },
        Node::Union { inputs, .. } => inputs.iter().find_map(of),
        // closures are the binary (F, T); φ adds the tag column
        Node::Lfp(_) | Node::IntervalJoin(_) => Some(2),
        Node::MultiLfp(_) => Some(3),
    }
}

/// Check one node against its children's arities (`arities[c]`): the
/// column ranges, arm arities and closure shapes it must satisfy.
pub(crate) fn check(
    node: &Node,
    arities: &[Option<usize>],
    scan_arity: &dyn Fn(&str) -> Option<usize>,
) -> Result<(), AnalyzeErrorKind> {
    let of = |c: NodeId| arities[c as usize];
    match node {
        Node::Scan(_) | Node::Values(_) | Node::Distinct(_) => Ok(()),
        Node::Select { input, pred } => check_pred(pred, of(*input)),
        Node::Project { input, cols } => cols
            .iter()
            .try_for_each(|(i, _)| check_col(of(*input), *i, "projection")),
        Node::Join {
            left, right, on, ..
        } => {
            check_col(of(*left), on.0, "join key (left)")?;
            check_col(of(*right), on.1, "join key (right)")
        }
        Node::Union { inputs, .. } => check_arms(inputs.iter().map(|&i| of(i)), "union arms"),
        Node::Lfp(spec) => check_lfp(spec, of),
        Node::MultiLfp(spec) => check_multilfp(spec, of),
        Node::IntervalJoin(spec) => check_interval_join(spec, of(spec.left), scan_arity),
    }
}

/// Error unless `col` is in range of `arity` (when known).
fn check_col(arity: Option<usize>, col: usize, context: &str) -> Result<(), AnalyzeErrorKind> {
    match arity {
        Some(arity) if col >= arity => Err(AnalyzeErrorKind::ColumnOutOfRange {
            context: context.into(),
            col,
            arity,
        }),
        _ => Ok(()),
    }
}

/// Error unless a fixpoint input of known arity has the two columns a
/// closure needs.
fn check_closure(arity: Option<usize>, what: &str) -> Result<(), AnalyzeErrorKind> {
    match arity {
        Some(arity) if arity < 2 => Err(AnalyzeErrorKind::BadClosureShape(format!(
            "{what} has arity {arity}, need at least 2"
        ))),
        _ => Ok(()),
    }
}

/// Interval join: the probe column must be in range; the right side must
/// be a base relation of edge shape (arity ≥ 2, its `T` column supplies
/// the descendants).
fn check_interval_join(
    spec: &IntervalJoinSpec<NodeId>,
    left: Option<usize>,
    scan_arity: &dyn Fn(&str) -> Option<usize>,
) -> Result<(), AnalyzeErrorKind> {
    check_col(left, spec.left_col, "interval join probe column")?;
    let what = format!("interval join view relation {}", spec.right);
    check_closure(scan_arity(&spec.right), &what)
}

fn check_lfp(
    spec: &LfpSpec<NodeId>,
    of: impl Fn(NodeId) -> Option<usize>,
) -> Result<(), AnalyzeErrorKind> {
    let input = of(spec.input);
    check_closure(input, "LFP input")?;
    check_col(input, spec.from_col, "lfp from_col")?;
    check_col(input, spec.to_col, "lfp to_col")?;
    if let Some(push) = &spec.push {
        let (seeds, col) = push.input();
        check_col(of(*seeds), col, "lfp push seed column")?;
    }
    Ok(())
}

fn check_multilfp(
    spec: &MultiLfpSpec<NodeId>,
    of: impl Fn(NodeId) -> Option<usize>,
) -> Result<(), AnalyzeErrorKind> {
    for (_tag, part) in &spec.init {
        check_closure(of(*part), "multi-lfp init part")?;
    }
    // liveness fixpoint over the tag alphabet: a rule fires only if its
    // src_tag is produced by an init part or by another live rule
    let mut live: FxHashSet<&str> = spec.init.iter().map(|(t, _)| t.as_str()).collect();
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
    for e in &spec.edges {
        if !live.contains(e.src_tag.as_str()) {
            return Err(AnalyzeErrorKind::UnproducibleTag(e.src_tag.clone()));
        }
        check_closure(of(e.rel), "multi-lfp edge relation")?;
    }
    Ok(())
}

/// Set-operation arms of known arity must agree with the first known one.
fn check_arms(
    arms: impl Iterator<Item = Option<usize>>,
    context: &str,
) -> Result<(), AnalyzeErrorKind> {
    let mut first = None;
    for right in arms.flatten() {
        match first {
            None => first = Some(right),
            Some(left) if left != right => {
                return Err(AnalyzeErrorKind::ArityMismatch {
                    context: context.into(),
                    left,
                    right,
                })
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// Check every column index a predicate mentions against the input arity.
fn check_pred(pred: &Pred, arity: Option<usize>) -> Result<(), AnalyzeErrorKind> {
    match pred {
        Pred::ColEqValue(col, _) | Pred::ColEqText(col, _) => check_col(arity, *col, "predicate"),
        Pred::And(a, b) => {
            check_pred(a, arity)?;
            check_pred(b, arity)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{MultiLfpEdge, Plan, PushSpec};
    use crate::relation::Relation;
    use crate::value::Value;

    fn prog(stmts: Vec<(Plan, &str)>, result: Option<u32>) -> Program {
        let mut p = Program::new();
        for (plan, comment) in stmts {
            p.push(plan, comment);
        }
        if let Some(r) = result {
            p.set_result(TempId(r));
        }
        p
    }

    /// The arity `a` inferred for statement `t` of `p`.
    fn stmt_arity(a: &Analysis, p: &Program, t: u32) -> Option<usize> {
        a.arities[p.stmt(TempId(t)).root as usize]
    }

    fn edge_scan(name: &str) -> Plan {
        Plan::Scan(name.to_string())
    }

    #[test]
    fn edge_catalog_schemas() {
        assert_eq!(edge_scan_schema("R_course"), Some(3));
        assert_eq!(
            edge_scan_schema("R__nodes"),
            Some(3),
            "the all-nodes union relation"
        );
        assert_eq!(edge_scan_schema("whatever"), None);
    }

    #[test]
    fn infers_through_the_answer_shape() {
        // the e2sql answer shape: Distinct(π_T(σ_{F=Doc}(R_A)))
        let p = prog(
            vec![
                (edge_scan("R_a"), "scan"),
                (
                    Plan::Distinct(Box::new(
                        Plan::Temp(TempId(0))
                            .select(Pred::ColEqValue(0, Value::Doc))
                            .project(vec![(1, "T")]),
                    )),
                    "answer",
                ),
            ],
            Some(1),
        );
        let a = analyze_program_with(&p, &edge_scan_schema).expect("well-formed");
        assert_eq!(a.result, Some(1));
        assert!(a.warnings.is_empty());
        assert_eq!(stmt_arity(&a, &p, 0), Some(3));
        // e2sql's empty constant (`CVal::empty`): no rows, still two columns
        let empty = prog(vec![(Plan::Values(Relation::new(2)), "empty")], Some(0));
        let a = analyze_program(&empty).expect("well-formed");
        assert_eq!(a.result, Some(2));
    }

    #[test]
    fn rejects_predicate_column_out_of_range() {
        let p = prog(
            vec![(
                edge_scan("R_a").select(Pred::ColEqValue(9, Value::Doc)),
                "bad pred",
            )],
            Some(0),
        );
        let e = analyze_program_with(&p, &edge_scan_schema).expect_err("must reject");
        assert!(matches!(
            e.kind,
            AnalyzeErrorKind::ColumnOutOfRange {
                col: 9,
                arity: 3,
                ..
            }
        ));
        assert_eq!(e.stmt, Some(TempId(0)));
        assert!(e.to_string().contains("bad pred"), "{e}");
    }

    #[test]
    fn rejects_projection_column_out_of_range() {
        let p = prog(
            vec![(edge_scan("R_a").project(vec![(5, "X")]), "bad proj")],
            Some(0),
        );
        let e = analyze_program_with(&p, &edge_scan_schema).expect_err("must reject");
        assert!(matches!(
            e.kind,
            AnalyzeErrorKind::ColumnOutOfRange { col: 5, .. }
        ));
    }

    #[test]
    fn unknown_scans_defer_checks_until_projected() {
        // scans of unknown relations can't be range-checked…
        let ok = prog(
            vec![(
                Plan::Scan("mystery".into()).select(Pred::ColEqValue(9, Value::Doc)),
                "",
            )],
            Some(0),
        );
        assert!(analyze_program(&ok).is_ok());
        // …but a projection pins the arity downstream
        let bad = prog(
            vec![(
                Plan::Scan("mystery".into())
                    .project(vec![(0, "A")])
                    .select(Pred::ColEqValue(1, Value::Doc)),
                "",
            )],
            Some(0),
        );
        let e = analyze_program(&bad).expect_err("projection fixed the arity");
        assert!(matches!(
            e.kind,
            AnalyzeErrorKind::ColumnOutOfRange {
                col: 1,
                arity: 1,
                ..
            }
        ));
    }

    #[test]
    fn rejects_union_arity_mismatch() {
        let p = prog(
            vec![(
                Plan::Union {
                    inputs: vec![edge_scan("R_a"), edge_scan("R_b").project(vec![(1, "T")])],
                    distinct: true,
                },
                "arms",
            )],
            Some(0),
        );
        let e = analyze_program_with(&p, &edge_scan_schema).expect_err("must reject");
        assert!(matches!(
            e.kind,
            AnalyzeErrorKind::ArityMismatch {
                left: 3,
                right: 1,
                ..
            }
        ));
    }

    #[test]
    fn rejects_missing_and_unknown_result() {
        let none = prog(vec![(edge_scan("R_a"), "")], None);
        assert_eq!(
            analyze_program(&none).expect_err("no result").kind,
            AnalyzeErrorKind::NoResult
        );
        // a result no statement produces cannot even be set
        let dangling = std::panic::catch_unwind(|| prog(vec![(edge_scan("R_a"), "")], Some(7)));
        assert!(dangling.is_err(), "set_result refuses an unknown temporary");
    }

    #[test]
    fn warns_on_dead_statements() {
        let p = prog(
            vec![
                (edge_scan("R_a"), "used"),
                (edge_scan("R_b"), "never read"),
                (Plan::Distinct(Box::new(Plan::Temp(TempId(0)))), "answer"),
            ],
            Some(2),
        );
        let a = analyze_program_with(&p, &edge_scan_schema).expect("well-formed");
        assert_eq!(
            a.warnings,
            vec![AnalyzeWarning::DeadStatement {
                stmt: TempId(1),
                comment: "never read".into(),
            }]
        );
    }

    #[test]
    fn lfp_schema_and_checks() {
        let good = prog(
            vec![(
                Plan::Lfp(LfpSpec {
                    input: Box::new(edge_scan("R_a")),
                    from_col: 0,
                    to_col: 1,
                    push: None,
                }),
                "closure",
            )],
            Some(0),
        );
        let a = analyze_program_with(&good, &edge_scan_schema).expect("well-formed");
        assert_eq!(a.result, Some(2));

        let bad_col = prog(
            vec![(
                Plan::Lfp(LfpSpec {
                    input: Box::new(edge_scan("R_a")),
                    from_col: 0,
                    to_col: 7,
                    push: None,
                }),
                "",
            )],
            Some(0),
        );
        let e = analyze_program_with(&bad_col, &edge_scan_schema).expect_err("must reject");
        assert!(matches!(
            e.kind,
            AnalyzeErrorKind::ColumnOutOfRange { col: 7, .. }
        ));

        let unary = prog(
            vec![(
                Plan::Lfp(LfpSpec {
                    input: Box::new(edge_scan("R_a").project(vec![(1, "T")])),
                    from_col: 0,
                    to_col: 0,
                    push: None,
                }),
                "",
            )],
            Some(0),
        );
        let e = analyze_program_with(&unary, &edge_scan_schema).expect_err("must reject");
        assert!(matches!(e.kind, AnalyzeErrorKind::BadClosureShape(_)));
    }

    #[test]
    fn lfp_push_seed_column_checked() {
        let p = prog(
            vec![(
                Plan::Lfp(LfpSpec {
                    input: Box::new(edge_scan("R_a")),
                    from_col: 0,
                    to_col: 1,
                    push: Some(PushSpec::Forward {
                        seeds: Box::new(edge_scan("R_b").project(vec![(1, "T")])),
                        col: 3,
                    }),
                }),
                "",
            )],
            Some(0),
        );
        let e = analyze_program_with(&p, &edge_scan_schema).expect_err("must reject");
        assert!(matches!(
            e.kind,
            AnalyzeErrorKind::ColumnOutOfRange {
                col: 3,
                arity: 1,
                ..
            }
        ));
    }

    fn multilfp(init: Vec<(&str, Plan)>, edges: Vec<(&str, &str, Plan)>) -> Plan {
        Plan::MultiLfp(MultiLfpSpec {
            init: init.into_iter().map(|(t, p)| (t.to_string(), p)).collect(),
            edges: edges
                .into_iter()
                .map(|(s, d, rel)| MultiLfpEdge {
                    src_tag: s.to_string(),
                    dst_tag: d.to_string(),
                    rel,
                })
                .collect(),
        })
    }

    #[test]
    fn multilfp_schema_and_tag_liveness() {
        // b is produced by init; c only via the b→c rule — both live
        let good = prog(
            vec![(
                multilfp(
                    vec![("b", edge_scan("R_b").project(vec![(0, "S"), (1, "T")]))],
                    vec![("b", "c", edge_scan("R_c")), ("c", "b", edge_scan("R_b"))],
                ),
                "fixpoint",
            )],
            Some(0),
        );
        let a = analyze_program_with(&good, &edge_scan_schema).expect("well-formed");
        assert_eq!(a.result, Some(3));

        // z is produced by nothing: its rule can never fire
        let dead = prog(
            vec![(
                multilfp(
                    vec![("b", edge_scan("R_b").project(vec![(0, "S"), (1, "T")]))],
                    vec![("z", "b", edge_scan("R_b"))],
                ),
                "",
            )],
            Some(0),
        );
        let e = analyze_program_with(&dead, &edge_scan_schema).expect_err("must reject");
        assert_eq!(e.kind, AnalyzeErrorKind::UnproducibleTag("z".into()));
    }

    #[test]
    fn multilfp_empty_fixpoint_is_legal() {
        let p = prog(vec![(multilfp(vec![], vec![]), "empty")], Some(0));
        let a = analyze_program(&p).expect("an empty fixpoint is just empty");
        assert_eq!(a.result, Some(3));
    }

    #[test]
    fn join_schemas_concatenate_and_check_keys() {
        let p = prog(
            vec![(
                edge_scan("R_a").join_on(edge_scan("R_b").project(vec![(1, "T")]), 1, 0),
                "join",
            )],
            Some(0),
        );
        let a = analyze_program_with(&p, &edge_scan_schema).expect("well-formed");
        assert_eq!(a.result, Some(4), "inner join concatenates");

        let bad = prog(
            vec![(edge_scan("R_a").semi_join(edge_scan("R_b"), 0, 8), "")],
            Some(0),
        );
        let e = analyze_program_with(&bad, &edge_scan_schema).expect_err("must reject");
        assert!(matches!(
            e.kind,
            AnalyzeErrorKind::ColumnOutOfRange { col: 8, .. }
        ));
        // semi join keeps the left schema
        let semi = prog(
            vec![(edge_scan("R_a").semi_join(edge_scan("R_b"), 1, 0), "")],
            Some(0),
        );
        let a = analyze_program_with(&semi, &edge_scan_schema).expect("well-formed");
        assert_eq!(a.result, Some(3));
    }

    #[test]
    fn error_display_carries_provenance() {
        let e = AnalyzeError {
            stmt: Some(TempId(4)),
            comment: "rec(a, b)".into(),
            kind: AnalyzeErrorKind::UnproducibleTag("c".into()),
        };
        let s = e.to_string();
        assert!(
            s.contains("T4") && s.contains("rec(a, b)") && s.contains("'c'"),
            "{s}"
        );
        let p = analyze_program(&Program::new()).unwrap_err();
        assert_eq!(p.to_string(), "program has no result statement");
    }

    #[test]
    fn self_join_ladder_arity_is_exact_until_it_overflows() {
        // Arity doubles per level: the top join of a shared 40-level ladder
        // has 2⁴¹ columns, which one number per node holds exactly, in
        // time linear in program size.
        let mut p = Program::new();
        let mut t = p.push(edge_scan("R_a").project(vec![(0, "F"), (1, "T")]), "base");
        for i in 0..40 {
            t = p.push(Plan::Temp(t).join_on(Plan::Temp(t), 1, 0), format!("J{i}"));
        }
        p.set_result(t);
        let a = analyze_program_with(&p, &edge_scan_schema).expect("well-formed");
        assert_eq!(a.result, Some(1 << 41));
        assert_eq!(stmt_arity(&a, &p, 1), Some(4));
        // at 64 levels the sum passes usize::MAX: unknown, not a panic
        for i in 40..64 {
            t = p.push(Plan::Temp(t).join_on(Plan::Temp(t), 1, 0), format!("J{i}"));
        }
        p.set_result(t);
        let a = analyze_program_with(&p, &edge_scan_schema).expect("well-formed");
        assert_eq!(a.result, None);
    }
}
