//! The rewrite passes of the optimizer pipeline.
//!
//! Each pass is one bottom-up sweep over the hash-consed DAG
//! ([`Dag::rewrite`]); the pipeline in [`crate::opt::optimize`] runs
//! the passes in a fixed order, repeating rounds until nothing changes.
//! Every rule is *count-safe*: it never increases the operator count the
//! paper's Table 5 measures (§5.2 — the whole point of the translation is a
//! bounded number of LFPs and joins), and rules that destructure a child
//! node fire only when that child has a single consumer
//! ([`super::ir::RewriteCtx::shared`]), so shared subplans are never
//! duplicated.

use super::ir::Dag;
use super::OptStats;
use crate::plan::{JoinKind, Pred};
use crate::program::Node;
use std::sync::Arc;

/// One optimizer pass: a named rewrite over the program IR.
///
/// Passes must be *semantics-preserving* (the exported program computes the
/// same result relation as the imported one, under the executor and under
/// every SQL dialect rendering) and *deterministic* (same input IR, same
/// output IR). [`Pass::run`] returns whether anything changed so the
/// pipeline can iterate to a fixpoint.
pub trait Pass {
    /// Stable pass name (reports, logs).
    fn name(&self) -> &'static str;
    /// Run one sweep; update `stats`; report whether the IR changed.
    fn run(&self, ir: &mut Dag, stats: &mut OptStats) -> bool;
}

/// The default deterministic pipeline, in application order.
pub fn default_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(SimplifyPredicates),
        Box::new(PushdownPredicates),
        Box::new(NarrowProjections),
    ]
}

/// Merge adjacent selections into one conjunction and fold repeated
/// conjuncts: `σ_p2(σ_p1(x)) → σ_{p1 ∧ p2}(x)` and `p ∧ p → p`.
pub struct SimplifyPredicates;

impl Pass for SimplifyPredicates {
    fn name(&self) -> &'static str {
        "simplify-predicates"
    }

    fn run(&self, ir: &mut Dag, stats: &mut OptStats) -> bool {
        let mut simplified = 0usize;
        let changed = ir.rewrite(&mut |ir, ctx, node| {
            let Node::Select { input, pred } = node else {
                return None;
            };
            let (pred2, folds) = simplify_pred(pred);
            // σ_p2(σ_p1(x)) = σ_{p1 ∧ p2}(x) — one operator instead of two
            if !ctx.shared(*input) {
                if let Node::Select {
                    input: inner,
                    pred: p1,
                } = ir.node(*input).clone()
                {
                    simplified += folds + 1;
                    return Some(Node::Select {
                        input: inner,
                        pred: Pred::And(Box::new(p1), Box::new(pred2)),
                    });
                }
            }
            if folds > 0 {
                simplified += folds;
                return Some(Node::Select {
                    input: *input,
                    pred: pred2,
                });
            }
            None
        });
        stats.preds_simplified += simplified;
        changed
    }
}

/// Fold `p ∧ p → p` throughout a predicate; returns the folded predicate
/// and how many folds fired.
fn simplify_pred(p: &Pred) -> (Pred, usize) {
    match p {
        Pred::And(a, b) => {
            let (a, na) = simplify_pred(a);
            let (b, nb) = simplify_pred(b);
            if a == b {
                (a, na + nb + 1)
            } else {
                (Pred::And(Box::new(a), Box::new(b)), na + nb)
            }
        }
        leaf => (leaf.clone(), 0),
    }
}

/// Push selections toward the data (§5.2's "pushing selections", applied
/// at the relational level): through projections (column remapping),
/// through `Distinct`, into the left side of semi/anti joins (their output
/// *is* the left schema), and into whichever side of an inner join the
/// predicate's columns fall on — the cheaper side evaluates the filter
/// before the join builds its hash table.
pub struct PushdownPredicates;

impl Pass for PushdownPredicates {
    fn name(&self) -> &'static str {
        "pushdown-predicates"
    }

    fn run(&self, ir: &mut Dag, stats: &mut OptStats) -> bool {
        let mut pushed = 0usize;
        let changed = ir.rewrite(&mut |ir, ctx, node| {
            let Node::Select { input, pred } = node else {
                return None;
            };
            if ctx.shared(*input) {
                return None;
            }
            match ir.node(*input).clone() {
                // σ_p(π_cols(x)) = π_cols(σ_{p∘cols}(x))
                Node::Project { input: inner, cols } => {
                    let remapped = remap_pred(pred, &|c| cols.get(c).map(|(i, _)| *i))?;
                    pushed += 1;
                    let sel = ir.intern(Node::Select {
                        input: inner,
                        pred: remapped,
                    });
                    Some(Node::Project { input: sel, cols })
                }
                // σ_p(δ(x)) = δ(σ_p(x)) — exact, including multiplicities
                Node::Distinct(inner) => {
                    pushed += 1;
                    let sel = ir.intern(Node::Select {
                        input: inner,
                        pred: pred.clone(),
                    });
                    Some(Node::Distinct(sel))
                }
                Node::Join {
                    left,
                    right,
                    on,
                    kind,
                } => {
                    let used = pred_cols(pred);
                    match kind {
                        // semi/anti output the left tuple unchanged, so the
                        // predicate only ever sees left columns
                        JoinKind::Semi | JoinKind::Anti => {
                            pushed += 1;
                            let l = ir.intern(Node::Select {
                                input: left,
                                pred: pred.clone(),
                            });
                            Some(Node::Join {
                                left: l,
                                right,
                                on,
                                kind,
                            })
                        }
                        JoinKind::Inner => {
                            let la = ir.arity(left)?;
                            if !used.is_empty() && used.iter().all(|&c| c < la) {
                                pushed += 1;
                                let l = ir.intern(Node::Select {
                                    input: left,
                                    pred: pred.clone(),
                                });
                                Some(Node::Join {
                                    left: l,
                                    right,
                                    on,
                                    kind,
                                })
                            } else if !used.is_empty() && used.iter().all(|&c| c >= la) {
                                let shifted = remap_pred(pred, &|c| c.checked_sub(la))?;
                                pushed += 1;
                                let r = ir.intern(Node::Select {
                                    input: right,
                                    pred: shifted,
                                });
                                Some(Node::Join {
                                    left,
                                    right: r,
                                    on,
                                    kind,
                                })
                            } else {
                                None
                            }
                        }
                    }
                }
                _ => None,
            }
        });
        stats.preds_pushed += pushed;
        changed
    }
}

/// Column indexes a predicate reads.
fn pred_cols(p: &Pred) -> Vec<usize> {
    let mut out = Vec::new();
    collect_pred_cols(p, &mut out);
    out
}

fn collect_pred_cols(p: &Pred, out: &mut Vec<usize>) {
    match p {
        Pred::ColEqValue(c, _) | Pred::ColEqText(c, _) => out.push(*c),
        Pred::And(a, b) => {
            collect_pred_cols(a, out);
            collect_pred_cols(b, out);
        }
    }
}

/// Rewrite every column index through `map`; `None` if any index has no
/// image (the rule then simply does not fire).
fn remap_pred(p: &Pred, map: &impl Fn(usize) -> Option<usize>) -> Option<Pred> {
    Some(match p {
        Pred::ColEqValue(c, v) => Pred::ColEqValue(map(*c)?, *v),
        Pred::ColEqText(c, text) => Pred::ColEqText(map(*c)?, Arc::clone(text)),
        Pred::And(a, b) => Pred::And(Box::new(remap_pred(a, map)?), Box::new(remap_pred(b, map)?)),
    })
}

/// Merge projection chains, drop redundant `Distinct`s, deduplicate and
/// flatten union branches:
/// `π_a(π_b(x)) → π_{a∘b}(x)`, `δ(δ(x)) → δ(x)`, `δ(set-producing) →
/// set-producing`, `∪_dist{…, x, …, x, …} → ∪_dist{…, x, …}`, and nested
/// unions flatten into their parent when set semantics allow.
pub struct NarrowProjections;

impl Pass for NarrowProjections {
    fn name(&self) -> &'static str {
        "narrow-projections"
    }

    fn run(&self, ir: &mut Dag, stats: &mut OptStats) -> bool {
        let mut narrowed = 0usize;
        let changed = ir.rewrite(&mut |ir, ctx, node| match node {
            Node::Project { input, cols } => {
                if ctx.shared(*input) {
                    return None;
                }
                if let Node::Project {
                    input: inner,
                    cols: cols1,
                } = ir.node(*input).clone()
                {
                    let merged: Option<Vec<(usize, String)>> = cols
                        .iter()
                        .map(|(i, name)| cols1.get(*i).map(|(j, _)| (*j, name.clone())))
                        .collect();
                    if let Some(cols2) = merged {
                        narrowed += 1;
                        return Some(Node::Project {
                            input: inner,
                            cols: cols2,
                        });
                    }
                }
                None
            }
            Node::Distinct(input) => {
                if ir.is_set_producing(*input) {
                    narrowed += 1;
                    return Some(ir.node(*input).clone());
                }
                None
            }
            Node::Union { inputs, distinct } => {
                // identical branches are redundant under set semantics
                if *distinct {
                    let mut seen = std::collections::HashSet::new();
                    let deduped: Vec<_> =
                        inputs.iter().copied().filter(|i| seen.insert(*i)).collect();
                    if deduped.len() < inputs.len() {
                        narrowed += inputs.len() - deduped.len();
                        return Some(Node::Union {
                            inputs: deduped,
                            distinct: *distinct,
                        });
                    }
                    // a single set-producing branch needs no union at all
                    if inputs.len() == 1 && ir.is_set_producing(inputs[0]) {
                        narrowed += 1;
                        return Some(ir.node(inputs[0]).clone());
                    }
                }
                // flatten a nested union when the parent's semantics absorb
                // it (bag into anything; set into set)
                let can_flatten = |ir: &Dag, c: u32| {
                    matches!(ir.node(c), Node::Union { distinct: d2, .. } if !*d2 || *distinct)
                };
                if inputs
                    .iter()
                    .any(|&c| !ctx.shared(c) && can_flatten(ir, c))
                {
                    let mut flat = Vec::with_capacity(inputs.len());
                    for &c in inputs {
                        if !ctx.shared(c) && can_flatten(ir, c) {
                            if let Node::Union { inputs: sub, .. } = ir.node(c) {
                                flat.extend(sub.iter().copied());
                                continue;
                            }
                        }
                        flat.push(c);
                    }
                    narrowed += 1;
                    return Some(Node::Union {
                        inputs: flat,
                        distinct: *distinct,
                    });
                }
                None
            }
            _ => None,
        });
        stats.projections_narrowed += narrowed;
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Plan;
    use crate::program::Program;
    use crate::value::Value;

    fn ir_of(prog: &Program) -> Dag {
        Dag::from_program(prog)
            .expect("test programs have a result")
            .0
    }

    /// The result statement's root node.
    fn single_plan(prog: &Program) -> &Node {
        prog.node(prog.stmts().last().unwrap().root)
    }

    #[test]
    fn pred_folding_rules() {
        let lit = || Pred::ColEqValue(0, Value::Id(1));
        let dup = Pred::And(Box::new(lit()), Box::new(lit()));
        assert_eq!(simplify_pred(&dup), (lit(), 1));
        let nested = Pred::And(Box::new(dup), Box::new(Pred::ColEqValue(2, Value::Doc)));
        assert_eq!(
            simplify_pred(&nested),
            (
                Pred::And(Box::new(lit()), Box::new(Pred::ColEqValue(2, Value::Doc))),
                1
            )
        );
    }

    #[test]
    fn adjacent_selects_merge() {
        let mut prog = Program::new();
        let t = prog.push(
            Plan::Scan("E".into())
                .select(Pred::ColEqValue(0, Value::Id(1)))
                .select(Pred::ColEqText(2, "v".into()))
                .select(Pred::ColEqValue(0, Value::Id(1))),
            "three selects",
        );
        prog.set_result(t);
        let mut ir = ir_of(&prog);
        let mut stats = OptStats::default();
        assert!(SimplifyPredicates.run(&mut ir, &mut stats));
        let out = ir.into_program();
        // one Select with the merged conjunction remains
        let selects = out
            .nodes()
            .iter()
            .filter(|n| matches!(n, Node::Select { .. }))
            .count();
        assert_eq!(selects, 1);
        assert!(stats.preds_simplified >= 2);
    }

    #[test]
    fn select_pushes_through_projection_with_remap() {
        let mut prog = Program::new();
        // π maps output col 0 ← input col 1; σ on output col 0 must become
        // σ on input col 1
        let t = prog.push(
            Plan::Scan("E".into())
                .project(vec![(1, "T")])
                .select(Pred::ColEqValue(0, Value::Id(7))),
            "σ over π",
        );
        prog.set_result(t);
        let mut ir = ir_of(&prog);
        let mut stats = OptStats::default();
        assert!(PushdownPredicates.run(&mut ir, &mut stats));
        assert_eq!(stats.preds_pushed, 1);
        let out = ir.into_program();
        match single_plan(&out) {
            Node::Project { input, .. } => match out.node(*input) {
                Node::Select { pred, .. } => {
                    assert_eq!(*pred, Pred::ColEqValue(1, Value::Id(7)));
                }
                other => panic!("expected Select below Project, got {other:?}"),
            },
            other => panic!("expected Project on top, got {other:?}"),
        }
    }

    #[test]
    fn select_pushes_into_semi_join_left() {
        let mut prog = Program::new();
        let t = prog.push(
            Plan::Scan("A".into())
                .semi_join(Plan::Scan("B".into()), 1, 0)
                .select(Pred::ColEqValue(0, Value::Doc)),
            "σ over ⋉",
        );
        prog.set_result(t);
        let mut ir = ir_of(&prog);
        let mut stats = OptStats::default();
        assert!(PushdownPredicates.run(&mut ir, &mut stats));
        let out = ir.into_program();
        match single_plan(&out) {
            Node::Join { left, kind, .. } => {
                assert_eq!(*kind, JoinKind::Semi);
                assert!(matches!(out.node(*left), Node::Select { .. }));
            }
            other => panic!("expected Join on top, got {other:?}"),
        }
    }

    #[test]
    fn inner_join_pushdown_needs_known_arity() {
        // left is a bare Scan (arity unknown): the rule must not fire
        let mut prog = Program::new();
        let t = prog.push(
            Plan::Scan("A".into())
                .join_on(Plan::Scan("B".into()), 1, 0)
                .select(Pred::ColEqValue(0, Value::Doc)),
            "σ over ⋈ of scans",
        );
        prog.set_result(t);
        let mut ir = ir_of(&prog);
        let mut stats = OptStats::default();
        PushdownPredicates.run(&mut ir, &mut stats);
        assert_eq!(stats.preds_pushed, 0);
        // with a projection giving the left side a known arity, it fires
        let mut prog = Program::new();
        let t = prog.push(
            Plan::Scan("A".into())
                .project(vec![(0, "F"), (1, "T")])
                .join_on(Plan::Scan("B".into()), 1, 0)
                .select(Pred::ColEqValue(0, Value::Doc)),
            "σ over ⋈ with known left arity",
        );
        prog.set_result(t);
        let mut ir = ir_of(&prog);
        let mut stats = OptStats::default();
        assert!(PushdownPredicates.run(&mut ir, &mut stats));
        assert_eq!(stats.preds_pushed, 1);
    }

    #[test]
    fn projection_chains_merge() {
        let mut prog = Program::new();
        let t = prog.push(
            Plan::Scan("E".into())
                .project(vec![(0, "F"), (1, "T"), (2, "V")])
                .project(vec![(2, "V"), (0, "F")])
                .project(vec![(1, "F")]),
            "π chain",
        );
        prog.set_result(t);
        let mut ir = ir_of(&prog);
        let mut stats = OptStats::default();
        assert!(NarrowProjections.run(&mut ir, &mut stats));
        let out = ir.into_program();
        match single_plan(&out) {
            Node::Project { input, cols } => {
                assert!(matches!(out.node(*input), Node::Scan(_)));
                // (1,F) ∘ [(2,V),(0,F)] ∘ [(0,F),(1,T),(2,V)] = col 0
                assert_eq!(cols.as_slice(), &[(0, "F".to_string())]);
            }
            other => panic!("expected a single merged Project, got {other:?}"),
        }
        assert!(stats.projections_narrowed >= 2);
    }

    #[test]
    fn redundant_distinct_and_duplicate_union_branches_fold() {
        let mut prog = Program::new();
        let branch = Plan::Scan("E".into()).project(vec![(0, "F")]);
        let t = prog.push(
            Plan::Distinct(Box::new(Plan::Union {
                inputs: vec![branch.clone(), branch],
                distinct: true,
            })),
            "δ over set union of twins",
        );
        prog.set_result(t);
        let mut ir = ir_of(&prog);
        let mut stats = OptStats::default();
        assert!(NarrowProjections.run(&mut ir, &mut stats));
        let out = ir.into_program();
        // δ(∪_dist{x,x}) → δ(∪_dist{x}) → the Distinct absorbs the
        // single-branch set union (which is itself set-producing)
        let counts = out.op_counts();
        assert_eq!(counts.unions, 0);
        assert!(counts.other <= 2, "distinct + projection at most");
    }

    #[test]
    fn nested_unions_flatten() {
        let mut prog = Program::new();
        let t = prog.push(
            Plan::Union {
                inputs: vec![
                    Plan::Union {
                        inputs: vec![Plan::Scan("A".into()), Plan::Scan("B".into())],
                        distinct: false,
                    },
                    Plan::Scan("C".into()),
                ],
                distinct: true,
            },
            "nested union",
        );
        prog.set_result(t);
        let mut ir = ir_of(&prog);
        let mut stats = OptStats::default();
        assert!(NarrowProjections.run(&mut ir, &mut stats));
        let out = ir.into_program();
        match single_plan(&out) {
            Node::Union { inputs, distinct } => {
                assert!(*distinct);
                assert_eq!(inputs.len(), 3, "flattened to one 3-way union");
            }
            other => panic!("expected flattened Union, got {other:?}"),
        }
    }

    #[test]
    fn shared_children_are_not_destructured() {
        // the projection feeds both the select AND the union directly; the
        // pushdown rule must leave it alone (firing would duplicate it)
        let mut prog = Program::new();
        let shared = prog.push(
            Plan::Scan("E".into()).project(vec![(0, "F"), (1, "T")]),
            "shared projection",
        );
        let t = prog.push(
            Plan::Union {
                inputs: vec![
                    Plan::Temp(shared).select(Pred::ColEqValue(0, Value::Doc)),
                    Plan::Temp(shared),
                ],
                distinct: true,
            },
            "uses the projection twice",
        );
        prog.set_result(t);
        let before = ir_of(&prog).into_program().op_counts();
        let mut ir = ir_of(&prog);
        let mut stats = OptStats::default();
        PushdownPredicates.run(&mut ir, &mut stats);
        let after = ir.into_program().op_counts();
        assert_eq!(stats.preds_pushed, 0, "shared child must not be rewritten");
        assert_eq!(before.total(), after.total());
    }
}
