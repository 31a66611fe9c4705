//! The simple LFP operator `Φ(R)` (paper §3.3, Eq. 2):
//!
//! ```text
//! R0 ← R
//! Ri ← R(i−1) ∪ (R(i−1) ⋈C R0)
//! ```
//!
//! i.e. the transitive closure (paths of length ≥ 1) of a single edge
//! relation — the "low-end" recursion that Oracle's `CONNECT BY`, DB2's
//! `WITH…RECURSIVE` over one table, and SQL Server common table expressions
//! all provide (Fig. 4).
//!
//! Two refinements from §5.2 are implemented here:
//!
//! * **semi-naive iteration** — each round extends only the previous
//!   round's *delta* (what real engines do, and what `CONNECT BY` is). It
//!   is the only closure loop: the join body of `Φ(R)` distributes over
//!   union, so the delta iteration computes exactly what the paper's
//!   literal Eq. 2 (re-joining the whole accumulated relation each round)
//!   would, with less work per round (Afanasiev et al., PAPERS.md);
//! * **pushed selections** — `push(R1, R0)` restricts the closure to pairs
//!   whose source is in a seed set (forward) or whose target is in a target
//!   set (backward), so the fixpoint "only traverses paths starting from
//!   [the selected] children" instead of the whole graph.
//!
//! The iteration itself runs over interned `u32` node codes with packed
//! `u64` pair keys (see [`crate::intern`]) — the counterpart of the
//! integer-keyed indexes the paper's DB2 setup would use.

use crate::exec::ExecCtx;
use crate::fxhash::{fx_set_with_capacity, FxHashSet};
use crate::intern::{pack, unpack, Interner};
use crate::multimap::Csr;
use crate::plan::{LfpSpec, PushSpec};
use crate::program::NodeId;
use crate::relation::Relation;

/// Evaluate `Φ(R)`: closure pairs `(F, T)` over `edges`, the relation of
/// `spec.input`, restricted to the relation `push` of `spec.push`'s seeds or
/// targets when there is one.
pub(crate) fn eval_lfp(
    spec: &LfpSpec<NodeId>,
    edges: &Relation,
    push: Option<&Relation>,
    ctx: &mut ExecCtx<'_>,
) -> Result<Relation, crate::ExecError> {
    ctx.stats.lfp_invocations += 1;

    let mut interner = Interner::new();
    let backward = matches!(spec.push, Some(PushSpec::Backward { .. }));

    // Restriction set (interned codes); None = unrestricted.
    let restrict: Option<FxHashSet<u32>> = match (&spec.push, push) {
        (Some(p), Some(rel)) => {
            let col = p.input().1;
            Some(rel.rows().map(|t| interner.intern(&t[col])).collect())
        }
        _ => None,
    };

    // Adjacency over interned codes: forward (f→t) normally, reversed when
    // chasing backward from targets. Built once per invocation — the
    // stand-in for the paper's indexes on all joined attributes.
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(edges.len());
    for t in edges.rows() {
        let f = interner.intern(&t[spec.from_col]);
        let to = interner.intern(&t[spec.to_col]);
        pairs.push((f, to));
    }
    let heads = Csr::build(
        interner.len(),
        pairs
            .iter()
            .map(|&(f, to)| if backward { (to, f) } else { (f, to) }),
    );

    let mut closure: FxHashSet<u64> = fx_set_with_capacity(pairs.len() * 2);
    let mut frontier: Vec<(u32, u32)> = Vec::new();
    for &(f, t) in &pairs {
        let keep = match &restrict {
            None => true,
            Some(set) => set.contains(if backward { &t } else { &f }),
        };
        if keep && closure.insert(pack(f, t)) {
            frontier.push((f, t));
        }
    }
    while !frontier.is_empty() {
        // Per-round frontier boundary: the cancellation checkpoint the
        // inflationary-fixpoint analysis calls for — one round bounds the
        // overshoot past a deadline or budget.
        ctx.check_cancel()?;
        ctx.opts.check_closure(closure.len())?;
        ctx.stats.lfp_iterations += 1;
        ctx.stats.joins += 1; // one join per iteration: Δ ⋈ R0
        ctx.stats.unions += 1; // one union per iteration: R ∪ new
        let mut next = Vec::new();
        for &(x, y) in &frontier {
            // forward: extend y by an out-edge; backward: extend x by an in-edge
            let probe = if backward { x } else { y };
            for &z in heads.neighbors(probe) {
                let (nf, nt) = if backward { (z, y) } else { (x, z) };
                if closure.insert(pack(nf, nt)) {
                    next.push((nf, nt));
                }
            }
        }
        frontier = next;
    }

    ctx.stats.lfp_peak_closure = ctx.stats.lfp_peak_closure.max(closure.len());
    let mut out = Relation::new(2);
    out.reserve(closure.len());
    for &key in &closure {
        let (f, t) = unpack(key);
        out.push_row(&[*interner.resolve(f), *interner.resolve(t)]);
    }
    ctx.stats.tuples_emitted += out.len() as u64;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Database, ExecError, ExecOptions};
    use crate::plan::Plan;
    use crate::program::Program;
    use crate::stats::Stats;
    use crate::value::Value;
    use std::collections::HashSet;

    /// Run `Φ` per `spec` as the one statement of a program.
    fn exec_lfp(db: &Database, spec: &LfpSpec, opts: ExecOptions) -> Result<Relation, ExecError> {
        let mut prog = Program::new();
        let t = prog.push(Plan::Lfp(spec.clone()), "Φ");
        prog.set_result(t);
        prog.execute(db, opts, &mut Stats::default())
    }

    fn edge_rel(pairs: &[(u32, u32)]) -> Relation {
        let mut r = Relation::new(2);
        for &(f, t) in pairs {
            r.push(vec![Value::Id(f), Value::Id(t)]);
        }
        r
    }

    fn run_lfp(pairs: &[(u32, u32)], push: Option<PushSpec>) -> (Relation, Stats) {
        let mut db = Database::new();
        db.insert("E", edge_rel(pairs));
        let spec = LfpSpec {
            input: Box::new(Plan::Scan("E".into())),
            from_col: 0,
            to_col: 1,
            push,
        };
        let mut prog = Program::new();
        let t = prog.push(Plan::Lfp(spec), "Φ");
        prog.set_result(t);
        let mut stats = Stats::default();
        let rel = prog
            .execute(&db, ExecOptions::default(), &mut stats)
            .unwrap();
        (rel, stats)
    }

    fn pairs_of(rel: &Relation) -> HashSet<(u32, u32)> {
        rel.rows()
            .map(|t| (t[0].as_id().unwrap(), t[1].as_id().unwrap()))
            .collect()
    }

    /// Reference closure for validation.
    fn reference_closure(pairs: &[(u32, u32)]) -> HashSet<(u32, u32)> {
        let nodes: HashSet<u32> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
        let mut reach: HashSet<(u32, u32)> = pairs.iter().copied().collect();
        loop {
            let mut added = false;
            for &(a, b) in reach.clone().iter() {
                for &c in &nodes {
                    if reach.contains(&(b, c)) && reach.insert((a, c)) {
                        added = true;
                    }
                }
            }
            if !added {
                break;
            }
        }
        reach
    }

    #[test]
    fn chain_closure() {
        let (rel, stats) = run_lfp(&[(1, 2), (2, 3), (3, 4)], None);
        assert_eq!(pairs_of(&rel), reference_closure(&[(1, 2), (2, 3), (3, 4)]));
        assert_eq!(stats.lfp_invocations, 1);
        assert!(stats.lfp_iterations >= 2);
    }

    #[test]
    fn cyclic_closure_terminates() {
        let edges = [(1, 2), (2, 1), (2, 3)];
        let (rel, _) = run_lfp(&edges, None);
        let expect = reference_closure(&edges);
        assert_eq!(pairs_of(&rel), expect);
        assert!(pairs_of(&rel).contains(&(1, 1)), "cycle gives (1,1)");
    }

    #[test]
    fn forward_push_restricts_sources() {
        let edges = [(1, 2), (2, 3), (9, 2)];
        let mut seeds = Relation::new(1);
        seeds.push(vec![Value::Id(1)]);
        let push = PushSpec::Forward {
            seeds: Box::new(Plan::Values(seeds)),
            col: 0,
        };
        let (rel, _) = run_lfp(&edges, Some(push));
        assert_eq!(pairs_of(&rel), HashSet::from([(1, 2), (1, 3)]));
    }

    #[test]
    fn backward_push_restricts_targets() {
        let edges = [(1, 2), (2, 3), (2, 4)];
        let mut targets = Relation::new(1);
        targets.push(vec![Value::Id(3)]);
        let push = PushSpec::Backward {
            targets: Box::new(Plan::Values(targets)),
            col: 0,
        };
        let (rel, _) = run_lfp(&edges, Some(push));
        assert_eq!(pairs_of(&rel), HashSet::from([(2, 3), (1, 3)]));
    }

    #[test]
    fn pushes_agree_with_post_filtering() {
        let edges = [(1, 2), (2, 3), (3, 1), (2, 4), (4, 4), (5, 1)];
        let full = reference_closure(&edges);
        // forward from {2}
        let mut seeds = Relation::new(1);
        seeds.push(vec![Value::Id(2)]);
        let (rel, _) = run_lfp(
            &edges,
            Some(PushSpec::Forward {
                seeds: Box::new(Plan::Values(seeds)),
                col: 0,
            }),
        );
        let expect: HashSet<(u32, u32)> = full.iter().copied().filter(|&(f, _)| f == 2).collect();
        assert_eq!(pairs_of(&rel), expect);
        // backward into {1}
        let mut targets = Relation::new(1);
        targets.push(vec![Value::Id(1)]);
        let (rel, _) = run_lfp(
            &edges,
            Some(PushSpec::Backward {
                targets: Box::new(Plan::Values(targets)),
                col: 0,
            }),
        );
        let expect: HashSet<(u32, u32)> = full.iter().copied().filter(|&(_, t)| t == 1).collect();
        assert_eq!(pairs_of(&rel), expect);
    }

    /// Seeded random graphs with repeated edges, self-loops and cycles: the
    /// closure over the CSR adjacency equals [`reference_closure`] —
    /// unrestricted, forward from seeds (adjacency as listed) and backward
    /// into targets (adjacency reversed).
    #[test]
    fn random_graph_closures_equal_the_reference() {
        let mut x = 0xC105_u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for (nodes, edge_count) in [(1u64, 2usize), (12, 20), (40, 70)] {
            let edges: Vec<(u32, u32)> = (0..edge_count)
                .map(|_| ((next() % nodes) as u32, (next() % nodes) as u32))
                .collect();
            let full = reference_closure(&edges);
            // restriction nodes: two from the graph, one outside it
            let picked = [(next() % nodes) as u32, (next() % nodes) as u32, 999];
            let mut rel = Relation::new(1);
            for &v in &picked {
                rel.push(vec![Value::Id(v)]);
            }
            let (all, _) = run_lfp(&edges, None);
            assert_eq!(pairs_of(&all), full, "{nodes} nodes");
            assert_eq!(all.len(), full.len(), "a set: no pair twice");
            let forward = PushSpec::Forward {
                seeds: Box::new(Plan::Values(rel.clone())),
                col: 0,
            };
            let (fwd, _) = run_lfp(&edges, Some(forward));
            let expect: HashSet<(u32, u32)> = full
                .iter()
                .copied()
                .filter(|(f, _)| picked.contains(f))
                .collect();
            assert_eq!(pairs_of(&fwd), expect, "forward, {nodes} nodes");
            let backward = PushSpec::Backward {
                targets: Box::new(Plan::Values(rel)),
                col: 0,
            };
            let (bwd, _) = run_lfp(&edges, Some(backward));
            let expect: HashSet<(u32, u32)> = full
                .iter()
                .copied()
                .filter(|(_, t)| picked.contains(t))
                .collect();
            assert_eq!(pairs_of(&bwd), expect, "backward, {nodes} nodes");
        }
    }

    /// The cooperative token aborts the fixpoint at a round boundary: an
    /// already-expired deadline, a closure budget, and a tuple budget each
    /// produce their typed error instead of a completed closure.
    #[test]
    fn cancellation_token_aborts_closure() {
        let db = Database::new();
        let edges = edge_rel(&[(1, 2), (2, 3), (3, 1)]);
        // `eval_lfp` is called on its own so the only checks that can fail
        // are the closure loop's per-round ones.
        let spec: LfpSpec<NodeId> = LfpSpec {
            input: 0,
            from_col: 0,
            to_col: 1,
            push: None,
        };
        let run = |opts: ExecOptions| {
            // the statement producing the edges has emitted them, so
            // `tuples_emitted` is non-zero before the first round check.
            let mut stats = Stats {
                tuples_emitted: edges.len() as u64,
                ..Stats::default()
            };
            let mut ctx = ExecCtx {
                db: &db,
                opts,
                stats: &mut stats,
            };
            eval_lfp(&spec, &edges, None, &mut ctx)
        };
        let base = ExecOptions::default();
        let err = run(base.with_deadline(std::time::Instant::now())).unwrap_err();
        assert_eq!(err, ExecError::DeadlineExceeded);
        let err = run(base.with_closure_budget(1)).unwrap_err();
        assert!(
            matches!(err, ExecError::BudgetExceeded(_)),
            "closure budget"
        );
        let err = run(base.with_tuple_budget(1)).unwrap_err();
        assert!(matches!(err, ExecError::BudgetExceeded(_)), "tuple budget");
        // generous limits don't disturb the result
        let ok = run(base
            .with_timeout(std::time::Duration::from_secs(60))
            .with_tuple_budget(1 << 30)
            .with_closure_budget(1 << 20))
        .unwrap();
        assert_eq!(pairs_of(&ok), reference_closure(&[(1, 2), (2, 3), (3, 1)]));
    }

    #[test]
    fn empty_input_yields_empty() {
        let (rel, stats) = run_lfp(&[], None);
        assert!(rel.is_empty());
        assert_eq!(stats.lfp_invocations, 1);
    }

    #[test]
    fn closure_over_mixed_value_types() {
        // closure works over Doc/Id mixtures (the '_' marker participates)
        let mut db = Database::new();
        let mut r = Relation::new(2);
        r.push(vec![Value::Doc, Value::Id(1)]);
        r.push(vec![Value::Id(1), Value::Id(2)]);
        db.insert("E", r);
        let spec = LfpSpec {
            input: Box::new(Plan::Scan("E".into())),
            from_col: 0,
            to_col: 1,
            push: None,
        };
        let rel = exec_lfp(&db, &spec, ExecOptions::default()).unwrap();
        assert_eq!(rel.len(), 3);
        assert!(rel
            .rows()
            .any(|t| t[0] == Value::Doc && t[1] == Value::Id(2)));
    }
}
