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
//!   round's *delta* (what real engines do); the paper's literal Eq. 2
//!   (re-joining the whole accumulated relation) is available as
//!   [`crate::ExecOptions::naive_fixpoint`] for ablation;
//! * **pushed selections** — `push(R1, R0)` restricts the closure to pairs
//!   whose source is in a seed set (forward) or whose target is in a target
//!   set (backward), so the fixpoint "only traverses paths starting from
//!   [the selected] children" instead of the whole graph.
//!
//! The iteration itself runs over interned `u32` node codes with packed
//! `u64` pair keys (see [`crate::intern`]) — the counterpart of the
//! integer-keyed indexes the paper's DB2 setup would use.

use crate::exec::{eval_plan, ExecCtx};
use crate::fxhash::{fx_set_with_capacity, FxHashSet};
use crate::intern::{pack, unpack, Interner};
use crate::multimap::Csr;
use crate::plan::{LfpSpec, PushSpec};
use crate::relation::Relation;
use std::thread;

/// Frontier size above which a semi-naive round with
/// [`crate::ExecOptions::threads`] > 1 expands the frontier on multiple
/// scoped threads. Each round is a barrier: workers read the closure
/// snapshot of the previous round and their candidate deltas are merged into
/// the shared closure between rounds, so small frontiers stay on the exact
/// single-thread path.
pub const PARALLEL_LFP_THRESHOLD: usize = 4_096;

/// Evaluate `Φ(R)`: closure pairs `(F, T)` over the edge set produced by
/// `spec.input`, possibly seed-/target-restricted.
pub fn eval_lfp<'a>(
    spec: &'a LfpSpec,
    ctx: &mut ExecCtx<'a>,
) -> Result<Relation, crate::ExecError> {
    let edges = eval_plan(&spec.input, ctx)?;
    ctx.stats.lfp_invocations += 1;

    let mut interner = Interner::new();
    let backward = matches!(spec.push, Some(PushSpec::Backward { .. }));

    // Restriction set (interned codes); None = unrestricted.
    let restrict: Option<FxHashSet<u32>> = match &spec.push {
        None => None,
        Some(PushSpec::Forward { seeds, col }) => {
            let rel = eval_plan(seeds, ctx)?;
            Some(rel.rows().map(|t| interner.intern(&t[*col])).collect())
        }
        Some(PushSpec::Backward { targets, col }) => {
            let rel = eval_plan(targets, ctx)?;
            Some(rel.rows().map(|t| interner.intern(&t[*col])).collect())
        }
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

    if ctx.opts.naive_fixpoint {
        naive_closure(&pairs, &heads, restrict.as_ref(), backward, &interner, ctx)
    } else {
        semi_naive_closure(&pairs, &heads, restrict.as_ref(), backward, &interner, ctx)
    }
}

fn emit(closure: &FxHashSet<u64>, interner: &Interner, ctx: &mut ExecCtx<'_>) -> Relation {
    ctx.stats.lfp_peak_closure = ctx.stats.lfp_peak_closure.max(closure.len());
    let mut out = Relation::new(vec!["F".into(), "T".into()]);
    out.reserve(closure.len());
    for &key in closure {
        let (f, t) = unpack(key);
        out.push_row(&[interner.resolve(f).clone(), interner.resolve(t).clone()]);
    }
    ctx.stats.tuples_emitted += out.len() as u64;
    out
}

fn semi_naive_closure(
    pairs: &[(u32, u32)],
    heads: &Csr,
    restrict: Option<&FxHashSet<u32>>,
    backward: bool,
    interner: &Interner,
    ctx: &mut ExecCtx<'_>,
) -> Result<Relation, crate::ExecError> {
    let mut closure: FxHashSet<u64> = fx_set_with_capacity(pairs.len() * 2);
    let mut frontier: Vec<(u32, u32)> = Vec::new();
    for &(f, t) in pairs {
        let keep = match restrict {
            None => true,
            Some(set) => set.contains(if backward { &t } else { &f }),
        };
        if keep && closure.insert(pack(f, t)) {
            frontier.push((f, t));
        }
    }
    let threads = ctx.opts.threads.max(1);
    while !frontier.is_empty() {
        // Per-round frontier boundary: the cancellation checkpoint the
        // inflationary-fixpoint analysis calls for — one round bounds the
        // overshoot past a deadline or budget.
        ctx.check_cancel()?;
        ctx.opts.check_closure(closure.len())?;
        crate::failpoint::hit("lfp-round-sleep");
        ctx.stats.lfp_iterations += 1;
        ctx.stats.joins += 1; // one join per iteration: Δ ⋈ R0
        ctx.stats.unions += 1; // one union per iteration: R ∪ new
        let mut next = Vec::new();
        if threads > 1 && frontier.len() >= PARALLEL_LFP_THRESHOLD {
            // Partitioned delta expansion: each worker extends a chunk of
            // the frontier against the closure as of the *previous* round
            // (read-only), pre-filtering already-known pairs; the merge into
            // the shared closure below is the per-round barrier and
            // deduplicates candidates produced by different workers.
            let chunk = frontier.len().div_ceil(threads);
            let candidates: Vec<Vec<(u32, u32)>> = thread::scope(|s| {
                let closure = &closure;
                let handles: Vec<_> = frontier
                    .chunks(chunk)
                    .map(|part| {
                        s.spawn(move || {
                            let mut local = Vec::new();
                            for &(x, y) in part {
                                let probe = if backward { x } else { y };
                                for &z in heads.neighbors(probe) {
                                    let (nf, nt) = if backward { (z, y) } else { (x, z) };
                                    if !closure.contains(&pack(nf, nt)) {
                                        local.push((nf, nt));
                                    }
                                }
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(v) => v,
                        Err(payload) => std::panic::resume_unwind(payload),
                    })
                    .collect()
            });
            for list in candidates {
                for (nf, nt) in list {
                    if closure.insert(pack(nf, nt)) {
                        next.push((nf, nt));
                    }
                }
            }
        } else {
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
        }
        frontier = next;
    }
    Ok(emit(&closure, interner, ctx))
}

/// The paper's literal Eq. 2: re-join the whole accumulated relation with
/// R0 each round until nothing changes (ablation mode).
fn naive_closure(
    pairs: &[(u32, u32)],
    heads: &Csr,
    restrict: Option<&FxHashSet<u32>>,
    backward: bool,
    interner: &Interner,
    ctx: &mut ExecCtx<'_>,
) -> Result<Relation, crate::ExecError> {
    // Backward restriction is applied at the end in naive mode (the naive
    // operator joins blindly, matching the black-box reading of Eq. 2).
    let forward_restrict = if backward { None } else { restrict };
    let mut closure: FxHashSet<u64> = FxHashSet::default();
    for &(f, t) in pairs {
        let keep = forward_restrict.is_none_or(|set| set.contains(&f));
        if keep {
            closure.insert(pack(f, t));
        }
    }
    loop {
        ctx.check_cancel()?;
        ctx.opts.check_closure(closure.len())?;
        crate::failpoint::hit("lfp-round-sleep");
        ctx.stats.lfp_iterations += 1;
        ctx.stats.joins += 1;
        ctx.stats.unions += 1;
        let mut fresh = Vec::new();
        for &key in &closure {
            let (x, y) = unpack(key);
            let probe = if backward { x } else { y };
            for &z in heads.neighbors(probe) {
                let nk = if backward { pack(z, y) } else { pack(x, z) };
                if !closure.contains(&nk) {
                    fresh.push(nk);
                }
            }
        }
        if fresh.is_empty() {
            break;
        }
        closure.extend(fresh);
    }
    if backward {
        if let Some(set) = restrict {
            closure.retain(|&key| set.contains(&unpack(key).1));
        }
    }
    Ok(emit(&closure, interner, ctx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Database, ExecOptions};
    use crate::plan::Plan;
    use crate::program::TempId;
    use crate::stats::Stats;
    use crate::value::Value;
    use std::collections::{HashMap as Map, HashSet};

    fn edge_rel(pairs: &[(u32, u32)]) -> Relation {
        let mut r = Relation::new(vec!["F".into(), "T".into()]);
        for &(f, t) in pairs {
            r.push(vec![Value::Id(f), Value::Id(t)]);
        }
        r
    }

    fn run_lfp_threads(
        pairs: &[(u32, u32)],
        push: Option<PushSpec>,
        naive: bool,
        threads: usize,
    ) -> (Relation, Stats) {
        let mut db = Database::new();
        db.insert("E", edge_rel(pairs));
        let spec = LfpSpec {
            input: Box::new(Plan::Scan("E".into())),
            from_col: 0,
            to_col: 1,
            push,
        };
        let env: Map<TempId, Relation> = Map::new();
        let mut stats = Stats::default();
        let mut ctx = ExecCtx {
            db: &db,
            env: &env,
            opts: ExecOptions {
                naive_fixpoint: naive,
                lazy: true,
                threads,
                ..ExecOptions::default()
            },
            stats: &mut stats,
        };
        let rel = eval_lfp(&spec, &mut ctx).unwrap();
        (rel, stats)
    }

    fn run_lfp(pairs: &[(u32, u32)], push: Option<PushSpec>, naive: bool) -> (Relation, Stats) {
        run_lfp_threads(pairs, push, naive, 1)
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
        let (rel, stats) = run_lfp(&[(1, 2), (2, 3), (3, 4)], None, false);
        assert_eq!(pairs_of(&rel), reference_closure(&[(1, 2), (2, 3), (3, 4)]));
        assert_eq!(stats.lfp_invocations, 1);
        assert!(stats.lfp_iterations >= 2);
    }

    #[test]
    fn cyclic_closure_terminates() {
        let edges = [(1, 2), (2, 1), (2, 3)];
        let (rel, _) = run_lfp(&edges, None, false);
        let expect = reference_closure(&edges);
        assert_eq!(pairs_of(&rel), expect);
        assert!(pairs_of(&rel).contains(&(1, 1)), "cycle gives (1,1)");
    }

    #[test]
    fn naive_equals_semi_naive() {
        let edges = [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5)];
        let (a, _) = run_lfp(&edges, None, false);
        let (b, _) = run_lfp(&edges, None, true);
        assert!(a.set_eq(&b));
    }

    #[test]
    fn forward_push_restricts_sources() {
        let edges = [(1, 2), (2, 3), (9, 2)];
        let mut seeds = Relation::new(vec!["S".into()]);
        seeds.push(vec![Value::Id(1)]);
        let push = PushSpec::Forward {
            seeds: Box::new(Plan::Values(seeds)),
            col: 0,
        };
        let (rel, _) = run_lfp(&edges, Some(push), false);
        assert_eq!(pairs_of(&rel), HashSet::from([(1, 2), (1, 3)]));
    }

    #[test]
    fn backward_push_restricts_targets() {
        let edges = [(1, 2), (2, 3), (2, 4)];
        let mut targets = Relation::new(vec!["X".into()]);
        targets.push(vec![Value::Id(3)]);
        let push = PushSpec::Backward {
            targets: Box::new(Plan::Values(targets)),
            col: 0,
        };
        let (rel, _) = run_lfp(&edges, Some(push), false);
        assert_eq!(pairs_of(&rel), HashSet::from([(2, 3), (1, 3)]));
    }

    #[test]
    fn pushes_agree_with_post_filtering() {
        let edges = [(1, 2), (2, 3), (3, 1), (2, 4), (4, 4), (5, 1)];
        let full = reference_closure(&edges);
        // forward from {2}
        let mut seeds = Relation::new(vec!["S".into()]);
        seeds.push(vec![Value::Id(2)]);
        let (rel, _) = run_lfp(
            &edges,
            Some(PushSpec::Forward {
                seeds: Box::new(Plan::Values(seeds)),
                col: 0,
            }),
            false,
        );
        let expect: HashSet<(u32, u32)> = full.iter().copied().filter(|&(f, _)| f == 2).collect();
        assert_eq!(pairs_of(&rel), expect);
        // backward into {1}
        for naive in [false, true] {
            let mut targets = Relation::new(vec!["X".into()]);
            targets.push(vec![Value::Id(1)]);
            let (rel, _) = run_lfp(
                &edges,
                Some(PushSpec::Backward {
                    targets: Box::new(Plan::Values(targets)),
                    col: 0,
                }),
                naive,
            );
            let expect: HashSet<(u32, u32)> =
                full.iter().copied().filter(|&(_, t)| t == 1).collect();
            assert_eq!(pairs_of(&rel), expect, "naive={naive}");
        }
    }

    /// Partitioned frontier expansion must produce exactly the same closure
    /// (and the same per-round stats) as the single-thread path, on a graph
    /// large enough that rounds cross [`PARALLEL_LFP_THRESHOLD`].
    #[test]
    fn parallel_closure_matches_single_thread() {
        // a wide bipartite-ish random graph: frontier explodes past the
        // threshold in round one
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for _ in 0..12_000 {
            edges.push(((step() % 300) as u32, (step() % 300) as u32));
        }
        let (seq, seq_stats) = run_lfp_threads(&edges, None, false, 1);
        let (par, par_stats) = run_lfp_threads(&edges, None, false, 4);
        assert!(seq.set_eq(&par), "parallel closure differs");
        assert_eq!(seq.len(), par.len(), "same pair count (sets, no dupes)");
        assert_eq!(seq_stats.lfp_iterations, par_stats.lfp_iterations);
        assert_eq!(seq_stats.joins, par_stats.joins);

        // pushed variants agree too, both directions
        let mut seeds = Relation::new(vec!["S".into()]);
        for v in [0u32, 7, 13] {
            seeds.push(vec![Value::Id(v)]);
        }
        let fwd = |threads| {
            run_lfp_threads(
                &edges,
                Some(PushSpec::Forward {
                    seeds: Box::new(Plan::Values(seeds.clone())),
                    col: 0,
                }),
                false,
                threads,
            )
            .0
        };
        assert!(fwd(1).set_eq(&fwd(4)));
        let bwd = |threads| {
            run_lfp_threads(
                &edges,
                Some(PushSpec::Backward {
                    targets: Box::new(Plan::Values(seeds.clone())),
                    col: 0,
                }),
                false,
                threads,
            )
            .0
        };
        assert!(bwd(1).set_eq(&bwd(4)));
    }

    /// Satellite oracle (ISSUE 3): naive == semi-naive == unpushed-then-
    /// filtered, for forward and backward pushes, on graphs with cycles.
    /// (The cross-crate version over shredded sample documents lives in
    /// `tests/lfp_push_parity.rs`.)
    #[test]
    fn naive_and_semi_naive_push_parity() {
        let edges = [
            (1u32, 2u32),
            (2, 3),
            (3, 1),
            (2, 4),
            (4, 4),
            (5, 1),
            (6, 7),
            (4, 6),
        ];
        let full = reference_closure(&edges);
        for naive in [false, true] {
            for restrict in [vec![2u32], vec![1, 4], vec![9]] {
                let mut rel = Relation::new(vec!["S".into()]);
                for &v in &restrict {
                    rel.push(vec![Value::Id(v)]);
                }
                let (fwd, _) = run_lfp(
                    &edges,
                    Some(PushSpec::Forward {
                        seeds: Box::new(Plan::Values(rel.clone())),
                        col: 0,
                    }),
                    naive,
                );
                let expect: HashSet<(u32, u32)> = full
                    .iter()
                    .copied()
                    .filter(|(f, _)| restrict.contains(f))
                    .collect();
                assert_eq!(pairs_of(&fwd), expect, "forward naive={naive}");
                let (bwd, _) = run_lfp(
                    &edges,
                    Some(PushSpec::Backward {
                        targets: Box::new(Plan::Values(rel)),
                        col: 0,
                    }),
                    naive,
                );
                let expect: HashSet<(u32, u32)> = full
                    .iter()
                    .copied()
                    .filter(|(_, t)| restrict.contains(t))
                    .collect();
                assert_eq!(pairs_of(&bwd), expect, "backward naive={naive}");
            }
        }
    }

    /// Seeded random graphs with repeated edges, self-loops and cycles: the
    /// closure over the CSR adjacency equals [`reference_closure`] —
    /// unrestricted, forward from seeds (adjacency as listed) and backward
    /// into targets (adjacency reversed), semi-naive and naive.
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
            let mut rel = Relation::new(vec!["N".into()]);
            for &v in &picked {
                rel.push(vec![Value::Id(v)]);
            }
            for naive in [false, true] {
                let (all, _) = run_lfp(&edges, None, naive);
                assert_eq!(pairs_of(&all), full, "{nodes} nodes, naive={naive}");
                assert_eq!(all.len(), full.len(), "a set: no pair twice");
                let forward = PushSpec::Forward {
                    seeds: Box::new(Plan::Values(rel.clone())),
                    col: 0,
                };
                let (fwd, _) = run_lfp(&edges, Some(forward), naive);
                let expect: HashSet<(u32, u32)> = full
                    .iter()
                    .copied()
                    .filter(|(f, _)| picked.contains(f))
                    .collect();
                assert_eq!(pairs_of(&fwd), expect, "forward, naive={naive}");
                let backward = PushSpec::Backward {
                    targets: Box::new(Plan::Values(rel.clone())),
                    col: 0,
                };
                let (bwd, _) = run_lfp(&edges, Some(backward), naive);
                let expect: HashSet<(u32, u32)> = full
                    .iter()
                    .copied()
                    .filter(|(_, t)| picked.contains(t))
                    .collect();
                assert_eq!(pairs_of(&bwd), expect, "backward, naive={naive}");
            }
        }
    }

    /// The cooperative token aborts the fixpoint at a round boundary: an
    /// already-expired deadline, a closure budget, and a tuple budget each
    /// produce their typed error instead of a completed closure — in both
    /// semi-naive and naive modes.
    #[test]
    fn cancellation_token_aborts_closure() {
        let mut db = Database::new();
        db.insert("E", edge_rel(&[(1, 2), (2, 3), (3, 1)]));
        let spec = LfpSpec {
            // Select(True) re-emits the edges so `tuples_emitted` is
            // non-zero before the first round check.
            input: Box::new(Plan::Scan("E".into()).select(crate::plan::Pred::True)),
            from_col: 0,
            to_col: 1,
            push: None,
        };
        let env: Map<TempId, Relation> = Map::new();
        let run = |opts: ExecOptions| {
            let mut stats = Stats::default();
            let mut ctx = ExecCtx {
                db: &db,
                env: &env,
                opts,
                stats: &mut stats,
            };
            eval_lfp(&spec, &mut ctx)
        };
        for naive in [false, true] {
            let base = ExecOptions {
                naive_fixpoint: naive,
                ..ExecOptions::default()
            };
            let err = run(base.with_deadline(std::time::Instant::now())).unwrap_err();
            assert_eq!(err, crate::ExecError::DeadlineExceeded, "naive={naive}");
            let err = run(base.with_closure_budget(1)).unwrap_err();
            assert!(
                matches!(err, crate::ExecError::BudgetExceeded(_)),
                "naive={naive}: closure budget"
            );
            let err = run(base.with_tuple_budget(1)).unwrap_err();
            assert!(
                matches!(err, crate::ExecError::BudgetExceeded(_)),
                "naive={naive}: tuple budget"
            );
            // generous limits don't disturb the result
            let ok = run(base
                .with_timeout(std::time::Duration::from_secs(60))
                .with_tuple_budget(1 << 30)
                .with_closure_budget(1 << 20))
            .unwrap();
            assert_eq!(pairs_of(&ok), reference_closure(&[(1, 2), (2, 3), (3, 1)]));
        }
    }

    #[test]
    fn empty_input_yields_empty() {
        let (rel, stats) = run_lfp(&[], None, false);
        assert!(rel.is_empty());
        assert_eq!(stats.lfp_invocations, 1);
    }

    #[test]
    fn closure_over_mixed_value_types() {
        // closure works over Doc/Id mixtures (the '_' marker participates)
        let mut db = Database::new();
        let mut r = Relation::new(vec!["F".into(), "T".into()]);
        r.push(vec![Value::Doc, Value::Id(1)]);
        r.push(vec![Value::Id(1), Value::Id(2)]);
        db.insert("E", r);
        let spec = LfpSpec {
            input: Box::new(Plan::Scan("E".into())),
            from_col: 0,
            to_col: 1,
            push: None,
        };
        let env: Map<TempId, Relation> = Map::new();
        let mut stats = Stats::default();
        let mut ctx = ExecCtx {
            db: &db,
            env: &env,
            opts: ExecOptions::default(),
            stats: &mut stats,
        };
        let rel = eval_lfp(&spec, &mut ctx).unwrap();
        assert_eq!(rel.len(), 3);
        assert!(rel
            .rows()
            .any(|t| t[0] == Value::Doc && t[1] == Value::Id(2)));
    }
}
