//! The paper's two recursion operators, closed by one delta-driven loop:
//!
//! ```text
//! Φ(R):           R0 ← R;  Ri ← R(i−1) ∪ (R(i−1) ⋈C R0)                       (§3.3, Eq. 2)
//! φ(R, R₁…R_k):   R0 ← R;  Ri ← R(i−1) ∪ (R(i−1) ⋈C1 R1) ∪ · · · ∪ (R(i−1) ⋈Ck Rk)  (§3.1, Eq. 1)
//! ```
//!
//! `Φ` is the transitive closure of one edge relation — the "low-end"
//! recursion of Oracle's `CONNECT BY` and DB2's single-table `WITH…RECURSIVE`
//! (Fig. 4). `φ` is what SQL'99 `WITH…RECURSIVE` needs for a
//! strongly-connected component with k edges (Fig. 2): each tuple carries an
//! `Rid` tag naming the relation its reached node belongs to, and every round
//! pays k joins and k unions. Only the SQLGen-R baseline \[39\] emits it.
//!
//! Both are a closure of `(origin, state)` pairs over one state graph, run by
//! [`close`] over dense `u32` codes with packed `u64` pair keys:
//!
//! * for `Φ` a state is a node. A pushed selection (§5.2) restricts the
//!   init pairs to a seed set (forward), or closes the reversed edges
//!   forward from a target set (backward);
//! * for `φ` a state is `node · k + tag` over its k distinct tags: rule `j`
//!   is the arc `(a, src_j) → (b, dst_j)` per edge `(a, b)` of `R_j`.
//!   Tuples are `(S, T, Rid)` with the tag as its code in the store's
//!   dictionary; a tag the dictionary lacks is [`ExecError::UncodedTag`].
//!
//! Each round extends only the previous round's new pairs. Every rule body
//! distributes over union, so this reaches exactly the pairs the literal
//! equations reach, in the same number of rounds (Afanasiev et al.,
//! PAPERS.md).

use crate::exec::{ExecCtx, ExecError};
use crate::fxhash::{fx_set_with_capacity, FxHashMap, FxHashSet};
use crate::multimap::Csr;
use crate::plan::{LfpSpec, MultiLfpSpec, PushSpec};
use crate::program::NodeId;
use crate::relation::Relation;
use crate::stats::Stats;
use crate::value::Value;

/// Dense `u32` codes for the values one invocation touches.
#[derive(Default)]
struct Codes {
    codes: FxHashMap<Value, u32>,
    values: Vec<Value>,
}

impl Codes {
    fn code(&mut self, v: &Value) -> u32 {
        let values = &mut self.values;
        *self.codes.entry(*v).or_insert_with(|| {
            values.push(*v);
            (values.len() - 1) as u32
        })
    }

    fn value(&self, code: u32) -> Value {
        self.values[code as usize]
    }
}

fn pack(a: u32, b: u32) -> u64 {
    (u64::from(a) << 32) | u64::from(b)
}

fn unpack(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// Close the `(origin, state)` pairs of `init` under `arcs`: `(o, s)` reaches
/// `(o, t)` for every arc `s → t`. A round prices `rules` joins and unions
/// and counts on `iterations`; it starts at the one cancellation and
/// closure-budget checkpoint, which bounds the overshoot past a deadline.
///
/// Each pair is keyed `pack(origin, state)`, or `pack(state, origin)` when
/// `arcs` are `reversed`, so a key is always the input's `(F, T)`: FxHash
/// places a key by its low half alone, and in a hierarchy a `T` has few
/// ancestors where an `F` may have thousands of descendants.
fn close(
    init: impl Iterator<Item = (u32, u32)>,
    capacity: usize,
    arcs: &Csr,
    reversed: bool,
    rules: usize,
    iterations: fn(&mut Stats) -> &mut usize,
    ctx: &mut ExecCtx<'_>,
) -> Result<FxHashSet<u64>, ExecError> {
    let key = |o, s| if reversed { pack(s, o) } else { pack(o, s) };
    let mut closure: FxHashSet<u64> = fx_set_with_capacity(capacity);
    let mut frontier: Vec<(u32, u32)> = init.filter(|&(o, s)| closure.insert(key(o, s))).collect();
    while !frontier.is_empty() {
        ctx.check_cancel()?;
        ctx.opts.check_closure(closure.len())?;
        *iterations(ctx.stats) += 1;
        ctx.stats.joins += rules;
        ctx.stats.unions += rules;
        let mut probes = 0;
        let mut next = Vec::new();
        for &(origin, state) in &frontier {
            let reached = arcs.neighbors(state);
            probes += reached.len() as u64;
            for &to in reached {
                if closure.insert(key(origin, to)) {
                    next.push((origin, to));
                }
            }
        }
        ctx.stats.fixpoint_probes += probes;
        frontier = next;
    }
    ctx.stats.lfp_peak_closure = ctx.stats.lfp_peak_closure.max(closure.len());
    Ok(closure)
}

/// Evaluate `Φ(R)`: closure pairs `(F, T)` over `edges`, the relation of
/// `spec.input`, restricted to the relation `push` of `spec.push`'s seeds or
/// targets when there is one.
pub(crate) fn eval_lfp(
    spec: &LfpSpec<NodeId>,
    edges: &Relation,
    push: Option<&Relation>,
    ctx: &mut ExecCtx<'_>,
) -> Result<Relation, ExecError> {
    ctx.stats.lfp_invocations += 1;
    let mut codes = Codes::default();
    let restrict: Option<FxHashSet<u32>> = spec.push.as_ref().zip(push).map(|(p, rel)| {
        let col = p.input().1;
        rel.rows().map(|t| codes.code(&t[col])).collect()
    });
    let (from, to) = (spec.from_col, spec.to_col);
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(edges.len());
    let rows = edges.rows();
    pairs.extend(rows.map(|t| (codes.code(&t[from]), codes.code(&t[to]))));
    // a backward push closes the reversed edges forward from its targets
    let backward = matches!(spec.push, Some(PushSpec::Backward { .. }));
    let orient = |&(f, t): &(u32, u32)| if backward { (t, f) } else { (f, t) };
    let arcs = Csr::build(codes.values.len(), pairs.iter().map(orient));
    let init = (pairs.iter().map(orient))
        .filter(|(source, _)| restrict.as_ref().is_none_or(|r| r.contains(source)));
    let rounds: fn(&mut Stats) -> &mut usize = |s| &mut s.lfp_iterations;
    let closure = close(init, pairs.len() * 2, &arcs, backward, 1, rounds, ctx)?;

    let mut out = Relation::new(2);
    out.reserve(closure.len());
    for &key in &closure {
        let (f, t) = unpack(key);
        out.push_row(&[codes.value(f), codes.value(t)]);
    }
    ctx.stats.tuples_emitted += out.len() as u64;
    Ok(out)
}

/// The state of `node` under tag `tag` of `k`; a code past `u32` is an error
/// rather than a wrap onto another state.
fn state(node: u32, k: u32, tag: u32) -> Result<u32, ExecError> {
    let past = || ExecError::BudgetExceeded(format!("φ state of node {node} × {k} tags past u32"));
    let state = node.checked_mul(k).and_then(|s| s.checked_add(tag));
    state.ok_or_else(past)
}

/// `name`'s index in `tags`, appended if new.
fn tag_index<'s>(tags: &mut Vec<&'s str>, name: &'s str) -> u32 {
    let at = tags.iter().position(|t| *t == name).unwrap_or_else(|| {
        tags.push(name);
        tags.len() - 1
    });
    at as u32
}

/// Evaluate the multi-relation fixpoint; `input` gives the relation of each
/// init part and edge rule.
pub(crate) fn eval_multilfp<'r>(
    spec: &MultiLfpSpec<NodeId>,
    input: impl Fn(NodeId) -> &'r Relation,
    ctx: &mut ExecCtx<'_>,
) -> Result<Relation, ExecError> {
    ctx.stats.multilfp_invocations += 1;
    let mut tags: Vec<&str> = Vec::new();
    let mut rule_tags = Vec::new();
    for e in &spec.edges {
        rule_tags.push((
            tag_index(&mut tags, &e.src_tag),
            tag_index(&mut tags, &e.dst_tag),
        ));
    }
    let mut init_tags = Vec::new();
    for (tag, _) in &spec.init {
        init_tags.push(tag_index(&mut tags, tag));
    }
    let k = tags.len() as u32;

    let mut nodes = Codes::default();
    let mut arcs: Vec<(u32, u32)> = Vec::new();
    for (e, &(src, dst)) in spec.edges.iter().zip(&rule_tags) {
        for t in input(e.rel).rows() {
            let (a, b) = (nodes.code(&t[0]), nodes.code(&t[1]));
            arcs.push((state(a, k, src)?, state(b, k, dst)?));
        }
    }
    let arcs = Csr::build(nodes.values.len() * k as usize, arcs.iter().copied());
    let mut init: Vec<(u32, u32)> = Vec::new();
    for ((_, part), &tag) in spec.init.iter().zip(&init_tags) {
        for t in input(*part).rows() {
            let origin = nodes.code(&t[0]);
            init.push((origin, state(nodes.code(&t[1]), k, tag)?));
        }
    }
    let rounds: fn(&mut Stats) -> &mut usize = |s| &mut s.multilfp_iterations;
    let rules = spec.edges.len();
    let closure = close(init.into_iter(), 0, &arcs, false, rules, rounds, ctx)?;

    // each tag's cell; only a tag that reaches the output needs a code
    let cells: Vec<Option<Value>> = tags
        .iter()
        .map(|tag| ctx.db.dict().code_of(tag).map(Value::Code))
        .collect();
    let mut out = Relation::new(3);
    out.reserve(closure.len());
    for key in closure {
        let (origin, state) = unpack(key);
        let tag = (state % k) as usize;
        let cell = cells[tag].ok_or_else(|| ExecError::UncodedTag(tags[tag].to_string()))?;
        out.push_row(&[nodes.value(origin), nodes.value(state / k), cell]);
    }
    ctx.stats.tuples_emitted += out.len() as u64;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Database, ExecOptions};
    use crate::plan::{MultiLfpEdge, Plan};
    use crate::program::Program;
    use std::collections::{HashMap, HashSet, VecDeque};

    fn edge_rel(pairs: &[(u32, u32)]) -> Relation {
        let mut r = Relation::new(2);
        for &(f, t) in pairs {
            r.push(vec![Value::Id(f), Value::Id(t)]);
        }
        r
    }

    /// Run `plan` as the one statement of a program.
    fn run_plan(db: &Database, plan: Plan) -> Result<(Relation, Stats), ExecError> {
        let mut prog = Program::new();
        let t = prog.push(plan, "fixpoint");
        prog.set_result(t);
        let mut stats = Stats::default();
        let rel = prog.execute(db, ExecOptions::default(), &mut stats)?;
        Ok((rel, stats))
    }

    /// The rounds a fixpoint runs when its deepest pair is first reached in
    /// round `deepest`: one more, to find nothing new; none on empty input.
    fn rounds(deepest: Option<usize>) -> usize {
        deepest.map_or(0, |r| r + 1)
    }

    // ---- Φ ----

    fn run_lfp(pairs: &[(u32, u32)], push: Option<PushSpec>) -> (Relation, Stats) {
        let mut db = Database::new();
        db.insert("E", edge_rel(pairs));
        let spec = LfpSpec {
            input: Box::new(Plan::Scan("E".into())),
            from_col: 0,
            to_col: 1,
            push,
        };
        run_plan(&db, Plan::Lfp(spec)).unwrap()
    }

    fn pairs_of(rel: &Relation) -> HashSet<(u32, u32)> {
        rel.rows()
            .map(|t| (t[0].as_id().unwrap(), t[1].as_id().unwrap()))
            .collect()
    }

    /// Reference closure: Eq. 2 literally, `Ri ← R(i−1) ∪ (R(i−1) ⋈ R0)`
    /// with the whole accumulated relation re-joined each round. Returns the
    /// pairs `keep` selects and the round that first reaches the deepest of
    /// them (`pairs` themselves are round 0).
    fn reference_closure(
        pairs: &[(u32, u32)],
        keep: impl Fn(u32, u32) -> bool,
    ) -> (HashSet<(u32, u32)>, Option<usize>) {
        let mut round_of: HashMap<(u32, u32), usize> = pairs.iter().map(|&p| (p, 0)).collect();
        for round in 1.. {
            let joined: Vec<(u32, u32)> = round_of
                .keys()
                .flat_map(|&(a, b)| {
                    pairs
                        .iter()
                        .filter(move |e| e.0 == b)
                        .map(move |e| (a, e.1))
                })
                .collect();
            let before = round_of.len();
            for pair in joined {
                round_of.entry(pair).or_insert(round);
            }
            if round_of.len() == before {
                break;
            }
        }
        round_of.retain(|&(f, t), _| keep(f, t));
        let deepest = round_of.values().max().copied();
        (round_of.into_keys().collect(), deepest)
    }

    fn full_closure(pairs: &[(u32, u32)]) -> HashSet<(u32, u32)> {
        reference_closure(pairs, |_, _| true).0
    }

    #[test]
    fn chain_closure() {
        let (rel, stats) = run_lfp(&[(1, 2), (2, 3), (3, 4)], None);
        assert_eq!(pairs_of(&rel), full_closure(&[(1, 2), (2, 3), (3, 4)]));
        assert_eq!(stats.lfp_invocations, 1);
        assert!(stats.lfp_iterations >= 2);
    }

    #[test]
    fn cyclic_closure_terminates() {
        let edges = [(1, 2), (2, 1), (2, 3)];
        let (rel, _) = run_lfp(&edges, None);
        let expect = full_closure(&edges);
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
        let full = full_closure(&edges);
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
    /// into targets (adjacency reversed) — and takes as many rounds as the
    /// literal Eq. 2 takes to reach its deepest pair, plus the one that
    /// finds nothing new.
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
            // restriction nodes: two from the graph, one outside it
            let picked = [(next() % nodes) as u32, (next() % nodes) as u32, 999];
            let mut rel = Relation::new(1);
            for &v in &picked {
                rel.push(vec![Value::Id(v)]);
            }
            let (all, stats) = run_lfp(&edges, None);
            let (full, deepest) = reference_closure(&edges, |_, _| true);
            assert_eq!(pairs_of(&all), full, "{nodes} nodes");
            assert_eq!(all.len(), full.len(), "a set: no pair twice");
            assert_eq!(stats.lfp_iterations, rounds(deepest), "{nodes} nodes");
            let forward = PushSpec::Forward {
                seeds: Box::new(Plan::Values(rel.clone())),
                col: 0,
            };
            let (fwd, stats) = run_lfp(&edges, Some(forward));
            let (expect, deepest) = reference_closure(&edges, |f, _| picked.contains(&f));
            assert_eq!(pairs_of(&fwd), expect, "forward, {nodes} nodes");
            assert_eq!(stats.lfp_iterations, rounds(deepest), "forward");
            let backward = PushSpec::Backward {
                targets: Box::new(Plan::Values(rel)),
                col: 0,
            };
            let (bwd, stats) = run_lfp(&edges, Some(backward));
            let (expect, deepest) = reference_closure(&edges, |_, t| picked.contains(&t));
            assert_eq!(pairs_of(&bwd), expect, "backward, {nodes} nodes");
            assert_eq!(stats.lfp_iterations, rounds(deepest), "backward");
        }
        let (_, stats) = run_lfp(&[], None);
        assert_eq!(
            stats.lfp_iterations,
            rounds(reference_closure(&[], |_, _| true).1)
        );
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
        assert_eq!(pairs_of(&ok), full_closure(&[(1, 2), (2, 3), (3, 1)]));
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
        let (rel, _) = run_plan(&db, Plan::Lfp(spec)).unwrap();
        assert_eq!(rel.len(), 3);
        assert!(rel
            .rows()
            .any(|t| t[0] == Value::Doc && t[1] == Value::Id(2)));
    }

    // ---- φ ----

    /// Run `φ` per `spec` as the one statement of a program.
    fn run(db: &Database, spec: MultiLfpSpec) -> (Relation, Stats) {
        run_plan(db, Plan::MultiLfp(spec)).unwrap()
    }

    /// Two node types: even ids are tagged "a", odd ids "b"; edges a→b and
    /// b→a over the relations `AB` and `BA`, seeded with `(0, 1)` tagged "b".
    fn two_cycle_spec() -> MultiLfpSpec {
        let mut init = Relation::new(2);
        init.push(vec![Value::Id(0), Value::Id(1)]);
        MultiLfpSpec {
            init: vec![("b".to_string(), Plan::Values(init))],
            edges: vec![
                MultiLfpEdge {
                    src_tag: "a".into(),
                    dst_tag: "b".into(),
                    rel: Plan::Scan("AB".into()),
                },
                MultiLfpEdge {
                    src_tag: "b".into(),
                    dst_tag: "a".into(),
                    rel: Plan::Scan("BA".into()),
                },
            ],
        }
    }

    /// The 2-cycle product of Fig. 2 in miniature.
    #[test]
    fn two_relation_cycle() {
        let mut db = Database::new();
        // a→b edges (even → odd), b→a edges (odd → even)
        db.insert("AB", edge_rel(&[(0, 1), (2, 3)]));
        db.insert("BA", edge_rel(&[(1, 2), (3, 4)]));
        for tag in ["a", "b"] {
            db.dict_mut().intern(tag);
        }
        let spec = two_cycle_spec();
        let (out, stats) = run(&db, spec);
        // reachable from 0: 1(b), 2(a), 3(b), 4(a)
        let reached: HashSet<(u32, String)> = out
            .rows()
            .map(|t| (t[1].as_id().unwrap(), db.text(&t[2]).unwrap().to_string()))
            .collect();
        assert_eq!(
            reached,
            HashSet::from([
                (1, "b".to_string()),
                (2, "a".to_string()),
                (3, "b".to_string()),
                (4, "a".to_string())
            ])
        );
        // origin column is preserved
        assert!(out.rows().all(|t| t[0] == Value::Id(0)));
        // cost model: 2 joins per iteration
        assert_eq!(stats.multilfp_invocations, 1);
        assert!(stats.joins >= 2 * stats.multilfp_iterations);
    }

    /// A tag (an index into `TAGS`) with its `(S, T)` init tuples.
    type Init = (usize, Vec<(u32, u32)>);
    /// A rule `(src tag, dst tag, edges)`.
    type Rule = (usize, usize, Vec<(u32, u32)>);

    /// Reference for the differential test: one breadth-first search over
    /// `(origin, node, tag)` states from every init tuple at once. A rule
    /// `(src, dst, edges)` steps from `(s, n, src)` to `(s, z, dst)` for
    /// each edge `(n, z)`. Returns the reached states and the depth of the
    /// deepest (init tuples are depth 0). Shares nothing with
    /// `eval_multilfp` (no codes, no CSR, no rounds).
    fn tagged_reachability(
        init: &[Init],
        rules: &[Rule],
    ) -> (HashSet<(u32, u32, usize)>, Option<usize>) {
        let mut depth = HashMap::new();
        let mut queue: VecDeque<((u32, u32, usize), usize)> = init
            .iter()
            .flat_map(|(tag, pairs)| pairs.iter().map(move |&(s, t)| ((s, t, *tag), 0)))
            .collect();
        while let Some(((s, n, tag), d)) = queue.pop_front() {
            if depth.contains_key(&(s, n, tag)) {
                continue;
            }
            depth.insert((s, n, tag), d);
            for (src, dst, edges) in rules {
                if *src == tag {
                    let steps = edges.iter().filter(|e| e.0 == n);
                    queue.extend(steps.map(|e| ((s, e.1, *dst), d + 1)));
                }
            }
        }
        let deepest = depth.values().max().copied();
        (depth.into_keys().collect(), deepest)
    }

    /// Seeded random multi-relation graphs — three tags, up to five edge
    /// relations with repeated edges, self-loops and cycles across tags,
    /// nodes some rules never mention, init tuples under several tags, and
    /// rules reading an earlier rule's relation under other tags:
    /// `eval_multilfp` returns exactly the tagged-reachability set, each
    /// triple once, in one round more than the reference's depth.
    #[test]
    fn random_tagged_graphs_equal_the_reachability_reference() {
        const TAGS: [&str; 3] = ["a", "b", "c"];
        let mut x = 0x3117_u64;
        let mut next = |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        let mut cyclic_cases = 0;
        let mut two_state_cases = 0;
        for case in 0..40 {
            let nodes = 2 + next(14);
            let mut pairs = |n: u64| -> Vec<(u32, u32)> {
                (0..n)
                    .map(|_| (next(nodes) as u32, next(nodes) as u32))
                    .collect()
            };
            // every third case, rule 1 reads rule 0's relation
            let shared = case % 3 == 1 && case % 5 > 0;
            let mut rules: Vec<Rule> = Vec::new();
            let mut scans: Vec<String> = Vec::new();
            for i in 0..1 + case % 5 {
                let rel = if shared && i == 1 { 0 } else { i };
                let edges = if rel < i {
                    rules[rel].2.clone()
                } else {
                    pairs(3 + nodes)
                };
                rules.push(((case + i) % 3, (case + 2 * i + 1) % 3, edges));
                scans.push(format!("E{rel}"));
            }
            let init: Vec<Init> = (0..1 + case % 2)
                .map(|i| ((case + i) % 3, pairs(1 + nodes / 4)))
                .collect();

            let mut db = Database::new();
            for tag in TAGS {
                db.dict_mut().intern(tag);
            }
            for (scan, (_, _, edges)) in scans.iter().zip(&rules) {
                db.insert(scan, edge_rel(edges));
            }
            let spec = MultiLfpSpec {
                init: init
                    .iter()
                    .map(|(tag, p)| (TAGS[*tag].to_string(), Plan::Values(edge_rel(p))))
                    .collect(),
                edges: rules
                    .iter()
                    .zip(&scans)
                    .map(|((src, dst, _), scan)| MultiLfpEdge {
                        src_tag: TAGS[*src].into(),
                        dst_tag: TAGS[*dst].into(),
                        rel: Plan::Scan(scan.clone()),
                    })
                    .collect(),
            };
            let (out, stats) = run(&db, spec);

            let (want, deepest) = tagged_reachability(&init, &rules);
            let got: HashSet<(u32, u32, usize)> = out
                .rows()
                .map(|t| {
                    let tag = TAGS.iter().position(|n| Some(*n) == db.text(&t[2]));
                    (t[0].as_id().unwrap(), t[1].as_id().unwrap(), tag.unwrap())
                })
                .collect();
            assert_eq!(got, want, "case {case}");
            assert_eq!(out.len(), want.len(), "case {case}: a set, no triple twice");
            assert_eq!(stats.multilfp_iterations, rounds(deepest), "case {case}");
            // a reached state that steps back onto itself: termination on
            // this case rests on the closure set, not on running out of edges
            let on_cycle = |n: u32, tag: usize| {
                rules.iter().any(|(src, dst, edges)| {
                    let back = |z| tagged_reachability(&[(*dst, vec![(0, z)])], &rules).0;
                    *src == tag
                        && edges
                            .iter()
                            .any(|&(f, z)| f == n && back(z).contains(&(0, n, tag)))
                })
            };
            cyclic_cases += usize::from(want.iter().any(|&(_, n, tag)| on_cycle(n, tag)));
            // one node reached under two tags through the shared relation
            let two_states = |&(s, n, tag): &(u32, u32, usize)| {
                want.iter()
                    .any(|&(s2, n2, t2)| (s2, n2) == (s, n) && t2 != tag)
            };
            two_state_cases += usize::from(shared && want.iter().any(two_states));
        }
        assert!(cyclic_cases > 0, "the generator never drew a cycle");
        assert!(two_state_cases > 0, "no node was reached in two states");
        let (_, stats) = run(
            &Database::new(),
            MultiLfpSpec {
                init: vec![],
                edges: vec![],
            },
        );
        assert_eq!(
            stats.multilfp_iterations,
            rounds(tagged_reachability(&[], &[]).1)
        );
    }

    #[test]
    fn empty_init_is_empty() {
        let db = Database::new();
        let init = Relation::new(2);
        let spec = MultiLfpSpec {
            init: vec![("x".to_string(), Plan::Values(init))],
            edges: vec![],
        };
        let (out, _) = run(&db, spec);
        assert!(out.is_empty());
    }

    /// A tag that reaches the output but has no code in the store's
    /// dictionary is a typed error, not a panic.
    #[test]
    fn a_tag_without_a_code_is_a_typed_error() {
        let mut db = Database::new();
        db.insert("AB", edge_rel(&[(0, 1), (2, 3)]));
        db.insert("BA", edge_rel(&[(1, 2), (3, 4)]));
        db.dict_mut().intern("b");
        let err = run_plan(&db, Plan::MultiLfp(two_cycle_spec())).unwrap_err();
        assert_eq!(err, ExecError::UncodedTag("a".into()));
    }

    /// A `φ` state past `u32` is a typed error, not a wrap onto another
    /// node's state.
    #[test]
    fn a_state_past_u32_is_a_typed_error() {
        assert_eq!(state(7, 3, 2), Ok(23));
        assert_eq!(state(u32::MAX / 3, 3, 0), Ok(u32::MAX));
        assert!(matches!(
            state(u32::MAX / 3 + 1, 3, 0),
            Err(ExecError::BudgetExceeded(_))
        ));
        assert!(matches!(
            state(u32::MAX / 3, 3, 3),
            Err(ExecError::BudgetExceeded(_))
        ));
    }
}
