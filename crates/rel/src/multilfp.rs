//! The multi-relation fixpoint `φ(R, R₁…R_k)` (paper §3.1, Eq. 1):
//!
//! ```text
//! R0 ← R
//! Ri ← R(i−1) ∪ (R(i−1) ⋈C1 R1) ∪ · · · ∪ (R(i−1) ⋈Ck Rk)
//! ```
//!
//! This is the recursion shape SQL'99 `WITH…RECURSIVE` requires for a
//! strongly-connected component with k edges (Fig. 2): **every iteration
//! performs k joins and k unions inside the recursion black box**, with an
//! `Rid` tag on each tuple recording which relation the reached node belongs
//! to so the next round joins "right parent/child tuples". This is the
//! engine-level heart of the SQLGen-R baseline \[39\].
//!
//! The iteration is **naive**: each round joins the whole accumulated
//! centre relation against every `R_j`, not just the previous round's delta.
//! That is the paper's model of the black box — "the relation in the center
//! keeps growing, but one can do little to optimize the operations inside"
//! (§3.1) — where the simple LFP ([`crate::lfp`]) models `CONNECT BY`-style
//! hierarchical operators, which are delta-driven by construction. Only the
//! SQLGen-R baseline emits this operator, so the paper's report is its one
//! consumer.
//!
//! Tuples are `(S, T, Rid)`: the origin node `S` (so ancestor/descendant
//! *pairs* are produced, as the evaluation requires), the reached node `T`,
//! and the tag as its code in the store's dictionary (a `Code` cell, which
//! the generated `Rid = 'tag'` selections match). A tag the dictionary
//! lacks is [`ExecError::UncodedTag`].

use crate::exec::{ExecCtx, ExecError};
use crate::fxhash::FxHashSet;
use crate::intern::{pack, unpack, Interner};
use crate::multimap::Csr;
use crate::plan::MultiLfpSpec;
use crate::program::NodeId;
use crate::relation::Relation;
use crate::value::Value;

/// Evaluate the multi-relation fixpoint; `input` gives the relation of each
/// init part and edge rule. The iteration runs over interned node codes with
/// packed pair keys plus a small tag code (see [`crate::intern`]).
pub(crate) fn eval_multilfp<'r>(
    spec: &MultiLfpSpec<NodeId>,
    input: impl Fn(NodeId) -> &'r Relation,
    ctx: &mut ExecCtx<'_>,
) -> Result<Relation, ExecError> {
    ctx.stats.multilfp_invocations += 1;

    let mut nodes = Interner::new();
    let mut tags: Vec<String> = Vec::new();
    let tag_code = |tags: &mut Vec<String>, tag: &str| -> u32 {
        match tags.iter().position(|t| t == tag) {
            Some(i) => i as u32,
            None => {
                tags.push(tag.to_string());
                (tags.len() - 1) as u32
            }
        }
    };

    // Materialize the edge relations once (DB2 would have indexes).
    struct EdgeRule {
        src: u32,
        dst: u32,
        adj: Csr,
    }
    let mut rules: Vec<EdgeRule> = Vec::with_capacity(spec.edges.len());
    for e in &spec.edges {
        let rel = input(e.rel);
        let pairs: Vec<(u32, u32)> = rel
            .rows()
            .map(|t| (nodes.intern(&t[0]), nodes.intern(&t[1])))
            .collect();
        // nodes interned by later rules are beyond this table: no neighbours
        let adj = Csr::build(nodes.len(), pairs.iter().copied());
        rules.push(EdgeRule {
            src: tag_code(&mut tags, &e.src_tag),
            dst: tag_code(&mut tags, &e.dst_tag),
            adj,
        });
    }

    let mut result: FxHashSet<(u64, u32)> = FxHashSet::default();
    for (tag, part) in &spec.init {
        let init = input(*part);
        let tag = tag_code(&mut tags, tag);
        for t in init.rows() {
            result.insert((pack(nodes.intern(&t[0]), nodes.intern(&t[1])), tag));
        }
    }

    let mut grew = !result.is_empty();
    while grew {
        // Per-round boundary: same cooperative checkpoint as the simple LFP.
        ctx.check_cancel()?;
        ctx.opts.check_closure(result.len())?;
        ctx.stats.multilfp_iterations += 1;
        let mut next: Vec<(u64, u32)> = Vec::new();
        // k joins + k unions per iteration — the cost model of Fig. 2.
        for rule in &rules {
            ctx.stats.joins += 1;
            ctx.stats.unions += 1;
            for &(key, tag) in &result {
                if tag != rule.src {
                    continue;
                }
                let (s, t) = unpack(key);
                for &z in rule.adj.neighbors(t) {
                    let reached = (pack(s, z), rule.dst);
                    if !result.contains(&reached) {
                        next.push(reached);
                    }
                }
            }
        }
        let before = result.len();
        result.extend(next);
        grew = result.len() > before;
    }

    ctx.stats.lfp_peak_closure = ctx.stats.lfp_peak_closure.max(result.len());
    // each tag's cell; only a tag that reaches the output needs a code
    let cells: Vec<Option<Value>> = tags
        .iter()
        .map(|tag| ctx.db.dict().code_of(tag).map(Value::Code))
        .collect();
    let mut out = Relation::new(3);
    out.reserve(result.len());
    for (key, tag) in result {
        let (s, t) = unpack(key);
        let tag =
            cells[tag as usize].ok_or_else(|| ExecError::UncodedTag(tags[tag as usize].clone()))?;
        out.push_row(&[*nodes.resolve(s), *nodes.resolve(t), tag]);
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
    use crate::stats::Stats;
    use std::collections::HashSet;

    /// Run `φ` per `spec` as the one statement of a program.
    fn run(db: &Database, spec: MultiLfpSpec) -> (Relation, Stats) {
        let mut prog = Program::new();
        let t = prog.push(Plan::MultiLfp(spec), "φ");
        prog.set_result(t);
        let mut stats = Stats::default();
        let out = prog
            .execute(db, ExecOptions::default(), &mut stats)
            .unwrap();
        (out, stats)
    }

    fn edge_rel(pairs: &[(u32, u32)]) -> Relation {
        let mut r = Relation::new(2);
        for &(f, t) in pairs {
            r.push(vec![Value::Id(f), Value::Id(t)]);
        }
        r
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

    /// Reference for the differential test: breadth-first search over
    /// `(node, tag)` states from every init tuple, one origin at a time. A
    /// rule `(src, dst, edges)` steps from `(n, src)` to `(z, dst)` for each
    /// edge `(n, z)`. Shares nothing with `eval_multilfp` (no interner, no
    /// CSR, no rounds).
    fn tagged_reachability(init: &[Init], rules: &[Rule]) -> HashSet<(u32, u32, usize)> {
        let mut out = HashSet::new();
        for (tag, pairs) in init {
            for &(s, t) in pairs {
                let mut queue = std::collections::VecDeque::from([(t, *tag)]);
                while let Some((n, tag)) = queue.pop_front() {
                    if !out.insert((s, n, tag)) {
                        continue;
                    }
                    for (src, dst, edges) in rules {
                        if *src == tag {
                            queue.extend(edges.iter().filter(|e| e.0 == n).map(|e| (e.1, *dst)));
                        }
                    }
                }
            }
        }
        out
    }

    /// Seeded random multi-relation graphs — three tags, up to five edge
    /// relations with repeated edges, self-loops and cycles across tags,
    /// nodes some rules never mention, init tuples under several tags:
    /// `eval_multilfp` returns exactly the tagged-reachability set, each
    /// triple once.
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
        for case in 0..40 {
            let nodes = 2 + next(14);
            let mut pairs = |n: u64| -> Vec<(u32, u32)> {
                (0..n)
                    .map(|_| (next(nodes) as u32, next(nodes) as u32))
                    .collect()
            };
            let rules: Vec<Rule> = (0..1 + case % 5)
                .map(|i| ((case + i) % 3, (case + 2 * i + 1) % 3, pairs(3 + nodes)))
                .collect();
            let init: Vec<Init> = (0..1 + case % 2)
                .map(|i| ((case + i) % 3, pairs(1 + nodes / 4)))
                .collect();

            let mut db = Database::new();
            for tag in TAGS {
                db.dict_mut().intern(tag);
            }
            for (i, (_, _, edges)) in rules.iter().enumerate() {
                db.insert(&format!("E{i}"), edge_rel(edges));
            }
            let spec = MultiLfpSpec {
                init: init
                    .iter()
                    .map(|(tag, p)| (TAGS[*tag].to_string(), Plan::Values(edge_rel(p))))
                    .collect(),
                edges: rules
                    .iter()
                    .enumerate()
                    .map(|(i, (src, dst, _))| MultiLfpEdge {
                        src_tag: TAGS[*src].into(),
                        dst_tag: TAGS[*dst].into(),
                        rel: Plan::Scan(format!("E{i}")),
                    })
                    .collect(),
            };
            let (out, _) = run(&db, spec);

            let want = tagged_reachability(&init, &rules);
            let got: HashSet<(u32, u32, usize)> = out
                .rows()
                .map(|t| {
                    let tag = TAGS.iter().position(|n| Some(*n) == db.text(&t[2]));
                    (t[0].as_id().unwrap(), t[1].as_id().unwrap(), tag.unwrap())
                })
                .collect();
            assert_eq!(got, want, "case {case}");
            assert_eq!(out.len(), want.len(), "case {case}: a set, no triple twice");
            // a reached state that steps back onto itself: termination on
            // this case rests on the `result` set, not on running out of edges
            let on_cycle = |n: u32, tag: usize| {
                rules.iter().any(|(src, dst, edges)| {
                    let back = |z| tagged_reachability(&[(*dst, vec![(0, z)])], &rules);
                    *src == tag
                        && edges
                            .iter()
                            .any(|&(f, z)| f == n && back(z).contains(&(0, n, tag)))
                })
            };
            cyclic_cases += usize::from(want.iter().any(|&(_, n, tag)| on_cycle(n, tag)));
        }
        assert!(cyclic_cases > 0, "the generator never drew a cycle");
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
        let mut prog = Program::new();
        let t = prog.push(Plan::MultiLfp(two_cycle_spec()), "φ");
        prog.set_result(t);
        let err = prog
            .execute(&db, ExecOptions::default(), &mut Stats::default())
            .unwrap_err();
        assert_eq!(err, ExecError::UncodedTag("a".into()));
    }
}
