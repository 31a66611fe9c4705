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
//! Tuples are `(S, T, Rid)`: the origin node `S` (so ancestor/descendant
//! *pairs* are produced, as the evaluation requires), the reached node `T`,
//! and the tag.

use crate::exec::{eval_plan, ExecCtx};
use crate::fxhash::FxHashSet;
use crate::intern::{pack, unpack, Interner};
use crate::multimap::Csr;
use crate::plan::MultiLfpSpec;
use crate::relation::Relation;
use crate::value::Value;

/// Evaluate the multi-relation fixpoint. The iteration runs over interned
/// node codes with packed pair keys plus a small tag code (see
/// [`crate::intern`]).
pub fn eval_multilfp<'a>(
    spec: &'a MultiLfpSpec,
    ctx: &mut ExecCtx<'a>,
) -> Result<Relation, crate::ExecError> {
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
        let rel = eval_plan(&e.rel, ctx)?;
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
    let mut frontier: Vec<(u32, u32, u32)> = Vec::new();
    for (tag, plan) in &spec.init {
        let init = eval_plan(plan, ctx)?;
        let tag = tag_code(&mut tags, tag);
        for t in init.rows() {
            let s = nodes.intern(&t[0]);
            let to = nodes.intern(&t[1]);
            if result.insert((pack(s, to), tag)) {
                frontier.push((s, to, tag));
            }
        }
    }

    let naive = ctx.opts.naive_fixpoint;
    while !frontier.is_empty() {
        // Per-round boundary: same cooperative checkpoint as the simple LFP.
        ctx.check_cancel()?;
        ctx.opts.check_closure(result.len())?;
        crate::failpoint::hit("lfp-round-sleep");
        ctx.stats.multilfp_iterations += 1;
        let mut next: Vec<(u32, u32, u32)> = Vec::new();
        // k joins + k unions per iteration — the cost model of Fig. 2.
        for rule in &rules {
            ctx.stats.joins += 1;
            ctx.stats.unions += 1;
            let mut produced: Vec<(u32, u32, u32)> = Vec::new();
            let mut extend = |s: u32, t: u32, tag: u32| {
                if tag == rule.src {
                    for &z in rule.adj.neighbors(t) {
                        produced.push((s, z, rule.dst));
                    }
                }
            };
            if naive {
                for &(key, tag) in &result {
                    let (s, t) = unpack(key);
                    extend(s, t, tag);
                }
            } else {
                for &(s, t, tag) in &frontier {
                    extend(s, t, tag);
                }
            }
            for (s, t, tag) in produced {
                if !result.contains(&(pack(s, t), tag)) {
                    next.push((s, t, tag));
                }
            }
        }
        frontier.clear();
        for (s, t, tag) in next {
            if result.insert((pack(s, t), tag)) {
                frontier.push((s, t, tag));
            }
        }
    }

    ctx.stats.lfp_peak_closure = ctx.stats.lfp_peak_closure.max(result.len());
    let mut out = Relation::new(vec!["S".into(), "T".into(), "Rid".into()]);
    out.reserve(result.len());
    for (key, tag) in result {
        let (s, t) = unpack(key);
        out.push_row(&[
            nodes.resolve(s).clone(),
            nodes.resolve(t).clone(),
            Value::str(&tags[tag as usize]),
        ]);
    }
    ctx.stats.tuples_emitted += out.len() as u64;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Database, ExecOptions};
    use crate::plan::{MultiLfpEdge, Plan};
    use crate::program::TempId;
    use crate::stats::Stats;
    use std::collections::HashSet;

    fn edge_rel(pairs: &[(u32, u32)]) -> Relation {
        let mut r = Relation::new(vec!["F".into(), "T".into()]);
        for &(f, t) in pairs {
            r.push(vec![Value::Id(f), Value::Id(t)]);
        }
        r
    }

    /// Two node types: even ids are tagged "a", odd ids "b"; edges a→b and
    /// b→a form the 2-cycle product of Fig. 2 in miniature.
    #[test]
    fn two_relation_cycle() {
        let mut db = Database::new();
        // a→b edges (even → odd), b→a edges (odd → even)
        db.insert("AB", edge_rel(&[(0, 1), (2, 3)]));
        db.insert("BA", edge_rel(&[(1, 2), (3, 4)]));
        let mut init = Relation::new(vec!["S".into(), "T".into()]);
        init.push(vec![Value::Id(0), Value::Id(1)]);
        let spec = MultiLfpSpec {
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
        };
        let env = std::collections::HashMap::<TempId, Relation>::new();
        let mut stats = Stats::default();
        let mut ctx = ExecCtx {
            db: &db,
            env: &env,
            opts: ExecOptions::default(),
            stats: &mut stats,
        };
        let out = eval_multilfp(&spec, &mut ctx).unwrap();
        // reachable from 0: 1(b), 2(a), 3(b), 4(a)
        let reached: HashSet<(u32, String)> = out
            .rows()
            .map(|t| (t[1].as_id().unwrap(), t[2].as_str().unwrap().to_string()))
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

    #[test]
    fn naive_and_semi_naive_agree() {
        let mut db = Database::new();
        db.insert("E", edge_rel(&[(1, 2), (2, 3), (3, 1)]));
        let mut init = Relation::new(vec!["S".into(), "T".into()]);
        init.push(vec![Value::Id(1), Value::Id(2)]);
        let spec = MultiLfpSpec {
            init: vec![("x".to_string(), Plan::Values(init))],
            edges: vec![MultiLfpEdge {
                src_tag: "x".into(),
                dst_tag: "x".into(),
                rel: Plan::Scan("E".into()),
            }],
        };
        let env = std::collections::HashMap::<TempId, Relation>::new();
        let run = |naive: bool| {
            let mut stats = Stats::default();
            let mut ctx = ExecCtx {
                db: &db,
                env: &env,
                opts: ExecOptions {
                    naive_fixpoint: naive,
                    ..ExecOptions::default()
                },
                stats: &mut stats,
            };
            eval_multilfp(&spec, &mut ctx).unwrap()
        };
        assert!(run(false).set_eq(&run(true)));
    }

    #[test]
    fn empty_init_is_empty() {
        let db = Database::new();
        let init = Relation::new(vec!["S".into(), "T".into()]);
        let spec = MultiLfpSpec {
            init: vec![("x".to_string(), Plan::Values(init))],
            edges: vec![],
        };
        let env = std::collections::HashMap::<TempId, Relation>::new();
        let mut stats = Stats::default();
        let mut ctx = ExecCtx {
            db: &db,
            env: &env,
            opts: ExecOptions::default(),
            stats: &mut stats,
        };
        let out = eval_multilfp(&spec, &mut ctx).unwrap();
        assert!(out.is_empty());
    }
}
