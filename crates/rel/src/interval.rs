//! Pre/post interval labels and the physical [`IntervalJoin`] executor.
//!
//! # The XPath-accelerator encoding
//!
//! The paper translates at the *schema* level, so every `//` step compiles
//! to a least fixpoint over the edge relations — sound for any conforming
//! document, but on a *loaded instance* it materializes reachability the
//! tree already knows. The classic fix (Grust's XPath accelerator, used by
//! Pathfinder) is to label every node with a `(start, end)` interval from
//! one depth-first traversal:
//!
//! * entering a node assigns its `start` tick, leaving it assigns `end`;
//! * ticks are strictly monotone, so `x` is a **proper ancestor** of `y`
//!   iff `start(x) < start(y) < end(x)` (nesting makes a separate
//!   `end(y) < end(x)` test redundant);
//! * intervals of distinct nodes are properly nested or disjoint — never
//!   partially overlapping — which is what lets a sort-merge sweep answer
//!   all-pairs descendant with a plain stack.
//!
//! Labels are **gap-spaced**: each tick is multiplied by [`LABEL_GAP`], so
//! a future incremental-maintenance pass can label a subtree inserted
//! between two siblings without relabeling the document (the ROADMAP's
//! follow-up). `u64` headroom is ample: a document would need on the order
//! of 2⁴³ nodes before `2·nodes·LABEL_GAP` overflows.
//!
//! [`IntervalJoin`]: crate::plan::Plan::IntervalJoin

use crate::exec::{eval_plan, ExecCtx, ExecError};
use crate::fxhash::{fx_set_with_capacity, FxHashSet};
use crate::plan::IntervalJoinSpec;
use crate::relation::Relation;
use crate::value::Value;

/// Spacing between consecutive DFS ticks. Labels are `tick * LABEL_GAP`,
/// leaving room to slot in labels for inserted nodes without a global
/// relabel (incremental maintenance, a ROADMAP follow-up).
pub const LABEL_GAP: u64 = 1 << 20;

/// Per-node `(start, end)` interval labels for one loaded document,
/// indexed by the dense [`Value::Id`] node number the shredder assigns.
///
/// Built by `shred::edge_database` in the same DFS that emits the edge
/// tuples and attached to the [`crate::exec::Database`]; any subsequent
/// [`crate::exec::Database::insert`] drops the labels (inserted rows have
/// no label), which makes the engine fall back to the LFP path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IntervalLabels {
    start: Vec<u64>,
    end: Vec<u64>,
}

impl IntervalLabels {
    /// Labels for `n` nodes, all initially the empty interval `(0, 0)`
    /// (an empty interval contains nothing and is contained by nothing).
    pub fn with_len(n: usize) -> Self {
        IntervalLabels {
            start: vec![0; n],
            end: vec![0; n],
        }
    }

    /// Set node `node`'s interval.
    pub fn set(&mut self, node: u32, start: u64, end: u64) {
        let i = node as usize;
        if i < self.start.len() {
            self.start[i] = start;
            self.end[i] = end;
        }
    }

    /// Node `node`'s `(start, end)` interval, if in range.
    #[inline]
    pub fn get(&self, node: u32) -> Option<(u64, u64)> {
        let i = node as usize;
        match (self.start.get(i), self.end.get(i)) {
            (Some(&s), Some(&e)) => Some((s, e)),
            _ => None,
        }
    }

    /// Number of labeled nodes.
    pub fn len(&self) -> usize {
        self.start.len()
    }

    /// Whether no nodes are labeled.
    pub fn is_empty(&self) -> bool {
        self.start.is_empty()
    }

    /// Whether `x` is a **proper** ancestor of `y`:
    /// `start(x) < start(y) < end(x)`.
    #[inline]
    pub fn is_ancestor(&self, x: u32, y: u32) -> bool {
        match (self.get(x), self.get(y)) {
            (Some((xs, xe)), Some((ys, _))) => xs < ys && ys < xe,
            _ => false,
        }
    }
}

/// A base relation's interval view: its `T`-column nodes as
/// `(start, end, node)` triples **sorted by `start`** — document order.
/// The sorted-by-pre side of [`eval_interval_join`], built with the labels
/// by [`crate::exec::Database::set_intervals`] and kept on the database.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IntervalView {
    entries: Vec<(u64, u64, u32)>,
}

impl IntervalView {
    /// Build the view over `rel`'s `T` column (column 1). Non-id values
    /// (the document marker, NULLs) carry no label and are skipped.
    pub fn build(rel: &Relation, labels: &IntervalLabels) -> Self {
        let mut entries = Vec::with_capacity(rel.len());
        for t in rel.rows() {
            if let Some(Value::Id(n)) = t.get(1) {
                if let Some((s, e)) = labels.get(*n) {
                    entries.push((s, e, *n));
                }
            }
        }
        entries.sort_unstable();
        IntervalView { entries }
    }

    /// The `(start, end, node)` triples in `start` order.
    pub fn entries(&self) -> &[(u64, u64, u32)] {
        &self.entries
    }

    /// Number of labeled nodes in the view.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Probe-to-view size ratio below which [`eval_interval_join`] switches
/// from the full sort-merge sweep to index-nested-loop: with few distinct
/// ancestors, binary-searching each one's range beats scanning the whole
/// view.
const INL_RATIO: usize = 16;

/// View entries scanned between cooperative cancellation checks inside
/// [`eval_interval_join`]: large sweeps poll the deadline/budget token once
/// per chunk, so a single scan can overshoot a deadline by at most one
/// chunk's worth of work.
const CANCEL_CHECK_CHUNK: u64 = 4_096;

/// Evaluate a [`Plan::IntervalJoin`](crate::plan::Plan::IntervalJoin):
/// all `(x, y)` with `x` drawn from the left
/// input's `left_col`, `y` a `T`-column node of the `right` base relation,
/// and `y` a proper descendant of `x`.
///
/// Two physical strategies over the pre-sorted view:
///
/// * **sort-merge sweep** (the default): one pass over the view in `start`
///   order, maintaining a stack of currently-open ancestor intervals —
///   `O(|L| log |L| + |R| + out)`;
/// * **index-nested-loop** (when distinct probe nodes are fewer than
///   1/16th of the view): binary-search each ancestor's `(start, end)`
///   range — `O(|L| log |R| + out)`.
///
/// Both count the view entries they examine in
/// [`Stats::interval_rows_scanned`](crate::stats::Stats::interval_rows_scanned).
/// No fixpoint runs, so `lfp_*` statistics stay untouched — interval-path
/// runs report their true (near-zero) closure work.
///
/// `seeds` restricts the ancestor candidates to the listed nodes — the
/// selection a semi-join directly above would apply to the `F` column,
/// pushed in (§5.2's `push(R1, R0)` for the range join). The strategy is
/// then chosen on the seeded candidates, and the output is exactly the
/// pairs of the unrestricted join whose ancestor is a seed.
pub fn eval_interval_join<'a>(
    spec: &'a IntervalJoinSpec,
    seeds: Option<&FxHashSet<u32>>,
    ctx: &mut ExecCtx<'a>,
) -> Result<Relation, ExecError> {
    let left = eval_plan(&spec.left, ctx)?;
    let labels = ctx
        .db
        .intervals()
        .ok_or_else(|| ExecError::MissingIntervals(spec.right.clone()))?;
    let view = ctx
        .db
        .interval_view(&spec.right)
        .ok_or_else(|| ExecError::MissingIntervals(spec.right.clone()))?;
    ctx.stats.joins += 1;
    // Distinct ancestor candidates with their labels, sorted by start.
    // Non-id values (document marker, NULL) have no interval: skipped.
    let candidates = seeds.map_or(left.len(), |s| s.len().min(left.len()));
    let mut seen = fx_set_with_capacity::<u32>(candidates);
    let mut lefts: Vec<(u64, u64, u32)> = Vec::new();
    for t in left.rows() {
        if let Some(Value::Id(x)) = t.get(spec.left_col) {
            if seeds.is_none_or(|s| s.contains(x)) && seen.insert(*x) {
                if let Some((s, e)) = labels.get(*x) {
                    lefts.push((s, e, *x));
                }
            }
        }
    }
    lefts.sort_unstable();
    let entries = view.entries();
    let mut out = Relation::new(2);
    let mut scanned: u64 = 0;
    let governed = ctx.opts.governed();
    if lefts.len() <= entries.len() / INL_RATIO {
        // Index-nested-loop: every view entry whose start lies strictly
        // inside (ls, le) is a proper descendant (nesting guarantees its
        // whole interval is inside).
        for &(ls, le, x) in &lefts {
            let from = entries.partition_point(|&(s, _, _)| s <= ls);
            for &(s, _, y) in &entries[from..] {
                if s >= le {
                    break;
                }
                scanned += 1;
                if governed && scanned.is_multiple_of(CANCEL_CHECK_CHUNK) {
                    ctx.check_cancel()?;
                    ctx.opts
                        .check_tuples(ctx.stats.tuples_emitted + out.len() as u64)?;
                }
                out.push_row(&[Value::Id(x), Value::Id(y)]);
            }
        }
    } else {
        // Sort-merge staircase sweep: walk the view in start order,
        // keeping the stack of ancestor intervals still open at the
        // current position. Tree intervals are properly nested or
        // disjoint, so the open set is always a stack (outermost at the
        // bottom), and popping closed intervals from the top is complete.
        let mut stack: Vec<(u64, u64, u32)> = Vec::new();
        let mut li = 0;
        for &(s, _, y) in entries {
            scanned += 1;
            if governed && scanned.is_multiple_of(CANCEL_CHECK_CHUNK) {
                ctx.check_cancel()?;
                ctx.opts
                    .check_tuples(ctx.stats.tuples_emitted + out.len() as u64)?;
            }
            while li < lefts.len() && lefts[li].0 < s {
                let l = lefts[li];
                li += 1;
                while stack.last().is_some_and(|top| top.1 < l.0) {
                    stack.pop();
                }
                stack.push(l);
            }
            while stack.last().is_some_and(|top| top.1 < s) {
                stack.pop();
            }
            for &(_, _, x) in &stack {
                out.push_row(&[Value::Id(x), Value::Id(y)]);
            }
        }
    }
    ctx.stats.interval_rows_scanned += scanned;
    ctx.stats.tuples_emitted += out.len() as u64;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Database, ExecOptions};
    use crate::plan::Plan;
    use crate::stats::Stats;
    use std::collections::HashMap;

    /// A random-ish tree's DFS labels plus its node relation; returns
    /// (labels, parent array) for `n` nodes, node 0 the root.
    fn random_tree(n: u32, seed: u64) -> (IntervalLabels, Vec<u32>) {
        let mut x = seed | 1;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut parent = vec![0u32; n as usize];
        for i in 1..n {
            parent[i as usize] = (step() % u64::from(i)) as u32;
        }
        // DFS with one monotone tick counter, children in id order
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); n as usize];
        for i in 1..n {
            children[parent[i as usize] as usize].push(i);
        }
        let mut labels = IntervalLabels::with_len(n as usize);
        let mut tick = 0u64;
        // iterative DFS: (node, next-child-index)
        let mut stack = vec![(0u32, 0usize)];
        let mut starts = vec![0u64; n as usize];
        while let Some(&mut (node, ref mut ci)) = stack.last_mut() {
            if *ci == 0 {
                starts[node as usize] = tick * LABEL_GAP;
                tick += 1;
            }
            if *ci < children[node as usize].len() {
                let c = children[node as usize][*ci];
                *ci += 1;
                stack.push((c, 0));
            } else {
                labels.set(node, starts[node as usize], tick * LABEL_GAP);
                tick += 1;
                stack.pop();
            }
        }
        (labels, parent)
    }

    fn is_descendant(parent: &[u32], mut y: u32, x: u32) -> bool {
        while y != 0 {
            y = parent[y as usize];
            if y == x {
                return true;
            }
        }
        false
    }

    #[test]
    fn labels_encode_proper_ancestorship() {
        let (labels, parent) = random_tree(200, 0xBEEF);
        for x in 0..200u32 {
            for y in 0..200u32 {
                let want = x != y && is_descendant(&parent, y, x);
                assert_eq!(labels.is_ancestor(x, y), want, "ancestor({x},{y}) mismatch");
            }
        }
    }

    /// Both physical strategies must produce exactly the transitive
    /// descendant pairs — compared against the parent-chain oracle.
    #[test]
    fn interval_join_matches_oracle_both_strategies() {
        let (labels, parent) = random_tree(300, 0xD00D);
        // right view: all nodes; left probe: a slice of nodes (col 1)
        let mut all = Relation::new(2);
        for i in 0..300u32 {
            all.push_row(&[Value::Id(parent[i as usize]), Value::Id(i)]);
        }
        for probe_count in [5u32, 300] {
            let mut probe = Relation::new(2);
            for i in 0..probe_count {
                let n = (i * 53) % 300;
                probe.push_row(&[Value::Id(0), Value::Id(n)]);
                probe.push_row(&[Value::Id(0), Value::Id(n)]); // dup: deduped
            }
            let mut db = Database::new();
            db.insert("ALL", all.clone());
            db.insert("P", probe);
            db.set_intervals(labels.clone());
            let spec = IntervalJoinSpec {
                left: Box::new(Plan::Scan("P".into())),
                left_col: 1,
                right: "ALL".into(),
            };
            let env = HashMap::new();
            let mut stats = Stats::default();
            let mut ctx = ExecCtx {
                db: &db,
                env: &env,
                opts: ExecOptions::default(),
                stats: &mut stats,
            };
            let got = eval_interval_join(&spec, None, &mut ctx).unwrap();
            let mut got: Vec<(u32, u32)> = got
                .rows()
                .map(|t| match (&t[0], &t[1]) {
                    (Value::Id(a), Value::Id(b)) => (*a, *b),
                    _ => unreachable!("interval join emits ids"),
                })
                .collect();
            got.sort_unstable();
            let mut want: Vec<(u32, u32)> = Vec::new();
            for i in 0..probe_count {
                let x = (i * 53) % 300;
                for y in 0..300u32 {
                    if x != y && is_descendant(&parent, y, x) {
                        want.push((x, y));
                    }
                }
            }
            want.sort_unstable();
            want.dedup();
            assert_eq!(got, want, "probe_count={probe_count}");
            assert!(stats.interval_rows_scanned > 0);
            assert_eq!(stats.lfp_invocations, 0, "no fixpoint ran");
        }
    }

    /// `Semi(IntervalJoin, seeds)` is evaluated as a seed-restricted
    /// interval join: it must equal the unrestricted join filtered
    /// afterwards, whichever strategy the seeded candidates select — with
    /// few seeds (index-nested-loop), many (sweep), none, and seeds that
    /// carry no label or are no node at all.
    #[test]
    fn seeded_interval_join_equals_filtered_unrestricted_join() {
        use crate::plan::JoinKind;
        let (labels, parent) = random_tree(300, 0x5EED);
        let mut all = Relation::new(2);
        for i in 0..300u32 {
            all.push_row(&[Value::Id(parent[i as usize]), Value::Id(i)]);
        }
        // candidates: every node, plus one the document never labelled
        let mut probe = all.clone();
        probe.push_row(&[Value::Id(0), Value::Id(9_999)]);
        let pairs_of = |rel: &Relation| -> Vec<(u32, u32)> {
            rel.rows()
                .map(|t| (t[0].as_id().unwrap(), t[1].as_id().unwrap()))
                .collect()
        };
        // 300 view entries: up to 18 candidates take the nested loop
        for (seed_count, inl) in [
            (0u32, true),
            (5, true),
            (18, true),
            (19, false),
            (200, false),
        ] {
            let mut seeds = Relation::new(2);
            for i in 0..seed_count {
                seeds.push_row(&[Value::Null, Value::Id((i * 53) % 300)]);
            }
            // seeds that match no ancestor: unlabelled, non-id
            seeds.push_row(&[Value::Null, Value::Id(9_999)]);
            seeds.push_row(&[Value::Null, Value::Null]);
            seeds.push_row(&[Value::Null, Value::Doc]);
            let seed_ids: Vec<u32> = seeds.rows().filter_map(|t| t[1].as_id()).collect();
            let mut db = Database::new();
            db.insert("ALL", all.clone());
            db.insert("P", probe.clone());
            db.set_intervals(labels.clone());
            let spec = IntervalJoinSpec {
                left: Box::new(Plan::Scan("P".into())),
                left_col: 1,
                right: "ALL".into(),
            };
            let semi = Plan::Join {
                left: Box::new(Plan::IntervalJoin(spec.clone())),
                right: Box::new(Plan::Values(seeds)),
                on: vec![(0, 1)],
                kind: JoinKind::Semi,
            };
            let env = HashMap::new();
            let mut full_stats = Stats::default();
            let mut ctx = ExecCtx {
                db: &db,
                env: &env,
                opts: ExecOptions::default(),
                stats: &mut full_stats,
            };
            let full = eval_interval_join(&spec, None, &mut ctx).unwrap();
            let mut want: Vec<(u32, u32)> = pairs_of(&full)
                .into_iter()
                .filter(|(x, _)| seed_ids.contains(x))
                .collect();
            let mut stats = Stats::default();
            let mut ctx = ExecCtx {
                db: &db,
                env: &env,
                opts: ExecOptions::default(),
                stats: &mut stats,
            };
            let got = eval_plan(&semi, &mut ctx).unwrap();
            if !inl {
                // same strategy as the unrestricted join: same order too
                assert_eq!(pairs_of(&got), want, "{seed_count} seeds, in order");
            }
            let mut got = pairs_of(&got);
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{seed_count} seeds");
            assert_eq!(want.is_empty(), seed_count == 0, "seed 0 is the root");
            // both operators count; only the kept pairs were ever built
            assert_eq!(stats.joins, 2);
            assert_eq!(stats.tuples_emitted, got.len() as u64);
            // which strategy ran: the nested loop reads exactly the ranges
            // it emits, the sweep reads the whole view once
            let scanned = if inl { got.len() as u64 } else { 300 };
            assert_eq!(stats.interval_rows_scanned, scanned, "{seed_count} seeds");
        }
    }

    #[test]
    fn missing_intervals_is_an_error() {
        let mut db = Database::new();
        db.insert("R", Relation::new(2));
        let spec = IntervalJoinSpec {
            left: Box::new(Plan::Scan("R".into())),
            left_col: 1,
            right: "R".into(),
        };
        let env = HashMap::new();
        let mut stats = Stats::default();
        let mut ctx = ExecCtx {
            db: &db,
            env: &env,
            opts: ExecOptions::default(),
            stats: &mut stats,
        };
        let err = eval_interval_join(&spec, None, &mut ctx).unwrap_err();
        assert!(matches!(err, ExecError::MissingIntervals(_)));
    }
}
