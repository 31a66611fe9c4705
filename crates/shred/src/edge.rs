//! The simplified per-type edge mapping `τ` (paper §2.3):
//! each element type `A` becomes a relation `R_A(F, T, V)`.
//!
//! In a database `τ_d(T)` representing a tree `T`, each `R_A` tuple
//! `(f, t, v)` represents an edge from node `f` to an `A`-element `t` with
//! optional text `v`; `f = '_'` iff `t` is the root. Node ids are unique
//! across the whole database — our arena `NodeId`s already are.

use x2s_dtd::{Dtd, ElemId};
use x2s_rel::{Database, IntervalLabels, Relation, Value, LABEL_GAP};
use x2s_xml::Tree;

/// The base-relation name for an element type: `R_<name>`.
pub fn table_name(dtd: &Dtd, elem: ElemId) -> String {
    format!("R_{}", dtd.name(elem))
}

/// The `V` value of a node in *uncoded* form: its text or NULL (`'_'` in
/// the paper). [`edge_database`] stores the dictionary-coded form instead —
/// this helper is for callers that want the raw value.
pub fn node_value(tree: &Tree, node: x2s_xml::NodeId) -> Value {
    match tree.value(node) {
        Some(v) => Value::str(v),
        None => Value::Null,
    }
}

/// Name of the union-of-all-types relation (every node's edge tuple).
/// Element type names cannot start with `_`, so this never collides with a
/// `R_<type>` relation. It backs qualifier node-set computations (`¬q`,
/// `text()=c` on value-less intermediates) in the SQL translation.
pub const ALL_NODES: &str = "R__nodes";

/// Shred a tree into per-type edge relations, one `R_A(F, T, V)` per type
/// (empty relations included so scans never fail), plus the [`ALL_NODES`]
/// union relation.
///
/// The produced store is *execution-ready*: every text value is encoded
/// through the database's load-time string dictionary (so the executor
/// compares `u32` codes, not strings), per-node pre/post interval labels
/// are assigned in the same traversal (the XPath-accelerator encoding: the
/// interval fast path answers `//` with a range predicate instead of a
/// fixpoint), and the per-relation base-edge indexes (`F` → rows, `T` →
/// rows) plus sorted interval views are built before the store is returned.
pub fn edge_database(tree: &Tree, dtd: &Dtd) -> Database {
    let mut db = Database::new();
    let mut rels: Vec<Relation> = (0..dtd.len()).map(|_| Relation::edge_schema()).collect();
    let mut all = Relation::edge_schema();
    all.reserve(tree.len());
    for n in tree.node_ids() {
        let f = match tree.parent(n) {
            Some(p) => Value::Id(p.0),
            None => Value::Doc,
        };
        let v = match tree.value(n) {
            Some(text) => db.intern_str(text),
            None => Value::Null,
        };
        let row = [f, Value::Id(n.0), v];
        all.push_row(&row);
        rels[tree.label(n).index()].push_row(&row);
    }
    for id in dtd.ids() {
        db.insert(&table_name(dtd, id), std::mem::take(&mut rels[id.index()]));
    }
    db.insert(ALL_NODES, all);
    db.set_intervals(interval_labels(tree));
    db.build_indexes();
    db
}

/// Assign every node a `(start, end)` interval from one DFS over `tree`:
/// one monotone tick counter, incremented at each node entry *and* exit,
/// so `x` is a proper ancestor of `y` iff `start(x) < start(y) < end(x)`.
/// Ticks are gap-spaced by [`LABEL_GAP`] so a future incremental pass can
/// label inserted nodes without relabeling the document.
pub fn interval_labels(tree: &Tree) -> IntervalLabels {
    let mut labels = IntervalLabels::with_len(tree.len());
    if tree.is_empty() {
        return labels;
    }
    let mut tick: u64 = 0;
    let mut starts = vec![0u64; tree.len()];
    // iterative DFS over the arena: (node, next-child index)
    let mut stack: Vec<(x2s_xml::NodeId, usize)> = vec![(tree.root(), 0)];
    while let Some(&mut (node, ref mut ci)) = stack.last_mut() {
        if *ci == 0 {
            starts[node.0 as usize] = tick * LABEL_GAP;
            tick += 1;
        }
        let kids = tree.children(node);
        if *ci < kids.len() {
            let c = kids[*ci];
            *ci += 1;
            stack.push((c, 0));
        } else {
            labels.set(node.0, starts[node.0 as usize], tick * LABEL_GAP);
            tick += 1;
            stack.pop();
        }
    }
    labels
}

/// A shredded store bundling the database with its provenance.
#[derive(Clone, Debug)]
pub struct EdgeShredding {
    /// The relational database (one `R_A` per element type).
    pub db: Database,
    /// Number of shredded elements.
    pub elements: usize,
}

impl EdgeShredding {
    /// Shred `tree` under `dtd`.
    pub fn of(tree: &Tree, dtd: &Dtd) -> Self {
        EdgeShredding {
            db: edge_database(tree, dtd),
            elements: tree.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2s_dtd::samples;
    use x2s_xml::parse_xml;

    /// The Table 1 document: d1(c1(c2(c3, p1(c4(p2))), s1, s2(c5))).
    fn table1() -> (Dtd, Tree) {
        let d = samples::dept_simplified();
        let t = parse_xml(
            &d,
            "<dept><course><course><course/><project><course><project/></course></project></course><student/><student><course/></student></course></dept>",
        )
        .unwrap();
        (d, t)
    }

    #[test]
    fn table1_relation_sizes() {
        let (d, t) = table1();
        let db = edge_database(&t, &d);
        // Table 1: Rd has 1 tuple, Rc 5, Rs 2, Rp 2
        assert_eq!(db.get("R_dept").unwrap().len(), 1);
        assert_eq!(db.get("R_course").unwrap().len(), 5);
        assert_eq!(db.get("R_student").unwrap().len(), 2);
        assert_eq!(db.get("R_project").unwrap().len(), 2);
    }

    #[test]
    fn root_tuple_has_doc_parent() {
        let (d, t) = table1();
        let db = edge_database(&t, &d);
        let rd = db.get("R_dept").unwrap();
        assert_eq!(rd.row(0)[0], Value::Doc);
        assert_eq!(rd.row(0)[1], Value::Id(t.root().0));
    }

    #[test]
    fn edges_match_tree_parenthood() {
        let (d, t) = table1();
        let db = edge_database(&t, &d);
        for n in t.node_ids() {
            let rel = db.get(&table_name(&d, t.label(n))).unwrap();
            let tuple = rel
                .rows()
                .find(|tp| tp[1] == Value::Id(n.0))
                .expect("every node has a tuple");
            match t.parent(n) {
                Some(p) => assert_eq!(tuple[0], Value::Id(p.0)),
                None => assert_eq!(tuple[0], Value::Doc),
            }
        }
    }

    #[test]
    fn values_shredded_are_dictionary_coded() {
        let d = samples::dept();
        let t = parse_xml(
            &d,
            "<dept><course><cno>cs66</cno><title/><prereq/><takenBy/></course></dept>",
        )
        .unwrap();
        let db = edge_database(&t, &d);
        let rc = db.get("R_cno").unwrap();
        assert_eq!(rc.len(), 1);
        // stored coded, decodes back to the original text
        let v = &rc.row(0)[2];
        assert!(matches!(v, Value::Code(_)), "text values are coded: {v:?}");
        assert_eq!(db.decode_value(v), Value::str("cs66"));
        assert_eq!(db.dict().code_of("cs66"), v.as_code());
        // title has no text → NULL (never coded)
        let rt = db.get("R_title").unwrap();
        assert_eq!(rt.row(0)[2], Value::Null);
    }

    #[test]
    fn load_builds_base_edge_indexes() {
        let (d, t) = table1();
        let db = edge_database(&t, &d);
        // every R_A plus R__nodes carries F/T indexes
        assert_eq!(db.indexed_relations(), d.len() + 1);
    }

    #[test]
    fn empty_relations_exist_for_unused_types() {
        let (d, t) = table1();
        let db = edge_database(&t, &d);
        // all four types used here, so craft a doc that uses fewer
        let t2 = parse_xml(&d, "<dept/>").unwrap();
        let db2 = edge_database(&t2, &d);
        assert_eq!(db2.get("R_course").unwrap().len(), 0);
        assert!(db.get("R_zzz").is_none());
    }

    #[test]
    fn shredded_store_carries_interval_labels() {
        let (d, t) = table1();
        let db = edge_database(&t, &d);
        assert!(db.has_intervals());
        let labels = db.intervals().expect("labels set");
        assert_eq!(labels.len(), t.len());
        // the labels agree with tree ancestorship, exactly
        for x in t.node_ids() {
            for y in t.node_ids() {
                let mut anc = false;
                let mut p = t.parent(y);
                while let Some(q) = p {
                    if q == x {
                        anc = true;
                        break;
                    }
                    p = t.parent(q);
                }
                assert_eq!(labels.is_ancestor(x.0, y.0), anc, "({x:?},{y:?})");
            }
        }
        // gap spacing: every tick is a LABEL_GAP multiple with room between
        for n in t.node_ids() {
            let (s, e) = labels.get(n.0).expect("labeled");
            assert_eq!(s % x2s_rel::LABEL_GAP, 0);
            assert_eq!(e % x2s_rel::LABEL_GAP, 0);
            assert!(s < e, "start strictly before end");
        }
        // the labels come with a sorted view per relation
        let view = db.interval_view("R_course").expect("view built at load");
        assert_eq!(view.len(), db.get("R_course").unwrap().len());
        assert!(view.entries().windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn total_tuples_equal_elements() {
        let (d, t) = table1();
        let s = EdgeShredding::of(&t, &d);
        assert_eq!(s.elements, t.len());
        // per-type relations partition the nodes; R__nodes duplicates them
        assert_eq!(s.db.total_tuples(), 2 * t.len());
        assert_eq!(s.db.get(ALL_NODES).unwrap().len(), t.len());
    }
}
