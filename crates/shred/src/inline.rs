//! The shared-inlining technique of Shanmugasundaram et al. \[59\]
//! (paper §2.3):
//!
//! "the inlining algorithm partitions a dtd graph G_D into subgraphs
//! G1, G2, … such that any A-node is represented in exactly one subgraph and
//! there is no edge labeled '∗' in any subgraph. Each subgraph Gi is mapped
//! to a relation schema Ri. Each relation schema has a key attribute ID. The
//! edges from a subgraph Gi to a subgraph Gj are specified using parentId in
//! the corresponding relation schema Rj. If a subgraph Gj has more than one
//! incoming edge … a parentCode attribute is introduced."
//!
//! Subgraph roots are: the DTD root, every target of a `*`-labelled edge,
//! every type with more than one distinct parent type, and (as a guard) any
//! type on a cycle of non-starred edges. Remaining types are inlined into
//! their unique parent's subgraph; an inlined type contributes one column to
//! the host relation (its text value, or its node id for structure-only
//! types).

use crate::edge::node_value;
use std::collections::HashMap;
use x2s_dtd::{Dtd, DtdGraph, ElemId};
use x2s_rel::{Database, Relation, Value};
use x2s_xml::{NodeId, Tree};

/// The relational schema produced by shared inlining.
#[derive(Clone, Debug)]
pub struct InlineSchema {
    /// Subgraph roots in DTD id order.
    pub roots: Vec<ElemId>,
    /// For each element type, the root of the subgraph that represents it.
    pub host: Vec<ElemId>,
    /// Relation name per root (`I_<name>`).
    pub relation_names: HashMap<ElemId, String>,
    /// Column layout per root: `ID`, `parentId`, optionally `parentCode`, then one
    /// column per inlined type (named by the inlined type).
    pub columns: HashMap<ElemId, Vec<String>>,
    /// Whether the root's relation carries a `parentCode` column.
    pub has_parent_code: HashMap<ElemId, bool>,
}

impl InlineSchema {
    /// Derive the inlined schema of a DTD.
    pub fn of(dtd: &Dtd) -> Self {
        let g = DtdGraph::of(dtd);
        let n = dtd.len();
        let mut is_root = vec![false; n];
        is_root[dtd.root().index()] = true;
        for e in g.edges() {
            if e.starred {
                is_root[e.to.index()] = true;
            }
        }
        for id in dtd.ids() {
            if g.parents(id).len() > 1 {
                is_root[id.index()] = true;
            }
        }
        // Guard: break cycles of non-starred single-parent edges.
        // Walk up from each non-root; if we revisit a node, promote it.
        for id in dtd.ids() {
            if is_root[id.index()] {
                continue;
            }
            let mut seen = vec![false; n];
            let mut cur = id;
            loop {
                if is_root[cur.index()] {
                    break;
                }
                if seen[cur.index()] {
                    is_root[cur.index()] = true;
                    break;
                }
                seen[cur.index()] = true;
                match g.parents(cur).first() {
                    Some(&p) => cur = p,
                    None => break,
                }
            }
        }

        // Assign each type to its host subgraph root.
        let mut host: Vec<ElemId> = (0..n as u32).map(ElemId).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for id in dtd.ids() {
                if is_root[id.index()] {
                    continue;
                }
                let parent = g.parents(id)[0];
                let target = if is_root[parent.index()] {
                    parent
                } else {
                    host[parent.index()]
                };
                if host[id.index()] != target {
                    host[id.index()] = target;
                    changed = true;
                }
            }
        }

        let roots: Vec<ElemId> = dtd.ids().filter(|id| is_root[id.index()]).collect();
        let mut relation_names = HashMap::new();
        let mut columns = HashMap::new();
        let mut has_parent_code = HashMap::new();
        for &r in &roots {
            relation_names.insert(r, format!("I_{}", dtd.name(r)));
            // parentCode needed when the root has more than one incoming
            // edge (from any subgraph), as in Rc of Example 2.3.
            let code = g.parents(r).len() > 1;
            has_parent_code.insert(r, code);
            let mut cols = vec!["ID".to_string(), "parentId".to_string()];
            if code {
                cols.push("parentCode".to_string());
            }
            if dtd.allows_text(r) {
                cols.push(format!("{}_val", dtd.name(r)));
            }
            for id in dtd.ids() {
                if id != r && host[id.index()] == r {
                    cols.push(dtd.name(id).to_string());
                }
            }
            columns.insert(r, cols);
        }
        InlineSchema {
            roots,
            host,
            relation_names,
            columns,
            has_parent_code,
        }
    }

    /// The subgraph root representing a type.
    pub fn host_of(&self, id: ElemId) -> ElemId {
        self.host[id.index()]
    }

    /// Whether `id` heads its own relation.
    pub fn is_root(&self, id: ElemId) -> bool {
        self.host[id.index()] == id && self.relation_names.contains_key(&id)
    }
}

/// A database shredded with shared inlining.
#[derive(Clone, Debug)]
pub struct InlinedDatabase {
    /// The schema.
    pub schema: InlineSchema,
    /// The relations.
    pub db: Database,
}

impl InlinedDatabase {
    /// Shred a tree under the inlined schema. Text values and parent codes
    /// are interned into the store's dictionary, as in
    /// [`crate::edge_database`].
    pub fn shred(tree: &Tree, dtd: &Dtd) -> Self {
        let schema = InlineSchema::of(dtd);
        let mut db = Database::new();
        let mut rels: HashMap<ElemId, Relation> = schema
            .roots
            .iter()
            .map(|&r| (r, Relation::new(schema.columns[&r].len())))
            .collect();

        // For every root-typed node: build one tuple. Walk its inlined
        // descendants (children whose types host into this root) to fill
        // columns.
        for n in tree.node_ids() {
            let label = tree.label(n);
            if !schema.is_root(label) {
                continue;
            }
            let cols = &schema.columns[&label];
            let mut tuple: Vec<Value> = vec![Value::Null; cols.len()];
            tuple[0] = Value::Id(n.0);
            // parentId: nearest ancestor that is itself a root-typed node;
            // Doc for the document root.
            let (pid, pcode) = nearest_host_ancestor(tree, dtd, &schema, n);
            tuple[1] = pid;
            if schema.has_parent_code[&label] {
                tuple[2] = db.intern_str(pcode);
            }
            if let Some(col) = cols
                .iter()
                .position(|c| *c == format!("{}_val", dtd.name(label)))
            {
                tuple[col] = node_value(&mut db, tree, n);
            }
            fill_inlined(&mut db, tree, dtd, &schema, n, cols, &mut tuple);
            let rows = rels.get_mut(&label);
            debug_assert!(
                rows.is_some(),
                "validated tree has a label outside the schema"
            );
            if let Some(rows) = rows {
                rows.push(tuple);
            }
        }

        for (r, rel) in rels {
            db.insert(&schema.relation_names[&r], rel);
        }
        InlinedDatabase { schema, db }
    }
}

/// Find the nearest strict ancestor whose type is a subgraph root; returns
/// its id (or Doc) and the immediate parent's type name as the parentCode.
fn nearest_host_ancestor<'d>(
    tree: &Tree,
    dtd: &'d Dtd,
    schema: &InlineSchema,
    n: NodeId,
) -> (Value, &'d str) {
    let pcode = match tree.parent(n) {
        Some(p) => dtd.name(tree.label(p)),
        None => "doc",
    };
    let mut cur = tree.parent(n);
    while let Some(p) = cur {
        if schema.is_root(tree.label(p)) {
            return (Value::Id(p.0), pcode);
        }
        cur = tree.parent(p);
    }
    (Value::Doc, pcode)
}

/// Fill columns for inlined descendants of a host tuple: depth-first from
/// the host node, stopping at nodes whose types are roots themselves.
fn fill_inlined(
    db: &mut Database,
    tree: &Tree,
    dtd: &Dtd,
    schema: &InlineSchema,
    host_node: NodeId,
    cols: &[String],
    tuple: &mut [Value],
) {
    let root_label = tree.label(host_node);
    let mut stack: Vec<NodeId> = tree.children(host_node).to_vec();
    while let Some(m) = stack.pop() {
        let label = tree.label(m);
        if schema.is_root(label) {
            continue; // separate relation
        }
        if schema.host_of(label) == root_label {
            if let Some(col) = cols.iter().position(|c| *c == dtd.name(label)) {
                // value column: text if the type allows it, else the node id
                tuple[col] = if dtd.allows_text(label) {
                    node_value(db, tree, m)
                } else {
                    Value::Id(m.0)
                };
            }
            stack.extend(tree.children(m).iter().copied());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2s_dtd::samples;
    use x2s_xml::parse_xml;

    #[test]
    fn dept_partition_matches_fig_1b() {
        // Example 2.3: four subgraphs rooted at dept, course, project, student
        let d = samples::dept();
        let s = InlineSchema::of(&d);
        let root_names: Vec<&str> = s.roots.iter().map(|&r| d.name(r)).collect();
        assert_eq!(root_names, vec!["dept", "course", "student", "project"]);
    }

    #[test]
    fn dept_hosts_follow_paper() {
        let d = samples::dept();
        let s = InlineSchema::of(&d);
        let host_name = |n: &str| d.name(s.host_of(d.elem(n).unwrap()));
        assert_eq!(host_name("cno"), "course");
        assert_eq!(host_name("title"), "course");
        assert_eq!(host_name("prereq"), "course");
        assert_eq!(host_name("takenBy"), "course");
        assert_eq!(host_name("sno"), "student");
        assert_eq!(host_name("name"), "student");
        assert_eq!(host_name("qualified"), "student");
        assert_eq!(host_name("pno"), "project");
        assert_eq!(host_name("ptitle"), "project");
        assert_eq!(host_name("required"), "project");
    }

    #[test]
    fn course_relation_has_papers_columns() {
        // Rc(F, T, cno, title, prereq, takenBy, parentCode) — Example 2.3
        let d = samples::dept();
        let s = InlineSchema::of(&d);
        let course = d.elem("course").unwrap();
        let cols = &s.columns[&course];
        for expected in [
            "ID",
            "parentId",
            "parentCode",
            "cno",
            "title",
            "prereq",
            "takenBy",
        ] {
            assert!(
                cols.iter().any(|c| c == expected),
                "missing column {expected} in {cols:?}"
            );
        }
        // student's relation has no parentCode (single incoming edge)
        let student = d.elem("student").unwrap();
        assert!(!s.has_parent_code[&student]);
        assert!(s.has_parent_code[&course]);
    }

    /// Position of column `name` in the relation hosted by `root`.
    fn col_of(idb: &InlinedDatabase, d: &Dtd, root: &str, name: &str) -> usize {
        let cols = &idb.schema.columns[&d.elem(root).unwrap()];
        cols.iter().position(|c| c == name).unwrap()
    }

    #[test]
    fn shreds_document_with_inlined_values() {
        let d = samples::dept();
        let t = parse_xml(
            &d,
            "<dept><course><cno>cs66</cno><title>db</title><prereq/><takenBy><student><sno>s1</sno><name>ann</name><qualified/></student></takenBy></course></dept>",
        )
        .unwrap();
        let idb = InlinedDatabase::shred(&t, &d);
        let ic = idb.db.get("I_course").unwrap();
        assert_eq!(ic.len(), 1);
        let cno_col = col_of(&idb, &d, "course", "cno");
        assert_eq!(idb.db.text(&ic.row(0)[cno_col]), Some("cs66"));
        let is = idb.db.get("I_student").unwrap();
        assert_eq!(is.len(), 1);
        let name_col = col_of(&idb, &d, "student", "name");
        assert_eq!(idb.db.text(&is.row(0)[name_col]), Some("ann"));
    }

    #[test]
    fn parent_links_point_to_host_tuples() {
        // course under prereq: its parentId is the *course* tuple (the
        // prereq being inlined), and parentCode records "prereq" — Table 1's
        // (c1, c2) with parent code.
        let d = samples::dept();
        let t = parse_xml(
            &d,
            "<dept><course><cno/><title/><prereq><course><cno/><title/><prereq/><takenBy/></course></prereq><takenBy/></course></dept>",
        )
        .unwrap();
        let idb = InlinedDatabase::shred(&t, &d);
        let ic = idb.db.get("I_course").unwrap();
        assert_eq!(ic.len(), 2);
        let code_col = col_of(&idb, &d, "course", "parentCode");
        let outer = ic
            .rows()
            .find(|tp| idb.db.text(&tp[code_col]) == Some("dept"))
            .expect("outer course parented by dept");
        let inner = ic
            .rows()
            .find(|tp| idb.db.text(&tp[code_col]) == Some("prereq"))
            .expect("inner course parented via prereq");
        // inner's parentId = outer's ID
        assert_eq!(inner[1], outer[0]);
    }

    #[test]
    fn all_star_graph_gets_one_relation_per_type() {
        // In cross (all edges starred) every type is a subgraph root.
        let d = samples::cross();
        let s = InlineSchema::of(&d);
        assert_eq!(s.roots.len(), d.len());
    }
}
