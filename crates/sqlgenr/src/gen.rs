//! SQL generation for SQLGen-R: per-`rec(A,B)` multi-relation recursions,
//! and the end-to-end baseline translator.

use crate::scc::{is_cyclic_component, strongly_connected_components};
use std::collections::HashMap;
use x2s_core::graph::{TNode, TransGraph};
use x2s_core::pipeline::{TranslateError, Translation};
use x2s_core::x2e::{xpath_to_exp, RecMode};
use x2s_core::SqlOptions;
use x2s_dtd::Dtd;
use x2s_rel::{MultiLfpEdge, MultiLfpSpec, Plan, Pred, Relation, Value};
use x2s_xpath::Path;

/// Build the SQLGen-R plan for `rec(a, b)`: all pairs `(x, y)` such that
/// `x` is an `a`-node, `y` a `b`-node, and `y` is a strict descendant of
/// `x` along DTD paths (Fig. 2).
///
/// The query graph is the region of nodes on some `a → b` path. The
/// recursion body carries one join+union per region edge — the SQL'99
/// star shape the paper contrasts with the simple LFP. The init part seeds
/// one `(x, child)` pair per region edge out of `a`.
pub fn build_rec_plan(g: &TransGraph<'_>, a: TNode, b: TNode) -> Plan {
    let region = g.nodes_on_paths(a, b);
    if region.is_empty() || !region.contains(&b) {
        return Plan::Values(Relation::new(2));
    }

    // init: edges out of `a` into the region.
    let mut init: Vec<(String, Plan)> = Vec::new();
    for c in g.children(a) {
        if !region.contains(&c) {
            continue;
        }
        let scan = Plan::Scan(format!("R_{}", g.name(c)));
        let seeded = match g.elem(a) {
            // F of R_c must be an a-node: semijoin against R_a's ids
            Some(_) => scan.semi_join(Plan::Scan(format!("R_{}", g.name(a))), 0, 1),
            // a is the document: its only "node id" is the `'_'` marker
            None => scan.select(Pred::ColEqValue(0, Value::Doc)),
        };
        init.push((
            g.name(c).to_string(),
            seeded.project(vec![(0, "S"), (1, "T")]),
        ));
    }

    // recursion body: one rule per region edge.
    let mut edges = Vec::new();
    for &u in &region {
        for v in g.children(u) {
            if !region.contains(&v) {
                continue;
            }
            edges.push(MultiLfpEdge {
                src_tag: g.name(u).to_string(),
                dst_tag: g.name(v).to_string(),
                rel: Plan::Scan(format!("R_{}", g.name(v))),
            });
        }
    }

    // Prune rules that can never fire: the region includes `a` itself, but
    // unless some cycle returns to `a`, no tuple is ever tagged with `a`'s
    // name, so its outgoing rules are dead weight in every iteration (and
    // the static analyzer rightly rejects them as unproducible). Liveness
    // is the fixpoint of tag producibility from the init parts.
    let mut live: std::collections::BTreeSet<&str> = init.iter().map(|(t, _)| t.as_str()).collect();
    loop {
        let before = live.len();
        for e in &edges {
            if live.contains(e.src_tag.as_str()) {
                live.insert(e.dst_tag.as_str());
            }
        }
        if live.len() == before {
            break;
        }
    }
    let live: std::collections::BTreeSet<String> = live.into_iter().map(String::from).collect();
    edges.retain(|e| live.contains(&e.src_tag));

    let fixpoint = Plan::MultiLfp(MultiLfpSpec { init, edges });
    // final: keep b-tagged rows, project the (F, T) pairs.
    fixpoint
        .select(Pred::ColEqText(2, g.name(b).into()))
        .project(vec![(0, "F"), (1, "T")])
}

/// The SQLGen-R translator, interface-compatible with
/// `x2s_core::pipeline::Translator`.
pub struct SqlGenR<'a> {
    dtd: &'a Dtd,
    sql_options: SqlOptions,
}

impl<'a> SqlGenR<'a> {
    /// Baseline translator over a DTD.
    pub fn new(dtd: &'a Dtd) -> Self {
        // The paper treats WITH…RECURSIVE as a black box: no selections can
        // be pushed inside it, and the root filter stays outside — the very
        // limitation §3.1 criticizes.
        SqlGenR {
            dtd,
            sql_options: SqlOptions {
                push_selections: false,
                // the program *around* the recursion boxes still goes
                // through the logical optimizer — only the boxes themselves
                // are opaque, which is the §3.1 limitation being modelled
                ..SqlOptions::default()
            },
        }
    }

    /// Translate an XPath query into a program whose descendant hops are
    /// SQL'99 multi-relation recursions.
    pub fn translate(&self, path: &Path) -> Result<Translation, TranslateError> {
        let tr = xpath_to_exp(path, self.dtd, &RecMode::External)?;
        let g = TransGraph::new(self.dtd);
        let mut overrides: HashMap<x2s_exp::VarId, Plan> = HashMap::new();
        for er in &tr.external_recs {
            overrides.insert(er.var, build_rec_plan(&g, er.from, er.to));
        }
        // Note: the query is deliberately NOT pruned — pruning would fold
        // the opaque placeholders away. The optimizer's dead-statement
        // elimination drops whatever the result does not reach.
        let (program, opt, warnings) =
            x2s_core::exp_to_sql_checked(&tr.query, &self.sql_options, &overrides)?;
        Ok(Translation {
            extended: tr.query,
            program,
            opt,
            warnings,
            // SQLGen-R models the black-box WITH…RECURSIVE baseline; it
            // never gets the interval fast path
            interval: None,
        })
    }

    /// Number of edges in the `rec(a,b)` region — the per-iteration
    /// join/union count of the generated recursion (5 for Example 3.1).
    ///
    /// Reporting/test helper; panics on names the DTD does not declare.
    #[allow(clippy::expect_used)]
    pub fn region_edge_count(&self, from: &str, to: &str) -> usize {
        let g = TransGraph::new(self.dtd);
        let a = match from {
            "#doc" => g.doc(),
            name => g.node(self.dtd.elem(name).expect("known type")),
        };
        let b = g.node(self.dtd.elem(to).expect("known type"));
        let region = g.nodes_on_paths(a, b);
        region
            .iter()
            .flat_map(|&u| g.children(u).into_iter().map(move |v| (u, v)))
            .filter(|(_, v)| region.contains(v))
            .count()
    }

    /// SCC decomposition of the `rec` region (reporting / tests).
    ///
    /// Panics on names the DTD does not declare, like [`Self::region_edge_count`].
    #[allow(clippy::expect_used)]
    pub fn region_sccs(&self, from: &str, to: &str) -> Vec<Vec<String>> {
        let g = TransGraph::new(self.dtd);
        let a = match from {
            "#doc" => g.doc(),
            name => g.node(self.dtd.elem(name).expect("known type")),
        };
        let b = g.node(self.dtd.elem(to).expect("known type"));
        let region = g.nodes_on_paths(a, b);
        strongly_connected_components(&g, &region)
            .into_iter()
            .map(|c| {
                let cyclic = is_cyclic_component(&g, &c);
                c.into_iter()
                    .map(|n| {
                        if cyclic {
                            format!("{}*", g.name(n))
                        } else {
                            g.name(n).to_string()
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use x2s_rel::{ExecOptions, Stats};
    use x2s_shred::edge_database;
    use x2s_xml::parse_xml;
    use x2s_xpath::{eval_from_document, parse_xpath};

    fn check_against_oracle(dtd: &Dtd, xml: &str, queries: &[&str]) {
        let tree = parse_xml(dtd, xml).unwrap();
        let db = edge_database(&tree, dtd);
        for q in queries {
            let path = parse_xpath(q).unwrap();
            let native: BTreeSet<u32> = eval_from_document(&path, &tree, dtd)
                .into_iter()
                .map(|n| n.0)
                .collect();
            let tr = SqlGenR::new(dtd).translate(&path).unwrap();
            let mut stats = Stats::default();
            let got = tr.try_run(&db, ExecOptions::default(), &mut stats).unwrap();
            assert_eq!(got, native, "SQLGen-R query {q}");
        }
    }

    #[test]
    fn dept_q1_matches_oracle() {
        let d = x2s_dtd::samples::dept_simplified();
        check_against_oracle(
            &d,
            "<dept><course><course><course/><project><course><project/></course></project></course><student/><student><course/></student></course></dept>",
            &["dept//project", "dept//course", "dept/course"],
        );
    }

    #[test]
    fn uses_multilfp_and_pays_per_edge_joins() {
        let d = x2s_dtd::samples::dept_simplified();
        let tree = parse_xml(
            &d,
            "<dept><course><course><project/></course><student><course><project/></course></student></course></dept>",
        )
        .unwrap();
        let db = edge_database(&tree, &d);
        let path = parse_xpath("dept//project").unwrap();
        let tr = SqlGenR::new(&d).translate(&path).unwrap();
        let mut stats = Stats::default();
        tr.try_run(&db, ExecOptions::default(), &mut stats).unwrap();
        assert!(stats.multilfp_invocations >= 1, "recursion used");
        assert!(
            stats.joins >= 5 * stats.multilfp_iterations.min(3),
            "k joins per iteration: {stats}"
        );
    }

    #[test]
    fn region_edges_match_example_3_1() {
        // dept//project region: dept→course plus the 5 SCC edges = 6; the
        // recursion body of Fig. 2 carries the 5 edges among {Rc,Rs,Rp} and
        // the Rd→Rc edge seeds the init part.
        let d = x2s_dtd::samples::dept_simplified();
        let genr = SqlGenR::new(&d);
        assert_eq!(genr.region_edge_count("dept", "project"), 6);
        let sccs = genr.region_sccs("dept", "project");
        assert!(sccs
            .iter()
            .any(|c| c.len() == 3 && c.iter().all(|n| n.ends_with('*'))));
    }

    #[test]
    fn qualifiers_work_through_the_shared_framework() {
        let d = x2s_dtd::samples::cross();
        check_against_oracle(
            &d,
            "<a><b><a><c><d/><a/></c></a></b><c><d/></c></a>",
            &[
                "a/b//c/d",
                "a[//c]//d",
                "a[not //c]",
                "a[not //c or (b and //d)]",
            ],
        );
    }

    #[test]
    fn recursive_root_handled() {
        let d = x2s_dtd::samples::gedml();
        check_against_oracle(
            &d,
            "<Even><Sour><Data><Even><Sour/></Even></Data><Note/></Sour><Obje><Sour><Data/></Sour></Obje></Even>",
            &["Even//Data", "//Even", "Even//Even"],
        );
    }

    #[test]
    fn empty_rec_region_yields_empty() {
        let d = x2s_dtd::samples::cross();
        let g = TransGraph::new(&d);
        let dd = g.node(d.elem("d").unwrap());
        // no b below d… actually d→c→b exists; use doc as target-free case:
        let b = g.node(d.elem("b").unwrap());
        let plan = build_rec_plan(&g, dd, b);
        // d reaches b (d→c→a→b); region non-empty — use a genuinely empty pair
        let _ = plan;
        let d2 = x2s_dtd::samples::complete_dag(3);
        let g2 = TransGraph::new(&d2);
        let a3 = g2.node(d2.elem("A3").unwrap());
        let a1 = g2.node(d2.elem("A1").unwrap());
        let plan = build_rec_plan(&g2, a3, a1);
        assert!(matches!(plan, Plan::Values(ref r) if r.is_empty()));
    }
}
