//! Pushed-selection parity oracle (ISSUE 3): on the child-edge graphs of
//! generated documents of the recursive sample DTDs (dept, gedml, cross),
//! the restricted closure must come out identical along every route:
//!
//! ```text
//! pushed closure == unpushed closure, post-filtered
//! ```
//!
//! for both forward (seed-restricted) and backward (target-restricted)
//! `PushSpec`.
//!
//! This pins the §5.2 push-selection rewrite to an implementation-free
//! definition: pushing a selection into `Φ(R)` is only an *optimization* if
//! the answer equals filtering the full closure after the fact.

use std::collections::HashSet;
use xpath2sql::dtd::samples;
use xpath2sql::rel::{
    Database, ExecOptions, LfpSpec, Plan, Program, PushSpec, Relation, Stats, Value,
};
use xpath2sql::shred::edge_database;
use xpath2sql::xml::{Generator, GeneratorConfig};

/// All child edges (F, T) of a shredded store — columns 0 and 1 of every
/// edge relation — as one relation.
fn all_edges(db: &Database) -> Relation {
    let mut out = Relation::new(2);
    for name in db.names() {
        for tuple in db.get(name).unwrap().rows() {
            out.push_row(&tuple[..2]);
        }
    }
    out
}

fn closure(edges: &Relation, push: Option<PushSpec>) -> HashSet<(Value, Value)> {
    let mut db = Database::new();
    db.insert("E", edges.clone());
    let mut prog = Program::new();
    let t = prog.push(
        Plan::Lfp(LfpSpec {
            input: Box::new(Plan::Scan("E".into())),
            from_col: 0,
            to_col: 1,
            push,
        }),
        "Φ(E)",
    );
    prog.set_result(t);
    let mut stats = Stats::default();
    let rel = prog
        .execute(&db, ExecOptions::default(), &mut stats)
        .unwrap();
    rel.rows().map(|t| (t[0], t[1])).collect()
}

fn check_parity(dtd: &xpath2sql::dtd::Dtd, elements: usize, seed: u64) {
    let tree = Generator::new(
        dtd,
        GeneratorConfig::shaped(8, 3, Some(elements)).with_seed(seed),
    )
    .generate();
    let db = edge_database(&tree, dtd);
    let edges = all_edges(&db);
    assert!(!edges.is_empty(), "generated document has edges");

    let full = closure(&edges, None);

    // restriction sets: a spread of node values that actually occur
    let mut restrict = Relation::new(1);
    for (i, t) in edges.rows().enumerate() {
        if i % 7 == 0 {
            restrict.push(vec![t[0]]);
        }
    }
    let members: HashSet<Value> = restrict.rows().map(|t| t[0]).collect();

    let fwd = closure(
        &edges,
        Some(PushSpec::Forward {
            seeds: Box::new(Plan::Values(restrict.clone())),
            col: 0,
        }),
    );
    let expect_fwd: HashSet<(Value, Value)> = full
        .iter()
        .filter(|(f, _)| members.contains(f))
        .cloned()
        .collect();
    assert_eq!(fwd, expect_fwd, "forward push");

    let bwd = closure(
        &edges,
        Some(PushSpec::Backward {
            targets: Box::new(Plan::Values(restrict)),
            col: 0,
        }),
    );
    let expect_bwd: HashSet<(Value, Value)> = full
        .iter()
        .filter(|(_, t)| members.contains(t))
        .cloned()
        .collect();
    assert_eq!(bwd, expect_bwd, "backward push");
}

#[test]
fn dept_push_parity() {
    check_parity(&samples::dept(), 1_200, 31);
}

#[test]
fn gedml_push_parity() {
    check_parity(&samples::gedml(), 1_200, 32);
}

#[test]
fn cross_push_parity() {
    check_parity(&samples::cross(), 1_200, 33);
}
