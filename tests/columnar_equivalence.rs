//! Oracle suite for the columnar execution core (PR 5): the flat-buffer
//! relation layout, dictionary-coded values, Fx-hashed executor tables and
//! cached base-edge indexes must be *invisible* — every configuration of the
//! engine returns the same relations as the pre-refactor row-at-a-time
//! semantics, pinned here against the native XPath oracle and against each
//! other.
//!
//! Three fronts:
//!
//! * **Result equivalence** over the Table-5 workload queries (dept / Cross
//!   / GedML), `OptLevel::None` and `Full`: answer sets equal the native
//!   oracle, full result relations are `set_eq` across both levels, and
//!   repeated runs are byte-identical (execution is deterministic — order
//!   is pinned wherever the engine pins it).
//! * **Join kernels** against a nested-loop reference, as ordered bags:
//!   inner/semi/anti × three key-column pairs × bare, under σ, under π,
//!   under π(σ), under δ(π) — the shapes the executor fuses into the join's
//!   emit — over seeded random relations with duplicate, NULL and every
//!   other kind of key value, on plain stores and on stores with cached
//!   edge indexes.
//! * **Dictionary round-tripping** over the seeded XML generator: every
//!   text value a generated document carries survives encode → store →
//!   text lookup exactly, every relation equals a reference shredding
//!   taken straight from the tree row for row, and `text()='…'` selections
//!   answer identically on stores whose dictionaries assign different
//!   codes.

use std::collections::{BTreeSet, HashMap};
use xpath2sql::core::{OptLevel, SqlOptions, Translator};
use xpath2sql::dtd::{samples, Dtd};
use xpath2sql::rel::{
    Database, ExecOptions, JoinKind, Plan, Pred, Program, Relation, Stats, Value,
};
use xpath2sql::shred::{edge_database, node_value, table_name, ALL_NODES};
use xpath2sql::xml::generator::mark_values;
use xpath2sql::xml::{Generator, GeneratorConfig, Tree};
use xpath2sql::xpath::{eval_from_document, parse_xpath};

/// The Table-5 workload queries per sample DTD, over hand-written documents
/// exercising every recursion shape.
fn workloads() -> Vec<(&'static str, Dtd, &'static str, Vec<&'static str>)> {
    vec![
        (
            "dept",
            samples::dept_simplified(),
            "<dept><course><course><course/><project><course><project/></course></project></course><student/><student><course/></student></course></dept>",
            vec![
                "dept//project",
                "dept//course",
                "dept/course/student[course]",
                "dept//course[not //project]",
                "dept//course[project or student]",
            ],
        ),
        (
            "cross",
            samples::cross(),
            "<a><b><a><c><d/><a/></c></a></b><c><d/></c></a>",
            vec!["a/b//c/d", "a[//c]//d", "a[not //c]", "a//d", "a//a"],
        ),
        (
            "gedml",
            samples::gedml(),
            "<Even><Sour><Data><Even><Sour/></Even></Data><Note><Obje/></Note></Sour><Obje><Sour><Data/></Sour></Obje></Even>",
            vec!["Even//Data", "Even//Even", "Even//Obje[Sour]"],
        ),
    ]
}

fn run_relation(dtd: &Dtd, query: &str, db: &Database, optimize: OptLevel) -> Relation {
    let path = parse_xpath(query).unwrap();
    let tr = Translator::new(dtd)
        .with_sql_options(SqlOptions {
            optimize,
            ..SqlOptions::default()
        })
        .translate(&path)
        .unwrap();
    let mut stats = Stats::default();
    tr.program
        .execute(db, ExecOptions::default(), &mut stats)
        .unwrap()
}

/// Optimizer on and off return the same result relation, and answer ids
/// equal the native oracle. Repeated runs are byte-identical (order pinned).
#[test]
fn all_configurations_agree_with_the_oracle() {
    for (name, dtd, xml, queries) in workloads() {
        let tree = xpath2sql::xml::parse_xml(&dtd, xml).unwrap();
        let db = edge_database(&tree, &dtd);
        for q in queries {
            let path = parse_xpath(q).unwrap();
            let native: BTreeSet<u32> = eval_from_document(&path, &tree, &dtd)
                .into_iter()
                .map(|n| n.0)
                .collect();
            let base = run_relation(&dtd, q, &db, OptLevel::Full);
            let answers: BTreeSet<u32> = base.rows().filter_map(|t| t[0].as_id()).collect();
            assert_eq!(answers, native, "{name}/{q}: oracle mismatch");
            // order pinned: execution is deterministic
            let again = run_relation(&dtd, q, &db, OptLevel::Full);
            assert_eq!(base, again, "{name}/{q}: run not deterministic");
            // the unoptimized program returns the same relation as a set
            let raw = run_relation(&dtd, q, &db, OptLevel::None);
            assert!(raw.set_eq(&base), "{name}/{q}: OptLevel::None differs");
        }
    }
}

/// The oracle equivalence holds on *generated* documents big enough to have
/// real closures, with the interval fast path off so the fixpoint runs.
#[test]
fn generated_documents_agree_across_exec_options() {
    let cases = [
        ("cross", samples::cross(), "a//d", 41u64),
        ("gedml", samples::gedml(), "Even//Data", 13u64),
    ];
    for (name, dtd, q, seed) in cases {
        let tree = Generator::new(
            &dtd,
            GeneratorConfig::shaped(10, 4, Some(4_000)).with_seed(seed),
        )
        .generate();
        let db = edge_database(&tree, &dtd);
        let path = parse_xpath(q).unwrap();
        let native: BTreeSet<u32> = eval_from_document(&path, &tree, &dtd)
            .into_iter()
            .map(|n| n.0)
            .collect();
        let tr = Translator::new(&dtd).translate(&path).unwrap();
        let mut stats = Stats::default();
        let got = tr
            .try_run(&db, ExecOptions::default().with_interval(false), &mut stats)
            .unwrap();
        assert_eq!(got, native, "{name}/{q}: differs from oracle");
        assert!(
            stats.lfp_peak_closure > 0,
            "{name}/{q}: closure workload recorded a peak"
        );
    }
}

/// One reference row `(F, T, text of V)`.
type RefRow = (Value, Value, Option<String>);

/// Reference shredding taken straight from the tree, mirroring
/// `edge_database`'s row construction exactly (same iteration order), with
/// each `V` as the node's text rather than a code.
fn reference_rows(tree: &Tree, dtd: &Dtd) -> HashMap<String, Vec<RefRow>> {
    let mut rels: HashMap<String, Vec<RefRow>> = HashMap::new();
    for n in tree.node_ids() {
        let f = match tree.parent(n) {
            Some(p) => Value::Id(p.0),
            None => Value::Doc,
        };
        let row = (f, Value::Id(n.0), tree.value(n).map(String::from));
        for name in [ALL_NODES.to_string(), table_name(dtd, tree.label(n))] {
            rels.entry(name).or_default().push(row.clone());
        }
    }
    rels
}

/// `edge_database`'s rows on a store whose dictionary first holds
/// `decoys` strings no document text equals, so every text gets another
/// code than `edge_database` gives it. No labels and no indexes: the
/// store's queries run the fixpoint and build every join table.
fn recoded_edge_database(tree: &Tree, dtd: &Dtd, decoys: usize) -> Database {
    let mut db = Database::new();
    for i in 0..decoys {
        db.intern_str(&format!("\u{1}decoy {i}"));
    }
    let mut rels: Vec<Relation> = (0..dtd.len()).map(|_| Relation::edge_schema()).collect();
    let mut all = Relation::edge_schema();
    for n in tree.node_ids() {
        let f = match tree.parent(n) {
            Some(p) => Value::Id(p.0),
            None => Value::Doc,
        };
        let row = [f, Value::Id(n.0), node_value(&mut db, tree, n)];
        all.push_row(&row);
        rels[tree.label(n).index()].push_row(&row);
    }
    for id in dtd.ids() {
        db.insert(&table_name(dtd, id), std::mem::take(&mut rels[id.index()]));
    }
    db.insert(ALL_NODES, all);
    db
}

/// Property: over seeded generated documents (with extra marked text
/// values), the dictionary round-trips every text value, and every
/// relation equals the reference shredding row for row.
#[test]
fn dictionary_round_trips_generated_documents() {
    let cases: [(&str, Dtd, &str, u64); 3] = [
        ("cross", samples::cross(), "a", 7),
        ("dept", samples::dept_simplified(), "course", 23),
        ("gedml", samples::gedml(), "Sour", 99),
    ];
    for (name, dtd, marked_label, seed) in cases {
        for round in 0..4u64 {
            let mut tree = Generator::new(
                &dtd,
                GeneratorConfig::shaped(8, 3, Some(1_500)).with_seed(seed + round),
            )
            .generate();
            // inject text values (the generator alone rarely produces them)
            let label = dtd.elem(marked_label).unwrap();
            mark_values(&mut tree, label, 64, "sel", seed ^ round);
            let db = edge_database(&tree, &dtd);
            // 1. per-node round-trip: coded V decodes to the tree's text
            let all = db.get(ALL_NODES).unwrap();
            let mut coded_values = 0usize;
            for t in all.rows() {
                let n = t[1].as_id().unwrap();
                let expect = tree.value(xpath2sql::xml::NodeId(n));
                match (&t[2], expect) {
                    (Value::Null, None) => {}
                    (v @ Value::Code(c), Some(text)) => {
                        coded_values += 1;
                        assert_eq!(db.dict().resolve(*c), text, "{name}: code mismatch");
                        assert_eq!(db.text(v), Some(text));
                        // and the dictionary agrees on the reverse lookup
                        db.dict().verify_code(*c, text);
                    }
                    (v, e) => panic!("{name}: unexpected shredded value {v:?} for text {e:?}"),
                }
            }
            if round == 0 {
                assert!(coded_values > 0, "{name}: marking produced text values");
            }
            // 2. every relation == the reference, row for row, with each
            //    `V` read back as text
            let reference = reference_rows(&tree, &dtd);
            for rel_name in db.names() {
                let stored: Vec<RefRow> = db
                    .get(rel_name)
                    .unwrap()
                    .rows()
                    .map(|t| (t[0], t[1], db.text(&t[2]).map(String::from)))
                    .collect();
                let want = reference.get(rel_name).map_or(&[][..], Vec::as_slice);
                assert_eq!(
                    stored, want,
                    "{name}/{rel_name}: store differs from reference"
                );
            }
        }
    }
}

/// `text()='…'` selections answer identically on the loaded store and on a
/// store whose dictionary gives every text another code — including a
/// literal neither dictionary has seen (under negation, where a wrong
/// "absent code" shortcut would flip the answer).
#[test]
fn text_selections_agree_across_dictionaries() {
    let dtd = samples::cross();
    let mut tree = Generator::new(
        &dtd,
        GeneratorConfig::shaped(10, 4, Some(3_000)).with_seed(77),
    )
    .generate();
    let a = dtd.elem("a").unwrap();
    let d = dtd.elem("d").unwrap();
    mark_values(&mut tree, a, 40, "sel", 5);
    mark_values(&mut tree, d, 40, "sel", 6);
    let coded = edge_database(&tree, &dtd);
    let recoded = recoded_edge_database(&tree, &dtd, 3);
    let sel = |db: &Database| db.dict().code_of("sel");
    assert_ne!(
        sel(&coded),
        sel(&recoded),
        "the two stores code 'sel' apart"
    );
    for q in [
        "a[text()='sel']/b//c/d",
        "a/b//c/d[text()='sel']",
        "a//d[not text()='sel']",
        "a//d[text()='absent']",
        "a//d[not text()='absent']",
    ] {
        let path = parse_xpath(q).unwrap();
        for push in [true, false] {
            let tr = Translator::new(&dtd)
                .with_sql_options(SqlOptions {
                    push_selections: push,
                    ..SqlOptions::default()
                })
                .translate(&path)
                .unwrap();
            let mut s1 = Stats::default();
            let on_coded = tr.try_run(&coded, ExecOptions::default(), &mut s1).unwrap();
            let mut s2 = Stats::default();
            let on_recoded = tr
                .try_run(&recoded, ExecOptions::default(), &mut s2)
                .unwrap();
            assert_eq!(on_coded, on_recoded, "{q} (push={push}): stores disagree");
            let native: BTreeSet<u32> = eval_from_document(&path, &tree, &dtd)
                .into_iter()
                .map(|n| n.0)
                .collect();
            assert_eq!(on_coded, native, "{q} (push={push}): oracle mismatch");
        }
    }
}

/// The cached base-edge indexes actually serve the workload joins (the perf
/// claim of this PR is not vacuous), and index-served executions return the
/// same answers as a store without indexes.
#[test]
fn cached_indexes_serve_joins_without_changing_answers() {
    let dtd = samples::gedml();
    let tree = Generator::new(
        &dtd,
        GeneratorConfig::shaped(10, 4, Some(3_000)).with_seed(3),
    )
    .generate();
    let indexed = edge_database(&tree, &dtd);
    assert!(indexed.indexed_relations() > 0, "load built indexes");
    // an equivalent store whose indexes were never built
    let mut plain = Database::new();
    for name in indexed.names() {
        plain.insert(name, indexed.get(name).unwrap().clone());
    }
    *plain.dict_mut() = indexed.dict().clone();
    assert_eq!(plain.indexed_relations(), 0);
    let path = parse_xpath("Even//Obje[Sour]").unwrap();
    let tr = Translator::new(&dtd).translate(&path).unwrap();
    // with_interval(false): this test measures the hash-join path; the
    // interval rewrite would answer `//` without those joins entirely
    let mut with_idx = Stats::default();
    let a = tr
        .try_run(
            &indexed,
            ExecOptions::default().with_interval(false),
            &mut with_idx,
        )
        .unwrap();
    let mut without_idx = Stats::default();
    let b = tr
        .try_run(
            &plain,
            ExecOptions::default().with_interval(false),
            &mut without_idx,
        )
        .unwrap();
    assert_eq!(a, b, "cached indexes changed answers");
    assert!(
        with_idx.join_index_reuses > 0,
        "workload joins reuse the cached indexes"
    );
    assert_eq!(without_idx.join_index_reuses, 0);
}

/// A seeded random relation `(K, S, P)`. `K` draws from a small pool — so
/// keys repeat on both sides — holding every kind of value a join key can
/// be: NULL (which must never match, not even another NULL), the document
/// marker, ids and dictionary codes. `S` is a text column drawn from
/// `texts` (NULL included). `P` numbers the rows.
fn random_keyed_relation(
    rows: u32,
    keys: &[Value],
    texts: &[Value],
    next: &mut impl FnMut() -> u64,
) -> Relation {
    let mut pick = |pool: &[Value]| pool[(next() % pool.len() as u64) as usize];
    let mut rel = Relation::new(3);
    for i in 0..rows {
        let row = [pick(keys), pick(texts), Value::Id(i)];
        rel.push_row(&row);
    }
    rel
}

/// The reference join: for each left row in order, the right rows in order
/// whose key column equals the left row's, which must not be NULL.
fn nested_loop_join(
    left: &Relation,
    right: &Relation,
    (a, b): (usize, usize),
    kind: JoinKind,
) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    for l in left.rows() {
        let matches: Vec<&[Value]> = right
            .rows()
            .filter(|r| l[a] != Value::Null && l[a] == r[b])
            .collect();
        match kind {
            JoinKind::Inner => out.extend(matches.iter().map(|r| [l, r].concat())),
            JoinKind::Semi if !matches.is_empty() => out.push(l.to_vec()),
            JoinKind::Anti if matches.is_empty() => out.push(l.to_vec()),
            _ => {}
        }
    }
    out
}

/// Every join shape the executor treats specially equals the reference
/// *as an ordered bag*: same rows, same multiplicities, same order. The
/// chained build table hands matches back in ascending row order and NULL
/// keys match nothing; running its build loop front to back, or dropping
/// the NULL check, fails here. The σ holds `col = 'text'` tests — a
/// conjunction over both sides above an inner join — and the reference
/// evaluates it on each cell's dictionary text.
#[test]
fn join_kernels_equal_a_nested_loop_reference_as_ordered_bags() {
    let mut x = 0x5EED_0021_u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut plain = Database::new();
    let (code_s, code_t) = (plain.intern_str("s"), plain.intern_str("t"));
    let keys = [
        Value::Null,
        Value::Doc,
        Value::Id(1),
        Value::Id(2),
        code_s,
        code_t,
    ];
    let texts = [Value::Null, code_s, code_t];
    let left = random_keyed_relation(90, &keys, &texts, &mut next);
    let right = random_keyed_relation(110, &keys, &texts, &mut next);
    plain.insert("L", left.clone());
    plain.insert("R", right.clone());
    // the same store with load-time indexes: joins then probe the store's
    // F/T index on the right key column instead of building a table
    let mut indexed = plain.clone();
    indexed.build_indexes();
    // a σ as its `col = 'text'` conjuncts, and the same σ as a plan
    let holds = |conds: &[(usize, &str)], t: &[Value]| {
        conds
            .iter()
            .all(|&(c, text)| plain.text(&t[c]) == Some(text))
    };
    let pred_of = |conds: &[(usize, &str)]| {
        let text_is = |&(c, text): &(usize, &str)| Pred::ColEqText(c, text.into());
        conds[1..].iter().fold(text_is(&conds[0]), |p, cond| {
            Pred::And(Box::new(p), Box::new(text_is(cond)))
        })
    };

    for kind in [JoinKind::Inner, JoinKind::Semi, JoinKind::Anti] {
        // keys: mixed against mixed, codes against mixed, mixed against
        // codes — on the right's F and T columns alike
        for on in [(0, 0), (1, 0), (0, 1)] {
            let joined = nested_loop_join(&left, &right, on, kind);
            let join = Plan::Join {
                left: Box::new(Plan::Scan("L".into())),
                right: Box::new(Plan::Scan("R".into())),
                on,
                kind,
            };
            // σ and π over the joined arity: 6 columns for inner, 3 otherwise.
            // A semi or anti join's σ tests `S` alone: joined on `K`, a σ
            // fixing `K` too would keep that key's rows in the semi join or
            // in the anti join, never in both.
            let (conds, cols) = if kind == JoinKind::Inner {
                (vec![(1, "s"), (4, "t")], vec![(4, "a"), (0, "b"), (2, "c")])
            } else {
                (vec![(1, "t")], vec![(1, "a"), (0, "b")])
            };
            let pred = pred_of(&conds);
            let project = |rows: &[Vec<Value>]| -> Vec<Vec<Value>> {
                rows.iter()
                    .map(|t| cols.iter().map(|&(c, _)| t[c]).collect())
                    .collect()
            };
            let selected: Vec<Vec<Value>> = joined
                .iter()
                .filter(|t| holds(&conds, t))
                .cloned()
                .collect();
            // every code in `S` has a match in the right's `K`, so that anti
            // join keeps only the rows whose `S` is NULL, which the σ drops
            assert_eq!(
                selected.is_empty(),
                (kind, on) == (JoinKind::Anti, (1, 0)),
                "{kind:?} on {on:?}: the σ keeps rows"
            );
            let mut seen = std::collections::HashSet::new();
            let distinct: Vec<Vec<Value>> = project(&joined)
                .into_iter()
                .filter(|t| seen.insert(t.clone()))
                .collect();
            let shapes = [
                ("bare", join.clone(), joined.clone()),
                ("σ", join.clone().select(pred.clone()), selected.clone()),
                ("π", join.clone().project(cols.clone()), project(&joined)),
                (
                    "π(σ)",
                    join.clone().select(pred.clone()).project(cols.clone()),
                    project(&selected),
                ),
                (
                    "δ(π)",
                    Plan::Distinct(Box::new(join.clone().project(cols.clone()))),
                    distinct,
                ),
            ];
            for (shape, plan, want) in shapes {
                for (store, db) in [("plain", &plain), ("indexed", &indexed)] {
                    let mut prog = Program::new();
                    let t = prog.push(plan.clone(), shape);
                    prog.set_result(t);
                    let mut stats = Stats::default();
                    let got = prog
                        .execute(db, ExecOptions::default(), &mut stats)
                        .unwrap();
                    let got: Vec<Vec<Value>> = got.rows().map(|t| t.to_vec()).collect();
                    let ctx = format!("{kind:?} on {on:?}, {shape}, {store} store");
                    assert_eq!(got, want, "{ctx}");
                    // each logical operator counts once, fused or not
                    assert_eq!(stats.joins, 1, "{ctx}");
                    let (selects, projects) = match shape {
                        "σ" => (1, 0),
                        "π" | "δ(π)" => (0, 1),
                        "π(σ)" => (1, 1),
                        _ => (0, 0),
                    };
                    assert_eq!(
                        (stats.selects, stats.projects),
                        (selects, projects),
                        "{ctx}"
                    );
                    assert_eq!(
                        stats.join_index_reuses,
                        usize::from(store == "indexed"),
                        "{ctx}"
                    );
                }
            }
        }
    }
    // σ/π above an inner join never materialise the joined rows
    let mut prog = Program::new();
    let fused = Plan::Scan("L".into())
        .join_on(Plan::Scan("R".into()), 0, 0)
        .project(vec![(5, "P")]);
    let t = prog.push(fused, "π above ⋈");
    prog.set_result(t);
    let mut stats = Stats::default();
    let out = prog
        .execute(&plain, ExecOptions::default(), &mut stats)
        .unwrap();
    assert_eq!(
        stats.tuples_emitted,
        out.len() as u64,
        "only the projected rows are emitted"
    );
}
