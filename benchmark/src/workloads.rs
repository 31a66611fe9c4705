//! The four workloads as the end-to-end binary runs them: through the front
//! doors only — `parse_dtd`, `Engine::{new, load_xml, load_database,
//! database, query, sql, clear_plan_cache, stats}`, `QueryService::{new,
//! query}`, `Database::{get, insert, clone}`, `Relation::push_row`,
//! `Tree::add_child` and the native evaluator. A change to any layer's API
//! below those cannot break this file; every other layer call lives in
//! `layers.rs`, which only `x2s-trace` links.

use crate::inputs::{Doc, Inputs, WorkloadId, WriteSchedule, WRITE_BATCH};
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};
use x2s_core::Engine;
use x2s_dtd::{parse_dtd, Dtd};
use x2s_rel::{Database, Value};
use x2s_serve::QueryService;
use x2s_xml::{NodeId, Tree};
use x2s_xpath::{eval_from_document, parse_xpath};

/// What kind of operation a round slot is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// A timed query (or translation).
    Read,
    /// A timed store mutation.
    Write,
}

/// The result of one operation.
#[derive(Clone, Copy, Debug)]
pub struct Outcome {
    /// Read or write.
    pub kind: OpKind,
    /// Time inside the front-door call alone: the clock stops before the
    /// reply is checked or dropped.
    pub latency: Duration,
    /// The call succeeded and its reply agreed with the oracle.
    pub ok: bool,
}

/// A workload, driven by `runner::drive`.
pub trait Workload {
    /// Called once before anything else, with the rounds a block will run:
    /// precompute whatever the in-flight reply check needs.
    fn prepare(&mut self, _rounds: usize) {}
    /// Compare every query's full answer set with the native evaluator on
    /// the benchmark's own tree, outside any clock. Returns `(checked,
    /// failed)`.
    fn verify(&mut self) -> (u64, u64);
    /// Bring the store to the state every block starts from.
    fn begin_block(&mut self) {}
    /// Operations in one round.
    fn ops_per_round(&self) -> usize;
    /// Run operation `i` of the next round.
    fn op(&mut self, i: usize) -> Outcome;
    /// Sum of `Engine::stats().tuples_emitted` over the workload's engines.
    fn tuples_emitted(&self) -> u64;
    /// Bytes of SQL text rendered so far (`translate_cold` only).
    fn sql_bytes(&self) -> u64 {
        0
    }
}

/// Set-up, step one: DTD text → DTD objects.
pub fn parse_dtds(inputs: &Inputs) -> Vec<Dtd> {
    inputs
        .docs
        .iter()
        .map(|d| parse_dtd(&d.dtd_text).expect("generated DTD text parses"))
        .collect()
}

/// Set-up, step two: one engine per document, loaded from XML text
/// (parse, validate, shred, label, index) and ready to answer.
pub fn load_engines<'d>(dtds: &'d [Dtd], inputs: &Inputs) -> Vec<Engine<'d>> {
    dtds.iter()
        .zip(&inputs.docs)
        .map(|(dtd, doc)| {
            let mut engine = Engine::new(dtd);
            engine
                .load_xml(&doc.xml)
                .expect("generated XML loads under its DTD");
            engine
        })
        .collect()
}

/// The oracle: the native evaluator on the benchmark's own tree.
pub fn oracle(doc: &Doc, tree: &Tree, query: &str) -> BTreeSet<u32> {
    let path = parse_xpath(query).expect("benchmark queries parse");
    eval_from_document(&path, tree, &doc.dtd)
        .into_iter()
        .map(|n| n.0)
        .collect()
}

/// One oracle comparison: does the engine's full answer set equal the
/// oracle's? A disagreement is reported on standard error.
fn agrees<E>(
    context: &str,
    query: &str,
    got: Result<BTreeSet<u32>, E>,
    want: &BTreeSet<u32>,
) -> bool {
    let ok = got.as_ref().ok() == Some(want);
    if !ok {
        eprintln!(
            "MISMATCH {query} {context}: engine {:?} answers, oracle {}",
            got.map(|s| s.len()).ok(),
            want.len()
        );
    }
    ok
}

/// Build the workload named by `inputs` over freshly set-up `engines`.
pub fn build<'e, 'd: 'e>(
    inputs: &'e Inputs,
    engines: &'e mut [Engine<'d>],
) -> Box<dyn Workload + 'e> {
    match inputs.workload {
        WorkloadId::PointWarm => Box::new(ReadOnly::new(inputs, &engines[0], true)),
        WorkloadId::ScanInterval => Box::new(ReadOnly::new(inputs, &engines[0], false)),
        WorkloadId::WriteThenScan => Box::new(WriteThenScan::new(inputs, &mut engines[0])),
        WorkloadId::TranslateCold => Box::new(TranslateCold::new(inputs, engines)),
    }
}

/// `point_warm` (through `QueryService`, as an HTTP worker calls it) and
/// `scan_interval` (through `Engine::query`): fixed queries over a store
/// that never changes.
struct ReadOnly<'e, 'd> {
    engine: &'e Engine<'d>,
    service: Option<QueryService<'e, 'd>>,
    doc: &'e Doc,
    queries: Vec<&'static str>,
    expected: Vec<BTreeSet<u32>>,
}

impl<'e, 'd> ReadOnly<'e, 'd> {
    fn new(inputs: &'e Inputs, engine: &'e Engine<'d>, through_service: bool) -> Self {
        let doc = &inputs.docs[0];
        let queries: Vec<&'static str> = inputs.queries.iter().map(|&(_, q)| q).collect();
        let expected = queries.iter().map(|q| oracle(doc, &doc.tree, q)).collect();
        ReadOnly {
            engine,
            service: through_service.then(|| QueryService::new(engine)),
            doc,
            queries,
            expected,
        }
    }
}

impl Workload for ReadOnly<'_, '_> {
    fn verify(&mut self) -> (u64, u64) {
        let mut failed = 0;
        for (q, want) in self.queries.iter().zip(&self.expected) {
            let got = match &self.service {
                Some(svc) => svc.query(q).map(|o| (*o.answers).clone()),
                None => self.engine.query(q),
            };
            failed += u64::from(!agrees(self.doc.dtd_name, q, got, want));
        }
        (self.queries.len() as u64, failed)
    }

    fn ops_per_round(&self) -> usize {
        self.queries.len()
    }

    fn op(&mut self, i: usize) -> Outcome {
        let q = self.queries[i];
        let (latency, answers) = match &self.service {
            Some(svc) => {
                let start = Instant::now();
                let reply = svc.query(q);
                (start.elapsed(), reply.map(|o| o.answers.len()).ok())
            }
            None => {
                let start = Instant::now();
                let reply = self.engine.query(q);
                (start.elapsed(), reply.map(|s| s.len()).ok())
            }
        };
        Outcome {
            kind: OpKind::Read,
            latency,
            ok: answers == Some(self.expected[i].len()),
        }
    }

    fn tuples_emitted(&self) -> u64 {
        self.engine.stats().tuples_emitted
    }
}

/// `write_then_scan`: each round is one write — [`WRITE_BATCH`] new
/// `project` leaves — followed by the five `//` queries. Any insert drops
/// the store's interval labels, so every read runs as `rel::lfp` closures.
///
/// Every block replays the same writes from the same starting store, so
/// blocks do equal work and the oracle needs one dry run: `prepare` applies
/// the schedule to the benchmark's own tree and records each round's answer
/// counts. New node ids are the next free ids of that tree, which is how
/// the timed write knows them without touching the mirror.
struct WriteThenScan<'e, 'd> {
    engine: &'e mut Engine<'d>,
    doc: &'e Doc,
    queries: Vec<&'static str>,
    schedule: WriteSchedule,
    /// The state every block starts from: the loaded store after one write
    /// (made in `new`, so no timed read ever sees interval labels) …
    base_db: Database,
    /// … and the oracle's tree in that state.
    base_tree: Tree,
    /// The oracle's tree after a whole block's writes.
    full_tree: Tree,
    db: Database,
    /// Answer counts after the k-th write of a block.
    expected: Vec<Vec<usize>>,
    round: usize,
}

impl<'e, 'd> WriteThenScan<'e, 'd> {
    fn new(inputs: &'e Inputs, engine: &'e mut Engine<'d>) -> Self {
        let doc = &inputs.docs[0];
        let db = engine.database().expect("set-up loaded a document").clone();
        let mut w = WriteThenScan {
            engine,
            doc,
            queries: inputs.queries.iter().map(|&(_, q)| q).collect(),
            schedule: WriteSchedule::new(doc, inputs.seed),
            base_db: Database::new(),
            base_tree: doc.tree.clone(),
            full_tree: doc.tree.clone(),
            db,
            expected: Vec::new(),
            round: 0,
        };
        let parents = w.schedule.next_parents();
        let first_id = w.base_tree.len() as u32;
        w.write(&parents, first_id);
        mirror(&mut w.base_tree, doc, &parents);
        w.base_db = w.db.clone();
        w
    }

    /// One write, front doors only: clone the two relations the new rows
    /// belong to, append, put them back, and hand the engine a copy of the
    /// store. Returns the time from first clone to engine ready.
    fn write(&mut self, parents: &[NodeId; WRITE_BATCH], first_id: u32) -> Duration {
        let rows: [[Value; 3]; WRITE_BATCH] = std::array::from_fn(|k| {
            [
                Value::Id(parents[k].0),
                Value::Id(first_id + k as u32),
                Value::Null,
            ]
        });
        let start = Instant::now();
        for name in ["R_project", "R__nodes"] {
            let mut rel = self
                .db
                .get(name)
                .expect("edge shredding has the relation")
                .clone();
            for row in &rows {
                rel.push_row(row);
            }
            self.db.insert(name, rel);
        }
        self.engine.load_database(self.db.clone());
        start.elapsed()
    }

    fn check_against(&self, tree: &Tree) -> (u64, u64) {
        let mut failed = 0;
        for q in &self.queries {
            let want = oracle(self.doc, tree, q);
            let context = format!("after {} writes", self.round);
            failed += u64::from(!agrees(&context, q, self.engine.query(q), &want));
        }
        (self.queries.len() as u64, failed)
    }
}

/// Apply one write to the oracle's tree; `add_child` hands out the next
/// free id, the same ids `write` computes.
fn mirror(tree: &mut Tree, doc: &Doc, parents: &[NodeId; WRITE_BATCH]) {
    let project = doc.dtd.elem("project").expect("dept DTDs declare project");
    for &parent in parents {
        tree.add_child(parent, project);
    }
}

impl Workload for WriteThenScan<'_, '_> {
    fn prepare(&mut self, rounds: usize) {
        self.begin_block();
        self.full_tree = self.base_tree.clone();
        self.expected.clear();
        for _ in 0..rounds {
            let parents = self.schedule.next_parents();
            mirror(&mut self.full_tree, self.doc, &parents);
            let counts = self
                .queries
                .iter()
                .map(|q| oracle(self.doc, &self.full_tree, q).len())
                .collect();
            self.expected.push(counts);
        }
        self.begin_block();
    }

    /// Valid at the two states the oracle keeps a tree for: the start of a
    /// block, and the end of a whole one (the final tree, after the last
    /// write).
    fn verify(&mut self) -> (u64, u64) {
        if self.round == 0 {
            self.check_against(&self.base_tree)
        } else {
            assert_eq!(self.round, self.expected.len(), "verify mid-block");
            self.check_against(&self.full_tree)
        }
    }

    fn begin_block(&mut self) {
        self.db = self.base_db.clone();
        self.engine.load_database(self.db.clone());
        self.schedule.restart();
        // the write `new` made is part of the base state
        self.schedule.next_parents();
        self.round = 0;
    }

    fn ops_per_round(&self) -> usize {
        1 + self.queries.len()
    }

    fn op(&mut self, i: usize) -> Outcome {
        if i == 0 {
            let parents = self.schedule.next_parents();
            let first_id = (self.base_tree.len() + self.round * WRITE_BATCH) as u32;
            let latency = self.write(&parents, first_id);
            self.round += 1;
            return Outcome {
                kind: OpKind::Write,
                latency,
                ok: true,
            };
        }
        let start = Instant::now();
        let reply = self.engine.query(self.queries[i - 1]);
        let latency = start.elapsed();
        let want = self
            .expected
            .get(self.round - 1)
            .map(|counts| counts[i - 1]);
        Outcome {
            kind: OpKind::Read,
            latency,
            ok: want.is_some() && reply.map(|s| s.len()).ok() == want,
        }
    }

    fn tuples_emitted(&self) -> u64 {
        self.engine.stats().tuples_emitted
    }
}

/// `translate_cold`: every round clears all four plan caches and renders
/// each of the 15 queries to SQL once — parse → canonicalize → sat →
/// x2e/CycleEX → e2sql → optimize → analyze → interval compile → render.
/// The executor does nothing.
struct TranslateCold<'e, 'd> {
    engines: &'e [Engine<'d>],
    docs: &'e [Doc],
    queries: &'e [(usize, &'static str)],
    /// Hash of each query's SQL text from `verify`; every round must render
    /// the same bytes.
    sql_hash: Vec<u64>,
    sql_bytes: u64,
}

fn text_hash(text: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

impl<'e, 'd> TranslateCold<'e, 'd> {
    fn new(inputs: &'e Inputs, engines: &'e [Engine<'d>]) -> Self {
        TranslateCold {
            engines,
            docs: &inputs.docs,
            queries: &inputs.queries,
            sql_hash: Vec::new(),
            sql_bytes: 0,
        }
    }
}

impl Workload for TranslateCold<'_, '_> {
    /// The SQL itself has no oracle here (nothing executes it yet), so the
    /// check is on what it was compiled from: each query must answer
    /// correctly on its small document, and its SQL text is pinned.
    fn verify(&mut self) -> (u64, u64) {
        let mut failed = 0;
        self.sql_hash.clear();
        for &(d, q) in self.queries {
            let doc = &self.docs[d];
            let want = oracle(doc, &doc.tree, q);
            failed += u64::from(!agrees(doc.dtd_name, q, self.engines[d].query(q), &want));
            match self.engines[d].sql(q) {
                Ok(sql) => self.sql_hash.push(text_hash(&sql)),
                Err(e) => {
                    eprintln!("MISMATCH {q} on {}: no SQL: {e}", doc.dtd_name);
                    self.sql_hash.push(0);
                    failed += 1;
                }
            }
        }
        (2 * self.queries.len() as u64, failed)
    }

    fn ops_per_round(&self) -> usize {
        self.queries.len()
    }

    fn op(&mut self, i: usize) -> Outcome {
        if i == 0 {
            for engine in self.engines {
                engine.clear_plan_cache();
            }
        }
        let (d, q) = self.queries[i];
        let start = Instant::now();
        let reply = self.engines[d].sql(q);
        let latency = start.elapsed();
        let ok = match &reply {
            Ok(sql) => {
                self.sql_bytes += sql.len() as u64;
                text_hash(sql) == self.sql_hash[i]
            }
            Err(_) => false,
        };
        Outcome {
            kind: OpKind::Read,
            latency,
            ok,
        }
    }

    fn tuples_emitted(&self) -> u64 {
        self.engines.iter().map(|e| e.stats().tuples_emitted).sum()
    }

    fn sql_bytes(&self) -> u64 {
        self.sql_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{generate, generate_sized};
    use crate::runner::{drive, RunReport};
    use crate::weather::Weather;

    /// Every workload, on documents of a few hundred elements: two blocks of
    /// two rounds, every check on.
    #[test]
    fn all_four_run_clean_and_blocks_do_equal_work() {
        let mut weather = Weather::new();
        for id in WorkloadId::ALL {
            let inputs = match id {
                WorkloadId::TranslateCold => generate(id, 7),
                _ => generate_sized(id, 7, 600),
            };
            let dtds = parse_dtds(&inputs);
            let mut engines = load_engines(&dtds, &inputs);
            let mut workload = build(&inputs, &mut engines);
            let timed = drive(workload.as_mut(), 2, 0.0, &mut weather);
            assert_eq!(timed.failed(), 0, "{}", id.name());
            assert_eq!(timed.blocks.len(), 2);
            let ops = 2 * workload.ops_per_round() as u64;
            assert!(timed.blocks.iter().all(|b| b.ops == ops));
            assert_eq!(timed.attempted(), timed.verified + 2 * ops);
            // exact cost counters: the two blocks are indistinguishable
            let (a, b) = (&timed.blocks[0], &timed.blocks[1]);
            assert_eq!(
                (a.alloc, a.tuples, a.sql_bytes),
                (b.alloc, b.tuples, b.sql_bytes)
            );
            assert!(a.alloc.calls > 0);
        }
    }

    #[test]
    fn write_then_scan_reads_never_see_interval_labels() {
        let inputs = generate_sized(WorkloadId::WriteThenScan, 3, 500);
        let dtds = parse_dtds(&inputs);
        let mut engines = load_engines(&dtds, &inputs);
        assert!(engines[0].database().expect("loaded").has_intervals());
        let mut w = WriteThenScan::new(&inputs, &mut engines[0]);
        w.prepare(3);
        assert!(!w.engine.database().expect("loaded").has_intervals());
        // three writes of 16 leaves each, mirrored by the oracle's dry run
        assert_eq!(w.full_tree.len(), w.base_tree.len() + 3 * WRITE_BATCH);
        assert_eq!(w.base_tree.len(), 500 + WRITE_BATCH);
        for round in 0..3 {
            for i in 0..w.ops_per_round() {
                assert!(w.op(i).ok, "round {round} op {i}");
            }
        }
        assert_eq!(w.verify().1, 0, "final tree after the last write");
        assert_eq!(
            w.db.get("R__nodes").expect("edge relation").len(),
            w.full_tree.len()
        );
    }

    /// One corrupted oracle answer must fail the run and the command.
    #[test]
    fn a_wrong_answer_fails_the_run() {
        let inputs = generate_sized(WorkloadId::ScanInterval, 11, 400);
        let dtds = parse_dtds(&inputs);
        let engines = load_engines(&dtds, &inputs);
        let mut w = ReadOnly::new(&inputs, &engines[0], false);
        w.expected[1].insert(u32::MAX);
        let timed = drive(&mut w, 2, 0.0, &mut Weather::new());
        // caught by both oracle comparisons and by every timed reply of
        // that query
        assert_eq!(timed.verify_failed, 2);
        assert_eq!(timed.failed(), 2 + 2 * 2);
        let report = RunReport {
            workload: WorkloadId::ScanInterval,
            metrics: Vec::new(),
            attempted: timed.attempted(),
            failed: timed.failed(),
            file: crate::json::Json::Null,
        };
        assert!(!report.correct());
        assert_ne!(report.exit_code(), 0);
        assert!(report.result_line().starts_with("{\"correct\":false,"));
    }
}
