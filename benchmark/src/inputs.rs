//! Seeded inputs: everything a workload feeds the program — DTD *text*, XML
//! *text*, the fixed query lists and the write schedule — is made here from
//! `--seed`, before any clock starts. The program under test receives only
//! these; the benchmark keeps each document's [`Tree`] for its oracle.

use x2s_dtd::{samples, Dtd};
use x2s_xml::rng::SplitMix64;
use x2s_xml::{to_xml_string, Generator, GeneratorConfig, NodeId, Tree};

/// The four workloads. Names are final: later issues cite them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadId {
    /// Point lookups through `QueryService` on a warm plan cache.
    PointWarm,
    /// `//` scans on intact interval labels.
    ScanInterval,
    /// Writes beside `//` reads on a store whose labels are gone (LFP).
    WriteThenScan,
    /// Cold translation to SQL over the paper's four recursive DTDs.
    TranslateCold,
}

impl WorkloadId {
    /// All four, in the order `--workload all` runs them.
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::PointWarm,
        WorkloadId::ScanInterval,
        WorkloadId::WriteThenScan,
        WorkloadId::TranslateCold,
    ];

    /// The name used on the command line and in every output.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::PointWarm => "point_warm",
            WorkloadId::ScanInterval => "scan_interval",
            WorkloadId::WriteThenScan => "write_then_scan",
            WorkloadId::TranslateCold => "translate_cold",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rounds per block, `R`: a constant of the benchmark, never derived
    /// from a clock. A round is one pass over the operation list; a block is
    /// `R` rounds — about one second on the reference machine — and is the
    /// unit the best-of rule picks from. Sizing runs on one input (so all
    /// spread is the machine's) gave the ten-run spread of the best block's
    /// p50 / p90 / throughput as 2.6 / 4.0 / 1.9 % with two-second blocks
    /// and 2.4 / 1.4 / 1.4 % with one-second blocks in the same twelve
    /// seconds: interference comes in bursts of seconds, and more, shorter
    /// blocks give the best-of rule more chances to miss one. `R` is odd on
    /// the five-query workloads so a block's pooled p50 and p90 are exactly
    /// the median of the third-slowest and the slowest query's `R` samples.
    /// `--quick` cuts `R` to a smoke size.
    pub fn rounds_per_block(self, quick: bool) -> usize {
        let full = match self {
            WorkloadId::PointWarm => 251,
            WorkloadId::ScanInterval => 5,
            WorkloadId::WriteThenScan => 5,
            WorkloadId::TranslateCold => 40,
        };
        if quick {
            (full / 12).max(2)
        } else {
            full
        }
    }

    /// Timed read queries per round (5 or 15: the pooled p50 and p90 then
    /// fall inside one query's latency mode, never on the step between two).
    pub fn reads_per_round(self) -> usize {
        match self {
            WorkloadId::TranslateCold => TRANSLATE_QUERIES.iter().map(|(_, qs)| qs.len()).sum(),
            _ => 5,
        }
    }
}

/// `point_warm`: answers of 0–30 ids each; what is left of a request is
/// `rel::exec` hash joins and selections over base relations.
/// `dept/student` is sat-pruned and answers ∅ without a plan.
pub const POINT_QUERIES: [&str; 5] = [
    "dept/course",
    "dept/course/student",
    "dept/student",
    "dept/course/course/project",
    "dept/course[project]",
];

/// `scan_interval` and `write_then_scan`: the same five `//` queries, run
/// as staircase joins on intact labels and as LFP closures once a write
/// dropped them.
pub const SCAN_QUERIES: [&str; 5] = [
    "dept//project",
    "dept//course[project or student]",
    "dept//student[course]",
    "dept/course//course/project",
    "dept//course",
];

/// `translate_cold`: 15 queries over the paper's four recursive DTDs, none
/// sat-pruned, each translated from a cleared plan cache.
pub const TRANSLATE_QUERIES: [(&str, &[&str]); 4] = [
    (
        "dept",
        &[
            "dept//project",
            "dept//course[project or takenBy/student]",
            "dept/course/takenBy/student/qualified//course",
            "dept//course[not //project]",
            "dept//project/required//course[prereq/course]",
        ],
    ),
    (
        "cross",
        &[
            "a/b//c/d",
            "a[//c]//d",
            "a[not //c or (b and //d)]",
            "a//b/a//c[d]",
        ],
    ),
    (
        "gedml",
        &["Even//Data", "Even//Obje[Sour]", "Even//Sour[//Note]//Obje"],
    ),
    (
        "bioml",
        &[
            "gene//locus",
            "gene/dna//clone[dna]",
            "gene//clone//gene/locus",
        ],
    ),
];

/// New `project` leaves per write.
pub const WRITE_BATCH: usize = 16;

/// How many seeds `s, s+1, …` the document rule tries before giving up.
const MAX_SEED_TRIES: u64 = 4096;

/// One generated document, as text for the program and as a tree for the
/// oracle.
pub struct Doc {
    /// Sample name (`dept_simplified`, `dept`, `cross`, `gedml`, `bioml`).
    pub dtd_name: &'static str,
    /// The benchmark's own DTD object (the oracle's; never handed over).
    pub dtd: Dtd,
    /// What the program receives: the DTD as `<!ELEMENT …>` text …
    pub dtd_text: String,
    /// … and the document as XML text.
    pub xml: String,
    /// The document with node ids in document order — the ids a parser
    /// assigns while reading `xml`, so oracle and program agree on them.
    pub tree: Tree,
    /// The seed that produced the accepted tree (`seed`, or a later one).
    pub doc_seed: u64,
}

/// A workload's complete inputs.
pub struct Inputs {
    /// Which workload.
    pub workload: WorkloadId,
    /// The `--seed` they were made from.
    pub seed: u64,
    /// One document (the three document workloads) or four.
    pub docs: Vec<Doc>,
    /// `(index into docs, query text)` in round order.
    pub queries: Vec<(usize, &'static str)>,
}

/// Size rule for a generated document.
#[derive(Clone, Copy, Debug)]
pub enum SizeRule {
    /// Budget-trim to exactly this many elements (`tree.len() == target` is
    /// the acceptance test, so a seed whose tree dies out early is skipped).
    Exactly(usize),
    /// No trimming; accept a tree whose size falls in this range.
    Between(usize, usize),
}

impl SizeRule {
    fn target(self) -> Option<usize> {
        match self {
            SizeRule::Exactly(n) => Some(n),
            SizeRule::Between(..) => None,
        }
    }

    fn accepts(self, len: usize) -> bool {
        match self {
            SizeRule::Exactly(n) => len == n,
            SizeRule::Between(lo, hi) => (lo..=hi).contains(&len),
        }
    }
}

/// The seed-retry document rule: the document of seed `s` is the first tree
/// generated from seeds `s, s+1, …` that the size rule accepts. Needed
/// because the root's content is starred: seed 42 alone gives `dept` zero
/// children and a 1-element tree. Returns the tree and the seed that made
/// it.
pub fn first_accepted(dtd: &Dtd, xl: usize, xr: usize, rule: SizeRule, seed: u64) -> (Tree, u64) {
    for s in seed..seed + MAX_SEED_TRIES {
        let cfg = GeneratorConfig::shaped(xl, xr, rule.target()).with_seed(s);
        let tree = Generator::new(dtd, cfg).generate();
        if rule.accepts(tree.len()) {
            return (tree, s);
        }
    }
    panic!(
        "no seed in {seed}..{} satisfies {rule:?}",
        seed + MAX_SEED_TRIES
    );
}

/// Rebuild `tree` with node ids in document order. The generator numbers
/// nodes breadth-first; a parser reading the serialised text numbers them
/// in document order, and answers are sets of those ids.
pub fn in_document_order(tree: &Tree) -> Tree {
    let mut out = Tree::with_root(tree.label(tree.root()));
    out.set_value(out.root(), tree.value(tree.root()));
    // (old node, its new id); children pushed reversed so the leftmost pops
    // first and ids are handed out in pre-order
    let mut stack: Vec<(NodeId, NodeId)> = tree
        .children(tree.root())
        .iter()
        .rev()
        .map(|&c| (c, out.root()))
        .collect();
    while let Some((old, new_parent)) = stack.pop() {
        let new = out.add_child(new_parent, tree.label(old));
        out.set_value(new, tree.value(old));
        stack.extend(tree.children(old).iter().rev().map(|&c| (c, new)));
    }
    out
}

fn make_doc(dtd_name: &'static str, xl: usize, xr: usize, rule: SizeRule, seed: u64) -> Doc {
    let dtd = match dtd_name {
        "dept_simplified" => samples::dept_simplified(),
        "dept" => samples::dept(),
        "cross" => samples::cross(),
        "gedml" => samples::gedml(),
        "bioml" => samples::bioml(),
        other => panic!("no sample DTD named {other}"),
    };
    let (generated, doc_seed) = first_accepted(&dtd, xl, xr, rule, seed);
    let tree = in_document_order(&generated);
    Doc {
        dtd_name,
        dtd_text: dtd.to_dtd_text(),
        xml: to_xml_string(&tree, &dtd),
        dtd,
        tree,
        doc_seed,
    }
}

/// Generate `workload`'s inputs from `seed`, at the benchmark's sizes.
///
/// * `point_warm`, `scan_interval`: `dept_simplified`, X_L 12, X_R 4,
///   trimmed to 120 000 elements — the paper's default data set.
/// * `write_then_scan`: the same at 30 000 elements (LFP costs about ten
///   times the interval path, so a quarter of the document fits the run).
/// * `translate_cold`: four documents of about 2 000 elements, used by the
///   oracle check and to give `setup_s` something to measure. `cross`,
///   `gedml` and `bioml` star every child, so any trimmed tree is valid and
///   they are trimmed to exactly 2 000 — untrimmed they range from 1 to
///   100 000 elements across seeds, and set-up time and memory with them.
///   The full `dept` DTD has required children, which trimming would cut
///   (`load_xml` then rejects the document with `ContentMismatch`), so it is
///   left untrimmed and a seed is accepted when its tree has 1 980–2 020
///   elements (about one seed in a hundred).
pub fn generate(workload: WorkloadId, seed: u64) -> Inputs {
    let elements = match workload {
        WorkloadId::PointWarm | WorkloadId::ScanInterval => 120_000,
        WorkloadId::WriteThenScan => 30_000,
        WorkloadId::TranslateCold => 2_000,
    };
    generate_sized(workload, seed, elements)
}

/// [`generate`] with the document size given — the unit tests run the real
/// workloads on documents of a few hundred elements.
pub fn generate_sized(workload: WorkloadId, seed: u64, elements: usize) -> Inputs {
    let (docs, queries): (Vec<Doc>, Vec<(usize, &'static str)>) = match workload {
        WorkloadId::PointWarm | WorkloadId::ScanInterval | WorkloadId::WriteThenScan => {
            let list = if workload == WorkloadId::PointWarm {
                POINT_QUERIES
            } else {
                SCAN_QUERIES
            };
            (
                vec![make_doc(
                    "dept_simplified",
                    12,
                    4,
                    SizeRule::Exactly(elements),
                    seed,
                )],
                list.iter().map(|&q| (0, q)).collect(),
            )
        }
        WorkloadId::TranslateCold => {
            let docs = TRANSLATE_QUERIES
                .iter()
                .map(|&(name, _)| {
                    let rule = if name == "dept" {
                        SizeRule::Between(elements - elements / 100, elements + elements / 100)
                    } else {
                        SizeRule::Exactly(elements)
                    };
                    make_doc(name, 8, 4, rule, seed)
                })
                .collect();
            let queries = TRANSLATE_QUERIES
                .iter()
                .enumerate()
                .flat_map(|(i, (_, qs))| qs.iter().map(move |&q| (i, q)))
                .collect();
            (docs, queries)
        }
    };
    Inputs {
        workload,
        seed,
        docs,
        queries,
    }
}

/// The write schedule of `write_then_scan`: every write adds
/// [`WRITE_BATCH`] `project` leaves under `course` parents drawn, with
/// replacement, from the courses of the *generated* document. Restarted at
/// each block, so every block performs the same writes.
pub struct WriteSchedule {
    courses: Vec<NodeId>,
    seed: u64,
    rng: SplitMix64,
}

impl WriteSchedule {
    /// Schedule over the `course` elements of `doc`, seeded from `seed`.
    pub fn new(doc: &Doc, seed: u64) -> WriteSchedule {
        let course = doc.dtd.elem("course").expect("dept DTDs declare course");
        let courses: Vec<NodeId> = doc
            .tree
            .node_ids()
            .filter(|&n| doc.tree.label(n) == course)
            .collect();
        assert!(!courses.is_empty(), "document has no course to write under");
        WriteSchedule {
            courses,
            seed,
            rng: SplitMix64::seed_from_u64(seed),
        }
    }

    /// Rewind to the first write.
    pub fn restart(&mut self) {
        self.rng = SplitMix64::seed_from_u64(self.seed);
    }

    /// Parents of the next write's new leaves.
    pub fn next_parents(&mut self) -> [NodeId; WRITE_BATCH] {
        let n = self.courses.len();
        std::array::from_fn(|_| self.courses[self.rng.gen_range(0..n)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2s_xml::parse_xml;

    #[test]
    fn seed_retry_skips_trees_that_die_out() {
        let d = samples::dept_simplified();
        // seed 42 gives the starred root no children
        let lone =
            Generator::new(&d, GeneratorConfig::shaped(12, 4, Some(500)).with_seed(42)).generate();
        assert_eq!(lone.len(), 1);
        let (tree, used) = first_accepted(&d, 12, 4, SizeRule::Exactly(500), 42);
        assert_eq!(tree.len(), 500);
        assert_eq!(used, 43);
        // a seed that works is used as is, and the rule is deterministic
        let (again, used_again) = first_accepted(&d, 12, 4, SizeRule::Exactly(500), 43);
        assert_eq!(used_again, 43);
        assert_eq!(again.preorder(), tree.preorder());
    }

    #[test]
    fn size_window_applies_to_untrimmed_documents() {
        let d = samples::dept();
        let (tree, used) = first_accepted(&d, 8, 4, SizeRule::Between(1_980, 2_020), 3);
        assert!((1_980..=2_020).contains(&tree.len()), "{}", tree.len());
        // seed 3 itself gives a 1-element tree
        assert!(used > 3);
    }

    #[test]
    fn document_order_ids_are_the_parsers_ids() {
        let d = samples::cross();
        let (generated, _) = first_accepted(&d, 8, 4, SizeRule::Exactly(300), 1);
        let ours = in_document_order(&generated);
        assert_eq!(ours.len(), generated.len());
        let parsed = parse_xml(&d, &to_xml_string(&ours, &d)).expect("own XML parses");
        assert_eq!(parsed.len(), ours.len());
        for n in ours.node_ids() {
            assert_eq!(parsed.label(n), ours.label(n));
            assert_eq!(parsed.parent(n), ours.parent(n));
            assert_eq!(parsed.children(n), ours.children(n));
            assert_eq!(parsed.value(n), ours.value(n));
        }
        // and document order means: ids ascend along the pre-order walk
        let pre = ours.preorder();
        assert!(pre.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn same_seed_same_inputs_and_round_shapes() {
        let a = generate(WorkloadId::TranslateCold, 7);
        let b = generate(WorkloadId::TranslateCold, 7);
        assert_eq!(a.docs.len(), 4);
        assert_eq!(a.queries.len(), 15);
        assert_eq!(WorkloadId::TranslateCold.reads_per_round(), 15);
        for (x, y) in a.docs.iter().zip(&b.docs) {
            assert_eq!(x.xml, y.xml);
            assert_eq!(x.dtd_text, y.dtd_text);
        }
        for w in WorkloadId::ALL {
            assert_eq!(WorkloadId::parse(w.name()), Some(w));
        }
        assert_eq!(WorkloadId::parse("deep_scan"), None);
    }

    #[test]
    fn write_schedule_repeats_after_restart() {
        let inputs = generate_sized(WorkloadId::WriteThenScan, 5, 400);
        let mut s = WriteSchedule::new(&inputs.docs[0], 5);
        let first = (s.next_parents(), s.next_parents());
        s.restart();
        assert_eq!((s.next_parents(), s.next_parents()), first);
        let course = inputs.docs[0].dtd.elem("course").unwrap();
        assert!(first
            .0
            .iter()
            .all(|&p| inputs.docs[0].tree.label(p) == course));
    }
}
