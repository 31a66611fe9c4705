//! `XPathToEXp` (paper Fig. 8) and `RewQual` (Fig. 9): rewrite an XPath
//! query over a (possibly recursive) DTD into an extended XPath query that
//! is equivalent over *all DTDs containing D* (Theorem 4.2).
//!
//! Dynamic programming over (sub-query `p`, context type `A`, target type
//! `B`): each local translation `x2e(p, A, B)` is an extended XPath
//! expression; non-atomic results are bound to fresh variables so that
//! sharing keeps the whole query polynomial. The descendant axis is
//! instantiated by `rec(A, C)` from a pluggable strategy:
//!
//! * [`RecMode::CycleEx`] — the shared all-pairs [`RecTable`] (default);
//! * [`RecMode::CycleE`] — Tarjan regular expressions (exponential; for the
//!   experimental comparison);
//! * [`RecMode::External`] — leave one opaque variable per `rec(A, C)` and
//!   report it in [`XpathTranslation::external_recs`]; the SQLGen-R
//!   baseline substitutes its `WITH…RECURSIVE` product fixpoint there
//!   ("we tested SQLGen-R by generating a with…recursive query for each
//!   rec(A, B) in our translation framework", §6).
//!
//! `RewQual` evaluates qualifiers against the DTD structure where possible:
//! unreachable paths fold to `false`, qualifiers whose path language
//! contains ε fold to `true`, and Boolean connectives constant-fold —
//! removing structural joins before any SQL exists.

use crate::cyclee::{rec_matrix, CycleEError};
use crate::cycleex::RecTable;
use crate::graph::{TNode, TransGraph};
use crate::pipeline::TranslateError;
use std::collections::{BTreeMap, HashMap};
use x2s_dtd::Dtd;
use x2s_exp::{simplify, EQual, Exp, ExtendedQuery, VarId};
use x2s_xpath::{Path, Qual};

/// How `rec(A, B)` is computed.
#[derive(Clone, Debug)]
pub enum RecMode {
    /// CycleEX (Fig. 7): shared all-pairs table.
    CycleEx,
    /// CycleE (Fig. 6): regular expressions from one all-pairs matrix
    /// per translation, capped.
    CycleE {
        /// AST-node cap before reporting blowup.
        cap: usize,
    },
    /// Opaque per-pair variables for an external recursion provider.
    External,
}

/// An opaque `rec` variable awaiting an external definition (SQLGen-R).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExternalRec {
    /// The placeholder variable.
    pub var: VarId,
    /// Source node.
    pub from: TNode,
    /// Target node.
    pub to: TNode,
}

/// A variable known to denote exactly `rec(A, B)` for one element-type
/// pair: on a loaded instance the variable's relation (restricted to
/// `A`-typed sources, which every use site guarantees) is precisely the set
/// of ancestor/descendant node pairs `(x, y)` with `x` of type `A` and `y`
/// of type `B`. It is the freshly bound `(A, B)` entry of a child-step `//`
/// (`A//B`, `A//*`): under CycleEX every `//` is pushed down to such steps
/// before it is translated, so `A//B[q]` puts `[q]` on after it and
/// `A//(B/C)` reads `(A//B)/C`. The engine's interval fast path overrides
/// the variable with one pre/post range join for the whole `//` step
/// instead of an `LFP`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecHint {
    /// The variable (ids refer to the *unpruned* query; follow them through
    /// [`ExtendedQuery::pruned_with_map`]).
    pub var: VarId,
    /// Source element-type name (`A`).
    pub from: String,
    /// Target element-type name (`B`).
    pub to: String,
}

/// Result of `XPathToEXp`.
pub struct XpathTranslation {
    /// The extended XPath query (not yet pruned).
    pub query: ExtendedQuery,
    /// Target types reachable by the whole query from the document.
    pub reach_result: Vec<TNode>,
    /// Placeholder `rec` variables (External mode only).
    pub external_recs: Vec<ExternalRec>,
    /// Variables denoting a whole `rec(A, B)` between element types, one
    /// per entry of a child-step `//` (CycleEX mode only) — candidates for
    /// the interval fast path. Document-sourced entries are excluded: the
    /// document node has no interval label (it is not stored).
    pub rec_hints: Vec<RecHint>,
}

/// Translate an XPath query over `dtd` to an extended XPath query.
pub fn xpath_to_exp(
    path: &Path,
    dtd: &Dtd,
    mode: &RecMode,
) -> Result<XpathTranslation, TranslateError> {
    let g = TransGraph::new(dtd);
    X2e::new(&g, mode).run(path)
}

/// Local translations of one sub-query: `x2e(p, A, B)` per pair plus static
/// nullability (ε ∈ language) per context.
#[derive(Default)]
struct SubTable {
    entries: BTreeMap<(TNode, TNode), Exp>,
    nullable: BTreeMap<TNode, bool>,
}

impl SubTable {
    fn is_nullable(&self, a: TNode) -> bool {
        self.nullable.get(&a).copied().unwrap_or(false)
    }
}

struct X2e<'a> {
    g: &'a TransGraph<'a>,
    mode: RecMode,
    query: ExtendedQuery,
    rec_table: Option<RecTable>,
    /// CycleE's whole `rec` matrix, ε-free parts, filled on the first
    /// `rec` this translation asks for.
    cyclee_matrix: Option<Vec<Vec<Exp>>>,
    external_cache: HashMap<(TNode, TNode), Exp>,
    external_recs: Vec<ExternalRec>,
    rec_hints: Vec<RecHint>,
}

impl<'a> X2e<'a> {
    fn new(g: &'a TransGraph<'a>, mode: &RecMode) -> Self {
        X2e {
            g,
            mode: mode.clone(),
            query: ExtendedQuery::default(),
            rec_table: None,
            cyclee_matrix: None,
            external_cache: HashMap::new(),
            external_recs: Vec::new(),
            rec_hints: Vec::new(),
        }
    }

    /// Translate `path` and assemble the whole query's answer from the
    /// document's entries.
    fn run(mut self, path: &Path) -> Result<XpathTranslation, TranslateError> {
        let table = self.translate(path)?;
        let doc = self.g.doc();
        let mut result = Exp::EmptySet;
        let mut reach_result = Vec::new();
        for (&(a, b), exp) in &table.entries {
            if a == doc {
                result = result.or(exp.clone());
                reach_result.push(b);
            }
        }
        // ε at the document (query matching the document node itself)
        // denotes a non-element and contributes nothing to the answer set,
        // but keeping it is harmless; simplification tidies the union.
        self.query.result = simplify(&result);
        Ok(XpathTranslation {
            query: self.query,
            reach_result,
            external_recs: self.external_recs,
            rec_hints: self.rec_hints,
        })
    }

    /// ε-free part of `rec(a, c)` (ε is implicit exactly when `a == c`).
    fn rec_eps_free(&mut self, a: TNode, c: TNode) -> Result<Exp, TranslateError> {
        match self.mode.clone() {
            RecMode::CycleEx => {
                let table = match &self.rec_table {
                    Some(t) => t,
                    None => {
                        let t = RecTable::build_into(&mut self.query, self.g);
                        self.rec_table.get_or_insert(t)
                    }
                };
                Ok(table.rec_eps_free(a, c).clone())
            }
            RecMode::CycleE { cap } => {
                let matrix = match &self.cyclee_matrix {
                    Some(m) => m,
                    None => {
                        let m = rec_matrix(self.g, cap).map_err(
                            |CycleEError::TooLarge { cap, reached }| TranslateError::RecBlowup {
                                cap,
                                reached,
                            },
                        )?;
                        let eps_free = m
                            .into_iter()
                            .map(|row| row.into_iter().map(|e| split_eps(e).1).collect())
                            .collect();
                        self.cyclee_matrix.get_or_insert(eps_free)
                    }
                };
                Ok(matrix[a][c].clone())
            }
            RecMode::External => {
                if let Some(e) = self.external_cache.get(&(a, c)) {
                    return Ok(e.clone());
                }
                // unreachable pairs stay ∅ (no placeholder needed)
                let strictly_reaches = self
                    .g
                    .children(a)
                    .iter()
                    .any(|&child| self.g.reaches_or_self(child, c));
                let exp = if strictly_reaches {
                    let var = self.query.push_equation(
                        Exp::EmptySet,
                        format!("external rec({}, {})", self.g.name(a), self.g.name(c)),
                    );
                    self.external_recs.push(ExternalRec {
                        var,
                        from: a,
                        to: c,
                    });
                    Exp::Var(var)
                } else {
                    Exp::EmptySet
                };
                self.external_cache.insert((a, c), exp.clone());
                Ok(exp)
            }
        }
    }

    fn translate(&mut self, p: &Path) -> Result<SubTable, TranslateError> {
        let n = self.g.len();
        let mut out = SubTable::default();
        match p {
            Path::Empty => {
                for a in 0..n {
                    out.entries.insert((a, a), Exp::Epsilon);
                    out.nullable.insert(a, true);
                }
            }
            Path::EmptySet => {}
            Path::Label(name) => {
                if let Some(id) = self.g.dtd.elem(name) {
                    let b = self.g.node(id);
                    for a in 0..n {
                        if self.g.has_edge(a, b) {
                            out.entries.insert((a, b), Exp::label(name));
                        }
                    }
                }
            }
            Path::Wildcard => {
                for a in 0..n {
                    for b in self.g.children(a) {
                        out.entries.insert((a, b), Exp::label(self.g.name(b)));
                    }
                }
            }
            Path::Seq(p1, p2) => {
                let t1 = self.translate(p1)?;
                let t2 = self.translate(p2)?;
                out = self.seq(&t1, &t2);
            }
            Path::Descendant(p1) if matches!(self.mode, RecMode::CycleEx) => {
                out = self.push_down(p1)?;
            }
            Path::Descendant(p1) => {
                let t1 = self.translate(p1)?;
                out = self.descendant(&t1)?;
            }
            Path::Union(p1, p2) => {
                let t1 = self.translate(p1)?;
                let t2 = self.translate(p2)?;
                out = self.union(t1, t2);
            }
            Path::Qualified(p1, q) => {
                let t1 = self.translate(p1)?;
                out = self.qualify(&t1, q)?;
            }
        }
        Ok(out)
    }

    /// `p₁/p₂` from the translations of `p₁` and `p₂`.
    fn seq(&mut self, t1: &SubTable, t2: &SubTable) -> SubTable {
        let mut out = SubTable::default();
        for (&(a, c), e1) in &t1.entries {
            for (&(c2, b), e2) in &t2.entries {
                if c2 != c {
                    continue;
                }
                let comp = e1.clone().then(e2.clone());
                merge(&mut out.entries, (a, b), comp);
            }
        }
        for a in 0..self.g.len() {
            out.nullable
                .insert(a, t1.is_nullable(a) && t2.is_nullable(a));
        }
        self.bind_table(&mut out, "seq");
        out
    }

    /// `p₁ | p₂` from the translations of `p₁` and `p₂`.
    fn union(&mut self, t1: SubTable, t2: SubTable) -> SubTable {
        let mut out = SubTable::default();
        for a in 0..self.g.len() {
            out.nullable
                .insert(a, t1.is_nullable(a) || t2.is_nullable(a));
        }
        out.entries = t1.entries;
        for ((a, b), e) in t2.entries {
            merge(&mut out.entries, (a, b), e);
        }
        self.bind_table(&mut out, "union");
        out
    }

    /// `//p` under CycleEX: distribute `//` over `p` until its operand is
    /// one child step, then translate that with [`descendant`]. Each rule
    /// holds on every tree, whatever the DTD:
    ///
    /// ```text
    /// //(p₁/p₂) = (//p₁)/p₂     //(p₁ | p₂) = //p₁ | //p₂     //. = . | //*
    /// //(//p)   = //p           //∅ = ∅                       //(p[q]) = (//p)[q]
    /// ```
    ///
    /// [`descendant`]: X2e::descendant
    fn push_down(&mut self, p: &Path) -> Result<SubTable, TranslateError> {
        Ok(match p {
            Path::Seq(p1, p2) => {
                let t1 = self.push_down(p1)?;
                let t2 = self.translate(p2)?;
                self.seq(&t1, &t2)
            }
            Path::Union(p1, p2) => {
                let t1 = self.push_down(p1)?;
                let t2 = self.push_down(p2)?;
                self.union(t1, t2)
            }
            Path::Empty => {
                let t1 = self.translate(p)?;
                let t2 = self.push_down(&Path::Wildcard)?;
                self.union(t1, t2)
            }
            Path::Descendant(p1) => self.push_down(p1)?,
            Path::EmptySet => SubTable::default(),
            Path::Qualified(p1, q) => {
                let t1 = self.push_down(p1)?;
                self.qualify(&t1, q)?
            }
            Path::Label(_) | Path::Wildcard => {
                let t1 = self.translate(p)?;
                self.descendant(&t1)?
            }
        })
    }

    /// `//p` from the translation `t1` of `p`: every `rec(a, c)` composed
    /// with `p`'s entries at `c`.
    ///
    /// Under CycleEX `p` is one child step ([`push_down`](X2e::push_down)),
    /// so the entry at `(a, b)` is exactly the `b`-typed proper descendants
    /// of `a`-typed nodes: each one bound to a fresh variable with `a` an
    /// element is recorded as a [`RecHint`].
    fn descendant(&mut self, t1: &SubTable) -> Result<SubTable, TranslateError> {
        let n = self.g.len();
        let mut out = SubTable::default();
        for a in 0..n {
            for c in self.g.reach_or_self_set(a) {
                let eps_free = self.rec_eps_free(a, c)?;
                for (&(c2, b), e1) in &t1.entries {
                    if c2 != c {
                        continue;
                    }
                    // rec(a,c) = (a==c ? ε) ∪ eps_free; distribute:
                    let mut contribution = eps_free.clone().then(e1.clone());
                    if a == c {
                        contribution = e1.clone().or(contribution);
                    }
                    merge(&mut out.entries, (a, b), contribution);
                }
            }
            out.nullable.insert(a, t1.is_nullable(a));
        }
        let first_fresh = self.query.equations.len();
        self.bind_table(&mut out, "descendant");
        if !matches!(self.mode, RecMode::CycleEx) {
            return Ok(out);
        }
        for (&(a, b), exp) in &out.entries {
            // only a variable bound just now denotes this entry alone
            match exp {
                Exp::Var(v) if v.0 as usize >= first_fresh && self.g.elem(a).is_some() => {
                    self.rec_hints.push(RecHint {
                        var: *v,
                        from: self.g.name(a).to_string(),
                        to: self.g.name(b).to_string(),
                    })
                }
                _ => {}
            }
        }
        Ok(out)
    }

    /// `p[q]` from the translation `t1` of `p`.
    fn qualify(&mut self, t1: &SubTable, q: &Qual) -> Result<SubTable, TranslateError> {
        let n = self.g.len();
        let mut out = SubTable::default();
        let quals = self.rew_qual(q)?;
        for (&(a, b), e1) in &t1.entries {
            let q_at_b = quals.get(&b).cloned().unwrap_or(EQual::False);
            let qualified = e1.clone().qualified(q_at_b);
            if !qualified.is_empty_set() {
                merge(&mut out.entries, (a, b), qualified);
            }
        }
        for a in 0..n {
            let q_at_a = quals.get(&a).cloned().unwrap_or(EQual::False);
            out.nullable
                .insert(a, t1.is_nullable(a) && q_at_a == EQual::True);
        }
        self.bind_table(&mut out, "qualified");
        Ok(out)
    }

    /// `RewQual(q, B)` for every context `B` at once (Fig. 9).
    fn rew_qual(&mut self, q: &Qual) -> Result<BTreeMap<TNode, EQual>, TranslateError> {
        let n = self.g.len();
        let mut out = BTreeMap::new();
        match q {
            Qual::Path(p) => {
                let t = self.translate(p)?;
                for b in 0..n {
                    if t.is_nullable(b) {
                        // ε ∈ p at B: the context node itself witnesses [p]
                        out.insert(b, EQual::True);
                        continue;
                    }
                    let mut union = Exp::EmptySet;
                    for (&(b2, _), e) in &t.entries {
                        if b2 == b {
                            union = union.or(e.clone());
                        }
                    }
                    let folded = if union.is_empty_set() {
                        EQual::False
                    } else {
                        EQual::exp(union)
                    };
                    out.insert(b, folded);
                }
            }
            Qual::TextEq(c) => {
                for b in 0..n {
                    // the document node has no text; element types keep the
                    // dynamic test (DTD text-licensing folds it when absent)
                    let folded = match self.g.elem(b) {
                        None => EQual::False,
                        Some(id) => {
                            if self.g.dtd.allows_text(id) {
                                EQual::TextEq(c.clone())
                            } else {
                                EQual::False
                            }
                        }
                    };
                    out.insert(b, folded);
                }
            }
            Qual::Not(inner) => {
                let qs = self.rew_qual(inner)?;
                for b in 0..n {
                    let v = match qs.get(&b).cloned().unwrap_or(EQual::False) {
                        EQual::True => EQual::False,
                        EQual::False => EQual::True,
                        other => EQual::Not(Box::new(other)),
                    };
                    out.insert(b, v);
                }
            }
            Qual::And(x, y) => {
                let (qx, qy) = (self.rew_qual(x)?, self.rew_qual(y)?);
                for b in 0..n {
                    let v = match (
                        qx.get(&b).cloned().unwrap_or(EQual::False),
                        qy.get(&b).cloned().unwrap_or(EQual::False),
                    ) {
                        (EQual::False, _) | (_, EQual::False) => EQual::False,
                        (EQual::True, o) | (o, EQual::True) => o,
                        (a2, b2) => EQual::And(Box::new(a2), Box::new(b2)),
                    };
                    out.insert(b, v);
                }
            }
            Qual::Or(x, y) => {
                let (qx, qy) = (self.rew_qual(x)?, self.rew_qual(y)?);
                for b in 0..n {
                    let v = match (
                        qx.get(&b).cloned().unwrap_or(EQual::False),
                        qy.get(&b).cloned().unwrap_or(EQual::False),
                    ) {
                        (EQual::True, _) | (_, EQual::True) => EQual::True,
                        (EQual::False, o) | (o, EQual::False) => o,
                        (a2, b2) => EQual::Or(Box::new(a2), Box::new(b2)),
                    };
                    out.insert(b, v);
                }
            }
        }
        Ok(out)
    }

    /// Bind non-atomic entries to variables so that parent compositions
    /// reference them by name — the sharing that keeps the translation
    /// polynomial (§4.2).
    fn bind_table(&mut self, table: &mut SubTable, what: &str) {
        for ((a, b), exp) in table.entries.iter_mut() {
            let simplified = simplify(exp);
            *exp = match simplified {
                Exp::Epsilon | Exp::EmptySet | Exp::Label(_) | Exp::Var(_) => simplified,
                other => {
                    let note = format!("x2e({what}) {} → {}", self.g.name(*a), self.g.name(*b));
                    Exp::Var(self.query.push_equation(other, note))
                }
            };
        }
        table.entries.retain(|_, e| !e.is_empty_set());
    }
}

fn merge(map: &mut BTreeMap<(TNode, TNode), Exp>, key: (TNode, TNode), exp: Exp) {
    if exp.is_empty_set() {
        return;
    }
    match map.remove(&key) {
        Some(prev) => {
            map.insert(key, prev.or(exp));
        }
        None => {
            map.insert(key, exp);
        }
    }
}

/// Split a top-level ε out of an expression: returns (has ε at top level,
/// the remainder). Only inspects top-level unions — sound for CycleE output
/// whose ε appears (if at all) as a top-level union operand after
/// simplification.
fn split_eps(exp: Exp) -> (bool, Exp) {
    match exp {
        Exp::Epsilon => (true, Exp::EmptySet),
        Exp::Union(parts) => {
            let has = parts.contains(&Exp::Epsilon);
            let mut rest: Vec<Exp> = parts.into_iter().filter(|p| *p != Exp::Epsilon).collect();
            let e = match (rest.len(), rest.pop()) {
                (1, Some(only)) => only,
                (_, None) => Exp::EmptySet,
                (_, Some(last)) => {
                    rest.push(last);
                    Exp::Union(rest)
                }
            };
            (has, e)
        }
        other => (false, other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use x2s_dtd::samples;
    use x2s_xml::{parse_xml, NodeId, Tree};
    use x2s_xpath::{eval_from_document, parse_xpath};

    /// Under CycleE every `rec` cell comes from one matrix per translation,
    /// and the extended query is the one the per-pair reference gives: for
    /// every `//A//B` over every sample DTD, the text is identical.
    #[test]
    fn cyclee_queries_equal_the_per_pair_reference() {
        use crate::cyclee::{rec_regular, samples_but_dept};
        let mode = RecMode::CycleE { cap: 1_000_000 };
        for dtd in samples_but_dept() {
            let g = TransGraph::new(&dtd);
            let reference: Vec<Vec<Exp>> = (0..g.len())
                .map(|a| {
                    (0..g.len())
                        .map(|b| split_eps(rec_regular(&g, a, b, 1_000_000).unwrap()).1)
                        .collect()
                })
                .collect();
            for a in dtd.ids() {
                for b in dtd.ids() {
                    let q = format!("//{}//{}", dtd.name(a), dtd.name(b));
                    let path = parse_xpath(&q).unwrap();
                    let got = xpath_to_exp(&path, &dtd, &mode).unwrap();
                    let mut tr = X2e::new(&g, &mode);
                    tr.cyclee_matrix = Some(reference.clone());
                    let want = tr.run(&path).unwrap();
                    assert_eq!(got.query.to_string(), want.query.to_string(), "{q}");
                    assert_eq!(got.reach_result, want.reach_result, "{q}");
                }
            }
        }
    }

    fn table1_doc() -> (Dtd, Tree) {
        let d = samples::dept_simplified();
        let t = parse_xml(
            &d,
            "<dept><course><course><course/><project><course><project/></course></project></course><student/><student><course/></student></course></dept>",
        )
        .unwrap();
        (d, t)
    }

    /// The central equivalence (Theorem 4.2): native XPath evaluation ==
    /// extended-XPath evaluation of the translation, on conforming trees.
    fn check_equiv(dtd: &Dtd, tree: &Tree, query: &str) {
        let path = parse_xpath(query).unwrap();
        let native: BTreeSet<NodeId> = eval_from_document(&path, tree, dtd);
        for mode in [RecMode::CycleEx, RecMode::CycleE { cap: 1_000_000 }] {
            let tr = xpath_to_exp(&path, dtd, &mode).unwrap();
            let pruned = tr.query.pruned();
            let via_exp = pruned.eval_from_document(tree, dtd);
            assert_eq!(via_exp, native, "query {query} mode {mode:?}");
        }
    }

    #[test]
    fn q1_dept_descendant_project() {
        let (d, t) = table1_doc();
        check_equiv(&d, &t, "dept//project");
    }

    #[test]
    fn child_paths_and_wildcards() {
        let (d, t) = table1_doc();
        for q in [
            "dept",
            "dept/course",
            "dept/course/course",
            "dept/*",
            "dept/course/*",
            "*",
            ".",
            "dept/course/.",
        ] {
            check_equiv(&d, &t, q);
        }
    }

    #[test]
    fn descendant_variants() {
        let (d, t) = table1_doc();
        for q in [
            "//project",
            "//course",
            "dept//course",
            "dept/course//project",
            "dept//course//project",
            "dept//.",
            "//.",
            // `//` pushed down to child steps under CycleEX
            "dept//(course/project)",
            "dept//(student | course/project)[course]",
            "//(//student | course)",
        ] {
            check_equiv(&d, &t, q);
        }
    }

    #[test]
    fn unions() {
        let (d, t) = table1_doc();
        for q in [
            "dept/course/(student | project)",
            "dept//(student | project)",
            "dept/course | dept/course/course",
        ] {
            check_equiv(&d, &t, q);
        }
    }

    #[test]
    fn qualifiers() {
        let (d, t) = table1_doc();
        for q in [
            "dept/course[student]",
            "dept/course/student[course]",
            "dept/course/student[not course]",
            "dept//course[project and not student]",
            "dept//course[project or student]",
            "dept//course[//project]",
            "dept//course[not //project]",
            // `//(p[q])` translated as `(//p)[q]` when `p` is a child step
            "dept//course[project][student]",
            "dept//*[course]",
            "dept//(student | project)[course]",
            "//course[project]",
            "dept//course[.]",
            "dept//(course/student)[course]",
        ] {
            check_equiv(&d, &t, q);
        }
    }

    #[test]
    fn text_qualifiers() {
        let (d, mut t) = table1_doc();
        // give the deepest leaf course a value
        let course = d.elem("course").unwrap();
        let leaf = t
            .node_ids()
            .filter(|&n| t.label(n) == course && t.children(n).is_empty())
            .last()
            .unwrap();
        t.set_value(leaf, Some("cs66"));
        for q in [
            "dept//course[text()=\"cs66\"]",
            "dept//course[text()=\"nope\"]",
            "dept//course[not text()=\"cs66\"]",
        ] {
            check_equiv(&d, &t, q);
        }
    }

    #[test]
    fn statically_false_qualifiers_fold() {
        let d = samples::dept_simplified();
        let path = parse_xpath("dept/course[zzz]").unwrap();
        let tr = xpath_to_exp(&path, &d, &RecMode::CycleEx).unwrap();
        let pruned = tr.query.pruned();
        assert!(pruned.result.is_empty_set(), "unreachable qualifier → ∅");
        // and ¬[zzz] folds to true, leaving the plain path (after variable
        // elimination — pruning keeps non-trivial equations as equations)
        let path = parse_xpath("dept/course[not zzz]").unwrap();
        let tr = xpath_to_exp(&path, &d, &RecMode::CycleEx).unwrap();
        let pruned = tr.query.pruned();
        let eliminated = x2s_exp::to_regular(&pruned, 10_000).unwrap();
        assert_eq!(eliminated.to_string(), "dept/course");
    }

    #[test]
    fn epsilon_qualifier_is_true() {
        let (d, t) = table1_doc();
        check_equiv(&d, &t, "dept/course[.]");
    }

    #[test]
    fn unknown_labels_yield_empty() {
        let d = samples::dept_simplified();
        for q in ["zzz", "dept/zzz", "//zzz", "dept//zzz"] {
            let path = parse_xpath(q).unwrap();
            let tr = xpath_to_exp(&path, &d, &RecMode::CycleEx).unwrap();
            assert!(tr.query.pruned().result.is_empty_set(), "{q}");
        }
    }

    #[test]
    fn cross_exp1_queries_equivalent() {
        let d = samples::cross();
        let t = parse_xml(&d, "<a><b><a><c><d/></c></a></b><c><a/><d/></c></a>").unwrap();
        for q in [
            "a/b//c/d",
            "a[//c]//d",
            "a[not //c]",
            "a[not //c or (b and //d)]",
            "a//d",
        ] {
            check_equiv(&d, &t, q);
        }
    }

    #[test]
    fn recursive_root_type() {
        // GedML's root type recurs — the doc node disambiguates
        let d = samples::gedml();
        let t = parse_xml(
            &d,
            "<Even><Sour><Data><Even><Sour/></Even></Data><Note/></Sour><Obje/></Even>",
        )
        .unwrap();
        for q in ["Even//Data", "Even/Sour/Data", "//Even", "Even//Even"] {
            check_equiv(&d, &t, q);
        }
    }

    #[test]
    fn external_mode_emits_placeholders() {
        let d = samples::dept_simplified();
        let path = parse_xpath("dept//project").unwrap();
        let tr = xpath_to_exp(&path, &d, &RecMode::External).unwrap();
        assert!(!tr.external_recs.is_empty());
        let g = TransGraph::new(&d);
        for er in &tr.external_recs {
            assert!(g.reaches_or_self(er.from, er.to));
        }
    }

    #[test]
    fn example_2_2_q2_translates() {
        // Q2 over the full dept DTD (the query SQLGen-R cannot handle)
        let d = samples::dept();
        let path = parse_xpath(
            r#"dept/course[//prereq/course[cno = "cs66"] and not //project and not takenBy/student/qualified//course[cno = "cs66"]]"#,
        )
        .unwrap();
        let tr = xpath_to_exp(&path, &d, &RecMode::CycleEx).unwrap();
        let pruned = tr.query.pruned();
        assert!(!pruned.result.is_empty_set());
        // sanity: evaluates on a conforming document
        let t = parse_xml(
            &d,
            "<dept><course><cno>cs01</cno><title/><prereq><course><cno>cs66</cno><title/><prereq/><takenBy/></course></prereq><takenBy/></course></dept>",
        )
        .unwrap();
        let native = eval_from_document(&path, &t, &d);
        let got = pruned.eval_from_document(&t, &d);
        assert_eq!(native, got);
        assert_eq!(got.len(), 1, "the cs01 course qualifies");
    }

    /// The `(A, B)` entry of a child-step `//` is a `rec(A, B)` hint exactly
    /// when `A` is an element; the interval path then answers the whole
    /// `//` step with one range join per target type. Any other operand is
    /// pushed down to child steps first.
    #[test]
    fn child_step_descendants_are_whole_rec_hints() {
        let d = samples::dept_simplified();
        for (q, want) in [
            ("dept//course", &["dept → course"][..]),
            ("dept//course[project or student]", &["dept → course"]),
            ("dept/course//course/project", &["course → course"]),
            (
                "dept//course[not(//project)]",
                &["dept → course", "course → project"],
            ),
            (
                "dept//*",
                &["dept → course", "dept → student", "dept → project"],
            ),
            // `(dept//course)/project`
            ("dept//(course/project)", &["dept → course"]),
            // sourced at the document
            ("//course", &[]),
            ("//(//student | course)", &[]),
        ] {
            let tr = xpath_to_exp(&parse_xpath(q).unwrap(), &d, &RecMode::CycleEx).unwrap();
            // every context gets an entry; the query reads those that
            // survive pruning
            let (_, survivors) = tr.query.pruned_with_map();
            let mut got: Vec<String> = tr
                .rec_hints
                .iter()
                .filter(|h| survivors.contains_key(&h.var))
                .filter(|h| {
                    tr.query.equations[h.var.0 as usize]
                        .note
                        .starts_with("x2e(descendant)")
                })
                .map(|h| format!("{} → {}", h.from, h.to))
                .collect();
            got.sort();
            let mut want: Vec<String> = want.iter().map(|s| s.to_string()).collect();
            want.sort();
            assert_eq!(got, want, "{q}");
        }
    }

    #[test]
    fn wildcard_descendant_interaction() {
        let (d, t) = table1_doc();
        for q in ["dept//*", "//*", "dept/*//project", "dept//*[project]"] {
            check_equiv(&d, &t, q);
        }
    }
}
