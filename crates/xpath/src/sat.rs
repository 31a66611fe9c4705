//! Static satisfiability analysis: decide at *prepare* time whether a query
//! can match **any** document of the DTD — before translation, SQL
//! generation, or execution spend a microsecond on it.
//!
//! The paper translates every XPath at the schema level, so a query that can
//! never match under the (recursive) DTD still pays full CycleEX
//! translation and LFP execution just to produce an empty answer. Ishihara
//! et al. show satisfiability of this fragment is tractable for real-world
//! DTDs, and the check is cheap: propagate *element-type sets* through the
//! query over the DTD graph `G_D` (the same graph the translation itself
//! walks) and watch for the set that empties.
//!
//! # The analysis
//!
//! A context is a set of element types plus a flag for the virtual document
//! node (mirroring the native evaluator's `Ctx::Doc`). Steps transform it:
//!
//! * `A` keeps the types that have an `A` child edge in `G_D` (the document
//!   node contributes the root type iff it is named `A`);
//! * `*` moves to all child types;
//! * `//p` closes the context under descendant-or-self reachability
//!   ([`x2s_dtd::DtdGraph::reach_strict`]) before analyzing `p`;
//! * `p₁ ∪ p₂` unions the arm results — empty only if both arms are;
//! * `p[q]` keeps the types where `q` *may* hold: a path qualifier whose
//!   own type set empties kills the type, `text() = c` requires the type's
//!   content model to allow `#PCDATA` ([`x2s_dtd::Dtd::allows_text`]), and
//!   `¬q` prunes only when `q` *certainly* holds (see below).
//!
//! The verdict is [`Sat::Empty`] with a human-readable [`Witness`] (which
//! step emptied and why) or [`Sat::NonEmpty`] with the inferred result-type
//! set. The analysis is a *may*-analysis and therefore **sound for
//! pruning**: an edge `A → B` in `G_D` means a valid document *may* place a
//! `B` child under an `A` element, so when the analysis says `Empty` no
//! valid document can produce an answer. It is deliberately incomplete —
//! a `NonEmpty` verdict is a conservative "cannot rule it out" (e.g. a
//! qualifier combination may be unsatisfiable for reasons beyond the
//! graph) — which is exactly the right polarity for an admission gate.
//!
//! Certainty (for `¬q` pruning and [`SatAnalyzer::normalize`]) uses the
//! dual *must*-analysis over [`x2s_dtd::ContentModel::required_children`]: a chain
//! of children that occur in **every** word of each content model along the
//! way certainly exists in every valid document.
//!
//! ```
//! use x2s_xpath::parse_xpath;
//! use x2s_xpath::sat::{Sat, SatAnalyzer};
//!
//! let dtd = x2s_dtd::samples::dept_simplified();
//! let sat = SatAnalyzer::new(&dtd);
//! // `project` never appears directly under `dept` in the DTD graph:
//! let p = parse_xpath("dept/project").unwrap();
//! let Sat::Empty { witness } = sat.check(&p) else { panic!() };
//! assert!(witness.to_string().contains("project"));
//! // the recursive closure does reach it:
//! let p = parse_xpath("dept//project").unwrap();
//! assert!(matches!(sat.check(&p), Sat::NonEmpty { .. }));
//! ```

use crate::ast::{Path, Qual};
use std::fmt;
use x2s_dtd::graph::IdSet;
use x2s_dtd::{Dtd, DtdGraph, ElemId};

/// Why the analyzer pronounced a query statically empty. Each kind maps to
/// a distinct structural defect, so mutation tests (and users reading a
/// rejection) can tell a typo from a schema violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WitnessKind {
    /// A label step names an element type the DTD does not declare.
    UnknownTag,
    /// The first step from the document names a type other than the root.
    RootMismatch,
    /// A child step has no supporting edge in the DTD graph.
    NoChildEdge,
    /// A `//` step's target is unreachable from every context type.
    NoDescendant,
    /// A `text() = c` qualifier under types whose content models all
    /// forbid `#PCDATA`.
    TextUnsupported,
    /// A qualifier (or qualifier combination) that can hold at none of the
    /// candidate types.
    QualifierNeverHolds,
    /// A conjunct and its own negation appear in one qualifier chain.
    ContradictoryQualifiers,
    /// The `∅` literal (paper §2.2) selects no nodes by definition.
    EmptySetLiteral,
    /// The query selects only the virtual document node, which the native
    /// evaluator never reports as an element answer.
    DocumentOnly,
}

impl fmt::Display for WitnessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            WitnessKind::UnknownTag => "unknown-tag",
            WitnessKind::RootMismatch => "root-mismatch",
            WitnessKind::NoChildEdge => "no-child-edge",
            WitnessKind::NoDescendant => "no-descendant",
            WitnessKind::TextUnsupported => "text-unsupported",
            WitnessKind::QualifierNeverHolds => "qualifier-never-holds",
            WitnessKind::ContradictoryQualifiers => "contradictory-qualifiers",
            WitnessKind::EmptySetLiteral => "empty-set-literal",
            WitnessKind::DocumentOnly => "document-only",
        };
        f.write_str(name)
    }
}

/// A human-readable proof of emptiness: the sub-expression whose type set
/// emptied and the schema fact that emptied it, with element names already
/// resolved against the DTD.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    /// The structural defect class.
    pub kind: WitnessKind,
    /// Rendering of the step or sub-expression that emptied.
    pub step: String,
    /// Why it emptied, in terms of the DTD.
    pub reason: String,
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] `{}`: {}", self.kind, self.step, self.reason)
    }
}

/// The analyzer's verdict on one query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Sat {
    /// No document of the DTD can produce an answer; `witness` says why.
    Empty {
        /// The proof of emptiness.
        witness: Witness,
    },
    /// The analysis cannot rule the query out; `types` is the inferred set
    /// of element-type names an answer node may carry (declaration order).
    NonEmpty {
        /// Possible answer element types, in DTD declaration order.
        types: Vec<String>,
    },
}

impl Sat {
    /// `true` for [`Sat::Empty`].
    pub fn is_empty(&self) -> bool {
        matches!(self, Sat::Empty { .. })
    }
}

/// Context of the abstract evaluation: which element types (plus possibly
/// the virtual document node) the walk may currently sit on. `closure`
/// marks contexts produced by a descendant-or-self closure, so an emptying
/// step right after `//` reads as "unreachable", not "no child edge".
#[derive(Clone, Debug)]
struct TypeSet {
    doc: bool,
    elems: IdSet,
    closure: bool,
}

/// One-per-DTD satisfiability analyzer: owns the DTD graph and the
/// per-element *required-children* sets so repeated [`check`](Self::check)
/// calls (one per engine prepare) cost only the walk itself.
pub struct SatAnalyzer<'d> {
    dtd: &'d Dtd,
    graph: DtdGraph,
    /// `required[A.index()]`: types with ≥ 1 occurrence in every valid `A`
    /// element ([`x2s_dtd::ContentModel::required_children`]).
    required: Vec<IdSet>,
}

impl fmt::Debug for SatAnalyzer<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SatAnalyzer")
            .field("elements", &self.dtd.len())
            .field("edges", &self.graph.edge_count())
            .finish_non_exhaustive()
    }
}

/// One-shot convenience over [`SatAnalyzer::check`] (builds the DTD graph
/// each call — hold a [`SatAnalyzer`] when checking many queries).
pub fn check_sat(path: &Path, dtd: &Dtd) -> Sat {
    SatAnalyzer::new(dtd).check(path)
}

impl<'d> SatAnalyzer<'d> {
    /// Build the analyzer for `dtd` (computes the DTD graph, reachability
    /// closure, and required-children sets once).
    pub fn new(dtd: &'d Dtd) -> Self {
        let n = dtd.len();
        let required = dtd
            .ids()
            .map(|id| {
                let mut set = IdSet::new(n);
                for child in dtd.content(id).required_children() {
                    set.insert(child);
                }
                set
            })
            .collect();
        SatAnalyzer {
            dtd,
            graph: DtdGraph::of(dtd),
            required,
        }
    }

    /// The DTD this analyzer reasons over.
    pub fn dtd(&self) -> &'d Dtd {
        self.dtd
    }

    /// Statically check `path` from the document context (the same starting
    /// point as [`crate::eval_from_document`]).
    pub fn check(&self, path: &Path) -> Sat {
        let start = TypeSet {
            doc: true,
            elems: IdSet::new(self.dtd.len()),
            closure: false,
        };
        match self.eval(path, &start) {
            Err(witness) => Sat::Empty { witness },
            Ok(t) if t.elems.is_empty() => Sat::Empty {
                witness: Witness {
                    kind: WitnessKind::DocumentOnly,
                    step: path.to_string(),
                    reason: "the query selects only the virtual document node, which is never \
                             an element answer"
                        .to_string(),
                },
            },
            Ok(t) => Sat::NonEmpty {
                types: t
                    .elems
                    .iter()
                    .map(|id| self.dtd.name(id).to_string())
                    .collect(),
            },
        }
    }

    /// An equivalent, DTD-aware normal form of `path`: [`Path::canonical`]
    /// plus schema-driven simplifications —
    ///
    /// * qualifiers that *certainly* hold at every candidate type are
    ///   dropped (`course[cno]` ≡ `course` when `cno` is a required child
    ///   of `course`, `a[not b]` ≡ `a` when no `a` can have a `b` child);
    /// * union arms that are statically empty disappear.
    ///
    /// Idempotent and equivalence-preserving, so serving layers can key
    /// plan caches and single-flight tables on
    /// `normalize(p).to_string()` to unify strictly more spellings than
    /// the purely syntactic canonical form.
    pub fn normalize(&self, path: &Path) -> Path {
        let canonical = path.canonical();
        let start = TypeSet {
            doc: true,
            elems: IdSet::new(self.dtd.len()),
            closure: false,
        };
        // Re-canonicalize after the drops: removing a conjunct or a union
        // arm can expose another syntactic rewrite (and restores the sorted
        // conjunct order the cache key relies on).
        self.simplify(&canonical, &start).canonical()
    }

    /// The abstract transition function: the set of element types (and
    /// possibly the document node) reachable via `p` from `ctx`, or the
    /// witness of the step that emptied. Invariant: `ctx` is non-empty, and
    /// `Ok` results are non-empty.
    fn eval(&self, p: &Path, ctx: &TypeSet) -> Result<TypeSet, Witness> {
        match p {
            Path::Empty => Ok(ctx.clone()),
            Path::EmptySet => Err(Witness {
                kind: WitnessKind::EmptySetLiteral,
                step: p.to_string(),
                reason: "the empty-set literal selects no nodes over any tree (§2.2)".to_string(),
            }),
            Path::Label(name) => {
                let Some(b) = self.dtd.elem(name) else {
                    return Err(Witness {
                        kind: WitnessKind::UnknownTag,
                        step: p.to_string(),
                        reason: format!(
                            "element type `{name}` is not declared in the DTD (root `{}`)",
                            self.dtd.name(self.dtd.root())
                        ),
                    });
                };
                let mut out = self.fresh();
                if ctx.doc && b == self.dtd.root() {
                    out.elems.insert(b);
                }
                for a in ctx.elems.iter() {
                    if self.graph.has_edge(a, b) {
                        out.elems.insert(b);
                        break;
                    }
                }
                if out.elems.is_empty() {
                    return Err(self.label_witness(p, name, ctx));
                }
                Ok(out)
            }
            Path::Wildcard => {
                let mut out = self.fresh();
                if ctx.doc {
                    out.elems.insert(self.dtd.root());
                }
                for a in ctx.elems.iter() {
                    for &(b, _) in self.graph.children(a) {
                        out.elems.insert(b);
                    }
                }
                if out.elems.is_empty() {
                    return Err(Witness {
                        kind: if ctx.closure {
                            WitnessKind::NoDescendant
                        } else {
                            WitnessKind::NoChildEdge
                        },
                        step: p.to_string(),
                        reason: format!(
                            "none of {} has any child element in the DTD",
                            self.describe(ctx)
                        ),
                    });
                }
                Ok(out)
            }
            Path::Seq(a, b) => {
                let mid = self.eval(a, ctx)?;
                self.eval(b, &mid)
            }
            Path::Descendant(inner) => self.eval(inner, &self.close(ctx)),
            Path::Union(a, b) => match (self.eval(a, ctx), self.eval(b, ctx)) {
                (Ok(mut x), Ok(y)) => {
                    x.doc |= y.doc;
                    x.elems.union_with(&y.elems);
                    x.closure = false;
                    Ok(x)
                }
                (Ok(x), Err(_)) | (Err(_), Ok(x)) => Ok(x),
                (Err(left), Err(right)) => Err(Witness {
                    kind: left.kind,
                    step: p.to_string(),
                    reason: format!(
                        "both union arms are empty — `{}`: {}; `{}`: {}",
                        left.step, left.reason, right.step, right.reason
                    ),
                }),
            },
            Path::Qualified(..) => {
                let (base, conjuncts) = peel_qualifiers(p);
                let base_types = self.eval(base, ctx)?;
                let conjuncts: Vec<Qual> = conjuncts.iter().map(|q| q.canonical()).collect();
                // A conjunct and its own negation in one chain can never
                // both hold (the fragment's semantics are two-valued).
                for q in &conjuncts {
                    if let Qual::Not(inner) = q {
                        if conjuncts.iter().any(|other| other == inner.as_ref()) {
                            return Err(Witness {
                                kind: WitnessKind::ContradictoryQualifiers,
                                step: p.to_string(),
                                reason: format!(
                                    "qualifier `{inner}` is required both to hold and to fail \
                                     in the same chain"
                                ),
                            });
                        }
                    }
                }
                let mut out = self.fresh();
                if base_types.doc && conjuncts.iter().all(|q| self.may_hold(q, None)) {
                    out.doc = true;
                }
                for a in base_types.elems.iter() {
                    if conjuncts.iter().all(|q| self.may_hold(q, Some(a))) {
                        out.elems.insert(a);
                    }
                }
                if out.doc || !out.elems.is_empty() {
                    return Ok(out);
                }
                Err(self.qualifier_witness(p, &base_types, &conjuncts))
            }
        }
    }

    /// Witness for a `Label` step whose result emptied, picking the most
    /// specific defect class the context admits.
    fn label_witness(&self, step: &Path, name: &str, ctx: &TypeSet) -> Witness {
        if ctx.closure {
            return Witness {
                kind: WitnessKind::NoDescendant,
                step: step.to_string(),
                reason: format!(
                    "`{name}` is not reachable from {} in the DTD graph",
                    self.describe(ctx)
                ),
            };
        }
        if ctx.doc && ctx.elems.is_empty() {
            return Witness {
                kind: WitnessKind::RootMismatch,
                step: step.to_string(),
                reason: format!(
                    "the document root is `{}`, not `{name}`",
                    self.dtd.name(self.dtd.root())
                ),
            };
        }
        Witness {
            kind: WitnessKind::NoChildEdge,
            step: step.to_string(),
            reason: format!(
                "no `{name}` child edge from {} in the DTD",
                self.describe(ctx)
            ),
        }
    }

    /// Witness for a qualifier chain that emptied its base's type set:
    /// blame the first conjunct that holds at *no* candidate, or the
    /// combination if each conjunct holds somewhere.
    fn qualifier_witness(&self, step: &Path, base: &TypeSet, conjuncts: &[Qual]) -> Witness {
        for q in conjuncts {
            let somewhere = (base.doc && self.may_hold(q, None))
                || base.elems.iter().any(|a| self.may_hold(q, Some(a)));
            if somewhere {
                continue;
            }
            return match q {
                Qual::TextEq(_) => Witness {
                    kind: WitnessKind::TextUnsupported,
                    step: step.to_string(),
                    reason: format!(
                        "no content model of {} allows #PCDATA, so `{q}` can never hold",
                        self.describe(base)
                    ),
                },
                Qual::Path(inner) => {
                    // Recover the inner proof from one representative type.
                    let detail = base
                        .elems
                        .iter()
                        .next()
                        .map(|a| self.single(a))
                        .or_else(|| {
                            base.doc.then(|| TypeSet {
                                doc: true,
                                elems: IdSet::new(self.dtd.len()),
                                closure: false,
                            })
                        })
                        .and_then(|t| self.eval(inner, &t).err())
                        .map(|w| format!(" ({})", w.reason))
                        .unwrap_or_default();
                    Witness {
                        kind: WitnessKind::QualifierNeverHolds,
                        step: step.to_string(),
                        reason: format!(
                            "qualifier `{q}` can hold at none of {}{detail}",
                            self.describe(base)
                        ),
                    }
                }
                _ => Witness {
                    kind: WitnessKind::QualifierNeverHolds,
                    step: step.to_string(),
                    reason: format!(
                        "qualifier `{q}` can hold at none of {}",
                        self.describe(base)
                    ),
                },
            };
        }
        Witness {
            kind: WitnessKind::QualifierNeverHolds,
            step: step.to_string(),
            reason: format!(
                "no single type of {} satisfies every qualifier in the chain",
                self.describe(base)
            ),
        }
    }

    /// May `q` hold at `at` (`None` = the virtual document node) in *some*
    /// valid document? Over-approximate: `false` is only returned when the
    /// schema rules the qualifier out.
    fn may_hold(&self, q: &Qual, at: Option<ElemId>) -> bool {
        match q {
            Qual::Path(p) => {
                let ctx = match at {
                    Some(a) => self.single(a),
                    None => TypeSet {
                        doc: true,
                        elems: IdSet::new(self.dtd.len()),
                        closure: false,
                    },
                };
                self.eval(p, &ctx).is_ok()
            }
            // text() is false at the document node (native semantics) and
            // impossible under a #PCDATA-free content model.
            Qual::TextEq(_) => at.is_some_and(|a| self.dtd.allows_text(a)),
            Qual::Not(inner) => !self.must_hold(inner, at),
            Qual::And(a, b) => self.may_hold(a, at) && self.may_hold(b, at),
            Qual::Or(a, b) => self.may_hold(a, at) || self.may_hold(b, at),
        }
    }

    /// Must `q` hold at `at` in *every* valid document? Under-approximate:
    /// `true` only when the schema guarantees it.
    fn must_hold(&self, q: &Qual, at: Option<ElemId>) -> bool {
        match q {
            Qual::Path(p) => self.must_exist(p, at),
            // a text *value* comparison is never schema-guaranteed
            Qual::TextEq(_) => false,
            Qual::Not(inner) => !self.may_hold(inner, at),
            Qual::And(a, b) => self.must_hold(a, at) && self.must_hold(b, at),
            Qual::Or(a, b) => self.must_hold(a, at) || self.must_hold(b, at),
        }
    }

    /// Does `p` reach at least one node from `at` in every valid document?
    /// Only plain child-label chains over required children qualify, and
    /// unions of which one arm does; a `//q` step counts as `q` (see
    /// [`flatten_steps`]). Anything else conservatively answers `false`.
    fn must_exist(&self, p: &Path, at: Option<ElemId>) -> bool {
        if let Path::Union(a, b) = p {
            return self.must_exist(a, at) || self.must_exist(b, at);
        }
        let mut steps = Vec::new();
        flatten_steps(p, &mut steps);
        let mut cur = at;
        for step in steps {
            match step {
                Path::Empty => {}
                Path::Label(name) => {
                    let Some(b) = self.dtd.elem(name) else {
                        return false;
                    };
                    match cur {
                        // every document has exactly one root element
                        None => {
                            if b != self.dtd.root() {
                                return false;
                            }
                        }
                        Some(a) => {
                            if !self.required[a.index()].contains(b) {
                                return false;
                            }
                        }
                    }
                    cur = Some(b);
                }
                _ => return false,
            }
        }
        true
    }

    /// The DTD-aware simplification pass behind [`normalize`](Self::normalize):
    /// walk the (already canonical) path carrying the abstract context,
    /// dropping certainly-true qualifiers and statically-empty union arms.
    /// Never turns a non-empty path into an empty one — unsatisfiable
    /// sub-expressions are left for [`check`](Self::check) to report.
    fn simplify(&self, p: &Path, ctx: &TypeSet) -> Path {
        match p {
            Path::Empty | Path::Label(_) | Path::Wildcard | Path::EmptySet => p.clone(),
            Path::Seq(a, b) => {
                let left = self.simplify(a, ctx);
                match self.eval(a, ctx) {
                    Ok(mid) => Path::Seq(Box::new(left), Box::new(self.simplify(b, &mid))),
                    Err(_) => Path::Seq(Box::new(left), b.clone()),
                }
            }
            Path::Descendant(inner) => {
                Path::Descendant(Box::new(self.simplify(inner, &self.close(ctx))))
            }
            Path::Union(a, b) => match (self.eval(a, ctx), self.eval(b, ctx)) {
                (Ok(_), Err(_)) => self.simplify(a, ctx),
                (Err(_), Ok(_)) => self.simplify(b, ctx),
                _ => Path::Union(
                    Box::new(self.simplify(a, ctx)),
                    Box::new(self.simplify(b, ctx)),
                ),
            },
            Path::Qualified(..) => {
                let (base, conjuncts) = peel_qualifiers(p);
                let simplified_base = self.simplify(base, ctx);
                let Ok(base_types) = self.eval(base, ctx) else {
                    // unsatisfiable base: rebuild untouched
                    return conjuncts
                        .into_iter()
                        .fold(simplified_base, |acc, q| acc.with_qual(q.clone()));
                };
                let mut acc = simplified_base;
                for q in conjuncts {
                    let certain = (!base_types.doc || self.must_hold(q, None))
                        && base_types.elems.iter().all(|a| self.must_hold(q, Some(a)));
                    if !certain {
                        acc = acc.with_qual(self.simplify_qual(q, &base_types));
                    }
                }
                acc
            }
        }
    }

    /// Simplify the paths inside a kept qualifier against the base's
    /// candidate types (sound: the abstract context over-approximates every
    /// concrete evaluation point of the qualifier).
    fn simplify_qual(&self, q: &Qual, ctx: &TypeSet) -> Qual {
        match q {
            Qual::Path(p) => Qual::Path(Box::new(self.simplify(p, ctx))),
            Qual::TextEq(_) => q.clone(),
            Qual::Not(inner) => Qual::Not(Box::new(self.simplify_qual(inner, ctx))),
            Qual::And(a, b) => Qual::And(
                Box::new(self.simplify_qual(a, ctx)),
                Box::new(self.simplify_qual(b, ctx)),
            ),
            Qual::Or(a, b) => Qual::Or(
                Box::new(self.simplify_qual(a, ctx)),
                Box::new(self.simplify_qual(b, ctx)),
            ),
        }
    }

    /// Descendant-or-self closure of a context over the DTD graph.
    fn close(&self, ctx: &TypeSet) -> TypeSet {
        let mut out = TypeSet {
            doc: ctx.doc,
            elems: ctx.elems.clone(),
            closure: true,
        };
        if ctx.doc {
            out.elems.insert(self.dtd.root());
            out.elems
                .union_with(self.graph.reach_strict(self.dtd.root()));
        }
        for a in ctx.elems.iter() {
            out.elems.union_with(self.graph.reach_strict(a));
        }
        out
    }

    fn fresh(&self) -> TypeSet {
        TypeSet {
            doc: false,
            elems: IdSet::new(self.dtd.len()),
            closure: false,
        }
    }

    fn single(&self, a: ElemId) -> TypeSet {
        let mut t = self.fresh();
        t.elems.insert(a);
        t
    }

    /// Render a context for witness text: element names in declaration
    /// order, the document node called out explicitly.
    fn describe(&self, ctx: &TypeSet) -> String {
        let mut parts: Vec<String> = Vec::new();
        if ctx.doc {
            parts.push("the document node".to_string());
        }
        let names: Vec<&str> = ctx.elems.iter().map(|id| self.dtd.name(id)).collect();
        if !names.is_empty() {
            parts.push(format!("{{{}}}", names.join(", ")));
        }
        if parts.is_empty() {
            "nothing".to_string()
        } else {
            parts.join(" and ")
        }
    }
}

/// Peel a nested `p[q₁][q₂]…` chain into its base and the flat conjunct
/// list (splicing top-level `and`s: `p[q₁ ∧ q₂]` filters identically to
/// `p[q₁][q₂]`).
fn peel_qualifiers(p: &Path) -> (&Path, Vec<&Qual>) {
    let mut conjuncts = Vec::new();
    let mut base = p;
    while let Path::Qualified(b, q) = base {
        flatten_and(q, &mut conjuncts);
        base = b;
    }
    (base, conjuncts)
}

/// Push `q`'s top-level conjuncts (splicing nested `And`s).
fn flatten_and<'q>(q: &'q Qual, out: &mut Vec<&'q Qual>) {
    if let Qual::And(a, b) = q {
        flatten_and(a, out);
        flatten_and(b, out);
    } else {
        out.push(q);
    }
}

/// Flatten a step chain for the must-exist walk, splicing nested `Seq`s
/// and replacing each `//q` by `q`. `//q ≡ q | *//q` reaches every node `q`
/// reaches, so a chain that must reach a node through `q` must through `//q`
/// too: `//.` always holds, and `p[not(//.)]` is empty.
fn flatten_steps<'p>(p: &'p Path, out: &mut Vec<&'p Path>) {
    match p {
        Path::Seq(a, b) => {
            flatten_steps(a, out);
            flatten_steps(b, out);
        }
        Path::Descendant(q) => flatten_steps(q, out),
        _ => out.push(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_xpath;
    use x2s_dtd::samples;

    fn verdict(dtd: &Dtd, q: &str) -> Sat {
        SatAnalyzer::new(dtd).check(&parse_xpath(q).unwrap())
    }

    fn empty_kind(dtd: &Dtd, q: &str) -> WitnessKind {
        match verdict(dtd, q) {
            Sat::Empty { witness } => witness.kind,
            Sat::NonEmpty { types } => panic!("{q} judged NonEmpty ({types:?})"),
        }
    }

    fn norm(dtd: &Dtd, q: &str) -> String {
        SatAnalyzer::new(dtd)
            .normalize(&parse_xpath(q).unwrap())
            .to_string()
    }

    #[test]
    fn satisfiable_queries_report_result_types() {
        let dtd = samples::dept_simplified();
        match verdict(&dtd, "dept//project") {
            Sat::NonEmpty { types } => assert_eq!(types, ["project"]),
            other => panic!("expected NonEmpty, got {other:?}"),
        }
        // the root is never a *child*, so `//*` yields everything but `dept`
        match verdict(&dtd, "dept//*") {
            Sat::NonEmpty { types } => {
                assert_eq!(types, ["course", "student", "project"])
            }
            other => panic!("expected NonEmpty, got {other:?}"),
        }
    }

    #[test]
    fn each_defect_maps_to_its_witness_kind() {
        let dept = samples::dept_simplified();
        let cross = samples::cross();
        assert_eq!(empty_kind(&dept, "dept/zzz"), WitnessKind::UnknownTag);
        assert_eq!(empty_kind(&dept, "course"), WitnessKind::RootMismatch);
        assert_eq!(empty_kind(&dept, "dept/project"), WitnessKind::NoChildEdge);
        assert_eq!(empty_kind(&cross, "a/c/d//b"), WitnessKind::NoDescendant);
        assert_eq!(
            empty_kind(&samples::dept(), "dept/course[text()=\"x\"]"),
            WitnessKind::TextUnsupported
        );
        assert_eq!(
            empty_kind(&dept, "dept//project[student]"),
            WitnessKind::QualifierNeverHolds
        );
        assert_eq!(
            empty_kind(&cross, "a[b][not b]"),
            WitnessKind::ContradictoryQualifiers
        );
        // `.` always holds, and so does `//.` (it contains `.`): a negated
        // union with either never does
        for q in [
            "dept/course[not(. | project)]",
            "dept/course[not(project | .)]",
            "dept/course[not(//.)]",
            "dept/course[not(project | //.)]",
        ] {
            assert_eq!(
                empty_kind(&dept, q),
                WitnessKind::QualifierNeverHolds,
                "{q}"
            );
        }
        // queries x2e proves empty that `//` once kept NonEmpty
        for (dtd, q) in [
            (&dept, "(//dept)[not(//.)]"),
            (&samples::gedml(), "(//.)[not((//. | Data))]"),
            (&samples::bioml(), ".[(not(//.) or zzz)]//dna"),
        ] {
            assert!(matches!(verdict(dtd, q), Sat::Empty { .. }), "{q}");
        }
        assert_eq!(empty_kind(&cross, "∅"), WitnessKind::EmptySetLiteral);
        assert_eq!(empty_kind(&cross, "."), WitnessKind::DocumentOnly);
    }

    #[test]
    fn union_is_empty_only_when_both_arms_are() {
        let dtd = samples::cross();
        assert!(matches!(verdict(&dtd, "(a/d | a/b)"), Sat::NonEmpty { .. }));
        let Sat::Empty { witness } = verdict(&dtd, "(a/d | a/a)") else {
            panic!("both arms impossible");
        };
        assert!(witness.reason.contains("both union arms"), "{witness}");
    }

    #[test]
    fn witnesses_name_the_offending_step() {
        let dtd = samples::dept_simplified();
        let Sat::Empty { witness } = verdict(&dtd, "dept/project") else {
            panic!()
        };
        assert_eq!(witness.step, "project");
        assert!(witness.reason.contains("dept"), "{witness}");
        assert!(witness.reason.contains("project"), "{witness}");
    }

    #[test]
    fn qualifier_pruning_kills_only_impossible_branches() {
        let dtd = samples::cross();
        // `d` has no children at all, so `[d/a]` can never hold …
        assert!(verdict(&dtd, "a/c[d/a]").is_empty());
        // … but `[d]` itself can (c → d is an edge).
        assert!(matches!(verdict(&dtd, "a/c[d]"), Sat::NonEmpty { .. }));
        // negation never prunes on may-information alone:
        assert!(matches!(verdict(&dtd, "a[not b]"), Sat::NonEmpty { .. }));
    }

    #[test]
    fn normalize_drops_required_child_tautologies() {
        let dtd = samples::dept();
        // `cno` is a required child of `course`; `zzz`-free qualifiers stay.
        assert_eq!(norm(&dtd, "dept/course[cno]"), "dept/course");
        assert_eq!(
            norm(&dtd, "dept/course[cno][project]"),
            "dept/course[project]"
        );
        // chains of required children collapse too
        assert_eq!(
            norm(&dtd, "dept/course/takenBy/student[sno]"),
            "dept/course/takenBy/student"
        );
        // a union holds where one of its arms must
        assert_eq!(norm(&dtd, "dept/course[. | project]"), "dept/course");
        // starred children are not required
        assert_eq!(norm(&dtd, "dept/course[project]"), "dept/course[project]");
        assert_eq!(
            norm(&dtd, "dept/course[takenBy/student]"),
            "dept/course[takenBy/student]"
        );
    }

    #[test]
    fn normalize_drops_impossible_negations_and_dead_union_arms() {
        let dtd = samples::cross();
        // no `a` can ever have a `d` child, so `not d` certainly holds
        assert_eq!(norm(&dtd, "a[not d]"), "a");
        assert_eq!(norm(&dtd, "(a/d | a/b)"), "a/b");
        // a live negation survives
        assert_eq!(norm(&dtd, "a[not b]"), "a[not(b)]");
    }

    #[test]
    fn normalize_is_idempotent_and_round_trips() {
        let dept = samples::dept();
        let cross = samples::cross();
        for (dtd, q) in [
            (&dept, "dept/course[cno][project]"),
            (&dept, "dept//course[takenBy]"),
            (&cross, "(a/d | a/b)"),
            (&cross, "a[not d]//c"),
            (&cross, "a[c][b]"),
            (&cross, "a//d"),
        ] {
            let sat = SatAnalyzer::new(dtd);
            let once = sat.normalize(&parse_xpath(q).unwrap());
            assert_eq!(sat.normalize(&once), once, "not idempotent for {q}");
            let reparsed = parse_xpath(&once.to_string()).unwrap();
            assert_eq!(reparsed, once, "normalize({q}) = {once} did not round-trip");
        }
    }

    #[test]
    fn normalized_queries_agree_with_the_native_oracle() {
        use crate::eval::eval_from_document;
        use x2s_xml::{Generator, GeneratorConfig};
        let dtd = samples::dept();
        let sat = SatAnalyzer::new(&dtd);
        let queries = [
            "dept/course[cno]",
            "dept/course[cno][project]",
            "dept//course[takenBy/student/sno]",
            "dept/course[not zzz2]",
            "(dept/project | dept/course)",
            "dept/course[. | project]",
        ];
        for seed in [7u64, 41] {
            let tree = Generator::new(
                &dtd,
                GeneratorConfig::shaped(6, 3, Some(1_200)).with_seed(seed),
            )
            .generate();
            for q in queries {
                let p = match parse_xpath(q) {
                    Ok(p) => p,
                    Err(_) => continue,
                };
                let n = sat.normalize(&p);
                assert_eq!(
                    eval_from_document(&p, &tree, &dtd),
                    eval_from_document(&n, &tree, &dtd),
                    "normalize changed the answer of {q} (→ {n}) on seed {seed}"
                );
            }
        }
    }
}
