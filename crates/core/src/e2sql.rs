//! `EXpToSQL` (paper Fig. 10): rewrite an extended XPath query into a
//! sequence of relational-algebra statements with the simple LFP operator
//! `Φ(R)`.
//!
//! Each element-type label `A` compiles to a scan of the shredded relation
//! `R_A(F, T, V)`; concatenation to a join on `T = F`; union/conjunction/
//! negation to union/semijoin/antijoin; and Kleene closure to `Φ`.
//!
//! ε handling (§5.2 "Handling (E)*"): instead of materializing the identity
//! relation `R_id`, every compiled value carries a *reflexive* flag meaning
//! "the logical relation additionally contains the identity". Composition,
//! union, closure and qualifiers all propagate the flag algebraically, so
//! `e1/e2*` compiles to `R₁ ∪ π(R₁ ⋈ Φ(R₂))` — exactly the paper's
//! rewriting — and no identity tuples ever exist.
//!
//! Pushed selections (§5.2): when a non-reflexive relation `L` composes
//! with a closure, the LFP runs with its sources seeded from `π_T(L)`
//! (forward push); closures composing into a relation `R` run with targets
//! from `π_F(R)` (backward push). Controlled by [`SqlOptions`].

use crate::pipeline::TranslateError;
use std::collections::HashMap;
use x2s_exp::{EQual, Exp, ExtendedQuery, VarId};
use x2s_rel::opt::{default_passes, optimize_with, OptLevel, OptReport};
use x2s_rel::{
    analyze_program_with, edge_scan_schema, AnalyzeWarning, LfpSpec, Plan, Pred, Program, PushSpec,
    TempId, Value,
};

/// Name of the all-nodes relation provided by edge shredding.
const ALL_NODES: &str = "R__nodes";

/// Options for the SQL translation. An [`Engine`](crate::Engine) fixes one
/// set at `build`, so its plan cache keys on the normalized query alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SqlOptions {
    /// Push selections into LFP operators and the document filter into the
    /// result's leading scans (§5.2), instead of only filtering at the end.
    /// Default true.
    pub push_selections: bool,
    /// Logical-optimizer level applied to the translated program
    /// ([`x2s_rel::opt`]). Default [`OptLevel::Full`];
    /// [`OptLevel::None`] preserves the raw `EXpToSQL` output
    /// byte-identical.
    pub optimize: OptLevel,
}

impl Default for SqlOptions {
    fn default() -> Self {
        SqlOptions {
            push_selections: true,
            optimize: OptLevel::default(),
        }
    }
}

/// Translate an extended XPath query into a statement program over the
/// edge-shredded store. `overrides` maps opaque variables (External rec
/// placeholders) to plans producing `(F, T)` pairs.
///
/// This is the single choke point of the relational layer: the program it
/// returns has already been through the logical optimizer at
/// `opts.optimize`, so the native executor, every SQL dialect renderer and
/// `explain` all consume the same optimized program. Use
/// [`exp_to_sql_with_report`] to also obtain the optimizer's
/// [`OptReport`].
pub fn exp_to_sql(
    query: &ExtendedQuery,
    opts: &SqlOptions,
    overrides: &HashMap<VarId, Plan>,
) -> Result<Program, TranslateError> {
    Ok(exp_to_sql_with_report(query, opts, overrides)?.0)
}

/// [`exp_to_sql`] plus the optimizer's before/after report.
pub fn exp_to_sql_with_report(
    query: &ExtendedQuery,
    opts: &SqlOptions,
    overrides: &HashMap<VarId, Plan>,
) -> Result<(Program, OptReport), TranslateError> {
    let (program, report, _) = exp_to_sql_checked(query, opts, overrides)?;
    Ok((program, report))
}

/// [`exp_to_sql_with_report`] plus the analyzer's warnings on the returned
/// program.
///
/// The program is analyzed twice at most, both times against the
/// edge-shredding catalog (every `R_*` scan is `(F, T, V)`, arity 3): as
/// it leaves the compiler, and by the optimizer on its output.
pub fn exp_to_sql_checked(
    query: &ExtendedQuery,
    opts: &SqlOptions,
    overrides: &HashMap<VarId, Plan>,
) -> Result<(Program, OptReport, Vec<AnalyzeWarning>), TranslateError> {
    let raw = exp_to_sql_raw(query, opts, overrides)?;
    let analysis = analyze_program_with(&raw, &edge_scan_schema)?;
    if opts.optimize == OptLevel::None {
        // skip the optimizer entirely — `raw` is returned byte-identical,
        // without even the clone `optimize` would make
        let counts = raw.op_counts();
        let report = OptReport {
            level: OptLevel::None,
            before: counts,
            after: counts,
            ..OptReport::default()
        };
        return Ok((raw, report, analysis.warnings));
    }
    let passes = default_passes();
    let (optimized, report, checked) =
        optimize_with(&raw, opts.optimize, &passes, &edge_scan_schema);
    let warnings = checked.map_or(analysis.warnings, |a| a.warnings);
    Ok((optimized, report, warnings))
}

/// The raw `EXpToSQL` compiler (Fig. 10), without the optimizer.
fn exp_to_sql_raw(
    query: &ExtendedQuery,
    opts: &SqlOptions,
    overrides: &HashMap<VarId, Plan>,
) -> Result<Program, TranslateError> {
    let mut c = Compiler {
        prog: Program::new(),
        env: HashMap::new(),
        opts: *opts,
        query,
        overrides,
        inline_budget: 4_000,
    };
    for eq in &query.equations {
        let cval = if let Some(plan) = overrides.get(&eq.var) {
            let temp = c.prog.push(plan.clone(), format!("override: {}", eq.note));
            CVal::rel(Plan::Temp(temp), false, false)
        } else {
            let val = c.compile(&eq.rhs)?;
            c.bind_cval(val, &eq.note)
        };
        c.env.insert(eq.var, cval);
    }
    let result = if opts.push_selections {
        // Seeded top-down compilation (§5.2 "pushing selections into lfp",
        // cases by union/conjunction/nest): the query runs from the
        // document, so every sub-plan is restricted to sources reachable
        // from the seed frontier, and closures run seed-restricted.
        let doc_seed = {
            let mut rel = x2s_rel::Relation::new(1);
            rel.push(vec![Value::Doc]);
            Plan::Values(rel)
        };
        let seeds = c.bind(doc_seed, "document seed");
        c.compile_from(&query.result, &seeds, 0)?
    } else {
        c.compile(&query.result)?
    };
    let result = c.mat(result);
    // Paper line 26: σ_{F='_'} — keep only document-rooted pairs, then
    // project the answer node ids.
    let rooted = result.plan.select(Pred::ColEqValue(0, Value::Doc));
    let answer = Plan::Distinct(Box::new(rooted.project(vec![(1, "T")])));
    let t = c.prog.push(answer, "answer: σ_{F='_'} then π_T");
    c.prog.set_result(t);
    Ok(c.prog)
}

/// A compiled sub-expression.
#[derive(Clone)]
enum CVal {
    /// A materialized relation; `refl` means the logical relation is
    /// `plan ∪ Id`; `has_v` means column 2 holds the target's text value.
    Rel { plan: Plan, refl: bool, has_v: bool },
    /// `Φ(edges) ∪ Id`, kept symbolic so composition can push selections
    /// into the closure.
    StarOf { edges: TempId },
}

/// A materialized relation (plan + metadata).
struct Mat {
    plan: Plan,
    refl: bool,
    has_v: bool,
}

impl From<Mat> for CVal {
    fn from(m: Mat) -> CVal {
        CVal::rel(m.plan, m.refl, m.has_v)
    }
}

/// `π(l ⋈ r)` on `l.T = r.F`, onto `(l.F, r.T)` and `r.V` when `v`; `lv`
/// says whether `l` carries a `V` column.
fn chain(l: Plan, lv: bool, r: Plan, v: bool) -> Plan {
    let l_ar = if lv { 3 } else { 2 };
    let mut cols = vec![(0usize, "F"), (l_ar + 1, "T")];
    if v {
        cols.push((l_ar + 2, "V"));
    }
    l.join_on(r, 1, 0).project(cols)
}

/// `Φ(edges)`, with a pushed selection when there is one.
fn closure(edges: TempId, push: Option<PushSpec>) -> Plan {
    Plan::Lfp(LfpSpec {
        input: Box::new(Plan::Temp(edges)),
        from_col: 0,
        to_col: 1,
        push,
    })
}

impl CVal {
    fn rel(plan: Plan, refl: bool, has_v: bool) -> CVal {
        CVal::Rel { plan, refl, has_v }
    }

    fn empty() -> CVal {
        CVal::rel(Plan::Values(x2s_rel::Relation::new(2)), false, false)
    }
}

struct Compiler<'a> {
    prog: Program,
    env: HashMap<VarId, CVal>,
    opts: SqlOptions,
    query: &'a ExtendedQuery,
    overrides: &'a HashMap<VarId, Plan>,
    /// Remaining variable-inlining expansions for seeded compilation; when
    /// exhausted, [`Compiler::compile_from`] falls back to the bottom-up
    /// compiler (prevents blowup on deeply shared equation systems).
    inline_budget: usize,
}

impl<'a> Compiler<'a> {
    fn bind(&mut self, plan: Plan, comment: &str) -> Plan {
        match plan {
            Plan::Temp(_) | Plan::Scan(_) | Plan::Values(_) => plan,
            other => Plan::Temp(self.prog.push(other, comment)),
        }
    }

    /// Bind a compiled value's plan to a temp (so variables are shared).
    fn bind_cval(&mut self, val: CVal, comment: &str) -> CVal {
        match val {
            CVal::Rel { plan, refl, has_v } => CVal::rel(self.bind(plan, comment), refl, has_v),
            star @ CVal::StarOf { .. } => star,
        }
    }

    /// Turn a value into a materialized relation; a `StarOf` becomes a full
    /// (unpushed) closure with the reflexive flag.
    fn mat(&mut self, val: CVal) -> Mat {
        match val {
            CVal::Rel { plan, refl, has_v } => Mat { plan, refl, has_v },
            CVal::StarOf { edges } => Mat {
                plan: closure(edges, None),
                refl: true,
                has_v: false,
            },
        }
    }

    fn compile(&mut self, e: &Exp) -> Result<CVal, TranslateError> {
        match e {
            Exp::Epsilon => Ok(CVal::rel(
                Plan::Values(x2s_rel::Relation::new(2)),
                true,
                false,
            )),
            Exp::EmptySet => Ok(CVal::empty()),
            Exp::Label(name) => Ok(CVal::rel(Plan::Scan(format!("R_{name}")), false, true)),
            Exp::Var(v) => self
                .env
                .get(v)
                .cloned()
                .ok_or(TranslateError::UnboundVariable(v.0)),
            Exp::Seq(parts) => {
                let mut acc = self.compile(&parts[0])?;
                for p in &parts[1..] {
                    let rhs = self.compile(p)?;
                    acc = self.compose(acc, rhs)?;
                }
                Ok(acc)
            }
            Exp::Union(parts) => {
                let vals: Result<_, _> = parts.iter().map(|p| self.compile(p)).collect();
                Ok(self.union(vals?))
            }
            Exp::Star(inner) => Ok(CVal::StarOf {
                edges: self.star_edges(inner)?,
            }),
            Exp::Qualified(inner, q) => {
                let v = self.compile(inner)?;
                self.apply_qual(v, q)
            }
        }
    }

    /// The temporary holding the edges of `Φ(inner)`: `(Φ(E) ∪ Id)* =
    /// Φ(E) ∪ Id`, and `Φ(mat ∪ Id) = Φ(mat)` (the refl flag is irrelevant
    /// under closure).
    fn star_edges(&mut self, inner: &Exp) -> Result<TempId, TranslateError> {
        Ok(match self.compile(inner)? {
            CVal::StarOf { edges } => edges,
            CVal::Rel { plan, has_v, .. } => {
                let plan = self.harmonize(plan, has_v, false);
                self.prog.push(plan, "closure edges")
            }
        })
    }

    /// The distinct union of `vals`, each projected to their common arity
    /// (with `V` only when every one has it); reflexive when one is.
    fn union(&mut self, vals: Vec<CVal>) -> CVal {
        let mats: Vec<Mat> = vals.into_iter().map(|v| self.mat(v)).collect();
        let has_v = mats.iter().all(|m| m.has_v);
        let refl = mats.iter().any(|m| m.refl);
        let inputs: Vec<Plan> = mats
            .into_iter()
            .map(|m| self.harmonize(m.plan, m.has_v, has_v))
            .collect();
        if inputs.is_empty() {
            return CVal::empty();
        }
        let union = Plan::Union {
            inputs,
            distinct: true,
        };
        CVal::rel(union, refl, has_v)
    }

    /// Project a plan to the common arity: drop V when `want_v` is false.
    fn harmonize(&mut self, plan: Plan, has_v: bool, want_v: bool) -> Plan {
        if has_v && !want_v {
            plan.project(vec![(0, "F"), (1, "T")])
        } else {
            plan
        }
    }

    /// `l / r` with reflexivity algebra and LFP pushing.
    fn compose(&mut self, l: CVal, r: CVal) -> Result<CVal, TranslateError> {
        match (l, r) {
            (
                CVal::Rel {
                    plan: lp,
                    refl: lrefl,
                    has_v: lv,
                },
                CVal::Rel {
                    plan: rp,
                    refl: rrefl,
                    has_v: rv,
                },
            ) => {
                let lp = self.bind(lp, "compose lhs");
                let rp = self.bind(rp, "compose rhs");
                let has_v = rv && (!rrefl || lv);
                let mut parts = vec![chain(lp.clone(), lv, rp.clone(), has_v)];
                if lrefl {
                    // Id / r = r
                    let p = self.harmonize(rp.clone(), rv, has_v);
                    parts.push(p);
                }
                if rrefl {
                    // l / Id = l
                    let p = self.harmonize(lp.clone(), lv, has_v);
                    parts.push(p);
                }
                let plan = match <[Plan; 1]>::try_from(parts) {
                    Ok([only]) => only,
                    Err(parts) => Plan::Union {
                        inputs: parts,
                        distinct: true,
                    },
                };
                Ok(CVal::rel(plan, lrefl && rrefl, has_v))
            }
            (
                CVal::Rel {
                    plan: lp,
                    refl: lrefl,
                    has_v: lv,
                },
                CVal::StarOf { edges },
            ) => {
                if lrefl {
                    // (L ∪ Id)/(Φ ∪ Id) needs the bare Φ — no pushing.
                    let star = self.mat(CVal::StarOf { edges }).into();
                    return self.compose(CVal::rel(lp, lrefl, lv), star);
                }
                let lp = self.bind(lp, "closure seed side");
                let push = self.opts.push_selections.then(|| PushSpec::Forward {
                    seeds: Box::new(lp.clone().project(vec![(1, "T")])),
                    col: 0,
                });
                // L/(Φ ∪ Id) = L ∪ π(L ⋈ Φ)
                let joined = chain(lp.clone(), lv, closure(edges, push), false);
                let l_flat = self.harmonize(lp, lv, false);
                Ok(CVal::rel(l_flat.union_with(joined), false, false))
            }
            (
                CVal::StarOf { edges },
                CVal::Rel {
                    plan: rp,
                    refl: rrefl,
                    has_v: rv,
                },
            ) => {
                if rrefl {
                    let star = self.mat(CVal::StarOf { edges }).into();
                    return self.compose(star, CVal::rel(rp, rrefl, rv));
                }
                let rp = self.bind(rp, "closure target side");
                let push = self.opts.push_selections.then(|| PushSpec::Backward {
                    targets: Box::new(rp.clone().project(vec![(0, "F")])),
                    col: 0,
                });
                // (Φ ∪ Id)/R = R ∪ π(Φ ⋈ R)
                let joined = chain(closure(edges, push), false, rp.clone(), rv);
                Ok(CVal::rel(rp.union_with(joined), false, rv))
            }
            (l @ CVal::StarOf { .. }, r @ CVal::StarOf { .. }) => {
                let l = self.mat(l).into();
                self.compose(l, r)
            }
        }
    }

    /// `e[q]`: filter targets by the qualifier's node set.
    fn apply_qual(&mut self, val: CVal, q: &EQual) -> Result<CVal, TranslateError> {
        match q {
            EQual::True => Ok(val),
            EQual::False => Ok(CVal::empty()),
            // a direct text test on a value-carrying relation is a plain σ
            EQual::TextEq(c) => {
                let m = self.mat(val);
                if m.has_v && !m.refl {
                    return Ok(CVal::rel(
                        m.plan.select(Pred::ColEqText(2, c.as_str().into())),
                        false,
                        true,
                    ));
                }
                let nodes = self.qual_nodes(q)?;
                self.semijoin_nodes(m.into(), nodes)
            }
            _ => {
                let nodes = self.qual_nodes(q)?;
                self.semijoin_nodes(val, nodes)
            }
        }
    }

    /// Restrict a relation's targets to a node set; handles the reflexive
    /// part by materializing identity pairs over the (filtered) node set.
    fn semijoin_nodes(&mut self, val: CVal, nodes: Plan) -> Result<CVal, TranslateError> {
        let m = self.mat(val);
        let nodes = self.bind(nodes, "qualifier node set");
        let filtered = m.plan.semi_join(nodes.clone(), 1, 0);
        if !m.refl {
            return Ok(CVal::rel(filtered, false, m.has_v));
        }
        // Id[q] = {(v, v) : q holds at v}
        let id_part = nodes.project(vec![(0, "F"), (0, "T")]);
        let flat = self.harmonize(filtered, m.has_v, false);
        Ok(CVal::rel(flat.union_with(id_part), false, false))
    }

    /// Node-set plan of a qualifier: one column `N` of nodes where it holds.
    fn qual_nodes(&mut self, q: &EQual) -> Result<Plan, TranslateError> {
        Ok(match q {
            EQual::True => Plan::Scan(ALL_NODES.into()).project(vec![(1, "N")]),
            EQual::False => Plan::Values(x2s_rel::Relation::new(1)),
            EQual::TextEq(c) => Plan::Scan(ALL_NODES.into())
                .select(Pred::ColEqText(2, c.as_str().into()))
                .project(vec![(1, "N")]),
            EQual::Exp(e) => {
                let v = self.compile(e)?;
                let m = self.mat(v);
                if m.refl {
                    // ε ∈ e: every node satisfies [e]
                    Plan::Scan(ALL_NODES.into()).project(vec![(1, "N")])
                } else {
                    Plan::Distinct(Box::new(m.plan.project(vec![(0, "N")])))
                }
            }
            EQual::Not(inner) => {
                let n = self.qual_nodes(inner)?;
                Plan::Scan(ALL_NODES.into())
                    .project(vec![(1, "N")])
                    .anti_join(n, 0, 0)
            }
            EQual::And(a, b) => {
                let (na, nb) = (self.qual_nodes(a)?, self.qual_nodes(b)?);
                na.semi_join(nb, 0, 0)
            }
            EQual::Or(a, b) => {
                let (na, nb) = (self.qual_nodes(a)?, self.qual_nodes(b)?);
                Plan::Distinct(Box::new(Plan::Union {
                    inputs: vec![na, nb],
                    distinct: false,
                }))
            }
        })
    }

    /// Seeded top-down compilation: produce only pairs `(x, y)` with
    /// `x ∈ seeds` (a one-column node-set plan). This realizes the paper's
    /// §5.2 pushing through unions, conjunctions and *nested* fixpoints:
    /// variables are inlined on demand so that each closure in a sequence
    /// runs with its frontier restricted to what the prefix actually
    /// reached. Reflexivity is handled *explicitly* (identity pairs over
    /// the seed set), so no flags are needed on this path.
    ///
    /// Inlining is budgeted: deeply shared equation systems fall back to
    /// the bottom-up compiler when the expansion budget is exhausted.
    fn compile_from(
        &mut self,
        e: &Exp,
        seeds: &Plan,
        depth: usize,
    ) -> Result<CVal, TranslateError> {
        if depth > 64 || self.inline_budget == 0 {
            // fall back: unrestricted compile, then restrict sources
            let v = self.compile(e)?;
            let m = self.mat(v);
            if m.refl {
                let id_part = seeds.clone().project(vec![(0, "F"), (0, "T")]);
                let flat = self.harmonize(m.plan, m.has_v, false);
                let restricted = flat.semi_join(seeds.clone(), 0, 0);
                return Ok(CVal::rel(restricted.union_with(id_part), false, false));
            }
            let restricted = m.plan.semi_join(seeds.clone(), 0, 0);
            return Ok(CVal::rel(restricted, false, m.has_v));
        }
        self.inline_budget = self.inline_budget.saturating_sub(1);
        match e {
            Exp::Epsilon => Ok(CVal::rel(
                seeds.clone().project(vec![(0, "F"), (0, "T")]),
                false,
                false,
            )),
            Exp::EmptySet => Ok(CVal::empty()),
            Exp::Label(name) => Ok(CVal::rel(
                Plan::Scan(format!("R_{name}")).semi_join(seeds.clone(), 0, 0),
                false,
                true,
            )),
            Exp::Var(v) => {
                if let Some(plan) = self.overrides.get(v) {
                    let plan = plan.clone();
                    let bound = self.bind(plan, "override rec");
                    let restricted = bound.semi_join(seeds.clone(), 0, 0);
                    return Ok(CVal::rel(restricted, false, false));
                }
                let rhs = self
                    .query
                    .equations
                    .iter()
                    .find(|eq| eq.var == *v)
                    .map(|eq| eq.rhs.clone())
                    .ok_or(TranslateError::UnboundVariable(v.0))?;
                self.compile_from(&rhs, seeds, depth + 1)
            }
            Exp::Seq(parts) => {
                let mut acc = self.compile_from(&parts[0], seeds, depth + 1)?;
                for p in &parts[1..] {
                    // frontier of the prefix = its reached nodes
                    let m = self.mat(acc);
                    let bound = self.bind(m.plan, "seeded prefix");
                    let next_seeds = self.bind(
                        Plan::Distinct(Box::new(bound.clone().project(vec![(1, "N")]))),
                        "frontier",
                    );
                    let rhs = self.compile_from(p, &next_seeds, depth + 1)?;
                    let rm = self.mat(rhs);
                    // compose: (x, m) ⋈ (m, y)
                    acc = CVal::rel(chain(bound, m.has_v, rm.plan, rm.has_v), false, rm.has_v);
                }
                Ok(acc)
            }
            Exp::Union(parts) => {
                let seeded = |p| self.compile_from(p, seeds, depth + 1);
                let vals: Result<_, _> = parts.iter().map(seeded).collect();
                Ok(self.union(vals?))
            }
            Exp::Star(inner) => {
                // Φ(edges) seeded forward, plus identity over the seeds.
                let edges = self.star_edges(inner)?;
                let lfp = if self.opts.push_selections {
                    let seeds = Box::new(seeds.clone());
                    closure(edges, Some(PushSpec::Forward { seeds, col: 0 }))
                } else {
                    // unpushed closure, restricted afterwards
                    closure(edges, None).semi_join(seeds.clone(), 0, 0)
                };
                let id_part = seeds.clone().project(vec![(0, "F"), (0, "T")]);
                Ok(CVal::rel(lfp.union_with(id_part), false, false))
            }
            Exp::Qualified(inner, q) => {
                let v = self.compile_from(inner, seeds, depth + 1)?;
                self.apply_qual(v, q)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use x2s_dtd::samples;
    use x2s_rel::{Database, ExecOptions, Stats};
    use x2s_shred::edge_database;
    use x2s_xml::parse_xml;

    fn run(program: &Program, db: &Database) -> BTreeSet<u32> {
        let mut stats = Stats::default();
        let rel = program
            .execute(db, ExecOptions::default(), &mut stats)
            .unwrap();
        rel.rows()
            .map(|t| t[0].as_id().expect("answer ids"))
            .collect()
    }

    fn doc() -> (x2s_dtd::Dtd, x2s_xml::Tree, Database) {
        let d = samples::dept_simplified();
        let t = parse_xml(
            &d,
            "<dept><course><course><course/><project><course><project/></course></project></course><student/><student><course/></student></course></dept>",
        )
        .unwrap();
        let db = edge_database(&t, &d);
        (d, t, db)
    }

    #[test]
    fn label_chain_compiles_and_runs() {
        let (_, t, db) = doc();
        let q = ExtendedQuery::of(Exp::label("dept").then(Exp::label("course")));
        let prog = exp_to_sql(&q, &SqlOptions::default(), &HashMap::new()).unwrap();
        let ids = run(&prog, &db);
        assert_eq!(ids.len(), 1);
        let c1 = t.children(t.root())[0];
        assert!(ids.contains(&c1.0));
    }

    #[test]
    fn closure_example_3_5() {
        // dept/course/X*/project with X = course ∪ student/course ∪ project/course
        let (_, _, db) = doc();
        let mut q = ExtendedQuery::default();
        let x = q.push_equation(
            Exp::label("course")
                .or(Exp::label("student").then(Exp::label("course")))
                .or(Exp::label("project").then(Exp::label("course"))),
            "X",
        );
        q.result = Exp::label("dept")
            .then(Exp::label("course"))
            .then(Exp::Var(x).star())
            .then(Exp::label("project"));
        for push in [true, false] {
            let opts = SqlOptions {
                push_selections: push,
                ..SqlOptions::default()
            };
            let prog = exp_to_sql(&q, &opts, &HashMap::new()).unwrap();
            let ids = run(&prog, &db);
            assert_eq!(ids.len(), 2, "p1 and p2 (push={push})");
        }
    }

    #[test]
    fn epsilon_union_refl_flag() {
        // (ε ∪ course): at context course, yields self + course children
        let (_, _, db) = doc();
        let q = ExtendedQuery::of(
            Exp::label("dept")
                .then(Exp::label("course"))
                .then(Exp::Union(vec![Exp::Epsilon, Exp::label("course")])),
        );
        let prog = exp_to_sql(&q, &SqlOptions::default(), &HashMap::new()).unwrap();
        let ids = run(&prog, &db);
        assert_eq!(ids.len(), 2, "c1 itself and its course child c2");
    }

    #[test]
    fn text_qualifier_select() {
        let d = samples::dept_simplified();
        let t = parse_xml(&d, "<dept><course>x</course><course>y</course></dept>").unwrap();
        let db = edge_database(&t, &d);
        let q = ExtendedQuery::of(
            Exp::label("dept").then(Exp::label("course").qualified(EQual::TextEq("x".into()))),
        );
        let prog = exp_to_sql(&q, &SqlOptions::default(), &HashMap::new()).unwrap();
        assert_eq!(run(&prog, &db).len(), 1);
    }

    #[test]
    fn negation_anti_join() {
        let (_, _, db) = doc();
        // courses with no student child
        let q = ExtendedQuery::of(Exp::label("dept").then(
            Exp::label("course").qualified(EQual::Not(Box::new(EQual::exp(Exp::label("student"))))),
        ));
        let prog = exp_to_sql(&q, &SqlOptions::default(), &HashMap::new()).unwrap();
        assert_eq!(run(&prog, &db).len(), 0, "c1 has students");
        let q2 = ExtendedQuery::of(Exp::label("dept").then(Exp::label("course")).then(
            Exp::label("course").qualified(EQual::Not(Box::new(EQual::exp(Exp::label("student"))))),
        ));
        let prog2 = exp_to_sql(&q2, &SqlOptions::default(), &HashMap::new()).unwrap();
        assert_eq!(run(&prog2, &db).len(), 1, "c2 has no students");
    }

    #[test]
    fn override_replaces_placeholder() {
        use x2s_rel::Relation;
        let (_, t, db) = doc();
        let mut q = ExtendedQuery::default();
        let v = q.push_equation(Exp::EmptySet, "external rec");
        q.result = Exp::label("dept").then(Exp::Var(v));
        // override: rec pairs from the dept node itself, faked as Values
        let mut rel = Relation::new(2);
        rel.push(vec![Value::Id(t.root().0), Value::Id(999)]);
        let mut overrides = HashMap::new();
        overrides.insert(v, Plan::Values(rel));
        let prog = exp_to_sql(&q, &SqlOptions::default(), &overrides).unwrap();
        let ids = run(&prog, &db);
        assert_eq!(ids, BTreeSet::from([999]));
    }

    #[test]
    fn push_and_no_push_agree() {
        let (_, _, db) = doc();
        let mut q = ExtendedQuery::default();
        let x = q.push_equation(
            Exp::label("course")
                .or(Exp::label("student").then(Exp::label("course")))
                .or(Exp::label("project").then(Exp::label("course"))),
            "X",
        );
        // closure on both sides of labels
        q.result = Exp::label("dept")
            .then(Exp::label("course"))
            .then(Exp::Var(x).star())
            .then(Exp::label("project"))
            .then(
                Exp::Var(x)
                    .star()
                    .then(Exp::label("project"))
                    .or(Exp::Epsilon),
            );
        let a = run(
            &exp_to_sql(
                &q,
                &SqlOptions {
                    push_selections: true,
                    ..SqlOptions::default()
                },
                &HashMap::new(),
            )
            .unwrap(),
            &db,
        );
        let b = run(
            &exp_to_sql(
                &q,
                &SqlOptions {
                    push_selections: false,
                    ..SqlOptions::default()
                },
                &HashMap::new(),
            )
            .unwrap(),
            &db,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn star_of_star_collapses() {
        let (_, _, db) = doc();
        let q = ExtendedQuery::of(
            Exp::label("dept")
                .then(Exp::label("course").star().star())
                .then(Exp::label("project")),
        );
        let prog = exp_to_sql(&q, &SqlOptions::default(), &HashMap::new()).unwrap();
        // course*: chain c1→c2 etc; projects under course chains: p1 only
        // (p2 is under c4 which is under p1 — not a pure course chain)
        let ids = run(&prog, &db);
        assert_eq!(ids.len(), 1);
    }
}
