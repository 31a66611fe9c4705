//! Static analysis over [`Program`]s: schema/type inference and
//! well-formedness verification.
//!
//! The translation emits a *sequence* of SQL'(LFP) statements whose
//! correctness rests on invariants nothing in the executor checks until it
//! is too late: column indexes in predicates, projections and join keys
//! must be in range, set-operation arms must agree on arity, and the
//! fixpoint operators must be shape-correct. This module verifies all of
//! that *statically* — before execution, before SQL rendering, and (under
//! `debug_assertions`) after every optimizer rewrite — and reports typed
//! diagnostics instead of panicking deep inside the columnar executor.
//! Dependency order needs no check: a program's arena holds every child
//! before its parent, so the analysis is one forward pass over the nodes
//! that stores a [`Schema`] per node.
//!
//! # The abstract type lattice
//!
//! Each column is abstracted to a [`ColType`]. The lattice is flat except
//! for fixpoint tags, which are strings:
//!
//! | concrete [`Value`]                | abstract [`ColType`] |
//! |-----------------------------------|----------------------|
//! | [`Value::Id`], [`Value::Doc`]     | `NodeId`             |
//! | [`Value::Str`], [`Value::Code`]   | `Text`               |
//! | `MultiLfp` `Rid` tag              | `Tag` (⊑ `Text`)     |
//! | [`Value::Null`]                   | (no information)     |
//! | anything / conflicting            | `Top`                |
//!
//! ```text
//!         Top
//!        /   \
//!    NodeId  Text
//!             |
//!            Tag
//! ```
//!
//! `join` is the least upper bound: `join(x, x) = x`,
//! `join(Tag, Text) = Text`, everything else joins to `Top`.
//!
//! # What is checked
//!
//! * **Column ranges** — every column index appearing in a [`Pred`], a
//!   `Project`, a `Join::on` pair, an [`LfpSpec`] (`from_col`, `to_col`,
//!   push-seed column) or a [`MultiLfpEdge`](crate::plan::MultiLfpEdge) is
//!   in range of its input's
//!   inferred arity ([`AnalyzeErrorKind::ColumnOutOfRange`]).
//! * **Union arity** — every `Union` arm has the same arity
//!   ([`AnalyzeErrorKind::ArityMismatch`]).
//! * **Result reachability** — the program names a result
//!   ([`AnalyzeErrorKind::NoResult`]); statements the result does not
//!   transitively depend on are reported as non-fatal
//!   [`AnalyzeWarning::DeadStatement`]s.
//! * **Closure shapes** — fixpoint inputs have at least the two columns a
//!   closure needs ([`AnalyzeErrorKind::BadClosureShape`]); every
//!   `MultiLfp` edge rule's `src_tag` is *live*: producible by some init
//!   part or by a chain of producible edge rules
//!   ([`AnalyzeErrorKind::UnproducibleTag`]).
//!
//! Errors carry statement provenance (the temporary of the statement that
//! owns the offending node, and its
//! [`Stmt::comment`](crate::program::Stmt::comment)); see [`AnalyzeError`].
//!
//! # Entry points
//!
//! [`analyze_program`] treats every base-relation scan as unknown (arity
//! unchecked until it meets a known schema); [`analyze_program_with`] takes
//! a catalog callback, and [`edge_scan_schema`] is the catalog for the
//! shredded edge databases used throughout this repo (every `R_*` relation
//! is `(F: NodeId, T: NodeId, V: Text)`).

use std::fmt;

use crate::fxhash::FxHashSet;
use crate::plan::{IntervalJoinSpec, JoinKind, LfpSpec, MultiLfpSpec, Pred};
use crate::program::{Node, NodeId, Program, TempId};
use crate::value::Value;

/// Widest schema the analyzer will materialize column-by-column. Translated
/// programs stay in single digits; the cap only matters for adversarial
/// shapes like shared self-join ladders, where arity doubles per level and a
/// concrete `Vec<ColType>` would be exponential. Beyond the cap the schema
/// degrades to unknown (arity checks are skipped, nothing is wrongly
/// rejected).
const MAX_SCHEMA_WIDTH: usize = 4096;

/// Abstract type of one column — see the [module docs](self) for the
/// lattice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ColType {
    /// An element node id ([`Value::Id`]) or the document marker
    /// ([`Value::Doc`]).
    NodeId,
    /// Text: runtime strings ([`Value::Str`]) or dictionary codes
    /// ([`Value::Code`]).
    Text,
    /// A `MultiLfp` `Rid` tag — a string drawn from the fixpoint's tag
    /// alphabet. `Tag ⊑ Text`.
    Tag,
    /// No static information (or conflicting information).
    Top,
}

impl ColType {
    /// Least upper bound of two column types.
    pub fn join(self, other: ColType) -> ColType {
        match (self, other) {
            (a, b) if a == b => a,
            (ColType::Tag, ColType::Text) | (ColType::Text, ColType::Tag) => ColType::Text,
            _ => ColType::Top,
        }
    }

    /// Abstract a concrete value. `None` for [`Value::Null`], which carries
    /// no type information.
    pub fn of_value(v: &Value) -> Option<ColType> {
        match v {
            Value::Null => None,
            Value::Doc | Value::Id(_) => Some(ColType::NodeId),
            Value::Str(_) | Value::Code(_) => Some(ColType::Text),
        }
    }
}

impl fmt::Display for ColType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColType::NodeId => "NodeId",
            ColType::Text => "Text",
            ColType::Tag => "Tag",
            ColType::Top => "Top",
        };
        write!(f, "{s}")
    }
}

/// The inferred schema of a plan node: either a known arity with
/// per-column abstract types, or entirely unknown (a scan of a relation
/// the catalog does not describe).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema(Option<Vec<ColType>>);

impl Schema {
    /// A schema about which nothing is known (not even the arity).
    pub fn unknown() -> Schema {
        Schema(None)
    }

    /// A fully known schema.
    pub fn known(cols: Vec<ColType>) -> Schema {
        Schema(Some(cols))
    }

    /// The arity, when known.
    pub fn arity(&self) -> Option<usize> {
        self.0.as_ref().map(Vec::len)
    }

    /// The per-column types, when known.
    pub fn cols(&self) -> Option<&[ColType]> {
        self.0.as_deref()
    }

    /// The type of column `i`: `Top` when the schema is unknown or the
    /// index is out of range (range errors are reported separately).
    pub fn col(&self, i: usize) -> ColType {
        match &self.0 {
            Some(cols) => cols.get(i).copied().unwrap_or(ColType::Top),
            None => ColType::Top,
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            None => write!(f, "(?)"),
            Some(cols) => {
                write!(f, "(")?;
                for (i, c) in cols.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// What went wrong, without provenance — see [`AnalyzeError`] for the
/// statement-level wrapper.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnalyzeErrorKind {
    /// A column index is out of range of its input's inferred arity.
    ColumnOutOfRange {
        /// Where the index appears (e.g. `"predicate"`, `"projection"`).
        context: String,
        /// The offending column index.
        col: usize,
        /// The input's inferred arity.
        arity: usize,
    },
    /// Two set-operation arms (or join-adjacent schemas) disagree on arity.
    ArityMismatch {
        /// Which operation (e.g. `"union arms"`).
        context: String,
        /// Arity of the first/left arm.
        left: usize,
        /// Arity of the offending arm.
        right: usize,
    },
    /// The program has no result statement.
    NoResult,
    /// A fixpoint input cannot be a closure: fewer than two columns.
    BadClosureShape(String),
    /// A `MultiLfp` edge rule's `src_tag` is produced by no init part and
    /// no live edge rule — the rule can never fire.
    UnproducibleTag(String),
}

impl fmt::Display for AnalyzeErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeErrorKind::ColumnOutOfRange {
                context,
                col,
                arity,
            } => write!(
                f,
                "column {col} out of range in {context} (input arity {arity})"
            ),
            AnalyzeErrorKind::ArityMismatch {
                context,
                left,
                right,
            } => write!(f, "arity mismatch in {context}: {left} vs {right}"),
            AnalyzeErrorKind::NoResult => write!(f, "program has no result statement"),
            AnalyzeErrorKind::BadClosureShape(what) => {
                write!(f, "fixpoint input is not closure-shaped: {what}")
            }
            AnalyzeErrorKind::UnproducibleTag(tag) => {
                write!(f, "multi-lfp edge rule has unproducible source tag '{tag}'")
            }
        }
    }
}

/// A fatal diagnostic with statement provenance: which statement (by
/// temporary) was ill-formed and its [`Stmt::comment`](crate::program::Stmt::comment).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnalyzeError {
    /// The offending statement; `None` for program-level errors
    /// ([`AnalyzeErrorKind::NoResult`]) and for nodes the optimizer has not
    /// assigned to a statement yet.
    pub stmt: Option<TempId>,
    /// The offending statement's comment (empty for program-level errors).
    pub comment: String,
    /// What went wrong.
    pub kind: AnalyzeErrorKind,
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.stmt {
            Some(t) if self.comment.is_empty() => {
                write!(f, "statement T{}: {}", t.0, self.kind)
            }
            Some(t) => write!(f, "statement T{} ({}): {}", t.0, self.comment, self.kind),
            None => write!(f, "{}", self.kind),
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// A non-fatal diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnalyzeWarning {
    /// A statement the result does not (transitively) depend on.
    DeadStatement {
        /// The statement's target temporary.
        stmt: TempId,
        /// The statement's comment.
        comment: String,
    },
}

impl fmt::Display for AnalyzeWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeWarning::DeadStatement { stmt, comment } => {
                if comment.is_empty() {
                    write!(f, "statement T{} is dead (result never reads it)", stmt.0)
                } else {
                    write!(
                        f,
                        "statement T{} ({comment}) is dead (result never reads it)",
                        stmt.0
                    )
                }
            }
        }
    }
}

/// The result of a successful analysis.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Inferred schema of every node, indexed by [`NodeId`]; a statement's
    /// is its root's.
    pub schemas: Vec<Schema>,
    /// Inferred schema of the program result.
    pub result: Schema,
    /// Non-fatal diagnostics.
    pub warnings: Vec<AnalyzeWarning>,
}

/// The catalog for shredded edge databases ([`x2s_shred`]'s convention):
/// every relation named `R_*` — each per-type `R_A` plus the `R__nodes`
/// union — has schema `(F: NodeId, T: NodeId, V: Text)`. Anything else is
/// unknown.
///
/// [`x2s_shred`]: crate
pub fn edge_scan_schema(name: &str) -> Schema {
    if name.starts_with("R_") {
        Schema::known(vec![ColType::NodeId, ColType::NodeId, ColType::Text])
    } else {
        Schema::unknown()
    }
}

/// Analyze a program treating every base-relation scan as unknown.
pub fn analyze_program(prog: &Program) -> Result<Analysis, AnalyzeError> {
    analyze_program_with(prog, &|_| Schema::unknown())
}

/// Analyze a program against a base-relation catalog: `scan_schema` maps a
/// relation name to its schema ([`Schema::unknown`] when the relation is
/// not in the catalog).
pub fn analyze_program_with(
    prog: &Program,
    scan_schema: &dyn Fn(&str) -> Schema,
) -> Result<Analysis, AnalyzeError> {
    let schemas = infer_nodes(prog.nodes(), |_| true, scan_schema).map_err(|(id, kind)| {
        // the statement owning a node is the first whose root is not before it
        let t = prog.stmts().partition_point(|s| s.root < id);
        AnalyzeError {
            stmt: Some(TempId(t as u32)),
            comment: prog.stmts()[t].comment.clone(),
            kind,
        }
    })?;
    let result_temp = prog.result().ok_or(AnalyzeError {
        stmt: None,
        comment: String::new(),
        kind: AnalyzeErrorKind::NoResult,
    })?;
    let result = schemas[prog.stmt(result_temp).root as usize].clone();
    let warnings = prog
        .live_stmts(result_temp)
        .into_iter()
        .zip(prog.stmts())
        .enumerate()
        .filter(|(_, (live, _))| !live)
        .map(|(t, (_, s))| AnalyzeWarning::DeadStatement {
            stmt: TempId(t as u32),
            comment: s.comment.clone(),
        })
        .collect();
    Ok(Analysis {
        schemas,
        result,
        warnings,
    })
}

/// Infer the schema of every node `live` selects, in one forward pass over
/// `nodes` (children first); a node left out gets [`Schema::unknown`]. On
/// the first ill-formed node, returns its id and what is wrong.
pub(crate) fn infer_nodes(
    nodes: &[Node],
    live: impl Fn(NodeId) -> bool,
    scan_schema: &dyn Fn(&str) -> Schema,
) -> Result<Vec<Schema>, (NodeId, AnalyzeErrorKind)> {
    let mut schemas: Vec<Schema> = Vec::with_capacity(nodes.len());
    for (id, node) in nodes.iter().enumerate() {
        let id = id as NodeId;
        let schema = if live(id) {
            infer(node, &schemas, scan_schema).map_err(|kind| (id, kind))?
        } else {
            Schema::unknown()
        };
        schemas.push(schema);
    }
    Ok(schemas)
}

/// Error unless `col` is in range of `schema` (when its arity is known).
fn check_col(schema: &Schema, col: usize, context: &str) -> Result<(), AnalyzeErrorKind> {
    match schema.arity() {
        Some(arity) if col >= arity => Err(AnalyzeErrorKind::ColumnOutOfRange {
            context: context.into(),
            col,
            arity,
        }),
        _ => Ok(()),
    }
}

/// Error unless a fixpoint input of known arity has the two columns a
/// closure needs.
fn check_closure(schema: &Schema, what: &str) -> Result<(), AnalyzeErrorKind> {
    match schema.arity() {
        Some(arity) if arity < 2 => Err(AnalyzeErrorKind::BadClosureShape(format!(
            "{what} has arity {arity}, need at least 2"
        ))),
        _ => Ok(()),
    }
}

/// The schema of one node, from its children's (`schemas[c]`).
fn infer(
    node: &Node,
    schemas: &[Schema],
    scan_schema: &dyn Fn(&str) -> Schema,
) -> Result<Schema, AnalyzeErrorKind> {
    let of = |c: NodeId| &schemas[c as usize];
    match node {
        Node::Scan(name) => Ok(scan_schema(name)),
        Node::Values(rel) => Ok(infer_values(rel)),
        Node::Select { input, pred } => {
            let s = of(*input);
            check_pred(pred, s)?;
            Ok(s.clone())
        }
        Node::Project { input, cols } => {
            let s = of(*input);
            for (i, _) in cols {
                check_col(s, *i, "projection")?;
            }
            Ok(Schema::known(cols.iter().map(|(i, _)| s.col(*i)).collect()))
        }
        Node::Join {
            left,
            right,
            on,
            kind,
        } => {
            let (l, r) = (of(*left), of(*right));
            check_col(l, on.0, "join key (left)")?;
            check_col(r, on.1, "join key (right)")?;
            match kind {
                JoinKind::Inner => match (l.cols(), r.cols()) {
                    // Width cap: inner joins concatenate schemas, so a
                    // self-join ladder doubles arity per level — a shared
                    // 40-deep DAG would ask for a 2⁴¹-column schema. Past
                    // MAX_SCHEMA_WIDTH the analyzer degrades to an unknown
                    // schema (checks over unknown inputs are skipped, so
                    // this loses precision, never soundness of accepts).
                    (Some(lc), Some(rc)) if lc.len() + rc.len() <= MAX_SCHEMA_WIDTH => {
                        Ok(Schema::known(lc.iter().chain(rc).copied().collect()))
                    }
                    _ => Ok(Schema::unknown()),
                },
                JoinKind::Semi | JoinKind::Anti => Ok(l.clone()),
            }
        }
        Node::Union { inputs, .. } => merge_arms(inputs.iter().map(|&i| of(i)), "union arms"),
        Node::Distinct(input) => Ok(of(*input).clone()),
        Node::Lfp(spec) => infer_lfp(spec, of),
        Node::MultiLfp(spec) => infer_multilfp(spec, of),
        Node::IntervalJoin(spec) => infer_interval_join(spec, of(spec.left), scan_schema),
    }
}

/// Interval join: the probe column must hold node ids and be in range;
/// the right side must be a base relation of edge shape (arity ≥ 2, its `T`
/// column supplies the descendants). Output is always the binary
/// `(ancestor, descendant)` pair set.
fn infer_interval_join(
    spec: &IntervalJoinSpec<NodeId>,
    left: &Schema,
    scan_schema: &dyn Fn(&str) -> Schema,
) -> Result<Schema, AnalyzeErrorKind> {
    check_col(left, spec.left_col, "interval join probe column")?;
    let what = format!("interval join view relation {}", spec.right);
    check_closure(&scan_schema(&spec.right), &what)?;
    Ok(Schema::known(vec![ColType::NodeId, ColType::NodeId]))
}

fn infer_lfp<'s>(
    spec: &LfpSpec<NodeId>,
    of: impl Fn(NodeId) -> &'s Schema,
) -> Result<Schema, AnalyzeErrorKind> {
    let input = of(spec.input);
    check_closure(input, "LFP input")?;
    check_col(input, spec.from_col, "lfp from_col")?;
    check_col(input, spec.to_col, "lfp to_col")?;
    if let Some(push) = &spec.push {
        let (seeds, col) = push.input();
        check_col(of(*seeds), col, "lfp push seed column")?;
    }
    // output is always the binary closure (F, T)
    Ok(Schema::known(vec![
        input.col(spec.from_col),
        input.col(spec.to_col),
    ]))
}

fn infer_multilfp<'s>(
    spec: &MultiLfpSpec<NodeId>,
    of: impl Fn(NodeId) -> &'s Schema,
) -> Result<Schema, AnalyzeErrorKind> {
    let mut s_ty: Option<ColType> = None;
    let mut t_ty: Option<ColType> = None;
    let acc = |slot: &mut Option<ColType>, ty: ColType| {
        *slot = Some(match *slot {
            Some(cur) => cur.join(ty),
            None => ty,
        });
    };
    for (_tag, part) in &spec.init {
        let s = of(*part);
        check_closure(s, "multi-lfp init part")?;
        acc(&mut s_ty, s.col(0));
        acc(&mut t_ty, s.col(1));
    }
    // liveness fixpoint over the tag alphabet: a rule fires only if its
    // src_tag is produced by an init part or by another live rule
    let mut live: FxHashSet<&str> = spec.init.iter().map(|(t, _)| t.as_str()).collect();
    loop {
        let before = live.len();
        for e in &spec.edges {
            if live.contains(e.src_tag.as_str()) {
                live.insert(e.dst_tag.as_str());
            }
        }
        if live.len() == before {
            break;
        }
    }
    for e in &spec.edges {
        if !live.contains(e.src_tag.as_str()) {
            return Err(AnalyzeErrorKind::UnproducibleTag(e.src_tag.clone()));
        }
        let s = of(e.rel);
        check_closure(s, "multi-lfp edge relation")?;
        // a firing rule keeps S from the delta and takes T from the
        // edge relation's column 1
        acc(&mut t_ty, s.col(1));
    }
    Ok(Schema::known(vec![
        s_ty.unwrap_or(ColType::Top),
        t_ty.unwrap_or(ColType::Top),
        ColType::Tag,
    ]))
}

/// Merge set-operation arm schemas: known arities must agree; result types
/// are the columnwise join of the known arms, degraded to `Top` when any
/// arm is unknown (its types could be anything).
fn merge_arms<'s>(
    arms: impl Iterator<Item = &'s Schema>,
    context: &str,
) -> Result<Schema, AnalyzeErrorKind> {
    let mut known: Option<Vec<ColType>> = None;
    let mut any_unknown = false;
    for s in arms {
        match s.cols() {
            None => any_unknown = true,
            Some(cols) => match &mut known {
                None => known = Some(cols.to_vec()),
                Some(acc) => {
                    if acc.len() != cols.len() {
                        return Err(AnalyzeErrorKind::ArityMismatch {
                            context: context.into(),
                            left: acc.len(),
                            right: cols.len(),
                        });
                    }
                    for (a, c) in acc.iter_mut().zip(cols) {
                        *a = a.join(*c);
                    }
                }
            },
        }
    }
    Ok(match known {
        None => Schema::unknown(),
        Some(mut cols) => {
            if any_unknown {
                cols.iter_mut().for_each(|c| *c = ColType::Top);
            }
            Schema::known(cols)
        }
    })
}

/// Infer the schema of an inline constant relation: arity from the column
/// list, per-column types joined over the rows (NULLs contribute nothing).
fn infer_values(rel: &crate::relation::Relation) -> Schema {
    let arity = rel.arity();
    let mut cols: Vec<Option<ColType>> = vec![None; arity];
    for row in rel.rows() {
        for (slot, v) in cols.iter_mut().zip(row) {
            if let Some(ty) = ColType::of_value(v) {
                *slot = Some(match *slot {
                    Some(cur) => cur.join(ty),
                    None => ty,
                });
            }
        }
    }
    Schema::known(
        cols.into_iter()
            .map(|c| c.unwrap_or(ColType::Top))
            .collect(),
    )
}

/// Check every column index a predicate mentions against the input schema.
fn check_pred(pred: &Pred, schema: &Schema) -> Result<(), AnalyzeErrorKind> {
    match pred {
        Pred::ColEqValue(col, _) => check_col(schema, *col, "predicate"),
        Pred::And(a, b) => {
            check_pred(a, schema)?;
            check_pred(b, schema)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{MultiLfpEdge, Plan, PushSpec};
    use crate::relation::Relation;

    fn prog(stmts: Vec<(Plan, &str)>, result: Option<u32>) -> Program {
        let mut p = Program::new();
        for (plan, comment) in stmts {
            p.push(plan, comment);
        }
        if let Some(r) = result {
            p.set_result(TempId(r));
        }
        p
    }

    /// The schema `a` inferred for statement `t` of `p`.
    fn stmt_schema<'a>(a: &'a Analysis, p: &Program, t: u32) -> &'a Schema {
        &a.schemas[p.stmt(TempId(t)).root as usize]
    }

    fn edge_scan(name: &str) -> Plan {
        Plan::Scan(name.to_string())
    }

    #[test]
    fn lattice_join_laws() {
        use ColType::*;
        for t in [NodeId, Text, Tag, Top] {
            assert_eq!(t.join(t), t, "idempotent");
            assert_eq!(t.join(Top), Top, "Top absorbs");
            for u in [NodeId, Text, Tag, Top] {
                assert_eq!(t.join(u), u.join(t), "commutative");
            }
        }
        assert_eq!(Tag.join(Text), Text);
        assert_eq!(NodeId.join(Text), Top);
    }

    #[test]
    fn edge_catalog_schemas() {
        assert_eq!(
            edge_scan_schema("R_course").cols(),
            Some(&[ColType::NodeId, ColType::NodeId, ColType::Text][..])
        );
        assert_eq!(
            edge_scan_schema("R__nodes").arity(),
            Some(3),
            "the all-nodes union relation"
        );
        assert_eq!(edge_scan_schema("whatever"), Schema::unknown());
    }

    #[test]
    fn infers_through_the_answer_shape() {
        // the e2sql answer shape: Distinct(π_T(σ_{F=Doc}(R_A)))
        let p = prog(
            vec![
                (edge_scan("R_a"), "scan"),
                (
                    Plan::Distinct(Box::new(
                        Plan::Temp(TempId(0))
                            .select(Pred::ColEqValue(0, Value::Doc))
                            .project(vec![(1, "T")]),
                    )),
                    "answer",
                ),
            ],
            Some(1),
        );
        let a = analyze_program_with(&p, &edge_scan_schema).expect("well-formed");
        assert_eq!(a.result, Schema::known(vec![ColType::NodeId]));
        assert_eq!(a.result.to_string(), "(NodeId)");
        assert!(a.warnings.is_empty());
        assert_eq!(stmt_schema(&a, &p, 0).arity(), Some(3));
    }

    #[test]
    fn values_infer_types_skipping_nulls() {
        let rel = Relation::from_tuples(
            3,
            vec![
                vec![Value::Null, Value::Id(1), Value::str("x")],
                vec![Value::Doc, Value::Null, Value::Code(7)],
            ],
        );
        let p = prog(vec![(Plan::Values(rel), "vals")], Some(0));
        let a = analyze_program(&p).expect("well-formed");
        assert_eq!(
            a.result,
            Schema::known(vec![ColType::NodeId, ColType::NodeId, ColType::Text])
        );
    }

    #[test]
    fn rejects_predicate_column_out_of_range() {
        let p = prog(
            vec![(
                edge_scan("R_a").select(Pred::ColEqValue(9, Value::Doc)),
                "bad pred",
            )],
            Some(0),
        );
        let e = analyze_program_with(&p, &edge_scan_schema).expect_err("must reject");
        assert!(matches!(
            e.kind,
            AnalyzeErrorKind::ColumnOutOfRange {
                col: 9,
                arity: 3,
                ..
            }
        ));
        assert_eq!(e.stmt, Some(TempId(0)));
        assert!(e.to_string().contains("bad pred"), "{e}");
    }

    #[test]
    fn rejects_projection_column_out_of_range() {
        let p = prog(
            vec![(edge_scan("R_a").project(vec![(5, "X")]), "bad proj")],
            Some(0),
        );
        let e = analyze_program_with(&p, &edge_scan_schema).expect_err("must reject");
        assert!(matches!(
            e.kind,
            AnalyzeErrorKind::ColumnOutOfRange { col: 5, .. }
        ));
    }

    #[test]
    fn unknown_scans_defer_checks_until_projected() {
        // scans of unknown relations can't be range-checked…
        let ok = prog(
            vec![(
                Plan::Scan("mystery".into()).select(Pred::ColEqValue(9, Value::Doc)),
                "",
            )],
            Some(0),
        );
        assert!(analyze_program(&ok).is_ok());
        // …but a projection pins the arity downstream
        let bad = prog(
            vec![(
                Plan::Scan("mystery".into())
                    .project(vec![(0, "A")])
                    .select(Pred::ColEqValue(1, Value::Doc)),
                "",
            )],
            Some(0),
        );
        let e = analyze_program(&bad).expect_err("projection fixed the arity");
        assert!(matches!(
            e.kind,
            AnalyzeErrorKind::ColumnOutOfRange {
                col: 1,
                arity: 1,
                ..
            }
        ));
    }

    #[test]
    fn rejects_union_arity_mismatch() {
        let p = prog(
            vec![(
                Plan::Union {
                    inputs: vec![edge_scan("R_a"), edge_scan("R_b").project(vec![(1, "T")])],
                    distinct: true,
                },
                "arms",
            )],
            Some(0),
        );
        let e = analyze_program_with(&p, &edge_scan_schema).expect_err("must reject");
        assert!(matches!(
            e.kind,
            AnalyzeErrorKind::ArityMismatch {
                left: 3,
                right: 1,
                ..
            }
        ));
    }

    #[test]
    fn rejects_missing_and_unknown_result() {
        let none = prog(vec![(edge_scan("R_a"), "")], None);
        assert_eq!(
            analyze_program(&none).expect_err("no result").kind,
            AnalyzeErrorKind::NoResult
        );
        // a result no statement produces cannot even be set
        let dangling = std::panic::catch_unwind(|| prog(vec![(edge_scan("R_a"), "")], Some(7)));
        assert!(dangling.is_err(), "set_result refuses an unknown temporary");
    }

    #[test]
    fn warns_on_dead_statements() {
        let p = prog(
            vec![
                (edge_scan("R_a"), "used"),
                (edge_scan("R_b"), "never read"),
                (Plan::Distinct(Box::new(Plan::Temp(TempId(0)))), "answer"),
            ],
            Some(2),
        );
        let a = analyze_program_with(&p, &edge_scan_schema).expect("well-formed");
        assert_eq!(
            a.warnings,
            vec![AnalyzeWarning::DeadStatement {
                stmt: TempId(1),
                comment: "never read".into(),
            }]
        );
    }

    #[test]
    fn lfp_schema_and_checks() {
        let good = prog(
            vec![(
                Plan::Lfp(LfpSpec {
                    input: Box::new(edge_scan("R_a")),
                    from_col: 0,
                    to_col: 1,
                    push: None,
                }),
                "closure",
            )],
            Some(0),
        );
        let a = analyze_program_with(&good, &edge_scan_schema).expect("well-formed");
        assert_eq!(
            a.result,
            Schema::known(vec![ColType::NodeId, ColType::NodeId])
        );

        let bad_col = prog(
            vec![(
                Plan::Lfp(LfpSpec {
                    input: Box::new(edge_scan("R_a")),
                    from_col: 0,
                    to_col: 7,
                    push: None,
                }),
                "",
            )],
            Some(0),
        );
        let e = analyze_program_with(&bad_col, &edge_scan_schema).expect_err("must reject");
        assert!(matches!(
            e.kind,
            AnalyzeErrorKind::ColumnOutOfRange { col: 7, .. }
        ));

        let unary = prog(
            vec![(
                Plan::Lfp(LfpSpec {
                    input: Box::new(edge_scan("R_a").project(vec![(1, "T")])),
                    from_col: 0,
                    to_col: 0,
                    push: None,
                }),
                "",
            )],
            Some(0),
        );
        let e = analyze_program_with(&unary, &edge_scan_schema).expect_err("must reject");
        assert!(matches!(e.kind, AnalyzeErrorKind::BadClosureShape(_)));
    }

    #[test]
    fn lfp_push_seed_column_checked() {
        let p = prog(
            vec![(
                Plan::Lfp(LfpSpec {
                    input: Box::new(edge_scan("R_a")),
                    from_col: 0,
                    to_col: 1,
                    push: Some(PushSpec::Forward {
                        seeds: Box::new(edge_scan("R_b").project(vec![(1, "T")])),
                        col: 3,
                    }),
                }),
                "",
            )],
            Some(0),
        );
        let e = analyze_program_with(&p, &edge_scan_schema).expect_err("must reject");
        assert!(matches!(
            e.kind,
            AnalyzeErrorKind::ColumnOutOfRange {
                col: 3,
                arity: 1,
                ..
            }
        ));
    }

    fn multilfp(init: Vec<(&str, Plan)>, edges: Vec<(&str, &str, Plan)>) -> Plan {
        Plan::MultiLfp(MultiLfpSpec {
            init: init.into_iter().map(|(t, p)| (t.to_string(), p)).collect(),
            edges: edges
                .into_iter()
                .map(|(s, d, rel)| MultiLfpEdge {
                    src_tag: s.to_string(),
                    dst_tag: d.to_string(),
                    rel,
                })
                .collect(),
        })
    }

    #[test]
    fn multilfp_schema_and_tag_liveness() {
        // b is produced by init; c only via the b→c rule — both live
        let good = prog(
            vec![(
                multilfp(
                    vec![("b", edge_scan("R_b").project(vec![(0, "S"), (1, "T")]))],
                    vec![("b", "c", edge_scan("R_c")), ("c", "b", edge_scan("R_b"))],
                ),
                "fixpoint",
            )],
            Some(0),
        );
        let a = analyze_program_with(&good, &edge_scan_schema).expect("well-formed");
        assert_eq!(
            a.result,
            Schema::known(vec![ColType::NodeId, ColType::NodeId, ColType::Tag])
        );

        // z is produced by nothing: its rule can never fire
        let dead = prog(
            vec![(
                multilfp(
                    vec![("b", edge_scan("R_b").project(vec![(0, "S"), (1, "T")]))],
                    vec![("z", "b", edge_scan("R_b"))],
                ),
                "",
            )],
            Some(0),
        );
        let e = analyze_program_with(&dead, &edge_scan_schema).expect_err("must reject");
        assert_eq!(e.kind, AnalyzeErrorKind::UnproducibleTag("z".into()));
    }

    #[test]
    fn multilfp_empty_fixpoint_is_legal() {
        let p = prog(vec![(multilfp(vec![], vec![]), "empty")], Some(0));
        let a = analyze_program(&p).expect("an empty fixpoint is just empty");
        assert_eq!(
            a.result,
            Schema::known(vec![ColType::Top, ColType::Top, ColType::Tag])
        );
    }

    #[test]
    fn join_schemas_concatenate_and_check_keys() {
        let p = prog(
            vec![(
                edge_scan("R_a").join_on(edge_scan("R_b").project(vec![(1, "T")]), 1, 0),
                "join",
            )],
            Some(0),
        );
        let a = analyze_program_with(&p, &edge_scan_schema).expect("well-formed");
        assert_eq!(a.result.arity(), Some(4), "inner join concatenates");

        let bad = prog(
            vec![(edge_scan("R_a").semi_join(edge_scan("R_b"), 0, 8), "")],
            Some(0),
        );
        let e = analyze_program_with(&bad, &edge_scan_schema).expect_err("must reject");
        assert!(matches!(
            e.kind,
            AnalyzeErrorKind::ColumnOutOfRange { col: 8, .. }
        ));
        // semi join keeps the left schema
        let semi = prog(
            vec![(edge_scan("R_a").semi_join(edge_scan("R_b"), 1, 0), "")],
            Some(0),
        );
        let a = analyze_program_with(&semi, &edge_scan_schema).expect("well-formed");
        assert_eq!(a.result.arity(), Some(3));
    }

    #[test]
    fn error_display_carries_provenance() {
        let e = AnalyzeError {
            stmt: Some(TempId(4)),
            comment: "rec(a, b)".into(),
            kind: AnalyzeErrorKind::UnproducibleTag("c".into()),
        };
        let s = e.to_string();
        assert!(
            s.contains("T4") && s.contains("rec(a, b)") && s.contains("'c'"),
            "{s}"
        );
        let p = analyze_program(&Program::new()).unwrap_err();
        assert_eq!(p.to_string(), "program has no result statement");
    }

    #[test]
    fn self_join_ladder_degrades_instead_of_exploding() {
        // Arity doubles per level; a concrete schema for the top join would
        // need 2⁴¹ columns. The width cap must degrade to unknown and keep
        // the analysis linear in program size.
        let mut p = Program::new();
        let mut t = p.push(edge_scan("R_a").project(vec![(0, "F"), (1, "T")]), "base");
        for i in 0..40 {
            t = p.push(Plan::Temp(t).join_on(Plan::Temp(t), 1, 0), format!("J{i}"));
        }
        p.set_result(t);
        let a = analyze_program_with(&p, &edge_scan_schema).expect("well-formed");
        assert_eq!(a.result.arity(), None, "wide schema degrades to unknown");
        // narrow levels below the cap keep concrete schemas
        assert_eq!(stmt_schema(&a, &p, 1).arity(), Some(4));
    }
}
