//! Relational-algebra plan nodes.
//!
//! Plans are trees evaluated bottom-up by [`crate::exec`]. A translated
//! XPath query becomes a [`crate::program::Program`] — a list of statements
//! `T_i ← plan_i` where plans may reference earlier temporaries.

use crate::program::TempId;
use crate::relation::Relation;
use crate::value::Value;

/// A predicate over a single tuple.
///
/// `Eq`/`Hash` let the optimizer ([`crate::opt`]) hash-cons `Select` nodes
/// structurally; [`Value`] is already `Eq + Hash`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Pred {
    /// `col = literal`.
    ColEqValue(usize, Value),
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
}

impl Pred {
    /// Evaluate against a tuple.
    ///
    /// Column indexes are verified statically by [`crate::analyze`]; in
    /// debug builds an out-of-range index additionally fails here with a
    /// diagnostic naming the predicate (instead of a bare slice panic).
    /// The release path is unchanged.
    pub fn eval(&self, tuple: &[Value]) -> bool {
        match self {
            Pred::ColEqValue(c, v) => {
                debug_assert!(
                    *c < tuple.len(),
                    "predicate column {c} out of range (tuple arity {}); \
                     the plan bypassed the static analyzer",
                    tuple.len()
                );
                &tuple[*c] == v
            }
            Pred::And(a, b) => a.eval(tuple) && b.eval(tuple),
        }
    }
}

/// Join kinds. Inner joins output `left.cols ++ right.cols`; semi and anti
/// joins output the left tuple unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JoinKind {
    /// Matching pairs, concatenated.
    Inner,
    /// Left tuples with at least one match (`⋉`).
    Semi,
    /// Left tuples with no match (used for `¬q` qualifiers, §5.1 case 11).
    Anti,
}

/// Selection pushed *into* the LFP operator (§5.2): restricts the closure to
/// pairs whose source (forward) or target (backward) lies in a seed set
/// computed by another plan.
#[derive(Clone, Debug)]
pub enum PushSpec {
    /// Only closure pairs `(x, y)` with `x ∈ π_col(seeds)`.
    Forward {
        /// Plan producing the seed relation.
        seeds: Box<Plan>,
        /// Column of the seed relation holding the node ids.
        col: usize,
    },
    /// Only closure pairs `(x, y)` with `y ∈ π_col(targets)`.
    Backward {
        /// Plan producing the target relation.
        targets: Box<Plan>,
        /// Column of the target relation holding the node ids.
        col: usize,
    },
}

/// The simple least-fixpoint operator `Φ(R)` (§3.3 Eq. 2): the transitive
/// closure (paths of length ≥ 1) of the edge set produced by `input`.
/// Output schema: `(F, T)`.
#[derive(Clone, Debug)]
pub struct LfpSpec {
    /// Plan producing the edge relation.
    pub input: Box<Plan>,
    /// Column holding edge sources.
    pub from_col: usize,
    /// Column holding edge targets.
    pub to_col: usize,
    /// Optional pushed selection (§5.2).
    pub push: Option<PushSpec>,
}

/// One edge rule of the multi-relation fixpoint (the SQL'99 star-shaped
/// recursion of Fig. 2): joins the current delta tagged `src_tag` with the
/// edge relation and emits tuples tagged `dst_tag`.
#[derive(Clone, Debug)]
pub struct MultiLfpEdge {
    /// `Rid` tag a tuple must carry to feed this rule.
    pub src_tag: String,
    /// `Rid` tag given to produced tuples.
    pub dst_tag: String,
    /// Edge relation plan, with `(F, T)` in columns 0/1.
    pub rel: Plan,
}

/// The interval-encoded descendant join — the instance fast path for
/// `rec(A, B)`. Where the schema-level translation must run `Φ(R)` (it only
/// knows the DTD), a loaded [`crate::Database`] carries pre/post interval
/// labels assigned at shred time, and strict ancestorship reduces to a pure
/// range predicate: `x` is a proper ancestor of `y` iff
/// `start(x) < start(y) < end(x)` (XPath-accelerator encoding).
///
/// Output schema `(F, T)`: pairs `(x, y)` where `x` is drawn from
/// `left_col` of the `left` plan, `y` from the `T` column of the base
/// relation `right`, and `x` is a proper ancestor of `y` in the shredded
/// document. Evaluation is a sort-merge sweep over the database's
/// pre-sorted interval view of `right`, with an index-nested-loop fallback
/// when the ancestor side is small ([`crate::exec`]).
#[derive(Clone, Debug)]
pub struct IntervalJoinSpec {
    /// Plan producing candidate ancestor nodes.
    pub left: Box<Plan>,
    /// Column of `left` holding the ancestor node ids.
    pub left_col: usize,
    /// Base relation whose `T` column (column 1) holds the candidate
    /// descendants — conventionally the shredded `R_B` of the target type.
    pub right: String,
}

/// The multi-relation fixpoint `φ(R, R₁…R_k)` (§3.1 Eq. 1) behind SQL'99
/// `WITH…RECURSIVE`: each iteration runs *k* joins and *k* unions inside the
/// recursion. Tuples are `(S, T, Rid)`: origin node, reached node, and the
/// tag recording which relation the reached node belongs to (Fig. 2's `Rid`).
#[derive(Clone, Debug)]
pub struct MultiLfpSpec {
    /// Initialization parts ("incoming edges" into the SCC): each plan
    /// produces `(S, T)` pairs whose reached nodes carry the given tag.
    pub init: Vec<(String, Plan)>,
    /// One rule per edge of the strongly-connected component.
    pub edges: Vec<MultiLfpEdge>,
}

/// A relational-algebra plan.
#[derive(Clone, Debug)]
pub enum Plan {
    /// Scan a base relation by name.
    Scan(String),
    /// Read a temporary produced by an earlier statement.
    Temp(TempId),
    /// Inline constant relation.
    Values(Relation),
    /// `σ_pred(input)`.
    Select {
        /// Input plan.
        input: Box<Plan>,
        /// Filter predicate.
        pred: Pred,
    },
    /// `π_cols(input)` with column renaming.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// (source column, output name) pairs.
        cols: Vec<(usize, String)>,
    },
    /// Hash equijoin on one column pair.
    Join {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// The equality condition `(left col, right col)`.
        on: (usize, usize),
        /// Inner / semi / anti.
        kind: JoinKind,
    },
    /// Bag union of equal-arity inputs; `distinct` applies set semantics.
    Union {
        /// Inputs.
        inputs: Vec<Plan>,
        /// Deduplicate the result.
        distinct: bool,
    },
    /// Duplicate elimination.
    Distinct(Box<Plan>),
    /// Simple LFP `Φ(R)`.
    Lfp(LfpSpec),
    /// Multi-relation fixpoint `φ(R, R₁…R_k)` (SQLGen-R only).
    MultiLfp(MultiLfpSpec),
    /// Pre/post interval range join (instance fast path for `rec(A, B)`).
    IntervalJoin(IntervalJoinSpec),
}

impl Plan {
    /// `σ_pred(self)`
    pub fn select(self, pred: Pred) -> Plan {
        Plan::Select {
            input: Box::new(self),
            pred,
        }
    }

    /// `π` with names.
    pub fn project(self, cols: Vec<(usize, &str)>) -> Plan {
        Plan::Project {
            input: Box::new(self),
            cols: cols.into_iter().map(|(i, n)| (i, n.to_string())).collect(),
        }
    }

    /// Inner join on a single column pair.
    pub fn join_on(self, right: Plan, left_col: usize, right_col: usize) -> Plan {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(right),
            on: (left_col, right_col),
            kind: JoinKind::Inner,
        }
    }

    /// Semi join on a single column pair.
    pub fn semi_join(self, right: Plan, left_col: usize, right_col: usize) -> Plan {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(right),
            on: (left_col, right_col),
            kind: JoinKind::Semi,
        }
    }

    /// Anti join on a single column pair.
    pub fn anti_join(self, right: Plan, left_col: usize, right_col: usize) -> Plan {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(right),
            on: (left_col, right_col),
            kind: JoinKind::Anti,
        }
    }

    /// Distinct union of two plans.
    pub fn union_with(self, other: Plan) -> Plan {
        Plan::Union {
            inputs: vec![self, other],
            distinct: true,
        }
    }

    /// Walk the plan tree, invoking `f` on every node (pre-order).
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Plan)) {
        f(self);
        match self {
            Plan::Scan(_) | Plan::Temp(_) | Plan::Values(_) => {}
            Plan::Select { input, .. } | Plan::Distinct(input) => input.visit(f),
            Plan::Project { input, .. } => input.visit(f),
            Plan::Join { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            Plan::Union { inputs, .. } => {
                for p in inputs {
                    p.visit(f);
                }
            }
            Plan::Lfp(spec) => {
                spec.input.visit(f);
                match &spec.push {
                    Some(PushSpec::Forward { seeds, .. }) => seeds.visit(f),
                    Some(PushSpec::Backward { targets, .. }) => targets.visit(f),
                    None => {}
                }
            }
            Plan::MultiLfp(spec) => {
                for (_, p) in &spec.init {
                    p.visit(f);
                }
                for e in &spec.edges {
                    e.rel.visit(f);
                }
            }
            Plan::IntervalJoin(spec) => spec.left.visit(f),
        }
    }

    /// Temporaries this plan reads.
    pub fn referenced_temps(&self) -> Vec<TempId> {
        let mut out = Vec::new();
        self.visit(&mut |p| {
            if let Plan::Temp(t) = p {
                out.push(*t);
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pred_eval() {
        let t = vec![Value::Id(1), Value::str("x")];
        assert!(Pred::ColEqValue(0, Value::Id(1)).eval(&t));
        assert!(!Pred::ColEqValue(1, Value::str("y")).eval(&t));
        let both = Pred::And(
            Box::new(Pred::ColEqValue(0, Value::Id(1))),
            Box::new(Pred::ColEqValue(1, Value::str("x"))),
        );
        assert!(both.eval(&t));
        let neither = Pred::And(
            Box::new(Pred::ColEqValue(0, Value::Id(1))),
            Box::new(Pred::ColEqValue(1, Value::str("y"))),
        );
        assert!(!neither.eval(&t));
    }

    #[test]
    fn referenced_temps_collected() {
        let p = Plan::Temp(TempId(1))
            .join_on(Plan::Temp(TempId(2)), 1, 0)
            .select(Pred::ColEqValue(0, Value::Doc));
        let mut temps = p.referenced_temps();
        temps.sort();
        assert_eq!(temps, vec![TempId(1), TempId(2)]);
    }

    #[test]
    fn visit_reaches_lfp_seeds() {
        let p = Plan::Lfp(LfpSpec {
            input: Box::new(Plan::Scan("R".into())),
            from_col: 0,
            to_col: 1,
            push: Some(PushSpec::Forward {
                seeds: Box::new(Plan::Temp(TempId(7))),
                col: 1,
            }),
        });
        assert_eq!(p.referenced_temps(), vec![TempId(7)]);
    }
}
