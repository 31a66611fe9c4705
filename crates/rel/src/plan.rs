//! Relational-algebra plans: the syntax programs are built in.
//!
//! A [`Plan`] is a `Box` tree that the translators (`e2sql`, SQLGen-R) and
//! tests write, with [`Plan::Temp`] naming an earlier statement.
//! [`Program::push`](crate::program::Program::push) lowers it into the
//! program's node arena once; nothing reads a `Plan` after that. The
//! operator specs ([`LfpSpec`], [`PushSpec`], [`MultiLfpSpec`],
//! [`IntervalJoinSpec`]) are generic over their child, so the arena's
//! [`Node`](crate::program::Node) uses the same ones with node ids.

use crate::program::TempId;
use crate::relation::Relation;
use crate::value::Value;
use std::sync::Arc;

/// A predicate over a single tuple. The executor evaluates it compiled
/// against the store's dictionary (`exec.rs`'s `CompiledPred`).
///
/// `Eq`/`Hash` let the optimizer ([`crate::opt`]) hash-cons `Select` nodes
/// structurally.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Pred {
    /// `col = literal` for a non-text literal (`Doc`, `Null` or an `Id`).
    ColEqValue(usize, Value),
    /// `col = 'text'`: true on a cell holding the dictionary code of
    /// `text`, so false everywhere on a store whose dictionary lacks it.
    ColEqText(usize, Arc<str>),
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
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
///
/// Generic over the child: a [`Plan`] holds a boxed plan, a
/// [`Node`](crate::program::Node) a [`NodeId`](crate::program::NodeId).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum PushSpec<C = Box<Plan>> {
    /// Only closure pairs `(x, y)` with `x ∈ π_col(seeds)`.
    Forward {
        /// Plan producing the seed relation.
        seeds: C,
        /// Column of the seed relation holding the node ids.
        col: usize,
    },
    /// Only closure pairs `(x, y)` with `y ∈ π_col(targets)`.
    Backward {
        /// Plan producing the target relation.
        targets: C,
        /// Column of the target relation holding the node ids.
        col: usize,
    },
}

impl<C> PushSpec<C> {
    /// The seed or target input and its node-id column.
    pub fn input(&self) -> (&C, usize) {
        match self {
            PushSpec::Forward { seeds: c, col } | PushSpec::Backward { targets: c, col } => {
                (c, *col)
            }
        }
    }
}

/// The simple least-fixpoint operator `Φ(R)` (§3.3 Eq. 2): the transitive
/// closure (paths of length ≥ 1) of the edge set produced by `input`.
/// Output schema: `(F, T)`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LfpSpec<C = Box<Plan>> {
    /// Plan producing the edge relation.
    pub input: C,
    /// Column holding edge sources.
    pub from_col: usize,
    /// Column holding edge targets.
    pub to_col: usize,
    /// Optional pushed selection (§5.2).
    pub push: Option<PushSpec<C>>,
}

/// One edge rule of the multi-relation fixpoint (the SQL'99 star-shaped
/// recursion of Fig. 2): joins the current delta tagged `src_tag` with the
/// edge relation and emits tuples tagged `dst_tag`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MultiLfpEdge<C = Plan> {
    /// `Rid` tag a tuple must carry to feed this rule.
    pub src_tag: String,
    /// `Rid` tag given to produced tuples.
    pub dst_tag: String,
    /// Edge relation plan, with `(F, T)` in columns 0/1.
    pub rel: C,
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
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct IntervalJoinSpec<C = Box<Plan>> {
    /// Plan producing candidate ancestor nodes.
    pub left: C,
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
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MultiLfpSpec<C = Plan> {
    /// Initialization parts ("incoming edges" into the SCC): each plan
    /// produces `(S, T)` pairs whose reached nodes carry the given tag.
    pub init: Vec<(String, C)>,
    /// One rule per edge of the strongly-connected component.
    pub edges: Vec<MultiLfpEdge<C>>,
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
        self.join(right, (left_col, right_col), JoinKind::Inner)
    }

    /// Semi join on a single column pair.
    pub fn semi_join(self, right: Plan, left_col: usize, right_col: usize) -> Plan {
        self.join(right, (left_col, right_col), JoinKind::Semi)
    }

    /// Anti join on a single column pair.
    pub fn anti_join(self, right: Plan, left_col: usize, right_col: usize) -> Plan {
        self.join(right, (left_col, right_col), JoinKind::Anti)
    }

    fn join(self, right: Plan, on: (usize, usize), kind: JoinKind) -> Plan {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(right),
            on,
            kind,
        }
    }

    /// Distinct union of two plans.
    pub fn union_with(self, other: Plan) -> Plan {
        Plan::Union {
            inputs: vec![self, other],
            distinct: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Node, Program};

    /// A `Temp` a plan references lowers to the root of the statement it
    /// names; it adds no node of its own.
    #[test]
    fn temps_lower_to_their_statement_roots() {
        let mut prog = Program::new();
        let one = prog.push(Plan::Scan("E".into()), "one");
        let two = prog.push(Plan::Scan("F".into()), "two");
        let t = prog.push(
            Plan::Temp(one)
                .join_on(Plan::Temp(two), 1, 0)
                .select(Pred::ColEqValue(0, Value::Doc)),
            "join",
        );
        assert_eq!(prog.nodes().len(), 4, "two scans, the join, the select");
        let (root_one, root_two) = (prog.stmt(one).root, prog.stmt(two).root);
        assert!(matches!(
            prog.node(prog.stmt(t).root),
            Node::Select { input, .. } if matches!(
                prog.node(*input),
                Node::Join { left, right, .. } if (*left, *right) == (root_one, root_two)
            )
        ));
        assert_eq!(
            prog.push(Plan::Temp(two), "bare"),
            two,
            "a bare temp names its statement"
        );
    }

    /// Lowering reaches an LFP's pushed seeds like any other input.
    #[test]
    fn visit_reaches_lfp_seeds() {
        let mut prog = Program::new();
        let seeds = prog.push(Plan::Scan("S".into()), "seeds");
        let t = prog.push(
            Plan::Lfp(LfpSpec {
                input: Box::new(Plan::Scan("R".into())),
                from_col: 0,
                to_col: 1,
                push: Some(PushSpec::Forward {
                    seeds: Box::new(Plan::Temp(seeds)),
                    col: 1,
                }),
            }),
            "Φ",
        );
        let Node::Lfp(spec) = prog.node(prog.stmt(t).root) else {
            panic!("an LFP root");
        };
        assert_eq!(
            spec.push.as_ref().map(|p| p.input()),
            Some((&prog.stmt(seeds).root, 1))
        );
    }
}
