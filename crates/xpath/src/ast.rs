//! AST for the XPath fragment, with constructor helpers and display.

use std::fmt;

/// An XPath path expression `p` (paper §2.2).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Path {
    /// The empty path ε (XPath `.`): stays at the context node.
    Empty,
    /// A label step `A`: children of the context node labelled `A`.
    Label(String),
    /// The wildcard `*`: all children.
    Wildcard,
    /// Concatenation `p₁/p₂`.
    Seq(Box<Path>, Box<Path>),
    /// Descendant-or-self then `p`: `//p`.
    Descendant(Box<Path>),
    /// Union `p₁ ∪ p₂`.
    Union(Box<Path>, Box<Path>),
    /// Qualified path `p[q]`.
    Qualified(Box<Path>, Qual),
    /// The special query ∅ returning the empty set over all trees (§2.2).
    EmptySet,
}

/// A qualifier `q` (paper §2.2).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Qual {
    /// Existential path test `[p]`: some node is reachable via `p`.
    Path(Box<Path>),
    /// Text comparison `[text() = c]`.
    TextEq(String),
    /// Negation `¬q`.
    Not(Box<Qual>),
    /// Conjunction `q ∧ q`.
    And(Box<Qual>, Box<Qual>),
    /// Disjunction `q ∨ q`.
    Or(Box<Qual>, Box<Qual>),
}

impl Path {
    /// `A`
    pub fn label(name: &str) -> Path {
        Path::Label(name.to_string())
    }

    /// `p₁/p₂`
    pub fn then(self, next: Path) -> Path {
        Path::Seq(Box::new(self), Box::new(next))
    }

    /// `p₁//p₂` (i.e. `p₁ / (//p₂)`)
    pub fn then_descendant(self, next: Path) -> Path {
        Path::Seq(Box::new(self), Box::new(Path::Descendant(Box::new(next))))
    }

    /// `//p`
    pub fn descendant(p: Path) -> Path {
        Path::Descendant(Box::new(p))
    }

    /// `p₁ ∪ p₂`
    pub fn union(self, other: Path) -> Path {
        Path::Union(Box::new(self), Box::new(other))
    }

    /// `p[q]`
    pub fn with_qual(self, q: Qual) -> Path {
        Path::Qualified(Box::new(self), q)
    }

    /// Number of AST nodes (|Q| in the complexity bounds).
    pub fn size(&self) -> usize {
        match self {
            Path::Empty | Path::Label(_) | Path::Wildcard | Path::EmptySet => 1,
            Path::Seq(a, b) | Path::Union(a, b) => 1 + a.size() + b.size(),
            Path::Descendant(p) => 1 + p.size(),
            Path::Qualified(p, q) => 1 + p.size() + q.size(),
        }
    }
}

impl Qual {
    /// `[p]`
    pub fn path(p: Path) -> Qual {
        Qual::Path(Box::new(p))
    }

    /// `¬q` (an associated constructor, not `std::ops::Not`)
    #[allow(clippy::should_implement_trait)]
    pub fn not(q: Qual) -> Qual {
        Qual::Not(Box::new(q))
    }

    /// `q₁ ∧ q₂`
    pub fn and(self, other: Qual) -> Qual {
        Qual::And(Box::new(self), Box::new(other))
    }

    /// `q₁ ∨ q₂`
    pub fn or(self, other: Qual) -> Qual {
        Qual::Or(Box::new(self), Box::new(other))
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            Qual::Path(p) => p.size(),
            Qual::TextEq(_) => 1,
            Qual::Not(q) => 1 + q.size(),
            Qual::And(a, b) | Qual::Or(a, b) => 1 + a.size() + b.size(),
        }
    }
}

/// Whether a path *renders* with a leading slash (a `Descendant` at its
/// left edge). Such operands must be parenthesized after `/` or `//`, or
/// the rendering would contain `///`, which does not re-parse.
fn renders_with_leading_slash(p: &Path) -> bool {
    match p {
        Path::Descendant(_) => true,
        Path::Seq(a, _) => renders_with_leading_slash(a),
        // Qualified parenthesizes Seq/Descendant bases itself, so its
        // rendering never starts with a slash
        _ => false,
    }
}

/// Write a path after a `/` or `//` axis, parenthesizing when its own
/// rendering would start with a slash.
fn write_operand(f: &mut fmt::Formatter<'_>, p: &Path) -> fmt::Result {
    if renders_with_leading_slash(p) {
        write!(f, "({p})")
    } else {
        write!(f, "{p}")
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Path::Empty => write!(f, "."),
            Path::Label(a) => write!(f, "{a}"),
            Path::Wildcard => write!(f, "*"),
            Path::Seq(a, b) => match &**b {
                Path::Descendant(inner) => {
                    write!(f, "{a}//")?;
                    write_operand(f, inner)
                }
                _ => {
                    write!(f, "{a}/")?;
                    write_operand(f, b)
                }
            },
            Path::Descendant(p) => {
                write!(f, "//")?;
                write_operand(f, p)
            }
            Path::Union(a, b) => write!(f, "({a} | {b})"),
            // the parser attaches `[q]` to the innermost step, so a
            // qualifier over a composite path must parenthesize its base to
            // reparse as the same shape: `(a/b)[q]`, not `a/b[q]`
            Path::Qualified(p, q) => match &**p {
                Path::Seq(..) | Path::Descendant(_) => write!(f, "({p})[{q}]"),
                _ => write!(f, "{p}[{q}]"),
            },
            Path::EmptySet => write!(f, "∅"),
        }
    }
}

impl fmt::Display for Qual {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Qual::Path(p) => write!(f, "{p}"),
            // the lexer takes either quote and has no escape, so a parsed
            // literal never holds both: print it in the one it does not hold
            Qual::TextEq(c) if c.contains('"') => write!(f, "text()='{c}'"),
            Qual::TextEq(c) => write!(f, "text()=\"{c}\""),
            Qual::Not(q) => write!(f, "not({q})"),
            Qual::And(a, b) => write!(f, "({a} and {b})"),
            Qual::Or(a, b) => write!(f, "({a} or {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let q1 = Path::label("dept").then_descendant(Path::label("project"));
        assert_eq!(q1.to_string(), "dept//project");
        assert_eq!(q1.size(), 4);
    }

    #[test]
    fn display_union_and_qualifier() {
        let p = Path::label("a")
            .with_qual(Qual::not(Qual::path(Path::descendant(Path::label("c")))))
            .union(Path::label("b"));
        assert_eq!(p.to_string(), "(a[not(//c)] | b)");
    }

    #[test]
    fn sizes() {
        assert_eq!(Path::Empty.size(), 1);
        let q = Qual::path(Path::label("x")).and(Qual::TextEq("c".into()));
        assert_eq!(q.size(), 3);
    }
}
