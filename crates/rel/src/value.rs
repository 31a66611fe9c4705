//! Relational values.

use std::fmt;
use std::sync::Arc;

/// A single column value.
///
/// Shredded XML uses [`Value::Id`] for node ids and [`Value::Doc`] for the
/// paper's `'_'` marker (the parent of the root element, §2.3). Text values
/// in a *loaded* store are dictionary-coded ([`Value::Code`], see
/// [`crate::dict`]): the shredder interns each distinct string once and the
/// hot path compares/hashes a plain `u32`. [`Value::Str`] remains for
/// runtime-produced strings (fixpoint tags, hand-built test relations);
/// strings are reference-counted so tuples clone cheaply during joins.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Value {
    /// SQL NULL (the paper's `'_'` for "no text value").
    Null,
    /// The virtual document id `'_'` (parent of the root element).
    Doc,
    /// An element node id.
    Id(u32),
    /// A string (text values, tags).
    Str(Arc<str>),
    /// A dictionary code standing for a string of the owning database's
    /// [`crate::dict::Dictionary`]. Codes are load-scoped: only meaningful
    /// against the store they were loaded into; decode with
    /// [`crate::Database::decode_value`] before showing to a human.
    Code(u32),
}

impl Value {
    /// Convenience string constructor.
    pub fn str(s: &str) -> Value {
        Value::Str(Arc::from(s))
    }

    /// The node id if this is an [`Value::Id`].
    pub fn as_id(&self) -> Option<u32> {
        match self {
            Value::Id(n) => Some(*n),
            _ => None,
        }
    }

    /// The string if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The dictionary code if this is a [`Value::Code`].
    pub fn as_code(&self) -> Option<u32> {
        match self {
            Value::Code(c) => Some(*c),
            _ => None,
        }
    }

    /// Render as a SQL literal. [`Value::Code`] renders as the opaque
    /// placeholder `'@n'` — inline `VALUES` relations are built at
    /// translation time and never contain codes, so this only shows up when
    /// deliberately rendering a loaded store without decoding it first.
    pub fn to_sql_literal(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Doc => "'_'".to_string(),
            Value::Id(n) => n.to_string(),
            Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
            Value::Code(c) => format!("'@{c}'"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "-"),
            Value::Doc => write!(f, "_"),
            Value::Id(n) => write!(f, "#{n}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Code(c) => write!(f, "@{c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_equality() {
        assert_eq!(Value::Id(3), Value::Id(3));
        assert_ne!(Value::Id(3), Value::Code(3));
        assert_eq!(Value::str("x"), Value::str("x"));
        assert!(Value::Id(1) < Value::Id(2));
    }

    #[test]
    fn sql_literals() {
        assert_eq!(Value::Null.to_sql_literal(), "NULL");
        assert_eq!(Value::Doc.to_sql_literal(), "'_'");
        assert_eq!(Value::Id(7).to_sql_literal(), "7");
        assert_eq!(Value::str("o'brien").to_sql_literal(), "'o''brien'");
    }

    #[test]
    fn display() {
        assert_eq!(Value::Doc.to_string(), "_");
        assert_eq!(Value::Id(12).to_string(), "#12");
    }
}
