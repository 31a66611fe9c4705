//! Relational values.

use std::fmt;

/// A single column value: an 8-byte `Copy` cell.
///
/// Shredded XML uses [`Value::Id`] for node ids and [`Value::Doc`] for the
/// paper's `'_'` marker (the parent of the root element, §2.3). Text is
/// never a cell: a store's text values — and the element names the
/// SQLGen-R fixpoint tags its tuples with — are dictionary-coded
/// ([`Value::Code`], see [`crate::dict`]), so every row, join key and
/// fixpoint entry is plain integers. Text lives only in the store's
/// [`crate::dict::Dictionary`] and in plan literals
/// ([`crate::Pred::ColEqText`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Value {
    /// SQL NULL (the paper's `'_'` for "no text value").
    Null,
    /// The virtual document id `'_'` (parent of the root element).
    Doc,
    /// An element node id.
    Id(u32),
    /// A dictionary code standing for a string of the owning database's
    /// [`crate::dict::Dictionary`]. Codes are load-scoped: only meaningful
    /// against the store they were loaded into; read the text with
    /// [`crate::Database::text`] before showing it to a human.
    Code(u32),
}

const _: () = assert!(std::mem::size_of::<Value>() == 8);

impl Value {
    /// The node id if this is an [`Value::Id`].
    pub fn as_id(&self) -> Option<u32> {
        match self {
            Value::Id(n) => Some(*n),
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
            Value::Code(c) => format!("'@{c}'"),
        }
    }
}

/// Render `text` as a quoted SQL string literal.
pub(crate) fn sql_text_literal(text: &str) -> String {
    format!("'{}'", text.replace('\'', "''"))
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "-"),
            Value::Doc => write!(f, "_"),
            Value::Id(n) => write!(f, "#{n}"),
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
        assert_eq!(Value::Code(4), Value::Code(4));
        assert!(Value::Id(1) < Value::Id(2));
    }

    #[test]
    fn sql_literals() {
        assert_eq!(Value::Null.to_sql_literal(), "NULL");
        assert_eq!(Value::Doc.to_sql_literal(), "'_'");
        assert_eq!(Value::Id(7).to_sql_literal(), "7");
        assert_eq!(sql_text_literal("o'brien"), "'o''brien'");
    }

    #[test]
    fn display() {
        assert_eq!(Value::Doc.to_string(), "_");
        assert_eq!(Value::Id(12).to_string(), "#12");
    }
}
