//! DTD conformance checking ("an xml tree of the dtd", paper §2.1).
//!
//! Each node's child-label sequence must be a word of its type's content
//! model (text values are orthogonal: `#PCDATA` occurrences only *license*
//! a value, our trees store values out of band). Matching uses Brzozowski
//! derivatives with eager `∅`/ε simplification, which stays small for the
//! paper's content models.

use crate::tree::{NodeId, Tree};
use std::fmt;
use x2s_dtd::{ContentModel, Dtd, ElemId};

/// A validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The root element's type differs from the DTD root.
    WrongRoot {
        /// expected root type name
        expected: String,
        /// found root type name
        found: String,
    },
    /// A node's children do not match its content model.
    ContentMismatch {
        /// the offending node
        node: NodeId,
        /// its type name
        elem: String,
        /// rendered child sequence
        children: String,
    },
    /// A node carries text but its content model has no `#PCDATA`.
    UnexpectedText {
        /// the offending node
        node: NodeId,
        /// its type name
        elem: String,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::WrongRoot { expected, found } => {
                write!(f, "root element is <{found}>, DTD expects <{expected}>")
            }
            ValidationError::ContentMismatch {
                node,
                elem,
                children,
            } => write!(
                f,
                "children of node {node:?} (<{elem}>) do not match its content model: [{children}]"
            ),
            ValidationError::UnexpectedText { node, elem } => {
                write!(
                    f,
                    "node {node:?} (<{elem}>) has text but no #PCDATA in its model"
                )
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validate that `tree` conforms to `dtd`.
pub fn validate(tree: &Tree, dtd: &Dtd) -> Result<(), ValidationError> {
    if tree.label(tree.root()) != dtd.root() {
        return Err(ValidationError::WrongRoot {
            expected: dtd.name(dtd.root()).to_string(),
            found: dtd.name(tree.label(tree.root())).to_string(),
        });
    }
    for n in tree.node_ids() {
        let label = tree.label(n);
        let model = dtd.content(label);
        if tree.value(n).is_some() && !model.allows_text() {
            return Err(ValidationError::UnexpectedText {
                node: n,
                elem: dtd.name(label).to_string(),
            });
        }
        let seq: Vec<ElemId> = tree.children(n).iter().map(|&c| tree.label(c)).collect();
        if !matches_model(model, &seq) {
            return Err(ValidationError::ContentMismatch {
                node: n,
                elem: dtd.name(label).to_string(),
                children: seq
                    .iter()
                    .map(|&c| dtd.name(c))
                    .collect::<Vec<_>>()
                    .join(", "),
            });
        }
    }
    Ok(())
}

/// Whether a label sequence is a word of the content model.
pub fn matches_model(model: &ContentModel, seq: &[ElemId]) -> bool {
    let mut current = Some(model.clone());
    for &x in seq {
        current = match current {
            Some(m) => deriv(&m, x),
            None => return false,
        };
    }
    current.as_ref().is_some_and(nullable)
}

/// Whether ε is a word of the model.
fn nullable(m: &ContentModel) -> bool {
    match m {
        ContentModel::Empty | ContentModel::Text => true,
        ContentModel::Elem(_) => false,
        ContentModel::Plus(inner) => nullable(inner),
        ContentModel::Seq(ps) => ps.iter().all(nullable),
        ContentModel::Choice(ps) => ps.iter().any(nullable),
        ContentModel::Star(_) | ContentModel::Opt(_) => true,
    }
}

/// Brzozowski derivative; `None` encodes the empty language ∅.
fn deriv(m: &ContentModel, x: ElemId) -> Option<ContentModel> {
    match m {
        ContentModel::Empty | ContentModel::Text => None,
        ContentModel::Elem(b) => (*b == x).then_some(ContentModel::Empty),
        ContentModel::Seq(ps) => {
            let mut branches: Vec<ContentModel> = Vec::new();
            for (i, p) in ps.iter().enumerate() {
                if let Some(dp) = deriv(p, x) {
                    let mut rest = vec![dp];
                    rest.extend(ps[i + 1..].iter().cloned());
                    branches.push(simplify_seq(rest));
                }
                if !nullable(p) {
                    break;
                }
            }
            choice_of(branches)
        }
        ContentModel::Choice(ps) => {
            let branches: Vec<ContentModel> = ps.iter().filter_map(|p| deriv(p, x)).collect();
            choice_of(branches)
        }
        ContentModel::Star(p) | ContentModel::Plus(p) => {
            deriv(p, x).map(|dp| simplify_seq(vec![dp, ContentModel::Star(p.clone())]))
        }
        ContentModel::Opt(p) => deriv(p, x),
    }
}

fn simplify_seq(mut parts: Vec<ContentModel>) -> ContentModel {
    parts.retain(|p| !matches!(p, ContentModel::Empty | ContentModel::Text));
    if parts.len() == 1 {
        if let Some(only) = parts.pop() {
            return only;
        }
    }
    match parts.len() {
        0 => ContentModel::Empty,
        _ => ContentModel::Seq(parts),
    }
}

fn choice_of(mut branches: Vec<ContentModel>) -> Option<ContentModel> {
    match branches.len() {
        0 => None,
        1 => branches.pop(),
        _ => Some(ContentModel::Choice(branches)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_xml;
    use x2s_dtd::{samples, DtdBuilder, ModelSpec};

    #[test]
    fn conforming_document_validates() {
        let d = samples::dept();
        let t = parse_xml(
            &d,
            "<dept><course><cno>c1</cno><title>t</title><prereq/><takenBy><student><sno/><name/><qualified/></student></takenBy><project><pno/><ptitle/><required/></project></course></dept>",
        )
        .unwrap();
        validate(&t, &d).unwrap();
    }

    #[test]
    fn missing_required_child_fails() {
        let d = samples::dept();
        // course without its required cno/title/prereq/takenBy
        let t = parse_xml(&d, "<dept><course/></dept>").unwrap();
        let err = validate(&t, &d).unwrap_err();
        assert!(matches!(err, ValidationError::ContentMismatch { .. }));
    }

    #[test]
    fn wrong_order_fails() {
        let d = samples::dept();
        let t = parse_xml(
            &d,
            "<dept><course><title/><cno/><prereq/><takenBy/></course></dept>",
        )
        .unwrap();
        assert!(validate(&t, &d).is_err());
    }

    #[test]
    fn wrong_root_fails() {
        let d = samples::dept();
        let mut t = crate::tree::Tree::with_root(d.elem("course").unwrap());
        t.set_value(t.root(), None);
        let err = validate(&t, &d).unwrap_err();
        assert!(matches!(err, ValidationError::WrongRoot { .. }));
    }

    #[test]
    fn unexpected_text_fails() {
        let d = DtdBuilder::new("a")
            .elem("a", ModelSpec::star_of("b"))
            .elem("b", ModelSpec::Empty)
            .build()
            .unwrap();
        let mut t = crate::tree::Tree::with_root(d.elem("a").unwrap());
        t.set_value(t.root(), Some("oops"));
        assert!(matches!(
            validate(&t, &d),
            Err(ValidationError::UnexpectedText { .. })
        ));
    }

    #[test]
    fn star_allows_any_repetition() {
        let d = samples::dept_simplified();
        for doc in [
            "<dept/>",
            "<dept><course/></dept>",
            "<dept><course/><course/><course/></dept>",
        ] {
            let t = parse_xml(&d, doc).unwrap();
            validate(&t, &d).unwrap();
        }
    }

    #[test]
    fn choice_model_matching() {
        let d = DtdBuilder::new("a")
            .elem(
                "a",
                ModelSpec::Star(Box::new(ModelSpec::Choice(vec![
                    ModelSpec::elem("b"),
                    ModelSpec::elem("c"),
                ]))),
            )
            .elem("b", ModelSpec::Empty)
            .elem("c", ModelSpec::Empty)
            .build()
            .unwrap();
        for doc in ["<a/>", "<a><b/><c/><b/></a>", "<a><c/><c/></a>"] {
            let t = parse_xml(&d, doc).unwrap();
            validate(&t, &d).unwrap();
        }
    }

    #[test]
    fn plus_requires_one() {
        let d = DtdBuilder::new("a")
            .elem("a", ModelSpec::Plus(Box::new(ModelSpec::elem("b"))))
            .elem("b", ModelSpec::Empty)
            .build()
            .unwrap();
        assert!(validate(&parse_xml(&d, "<a/>").unwrap(), &d).is_err());
        validate(&parse_xml(&d, "<a><b/></a>").unwrap(), &d).unwrap();
        validate(&parse_xml(&d, "<a><b/><b/></a>").unwrap(), &d).unwrap();
    }

    /// A content model at the DTD parser's nesting bound, two levels per
    /// group (`(b, (b, …)?)?`), parses, builds and validates a conforming
    /// document on a 2 MiB thread: `deriv`/`nullable` recurse over the
    /// same depth the parser bounds.
    #[test]
    fn model_at_the_parser_bound_validates_on_a_small_stack() {
        use x2s_dtd::parser::MAX_DEPTH;
        let run = || {
            let mut model = String::from("b");
            for _ in 0..MAX_DEPTH {
                model = format!("(b, {model})?");
            }
            let d =
                x2s_dtd::parse_dtd(&format!("<!ELEMENT a {model}> <!ELEMENT b EMPTY>")).unwrap();
            let t = parse_xml(&d, &format!("<a>{}</a>", "<b/>".repeat(MAX_DEPTH + 1))).unwrap();
            validate(&t, &d).unwrap();
        };
        let worker = std::thread::Builder::new().stack_size(2 << 20);
        worker.spawn(run).unwrap().join().unwrap();
    }

    #[test]
    fn matches_model_direct() {
        use x2s_dtd::model::cm;
        let b = ElemId(1);
        let c = ElemId(2);
        // (b | c)* then b
        let model = cm::seq(vec![
            cm::star(cm::choice(vec![
                ContentModel::Elem(b),
                ContentModel::Elem(c),
            ])),
            ContentModel::Elem(b),
        ]);
        assert!(matches_model(&model, &[b]));
        assert!(matches_model(&model, &[c, b]));
        assert!(matches_model(&model, &[b, c, b]));
        assert!(!matches_model(&model, &[]));
        assert!(!matches_model(&model, &[c]));
    }
}
