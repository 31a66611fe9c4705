//! A minimal XML parser for documents over a known DTD.
//!
//! Supports elements, text content, self-closing tags, comments, XML
//! declarations and the `&lt; &gt; &amp; &quot; &apos;` entities. Attributes
//! are rejected (the paper's data model has none, §2.1). Element names are
//! interned against the DTD — unknown names are an error, mirroring validity.

use crate::tree::Tree;
use std::fmt;
use x2s_dtd::Dtd;

/// Deepest element nesting the parser accepts (the root is at depth 1):
/// it recurses once per element, so a deeper document is an error, not a
/// stack overflow. At about 2.2 KiB of stack per level in a debug build, a
/// 2 MiB thread holds some 900; generated documents stay below `X_L + 16`.
pub const MAX_DEPTH: usize = 512;

/// XML parsing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// Syntax problem at a byte offset.
    Syntax {
        /// Byte offset of the error.
        offset: usize,
        /// Human-readable message.
        message: String,
    },
    /// A tag name not declared by the DTD.
    UnknownElement {
        /// Byte offset of the tag.
        offset: usize,
        /// The undeclared name.
        name: String,
    },
    /// Close tag does not match the open tag.
    Mismatched {
        /// Byte offset of the close tag.
        offset: usize,
        /// The open tag's name.
        open: String,
        /// The close tag's name.
        close: String,
    },
    /// An element nested deeper than [`MAX_DEPTH`].
    TooDeep {
        /// Byte offset of the first element past the bound.
        offset: usize,
    },
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::Syntax { offset, message } => {
                write!(f, "XML syntax error at byte {offset}: {message}")
            }
            XmlError::UnknownElement { offset, name } => {
                write!(f, "unknown element <{name}> at byte {offset}")
            }
            XmlError::Mismatched {
                offset,
                open,
                close,
            } => {
                write!(f, "mismatched </{close}> for <{open}> at byte {offset}")
            }
            XmlError::TooDeep { offset } => {
                write!(
                    f,
                    "elements nest deeper than {MAX_DEPTH} levels at byte {offset}"
                )
            }
        }
    }
}

impl std::error::Error for XmlError {}

/// Parse an XML document into a [`Tree`] over `dtd`'s element types.
pub fn parse_xml(dtd: &Dtd, input: &str) -> Result<Tree, XmlError> {
    let mut p = P {
        b: input.as_bytes(),
        pos: 0,
    };
    p.skip_prolog();
    let (name, self_closing) = p.open_tag()?;
    let root_label = dtd.elem(&name).ok_or_else(|| XmlError::UnknownElement {
        offset: p.pos,
        name: name.clone(),
    })?;
    let mut tree = Tree::with_root(root_label);
    let root = tree.root();
    if !self_closing {
        p.content(dtd, &mut tree, root, &name, 1)?;
    }
    p.skip_misc();
    if !p.at_end() {
        return Err(p.err("trailing content after the root element"));
    }
    Ok(tree)
}

struct P<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> P<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.b.len()
    }

    fn err(&self, m: &str) -> XmlError {
        XmlError::Syntax {
            offset: self.pos,
            message: m.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_prolog(&mut self) {
        self.skip_misc();
        if self.b[self.pos..].starts_with(b"<?") {
            while self.pos < self.b.len() && !self.b[self.pos..].starts_with(b"?>") {
                self.pos += 1;
            }
            self.pos = (self.pos + 2).min(self.b.len());
        }
        self.skip_misc();
        // optional DOCTYPE
        if self.b[self.pos..].starts_with(b"<!DOCTYPE") {
            let mut depth = 0usize;
            while self.pos < self.b.len() {
                match self.b[self.pos] {
                    b'[' => depth += 1,
                    b']' => depth = depth.saturating_sub(1),
                    b'>' if depth == 0 => {
                        self.pos += 1;
                        break;
                    }
                    _ => {}
                }
                self.pos += 1;
            }
        }
        self.skip_misc();
    }

    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.b[self.pos..].starts_with(b"<!--") {
                if let Some(i) = find(self.b, self.pos + 4, b"-->") {
                    self.pos = i + 3;
                    continue;
                }
                self.pos = self.b.len();
            }
            break;
        }
    }

    fn name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(&c) = self.b.get(self.pos) {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a tag name"));
        }
        Ok(String::from_utf8_lossy(&self.b[start..self.pos]).into_owned())
    }

    /// Parse `<name>` or `<name/>`; returns (name, self_closing).
    fn open_tag(&mut self) -> Result<(String, bool), XmlError> {
        if self.b.get(self.pos) != Some(&b'<') {
            return Err(self.err("expected `<`"));
        }
        self.pos += 1;
        let name = self.name()?;
        self.skip_ws();
        match self.b.get(self.pos) {
            Some(b'/') if self.b.get(self.pos + 1) == Some(&b'>') => {
                self.pos += 2;
                Ok((name, true))
            }
            Some(b'>') => {
                self.pos += 1;
                Ok((name, false))
            }
            _ => Err(self.err("attributes are not supported; expected `>` or `/>`")),
        }
    }

    fn content(
        &mut self,
        dtd: &Dtd,
        tree: &mut Tree,
        node: crate::tree::NodeId,
        open_name: &str,
        depth: usize,
    ) -> Result<(), XmlError> {
        let mut text = String::new();
        loop {
            if self.at_end() {
                return Err(self.err("unexpected end of input inside an element"));
            }
            if self.b[self.pos..].starts_with(b"<!--") {
                self.skip_misc();
                continue;
            }
            if self.b[self.pos..].starts_with(b"</") {
                self.pos += 2;
                let close = self.name()?;
                self.skip_ws();
                if self.b.get(self.pos) != Some(&b'>') {
                    return Err(self.err("expected `>` after close tag"));
                }
                self.pos += 1;
                if close != open_name {
                    return Err(XmlError::Mismatched {
                        offset: self.pos,
                        open: open_name.to_string(),
                        close,
                    });
                }
                let trimmed = text.trim();
                if !trimmed.is_empty() {
                    tree.set_value(node, Some(trimmed));
                }
                return Ok(());
            }
            if self.b[self.pos] == b'<' {
                let tag_offset = self.pos;
                if depth == MAX_DEPTH {
                    return Err(XmlError::TooDeep { offset: tag_offset });
                }
                let (name, self_closing) = self.open_tag()?;
                let label = dtd.elem(&name).ok_or(XmlError::UnknownElement {
                    offset: tag_offset,
                    name: name.clone(),
                })?;
                let child = tree.add_child(node, label);
                if !self_closing {
                    self.content(dtd, tree, child, &name, depth + 1)?;
                }
            } else {
                let start = self.pos;
                while self.pos < self.b.len() && self.b[self.pos] != b'<' {
                    self.pos += 1;
                }
                text.push_str(&unescape(&String::from_utf8_lossy(
                    &self.b[start..self.pos],
                )));
            }
        }
    }
}

fn find(haystack: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    if needle.len() > haystack.len() {
        return None;
    }
    (from..=haystack.len() - needle.len()).find(|&i| haystack[i..].starts_with(needle))
}

/// Decode the five predefined XML entities.
pub fn unescape(s: &str) -> String {
    if !s.contains('&') {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find('&') {
        out.push_str(&rest[..i]);
        rest = &rest[i..];
        let replaced = [
            ("&lt;", '<'),
            ("&gt;", '>'),
            ("&amp;", '&'),
            ("&quot;", '"'),
            ("&apos;", '\''),
        ]
        .iter()
        .find(|(e, _)| rest.starts_with(e));
        match replaced {
            Some((e, c)) => {
                out.push(*c);
                rest = &rest[e.len()..];
            }
            None => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2s_dtd::samples;

    #[test]
    fn parses_nested_document() {
        let d = samples::dept_simplified();
        let t = parse_xml(
            &d,
            "<dept><course><course/><student/></course><course/></dept>",
        )
        .unwrap();
        assert_eq!(t.len(), 5);
        assert_eq!(t.children(t.root()).len(), 2);
        let first = t.children(t.root())[0];
        assert_eq!(t.children(first).len(), 2);
    }

    #[test]
    fn parses_text_values() {
        let d = samples::dept();
        let t = parse_xml(
            &d,
            "<dept><course><cno>cs66</cno><title>db</title><prereq/><takenBy/></course></dept>",
        )
        .unwrap();
        let course = t.children(t.root())[0];
        let cno = t.children(course)[0];
        assert_eq!(t.value(cno), Some("cs66"));
    }

    #[test]
    fn prolog_comments_doctype() {
        let d = samples::dept_simplified();
        let t = parse_xml(
            &d,
            "<?xml version=\"1.0\"?><!-- c --><!DOCTYPE dept [<!ELEMENT dept (course*)>]><dept><!-- x --><course/></dept>",
        )
        .unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn entities_unescaped() {
        let d = samples::dept();
        let t = parse_xml(
            &d,
            "<dept><course><cno>a &amp; b &lt;3</cno><title/><prereq/><takenBy/></course></dept>",
        )
        .unwrap();
        let course = t.children(t.root())[0];
        let cno = t.children(course)[0];
        assert_eq!(t.value(cno), Some("a & b <3"));
    }

    #[test]
    fn unknown_element_rejected() {
        let d = samples::dept_simplified();
        let err = parse_xml(&d, "<dept><zzz/></dept>").unwrap_err();
        assert!(matches!(err, XmlError::UnknownElement { .. }));
    }

    #[test]
    fn mismatched_tags_rejected() {
        let d = samples::dept_simplified();
        let err = parse_xml(&d, "<dept><course></dept></course>").unwrap_err();
        assert!(matches!(err, XmlError::Mismatched { .. }));
    }

    #[test]
    fn attributes_rejected() {
        let d = samples::dept_simplified();
        assert!(parse_xml(&d, "<dept id=\"1\"/>").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let d = samples::dept_simplified();
        assert!(parse_xml(&d, "<dept/><dept/>").is_err());
    }
}
