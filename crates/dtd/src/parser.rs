//! A parser for DTD text syntax: a sequence of `<!ELEMENT name (model)>`
//! declarations. The first declaration names the root type (the convention
//! used by the paper's example DTD files such as BIOML and GedML).
//!
//! Supported content syntax: `EMPTY`, `ANY` (treated as text), `#PCDATA`,
//! element names, `,` sequences, `|` choices, and the `*`/`+`/`?` postfix
//! operators. Attributes (`<!ATTLIST …>`) and comments are skipped — the
//! paper does not consider attributes (§2.1).

use crate::model::{Dtd, DtdBuilder, DtdError, ModelSpec};

/// Deepest group nesting a content model may have (`((a))` nests 2): the
/// parser recurses once per group, and building and validating recurse once
/// per level of the model it yields, so a deeper model is an error, not a
/// stack overflow. Real DTDs nest a handful of groups.
pub const MAX_DEPTH: usize = 256;

/// Parse DTD text into a [`Dtd`]. The first `<!ELEMENT>` is the root.
pub fn parse_dtd(input: &str) -> Result<Dtd, DtdError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let mut decls: Vec<(String, ModelSpec)> = Vec::new();
    loop {
        p.skip_trivia();
        if p.at_end() {
            break;
        }
        if p.eat_str("<!ELEMENT") {
            p.skip_ws();
            let name = p.name()?;
            p.skip_ws();
            let model = p.model_top()?;
            p.skip_ws();
            p.expect(b'>')?;
            decls.push((name, model));
        } else if p.eat_str("<!ATTLIST") || p.eat_str("<!ENTITY") || p.eat_str("<!NOTATION") {
            p.skip_until(b'>')?;
        } else {
            return Err(p.err("expected a `<!ELEMENT …>` declaration"));
        }
    }
    if decls.is_empty() {
        return Err(DtdError::Syntax {
            offset: 0,
            message: "empty DTD: no element declarations".into(),
        });
    }
    let root = decls[0].0.clone();
    let mut b = DtdBuilder::new(&root);
    for (name, model) in decls {
        b = b.elem(&name, model);
    }
    b.build()
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Groups open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn err(&self, message: &str) -> DtdError {
        DtdError::Syntax {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skip whitespace and `<!-- … -->` comments.
    fn skip_trivia(&mut self) {
        loop {
            self.skip_ws();
            if self.bytes[self.pos..].starts_with(b"<!--") {
                if let Some(end) = find(self.bytes, self.pos + 4, b"-->") {
                    self.pos = end + 3;
                    continue;
                }
                self.pos = self.bytes.len();
            }
            break;
        }
    }

    fn eat_str(&mut self, s: &str) -> bool {
        if self.bytes[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), DtdError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn skip_until(&mut self, c: u8) -> Result<(), DtdError> {
        while let Some(b) = self.peek() {
            self.pos += 1;
            if b == c {
                return Ok(());
            }
        }
        Err(self.err(&format!(
            "unterminated declaration, expected `{}`",
            c as char
        )))
    }

    fn name(&mut self) -> Result<String, DtdError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.' || b == b':' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned())
    }

    /// `EMPTY`, `ANY`, or a parenthesised model (with postfix operator).
    fn model_top(&mut self) -> Result<ModelSpec, DtdError> {
        if self.eat_str("EMPTY") {
            return Ok(ModelSpec::Empty);
        }
        if self.eat_str("ANY") {
            return Ok(ModelSpec::Text);
        }
        let inner = self.atom()?;
        Ok(inner)
    }

    /// choice := seq ('|' seq)*
    fn choice(&mut self) -> Result<ModelSpec, DtdError> {
        let mut parts = vec![self.seq()?];
        loop {
            self.skip_ws();
            if self.peek() == Some(b'|') {
                self.pos += 1;
                parts.push(self.seq()?);
            } else {
                break;
            }
        }
        if parts.len() == 1 {
            if let Some(only) = parts.pop() {
                return Ok(only);
            }
        }
        Ok(ModelSpec::Choice(parts))
    }

    /// seq := atom (',' atom)*
    fn seq(&mut self) -> Result<ModelSpec, DtdError> {
        let mut parts = vec![self.atom()?];
        loop {
            self.skip_ws();
            if self.peek() == Some(b',') {
                self.pos += 1;
                parts.push(self.atom()?);
            } else {
                break;
            }
        }
        if parts.len() == 1 {
            if let Some(only) = parts.pop() {
                return Ok(only);
            }
        }
        Ok(ModelSpec::Seq(parts))
    }

    /// atom := ('(' choice ')' | '#PCDATA' | name) ('*' | '+' | '?')?
    fn atom(&mut self) -> Result<ModelSpec, DtdError> {
        self.skip_ws();
        let base = if self.peek() == Some(b'(') {
            if self.depth == MAX_DEPTH {
                return Err(DtdError::TooDeep { offset: self.pos });
            }
            self.pos += 1;
            self.depth += 1;
            let inner = self.choice()?;
            self.skip_ws();
            self.expect(b')')?;
            self.depth -= 1;
            inner
        } else if self.eat_str("#PCDATA") {
            ModelSpec::Text
        } else {
            ModelSpec::Elem(self.name()?)
        };
        Ok(match self.peek() {
            Some(b'*') => {
                self.pos += 1;
                ModelSpec::Star(Box::new(base))
            }
            Some(b'+') => {
                self.pos += 1;
                ModelSpec::Plus(Box::new(base))
            }
            Some(b'?') => {
                self.pos += 1;
                ModelSpec::Opt(Box::new(base))
            }
            _ => base,
        })
    }
}

fn find(haystack: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    (from..haystack.len().saturating_sub(needle.len() - 1))
        .find(|&i| haystack[i..].starts_with(needle))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DtdGraph;

    #[test]
    fn parses_dept_running_example() {
        let d = parse_dtd(
            r#"
            <!ELEMENT dept (course*)>
            <!ELEMENT course (cno, title, prereq, takenBy, project*)>
            <!ELEMENT prereq (course*)>
            <!ELEMENT takenBy (student*)>
            <!ELEMENT student (sno, name, qualified)>
            <!ELEMENT qualified (course*)>
            <!ELEMENT project (pno, ptitle, required)>
            <!ELEMENT required (course*)>
            <!ELEMENT cno (#PCDATA)>
            <!ELEMENT title (#PCDATA)>
            <!ELEMENT sno (#PCDATA)>
            <!ELEMENT name (#PCDATA)>
            <!ELEMENT pno (#PCDATA)>
            <!ELEMENT ptitle (#PCDATA)>
            "#,
        )
        .unwrap();
        assert_eq!(d.len(), 14);
        assert_eq!(d.name(d.root()), "dept");
        assert!(d.is_recursive());
        let g = DtdGraph::of(&d);
        let course = d.elem("course").unwrap();
        let prereq = d.elem("prereq").unwrap();
        assert!(g.has_edge(course, prereq));
        assert!(g.has_edge(prereq, course));
        // prereq→course is starred, course→prereq is not
        let starred = g
            .children(prereq)
            .iter()
            .find(|(c, _)| *c == course)
            .unwrap()
            .1;
        assert!(starred);
    }

    #[test]
    fn choices_and_operators() {
        let d = parse_dtd(
            "<!ELEMENT a ((b | c)+, d?)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY> <!ELEMENT d EMPTY>",
        )
        .unwrap();
        let g = DtdGraph::of(&d);
        let a = d.elem("a").unwrap();
        assert_eq!(g.children(a).len(), 3);
        // b and c are inside a plus → starred; d is optional → not starred
        for (c, starred) in g.children(a) {
            let name = d.name(*c);
            assert_eq!(*starred, name != "d", "{name}");
        }
    }

    #[test]
    fn skips_comments_and_attlist() {
        let d = parse_dtd(
            "<!-- hi --> <!ELEMENT a (b*)> <!ATTLIST a id CDATA #REQUIRED> <!ELEMENT b EMPTY>",
        )
        .unwrap();
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse_dtd("<!ELEMEN a (b)>").is_err());
        assert!(parse_dtd("<!ELEMENT a (b>").is_err());
        assert!(parse_dtd("").is_err());
    }

    /// `MAX_DEPTH` nested groups parse; one more is a typed error at the
    /// offending `(`, not a stack overflow.
    #[test]
    fn group_nesting_is_bounded() {
        let nested = |n: usize| format!("<!ELEMENT a {}b{}>", "(".repeat(n), ")".repeat(n));
        let d = parse_dtd(&format!("{} <!ELEMENT b EMPTY>", nested(MAX_DEPTH))).unwrap();
        assert_eq!(d.len(), 2);
        let offset = "<!ELEMENT a ".len() + MAX_DEPTH;
        assert_eq!(
            parse_dtd(&nested(MAX_DEPTH + 1)).unwrap_err(),
            DtdError::TooDeep { offset }
        );
    }

    #[test]
    fn mixed_content() {
        let d = parse_dtd("<!ELEMENT a (#PCDATA | b)*> <!ELEMENT b (#PCDATA)>").unwrap();
        assert!(d.allows_text(d.elem("a").unwrap()));
        let g = DtdGraph::of(&d);
        assert!(g.children(d.elem("a").unwrap())[0].1, "b repeats under a");
    }
}
