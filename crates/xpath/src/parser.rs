//! Recursive-descent parser for the XPath fragment.
//!
//! Accepted syntax (whitespace-insensitive):
//!
//! * steps: names, `*`, `.` (ε), parenthesised sub-paths;
//! * axes: `/` (child), `//` (descendant-or-self), leading `/` and `//`;
//!   explicit axis spellings are accepted and mapped onto the fragment:
//!   `child::A`/`child::*`, `self::*` (ε), `descendant::A`/`descendant::*`
//!   (`//A`), and `descendant-or-self::*` (`//.`) — so
//!   `a/descendant-or-self::*/b` parses (and canonicalizes) to `a//b`.
//!   Other axes are rejected; note this reserves names containing `::`
//!   (plain QNames with a single `:` still work);
//! * union: `|` or `∪` (also the keyword `union` is *not* accepted — it is a
//!   valid element name);
//! * qualifiers: `[q]` with `and`/`∧`, `or`/`∨`, `not q`/`¬q`/`!q`,
//!   `text() = "c"`, and the paper's shorthand `p = "c"` standing for
//!   `p[text() = "c"]` (e.g. `course[cno = "cs66"]`, Example 2.2);
//! * string literals in single or double quotes.
//!
//! Every consumer of a [`Path`] recurses on it (and so does dropping one),
//! and a query arrives from outside the program, so the parser bounds what
//! it builds: a query whose syntax nests, or whose tree would stand, more
//! than 128 levels deep is a [`ParseError`], not a stack overflow.

use crate::ast::{Path, Qual};
use std::fmt;

/// XPath parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input.
    pub offset: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XPath parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Deepest nesting of the syntax (parentheses, qualifiers, `not`) and
/// deepest [`Path`]/[`Qual`] tree — nested or a left-deep `/`, `|`, `[q]`,
/// `and`, `or` chain — that [`parse_xpath`] accepts. The recursive passes
/// downstream (canonicalization, the sat check, translation) run a tree of
/// this depth on a 1 MiB stack in a debug build with room to spare; the
/// queries of the paper, the benchmark and the suites stay below 20.
const MAX_DEPTH: usize = 128;

/// Parse a query of the fragment into a [`Path`].
pub fn parse_xpath(input: &str) -> Result<Path, ParseError> {
    let mut p = P {
        chars: input.char_indices().collect(),
        pos: 0,
        input_len: input.len(),
        nesting: 0,
    };
    let (path, _) = p.union()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("unexpected trailing input"));
    }
    Ok(path)
}

struct P {
    chars: Vec<(usize, char)>,
    pos: usize,
    input_len: usize,
    /// Open `union`/`qual_not` calls: every cycle of the grammar passes
    /// through one of the two, so this bounds the parser's own recursion.
    nesting: usize,
}

/// A parsed subtree with its depth (a leaf is 1).
type Parsed<T> = Result<(T, usize), ParseError>;

impl P {
    fn at_end(&self) -> bool {
        self.pos >= self.chars.len()
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).map(|&(_, c)| c)
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.pos + 1).map(|&(_, c)| c)
    }

    fn offset(&self) -> usize {
        self.chars
            .get(self.pos)
            .map(|&(o, _)| o)
            .unwrap_or(self.input_len)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn err(&self, m: &str) -> ParseError {
        ParseError {
            offset: self.offset(),
            message: m.to_string(),
        }
    }

    fn too_deep(&self) -> ParseError {
        self.err(&format!("query nests deeper than {MAX_DEPTH} levels"))
    }

    /// Depth of a node over children of depths `a` and `b`.
    fn over(&self, a: usize, b: usize) -> Result<usize, ParseError> {
        let depth = 1 + a.max(b);
        if depth > MAX_DEPTH {
            return Err(self.too_deep());
        }
        Ok(depth)
    }

    /// Run `parse` one syntactic level further in.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> Parsed<T>) -> Parsed<T> {
        if self.nesting == MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.nesting += 1;
        let parsed = parse(self);
        self.nesting -= 1;
        parsed
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: char) -> bool {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Try to eat a keyword (followed by a non-name character).
    fn eat_kw(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let save = self.pos;
        for k in kw.chars() {
            if self.peek() == Some(k) {
                self.pos += 1;
            } else {
                self.pos = save;
                return false;
            }
        }
        if matches!(self.peek(), Some(c) if is_name_char(c)) {
            self.pos = save;
            return false;
        }
        true
    }

    /// union := seq (('|' | '∪') seq)*
    fn union(&mut self) -> Parsed<Path> {
        self.nested(|p| {
            let (mut left, mut depth) = p.seq()?;
            loop {
                p.skip_ws();
                if p.eat('|') || p.eat('∪') {
                    let (right, d) = p.seq()?;
                    depth = p.over(depth, d)?;
                    left = Path::Union(Box::new(left), Box::new(right));
                } else {
                    return Ok((left, depth));
                }
            }
        })
    }

    /// seq := ('//' step | '/'? step) (('/' | '//') step)*
    fn seq(&mut self) -> Parsed<Path> {
        self.skip_ws();
        let (mut left, mut depth) = if self.peek() == Some('/') && self.peek2() == Some('/') {
            self.pos += 2;
            self.descendant_step()?
        } else {
            if self.peek() == Some('/') {
                self.pos += 1; // leading absolute '/': same as starting at doc
            }
            self.step()?
        };
        loop {
            self.skip_ws();
            let (next, d) = if self.peek() == Some('/') && self.peek2() == Some('/') {
                self.pos += 2;
                self.descendant_step()?
            } else if self.peek() == Some('/') {
                self.pos += 1;
                self.step()?
            } else {
                return Ok((left, depth));
            };
            depth = self.over(depth, d)?;
            left = Path::Seq(Box::new(left), Box::new(next));
        }
    }

    /// The step after a `//`.
    fn descendant_step(&mut self) -> Parsed<Path> {
        let (step, d) = self.step()?;
        Ok((Path::Descendant(Box::new(step)), self.over(d, 0)?))
    }

    /// step := atom ('[' qual ']')*
    fn step(&mut self) -> Parsed<Path> {
        let (mut base, mut depth) = self.atom()?;
        loop {
            self.skip_ws();
            if self.eat('[') {
                let (q, d) = self.qual_or()?;
                if !self.eat(']') {
                    return Err(self.err("expected `]` to close the qualifier"));
                }
                depth = self.over(depth, d)?;
                base = Path::Qualified(Box::new(base), q);
            } else {
                return Ok((base, depth));
            }
        }
    }

    /// atom := '*' | '.' | 'ε' | '∅' | '(' union ')' | name
    fn atom(&mut self) -> Parsed<Path> {
        self.skip_ws();
        match self.peek() {
            Some('*') => {
                self.pos += 1;
                Ok((Path::Wildcard, 1))
            }
            Some('∅') => {
                self.pos += 1;
                Ok((Path::EmptySet, 1))
            }
            Some('.') => {
                self.pos += 1;
                Ok((Path::Empty, 1))
            }
            Some('ε') => {
                self.pos += 1;
                Ok((Path::Empty, 1))
            }
            Some('(') => {
                self.pos += 1;
                let inner = self.union()?;
                if !self.eat(')') {
                    return Err(self.err("expected `)`"));
                }
                Ok(inner)
            }
            Some(c) if is_name_start(c) => {
                let name = self.name()?;
                match name.find("::") {
                    // an axis step is a leaf, or `//` over one
                    Some(split) => Ok((self.axis_step(&name[..split], &name[split + 2..])?, 2)),
                    None => Ok((Path::Label(name), 1)),
                }
            }
            _ => Err(self.err("expected a step (name, `*`, `.`, or `(`)")),
        }
    }

    /// Desugar an explicit-axis step `axis::test` onto the fragment. The
    /// name scanner has already consumed `axis::` plus any name-shaped
    /// `test`; a `*` test is still pending in the input.
    fn axis_step(&mut self, axis: &str, test: &str) -> Result<Path, ParseError> {
        // `test` is empty when the node test is `*` (not a name character)
        let star = test.is_empty() && self.eat('*');
        match axis {
            "child" => match (star, test) {
                (true, _) => Ok(Path::Wildcard),
                (false, "") => Err(self.err("expected a node test after `child::`")),
                (false, name) => Ok(Path::Label(name.to_string())),
            },
            "self" => {
                if star {
                    // every node of the model is an element: self::* is ε
                    Ok(Path::Empty)
                } else {
                    Err(self.err("only `self::*` is supported"))
                }
            }
            "descendant" => match (star, test) {
                (true, _) => Ok(Path::descendant(Path::Wildcard)),
                (false, "") => Err(self.err("expected a node test after `descendant::`")),
                (false, name) => Ok(Path::descendant(Path::label(name))),
            },
            "descendant-or-self" => {
                if star {
                    Ok(Path::descendant(Path::Empty))
                } else {
                    Err(self.err("only `descendant-or-self::*` is supported"))
                }
            }
            other => Err(self.err(&format!(
                "unsupported axis `{other}::` (supported: child, self, descendant, descendant-or-self)"
            ))),
        }
    }

    fn name(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        let mut s = String::new();
        while matches!(self.peek(), Some(c) if is_name_char(c)) {
            if let Some(c) = self.bump() {
                s.push(c);
            }
        }
        if s.is_empty() {
            return Err(self.err("expected a name"));
        }
        Ok(s)
    }

    /// Try to eat a two-character operator atomically.
    fn eat2(&mut self, a: char, b: char) -> bool {
        self.skip_ws();
        if self.peek() == Some(a) && self.peek2() == Some(b) {
            self.pos += 2;
            true
        } else {
            false
        }
    }

    /// qual_or := qual_and (('or' | '∨' | '||') qual_and)*
    fn qual_or(&mut self) -> Parsed<Qual> {
        let (mut left, mut depth) = self.qual_and()?;
        loop {
            self.skip_ws();
            if self.eat_kw("or") || self.eat('∨') || self.eat2('|', '|') {
                let (right, d) = self.qual_and()?;
                depth = self.over(depth, d)?;
                left = Qual::Or(Box::new(left), Box::new(right));
            } else {
                return Ok((left, depth));
            }
        }
    }

    /// qual_and := qual_not (('and' | '∧' | '&&') qual_not)*
    fn qual_and(&mut self) -> Parsed<Qual> {
        let (mut left, mut depth) = self.qual_not()?;
        loop {
            self.skip_ws();
            if self.eat_kw("and") || self.eat('∧') || self.eat2('&', '&') {
                let (right, d) = self.qual_not()?;
                depth = self.over(depth, d)?;
                left = Qual::And(Box::new(left), Box::new(right));
            } else {
                return Ok((left, depth));
            }
        }
    }

    /// qual_not := ('not' | '¬' | '!') qual_not | '(' qual_or ')' | primary
    fn qual_not(&mut self) -> Parsed<Qual> {
        self.nested(|p| {
            p.skip_ws();
            if p.eat_kw("not") || p.eat('¬') || p.eat('!') {
                // allow both `not(q)` and `not q`
                let (q, d) = p.qual_not()?;
                return Ok((Qual::Not(Box::new(q)), p.over(d, 0)?));
            }
            if p.peek() == Some('(') {
                // Could be a parenthesised qualifier or a parenthesised path;
                // parse as qualifier (paths in parens become Qual::Path anyway
                // unless boolean connectives appear inside).
                let save = p.pos;
                p.pos += 1;
                if let Ok((q, d)) = p.qual_or() {
                    if p.eat(')') {
                        return p.maybe_text_eq_wrap(q, d);
                    }
                }
                p.pos = save;
            }
            p.qual_primary()
        })
    }

    /// primary := 'text()' '=' string | path ('=' string)?
    fn qual_primary(&mut self) -> Parsed<Qual> {
        self.skip_ws();
        let save = self.pos;
        if self.eat_kw("text") {
            if self.eat('(') {
                if !self.eat(')') {
                    return Err(self.err("expected `)` after `text(`"));
                }
                if !self.eat('=') {
                    return Err(self.err("expected `=` after `text()`"));
                }
                let s = self.string()?;
                return Ok((Qual::TextEq(s), 1));
            }
            // an element actually named `text`: reparse as a path
            self.pos = save;
        }
        let (p, d) = self.union()?;
        self.skip_ws();
        if self.eat('=') {
            return self.text_eq_shorthand(Box::new(p), d);
        }
        Ok((Qual::path(p), self.over(d, 0)?))
    }

    /// The shorthand `p = "c"` ≡ `p[text() = "c"]`, after its `=`.
    fn text_eq_shorthand(&mut self, p: Box<Path>, depth: usize) -> Parsed<Qual> {
        let s = self.string()?;
        let qualified = self.over(depth, 1)?;
        Ok((
            Qual::path(Path::Qualified(p, Qual::TextEq(s))),
            self.over(qualified, 0)?,
        ))
    }

    /// After a parenthesised qualifier, permit `= "c"` when the qualifier is
    /// a plain path (rare, but keeps `(cno) = "c"` working).
    fn maybe_text_eq_wrap(&mut self, q: Qual, depth: usize) -> Parsed<Qual> {
        self.skip_ws();
        if self.peek() == Some('=') {
            if let Qual::Path(p) = q {
                self.pos += 1;
                // `depth` counted the `Qual::Path` wrapper the path sheds here
                return self.text_eq_shorthand(p, depth - 1);
            }
            return Err(self.err("`=` after a boolean qualifier"));
        }
        Ok((q, depth))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        let quote = match self.peek() {
            Some(q @ ('"' | '\'')) => q,
            _ => return Err(self.err("expected a string literal")),
        };
        self.pos += 1;
        let mut s = String::new();
        loop {
            match self.bump() {
                Some(c) if c == quote => return Ok(s),
                Some(c) => s.push(c),
                None => return Err(self.err("unterminated string literal")),
            }
        }
    }
}

fn is_name_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '-' | ':')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Path, Qual};

    fn p(s: &str) -> Path {
        parse_xpath(s).unwrap()
    }

    #[test]
    fn simple_paths() {
        assert_eq!(p("dept"), Path::label("dept"));
        assert_eq!(
            p("dept/course"),
            Path::label("dept").then(Path::label("course"))
        );
        assert_eq!(
            p("dept//project"),
            Path::label("dept").then_descendant(Path::label("project"))
        );
        assert_eq!(p("//project"), Path::descendant(Path::label("project")));
        assert_eq!(p("*"), Path::Wildcard);
        assert_eq!(p("."), Path::Empty);
    }

    #[test]
    fn leading_slash_absolute() {
        assert_eq!(p("/dept/course"), p("dept/course"));
    }

    #[test]
    fn union_variants() {
        let expect = Path::label("a").union(Path::label("b"));
        assert_eq!(p("a | b"), expect);
        assert_eq!(p("a ∪ b"), expect);
        assert_eq!(
            p("(a | b)/c"),
            Path::label("a")
                .union(Path::label("b"))
                .then(Path::label("c"))
        );
    }

    #[test]
    fn qualifier_boolean_forms() {
        let ascii = p("a[not //c and b or text()=\"x\"]");
        let symbols = p("a[¬//c ∧ b ∨ text()='x']");
        assert_eq!(ascii, symbols);
    }

    #[test]
    fn paper_query_q2_parses() {
        // Q2 from Example 2.2
        let q = p(
            r#"dept/course[//prereq/course[cno = "cs66"] and not //project and not takenBy/student/qualified//course[cno = "cs66"]]"#,
        );
        // the qualifier binds to the `course` step: dept/(course[...])
        match q {
            Path::Seq(dept, qualified) => {
                assert_eq!(*dept, Path::label("dept"));
                match *qualified {
                    Path::Qualified(course, Qual::And(_, _)) => {
                        assert_eq!(*course, Path::label("course"));
                    }
                    other => panic!("unexpected step shape: {other:?}"),
                }
            }
            other => panic!("unexpected shape: {other:?}"),
        }
    }

    #[test]
    fn shorthand_text_comparison() {
        assert_eq!(
            p("course[cno = \"cs66\"]"),
            Path::label("course").with_qual(Qual::path(
                Path::label("cno").with_qual(Qual::TextEq("cs66".into()))
            ))
        );
    }

    #[test]
    fn nested_qualifiers() {
        let q = p("a[b[c]]");
        assert_eq!(
            q,
            Path::label("a").with_qual(Qual::path(
                Path::label("b").with_qual(Qual::path(Path::label("c")))
            ))
        );
    }

    #[test]
    fn double_slash_inside_qualifier() {
        let q = p("a[//c]//d");
        let expect = Path::label("a")
            .with_qual(Qual::path(Path::descendant(Path::label("c"))))
            .then_descendant(Path::label("d"));
        assert_eq!(q, expect);
    }

    #[test]
    fn precedence_and_binds_tighter_than_or() {
        let q = p("x[a or b and c]");
        match q {
            Path::Qualified(_, Qual::Or(l, r)) => {
                assert!(matches!(*l, Qual::Path(_)));
                assert!(matches!(*r, Qual::And(_, _)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn errors() {
        assert!(parse_xpath("").is_err());
        assert!(parse_xpath("a[").is_err());
        assert!(parse_xpath("a]").is_err());
        assert!(parse_xpath("a/").is_err());
        assert!(parse_xpath("a[text()=]").is_err());
        assert!(parse_xpath("a b").is_err());
    }

    #[test]
    fn display_round_trip() {
        for s in [
            "dept//project",
            "a[not(//c)]",
            "(a | b)/c",
            "a[b and text()=\"v\"]",
            "a/b//c/d",
            "∅",
            "a/∅",
            // literals holding the other quote and the qualifier syntax
            r#"a[text()="it's"]"#,
            r#"a[text()='say "x"']"#,
            r#"a[text()='x"][text()="y']"#,
            r#"a[text()="x"][text()="y"]"#,
            r#"a[b = "] | [ and not( "]"#,
            r#"a[b = ' "] | [" ']"#,
        ] {
            let once = p(s);
            let again = p(&once.to_string());
            assert_eq!(once, again, "round-trip failed for {s}");
        }
    }

    #[test]
    fn empty_set_parses() {
        assert_eq!(p("∅"), Path::EmptySet);
        assert_eq!(p("a/∅"), Path::label("a").then(Path::EmptySet));
    }

    /// Slash-leading operands render parenthesized, so nested descendants
    /// built programmatically still round-trip through the parser instead
    /// of printing an unparseable `///`.
    #[test]
    fn nested_descendant_rendering_reparses() {
        let shapes = [
            Path::Empty.then(Path::descendant(Path::descendant(Path::label("z")))),
            Path::descendant(Path::descendant(Path::label("z"))),
            Path::label("a").then(Path::descendant(Path::label("x")).then(Path::label("y"))),
            Path::label("a")
                .then(Path::descendant(Path::label("x")).with_qual(Qual::path(Path::label("q")))),
        ];
        for shape in shapes {
            let printed = shape.to_string();
            let reparsed = parse_xpath(&printed).unwrap_or_else(|e| panic!("{printed:?}: {e}"));
            assert_eq!(
                parse_xpath(&reparsed.to_string()).unwrap(),
                reparsed,
                "round trip is not the identity on parser-shaped ASTs ({printed:?})"
            );
        }
    }

    /// Qualifiers over composite bases parenthesize, so the exact shape
    /// survives the round trip.
    #[test]
    fn qualified_composite_bases_round_trip_structurally() {
        let shapes = [
            Path::label("a")
                .then(Path::label("b"))
                .with_qual(Qual::path(Path::label("q"))),
            Path::descendant(Path::label("x")).with_qual(Qual::TextEq("v".into())),
        ];
        for shape in shapes {
            let printed = shape.to_string();
            assert!(printed.starts_with('('), "composite base parenthesized");
            assert_eq!(parse_xpath(&printed).unwrap(), shape, "{printed:?}");
        }
    }

    #[test]
    fn explicit_axes_desugar_onto_the_fragment() {
        assert_eq!(p("child::course"), Path::label("course"));
        assert_eq!(p("child::*"), Path::Wildcard);
        assert_eq!(p("self::*"), Path::Empty);
        assert_eq!(p("descendant::d"), Path::descendant(Path::label("d")));
        assert_eq!(p("descendant::*"), Path::descendant(Path::Wildcard));
        assert_eq!(p("descendant-or-self::*"), Path::descendant(Path::Empty));
        assert_eq!(
            p("a/descendant-or-self::*/b"),
            Path::label("a")
                .then(Path::descendant(Path::Empty))
                .then(Path::label("b"))
        );
        // axes work inside qualifiers too
        assert_eq!(
            p("a[descendant::c]"),
            Path::label("a").with_qual(Qual::path(Path::descendant(Path::label("c"))))
        );
    }

    #[test]
    fn unsupported_axes_are_rejected() {
        assert!(parse_xpath("ancestor::a").is_err());
        assert!(parse_xpath("self::a").is_err());
        assert!(parse_xpath("descendant-or-self::a").is_err());
        assert!(parse_xpath("child::").is_err());
        // a single colon is still an ordinary QName character
        assert_eq!(p("xs:foo"), Path::label("xs:foo"));
    }

    #[test]
    fn keyword_prefixed_names_parse() {
        // names that start with `not`/`and`/`or`/`text`
        assert_eq!(p("note"), Path::label("note"));
        assert_eq!(p("android"), Path::label("android"));
        let q = p("a[note]");
        assert_eq!(
            q,
            Path::label("a").with_qual(Qual::path(Path::label("note")))
        );
    }
}
