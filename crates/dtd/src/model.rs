//! The DTD grammar model: element types, content models, and the [`Dtd`] type.

use std::collections::HashMap;
use std::fmt;

/// Identifier of an element type within one [`Dtd`] (dense index).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElemId(pub u32);

impl ElemId {
    /// The dense index of this type.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ElemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A content model `α` (paper §2.1):
/// `α ::= ε | B | α, α | (α | α) | α*`, extended with the standard DTD
/// operators `+`, `?` and `#PCDATA` so that real DTD files parse.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ContentModel {
    /// The empty word ε (also used for `EMPTY` declarations).
    Empty,
    /// `#PCDATA` — the element carries a text value.
    Text,
    /// A sub-element type `B`.
    Elem(ElemId),
    /// Concatenation `α, α, …`.
    Seq(Vec<ContentModel>),
    /// Disjunction `(α | α | …)`.
    Choice(Vec<ContentModel>),
    /// Kleene star `α*`.
    Star(Box<ContentModel>),
    /// One-or-more `α+`.
    Plus(Box<ContentModel>),
    /// Optional `α?`.
    Opt(Box<ContentModel>),
}

impl ContentModel {
    /// All element types mentioned in this model, with a flag telling whether
    /// the occurrence is *starred* — i.e. enclosed in a `*` or `+`
    /// sub-expression, so the child may repeat (this is the `*` edge label of
    /// the DTD graph, paper §2.1).
    pub fn child_occurrences(&self) -> Vec<(ElemId, bool)> {
        let mut out = Vec::new();
        self.collect_children(false, &mut out);
        out
    }

    fn collect_children(&self, starred: bool, out: &mut Vec<(ElemId, bool)>) {
        match self {
            ContentModel::Empty | ContentModel::Text => {}
            ContentModel::Elem(id) => out.push((*id, starred)),
            ContentModel::Seq(parts) | ContentModel::Choice(parts) => {
                for p in parts {
                    p.collect_children(starred, out);
                }
            }
            ContentModel::Star(inner) | ContentModel::Plus(inner) => {
                inner.collect_children(true, out);
            }
            ContentModel::Opt(inner) => inner.collect_children(starred, out),
        }
    }

    /// Element types that occur at least once in **every** word of the
    /// model — the children a valid element is *guaranteed* to have.
    /// Sequencing requires the union of its parts' required sets, a choice
    /// only what every alternative requires, and `*`/`?` require nothing.
    /// The dual of [`child_occurrences`](Self::child_occurrences) (may vs
    /// must), used by static query analysis to certify qualifiers that can
    /// never fail on a valid document.
    pub fn required_children(&self) -> Vec<ElemId> {
        let mut out = match self {
            ContentModel::Empty | ContentModel::Text => Vec::new(),
            ContentModel::Elem(id) => vec![*id],
            ContentModel::Seq(parts) => {
                let mut all = Vec::new();
                for p in parts {
                    all.extend(p.required_children());
                }
                all
            }
            ContentModel::Choice(parts) => {
                let mut sets = parts.iter().map(|p| p.required_children());
                match sets.next() {
                    None => Vec::new(),
                    Some(first) => sets.fold(first, |acc, next| {
                        acc.into_iter().filter(|id| next.contains(id)).collect()
                    }),
                }
            }
            ContentModel::Star(_) | ContentModel::Opt(_) => Vec::new(),
            ContentModel::Plus(inner) => inner.required_children(),
        };
        out.sort_by_key(|id| id.0);
        out.dedup();
        out
    }

    /// Whether the model permits a text value anywhere.
    pub fn allows_text(&self) -> bool {
        match self {
            ContentModel::Text => true,
            ContentModel::Empty | ContentModel::Elem(_) => false,
            ContentModel::Seq(ps) | ContentModel::Choice(ps) => ps.iter().any(|p| p.allows_text()),
            ContentModel::Star(p) | ContentModel::Plus(p) | ContentModel::Opt(p) => p.allows_text(),
        }
    }
}

/// Errors raised while building or parsing DTDs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DtdError {
    /// An element type was declared twice.
    DuplicateElement(String),
    /// A content model references an undeclared element type.
    UnknownElement(String),
    /// The root type is not declared.
    UnknownRoot(String),
    /// Syntax error while parsing DTD text.
    Syntax {
        /// Byte offset of the error.
        offset: usize,
        /// Human-readable message.
        message: String,
    },
    /// A content model nests groups deeper than
    /// [`crate::parser::MAX_DEPTH`].
    TooDeep {
        /// Byte offset of the first `(` past the bound.
        offset: usize,
    },
}

impl fmt::Display for DtdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DtdError::DuplicateElement(n) => write!(f, "duplicate element declaration: {n}"),
            DtdError::UnknownElement(n) => write!(f, "reference to undeclared element: {n}"),
            DtdError::UnknownRoot(n) => write!(f, "root element is not declared: {n}"),
            DtdError::Syntax { offset, message } => {
                write!(f, "DTD syntax error at byte {offset}: {message}")
            }
            DtdError::TooDeep { offset } => write!(
                f,
                "content model nests deeper than {} groups at byte {offset}",
                crate::parser::MAX_DEPTH
            ),
        }
    }
}

impl std::error::Error for DtdError {}

/// A DTD `(Ele, Rg, r)` — paper §2.1.
///
/// Element types are interned: each carries a dense [`ElemId`] used across
/// the whole workspace (graphs, shredded relations, generated documents).
#[derive(Clone, Debug)]
pub struct Dtd {
    names: Vec<String>,
    by_name: HashMap<String, ElemId>,
    content: Vec<ContentModel>,
    root: ElemId,
}

impl Dtd {
    /// Number of element types.
    #[inline]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the DTD declares no element types (never true for built DTDs).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The root element type `r`.
    #[inline]
    pub fn root(&self) -> ElemId {
        self.root
    }

    /// Name of an element type.
    #[inline]
    pub fn name(&self, id: ElemId) -> &str {
        &self.names[id.index()]
    }

    /// Look up an element type by name.
    #[inline]
    pub fn elem(&self, name: &str) -> Option<ElemId> {
        self.by_name.get(name).copied()
    }

    /// The production `Rg(A)` of a type.
    #[inline]
    pub fn content(&self, id: ElemId) -> &ContentModel {
        &self.content[id.index()]
    }

    /// Iterate over all element ids.
    pub fn ids(&self) -> impl Iterator<Item = ElemId> + '_ {
        (0..self.names.len() as u32).map(ElemId)
    }

    /// Whether elements of this type may carry text (PCDATA).
    pub fn allows_text(&self, id: ElemId) -> bool {
        self.content[id.index()].allows_text()
    }

    /// A DTD is *recursive* when some type is defined (transitively) in terms
    /// of itself — equivalently, when its DTD graph is cyclic (paper §2.1).
    pub fn is_recursive(&self) -> bool {
        crate::graph::DtdGraph::of(self).is_cyclic()
    }

    /// Render the DTD back to `<!ELEMENT …>` text syntax.
    pub fn to_dtd_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for id in self.ids() {
            let _ = writeln!(
                s,
                "<!ELEMENT {} {}>",
                self.name(id),
                self.render_model(self.content(id), true)
            );
        }
        s
    }

    fn render_model(&self, cm: &ContentModel, top: bool) -> String {
        match cm {
            ContentModel::Empty => "EMPTY".into(),
            ContentModel::Text => "(#PCDATA)".into(),
            ContentModel::Elem(id) => {
                if top {
                    format!("({})", self.name(*id))
                } else {
                    self.name(*id).to_string()
                }
            }
            ContentModel::Seq(ps) => {
                let inner: Vec<_> = ps.iter().map(|p| self.render_model(p, false)).collect();
                format!("({})", inner.join(", "))
            }
            ContentModel::Choice(ps) => {
                let inner: Vec<_> = ps.iter().map(|p| self.render_model(p, false)).collect();
                format!("({})", inner.join(" | "))
            }
            ContentModel::Star(p) => format!("{}*", self.render_atom(p)),
            ContentModel::Plus(p) => format!("{}+", self.render_atom(p)),
            ContentModel::Opt(p) => format!("{}?", self.render_atom(p)),
        }
    }

    fn render_atom(&self, cm: &ContentModel) -> String {
        match cm {
            ContentModel::Elem(id) => format!("({})", self.name(*id)),
            other => self.render_model(other, false),
        }
    }
}

/// Convenience constructors for content models used by builders and tests.
pub mod cm {
    use super::ContentModel;

    /// ε
    pub fn empty() -> ContentModel {
        ContentModel::Empty
    }
    /// `#PCDATA`
    pub fn text() -> ContentModel {
        ContentModel::Text
    }
    /// Sequence
    pub fn seq(parts: Vec<ContentModel>) -> ContentModel {
        ContentModel::Seq(parts)
    }
    /// Choice
    pub fn choice(parts: Vec<ContentModel>) -> ContentModel {
        ContentModel::Choice(parts)
    }
    /// Star
    pub fn star(inner: ContentModel) -> ContentModel {
        ContentModel::Star(Box::new(inner))
    }
    /// Plus
    pub fn plus(inner: ContentModel) -> ContentModel {
        ContentModel::Plus(Box::new(inner))
    }
    /// Opt
    pub fn opt(inner: ContentModel) -> ContentModel {
        ContentModel::Opt(Box::new(inner))
    }
}

/// Builder for [`Dtd`] values.
///
/// Content models are specified with element *names*; ids are interned when
/// [`DtdBuilder::build`] runs. Names referenced before declaration are fine —
/// all declarations are read first.
pub struct DtdBuilder {
    root: String,
    decls: Vec<(String, ModelSpec)>,
}

/// A content-model specification over element names (pre-interning).
#[derive(Clone, Debug)]
pub enum ModelSpec {
    /// ε
    Empty,
    /// `#PCDATA`
    Text,
    /// Named element
    Elem(String),
    /// Concatenation
    Seq(Vec<ModelSpec>),
    /// Disjunction
    Choice(Vec<ModelSpec>),
    /// Kleene star
    Star(Box<ModelSpec>),
    /// One or more
    Plus(Box<ModelSpec>),
    /// Optional
    Opt(Box<ModelSpec>),
}

impl ModelSpec {
    /// `name*`
    pub fn star_of(name: &str) -> ModelSpec {
        ModelSpec::Star(Box::new(ModelSpec::Elem(name.into())))
    }
    /// `name`
    pub fn elem(name: &str) -> ModelSpec {
        ModelSpec::Elem(name.into())
    }
}

impl DtdBuilder {
    /// Start building a DTD rooted at `root`.
    pub fn new(root: &str) -> Self {
        DtdBuilder {
            root: root.to_string(),
            decls: Vec::new(),
        }
    }

    /// Declare `name` with the given content model.
    pub fn elem(mut self, name: &str, model: ModelSpec) -> Self {
        self.decls.push((name.to_string(), model));
        self
    }

    /// Declare `name` with content `(c1*, c2*, …, #PCDATA)` — the common
    /// shape for the paper's graph-style DTDs where every child may repeat
    /// and any element may carry a text value (paper §2.1 assumes elements
    /// may carry PCDATA).
    pub fn elem_star_children(self, name: &str, children: &[&str]) -> Self {
        let model = if children.is_empty() {
            ModelSpec::Text
        } else {
            let mut parts: Vec<ModelSpec> =
                children.iter().map(|c| ModelSpec::star_of(c)).collect();
            parts.push(ModelSpec::Text);
            ModelSpec::Seq(parts)
        };
        self.elem(name, model)
    }

    /// Intern names and produce the [`Dtd`].
    pub fn build(self) -> Result<Dtd, DtdError> {
        let mut names = Vec::with_capacity(self.decls.len());
        let mut by_name = HashMap::with_capacity(self.decls.len());
        for (name, _) in &self.decls {
            if by_name.contains_key(name) {
                return Err(DtdError::DuplicateElement(name.clone()));
            }
            by_name.insert(name.clone(), ElemId(names.len() as u32));
            names.push(name.clone());
        }
        let root = *by_name
            .get(&self.root)
            .ok_or_else(|| DtdError::UnknownRoot(self.root.clone()))?;
        let mut content = Vec::with_capacity(self.decls.len());
        for (_, spec) in &self.decls {
            content.push(lower(spec, &by_name)?);
        }
        Ok(Dtd {
            names,
            by_name,
            content,
            root,
        })
    }
}

fn lower(spec: &ModelSpec, by_name: &HashMap<String, ElemId>) -> Result<ContentModel, DtdError> {
    Ok(match spec {
        ModelSpec::Empty => ContentModel::Empty,
        ModelSpec::Text => ContentModel::Text,
        ModelSpec::Elem(n) => ContentModel::Elem(
            *by_name
                .get(n)
                .ok_or_else(|| DtdError::UnknownElement(n.clone()))?,
        ),
        ModelSpec::Seq(ps) => ContentModel::Seq(
            ps.iter()
                .map(|p| lower(p, by_name))
                .collect::<Result<_, _>>()?,
        ),
        ModelSpec::Choice(ps) => ContentModel::Choice(
            ps.iter()
                .map(|p| lower(p, by_name))
                .collect::<Result<_, _>>()?,
        ),
        ModelSpec::Star(p) => ContentModel::Star(Box::new(lower(p, by_name)?)),
        ModelSpec::Plus(p) => ContentModel::Plus(Box::new(lower(p, by_name)?)),
        ModelSpec::Opt(p) => ContentModel::Opt(Box::new(lower(p, by_name)?)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dtd {
        DtdBuilder::new("a")
            .elem("a", ModelSpec::star_of("b"))
            .elem(
                "b",
                ModelSpec::Seq(vec![ModelSpec::elem("c"), ModelSpec::Text]),
            )
            .elem("c", ModelSpec::Empty)
            .build()
            .unwrap()
    }

    #[test]
    fn intern_and_lookup() {
        let d = tiny();
        assert_eq!(d.len(), 3);
        let a = d.elem("a").unwrap();
        assert_eq!(d.name(a), "a");
        assert_eq!(d.root(), a);
        assert!(d.elem("zzz").is_none());
    }

    #[test]
    fn child_occurrences_star_labels() {
        let d = tiny();
        let a = d.elem("a").unwrap();
        let occ = d.content(a).child_occurrences();
        assert_eq!(occ, vec![(d.elem("b").unwrap(), true)]);
        let b = d.elem("b").unwrap();
        let occ = d.content(b).child_occurrences();
        assert_eq!(occ, vec![(d.elem("c").unwrap(), false)]);
    }

    #[test]
    fn plus_counts_as_starred_opt_does_not() {
        let d = DtdBuilder::new("a")
            .elem(
                "a",
                ModelSpec::Seq(vec![
                    ModelSpec::Plus(Box::new(ModelSpec::elem("b"))),
                    ModelSpec::Opt(Box::new(ModelSpec::elem("c"))),
                ]),
            )
            .elem("b", ModelSpec::Empty)
            .elem("c", ModelSpec::Empty)
            .build()
            .unwrap();
        let occ = d.content(d.elem("a").unwrap()).child_occurrences();
        assert_eq!(
            occ,
            vec![(d.elem("b").unwrap(), true), (d.elem("c").unwrap(), false)]
        );
    }

    #[test]
    fn allows_text() {
        let d = tiny();
        assert!(!d.allows_text(d.elem("a").unwrap()));
        assert!(d.allows_text(d.elem("b").unwrap()));
        assert!(!d.allows_text(d.elem("c").unwrap()));
    }

    #[test]
    fn duplicate_element_rejected() {
        let err = DtdBuilder::new("a")
            .elem("a", ModelSpec::Empty)
            .elem("a", ModelSpec::Empty)
            .build()
            .unwrap_err();
        assert_eq!(err, DtdError::DuplicateElement("a".into()));
    }

    #[test]
    fn unknown_root_rejected() {
        let err = DtdBuilder::new("zzz")
            .elem("a", ModelSpec::Empty)
            .build()
            .unwrap_err();
        assert_eq!(err, DtdError::UnknownRoot("zzz".into()));
    }

    #[test]
    fn unknown_child_rejected() {
        let err = DtdBuilder::new("a")
            .elem("a", ModelSpec::star_of("ghost"))
            .build()
            .unwrap_err();
        assert_eq!(err, DtdError::UnknownElement("ghost".into()));
    }

    #[test]
    fn recursion_detection() {
        let rec = DtdBuilder::new("a")
            .elem("a", ModelSpec::star_of("b"))
            .elem("b", ModelSpec::star_of("a"))
            .build()
            .unwrap();
        assert!(rec.is_recursive());
        assert!(!tiny().is_recursive());
    }

    #[test]
    fn dtd_text_round_trip_shape() {
        let d = tiny();
        let text = d.to_dtd_text();
        assert!(text.contains("<!ELEMENT a (b)*>") || text.contains("<!ELEMENT a (b*)"));
        assert!(text.contains("c"));
    }
}
