//! The load-time string dictionary: every distinct text value in a shredded
//! store is encoded into a dense `u32` code **once**, at load, so the hot
//! execution path — equality joins, `Distinct`, selections —
//! compares and hashes plain integers instead of strings. Values are only
//! un-interned when rendering results for humans.
//!
//! Unlike the fixpoints' per-invocation node codes, which live and die with
//! one closure, the dictionary serves the whole pipeline: it lives on
//! the [`crate::Database`], is immutable once the store sits behind an
//! `Arc`, and its codes appear in relations as [`crate::Value::Code`].
//!
//! # Invariants
//!
//! * Codes are **load-scoped**: `Code(c)` is meaningful only against the
//!   dictionary of the database it was loaded into. Relations from two
//!   different loads must never be mixed (the engine replaces the whole
//!   store on every load, so this cannot happen through the public API).
//! * Encoding is injective per dictionary: equal strings always map to the
//!   same code and distinct strings to distinct codes, so `Code` equality
//!   *is* string equality within one store.
//! * No relation holds text: a [`crate::Value`] has no text variant. The
//!   shredders intern every text value they store, and
//!   `x2s_shred::edge_database` then interns every DTD element name, so the
//!   multi-fixpoint can emit its `Rid` tags as codes too (a tag without a
//!   code is [`crate::ExecError::UncodedTag`]). A text literal in a plan
//!   ([`crate::Pred::ColEqText`]) is looked up here once per operator
//!   invocation; a literal the dictionary lacks matches no cell.
//! * Nothing interns at execution time, so a query's literals never grow
//!   the dictionary.
//!
//! Debug builds (and every `cfg(test)` build) cross-check each code the
//! executor resolves against the literal it stands for
//! ([`Dictionary::verify_code`]), so every debug test run checks it;
//! release builds compile the check out.

use crate::fxhash::FxHashMap;
use std::sync::Arc;

/// A dense, append-only string dictionary.
#[derive(Clone, Debug, Default)]
pub struct Dictionary {
    codes: FxHashMap<Arc<str>, u32>,
    strings: Vec<Arc<str>>,
}

impl Dictionary {
    /// New empty dictionary.
    pub fn new() -> Self {
        Dictionary::default()
    }

    /// Intern a string, returning its dense code.
    // capacity invariant, not an error path: 2³² distinct strings cannot
    // arise from documents whose node ids are themselves u32
    #[allow(clippy::expect_used)]
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&c) = self.codes.get(s) {
            return c;
        }
        let arc: Arc<str> = Arc::from(s);
        let c = u32::try_from(self.strings.len()).expect("dictionary overflow");
        self.codes.insert(Arc::clone(&arc), c);
        self.strings.push(arc);
        c
    }

    /// Look up a string's code without interning.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.codes.get(s).copied()
    }

    /// Resolve a code back to its string. Panics on a foreign code — by the
    /// load-scoping invariant that is a logic error, not a data error.
    pub fn resolve(&self, code: u32) -> &str {
        &self.strings[code as usize]
    }

    /// Resolve a code to its string, if the code belongs to this
    /// dictionary.
    pub fn get(&self, code: u32) -> Option<&str> {
        self.strings.get(code as usize).map(|s| &**s)
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Cross-check: assert that `code` decodes back to `lit`. Live in debug
    /// builds and under `cfg(test)`; compiled to nothing in release builds.
    #[inline]
    pub fn verify_code(&self, code: u32, lit: &str) {
        #[cfg(any(test, debug_assertions))]
        {
            assert_eq!(
                self.resolve(code),
                lit,
                "dictionary code {code} does not round-trip"
            );
        }
        #[cfg(not(any(test, debug_assertions)))]
        {
            let _ = (code, lit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_round_trip() {
        let mut d = Dictionary::new();
        let a = d.intern("cs66");
        let b = d.intern("ann");
        let a2 = d.intern("cs66");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.resolve(a), "cs66");
        assert_eq!(d.resolve(b), "ann");
        assert_eq!(d.len(), 2);
        assert_eq!(d.code_of("cs66"), Some(a));
        assert_eq!(d.code_of("zzz"), None);
        d.verify_code(a, "cs66");
    }

    #[test]
    fn equal_strings_share_codes() {
        let mut d = Dictionary::new();
        let a = d.intern("x");
        let b = d.intern("x");
        assert_eq!(a, b, "code equality is string equality");
        let c = d.intern("y");
        assert_ne!(a, c);
        assert_eq!(d.get(c), Some("y"));
        assert_eq!(d.get(c + 1), None, "a foreign code resolves to nothing");
    }

    #[test]
    #[should_panic(expected = "round-trip")]
    fn verify_code_catches_mismatch() {
        let mut d = Dictionary::new();
        let a = d.intern("right");
        d.intern("wrong");
        d.verify_code(a + 1, "right");
    }
}
