//! Value interning for fixpoint operators.
//!
//! Transitive closures over large shredded stores produce millions of node
//! pairs; hashing full [`Value`]s per pair is wasteful. Fixpoints intern the
//! values they touch into dense `u32` codes and run the iteration over
//! packed `u64` pair keys, un-interning only when emitting the result
//! relation. Semantics are unchanged — this is the moral equivalent of the
//! RDBMS running its recursion over integer keys with indexes.

use crate::fxhash::FxHashMap;
use crate::value::Value;

/// A dense interner for [`Value`]s.
#[derive(Default)]
pub struct Interner {
    codes: FxHashMap<Value, u32>,
    values: Vec<Value>,
}

impl Interner {
    /// New empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Intern a value, returning its dense code.
    pub fn intern(&mut self, v: &Value) -> u32 {
        if let Some(&c) = self.codes.get(v) {
            return c;
        }
        let c = self.values.len() as u32;
        self.codes.insert(*v, c);
        self.values.push(*v);
        c
    }

    /// Look up a value's code without interning.
    pub fn get(&self, v: &Value) -> Option<u32> {
        self.codes.get(v).copied()
    }

    /// Resolve a code back to its value.
    pub fn resolve(&self, code: u32) -> &Value {
        &self.values[code as usize]
    }

    /// Number of interned values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Pack a pair of codes into a single key.
#[inline]
pub fn pack(a: u32, b: u32) -> u64 {
    (u64::from(a) << 32) | u64::from(b)
}

/// Unpack a pair key.
#[inline]
pub fn unpack(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_round_trip() {
        let mut i = Interner::new();
        let a = i.intern(&Value::Id(7));
        let b = i.intern(&Value::Code(3));
        let a2 = i.intern(&Value::Id(7));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), &Value::Id(7));
        assert_eq!(i.resolve(b), &Value::Code(3));
        assert_eq!(i.len(), 2);
        assert_eq!(i.get(&Value::Id(7)), Some(a));
        assert_eq!(i.get(&Value::Doc), None);
    }

    #[test]
    fn pack_unpack() {
        for (a, b) in [(0u32, 0u32), (1, 2), (u32::MAX, 7), (123456, u32::MAX)] {
            assert_eq!(unpack(pack(a, b)), (a, b));
        }
    }
}
