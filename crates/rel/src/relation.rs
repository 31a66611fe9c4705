//! Relations: positional [`Value`] tuples of a fixed arity, stored
//! columnar-style in one flat buffer. Columns are addressed by position, as
//! the paper's algebra and the rendered SQL (`c0`, `c1`, …) address them.
//!
//! # Storage layout
//!
//! A relation stores its rows in a **single flat `Vec<Value>`** with an
//! arity stride: row `i` is the slice `buf[i * arity .. (i + 1) * arity]`.
//! A [`Value`] is an 8-byte `Copy` cell, so a three-column edge row
//! `(F, T, V)` takes 24 bytes and copying a row is a `memcpy`. That is one
//! heap allocation per *relation* instead of one per *row* (the old
//! `Vec<Vec<Value>>` layout), rows are contiguous in cache, and bulk
//! operations — union, adopting an owned input's buffer —
//! are `memcpy`-shaped extends rather than per-row pushes.
//!
//! Invariants:
//!
//! * `buf.len() == rows * arity` at every public-API boundary (the row
//!   count is stored explicitly so zero-arity relations stay well-formed);
//! * `Eq`/`Hash` compare arity and rows *in order* — two relations are
//!   equal exactly when they hold the same rows of the same arity in the
//!   same order. The optimizer relies on this to hash-cons inline `Values`
//!   plans (which are always small: seed markers and empty relations).

use crate::fxhash::{fx_hash_one, FxHashSet};
use crate::multimap::RowMultimap;
use crate::value::Value;

/// A tuple (row) in owned form. The executor works on borrowed `&[Value]`
/// row slices; owned tuples appear at API edges (builders, tests).
pub type Tuple = Vec<Value>;

/// A relation of a fixed arity over a flat tuple buffer. Duplicate rows
/// are permitted (bags); set semantics are applied explicitly via
/// [`Relation::dedup`] or the `Distinct` plan node, mirroring SQL.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Relation {
    arity: usize,
    buf: Vec<Value>,
    rows: usize,
}

impl Relation {
    /// Empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation {
            arity,
            buf: Vec::new(),
            rows: 0,
        }
    }

    /// Empty relation with the conventional shredded-edge schema `(F, T, V)`.
    pub fn edge_schema() -> Self {
        Relation::new(3)
    }

    /// Relation over pre-built rows (convenience for tests and small
    /// builders; flattens into the single buffer). Every row must have
    /// `arity` values.
    pub fn from_tuples(arity: usize, tuples: Vec<Tuple>) -> Self {
        let mut rel = Relation::new(arity);
        rel.reserve(tuples.len());
        for t in tuples {
            rel.push(t);
        }
        rel
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the relation has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Arity.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Append an owned row (must match arity).
    pub fn push(&mut self, tuple: Tuple) {
        debug_assert_eq!(tuple.len(), self.arity, "arity mismatch");
        self.buf.extend(tuple);
        self.rows += 1;
    }

    /// Append a row by copying from a borrowed slice — the executor's
    /// per-row emit (no intermediate `Vec` allocated).
    #[inline]
    pub fn push_row(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.arity, "arity mismatch");
        self.buf.extend_from_slice(row);
        self.rows += 1;
    }

    /// Append the concatenation of two row slices (inner-join emit:
    /// `left ++ right` straight into the buffer).
    #[inline]
    pub fn push_concat(&mut self, left: &[Value], right: &[Value]) {
        debug_assert_eq!(left.len() + right.len(), self.arity);
        self.buf.extend_from_slice(left);
        self.buf.extend_from_slice(right);
        self.rows += 1;
    }

    /// Append one row from an iterator of values (projection emit). The
    /// iterator must yield exactly `arity` values.
    #[inline]
    pub fn push_iter(&mut self, values: impl IntoIterator<Item = Value>) {
        let before = self.buf.len();
        self.buf.extend(values);
        debug_assert_eq!(self.buf.len() - before, self.arity, "arity mismatch");
        self.rows += 1;
    }

    /// Reserve space for `additional` more rows.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional * self.arity);
    }

    /// Row `i` as a borrowed slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[Value] {
        let arity = self.arity;
        &self.buf[i * arity..(i + 1) * arity]
    }

    /// Iterate over all rows as borrowed slices.
    #[inline]
    pub fn rows(&self) -> RowsIter<'_> {
        RowsIter {
            buf: &self.buf,
            arity: self.arity,
            remaining: self.rows,
        }
    }

    /// The flat value buffer (row-major, arity stride). Exposed for bulk
    /// consumers and the zero-copy tests; `values_flat().len() == len() *
    /// arity()`.
    #[inline]
    pub fn values_flat(&self) -> &[Value] {
        &self.buf
    }

    /// Bulk-append every row of `other` (must have equal arity). One
    /// `extend_from_slice` — no per-row work.
    pub fn extend_from(&mut self, other: &Relation) {
        debug_assert_eq!(other.arity(), self.arity(), "arity mismatch");
        self.buf.extend_from_slice(&other.buf);
        self.rows += other.rows;
    }

    /// Bulk-append every row of `other`, consuming it. When `self` is
    /// empty this *adopts* `other`'s buffer outright — zero copies.
    pub fn adopt(&mut self, other: Relation) {
        debug_assert_eq!(other.arity(), self.arity(), "arity mismatch");
        if self.rows == 0 {
            self.buf = other.buf;
            self.rows = other.rows;
        } else {
            self.buf.extend(other.buf);
            self.rows += other.rows;
        }
    }

    /// Remove duplicate rows (set semantics), preserving first occurrence.
    ///
    /// Runs over hashed row views with in-place compaction: candidate
    /// duplicates are confirmed by comparing row slices, so no row is ever
    /// cloned into a side table (the old layout cloned every row into a
    /// `HashSet<Tuple>`).
    pub fn dedup(&mut self) {
        let arity = self.arity;
        if self.rows <= 1 {
            return;
        }
        if arity == 0 {
            // all zero-arity rows are equal
            self.rows = 1;
            return;
        }
        // row hash → the kept rows with that hash (indexes *in the compacted
        // prefix*), chained newest first; a hit is confirmed by comparing
        // the actual slices
        let mut seen: RowMultimap<u64> = RowMultimap::with_rows(self.rows);
        let mut write = 0usize;
        for r in 0..self.rows {
            let start = r * arity;
            let row = &self.buf[start..start + arity];
            let fresh = seen.insert_unless(fx_hash_one(row), write as u32, |k| {
                let ks = k as usize * arity;
                self.buf[ks..ks + arity] == *row
            });
            if !fresh {
                continue;
            }
            if write != r {
                // copy row r down into the compacted prefix; the slots it
                // leaves are past `write` and will be truncated or
                // overwritten by later kept rows
                self.buf.copy_within(start..start + arity, write * arity);
            }
            write += 1;
        }
        self.buf.truncate(write * arity);
        self.rows = write;
    }

    /// Set of the values in one column. (Per-column *indexes* — value →
    /// row ids — live on the [`crate::Database`] as load-time F/T indexes.)
    pub fn value_set(&self, col: usize) -> FxHashSet<Value> {
        self.rows().map(|t| t[col]).collect()
    }

    /// Rows sorted lexicographically, in owned form (for deterministic
    /// comparisons).
    pub fn sorted_tuples(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self.rows().map(|t| t.to_vec()).collect();
        v.sort();
        v
    }

    /// Set equality with another relation (ignores row order & duplicates).
    pub fn set_eq(&self, other: &Relation) -> bool {
        let a: FxHashSet<&[Value]> = self.rows().collect();
        let b: FxHashSet<&[Value]> = other.rows().collect();
        a == b
    }
}

/// Iterator over a relation's rows as `&[Value]` slices.
#[derive(Clone, Debug)]
pub struct RowsIter<'a> {
    buf: &'a [Value],
    arity: usize,
    remaining: usize,
}

impl<'a> Iterator for RowsIter<'a> {
    type Item = &'a [Value];

    #[inline]
    fn next(&mut self) -> Option<&'a [Value]> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let (head, tail) = self.buf.split_at(self.arity);
        self.buf = tail;
        Some(head)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for RowsIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ft(pairs: &[(u32, u32)]) -> Relation {
        let mut r = Relation::new(2);
        for &(f, t) in pairs {
            r.push(vec![Value::Id(f), Value::Id(t)]);
        }
        r
    }

    #[test]
    fn push_and_columns() {
        let r = ft(&[(1, 2), (2, 3)]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.arity(), 2);
    }

    #[test]
    fn from_tuples_adopts_rows() {
        let rows = vec![
            vec![Value::Id(1), Value::Id(2)],
            vec![Value::Id(2), Value::Id(3)],
        ];
        let r = Relation::from_tuples(2, rows);
        assert_eq!(r.len(), 2);
        assert!(r.set_eq(&ft(&[(1, 2), (2, 3)])));
    }

    #[test]
    fn rows_iterate_with_arity_stride() {
        let r = ft(&[(1, 2), (3, 4), (5, 6)]);
        let rows: Vec<&[Value]> = r.rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1], &[Value::Id(3), Value::Id(4)]);
        assert_eq!(r.row(2), &[Value::Id(5), Value::Id(6)]);
        assert_eq!(r.rows().len(), 3, "exact size");
        assert_eq!(r.values_flat().len(), 6);
    }

    #[test]
    fn push_variants_agree() {
        let mut a = Relation::new(2);
        a.push(vec![Value::Id(1), Value::Id(2)]);
        let mut b = Relation::new(2);
        b.push_row(&[Value::Id(1), Value::Id(2)]);
        let mut c = Relation::new(2);
        c.push_iter([Value::Id(1), Value::Id(2)]);
        let mut d = Relation::new(2);
        d.push_concat(&[Value::Id(1)], &[Value::Id(2)]);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(c, d);
    }

    #[test]
    fn extend_from_and_adopt_merge_buffers() {
        let mut a = ft(&[(1, 2)]);
        a.extend_from(&ft(&[(3, 4), (5, 6)]));
        assert_eq!(a.len(), 3);
        assert_eq!(a.row(2), &[Value::Id(5), Value::Id(6)]);
        let mut b = ft(&[(9, 9)]);
        b.adopt(ft(&[(8, 8)]));
        assert_eq!(b.len(), 2);
        assert_eq!(b.row(0), &[Value::Id(9), Value::Id(9)]);
        // into an empty relation `adopt` moves the buffer: same allocation,
        // no copy (what `Union` relies on for its first owned input)
        let ptr = b.values_flat().as_ptr();
        let mut empty = Relation::new(2);
        empty.adopt(b);
        assert!(std::ptr::eq(ptr, empty.values_flat().as_ptr()));
        assert_eq!(empty.len(), 2);
    }

    #[test]
    fn dedup_preserves_first() {
        let mut r = ft(&[(1, 2), (1, 2), (2, 3)]);
        r.dedup();
        assert_eq!(r.len(), 2);
        assert_eq!(r.row(0), &[Value::Id(1), Value::Id(2)]);
    }

    #[test]
    fn dedup_compacts_in_place_preserving_order() {
        // interleaved duplicates across a larger relation: order of first
        // occurrences must survive the in-place compaction
        let mut pairs = Vec::new();
        for i in 0..100u32 {
            pairs.push((i % 7, i % 5));
        }
        let mut r = ft(&pairs);
        r.dedup();
        // reference: order-preserving dedup via an owned set
        let mut seen = std::collections::HashSet::new();
        let expect: Vec<(u32, u32)> = pairs.iter().copied().filter(|p| seen.insert(*p)).collect();
        let got: Vec<(u32, u32)> = r
            .rows()
            .map(|t| (t[0].as_id().unwrap(), t[1].as_id().unwrap()))
            .collect();
        assert_eq!(got, expect);
        assert_eq!(r.values_flat().len(), r.len() * 2, "buffer truncated");
    }

    /// Over rows of every value kind (so equal hashes and equal rows both
    /// occur), `dedup` equals first-occurrence dedup through an owned
    /// `HashSet<Vec<Value>>`, row for row and in order.
    #[test]
    fn dedup_equals_first_occurrence_through_a_hash_set() {
        let pool = [
            Value::Null,
            Value::Doc,
            Value::Id(1),
            Value::Code(1),
            Value::Id(2),
            Value::Code(2),
        ];
        let mut x = 0xDED0_u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for rows in [0usize, 1, 2, 300] {
            let mut r = Relation::new(2);
            for _ in 0..rows {
                let a = pool[(next() % pool.len() as u64) as usize];
                let b = pool[(next() % pool.len() as u64) as usize];
                r.push(vec![a, b]);
            }
            let mut seen = std::collections::HashSet::new();
            let expect: Vec<Tuple> = r
                .rows()
                .map(|t| t.to_vec())
                .filter(|t| seen.insert(t.clone()))
                .collect();
            r.dedup();
            let got: Vec<Tuple> = r.rows().map(|t| t.to_vec()).collect();
            assert_eq!(got, expect, "{rows} rows");
            assert_eq!(r.values_flat().len(), r.len() * 2, "buffer truncated");
        }
    }

    #[test]
    fn value_set() {
        let r = ft(&[(1, 2), (2, 3)]);
        let s = r.value_set(1);
        assert!(s.contains(&Value::Id(2)) && s.contains(&Value::Id(3)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn set_eq_ignores_order_and_dupes() {
        let a = ft(&[(1, 2), (2, 3), (1, 2)]);
        let b = ft(&[(2, 3), (1, 2)]);
        assert!(a.set_eq(&b));
        let c = ft(&[(1, 2)]);
        assert!(!a.set_eq(&c));
    }
}
