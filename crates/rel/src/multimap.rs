//! Key → rows tables for the executor, in two allocations per table.
//!
//! Every per-execution hash table the executor builds answers one question:
//! *which rows hold this key, in row order?* Mapping each key to its own
//! `Vec<u32>` answers it with one heap allocation per distinct key — on a
//! 60 000-row build side that is 60 000 allocations per join, per query.
//!
//! * [`RowMultimap`] chains the rows instead: a hash map from the key to the
//!   **first** row holding it plus one `next` array threading each row to the
//!   next one with an equal key. It serves the hash-join build sides, the
//!   `Database`'s load-time F/T indexes and `Relation::dedup`, whose keys
//!   are arbitrary values.
//! * [`Csr`] is the same idea for keys that are already dense `u32` codes
//!   (the interned nodes of the fixpoint operators): offsets + targets, no
//!   hashing at all, neighbours contiguous.
//!
//! Both hand a key's rows back in ascending row order — exactly the order
//! the per-key `Vec` pushes produced — so every operator above them keeps
//! its output row order.

use crate::fxhash::{fx_map_with_capacity, FxHashMap};
use std::collections::hash_map::Entry;
use std::hash::Hash;

/// End-of-chain marker (no relation reaches `u32::MAX` rows; checked in
/// [`RowMultimap::with_rows`]).
const NO_ROW: u32 = u32::MAX;

/// A multimap from keys to row numbers: `head[key]` is the first row of the
/// key's chain, `next[row]` the row after it.
#[derive(Debug)]
pub(crate) struct RowMultimap<K> {
    head: FxHashMap<K, u32>,
    next: Vec<u32>,
}

impl<K: Hash + Eq> RowMultimap<K> {
    /// An empty table over rows `0..rows`.
    pub(crate) fn with_rows(rows: usize) -> Self {
        assert!(rows <= NO_ROW as usize, "row numbers must fit below NO_ROW");
        RowMultimap {
            head: fx_map_with_capacity(rows),
            next: vec![NO_ROW; rows],
        }
    }

    /// The table of rows `0..rows` under `key_of`; a row whose key is `None`
    /// (a NULL join key) is left out. Rows are threaded **back to front**, so
    /// each chain starts at the key's lowest row and ascends.
    pub(crate) fn build(rows: usize, mut key_of: impl FnMut(usize) -> Option<K>) -> Self {
        let mut map = Self::with_rows(rows);
        for row in (0..rows).rev() {
            if let Some(key) = key_of(row) {
                map.next[row] = map.head.insert(key, row as u32).unwrap_or(NO_ROW);
            }
        }
        map
    }

    /// The rows holding `key`, ascending. `None` — a NULL probe key — holds
    /// no rows, like a key that was never inserted.
    #[inline]
    pub(crate) fn rows_of(&self, key: Option<&K>) -> Chain<'_> {
        Chain {
            next: &self.next,
            at: key
                .and_then(|k| self.head.get(k))
                .copied()
                .unwrap_or(NO_ROW),
        }
    }

    /// Put `row` in front of `key`'s chain unless `same` holds for a row
    /// already on it; returns whether `row` went in. One hash lookup either
    /// way — this is `dedup`'s "seen before?" step, where `key` is a row
    /// hash and `same` compares the actual rows. Each row may go in once.
    #[inline]
    pub(crate) fn insert_unless(
        &mut self,
        key: K,
        row: u32,
        same: impl FnMut(u32) -> bool,
    ) -> bool {
        match self.head.entry(key) {
            Entry::Occupied(mut first) => {
                let mut chain = Chain {
                    next: &self.next,
                    at: *first.get(),
                };
                if chain.any(same) {
                    return false;
                }
                self.next[row as usize] = first.insert(row);
            }
            Entry::Vacant(slot) => {
                slot.insert(row);
            }
        }
        true
    }
}

/// The rows of one key, in chain order.
pub(crate) struct Chain<'m> {
    next: &'m [u32],
    at: u32,
}

impl Iterator for Chain<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.at == NO_ROW {
            return None;
        }
        let row = self.at;
        self.at = self.next[row as usize];
        Some(row)
    }
}

/// Adjacency lists over dense node codes in compressed-sparse-row form:
/// node `n`'s neighbours are `targets[offsets[n]..offsets[n + 1]]`, in the
/// order its edges were listed.
pub(crate) struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    /// Adjacency of `edges` (`(from, to)`, every `from < nodes`): a stable
    /// counting sort by `from`, two passes over the edge list.
    pub(crate) fn build(nodes: usize, edges: impl Iterator<Item = (u32, u32)> + Clone) -> Self {
        // Count into slot `from + 2`; after the prefix sum slot `from + 1`
        // is where node `from`'s run starts, and filling advances it to
        // where the run ends — which is slot `from + 1`'s final meaning.
        let mut offsets = vec![0u32; nodes + 2];
        let mut total = 0usize;
        for (from, _) in edges.clone() {
            offsets[from as usize + 2] += 1;
            total += 1;
        }
        assert!(total <= u32::MAX as usize, "edge offsets must fit in u32");
        for n in 1..offsets.len() {
            offsets[n] += offsets[n - 1];
        }
        let mut targets = vec![0u32; total];
        for (from, to) in edges {
            let at = &mut offsets[from as usize + 1];
            targets[*at as usize] = to;
            *at += 1;
        }
        offsets.truncate(nodes + 1);
        Csr { offsets, targets }
    }

    /// Node `node`'s neighbours; a node beyond the ones the table was built
    /// over has none.
    #[inline]
    pub(crate) fn neighbors(&self, node: u32) -> &[u32] {
        let n = node as usize;
        if n >= self.offsets.len() - 1 {
            return &[];
        }
        &self.targets[self.offsets[n] as usize..self.offsets[n + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// The chained table equals a `HashMap<K, Vec<u32>>` filled by pushes:
    /// same keys, and for every key the same rows in the same (ascending)
    /// order; unkeyed rows and absent keys hold nothing.
    #[test]
    fn chained_rows_equal_pushed_vectors_key_by_key() {
        let mut step = xorshift(0xC0FFEE);
        for rows in [0usize, 1, 7, 500] {
            // many duplicates (keys 0..13), about one row in eight unkeyed
            let keys: Vec<Option<u64>> = (0..rows)
                .map(|_| Some(step() % 13).filter(|_| !step().is_multiple_of(8)))
                .collect();
            let mut pushed: HashMap<u64, Vec<u32>> = HashMap::new();
            for (row, key) in keys.iter().enumerate() {
                if let Some(k) = key {
                    pushed.entry(*k).or_default().push(row as u32);
                }
            }
            let chained = RowMultimap::build(rows, |row| keys[row]);
            assert_eq!(chained.head.len(), pushed.len(), "same key set");
            for (key, want) in &pushed {
                let got: Vec<u32> = chained.rows_of(Some(key)).collect();
                assert_eq!(&got, want, "rows of key {key} in push order");
            }
            assert_eq!(chained.rows_of(Some(&99)).count(), 0, "absent key");
            assert_eq!(chained.rows_of(None).count(), 0, "NULL probe key");
        }
    }

    /// `insert_unless` is a set insert under caller-supplied equality: with
    /// colliding keys (`v % 4`) and `same` comparing the values themselves,
    /// exactly the first occurrence of each value goes in.
    #[test]
    fn insert_unless_keeps_first_occurrences_under_collisions() {
        let mut step = xorshift(0xDED0);
        let values: Vec<u64> = (0..400).map(|_| step() % 40).collect();
        let mut kept: Vec<u64> = Vec::new();
        let mut table: RowMultimap<u64> = RowMultimap::with_rows(values.len());
        for &v in &values {
            let row = kept.len() as u32;
            if table.insert_unless(v % 4, row, |k| kept[k as usize] == v) {
                kept.push(v);
            }
        }
        let mut seen = std::collections::HashSet::new();
        let want: Vec<u64> = values.iter().copied().filter(|v| seen.insert(*v)).collect();
        assert_eq!(kept, want);
    }

    /// CSR adjacency equals per-node pushed vectors, node by node and in
    /// edge order; nodes past the end have no neighbours.
    #[test]
    fn csr_equals_pushed_adjacency() {
        let mut step = xorshift(0xC5A);
        for (nodes, edges) in [(0usize, 0usize), (1, 3), (40, 300), (40, 5)] {
            let list: Vec<(u32, u32)> = (0..edges)
                .map(|_| ((step() % nodes as u64) as u32, (step() % 1000) as u32))
                .collect();
            let mut pushed = vec![Vec::new(); nodes];
            for &(from, to) in &list {
                pushed[from as usize].push(to);
            }
            let csr = Csr::build(nodes, list.iter().copied());
            for (node, want) in pushed.iter().enumerate() {
                assert_eq!(csr.neighbors(node as u32), want.as_slice(), "node {node}");
            }
            assert!(csr.neighbors(nodes as u32).is_empty());
            assert!(csr.neighbors(u32::MAX).is_empty());
        }
    }
}
