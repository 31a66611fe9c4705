//! `CycleE` — Tarjan's path-expression algorithm (paper Fig. 6, \[61\]):
//! computes `rec(A, B)`, a **regular expression** (variable-free extended
//! XPath) representing all paths from `A` to `B` in the DTD graph.
//!
//! ```text
//! M[i,j,0] = edge label (∪ ε if i = j)
//! M[i,j,k] = M[i,j,k−1] ∪ M[i,k,k−1] · (M[k,k,k−1])* · M[k,j,k−1]
//! ```
//!
//! Lemma 4.1: Θ(n³·2ⁿ) time / Θ(n²·2ⁿ) space in the worst case, because
//! sub-expressions are *copied* at every level. The implementation is
//! size-capped so benchmark runs degrade into an error instead of an OOM.
//! A path's word is the sequence of node labels *after* the start node, so
//! `rec(A,B)` evaluated at an `A`-element is equivalent to `//B`
//! (ε ∈ rec(A,A) — descendant-or-self includes self).

use crate::graph::{TNode, TransGraph};
use std::fmt;
use x2s_exp::{simplify, Exp};

/// CycleE failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CycleEError {
    /// An intermediate regular expression exceeded the size cap.
    TooLarge {
        /// the cap
        cap: usize,
        /// size reached
        reached: usize,
    },
}

impl fmt::Display for CycleEError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CycleEError::TooLarge { cap, reached } => {
                write!(
                    f,
                    "CycleE expression exceeded cap: {reached} > {cap} AST nodes"
                )
            }
        }
    }
}

impl std::error::Error for CycleEError {}

/// Compute `rec(a, b)` for every node pair at once, as plain regular
/// expressions, with intermediate results capped at `cap` AST nodes:
/// `rec_matrix(g, cap)?[a][b]` is `rec(a, b)`. This is the paper's
/// algorithm as stated — one fill of the whole matrix, whose cost Lemma
/// 4.1 bounds — and every cell a translation reads comes from that fill.
///
/// The document node never has incoming edges, so it is skipped as an
/// intermediate node `k` (harmless: no path routes through it).
pub fn rec_matrix(g: &TransGraph<'_>, cap: usize) -> Result<Vec<Vec<Exp>>, CycleEError> {
    let n = g.len();
    // M[i][j] for the current level; level 0 = direct edges (+ ε on the
    // diagonal).
    let mut m: Vec<Vec<Exp>> = vec![vec![Exp::EmptySet; n]; n];
    for (i, row) in m.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            let mut e = if g.has_edge(i, j) {
                Exp::label(g.name(j))
            } else {
                Exp::EmptySet
            };
            if i == j {
                e = Exp::Epsilon.or(e);
            }
            *cell = e;
        }
    }

    // Only element nodes can be intermediate (the doc node has no
    // in-edges).
    for k in 0..n {
        if g.elem(k).is_none() {
            continue;
        }
        let loop_k = m[k][k].clone().star();
        let mut next = m.clone();
        for i in 0..n {
            if m[i][k].is_empty_set() {
                continue;
            }
            for j in 0..n {
                if m[k][j].is_empty_set() {
                    continue;
                }
                let via = m[i][k].clone().then(loop_k.clone()).then(m[k][j].clone());
                let combined = simplify(&m[i][j].clone().or(via));
                let size = combined.size();
                if size > cap {
                    return Err(CycleEError::TooLarge { cap, reached: size });
                }
                next[i][j] = combined;
            }
        }
        m = next;
    }
    Ok(m.iter()
        .map(|row| row.iter().map(simplify).collect())
        .collect())
}

/// Word-language helpers for validating `rec(A,B)` constructions: they
/// enumerate bounded-length path words directly on the graph (ground truth)
/// and bounded-length words of a variable-free expression. Used by tests and
/// the Table 5 bench to check CycleE/CycleEX agree as languages.
pub mod words {
    use super::*;
    use std::collections::BTreeSet;

    /// Enumerate all label-words of paths from `a` to `b` up to a length
    /// bound, directly on the graph (ground truth).
    pub fn path_words(
        g: &TransGraph<'_>,
        a: TNode,
        b: TNode,
        max_len: usize,
    ) -> BTreeSet<Vec<String>> {
        let mut out = BTreeSet::new();
        let mut stack: Vec<(TNode, Vec<String>)> = vec![(a, vec![])];
        while let Some((node, word)) = stack.pop() {
            if node == b {
                out.insert(word.clone());
            }
            if word.len() >= max_len {
                continue;
            }
            for c in g.children(node) {
                let mut w = word.clone();
                w.push(g.name(c).to_string());
                stack.push((c, w));
            }
        }
        out
    }

    /// Enumerate the words of a variable-free Exp up to a length bound.
    pub fn exp_words(e: &Exp, max_len: usize) -> BTreeSet<Vec<String>> {
        match e {
            Exp::Epsilon => BTreeSet::from([vec![]]),
            Exp::EmptySet => BTreeSet::new(),
            Exp::Label(a) => BTreeSet::from([vec![a.clone()]]),
            Exp::Var(_) => panic!("exp_words requires a variable-free expression"),
            Exp::Seq(parts) => {
                let mut acc = BTreeSet::from([vec![]]);
                for p in parts {
                    let rhs = exp_words(p, max_len);
                    let mut next = BTreeSet::new();
                    for l in &acc {
                        for r in &rhs {
                            if l.len() + r.len() <= max_len {
                                let mut w = l.clone();
                                w.extend(r.iter().cloned());
                                next.insert(w);
                            }
                        }
                    }
                    acc = next;
                }
                acc
            }
            Exp::Union(parts) => {
                let mut out = BTreeSet::new();
                for p in parts {
                    out.extend(exp_words(p, max_len));
                }
                out
            }
            Exp::Star(inner) => {
                let base = exp_words(inner, max_len);
                let mut out = BTreeSet::from([vec![]]);
                loop {
                    let mut next = BTreeSet::new();
                    for l in &out {
                        for r in &base {
                            if r.is_empty() {
                                continue;
                            }
                            if l.len() + r.len() <= max_len {
                                let mut w = l.clone();
                                w.extend(r.iter().cloned());
                                if !out.contains(&w) {
                                    next.insert(w);
                                }
                            }
                        }
                    }
                    if next.is_empty() {
                        break;
                    }
                    out.extend(next);
                }
                out
            }
            Exp::Qualified(inner, _) => exp_words(inner, max_len),
        }
    }
}

#[cfg(test)]
/// The per-pair reference [`rec_matrix`] is tested against: the whole
/// elimination, then one cell.
pub(crate) fn rec_regular(
    g: &TransGraph<'_>,
    a: TNode,
    b: TNode,
    cap: usize,
) -> Result<Exp, CycleEError> {
    let n = g.len();
    let mut m: Vec<Vec<Exp>> = vec![vec![Exp::EmptySet; n]; n];
    for (i, row) in m.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            let mut e = if g.has_edge(i, j) {
                Exp::label(g.name(j))
            } else {
                Exp::EmptySet
            };
            if i == j {
                e = Exp::Epsilon.or(e);
            }
            *cell = e;
        }
    }
    for k in 0..n {
        if g.elem(k).is_none() {
            continue;
        }
        let loop_k = m[k][k].clone().star();
        let mut next = m.clone();
        for i in 0..n {
            if m[i][k].is_empty_set() {
                continue;
            }
            for j in 0..n {
                if m[k][j].is_empty_set() {
                    continue;
                }
                let via = m[i][k].clone().then(loop_k.clone()).then(m[k][j].clone());
                let combined = simplify(&m[i][j].clone().or(via));
                let size = combined.size();
                if size > cap {
                    return Err(CycleEError::TooLarge { cap, reached: size });
                }
                next[i][j] = combined;
            }
        }
        m = next;
    }
    Ok(simplify(&m[a][b]))
}

/// Every sample DTD but the 14-type `dept`, whose per-pair reference is
/// slow in debug builds.
#[cfg(test)]
pub(crate) fn samples_but_dept() -> Vec<x2s_dtd::Dtd> {
    use x2s_dtd::samples;
    vec![
        samples::dept_simplified(),
        samples::cross(),
        samples::bioml_a(),
        samples::bioml_b(),
        samples::bioml_c(),
        samples::bioml_d(),
        samples::gedml(),
        samples::example_3_2_view(),
        samples::example_3_2_source(),
    ]
}

#[cfg(test)]
mod tests {
    use super::words::{exp_words, path_words};
    use super::*;
    use std::collections::BTreeSet;
    use x2s_dtd::samples;

    /// Every cell of the matrix equals the per-pair reference.
    fn assert_matrix_matches_reference(dtd: &x2s_dtd::Dtd) {
        let g = TransGraph::new(dtd);
        let matrix = rec_matrix(&g, 1_000_000).unwrap();
        assert_eq!(matrix.len(), g.len());
        for (a, row) in matrix.iter().enumerate() {
            for (b, cell) in row.iter().enumerate() {
                let want = rec_regular(&g, a, b, 1_000_000).unwrap();
                assert_eq!(*cell, want, "rec({}, {})", g.name(a), g.name(b));
            }
        }
    }

    #[test]
    fn matrix_cells_equal_the_per_pair_reference() {
        for dtd in samples_but_dept() {
            assert_matrix_matches_reference(&dtd);
        }
        assert_matrix_matches_reference(&samples::complete_dag(5));
    }

    /// The 14-type `dept` costs 15² whole eliminations here.
    #[test]
    #[ignore = "slow in debug builds: run with --ignored"]
    fn matrix_cells_equal_the_per_pair_reference_on_dept() {
        assert_matrix_matches_reference(&samples::dept());
    }

    fn check_language(dtd: &x2s_dtd::Dtd, from: &str, to: &str, max_len: usize) {
        let g = TransGraph::new(dtd);
        let a = if from == "#doc" {
            g.doc()
        } else {
            g.node(dtd.elem(from).unwrap())
        };
        let b = g.node(dtd.elem(to).unwrap());
        let exp = rec_matrix(&g, 1_000_000).unwrap()[a][b].clone();
        let expect = path_words(&g, a, b, max_len);
        let got = exp_words(&exp, max_len);
        assert_eq!(got, expect, "language mismatch for rec({from},{to})");
    }

    #[test]
    fn rec_language_on_cross() {
        let d = samples::cross();
        check_language(&d, "a", "d", 6);
        check_language(&d, "b", "c", 6);
        check_language(&d, "a", "a", 6);
        check_language(&d, "#doc", "d", 6);
    }

    #[test]
    fn rec_language_on_dept_simplified() {
        let d = samples::dept_simplified();
        check_language(&d, "dept", "project", 5);
        check_language(&d, "course", "course", 5);
    }

    #[test]
    fn rec_includes_epsilon_iff_same_node() {
        let d = samples::cross();
        let g = TransGraph::new(&d);
        let a = g.node(d.elem("a").unwrap());
        let dd = g.node(d.elem("d").unwrap());
        let m = rec_matrix(&g, 1_000_000).unwrap();
        assert!(exp_words(&m[a][a], 0).contains(&vec![]), "ε ∈ rec(a,a)");
        assert!(!exp_words(&m[a][dd], 0).contains(&vec![]), "ε ∉ rec(a,d)");
    }

    #[test]
    fn unreachable_gives_empty_set() {
        let d = samples::cross();
        let g = TransGraph::new(&d);
        let dd = g.node(d.elem("d").unwrap());
        // d reaches c (d→c) but nothing reaches #doc
        let m = rec_matrix(&g, 1_000_000).unwrap();
        assert!(m[dd][g.doc()].is_empty_set());
    }

    #[test]
    fn cap_triggers_on_complete_dag() {
        // Example 3.3 / 4.2: CycleE blows up on the complete DAG family.
        let d = samples::complete_dag(14);
        let g = TransGraph::new(&d);
        let r = rec_matrix(&g, 2_000);
        assert!(matches!(r, Err(CycleEError::TooLarge { .. })));
    }

    #[test]
    fn dag_small_matches_example_4_1_shape() {
        // n = 4: 1/4 ∪ 1/2/4 ∪ (1/3 ∪ 1/2/3)/4 — language {A4, A2 A4, A3 A4, A2 A3 A4}
        let d = samples::complete_dag(4);
        let g = TransGraph::new(&d);
        let a1 = g.node(d.elem("A1").unwrap());
        let a4 = g.node(d.elem("A4").unwrap());
        let exp = &rec_matrix(&g, 100_000).unwrap()[a1][a4];
        let words = exp_words(exp, 4);
        let expect: BTreeSet<Vec<String>> = [
            vec!["A4"],
            vec!["A2", "A4"],
            vec!["A3", "A4"],
            vec!["A2", "A3", "A4"],
        ]
        .into_iter()
        .map(|w| w.into_iter().map(String::from).collect())
        .collect();
        assert_eq!(words, expect);
    }
}
