//! `CycleEX` — the paper's variable-introducing variant of Tarjan's
//! algorithm (Fig. 7, Theorem 4.1): computes `rec(A,B)` for **all pairs at
//! once** as an extended XPath equation system of `O(n³)` constant-size
//! equations, in `O(n³ log n)` time — against CycleE's exponential copying.
//!
//! Implementation detail: we maintain the *ε-free part* `M'[i,j,k]` of each
//! `M[i,j,k]` — ε belongs to `M[i,j,k]` exactly when `i = j`, so it never
//! needs storing. This keeps bare `ε` out of every equation (the SQL
//! compiler then never materializes an identity relation, §5.2 "Handling
//! (E)*") and mirrors the paper's `cycle(M[k,k,k−1])` which strips ε before
//! the closure. The ε-aware recurrence simplifies to:
//!
//! ```text
//! S_k        = (M'[k,k,k−1])*                      (one equation per k)
//! M'[i,j,k]  = M'[i,j,k−1] ∪ M'[i,k,k−1]/S_k/M'[k,j,k−1]   (i≠k, j≠k)
//! M'[k,j,k]  = S_k / M'[k,j,k−1]                   (absorbs the union)
//! M'[i,k,k]  = M'[i,k,k−1] / S_k
//! M'[k,k,k]  = M'[k,k,k−1] / S_k
//! ```
//!
//! Every right-hand side touches at most four variables, giving the
//! constant-size equations of Fig. 7.

use crate::graph::{TNode, TransGraph};
use x2s_exp::{simplify, Exp, ExtendedQuery};

/// All-pairs `rec` results over one translation graph. The expressions
/// reference variables of the [`ExtendedQuery`] the table was built into.
pub struct RecTable {
    /// ε-free expression per (from, to) pair.
    m: Vec<Vec<Exp>>,
}

impl RecTable {
    /// Build the table, pushing its equations into `query`.
    pub fn build_into(query: &mut ExtendedQuery, g: &TransGraph<'_>) -> RecTable {
        let n = g.len();
        let mut m: Vec<Vec<Exp>> = vec![vec![Exp::EmptySet; n]; n];
        for (i, row) in m.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                if g.has_edge(i, j) {
                    *cell = Exp::label(g.name(j));
                }
            }
        }

        for k in 0..n {
            if g.elem(k).is_none() {
                continue; // the doc node has no in-edges; never intermediate
            }
            // S_k = (M'[k,k,k-1])*
            let s_k = match simplify(&m[k][k]).star() {
                Exp::Epsilon => Exp::Epsilon,
                star => {
                    let v = query.push_equation(star, format!("S_{} = cycles at {}", k, g.name(k)));
                    Exp::Var(v)
                }
            };
            // snapshot of column k and row k at level k-1
            let col_k: Vec<Exp> = (0..n).map(|i| m[i][k].clone()).collect();
            let row_k: Vec<Exp> = (0..n).map(|j| m[k][j].clone()).collect();

            for i in 0..n {
                for j in 0..n {
                    let updated = if i == k && j == k {
                        simplify(&m[k][k].clone().then(s_k.clone()))
                    } else if i == k {
                        simplify(&s_k.clone().then(row_k[j].clone()))
                    } else if j == k {
                        simplify(&col_k[i].clone().then(s_k.clone()))
                    } else {
                        if col_k[i].is_empty_set() || row_k[j].is_empty_set() {
                            continue;
                        }
                        let via = col_k[i].clone().then(s_k.clone()).then(row_k[j].clone());
                        simplify(&m[i][j].clone().or(via))
                    };
                    if updated == m[i][j] {
                        continue;
                    }
                    m[i][j] = bind_if_large(query, updated, || {
                        format!("X[{},{},{}] paths {}→{}", i, j, k, g.name(i), g.name(j))
                    });
                }
            }
        }
        RecTable { m }
    }

    /// Build a standalone table with a fresh query (for tests/benches).
    pub fn standalone(g: &TransGraph<'_>) -> (ExtendedQuery, RecTable) {
        let mut q = ExtendedQuery::default();
        let table = RecTable::build_into(&mut q, g);
        (q, table)
    }

    /// The ε-free part of `rec(a, b)`. The full language is this plus ε
    /// exactly when `a == b` (descendant-or-self includes self).
    pub fn rec_eps_free(&self, a: TNode, b: TNode) -> &Exp {
        &self.m[a][b]
    }

    /// The full `rec(a, b)` expression, materializing the diagonal ε.
    pub fn rec_full(&self, a: TNode, b: TNode) -> Exp {
        if a == b {
            Exp::Epsilon.or(self.m[a][b].clone())
        } else {
            self.m[a][b].clone()
        }
    }
}

/// Keep matrix entries constant-size: atoms stay inline, anything larger is
/// bound to a fresh variable.
fn bind_if_large(query: &mut ExtendedQuery, exp: Exp, note: impl FnOnce() -> String) -> Exp {
    match exp {
        Exp::Epsilon | Exp::EmptySet | Exp::Label(_) | Exp::Var(_) => exp,
        other => Exp::Var(query.push_equation(other, note())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cyclee::rec_matrix;
    use crate::cyclee::words::{exp_words, path_words};
    use x2s_dtd::samples;
    use x2s_exp::to_regular;

    fn check_pair(dtd: &x2s_dtd::Dtd, from: &str, to: &str, max_len: usize) {
        let g = TransGraph::new(dtd);
        let a = if from == "#doc" {
            g.doc()
        } else {
            g.node(dtd.elem(from).unwrap())
        };
        let b = g.node(dtd.elem(to).unwrap());
        let (mut q, table) = RecTable::standalone(&g);
        q.result = table.rec_full(a, b);
        let pruned = q.pruned();
        let regular = to_regular(&pruned, 5_000_000).expect("elimination fits");
        let got = exp_words(&regular, max_len);
        let expect = path_words(&g, a, b, max_len);
        assert_eq!(got, expect, "rec({from},{to}) language mismatch");
    }

    #[test]
    fn languages_match_on_cross() {
        let d = samples::cross();
        check_pair(&d, "a", "d", 6);
        check_pair(&d, "b", "c", 6);
        check_pair(&d, "a", "a", 6);
        check_pair(&d, "#doc", "d", 6);
    }

    #[test]
    fn languages_match_on_dept() {
        let d = samples::dept_simplified();
        check_pair(&d, "dept", "project", 5);
        check_pair(&d, "course", "course", 5);
        check_pair(&d, "student", "project", 5);
    }

    #[test]
    fn languages_match_on_bioml_and_gedml() {
        let d = samples::bioml();
        check_pair(&d, "gene", "locus", 5);
        check_pair(&d, "gene", "dna", 5);
        let d = samples::gedml();
        check_pair(&d, "Even", "Data", 4);
    }

    #[test]
    fn agrees_with_cyclee() {
        // CycleE and CycleEX must denote the same languages (bounded check).
        let d = samples::bioml_b();
        let g = TransGraph::new(&d);
        let cyclee = rec_matrix(&g, 1_000_000).unwrap();
        for from in ["gene", "dna", "clone", "locus"] {
            for to in ["gene", "dna", "clone", "locus"] {
                let a = g.node(d.elem(from).unwrap());
                let b = g.node(d.elem(to).unwrap());
                let e_exp = &cyclee[a][b];
                let (mut q, table) = RecTable::standalone(&g);
                q.result = table.rec_full(a, b);
                let ex_exp = to_regular(&q.pruned(), 5_000_000).unwrap();
                assert_eq!(
                    exp_words(e_exp, 5),
                    exp_words(&ex_exp, 5),
                    "mismatch rec({from},{to})"
                );
            }
        }
    }

    #[test]
    fn polynomial_on_complete_dag_where_cyclee_blows_up() {
        // Example 4.2: CycleEX stays polynomial on the Example 3.3 family.
        let d = samples::complete_dag(14);
        let g = TransGraph::new(&d);
        let (mut q, table) = RecTable::standalone(&g);
        let a1 = g.node(d.elem("A1").unwrap());
        let a14 = g.node(d.elem("A14").unwrap());
        q.result = table.rec_full(a1, a14);
        let pruned = q.pruned();
        // total size stays tiny compared to the Θ(2ⁿ) of CycleE
        assert!(
            pruned.size() < 3_000,
            "CycleEX query unexpectedly large: {}",
            pruned.size()
        );
        assert!(rec_matrix(&g, 2_000).is_err(), "CycleE blows the same cap");
    }

    #[test]
    fn no_bare_epsilon_in_equations() {
        // the ε-free invariant: no equation rhs contains a bare ε operand
        let d = samples::gedml();
        let g = TransGraph::new(&d);
        let (q, _) = RecTable::standalone(&g);
        fn has_bare_eps(e: &Exp) -> bool {
            match e {
                Exp::Epsilon => true,
                Exp::EmptySet | Exp::Label(_) | Exp::Var(_) => false,
                Exp::Seq(ps) | Exp::Union(ps) => ps.iter().any(has_bare_eps),
                Exp::Star(inner) => has_bare_eps(inner),
                Exp::Qualified(inner, _) => has_bare_eps(inner),
            }
        }
        for eq in &q.equations {
            assert!(
                !has_bare_eps(&eq.rhs),
                "bare ε in {} = {}",
                eq.var.0,
                eq.rhs
            );
        }
    }

    #[test]
    fn unreachable_pairs_are_empty() {
        let d = samples::cross();
        let g = TransGraph::new(&d);
        let (_, table) = RecTable::standalone(&g);
        let dd = g.node(d.elem("d").unwrap());
        assert!(table.rec_eps_free(dd, g.doc()).is_empty_set());
    }

    #[test]
    fn equation_count_is_cubic_not_exponential() {
        for n in [4usize, 6, 8, 10] {
            let d = samples::complete_dag(n);
            let g = TransGraph::new(&d);
            let (q, _) = RecTable::standalone(&g);
            let bound = (g.len().pow(3) + g.len()) * 2;
            assert!(
                q.equations.len() <= bound,
                "n={n}: {} equations > bound {bound}",
                q.equations.len()
            );
        }
    }
}
