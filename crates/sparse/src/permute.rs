//! Row/column permutations and degree sorting.
//!
//! HyMM's only preprocessing step is **degree sorting** (paper Table I):
//! graph nodes are reordered by descending degree so that the adjacency
//! matrix concentrates its dense rows/columns at the top-left, which the
//! region tiling of [`crate::tiling`] then exploits. This module provides a
//! validated [`Permutation`] type and the sorting constructor.

use crate::coo::Coo;
use crate::csr::Csr;
use crate::error::SparseError;

/// A validated bijection on `0..n`, applied to matrix rows and/or columns.
///
/// `perm[new_index] = old_index`: entry `i` of the permutation names which
/// original element lands at position `i` after permuting (the "gather"
/// convention used by sorting).
///
/// # Example
///
/// ```
/// use hymm_sparse::Permutation;
///
/// # fn main() -> Result<(), hymm_sparse::SparseError> {
/// let p = Permutation::new(vec![2, 0, 1])?;
/// assert_eq!(p.apply_index(2), 0); // old index 2 lands at new position 0
/// assert_eq!(p.source_index(1), 0); // new position 1 holds old index 0
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    /// `gather[new] = old`
    gather: Vec<u32>,
    /// `scatter[old] = new`
    scatter: Vec<u32>,
}

impl Permutation {
    /// Creates a permutation from a gather vector (`gather[new] = old`).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidPermutation`] if the vector is not a
    /// bijection on `0..len`.
    pub fn new(gather: Vec<u32>) -> Result<Permutation, SparseError> {
        let n = gather.len();
        let mut seen = vec![false; n];
        for &old in &gather {
            let old = old as usize;
            if old >= n || seen[old] {
                return Err(SparseError::InvalidPermutation {
                    expected_len: n,
                    actual_len: n,
                });
            }
            seen[old] = true;
        }
        let mut scatter = vec![0u32; n];
        for (new, &old) in gather.iter().enumerate() {
            scatter[old as usize] = new as u32;
        }
        Ok(Permutation { gather, scatter })
    }

    /// The identity permutation on `0..n`.
    pub fn identity(n: usize) -> Permutation {
        let v: Vec<u32> = (0..n as u32).collect();
        Permutation {
            gather: v.clone(),
            scatter: v,
        }
    }

    /// Orders nodes by descending degree, ties by ascending index, with a
    /// stable counting sort: one bucket per degree from the largest down,
    /// filled in ascending node order.
    ///
    /// `degrees` must count every entry of a matrix once for its row and
    /// once for its column, so they sum to `2·nnz` and the bucket count,
    /// the largest degree plus one, is at most `2·nnz + 1`.
    fn by_descending_degree(degrees: &[usize]) -> Permutation {
        let max = degrees.iter().copied().max().unwrap_or(0);
        // `next[max - d]`: the next free sorted slot for degree `d`.
        let mut next = vec![0usize; max + 1];
        for &d in degrees {
            next[max - d] += 1;
        }
        let mut start = 0;
        for slot in &mut next {
            let count = *slot;
            *slot = start;
            start += count;
        }
        let mut gather = vec![0u32; degrees.len()];
        let mut scatter = vec![0u32; degrees.len()];
        for (old, &d) in degrees.iter().enumerate() {
            let new = next[max - d];
            next[max - d] += 1;
            gather[new] = old as u32;
            scatter[old] = new as u32;
        }
        Permutation { gather, scatter }
    }

    /// Domain size.
    pub fn len(&self) -> usize {
        self.gather.len()
    }

    /// Returns `true` if the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.gather.is_empty()
    }

    /// New position of original index `old`.
    ///
    /// # Panics
    ///
    /// Panics if `old >= self.len()`.
    pub fn apply_index(&self, old: usize) -> usize {
        self.scatter[old] as usize
    }

    /// Original index that lands at `new`.
    ///
    /// # Panics
    ///
    /// Panics if `new >= self.len()`.
    pub fn source_index(&self, new: usize) -> usize {
        self.gather[new] as usize
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> Permutation {
        Permutation {
            gather: self.scatter.clone(),
            scatter: self.gather.clone(),
        }
    }

    /// Gather vector (`gather[new] = old`).
    pub fn as_gather(&self) -> &[u32] {
        &self.gather
    }

    /// Scatter vector (`scatter[old] = new`).
    pub(crate) fn as_scatter(&self) -> &[u32] {
        &self.scatter
    }

    /// Applies the permutation symmetrically to rows and columns of a square
    /// matrix (a graph relabelling).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if the matrix is not square or
    /// its dimension differs from the permutation length.
    pub fn apply_symmetric(&self, m: &Coo) -> Result<Coo, SparseError> {
        if m.rows() != m.cols() || m.rows() != self.len() {
            return Err(SparseError::ShapeMismatch {
                left: (m.rows(), m.cols()),
                right: (self.len(), self.len()),
            });
        }
        let entries = m
            .entries()
            .iter()
            .map(|&(r, c, v)| (self.scatter[r as usize], self.scatter[c as usize], v))
            .collect();
        Coo::from_entries(m.rows(), m.cols(), entries)
    }

    /// Applies the permutation to the rows of a matrix only.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if `m.rows() != self.len()`.
    pub fn apply_rows(&self, m: &Coo) -> Result<Coo, SparseError> {
        if m.rows() != self.len() {
            return Err(SparseError::ShapeMismatch {
                left: (m.rows(), m.cols()),
                right: (self.len(), self.len()),
            });
        }
        let entries = m
            .entries()
            .iter()
            .map(|&(r, c, v)| (self.scatter[r as usize], c, v))
            .collect();
        Coo::from_entries(m.rows(), m.cols(), entries)
    }
}

/// Builds the degree-sorting permutation for a square adjacency matrix:
/// nodes ordered by descending total degree (row nnz + column nnz, i.e.
/// out-degree + in-degree; for symmetric graphs this is twice the degree and
/// yields the same order), ties by ascending index. Duplicate triplets each
/// count.
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] if the matrix is not square.
pub fn degree_sort_permutation(adj: &Coo) -> Result<Permutation, SparseError> {
    check_square(adj.rows(), adj.cols())?;
    let mut deg = vec![0usize; adj.rows()];
    for &(r, c, _) in adj.entries() {
        deg[r as usize] += 1;
        deg[c as usize] += 1;
    }
    Ok(Permutation::by_descending_degree(&deg))
}

/// [`degree_sort_permutation`] for a matrix in CSR form: the row lengths
/// plus one pass counting the column indices.
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] if the matrix is not square.
pub fn csr_degree_sort_permutation(adj: &Csr) -> Result<Permutation, SparseError> {
    check_square(adj.rows(), adj.cols())?;
    let mut deg: Vec<usize> = adj.row_ptr().windows(2).map(|w| w[1] - w[0]).collect();
    for &c in adj.col_idx() {
        deg[c as usize] += 1;
    }
    Ok(Permutation::by_descending_degree(&deg))
}

fn check_square(rows: usize, cols: usize) -> Result<(), SparseError> {
    if rows != cols {
        return Err(SparseError::ShapeMismatch {
            left: (rows, cols),
            right: (cols, rows),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_non_bijection() {
        assert!(Permutation::new(vec![0, 0, 1]).is_err());
        assert!(Permutation::new(vec![0, 3]).is_err());
        assert!(Permutation::new(vec![1, 0]).is_ok());
    }

    #[test]
    fn identity_is_noop() {
        let p = Permutation::identity(4);
        for i in 0..4 {
            assert_eq!(p.apply_index(i), i);
            assert_eq!(p.source_index(i), i);
        }
    }

    #[test]
    fn inverse_round_trips() {
        let p = Permutation::new(vec![2, 0, 3, 1]).unwrap();
        let inv = p.inverse();
        for i in 0..4 {
            assert_eq!(inv.apply_index(p.apply_index(i)), i);
        }
    }

    #[test]
    fn descending_degree_breaks_ties_by_index() {
        let p = Permutation::by_descending_degree(&[1, 5, 3, 5]);
        // descending with stable tie-break: old indices 1, 3 (both 5), 2, 0
        assert_eq!(p.as_gather(), &[1, 3, 2, 0]);
        assert_eq!(p.as_scatter(), &[3, 0, 2, 1]);
    }

    /// The stable comparison sort the counting sort replaced.
    fn comparison_sort(degrees: &[usize]) -> Vec<u32> {
        let mut gather: Vec<u32> = (0..degrees.len() as u32).collect();
        gather.sort_by(|&a, &b| {
            degrees[b as usize]
                .cmp(&degrees[a as usize])
                .then_with(|| a.cmp(&b))
        });
        gather
    }

    #[test]
    fn counting_sort_matches_the_comparison_sort() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_pcg::Pcg64::seed_from_u64(27);
        for case in 0..300 {
            let n = rng.gen_range(0..120usize);
            // Narrow ranges force long runs of ties; wide ones leave gaps
            // between the occupied buckets.
            let top = [1, 3, 8, 2 * n + 1][case % 4];
            let degrees: Vec<usize> = (0..n).map(|_| rng.gen_range(0..=top)).collect();
            let got = Permutation::by_descending_degree(&degrees);
            let want = Permutation::new(comparison_sort(&degrees)).unwrap();
            assert_eq!(got, want, "degrees {degrees:?}");
        }
    }

    #[test]
    fn csr_and_coo_degree_sorts_agree() {
        let m = Coo::from_triplets(
            5,
            5,
            [
                (0, 1, 1.0),
                (1, 0, 1.0),
                (4, 4, 2.0),
                (2, 4, 1.0),
                (4, 1, 1.0),
            ],
        )
        .unwrap();
        let want = degree_sort_permutation(&m).unwrap();
        assert_eq!(
            csr_degree_sort_permutation(&Csr::from_coo(&m)).unwrap(),
            want
        );
        assert_eq!(want.as_gather(), &[4, 1, 0, 2, 3]);
        let wide = Csr::from_coo(&Coo::from_triplets(2, 3, [(0, 2, 1.0)]).unwrap());
        assert!(csr_degree_sort_permutation(&wide).is_err());
    }

    #[test]
    fn apply_symmetric_relabels_graph() {
        // edge 0→1 in a 2-node graph; swap labels.
        let m = Coo::from_triplets(2, 2, [(0, 1, 1.0)]).unwrap();
        let p = Permutation::new(vec![1, 0]).unwrap();
        let out = p.apply_symmetric(&m).unwrap();
        assert_eq!(out.iter().next(), Some((1, 0, 1.0)));
    }

    #[test]
    fn apply_symmetric_requires_square() {
        let m = Coo::from_triplets(2, 3, [(0, 1, 1.0)]).unwrap();
        let p = Permutation::identity(2);
        assert!(p.apply_symmetric(&m).is_err());
    }

    #[test]
    fn degree_sort_puts_hub_first() {
        // star graph: node 3 connected to everyone.
        let mut m = Coo::new(4, 4).unwrap();
        for i in 0..3 {
            m.push(3, i, 1.0).unwrap();
            m.push(i, 3, 1.0).unwrap();
        }
        let p = degree_sort_permutation(&m).unwrap();
        assert_eq!(p.source_index(0), 3);
    }

    #[test]
    fn degree_sort_preserves_edge_count() {
        let m = Coo::from_triplets(3, 3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)]).unwrap();
        let p = degree_sort_permutation(&m).unwrap();
        let sorted = p.apply_symmetric(&m).unwrap();
        assert_eq!(sorted.nnz(), m.nnz());
    }
}
