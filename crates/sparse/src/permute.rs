//! Row/column permutations and degree sorting.
//!
//! HyMM's only preprocessing step is **degree sorting** (paper Table I):
//! graph nodes are reordered by descending degree so that the adjacency
//! matrix concentrates its dense rows/columns at the top-left, which the
//! region tiling of [`crate::tiling`] then exploits. This module provides a
//! validated [`Permutation`] type and the sorting constructor.

use crate::coo::Coo;
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

    /// Builds the permutation that sorts indices by **descending** key,
    /// breaking ties by ascending original index (stable).
    pub fn sort_descending_by_key(keys: &[usize]) -> Permutation {
        let mut idx: Vec<u32> = (0..keys.len() as u32).collect();
        idx.sort_by(|&a, &b| {
            keys[b as usize]
                .cmp(&keys[a as usize])
                .then_with(|| a.cmp(&b))
        });
        let mut scatter = vec![0u32; keys.len()];
        for (new, &old) in idx.iter().enumerate() {
            scatter[old as usize] = new as u32;
        }
        Permutation {
            gather: idx,
            scatter,
        }
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
/// yields the same order).
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] if the matrix is not square.
pub fn degree_sort_permutation(adj: &Coo) -> Result<Permutation, SparseError> {
    if adj.rows() != adj.cols() {
        return Err(SparseError::ShapeMismatch {
            left: (adj.rows(), adj.cols()),
            right: (adj.cols(), adj.rows()),
        });
    }
    let mut deg = vec![0usize; adj.rows()];
    for (r, c, _) in adj.iter() {
        deg[r] += 1;
        deg[c] += 1;
    }
    Ok(Permutation::sort_descending_by_key(&deg))
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
    fn sort_descending_orders_keys() {
        let p = Permutation::sort_descending_by_key(&[1, 5, 3, 5]);
        // descending with stable tie-break: old indices 1, 3 (both 5), 2, 0
        assert_eq!(p.as_gather(), &[1, 3, 2, 0]);
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
