//! Coordinate-list (COO) sparse matrix.
//!
//! COO is the construction format: graph generators and dataset loaders emit
//! `(row, col, value)` triplets which are then converted to [`Csr`](crate::Csr)
//! or [`Csc`](crate::Csc) for the accelerator engines.

use crate::error::SparseError;

/// A sparse matrix stored as a list of `(row, col, value)` triplets.
///
/// Duplicate coordinates are allowed during construction; conversion to
/// CSR/CSC sums duplicates (the usual finite-element / graph-multigraph
/// convention).
///
/// # Example
///
/// ```
/// use hymm_sparse::Coo;
///
/// # fn main() -> Result<(), hymm_sparse::SparseError> {
/// let mut m = Coo::new(3, 3)?;
/// m.push(0, 1, 1.0)?;
/// m.push(2, 0, -2.5)?;
/// assert_eq!(m.nnz(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Coo {
    rows: usize,
    cols: usize,
    entries: Vec<(u32, u32, f32)>,
}

impl Coo {
    /// Creates an empty `rows x cols` COO matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::EmptyDimension`] if either dimension is zero,
    /// and [`SparseError::MalformedFormat`] if a dimension exceeds `u32::MAX`
    /// (indices are stored as `u32` to halve the index-stream footprint, as
    /// hardware sparse formats do).
    pub fn new(rows: usize, cols: usize) -> Result<Self, SparseError> {
        if rows == 0 || cols == 0 {
            return Err(SparseError::EmptyDimension);
        }
        if rows > u32::MAX as usize || cols > u32::MAX as usize {
            return Err(SparseError::MalformedFormat(
                "dimension exceeds u32 index space".to_string(),
            ));
        }
        Ok(Coo {
            rows,
            cols,
            entries: Vec::new(),
        })
    }

    /// Creates a COO matrix from an explicit triplet list.
    ///
    /// # Errors
    ///
    /// Returns an error if dimensions are zero or any coordinate is out of
    /// bounds.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f32)>,
    ) -> Result<Self, SparseError> {
        let mut m = Coo::new(rows, cols)?;
        for (r, c, v) in triplets {
            m.push(r, c, v)?;
        }
        Ok(m)
    }

    /// Creates a COO matrix from a whole entry list at once, checking every
    /// coordinate against the bounds in a single pass. Cheaper than
    /// [`Coo::push`] per entry when the entries are already materialised.
    ///
    /// # Errors
    ///
    /// Returns the errors of [`Coo::new`], or
    /// [`SparseError::IndexOutOfBounds`] for the first entry outside the
    /// matrix.
    pub fn from_entries(
        rows: usize,
        cols: usize,
        entries: Vec<(u32, u32, f32)>,
    ) -> Result<Self, SparseError> {
        let mut m = Coo::new(rows, cols)?;
        if let Some(&(r, c, _)) = entries
            .iter()
            .find(|&&(r, c, _)| r as usize >= rows || c as usize >= cols)
        {
            return Err(SparseError::IndexOutOfBounds {
                row: r as usize,
                col: c as usize,
                rows,
                cols,
            });
        }
        m.entries = entries;
        Ok(m)
    }

    /// Appends one entry.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] if `(row, col)` lies outside
    /// the matrix.
    pub fn push(&mut self, row: usize, col: usize, value: f32) -> Result<(), SparseError> {
        if row >= self.rows || col >= self.cols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        self.entries.push((row as u32, col as u32, value));
        Ok(())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries (duplicates counted individually).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The stored triplets as `(row, col, value)`, in insertion order.
    pub fn entries(&self) -> &[(u32, u32, f32)] {
        &self.entries
    }

    /// Iterates over stored triplets as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        self.entries
            .iter()
            .map(|&(r, c, v)| (r as usize, c as usize, v))
    }

    /// Fraction of the matrix that is zero, in `[0, 1]`.
    ///
    /// Duplicates are first coalesced so the figure matches the structural
    /// sparsity reported by graph datasets.
    pub fn sparsity(&self) -> f64 {
        let mut coords: Vec<(u32, u32)> = self.entries.iter().map(|&(r, c, _)| (r, c)).collect();
        coords.sort_unstable();
        coords.dedup();
        let total = self.rows as f64 * self.cols as f64;
        1.0 - coords.len() as f64 / total
    }

    /// Returns the transpose (rows and columns swapped).
    pub fn transpose(&self) -> Coo {
        Coo {
            rows: self.cols,
            cols: self.rows,
            entries: self.entries.iter().map(|&(r, c, v)| (c, r, v)).collect(),
        }
    }

    /// Out-degree (non-zeros per row) of every row, counting duplicates once.
    pub fn row_degrees(&self) -> Vec<usize> {
        let mut coords: Vec<(u32, u32)> = self.entries.iter().map(|&(r, c, _)| (r, c)).collect();
        coords.sort_unstable();
        coords.dedup();
        let mut deg = vec![0usize; self.rows];
        for (r, _) in coords {
            deg[r as usize] += 1;
        }
        deg
    }
}

impl Extend<(usize, usize, f32)> for Coo {
    /// Extends the matrix with triplets, **panicking** on out-of-bounds
    /// coordinates. Use [`Coo::push`] for fallible insertion.
    fn extend<T: IntoIterator<Item = (usize, usize, f32)>>(&mut self, iter: T) {
        for (r, c, v) in iter {
            self.push(r, c, v)
                .expect("coordinate out of bounds in Extend");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_zero_dims() {
        assert_eq!(Coo::new(0, 3).unwrap_err(), SparseError::EmptyDimension);
        assert_eq!(Coo::new(3, 0).unwrap_err(), SparseError::EmptyDimension);
    }

    #[test]
    fn push_rejects_out_of_bounds() {
        let mut m = Coo::new(2, 2).unwrap();
        let err = m.push(2, 0, 1.0).unwrap_err();
        assert!(matches!(err, SparseError::IndexOutOfBounds { row: 2, .. }));
    }

    #[test]
    fn from_triplets_round_trip() {
        let m = Coo::from_triplets(3, 4, [(0, 0, 1.0), (2, 3, 2.0)]).unwrap();
        let got: Vec<_> = m.iter().collect();
        assert_eq!(got, vec![(0, 0, 1.0), (2, 3, 2.0)]);
    }

    #[test]
    fn from_entries_checks_bounds_and_keeps_order() {
        let m = Coo::from_entries(2, 3, vec![(1, 2, 4.0), (0, 0, 1.0)]).unwrap();
        assert_eq!(m.entries(), &[(1, 2, 4.0), (0, 0, 1.0)]);
        let err = Coo::from_entries(2, 3, vec![(0, 0, 1.0), (1, 3, 1.0)]).unwrap_err();
        assert!(matches!(
            err,
            SparseError::IndexOutOfBounds { row: 1, col: 3, .. }
        ));
        assert_eq!(
            Coo::from_entries(0, 3, Vec::new()).unwrap_err(),
            SparseError::EmptyDimension
        );
    }

    #[test]
    fn sparsity_counts_distinct_coordinates() {
        let mut m = Coo::new(2, 2).unwrap();
        m.push(0, 0, 1.0).unwrap();
        m.push(0, 0, 2.0).unwrap(); // duplicate coordinate
        assert!((m.sparsity() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let m = Coo::from_triplets(2, 3, [(0, 2, 5.0)]).unwrap();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.iter().next(), Some((2, 0, 5.0)));
    }

    #[test]
    fn row_degrees_ignores_duplicates() {
        let m = Coo::from_triplets(3, 3, [(0, 1, 1.0), (0, 1, 1.0), (0, 2, 1.0)]).unwrap();
        assert_eq!(m.row_degrees(), vec![2, 0, 0]);
    }

    #[test]
    fn extend_appends() {
        let mut m = Coo::new(2, 2).unwrap();
        m.extend([(0, 0, 1.0), (1, 1, 2.0)]);
        assert_eq!(m.nnz(), 2);
    }
}
