//! Compressed sparse column (CSC) matrix.
//!
//! CSC is the format consumed by the outer-product (OP) engine: the
//! accelerator streams one sparse column at a time, multiplying every
//! non-zero in the column with a single dense-matrix row and scattering
//! partial products into the output matrix (paper §II-B, Fig. 1b). In HyMM,
//! region 1 of the degree-sorted adjacency matrix is stored in CSC form
//! (paper Table I).

use crate::coo::Coo;
use crate::csr::{validate_compressed, Csr};
use crate::error::SparseError;

/// A sparse matrix in compressed sparse column format.
///
/// Within each column, row indices are strictly increasing; duplicate
/// coordinates from the source [`Coo`] are summed during conversion.
///
/// # Example
///
/// ```
/// use hymm_sparse::{Coo, Csc};
///
/// # fn main() -> Result<(), hymm_sparse::SparseError> {
/// let coo = Coo::from_triplets(3, 2, [(2, 0, 1.0), (0, 0, 3.0), (1, 1, 2.0)])?;
/// let csc = Csc::from_coo(&coo);
/// let (rows, vals) = csc.col(0);
/// assert_eq!(rows, &[0, 2]);
/// assert_eq!(vals, &[3.0, 1.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csc {
    rows: usize,
    cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f32>,
}

impl Csc {
    /// Builds a CSC matrix from a [`Coo`], summing duplicate coordinates.
    pub fn from_coo(coo: &Coo) -> Csc {
        if let Some(csc) = Csc::from_unique_keys(coo) {
            return csc;
        }
        // A CSC of M is structurally a CSR of Mᵀ.
        let t = Csr::from_coo(&coo.transpose());
        Csc {
            rows: coo.rows(),
            cols: coo.cols(),
            col_ptr: t.row_ptr().to_vec(),
            row_idx: t.col_idx().to_vec(),
            values: t.values().to_vec(),
        }
    }

    /// [`Csc::from_coo`] for duplicate-free inputs: a counting scatter by
    /// column in O(nnz). The scatter is stable, so any input whose rows
    /// arrive grouped in ascending order (sparsified activations,
    /// synthesized features — whatever their within-row column order)
    /// lands with ascending rows in every column and needs no sort at all;
    /// columns that come out unordered are sorted locally. With unique
    /// coordinates the per-column ascending-row order is a function of the
    /// key set alone, so the result is bit-identical to the general
    /// transposed-CSR path. A duplicate key — where summation order would
    /// matter — shows up as an equal adjacent pair after the local sort and
    /// is reported as `None`, deferring to the general path.
    fn from_unique_keys(coo: &Coo) -> Option<Csc> {
        let cols = coo.cols();
        let mut col_ptr = vec![0usize; cols + 1];
        for (_, c, _) in coo.iter() {
            col_ptr[c + 1] += 1;
        }
        for i in 0..cols {
            col_ptr[i + 1] += col_ptr[i];
        }
        let mut row_idx = vec![0u32; coo.nnz()];
        let mut values = vec![0f32; coo.nnz()];
        let mut next = col_ptr.clone();
        for (r, c, v) in coo.iter() {
            let pos = next[c];
            next[c] += 1;
            row_idx[pos] = r as u32;
            values[pos] = v;
        }
        let mut scratch: Vec<(u32, f32)> = Vec::new();
        for c in 0..cols {
            let (s, e) = (col_ptr[c], col_ptr[c + 1]);
            if row_idx[s..e].windows(2).all(|w| w[0] < w[1]) {
                continue;
            }
            scratch.clear();
            scratch.extend(
                row_idx[s..e]
                    .iter()
                    .copied()
                    .zip(values[s..e].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(r, _)| r);
            if scratch.windows(2).any(|w| w[0].0 == w[1].0) {
                return None;
            }
            for (i, &(r, v)) in scratch.iter().enumerate() {
                row_idx[s + i] = r;
                values[s + i] = v;
            }
        }
        Some(Csc {
            rows: coo.rows(),
            cols,
            col_ptr,
            row_idx,
            values,
        })
    }

    /// Builds a CSC matrix with the same contents as a [`Csr`]: a transpose
    /// scatter in O(nnz), a count per column and then one pass over the
    /// rows. Rows are visited in ascending order, so every column's row
    /// indices come out ascending with no sort; with the CSR's unique keys
    /// the result is exactly [`Csc::from_coo`] of the same entries.
    pub fn from_csr(csr: &Csr) -> Csc {
        let cols = csr.cols();
        let mut col_ptr = vec![0usize; cols + 1];
        for &c in csr.col_idx() {
            col_ptr[c as usize + 1] += 1;
        }
        for i in 0..cols {
            col_ptr[i + 1] += col_ptr[i];
        }
        let mut next = col_ptr[..cols].to_vec();
        let mut row_idx = vec![0u32; csr.nnz()];
        let mut values = vec![0f32; csr.nnz()];
        for r in 0..csr.rows() {
            let (row_cols, row_vals) = csr.row(r);
            for (&c, &v) in row_cols.iter().zip(row_vals) {
                let pos = next[c as usize];
                next[c as usize] += 1;
                row_idx[pos] = r as u32;
                values[pos] = v;
            }
        }
        Csc {
            rows: csr.rows(),
            cols,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Constructs a CSC matrix from raw component arrays, validating all
    /// structural invariants.
    ///
    /// # Errors
    ///
    /// Mirrors [`Csr::from_raw_parts`]: malformed pointer arrays, index
    /// bounds, ordering, or length mismatches produce
    /// [`SparseError::MalformedFormat`].
    pub fn from_raw_parts(
        rows: usize,
        cols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Csc, SparseError> {
        // A CSC is validated as the CSR of its transposed shape.
        validate_compressed(cols, rows, &col_ptr, &row_idx, values.len())?;
        Ok(Csc {
            rows,
            cols,
            col_ptr,
            row_idx,
            values,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The column-pointer array (length `cols + 1`).
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// The row-index array (length `nnz`).
    pub fn row_idx(&self) -> &[u32] {
        &self.row_idx
    }

    /// The value array (length `nnz`).
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Row indices and values of column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> (&[u32], &[f32]) {
        let (s, e) = (self.col_ptr[c], self.col_ptr[c + 1]);
        (&self.row_idx[s..e], &self.values[s..e])
    }

    /// Number of non-zeros in column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col_nnz(&self, c: usize) -> usize {
        self.col_ptr[c + 1] - self.col_ptr[c]
    }

    /// Value at `(r, c)`, or `0.0` if the coordinate is structurally zero or
    /// out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        if r >= self.rows || c >= self.cols {
            return 0.0;
        }
        let (rows, vals) = self.col(c);
        match rows.binary_search(&(r as u32)) {
            Ok(i) => vals[i],
            Err(_) => 0.0,
        }
    }

    /// Iterates over all stored non-zeros in column-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        (0..self.cols).flat_map(move |c| {
            let (rows, vals) = self.col(c);
            rows.iter()
                .zip(vals)
                .map(move |(&r, &v)| (r as usize, c, v))
        })
    }

    /// Converts back to the triplet format.
    pub fn to_coo(&self) -> Coo {
        let mut coo = Coo::new(self.rows, self.cols).expect("dimensions already validated");
        for (r, c, v) in self.iter() {
            coo.push(r, c, v).expect("indices already validated");
        }
        coo
    }

    /// Builds a CSR matrix with the same contents.
    pub fn to_csr(&self) -> Csr {
        Csr::from_coo(&self.to_coo())
    }

    /// Non-zero count per column.
    pub fn col_degrees(&self) -> Vec<usize> {
        (0..self.cols).map(|c| self.col_nnz(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_coo() -> Coo {
        Coo::from_triplets(
            3,
            4,
            [
                (0, 0, 1.0),
                (0, 3, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn columns_are_sorted() {
        let m = Csc::from_coo(&sample_coo());
        assert_eq!(m.col(0), (&[0u32, 2][..], &[1.0f32, 4.0][..]));
        assert_eq!(m.col(3), (&[0u32][..], &[2.0f32][..]));
    }

    #[test]
    fn csr_csc_agree_elementwise() {
        let coo = sample_coo();
        let csr = Csr::from_coo(&coo);
        let csc = Csc::from_coo(&coo);
        for r in 0..3 {
            for c in 0..4 {
                assert_eq!(csr.get(r, c), csc.get(r, c), "mismatch at ({r},{c})");
            }
        }
    }

    #[test]
    fn round_trip_csr_csc_csr() {
        let csr = Csr::from_coo(&sample_coo());
        let back = Csc::from_csr(&csr).to_csr();
        assert_eq!(csr, back);
    }

    #[test]
    fn duplicates_summed() {
        let coo = Coo::from_triplets(2, 1, [(1, 0, 1.0), (1, 0, 9.0)]).unwrap();
        let m = Csc::from_coo(&coo);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(1, 0), 10.0);
    }

    #[test]
    fn counting_scatter_matches_general_path() {
        // A seeded random sparse matrix, converted once from row-major
        // sorted triplets (counting-scatter fast path) and once from the
        // same triplets shuffled (general transpose+sort path): the two
        // constructions must agree exactly, including the value bits.
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand_pcg::Pcg64::seed_from_u64(7);
        let (rows, cols) = (37, 23);
        let mut sorted = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if rng.gen_bool(0.15) {
                    sorted.push((r, c, rng.gen_range(-2.0f32..2.0)));
                }
            }
        }
        let mut shuffled = sorted.clone();
        // Deterministic shuffle: swap each element with a seeded partner.
        for i in (1..shuffled.len()).rev() {
            let j = rng.gen_range(0..=i);
            shuffled.swap(i, j);
        }
        let fast = Csc::from_coo(&Coo::from_triplets(rows, cols, sorted).unwrap());
        let general = Csc::from_coo(&Coo::from_triplets(rows, cols, shuffled).unwrap());
        assert_eq!(fast.col_ptr(), general.col_ptr());
        assert_eq!(fast.row_idx(), general.row_idx());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(fast.values()), bits(general.values()));
    }

    #[test]
    fn from_raw_parts_validates() {
        assert!(Csc::from_raw_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]).is_ok());
        assert!(Csc::from_raw_parts(2, 2, vec![0, 3, 2], vec![0, 1], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn col_degrees_counts() {
        let m = Csc::from_coo(&sample_coo());
        assert_eq!(m.col_degrees(), vec![2, 1, 1, 1]);
    }

    #[test]
    fn iter_is_column_major() {
        let m = Csc::from_coo(&sample_coo());
        let got: Vec<_> = m.iter().collect();
        assert_eq!(
            got,
            vec![
                (0, 0, 1.0),
                (2, 0, 4.0),
                (1, 1, 3.0),
                (2, 2, 5.0),
                (0, 3, 2.0)
            ]
        );
    }
}
