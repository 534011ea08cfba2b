//! Compressed sparse row (CSR) matrix.
//!
//! CSR is the format consumed by the row-wise-product (RWP) engine: the
//! accelerator streams one sparse row at a time, multiplying each non-zero
//! with the corresponding dense-matrix row and accumulating into an
//! output-stationary row (paper §II-B, Fig. 1a).

use crate::coo::Coo;
use crate::error::SparseError;

/// A sparse matrix in compressed sparse row format.
///
/// Within each row, column indices are strictly increasing; duplicate
/// coordinates from the source [`Coo`] are summed during conversion.
///
/// # Example
///
/// ```
/// use hymm_sparse::{Coo, Csr};
///
/// # fn main() -> Result<(), hymm_sparse::SparseError> {
/// let coo = Coo::from_triplets(2, 3, [(0, 2, 1.0), (0, 0, 3.0), (1, 1, 2.0)])?;
/// let csr = Csr::from_coo(&coo);
/// let (cols, vals) = csr.row(0);
/// assert_eq!(cols, &[0, 2]);
/// assert_eq!(vals, &[3.0, 1.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl Csr {
    /// Builds a CSR matrix from a [`Coo`], summing duplicate coordinates.
    pub fn from_coo(coo: &Coo) -> Csr {
        if let Some(csr) = Csr::from_unique_keys(coo) {
            return csr;
        }
        let mut triplets: Vec<(u32, u32, f32)> = coo
            .iter()
            .map(|(r, c, v)| (r as u32, c as u32, v))
            .collect();
        triplets.sort_unstable_by_key(|&(r, c, _)| (r, c));

        let rows = coo.rows();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        row_ptr.push(0);
        let mut cur_row = 0u32;
        for (r, c, v) in triplets {
            while cur_row < r {
                row_ptr.push(col_idx.len());
                cur_row += 1;
            }
            // Sum duplicates: the previous entry belongs to the same (still
            // open) row and has the same column index.
            if *row_ptr.last().unwrap() < col_idx.len() && col_idx.last() == Some(&c) {
                *values.last_mut().unwrap() += v;
            } else {
                col_idx.push(c);
                values.push(v);
            }
        }
        while row_ptr.len() < rows + 1 {
            row_ptr.push(col_idx.len());
        }
        Csr {
            rows,
            cols: coo.cols(),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// [`Csr::from_coo`] for duplicate-free inputs, in *any* entry order:
    /// a counting scatter groups entries by row in O(nnz), then each row
    /// whose columns are not already ascending (entries within a row keep
    /// their input order, so sorted inputs skip this entirely) is sorted
    /// locally. With unique keys the globally sorted triplet order is a
    /// function of the key set alone, so this produces bit-identical arrays
    /// to the comparison-sort path. A duplicate key — the one case where
    /// summation order matters — is detected as an equal adjacent pair
    /// after the local sort and reported as `None`, deferring to the
    /// general path.
    fn from_unique_keys(coo: &Coo) -> Option<Csr> {
        let rows = coo.rows();
        let nnz = coo.nnz();
        let mut row_ptr = vec![0usize; rows + 1];
        for (r, _, _) in coo.iter() {
            row_ptr[r + 1] += 1;
        }
        for i in 0..rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0u32; nnz];
        let mut values = vec![0f32; nnz];
        let mut next = row_ptr.clone();
        for (r, c, v) in coo.iter() {
            let pos = next[r];
            next[r] += 1;
            col_idx[pos] = c as u32;
            values[pos] = v;
        }
        let mut scratch: Vec<(u32, f32)> = Vec::new();
        for r in 0..rows {
            let (s, e) = (row_ptr[r], row_ptr[r + 1]);
            if col_idx[s..e].windows(2).all(|w| w[0] < w[1]) {
                continue;
            }
            scratch.clear();
            scratch.extend(
                col_idx[s..e]
                    .iter()
                    .copied()
                    .zip(values[s..e].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            if scratch.windows(2).any(|w| w[0].0 == w[1].0) {
                return None;
            }
            for (i, &(c, v)) in scratch.iter().enumerate() {
                col_idx[s + i] = c;
                values[s + i] = v;
            }
        }
        Some(Csr {
            rows,
            cols: coo.cols(),
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Constructs a CSR matrix from raw component arrays, validating all
    /// structural invariants.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::MalformedFormat`] if `row_ptr` is not monotone,
    /// does not have `rows + 1` entries, does not end at `values.len()`, if
    /// column indices are out of bounds or not strictly increasing within a
    /// row, or if `col_idx` and `values` lengths differ.
    pub fn from_raw_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Csr, SparseError> {
        validate_compressed(rows, cols, &row_ptr, &col_idx, values.len())?;
        Ok(Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
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

    /// The row-pointer array (length `rows + 1`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column-index array (length `nnz`).
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// The value array (length `nnz`).
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Column indices and values of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let (s, e) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.col_idx[s..e], &self.values[s..e])
    }

    /// Number of non-zeros in row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Value at `(r, c)`, or `0.0` if the coordinate is structurally zero
    /// or out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        if r >= self.rows || c >= self.cols {
            return 0.0;
        }
        let (cols, vals) = self.row(r);
        match cols.binary_search(&(c as u32)) {
            Ok(i) => vals[i],
            Err(_) => 0.0,
        }
    }

    /// Iterates over all stored non-zeros in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter()
                .zip(vals)
                .map(move |(&c, &v)| (r, c as usize, v))
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

    /// Non-zero count per row.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.rows).map(|r| self.row_nnz(r)).collect()
    }
}

/// Checks the structural invariants of a compressed layout with `major`
/// pointer-indexed lanes over `minor` indices (CSR rows over columns, or
/// CSC columns over rows): `ptr` has `major + 1` monotone entries from 0 to
/// `nnz`, and each lane's indices are strictly increasing and in bounds.
pub(crate) fn validate_compressed(
    major: usize,
    minor: usize,
    ptr: &[usize],
    idx: &[u32],
    nnz: usize,
) -> Result<(), SparseError> {
    if major == 0 || minor == 0 {
        return Err(SparseError::EmptyDimension);
    }
    if ptr.len() != major + 1 {
        return Err(SparseError::MalformedFormat(format!(
            "row_ptr has {} entries, expected {}",
            ptr.len(),
            major + 1
        )));
    }
    if idx.len() != nnz {
        return Err(SparseError::MalformedFormat(format!(
            "col_idx has {} entries but values has {nnz}",
            idx.len()
        )));
    }
    if ptr[0] != 0 || ptr[major] != nnz {
        return Err(SparseError::MalformedFormat(
            "row_ptr must start at 0 and end at nnz".to_string(),
        ));
    }
    if ptr.windows(2).any(|w| w[0] > w[1]) {
        return Err(SparseError::MalformedFormat(
            "row_ptr must be monotonically non-decreasing".to_string(),
        ));
    }
    for r in 0..major {
        let seg = &idx[ptr[r]..ptr[r + 1]];
        if seg.windows(2).any(|w| w[0] >= w[1]) {
            return Err(SparseError::MalformedFormat(format!(
                "column indices in row {r} not strictly increasing"
            )));
        }
        if let Some(&last) = seg.last() {
            if last as usize >= minor {
                return Err(SparseError::MalformedFormat(format!(
                    "column index {last} out of bounds in row {r}"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        let coo = Coo::from_triplets(
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
        .unwrap();
        Csr::from_coo(&coo)
    }

    #[test]
    fn from_coo_sorts_rows() {
        let coo = Coo::from_triplets(2, 3, [(1, 2, 1.0), (0, 1, 2.0), (1, 0, 3.0)]).unwrap();
        let m = Csr::from_coo(&coo);
        assert_eq!(m.row(0), (&[1u32][..], &[2.0f32][..]));
        assert_eq!(m.row(1), (&[0u32, 2][..], &[3.0f32, 1.0][..]));
    }

    #[test]
    fn from_coo_sums_duplicates() {
        let coo = Coo::from_triplets(1, 2, [(0, 1, 1.5), (0, 1, 2.5)]).unwrap();
        let m = Csr::from_coo(&coo);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 1), 4.0);
    }

    #[test]
    fn get_returns_zero_for_missing() {
        let m = sample();
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(9, 9), 0.0);
        assert_eq!(m.get(2, 2), 5.0);
    }

    #[test]
    fn empty_rows_have_zero_nnz() {
        let coo = Coo::from_triplets(4, 4, [(3, 3, 1.0)]).unwrap();
        let m = Csr::from_coo(&coo);
        assert_eq!(m.degrees(), vec![0, 0, 0, 1]);
    }

    #[test]
    fn round_trip_through_coo() {
        let m = sample();
        let back = Csr::from_coo(&m.to_coo());
        assert_eq!(m, back);
    }

    #[test]
    fn from_raw_parts_accepts_valid() {
        let m = Csr::from_raw_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]).unwrap();
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn from_raw_parts_rejects_bad_ptr_len() {
        let err = Csr::from_raw_parts(2, 2, vec![0, 2], vec![0, 1], vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, SparseError::MalformedFormat(_)));
    }

    #[test]
    fn from_raw_parts_rejects_non_monotone_ptr() {
        let err = Csr::from_raw_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, SparseError::MalformedFormat(_)));
    }

    #[test]
    fn from_raw_parts_rejects_unsorted_cols() {
        let err = Csr::from_raw_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, SparseError::MalformedFormat(_)));
    }

    #[test]
    fn from_raw_parts_rejects_col_out_of_bounds() {
        let err = Csr::from_raw_parts(1, 2, vec![0, 1], vec![5], vec![1.0]).unwrap_err();
        assert!(matches!(err, SparseError::MalformedFormat(_)));
    }

    #[test]
    fn counting_path_matches_sort_path() {
        // A seeded random matrix built once from shuffled triplets (the
        // counting-scatter fast path handles arbitrary order) and once from
        // the same triplets with a duplicate appended (forcing the general
        // comparison-sort path): structure must agree exactly, and the
        // unique-key prefix must agree in value bits.
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand_pcg::Pcg64::seed_from_u64(11);
        let (rows, cols) = (41, 19);
        let mut triplets = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if rng.gen_bool(0.2) {
                    triplets.push((r, c, rng.gen_range(-2.0f32..2.0)));
                }
            }
        }
        for i in (1..triplets.len()).rev() {
            let j = rng.gen_range(0..=i);
            triplets.swap(i, j);
        }
        let fast = Csr::from_coo(&Coo::from_triplets(rows, cols, triplets.clone()).unwrap());
        // Appending a zero-valued duplicate of an existing entry changes no
        // value but defeats the unique-key precondition.
        let (dr, dc, _) = triplets[0];
        triplets.push((dr, dc, 0.0));
        let general = Csr::from_coo(&Coo::from_triplets(rows, cols, triplets).unwrap());
        assert_eq!(fast.row_ptr(), general.row_ptr());
        assert_eq!(fast.col_idx(), general.col_idx());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(fast.values()), bits(general.values()));
    }

    #[test]
    fn iter_yields_row_major() {
        let m = sample();
        let got: Vec<_> = m.iter().collect();
        assert_eq!(
            got,
            vec![
                (0, 0, 1.0),
                (0, 3, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0)
            ]
        );
    }
}
