//! GCN adjacency normalisation.
//!
//! A GCN layer computes `H' = σ(Â X W)` where `Â = D̃^-1/2 (A + I) D̃^-1/2`
//! is the symmetrically normalised adjacency matrix with self-loops (Kipf &
//! Welling; the paper's Eq. 1 notes "the aggregated features are normalized
//! (i.e. Â) since nodes exhibit different edge counts"). Normalisation
//! changes values but not structure (beyond the added diagonal), so the
//! accelerator's memory behaviour is driven by the same non-zero pattern.

use hymm_sparse::{Coo, Csr, SparseError};

/// Computes `Â = D̃^-1/2 (A + I) D̃^-1/2` from a (possibly weighted)
/// adjacency matrix, where `D̃` is the degree matrix of `A + I`.
///
/// Duplicate triplets in the input are coalesced (summed, in input order)
/// first. The result has exactly the input's structural non-zeros plus a
/// full diagonal, written straight into CSR arrays: Â's owned form, from
/// which the CSC, the degree sort and the tiling are derived.
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] if `adj` is not square.
pub fn gcn_normalize(adj: &Coo) -> Result<Csr, SparseError> {
    if adj.rows() != adj.cols() {
        return Err(SparseError::ShapeMismatch {
            left: (adj.rows(), adj.cols()),
            right: (adj.cols(), adj.rows()),
        });
    }
    let n = adj.rows();

    // Counting scatter by row; entries keep their input order within a row.
    let mut in_ptr = vec![0usize; n + 1];
    for &(r, _, _) in adj.entries() {
        in_ptr[r as usize + 1] += 1;
    }
    for i in 0..n {
        in_ptr[i + 1] += in_ptr[i];
    }
    let mut next = in_ptr.clone();
    let mut scattered = vec![(0u32, 0f32); adj.nnz()];
    for &(r, c, v) in adj.entries() {
        scattered[next[r as usize]] = (c, v);
        next[r as usize] += 1;
    }

    // Per row: sort by column (stable, so duplicates sum in input order),
    // coalesce, add the self-loop (merged into an existing diagonal entry,
    // else inserted at its sorted slot) and sum the weighted degree of
    // A + I. The degree adds the row's entries by column and an inserted
    // self-loop last: the order of the sort-based reference in the tests,
    // which keeps every value bit-identical to it. The CSR arrays are sized
    // for every input entry plus a full diagonal and written by index;
    // `len` is their filled length so far.
    let cap = adj.nnz() + n;
    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.push(0);
    let mut col_idx = vec![0u32; cap];
    let mut values = vec![0f32; cap];
    let mut len = 0;
    let mut inv_sqrt = vec![0f64; n];
    for (r, deg_inv_sqrt) in inv_sqrt.iter_mut().enumerate() {
        let row = &mut scattered[in_ptr[r]..in_ptr[r + 1]];
        if row.windows(2).any(|w| w[0].0 >= w[1].0) {
            row.sort_by_key(|&(c, _)| c);
        }
        let start = len;
        for &(c, v) in row.iter() {
            if len > start && col_idx[len - 1] == c {
                values[len - 1] += v;
            } else {
                col_idx[len] = c;
                values[len] = v;
                len += 1;
            }
        }
        let r32 = r as u32;
        let slot = start + col_idx[start..len].partition_point(|&c| c < r32);
        let has_diag = slot < len && col_idx[slot] == r32;
        if has_diag {
            values[slot] += 1.0;
        }
        let mut degree = 0f64;
        for &v in &values[start..len] {
            degree += v as f64;
        }
        if !has_diag {
            col_idx.copy_within(slot..len, slot + 1);
            values.copy_within(slot..len, slot + 1);
            col_idx[slot] = r32;
            values[slot] = 1.0;
            len += 1;
            degree += 1.0;
        }
        *deg_inv_sqrt = if degree > 0.0 {
            1.0 / degree.sqrt()
        } else {
            0.0
        };
        row_ptr.push(len);
    }
    // Duplicates and input self-loops leave spare room; release it (a
    // no-op when there is none).
    col_idx.truncate(len);
    col_idx.shrink_to_fit();
    values.truncate(len);
    values.shrink_to_fit();

    for (r, w) in row_ptr.windows(2).enumerate() {
        let (cols, vals) = (&col_idx[w[0]..w[1]], &mut values[w[0]..w[1]]);
        for (v, &c) in vals.iter_mut().zip(cols) {
            *v = (*v as f64 * inv_sqrt[r] * inv_sqrt[c as usize]) as f32;
        }
    }
    Csr::from_raw_parts(n, n, row_ptr, col_idx, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The comparison-sort normalisation `gcn_normalize` replaced: sort all
    /// entries, coalesce, merge existing diagonals, append the missing
    /// self-loops after everything else. Kept as the exactness reference.
    fn reference_normalize(adj: &Coo) -> Coo {
        let n = adj.rows();
        let mut entries: Vec<(usize, usize, f32)> = adj.iter().collect();
        entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut coalesced: Vec<(usize, usize, f32)> = Vec::with_capacity(entries.len() + n);
        for (r, c, v) in entries {
            match coalesced.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => coalesced.push((r, c, v)),
            }
        }
        let mut has_diag = vec![false; n];
        for &mut (r, c, ref mut v) in &mut coalesced {
            if r == c {
                has_diag[r] = true;
                *v += 1.0;
            }
        }
        for (i, had) in has_diag.iter().enumerate() {
            if !had {
                coalesced.push((i, i, 1.0));
            }
        }
        let mut degree = vec![0.0f64; n];
        for &(r, _, v) in &coalesced {
            degree[r] += v as f64;
        }
        let inv_sqrt: Vec<f64> = degree
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
            .collect();
        let mut out = Coo::new(n, n).unwrap();
        for (r, c, v) in coalesced {
            let nv = (v as f64 * inv_sqrt[r] * inv_sqrt[c]) as f32;
            out.push(r, c, nv).unwrap();
        }
        out
    }

    /// Strategy: a random square adjacency in shuffled order with
    /// duplicate unit-weight edges (drawn from a small node range, so
    /// repeats are common, plus repeated copies of a prefix), at most one
    /// non-unit diagonal entry per node, and isolated nodes and empty rows
    /// (the edge endpoints only span the first `m` of `n` nodes, and edges
    /// are directed).
    fn messy_adjacency() -> impl Strategy<Value = Coo> {
        (1..40usize, 0..4usize).prop_flat_map(|(n, slack)| {
            let m = n.saturating_sub(slack).max(1);
            (
                proptest::collection::vec((0..m, 0..m), 0..4 * n),
                proptest::collection::vec((0..4u32, 0.25f32..3.0), n),
                0..8usize,
                0..1000u32,
            )
                .prop_map(move |(edges, diag, repeat, salt)| {
                    let mut trip: Vec<(usize, usize, f32)> = edges
                        .iter()
                        .filter(|(r, c)| r != c)
                        .map(|&(r, c)| (r, c, 1.0))
                        .collect();
                    let prefix = trip[..repeat.min(trip.len())].to_vec();
                    trip.extend(prefix);
                    trip.extend(
                        diag.iter()
                            .enumerate()
                            .filter(|(_, &(k, _))| k == 0)
                            .map(|(i, &(_, w))| (i, i, w)),
                    );
                    // Deterministic shuffle so diagonals and duplicates
                    // land anywhere in the input order.
                    trip.sort_by_key(|&(r, c, _)| {
                        ((r * 64 + c) as u32 ^ salt).wrapping_mul(0x9e37_79b9)
                    });
                    Coo::from_triplets(n, n, trip).unwrap()
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matches_sort_based_reference_bit_for_bit(adj in messy_adjacency()) {
            let got = gcn_normalize(&adj).unwrap();
            // The reference's keys are unique, so its CSR is a function of
            // the entry set alone, whatever order they come in.
            let want = Csr::from_coo(&reference_normalize(&adj));
            prop_assert_eq!(got.row_ptr(), want.row_ptr());
            prop_assert_eq!(got.col_idx(), want.col_idx());
            let bits = |m: &Csr| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn adds_self_loops() {
        let adj = Coo::from_triplets(3, 3, [(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let m = gcn_normalize(&adj).unwrap();
        for i in 0..3 {
            assert!(m.get(i, i) > 0.0, "missing self-loop at {i}");
        }
    }

    #[test]
    fn isolated_node_gets_unit_diagonal() {
        let adj = Coo::from_triplets(2, 2, [(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let m = gcn_normalize(&adj).unwrap();
        // node degrees with self-loop: 2 and 2 → off-diagonal = 1/2
        assert!((m.get(0, 1) - 0.5).abs() < 1e-6);
        assert!((m.get(0, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn rows_of_regular_graph_sum_to_one() {
        // 4-cycle: every node has degree 2, so with self-loops D̃ = 3I and
        // each row of Â sums to 3 * (1/3) = 1.
        let adj = Coo::from_triplets(
            4,
            4,
            [
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (2, 3, 1.0),
                (3, 2, 1.0),
                (3, 0, 1.0),
                (0, 3, 1.0),
            ],
        )
        .unwrap();
        let m = gcn_normalize(&adj).unwrap();
        for r in 0..4 {
            let (_, vals) = m.row(r);
            let sum: f32 = vals.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn result_is_symmetric_for_symmetric_input() {
        let adj =
            Coo::from_triplets(3, 3, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)]).unwrap();
        let m = gcn_normalize(&adj).unwrap();
        for r in 0..3 {
            for c in 0..3 {
                assert!((m.get(r, c) - m.get(c, r)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn structure_is_input_plus_diagonal() {
        let adj = Coo::from_triplets(3, 3, [(0, 2, 1.0), (2, 0, 1.0)]).unwrap();
        let norm = gcn_normalize(&adj).unwrap();
        assert_eq!(norm.nnz(), 2 + 3);
    }

    #[test]
    fn existing_diagonal_is_merged_not_duplicated() {
        let adj = Coo::from_triplets(2, 2, [(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let norm = gcn_normalize(&adj).unwrap();
        assert_eq!(norm.nnz(), 4); // (0,0), (0,1), (1,0), (1,1)
    }

    #[test]
    fn non_square_is_an_error_not_a_panic() {
        let adj = Coo::from_triplets(2, 3, [(0, 2, 1.0)]).unwrap();
        assert!(matches!(
            gcn_normalize(&adj),
            Err(SparseError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn all_isolated_nodes_normalize_without_nan_or_inf() {
        // Zero off-diagonal degree everywhere: every D̃ entry is exactly 1
        // (the added self-loop), so Â must be the identity — and in
        // particular free of NaN/inf from any 1/sqrt(0).
        let adj = Coo::new(16, 16).unwrap();
        let norm = gcn_normalize(&adj).unwrap();
        assert_eq!(norm.nnz(), 16);
        for (r, c, v) in norm.iter() {
            assert!(v.is_finite(), "non-finite value {v} at ({r}, {c})");
            assert_eq!(r, c);
            assert!((v - 1.0).abs() < 1e-6);
        }
    }
}
