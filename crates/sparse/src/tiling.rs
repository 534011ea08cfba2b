//! HyMM's degree-based region tiling of a degree-sorted adjacency matrix.
//!
//! After degree sorting, the adjacency matrix concentrates non-zeros towards
//! the top-left. HyMM splits it into three regions (paper §III, Fig. 2b):
//!
//! ```text
//!         columns 0..T          columns T..n
//!        ┌──────────────────────────────────┐
//! rows   │        region 1 (CSC, OP)        │  0..T   — high-degree rows
//!        ├────────────────┬─────────────────┤
//! rows   │ region 2       │ region 3        │  T..n
//!        │ (CSR, RWP)     │ (CSR, RWP)      │
//!        └────────────────┴─────────────────┘
//!          high-degree cols   sparse rest
//! ```
//!
//! `T` is the **tiling threshold**: at most 20 % of the node count, shrunk
//! further if the dense-matrix buffer cannot hold that many 64-byte output
//! rows (paper §IV-E).

use crate::coo::Coo;
use crate::csc::Csc;
use crate::csr::Csr;
use crate::error::SparseError;
use crate::permute::Permutation;
use crate::storage::{StorageLayout, StorageReport};

/// Identifies one of the three tiles of the sorted adjacency matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionId {
    /// High-degree rows (rows `0..T`, all columns), processed by the OP engine.
    HighDegreeRows,
    /// Remaining rows restricted to high-degree columns (`T..n` × `0..T`),
    /// processed by the RWP engine with hot dense-input reuse.
    HighDegreeCols,
    /// The extremely sparse remainder (`T..n` × `T..n`), processed by RWP.
    SparseRest,
}

impl RegionId {
    /// All regions in HyMM's execution order (OP first, then RWP).
    pub const EXECUTION_ORDER: [RegionId; 3] = [
        RegionId::HighDegreeRows,
        RegionId::HighDegreeCols,
        RegionId::SparseRest,
    ];
}

/// Configuration of the tiling pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TilingConfig {
    /// Maximum fraction of nodes placed in the high-degree tile. The paper
    /// fixes this at 20 %.
    pub threshold_fraction: f64,
    /// If set, the number of dense-matrix rows (output rows during OP, input
    /// rows during RWP) that fit in the DMB; the threshold is clamped so the
    /// hot working set stays resident (paper §IV-E "Tiling size").
    pub dmb_capacity_rows: Option<usize>,
}

impl Default for TilingConfig {
    fn default() -> Self {
        TilingConfig {
            threshold_fraction: 0.20,
            dmb_capacity_rows: None,
        }
    }
}

impl TilingConfig {
    /// Checks the configuration's parameter domains.
    ///
    /// A NaN `threshold_fraction` would otherwise propagate through
    /// `f64::clamp` (which returns NaN for a NaN input) and the `as usize`
    /// cast would silently collapse the threshold to `T = 0`, turning the
    /// hybrid dataflow into pure RWP with no diagnostic. A zero
    /// `dmb_capacity_rows` clamps `T` to zero the same silent way.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidConfig`] for a NaN, infinite or
    /// negative `threshold_fraction`, or `dmb_capacity_rows == Some(0)`.
    pub fn validate(&self) -> Result<(), SparseError> {
        if !self.threshold_fraction.is_finite() {
            return Err(SparseError::InvalidConfig(format!(
                "threshold_fraction must be finite, got {}",
                self.threshold_fraction
            )));
        }
        if self.threshold_fraction < 0.0 {
            return Err(SparseError::InvalidConfig(format!(
                "threshold_fraction must be non-negative, got {}",
                self.threshold_fraction
            )));
        }
        if self.dmb_capacity_rows == Some(0) {
            return Err(SparseError::InvalidConfig(
                "dmb_capacity_rows must be positive when set".to_string(),
            ));
        }
        Ok(())
    }

    /// The tiling threshold `T` for a graph with `n` nodes.
    pub fn threshold(&self, n: usize) -> usize {
        let frac = self.threshold_fraction.clamp(0.0, 1.0);
        let mut t = (n as f64 * frac).ceil() as usize;
        if let Some(cap) = self.dmb_capacity_rows {
            t = t.min(cap);
        }
        t.min(n)
    }
}

/// One tile of the sorted adjacency matrix: which region it is, its stored
/// format, and the row/column window it covers in sorted coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    /// Which of the three regions this is.
    pub id: RegionId,
    /// Half-open row window in the sorted matrix.
    pub row_range: (usize, usize),
    /// Half-open column window in the sorted matrix.
    pub col_range: (usize, usize),
    /// The stored tile. Coordinates are *local* to the window.
    pub format: RegionFormat,
}

/// Storage format of a [`Region`] — CSC for region 1, CSR for regions 2/3
/// (paper Table I, "Compression format" row).
#[derive(Debug, Clone, PartialEq)]
pub enum RegionFormat {
    /// Compressed sparse column tile (outer-product engine input).
    Csc(Csc),
    /// Compressed sparse row tile (row-wise-product engine input).
    Csr(Csr),
}

impl Region {
    /// Non-zeros stored in this region.
    pub fn nnz(&self) -> usize {
        match &self.format {
            RegionFormat::Csc(m) => m.nnz(),
            RegionFormat::Csr(m) => m.nnz(),
        }
    }

    /// Iterates over the region's non-zeros in **global** sorted coordinates.
    pub fn iter_global(&self) -> Box<dyn Iterator<Item = (usize, usize, f32)> + '_> {
        let (r0, c0) = (self.row_range.0, self.col_range.0);
        match &self.format {
            RegionFormat::Csc(m) => Box::new(m.iter().map(move |(r, c, v)| (r + r0, c + c0, v))),
            RegionFormat::Csr(m) => Box::new(m.iter().map(move |(r, c, v)| (r + r0, c + c0, v))),
        }
    }
}

/// The three-region tiled representation of a degree-sorted adjacency matrix.
///
/// # Example
///
/// ```
/// use hymm_sparse::permute::degree_sort_permutation;
/// use hymm_sparse::{Coo, Csr, TiledMatrix, TilingConfig};
///
/// # fn main() -> Result<(), hymm_sparse::SparseError> {
/// // A 5-node star whose hub is node 4: the degree sort moves it to row 0.
/// let adj = Coo::from_triplets(5, 5, (0..4).flat_map(|i| [(i, 4, 1.0), (4, i, 1.0)]))?;
/// let perm = degree_sort_permutation(&adj)?;
/// let tiled = TiledMatrix::new(&Csr::from_coo(&adj), &perm, &TilingConfig::default())?;
/// assert_eq!(tiled.threshold(), 1);
/// assert_eq!(tiled.regions()[0].nnz(), 4); // the hub's row
/// assert_eq!(tiled.total_nnz(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TiledMatrix {
    n: usize,
    threshold: usize,
    regions: Vec<Region>,
}

impl TiledMatrix {
    /// Tiles the degree-sorted matrix `P·A·Pᵀ` straight from `A`'s CSR and
    /// the sorting permutation `perm` (see
    /// [`crate::permute::degree_sort_permutation`]). A caller whose matrix
    /// is already in sorted order passes [`Permutation::identity`].
    ///
    /// Sorted row `i` is row `perm.source_index(i)` of `adj` with every
    /// column `c` relabelled to `perm.apply_index(c)`. Region 1 is a
    /// counting scatter of sorted rows `0..T` into their relabelled
    /// columns; the rows arrive in ascending order, so every column comes
    /// out sorted. Each of the short rows `T..n` is relabelled, sorted
    /// locally and split at column `T` into regions 2 and 3, whose row
    /// pointers a counting pass fixes first, so every array is allocated
    /// at its exact size. CSR keys are unique, so each region is a
    /// function of the key set alone.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if the matrix is not square
    /// or `perm` has another length, and [`SparseError::InvalidConfig`] if
    /// the tiling configuration fails [`TilingConfig::validate`].
    pub fn new(
        adj: &Csr,
        perm: &Permutation,
        config: &TilingConfig,
    ) -> Result<TiledMatrix, SparseError> {
        config.validate()?;
        let n = adj.rows();
        if adj.cols() != n || perm.len() != n {
            return Err(SparseError::ShapeMismatch {
                left: (adj.rows(), adj.cols()),
                right: (perm.len(), perm.len()),
            });
        }
        let t = config.threshold(n);
        let relabel = perm.as_scatter();
        let (top, rest) = perm.as_gather().split_at(t);

        // Region 1: a counting scatter of rows 0..T by relabelled column.
        let mut col_ptr = vec![0usize; n + 1];
        for &old in top {
            for &c in adj.row(old as usize).0 {
                col_ptr[relabel[c as usize] as usize + 1] += 1;
            }
        }
        for c in 0..n {
            col_ptr[c + 1] += col_ptr[c];
        }
        let mut row_idx = vec![0u32; col_ptr[n]];
        let mut values = vec![0f32; col_ptr[n]];
        let mut next = col_ptr[..n].to_vec();
        for (r, &old) in top.iter().enumerate() {
            let (cols, vals) = adj.row(old as usize);
            for (&c, &v) in cols.iter().zip(vals) {
                let slot = &mut next[relabel[c as usize] as usize];
                row_idx[*slot] = r as u32;
                values[*slot] = v;
                *slot += 1;
            }
        }
        let region1 = Csc::from_raw_parts(t.max(1), n, col_ptr, row_idx, values)
            .expect("a counting scatter of ascending rows is a valid CSC");

        // Regions 2 and 3: count each row's columns below T, then relabel,
        // sort and split every row. With T = n both keep one empty row.
        let rest_rows = (n - t).max(1);
        let mut ptr2 = vec![0usize; rest_rows + 1];
        let mut ptr3 = vec![0usize; rest_rows + 1];
        for (r, &old) in rest.iter().enumerate() {
            let cols = adj.row(old as usize).0;
            let low = cols
                .iter()
                .filter(|&&c| (relabel[c as usize] as usize) < t)
                .count();
            ptr2[r + 1] = ptr2[r] + low;
            ptr3[r + 1] = ptr3[r] + cols.len() - low;
        }
        let (nnz2, nnz3) = (ptr2[rest.len()], ptr3[rest.len()]);
        let (mut idx2, mut vals2) = (Vec::with_capacity(nnz2), Vec::with_capacity(nnz2));
        let (mut idx3, mut vals3) = (Vec::with_capacity(nnz3), Vec::with_capacity(nnz3));
        let mut row: Vec<(u32, f32)> = Vec::new();
        for &old in rest {
            let (cols, vals) = adj.row(old as usize);
            row.clear();
            row.extend(
                cols.iter()
                    .zip(vals)
                    .map(|(&c, &v)| (relabel[c as usize], v)),
            );
            row.sort_unstable_by_key(|&(c, _)| c);
            let split = row.partition_point(|&(c, _)| (c as usize) < t);
            idx2.extend(row[..split].iter().map(|&(c, _)| c));
            vals2.extend(row[..split].iter().map(|&(_, v)| v));
            idx3.extend(row[split..].iter().map(|&(c, _)| c - t as u32));
            vals3.extend(row[split..].iter().map(|&(_, v)| v));
        }
        let region2 = Csr::from_raw_parts(rest_rows, t.max(1), ptr2, idx2, vals2)
            .expect("sorted rows below T form a valid CSR");
        let region3 = Csr::from_raw_parts(rest_rows, (n - t).max(1), ptr3, idx3, vals3)
            .expect("sorted rows from T form a valid CSR");

        let regions = vec![
            Region {
                id: RegionId::HighDegreeRows,
                row_range: (0, t),
                col_range: (0, n),
                format: RegionFormat::Csc(region1),
            },
            Region {
                id: RegionId::HighDegreeCols,
                row_range: (t, n),
                col_range: (0, t),
                format: RegionFormat::Csr(region2),
            },
            Region {
                id: RegionId::SparseRest,
                row_range: (t, n),
                col_range: (t, n),
                format: RegionFormat::Csr(region3),
            },
        ];
        Ok(TiledMatrix {
            n,
            threshold: t,
            regions,
        })
    }

    /// Node count of the underlying graph.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The tiling threshold `T` actually used.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// The three regions in execution order (OP region first).
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Looks up one region by id.
    pub fn region(&self, id: RegionId) -> &Region {
        self.regions
            .iter()
            .find(|r| r.id == id)
            .expect("all three regions are always present")
    }

    /// Total non-zeros across all regions.
    pub fn total_nnz(&self) -> usize {
        self.regions.iter().map(Region::nnz).sum()
    }

    /// Storage accounting versus a plain single-CSR layout (paper Fig. 6).
    ///
    /// The tiled layout pays one pointer array per region: region 1's CSC
    /// carries `n + 1` column pointers while regions 2 and 3 each carry
    /// `(n - T) + 1` row pointers.
    pub fn storage_report(&self, layout: &StorageLayout) -> StorageReport {
        let plain = layout.compressed_bytes(self.n, self.total_nnz());
        let mut tiled = 0usize;
        for region in &self.regions {
            let major = match &region.format {
                RegionFormat::Csc(m) => m.cols(),
                RegionFormat::Csr(m) => m.rows(),
            };
            tiled += layout.compressed_bytes(major, region.nnz());
        }
        StorageReport {
            plain_bytes: plain,
            tiled_bytes: tiled,
        }
    }

    /// Reconstructs the full sorted matrix (for verification).
    pub fn to_coo(&self) -> Coo {
        let mut out = Coo::new(self.n, self.n).expect("n validated at construction");
        for region in &self.regions {
            for (r, c, v) in region.iter_global() {
                out.push(r, c, v).expect("region coordinates are in bounds");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permute::degree_sort_permutation;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_pcg::Pcg64;

    /// Tiles `adj` as given, i.e. under the identity permutation.
    fn tile(adj: &Coo, config: &TilingConfig) -> Result<TiledMatrix, SparseError> {
        TiledMatrix::new(
            &Csr::from_coo(adj),
            &Permutation::identity(adj.rows()),
            config,
        )
    }

    /// The tiling as it was built before it read `A`'s CSR: the permuted
    /// triplets pushed into one COO per region, each converted with
    /// `from_coo`. Kept as the reference [`TiledMatrix::new`] must match.
    fn reference_tiling(sorted_adj: &Coo, config: &TilingConfig) -> TiledMatrix {
        let n = sorted_adj.rows();
        let t = config.threshold(n);
        let mut r1 = Coo::new(t.max(1), n).unwrap();
        let rest_rows = (n - t).max(1);
        let mut r2 = Coo::new(rest_rows, t.max(1)).unwrap();
        let mut r3 = Coo::new(rest_rows, (n - t).max(1)).unwrap();
        for (r, c, v) in sorted_adj.iter() {
            if r < t {
                r1.push(r, c, v).unwrap();
            } else if c < t {
                r2.push(r - t, c, v).unwrap();
            } else {
                r3.push(r - t, c - t, v).unwrap();
            }
        }
        let regions = vec![
            Region {
                id: RegionId::HighDegreeRows,
                row_range: (0, t),
                col_range: (0, n),
                format: RegionFormat::Csc(Csc::from_coo(&r1)),
            },
            Region {
                id: RegionId::HighDegreeCols,
                row_range: (t, n),
                col_range: (0, t),
                format: RegionFormat::Csr(Csr::from_coo(&r2)),
            },
            Region {
                id: RegionId::SparseRest,
                row_range: (t, n),
                col_range: (t, n),
                format: RegionFormat::Csr(Csr::from_coo(&r3)),
            },
        ];
        TiledMatrix {
            n,
            threshold: t,
            regions,
        }
    }

    /// A region's stored values as bits (`==` on `f32` equates ±0).
    fn value_bits(region: &Region) -> Vec<u32> {
        let values = match &region.format {
            RegionFormat::Csc(m) => m.values(),
            RegionFormat::Csr(m) => m.values(),
        };
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A random `n × n` matrix with unique keys in which every node
    /// `≡ 3 (mod 5)` is isolated.
    fn unique_square(n: usize, rng: &mut Pcg64) -> Coo {
        let mut keys = std::collections::BTreeMap::new();
        for _ in 0..rng.gen_range(0..4 * n) {
            let (r, c) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if r % 5 != 3 && c % 5 != 3 {
                keys.insert((r, c), rng.gen_range(-2.0f32..2.0));
            }
        }
        Coo::from_triplets(n, n, keys.into_iter().map(|((r, c), v)| (r, c, v))).unwrap()
    }

    #[test]
    fn tiling_from_csr_matches_the_coo_reference_bit_for_bit() {
        for seed in 0..64u64 {
            let mut rng = Pcg64::seed_from_u64(seed);
            let n = rng.gen_range(1..40usize);
            let adj = unique_square(n, &mut rng);
            let csr = Csr::from_coo(&adj);
            let mut gather: Vec<u32> = (0..n as u32).collect();
            gather.shuffle(&mut rng);
            let perms = [
                Permutation::identity(n),
                Permutation::new(gather).unwrap(),
                degree_sort_permutation(&adj).unwrap(),
            ];
            // T = 0, T = 1, 20 %, T = n and one random fraction, each
            // uncapped, capped at one row, capped above n and at random.
            let fractions = [0.0, 1e-9, 0.2, 1.0, rng.gen_range(0.0..1.0)];
            let caps = [None, Some(1), Some(n + 1), Some(rng.gen_range(1..=n))];
            for perm in &perms {
                let sorted = perm.apply_symmetric(&adj).unwrap();
                for &threshold_fraction in &fractions {
                    for &dmb_capacity_rows in &caps {
                        let config = TilingConfig {
                            threshold_fraction,
                            dmb_capacity_rows,
                        };
                        let got = TiledMatrix::new(&csr, perm, &config).unwrap();
                        let want = reference_tiling(&sorted, &config);
                        assert_eq!(got, want, "seed {seed} {config:?}");
                        for (g, w) in got.regions().iter().zip(want.regions()) {
                            assert_eq!(value_bits(g), value_bits(w), "seed {seed} {config:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn permuted_tiling_relabels_rows_and_columns() {
        // Edge 0 -> 2 in a 3-node graph; the permutation moves node 2 to
        // position 0 and node 0 to position 1, so the edge lands at (1, 0)
        // in region 2 once T = 1.
        let adj = Coo::from_triplets(3, 3, [(0, 2, 5.0)]).unwrap();
        let perm = Permutation::new(vec![2, 0, 1]).unwrap();
        let config = TilingConfig {
            threshold_fraction: 0.2,
            dmb_capacity_rows: None,
        };
        let tiled = TiledMatrix::new(&Csr::from_coo(&adj), &perm, &config).unwrap();
        assert_eq!(tiled.threshold(), 1);
        assert_eq!(tiled.to_coo().iter().collect::<Vec<_>>(), [(1, 0, 5.0)]);
        assert_eq!(tiled.region(RegionId::HighDegreeCols).nnz(), 1);
    }

    #[test]
    fn rejects_a_permutation_of_another_length() {
        let adj = Csr::from_coo(&Coo::from_triplets(3, 3, [(0, 1, 1.0)]).unwrap());
        assert!(matches!(
            TiledMatrix::new(&adj, &Permutation::identity(4), &TilingConfig::default()),
            Err(SparseError::ShapeMismatch { .. })
        ));
    }

    fn power_lawish() -> Coo {
        // 10 nodes; node 0 and 1 are hubs.
        let mut m = Coo::new(10, 10).unwrap();
        for j in 1..10 {
            m.push(0, j, 1.0).unwrap();
            m.push(j, 0, 1.0).unwrap();
        }
        for j in 2..8 {
            m.push(1, j, 1.0).unwrap();
            m.push(j, 1, 1.0).unwrap();
        }
        m.push(8, 9, 1.0).unwrap();
        m
    }

    #[test]
    fn threshold_respects_fraction() {
        let c = TilingConfig {
            threshold_fraction: 0.2,
            dmb_capacity_rows: None,
        };
        assert_eq!(c.threshold(10), 2);
        assert_eq!(c.threshold(2708), 542);
    }

    #[test]
    fn threshold_clamped_by_dmb() {
        let c = TilingConfig {
            threshold_fraction: 0.2,
            dmb_capacity_rows: Some(100),
        };
        assert_eq!(c.threshold(10_000), 100);
        assert_eq!(c.threshold(100), 20);
    }

    #[test]
    fn partition_is_complete_and_disjoint() {
        let adj = power_lawish();
        let tiled = tile(&adj, &TilingConfig::default()).unwrap();
        assert_eq!(tiled.total_nnz(), adj.nnz());
        // element-wise equality through densification
        let orig = Csr::from_coo(&adj);
        let back = Csr::from_coo(&tiled.to_coo());
        assert_eq!(orig, back);
    }

    #[test]
    fn regions_have_expected_windows() {
        let adj = power_lawish();
        let tiled = tile(&adj, &TilingConfig::default()).unwrap();
        assert_eq!(tiled.threshold(), 2);
        let r1 = tiled.region(RegionId::HighDegreeRows);
        assert_eq!(r1.row_range, (0, 2));
        assert_eq!(r1.col_range, (0, 10));
        let r2 = tiled.region(RegionId::HighDegreeCols);
        assert_eq!(r2.row_range, (2, 10));
        assert_eq!(r2.col_range, (0, 2));
        let r3 = tiled.region(RegionId::SparseRest);
        assert_eq!(r3.row_range, (2, 10));
        assert_eq!(r3.col_range, (2, 10));
    }

    #[test]
    fn hub_rows_land_in_region_one() {
        let adj = power_lawish();
        let tiled = tile(&adj, &TilingConfig::default()).unwrap();
        // hub row 0 carries 9 nnz (cols 1..9); hub row 1 carries 7
        // (col 0 from the first loop plus cols 2..7).
        assert_eq!(tiled.region(RegionId::HighDegreeRows).nnz(), 16);
    }

    #[test]
    fn storage_overhead_positive_and_small() {
        let adj = power_lawish();
        let tiled = tile(&adj, &TilingConfig::default()).unwrap();
        let rep = tiled.storage_report(&StorageLayout::default());
        assert!(rep.tiled_bytes > rep.plain_bytes);
        assert!(
            rep.overhead() < 1.0,
            "overhead {} should stay moderate",
            rep.overhead()
        );
    }

    #[test]
    fn rejects_non_square() {
        let adj = Coo::from_triplets(2, 3, [(0, 0, 1.0)]).unwrap();
        assert!(tile(&adj, &TilingConfig::default()).is_err());
    }

    #[test]
    fn full_threshold_puts_everything_in_region_one() {
        let adj = power_lawish();
        let cfg = TilingConfig {
            threshold_fraction: 1.0,
            dmb_capacity_rows: None,
        };
        let tiled = tile(&adj, &cfg).unwrap();
        assert_eq!(tiled.region(RegionId::HighDegreeRows).nnz(), adj.nnz());
        assert_eq!(tiled.region(RegionId::HighDegreeCols).nnz(), 0);
    }

    #[test]
    fn zero_threshold_puts_everything_in_region_three() {
        let adj = power_lawish();
        let cfg = TilingConfig {
            threshold_fraction: 0.0,
            dmb_capacity_rows: None,
        };
        let tiled = tile(&adj, &cfg).unwrap();
        assert_eq!(tiled.region(RegionId::SparseRest).nnz(), adj.nnz());
    }

    #[test]
    fn rejects_nan_threshold_fraction() {
        let adj = power_lawish();
        let cfg = TilingConfig {
            threshold_fraction: f64::NAN,
            dmb_capacity_rows: None,
        };
        match tile(&adj, &cfg) {
            Err(SparseError::InvalidConfig(msg)) => assert!(msg.contains("finite"), "{msg}"),
            other => panic!("NaN fraction must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn rejects_negative_threshold_fraction() {
        let adj = power_lawish();
        let cfg = TilingConfig {
            threshold_fraction: -0.1,
            dmb_capacity_rows: None,
        };
        assert!(matches!(
            tile(&adj, &cfg),
            Err(SparseError::InvalidConfig(_))
        ));
    }

    #[test]
    fn rejects_infinite_threshold_fraction() {
        let adj = power_lawish();
        let cfg = TilingConfig {
            threshold_fraction: f64::INFINITY,
            dmb_capacity_rows: None,
        };
        assert!(matches!(
            tile(&adj, &cfg),
            Err(SparseError::InvalidConfig(_))
        ));
    }

    #[test]
    fn rejects_zero_dmb_capacity_rows() {
        let adj = power_lawish();
        let cfg = TilingConfig {
            threshold_fraction: 0.2,
            dmb_capacity_rows: Some(0),
        };
        assert!(matches!(
            tile(&adj, &cfg),
            Err(SparseError::InvalidConfig(_))
        ));
    }

    #[test]
    fn n_zero_is_unrepresentable() {
        // A 0x0 adjacency cannot even be constructed; the tiling layer never
        // sees it. Pin the contract here so a future Coo relaxation fails
        // loudly.
        assert!(matches!(Coo::new(0, 0), Err(SparseError::EmptyDimension)));
    }

    #[test]
    fn single_node_graph_tiles() {
        let adj = Coo::from_triplets(1, 1, [(0, 0, 1.0)]).unwrap();
        let tiled = tile(&adj, &TilingConfig::default()).unwrap();
        // ceil(1 * 0.2) = 1, so the whole (single-row) matrix is region 1.
        assert_eq!(tiled.threshold(), 1);
        assert_eq!(tiled.total_nnz(), 1);
        assert_eq!(tiled.region(RegionId::HighDegreeRows).nnz(), 1);
        assert_eq!(Csr::from_coo(&tiled.to_coo()), Csr::from_coo(&adj));
    }

    #[test]
    fn single_node_graph_with_zero_threshold() {
        let adj = Coo::from_triplets(1, 1, [(0, 0, 1.0)]).unwrap();
        let cfg = TilingConfig {
            threshold_fraction: 0.0,
            dmb_capacity_rows: None,
        };
        let tiled = tile(&adj, &cfg).unwrap();
        assert_eq!(tiled.threshold(), 0);
        assert_eq!(tiled.region(RegionId::SparseRest).nnz(), 1);
        assert_eq!(Csr::from_coo(&tiled.to_coo()), Csr::from_coo(&adj));
    }

    #[test]
    fn threshold_equal_to_n_round_trips() {
        // threshold == n: regions 2/3 have zero (padded) rows of real data.
        let adj = power_lawish();
        let cfg = TilingConfig {
            threshold_fraction: 1.0,
            dmb_capacity_rows: None,
        };
        let tiled = tile(&adj, &cfg).unwrap();
        assert_eq!(tiled.threshold(), adj.rows());
        assert_eq!(tiled.total_nnz(), adj.nnz());
        assert_eq!(Csr::from_coo(&tiled.to_coo()), Csr::from_coo(&adj));
    }

    #[test]
    fn execution_order_starts_with_op_region() {
        assert_eq!(RegionId::EXECUTION_ORDER[0], RegionId::HighDegreeRows);
        let adj = power_lawish();
        let tiled = tile(&adj, &TilingConfig::default()).unwrap();
        assert_eq!(tiled.regions()[0].id, RegionId::HighDegreeRows);
    }
}
