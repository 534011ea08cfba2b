//! Shared, lazily-built preprocessing state for repeated layer simulations.
//!
//! The bench suite simulates the same dataset under several dataflows and
//! ablation points, and every [`crate::sim::run_gcn_layer`] call used to
//! rebuild the adjacency-derived state from scratch: CSR/CSC conversions,
//! the degree-sort permutation, the sorted adjacency, and the hybrid region
//! tiling. All of that depends only on the (normalised) adjacency matrix —
//! never on `X`, `W` or the accelerator's timing knobs other than the tiling
//! key — so [`PreparedAdjacency`] computes each piece at most once and
//! shares it across runs. Sharing is purely host-side: the simulated timing
//! still charges every preprocessing-dependent access exactly as before,
//! so reports are bit-identical to the unshared path.
//!
//! [`CombinationMemo`] additionally shares **numeric** results between runs
//! whose numeric trajectory is bit-identical. The only pair in the suite is
//! HyMM and HyMM-noacc: both run `Dataflow::Hybrid` on the same prepared
//! adjacency with the same tiling, so every layer consumes bit-identical
//! inputs and performs the identical sequence of f32 operations — the merge
//! policy they differ in affects *when* partials move, never *what* is
//! accumulated or in which order. The memoised run still replays all timing
//! (via [`crate::engine::NumericSink::Timing`]); only the redundant numeric
//! axpys and output copies are skipped. See DESIGN.md ("Fast-path legality")
//! for the full argument.

use crate::engine::hybrid::merge_bottom_regions;
use hymm_sparse::permute::degree_sort_permutation;
use hymm_sparse::tiling::{TiledMatrix, TilingConfig};
use hymm_sparse::{Coo, Csc, Csr, Dense, Permutation, SparseError};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// One hybrid tiling of the sorted adjacency, cached together with the
/// merged regions-2/3 CSR its RWP pass streams.
#[derive(Debug)]
pub struct HybridTiling {
    /// The three-region tiling.
    pub tiled: TiledMatrix,
    /// [`merge_bottom_regions`] of `tiled`; `None` when the threshold
    /// covers every row.
    pub bottom: Option<Csr>,
}

/// Adjacency-derived preprocessing, computed lazily and shared by every
/// simulation over the same (normalised) adjacency matrix.
///
/// All lazily-built pieces are deterministic functions of the adjacency, so
/// concurrent initialisation from several suite threads is benign: whichever
/// thread wins stores a value bit-identical to every loser's.
#[derive(Debug)]
pub struct PreparedAdjacency {
    adj: Coo,
    a_csr: OnceLock<Csr>,
    a_csc: OnceLock<Csc>,
    /// Degree-sort permutation.
    perm: OnceLock<Permutation>,
    /// The symmetrically permuted adjacency.
    sorted: OnceLock<Coo>,
    /// Tilings keyed by `(threshold_fraction bits, dmb_capacity_rows)` —
    /// ablations vary both, and the capacity also depends on the layer dim.
    tilings: Mutex<HashMap<(u64, usize), Arc<HybridTiling>>>,
}

impl PreparedAdjacency {
    /// Wraps a square (already normalised) adjacency matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if `adj` is not square.
    pub fn new(adj: Coo) -> Result<PreparedAdjacency, SparseError> {
        if adj.rows() != adj.cols() {
            return Err(SparseError::ShapeMismatch {
                left: (adj.rows(), adj.cols()),
                right: (adj.rows(), adj.rows()),
            });
        }
        Ok(PreparedAdjacency {
            adj,
            a_csr: OnceLock::new(),
            a_csc: OnceLock::new(),
            perm: OnceLock::new(),
            sorted: OnceLock::new(),
            tilings: Mutex::new(HashMap::new()),
        })
    }

    /// The adjacency matrix itself.
    pub fn adj(&self) -> &Coo {
        &self.adj
    }

    /// CSR form (RWP aggregation), built on first use.
    pub fn a_csr(&self) -> &Csr {
        self.a_csr.get_or_init(|| Csr::from_coo(&self.adj))
    }

    /// CSC form (OP/CWP aggregation), built on first use.
    pub fn a_csc(&self) -> &Csc {
        self.a_csc.get_or_init(|| Csc::from_coo(&self.adj))
    }

    /// Degree-sort permutation (hybrid preprocessing), built on first use.
    pub fn perm(&self) -> &Permutation {
        self.perm
            .get_or_init(|| degree_sort_permutation(&self.adj).expect("adjacency validated square"))
    }

    /// Degree-sort permutation and the degree-sorted adjacency as triplets,
    /// built on first use. The simulation never reads the sorted triplets:
    /// the tiling is built from [`Self::a_csr`] and [`Self::perm`].
    pub fn sorted(&self) -> (&Permutation, &Coo) {
        let perm = self.perm();
        let sorted = self.sorted.get_or_init(|| {
            perm.apply_symmetric(&self.adj)
                .expect("adjacency validated square")
        });
        (perm, sorted)
    }

    /// The hybrid tiling (plus merged bottom CSR) for one
    /// `(threshold_fraction, dmb_capacity_rows)` point, built on first use
    /// and shared afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidConfig`] for an invalid tiling
    /// threshold or capacity.
    pub fn hybrid_tiling(
        &self,
        threshold_fraction: f64,
        dmb_capacity_rows: usize,
    ) -> Result<Arc<HybridTiling>, SparseError> {
        let key = (threshold_fraction.to_bits(), dmb_capacity_rows);
        if let Some(hit) = self
            .tilings
            .lock()
            .expect("tiling cache poisoned")
            .get(&key)
        {
            return Ok(Arc::clone(hit));
        }
        // Built outside the lock: a concurrent builder produces an
        // identical value, and `or_insert` keeps whichever landed first.
        let tiled = TiledMatrix::new(
            self.a_csr(),
            self.perm(),
            &TilingConfig {
                threshold_fraction,
                dmb_capacity_rows: Some(dmb_capacity_rows),
            },
        )?;
        let bottom = (tiled.threshold() < tiled.n()).then(|| merge_bottom_regions(&tiled));
        let entry = Arc::new(HybridTiling { tiled, bottom });
        Ok(Arc::clone(
            self.tilings
                .lock()
                .expect("tiling cache poisoned")
                .entry(key)
                .or_insert(entry),
        ))
    }
}

/// Numeric results of one hybrid layer, memoised for replay by a run with a
/// bit-identical numeric trajectory.
#[derive(Debug)]
pub struct HybridLayerMemo {
    /// The degree-sorted sparse `X` in CSR form (the combination input).
    pub x_sorted_csr: Csr,
    /// The combination result `XW`, rows in sorted node order.
    pub xw: Dense,
    /// The layer output `ÂXW`, rows in original node order.
    pub output: Dense,
}

/// Per-layer memo of hybrid numeric results, shared between simulation runs
/// whose numeric trajectories are bit-identical (HyMM and HyMM-noacc: same
/// dataflow, adjacency, tiling, `X` and `W`; they differ only in the merge
/// policy, which moves partials around in time but never changes a single
/// f32 operation or its order).
///
/// Thread-safe and scheduling-independent: a concurrent miss on both sides
/// computes the same bits, so which run populates the memo is unobservable.
#[derive(Debug, Default)]
pub struct CombinationMemo {
    layers: Mutex<HashMap<usize, Arc<HybridLayerMemo>>>,
}

impl CombinationMemo {
    /// Creates an empty memo.
    pub fn new() -> CombinationMemo {
        CombinationMemo::default()
    }

    /// The memoised results of `layer`, if already computed.
    pub fn get(&self, layer: usize) -> Option<Arc<HybridLayerMemo>> {
        self.layers
            .lock()
            .expect("memo poisoned")
            .get(&layer)
            .cloned()
    }

    /// Stores `memo` for `layer` (first writer wins; any concurrent writer
    /// holds bit-identical values).
    pub fn insert(&self, layer: usize, memo: Arc<HybridLayerMemo>) {
        self.layers
            .lock()
            .expect("memo poisoned")
            .entry(layer)
            .or_insert(memo);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> Coo {
        let mut adj = Coo::new(n, n).unwrap();
        for i in 0..n {
            adj.push(i, (i + 1) % n, 1.0).unwrap();
            adj.push((i + 1) % n, i, 1.0).unwrap();
        }
        adj
    }

    #[test]
    fn rejects_non_square() {
        assert!(PreparedAdjacency::new(Coo::new(3, 4).unwrap()).is_err());
    }

    #[test]
    fn lazy_pieces_match_direct_construction() {
        let adj = ring(12);
        let prep = PreparedAdjacency::new(adj.clone()).unwrap();
        assert_eq!(prep.a_csr().nnz(), adj.nnz());
        assert_eq!(prep.a_csc().nnz(), adj.nnz());
        let want_perm = degree_sort_permutation(&adj).unwrap();
        assert_eq!(prep.perm(), &want_perm);
        let (perm, a_sorted) = prep.sorted();
        assert!(std::ptr::eq(perm, prep.perm()), "one shared permutation");
        assert_eq!(a_sorted, &want_perm.apply_symmetric(&adj).unwrap());
    }

    #[test]
    fn tiling_cache_returns_shared_instance() {
        let prep = PreparedAdjacency::new(ring(20)).unwrap();
        let a = prep.hybrid_tiling(0.2, 8).unwrap();
        let b = prep.hybrid_tiling(0.2, 8).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same key must share one tiling");
        let c = prep.hybrid_tiling(0.5, 8).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "different keys are distinct");
        // bottom CSR is present exactly when the threshold leaves rows over
        assert_eq!(a.bottom.is_some(), a.tiled.threshold() < a.tiled.n());
    }

    #[test]
    fn tiling_rejects_invalid_threshold() {
        let prep = PreparedAdjacency::new(ring(8)).unwrap();
        assert!(prep.hybrid_tiling(f64::NAN, 4).is_err());
    }

    #[test]
    fn memo_first_writer_wins() {
        let memo = CombinationMemo::new();
        assert!(memo.get(0).is_none());
        let a = Arc::new(HybridLayerMemo {
            x_sorted_csr: Csr::from_coo(&ring(4)),
            xw: Dense::zeros(4, 2),
            output: Dense::zeros(4, 2),
        });
        memo.insert(0, Arc::clone(&a));
        let b = Arc::new(HybridLayerMemo {
            x_sorted_csr: Csr::from_coo(&ring(4)),
            xw: Dense::zeros(4, 2),
            output: Dense::zeros(4, 2),
        });
        memo.insert(0, b);
        assert!(Arc::ptr_eq(&memo.get(0).unwrap(), &a));
        assert!(memo.get(1).is_none());
    }
}
