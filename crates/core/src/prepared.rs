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
use hymm_sparse::permute::csr_degree_sort_permutation;
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
/// Â is owned in CSR form, as `hymm_graph::normalize::gcn_normalize`
/// emits it; the CSC, the degree sort and the tilings are derived from it.
///
/// All lazily-built pieces are deterministic functions of the adjacency, so
/// concurrent initialisation from several suite threads is benign: whichever
/// thread wins stores a value bit-identical to every loser's.
#[derive(Debug)]
pub struct PreparedAdjacency {
    adj: Csr,
    a_csc: OnceLock<Csc>,
    /// Degree-sort permutation.
    perm: OnceLock<Permutation>,
    /// The symmetrically permuted adjacency as triplets.
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
    pub fn new(adj: Csr) -> Result<PreparedAdjacency, SparseError> {
        if adj.rows() != adj.cols() {
            return Err(SparseError::ShapeMismatch {
                left: (adj.rows(), adj.cols()),
                right: (adj.rows(), adj.rows()),
            });
        }
        Ok(PreparedAdjacency {
            adj,
            a_csc: OnceLock::new(),
            perm: OnceLock::new(),
            sorted: OnceLock::new(),
            tilings: Mutex::new(HashMap::new()),
        })
    }

    /// The adjacency matrix itself, in CSR form.
    pub fn adj(&self) -> &Csr {
        &self.adj
    }

    /// CSR form (RWP aggregation): the owned adjacency itself.
    pub fn a_csr(&self) -> &Csr {
        &self.adj
    }

    /// CSC form (OP/CWP aggregation), the transpose of the CSR, built on
    /// first use.
    pub fn a_csc(&self) -> &Csc {
        self.a_csc.get_or_init(|| Csc::from_csr(&self.adj))
    }

    /// Degree-sort permutation (hybrid preprocessing), built on first use.
    pub fn perm(&self) -> &Permutation {
        self.perm.get_or_init(|| {
            csr_degree_sort_permutation(&self.adj).expect("adjacency validated square")
        })
    }

    /// Degree-sort permutation and the degree-sorted adjacency as triplets
    /// (the CSR's entries in row-major order, relabelled), built on first
    /// use. The simulation never reads the sorted triplets: the tiling is
    /// built from [`Self::a_csr`] and [`Self::perm`].
    pub fn sorted(&self) -> (&Permutation, &Coo) {
        let perm = self.perm();
        let sorted = self.sorted.get_or_init(|| {
            let mut entries = Vec::with_capacity(self.adj.nnz());
            for r in 0..self.adj.rows() {
                let (cols, vals) = self.adj.row(r);
                let new_r = perm.apply_index(r) as u32;
                entries.extend(
                    cols.iter()
                        .zip(vals)
                        .map(|(&c, &v)| (new_r, perm.apply_index(c as usize) as u32, v)),
                );
            }
            Coo::from_entries(self.adj.rows(), self.adj.cols(), entries)
                .expect("a permutation keeps every index in bounds")
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
    use hymm_graph::normalize::gcn_normalize;
    use rand::{Rng, SeedableRng};
    use rand_pcg::Pcg64;

    fn ring(n: usize) -> Coo {
        let mut adj = Coo::new(n, n).unwrap();
        for i in 0..n {
            adj.push(i, (i + 1) % n, 1.0).unwrap();
            adj.push((i + 1) % n, i, 1.0).unwrap();
        }
        adj
    }

    fn prepared(adj: &Coo) -> PreparedAdjacency {
        PreparedAdjacency::new(Csr::from_coo(adj)).unwrap()
    }

    #[test]
    fn rejects_non_square() {
        let wide = Csr::from_coo(&Coo::from_triplets(3, 4, [(0, 3, 1.0)]).unwrap());
        assert!(PreparedAdjacency::new(wide).is_err());
    }

    /// The preprocessing `PreparedAdjacency` replaced, kept as the
    /// reference it must match bit for bit: Â owned as row-sorted
    /// triplets, the CSR and CSC each converted from them, the
    /// permutation a stable comparison sort of the triplets' degrees, and
    /// the sorted triplets relabelled in Â's order.
    struct CooPipeline {
        csr: Csr,
        csc: Csc,
        perm: Permutation,
        sorted: Coo,
    }

    fn coo_pipeline(a_hat: &Coo) -> CooPipeline {
        let n = a_hat.rows();
        let mut degree = vec![0usize; n];
        for (r, c, _) in a_hat.iter() {
            degree[r] += 1;
            degree[c] += 1;
        }
        let mut gather: Vec<u32> = (0..n as u32).collect();
        gather.sort_by(|&a, &b| {
            degree[b as usize]
                .cmp(&degree[a as usize])
                .then_with(|| a.cmp(&b))
        });
        let perm = Permutation::new(gather).unwrap();
        CooPipeline {
            csr: Csr::from_coo(a_hat),
            csc: Csc::from_coo(a_hat),
            sorted: perm.apply_symmetric(a_hat).unwrap(),
            perm,
        }
    }

    /// A random directed graph on `n` nodes with repeated edges and
    /// self-loops; only the first `m` nodes have edges, so the rest are
    /// isolated, and directed edges leave empty rows among the first `m`.
    fn messy_graph(n: usize, rng: &mut Pcg64) -> Coo {
        let m = rng.gen_range(1..=n);
        let mut triplets = Vec::new();
        for _ in 0..rng.gen_range(0..4 * n) {
            let (r, c) = (rng.gen_range(0..m), rng.gen_range(0..m));
            let w = [1.0, 1.0, 0.5, 3.0][rng.gen_range(0..4usize)];
            triplets.push((r, c, w));
            if rng.gen_bool(0.25) {
                triplets.push((r, c, w));
            }
        }
        Coo::from_triplets(n, n, triplets).unwrap()
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn triplet_bits(
        entries: impl Iterator<Item = (usize, usize, f32)>,
    ) -> Vec<(usize, usize, u32)> {
        entries.map(|(r, c, v)| (r, c, v.to_bits())).collect()
    }

    #[test]
    fn csr_preprocessing_matches_the_coo_pipeline_bit_for_bit() {
        for seed in 0..160u64 {
            let mut rng = Pcg64::seed_from_u64(seed);
            let n = if seed % 8 == 0 {
                1
            } else {
                rng.gen_range(2..48)
            };
            let a_hat = gcn_normalize(&messy_graph(n, &mut rng)).unwrap();
            let want = coo_pipeline(&a_hat.to_coo());
            let prep = PreparedAdjacency::new(a_hat).unwrap();

            let csr = prep.a_csr();
            assert_eq!(csr.row_ptr(), want.csr.row_ptr(), "seed {seed}");
            assert_eq!(csr.col_idx(), want.csr.col_idx(), "seed {seed}");
            assert_eq!(bits(csr.values()), bits(want.csr.values()), "seed {seed}");
            let csc = prep.a_csc();
            assert_eq!(csc.col_ptr(), want.csc.col_ptr(), "seed {seed}");
            assert_eq!(csc.row_idx(), want.csc.row_idx(), "seed {seed}");
            assert_eq!(bits(csc.values()), bits(want.csc.values()), "seed {seed}");
            let (perm, sorted) = prep.sorted();
            assert!(std::ptr::eq(perm, prep.perm()), "one shared permutation");
            assert_eq!(perm, &want.perm, "seed {seed}");
            assert_eq!(
                triplet_bits(sorted.iter()),
                triplet_bits(want.sorted.iter()),
                "seed {seed}"
            );

            for threshold_fraction in [0.0, 1e-9, 0.2, 1.0] {
                for cap in [1, n + 1, rng.gen_range(1..=n)] {
                    let got = prep.hybrid_tiling(threshold_fraction, cap).unwrap();
                    let config = TilingConfig {
                        threshold_fraction,
                        dmb_capacity_rows: Some(cap),
                    };
                    let tiled = TiledMatrix::new(&want.csr, &want.perm, &config).unwrap();
                    assert_eq!(got.tiled, tiled, "seed {seed} {config:?}");
                    for (g, w) in got.tiled.regions().iter().zip(tiled.regions()) {
                        assert_eq!(
                            triplet_bits(g.iter_global()),
                            triplet_bits(w.iter_global()),
                            "seed {seed} {config:?}"
                        );
                    }
                    let bottom = (tiled.threshold() < n).then(|| merge_bottom_regions(&tiled));
                    assert_eq!(got.bottom, bottom, "seed {seed} {config:?}");
                }
            }
        }
    }

    #[test]
    fn tiling_cache_returns_shared_instance() {
        let prep = prepared(&ring(20));
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
        let prep = prepared(&ring(8));
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
