//! HyMM's hybrid aggregation scheduler.
//!
//! Executes the aggregation SpDeMM `Â·(XW)` over a degree-sorted, tiled
//! adjacency matrix exactly as the paper prescribes (§III):
//!
//! 1. **OP first** on region 1 (the high-degree rows, stored CSC): running
//!    the outer product before RWP "prevents partial outputs from being
//!    evicted to off-chip memory", and the tiling threshold guarantees the
//!    region's output rows fit in the DMB, so the near-memory accumulator
//!    merges every partial on chip.
//! 2. **RWP second** over regions 2 and 3 (stored CSR), walked row by row so
//!    each remaining output row is produced exactly once — region 2's
//!    high-degree columns give hot `XW` reuse, region 3's sparse tail avoids
//!    any partial-output merging.

use crate::engine::op::{run_op_sink, OpJob};
use crate::engine::rwp::{run_rwp_sink, RwpJob};
use crate::engine::NumericSink;
use crate::machine::Machine;
use hymm_mem::MatrixKind;
use hymm_sparse::tiling::{RegionFormat, RegionId, TiledMatrix};
use hymm_sparse::{Csc, Csr, Dense};

/// Runs the hybrid aggregation starting at cycle `start`; `dense` is the
/// combination result `XW` in **sorted** node order and `out` receives
/// `Â·XW`, also in sorted order. Returns the end cycle.
///
/// # Panics
///
/// Panics if shapes are inconsistent with the tiled matrix.
pub fn run_hybrid_aggregation(
    m: &mut Machine,
    start: u64,
    tiled: &TiledMatrix,
    dense: &Dense,
    out: &mut Dense,
) -> u64 {
    let bottom = (tiled.threshold() < tiled.n()).then(|| merge_bottom_regions(tiled));
    run_hybrid_aggregation_sink(
        m,
        start,
        tiled,
        bottom.as_ref(),
        dense,
        NumericSink::Accumulate(out),
    )
}

/// [`run_hybrid_aggregation`] with the merged regions-2/3 CSR supplied by
/// the caller (so `crate::prepared::PreparedAdjacency` can build it once per
/// tiling instead of once per layer run) and a [`NumericSink`] output.
///
/// `bottom` must be the [`merge_bottom_regions`] of `tiled`; it is required
/// whenever `tiled.threshold() < tiled.n()`.
///
/// # Panics
///
/// Panics if shapes are inconsistent with the tiled matrix, or if `bottom`
/// is `None` while regions 2/3 are non-empty.
pub fn run_hybrid_aggregation_sink(
    m: &mut Machine,
    start: u64,
    tiled: &TiledMatrix,
    bottom: Option<&Csr>,
    dense: &Dense,
    mut out: NumericSink<'_>,
) -> u64 {
    let n = tiled.n();
    let t = tiled.threshold();
    assert_eq!(dense.rows(), n, "XW must have one row per node");
    assert_eq!(out.rows(), n, "output must have one row per node");

    let mut now = start;

    // Phase 1: outer product over the high-degree rows (single tile — the
    // tiling threshold was clamped to the DMB capacity).
    let region1 = tiled.region(RegionId::HighDegreeRows);
    let csc = match &region1.format {
        RegionFormat::Csc(csc) => csc,
        RegionFormat::Csr(_) => unreachable!("region 1 is stored CSC"),
    };
    if t > 0 && csc.nnz() > 0 {
        let job = OpJob {
            sparse: csc,
            sparse_kind: MatrixKind::SparseA,
            dense,
            dense_kind: MatrixKind::Combination,
            col_offset: 0,
            out_row_offset: 0,
            out_kind: MatrixKind::Output,
            merge: m.config.hybrid_merge,
            tile_rows: t,
            name: "aggregation/op-region1",
        };
        now = run_op_sink(m, now, &job, out.reborrow());
    }

    // Phase 2: row-wise product over regions 2 + 3, merged row-by-row into
    // a single CSR in global sorted coordinates.
    if t < n {
        let bottom = bottom.expect("caller supplies regions 2/3 when threshold < n");
        if bottom.nnz() > 0 {
            let job = RwpJob {
                sparse: bottom,
                sparse_kind: MatrixKind::SparseA,
                dense,
                dense_kind: MatrixKind::Combination,
                col_offset: 0,
                out_row_offset: t,
                out_kind: MatrixKind::Output,
                out_allocate: false,
                name: "aggregation/rwp-region23",
            };
            now = run_rwp_sink(m, now, &job, out);
        }
    }
    now
}

/// Merges regions 2 and 3 into one CSR over rows `T..n` with **global**
/// column indices, preserving per-row sorted order (region 2's columns are
/// all `< T`, region 3's are `>= T`).
pub fn merge_bottom_regions(tiled: &TiledMatrix) -> Csr {
    let n = tiled.n();
    let t = tiled.threshold();
    let rows = n - t;
    let take_csr = |id: RegionId| -> &Csr {
        match &tiled.region(id).format {
            RegionFormat::Csr(csr) => csr,
            RegionFormat::Csc(_) => unreachable!("regions 2/3 are stored CSR"),
        }
    };
    let r2 = take_csr(RegionId::HighDegreeCols);
    let r3 = take_csr(RegionId::SparseRest);

    let nnz = r2.nnz() + r3.nnz();
    let mut row_ptr = Vec::with_capacity(rows + 1);
    let mut col_idx = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    row_ptr.push(0);
    for r in 0..rows {
        if r < r2.rows() {
            let (cols, vals) = r2.row(r);
            col_idx.extend_from_slice(cols);
            values.extend_from_slice(vals);
        }
        if r < r3.rows() {
            let (cols, vals) = r3.row(r);
            col_idx.extend(cols.iter().map(|&c| c + t as u32));
            values.extend_from_slice(vals);
        }
        row_ptr.push(col_idx.len());
    }
    Csr::from_raw_parts(rows, n, row_ptr, col_idx, values).expect("merged regions form a valid CSR")
}

/// Converts region 1 to CSR (used by ablations that run RWP everywhere).
pub fn region1_as_csc(tiled: &TiledMatrix) -> &Csc {
    match &tiled.region(RegionId::HighDegreeRows).format {
        RegionFormat::Csc(csc) => csc,
        RegionFormat::Csr(_) => unreachable!("region 1 is stored CSC"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcceleratorConfig;
    use hymm_sparse::permute::degree_sort_permutation;
    use hymm_sparse::spdemm;
    use hymm_sparse::tiling::TilingConfig;
    use hymm_sparse::{Coo, Permutation};
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_pcg::Pcg64;

    /// Tiles a matrix that is already in sorted order.
    fn tile(adj: &Coo, config: &TilingConfig) -> TiledMatrix {
        TiledMatrix::new(
            &Csr::from_coo(adj),
            &Permutation::identity(adj.rows()),
            config,
        )
        .unwrap()
    }

    fn sorted_power_law(n: usize) -> Coo {
        // hub-heavy sorted graph: node i connects to nodes i+1..i+deg(i)
        let mut coo = Coo::new(n, n).unwrap();
        for i in 0..n {
            let deg = ((n - i) / 2).min(n - 1);
            for d in 1..=deg {
                let j = (i + d) % n;
                if j != i {
                    coo.push(i, j, 1.0 + (d as f32) * 0.1).unwrap();
                }
            }
        }
        coo
    }

    #[test]
    fn hybrid_matches_reference() {
        let adj = sorted_power_law(20);
        let tiled = tile(&adj, &TilingConfig::default());
        let dense = Dense::from_fn(20, 16, |r, c| ((r + c) % 7) as f32 * 0.25);
        let mut m = Machine::new(&AcceleratorConfig::default());
        let mut out = Dense::zeros(20, 16);
        run_hybrid_aggregation(&mut m, 0, &tiled, &dense, &mut out);

        let want = spdemm::row_wise_product(&Csr::from_coo(&adj), &dense);
        assert!(
            out.approx_eq(&want, 1e-4),
            "max diff {}",
            out.max_abs_diff(&want)
        );
    }

    #[test]
    fn merge_bottom_regions_is_lossless() {
        // Random unique-key graphs (nodes ≡ 3 mod 5 isolated) tiled
        // straight from their CSR under the identity, a random relabelling
        // and the degree sort: the merged regions 2/3 must equal rows T..n
        // of the permuted matrix's CSR in every pointer, index and value
        // bit.
        for seed in 0..48u64 {
            let mut rng = Pcg64::seed_from_u64(seed);
            let n = rng.gen_range(2..40usize);
            let mut keys = std::collections::BTreeMap::new();
            for _ in 0..rng.gen_range(0..4 * n) {
                let (r, c) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if r % 5 != 3 && c % 5 != 3 {
                    keys.insert((r, c), rng.gen_range(-2.0f32..2.0));
                }
            }
            let adj =
                Coo::from_triplets(n, n, keys.into_iter().map(|((r, c), v)| (r, c, v))).unwrap();
            let csr = Csr::from_coo(&adj);
            let mut gather: Vec<u32> = (0..n as u32).collect();
            gather.shuffle(&mut rng);
            for perm in [
                Permutation::identity(n),
                Permutation::new(gather).unwrap(),
                degree_sort_permutation(&adj).unwrap(),
            ] {
                let sorted = Csr::from_coo(&perm.apply_symmetric(&adj).unwrap());
                for (fraction, cap) in [(0.0, None), (1e-9, None), (0.2, None), (0.9, Some(1))] {
                    let config = TilingConfig {
                        threshold_fraction: fraction,
                        dmb_capacity_rows: cap,
                    };
                    let tiled = TiledMatrix::new(&csr, &perm, &config).unwrap();
                    let t = tiled.threshold();
                    let bottom = merge_bottom_regions(&tiled);
                    let base = sorted.row_ptr()[t];
                    let want_ptr: Vec<usize> =
                        sorted.row_ptr()[t..].iter().map(|&p| p - base).collect();
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bottom.row_ptr(), want_ptr, "seed {seed} T={t}");
                    assert_eq!(
                        bottom.col_idx(),
                        &sorted.col_idx()[base..],
                        "seed {seed} T={t}"
                    );
                    assert_eq!(
                        bits(bottom.values()),
                        bits(&sorted.values()[base..]),
                        "seed {seed} T={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn records_both_phases() {
        let adj = sorted_power_law(20);
        let tiled = tile(&adj, &TilingConfig::default());
        let dense = Dense::from_fn(20, 16, |_, _| 1.0);
        let mut m = Machine::new(&AcceleratorConfig::default());
        let mut out = Dense::zeros(20, 16);
        run_hybrid_aggregation(&mut m, 0, &tiled, &dense, &mut out);
        let names: Vec<_> = m.phases.iter().map(|p| p.name).collect();
        assert!(names.contains(&"aggregation/op-region1"));
        assert!(names.contains(&"aggregation/rwp-region23"));
    }

    #[test]
    fn zero_threshold_runs_pure_rwp() {
        let adj = sorted_power_law(10);
        let cfg = TilingConfig {
            threshold_fraction: 0.0,
            dmb_capacity_rows: None,
        };
        let tiled = tile(&adj, &cfg);
        let dense = Dense::from_fn(10, 16, |r, _| r as f32);
        let mut m = Machine::new(&AcceleratorConfig::default());
        let mut out = Dense::zeros(10, 16);
        run_hybrid_aggregation(&mut m, 0, &tiled, &dense, &mut out);
        let want = spdemm::row_wise_product(&Csr::from_coo(&adj), &dense);
        assert!(out.approx_eq(&want, 1e-4));
        assert_eq!(m.phases.len(), 1);
    }

    #[test]
    fn full_threshold_runs_pure_op() {
        let adj = sorted_power_law(10);
        let cfg = TilingConfig {
            threshold_fraction: 1.0,
            dmb_capacity_rows: None,
        };
        let tiled = tile(&adj, &cfg);
        let dense = Dense::from_fn(10, 16, |r, _| r as f32);
        let mut m = Machine::new(&AcceleratorConfig::default());
        let mut out = Dense::zeros(10, 16);
        run_hybrid_aggregation(&mut m, 0, &tiled, &dense, &mut out);
        let want = spdemm::row_wise_product(&Csr::from_coo(&adj), &dense);
        assert!(out.approx_eq(&want, 1e-4));
        assert_eq!(m.phases.len(), 1);
        assert!(m.phases[0].name.contains("op-region1"));
    }
}
