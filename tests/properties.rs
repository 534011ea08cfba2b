//! Property-based tests over the core data structures and the simulator's
//! functional path, on randomly generated graphs and features.

use hymm::core::config::{AcceleratorConfig, Dataflow};
use hymm::gcn::reference::dense_inference;
use hymm::gcn::{run_inference, GcnModel};
use hymm::sparse::permute::degree_sort_permutation;
use hymm::sparse::spdemm;
use hymm::sparse::tiling::{TiledMatrix, TilingConfig};
use hymm::sparse::{Coo, Csc, Csr, Dense, Permutation};
use proptest::prelude::*;

/// Strategy: a random sparse square matrix as triplets.
fn square_coo(max_n: usize, max_nnz: usize) -> impl Strategy<Value = Coo> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, -2.0f32..2.0), 0..max_nnz)
            .prop_map(move |trip| Coo::from_triplets(n, n, trip).expect("coords in bounds"))
    })
}

/// Strategy: a random rectangular sparse matrix plus a conforming dense one.
fn spdemm_operands() -> impl Strategy<Value = (Coo, Dense)> {
    (2..20usize, 2..20usize, 1..6usize).prop_flat_map(|(rows, cols, d)| {
        let sparse = proptest::collection::vec((0..rows, 0..cols, -2.0f32..2.0), 0..60)
            .prop_map(move |t| Coo::from_triplets(rows, cols, t).expect("in bounds"));
        let dense = proptest::collection::vec(-2.0f32..2.0, cols * d)
            .prop_map(move |v| Dense::from_vec(cols, d, v).expect("length matches"));
        (sparse, dense)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_csc_round_trip_preserves_elements(coo in square_coo(24, 80)) {
        let csr = Csr::from_coo(&coo);
        let csc = Csc::from_coo(&coo);
        for r in 0..coo.rows() {
            for c in 0..coo.cols() {
                prop_assert!((csr.get(r, c) - csc.get(r, c)).abs() < 1e-5);
            }
        }
        // Duplicate coordinates are summed in format-specific order, so
        // values may differ by f32 rounding; compare element-wise.
        let back = csc.to_csr();
        prop_assert_eq!(back.row_ptr(), csr.row_ptr());
        prop_assert_eq!(back.col_idx(), csr.col_idx());
        for (a, b) in back.values().iter().zip(csr.values()) {
            prop_assert!((a - b).abs() <= 1e-4 * (1.0 + a.abs().max(b.abs())));
        }
    }

    #[test]
    fn rwp_and_op_dataflows_agree((sparse, dense) in spdemm_operands()) {
        let csr = Csr::from_coo(&sparse);
        let csc = Csc::from_coo(&sparse);
        let a = spdemm::row_wise_product(&csr, &dense);
        let b = spdemm::outer_product(&csc, &dense);
        let want = spdemm::dense_reference(&csr, &dense).expect("shapes conform");
        prop_assert!(a.approx_eq(&want, 1e-4));
        prop_assert!(b.approx_eq(&want, 1e-4));
    }

    #[test]
    fn degree_sort_is_a_bijection(coo in square_coo(24, 80)) {
        let perm = degree_sort_permutation(&coo).expect("square");
        let mut seen = vec![false; coo.rows()];
        for i in 0..coo.rows() {
            let j = perm.apply_index(i);
            prop_assert!(!seen[j]);
            seen[j] = true;
            prop_assert_eq!(perm.source_index(j), i);
        }
    }

    #[test]
    fn tiling_partitions_every_nonzero(
        coo in square_coo(24, 80),
        fraction in 0.0f64..1.0,
    ) {
        let perm = degree_sort_permutation(&coo).expect("square");
        let sorted = perm.apply_symmetric(&coo).expect("square");
        let cfg = TilingConfig { threshold_fraction: fraction, dmb_capacity_rows: None };
        let tiled = TiledMatrix::new(&Csr::from_coo(&coo), &perm, &cfg).expect("square");
        // the CSR coalesces duplicate coordinates, so compare against the
        // coalesced non-zero count
        let a = Csr::from_coo(&sorted);
        prop_assert_eq!(tiled.total_nnz(), a.nnz());
        // element-wise equality through CSR (duplicates may be summed in a
        // different order, so compare with a rounding tolerance)
        let b = Csr::from_coo(&tiled.to_coo());
        prop_assert_eq!(a.row_ptr(), b.row_ptr());
        prop_assert_eq!(a.col_idx(), b.col_idx());
        for (x, y) in a.values().iter().zip(b.values()) {
            prop_assert!((x - y).abs() <= 1e-4 * (1.0 + x.abs().max(y.abs())));
        }
    }

    #[test]
    fn tiled_storage_never_smaller_than_plain(coo in square_coo(24, 80)) {
        let cfg = TilingConfig::default();
        let perm = Permutation::identity(coo.rows());
        let tiled = TiledMatrix::new(&Csr::from_coo(&coo), &perm, &cfg).expect("square");
        let rep = tiled.storage_report(&hymm::sparse::storage::StorageLayout::default());
        prop_assert!(rep.tiled_bytes >= rep.plain_bytes);
    }
}

proptest! {
    // Full simulator runs are heavier: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn simulator_matches_dense_reference_on_random_graphs(
        adj in square_coo(30, 120),
        seed in 0u64..1000,
    ) {
        let n = adj.rows();
        let x = hymm::graph::features::sparse_features(n, 8, 0.6, seed);
        let model = GcnModel::two_layer(8, 16, 4, seed);
        let want = dense_inference(&adj, &x, &model);
        for df in Dataflow::ALL {
            let got = run_inference(&AcceleratorConfig::default(), df, &adj, &x, &model)
                .expect("shapes consistent");
            prop_assert!(
                got.output.approx_eq(&want, 1e-2),
                "{} diff {}", df.label(), got.output.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn cycles_and_traffic_are_positive_for_nonempty_graphs(
        adj in square_coo(20, 60).prop_filter("nonempty", |c| c.nnz() > 0),
    ) {
        let n = adj.rows();
        let x = hymm::graph::features::sparse_features(n, 6, 0.5, 7);
        let model = GcnModel::two_layer(6, 16, 4, 7);
        let r = run_inference(&AcceleratorConfig::default(), Dataflow::Hybrid, &adj, &x, &model)
            .expect("shapes consistent")
            .report;
        prop_assert!(r.cycles > 0);
        prop_assert!(r.dram_bytes() > 0);
        prop_assert!(r.alu_utilization() <= 1.0);
    }

    #[test]
    fn lane_gating_is_timing_neutral_on_full_width_rows(
        adj in square_coo(24, 80),
        seed in 0u64..1000,
    ) {
        // When every MAC row fills the 16-lane vector width, the flexible
        // VRF has nothing to gate or pack, so gating must be a no-op: same
        // timing, same stalls, same traffic. CWP's lane efficiency is
        // pinned to 1.0 in both configs (under gating it is derived, so an
        // imbalance discount below 1.0 would legitimately differ); its
        // ragged scalar groups still make the energy proxy diverge, so
        // `mac_lane_ops` is excluded from the comparison.
        let n = adj.rows();
        let x = hymm::graph::features::sparse_features(n, 8, 0.6, seed);
        let model = GcnModel::two_layer(8, 16, 16, seed);
        let plain = AcceleratorConfig {
            cwp_lane_efficiency: 1.0,
            ..AcceleratorConfig::default()
        };
        let gated = AcceleratorConfig {
            lane_gating: true,
            ..plain.clone()
        };
        for df in Dataflow::EXTENDED {
            let mut a = run_inference(&plain, df, &adj, &x, &model)
                .expect("shapes consistent")
                .report;
            let mut b = run_inference(&gated, df, &adj, &x, &model)
                .expect("shapes consistent")
                .report;
            a.mac_lane_ops = 0;
            b.mac_lane_ops = 0;
            prop_assert_eq!(a, b, "gating changed timing for {}", df.label());
        }
    }
}

/// Logical MAC work is invariant under the PE timing knobs, and port
/// occupancy scales exactly with the initiation interval: a pipelined
/// deep MAC (II = 1) occupies the port like the latency-1 default, an
/// unpipelined one multiplies occupancy by its latency. All four dataflows,
/// audited (the `pe-issue-accounting` invariants run at every phase
/// boundary).
#[test]
fn mac_accounting_is_consistent_across_pipelining() {
    let adj = hymm::graph::generator::preferential_attachment(60, 240, 3);
    let x = hymm::graph::features::sparse_features(60, 8, 0.6, 3);
    // An output width of 5 keeps ragged rows in the mix.
    let model = GcnModel::two_layer(8, 16, 5, 3);
    let mk = |latency, pipelined| AcceleratorConfig {
        audit: true,
        mac_latency: latency,
        mac_pipelined: pipelined,
        ..AcceleratorConfig::default()
    };
    for df in Dataflow::EXTENDED {
        let run = |config: &AcceleratorConfig| {
            run_inference(config, df, &adj, &x, &model)
                .expect("shapes consistent")
                .report
        };
        let base = run(&mk(1, false));
        let pipelined = run(&mk(4, true));
        let deep = run(&mk(4, false));
        let label = df.label();
        assert!(base.mac_ops > 0, "{label}: no MAC work simulated");
        assert_eq!(
            base.mac_ops, pipelined.mac_ops,
            "{label}: ops not invariant"
        );
        assert_eq!(base.mac_ops, deep.mac_ops, "{label}: ops not invariant");
        assert_eq!(
            pipelined.mac_cycles, base.mac_cycles,
            "{label}: II=1 pipe must occupy the port like latency 1"
        );
        assert_eq!(
            deep.mac_cycles,
            4 * base.mac_cycles,
            "{label}: unpipelined latency 4 must quadruple occupancy"
        );
        assert!(
            pipelined.cycles >= base.cycles,
            "{label}: extra drain latency cannot make the run faster"
        );
    }
}
