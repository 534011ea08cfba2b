//! The simulation front end: one combination-first GCN layer per call.
//!
//! A GCN layer computes `Â X W` (the activation is applied by the layer
//! driver in `hymm-gcn`). Following AWB-GCN and every accelerator in the
//! paper's Table I, the **combination first** ordering is used: `XW = X·W`
//! is computed before the aggregation `Â·(XW)`, which minimises
//! multiplication count because the hidden dimension is much smaller than
//! the feature length.
//!
//! [`run_gcn_layer`] executes both phases on one [`Machine`] under the
//! requested [`Dataflow`]:
//!
//! | dataflow | combination | aggregation | preprocessing |
//! |---|---|---|---|
//! | `RowWise` (GROW)  | RWP | RWP over unsorted CSR | none |
//! | `Outer` (GCNAX)   | OP  | OP over unsorted CSC, row-tiled | none |
//! | `Hybrid` (HyMM)   | RWP | OP on region 1 + RWP on regions 2/3 | degree sorting |
//!
//! Every run also produces the real numeric `ÂXW`, returned in the
//! **original** node order regardless of dataflow so results are directly
//! comparable (and checkable against a dense reference).

use crate::config::{AcceleratorConfig, Dataflow};
use crate::engine::hybrid::run_hybrid_aggregation_sink;
use crate::engine::op::{run_op, OpJob};
use crate::engine::rwp::{run_rwp, run_rwp_sink, RwpJob};
use crate::engine::NumericSink;
use crate::machine::Machine;
use crate::prepared::{CombinationMemo, HybridLayerMemo, PreparedAdjacency};
use crate::stats::SimReport;
use hymm_mem::MatrixKind;
use hymm_sparse::{Coo, Csc, Csr, Dense, SparseError};
use std::sync::Arc;

/// Result of simulating one GCN layer.
#[derive(Debug, Clone)]
pub struct LayerOutcome {
    /// The numeric `Â X W`, rows in original node order.
    pub output: Dense,
    /// Timing and traffic report.
    pub report: SimReport,
}

/// Simulates one combination-first GCN layer.
///
/// * `adj` — the (already normalised) adjacency matrix `Â`, square, in
///   original node order (converted to CSR, so duplicate triplets are
///   summed first);
/// * `x` — the sparse feature matrix (`n × f`);
/// * `w` — the dense weight matrix (`f × d`).
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] if the operand shapes are
/// inconsistent.
pub fn run_gcn_layer(
    config: &AcceleratorConfig,
    dataflow: Dataflow,
    adj: &Coo,
    x: &Coo,
    w: &Dense,
) -> Result<LayerOutcome, SparseError> {
    let prep = PreparedAdjacency::new(Csr::from_coo(adj))?;
    run_gcn_layer_prepared(config, dataflow, &prep, x, w, None)
}

/// [`run_gcn_layer`] over a shared [`PreparedAdjacency`], so adjacency
/// preprocessing (CSR/CSC conversion, degree sorting, tiling) amortises
/// across dataflows, layers and ablation points. Timing-identical to
/// [`run_gcn_layer`].
///
/// `memo` optionally names a [`CombinationMemo`] and this layer's index;
/// only the `Hybrid` arm uses it, and only runs with bit-identical numeric
/// trajectories may share one memo (see `crate::prepared`).
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] if the operand shapes are
/// inconsistent, or [`SparseError::InvalidConfig`] if
/// [`AcceleratorConfig::validate`] rejects the configuration (zero PEs,
/// zero MAC latency, NaN/out-of-range CWP lane efficiency).
pub fn run_gcn_layer_prepared(
    config: &AcceleratorConfig,
    dataflow: Dataflow,
    prep: &PreparedAdjacency,
    x: &Coo,
    w: &Dense,
    memo: Option<(&CombinationMemo, usize)>,
) -> Result<LayerOutcome, SparseError> {
    config.validate()?;
    let adj = prep.adj();
    let n = adj.rows();
    if adj.cols() != n || x.rows() != n || x.cols() != w.rows() {
        return Err(SparseError::ShapeMismatch {
            left: (adj.rows(), adj.cols()),
            right: (x.rows(), x.cols()),
        });
    }
    let d = w.cols();
    let mut machine = Machine::new(config);

    // The controller keeps XW resident only when it fits alongside the
    // aggregation working set — the unified buffer's dynamic space
    // management (paper §III).
    let xw_lines = n * config.mem.lines_per_row(d);
    let keep_xw_resident = xw_lines <= config.mem.dmb_lines() / 2;

    match dataflow {
        Dataflow::RowWise => {
            let x_csr = Csr::from_coo(x);
            let a_csr = prep.a_csr();
            let mut xw = Dense::zeros(n, d);
            let t1 = run_rwp(
                &mut machine,
                0,
                &RwpJob {
                    sparse: &x_csr,
                    sparse_kind: MatrixKind::SparseX,
                    dense: w,
                    dense_kind: MatrixKind::Weight,
                    col_offset: 0,
                    out_row_offset: 0,
                    out_kind: MatrixKind::Combination,
                    out_allocate: keep_xw_resident,
                    name: "combination/rwp",
                },
                &mut xw,
            );
            let mut out = Dense::zeros(n, d);
            let t2 = run_rwp(
                &mut machine,
                t1,
                &RwpJob {
                    sparse: a_csr,
                    sparse_kind: MatrixKind::SparseA,
                    dense: &xw,
                    dense_kind: MatrixKind::Combination,
                    col_offset: 0,
                    out_row_offset: 0,
                    out_kind: MatrixKind::Output,
                    out_allocate: false,
                    name: "aggregation/rwp",
                },
                &mut out,
            );
            Ok(LayerOutcome {
                output: out,
                report: machine.into_report(t2),
            })
        }
        Dataflow::Outer => {
            let x_csc = Csc::from_coo(x);
            let a_csc = prep.a_csc();
            // Materialising OP engines (OuterSPACE-style) run untiled: the
            // partial log grows with nnz rather than with the tile; tiled
            // RMW engines (GCNAX-style loop tiling) bound outputs per pass.
            let tile_rows = if config.baseline_merge == crate::config::MergePolicy::Materialize {
                n
            } else {
                config.op_tile_rows()
            };
            let mut xw = Dense::zeros(n, d);
            let t1 = run_op(
                &mut machine,
                0,
                &OpJob {
                    sparse: &x_csc,
                    sparse_kind: MatrixKind::SparseX,
                    dense: w,
                    dense_kind: MatrixKind::Weight,
                    col_offset: 0,
                    out_row_offset: 0,
                    out_kind: MatrixKind::Combination,
                    merge: config.baseline_merge,
                    tile_rows,
                    name: "combination/op",
                },
                &mut xw,
            );
            let mut out = Dense::zeros(n, d);
            let t2 = run_op(
                &mut machine,
                t1,
                &OpJob {
                    sparse: a_csc,
                    sparse_kind: MatrixKind::SparseA,
                    dense: &xw,
                    dense_kind: MatrixKind::Combination,
                    col_offset: 0,
                    out_row_offset: 0,
                    out_kind: MatrixKind::Output,
                    merge: config.baseline_merge,
                    tile_rows,
                    name: "aggregation/op",
                },
                &mut out,
            );
            Ok(LayerOutcome {
                output: out,
                report: machine.into_report(t2),
            })
        }
        Dataflow::ColumnWise => {
            use crate::engine::cwp::{run_cwp, CwpJob};
            let x_csc = Csc::from_coo(x);
            let a_csc = prep.a_csc();
            let tile_rows = config.cwp_tile_rows();
            let mut xw = Dense::zeros(n, d);
            let t1 = run_cwp(
                &mut machine,
                0,
                &CwpJob {
                    sparse: &x_csc,
                    sparse_kind: MatrixKind::SparseX,
                    dense: w,
                    dense_kind: MatrixKind::Weight,
                    out_kind: MatrixKind::Combination,
                    tile_rows,
                    lane_efficiency: config.cwp_lane_efficiency,
                    name: "combination/cwp",
                },
                &mut xw,
            );
            let mut out = Dense::zeros(n, d);
            let t2 = run_cwp(
                &mut machine,
                t1,
                &CwpJob {
                    sparse: a_csc,
                    sparse_kind: MatrixKind::SparseA,
                    dense: &xw,
                    dense_kind: MatrixKind::Combination,
                    out_kind: MatrixKind::Output,
                    tile_rows,
                    lane_efficiency: config.cwp_lane_efficiency,
                    name: "aggregation/cwp",
                },
                &mut out,
            );
            Ok(LayerOutcome {
                output: out,
                report: machine.into_report(t2),
            })
        }
        Dataflow::Hybrid => {
            // Preprocessing (not charged to accelerator cycles; its host
            // cost is Table II's "sorting cost" column). Degree sort and
            // tiling come from the shared prepared state.
            let tiling = prep.hybrid_tiling(config.tiling_fraction, config.dmb_capacity_rows(d))?;
            let tiled = &tiling.tiled;
            let bottom = tiling.bottom.as_ref();

            if let Some(hit) = memo.and_then(|(m, layer)| m.get(layer)) {
                // Numeric results known bit-exactly from a run with an
                // identical trajectory: replay the timing only.
                let t1 = run_rwp_sink(
                    &mut machine,
                    0,
                    &RwpJob {
                        sparse: &hit.x_sorted_csr,
                        sparse_kind: MatrixKind::SparseX,
                        dense: w,
                        dense_kind: MatrixKind::Weight,
                        col_offset: 0,
                        out_row_offset: 0,
                        out_kind: MatrixKind::Combination,
                        out_allocate: keep_xw_resident,
                        name: "combination/rwp",
                    },
                    NumericSink::Timing { rows: n, cols: d },
                );
                let t2 = run_hybrid_aggregation_sink(
                    &mut machine,
                    t1,
                    tiled,
                    bottom,
                    &hit.xw,
                    NumericSink::Timing { rows: n, cols: d },
                );
                return Ok(LayerOutcome {
                    output: hit.output.clone(),
                    report: machine.into_report(t2),
                });
            }

            let perm = prep.perm();
            let x_sorted = perm.apply_rows(x)?;
            let x_csr = Csr::from_coo(&x_sorted);
            let mut xw = Dense::zeros(n, d);
            let t1 = run_rwp(
                &mut machine,
                0,
                &RwpJob {
                    sparse: &x_csr,
                    sparse_kind: MatrixKind::SparseX,
                    dense: w,
                    dense_kind: MatrixKind::Weight,
                    col_offset: 0,
                    out_row_offset: 0,
                    out_kind: MatrixKind::Combination,
                    out_allocate: keep_xw_resident,
                    name: "combination/rwp",
                },
                &mut xw,
            );
            let mut out_sorted = Dense::zeros(n, d);
            let t2 = run_hybrid_aggregation_sink(
                &mut machine,
                t1,
                tiled,
                bottom,
                &xw,
                NumericSink::Accumulate(&mut out_sorted),
            );

            // Back to original node order, one row-slice copy per node.
            let mut out = Dense::zeros(n, d);
            for old in 0..n {
                let sorted_row = perm.apply_index(old);
                out.row_mut(old).copy_from_slice(out_sorted.row(sorted_row));
            }
            if let Some((m, layer)) = memo {
                m.insert(
                    layer,
                    Arc::new(HybridLayerMemo {
                        x_sorted_csr: x_csr,
                        xw,
                        output: out.clone(),
                    }),
                );
            }
            Ok(LayerOutcome {
                output: out,
                report: machine.into_report(t2),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hymm_sparse::spdemm;

    fn fixture(n: usize, f: usize, d: usize) -> (Coo, Coo, Dense) {
        // ring + hub graph, deterministic features
        let mut adj = Coo::new(n, n).unwrap();
        for i in 0..n {
            adj.push(i, (i + 1) % n, 0.5).unwrap();
            adj.push((i + 1) % n, i, 0.5).unwrap();
            if i > 1 {
                adj.push(0, i, 0.25).unwrap();
                adj.push(i, 0, 0.25).unwrap();
            }
        }
        let mut x = Coo::new(n, f).unwrap();
        for i in 0..n {
            x.push(i, i % f, 1.0 + i as f32 * 0.1).unwrap();
            x.push(i, (i * 3 + 1) % f, -0.5).unwrap();
        }
        let w = Dense::from_fn(f, d, |r, c| ((r * d + c) % 5) as f32 * 0.2 - 0.4);
        (adj, x, w)
    }

    fn reference(adj: &Coo, x: &Coo, w: &Dense) -> Dense {
        let xw = spdemm::row_wise_product(&Csr::from_coo(x), w);
        spdemm::row_wise_product(&Csr::from_coo(adj), &xw)
    }

    #[test]
    fn invalid_configs_error_instead_of_panicking() {
        // Regression: num_pes == 0 used to panic inside PeArray::new, and a
        // NaN cwp_lane_efficiency asserted deep inside run_cwp. Both must
        // surface as SparseError::InvalidConfig through the sim entry point.
        let (adj, x, w) = fixture(8, 6, 16);
        for (mutate, what) in [
            (
                Box::new(|c: &mut AcceleratorConfig| c.num_pes = 0)
                    as Box<dyn Fn(&mut AcceleratorConfig)>,
                "num_pes",
            ),
            (
                Box::new(|c: &mut AcceleratorConfig| c.mac_latency = 0),
                "mac_latency",
            ),
            (
                Box::new(|c: &mut AcceleratorConfig| c.cwp_lane_efficiency = f64::NAN),
                "cwp_lane_efficiency",
            ),
        ] {
            let mut config = AcceleratorConfig::default();
            mutate(&mut config);
            for df in Dataflow::EXTENDED {
                match run_gcn_layer(&config, df, &adj, &x, &w) {
                    Err(SparseError::InvalidConfig(msg)) => {
                        assert!(
                            msg.contains(what),
                            "{}: unexpected message {msg}",
                            df.label()
                        )
                    }
                    other => panic!(
                        "{} with bad {what}: expected InvalidConfig, got {other:?}",
                        df.label()
                    ),
                }
            }
        }
    }

    #[test]
    fn all_dataflows_compute_the_same_result() {
        let (adj, x, w) = fixture(24, 10, 16);
        let want = reference(&adj, &x, &w);
        for df in Dataflow::ALL {
            let got = run_gcn_layer(&AcceleratorConfig::default(), df, &adj, &x, &w).unwrap();
            assert!(
                got.output.approx_eq(&want, 1e-3),
                "{} diverges: max diff {}",
                df.label(),
                got.output.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn reports_are_populated() {
        let (adj, x, w) = fixture(16, 8, 16);
        let outcome = run_gcn_layer(
            &AcceleratorConfig::default(),
            Dataflow::Hybrid,
            &adj,
            &x,
            &w,
        )
        .unwrap();
        let r = &outcome.report;
        assert!(r.cycles > 0);
        assert!(r.mac_cycles > 0);
        assert!(r.dram_bytes() > 0);
        assert!(r.alu_utilization() > 0.0 && r.alu_utilization() <= 1.0);
        assert!(r.phases.len() >= 2);
    }

    #[test]
    fn shape_mismatch_is_error() {
        let (adj, x, _) = fixture(8, 6, 16);
        let bad_w = Dense::zeros(7, 16); // x has 6 cols
        assert!(run_gcn_layer(
            &AcceleratorConfig::default(),
            Dataflow::RowWise,
            &adj,
            &x,
            &bad_w
        )
        .is_err());
    }

    #[test]
    fn hybrid_uses_fewer_dram_bytes_than_outer_on_skewed_graph() {
        // strongly skewed graph: hub 0 plus a ring
        let n = 64;
        let (adj, x, w) = fixture(n, 12, 16);
        let cfg = AcceleratorConfig::default();
        let op = run_gcn_layer(&cfg, Dataflow::Outer, &adj, &x, &w).unwrap();
        let hy = run_gcn_layer(&cfg, Dataflow::Hybrid, &adj, &x, &w).unwrap();
        assert!(
            hy.report.dram_bytes() <= op.report.dram_bytes(),
            "hybrid {} vs outer {}",
            hy.report.dram_bytes(),
            op.report.dram_bytes()
        );
    }

    /// The memoised hybrid replay (timing-only engines + shared tiling)
    /// must be a perfect stand-in for a fresh run: bit-identical report AND
    /// bit-identical numeric output, including when the replaying config
    /// differs in merge policy (the HyMM / HyMM-noacc pair).
    #[test]
    fn memoised_hybrid_replay_is_bit_identical() {
        use crate::config::MergePolicy;
        let (adj, x, w) = fixture(32, 10, 16);
        let cfg = AcceleratorConfig::default();
        let mut noacc = cfg.clone();
        noacc.hybrid_merge = MergePolicy::Materialize;

        let prep = PreparedAdjacency::new(Csr::from_coo(&adj)).unwrap();
        let memo = CombinationMemo::new();
        let first = run_gcn_layer_prepared(&cfg, Dataflow::Hybrid, &prep, &x, &w, Some((&memo, 0)))
            .unwrap();
        assert!(memo.get(0).is_some(), "first run must populate the memo");

        // Fresh, memo-free runs of both configs are the ground truth.
        let fresh = run_gcn_layer(&cfg, Dataflow::Hybrid, &adj, &x, &w).unwrap();
        let fresh_noacc = run_gcn_layer(&noacc, Dataflow::Hybrid, &adj, &x, &w).unwrap();
        assert_eq!(first.report, fresh.report);
        assert_eq!(bits(&first.output), bits(&fresh.output));

        // Replay under the *other* merge policy: timing must match that
        // policy's fresh run, numerics the shared trajectory.
        let replay =
            run_gcn_layer_prepared(&noacc, Dataflow::Hybrid, &prep, &x, &w, Some((&memo, 0)))
                .unwrap();
        assert_eq!(replay.report, fresh_noacc.report);
        assert_eq!(bits(&replay.output), bits(&fresh_noacc.output));
    }

    fn bits(m: &Dense) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn sparse_traffic_tagged_by_matrix() {
        let (adj, x, w) = fixture(16, 8, 16);
        let outcome = run_gcn_layer(
            &AcceleratorConfig::default(),
            Dataflow::RowWise,
            &adj,
            &x,
            &w,
        )
        .unwrap();
        assert!(outcome.report.dram.kind(MatrixKind::SparseA).read_bytes > 0);
        assert!(outcome.report.dram.kind(MatrixKind::SparseX).read_bytes > 0);
        assert!(outcome.report.dram.kind(MatrixKind::Weight).read_bytes > 0);
    }
}
