//! Simulator-level invariants that must hold across configurations: timing
//! knobs never change numeric results, cycles respond monotonically to
//! resource changes, and conservation laws between counters hold.

use hymm_core::config::{AcceleratorConfig, Dataflow};
use hymm_core::sim::run_gcn_layer;
use hymm_graph::features::sparse_features;
use hymm_graph::generator::preferential_attachment;
use hymm_graph::normalize::gcn_normalize;
use hymm_mem::MatrixKind;
use hymm_sparse::{Coo, Dense};

fn fixture() -> (Coo, Coo, Dense) {
    let adj = gcn_normalize(&preferential_attachment(300, 1_200, 5))
        .unwrap()
        .to_coo();
    let x = sparse_features(300, 32, 0.8, 5);
    let w = Dense::from_fn(32, 16, |r, c| ((r * 16 + c) % 9) as f32 * 0.1 - 0.4);
    (adj, x, w)
}

#[test]
fn timing_knobs_never_change_results() {
    let (adj, x, w) = fixture();
    let base = run_gcn_layer(
        &AcceleratorConfig::default(),
        Dataflow::Hybrid,
        &adj,
        &x,
        &w,
    )
    .unwrap()
    .output;
    let mut variants = Vec::new();
    let mut v1 = AcceleratorConfig::default();
    v1.mem.dram_latency = 500;
    variants.push(v1);
    let mut v2 = AcceleratorConfig::default();
    v2.mem.dmb_bytes = 8 * 1024;
    variants.push(v2);
    let mut v3 = AcceleratorConfig::default();
    v3.mem.dram_channels = 4;
    variants.push(v3);
    let v4 = AcceleratorConfig {
        mlp_window: 1,
        ..AcceleratorConfig::default()
    };
    variants.push(v4);
    for (i, cfg) in variants.iter().enumerate() {
        let out = run_gcn_layer(cfg, Dataflow::Hybrid, &adj, &x, &w)
            .unwrap()
            .output;
        assert_eq!(
            out.as_slice(),
            base.as_slice(),
            "variant {i} changed the result"
        );
    }
}

#[test]
fn higher_dram_latency_never_speeds_things_up() {
    let (adj, x, w) = fixture();
    let mut prev = 0;
    for latency in [0u64, 50, 100, 400] {
        let mut cfg = AcceleratorConfig::default();
        cfg.mem.dram_latency = latency;
        let cycles = run_gcn_layer(&cfg, Dataflow::RowWise, &adj, &x, &w)
            .unwrap()
            .report
            .cycles;
        assert!(cycles >= prev, "latency {latency}: {cycles} < {prev}");
        prev = cycles;
    }
}

#[test]
fn bigger_buffer_never_hurts_hit_rate() {
    let (adj, x, w) = fixture();
    let mut prev = 0.0;
    for kb in [16usize, 64, 256] {
        let mut cfg = AcceleratorConfig::default();
        cfg.mem.dmb_bytes = kb * 1024;
        let rate = run_gcn_layer(&cfg, Dataflow::RowWise, &adj, &x, &w)
            .unwrap()
            .report
            .dmb_hit_rate();
        assert!(
            rate >= prev - 0.02,
            "{kb} KB: hit rate {rate} dropped from {prev}"
        );
        prev = rate;
    }
}

#[test]
fn mac_count_matches_nonzero_work() {
    // For the RWP dataflow at layer dim 16 (one line per row), the useful
    // MAC ops equal nnz(X) + nnz(Â) exactly.
    let (adj, x, w) = fixture();
    let report = run_gcn_layer(
        &AcceleratorConfig::default(),
        Dataflow::RowWise,
        &adj,
        &x,
        &w,
    )
    .unwrap()
    .report;
    // duplicates coalesce inside CSR conversion
    let adj_nnz = hymm_sparse::Csr::from_coo(&adj).nnz() as u64;
    let x_nnz = hymm_sparse::Csr::from_coo(&x).nnz() as u64;
    assert_eq!(report.mac_cycles, adj_nnz + x_nnz);
}

#[test]
fn dram_write_bytes_cover_the_output_matrix() {
    // Every dataflow must write at least the final AXW matrix back.
    let (adj, x, w) = fixture();
    let n_lines_bytes = 300 * 64; // 300 rows x one 64 B line
    for df in Dataflow::ALL {
        let report = run_gcn_layer(&AcceleratorConfig::default(), df, &adj, &x, &w)
            .unwrap()
            .report;
        let out_writes = report.dram.kind(MatrixKind::Output).write_bytes;
        assert!(
            out_writes >= n_lines_bytes * 9 / 10,
            "{}: only {out_writes} output bytes written",
            df.label()
        );
    }
}

#[test]
fn phase_windows_are_ordered_and_cover_the_run() {
    let (adj, x, w) = fixture();
    let report = run_gcn_layer(
        &AcceleratorConfig::default(),
        Dataflow::Hybrid,
        &adj,
        &x,
        &w,
    )
    .unwrap()
    .report;
    let mut prev_end = 0;
    for p in &report.phases {
        assert!(
            p.start_cycle >= prev_end,
            "phase {} overlaps predecessor",
            p.name
        );
        assert!(p.end_cycle >= p.start_cycle);
        prev_end = p.start_cycle; // phases may share boundaries
    }
    let last_end = report.phases.last().expect("phases recorded").end_cycle;
    assert!(report.cycles >= last_end);
}

#[test]
fn unsorted_and_presorted_graphs_give_same_hybrid_result() {
    // Hybrid sorts internally; feeding an already-sorted graph must give the
    // same numbers modulo the permutation it applies.
    let (adj, x, w) = fixture();
    let outcome = run_gcn_layer(
        &AcceleratorConfig::default(),
        Dataflow::Hybrid,
        &adj,
        &x,
        &w,
    )
    .unwrap();
    let rwp = run_gcn_layer(
        &AcceleratorConfig::default(),
        Dataflow::RowWise,
        &adj,
        &x,
        &w,
    )
    .unwrap();
    assert!(outcome.output.approx_eq(&rwp.output, 1e-3));
}
