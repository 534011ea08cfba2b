//! PE-subsystem sweep: a lanes × MAC-latency grid over the benchmark suite.
//!
//! For every grid point the full suite is re-run through the shared
//! [`crate::runner`] path and the RWP and HyMM dataflows' suite-total cycles
//! and `mac` stall cycles are tabulated against the default 16-lane,
//! latency-1 PE — the quick answer to "does a wider or deeper MAC pipe move
//! the mac-bound wall, and what does it cost in area?". The suite's layer
//! width is 16 everywhere (Table II), so:
//!
//! - 8 lanes split every row into two issue slots (mac occupancy doubles);
//! - 32 lanes without gating change nothing (a 16-wide row still takes one
//!   slot either way);
//! - 32 lanes *with* gating pack two rows per slot à la FlexVector, halving
//!   mac occupancy — the headline configuration that breaks the mac-bound
//!   wall;
//! - latency 4 unpipelined quadruples mac occupancy; pipelined (II = 1) it
//!   costs only area.

use crate::args::BenchArgs;
use crate::runner::{run_suite, DatasetResults, MissingRunError};
use crate::table::TextTable;
use hymm_core::area::estimate_area;
use hymm_core::config::AcceleratorConfig;

/// Lane counts swept.
pub const LANES: [usize; 3] = [8, 16, 32];
/// MAC latencies swept.
pub const LATENCIES: [u64; 2] = [1, 4];

/// Suite-total PE counters for one dataflow at one grid point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuiteTotals {
    /// Total cycles summed over the datasets.
    pub cycles: u64,
    /// `mac` stall-class cycles summed over the datasets.
    pub mac_stall: u64,
    /// Logical MAC operations — invariant across every grid point.
    pub mac_ops: u64,
    /// Lane-level MAC events (the energy proxy).
    pub mac_lane_ops: u64,
}

/// One grid point's aggregated result.
#[derive(Debug, Clone)]
pub struct PeSweepRow {
    /// MAC lanes per PE vector unit.
    pub lanes: usize,
    /// MAC issue-to-result latency in cycles.
    pub latency: u64,
    /// Whether the MAC pipe accepts a new issue every cycle.
    pub pipelined: bool,
    /// Whether per-lane operand gating (flexible VRF) was enabled.
    pub gating: bool,
    /// Suite totals for the RWP dataflow.
    pub rwp: SuiteTotals,
    /// Suite totals for the HyMM dataflow.
    pub hymm: SuiteTotals,
    /// Estimated total area at 7 nm in mm² for this configuration.
    pub area_7nm: f64,
    /// The full per-dataset results, kept for the baseline-identity check.
    pub results: Vec<DatasetResults>,
}

fn totals(results: &[DatasetResults], label: &str) -> Result<SuiteTotals, MissingRunError> {
    let mut t = SuiteTotals::default();
    for d in results {
        let r = &d.run(label)?.report;
        t.cycles += r.cycles;
        t.mac_stall += r.stalls.mac;
        t.mac_ops += r.mac_ops;
        t.mac_lane_ops += r.mac_lane_ops;
    }
    Ok(t)
}

/// Runs the `LANES` × `LATENCIES` grid over the suite described by `base`
/// (datasets, scale, threads, prefetch, audit are honoured;
/// `--pe-lanes` and `--mac-latency` are overridden by the grid, while
/// `--mac-pipeline` and `--lane-gating` apply to every point).
///
/// # Errors
///
/// Returns a [`MissingRunError`] if a suite run is missing the RWP or HyMM
/// variant.
pub fn sweep(base: &BenchArgs) -> Result<Vec<PeSweepRow>, MissingRunError> {
    let mut rows = Vec::with_capacity(LANES.len() * LATENCIES.len());
    for lanes in LANES {
        for latency in LATENCIES {
            crate::progress!(
                "[pe_sweep] {lanes} lanes, latency {latency}{}{} ...",
                if base.mac_pipeline { ", pipelined" } else { "" },
                if base.lane_gating { ", gated" } else { "" },
            );
            let args = BenchArgs {
                pe_lanes: Some(lanes),
                mac_latency: Some(latency),
                ..base.clone()
            };
            let results = run_suite(&args);
            let mut config = AcceleratorConfig::default();
            args.apply_pe(&mut config);
            rows.push(PeSweepRow {
                lanes,
                latency,
                pipelined: base.mac_pipeline,
                gating: base.lane_gating,
                rwp: totals(&results, "RWP")?,
                hymm: totals(&results, "HyMM")?,
                area_7nm: estimate_area(&config).total_7nm(),
                results,
            });
        }
    }
    Ok(rows)
}

/// Index of the default-PE grid point (16 lanes, latency 1) in the rows
/// returned by [`sweep`].
pub fn baseline_index(rows: &[PeSweepRow]) -> Option<usize> {
    rows.iter().position(|r| r.lanes == 16 && r.latency == 1)
}

/// Signed stall-cycle reduction of `row` versus `base`, as a fraction
/// (positive = fewer `mac` stall cycles than the baseline).
pub fn mac_stall_reduction(row: &SuiteTotals, base: &SuiteTotals) -> f64 {
    1.0 - row.mac_stall as f64 / base.mac_stall.max(1) as f64
}

/// Renders the sweep as a text table, with `mac` stall-share deltas against
/// the baseline row (16 lanes, latency 1, or the first row if absent).
pub fn render(rows: &[PeSweepRow]) -> String {
    let base_idx = baseline_index(rows).unwrap_or(0);
    let (rwp_base, hymm_base) = (rows[base_idx].rwp, rows[base_idx].hymm);
    let mut t = TextTable::new(vec![
        "lanes",
        "latency",
        "II",
        "gating",
        "RWP cycles",
        "RWP mac-stall",
        "d-mac",
        "HyMM cycles",
        "HyMM mac-stall",
        "d-mac",
        "area 7nm (mm2)",
    ]);
    // `ratio - 1` rather than negated reduction so the baseline row prints
    // "+0.0%" instead of IEEE negative zero.
    let delta = |row: &SuiteTotals, base: &SuiteTotals| {
        format!(
            "{:+.1}%",
            100.0 * (row.mac_stall as f64 / base.mac_stall.max(1) as f64 - 1.0)
        )
    };
    for r in rows {
        let ii = if r.pipelined { 1 } else { r.latency };
        t.row(vec![
            r.lanes.to_string(),
            r.latency.to_string(),
            ii.to_string(),
            if r.gating { "on" } else { "off" }.to_string(),
            r.rwp.cycles.to_string(),
            r.rwp.mac_stall.to_string(),
            delta(&r.rwp, &rwp_base),
            r.hymm.cycles.to_string(),
            r.hymm.mac_stall.to_string(),
            delta(&r.hymm, &hymm_base),
            format!("{:.3}", r.area_7nm),
        ]);
    }
    format!(
        "PE sweep: suite-total cycles and mac-stall cycles per PE configuration\n\
         (d-mac: mac stall cycles vs the 16-lane latency-1 baseline; negative = fewer)\n{}",
        t.render()
    )
}

/// Serialises the sweep as a JSON object for `BENCH_cycles.json`.
pub fn to_json(rows: &[PeSweepRow]) -> String {
    let gating = rows.first().is_some_and(|r| r.gating);
    let pipelined = rows.first().is_some_and(|r| r.pipelined);
    let grid: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{ \"lanes\": {}, \"latency\": {}, \"pipelined\": {}, \"gating\": {}, \
                 \"rwp_cycles\": {}, \"rwp_mac_stall\": {}, \
                 \"hymm_cycles\": {}, \"hymm_mac_stall\": {}, \
                 \"mac_ops\": {}, \"mac_lane_ops\": {}, \"area_7nm_mm2\": {:.3} }}",
                r.lanes,
                r.latency,
                r.pipelined,
                r.gating,
                r.rwp.cycles,
                r.rwp.mac_stall,
                r.hymm.cycles,
                r.hymm.mac_stall,
                r.rwp.mac_ops + r.hymm.mac_ops,
                r.rwp.mac_lane_ops + r.hymm.mac_lane_ops,
                r.area_7nm,
            )
        })
        .collect();
    format!(
        "{{ \"gating\": {gating}, \"pipelined\": {pipelined}, \"grid\": [ {} ] }}",
        grid.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::results_match;
    use hymm_graph::datasets::Dataset;

    fn base(gating: bool) -> BenchArgs {
        BenchArgs {
            scale: Some(150),
            datasets: vec![Dataset::Cora],
            threads: 1,
            audit: true,
            lane_gating: gating,
            ..BenchArgs::default()
        }
    }

    #[test]
    fn gated_sweep_halves_mac_stall_at_32_lanes() {
        let rows = sweep(&base(true)).unwrap();
        let base_idx = baseline_index(&rows).unwrap();
        let wide = rows
            .iter()
            .find(|r| r.lanes == 32 && r.latency == 1)
            .unwrap();
        // Every row is 16 elements wide, so 32 gated lanes pack 2 rows per
        // issue slot: the mac stall class drops by half (>= 25% is the
        // acceptance floor; exact halving holds at layer width 16).
        let reduction = mac_stall_reduction(&wide.rwp, &rows[base_idx].rwp);
        assert!(
            reduction >= 0.25,
            "expected >=25% RWP mac-stall reduction at 32 gated lanes, got {:.1}%",
            100.0 * reduction
        );
        // Logical work is invariant across the grid.
        for r in &rows {
            assert_eq!(
                r.rwp.mac_ops, rows[base_idx].rwp.mac_ops,
                "{} lanes",
                r.lanes
            );
            assert_eq!(r.hymm.mac_ops, rows[base_idx].hymm.mac_ops);
        }
    }

    #[test]
    fn gated_baseline_row_is_bit_identical_to_default() {
        // At 16 lanes every 16-wide row fills the vector unit, so the
        // flexible VRF has nothing to gate or pack: the gated sweep's
        // baseline row must be bit-identical to a plain default-PE run.
        let rows = sweep(&base(true)).unwrap();
        let base_idx = baseline_index(&rows).unwrap();
        let reference = crate::runner::run_suite(&base(false));
        assert!(
            results_match(&rows[base_idx].results, &reference),
            "gated 16x1 grid point diverged from the default PE"
        );
    }

    #[test]
    fn render_and_json_cover_every_grid_point() {
        let rows = sweep(&base(true)).unwrap();
        let text = render(&rows);
        let json = to_json(&rows);
        for lanes in LANES {
            assert!(text.contains(&lanes.to_string()), "{text}");
            assert!(json.contains(&format!("\"lanes\": {lanes}")), "{json}");
        }
        assert!(text.contains("area 7nm"));
        assert!(json.contains("\"rwp_mac_stall\""));
    }
}
