//! End-of-run report metrics for the named-metrics registry defined in
//! [`hymm_mem::metrics`] (re-exported here so report consumers need not
//! depend on the memory crate directly).
//!
//! [`registry_from_report`] turns one finished [`crate::stats::SimReport`]
//! into Prometheus families — the aggregates `hymm-serve` exposes on
//! `/metrics`. Every value is an end-of-run total read off the report, so
//! nothing here touches the simulation.

use crate::stats::StallBreakdown;

pub use hymm_mem::metrics::{MetricKind, MetricsRegistry};

/// Fills `reg` with end-of-run aggregates from one labelled report.
pub fn registry_from_report(
    reg: &mut MetricsRegistry,
    label: &str,
    report: &crate::stats::SimReport,
) {
    reg.register(
        "hymm_cycles_total",
        "Simulated cycles per dataflow",
        MetricKind::Counter,
    );
    reg.register(
        "hymm_stall_cycles_total",
        "Waterfall-attributed cycles per stall class",
        MetricKind::Counter,
    );
    reg.register(
        "hymm_dram_bytes_total",
        "DRAM bytes moved in both directions",
        MetricKind::Counter,
    );
    reg.register(
        "hymm_dmb_hit_rate",
        "End-of-run DMB hit rate (reads + writes)",
        MetricKind::Gauge,
    );
    reg.register(
        "hymm_alu_utilization",
        "End-of-run ALU utilisation",
        MetricKind::Gauge,
    );
    let run = format!("run=\"{label}\"");
    reg.set("hymm_cycles_total", &run, report.cycles as f64);
    for (class, cycles) in StallBreakdown::CLASSES.iter().zip(report.stalls.as_array()) {
        reg.set(
            "hymm_stall_cycles_total",
            &format!("run=\"{label}\",class=\"{class}\""),
            cycles as f64,
        );
    }
    reg.set(
        "hymm_dram_bytes_total",
        &run,
        report.dram.total().total_bytes() as f64,
    );
    reg.set("hymm_dmb_hit_rate", &run, report.dmb_hits.hit_rate());
    reg.set("hymm_alu_utilization", &run, report.alu_utilization());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_from_report_renders_all_families() {
        let mut reg = MetricsRegistry::new();
        let mut report = crate::stats::SimReport::empty();
        report.cycles = 1000;
        report.stalls = StallBreakdown::attribute(1000, 600, 0, 300, 0, 0, 0, 0);
        registry_from_report(&mut reg, "OP", &report);
        assert_eq!(reg.len(), 5);
        let text = reg.render_prometheus();
        assert!(text.contains("hymm_cycles_total{run=\"OP\"} 1000"));
        assert!(text.contains("hymm_stall_cycles_total{run=\"OP\",class=\"mac\"} 600"));
        assert!(text.contains("hymm_stall_cycles_total{run=\"OP\",class=\"idle\"} 100"));
        assert!(text.contains("# TYPE hymm_alu_utilization gauge"));
    }
}
