//! The benchmark's metric tables and the result of one workload run.

use crate::trace::Span;
use hymm_bench::json::Json;

/// End-to-end metrics, reported by every workload with tracing off:
/// `(name, unit)`. `BENCHMARK.json` lists the same names.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with tracing on:
/// `(name, unit)`. A layer a workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("graph.synthesize_s", "s"),
    ("graph.normalize_s", "s"),
    ("graph.sort_s", "s"),
    ("sparse.csr_s", "s"),
    ("sparse.csc_s", "s"),
    ("sparse.tiling_s", "s"),
    ("sparse.edges_per_s", "1/s"),
    ("gcn.inference_self_s", "s"),
    ("gcn.sparsify_s", "s"),
    ("core.simulate_s.OP", "s"),
    ("core.simulate_s.RWP", "s"),
    ("core.simulate_s.HyMM", "s"),
    ("core.simulate_s.HyMM-noacc", "s"),
    ("core.layer1_s", "s"),
    ("core.layer2_s", "s"),
    ("core.ns_per_sim_cycle", "ns"),
    ("core.ns_per_dmb_access", "ns"),
    ("sim.cycles", "count"),
    ("mem.dmb_accesses", "count"),
    ("mem.dmb_hit_rate", "ratio"),
    ("mem.dram_bytes", "bytes"),
    ("mem.lsq_forwards", "count"),
    ("mem.prefetch_issued", "count"),
    ("mem.prefetch_useful_ratio", "ratio"),
    ("core.stall_share.mac", "ratio"),
    ("core.stall_share.merge", "ratio"),
    ("core.stall_share.dmb-miss", "ratio"),
    ("core.stall_share.prefetch-late", "ratio"),
    ("core.stall_share.dram-bw", "ratio"),
    ("core.stall_share.lsq-cap", "ratio"),
    ("core.stall_share.smq-starve", "ratio"),
    ("core.stall_share.idle", "ratio"),
    ("bench.pool_busy_share", "ratio"),
    ("serve.parse_us", "us"),
    ("serve.lookup_us", "us"),
    ("serve.prepare_ms", "ms"),
    ("serve.simulate_ms", "ms"),
    ("serve.render_us", "us"),
    ("serve.wait_and_http_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.evictions", "count"),
    ("serve.dedupe_coalesced", "count"),
    ("serve.late_ms", "ms"),
    ("trace.wall_s", "s"),
];

/// Metric values keyed by name, in table order.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSet {
    table: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl MetricSet {
    /// An empty set over `table`.
    pub fn new(table: &'static [(&'static str, &'static str)]) -> MetricSet {
        MetricSet {
            table,
            values: vec![None; table.len()],
        }
    }

    /// Sets `name`, which must be in the table.
    ///
    /// # Panics
    ///
    /// On a name the table does not list (a bug in the benchmark).
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the table"));
        self.values[i] = Some(value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        let i = self.table.iter().position(|(n, _)| *n == name)?;
        self.values[i]
    }

    /// Every metric as `(name, value, unit)`; unset metrics read 0.
    pub fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        self.table
            .iter()
            .zip(&self.values)
            // `+ 0.0` turns the -0.0 of an empty float sum into 0.
            .map(|(&(name, unit), v)| (name, v.unwrap_or(0.0) + 0.0, unit))
            .collect()
    }
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Output-check failures; empty when every check passed.
    pub errors: Vec<String>,
    /// Operations attempted (simulations, preparations or requests).
    pub attempted: u64,
    /// Operations that failed outright (errors, non-200 responses,
    /// transport failures).
    pub failed: u64,
    /// End-to-end or per-layer metrics, depending on the trace mode.
    pub metrics: MetricSet,
    /// Context printed and saved beside the metrics: sample counts,
    /// digests, sizes.
    pub notes: Vec<(String, String)>,
    /// Spans recorded in a traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Whether every output check passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The summary line printed last on standard output.
    pub fn summary_json(&self) -> String {
        let metrics = self
            .metrics
            .rows()
            .into_iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render()
    }

    /// The results file: summary, notes, errors and spans.
    pub fn results_json(&self, seed: u64, traced: bool) -> String {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("id".into(), Json::Num(s.id as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("name".into(), Json::Str(s.name.into())),
                    ("label".into(), Json::Str(s.label.into())),
                    ("request".into(), Json::Num(s.request as f64)),
                    ("start_ns".into(), Json::Num(s.start_ns as f64)),
                    ("end_ns".into(), Json::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.into())),
            ("seed".into(), Json::Num(seed as f64)),
            ("trace".into(), Json::Bool(traced)),
            (
                "summary".into(),
                hymm_bench::json::parse_json(&self.summary_json()).expect("summary is valid JSON"),
            ),
            (
                "notes".into(),
                Json::Obj(
                    self.notes
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
            (
                "errors".into(),
                Json::Arr(self.errors.iter().map(|e| Json::Str(e.clone())).collect()),
            ),
            ("spans".into(), Json::Arr(spans)),
        ]);
        doc.render() + "\n"
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB, or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn unset_metrics_read_zero_and_summary_lists_every_metric() {
        let mut m = MetricSet::new(&END_TO_END);
        m.set("wall_s", 1.25);
        assert_eq!(m.get("wall_s"), Some(1.25));
        assert_eq!(m.get("p50_ms"), None);
        let outcome = Outcome {
            workload: "w",
            errors: Vec::new(),
            attempted: 3,
            failed: 0,
            metrics: m,
            notes: Vec::new(),
            spans: Vec::new(),
        };
        let doc = hymm_bench::json::parse_json(&outcome.summary_json()).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(3.0));
        let metrics = doc.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let entry = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(unit));
        }
        assert_eq!(
            metrics
                .get("wall_s")
                .and_then(|e| e.get("value"))
                .and_then(Json::as_f64),
            Some(1.25)
        );
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
