//! The `/simulate` request/response protocol.
//!
//! A request names a workload (dataset abbreviation + optional scale cap)
//! and accelerator knobs (the same surface the bench binaries expose as
//! flags). Parsing is strict — unknown fields are rejected — because the
//! request key feeds the dedupe/cache layers: a silently ignored typo'd
//! knob would coalesce requests the caller believes are different.
//!
//! The response body is a **pure function of the request**: simulation
//! results only, no timestamps, no cache disposition (that travels in the
//! `x-hymm-cache` header). Identical requests therefore always produce
//! byte-identical bodies, whether simulated, coalesced or re-run.

use hymm_bench::json::{esc, fmt_num, Json};
use hymm_core::config::{combine_hashes, AcceleratorConfig, Dataflow, MergePolicy};
use hymm_core::stats::{SimReport, StallBreakdown};
use hymm_graph::datasets::{Dataset, DatasetSpec};
use hymm_mem::PrefetchPolicy;

/// A validated simulation request.
#[derive(Debug, Clone)]
pub struct SimRequest {
    /// The (possibly scaled) workload to synthesise.
    pub spec: DatasetSpec,
    /// Engine selection.
    pub dataflow: Dataflow,
    /// Display label: the dataflow label, or `HyMM-noacc` for the
    /// materialising hybrid ablation.
    pub label: String,
    /// Full validated accelerator configuration.
    pub config: AcceleratorConfig,
}

impl SimRequest {
    /// The dedupe/cache key: graph-spec hash composed with the
    /// architectural config hash and the dataflow. Two requests with equal
    /// keys produce bit-identical responses (host-only knobs like the
    /// audit flag are excluded from `AcceleratorConfig::content_hash`
    /// precisely because they cannot change results).
    pub fn key(&self) -> u64 {
        let dataflow_tag = Dataflow::EXTENDED
            .iter()
            .position(|d| *d == self.dataflow)
            .expect("dataflow listed in EXTENDED") as u64;
        combine_hashes(&[
            self.spec.content_hash(),
            self.config.content_hash(),
            dataflow_tag,
        ])
    }
}

/// Largest graph, in nodes, one request may synthesise. A worker builds
/// the whole graph before it simulates, so a bare request for a native
/// Flickr (89 250 nodes) or Yelp (716 847 nodes) graph is refused up front
/// and must name a `scale` at most this large.
pub const MAX_NODES: usize = 65_536;

fn field_u64(v: &Json, field: &str) -> Result<u64, String> {
    match v.as_f64() {
        Some(n) if n >= 0.0 && n.fract() == 0.0 && n < 9.0e15 => Ok(n as u64),
        _ => Err(format!("field {field:?} must be a non-negative integer")),
    }
}

/// A count that must be at least 1. Zero is refused by name rather than
/// quietly turned into 1, which would answer for a machine the caller did
/// not ask for.
fn field_positive(v: &Json, field: &str) -> Result<u64, String> {
    match field_u64(v, field)? {
        0 => Err(format!("field {field:?} must be at least 1")),
        n => Ok(n),
    }
}

fn field_str<'a>(v: &'a Json, field: &str) -> Result<&'a str, String> {
    v.as_str()
        .ok_or_else(|| format!("field {field:?} must be a string"))
}

fn field_bool(v: &Json, field: &str) -> Result<bool, String> {
    v.as_bool()
        .ok_or_else(|| format!("field {field:?} must be a boolean"))
}

/// Parses and validates one request object. `audit` is the server-wide
/// switch forcing invariant auditing onto every simulation.
///
/// # Errors
///
/// Returns a client-facing message naming the offending field.
pub fn parse_request(doc: &Json, audit: bool) -> Result<SimRequest, String> {
    let Json::Obj(fields) = doc else {
        return Err("request body must be a JSON object".into());
    };
    let mut dataset = None;
    let mut scale = None;
    let mut dataflow_label: Option<String> = None;
    let mut config = AcceleratorConfig {
        audit,
        ..AcceleratorConfig::default()
    };
    // Preset first (it is a base, not an override), so apply it in a first
    // pass regardless of field order.
    for (k, v) in fields {
        if k == "preset" {
            let name = field_str(v, k)?;
            let preset = hymm_core::config::Preset::parse(name)
                .ok_or_else(|| format!("unknown preset {name:?} (default, tuned)"))?;
            preset.apply(&mut config);
        }
    }
    for (k, v) in fields {
        match k.as_str() {
            "preset" => {}
            "dataset" => {
                let abbrev = field_str(v, k)?;
                dataset = Some(Dataset::from_abbrev(abbrev).ok_or_else(|| {
                    format!("unknown dataset {abbrev:?} (CR, AP, AC, CS, PH, FR, YP)")
                })?);
            }
            "scale" => {
                let n = field_u64(v, k)?;
                if n < 2 {
                    return Err("field \"scale\" must be at least 2".into());
                }
                scale = Some(n as usize);
            }
            "dataflow" => dataflow_label = Some(field_str(v, k)?.to_string()),
            "pe_lanes" => config.num_pes = field_positive(v, k)? as usize,
            "mac_latency" => config.mac_latency = field_positive(v, k)?,
            "mac_pipeline" => config.mac_pipelined = field_bool(v, k)?,
            "lane_gating" => config.lane_gating = field_bool(v, k)?,
            "tiling_fraction" => {
                let f = v
                    .as_f64()
                    .filter(|f| f.is_finite() && *f > 0.0 && *f <= 1.0)
                    .ok_or_else(|| "field \"tiling_fraction\" must be in (0, 1]".to_string())?;
                config.tiling_fraction = f;
            }
            "prefetch" => {
                let name = field_str(v, k)?;
                config.mem.prefetch = PrefetchPolicy::parse(name).ok_or_else(|| {
                    format!("unknown prefetch policy {name:?} (off, next-line, smq-stream)")
                })?;
            }
            "prefetch_degree" => config.mem.prefetch_degree = field_positive(v, k)? as usize,
            "prefetch_mshr_cap" => config.mem.prefetch_mshr_cap = field_positive(v, k)? as usize,
            other => return Err(format!("unknown field {other:?}")),
        }
    }
    let dataset = dataset.ok_or("missing required field \"dataset\"")?;
    let label = dataflow_label.unwrap_or_else(|| "HyMM".to_string());
    let dataflow = if label.eq_ignore_ascii_case("HyMM-noacc") {
        // The Fig. 10 ablation: hybrid schedule, region-1 partials
        // materialised instead of merged near-memory.
        config.hybrid_merge = MergePolicy::Materialize;
        Dataflow::Hybrid
    } else {
        Dataflow::parse(&label)
            .ok_or_else(|| format!("unknown dataflow {label:?} (OP, RWP, HyMM, CWP, HyMM-noacc)"))?
    };
    config.validate().map_err(|e| e.to_string())?;
    let spec = match scale {
        Some(n) => dataset.spec().scaled(n),
        None => dataset.spec(),
    };
    if spec.nodes > MAX_NODES {
        return Err(format!(
            "dataset {} at {} nodes exceeds the {MAX_NODES}-node budget; \
             set field \"scale\" to at most {MAX_NODES}",
            dataset.abbrev(),
            spec.nodes
        ));
    }
    Ok(SimRequest {
        spec,
        dataflow,
        label: if label.eq_ignore_ascii_case("HyMM-noacc") {
            "HyMM-noacc".to_string()
        } else {
            dataflow.label().to_string()
        },
        config,
    })
}

/// Renders the response body for one completed simulation. Deterministic:
/// field order is fixed and every value derives from the request or the
/// report.
pub fn render_response(req: &SimRequest, report: &SimReport) -> String {
    let stalls = StallBreakdown::CLASSES
        .iter()
        .zip(report.stalls.as_array())
        .map(|(class, count)| format!("\"{}\": {count}", esc(class)))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        concat!(
            "{{\"dataset\": \"{dataset}\", \"dataflow\": \"{dataflow}\", ",
            "\"nodes\": {nodes}, \"edges\": {edges}, \"key\": \"{key:#018x}\", ",
            "\"cycles\": {cycles}, \"mac_ops\": {mac_ops}, ",
            "\"dram_bytes\": {dram_bytes}, \"dmb_hit_rate\": {dmb_hit_rate}, ",
            "\"alu_utilization\": {alu}, \"stalls\": {{{stalls}}}}}\n"
        ),
        dataset = req.spec.dataset.abbrev(),
        dataflow = esc(&req.label),
        nodes = req.spec.nodes,
        edges = req.spec.edges,
        key = req.key(),
        cycles = report.cycles,
        mac_ops = report.mac_ops,
        dram_bytes = report.dram_bytes(),
        dmb_hit_rate = fmt_num(report.dmb_hit_rate()),
        alu = fmt_num(report.alu_utilization()),
        stalls = stalls,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hymm_bench::json::parse_json;

    fn parse(body: &str) -> Result<SimRequest, String> {
        parse_request(&parse_json(body).unwrap(), false)
    }

    #[test]
    fn minimal_request_defaults_to_hymm() {
        let req = parse(r#"{"dataset": "CR"}"#).unwrap();
        assert_eq!(req.spec.dataset, Dataset::Cora);
        assert_eq!(req.dataflow, Dataflow::Hybrid);
        assert_eq!(req.label, "HyMM");
        assert_eq!(req.spec.nodes, 2708);
    }

    #[test]
    fn full_request_applies_knobs() {
        let req = parse(
            r#"{"dataset": "ap", "scale": 500, "dataflow": "OP", "preset": "tuned",
                "pe_lanes": 32, "mac_latency": 2, "mac_pipeline": true,
                "lane_gating": true, "prefetch": "next-line", "prefetch_degree": 2,
                "prefetch_mshr_cap": 3}"#,
        )
        .unwrap();
        assert_eq!(req.spec.dataset, Dataset::AmazonPhoto);
        assert_eq!(req.spec.nodes, 500);
        assert_eq!(req.dataflow, Dataflow::Outer);
        assert_eq!(req.config.num_pes, 32);
        assert_eq!(req.config.mac_latency, 2);
        assert!(req.config.mac_pipelined);
        assert!(req.config.lane_gating);
        assert_eq!(req.config.mem.prefetch_degree, 2);
        assert_eq!(req.config.mem.prefetch_mshr_cap, 3);
    }

    #[test]
    fn noacc_maps_to_materialising_hybrid() {
        let req = parse(r#"{"dataset": "CR", "dataflow": "HyMM-noacc"}"#).unwrap();
        assert_eq!(req.dataflow, Dataflow::Hybrid);
        assert_eq!(req.label, "HyMM-noacc");
        assert_eq!(req.config.hybrid_merge, MergePolicy::Materialize);
    }

    #[test]
    fn rejects_bad_requests() {
        for (body, want) in [
            (r#"[1]"#, "must be a JSON object"),
            (r#"{}"#, "missing required field"),
            (r#"{"dataset": "ZZ"}"#, "unknown dataset"),
            (
                r#"{"dataset": "CR", "dataflow": "nope"}"#,
                "unknown dataflow",
            ),
            (r#"{"dataset": "CR", "typo_knob": 1}"#, "unknown field"),
            // One simulation core: the old selector is an unknown field.
            (
                r#"{"dataset": "CR", "scheduler": "stepped"}"#,
                "unknown field \"scheduler\"",
            ),
            (
                r#"{"dataset": "CR", "pe_lanes": 0}"#,
                "field \"pe_lanes\" must be at least 1",
            ),
            (
                r#"{"dataset": "CR", "mac_latency": 0}"#,
                "field \"mac_latency\" must be at least 1",
            ),
            (
                r#"{"dataset": "CR", "prefetch_degree": 0}"#,
                "field \"prefetch_degree\" must be at least 1",
            ),
            (
                r#"{"dataset": "CR", "prefetch_mshr_cap": 0}"#,
                "field \"prefetch_mshr_cap\" must be at least 1",
            ),
            // Above their maximum, these would park a worker in the
            // next-line prefetch loop or wrap the PE cycle counters.
            (
                r#"{"dataset": "CR", "prefetch": "next-line", "prefetch_degree": 8000000000000000}"#,
                "prefetch_degree must be at most 64",
            ),
            (
                r#"{"dataset": "CR", "mac_latency": 8000000000000000}"#,
                "mac_latency must be at most 256",
            ),
            (
                r#"{"dataset": "CR", "pe_lanes": 8000000000000000}"#,
                "num_pes (MAC lanes) must be at most 1024",
            ),
            (r#"{"dataset": "CR", "scale": 1}"#, "at least 2"),
            (r#"{"dataset": "CR", "preset": "huge"}"#, "unknown preset"),
            (
                r#"{"dataset": "CR", "tiling_fraction": 9.0}"#,
                "tiling_fraction",
            ),
        ] {
            let err = parse(body).unwrap_err();
            assert!(err.contains(want), "{body} gave {err:?}");
        }
    }

    #[test]
    fn node_budget_names_scale() {
        for body in [
            r#"{"dataset": "YP"}"#,
            r#"{"dataset": "FR"}"#,
            r#"{"dataset": "YP", "scale": 65537}"#,
        ] {
            let err = parse(body).unwrap_err();
            assert!(
                err.contains("\"scale\"") && err.contains("65536"),
                "{body} gave {err:?}"
            );
        }
        let capped = parse(r#"{"dataset": "YP", "scale": 65536}"#).unwrap();
        assert_eq!(capped.spec.nodes, MAX_NODES);
        // A bare native graph under the budget is still accepted.
        let cs = parse(r#"{"dataset": "CS"}"#).unwrap();
        assert_eq!(cs.spec.nodes, 18_333);
        // A scale above the budget is harmless when the dataset is smaller.
        let cr = parse(r#"{"dataset": "CR", "scale": 1000000}"#).unwrap();
        assert_eq!(cr.spec.nodes, 2708);
    }

    #[test]
    fn key_separates_graph_config_and_dataflow() {
        let base = parse(r#"{"dataset": "CR"}"#).unwrap();
        assert_eq!(base.key(), parse(r#"{"dataset": "CR"}"#).unwrap().key());
        for other in [
            r#"{"dataset": "AP"}"#,
            r#"{"dataset": "CR", "scale": 500}"#,
            r#"{"dataset": "CR", "dataflow": "OP"}"#,
            r#"{"dataset": "CR", "dataflow": "HyMM-noacc"}"#,
            r#"{"dataset": "CR", "pe_lanes": 32}"#,
        ] {
            assert_ne!(base.key(), parse(other).unwrap().key(), "{other}");
        }
        // The host-only audit knob does not move the key: it is pinned
        // result-identical, so coalescing across it is sound.
        let audited = parse_request(&parse_json(r#"{"dataset": "CR"}"#).unwrap(), true).unwrap();
        assert_eq!(base.key(), audited.key());
    }

    #[test]
    fn response_is_valid_json_and_deterministic() {
        let req = parse(r#"{"dataset": "CR", "scale": 100}"#).unwrap();
        let report = SimReport::empty();
        let a = render_response(&req, &report);
        assert_eq!(a, render_response(&req, &report));
        let doc = parse_json(&a).unwrap();
        assert_eq!(doc.get("dataset").and_then(Json::as_str), Some("CR"));
        assert_eq!(doc.get("cycles").and_then(Json::as_f64), Some(0.0));
        assert!(doc.get("stalls").and_then(|s| s.get("mac")).is_some());
    }
}
