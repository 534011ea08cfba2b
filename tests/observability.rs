//! Observability-layer integration tests.
//!
//! Four guarantees, across every dataflow:
//!
//! 1. **Stall attribution is exhaustive** — the per-class breakdown sums
//!    exactly to the cycle total, per phase and per report (the same
//!    invariant the `--audit` layer enforces).
//! 2. **Tracing is observation-only** — enabling the trace ring changes
//!    nothing about the simulated timing; the report is bit-identical apart
//!    from carrying the trace.
//! 3. **Traces are well-formed** — clock-domain tracks are time-ordered and
//!    phase begin/end markers pair up.
//! 4. **Traces are reproducible** — two traced runs of the same workload
//!    carry bit-identical traces, every timestamp included, and the same
//!    cycles as the untraced run.

use hymm_core::audit;
use hymm_core::config::{AcceleratorConfig, Dataflow};
use hymm_core::trace::{TraceData, TraceKind, Track};
use hymm_gcn::inference::run_inference;
use hymm_gcn::model::GcnModel;
use hymm_graph::features::sparse_features;
use hymm_graph::generator::preferential_attachment;
use hymm_sparse::Coo;

fn fixture() -> (Coo, Coo, GcnModel) {
    let adj = preferential_attachment(48, 160, 7);
    let x = sparse_features(48, 12, 0.6, 11);
    let model = GcnModel::two_layer(12, 16, 5, 3);
    (adj, x, model)
}

fn traced_config() -> AcceleratorConfig {
    let mut config = AcceleratorConfig::default();
    config.mem.trace = true;
    config
}

#[test]
fn stall_classes_sum_to_cycles_for_every_dataflow() {
    let (adj, x, model) = fixture();
    let config = AcceleratorConfig::default();
    for df in Dataflow::EXTENDED {
        let outcome = run_inference(&config, df, &adj, &x, &model).unwrap();
        let r = &outcome.report;
        assert_eq!(
            r.stalls.total(),
            r.cycles,
            "{}: stall classes must sum to the cycle total",
            df.label()
        );
        for p in &r.phases {
            assert_eq!(
                p.stalls.total(),
                p.cycles(),
                "{} phase {}: per-phase stall classes must sum to phase cycles",
                df.label(),
                p.name
            );
        }
        for layer in &outcome.layer_reports {
            assert_eq!(layer.stalls.total(), layer.cycles, "{}", df.label());
        }
    }
}

#[test]
fn tracing_is_observation_only() {
    let (adj, x, model) = fixture();
    let plain = AcceleratorConfig::default();
    let traced = traced_config();
    for df in Dataflow::EXTENDED {
        let base = run_inference(&plain, df, &adj, &x, &model).unwrap().report;
        let mut with_trace = run_inference(&traced, df, &adj, &x, &model).unwrap().report;
        assert!(
            base.trace.is_none(),
            "tracing off must not allocate a trace"
        );
        let trace = with_trace
            .trace
            .take()
            .expect("tracing on must attach a trace");
        assert!(
            !trace.events.is_empty(),
            "{}: enabled trace collected no events",
            df.label()
        );
        assert_eq!(
            trace.dropped, 0,
            "default ring must not overflow on the fixture"
        );
        assert_eq!(
            with_trace,
            base,
            "{}: tracing changed the simulation outcome",
            df.label()
        );
    }
}

/// Tracks stamped by a single monotone clock; `Track::MshrRetire` and
/// `Track::Lsq` are excluded by design (both DMB ports feed them on
/// independent clocks, so they are completion-ordered).
fn is_monotone_track(t: Track) -> bool {
    matches!(
        t,
        Track::Phase | Track::DmbRead | Track::DmbWrite | Track::DramChannel(_) | Track::Smq(_)
    )
}

fn trace_for(df: Dataflow) -> TraceData {
    let (adj, x, model) = fixture();
    let report = run_inference(&traced_config(), df, &adj, &x, &model)
        .unwrap()
        .report;
    *report.trace.expect("tracing enabled")
}

#[test]
fn clock_domain_tracks_are_time_ordered() {
    for df in Dataflow::EXTENDED {
        let trace = trace_for(df);
        let mut last: std::collections::HashMap<Track, u64> = std::collections::HashMap::new();
        let mut checked = 0usize;
        for e in trace.events.iter().filter(|e| is_monotone_track(e.track)) {
            let prev = last.insert(e.track, e.ts);
            if let Some(prev) = prev {
                assert!(
                    e.ts >= prev,
                    "{}: track {:?} went backwards ({prev} -> {})",
                    df.label(),
                    e.track,
                    e.ts
                );
            }
            checked += 1;
        }
        assert!(checked > 0, "{}: no monotone-track events", df.label());
    }
}

#[test]
fn phase_markers_pair_up() {
    for df in Dataflow::EXTENDED {
        let trace = trace_for(df);
        let mut open: Vec<(&'static str, u64)> = Vec::new();
        let mut pairs = 0usize;
        for e in &trace.events {
            match e.kind {
                TraceKind::PhaseBegin { name } => open.push((name, e.ts)),
                TraceKind::PhaseEnd { name } => {
                    let (begin_name, begin_ts) = open
                        .pop()
                        .unwrap_or_else(|| panic!("{}: unmatched PhaseEnd", df.label()));
                    assert_eq!(begin_name, name, "{}: interleaved phases", df.label());
                    assert!(
                        begin_ts <= e.ts,
                        "{}: phase ends before it begins",
                        df.label()
                    );
                    pairs += 1;
                }
                _ => {}
            }
        }
        assert!(
            open.is_empty(),
            "{}: unterminated phases: {open:?}",
            df.label()
        );
        // Two layers, each with at least a combination and an aggregation
        // phase.
        assert!(
            pairs >= 4,
            "{}: expected >= 4 phases, saw {pairs}",
            df.label()
        );
    }
}

/// Trace on/off cycle identity plus trace reproducibility: two traced runs
/// return identical reports — every timestamp, duration, track ordering
/// and drop count — and, with the trace taken off, both equal the untraced
/// report.
#[test]
fn traces_are_bit_identical_across_runs() {
    let (adj, x, model) = fixture();
    for df in Dataflow::EXTENDED {
        let plain = run_inference(&AcceleratorConfig::default(), df, &adj, &x, &model)
            .unwrap()
            .report;
        let mut first = run_inference(&traced_config(), df, &adj, &x, &model)
            .unwrap()
            .report;
        let mut second = run_inference(&traced_config(), df, &adj, &x, &model)
            .unwrap()
            .report;
        assert!(
            first.trace.is_some(),
            "{}: tracing on returned no trace",
            df.label()
        );
        assert_eq!(
            first,
            second,
            "{}: traced reports (incl. every timestamp) diverged between runs",
            df.label()
        );
        first.trace = None;
        second.trace = None;
        assert_eq!(first, plain, "{}: tracing moved a cycle", df.label());
        assert_eq!(second, plain, "{}: tracing moved a cycle", df.label());
    }
}

#[test]
fn audit_is_clean_with_tracing_enabled() {
    let (adj, x, model) = fixture();
    for df in Dataflow::EXTENDED {
        let outcome = run_inference(&traced_config(), df, &adj, &x, &model).unwrap();
        // The audit layer checks per-layer reports (the merged report keeps
        // each layer's phases on its own timeline, so phase monotonicity
        // only holds per layer).
        for layer in &outcome.layer_reports {
            let violations = audit::check_report(layer);
            assert!(
                violations.is_empty(),
                "{}: audit violations with tracing on: {violations:?}",
                df.label()
            );
        }
    }
}
