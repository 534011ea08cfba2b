//! Telemetry-subsystem integration tests.
//!
//! Four guarantees, across every dataflow:
//!
//! 1. **Off means off** — with `config.metrics = None` (the default) the
//!    report carries no series and is bit-identical to what the same
//!    configuration produced before the subsystem existed (the timing
//!    goldens pin the absolute numbers; here we pin the field).
//! 2. **Sampling is observation-only** — enabling the sampler changes
//!    nothing about the simulated timing; the report is bit-identical apart
//!    from carrying the series.
//! 3. **Series are reproducible** — two sampled runs of the same workload
//!    carry bit-identical series, every timestamp and every gauge.
//! 4. **Accounting is exact** — per-interval stall-class deltas sum to the
//!    end-of-run waterfall totals exactly (when the ring never overflowed),
//!    across dataflows, sampling intervals and random workloads; the
//!    `--audit` layer enforces the same invariant per layer.

use hymm::core::audit;
use hymm::core::config::{AcceleratorConfig, Dataflow};
use hymm::gcn::{run_inference, GcnModel};
use hymm::graph::features::sparse_features;
use hymm::graph::generator::preferential_attachment;
use hymm::mem::MetricsConfig;
use hymm::sparse::Coo;
use proptest::prelude::*;

fn fixture() -> (Coo, Coo, GcnModel) {
    let adj = preferential_attachment(48, 160, 7);
    let x = sparse_features(48, 12, 0.6, 11);
    let model = GcnModel::two_layer(12, 16, 5, 3);
    (adj, x, model)
}

fn metrics_config(sample_every: u64) -> AcceleratorConfig {
    AcceleratorConfig {
        metrics: Some(MetricsConfig {
            sample_every,
            ..MetricsConfig::default()
        }),
        ..AcceleratorConfig::default()
    }
}

#[test]
fn metrics_off_attaches_no_series() {
    let (adj, x, model) = fixture();
    for df in Dataflow::EXTENDED {
        let report = run_inference(&AcceleratorConfig::default(), df, &adj, &x, &model)
            .unwrap()
            .report;
        assert!(
            report.metrics.is_none(),
            "{}: metrics off must not allocate series",
            df.label()
        );
    }
}

#[test]
fn sampling_is_observation_only() {
    let (adj, x, model) = fixture();
    let plain = AcceleratorConfig::default();
    let sampled = metrics_config(512);
    for df in Dataflow::EXTENDED {
        let base = run_inference(&plain, df, &adj, &x, &model).unwrap().report;
        let mut with_metrics = run_inference(&sampled, df, &adj, &x, &model)
            .unwrap()
            .report;
        let metrics = with_metrics
            .metrics
            .take()
            .expect("metrics on must attach series");
        assert!(
            !metrics.samples.is_empty(),
            "{}: enabled sampler collected nothing",
            df.label()
        );
        assert_eq!(
            metrics.dropped, 0,
            "default ring must not overflow on the fixture"
        );
        assert_eq!(metrics.sample_every, 512);
        assert_eq!(
            with_metrics,
            base,
            "{}: sampling changed the simulation outcome",
            df.label()
        );
    }
}

/// Metrics on/off bit-identity plus series reproducibility: two sampled
/// runs return identical reports — every series timestamp, every gauge,
/// every stall delta — and, with the series taken off, both equal the
/// unsampled report.
#[test]
fn series_are_bit_identical_across_runs() {
    let (adj, x, model) = fixture();
    for df in Dataflow::EXTENDED {
        let plain = run_inference(&AcceleratorConfig::default(), df, &adj, &x, &model)
            .unwrap()
            .report;
        let mut reports = Vec::with_capacity(2);
        for _ in 0..2 {
            let config = metrics_config(1024);
            reports.push(run_inference(&config, df, &adj, &x, &model).unwrap().report);
        }
        let [mut first, mut second] = reports.try_into().unwrap();
        assert!(first.metrics.is_some(), "{}", df.label());
        assert_eq!(
            first,
            second,
            "{}: sampled reports (incl. every sample) diverged between runs",
            df.label()
        );
        first.metrics = None;
        second.metrics = None;
        assert_eq!(first, plain, "{}: sampling moved a cycle", df.label());
        assert_eq!(second, plain, "{}: sampling moved a cycle", df.label());
    }
}

#[test]
fn interval_deltas_sum_to_waterfall_totals() {
    let (adj, x, model) = fixture();
    for sample_every in [64, 1000, 4096] {
        let mut config = metrics_config(sample_every);
        config.audit = true;
        for df in Dataflow::EXTENDED {
            let outcome = run_inference(&config, df, &adj, &x, &model).unwrap();
            let report = &outcome.report;
            let metrics = report.metrics.as_deref().expect("metrics on");
            assert_eq!(metrics.dropped, 0);
            assert_eq!(
                metrics.stall_sums(),
                report.stalls.as_array().map(|v| v as i64),
                "{} @ every {sample_every}: interval deltas must telescope to the waterfall",
                df.label()
            );
            // The audit layer enforces the same invariant per layer (its
            // "metrics-accounting" check), alongside all the others.
            for layer in &outcome.layer_reports {
                let violations = audit::check_report(layer);
                assert!(
                    violations.is_empty(),
                    "{}: audit violations with metrics on: {violations:?}",
                    df.label()
                );
            }
        }
    }
}

proptest! {
    // Each case simulates two full GCN layers; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Accounting stays exact on random workloads and sampling intervals —
    // including intervals far longer than any phase (all backfill) and far
    // shorter than a DMB miss (dense boundaries). The merged two-layer
    // report's series must sum to the merged waterfall.
    #[test]
    fn accounting_is_exact_on_random_workloads(
        nodes in 24..56usize,
        edges in 60..220usize,
        seed in 0..1000u64,
        // Mostly ordinary intervals, occasionally one longer than any run
        // (a single all-backfill closing sample).
        sample_every in (1..8192u64).prop_map(|v| if v % 7 == 0 { 1 << 20 } else { v }),
    ) {
        let adj = preferential_attachment(nodes, edges, seed);
        let x = sparse_features(nodes, 10, 0.5, seed.wrapping_add(1));
        let model = GcnModel::two_layer(10, 12, 4, 3);
        let mut config = metrics_config(sample_every);
        config.audit = true;
        for df in [Dataflow::Outer, Dataflow::Hybrid] {
            let report = run_inference(&config, df, &adj, &x, &model).unwrap().report;
            let metrics = report.metrics.as_deref().expect("metrics on");
            prop_assert_eq!(metrics.dropped, 0);
            prop_assert_eq!(
                metrics.stall_sums(),
                report.stalls.as_array().map(|v| v as i64),
                "{} @ every {}", df.label(), sample_every
            );
            // Timestamps are strictly increasing interval boundaries.
            for pair in metrics.samples.windows(2) {
                prop_assert!(pair[0].ts < pair[1].ts);
            }
        }
    }
}
