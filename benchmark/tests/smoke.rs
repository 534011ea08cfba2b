//! Every workload, shrunk to tiny inputs, through the full metric
//! pipeline: set-up, checked warm-up, timed passes, untraced and traced.

use hymm_benchmark::metrics::{END_TO_END, PER_LAYER};
use hymm_benchmark::workloads::{run, Options, WORKLOADS};

fn tiny(trace: bool) -> Options {
    Options {
        seed: 3,
        seconds: 1.0,
        trace,
        tiny: true,
    }
}

#[test]
fn untraced_runs_report_every_end_to_end_metric_above_zero() {
    for workload in WORKLOADS {
        let outcome = run(workload, &tiny(false)).expect("known workload");
        assert!(outcome.correct(), "{workload}: {:?}", outcome.errors);
        assert!(outcome.attempted > 0);
        let rows = outcome.metrics.rows();
        assert_eq!(rows.len(), END_TO_END.len());
        for (name, value, _) in rows {
            assert!(
                value > 0.0 && value.is_finite(),
                "{workload} {name} = {value}"
            );
        }
        assert!(
            outcome.spans.is_empty(),
            "{workload} recorded spans untraced"
        );
    }
}

#[test]
fn traced_runs_report_the_layers_each_workload_calls() {
    let positive = |workload: &str, names: &[&str]| {
        let outcome = run(workload, &tiny(true)).expect("known workload");
        assert!(outcome.correct(), "{workload}: {:?}", outcome.errors);
        assert!(!outcome.spans.is_empty(), "{workload} recorded no spans");
        assert_eq!(outcome.metrics.rows().len(), PER_LAYER.len());
        for name in names {
            let value = outcome.metrics.get(name).unwrap_or(0.0);
            assert!(value > 0.0, "{workload} {name} = {value}");
        }
    };
    let sim = [
        "core.simulate_s.OP",
        "core.simulate_s.RWP",
        "core.simulate_s.HyMM",
        "core.layer1_s",
        "core.layer2_s",
        "core.ns_per_sim_cycle",
        "gcn.sparsify_s",
        "sim.cycles",
        "mem.dmb_accesses",
        "trace.wall_s",
    ];
    let prep = [
        "graph.normalize_s",
        "sparse.csr_s",
        "sparse.tiling_s",
        "sparse.edges_per_s",
    ];
    positive(
        "paper-suite",
        &[
            &sim[..],
            &prep[..],
            &["core.simulate_s.HyMM-noacc", "graph.synthesize_s"],
        ]
        .concat(),
    );
    positive(
        "dse-sweep",
        &[&sim[..], &prep[..], &["bench.pool_busy_share"]].concat(),
    );
    positive(
        "prep-native",
        &[
            &prep[..],
            &["graph.synthesize_s", "graph.sort_s", "trace.wall_s"],
        ]
        .concat(),
    );
    positive(
        "serve-open",
        &[
            // Served requests use HyMM and RWP only.
            &sim[1..],
            &[
                "serve.parse_us",
                "serve.lookup_us",
                "serve.simulate_ms",
                "serve.render_us",
                "serve.cache_hit_ratio",
            ][..],
        ]
        .concat(),
    );
}

#[test]
fn prep_native_never_simulates() {
    let outcome = run("prep-native", &tiny(true)).expect("known workload");
    for name in [
        "sim.cycles",
        "core.layer1_s",
        "core.layer2_s",
        "gcn.sparsify_s",
    ] {
        assert_eq!(outcome.metrics.get(name).unwrap_or(0.0), 0.0, "{name}");
    }
}

#[test]
fn unknown_workload_is_rejected() {
    assert!(run("nope", &tiny(false)).is_none());
}
