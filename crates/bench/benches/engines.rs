//! Criterion benchmarks of the three simulated dataflows (the workload
//! behind the paper's Fig. 7, at a CI-friendly scale).
//!
//! These measure *simulator throughput*, complementing the `fig7` binary
//! which reports *simulated cycles*: run `cargo bench -p hymm-bench` for
//! statistical timing, `cargo run --release -p hymm-bench -- fig7` for
//! the paper's numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hymm_core::config::{AcceleratorConfig, Dataflow};
use hymm_gcn::{run_inference, GcnModel};
use hymm_graph::datasets::Dataset;

fn bench_dataflows(c: &mut Criterion) {
    let mut group = c.benchmark_group("gcn_inference");
    group.sample_size(10);
    for dataset in [Dataset::Cora, Dataset::AmazonPhoto] {
        let w = dataset.synthesize_scaled(1_000);
        let model = GcnModel::two_layer(w.spec.feature_len, w.spec.layer_dim, w.spec.layer_dim, 42);
        let config = AcceleratorConfig::default();
        for df in Dataflow::ALL {
            group.bench_with_input(
                BenchmarkId::new(df.label(), dataset.abbrev()),
                &df,
                |b, &df| {
                    b.iter(|| {
                        run_inference(&config, df, &w.adjacency, &w.features, &model)
                            .expect("shapes consistent")
                            .report
                            .cycles
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_tiling_fractions(c: &mut Criterion) {
    let mut group = c.benchmark_group("hybrid_tiling_fraction");
    group.sample_size(10);
    let w = Dataset::AmazonComputers.synthesize_scaled(1_000);
    let model = GcnModel::two_layer(w.spec.feature_len, 16, 16, 42);
    for percent in [0u32, 20, 100] {
        let config = AcceleratorConfig {
            tiling_fraction: percent as f64 / 100.0,
            ..AcceleratorConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(percent), &config, |b, cfg| {
            b.iter(|| {
                run_inference(cfg, Dataflow::Hybrid, &w.adjacency, &w.features, &model)
                    .expect("shapes consistent")
                    .report
                    .cycles
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dataflows, bench_tiling_fractions);
criterion_main!(benches);
