//! Criterion benchmarks of the sparse substrate: format conversions,
//! functional SpDeMM dataflows, and region tiling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hymm_graph::generator::preferential_attachment;
use hymm_sparse::permute::degree_sort_permutation;
use hymm_sparse::spdemm;
use hymm_sparse::tiling::{TiledMatrix, TilingConfig};
use hymm_sparse::{Csc, Csr, Dense};

fn bench_conversions(c: &mut Criterion) {
    let mut group = c.benchmark_group("format_conversion");
    for &n in &[1_000usize, 4_000] {
        let coo = preferential_attachment(n, n * 5, 7);
        group.bench_with_input(BenchmarkId::new("coo_to_csr", n), &coo, |b, coo| {
            b.iter(|| Csr::from_coo(coo))
        });
        group.bench_with_input(BenchmarkId::new("coo_to_csc", n), &coo, |b, coo| {
            b.iter(|| Csc::from_coo(coo))
        });
    }
    group.finish();
}

fn bench_spdemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("functional_spdemm");
    let coo = preferential_attachment(2_000, 10_000, 7);
    let csr = Csr::from_coo(&coo);
    let csc = Csc::from_coo(&coo);
    let dense = Dense::from_fn(2_000, 16, |r, c| ((r + c) % 13) as f32 * 0.1);
    group.bench_function("row_wise_product", |b| {
        b.iter(|| spdemm::row_wise_product(&csr, &dense))
    });
    group.bench_function("outer_product", |b| {
        b.iter(|| spdemm::outer_product(&csc, &dense))
    });
    group.finish();
}

fn bench_tiling(c: &mut Criterion) {
    let mut group = c.benchmark_group("region_tiling");
    let coo = preferential_attachment(4_000, 20_000, 7);
    let csr = Csr::from_coo(&coo);
    let perm = degree_sort_permutation(&coo).expect("square");
    let cfg = TilingConfig::default();
    group.bench_function("tile_4k_nodes", |b| {
        b.iter(|| TiledMatrix::new(&csr, &perm, &cfg).expect("square"))
    });
    group.finish();
}

criterion_group!(benches, bench_conversions, bench_spdemm, bench_tiling);
criterion_main!(benches);
