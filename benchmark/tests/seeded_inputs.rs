//! Seed 0 must reproduce the repository's own synthesis bit for bit, and
//! other seeds must give different graphs of the same shape.

use hymm_benchmark::inputs::synthesize;
use hymm_graph::datasets::Dataset;

#[test]
fn seed_zero_reproduces_dataset_synthesis() {
    for dataset in [Dataset::Cora, Dataset::AmazonPhoto] {
        let spec = dataset.spec();
        let ours = synthesize(&spec, 0);
        let theirs = spec.synthesize();
        assert_eq!(ours.adjacency, theirs.adjacency, "{dataset:?} adjacency");
        assert_eq!(ours.features, theirs.features, "{dataset:?} features");
    }
}

#[test]
fn seed_one_gives_different_graphs_of_the_same_shape() {
    for dataset in [Dataset::Cora, Dataset::AmazonPhoto] {
        let spec = dataset.spec();
        let base = synthesize(&spec, 0);
        let held_out = synthesize(&spec, 1);
        assert_ne!(base.adjacency, held_out.adjacency, "{dataset:?} adjacency");
        assert_ne!(base.features, held_out.features, "{dataset:?} features");
        assert_eq!(base.adjacency.rows(), held_out.adjacency.rows());
        assert_eq!(base.adjacency.nnz(), held_out.adjacency.nnz());
        assert_eq!(base.features.nnz(), held_out.features.nnz());
    }
}

#[test]
fn scaled_specs_are_seeded_too() {
    let spec = Dataset::Physics.spec().scaled(500);
    assert_eq!(synthesize(&spec, 0).adjacency, spec.synthesize().adjacency);
    assert_ne!(synthesize(&spec, 7).adjacency, spec.synthesize().adjacency);
}
