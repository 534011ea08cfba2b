//! Seeded workload inputs.
//!
//! Graphs come from the same generators `DatasetSpec::synthesize` uses,
//! seeded with `(dataset tag << 32 | nodes) ^ mix(seed)`. Because
//! `mix(0) == 0`, seed 0 reproduces the repository's own synthesis bit for
//! bit; any other seed gives a held-out graph of the same shape.

use hymm_graph::datasets::{Dataset, DatasetSpec, Workload};
use hymm_graph::features::sparse_features;
use hymm_graph::generator::preferential_attachment;
use rand::SeedableRng;
use rand_pcg::Pcg64;

/// Scrambles a benchmark seed (the 64-bit MurmurHash3 finaliser, a
/// bijection with `mix(0) == 0`).
pub fn mix(seed: u64) -> u64 {
    let mut z = seed;
    z ^= z >> 33;
    z = z.wrapping_mul(0xff51_afd7_ed55_8ccd);
    z ^= z >> 33;
    z = z.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    z ^ (z >> 33)
}

/// The generator seed `DatasetSpec::synthesize` derives from a spec.
fn spec_seed(spec: &DatasetSpec) -> u64 {
    let tag = Dataset::ALL
        .iter()
        .position(|d| *d == spec.dataset)
        .expect("dataset listed in Dataset::ALL") as u64
        + 1;
    tag << 32 | spec.nodes as u64
}

/// Synthesises `spec`'s adjacency and features under benchmark seed `seed`.
pub fn synthesize(spec: &DatasetSpec, seed: u64) -> Workload {
    let graph_seed = spec_seed(spec) ^ mix(seed);
    Workload {
        spec: *spec,
        adjacency: preferential_attachment(spec.nodes, spec.edges / 2, graph_seed),
        features: sparse_features(
            spec.nodes,
            spec.feature_len,
            spec.feature_sparsity,
            graph_seed ^ 0xfeed,
        ),
    }
}

/// The generator for seed-dependent choices (request orders, cold specs),
/// one independent stream per `stream` tag.
pub fn rng(seed: u64, stream: u64) -> Pcg64 {
    Pcg64::seed_from_u64(mix(seed) ^ stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_fixes_zero_and_scatters_the_rest() {
        assert_eq!(mix(0), 0);
        assert_ne!(mix(1), 1);
        assert_ne!(mix(1), mix(2));
    }
}
