//! Seeded random-graph generators.
//!
//! [`preferential_attachment`] produces the power-law degree distributions
//! typical of the social/citation/co-purchase graphs in the paper's Table II
//! (§III: "Most adjacency matrices in graph datasets follow a power-law
//! distribution", Fig. 2: the top 20 % of nodes own >70 % of the edges).
//! [`erdos_renyi`] produces a flat degree distribution and is used by tests
//! and ablations as the *anti*-power-law control.
//!
//! All generators are deterministic for a given seed (PCG64), so every
//! experiment in this repository is reproducible bit-for-bit.

use hymm_sparse::permute::Permutation;
use hymm_sparse::Coo;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_pcg::Pcg64;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// A neighbour set. It is only ever probed for membership, and neighbours
/// are sorted before they are emitted, so its iteration order never reaches
/// the output. Its keys are generated node ids, never outside input, so a
/// one-multiply integer hash (no SipHash, no per-process seed) is enough.
type NodeSet = HashSet<u32, BuildHasherDefault<NodeIdHasher>>;

/// Multiplicative (Fx-style) hasher for the `u32` node ids in [`NodeSet`].
#[derive(Default)]
struct NodeIdHasher(u64);

impl Hasher for NodeIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(b as u32);
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = (self.0.rotate_left(5) ^ id as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Generates an undirected power-law graph with `nodes` nodes and `edges`
/// undirected edges (exact unless the density makes deduplication
/// impossible), returned as a symmetric adjacency matrix with unit weights
/// (each undirected edge appears as two triplets).
///
/// Equivalent to [`power_law_with_exponent`] with exponent `1.0`, which
/// reproduces the paper's Fig. 2 observation (top 20 % of nodes owning
/// ≳70 % of edges) on graphs of a few thousand nodes and up.
///
/// # Panics
///
/// Panics if `nodes < 2`.
pub fn preferential_attachment(nodes: usize, edges: usize, seed: u64) -> Coo {
    power_law_with_exponent(nodes, edges, 1.0, seed)
}

/// Generates an undirected power-law graph whose out-edge quotas follow a
/// Zipf distribution with the given `exponent` (larger ⇒ more skewed;
/// `0.0` ⇒ flat). Edge *targets* are sampled preferentially by current
/// degree, so in- and out-degree skew reinforce each other as in real
/// scale-free graphs. Node labels are randomly shuffled afterwards so the
/// returned matrix is **not** pre-sorted — degree sorting remains a real
/// preprocessing step.
///
/// # Panics
///
/// Panics if `nodes < 2` or `exponent` is negative.
pub fn power_law_with_exponent(nodes: usize, edges: usize, exponent: f64, seed: u64) -> Coo {
    assert!(nodes >= 2, "power-law generator needs at least 2 nodes");
    assert!(exponent >= 0.0, "exponent must be non-negative");
    let mut rng = Pcg64::seed_from_u64(seed);

    // Zipf out-edge quotas, largest-remainder rounded to sum to `edges`,
    // clamped per node to `nodes - 1` potential distinct neighbours.
    let weights: Vec<f64> = (0..nodes)
        .map(|i| 1.0 / ((i + 1) as f64).powf(exponent))
        .collect();
    let wsum: f64 = weights.iter().sum();
    let mut quotas: Vec<usize> = Vec::with_capacity(nodes);
    let mut remainders: Vec<(f64, usize)> = Vec::with_capacity(nodes);
    let mut assigned = 0usize;
    for (i, w) in weights.iter().enumerate() {
        let exact = edges as f64 * w / wsum;
        let q = (exact.floor() as usize).min(nodes - 1);
        quotas.push(q);
        assigned += q;
        remainders.push((exact - exact.floor(), i));
    }
    remainders.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    let mut deficit = edges.saturating_sub(assigned);
    for &(_, i) in remainders.iter().cycle().take(remainders.len() * 4) {
        if deficit == 0 {
            break;
        }
        if quotas[i] < nodes - 1 {
            quotas[i] += 1;
            deficit -= 1;
        }
    }

    // Materialise edges: per-node quota, preferential targets.
    let mut neighbours: Vec<NodeSet> = vec![NodeSet::default(); nodes];
    let mut endpoints: Vec<u32> = Vec::with_capacity(edges * 2);
    let mut placed = 0usize;
    for src in 0..nodes {
        let mut attached = 0usize;
        let mut attempts = 0usize;
        let quota = quotas[src];
        while attached < quota && attempts < quota * 20 + 8 {
            attempts += 1;
            let dst = if endpoints.is_empty() || rng.gen_ratio(1, 8) {
                rng.gen_range(0..nodes)
            } else {
                endpoints[rng.gen_range(0..endpoints.len())] as usize
            };
            if dst == src || neighbours[src].contains(&(dst as u32)) {
                continue;
            }
            neighbours[src].insert(dst as u32);
            neighbours[dst].insert(src as u32);
            endpoints.push(src as u32);
            endpoints.push(dst as u32);
            attached += 1;
            placed += 1;
        }
    }

    // Top-up to the exact edge count where deduplication caused shortfalls.
    let mut attempts = 0usize;
    while placed < edges && attempts < edges * 20 + 64 {
        attempts += 1;
        let a = if endpoints.is_empty() || rng.gen_ratio(1, 8) {
            rng.gen_range(0..nodes)
        } else {
            endpoints[rng.gen_range(0..endpoints.len())] as usize
        };
        let b = rng.gen_range(0..nodes);
        if a == b || neighbours[a].contains(&(b as u32)) {
            continue;
        }
        neighbours[a].insert(b as u32);
        neighbours[b].insert(a as u32);
        endpoints.push(a as u32);
        endpoints.push(b as u32);
        placed += 1;
    }

    // Random relabelling so construction order leaks no degree information.
    let mut labels: Vec<u32> = (0..nodes as u32).collect();
    labels.shuffle(&mut rng);
    let relabel = Permutation::new(labels).expect("shuffle of identity is a bijection");

    let mut coo = Coo::new(nodes, nodes).expect("nodes >= 2");
    for (u, nbrs) in neighbours.iter().enumerate() {
        let ru = relabel.apply_index(u);
        // Set iteration order is unspecified; sort for reproducible output.
        let mut sorted: Vec<u32> = nbrs.iter().copied().collect();
        sorted.sort_unstable();
        for v in sorted {
            coo.push(ru, relabel.apply_index(v as usize), 1.0)
                .expect("generated indices in bounds");
        }
    }
    coo
}

/// Generates an undirected Erdős–Rényi graph with exactly `edges` distinct
/// undirected edges, returned as a symmetric unit-weight adjacency matrix.
///
/// # Panics
///
/// Panics if `nodes < 2` or if `edges` exceeds `nodes * (nodes - 1) / 2`.
pub fn erdos_renyi(nodes: usize, edges: usize, seed: u64) -> Coo {
    assert!(nodes >= 2, "erdos_renyi needs at least 2 nodes");
    let max_edges = nodes * (nodes - 1) / 2;
    assert!(
        edges <= max_edges,
        "requested {edges} edges but only {max_edges} possible"
    );
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut neighbours: Vec<NodeSet> = vec![NodeSet::default(); nodes];
    let mut placed = 0usize;
    while placed < edges {
        let a = rng.gen_range(0..nodes);
        let b = rng.gen_range(0..nodes);
        if a == b || neighbours[a].contains(&(b as u32)) {
            continue;
        }
        neighbours[a].insert(b as u32);
        neighbours[b].insert(a as u32);
        placed += 1;
    }
    let mut coo = Coo::new(nodes, nodes).expect("nodes >= 2");
    for (u, nbrs) in neighbours.iter().enumerate() {
        let mut sorted: Vec<u32> = nbrs.iter().copied().collect();
        sorted.sort_unstable();
        for v in sorted {
            coo.push(u, v as usize, 1.0)
                .expect("generated indices in bounds");
        }
    }
    coo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pa_is_deterministic() {
        let a = preferential_attachment(100, 300, 7);
        let b = preferential_attachment(100, 300, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn pa_seed_changes_graph() {
        let a = preferential_attachment(100, 300, 7);
        let b = preferential_attachment(100, 300, 8);
        assert_ne!(a, b);
    }

    #[test]
    fn pa_hits_edge_target() {
        let g = preferential_attachment(500, 2000, 42);
        // symmetric: nnz = 2 * undirected edges
        assert_eq!(g.nnz(), 4000);
    }

    #[test]
    fn pa_is_symmetric() {
        let g = preferential_attachment(64, 200, 3);
        let entries: HashSet<(usize, usize)> = g.iter().map(|(r, c, _)| (r, c)).collect();
        for &(r, c) in &entries {
            assert!(entries.contains(&(c, r)), "missing mirror of ({r},{c})");
        }
    }

    #[test]
    fn pa_has_no_self_loops_or_duplicates() {
        let g = preferential_attachment(64, 200, 3);
        assert!(g.iter().all(|(r, c, _)| r != c));
        let coords: Vec<(usize, usize)> = g.iter().map(|(r, c, _)| (r, c)).collect();
        let distinct: HashSet<_> = coords.iter().copied().collect();
        assert_eq!(coords.len(), distinct.len());
    }

    #[test]
    fn pa_degree_distribution_is_skewed() {
        let g = preferential_attachment(1000, 5000, 11);
        let mut deg = g.row_degrees();
        deg.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = deg.iter().sum();
        let top20: usize = deg[..200].iter().sum();
        // paper Fig. 2: top 20% of nodes own >70% of edges
        assert!(
            top20 as f64 / total as f64 > 0.6,
            "top-20% share {} too flat",
            top20 as f64 / total as f64
        );
    }

    #[test]
    fn exponent_controls_skew() {
        let share = |alpha: f64| {
            let g = power_law_with_exponent(600, 3000, alpha, 13);
            let mut deg = g.row_degrees();
            deg.sort_unstable_by(|a, b| b.cmp(a));
            let total: usize = deg.iter().sum();
            deg[..120].iter().sum::<usize>() as f64 / total as f64
        };
        assert!(share(1.4) > share(0.7));
        assert!(share(0.7) > share(0.0));
    }

    #[test]
    fn labels_are_shuffled() {
        // with Zipf quotas, node 0 would otherwise always be the top hub
        let g = power_law_with_exponent(400, 2000, 1.0, 21);
        let deg = g.row_degrees();
        let max = *deg.iter().max().unwrap();
        assert_ne!(deg[0], max, "hub landed on node 0; labels look unshuffled");
    }

    #[test]
    fn er_exact_edges_and_symmetric() {
        let g = erdos_renyi(50, 100, 5);
        assert_eq!(g.nnz(), 200);
        let entries: HashSet<(usize, usize)> = g.iter().map(|(r, c, _)| (r, c)).collect();
        for &(r, c) in &entries {
            assert!(entries.contains(&(c, r)));
        }
    }

    #[test]
    #[should_panic(expected = "possible")]
    fn er_rejects_impossible_density() {
        let _ = erdos_renyi(3, 10, 0);
    }

    #[test]
    fn er_flatter_than_pa() {
        let pa = preferential_attachment(500, 3000, 1);
        let er = erdos_renyi(500, 3000, 1);
        let share = |g: &Coo| {
            let mut d = g.row_degrees();
            d.sort_unstable_by(|a, b| b.cmp(a));
            let tot: usize = d.iter().sum();
            d[..100].iter().sum::<usize>() as f64 / tot as f64
        };
        assert!(share(&pa) > share(&er));
    }
}
