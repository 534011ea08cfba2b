//! Dense reference executor for numerical verification.
//!
//! Computes GCN inferences with plain dense matrix algebra — slow, but each
//! step is trivially auditable. Every simulated inference is asserted
//! against this in the test suites.

use crate::model::GcnModel;
use hymm_graph::normalize::gcn_normalize;
use hymm_sparse::{Coo, Dense};

/// Densifies a sparse matrix.
pub fn densify(m: &Coo) -> Dense {
    let mut out = Dense::zeros(m.rows(), m.cols());
    for (r, c, v) in m.iter() {
        out.set(r, c, out.get(r, c) + v);
    }
    out
}

/// Applies ReLU in place.
pub fn relu(m: &mut Dense) {
    for r in 0..m.rows() {
        for v in m.row_mut(r) {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }
}

/// Runs a full GCN inference densely: `H ← σ(Â H W)` per layer, starting
/// from the raw (unnormalised) adjacency matrix and sparse features.
///
/// # Panics
///
/// Panics if shapes are inconsistent.
pub fn dense_inference(adj: &Coo, features: &Coo, model: &GcnModel) -> Dense {
    let a_hat = densify(
        &gcn_normalize(adj)
            .expect("adjacency must be square")
            .to_coo(),
    );
    let mut h = densify(features);
    for (spec, w) in model.layers().iter().zip(model.weights()) {
        let hw = h.matmul(w).expect("layer dims validated by GcnModel");
        let mut next = a_hat.matmul(&hw).expect("square adjacency");
        if spec.relu {
            relu(&mut next);
        }
        h = next;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LayerSpec;

    #[test]
    fn densify_round_trip() {
        let m = Coo::from_triplets(2, 3, [(0, 1, 2.0), (1, 2, -1.0)]).unwrap();
        let d = densify(&m);
        assert_eq!(d.get(0, 1), 2.0);
        assert_eq!(d.get(1, 2), -1.0);
        assert_eq!(d.get(0, 0), 0.0);
    }

    #[test]
    fn densify_sums_duplicates() {
        let m = Coo::from_triplets(1, 1, [(0, 0, 1.0), (0, 0, 2.0)]).unwrap();
        assert_eq!(densify(&m).get(0, 0), 3.0);
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut m = Dense::from_vec(1, 3, vec![-1.0, 0.0, 2.0]).unwrap();
        relu(&mut m);
        assert_eq!(m.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn single_layer_matches_manual() {
        // 2-node graph with one edge; identity-ish feature/weight.
        let adj = Coo::from_triplets(2, 2, [(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let x = Coo::from_triplets(2, 1, [(0, 0, 1.0), (1, 0, 2.0)]).unwrap();
        let model = GcnModel::new(
            vec![LayerSpec {
                in_dim: 1,
                out_dim: 1,
                relu: false,
            }],
            0,
        );
        let out = dense_inference(&adj, &x, &model);
        // Â = [[1/2, 1/2], [1/2, 1/2]]; XW with w = W[0][0]
        let w = model.weights()[0].get(0, 0);
        assert!((out.get(0, 0) - (0.5 * 1.0 + 0.5 * 2.0) * w).abs() < 1e-6);
    }
}
