//! Differential engine oracle.
//!
//! All four dataflows (OP, CWP, RWP, Hybrid) must compute *bit-identical*
//! `A·(X·W)` against a dense reference on randomized degree-skewed graphs.
//! Exact equality across different accumulation orders is achievable because
//! every input value is a small integer: with all partial sums below 2^24,
//! every intermediate is exactly representable in `f32` and addition is
//! associative, so any reordering produces the same bits. A real numeric bug
//! (lost contribution, double merge, wrong tile offset) changes the integer
//! result and fails the exact comparison — nothing hides inside an epsilon.
//!
//! On top of the numeric oracle, per-report statistics must satisfy
//! cross-engine sanity relations: the hybrid dataflow never reads more DRAM
//! than the worst single dataflow, and the OP engine's accumulator merge
//! count equals the combinatorially predicted number of non-first-touch
//! writes. Every run also passes the `hymm_core::audit` checks, both via the
//! in-machine `audit` flag and re-checked on the final reports.

use hymm_core::audit;
use hymm_core::config::{AcceleratorConfig, Dataflow, MergePolicy};
use hymm_core::sim::run_gcn_layer;
use hymm_graph::generator::{power_law_with_exponent, preferential_attachment};
use hymm_sparse::{Coo, Dense, TilingConfig};
use rand::{Rng, SeedableRng};
use rand_pcg::Pcg64;

const FEATURE_DIM: usize = 32;
const OUT_DIM: usize = 16;

/// Rebuilds `structure` with deterministic small-integer edge weights.
fn integer_adjacency(structure: &Coo, rng: &mut Pcg64) -> Coo {
    let mut out = Coo::new(structure.rows(), structure.cols()).unwrap();
    for (r, c, _) in structure.iter() {
        out.push(r, c, rng.gen_range(1..=3u32) as f32).unwrap();
    }
    out
}

/// Sparse integer feature matrix (`n × FEATURE_DIM`, ~50 % dense).
fn integer_features(n: usize, rng: &mut Pcg64) -> Coo {
    let mut x = Coo::new(n, FEATURE_DIM).unwrap();
    for r in 0..n {
        for c in 0..FEATURE_DIM {
            if rng.gen_bool(0.5) {
                x.push(r, c, rng.gen_range(1..=4u32) as f32).unwrap();
            }
        }
    }
    x
}

/// Dense integer weights in `[-3, 3]` (`FEATURE_DIM × OUT_DIM`).
fn integer_weights(rng: &mut Pcg64) -> Dense {
    let vals: Vec<f32> = (0..FEATURE_DIM * OUT_DIM)
        .map(|_| rng.gen_range(0..=6u32) as f32 - 3.0)
        .collect();
    Dense::from_fn(FEATURE_DIM, OUT_DIM, |r, c| vals[r * OUT_DIM + c])
}

fn densify(m: &Coo) -> Dense {
    let mut vals = vec![0.0f32; m.rows() * m.cols()];
    for (r, c, v) in m.iter() {
        vals[r * m.cols() + c] += v;
    }
    Dense::from_fn(m.rows(), m.cols(), |r, c| vals[r * m.cols() + c])
}

/// One degree-skewed test graph per seed, alternating generator families.
fn skewed_graph(seed: u64) -> Coo {
    let n = 16 + (seed as usize * 13) % 113; // 16..=128
    let edges = 2 * n + (seed as usize * 7) % (2 * n);
    if seed.is_multiple_of(2) {
        power_law_with_exponent(n, edges, 2.0 + (seed % 3) as f64 * 0.4, seed)
    } else {
        preferential_attachment(n, edges, seed)
    }
}

fn audited_config() -> AcceleratorConfig {
    AcceleratorConfig {
        audit: true,
        ..AcceleratorConfig::default()
    }
}

/// The headline oracle: ≥ 20 randomized graphs, all four dataflows,
/// bit-identical outputs vs. the dense reference, clean audits, and the
/// hybrid-reads-less cross-engine relation.
#[test]
fn all_dataflows_are_bit_identical_to_the_dense_reference() {
    let config = audited_config();
    for seed in 0..24u64 {
        let mut rng = Pcg64::seed_from_u64(0x0DAC1E ^ seed);
        let adj = integer_adjacency(&skewed_graph(seed), &mut rng);
        let x = integer_features(adj.rows(), &mut rng);
        let w = integer_weights(&mut rng);

        let reference = densify(&adj)
            .matmul(&densify(&x).matmul(&w).unwrap())
            .unwrap();

        let mut read_bytes = std::collections::HashMap::new();
        for dataflow in Dataflow::EXTENDED {
            let outcome = run_gcn_layer(&config, dataflow, &adj, &x, &w)
                .unwrap_or_else(|e| panic!("seed {seed} {dataflow:?}: {e}"));
            assert_eq!(
                outcome.output.as_slice(),
                reference.as_slice(),
                "seed {seed}: {dataflow:?} diverged from the dense reference"
            );
            let violations = audit::check_report(&outcome.report);
            assert!(
                violations.is_empty(),
                "seed {seed} {dataflow:?}: {violations:?}"
            );
            read_bytes.insert(dataflow.label(), outcome.report.dram.total().read_bytes);
        }
        let worst_single = ["OP", "RWP", "CWP"]
            .iter()
            .map(|l| read_bytes[l])
            .max()
            .unwrap();
        assert!(
            read_bytes["HyMM"] <= worst_single,
            "seed {seed}: hybrid read {} bytes, worst single dataflow {}",
            read_bytes["HyMM"],
            worst_single
        );
    }
}

/// The HyMM-noacc ablation: partial outputs materialised instead of merged
/// near-memory, under OP (its log-region output writes) and the hybrid
/// schedule (region-1 partials). Same numeric oracle and audits as the
/// headline sweep, on its own randomized skewed graphs.
#[test]
fn materialized_merge_is_bit_identical_to_the_dense_reference() {
    let config = AcceleratorConfig {
        hybrid_merge: MergePolicy::Materialize,
        baseline_merge: MergePolicy::Materialize,
        ..audited_config()
    };
    for seed in 0..6u64 {
        let mut rng = Pcg64::seed_from_u64(0xA77E ^ seed);
        let adj = integer_adjacency(&skewed_graph(seed), &mut rng);
        let x = integer_features(adj.rows(), &mut rng);
        let w = integer_weights(&mut rng);
        let reference = densify(&adj)
            .matmul(&densify(&x).matmul(&w).unwrap())
            .unwrap();
        for dataflow in [Dataflow::Outer, Dataflow::Hybrid] {
            let outcome = run_gcn_layer(&config, dataflow, &adj, &x, &w)
                .unwrap_or_else(|e| panic!("seed {seed} {dataflow:?}: {e}"));
            assert_eq!(
                outcome.output.as_slice(),
                reference.as_slice(),
                "seed {seed}: materialising {dataflow:?} diverged from the dense reference"
            );
            let violations = audit::check_report(&outcome.report);
            assert!(
                violations.is_empty(),
                "seed {seed} {dataflow:?}: {violations:?}"
            );
        }
    }
}

/// The hybrid schedule at its tiling extremes: `T = 1` (one OP row),
/// `T = n` (all OP, no RWP rows) and a DMB so small that its capacity
/// clamps `T` below the fraction's share. HyMM and HyMM-noacc, audited,
/// must stay bit-identical to the dense reference at each.
#[test]
fn hybrid_tiling_extremes_are_bit_identical_to_the_dense_reference() {
    let default_mem = AcceleratorConfig::default().mem;
    // 16 lines: 16 output rows of OUT_DIM floats, below every graph's n.
    let clamping_mem = hymm_mem::MemConfig {
        dmb_bytes: 16 * default_mem.line_bytes,
        ..default_mem
    };
    let settings = [
        ("T = 1", 1e-9, default_mem),
        ("T = n", 1.0, default_mem),
        ("DMB clamp", 1.0, clamping_mem),
    ];
    // Seed 0's graph has exactly 16 nodes, so it starts at 1.
    for seed in 1..7u64 {
        let mut rng = Pcg64::seed_from_u64(0x711E ^ seed);
        let adj = integer_adjacency(&skewed_graph(seed), &mut rng);
        let x = integer_features(adj.rows(), &mut rng);
        let w = integer_weights(&mut rng);
        let n = adj.rows();
        let reference = densify(&adj)
            .matmul(&densify(&x).matmul(&w).unwrap())
            .unwrap();
        for &(label, fraction, mem) in &settings {
            for merge in [MergePolicy::NearMemory, MergePolicy::Materialize] {
                let config = AcceleratorConfig {
                    tiling_fraction: fraction,
                    hybrid_merge: merge,
                    mem,
                    ..audited_config()
                };
                let t = TilingConfig {
                    threshold_fraction: fraction,
                    dmb_capacity_rows: Some(config.dmb_capacity_rows(OUT_DIM)),
                }
                .threshold(n);
                let want_t = match label {
                    "T = 1" => 1,
                    "T = n" => n,
                    _ => 16,
                };
                assert!(16 < n, "seed {seed}: the DMB must clamp T below n");
                assert_eq!(t, want_t, "seed {seed} {label}");
                let outcome = run_gcn_layer(&config, Dataflow::Hybrid, &adj, &x, &w)
                    .unwrap_or_else(|e| panic!("seed {seed} {label} {merge:?}: {e}"));
                assert_eq!(
                    outcome.output.as_slice(),
                    reference.as_slice(),
                    "seed {seed}: hybrid at {label} with {merge:?} diverged from the dense reference"
                );
                let violations = audit::check_report(&outcome.report);
                assert!(
                    violations.is_empty(),
                    "seed {seed} {label} {merge:?}: {violations:?}"
                );
            }
        }
    }
}

/// OP merge accounting: with the near-memory accumulator, one output line
/// per row (OUT_DIM = 16 floats = one 64 B line) and a single output tile,
/// the number of accumulator merges is exactly the number of
/// non-first-touch output writes — `nnz − rows touched`, summed over the
/// combination and aggregation phases.
#[test]
fn op_accumulator_merges_match_first_touch_accounting() {
    let config = AcceleratorConfig {
        baseline_merge: MergePolicy::NearMemory,
        audit: true,
        ..AcceleratorConfig::default()
    };
    let nonempty_rows = |m: &Coo| {
        let mut seen = vec![false; m.rows()];
        for (r, _, _) in m.iter() {
            seen[r] = true;
        }
        seen.iter().filter(|&&s| s).count() as u64
    };
    for seed in 0..8u64 {
        let mut rng = Pcg64::seed_from_u64(0x0ACC ^ seed);
        let adj = integer_adjacency(&skewed_graph(seed), &mut rng);
        let x = integer_features(adj.rows(), &mut rng);
        let w = integer_weights(&mut rng);
        assert!(adj.rows() <= config.op_tile_rows(), "single-tile premise");

        let outcome = run_gcn_layer(&config, Dataflow::Outer, &adj, &x, &w).unwrap();
        let expected =
            (x.nnz() as u64 - nonempty_rows(&x)) + (adj.nnz() as u64 - nonempty_rows(&adj));
        assert_eq!(
            outcome.report.accumulator_merges,
            expected,
            "seed {seed}: OP merges diverged from first-touch accounting \
             (x nnz {}, adj nnz {})",
            x.nnz(),
            adj.nnz()
        );
    }
}

/// Prefetching is a pure timing mechanism: under every policy the numeric
/// outputs stay bit-identical to the dense reference and every audit —
/// including the prefetch-accounting invariants — stays clean. The non-off
/// policies must actually issue prefetches somewhere in the sweep, or the
/// oracle proves nothing about them.
#[test]
fn every_prefetch_policy_preserves_the_numeric_oracle() {
    for policy in hymm_mem::PrefetchPolicy::ALL {
        let mut config = audited_config();
        config.mem.prefetch = policy;
        let mut issued = 0u64;
        for seed in 0..8u64 {
            let mut rng = Pcg64::seed_from_u64(0x00F7 ^ seed);
            let adj = integer_adjacency(&skewed_graph(seed), &mut rng);
            let x = integer_features(adj.rows(), &mut rng);
            let w = integer_weights(&mut rng);
            let reference = densify(&adj)
                .matmul(&densify(&x).matmul(&w).unwrap())
                .unwrap();
            for dataflow in Dataflow::EXTENDED {
                let outcome = run_gcn_layer(&config, dataflow, &adj, &x, &w)
                    .unwrap_or_else(|e| panic!("seed {seed} {policy:?} {dataflow:?}: {e}"));
                assert_eq!(
                    outcome.output.as_slice(),
                    reference.as_slice(),
                    "seed {seed}: {dataflow:?} with prefetch {policy:?} diverged"
                );
                let violations = audit::check_report(&outcome.report);
                assert!(
                    violations.is_empty(),
                    "seed {seed} {policy:?} {dataflow:?}: {violations:?}"
                );
                issued += outcome.report.prefetch.issued;
            }
        }
        if policy.is_off() {
            assert_eq!(issued, 0, "off policy must never issue prefetches");
        } else {
            assert!(
                issued > 0,
                "{policy:?} never issued a prefetch; the oracle went unexercised"
            );
        }
    }
}

/// The audit flag must be pure observation: identical outputs, cycles and
/// traffic with it on or off.
#[test]
fn audit_flag_never_changes_results_or_timing() {
    let mut rng = Pcg64::seed_from_u64(7);
    let adj = integer_adjacency(&skewed_graph(3), &mut rng);
    let x = integer_features(adj.rows(), &mut rng);
    let w = integer_weights(&mut rng);
    for dataflow in Dataflow::EXTENDED {
        let plain = run_gcn_layer(&AcceleratorConfig::default(), dataflow, &adj, &x, &w).unwrap();
        let audited = run_gcn_layer(&audited_config(), dataflow, &adj, &x, &w).unwrap();
        assert_eq!(plain.output.as_slice(), audited.output.as_slice());
        assert_eq!(plain.report, audited.report, "{dataflow:?}");
    }
}
