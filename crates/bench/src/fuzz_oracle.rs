//! `fuzz_oracle`: a bounded-iteration differential fuzzer for the dataflow
//! engines.
//!
//! Each iteration synthesises a random degree-skewed graph with
//! small-integer adjacency, feature and weight values (every partial sum
//! stays below 2^24, so all four dataflows must produce *bit-identical*
//! outputs regardless of accumulation order), runs OP, CWP, RWP and Hybrid
//! with the invariant audit enabled, and checks the results against a dense
//! reference plus the cross-engine traffic relation. Exits non-zero on the
//! first divergence. CI runs a short smoke (`--iters 5`); longer local runs
//! just crank `--iters`.

use crate::Command;
use hymm_core::audit;
use hymm_core::config::{AcceleratorConfig, Dataflow};
use hymm_core::sim::run_gcn_layer;
use hymm_graph::generator::{power_law_with_exponent, preferential_attachment};
use hymm_sparse::{Coo, Dense};

const FEATURE_DIM: usize = 32;
const OUT_DIM: usize = 16;

/// Minimal deterministic RNG (64-bit LCG, high-bits output) so the fuzzer
/// needs no RNG dependency.
struct Lcg(u64);

impl Lcg {
    fn next_u32(&mut self) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as u32
    }

    /// Uniform in `[0, bound)`.
    fn below(&mut self, bound: u32) -> u32 {
        self.next_u32() % bound.max(1)
    }
}

fn integer_inputs(structure: &Coo, rng: &mut Lcg) -> (Coo, Coo, Dense) {
    let n = structure.rows();
    let mut adj = Coo::new(n, n).expect("generator output is non-empty");
    for (r, c, _) in structure.iter() {
        adj.push(r, c, (1 + rng.below(3)) as f32)
            .expect("in bounds");
    }
    let mut x = Coo::new(n, FEATURE_DIM).expect("non-empty");
    for r in 0..n {
        for c in 0..FEATURE_DIM {
            if rng.below(2) == 0 {
                x.push(r, c, (1 + rng.below(4)) as f32).expect("in bounds");
            }
        }
    }
    let vals: Vec<f32> = (0..FEATURE_DIM * OUT_DIM)
        .map(|_| rng.below(7) as f32 - 3.0)
        .collect();
    let w = Dense::from_fn(FEATURE_DIM, OUT_DIM, |r, c| vals[r * OUT_DIM + c]);
    (adj, x, w)
}

fn densify(m: &Coo) -> Dense {
    let mut vals = vec![0.0f32; m.rows() * m.cols()];
    for (r, c, v) in m.iter() {
        vals[r * m.cols() + c] += v;
    }
    Dense::from_fn(m.rows(), m.cols(), |r, c| vals[r * m.cols() + c])
}

fn run_iteration(iter: u64, seed: u64) -> Result<(), String> {
    let mut rng = Lcg(seed ^ 0x5EED_0FAC_1E55_C0DE);
    let n = 16 + (rng.below(113) as usize);
    let edges = 2 * n + rng.below(2 * n as u32) as usize;
    let structure = if iter.is_multiple_of(2) {
        power_law_with_exponent(n, edges, 2.0 + (iter % 3) as f64 * 0.4, seed)
    } else {
        preferential_attachment(n, edges, seed)
    };
    let (adj, x, w) = integer_inputs(&structure, &mut rng);
    let reference = densify(&adj)
        .matmul(&densify(&x).matmul(&w).expect("shapes agree"))
        .expect("shapes agree");

    let config = AcceleratorConfig {
        audit: true,
        ..AcceleratorConfig::default()
    };
    let mut hybrid_reads = 0u64;
    let mut worst_single = 0u64;
    for dataflow in Dataflow::EXTENDED {
        let outcome = run_gcn_layer(&config, dataflow, &adj, &x, &w)
            .map_err(|e| format!("iter {iter} ({dataflow:?}): layer failed: {e}"))?;
        if outcome.output.as_slice() != reference.as_slice() {
            return Err(format!(
                "iter {iter} (seed {seed}, n {n}, nnz {}): {dataflow:?} diverged \
                 from the dense reference",
                adj.nnz()
            ));
        }
        let violations = audit::check_report(&outcome.report);
        if !violations.is_empty() {
            return Err(format!(
                "iter {iter} (seed {seed}): {dataflow:?} audit violations: {violations:?}"
            ));
        }
        let reads = outcome.report.dram.total().read_bytes;
        if dataflow == Dataflow::Hybrid {
            hybrid_reads = reads;
        } else {
            worst_single = worst_single.max(reads);
        }
    }
    if hybrid_reads > worst_single {
        return Err(format!(
            "iter {iter} (seed {seed}): hybrid read {hybrid_reads} DRAM bytes, \
             worst single dataflow only {worst_single}"
        ));
    }
    Ok(())
}

pub(crate) const FLAGS: &str = "[--iters N] [--seed S]";

pub(crate) fn run(cmd: &Command, raw: Vec<String>) {
    let mut iters = 25u64;
    let mut seed = 1u64;
    let mut args = raw.into_iter();
    while let Some(arg) = args.next() {
        let mut grab = |flag: &str| {
            args.next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| cmd.fail(&format!("{flag} needs an integer")))
        };
        match arg.as_str() {
            "--iters" => iters = grab("--iters"),
            "--seed" => seed = grab("--seed"),
            other => cmd.fail(&format!("unknown argument {other:?}")),
        }
    }
    for iter in 0..iters {
        if let Err(msg) = run_iteration(iter, seed.wrapping_add(iter)) {
            eprintln!("[fuzz_oracle] FAIL: {msg}");
            std::process::exit(1);
        }
    }
    println!(
        "[fuzz_oracle] {iters} iterations x 4 dataflows: all bit-identical, \
         zero audit violations (base seed {seed})"
    );
}
