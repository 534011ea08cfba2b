//! Graph preparation and GCN inference, timed around public calls into
//! `hymm-graph`, `hymm-sparse` (through `PreparedAdjacency`), `hymm-gcn`
//! and `hymm-core`, plus the checks that their outputs are right.

use crate::inputs;
use crate::trace::Tracer;
use hymm_core::config::{AcceleratorConfig, Dataflow, MergePolicy};
use hymm_core::prepared::{CombinationMemo, PreparedAdjacency};
use hymm_core::sim::run_gcn_layer_prepared;
use hymm_core::stats::{SimReport, StallBreakdown};
use hymm_gcn::inference::sparsify;
use hymm_gcn::{run_inference_prepared, GcnModel};
use hymm_graph::datasets::DatasetSpec;
use hymm_graph::normalize::gcn_normalize;
use hymm_sparse::{Coo, Dense};
use std::hint::black_box;

/// Weight seed shared with the bench runner and `hymm-serve`, so results
/// match theirs for the same graph.
const MODEL_SEED: u64 = 42;

/// A synthesised, fully preprocessed graph.
pub struct Graph {
    /// Table II abbreviation.
    pub label: &'static str,
    /// Input features `X`.
    pub features: Coo,
    /// Two-layer GCN with the suite's dimensions.
    pub model: GcnModel,
    /// Normalised adjacency with CSR, CSC, degree sort and tilings built.
    pub prep: PreparedAdjacency,
}

/// Synthesises one graph under the benchmark seed (`graph.synthesize`).
pub fn synthesize(tracer: &Tracer, spec: &DatasetSpec, seed: u64) -> hymm_graph::Workload {
    tracer.span("graph.synthesize", spec.dataset.abbrev(), 0, || {
        inputs::synthesize(spec, seed)
    })
}

/// The `(tiling fraction, DMB rows)` key `config`'s hybrid runs use.
pub fn tiling_key(config: &AcceleratorConfig, spec: &DatasetSpec) -> (f64, usize) {
    (
        config.tiling_fraction,
        config.dmb_capacity_rows(spec.layer_dim),
    )
}

/// Normalises `adjacency` and builds every piece the simulations read:
/// CSR, CSC, the degree sort and one hybrid tiling per key in `tilings`.
pub fn preprocess(
    tracer: &Tracer,
    label: &'static str,
    adjacency: &Coo,
    tilings: &[(f64, usize)],
) -> PreparedAdjacency {
    let normalized = tracer.span("graph.normalize", label, 0, || {
        gcn_normalize(adjacency).expect("synthesised adjacency is square")
    });
    let prep = PreparedAdjacency::new(normalized).expect("normalised adjacency is square");
    tracer.span("sparse.csr", label, 0, || black_box(prep.a_csr().nnz()));
    tracer.span("sparse.csc", label, 0, || black_box(prep.a_csc().nnz()));
    tracer.span("graph.sort", label, 0, || black_box(prep.sorted().1.nnz()));
    for &(fraction, rows) in tilings {
        build_tiling(tracer, label, &prep, (fraction, rows));
    }
    prep
}

/// Builds (or finds) one hybrid tiling under a `sparse.tiling` span.
pub fn build_tiling(
    tracer: &Tracer,
    label: &'static str,
    prep: &PreparedAdjacency,
    key: (f64, usize),
) {
    tracer.span("sparse.tiling", label, 0, || {
        let tiling = prep
            .hybrid_tiling(key.0, key.1)
            .expect("tiling keys come from validated configurations");
        black_box(tiling.tiled.total_nnz())
    });
}

/// Synthesis followed by [`preprocess`].
pub fn prepare(tracer: &Tracer, spec: &DatasetSpec, seed: u64, tilings: &[(f64, usize)]) -> Graph {
    let workload = synthesize(tracer, spec, seed);
    let label = spec.dataset.abbrev();
    let prep = preprocess(tracer, label, &workload.adjacency, tilings);
    Graph {
        label,
        model: GcnModel::two_layer(spec.feature_len, spec.layer_dim, spec.layer_dim, MODEL_SEED),
        features: workload.features,
        prep,
    }
}

impl Graph {
    /// Borrowed view for [`infer`].
    pub fn parts(&self) -> GraphParts<'_> {
        GraphParts {
            label: self.label,
            prep: &self.prep,
            features: &self.features,
            model: &self.model,
        }
    }
}

/// What one inference reads: a prepared graph, its features and model.
#[derive(Clone, Copy)]
pub struct GraphParts<'a> {
    /// Table II abbreviation.
    pub label: &'static str,
    /// Prepared adjacency.
    pub prep: &'a PreparedAdjacency,
    /// Input features `X`.
    pub features: &'a Coo,
    /// GCN model.
    pub model: &'a GcnModel,
}

/// One simulated configuration: a display label, the engine and the
/// accelerator knobs.
#[derive(Debug, Clone)]
pub struct Variant {
    /// `OP`, `RWP`, `HyMM` or `HyMM-noacc`.
    pub label: &'static str,
    /// Engine.
    pub dataflow: Dataflow,
    /// Accelerator knobs.
    pub config: AcceleratorConfig,
}

impl Variant {
    /// The paper's three dataflows under `config`.
    pub fn paper_dataflows(config: &AcceleratorConfig) -> Vec<Variant> {
        Dataflow::ALL
            .iter()
            .map(|&dataflow| Variant {
                label: dataflow.label(),
                dataflow,
                config: config.clone(),
            })
            .collect()
    }

    /// HyMM with region-1 partials materialised instead of merged by the
    /// near-memory accumulator (Fig. 10's ablation).
    pub fn hymm_noacc(config: &AcceleratorConfig) -> Variant {
        let mut config = config.clone();
        config.hybrid_merge = MergePolicy::Materialize;
        Variant {
            label: "HyMM-noacc",
            dataflow: Dataflow::Hybrid,
            config,
        }
    }
}

/// One layer's operands and result, kept for the reference check.
pub struct LayerRun {
    /// Sparse input `X` of the layer.
    pub input: Coo,
    /// `ÂXW` before the activation.
    pub output: Dense,
}

/// Result of one simulated inference.
pub struct Inference {
    /// Report summed over the layers.
    pub report: SimReport,
    /// Digest of the report and the final output bits.
    pub digest: u64,
    /// Every layer's operands, when asked for.
    pub layers: Vec<LayerRun>,
}

/// Runs a full inference layer by layer, doing what
/// `run_inference_prepared` does, with a span around each call:
/// `gcn.inference` for the whole driver (a child of `parent`),
/// `core.simulate` per layer (label = variant, request = layer index) and
/// `gcn.sparsify` for the re-sparsification after each layer.
pub fn infer(
    tracer: &Tracer,
    parent: Option<u32>,
    graph: GraphParts<'_>,
    variant: &Variant,
    memo: Option<&CombinationMemo>,
    keep_layers: bool,
) -> Inference {
    tracer.span_under(parent, "gcn.inference", variant.label, 0, || {
        let mut x = graph.features.clone();
        let mut report = SimReport::empty();
        let mut layers = Vec::new();
        let mut output = None;
        for (layer, (spec, w)) in graph
            .model
            .layers()
            .iter()
            .zip(graph.model.weights())
            .enumerate()
        {
            let outcome = tracer.span("core.simulate", variant.label, layer as u64, || {
                run_gcn_layer_prepared(
                    &variant.config,
                    variant.dataflow,
                    graph.prep,
                    &x,
                    w,
                    memo.map(|m| (m, layer)),
                )
                .expect("benchmark configurations and shapes are valid")
            });
            report.merge(&outcome.report);
            let mut h = outcome.output;
            let pre_activation = keep_layers.then(|| h.clone());
            if spec.relu {
                relu(&mut h);
            }
            let next = tracer.span("gcn.sparsify", variant.label, layer as u64, || sparsify(&h));
            let input = std::mem::replace(&mut x, next);
            if let Some(output) = pre_activation {
                layers.push(LayerRun { input, output });
            }
            output = Some(h);
        }
        let digest = output_digest(&report, &output.expect("model has layers"));
        Inference {
            report,
            digest,
            layers,
        }
    })
}

fn output_digest(report: &SimReport, output: &Dense) -> u64 {
    let mut digest = Fnv::new();
    digest_report(&mut digest, report);
    for v in output.as_slice() {
        digest.word(v.to_bits() as u64);
    }
    digest.finish()
}

fn relu(m: &mut Dense) {
    for r in 0..m.rows() {
        for v in m.row_mut(r) {
            *v = v.max(0.0);
        }
    }
}

/// Checks that the layer-by-layer driver matches `run_inference_prepared`
/// bit for bit (report and output), so what the benchmark times is what
/// the library computes.
pub fn check_matches_library(
    graph: GraphParts<'_>,
    variant: &Variant,
    inference: &Inference,
) -> Result<(), String> {
    let memo = (variant.dataflow == Dataflow::Hybrid).then(CombinationMemo::new);
    let library = run_inference_prepared(
        &variant.config,
        variant.dataflow,
        graph.prep,
        graph.features,
        graph.model,
        memo.as_ref(),
    )
    .map_err(|e| format!("{} {}: {e}", graph.label, variant.label))?;
    if library.report != inference.report
        || output_digest(&library.report, &library.output) != inference.digest
    {
        return Err(format!(
            "{} {}: layer-by-layer inference differs from run_inference_prepared",
            graph.label, variant.label
        ));
    }
    Ok(())
}

/// Relative tolerance of the reference check: the simulator accumulates
/// in `f32` in its own order, the reference in `f64`.
const REFERENCE_TOLERANCE: f64 = 1e-3;

/// Checks every layer against an independent O(nnz·d) computation of
/// `Â(XW)` from the layer's own input.
pub fn check_against_reference(
    graph: GraphParts<'_>,
    variant: &Variant,
    layers: &[LayerRun],
) -> Result<(), String> {
    let adj = graph.prep.adj();
    let n = adj.rows();
    for (l, (run, w)) in layers.iter().zip(graph.model.weights()).enumerate() {
        let d = w.cols();
        let mut xw = vec![0f64; n * d];
        for (r, c, v) in run.input.iter() {
            for (k, acc) in xw[r * d..(r + 1) * d].iter_mut().enumerate() {
                *acc += v as f64 * w.get(c, k) as f64;
            }
        }
        let mut want = vec![0f64; n * d];
        for (r, c, v) in adj.iter() {
            for k in 0..d {
                want[r * d + k] += v as f64 * xw[c * d + k];
            }
        }
        let got = run.output.as_slice();
        let scale = want.iter().fold(1f64, |m, v| m.max(v.abs()));
        let worst = want
            .iter()
            .zip(got)
            .map(|(a, &b)| (a - b as f64).abs())
            .fold(0f64, f64::max);
        let finite = got.len() == want.len() && got.iter().all(|v| v.is_finite());
        if !finite || worst > REFERENCE_TOLERANCE * scale {
            return Err(format!(
                "{} {} layer {}: output differs from the reference by {worst:e} (scale {scale:e})",
                graph.label,
                variant.label,
                l + 1
            ));
        }
    }
    Ok(())
}

/// Simulated-model counters summed over many reports. These depend only
/// on the model and the inputs, never on host speed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelCounts {
    /// Simulated cycles.
    pub cycles: u64,
    /// DMB reads and writes.
    pub dmb_accesses: u64,
    /// DMB hits.
    pub dmb_hits: u64,
    /// DRAM bytes moved.
    pub dram_bytes: u64,
    /// LSQ store-to-load forwards.
    pub lsq_forwards: u64,
    /// Prefetches issued.
    pub prefetch_issued: u64,
    /// Prefetches used before eviction.
    pub prefetch_useful: u64,
    /// Stall waterfall.
    pub stalls: StallBreakdown,
}

impl ModelCounts {
    /// Adds one report.
    pub fn add(&mut self, r: &SimReport) {
        let h = &r.dmb_hits;
        self.cycles += r.cycles;
        self.dmb_accesses += h.read_hits + h.read_misses + h.write_hits + h.write_misses;
        self.dmb_hits += h.read_hits + h.write_hits;
        self.dram_bytes += r.dram_bytes();
        self.lsq_forwards += r.lsq.forwards;
        self.prefetch_issued += r.prefetch.issued;
        self.prefetch_useful += r.prefetch.useful;
        self.stalls.merge(&r.stalls);
    }
}

/// FNV-1a taken a 64-bit word at a time. Each step is a bijection of the
/// state, so two streams that differ in one word never collide.
pub struct Fnv(u64);

impl Fnv {
    /// Empty digest.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds in one word.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// Folds every simulated statistic of `r` into `h`.
pub fn digest_report(h: &mut Fnv, r: &SimReport) {
    let total = r.dram.total();
    let hits = &r.dmb_hits;
    let p = &r.prefetch;
    let words = [
        r.cycles,
        r.mac_cycles,
        r.merge_cycles,
        r.mac_ops,
        r.merge_ops,
        r.mac_lane_ops,
        total.reads,
        total.read_bytes,
        total.writes,
        total.write_bytes,
        hits.read_hits,
        hits.read_misses,
        hits.write_hits,
        hits.write_misses,
        r.dmb_evictions,
        r.dmb_dirty_evictions,
        r.accumulator_merges,
        r.lsq.loads,
        r.lsq.stores,
        r.lsq.forwards,
        r.lsq.capacity_stalls,
        r.lsq.capacity_stall_cycles,
        p.issued,
        p.dropped(),
        p.useful,
        p.late,
        p.late_cycles,
        p.evicted_unused,
        r.partials.writes,
        r.partials.peak_bytes,
        r.partials.dram_merges,
    ];
    for w in words.into_iter().chain(r.stalls.as_array()) {
        h.word(w);
    }
    for phase in &r.phases {
        h.word(phase.cycles());
        h.word(phase.nnz);
        h.word(phase.dram_bytes);
    }
}
