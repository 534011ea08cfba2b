//! The four workloads and what they share: repeated set-up, time-bounded
//! passes, and the conversion of spans into per-layer metrics.

mod batch;
mod prep;
mod serve;

use crate::metrics::Outcome;
use crate::stats::{highest_supported_percentile, iqr_share, median, percentile};
use crate::trace::{self_seconds, self_times, total_seconds, Span, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["paper-suite", "dse-sweep", "prep-native", "serve-open"];

/// How one workload run is driven.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Input seed; seed 0 is the baseline, seed 1 is held out for claims.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end
    /// ones.
    pub trace: bool,
    /// Shrink every input so the whole pipeline runs in about a second
    /// (the harness tests use this).
    pub tiny: bool,
}

/// Runs the named workload, or returns `None` for an unknown name.
pub fn run(name: &str, opts: &Options) -> Option<Outcome> {
    Some(match name {
        "paper-suite" => batch::paper_suite(opts),
        "dse-sweep" => batch::dse_sweep(opts),
        "prep-native" => prep::prep_native(opts),
        "serve-open" => serve::serve_open(opts),
        _ => return None,
    })
}

/// How many times every workload sets up; `setup_s` is the median.
const SETUPS: usize = 5;

/// Fewest measured passes, however long each takes.
const MIN_PASSES: usize = 3;

/// Runs `setup` [`SETUPS`] times, dropping each result before building
/// the next. Returns the last result, every set-up's wall-clock, and the
/// spans each recorded.
fn repeated_setup<T>(
    tracer: &Tracer,
    mut setup: impl FnMut() -> T,
) -> (T, Vec<f64>, Vec<Vec<Span>>) {
    let mut seconds = Vec::with_capacity(SETUPS);
    let mut spans = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup());
        seconds.push(started.elapsed().as_secs_f64());
        spans.push(tracer.drain());
    }
    (last.expect("SETUPS > 0"), seconds, spans)
}

/// Calls `pass` until `seconds` have elapsed and at least [`MIN_PASSES`]
/// passes ran. Returns the number of passes.
fn timed_passes(seconds: f64, mut pass: impl FnMut(usize)) -> usize {
    let started = Instant::now();
    let mut n = 0;
    while n < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        pass(n);
        n += 1;
    }
    n
}

/// Median and 90th percentile, in ms, over the jobs of a batch workload,
/// each job represented by the median of its latencies across passes.
/// Taking each job's median first keeps the percentiles from jumping
/// between neighbouring jobs when a single sample is slow.
fn job_percentiles(samples_ms: &[Vec<f64>]) -> (f64, f64) {
    let per_job: Vec<f64> = samples_ms.iter().filter_map(|s| median(s)).collect();
    (
        percentile(&per_job, 0.5).unwrap_or(0.0),
        percentile(&per_job, 0.9).unwrap_or(0.0),
    )
}

/// Notes on a run's passes: how many ran, and the interquartile range of
/// their wall-clock as a share of its median (the spread within the run).
fn pass_notes(walls: &[f64]) -> Vec<(String, String)> {
    vec![
        ("passes".into(), walls.len().to_string()),
        (
            "pass_spread".into(),
            iqr_share(walls).unwrap_or(0.0).to_string(),
        ),
    ]
}

/// Notes on a run's latency samples: how many there are, and the highest
/// percentile that leaves at least ten of them beyond it, with its value.
fn latency_notes(samples_ms: &[f64]) -> Vec<(String, String)> {
    let n = samples_ms.len();
    let mut notes = vec![("latency_samples".into(), n.to_string())];
    if let Some(q) = highest_supported_percentile(n) {
        let value = percentile(samples_ms, q).unwrap_or(0.0);
        let label = (q * 1000.0).round() / 10.0;
        notes.push((
            "latency_tail".into(),
            format!("p{label} of {n} samples: {value} ms"),
        ));
    }
    notes
}

/// Per-layer times of one phase (a set-up or a pass), keyed by the
/// per-layer metric name, summed over the phase's spans.
fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let total = |name: &str| total_seconds(spans, |s| s.name == name);
    let simulate = |keep: &dyn Fn(&Span) -> bool| {
        total_seconds(spans, |s| s.name == "core.simulate" && keep(s))
    };
    BTreeMap::from([
        ("graph.synthesize_s", total("graph.synthesize")),
        ("graph.normalize_s", total("graph.normalize")),
        ("graph.sort_s", total("graph.sort")),
        ("sparse.csr_s", total("sparse.csr")),
        ("sparse.csc_s", total("sparse.csc")),
        ("sparse.tiling_s", total("sparse.tiling")),
        (
            "gcn.inference_self_s",
            self_seconds(spans, &selfs, |s| s.name == "gcn.inference"),
        ),
        ("gcn.sparsify_s", total("gcn.sparsify")),
        ("core.simulate_s.OP", simulate(&|s| s.label == "OP")),
        ("core.simulate_s.RWP", simulate(&|s| s.label == "RWP")),
        ("core.simulate_s.HyMM", simulate(&|s| s.label == "HyMM")),
        (
            "core.simulate_s.HyMM-noacc",
            simulate(&|s| s.label == "HyMM-noacc"),
        ),
        ("core.layer1_s", simulate(&|s| s.request == 0)),
        ("core.layer2_s", simulate(&|s| s.request == 1)),
    ])
}

/// Median over phases of each per-layer time in `names`.
fn median_layer_times(phases: &[Vec<Span>], names: &[&'static str]) -> BTreeMap<&'static str, f64> {
    let per_phase: Vec<BTreeMap<&str, f64>> = phases.iter().map(|p| layer_times(p)).collect();
    names
        .iter()
        .map(|&name| {
            let values: Vec<f64> = per_phase.iter().map(|t| t[name]).collect();
            (name, median(&values).unwrap_or(0.0))
        })
        .collect()
}

/// Names of the per-layer times that set-up phases produce.
const SETUP_LAYERS: [&str; 6] = [
    "graph.synthesize_s",
    "graph.normalize_s",
    "graph.sort_s",
    "sparse.csr_s",
    "sparse.csc_s",
    "sparse.tiling_s",
];

/// Names of the per-layer times that simulation passes produce.
const SIM_LAYERS: [&str; 8] = [
    "gcn.inference_self_s",
    "gcn.sparsify_s",
    "core.simulate_s.OP",
    "core.simulate_s.RWP",
    "core.simulate_s.HyMM",
    "core.simulate_s.HyMM-noacc",
    "core.layer1_s",
    "core.layer2_s",
];

/// Total simulation time of a per-layer time table.
fn simulate_seconds(times: &BTreeMap<&'static str, f64>) -> f64 {
    times["core.layer1_s"] + times["core.layer2_s"]
}

/// Non-zeros processed per second by the sparse layer: every CSR, CSC and
/// tiling build reads the whole normalised adjacency once.
fn sparse_rate(nnz_processed: f64, times: &BTreeMap<&'static str, f64>) -> f64 {
    let seconds = times["sparse.csr_s"] + times["sparse.csc_s"] + times["sparse.tiling_s"];
    if seconds > 0.0 {
        nnz_processed / seconds
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_passes_honours_the_minimum_and_the_clock() {
        let mut calls = 0;
        assert_eq!(timed_passes(0.0, |_| calls += 1), MIN_PASSES);
        assert_eq!(calls, MIN_PASSES);
        let started = Instant::now();
        let n = timed_passes(0.05, |_| {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        assert!(n > MIN_PASSES);
        assert!(started.elapsed().as_secs_f64() >= 0.05);
    }

    #[test]
    fn layer_times_split_simulation_by_variant_and_layer() {
        let tracer = Tracer::new(true);
        tracer.span("gcn.inference", "HyMM", 0, || {
            tracer.span("core.simulate", "HyMM", 0, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tracer.span("core.simulate", "HyMM", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        });
        let spans = tracer.drain();
        let t = layer_times(&spans);
        assert!(t["core.simulate_s.HyMM"] >= 0.003);
        assert_eq!(t["core.simulate_s.OP"], 0.0);
        assert!(t["core.layer1_s"] >= 0.002 && t["core.layer2_s"] >= 0.001);
        assert!((simulate_seconds(&t) - t["core.simulate_s.HyMM"]).abs() < 1e-12);
        // The driver's self time excludes both simulate calls.
        let inference = total_seconds(&spans, |s| s.name == "gcn.inference");
        assert!((t["gcn.inference_self_s"] - (inference - simulate_seconds(&t))).abs() < 1e-9);
    }
}
