//! Shared simulation runner: synthesise each dataset once, run every
//! dataflow variant on it, and hand the reports to the figure printers.

use crate::args::BenchArgs;
use crate::pool;
use hymm_core::config::{AcceleratorConfig, Dataflow, MergePolicy};
use hymm_core::prepared::{CombinationMemo, PreparedAdjacency};
use hymm_core::stats::SimReport;
use hymm_gcn::{prepare_adjacency, run_inference_prepared, GcnModel};
use hymm_graph::datasets::{Dataset, DatasetSpec, Workload};
use hymm_graph::degree::DegreeDistribution;
use hymm_graph::sort::degree_sort;
use hymm_sparse::storage::{StorageLayout, StorageReport};
use hymm_sparse::tiling::{TiledMatrix, TilingConfig};
use std::fmt;
use std::sync::Arc;

/// One dataflow variant's simulation result on one dataset.
#[derive(Debug, Clone)]
pub struct DataflowRun {
    /// Display label (`OP`, `RWP`, `HyMM`, `HyMM-noacc`).
    pub label: &'static str,
    /// Aggregate report over the two GCN layers.
    pub report: SimReport,
}

/// Everything the figures need about one dataset.
#[derive(Debug, Clone)]
pub struct DatasetResults {
    /// Which dataset (possibly scaled).
    pub spec: DatasetSpec,
    /// Degree-distribution summary of the synthesised graph (Fig. 2).
    pub degrees: DegreeDistribution,
    /// Host-side degree-sorting cost in ms (Table II).
    pub sort_cost_ms: f64,
    /// Tiled-format storage accounting (Fig. 6).
    pub storage: StorageReport,
    /// Tiling threshold used by the hybrid dataflow.
    pub tiling_threshold: usize,
    /// `GRID x GRID` non-zero density map of the degree-sorted adjacency
    /// matrix (paper Fig. 2b), row-major, normalised per-matrix.
    pub density_grid: Vec<f64>,
    /// Simulation runs: OP baseline, RWP baseline, HyMM, and HyMM without
    /// the near-memory accumulator (Fig. 10's ablation).
    pub runs: Vec<DataflowRun>,
}

/// A figure or exporter asked for a dataflow label that was never
/// simulated — e.g. a typo, or a suite run with a reduced variant set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissingRunError {
    /// The label that was requested.
    pub label: String,
    /// Labels that were actually simulated, in run order.
    pub available: Vec<&'static str>,
}

impl fmt::Display for MissingRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no run labelled {:?} (available: {})",
            self.label,
            self.available.join(", ")
        )
    }
}

impl std::error::Error for MissingRunError {}

impl DatasetResults {
    /// Looks up one run by label.
    ///
    /// # Errors
    ///
    /// Returns a [`MissingRunError`] naming the available labels if the
    /// label was not simulated.
    pub fn run(&self, label: &str) -> Result<&DataflowRun, MissingRunError> {
        self.runs
            .iter()
            .find(|r| r.label == label)
            .ok_or_else(|| MissingRunError {
                label: label.to_string(),
                available: self.runs.iter().map(|r| r.label).collect(),
            })
    }
}

/// Cells per side of the Fig. 2b density map.
pub const DENSITY_GRID: usize = 16;

/// Computes a `grid x grid` map of non-zero counts over a square matrix,
/// normalised so the densest cell is 1.0.
pub fn density_grid(adj: &hymm_sparse::Coo, grid: usize) -> Vec<f64> {
    let n = adj.rows().max(1);
    let mut counts = vec![0u64; grid * grid];
    for (r, c, _) in adj.iter() {
        let gr = (r * grid / n).min(grid - 1);
        let gc = (c * grid / n).min(grid - 1);
        counts[gr * grid + gc] += 1;
    }
    let max = counts.iter().copied().max().unwrap_or(0).max(1) as f64;
    counts.into_iter().map(|c| c as f64 / max).collect()
}

/// Simulation variants run per dataset: the [`Dataflow::ALL`] baselines plus
/// HyMM with the near-memory accumulator disabled (Fig. 10's ablation).
pub const VARIANTS_PER_DATASET: usize = Dataflow::ALL.len() + 1;

/// A synthesised dataset plus its preprocessing analytics — everything a
/// variant simulation needs, computed once and shared (immutably) by the
/// four variant jobs.
struct PreparedDataset {
    spec: DatasetSpec,
    workload: Workload,
    degrees: DegreeDistribution,
    sort_cost_ms: f64,
    storage: StorageReport,
    tiling_threshold: usize,
    density_grid: Vec<f64>,
    model: GcnModel,
    config: AcceleratorConfig,
    /// Normalised adjacency plus lazily shared CSR/CSC/sort/tiling, reused
    /// by all four variant simulations.
    sim_prep: Arc<PreparedAdjacency>,
    /// Numeric memo shared by the two hybrid variants (HyMM and
    /// HyMM-noacc), whose numeric trajectories are bit-identical.
    hybrid_memo: Arc<CombinationMemo>,
}

/// Synthesises one dataset and runs its preprocessing analytics (Table II
/// sorting cost, Fig. 6 storage, Fig. 2b density map).
fn prepare_dataset(dataset: Dataset, args: &BenchArgs) -> PreparedDataset {
    let spec = match args.scale {
        Some(n) => dataset.spec().scaled(n),
        None => dataset.spec(),
    };
    let workload = spec.synthesize();
    let degrees = DegreeDistribution::measure(&workload.adjacency);

    let sorted = degree_sort(&workload.adjacency).expect("adjacency is square");
    let config = args.accelerator_config();
    let tiling = TilingConfig {
        threshold_fraction: config.tiling_fraction,
        dmb_capacity_rows: Some(config.dmb_capacity_rows(spec.layer_dim)),
    };
    let tiled = TiledMatrix::new(&sorted.adjacency, &tiling).expect("sorted matrix is square");
    let storage = tiled.storage_report(&StorageLayout::default());
    let tiling_threshold = tiled.threshold();
    let density_grid = density_grid(&sorted.adjacency, DENSITY_GRID);

    let model = GcnModel::two_layer(spec.feature_len, spec.layer_dim, spec.layer_dim, 42);
    let sim_prep = Arc::new(prepare_adjacency(&workload.adjacency).expect("adjacency is square"));

    PreparedDataset {
        spec,
        workload,
        degrees,
        sort_cost_ms: sorted.sort_cost_ms,
        storage,
        tiling_threshold,
        density_grid,
        model,
        config,
        sim_prep,
        hybrid_memo: Arc::new(CombinationMemo::new()),
    }
}

/// Runs one simulation variant (`0..VARIANTS_PER_DATASET`) on a prepared
/// dataset. Variants below `Dataflow::ALL.len()` are the per-dataflow
/// baselines; the last is HyMM with the near-memory accumulator disabled
/// (materialised region-1 partials) — the "without accumulator" series of
/// Fig. 10.
fn simulate_variant(prep: &PreparedDataset, variant: usize) -> DataflowRun {
    let (config, dataflow, label) = if let Some(&df) = Dataflow::ALL.get(variant) {
        (prep.config.clone(), df, df.label())
    } else {
        let mut noacc = prep.config.clone();
        noacc.hybrid_merge = MergePolicy::Materialize;
        (noacc, Dataflow::Hybrid, "HyMM-noacc")
    };
    // Hybrid variants differ only in merge policy (timing, not numerics),
    // so they may share the numeric memo.
    let memo = (dataflow == Dataflow::Hybrid).then_some(&*prep.hybrid_memo);
    let outcome = run_inference_prepared(
        &config,
        dataflow,
        &prep.sim_prep,
        &prep.workload.features,
        &prep.model,
        memo,
    )
    .expect("workload shapes are consistent");
    DataflowRun {
        label,
        report: outcome.report,
    }
}

fn assemble(prep: PreparedDataset, runs: Vec<DataflowRun>) -> DatasetResults {
    DatasetResults {
        spec: prep.spec,
        degrees: prep.degrees,
        sort_cost_ms: prep.sort_cost_ms,
        storage: prep.storage,
        tiling_threshold: prep.tiling_threshold,
        density_grid: prep.density_grid,
        runs,
    }
}

/// Runs the full suite for one dataset: synthesis, preprocessing analytics,
/// and all four simulation variants, serially on the calling thread.
pub fn run_dataset(dataset: Dataset, scale: Option<usize>) -> DatasetResults {
    let args = BenchArgs {
        scale,
        ..BenchArgs::default()
    };
    run_dataset_with(dataset, &args)
}

/// [`run_dataset`] honouring the full argument set (preset, prefetch,
/// PE knobs, audit), still serially on the calling thread; `args.threads` is ignored.
pub fn run_dataset_with(dataset: Dataset, args: &BenchArgs) -> DatasetResults {
    let prep = prepare_dataset(dataset, args);
    let runs = (0..VARIANTS_PER_DATASET)
        .map(|v| simulate_variant(&prep, v))
        .collect();
    assemble(prep, runs)
}

/// Runs the suite for every requested dataset, printing progress to stderr.
///
/// With `args.threads != 1` the work fans out over a [`pool`] in two waves —
/// dataset preparation, then every (dataset x variant) simulation — and is
/// reassembled dataset-major, so the results (and their order) are identical
/// to a serial run at any thread count. Progress lines are printed from the
/// coordinating thread only, one per dataset before its jobs are enqueued,
/// so stderr is stable too.
pub fn run_suite(args: &BenchArgs) -> Vec<DatasetResults> {
    let threads = args.worker_threads();
    for d in &args.datasets {
        crate::progress!("[hymm-bench] simulating {} ...", d.name());
    }
    let preps = pool::map_indexed(threads, &args.datasets, |_, &d| prepare_dataset(d, args));

    // One job per (dataset, variant): dataset-major, so chunking the flat
    // result vector reassembles each dataset's runs in variant order.
    let jobs: Vec<(usize, usize)> = (0..preps.len())
        .flat_map(|d| (0..VARIANTS_PER_DATASET).map(move |v| (d, v)))
        .collect();
    let mut runs =
        pool::map_indexed(threads, &jobs, |_, &(d, v)| simulate_variant(&preps[d], v)).into_iter();

    preps
        .into_iter()
        .map(|prep| {
            let dataset_runs = runs.by_ref().take(VARIANTS_PER_DATASET).collect();
            assemble(prep, dataset_runs)
        })
        .collect()
}

/// True when two suite results carry bit-identical simulation outcomes
/// (same datasets, labels, and full [`SimReport`]s) — the invariance check
/// shared by `cycle_report` and the `pe_sweep` baseline assertion.
pub fn results_match(a: &[DatasetResults], b: &[DatasetResults]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.runs.len() == y.runs.len()
                && x.runs
                    .iter()
                    .zip(&y.runs)
                    .all(|(rx, ry)| rx.label == ry.label && rx.report == ry.report)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_suite_has_all_variants() {
        let r = run_dataset(Dataset::Cora, Some(200));
        assert_eq!(r.runs.len(), 4);
        for label in ["OP", "RWP", "HyMM", "HyMM-noacc"] {
            let run = r.run(label).expect("variant was simulated");
            assert!(run.report.cycles > 0, "{label} did not run");
        }
        assert!(r.sort_cost_ms >= 0.0);
        assert!(r.storage.tiled_bytes > r.storage.plain_bytes);
        assert!(r.tiling_threshold > 0);
    }

    #[test]
    fn missing_label_is_an_error_naming_the_alternatives() {
        let r = run_dataset(Dataset::Cora, Some(200));
        let e = r.run("GROW").unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("no run labelled \"GROW\""), "{msg}");
        for label in ["OP", "RWP", "HyMM", "HyMM-noacc"] {
            assert!(msg.contains(label), "{msg} missing {label}");
        }
    }

    #[test]
    fn hybrid_beats_outer_on_small_cora() {
        let r = run_dataset(Dataset::Cora, Some(400));
        assert!(r.run("HyMM").unwrap().report.cycles < r.run("OP").unwrap().report.cycles);
    }

    #[test]
    fn smq_stream_prefetching_issues_under_audit() {
        let args = BenchArgs {
            scale: Some(200),
            datasets: vec![Dataset::Cora],
            threads: 1,
            audit: true,
            prefetch: Some(hymm_mem::PrefetchPolicy::SmqStream),
            ..BenchArgs::default()
        };
        let results = run_suite(&args);
        assert!(
            results[0]
                .runs
                .iter()
                .any(|run| run.report.prefetch.issued > 0),
            "no variant issued a single prefetch"
        );
    }

    #[test]
    fn parallel_suite_matches_serial() {
        let mk = |threads| BenchArgs {
            scale: Some(150),
            datasets: vec![Dataset::Cora, Dataset::AmazonPhoto],
            threads,
            audit: true,
            ..BenchArgs::default()
        };
        let serial = run_suite(&mk(1));
        let parallel = run_suite(&mk(4));
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(
                s.spec.dataset, p.spec.dataset,
                "dataset order must be stable"
            );
            assert_eq!(s.runs.len(), p.runs.len());
            for (sr, pr) in s.runs.iter().zip(&p.runs) {
                assert_eq!(sr.label, pr.label);
                assert_eq!(sr.report.cycles, pr.report.cycles, "{}", sr.label);
                assert_eq!(sr.report.dram, pr.report.dram, "{}", sr.label);
                assert_eq!(sr.report.phases, pr.report.phases, "{}", sr.label);
            }
        }
    }
}

#[cfg(test)]
mod density_tests {
    use super::*;
    use hymm_sparse::Coo;

    #[test]
    fn density_grid_normalises_to_one() {
        let adj = Coo::from_triplets(8, 8, [(0, 0, 1.0), (0, 1, 1.0), (7, 7, 1.0)]).unwrap();
        let g = density_grid(&adj, 4);
        assert_eq!(g.len(), 16);
        let max = g.iter().cloned().fold(0.0f64, f64::max);
        assert!((max - 1.0).abs() < 1e-12);
        // top-left cell holds 2 of 3 entries
        assert!((g[0] - 1.0).abs() < 1e-12);
        assert!((g[15] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn density_grid_empty_matrix_is_zero() {
        let adj = Coo::new(4, 4).unwrap();
        let g = density_grid(&adj, 4);
        assert!(g.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn sorted_power_law_is_top_left_heavy() {
        use hymm_graph::generator::preferential_attachment;
        use hymm_graph::sort::degree_sort;
        let adj = preferential_attachment(400, 2_000, 3);
        let sorted = degree_sort(&adj).unwrap();
        let g = density_grid(&sorted.adjacency, 4);
        // the top-left cell must be the global maximum
        assert!((g[0] - 1.0).abs() < 1e-12, "top-left is not densest: {g:?}");
        // and denser than the bottom-right sparse remainder
        assert!(g[0] > 10.0 * g[15].max(1e-9));
    }
}
