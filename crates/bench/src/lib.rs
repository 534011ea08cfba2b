//! Experiment regenerators for every table and figure of the HyMM paper.
//!
//! Each binary in `src/bin/` reproduces one table or figure; they all share
//! the [`runner`] (dataset synthesis + simulation, with caching across
//! figures in `all_experiments`), the [`table`] text formatter and the
//! [`args`] command-line conventions:
//!
//! ```text
//! cargo run --release -p hymm-bench --bin fig7 -- [--scale N] [--datasets CR,AP] [--threads N]
//! ```
//!
//! `--scale N` caps every dataset at `N` nodes (average degree, sparsities
//! and dimensions preserved) for quick runs; the default is the paper's
//! full-size Table II datasets. `--datasets` filters by the paper's
//! two-letter abbreviations. `--threads N` fans the independent
//! (dataset x variant) simulations out across a [`pool`] of `N` workers
//! (`0` = one per host core); results are identical at any thread count.
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table I — qualitative dataflow comparison |
//! | `table2` | Table II — dataset statistics + sorting cost |
//! | `table3` | Table III — hardware parameters and area |
//! | `fig2` | Fig. 2 — degree distribution / region split |
//! | `fig6` | Fig. 6 — tiled-format storage overhead |
//! | `fig7` | Fig. 7 — speedup of RWP / OP / HyMM |
//! | `fig8` | Fig. 8 — ALU utilisation |
//! | `fig9` | Fig. 9 — DMB hit rate |
//! | `fig10` | Fig. 10 — partial-output memory footprint |
//! | `fig11` | Fig. 11 — DRAM access breakdown |
//! | `all_experiments` | everything above, one shared simulation pass |

pub mod args;
pub mod dse;
pub mod export;
pub mod figures;
pub mod json;
pub mod log;
pub mod pe_sweep;
pub mod pool;
pub mod runner;
pub mod table;
pub mod trace_json;

pub use args::BenchArgs;
pub use runner::{run_dataset, run_dataset_with, run_suite, DataflowRun, DatasetResults};
