//! Host benchmark of the HyMM simulator and `hymm-serve`.
//!
//! Four workloads (see `README.md`) each report end-to-end metrics with
//! tracing off and per-layer metrics from spans with tracing on. Every
//! layer is measured from outside, around calls into its public API, and
//! every run checks that the outputs are correct.

pub mod inputs;
pub mod metrics;
pub mod sim;
pub mod stats;
pub mod trace;
pub mod workloads;
