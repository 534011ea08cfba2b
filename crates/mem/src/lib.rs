//! Cycle-level memory subsystem of the HyMM accelerator.
//!
//! This crate models every storage component of the paper's Fig. 3 at the
//! granularity the engines need for cycle-accurate accounting:
//!
//! - [`dram`] — the 64 GB/s off-chip memory: FIFO bandwidth sharing plus a
//!   fixed access latency, with per-matrix traffic tags for the paper's
//!   Fig. 11 DRAM-access breakdown;
//! - [`dmb`] — the unified 256 KB **dense matrix buffer**: 64 B lines,
//!   class-priority LRU eviction (W first, then XW, partial outputs
//!   retained — paper §IV-D), MSHRs for outstanding misses, and a
//!   near-memory accumulator port for merging partial outputs;
//! - [`lsq`] — the 128-entry **load/store queue** with store-to-load
//!   forwarding between the combination and aggregation phases
//!   (paper §IV-B);
//! - [`prefetch`] — the configurable **data prefetcher** on the DMB miss
//!   path: policy/drop/stat types for speculative dense-line fills issued
//!   through the MSHR pool (off by default and bit-identical when off);
//! - [`smq`] — the **sparse matrix queue** that streams CSR/CSC
//!   pointer/index/value data from DRAM through its 4 KB pointer and 12 KB
//!   index buffers (paper §IV-A);
//! - [`address`] / [`stats`] — line addressing by matrix kind and the
//!   traffic/hit-rate counters every experiment reads;
//! - [`trace`] — opt-in, observation-only per-component event rings;
//! - [`metrics`] — a named counter/gauge/histogram registry with
//!   Prometheus text rendering, filled from end-of-run reports (it reads no
//!   component state during a run).
//!
//! Timing convention: all components exchange **absolute cycle numbers**.
//! A call like `dmb.read(now, addr, &mut dram)` means "the engine presents
//! this request at cycle `now`" and the returned [`dmb::ReadOutcome::ready`]
//! is the cycle at which the data is available. Engines advance their own
//! cursors with `max()` chains, which yields the same cycle counts as a
//! lock-step loop for in-order engines while simulating millions of edges
//! per second.

pub mod address;
pub mod config;
pub mod dmb;
pub mod dram;
pub mod lsq;
pub mod metrics;
pub mod prefetch;
pub mod smq;
pub mod stats;
pub mod trace;

pub use address::{LineAddr, MatrixKind};
pub use config::MemConfig;
pub use dmb::Dmb;
pub use dram::Dram;
pub use lsq::Lsq;
pub use metrics::{MetricKind, MetricsRegistry};
pub use prefetch::{PrefetchDrop, PrefetchPolicy, PrefetchStats};
pub use smq::SmqStream;
pub use stats::TrafficStats;
pub use trace::{TraceData, TraceEvent, TraceKind, TraceRing, Track};
