//! Simulation-as-a-service for the HyMM reproduction.
//!
//! The bench binaries are one-shot: synthesise, simulate, print, exit —
//! every invocation pays graph preprocessing again. This crate turns the
//! simulator into a long-lived server so that cost is paid once per hot
//! graph and amortised across requests:
//!
//! - [`http`] — minimal hand-rolled HTTP/1.1 framing over `std::net` (the
//!   workspace has no crates.io access);
//! - [`proto`] — the `/simulate` request/response JSON protocol, built on
//!   the shared [`hymm_bench::json`] reader, plus the content-hash request
//!   key ([`hymm_graph::datasets::DatasetSpec::content_hash`] composed with
//!   [`hymm_core::config::AcceleratorConfig::content_hash`]);
//! - [`cache`] — LRU over prepared graph state (`PreparedAdjacency`,
//!   per-tiling `CombinationMemo`s) with `Arc` shared-borrow semantics, so
//!   eviction never invalidates in-flight work;
//! - [`inflight`] — identical concurrent requests coalesce onto one
//!   leader simulation, joiners share the rendered response bytes;
//! - [`server`] — accept loop + worker pool, `/simulate`,
//!   `/simulate_batch` (fanned over [`hymm_bench::pool`]), `/metrics`
//!   (Prometheus, fed from `SimReport`s via
//!   [`hymm_core::metrics::registry_from_report`]), `/stats`, `/healthz`,
//!   graceful drain on SIGTERM/ctrl-c;
//! - [`loadgen`] — open-/closed-loop load generator with key skew,
//!   latency percentiles and the cold-vs-warm amortisation measurement;
//!   its `Conn` and `scrape_stats` also drive the repo benchmark's
//!   `serve-open` workload.
//!
//! Responses are a pure function of the request; cache/dedupe disposition
//! travels in the `x-hymm-cache` header only, which is what makes the
//! "concurrent responses are bit-identical to serial runs" guarantee
//! testable (see `tests/server.rs`).

pub mod cache;
pub mod http;
pub mod inflight;
pub mod loadgen;
pub mod proto;
pub mod server;
