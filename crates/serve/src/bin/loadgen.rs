//! The `loadgen` binary: drives a running `hymm-serve` and prints a
//! greppable summary (CI's serve-smoke step asserts on these lines).
//!
//! ```text
//! loadgen --addr HOST:PORT [--mode closed|open] [--rate RPS]
//!         [--concurrency N] [--requests N] [--datasets CR,AP,...]
//!         [--dataflows HyMM,OP,...] [--scale N] [--skew P] [--seed N]
//!         [--warm-reps N] [--check] [--shutdown] [--quiet | -v]
//! ```
//!
//! `--check` additionally scrapes `/metrics` (validated with the shared
//! Prometheus checker) and `/stats` (validated with the shared JSON
//! parser), failing the process on any malformed output. `--shutdown`
//! asks the server to drain afterwards. The printed numbers are for
//! interactive use; serve latency is measured by the repo benchmark's
//! `serve-open` workload (`benchmark/README.md`).

use hymm_bench::json::Json;
use hymm_graph::datasets::Dataset;
use hymm_serve::loadgen::{self, LoadgenConfig, Mode};

fn usage() -> ! {
    eprintln!(
        "usage: loadgen --addr HOST:PORT [--mode closed|open] [--rate RPS]\n\
         \x20              [--concurrency N] [--requests N] [--datasets CR,AP,...]\n\
         \x20              [--dataflows HyMM,OP,...] [--scale N] [--skew P] [--seed N]\n\
         \x20              [--warm-reps N] [--check] [--shutdown] [--quiet | -v]"
    );
    std::process::exit(2);
}

fn fatal(msg: &str) -> ! {
    eprintln!("loadgen: {msg}");
    std::process::exit(1);
}

struct Flags {
    config: LoadgenConfig,
    check: bool,
    shutdown: bool,
}

fn parse_flags() -> Flags {
    let mut config = LoadgenConfig::default();
    let mut mode_name = "closed".to_string();
    let mut rate = 50.0;
    let mut check = false;
    let mut shutdown = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage();
            })
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--mode" => mode_name = value("--mode"),
            "--rate" => rate = parse_f64(&value("--rate"), "--rate"),
            "--concurrency" => {
                config.concurrency = parse_num(&value("--concurrency"), "--concurrency")
            }
            "--requests" => config.requests = parse_num(&value("--requests"), "--requests"),
            "--datasets" => {
                config.datasets = value("--datasets")
                    .split(',')
                    .map(|abbrev| {
                        Dataset::from_abbrev(abbrev.trim())
                            .unwrap_or_else(|| fatal(&format!("unknown dataset {abbrev:?}")))
                    })
                    .collect();
            }
            "--dataflows" => {
                config.dataflows = value("--dataflows")
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect();
            }
            "--scale" => config.scale = parse_num(&value("--scale"), "--scale"),
            "--skew" => config.skew = parse_f64(&value("--skew"), "--skew"),
            "--seed" => config.seed = parse_num(&value("--seed"), "--seed") as u64,
            "--warm-reps" => config.warm_reps = parse_num(&value("--warm-reps"), "--warm-reps"),
            "--check" => check = true,
            "--shutdown" => shutdown = true,
            "--quiet" => hymm_bench::log::set_level(hymm_bench::log::Level::Quiet),
            "-v" | "--verbose" => hymm_bench::log::set_level(hymm_bench::log::Level::Verbose),
            "-h" | "--help" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    config.mode = match mode_name.as_str() {
        "closed" => Mode::Closed,
        "open" => Mode::Open { rate_rps: rate },
        other => fatal(&format!("unknown mode {other:?} (closed, open)")),
    };
    Flags {
        config,
        check,
        shutdown,
    }
}

fn parse_num(s: &str, flag: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{flag} needs a non-negative integer, got {s:?}");
        usage();
    })
}

fn parse_f64(s: &str, flag: &str) -> f64 {
    match s.parse::<f64>() {
        Ok(n) if n.is_finite() => n,
        _ => {
            eprintln!("{flag} needs a finite number, got {s:?}");
            usage();
        }
    }
}

/// `--check`: scrape and validate `/metrics` and `/stats` with the shared
/// checkers. Returns an error message on the first failed validation.
fn check_scrapes(addr: &str) -> Result<(), String> {
    let metrics = loadgen::one_shot(addr, "GET", "/metrics", "")?;
    if metrics.status != 200 {
        return Err(format!("/metrics returned HTTP {}", metrics.status));
    }
    let text = metrics.text();
    let families = hymm_mem::metrics::validate_prometheus(&text)
        .map_err(|e| format!("/metrics invalid: {e}"))?;
    for required in [
        "hymm_serve_requests_total",
        "hymm_serve_prepared_cache_hits_total",
        "hymm_serve_dedupe_coalesced_total",
        "hymm_cycles_total",
    ] {
        if !text.contains(required) {
            return Err(format!("/metrics missing family {required}"));
        }
    }
    println!("metrics scrape: ok ({families} families)");
    let stats = loadgen::scrape_stats(addr)?;
    for required in [
        "requests_total",
        "simulate_requests_total",
        "simulations_total",
        "dedupe_coalesced_total",
        "prepared_cache_hits_total",
    ] {
        if stats.get(required).and_then(Json::as_f64).is_none() {
            return Err(format!("/stats missing counter {required}"));
        }
    }
    // Accounting invariant: every accepted simulate request was either
    // simulated by a leader or coalesced onto one.
    let n = |key: &str| stats.get(key).and_then(Json::as_f64).unwrap_or(-1.0);
    if n("simulations_total") + n("dedupe_coalesced_total") < n("simulate_requests_total") {
        return Err(format!(
            "accounting mismatch: {} simulations + {} coalesced < {} accepted",
            n("simulations_total"),
            n("dedupe_coalesced_total"),
            n("simulate_requests_total"),
        ));
    }
    println!("stats scrape: ok");
    Ok(())
}

fn main() {
    let flags = parse_flags();
    let report = match loadgen::run(&flags.config) {
        Ok(r) => r,
        Err(e) => fatal(&e),
    };
    println!(
        "requests: {} completed, {} errors ({} keys, skew {}, mode {})",
        report.completed, report.errors, report.keys, report.skew, report.mode
    );
    println!("throughput_rps: {:.2}", report.throughput_rps);
    println!(
        "p50_ms: {:.3} p95_ms: {:.3} p99_ms: {:.3} mean_ms: {:.3}",
        report.p50_ms, report.p95_ms, report.p99_ms, report.mean_ms
    );
    println!(
        "cold_ms: {:.3} warm_ms: {:.3} warm_over_cold: {:.4}",
        report.cold_ms, report.warm_ms, report.warm_over_cold
    );
    println!("cache hits: {}", report.cache_hits);
    println!("cache misses: {}", report.cache_misses);
    println!("dedupe coalesced: {}", report.dedupe_coalesced);
    let mut failed = false;
    if flags.check {
        if let Err(e) = check_scrapes(&flags.config.addr) {
            eprintln!("loadgen: check failed: {e}");
            failed = true;
        }
    }
    if flags.shutdown {
        if let Err(e) = loadgen::one_shot(&flags.config.addr, "POST", "/shutdown", "") {
            eprintln!("loadgen: shutdown request failed: {e}");
            failed = true;
        }
    }
    if report.completed == 0 || failed {
        std::process::exit(1);
    }
}
