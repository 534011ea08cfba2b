//! Load generator for `hymm-serve`.
//!
//! Two phases:
//!
//! 1. **Cold/warm amortisation** — against a fresh server, the first
//!    request for each dataset pays graph preparation (cold); repeats hit
//!    the prepared-state cache (warm). The means and their ratio are the
//!    headline amortisation number.
//! 2. **Main run** — `concurrency` workers with keep-alive connections
//!    issue `requests` total requests over the dataset × dataflow key
//!    space, with configurable skew towards a hot key. Closed loop sends
//!    back-to-back; open loop schedules Poisson-free fixed-rate arrivals
//!    and measures latency from the *scheduled* arrival, so a slow server
//!    shows up as queueing delay instead of being hidden by coordinated
//!    omission.
//!
//! Workers use deterministic per-worker xorshift streams, so a given
//! `(seed, concurrency, requests)` always issues the same key sequence.

use crate::http::{self, ClientResponse, HttpError};
use hymm_bench::json::{parse_json, Json};
use hymm_graph::datasets::Dataset;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Arrival discipline for the main run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Each worker sends its next request as soon as the previous response
    /// arrives.
    Closed,
    /// Fixed-rate arrivals across all workers (requests per second);
    /// latency is measured from the scheduled arrival time.
    Open {
        /// Aggregate target arrival rate, requests per second.
        rate_rps: f64,
    },
}

impl Mode {
    /// The label recorded in reports ("closed" / "open").
    pub fn label(&self) -> &'static str {
        match self {
            Mode::Closed => "closed",
            Mode::Open { .. } => "open",
        }
    }
}

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, `host:port`.
    pub addr: String,
    /// Arrival discipline.
    pub mode: Mode,
    /// Concurrent workers, each with its own keep-alive connection.
    pub concurrency: usize,
    /// Total requests in the main run.
    pub requests: usize,
    /// Datasets in the key space.
    pub datasets: Vec<Dataset>,
    /// Dataflow labels in the key space (as accepted by `/simulate`).
    pub dataflows: Vec<String>,
    /// Node-count cap applied to every dataset.
    pub scale: usize,
    /// Probability of hitting the hot key (key 0); the rest of the mass is
    /// uniform over the other keys.
    pub skew: f64,
    /// RNG seed for the key sequence.
    pub seed: u64,
    /// Warm repeats per dataset in the cold/warm phase (0 skips phase 1).
    pub warm_reps: usize,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            addr: "127.0.0.1:8640".to_string(),
            mode: Mode::Closed,
            concurrency: 2,
            requests: 32,
            datasets: vec![Dataset::Cora, Dataset::AmazonPhoto],
            dataflows: vec!["HyMM".to_string()],
            scale: 150,
            skew: 0.5,
            seed: 1,
            warm_reps: 3,
        }
    }
}

/// Measured results of one load-generator run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Arrival discipline label.
    pub mode: &'static str,
    /// Distinct request keys in play.
    pub keys: usize,
    /// Hot-key probability.
    pub skew: f64,
    /// Main-run requests answered with HTTP 200.
    pub completed: u64,
    /// Main-run requests that failed (transport or non-200).
    pub errors: u64,
    /// Completed requests per second of wall-clock.
    pub throughput_rps: f64,
    /// Latency percentiles and mean over completed requests, milliseconds.
    pub p50_ms: f64,
    /// 95th percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Mean latency, milliseconds.
    pub mean_ms: f64,
    /// Mean first-request (cache-building) latency per dataset, ms.
    pub cold_ms: f64,
    /// Mean repeat-request latency, ms.
    pub warm_ms: f64,
    /// `warm_ms / cold_ms` — the cache-amortisation headline (lower is
    /// better; 0 when phase 1 was skipped).
    pub warm_over_cold: f64,
    /// Prepared-cache hits reported by the server's `/stats` at the end.
    pub cache_hits: u64,
    /// Prepared-cache misses reported by `/stats`.
    pub cache_misses: u64,
    /// In-flight dedupe coalesces reported by `/stats`.
    pub dedupe_coalesced: u64,
}

/// One keep-alive client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates connect/clone failures.
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            reader,
            writer: stream,
        })
    }

    /// Issues one request and reads the response.
    ///
    /// # Errors
    ///
    /// Transport failures and malformed responses.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<ClientResponse, HttpError> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: hymm-serve\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body.as_bytes())?;
        self.writer.flush()?;
        http::read_response(&mut self.reader)
    }
}

/// One-shot request on a fresh connection (used for `/stats` scrapes and
/// the CI checker).
///
/// # Errors
///
/// Transport failures and malformed responses.
pub fn one_shot(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<ClientResponse, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.request(method, path, body).map_err(|e| e.to_string())
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// `(q*(n-1)).round()`-indexed percentile of an already-sorted slice.
fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = (q * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

fn request_bodies(config: &LoadgenConfig) -> Vec<String> {
    let mut bodies = Vec::new();
    for dataset in &config.datasets {
        for dataflow in &config.dataflows {
            bodies.push(format!(
                "{{\"dataset\": \"{}\", \"scale\": {}, \"dataflow\": \"{}\"}}",
                dataset.abbrev(),
                config.scale,
                hymm_bench::json::esc(dataflow),
            ));
        }
    }
    bodies
}

fn pick_key(rng: &mut u64, keys: usize, skew: f64) -> usize {
    if keys <= 1 {
        return 0;
    }
    let r = (xorshift(rng) >> 11) as f64 / (1u64 << 53) as f64;
    if r < skew {
        0
    } else {
        1 + (xorshift(rng) as usize) % (keys - 1)
    }
}

/// Phase 1: per-dataset cold/warm latency. Returns `(cold_ms, warm_ms)`
/// means. Requires a server that has not yet seen these specs for a true
/// cold measurement.
fn measure_cold_warm(config: &LoadgenConfig) -> Result<(f64, f64), String> {
    let mut conn = Conn::connect(&config.addr).map_err(|e| format!("connect: {e}"))?;
    let dataflow = config
        .dataflows
        .first()
        .cloned()
        .unwrap_or_else(|| "HyMM".to_string());
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    for dataset in &config.datasets {
        let body = format!(
            "{{\"dataset\": \"{}\", \"scale\": {}, \"dataflow\": \"{}\"}}",
            dataset.abbrev(),
            config.scale,
            hymm_bench::json::esc(&dataflow),
        );
        for rep in 0..=config.warm_reps {
            let started = Instant::now();
            let resp = conn
                .request("POST", "/simulate", &body)
                .map_err(|e| format!("cold/warm request: {e}"))?;
            let ms = started.elapsed().as_secs_f64() * 1e3;
            if resp.status != 200 {
                return Err(format!(
                    "cold/warm request failed: HTTP {} {}",
                    resp.status,
                    resp.text().trim()
                ));
            }
            if rep == 0 {
                cold.push(ms);
            } else {
                warm.push(ms);
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    Ok((mean(&cold), mean(&warm)))
}

/// Runs the load generator against a live server.
///
/// # Errors
///
/// Connection failures, non-200 responses in the cold/warm phase, or a
/// final `/stats` scrape that does not parse.
pub fn run(config: &LoadgenConfig) -> Result<LoadgenReport, String> {
    if config.datasets.is_empty() || config.requests == 0 || config.concurrency == 0 {
        return Err("loadgen needs at least one dataset, one request and one worker".into());
    }
    let (cold_ms, warm_ms) = if config.warm_reps > 0 {
        measure_cold_warm(config)?
    } else {
        (0.0, 0.0)
    };

    let bodies = request_bodies(config);
    let workers = config.concurrency.min(config.requests);
    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(config.requests));
    let errors = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let bodies = &bodies;
            let latencies = &latencies;
            let errors = &errors;
            scope.spawn(move || {
                let Ok(mut conn) = Conn::connect(&config.addr) else {
                    let mine =
                        (config.requests / workers) + usize::from(w < config.requests % workers);
                    errors.fetch_add(mine as u64, Ordering::Relaxed);
                    return;
                };
                let mut rng = config.seed ^ (0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(w as u64 + 1));
                let mut local = Vec::new();
                for i in (w..config.requests).step_by(workers) {
                    let key = pick_key(&mut rng, bodies.len(), config.skew);
                    let reference = match config.mode {
                        Mode::Closed => Instant::now(),
                        Mode::Open { rate_rps } => {
                            // Latency counts from the scheduled arrival.
                            let at =
                                started + Duration::from_secs_f64(i as f64 / rate_rps.max(1e-9));
                            if let Some(wait) = at.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            at
                        }
                    };
                    match conn.request("POST", "/simulate", &bodies[key]) {
                        Ok(resp) if resp.status == 200 => {
                            local.push(reference.elapsed().as_secs_f64() * 1e3);
                        }
                        Ok(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            // The connection is likely dead; try a fresh one.
                            match Conn::connect(&config.addr) {
                                Ok(c) => conn = c,
                                Err(_) => {
                                    errors.fetch_add(
                                        ((config.requests - i - 1) / workers) as u64,
                                        Ordering::Relaxed,
                                    );
                                    break;
                                }
                            }
                        }
                    }
                }
                latencies
                    .lock()
                    .expect("latency vec poisoned")
                    .extend(local);
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    let mut samples = latencies.into_inner().expect("latency vec poisoned");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let completed = samples.len() as u64;

    let stats = scrape_stats(&config.addr)?;
    let counter = |key: &str| {
        stats
            .get(key)
            .and_then(Json::as_f64)
            .map(|n| n as u64)
            .ok_or_else(|| format!("/stats missing {key:?}"))
    };
    Ok(LoadgenReport {
        mode: config.mode.label(),
        keys: bodies.len(),
        skew: config.skew,
        completed,
        errors: errors.load(Ordering::Relaxed),
        throughput_rps: completed as f64 / elapsed.max(1e-9),
        p50_ms: percentile(&samples, 0.50),
        p95_ms: percentile(&samples, 0.95),
        p99_ms: percentile(&samples, 0.99),
        mean_ms: samples.iter().sum::<f64>() / (completed.max(1)) as f64,
        cold_ms,
        warm_ms,
        warm_over_cold: if cold_ms > 0.0 {
            warm_ms / cold_ms
        } else {
            0.0
        },
        cache_hits: counter("prepared_cache_hits_total")?,
        cache_misses: counter("prepared_cache_misses_total")?,
        dedupe_coalesced: counter("dedupe_coalesced_total")?,
    })
}

/// Fetches and parses the server's `/stats` JSON.
///
/// # Errors
///
/// Transport failures or a body that does not parse as a JSON object.
pub fn scrape_stats(addr: &str) -> Result<Json, String> {
    let resp = one_shot(addr, "GET", "/stats", "")?;
    if resp.status != 200 {
        return Err(format!("/stats returned HTTP {}", resp.status));
    }
    parse_json(&resp.text()).map_err(|e| format!("/stats body: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_index_the_sorted_samples() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.50), 51.0);
        assert_eq!(percentile(&samples, 0.95), 95.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.5], 0.99), 7.5);
    }

    #[test]
    fn key_skew_is_deterministic_and_biased() {
        let mut a = 42u64;
        let mut b = 42u64;
        let seq_a: Vec<usize> = (0..64).map(|_| pick_key(&mut a, 4, 0.8)).collect();
        let seq_b: Vec<usize> = (0..64).map(|_| pick_key(&mut b, 4, 0.8)).collect();
        assert_eq!(seq_a, seq_b, "same seed, same sequence");
        let hot = seq_a.iter().filter(|&&k| k == 0).count();
        assert!(
            hot > 32,
            "hot key should dominate at skew 0.8, got {hot}/64"
        );
        assert!(seq_a.iter().all(|&k| k < 4));
        let mut c = 7u64;
        assert_eq!(pick_key(&mut c, 1, 0.0), 0, "single key always 0");
    }
}
