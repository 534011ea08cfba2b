//! End-to-end tests over a live `hymm-serve` on an ephemeral port.
//!
//! Every server binds `127.0.0.1:0` (tier-2 requirement: tests never race
//! over a fixed port) and is shut down gracefully at the end of each test.

use hymm_bench::json::{parse_json, Json};
use hymm_serve::loadgen::{one_shot, Conn};
use hymm_serve::server::{ServeConfig, Server};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn start(workers: usize, cache_capacity: usize) -> Server {
    Server::start(ServeConfig {
        workers,
        cache_capacity,
        ..ServeConfig::default()
    })
    .expect("bind 127.0.0.1:0")
}

fn simulate_body(dataset: &str, dataflow: &str, scale: usize) -> String {
    format!("{{\"dataset\": \"{dataset}\", \"scale\": {scale}, \"dataflow\": \"{dataflow}\"}}")
}

fn post_simulate(addr: &str, body: &str) -> (u16, String, Option<String>) {
    let resp = one_shot(addr, "POST", "/simulate", body).expect("simulate round-trip");
    let cache = resp.header("x-hymm-cache").map(str::to_string);
    (resp.status, resp.text(), cache)
}

#[test]
fn end_to_end_simulate_stats_and_metrics() {
    let server = start(2, 4);
    let addr = server.addr().to_string();

    let health = one_shot(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!((health.status, health.text().as_str()), (200, "ok\n"));

    let (status, body, cache) = post_simulate(&addr, &simulate_body("CR", "HyMM", 120));
    assert_eq!(status, 200, "{body}");
    assert_eq!(cache.as_deref(), Some("miss"), "first request builds");
    let doc = parse_json(&body).expect("response is valid JSON");
    assert_eq!(doc.get("dataset").and_then(Json::as_str), Some("CR"));
    assert_eq!(doc.get("nodes").and_then(Json::as_f64), Some(120.0));
    assert!(doc.get("cycles").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(doc.get("stalls").and_then(|s| s.get("dmb-miss")).is_some());

    // Same spec again: prepared-state cache hit, byte-identical body.
    let (status, again, cache) = post_simulate(&addr, &simulate_body("CR", "HyMM", 120));
    assert_eq!(status, 200);
    assert_eq!(cache.as_deref(), Some("hit"));
    assert_eq!(again, body, "responses are a pure function of the request");

    // Different dataflow, same spec: still a prepared-state hit.
    let (status, other, cache) = post_simulate(&addr, &simulate_body("CR", "OP", 120));
    assert_eq!(status, 200);
    assert_eq!(
        cache.as_deref(),
        Some("hit"),
        "spec cache is dataflow-agnostic"
    );
    assert_ne!(other, body);

    let stats = hymm_serve::loadgen::scrape_stats(&addr).unwrap();
    let n = |key: &str| stats.get(key).and_then(Json::as_f64).unwrap();
    assert_eq!(n("simulate_requests_total"), 3.0);
    assert_eq!(n("simulations_total"), 3.0);
    assert_eq!(n("prepared_cache_hits_total"), 2.0);
    assert_eq!(n("prepared_cache_misses_total"), 1.0);

    let metrics = one_shot(&addr, "GET", "/metrics", "").unwrap();
    assert_eq!(metrics.status, 200);
    assert!(metrics
        .header("content-type")
        .unwrap()
        .starts_with("text/plain"));
    let text = metrics.text();
    let families = hymm_mem::metrics::validate_prometheus(&text)
        .unwrap_or_else(|e| panic!("invalid Prometheus exposition: {e}\n{text}"));
    // The exact inventory: 11 server families, then the 5 end-of-run
    // report families, in registration order.
    let types: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
    assert_eq!(
        types,
        [
            "# TYPE hymm_serve_requests_total counter",
            "# TYPE hymm_serve_simulate_requests_total counter",
            "# TYPE hymm_serve_simulations_total counter",
            "# TYPE hymm_serve_dedupe_coalesced_total counter",
            "# TYPE hymm_serve_prepared_cache_hits_total counter",
            "# TYPE hymm_serve_prepared_cache_misses_total counter",
            "# TYPE hymm_serve_prepared_cache_evictions_total counter",
            "# TYPE hymm_serve_prepared_cache_entries gauge",
            "# TYPE hymm_serve_queue_depth gauge",
            "# TYPE hymm_serve_inflight gauge",
            "# TYPE hymm_serve_sim_seconds_total counter",
            "# TYPE hymm_cycles_total counter",
            "# TYPE hymm_stall_cycles_total counter",
            "# TYPE hymm_dram_bytes_total counter",
            "# TYPE hymm_dmb_hit_rate gauge",
            "# TYPE hymm_alu_utilization gauge",
        ],
        "{text}"
    );
    assert_eq!(families, types.len());
    assert!(
        text.contains("hymm_serve_prepared_cache_hits_total 2"),
        "{text}"
    );
    assert!(
        text.contains("run=\"CR/HyMM\""),
        "report-fed families present: {text}"
    );

    let stats = server.shutdown();
    assert_eq!(stats.cache.misses, 1);
}

#[test]
fn concurrent_identical_requests_coalesce_and_match() {
    let server = start(4, 4);
    let addr = server.addr().to_string();
    let body = simulate_body("AP", "HyMM", 150);

    let responses: Vec<(u16, String, Option<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let addr = &addr;
                let body = &body;
                scope.spawn(move || post_simulate(addr, body))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (status, text, _) in &responses {
        assert_eq!(*status, 200, "{text}");
        assert_eq!(text, &responses[0].1, "all responses byte-identical");
    }
    let stats = hymm_serve::loadgen::scrape_stats(&addr).unwrap();
    let n = |key: &str| stats.get(key).and_then(Json::as_f64).unwrap() as u64;
    assert_eq!(n("simulate_requests_total"), 6);
    assert_eq!(
        n("simulations_total") + n("dedupe_coalesced_total"),
        6,
        "every accepted request either led or coalesced"
    );
    assert!(
        n("simulations_total") < 6,
        "some overlap must have coalesced"
    );
    server.shutdown();
}

#[test]
fn concurrent_distinct_requests_match_serial_execution() {
    let cases: Vec<String> = ["CR", "AP", "CS"]
        .iter()
        .flat_map(|d| ["HyMM", "RWP"].iter().map(|f| simulate_body(d, f, 100)))
        .collect();

    // Serial reference on a fresh server.
    let serial_server = start(1, 8);
    let serial_addr = serial_server.addr().to_string();
    let serial: Vec<String> = cases
        .iter()
        .map(|body| {
            let (status, text, _) = post_simulate(&serial_addr, body);
            assert_eq!(status, 200, "{text}");
            text
        })
        .collect();
    serial_server.shutdown();

    // Same requests, all at once, on another fresh server.
    let server = start(4, 8);
    let addr = server.addr().to_string();
    let concurrent: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = cases
            .iter()
            .map(|body| {
                let addr = &addr;
                scope.spawn(move || post_simulate(addr, body).1)
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    server.shutdown();

    assert_eq!(serial, concurrent, "concurrency must not change results");
}

#[test]
fn lru_eviction_shows_up_in_stats() {
    let server = start(1, 1);
    let addr = server.addr().to_string();
    for dataset in ["CR", "AP", "CR"] {
        let (status, text, _) = post_simulate(&addr, &simulate_body(dataset, "HyMM", 100));
        assert_eq!(status, 200, "{text}");
    }
    let stats = server.shutdown();
    // CR, then AP evicts CR, then CR rebuilds: 3 misses, 2 evictions.
    assert_eq!(
        (stats.cache.misses, stats.cache.evictions, stats.cache.hits),
        (3, 2, 0)
    );
    assert_eq!(stats.cache.entries, 1);
}

#[test]
fn batch_requests_dedupe_and_preserve_order() {
    let server = start(2, 4);
    let addr = server.addr().to_string();
    let body = format!(
        "[{}, {}, {}]",
        simulate_body("CR", "HyMM", 100),
        simulate_body("CR", "OP", 100),
        simulate_body("CR", "HyMM", 100),
    );
    let resp = one_shot(&addr, "POST", "/simulate_batch", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.header("x-hymm-batch"), Some("items=3;unique=2"));
    let doc = parse_json(&resp.text()).unwrap();
    let Json::Arr(items) = &doc else {
        panic!("batch response must be an array")
    };
    assert_eq!(items.len(), 3);
    assert_eq!(items[0], items[2], "duplicate items share one simulation");
    assert_ne!(items[0], items[1]);
    assert_eq!(items[1].get("dataflow").and_then(Json::as_str), Some("OP"));
    let stats = server.shutdown();
    assert_eq!(stats.simulations, 2, "in-batch dedupe ran two simulations");
}

#[test]
fn error_paths_return_clean_json() {
    let server = Server::start(ServeConfig {
        workers: 1,
        max_body_bytes: 256,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();

    let resp = one_shot(&addr, "GET", "/nope", "").unwrap();
    assert_eq!(resp.status, 404);
    let resp = one_shot(&addr, "GET", "/simulate", "").unwrap();
    assert_eq!(resp.status, 405);
    let resp = one_shot(&addr, "POST", "/simulate", "{not json").unwrap();
    assert_eq!(resp.status, 400);
    assert!(parse_json(&resp.text()).unwrap().get("error").is_some());
    let resp = one_shot(&addr, "POST", "/simulate", r#"{"dataset": "ZZ"}"#).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("unknown dataset"), "{}", resp.text());
    // A bare native Yelp spec is over the node budget: refused before synthesis.
    let resp = one_shot(&addr, "POST", "/simulate", r#"{"dataset": "YP"}"#).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("scale"), "{}", resp.text());
    let resp = one_shot(&addr, "POST", "/simulate", &"x".repeat(512)).unwrap();
    assert_eq!(resp.status, 413);

    let stats = server.shutdown();
    assert_eq!(stats.http_errors, 6, "404, 405, three 400s and the 413");
    assert_eq!(stats.simulations, 0);
}

#[test]
fn stalled_client_cannot_wedge_the_worker() {
    let server = Server::start(ServeConfig {
        workers: 1,
        read_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();

    // A client that connects, sends half a request, and stalls.
    let mut stalled = TcpStream::connect(&addr).unwrap();
    stalled.write_all(b"POST /simulate HTTP/1.1\r\n").unwrap();
    stalled.flush().unwrap();

    // With one worker, this request queues behind the stalled connection
    // and must still complete once the read timeout frees the worker.
    let started = Instant::now();
    let resp = one_shot(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!(resp.status, 200);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "timeout should release the worker promptly, took {:?}",
        started.elapsed()
    );
    drop(stalled);
    server.shutdown();
}

#[test]
fn graceful_shutdown_answers_inflight_then_refuses() {
    let server = start(2, 4);
    let addr = server.addr().to_string();

    // Keep a request in flight while shutdown lands.
    let worker = {
        let addr = addr.clone();
        std::thread::spawn(move || post_simulate(&addr, &simulate_body("AP", "HyMM", 200)))
    };
    std::thread::sleep(Duration::from_millis(20));
    let stats = server.shutdown(); // blocks until drained
    let (status, text, _) = worker.join().unwrap();
    assert_eq!(
        status, 200,
        "in-flight request answered during drain: {text}"
    );
    assert!(stats.requests >= 1);

    // The listener is gone: new connections are refused.
    assert!(
        TcpStream::connect_timeout(&addr.parse().unwrap(), Duration::from_millis(500)).is_err()
    );
}

#[test]
fn shutdown_endpoint_drains_the_server() {
    let server = start(1, 2);
    let addr = server.addr().to_string();
    let resp = one_shot(&addr, "POST", "/shutdown", "").unwrap();
    assert_eq!((resp.status, resp.text().as_str()), (200, "draining\n"));
    assert!(server.shutdown_requested());
    // Joins promptly because the endpoint already poked the accept loop.
    server.shutdown();
}

#[test]
fn keep_alive_connection_serves_many_requests() {
    let server = start(2, 4);
    let addr = server.addr().to_string();
    let mut conn = Conn::connect(&addr).unwrap();
    let body = simulate_body("CR", "HyMM", 100);
    let mut last = None;
    for _ in 0..3 {
        let resp = conn.request("POST", "/simulate", &body).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("connection"), Some("keep-alive"));
        if let Some(prev) = last.replace(resp.text()) {
            assert_eq!(prev, *last.as_ref().unwrap());
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.simulate_requests, 3);
}
