//! `serve-open`: an in-process `hymm-serve` under a closed loop, then an
//! open loop, with every served body checked against an in-process replay.

use super::batch::set_model_counts;
use super::{
    latency_notes, layer_times, pass_notes, simulate_seconds, sparse_rate, timed_passes, Options,
    SETUPS,
};
use crate::inputs::rng;
use crate::metrics::{peak_rss_mb, MetricSet, Outcome, END_TO_END, PER_LAYER};
use crate::sim::{build_tiling, infer, tiling_key, Fnv, GraphParts, ModelCounts, Variant};
use crate::stats::{median, percentile};
use crate::trace::{Span, Tracer};
use hymm_bench::json::{parse_json, Json};
use hymm_core::config::Dataflow;
use hymm_core::SimReport;
use hymm_serve::cache::PreparedCache;
use hymm_serve::loadgen::{scrape_stats, Conn};
use hymm_serve::proto::{parse_request, render_response};
use hymm_serve::server::{ServeConfig, Server};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_pcg::Pcg64;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Server worker threads. The client never opens more connections than
/// this: an idle keep-alive connection holds a worker until it closes.
const WORKERS: usize = 2;

/// Prepared-graph LRU capacity.
const CACHE_CAPACITY: usize = 8;

/// Node cap of the hot graphs.
const HOT_SCALE: usize = 2000;

/// Open-loop arrival rate, requests per second: under a third of the
/// two-worker saturation rate (100–115 req/s on a 2-core 2.0 GHz Xeon
/// VM), so latency reflects service time more than queueing.
const RATE_RPS: f64 = 30.0;

/// Share of `--seconds` spent in the closed loop; the open loop takes the
/// rest.
const CLOSED_SHARE: f64 = 0.35;

/// Rounds of the hot keys in one closed-loop batch.
const ROUNDS_PER_BATCH: usize = 8;

/// One open-loop request in this many is a cold, never-repeated graph.
const COLD_EVERY: usize = 10;

/// A key recurs no sooner than this many requests later, which keeps
/// identical requests from overlapping (and coalescing) by accident.
const MIN_REPEAT_DISTANCE: usize = 4;

const HOT_DATASETS: [&str; 3] = ["CR", "AP", "CS"];

/// Datasets of the cold requests. AP is left out: its features are four
/// times CS's, and whichever cold AP graphs sat in the cache at the
/// busiest moment moved peak memory by 19 % over ten seeds (3 % without).
const COLD_DATASETS: [&str; 2] = ["CR", "CS"];

/// Dataflows of every request. OP is left out: at this size it costs four
/// times the next dearest key, which splits latency into far-apart modes
/// whose quantiles jump from run to run.
const DATAFLOWS: [&str; 2] = ["HyMM", "RWP"];

fn body(dataset: &str, scale: usize, dataflow: &str) -> String {
    format!("{{\"dataset\": \"{dataset}\", \"scale\": {scale}, \"dataflow\": \"{dataflow}\"}}")
}

/// Request bodies: the hot keys first, then `cold` unique specs that
/// cycle through the cold dataset and dataflow pairs at a scale the seed
/// moves a few nodes off the hot one, so a cold request costs a hot
/// request plus graph preparation.
fn request_bodies(hot_scale: usize, cold: usize, rng: &mut Pcg64) -> Vec<String> {
    let pairs = |datasets: &'static [&'static str]| {
        datasets
            .iter()
            .flat_map(|&d| DATAFLOWS.iter().map(move |&f| (d, f)))
            .collect::<Vec<_>>()
    };
    let mut bodies: Vec<String> = pairs(&HOT_DATASETS)
        .iter()
        .map(|(d, f)| body(d, hot_scale, f))
        .collect();
    let spread = cold.div_ceil(2).max(hot_scale / 40);
    let mut deltas: Vec<isize> = (1..=spread as isize).flat_map(|d| [-d, d]).collect();
    deltas.shuffle(rng);
    for ((d, f), delta) in pairs(&COLD_DATASETS)
        .into_iter()
        .cycle()
        .zip(deltas)
        .take(cold)
    {
        bodies.push(body(d, hot_scale.saturating_add_signed(delta), f));
    }
    bodies
}

/// `len` keys drawn from `0..keys` as back-to-back seeded permutations, each
/// redrawn until no key recurs within [`MIN_REPEAT_DISTANCE`]: every key is
/// equally frequent and the load has no bursts of one key.
fn rounds(rng: &mut Pcg64, keys: usize, len: usize) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::with_capacity(len + keys);
    while out.len() < len {
        let mut round: Vec<usize> = (0..keys).collect();
        loop {
            round.shuffle(rng);
            let clash = round.iter().enumerate().any(|(i, k)| {
                out.iter()
                    .rev()
                    .take(MIN_REPEAT_DISTANCE.saturating_sub(i + 1))
                    .any(|prev| prev == k)
            });
            if !clash {
                break;
            }
        }
        out.extend(round);
    }
    out.truncate(len);
    out
}

/// The open-loop sequence: blocks of [`COLD_EVERY`] requests, each with
/// one cold request at a seeded position among hot ones from [`rounds`].
fn open_sequence(rng: &mut Pcg64, hot: usize, blocks: usize) -> Vec<usize> {
    let mut hot_keys = rounds(rng, hot, blocks * (COLD_EVERY - 1)).into_iter();
    let mut out = Vec::with_capacity(blocks * COLD_EVERY);
    for block in 0..blocks {
        let cold_at = rng.gen_range(0..COLD_EVERY);
        for i in 0..COLD_EVERY {
            out.push(if i == cold_at {
                hot + block
            } else {
                hot_keys.next().expect("enough hot keys")
            });
        }
    }
    out
}

/// What came back for one request.
struct Sent {
    /// Index into the request bodies.
    key: usize,
    /// HTTP status, or `None` on a transport failure.
    status: Option<u16>,
    body: Vec<u8>,
    /// From the scheduled (open loop) or actual (closed loop) send time to
    /// the end of the response.
    latency_ms: f64,
    /// How late the request was sent after its scheduled time.
    late_ms: f64,
}

/// Sends `order` over one connection per worker, each connection taking
/// the next request as soon as it is free. With `rate`, request `i` is
/// not sent before `i / rate` seconds after the start and its latency
/// counts from then.
fn drive(addr: &str, bodies: &[String], order: &[usize], rate: Option<f64>) -> Vec<Sent> {
    let next = AtomicUsize::new(0);
    let sent = Mutex::new(Vec::with_capacity(order.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            scope.spawn(|| {
                let mut conn = Conn::connect(addr).ok();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&key) = order.get(i) else { break };
                    let due = match rate {
                        Some(rps) => start + Duration::from_secs_f64(i as f64 / rps),
                        None => Instant::now(),
                    };
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let late_ms = due.elapsed().as_secs_f64() * 1e3;
                    if conn.is_none() {
                        conn = Conn::connect(addr).ok();
                    }
                    let response = conn
                        .as_mut()
                        .map(|c| c.request("POST", "/simulate", &bodies[key]));
                    let latency_ms = due.elapsed().as_secs_f64() * 1e3;
                    let (status, body) = match response {
                        Some(Ok(r)) => (Some(r.status), r.body),
                        _ => {
                            conn = None;
                            (None, Vec::new())
                        }
                    };
                    sent.lock().expect("results poisoned").push(Sent {
                        key,
                        status,
                        body,
                        latency_ms,
                        late_ms,
                    });
                }
                // The connection closes here, releasing its worker.
            });
        }
    });
    sent.into_inner().expect("results poisoned")
}

fn counter(stats: &Json, name: &str) -> f64 {
    stats.get(name).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Starts a server and warms the hot keys over one connection, which is
/// closed before returning. Returns the server and the hot bodies.
fn start_warm(bodies: &[String], hot: usize) -> (Server, Vec<Vec<u8>>) {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        cache_capacity: CACHE_CAPACITY,
        ..ServeConfig::default()
    })
    .expect("bind a local port");
    let mut conn = Conn::connect(&server.addr().to_string()).expect("connect to the local server");
    let warm = bodies[..hot]
        .iter()
        .map(|b| {
            let r = conn
                .request("POST", "/simulate", b)
                .expect("warm-up request");
            assert_eq!(r.status, 200, "warm-up request {b} failed: {}", r.text());
            r.body
        })
        .collect();
    (server, warm)
}

/// One request replayed in process: stage times come from its spans.
struct Replayed {
    body: String,
    report: SimReport,
    /// Non-zeros of Â when the lookup missed and built its sparse form.
    built_nnz: usize,
}

fn static_label(label: &str) -> &'static str {
    ["OP", "RWP", "HyMM", "HyMM-noacc"]
        .into_iter()
        .find(|l| *l == label)
        .expect("proto labels are one of the four variants")
}

/// Serves one request body in process through the same public calls the
/// server makes — `proto::parse_request`, `PreparedCache::get_or_prepare`
/// with `PreparedEntry::memo`, the inference, `proto::render_response` —
/// with a span around each. The prepared piece the dataflow reads is built
/// inside the lookup, so graph preparation is timed apart from simulation.
fn replay_one(tracer: &Tracer, cache: &PreparedCache, body: &str, id: u64) -> Replayed {
    tracer.span("serve.request", "", id, || {
        let req = tracer.span("serve.parse", "", id, || {
            parse_json(body).and_then(|doc| parse_request(&doc, false))
        });
        let req = req.expect("benchmark requests are valid");
        let label = req.spec.dataset.abbrev();
        let hit = cache.contains(&req.spec);
        let stage = if hit { "serve.lookup" } else { "serve.prepare" };
        let entry = tracer.span(stage, label, id, || {
            let (entry, _) = cache.get_or_prepare(&req.spec);
            let prep = entry.prep();
            match req.dataflow {
                Dataflow::RowWise => {
                    tracer.span("sparse.csr", label, id, || black_box(prep.a_csr().nnz()));
                }
                Dataflow::Outer | Dataflow::ColumnWise => {
                    tracer.span("sparse.csc", label, id, || black_box(prep.a_csc().nnz()));
                }
                Dataflow::Hybrid => {
                    tracer.span("graph.sort", label, id, || black_box(prep.sorted().1.nnz()));
                    build_tiling(tracer, label, prep, tiling_key(&req.config, &req.spec));
                }
            }
            entry
        });
        let variant = Variant {
            label: static_label(&req.label),
            dataflow: req.dataflow,
            config: req.config.clone(),
        };
        let memo = (req.dataflow == Dataflow::Hybrid).then(|| entry.memo(&req.config));
        let graph = GraphParts {
            label,
            prep: entry.prep(),
            features: entry.features(),
            model: entry.model(),
        };
        let inference = infer(
            tracer,
            tracer.open_span(),
            graph,
            &variant,
            memo.as_deref(),
            false,
        );
        let body = tracer.span("serve.render", label, id, || {
            render_response(&req, &inference.report)
        });
        Replayed {
            body,
            report: inference.report,
            built_nnz: if hit { 0 } else { entry.prep().adj().nnz() },
        }
    })
}

/// The `serve-open` workload.
pub fn serve_open(opts: &Options) -> Outcome {
    let hot_scale = if opts.tiny { 200 } else { HOT_SCALE };
    let mut rng = rng(opts.seed, 0x5e7e);
    let blocks = ((1.0 - CLOSED_SHARE) * opts.seconds * RATE_RPS / COLD_EVERY as f64)
        .floor()
        .max(1.0) as usize;
    let bodies = request_bodies(hot_scale, blocks, &mut rng);
    let hot = HOT_DATASETS.len() * DATAFLOWS.len();
    let open = open_sequence(&mut rng, hot, blocks);
    let batch_len = hot * ROUNDS_PER_BATCH;

    // Set-up: start a server and warm the hot keys, several times; the
    // last server is the one measured.
    let mut setup_seconds = Vec::with_capacity(SETUPS);
    let mut last: Option<(Server, Vec<Vec<u8>>)> = None;
    for _ in 0..SETUPS {
        if let Some((server, _)) = last.take() {
            server.shutdown();
        }
        let started = Instant::now();
        last = Some(start_warm(&bodies, hot));
        setup_seconds.push(started.elapsed().as_secs_f64());
    }
    let (server, warm) = last.expect("SETUPS > 0");
    let addr = server.addr().to_string();

    let before = scrape_stats(&addr).expect("scrape /stats");
    let mut walls = Vec::new();
    let mut sent = Vec::new();
    timed_passes(CLOSED_SHARE * opts.seconds, |_| {
        let batch = rounds(&mut rng, hot, batch_len);
        let started = Instant::now();
        sent.extend(drive(&addr, &bodies, &batch, None));
        walls.push(started.elapsed().as_secs_f64());
    });
    let open_sent = drive(&addr, &bodies, &open, Some(RATE_RPS));
    let after = scrape_stats(&addr).expect("scrape /stats");
    server.shutdown();
    let peak_rss = peak_rss_mb();

    // Every served body must be identical per key and equal to the
    // in-process replay of the same request.
    let mut errors = Vec::new();
    let mut failed = 0u64;
    let cache = PreparedCache::new(CACHE_CAPACITY);
    let replayed: Vec<String> = bodies
        .iter()
        .enumerate()
        .map(|(i, b)| replay_one(&Tracer::new(false), &cache, b, i as u64).body)
        .collect();
    for (key, body) in warm.iter().enumerate() {
        if body != replayed[key].as_bytes() {
            errors.push(format!(
                "warm-up body for {} differs from the replay",
                bodies[key]
            ));
        }
    }
    for s in sent.iter().chain(&open_sent) {
        match s.status {
            Some(200) if s.body == replayed[s.key].as_bytes() => {}
            Some(200) => errors.push(format!(
                "served body for {} differs from the replay",
                bodies[s.key]
            )),
            _ => failed += 1,
        }
    }
    let mut body_digest = Fnv::new();
    for body in &replayed {
        body.bytes().for_each(|b| body_digest.word(b as u64));
    }

    let latencies: Vec<f64> = open_sent
        .iter()
        .filter(|s| s.status == Some(200))
        .map(|s| s.latency_ms)
        .collect();
    let throughput = batch_len as f64 / median(&walls).unwrap_or(f64::INFINITY);
    let mut notes = vec![
        ("hot_scale".into(), hot_scale.to_string()),
        ("throughput_rps".into(), throughput.to_string()),
        ("open_requests".into(), open.len().to_string()),
        ("cold_requests".into(), blocks.to_string()),
        (
            "body_digest".into(),
            format!("{:016x}", body_digest.finish()),
        ),
    ];
    notes.extend(pass_notes(&walls));
    notes.extend(latency_notes(&latencies));
    let mut spans = Vec::new();
    let metrics = if opts.trace {
        let mut m = MetricSet::new(&PER_LAYER);
        let tracer = Tracer::new(true);
        let replayed = replay_sequence(&tracer, &bodies, hot, &open);
        spans = tracer.drain();
        set_replay_metrics(&mut m, &spans, &replayed, &open, &open_sent, hot);
        let delta = |name: &str| counter(&after, name) - counter(&before, name);
        let hits = delta("prepared_cache_hits_total");
        let lookups = hits + delta("prepared_cache_misses_total");
        m.set(
            "serve.cache_hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
        );
        m.set("serve.evictions", delta("prepared_cache_evictions_total"));
        m.set("serve.dedupe_coalesced", delta("dedupe_coalesced_total"));
        m.set("serve.late_ms", mean(open_sent.iter().map(|s| s.late_ms)));
        m.set("trace.wall_s", median(&walls).unwrap_or(0.0));
        m
    } else {
        let mut m = MetricSet::new(&END_TO_END);
        m.set("wall_s", median(&walls).unwrap_or(0.0));
        m.set("p50_ms", windowed_percentile(&open_sent, 0.5));
        m.set("p90_ms", windowed_percentile(&open_sent, 0.9));
        m.set("setup_s", median(&setup_seconds).unwrap_or(0.0));
        m.set("peak_rss_mb", peak_rss);
        m
    };
    Outcome {
        workload: "serve-open",
        errors,
        attempted: (sent.len() + open_sent.len()) as u64,
        failed,
        metrics,
        notes,
        spans,
    }
}

/// Consecutive stretches the open loop's responses are split into, in the
/// order they completed; at 20 s each holds 130 requests, so its 90th
/// percentile has 13 beyond it.
const OPEN_WINDOWS: usize = 3;

/// The `q` latency percentile of each of the [`OPEN_WINDOWS`] stretches of
/// the open loop, then the median over the stretches, as batch workloads
/// take the median over passes: a slow spell of the host within one
/// stretch does not move the result.
fn windowed_percentile(open_sent: &[Sent], q: f64) -> f64 {
    let per_window: Vec<f64> = open_sent
        .chunks(open_sent.len().div_ceil(OPEN_WINDOWS).max(1))
        .filter_map(|window| {
            let ok: Vec<f64> = window
                .iter()
                .filter(|s| s.status == Some(200))
                .map(|s| s.latency_ms)
                .collect();
            percentile(&ok, q)
        })
        .collect();
    median(&per_window).unwrap_or(0.0)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n > 0 {
        sum / n as f64
    } else {
        0.0
    }
}

/// Replays the open-loop sequence in process, traced, after warming the
/// hot keys untraced as the server was warmed.
fn replay_sequence(
    tracer: &Tracer,
    bodies: &[String],
    hot: usize,
    open: &[usize],
) -> Vec<Replayed> {
    let cache = PreparedCache::new(CACHE_CAPACITY);
    for (i, b) in bodies[..hot].iter().enumerate() {
        replay_one(&Tracer::new(false), &cache, b, i as u64);
    }
    open.iter()
        .enumerate()
        .map(|(i, &key)| replay_one(tracer, &cache, &bodies[key], i as u64))
        .collect()
}

/// Per-request stage times and layer metrics of the replayed sequence.
fn set_replay_metrics(
    m: &mut MetricSet,
    spans: &[Span],
    replayed: &[Replayed],
    open: &[usize],
    open_sent: &[Sent],
    hot: usize,
) {
    let mean_of = |name: &str| {
        mean(
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_ns() as f64 * 1e-9),
        )
    };
    m.set("serve.parse_us", mean_of("serve.parse") * 1e6);
    m.set("serve.lookup_us", mean_of("serve.lookup") * 1e6);
    m.set("serve.prepare_ms", mean_of("serve.prepare") * 1e3);
    m.set("serve.simulate_ms", mean_of("gcn.inference") * 1e3);
    m.set("serve.render_us", mean_of("serve.render") * 1e6);

    // Waiting and HTTP: mean observed latency of the warm (hot-key)
    // requests minus the mean replayed service time of the same requests.
    let observed = mean(
        open_sent
            .iter()
            .filter(|s| s.status == Some(200) && s.key < hot)
            .map(|s| s.latency_ms),
    );
    let service = mean(
        spans
            .iter()
            .filter(|s| s.name == "serve.request" && open[s.request as usize] < hot)
            .map(|s| s.duration_ns() as f64 * 1e-6),
    );
    m.set("serve.wait_and_http_ms", observed - service);

    let times = layer_times(spans);
    for (name, value) in &times {
        m.set(name, *value);
    }
    let mut counts = ModelCounts::default();
    replayed.iter().for_each(|r| counts.add(&r.report));
    set_model_counts(m, &counts, simulate_seconds(&times));
    let built: usize = replayed.iter().map(|r| r.built_nnz).sum();
    m.set("sparse.edges_per_s", sparse_rate(built as f64, &times));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_are_balanced_and_never_repeat_a_key_too_soon() {
        let mut rng = rng(5, 0);
        let seq = rounds(&mut rng, 6, 600);
        assert_eq!(seq.len(), 600);
        for key in 0..6 {
            assert_eq!(seq.iter().filter(|&&k| k == key).count(), 100);
        }
        for (i, &k) in seq.iter().enumerate() {
            let window = &seq[i.saturating_sub(MIN_REPEAT_DISTANCE - 1)..i];
            assert!(!window.contains(&k), "key {k} repeats at {i}");
        }
    }

    #[test]
    fn open_sequence_has_one_cold_request_per_block() {
        let mut rng = rng(9, 0);
        let seq = open_sequence(&mut rng, 6, 12);
        assert_eq!(seq.len(), 12 * COLD_EVERY);
        for (block, chunk) in seq.chunks(COLD_EVERY).enumerate() {
            let cold: Vec<usize> = chunk.iter().copied().filter(|&k| k >= 6).collect();
            assert_eq!(cold, vec![6 + block]);
        }
    }

    #[test]
    fn a_slow_stretch_does_not_move_the_windowed_percentile() {
        let sent = |status, latency_ms| Sent {
            key: 0,
            status,
            body: Vec::new(),
            latency_ms,
            late_ms: 0.0,
        };
        let mut open: Vec<Sent> = (0..20).map(|_| sent(Some(200), 10.0)).collect();
        open.extend((0..10).map(|_| sent(Some(200), 100.0)));
        assert_eq!(windowed_percentile(&open, 0.5), 10.0);
        assert_eq!(windowed_percentile(&open, 0.9), 10.0);
        // Failed requests carry no latency.
        open[0] = sent(None, 1e9);
        assert_eq!(windowed_percentile(&open, 0.9), 10.0);
    }

    #[test]
    fn cold_requests_are_unique_and_never_hot() {
        let bodies = request_bodies(2000, 40, &mut rng(1, 0));
        assert_eq!(bodies.len(), 6 + 40);
        let distinct: std::collections::HashSet<&String> = bodies.iter().collect();
        assert_eq!(distinct.len(), bodies.len());
        for body in &bodies[6..] {
            assert!(!body.contains("\"scale\": 2000,"), "{body}");
        }
    }
}
