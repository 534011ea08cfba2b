//! Interval-sampled time-series metrics and a small named-metrics registry.
//!
//! This module holds the **data side** of the telemetry subsystem: the
//! sample record, the bounded ring that stores one series, the mergeable
//! [`MetricsData`] that rides in simulation reports, and a
//! [`MetricsRegistry`] of named counters/gauges/histograms with Prometheus
//! text-exposition rendering. The **sampler** that knows how to attribute
//! stall cycles lives in `hymm-core::metrics` (it needs the core crate's
//! `StallBreakdown`); components here only expose cheap counter/gauge
//! accessors for it to read.
//!
//! Like tracing (see [`crate::trace`]), the whole subsystem is
//! observation-only: sampling is off by default and the disabled path is
//! bit-identical to a build without it.

use std::collections::VecDeque;

/// Number of stall classes in a sample. Mirrors
/// `hymm_core::stats::StallBreakdown::CLASSES` — the sampler asserts the
/// two agree at construction time.
pub const STALL_CLASSES: usize = 8;

/// Number of matrix kinds tracked per-class ([`crate::MatrixKind::ALL`]).
pub const KIND_CLASSES: usize = 5;

/// Per-channel DRAM busy fractions recorded per sample. Channels beyond
/// this many are folded into the last slot (the config default is a single
/// channel; the DSE grid tops out at 4).
pub const MAX_SAMPLED_CHANNELS: usize = 4;

/// Sampling knobs, carried as `AcceleratorConfig::metrics` (`None` = off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Interval between samples in cycles. The sampler emits one sample
    /// per elapsed interval; when one transaction crosses several
    /// boundaries, several intervals are emitted at once from counter
    /// deltas (back-filling).
    pub sample_every: u64,
    /// Ring capacity in samples. Oldest samples are dropped (and counted)
    /// once the ring fills.
    pub capacity: usize,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig {
            sample_every: 4096,
            capacity: 1 << 16,
        }
    }
}

/// One interval sample: per-class stall **deltas** over the interval plus
/// component gauges observed at the interval boundary.
///
/// Stall deltas are signed: the sampler estimates the in-progress phase's
/// waterfall from raw counters, and a later exact close-out may revise an
/// earlier over-estimate downward, so an individual delta can be negative.
/// The per-class sums over a whole series are exact (audit-enforced).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricsSample {
    /// Cycle of the interval boundary this sample closes.
    pub ts: u64,
    /// Stall-class cycle deltas over the interval, in
    /// `StallBreakdown::CLASSES` order.
    pub stalls: [i64; STALL_CLASSES],
    /// DMB hit rate over the interval (reads + writes), `1.0` when idle.
    pub dmb_hit_rate: f32,
    /// DMB lines filled during the interval.
    pub dmb_fills: u64,
    /// Resident DMB lines at the boundary.
    pub dmb_occupancy: u32,
    /// Resident DMB lines per matrix kind at the boundary
    /// ([`crate::MatrixKind::ALL`] order).
    pub dmb_kind_occupancy: [u32; KIND_CLASSES],
    /// Live MSHRs at the boundary.
    pub mshr_occupancy: u32,
    /// Per-channel DRAM busy fraction over the interval (may transiently
    /// exceed 1.0 under lazy sampling — see DESIGN.md §14).
    pub dram_busy_frac: [f32; MAX_SAMPLED_CHANNELS],
    /// DRAM channels actually present (how many `dram_busy_frac` slots are
    /// meaningful).
    pub dram_channels: u8,
    /// DRAM bytes moved per cycle over the interval.
    pub dram_bytes_per_cycle: f32,
    /// LSQ occupancy at the boundary.
    pub lsq_depth: u32,
    /// PE issue slots consumed during the interval (MAC + merge).
    pub pe_issues: u64,
    /// Mean MAC-lane utilisation over the interval's issue slots, `[0,1]`.
    pub pe_lane_util: f32,
    /// Prefetch lines issued during the interval.
    pub prefetch_issued: u64,
    /// Prefetched lines demand-touched during the interval.
    pub prefetch_useful: u64,
    /// Useful-but-late prefetches during the interval.
    pub prefetch_late: u64,
}

/// Bounded drop-oldest buffer for one metrics series, mirroring
/// [`crate::trace::TraceRing`].
#[derive(Debug, Clone)]
pub struct MetricsRing {
    samples: VecDeque<MetricsSample>,
    capacity: usize,
    dropped: u64,
}

impl MetricsRing {
    /// Creates a ring holding at most `capacity` samples (min 1).
    pub fn new(capacity: usize) -> MetricsRing {
        let capacity = capacity.max(1);
        MetricsRing {
            samples: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            dropped: 0,
        }
    }

    /// Appends a sample, dropping (and counting) the oldest when full.
    pub fn push(&mut self, sample: MetricsSample) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(sample);
    }

    /// Buffered sample count.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Mutable access to the newest sample (the sampler folds its exact
    /// close-out correction into a sample already emitted at the same
    /// timestamp instead of pushing a duplicate).
    pub fn last_mut(&mut self) -> Option<&mut MetricsSample> {
        self.samples.back_mut()
    }

    /// Moves the buffered samples into `into`, accumulating the drop count
    /// and leaving the ring empty.
    pub fn drain_into(&mut self, into: &mut MetricsData) {
        into.samples.extend(self.samples.drain(..));
        into.dropped += self.dropped;
        self.dropped = 0;
    }
}

/// A drained, mergeable metrics series — the form that rides in
/// `SimReport::metrics` and that exporters consume.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsData {
    /// Samples in timestamp order.
    pub samples: Vec<MetricsSample>,
    /// Samples dropped at the ring (capacity overflow). When non-zero the
    /// per-class stall sums are no longer exact and the audit layer skips
    /// its metrics-accounting check.
    pub dropped: u64,
    /// The interval the series was sampled at.
    pub sample_every: u64,
}

impl MetricsData {
    /// Creates an empty series tagged with its sampling interval.
    pub fn new(sample_every: u64) -> MetricsData {
        MetricsData {
            sample_every,
            ..MetricsData::default()
        }
    }

    /// Appends `other`'s samples with timestamps shifted by `base` —
    /// the report-merge convention shared with
    /// [`crate::trace::TraceData::extend_shifted`].
    pub fn extend_shifted(&mut self, other: &MetricsData, base: u64) {
        self.samples
            .extend(other.samples.iter().map(|s| MetricsSample {
                ts: s.ts + base,
                ..*s
            }));
        self.dropped += other.dropped;
        if self.sample_every == 0 {
            self.sample_every = other.sample_every;
        }
    }

    /// Per-class sums of the stall deltas over the whole series. Equal to
    /// the report's end-of-run waterfall exactly when `dropped == 0`.
    pub fn stall_sums(&self) -> [i64; STALL_CLASSES] {
        let mut out = [0i64; STALL_CLASSES];
        for s in &self.samples {
            for (acc, d) in out.iter_mut().zip(s.stalls) {
                *acc += d;
            }
        }
        out
    }
}

/// Metric families a [`MetricsRegistry`] can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing total.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Bucketed distribution of observations.
    Histogram,
}

impl MetricKind {
    fn prometheus_type(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One labelled scalar series inside a metric family.
#[derive(Debug, Clone)]
struct Scalar {
    /// Rendered label set, e.g. `dataflow="OP",class="mac"` (empty for an
    /// unlabelled metric).
    labels: String,
    value: f64,
}

/// One labelled histogram series: cumulative bucket counts plus sum/count.
#[derive(Debug, Clone)]
struct HistogramSeries {
    labels: String,
    /// Observation counts per bucket, parallel to the family's bounds;
    /// one extra trailing slot for `+Inf`.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

/// One named metric family.
#[derive(Debug, Clone)]
struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    /// Upper bucket bounds for histograms (ascending), empty otherwise.
    bounds: Vec<f64>,
    scalars: Vec<Scalar>,
    histograms: Vec<HistogramSeries>,
}

/// A registry of named counters, gauges and histograms with Prometheus
/// text-exposition rendering — the substrate a future `hymm-serve` scrape
/// endpoint serves directly.
///
/// Families render in registration order and label sets in first-touch
/// order, so output is deterministic for a deterministic simulation.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    families: Vec<Family>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn family_mut(&mut self, name: &str) -> Option<&mut Family> {
        self.families.iter_mut().find(|f| f.name == name)
    }

    /// Registers a counter or gauge family. Idempotent by name; `kind`
    /// must not be [`MetricKind::Histogram`] (use
    /// [`Self::register_histogram`]).
    pub fn register(&mut self, name: &str, help: &str, kind: MetricKind) {
        assert!(
            kind != MetricKind::Histogram,
            "histograms need bucket bounds; use register_histogram"
        );
        debug_assert!(valid_metric_name(name), "invalid metric name {name:?}");
        if self.family_mut(name).is_none() {
            self.families.push(Family {
                name: name.to_string(),
                help: help.to_string(),
                kind,
                bounds: Vec::new(),
                scalars: Vec::new(),
                histograms: Vec::new(),
            });
        }
    }

    /// Registers a histogram family with ascending upper bucket `bounds`
    /// (an implicit `+Inf` bucket is always appended). Idempotent by name.
    pub fn register_histogram(&mut self, name: &str, help: &str, bounds: &[f64]) {
        debug_assert!(valid_metric_name(name), "invalid metric name {name:?}");
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        if self.family_mut(name).is_none() {
            self.families.push(Family {
                name: name.to_string(),
                help: help.to_string(),
                kind: MetricKind::Histogram,
                bounds: bounds.to_vec(),
                scalars: Vec::new(),
                histograms: Vec::new(),
            });
        }
    }

    /// Sets the value of a counter/gauge series, creating the label set on
    /// first touch. `labels` is the rendered inner label list (may be
    /// empty). Panics if the family was never registered or is a
    /// histogram.
    pub fn set(&mut self, name: &str, labels: &str, value: f64) {
        let f = self
            .family_mut(name)
            .unwrap_or_else(|| panic!("metric {name:?} not registered"));
        assert!(
            f.kind != MetricKind::Histogram,
            "metric {name:?} is a histogram; use observe"
        );
        match f.scalars.iter_mut().find(|s| s.labels == labels) {
            Some(s) => s.value = value,
            None => f.scalars.push(Scalar {
                labels: labels.to_string(),
                value,
            }),
        }
    }

    /// Adds `delta` to a counter series (creating it at `delta`).
    pub fn add(&mut self, name: &str, labels: &str, delta: f64) {
        let f = self
            .family_mut(name)
            .unwrap_or_else(|| panic!("metric {name:?} not registered"));
        assert!(
            f.kind == MetricKind::Counter,
            "add is only meaningful for counters"
        );
        match f.scalars.iter_mut().find(|s| s.labels == labels) {
            Some(s) => s.value += delta,
            None => f.scalars.push(Scalar {
                labels: labels.to_string(),
                value: delta,
            }),
        }
    }

    /// Records one observation into a histogram series.
    pub fn observe(&mut self, name: &str, labels: &str, value: f64) {
        let f = self
            .family_mut(name)
            .unwrap_or_else(|| panic!("metric {name:?} not registered"));
        assert!(
            f.kind == MetricKind::Histogram,
            "metric {name:?} is not a histogram"
        );
        let slots = f.bounds.len() + 1;
        let series = match f.histograms.iter_mut().find(|h| h.labels == labels) {
            Some(h) => h,
            None => {
                f.histograms.push(HistogramSeries {
                    labels: labels.to_string(),
                    counts: vec![0; slots],
                    sum: 0.0,
                    count: 0,
                });
                f.histograms.last_mut().expect("just pushed")
            }
        };
        let idx = f
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(f.bounds.len());
        series.counts[idx] += 1;
        series.sum += value;
        series.count += 1;
    }

    /// Number of registered families.
    pub fn len(&self) -> usize {
        self.families.len()
    }

    /// `true` when no family is registered.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` headers followed by one line
    /// per series, histograms expanded into cumulative `_bucket` series
    /// plus `_sum` / `_count`.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for f in &self.families {
            let _ = writeln!(out, "# HELP {} {}", f.name, f.help);
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind.prometheus_type());
            for s in &f.scalars {
                if s.labels.is_empty() {
                    let _ = writeln!(out, "{} {}", f.name, fmt_value(s.value));
                } else {
                    let _ = writeln!(out, "{}{{{}}} {}", f.name, s.labels, fmt_value(s.value));
                }
            }
            for h in &f.histograms {
                let sep = if h.labels.is_empty() { "" } else { "," };
                let mut cum = 0u64;
                for (i, c) in h.counts.iter().enumerate() {
                    cum += c;
                    let le = f
                        .bounds
                        .get(i)
                        .map(|b| fmt_value(*b))
                        .unwrap_or_else(|| "+Inf".to_string());
                    let _ = writeln!(
                        out,
                        "{}_bucket{{{}{}le=\"{}\"}} {}",
                        f.name, h.labels, sep, le, cum
                    );
                }
                let _ = writeln!(out, "{}_sum{{{}}} {}", f.name, h.labels, fmt_value(h.sum));
                let _ = writeln!(out, "{}_count{{{}}} {}", f.name, h.labels, h.count);
            }
        }
        out
    }
}

/// Prometheus metric-name grammar: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Renders an `f64` the way Prometheus expects: integral values without a
/// fractional part, everything else via shortest-round-trip `{}`.
fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Validates a Prometheus text-exposition (0.0.4) document of the dialect
/// [`MetricsRegistry::render_prometheus`] emits. Used by the CI smoke
/// checks and the `hymm-serve` load generator to verify `/metrics`
/// scrapes without a real Prometheus in the loop.
///
/// Checks: every `# TYPE` declares a known type with a well-formed name;
/// every sample line refers to a previously declared family (histograms
/// via their `_bucket`/`_sum`/`_count` expansions, which must carry the
/// right suffix for the declared type); label blocks are well-formed
/// `key="value"` lists; values are finite numbers. Returns the number of
/// declared families.
///
/// # Errors
///
/// Returns `"line N: <problem>"` for the first offending line.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut families: Vec<(String, &str)> = Vec::new();
    let fail = |ln: usize, msg: String| Err(format!("line {}: {msg}", ln + 1));
    for (ln, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let (keyword, name) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            match keyword {
                "HELP" => {
                    if !valid_metric_name(name) {
                        return fail(ln, format!("bad metric name {name:?} in HELP"));
                    }
                }
                "TYPE" => {
                    let kind = match parts.next() {
                        Some(k @ ("counter" | "gauge" | "histogram")) => k,
                        other => return fail(ln, format!("bad metric type {other:?}")),
                    };
                    if !valid_metric_name(name) {
                        return fail(ln, format!("bad metric name {name:?} in TYPE"));
                    }
                    if families.iter().any(|(n, _)| n == name) {
                        return fail(ln, format!("duplicate TYPE for {name}"));
                    }
                    families.push((name.to_string(), kind));
                }
                other => return fail(ln, format!("unknown comment keyword {other:?}")),
            }
            continue;
        }
        // Sample line: `name[{labels}] value`.
        let (series, value) = match line.rfind(' ') {
            Some(sp) => (&line[..sp], &line[sp + 1..]),
            None => return fail(ln, "sample line without a value".into()),
        };
        match value.parse::<f64>() {
            Ok(v) if v.is_finite() => {}
            _ => return fail(ln, format!("bad sample value {value:?}")),
        }
        let (name, labels) = match series.find('{') {
            Some(open) => {
                let Some(body) = series[open + 1..].strip_suffix('}') else {
                    return fail(ln, "unclosed label block".into());
                };
                (&series[..open], body)
            }
            None => (series, ""),
        };
        if !labels.is_empty() {
            validate_labels(labels).map_err(|e| format!("line {}: {e}", ln + 1))?;
        }
        let family = families.iter().find_map(|(n, kind)| {
            let suffix_ok = match *kind {
                "histogram" => name
                    .strip_prefix(n.as_str())
                    .is_some_and(|s| matches!(s, "_bucket" | "_sum" | "_count")),
                _ => name == n,
            };
            suffix_ok.then_some(*kind)
        });
        match family {
            None => return fail(ln, format!("sample {name:?} has no TYPE declaration")),
            Some("histogram") if name.ends_with("_bucket") && !labels.contains("le=") => {
                return fail(ln, format!("bucket sample {name:?} missing le label"));
            }
            Some(_) => {}
        }
    }
    Ok(families.len())
}

/// Validates a `key="value",...` label block (no escapes — the registry
/// writer never emits them).
fn validate_labels(mut body: &str) -> Result<(), String> {
    loop {
        let Some(eq) = body.find('=') else {
            return Err(format!("label without '=' in {body:?}"));
        };
        let key = &body[..eq];
        let key_ok = key
            .chars()
            .enumerate()
            .all(|(i, c)| c == '_' || c.is_ascii_alphabetic() || (i > 0 && c.is_ascii_digit()));
        if key.is_empty() || !key_ok {
            return Err(format!("bad label name {key:?}"));
        }
        let rest = body[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| format!("label {key} value not quoted"))?;
        let Some(close) = rest.find('"') else {
            return Err(format!("label {key} value unterminated"));
        };
        body = &rest[close + 1..];
        match body.strip_prefix(',') {
            Some(next) => body = next,
            None if body.is_empty() => return Ok(()),
            None => return Err(format!("junk after label {key}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ts: u64) -> MetricsSample {
        MetricsSample {
            ts,
            stalls: [1, 0, 2, 0, 0, 0, 0, 3],
            ..MetricsSample::default()
        }
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut r = MetricsRing::new(2);
        r.push(sample(1));
        r.push(sample(2));
        r.push(sample(3));
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 1);
        let mut d = MetricsData::new(64);
        r.drain_into(&mut d);
        assert_eq!(d.samples.iter().map(|s| s.ts).collect::<Vec<_>>(), [2, 3]);
        assert_eq!(d.dropped, 1);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn zero_capacity_ring_still_holds_one() {
        let mut r = MetricsRing::new(0);
        r.push(sample(7));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn extend_shifted_offsets_timestamps_and_adopts_interval() {
        let mut a = MetricsData::default();
        let mut b = MetricsData::new(128);
        b.samples.push(sample(10));
        b.dropped = 2;
        a.extend_shifted(&b, 1000);
        assert_eq!(a.samples[0].ts, 1010);
        assert_eq!(a.dropped, 2);
        assert_eq!(a.sample_every, 128);
        // An already-tagged series keeps its own interval.
        a.extend_shifted(&MetricsData::new(999), 0);
        assert_eq!(a.sample_every, 128);
    }

    #[test]
    fn stall_sums_accumulate_per_class() {
        let mut d = MetricsData::new(64);
        d.samples.push(sample(64));
        d.samples.push(MetricsSample {
            ts: 128,
            stalls: [-1, 4, 0, 0, 0, 0, 0, 1],
            ..MetricsSample::default()
        });
        assert_eq!(d.stall_sums(), [0, 4, 2, 0, 0, 0, 0, 4]);
    }

    #[test]
    fn registry_renders_prometheus_text() {
        let mut reg = MetricsRegistry::new();
        reg.register("hymm_cycles_total", "Simulated cycles", MetricKind::Counter);
        reg.register("hymm_dmb_hit_rate", "DMB hit rate", MetricKind::Gauge);
        reg.register_histogram(
            "hymm_interval_hit_rate",
            "Per-interval hit rate",
            &[0.5, 0.9],
        );
        reg.set("hymm_cycles_total", "dataflow=\"OP\"", 1234.0);
        reg.add("hymm_cycles_total", "dataflow=\"OP\"", 1.0);
        reg.set("hymm_dmb_hit_rate", "", 0.75);
        reg.observe("hymm_interval_hit_rate", "dataflow=\"OP\"", 0.4);
        reg.observe("hymm_interval_hit_rate", "dataflow=\"OP\"", 0.95);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE hymm_cycles_total counter"));
        assert!(text.contains("hymm_cycles_total{dataflow=\"OP\"} 1235\n"));
        assert!(text.contains("hymm_dmb_hit_rate 0.75\n"));
        assert!(text.contains("hymm_interval_hit_rate_bucket{dataflow=\"OP\",le=\"0.5\"} 1\n"));
        assert!(text.contains("hymm_interval_hit_rate_bucket{dataflow=\"OP\",le=\"+Inf\"} 2\n"));
        assert!(text.contains("hymm_interval_hit_rate_count{dataflow=\"OP\"} 2\n"));
    }

    #[test]
    fn registry_registration_is_idempotent() {
        let mut reg = MetricsRegistry::new();
        reg.register("a_total", "a", MetricKind::Counter);
        reg.register("a_total", "a again", MetricKind::Counter);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn validate_prometheus_accepts_own_rendering() {
        let mut reg = MetricsRegistry::new();
        reg.register("hymm_cycles_total", "total cycles", MetricKind::Counter);
        reg.add("hymm_cycles_total", "run=\"CR/HyMM\"", 1234.0);
        reg.register("hymm_dmb_hit_rate", "hit rate", MetricKind::Gauge);
        reg.set("hymm_dmb_hit_rate", "", 0.75);
        reg.register_histogram("hymm_interval_hit_rate", "per-interval", &[0.5, 0.9]);
        reg.observe("hymm_interval_hit_rate", "run=\"CR/HyMM\"", 0.4);
        let families = validate_prometheus(&reg.render_prometheus()).unwrap();
        assert_eq!(families, 3);
    }

    #[test]
    fn validate_prometheus_rejects_malformed_documents() {
        for (doc, want) in [
            ("hymm_x 1\n", "no TYPE"),
            ("# TYPE hymm_x summary\nhymm_x 1\n", "bad metric type"),
            (
                "# TYPE hymm_x gauge\nhymm_x notanumber\n",
                "bad sample value",
            ),
            (
                "# TYPE hymm_x gauge\nhymm_x{run=\"a\" 1\n",
                "unclosed label",
            ),
            (
                "# TYPE hymm_x gauge\nhymm_x{9bad=\"a\"} 1\n",
                "bad label name",
            ),
            (
                "# TYPE hymm_x gauge\n# TYPE hymm_x gauge\n",
                "duplicate TYPE",
            ),
            (
                "# TYPE hymm_h histogram\nhymm_h_bucket{run=\"a\"} 1\n",
                "missing le",
            ),
            ("# TYPE hymm_h histogram\nhymm_h 1\n", "no TYPE"),
        ] {
            let err = validate_prometheus(doc).unwrap_err();
            assert!(err.contains(want), "doc {doc:?} gave {err:?}");
        }
    }

    #[test]
    fn metric_name_grammar() {
        assert!(valid_metric_name("hymm_cycles_total"));
        assert!(valid_metric_name(":ns:metric"));
        assert!(!valid_metric_name("9starts_with_digit"));
        assert!(!valid_metric_name("has-dash"));
        assert!(!valid_metric_name(""));
    }
}
