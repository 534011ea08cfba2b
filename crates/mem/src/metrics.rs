//! A small named-metrics registry with Prometheus text-exposition
//! rendering, and a validator for the dialect it emits.
//!
//! [`MetricsRegistry`] holds named counters, gauges and histograms and
//! renders them in registration order, so the output is deterministic for
//! a deterministic simulation. `hymm-core::metrics` fills it from finished
//! simulation reports; `hymm-serve` adds its own server counters and
//! serves the result on `/metrics`. [`validate_prometheus`] checks such a
//! scrape without a real Prometheus in the loop.

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
/// text-exposition rendering — what `hymm-serve`'s `/metrics` endpoint
/// serves.
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
