//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A span is a name, a start and an end, the span that caused it and the
//! request it belongs to. Spans stay in memory while the benchmark runs
//! and are written out when it ends. With tracing off, [`Tracer::span`]
//! calls its closure and records nothing.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval around a call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within one [`Tracer`].
    pub id: u32,
    /// The span that was open when this one started (possibly on another
    /// thread, for work handed to a pool).
    pub parent: Option<u32>,
    /// Layer call, e.g. `core.simulate`.
    pub name: &'static str,
    /// Qualifier such as the dataflow variant or the dataset.
    pub label: &'static str,
    /// Request or job the span belongs to.
    pub request: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Length of the span in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    static OPEN: Cell<Option<u32>> = const { Cell::new(None) };
}

/// Records spans when enabled; a pass-through otherwise.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The innermost span open on this thread, to hand to work that runs
    /// on other threads.
    pub fn open_span(&self) -> Option<u32> {
        OPEN.with(Cell::get)
    }

    /// Runs `f` inside a span that is a child of the innermost span open
    /// on this thread.
    pub fn span<R>(
        &self,
        name: &'static str,
        label: &'static str,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        self.span_under(self.open_span(), name, label, request, f)
    }

    /// Runs `f` inside a span with an explicit parent.
    pub fn span_under<R>(
        &self,
        parent: Option<u32>,
        name: &'static str,
        label: &'static str,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let outer = OPEN.with(|open| open.replace(Some(id)));
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        OPEN.with(|open| open.set(outer));
        self.spans.lock().expect("span buffer poisoned").push(Span {
            id,
            parent,
            name,
            label,
            request,
            start_ns,
            end_ns,
        });
        out
    }

    /// Takes every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// Self time of every span, keyed by id: its duration minus the part of
/// its interval that its children cover. Children that ran in parallel
/// are merged, so overlapping cover is subtracted once.
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            (
                s.id,
                s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids),
            )
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(start), b.min(end)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (a, b) in clipped {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Sum of the self times, in seconds, of the spans `keep` selects.
pub fn self_seconds(
    spans: &[Span],
    selfs: &HashMap<u32, u64>,
    keep: impl Fn(&Span) -> bool,
) -> f64 {
    spans
        .iter()
        .filter(|s| keep(s))
        .map(|s| selfs[&s.id] as f64 * 1e-9)
        .sum()
}

/// Sum of the durations, in seconds, of the spans `keep` selects.
pub fn total_seconds(spans: &[Span], keep: impl Fn(&Span) -> bool) -> f64 {
    spans
        .iter()
        .filter(|s| keep(s))
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            label: "",
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, None, 0, 100),
            // Two overlapping children (parallel work) and one that runs
            // past the parent's end.
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),
            span(3, Some(0), 90, 120),
            span(4, Some(1), 12, 18),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&0], 100 - (40 + 10));
        assert_eq!(selfs[&1], 20 - 6);
        assert_eq!(selfs[&2], 30);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 6);
        // Parallel children keep their full self time, so the sum exceeds
        // the root's 100 ns by the 10 ns overlap and the 20 ns overhang.
        let total = self_seconds(&spans, &selfs, |_| true);
        assert!((total - 130e-9).abs() < 1e-15, "{total}");
    }

    #[test]
    fn nested_spans_record_their_parents() {
        let tracer = Tracer::new(true);
        let answer = tracer.span("outer", "", 7, || {
            tracer.span("inner", "a", 7, || 40) + tracer.span("inner", "b", 7, || 2)
        });
        assert_eq!(answer, 42);
        let spans = tracer.drain();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.parent, None);
        for inner in spans.iter().filter(|s| s.name == "inner") {
            assert_eq!(inner.parent, Some(outer.id));
            assert_eq!(inner.request, 7);
            assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        }
        assert!(tracer.drain().is_empty(), "drain empties the buffer");
        assert_eq!(tracer.open_span(), None, "no span left open");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("outer", "", 0, || 5), 5);
        assert!(tracer.drain().is_empty());
    }
}
