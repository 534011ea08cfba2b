//! Interval-sampled telemetry — the sampler that turns the machine's
//! cumulative counters into the time series defined in
//! [`hymm_mem::metrics`] (re-exported here so report consumers need not
//! depend on the memory crate directly).
//!
//! # How sampling works on a transaction-level simulator
//!
//! There is no per-cycle loop to hang a "sample every N cycles" timer on:
//! components exchange absolute cycle numbers and engines advance cursors
//! with `max()` chains, so simulated time jumps at every transaction. The
//! sampler is therefore **lazy**: every machine observation point
//! (`load_line` / `store_line` / phase boundaries) checks whether the
//! presented cycle has crossed the next interval boundary and, if so,
//! emits one sample per elapsed interval — back-filling skipped intervals
//! from counter deltas. A single long DMB miss or DRAM burst can cross
//! several boundaries between two observations; the back-filled samples
//! split the counter deltas evenly across the crossed boundaries
//! (remainder to the last), which preserves every per-series *sum* exactly
//! while interpolating the per-interval *shape*. DESIGN.md §14 argues the
//! legality.
//!
//! # Exact stall accounting by telescoping
//!
//! Per-interval stall-class deltas come from a cumulative attribution
//! function `C(t)` = (sum of completed-phase waterfalls) + (waterfall of
//! the in-progress window `[window_start, t]` from raw counter deltas).
//! Each sample records `C(boundary) − C(previous boundary)` and the final
//! sample closes against the report's own end-of-run waterfall, so the
//! series **telescopes**: per-class sums equal
//! [`crate::stats::SimReport::stalls`] exactly (audit-enforced via the
//! `metrics-accounting` invariant) even though each individual delta is an
//! estimate. Individual deltas are `i64` — a close-out can revise an
//! earlier over-estimate downward, making one delta negative.

use crate::pe::PeArray;
use crate::stats::StallBreakdown;
use hymm_mem::{Dmb, Dram, Lsq};

pub use hymm_mem::metrics::{
    MetricKind, MetricsConfig, MetricsData, MetricsRegistry, MetricsRing, MetricsSample,
    KIND_CLASSES, MAX_SAMPLED_CHANNELS, STALL_CLASSES,
};

// The sample layout and the waterfall must agree on the class count.
const _: [(); STALL_CLASSES] = [(); StallBreakdown::CLASSES.len()];

/// Raw cumulative stall-source counters, in [`StallBreakdown::attribute`]
/// argument order (idle is the waterfall remainder, so only 7 sources).
pub type RawStalls = [u64; 7];

/// Point-in-time component gauges plus the cumulative counters the sampler
/// differences between observations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GaugeSnapshot {
    /// Cumulative DMB hits (reads + writes).
    pub dmb_hits: u64,
    /// Cumulative DMB misses (reads + writes).
    pub dmb_misses: u64,
    /// Cumulative DMB line fills.
    pub dmb_fills: u64,
    /// Resident DMB lines right now.
    pub dmb_occupancy: u32,
    /// Resident DMB lines per matrix kind right now.
    pub dmb_kind_occupancy: [u32; KIND_CLASSES],
    /// Live MSHRs right now.
    pub mshr_occupancy: u32,
    /// Cumulative per-channel DRAM transfer cycles (first
    /// [`MAX_SAMPLED_CHANNELS`] channels).
    pub dram_channel_busy: [u64; MAX_SAMPLED_CHANNELS],
    /// DRAM channel count (capped at [`MAX_SAMPLED_CHANNELS`]).
    pub dram_channels: u8,
    /// Cumulative DRAM bytes moved (both directions).
    pub dram_bytes: u64,
    /// LSQ occupancy right now.
    pub lsq_depth: u32,
    /// Cumulative PE issue slots (MAC + merge).
    pub pe_issues: u64,
    /// Cumulative occupied-lane MAC operations.
    pub pe_lane_ops: u64,
    /// MAC lanes in the array.
    pub pe_lanes: u32,
    /// Cumulative prefetch lines issued.
    pub prefetch_issued: u64,
    /// Cumulative prefetched lines demand-touched.
    pub prefetch_useful: u64,
    /// Cumulative useful-but-late prefetches.
    pub prefetch_late: u64,
}

impl GaugeSnapshot {
    /// Reads every gauge/counter off the live components. Called only when
    /// at least one interval boundary has been crossed (the per-kind
    /// occupancy walk is not free), never on the metrics-off path.
    pub fn capture(dmb: &Dmb, dram: &Dram, lsq: &Lsq, pe: &PeArray) -> GaugeSnapshot {
        let hits = dmb.hit_stats();
        let pf = dmb.prefetch_stats();
        let mut kind_occupancy = [0u32; KIND_CLASSES];
        for (slot, kind) in kind_occupancy.iter_mut().zip(hymm_mem::MatrixKind::ALL) {
            *slot = dmb.resident_lines(kind) as u32;
        }
        let mut dram_channel_busy = [0u64; MAX_SAMPLED_CHANNELS];
        let per_channel = dram.channel_busy_cycles();
        for (slot, busy) in dram_channel_busy.iter_mut().zip(per_channel) {
            *slot = *busy;
        }
        GaugeSnapshot {
            dmb_hits: hits.read_hits + hits.write_hits,
            dmb_misses: hits.read_misses + hits.write_misses,
            dmb_fills: dmb.line_fills(),
            dmb_occupancy: dmb.occupancy() as u32,
            dmb_kind_occupancy: kind_occupancy,
            mshr_occupancy: dmb.mshr_occupancy() as u32,
            dram_channel_busy,
            dram_channels: per_channel.len().min(MAX_SAMPLED_CHANNELS) as u8,
            dram_bytes: dram.stats().total().total_bytes(),
            lsq_depth: lsq.occupancy() as u32,
            pe_issues: pe.mac_issues() + pe.merge_issues(),
            pe_lane_ops: pe.mac_lane_ops(),
            pe_lanes: pe.lanes() as u32,
            prefetch_issued: pf.issued,
            prefetch_useful: pf.useful,
            prefetch_late: pf.late,
        }
    }
}

/// Splits the counter delta `total` evenly across `count` back-filled
/// intervals, giving the remainder to the last so the shares sum exactly.
fn share(total: u64, k: u64, count: u64) -> u64 {
    let each = total / count;
    if k + 1 == count {
        total - each * (count - 1)
    } else {
        each
    }
}

/// The interval sampler owned by the machine when
/// [`crate::config::AcceleratorConfig::metrics`] is `Some`.
///
/// Observation-only by construction: it reads counters and gauges but
/// never feeds anything back into timing, so metrics-on runs are
/// cycle-identical to metrics-off runs (pinned by `tests/metrics.rs`).
#[derive(Debug, Clone)]
pub struct MetricsSampler {
    ring: MetricsRing,
    sample_every: u64,
    /// First boundary not yet emitted.
    next_boundary: u64,
    /// Timestamp of the last emitted sample (interval-length bookkeeping).
    last_ts: u64,
    /// Σ waterfalls of every completed phase — the exact part of `C(t)`.
    base: StallBreakdown,
    /// Start of the in-progress attribution window (end of last phase).
    window_start: u64,
    /// `C(last boundary)` — what the emitted samples sum to so far.
    emitted: [i64; STALL_CLASSES],
    /// Counter values at the previous observation (for interval deltas).
    prev: GaugeSnapshot,
}

impl MetricsSampler {
    /// Creates a sampler; `config` is already validated (non-zero interval
    /// and capacity).
    pub fn new(config: MetricsConfig) -> MetricsSampler {
        let sample_every = config.sample_every.max(1);
        MetricsSampler {
            ring: MetricsRing::new(config.capacity),
            sample_every,
            next_boundary: sample_every,
            last_ts: 0,
            base: StallBreakdown::default(),
            window_start: 0,
            emitted: [0; STALL_CLASSES],
            prev: GaugeSnapshot::default(),
        }
    }

    /// First interval boundary not yet emitted — the machine's observation
    /// hooks early-out on `now < next_boundary()` before touching any
    /// component gauge.
    pub fn next_boundary(&self) -> u64 {
        self.next_boundary
    }

    /// Cumulative per-class attribution at `cycle`: completed-phase
    /// waterfalls plus a waterfall of the in-progress window estimated
    /// from the raw counter deltas since the machine's phase snapshot.
    fn cumulative_at(&self, cycle: u64, raw: RawStalls, snap: RawStalls) -> [i64; STALL_CLASSES] {
        let window = cycle.saturating_sub(self.window_start);
        let d = |i: usize| raw[i].saturating_sub(snap[i]);
        let est = StallBreakdown::attribute(window, d(0), d(1), d(2), d(3), d(4), d(5), d(6));
        let mut out = [0i64; STALL_CLASSES];
        for ((o, b), e) in out.iter_mut().zip(self.base.as_array()).zip(est.as_array()) {
            *o = b as i64 + e as i64;
        }
        out
    }

    /// Emits one sample per interval boundary crossed by `now` (no-op if
    /// none). `raw`/`snap` are the machine's current stall counters and
    /// its counters at the last phase boundary; `g` is a fresh gauge
    /// capture. Back-filled intervals split the counter deltas since the
    /// previous observation evenly (remainder to the last boundary) and
    /// sample-and-hold the point-in-time gauges.
    pub fn observe(&mut self, now: u64, raw: RawStalls, snap: RawStalls, g: &GaugeSnapshot) {
        if now < self.next_boundary {
            return;
        }
        let first = self.next_boundary;
        let count = (now - first) / self.sample_every + 1;
        let d_hits = g.dmb_hits - self.prev.dmb_hits;
        let d_misses = g.dmb_misses - self.prev.dmb_misses;
        let d_fills = g.dmb_fills - self.prev.dmb_fills;
        let d_bytes = g.dram_bytes - self.prev.dram_bytes;
        let d_issues = g.pe_issues - self.prev.pe_issues;
        let d_lane_ops = g.pe_lane_ops - self.prev.pe_lane_ops;
        let d_pf_issued = g.prefetch_issued - self.prev.prefetch_issued;
        let d_pf_useful = g.prefetch_useful - self.prev.prefetch_useful;
        let d_pf_late = g.prefetch_late - self.prev.prefetch_late;
        let mut d_chan = [0u64; MAX_SAMPLED_CHANNELS];
        for (d, (a, b)) in d_chan
            .iter_mut()
            .zip(g.dram_channel_busy.iter().zip(self.prev.dram_channel_busy))
        {
            *d = a - b;
        }
        for k in 0..count {
            let boundary = first + k * self.sample_every;
            let cum = self.cumulative_at(boundary, raw, snap);
            let mut stalls = [0i64; STALL_CLASSES];
            for ((s, c), e) in stalls.iter_mut().zip(cum).zip(self.emitted) {
                *s = c - e;
            }
            self.emitted = cum;
            let len = (boundary - self.last_ts).max(1) as f32;
            let hits = share(d_hits, k, count);
            let misses = share(d_misses, k, count);
            let issues = share(d_issues, k, count);
            let lane_ops = share(d_lane_ops, k, count);
            let mut busy_frac = [0f32; MAX_SAMPLED_CHANNELS];
            for (f, d) in busy_frac.iter_mut().zip(d_chan) {
                *f = share(d, k, count) as f32 / len;
            }
            self.ring.push(MetricsSample {
                ts: boundary,
                stalls,
                dmb_hit_rate: if hits + misses == 0 {
                    1.0
                } else {
                    hits as f32 / (hits + misses) as f32
                },
                dmb_fills: share(d_fills, k, count),
                dmb_occupancy: g.dmb_occupancy,
                dmb_kind_occupancy: g.dmb_kind_occupancy,
                mshr_occupancy: g.mshr_occupancy,
                dram_busy_frac: busy_frac,
                dram_channels: g.dram_channels,
                dram_bytes_per_cycle: share(d_bytes, k, count) as f32 / len,
                lsq_depth: g.lsq_depth,
                pe_issues: issues,
                pe_lane_util: if issues == 0 || g.pe_lanes == 0 {
                    0.0
                } else {
                    (lane_ops as f32 / (issues * g.pe_lanes as u64) as f32).min(1.0)
                },
                prefetch_issued: share(d_pf_issued, k, count),
                prefetch_useful: share(d_pf_useful, k, count),
                prefetch_late: share(d_pf_late, k, count),
            });
            self.last_ts = boundary;
        }
        self.next_boundary = first + count * self.sample_every;
        self.prev = *g;
    }

    /// Folds a completed phase's exact waterfall into the cumulative base
    /// and moves the attribution window to the phase end. Called by the
    /// machine *after* [`Self::observe`] has flushed boundaries up to the
    /// phase end, so no emitted boundary ever precedes `window_start`.
    pub fn phase_recorded(&mut self, phase: &StallBreakdown, end: u64) {
        self.base.merge(phase);
        self.window_start = end;
    }

    /// Flushes remaining whole intervals, then emits one final sample at
    /// `cycles` whose stall deltas close the series **exactly** against
    /// the report's end-of-run waterfall (revising any estimate error into
    /// this last sample), and drains everything into a [`MetricsData`].
    pub fn close(
        mut self,
        cycles: u64,
        report_stalls: &StallBreakdown,
        raw: RawStalls,
        snap: RawStalls,
        g: &GaugeSnapshot,
    ) -> MetricsData {
        self.observe(cycles, raw, snap, g);
        let mut stalls = [0i64; STALL_CLASSES];
        for ((s, want), e) in stalls
            .iter_mut()
            .zip(report_stalls.as_array())
            .zip(self.emitted)
        {
            *s = want as i64 - e;
        }
        // When the run ends exactly on a boundary `observe` already emitted
        // a sample at `cycles`; fold the exact correction into it rather
        // than pushing a second sample with the same timestamp.
        if self.last_ts == cycles {
            if let Some(last) = self.ring.last_mut() {
                if last.ts == cycles {
                    for (l, d) in last.stalls.iter_mut().zip(stalls) {
                        *l += d;
                    }
                    let mut data = MetricsData::new(self.sample_every);
                    self.ring.drain_into(&mut data);
                    return data;
                }
            }
        }
        // Counter deltas since the previous observation are zero when
        // `observe` just fired; otherwise (run shorter than one interval)
        // they carry the whole run.
        let len = (cycles - self.last_ts).max(1) as f32;
        let hits = g.dmb_hits - self.prev.dmb_hits;
        let misses = g.dmb_misses - self.prev.dmb_misses;
        let issues = g.pe_issues - self.prev.pe_issues;
        let lane_ops = g.pe_lane_ops - self.prev.pe_lane_ops;
        let mut busy_frac = [0f32; MAX_SAMPLED_CHANNELS];
        for (f, (a, b)) in busy_frac
            .iter_mut()
            .zip(g.dram_channel_busy.iter().zip(self.prev.dram_channel_busy))
        {
            *f = (a - b) as f32 / len;
        }
        self.ring.push(MetricsSample {
            ts: cycles,
            stalls,
            dmb_hit_rate: if hits + misses == 0 {
                1.0
            } else {
                hits as f32 / (hits + misses) as f32
            },
            dmb_fills: g.dmb_fills - self.prev.dmb_fills,
            dmb_occupancy: g.dmb_occupancy,
            dmb_kind_occupancy: g.dmb_kind_occupancy,
            mshr_occupancy: g.mshr_occupancy,
            dram_busy_frac: busy_frac,
            dram_channels: g.dram_channels,
            dram_bytes_per_cycle: (g.dram_bytes - self.prev.dram_bytes) as f32 / len,
            lsq_depth: g.lsq_depth,
            pe_issues: issues,
            pe_lane_util: if issues == 0 || g.pe_lanes == 0 {
                0.0
            } else {
                (lane_ops as f32 / (issues * g.pe_lanes as u64) as f32).min(1.0)
            },
            prefetch_issued: g.prefetch_issued - self.prev.prefetch_issued,
            prefetch_useful: g.prefetch_useful - self.prev.prefetch_useful,
            prefetch_late: g.prefetch_late - self.prev.prefetch_late,
        });
        let mut data = MetricsData::new(self.sample_every);
        self.ring.drain_into(&mut data);
        data
    }
}

/// Fills `reg` with end-of-run aggregates from one labelled report — the
/// registry surface `metrics_export` renders and a future `hymm-serve`
/// scrape endpoint would serve live.
pub fn registry_from_report(
    reg: &mut MetricsRegistry,
    label: &str,
    report: &crate::stats::SimReport,
) {
    reg.register(
        "hymm_cycles_total",
        "Simulated cycles per dataflow",
        MetricKind::Counter,
    );
    reg.register(
        "hymm_stall_cycles_total",
        "Waterfall-attributed cycles per stall class",
        MetricKind::Counter,
    );
    reg.register(
        "hymm_dram_bytes_total",
        "DRAM bytes moved in both directions",
        MetricKind::Counter,
    );
    reg.register(
        "hymm_dmb_hit_rate",
        "End-of-run DMB hit rate (reads + writes)",
        MetricKind::Gauge,
    );
    reg.register(
        "hymm_alu_utilization",
        "End-of-run ALU utilisation",
        MetricKind::Gauge,
    );
    reg.register(
        "hymm_metrics_samples",
        "Interval samples recorded (0 when sampling is off)",
        MetricKind::Gauge,
    );
    reg.register(
        "hymm_metrics_dropped_samples_total",
        "Interval samples dropped at the ring capacity",
        MetricKind::Counter,
    );
    reg.register_histogram(
        "hymm_interval_dmb_hit_rate",
        "Distribution of per-interval DMB hit rates",
        &[0.25, 0.5, 0.75, 0.9, 0.99],
    );
    let run = format!("run=\"{label}\"");
    reg.set("hymm_cycles_total", &run, report.cycles as f64);
    for (class, cycles) in StallBreakdown::CLASSES.iter().zip(report.stalls.as_array()) {
        reg.set(
            "hymm_stall_cycles_total",
            &format!("run=\"{label}\",class=\"{class}\""),
            cycles as f64,
        );
    }
    reg.set(
        "hymm_dram_bytes_total",
        &run,
        report.dram.total().total_bytes() as f64,
    );
    reg.set("hymm_dmb_hit_rate", &run, report.dmb_hits.hit_rate());
    reg.set("hymm_alu_utilization", &run, report.alu_utilization());
    let (samples, dropped) = report
        .metrics
        .as_deref()
        .map_or((0, 0), |m| (m.samples.len() as u64, m.dropped));
    reg.set("hymm_metrics_samples", &run, samples as f64);
    reg.set("hymm_metrics_dropped_samples_total", &run, dropped as f64);
    if let Some(m) = report.metrics.as_deref() {
        for s in &m.samples {
            reg.observe("hymm_interval_dmb_hit_rate", &run, s.dmb_hit_rate as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(every: u64, cap: usize) -> MetricsConfig {
        MetricsConfig {
            sample_every: every,
            capacity: cap,
        }
    }

    /// Drives the sampler exactly like the machine does over two phases
    /// and checks the telescoping invariant: per-class sample sums equal
    /// the closing waterfall no matter how lazily boundaries were
    /// observed.
    #[test]
    fn telescoping_sums_close_exactly() {
        let mut s = MetricsSampler::new(cfg(100, 1024));
        let g = GaugeSnapshot::default();
        // Phase 1: cycles 0..250, raw mac=300 (exceeds window), miss=50.
        let raw1: RawStalls = [300, 0, 50, 0, 0, 0, 0];
        s.observe(250, raw1, [0; 7], &g);
        let p1 = StallBreakdown::attribute(250, 300, 0, 50, 0, 0, 0, 0);
        s.phase_recorded(&p1, 250);
        // Phase 2: cycles 250..430, observed lazily only at its end.
        let raw2: RawStalls = [350, 20, 90, 0, 40, 0, 0];
        s.observe(430, raw2, raw1, &g);
        let p2 = StallBreakdown::attribute(180, 50, 20, 40, 0, 40, 0, 0);
        s.phase_recorded(&p2, 430);
        // Report waterfall = Σ phases + idle tail to cycle 500.
        let mut total = p1;
        total.merge(&p2);
        total.idle += 500 - 430;
        let data = s.close(500, &total, raw2, raw2, &g);
        assert_eq!(data.dropped, 0);
        let want: Vec<i64> = total.as_array().iter().map(|&v| v as i64).collect();
        assert_eq!(data.stall_sums().to_vec(), want);
        // Boundaries 100..=400 plus the closing sample at 500.
        let ts: Vec<u64> = data.samples.iter().map(|s| s.ts).collect();
        assert_eq!(ts, [100, 200, 300, 400, 500]);
        assert_eq!(data.sample_every, 100);
    }

    #[test]
    fn backfill_splits_counter_deltas_exactly() {
        let mut s = MetricsSampler::new(cfg(10, 64));
        let mut g = GaugeSnapshot {
            dram_channels: 1,
            ..GaugeSnapshot::default()
        };
        g.dmb_fills = 7;
        g.dram_bytes = 640;
        // One observation at cycle 35 crosses boundaries 10, 20, 30: the 7
        // fills split 2/2/3 (remainder to the last).
        s.observe(35, [0; 7], [0; 7], &g);
        let total = StallBreakdown::attribute(40, 0, 0, 0, 0, 0, 0, 0);
        let data = s.close(40, &total, [0; 7], [0; 7], &g);
        let fills: Vec<u64> = data.samples.iter().map(|s| s.dmb_fills).collect();
        assert_eq!(fills, [2, 2, 3, 0]);
        assert_eq!(fills.iter().sum::<u64>(), 7);
    }

    #[test]
    fn run_shorter_than_one_interval_still_closes() {
        let s = MetricsSampler::new(cfg(1_000_000, 16));
        let total = StallBreakdown::attribute(42, 30, 0, 0, 0, 0, 0, 0);
        let g = GaugeSnapshot::default();
        let data = s.close(42, &total, [30, 0, 0, 0, 0, 0, 0], [0; 7], &g);
        assert_eq!(data.samples.len(), 1);
        assert_eq!(data.samples[0].ts, 42);
        let want: Vec<i64> = total.as_array().iter().map(|&v| v as i64).collect();
        assert_eq!(data.stall_sums().to_vec(), want);
    }

    #[test]
    fn negative_delta_revision_is_legal_but_sums_stay_exact() {
        // An over-estimating mid-phase observation gets revised by the
        // close: some per-class delta goes negative, the sums do not move.
        let mut s = MetricsSampler::new(cfg(50, 64));
        let g = GaugeSnapshot::default();
        // At cycle 60 the raw mac counter claims the whole window...
        s.observe(60, [60, 0, 0, 0, 0, 0, 0], [0; 7], &g);
        // ...but the phase's exact waterfall says only 10 were mac.
        let total = StallBreakdown::attribute(100, 10, 0, 0, 0, 0, 0, 0);
        let data = s.close(100, &total, [60, 0, 0, 0, 0, 0, 0], [0; 7], &g);
        assert!(
            data.samples.iter().any(|s| s.stalls.iter().any(|&d| d < 0)),
            "expected a negative revision delta"
        );
        let want: Vec<i64> = total.as_array().iter().map(|&v| v as i64).collect();
        assert_eq!(data.stall_sums().to_vec(), want);
    }

    #[test]
    fn ring_overflow_marks_series_inexact() {
        let mut s = MetricsSampler::new(cfg(10, 2));
        let g = GaugeSnapshot::default();
        s.observe(100, [0; 7], [0; 7], &g);
        let total = StallBreakdown::attribute(100, 0, 0, 0, 0, 0, 0, 0);
        let data = s.close(100, &total, [0; 7], [0; 7], &g);
        assert!(data.dropped > 0);
        assert_eq!(data.samples.len(), 2);
    }

    #[test]
    fn registry_from_report_renders_all_families() {
        let mut reg = MetricsRegistry::new();
        let mut report = crate::stats::SimReport::empty();
        report.cycles = 1000;
        report.stalls = StallBreakdown::attribute(1000, 600, 0, 300, 0, 0, 0, 0);
        registry_from_report(&mut reg, "OP", &report);
        let text = reg.render_prometheus();
        assert!(text.contains("hymm_cycles_total{run=\"OP\"} 1000"));
        assert!(text.contains("hymm_stall_cycles_total{run=\"OP\",class=\"mac\"} 600"));
        assert!(text.contains("hymm_stall_cycles_total{run=\"OP\",class=\"idle\"} 100"));
        assert!(text.contains("# TYPE hymm_interval_dmb_hit_rate histogram"));
    }
}
