//! Simulation reports.
//!
//! One [`SimReport`] per simulated layer collects everything the paper's
//! evaluation section plots: total cycles (Fig. 7 speedups), ALU utilisation
//! (Fig. 8), DMB hit rates (Fig. 9), partial-output footprint (Fig. 10) and
//! the per-matrix DRAM access breakdown (Fig. 11).

use hymm_mem::lsq::LsqStats;
use hymm_mem::stats::HitStats;
use hymm_mem::trace::TraceData;
use hymm_mem::{PrefetchStats, TrafficStats};

/// Per-phase (and per-report) cycle attribution: every simulated cycle
/// classified into one stall/work class.
///
/// Classes are attributed from component counter **deltas** over the phase
/// window with a fixed-priority waterfall (see [`StallBreakdown::attribute`]):
/// each class claims at most the cycles the previous classes left, so the
/// eight fields always sum exactly to the phase's cycle count — the audit
/// layer enforces this. Because concurrent components overlap (a MAC can
/// execute under a miss), the waterfall is an *attribution policy*, not a
/// measurement of exclusive busy time: classes earlier in the order absorb
/// overlapped cycles first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Useful MAC work in the PE array.
    pub mac: u64,
    /// Partial-output merge work in the PE array.
    pub merge: u64,
    /// Waiting on DMB read misses (fill latency + MSHR-full stalls).
    pub dmb_miss: u64,
    /// Waiting on an in-flight prefetch fill — the line was found resident
    /// but its speculative fill had not completed (a *late* prefetch). Kept
    /// separate from [`StallBreakdown::dmb_miss`] so prefetching shifts
    /// cycles between the two classes visibly instead of hiding them.
    pub prefetch_late: u64,
    /// DRAM channel busy (bandwidth-bound).
    pub dram_bw: u64,
    /// Waiting on LSQ capacity.
    pub lsq_capacity: u64,
    /// Waiting on the SMQ sparse stream (starvation).
    pub smq_starve: u64,
    /// Nothing above claims the cycle: drain, dependency gaps, idle.
    pub idle: u64,
}

impl StallBreakdown {
    /// Class labels, in waterfall order, matching [`StallBreakdown::as_array`].
    pub const CLASSES: [&'static str; 8] = [
        "mac",
        "merge",
        "dmb-miss",
        "prefetch-late",
        "dram-bw",
        "lsq-cap",
        "smq-starve",
        "idle",
    ];

    /// Distributes `cycles` over the classes: each raw component count is
    /// capped by whatever the classes before it left unclaimed (a component
    /// counter like total MAC cycles across 16 PEs can legitimately exceed
    /// the wall-clock window), and the remainder is idle. By construction
    /// `total() == cycles`.
    #[allow(clippy::too_many_arguments)]
    pub fn attribute(
        cycles: u64,
        mac: u64,
        merge: u64,
        dmb_miss: u64,
        prefetch_late: u64,
        dram_bw: u64,
        lsq_capacity: u64,
        smq_starve: u64,
    ) -> StallBreakdown {
        let mut left = cycles;
        let mut take = |raw: u64| {
            let t = raw.min(left);
            left -= t;
            t
        };
        let mac = take(mac);
        let merge = take(merge);
        let dmb_miss = take(dmb_miss);
        let prefetch_late = take(prefetch_late);
        let dram_bw = take(dram_bw);
        let lsq_capacity = take(lsq_capacity);
        let smq_starve = take(smq_starve);
        StallBreakdown {
            mac,
            merge,
            dmb_miss,
            prefetch_late,
            dram_bw,
            lsq_capacity,
            smq_starve,
            idle: left,
        }
    }

    /// Sum of all classes — equals the attributed cycle count.
    pub fn total(&self) -> u64 {
        self.mac
            + self.merge
            + self.dmb_miss
            + self.prefetch_late
            + self.dram_bw
            + self.lsq_capacity
            + self.smq_starve
            + self.idle
    }

    /// The classes as an array, ordered like [`StallBreakdown::CLASSES`].
    pub fn as_array(&self) -> [u64; 8] {
        [
            self.mac,
            self.merge,
            self.dmb_miss,
            self.prefetch_late,
            self.dram_bw,
            self.lsq_capacity,
            self.smq_starve,
            self.idle,
        ]
    }

    /// Accumulates another breakdown.
    pub fn merge(&mut self, other: &StallBreakdown) {
        self.mac += other.mac;
        self.merge += other.merge;
        self.dmb_miss += other.dmb_miss;
        self.prefetch_late += other.prefetch_late;
        self.dram_bw += other.dram_bw;
        self.lsq_capacity += other.lsq_capacity;
        self.smq_starve += other.smq_starve;
        self.idle += other.idle;
    }
}

/// Partial-output footprint accounting (paper Fig. 10).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartialStats {
    /// Partial-output line writes issued by the OP engine.
    pub writes: u64,
    /// Peak bytes of partial-output state alive at once (merged lines for
    /// accumulator configurations, materialised log otherwise).
    pub peak_bytes: u64,
    /// Partial lines that had to be merged through DRAM (spilled before
    /// their final merge).
    pub dram_merges: u64,
}

impl PartialStats {
    /// Accumulates another counter set.
    pub fn merge(&mut self, other: &PartialStats) {
        self.writes += other.writes;
        self.peak_bytes = self.peak_bytes.max(other.peak_bytes);
        self.dram_merges += other.dram_merges;
    }
}

/// Timing and counters of one execution phase (combination, or one
/// aggregation region pass).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// Human-readable phase name, e.g. `"combination"` or `"aggregation/op"`.
    /// Interned: every caller passes a literal, so the report borrows it and
    /// `record_phase` stays allocation-free.
    pub name: &'static str,
    /// First cycle of the phase.
    pub start_cycle: u64,
    /// Last cycle of the phase.
    pub end_cycle: u64,
    /// Non-zero entries processed.
    pub nnz: u64,
    /// DMB hit/miss counters accumulated during this phase only.
    pub dmb_hits: HitStats,
    /// DRAM bytes moved during this phase only.
    pub dram_bytes: u64,
    /// Where this phase's cycles went; always sums to [`PhaseReport::cycles`].
    pub stalls: StallBreakdown,
}

impl PhaseReport {
    /// Cycles spent in this phase.
    pub fn cycles(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle)
    }
}

/// The complete report of one simulated GCN layer (or a whole inference if
/// merged with [`SimReport::merge`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Total execution cycles.
    pub cycles: u64,
    /// Useful MAC cycles in the PE array.
    pub mac_cycles: u64,
    /// Partial-output merge cycles executed in the PE array (zero when the
    /// near-memory accumulator does the merging).
    pub merge_cycles: u64,
    /// Logical MAC operations (one per sparse row operation); invariant
    /// across PE lane count, latency and pipelining.
    pub mac_ops: u64,
    /// Merge operations executed in the PE array.
    pub merge_ops: u64,
    /// Lane-level multiply events — the PE energy proxy. With per-lane
    /// gating only occupied lanes count; without it every issue slot
    /// charges all lanes.
    pub mac_lane_ops: u64,
    /// DRAM traffic broken down by matrix kind (Fig. 11).
    pub dram: TrafficStats,
    /// DMB hit/miss counters (Fig. 9).
    pub dmb_hits: HitStats,
    /// DMB evictions.
    pub dmb_evictions: u64,
    /// DMB evictions that wrote dirty data back.
    pub dmb_dirty_evictions: u64,
    /// Near-memory accumulator merges.
    pub accumulator_merges: u64,
    /// LSQ counters (forwards, stalls).
    pub lsq: LsqStats,
    /// Data-prefetcher counters (all zero when `MemConfig::prefetch` is
    /// `Off`): issued/dropped/useful/late plus the accuracy and timeliness
    /// ratios derived from them.
    pub prefetch: PrefetchStats,
    /// Partial-output footprint (Fig. 10).
    pub partials: PartialStats,
    /// Where every cycle went; always sums to [`SimReport::cycles`].
    pub stalls: StallBreakdown,
    /// Per-phase breakdown.
    pub phases: Vec<PhaseReport>,
    /// Structured event trace, present only when `MemConfig::trace` was set.
    /// Boxed so the common (disabled) path costs one pointer.
    pub trace: Option<Box<TraceData>>,
}

impl SimReport {
    /// An all-zero report.
    pub fn empty() -> SimReport {
        SimReport {
            cycles: 0,
            mac_cycles: 0,
            merge_cycles: 0,
            mac_ops: 0,
            merge_ops: 0,
            mac_lane_ops: 0,
            dram: TrafficStats::new(),
            dmb_hits: HitStats::default(),
            dmb_evictions: 0,
            dmb_dirty_evictions: 0,
            accumulator_merges: 0,
            lsq: LsqStats::default(),
            prefetch: PrefetchStats::default(),
            partials: PartialStats::default(),
            stalls: StallBreakdown::default(),
            phases: Vec::new(),
            trace: None,
        }
    }

    /// Fraction of total cycles the PE array spends on useful MACs — the
    /// paper's Fig. 8 ALU-utilisation metric. In `[0, 1]`.
    pub fn alu_utilization(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.mac_cycles as f64 / self.cycles as f64
    }

    /// Overall DMB hit rate in `[0, 1]` (Fig. 9).
    pub fn dmb_hit_rate(&self) -> f64 {
        self.dmb_hits.hit_rate()
    }

    /// Total DRAM bytes moved (Fig. 11 totals).
    pub fn dram_bytes(&self) -> u64 {
        self.dram.total().total_bytes()
    }

    /// Accumulates a subsequent layer's report into this one (cycles add,
    /// peak footprints take the max).
    pub fn merge(&mut self, other: &SimReport) {
        // Layers run back to back, so the merged trace places the other
        // layer's events after this one's last cycle.
        let base = self.cycles;
        self.cycles += other.cycles;
        self.mac_cycles += other.mac_cycles;
        self.merge_cycles += other.merge_cycles;
        self.mac_ops += other.mac_ops;
        self.merge_ops += other.merge_ops;
        self.mac_lane_ops += other.mac_lane_ops;
        self.dram.merge(&other.dram);
        self.dmb_hits.merge(&other.dmb_hits);
        self.dmb_evictions += other.dmb_evictions;
        self.dmb_dirty_evictions += other.dmb_dirty_evictions;
        self.accumulator_merges += other.accumulator_merges;
        self.lsq.merge(&other.lsq);
        self.prefetch.merge(&other.prefetch);
        self.partials.merge(&other.partials);
        self.stalls.merge(&other.stalls);
        self.phases.extend(other.phases.iter().cloned());
        if let Some(other_trace) = other.trace.as_deref() {
            self.trace
                .get_or_insert_with(Default::default)
                .extend_shifted(other_trace, base);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_bounds() {
        let mut r = SimReport::empty();
        assert_eq!(r.alu_utilization(), 0.0);
        r.cycles = 100;
        r.mac_cycles = 40;
        assert!((r.alu_utilization() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn phase_cycles() {
        let p = PhaseReport {
            name: "x",
            start_cycle: 10,
            end_cycle: 25,
            nnz: 3,
            dmb_hits: HitStats::default(),
            dram_bytes: 0,
            stalls: StallBreakdown::default(),
        };
        assert_eq!(p.cycles(), 15);
    }

    #[test]
    fn waterfall_caps_each_class_and_sums_to_cycles() {
        // mac claims 60, merge the remaining 40, everything after is starved.
        let s = StallBreakdown::attribute(100, 60, 70, 5, 5, 5, 5, 5);
        assert_eq!(s.mac, 60);
        assert_eq!(s.merge, 40);
        assert_eq!(s.dmb_miss, 0);
        assert_eq!(s.prefetch_late, 0);
        assert_eq!(s.idle, 0);
        assert_eq!(s.total(), 100);

        // Under-subscribed window: remainder is idle.
        let s = StallBreakdown::attribute(100, 10, 0, 20, 0, 5, 0, 1);
        assert_eq!(s.idle, 64);
        assert_eq!(s.total(), 100);

        // A late prefetch claims after dmb-miss and before dram-bw.
        let s = StallBreakdown::attribute(100, 0, 0, 30, 40, 50, 0, 0);
        assert_eq!(s.dmb_miss, 30);
        assert_eq!(s.prefetch_late, 40);
        assert_eq!(s.dram_bw, 30);
        assert_eq!(s.total(), 100);

        // Empty window attributes nothing.
        assert_eq!(StallBreakdown::attribute(0, 9, 9, 9, 9, 9, 9, 9).total(), 0);
    }

    #[test]
    fn breakdown_merge_and_array_agree() {
        let mut a = StallBreakdown::attribute(10, 4, 0, 6, 0, 0, 0, 0);
        let b = StallBreakdown::attribute(7, 0, 2, 0, 0, 0, 0, 5);
        a.merge(&b);
        assert_eq!(a.total(), 17);
        assert_eq!(a.as_array().iter().sum::<u64>(), 17);
        assert_eq!(StallBreakdown::CLASSES.len(), a.as_array().len());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = SimReport::empty();
        a.cycles = 10;
        a.partials.peak_bytes = 100;
        let mut b = SimReport::empty();
        b.cycles = 5;
        b.mac_cycles = 3;
        b.partials.peak_bytes = 50;
        b.phases.push(PhaseReport {
            name: "p",
            start_cycle: 0,
            end_cycle: 5,
            nnz: 1,
            dmb_hits: HitStats::default(),
            dram_bytes: 0,
            stalls: StallBreakdown::default(),
        });
        a.merge(&b);
        assert_eq!(a.cycles, 15);
        assert_eq!(a.mac_cycles, 3);
        assert_eq!(a.partials.peak_bytes, 100); // max, not sum
        assert_eq!(a.phases.len(), 1);
    }
}
