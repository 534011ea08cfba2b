//! The assembled accelerator: memory subsystem + PE array + run cursor.
//!
//! A [`Machine`] owns one instance of every hardware component for the
//! duration of a simulated GCN layer. Engines (see [`crate::engine`]) borrow
//! it mutably, advance time through it, and leave their counters behind; the
//! front end ([`crate::sim`]) snapshots the counters into a
//! [`crate::stats::SimReport`] at the end.

use crate::config::AcceleratorConfig;
use crate::pe::PeArray;
use crate::stats::{PartialStats, PhaseReport, SimReport, StallBreakdown};
use hymm_mem::dram::AccessPattern;
use hymm_mem::smq::SmqStream;
use hymm_mem::trace::{TraceData, TraceEvent, TraceKind, TraceRing, Track};
use hymm_mem::{Dmb, Dram, LineAddr, Lsq, MatrixKind, PrefetchPolicy};
use std::collections::VecDeque;

/// Raw component-counter totals sampled at a phase boundary. Deltas between
/// two snapshots feed [`StallBreakdown::attribute`].
#[derive(Debug, Default, Clone, Copy)]
struct StallCounters {
    mac: u64,
    merge: u64,
    dmb_miss: u64,
    prefetch_late: u64,
    dram_busy: u64,
    lsq_stall: u64,
    smq_wait: u64,
}

/// Bound on the `smq-stream` hint queue: engines may push hints faster than
/// demand loads drain them; beyond this depth the oldest intent is stale
/// anyway, so new hints are dropped.
const PREFETCH_HINT_CAP: usize = 64;

/// One assembled accelerator instance.
#[derive(Debug)]
pub struct Machine {
    /// Off-chip memory channel.
    pub dram: Dram,
    /// Unified dense matrix buffer.
    pub dmb: Dmb,
    /// Load/store queue.
    pub lsq: Lsq,
    /// PE array.
    pub pe: PeArray,
    /// The configuration the machine was built from.
    pub config: AcceleratorConfig,
    /// Partial-output footprint counters (engines update these).
    pub partials: PartialStats,
    /// Completed phases.
    pub phases: Vec<PhaseReport>,
    /// DMB hit counters at the end of the previous phase.
    hit_snapshot: hymm_mem::stats::HitStats,
    /// DRAM bytes at the end of the previous phase.
    dram_snapshot: u64,
    /// Stall-source counter totals at the end of the previous phase.
    stall_snapshot: StallCounters,
    /// SMQ starvation cycles folded in from finished streams (engines create
    /// one stream per pass and hand it to [`Machine::absorb_smq`]).
    smq_wait_cycles: u64,
    /// Machine-wide id of the next absorbed SMQ stream.
    smq_streams: u16,
    /// Trace events from absorbed SMQ streams, renumbered per stream.
    smq_trace: TraceData,
    /// Dense-line prefetch hints queued by the engines for the `smq-stream`
    /// policy (empty and untouched under any other policy).
    prefetch_hints: VecDeque<LineAddr>,
    /// Ring for machine-level (phase) events; `None` when tracing is off.
    trace: Option<Box<TraceRing>>,
}

impl Machine {
    /// Builds an idle machine from a configuration.
    pub fn new(config: &AcceleratorConfig) -> Machine {
        Machine {
            dram: Dram::new(&config.mem),
            dmb: Dmb::new(&config.mem),
            lsq: Lsq::new(&config.mem),
            pe: PeArray::from_config(config),
            config: config.clone(),
            partials: PartialStats::default(),
            phases: Vec::new(),
            hit_snapshot: hymm_mem::stats::HitStats::default(),
            dram_snapshot: 0,
            stall_snapshot: StallCounters::default(),
            smq_wait_cycles: 0,
            smq_streams: 0,
            smq_trace: TraceData::new(),
            prefetch_hints: VecDeque::new(),
            trace: config.mem.trace_ring(),
        }
    }

    /// Current totals of every stall-source counter.
    fn stall_counters(&self) -> StallCounters {
        StallCounters {
            mac: self.pe.mac_cycles(),
            merge: self.pe.merge_cycles(),
            dmb_miss: self.dmb.miss_latency_cycles() + self.dmb.mshr_stall_cycles(),
            prefetch_late: self.dmb.prefetch_stats().late_cycles,
            dram_busy: self.dram.busy_cycles(),
            lsq_stall: self.lsq.stats().capacity_stall_cycles,
            smq_wait: self.smq_wait_cycles,
        }
    }

    /// Folds a finished SMQ stream's starvation cycles and trace events into
    /// the machine. Engines create one stream per pass (one per RWP job, one
    /// per OP/CWP tile walk) and must absorb it before recording the phase so
    /// the starvation cycles land in the right [`StallBreakdown`]. Each
    /// stream stamps its events `Track::Smq(0)`; the machine renumbers them
    /// with a machine-wide stream id here.
    pub fn absorb_smq(&mut self, smq: &mut SmqStream) {
        self.smq_wait_cycles += smq.wait_cycles();
        let id = self.smq_streams;
        self.smq_streams = self.smq_streams.wrapping_add(1);
        if self.config.mem.trace {
            let start = self.smq_trace.events.len();
            smq.drain_trace(&mut self.smq_trace);
            for e in &mut self.smq_trace.events[start..] {
                e.track = Track::Smq(id);
            }
        }
    }

    /// Whether the active prefetch policy consumes engine hints — engines
    /// gate their (sparse-structure) lookahead walks on this so every other
    /// policy pays nothing.
    pub fn wants_prefetch_hints(&self) -> bool {
        self.config.mem.prefetch == PrefetchPolicy::SmqStream
    }

    /// Queues one dense-line prefetch hint for the `smq-stream` policy.
    /// Engines derive hints from sparse index entries the SMQ has already
    /// fetched (upcoming rows/columns of the dense operand); the machine
    /// drains them on subsequent demand loads. Hints beyond the queue bound
    /// are dropped — a deep backlog is stale intent, not useful work.
    pub fn push_prefetch_hint(&mut self, addr: LineAddr) {
        if self.wants_prefetch_hints() && self.prefetch_hints.len() < PREFETCH_HINT_CAP {
            self.prefetch_hints.push_back(addr);
        }
    }

    /// Runs the prefetcher after one demand load: `next-line` triggers on
    /// demand misses, `smq-stream` drains queued engine hints. Candidates
    /// that a queued store would forward to are skipped (the data is about
    /// to be produced on chip). `Off` falls through immediately.
    fn prefetch_after_load(&mut self, now: u64, addr: LineAddr, hit: bool, pattern: AccessPattern) {
        match self.config.mem.prefetch {
            PrefetchPolicy::Off => {}
            PrefetchPolicy::NextLine => {
                if hit {
                    return;
                }
                let degree = self.config.mem.prefetch_degree.max(1) as u64;
                for step in 1..=degree {
                    let cand = LineAddr::new(addr.kind, addr.index + step);
                    if self.config.lsq_forwarding && self.lsq.has_queued_store(cand) {
                        continue;
                    }
                    let _ = self.dmb.prefetch(now, cand, &mut self.dram, pattern);
                }
            }
            PrefetchPolicy::SmqStream => {
                for _ in 0..self.config.mem.prefetch_degree.max(1) {
                    let Some(cand) = self.prefetch_hints.pop_front() else {
                        break;
                    };
                    if self.config.lsq_forwarding && self.lsq.has_queued_store(cand) {
                        continue;
                    }
                    let _ = self
                        .dmb
                        .prefetch(now, cand, &mut self.dram, AccessPattern::Sequential);
                }
            }
        }
    }

    /// Loads one line through LSQ → DMB → DRAM; returns the cycle at which
    /// the data is available. Honours store-to-load forwarding when the
    /// configuration enables it. `pattern` describes how a resulting DRAM
    /// fill lands on the channel.
    pub fn load_line(&mut self, now: u64, addr: hymm_mem::LineAddr, pattern: AccessPattern) -> u64 {
        use hymm_mem::lsq::LoadPath;
        if self.config.lsq_forwarding {
            match self.lsq.load(now, addr) {
                LoadPath::Forwarded { ready } => ready,
                LoadPath::Issue { at } => {
                    let outcome = self.dmb.read(at, addr, &mut self.dram, pattern);
                    self.lsq.complete_load(addr, outcome.ready);
                    self.prefetch_after_load(at, addr, outcome.hit, pattern);
                    outcome.ready
                }
            }
        } else {
            let outcome = self.dmb.read(now, addr, &mut self.dram, pattern);
            self.prefetch_after_load(now, addr, outcome.hit, pattern);
            outcome.ready
        }
    }

    /// [`Machine::load_line`] that also reports whether the line was
    /// resident in the DMB when the request was presented (before any fill
    /// the load itself causes) — what a `dmb.contains` probe immediately
    /// before the load would have returned, without the extra lookup. A
    /// forwarded load never touches the DMB, so the read-only probe is
    /// still exact there.
    pub fn load_line_resident(
        &mut self,
        now: u64,
        addr: hymm_mem::LineAddr,
        pattern: AccessPattern,
    ) -> (u64, bool) {
        use hymm_mem::lsq::LoadPath;
        if self.config.lsq_forwarding {
            match self.lsq.load(now, addr) {
                LoadPath::Forwarded { ready } => (ready, self.dmb.contains(addr)),
                LoadPath::Issue { at } => {
                    let outcome = self.dmb.read(at, addr, &mut self.dram, pattern);
                    self.lsq.complete_load(addr, outcome.ready);
                    self.prefetch_after_load(at, addr, outcome.hit, pattern);
                    (outcome.ready, outcome.hit)
                }
            }
        } else {
            let outcome = self.dmb.read(now, addr, &mut self.dram, pattern);
            self.prefetch_after_load(now, addr, outcome.hit, pattern);
            (outcome.ready, outcome.hit)
        }
    }

    /// Stores one line through LSQ → DMB; `allocate` selects write-allocate
    /// versus streaming write-through. Returns the cycle at which the store
    /// is accepted.
    pub fn store_line(
        &mut self,
        now: u64,
        addr: hymm_mem::LineAddr,
        allocate: bool,
        pattern: AccessPattern,
    ) -> u64 {
        let drained = if self.config.lsq_forwarding {
            self.lsq.store(now, addr, now)
        } else {
            now
        };
        self.dmb
            .write(drained, addr, &mut self.dram, allocate, pattern)
            .ready
    }

    /// Records a finished phase, attributing the DMB hit and DRAM traffic
    /// counters accumulated since the previous phase boundary to it.
    pub fn record_phase(&mut self, name: &'static str, start: u64, end: u64, nnz: u64) {
        let hits_now = self.dmb.hit_stats();
        let dram_now = self.dram.stats().total().total_bytes();
        let delta = hymm_mem::stats::HitStats {
            read_hits: hits_now.read_hits - self.hit_snapshot.read_hits,
            read_misses: hits_now.read_misses - self.hit_snapshot.read_misses,
            write_hits: hits_now.write_hits - self.hit_snapshot.write_hits,
            write_misses: hits_now.write_misses - self.hit_snapshot.write_misses,
        };
        let counters = self.stall_counters();
        let prev = self.stall_snapshot;
        let stalls = StallBreakdown::attribute(
            end.saturating_sub(start),
            counters.mac - prev.mac,
            counters.merge - prev.merge,
            counters.dmb_miss - prev.dmb_miss,
            counters.prefetch_late - prev.prefetch_late,
            counters.dram_busy - prev.dram_busy,
            counters.lsq_stall - prev.lsq_stall,
            counters.smq_wait - prev.smq_wait,
        );
        self.phases.push(PhaseReport {
            name,
            start_cycle: start,
            end_cycle: end,
            nnz,
            dmb_hits: delta,
            dram_bytes: dram_now - self.dram_snapshot,
            stalls,
        });
        self.hit_snapshot = hits_now;
        self.dram_snapshot = dram_now;
        self.stall_snapshot = counters;
        if let Some(t) = self.trace.as_deref_mut() {
            t.push(TraceEvent {
                track: Track::Phase,
                kind: TraceKind::PhaseBegin { name },
                ts: start,
                dur: 0,
            });
            t.push(TraceEvent {
                track: Track::Phase,
                kind: TraceKind::PhaseEnd { name },
                ts: end,
                dur: 0,
            });
        }
        if self.config.audit {
            crate::audit::enforce(name, &crate::audit::check_machine(self));
        }
    }

    /// Flushes dirty output lines and snapshots every counter into a
    /// report; `total_cycles` is the caller's end-of-execution cycle.
    pub fn into_report(mut self, total_cycles: u64) -> SimReport {
        let audit = self.config.audit;
        if audit {
            crate::audit::enforce("into_report", &crate::audit::check_machine(&self));
        }
        // Final writeback of any dirty output still resident.
        let flushed = self
            .dmb
            .flush_kind(total_cycles, MatrixKind::Output, &mut self.dram);
        let cycles = flushed.max(total_cycles);
        // Report-level attribution: the per-phase breakdowns plus whatever
        // falls outside any phase window (drain tail, gaps) as idle.
        let mut stalls = StallBreakdown::default();
        for p in &self.phases {
            stalls.merge(&p.stalls);
        }
        stalls.idle += cycles.saturating_sub(stalls.total());
        // Collect every component's event ring into one flat trace. The DRAM
        // ring must drain before `into_stats` consumes the model below.
        let trace = if self.config.mem.trace {
            let mut data = TraceData::new();
            if let Some(t) = self.trace.as_deref_mut() {
                t.drain_into(&mut data);
            }
            data.events.append(&mut self.smq_trace.events);
            data.dropped += self.smq_trace.dropped;
            self.dmb.drain_trace(&mut data);
            self.lsq.drain_trace(&mut data);
            self.dram.drain_trace(&mut data);
            Some(Box::new(data))
        } else {
            None
        };
        let report = SimReport {
            cycles,
            mac_cycles: self.pe.mac_cycles(),
            merge_cycles: self.pe.merge_cycles(),
            mac_ops: self.pe.mac_ops(),
            merge_ops: self.pe.merge_ops(),
            mac_lane_ops: self.pe.mac_lane_ops(),
            dram: self.dram.into_stats(),
            dmb_hits: self.dmb.hit_stats(),
            dmb_evictions: self.dmb.evictions(),
            dmb_dirty_evictions: self.dmb.dirty_evictions(),
            accumulator_merges: self.dmb.accumulator_merges(),
            lsq: self.lsq.stats(),
            prefetch: self.dmb.prefetch_stats(),
            partials: self.partials,
            stalls,
            phases: self.phases,
            trace,
        };
        if audit {
            crate::audit::enforce("report", &crate::audit::check_report(&report));
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hymm_mem::LineAddr;

    fn machine() -> Machine {
        Machine::new(&AcceleratorConfig::default())
    }

    #[test]
    fn load_line_misses_then_hits() {
        let mut m = machine();
        let addr = LineAddr::new(MatrixKind::Combination, 7);
        let first = m.load_line(0, addr, AccessPattern::Random);
        assert!(first > 100); // DRAM round trip
        let second = m.load_line(first, addr, AccessPattern::Random);
        assert!(second < first + 10); // buffer hit
    }

    #[test]
    fn store_then_load_forwards() {
        let mut m = machine();
        let addr = LineAddr::new(MatrixKind::Combination, 3);
        m.store_line(0, addr, true, AccessPattern::Sequential);
        let ready = m.load_line(1, addr, AccessPattern::Random);
        assert!(ready <= 4, "forwarded load should be fast, got {ready}");
        assert_eq!(m.lsq.stats().forwards, 1);
    }

    #[test]
    fn forwarding_can_be_disabled() {
        let cfg = AcceleratorConfig {
            lsq_forwarding: false,
            ..AcceleratorConfig::default()
        };
        let mut m = Machine::new(&cfg);
        let addr = LineAddr::new(MatrixKind::Combination, 3);
        m.store_line(0, addr, true, AccessPattern::Sequential);
        let _ = m.load_line(1, addr, AccessPattern::Random);
        assert_eq!(m.lsq.stats().forwards, 0);
    }

    #[test]
    fn report_flushes_outputs() {
        let mut m = machine();
        let addr = LineAddr::new(MatrixKind::Output, 0);
        m.store_line(0, addr, true, AccessPattern::Sequential);
        let report = m.into_report(100);
        assert_eq!(report.dram.kind(MatrixKind::Output).writes, 1);
        assert!(report.cycles >= 100);
    }

    #[test]
    fn phases_are_recorded() {
        let mut m = machine();
        m.record_phase("combination", 0, 10, 4);
        let report = m.into_report(10);
        assert_eq!(report.phases.len(), 1);
        assert_eq!(report.phases[0].cycles(), 10);
    }

    #[test]
    fn phase_stalls_sum_to_phase_cycles() {
        let mut m = machine();
        let addr = LineAddr::new(MatrixKind::Combination, 1);
        let end = m.load_line(0, addr, AccessPattern::Random);
        m.record_phase("p", 0, end, 1);
        let p = &m.phases[0];
        assert_eq!(p.stalls.total(), p.cycles());
        assert!(p.stalls.dmb_miss > 0, "a cold miss must be attributed");
    }

    #[test]
    fn report_stalls_cover_cycles_outside_phases_as_idle() {
        let mut m = machine();
        m.record_phase("p", 0, 10, 1);
        let report = m.into_report(50);
        assert_eq!(report.stalls.total(), report.cycles);
        assert!(report.stalls.idle >= 40, "post-phase tail must be idle");
    }

    #[test]
    fn trace_collects_phase_and_component_events() {
        let mut cfg = AcceleratorConfig::default();
        cfg.mem.trace = true;
        let mut m = Machine::new(&cfg);
        let addr = LineAddr::new(MatrixKind::Combination, 2);
        let end = m.load_line(0, addr, AccessPattern::Random);
        m.record_phase("p", 0, end, 1);
        let report = m.into_report(end);
        let trace = report.trace.expect("tracing enabled");
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e.kind, TraceKind::PhaseBegin { name: "p" })));
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e.kind, TraceKind::PhaseEnd { name: "p" })));
        assert!(trace.events.iter().any(|e| e.track == Track::DmbRead));
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn tracing_off_yields_no_trace() {
        let mut m = machine();
        let addr = LineAddr::new(MatrixKind::Combination, 2);
        let end = m.load_line(0, addr, AccessPattern::Random);
        m.record_phase("p", 0, end, 1);
        assert!(m.into_report(end).trace.is_none());
    }

    #[test]
    fn next_line_prefetch_serves_sequential_demand() {
        let mut cfg = AcceleratorConfig::default();
        cfg.mem.prefetch = PrefetchPolicy::NextLine;
        cfg.mem.prefetch_degree = 2;
        let mut m = Machine::new(&cfg);
        let mut now = 0;
        for i in 0..8u64 {
            let addr = LineAddr::new(MatrixKind::Combination, i);
            now = m.load_line(now, addr, AccessPattern::Sequential).max(now) + 50;
        }
        let s = m.dmb.prefetch_stats();
        assert!(s.issued > 0, "sequential misses must trigger prefetches");
        assert!(s.useful > 0, "later demand must claim prefetched lines");
        let report = m.into_report(now);
        assert_eq!(report.prefetch, s);
    }

    #[test]
    fn late_prefetch_lands_in_its_own_stall_class() {
        let mut cfg = AcceleratorConfig::default();
        cfg.mem.prefetch = PrefetchPolicy::NextLine;
        cfg.mem.prefetch_degree = 1;
        cfg.audit = true;
        let mut m = Machine::new(&cfg);
        // Miss on line 0 prefetches line 1; demanding line 1 while the
        // speculative fill is still in flight waits on it.
        let first = m.load_line(
            0,
            LineAddr::new(MatrixKind::Combination, 0),
            AccessPattern::Sequential,
        );
        let second = m.load_line(
            5,
            LineAddr::new(MatrixKind::Combination, 1),
            AccessPattern::Sequential,
        );
        let second = second.max(first);
        m.record_phase("p", 0, second, 2);
        let p = &m.phases[0];
        assert_eq!(p.stalls.total(), p.cycles(), "waterfall still sums exactly");
        let s = m.dmb.prefetch_stats();
        assert_eq!((s.issued >= 1, s.useful, s.late), (true, 1, 1));
    }

    #[test]
    fn smq_stream_drains_engine_hints() {
        let mut cfg = AcceleratorConfig::default();
        cfg.mem.prefetch = PrefetchPolicy::SmqStream;
        cfg.mem.prefetch_degree = 2;
        let mut m = Machine::new(&cfg);
        assert!(m.wants_prefetch_hints());
        for i in 10..14u64 {
            m.push_prefetch_hint(LineAddr::new(MatrixKind::Combination, i));
        }
        // Each demand load drains up to `degree` hints into prefetches.
        let mut now = 0;
        for i in 0..2u64 {
            now = m
                .load_line(
                    now,
                    LineAddr::new(MatrixKind::Combination, i),
                    AccessPattern::Sequential,
                )
                .max(now)
                + 50;
        }
        let s = m.dmb.prefetch_stats();
        assert!(
            s.issued + s.dropped() >= 2,
            "hints must reach the prefetcher: {s:?}"
        );
        // The hinted lines are now resident (or in flight): demanding one is
        // a hit that claims it.
        let _ = m.load_line(
            now + 500,
            LineAddr::new(MatrixKind::Combination, 10),
            AccessPattern::Sequential,
        );
        assert!(m.dmb.prefetch_stats().useful >= 1);
    }

    #[test]
    fn hints_are_ignored_when_policy_is_off() {
        let mut m = machine();
        assert!(!m.wants_prefetch_hints());
        m.push_prefetch_hint(LineAddr::new(MatrixKind::Combination, 1));
        let end = m.load_line(
            0,
            LineAddr::new(MatrixKind::Combination, 0),
            AccessPattern::Sequential,
        );
        let report = m.into_report(end);
        assert_eq!(report.prefetch, hymm_mem::PrefetchStats::default());
    }

    #[test]
    fn absorb_smq_renumbers_streams_and_sums_waits() {
        use hymm_mem::smq::{SmqStream, SparseFormat};
        let mut cfg = AcceleratorConfig::default();
        cfg.mem.trace = true;
        let mut m = Machine::new(&cfg);
        for _ in 0..2 {
            let mut smq = SmqStream::new(&cfg.mem, MatrixKind::SparseA, SparseFormat::Csr, 3, 2);
            let mut now = 0;
            while let Some(e) = smq.next_entry(now, &mut m.dram) {
                now = now.max(e) + 1;
            }
            m.absorb_smq(&mut smq);
        }
        let report = m.into_report(100);
        let trace = report.trace.expect("tracing enabled");
        for id in [0u16, 1] {
            assert!(
                trace.events.iter().any(|e| e.track == Track::Smq(id)),
                "stream {id} missing from trace"
            );
        }
        assert!(!trace.events.iter().any(|e| e.track == Track::Smq(2)));
    }
}
