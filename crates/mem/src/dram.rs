//! Off-chip DRAM model: shared bandwidth, fixed access latency, and a
//! row-buffer penalty for random accesses.
//!
//! The paper assumes 64 GB/s of off-chip bandwidth (§IV). At the
//! accelerator's clock this becomes a per-cycle byte budget; requests are
//! served FIFO in arrival order, each occupying the channel for
//! `ceil(bytes / bytes_per_cycle)` cycles — plus a **random-access penalty**
//! for requests that do not stream (row-buffer misses: scattered 64-byte
//! reads/writes reach only a fraction of peak DRAM bandwidth). Reads
//! complete a fixed latency after their transfer finishes; writes are
//! posted. Every request carries a [`MatrixKind`] tag so the Fig. 11 access
//! breakdown is a free by-product.

use crate::address::MatrixKind;
use crate::config::MemConfig;
use crate::stats::TrafficStats;
use crate::trace::{TraceData, TraceEvent, TraceKind, TraceRing, Track};

/// Whether a DRAM request streams sequential addresses (row-buffer hits) or
/// scatters (row-buffer misses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Sequential/streaming: full bandwidth.
    Sequential,
    /// Scattered: pays the configured random-access penalty in channel
    /// occupancy.
    Random,
}

/// The off-chip memory: one or more independent channels sharing a request
/// stream; each request is placed on the earliest-free channel.
///
/// # Example
///
/// ```
/// use hymm_mem::dram::{AccessPattern, Dram};
/// use hymm_mem::{MatrixKind, MemConfig};
///
/// let config = MemConfig::default();
/// let mut dram = Dram::new(&config);
/// let ready = dram.read(0, MatrixKind::Weight, 64, AccessPattern::Sequential);
/// assert_eq!(ready, 1 + config.dram_latency); // 1 transfer cycle + latency
/// assert_eq!(dram.stats().kind(MatrixKind::Weight).read_bytes, 64);
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    bytes_per_cycle: u64,
    latency: u64,
    random_penalty: u64,
    channel_busy: Vec<u64>,
    busy_cycles: u64,
    stats: TrafficStats,
    trace: Option<Box<TraceRing>>,
}

impl Dram {
    /// Creates a DRAM channel from the memory configuration.
    pub fn new(config: &MemConfig) -> Dram {
        Dram {
            bytes_per_cycle: config.dram_bytes_per_cycle.max(1),
            latency: config.dram_latency,
            random_penalty: config.dram_random_penalty,
            channel_busy: vec![0; config.dram_channels.max(1)],
            busy_cycles: 0,
            stats: TrafficStats::new(),
            trace: config.trace_ring(),
        }
    }

    /// Issues a read of `bytes` tagged `kind` at cycle `now`; returns the
    /// completion cycle (data available).
    pub fn read(&mut self, now: u64, kind: MatrixKind, bytes: u64, pattern: AccessPattern) -> u64 {
        self.stats.record_read(kind, bytes);
        self.occupy(now, kind, bytes, pattern, false) + self.latency
    }

    /// Issues a write of `bytes` tagged `kind` at cycle `now`; returns the
    /// cycle at which the channel has accepted the data (writes are posted —
    /// the caller does not wait for the array update).
    pub fn write(&mut self, now: u64, kind: MatrixKind, bytes: u64, pattern: AccessPattern) -> u64 {
        self.stats.record_write(kind, bytes);
        self.occupy(now, kind, bytes, pattern, true)
    }

    fn occupy(
        &mut self,
        now: u64,
        kind: MatrixKind,
        bytes: u64,
        pattern: AccessPattern,
        is_write: bool,
    ) -> u64 {
        // Earliest-free channel (trivially channel 0 in the default
        // single-channel configuration — skip the scan there).
        let idx = if self.channel_busy.len() == 1 {
            0
        } else {
            self.channel_busy
                .iter()
                .enumerate()
                .min_by_key(|(_, &b)| b)
                .map(|(i, _)| i)
                .expect("at least one channel")
        };
        let start = now.max(self.channel_busy[idx]);
        let mut transfer = bytes.div_ceil(self.bytes_per_cycle);
        if pattern == AccessPattern::Random {
            transfer += self.random_penalty;
        }
        self.channel_busy[idx] = start + transfer;
        self.busy_cycles += transfer;
        if let Some(t) = self.trace.as_deref_mut() {
            t.push(TraceEvent {
                track: Track::DramChannel(idx as u16),
                kind: TraceKind::DramBusy {
                    kind,
                    bytes,
                    is_write,
                },
                ts: start,
                dur: transfer,
            });
        }
        self.channel_busy[idx]
    }

    /// Cycle up to which the busiest channel is occupied.
    pub fn busy_until(&self) -> u64 {
        self.channel_busy.iter().copied().max().unwrap_or(0)
    }

    /// Whether every channel is still busy at cycle `now` — a request issued
    /// now could not start immediately. The zero-slack special case of
    /// [`Dram::backlogged`].
    pub fn saturated(&self, now: u64) -> bool {
        self.backlogged(now, 0)
    }

    /// Whether every channel is still busy past `now + slack` — the request
    /// backlog is deep enough that a transfer issued now would wait more
    /// than `slack` cycles to even start. The prefetcher drops candidates
    /// in this state instead of queueing them behind demand traffic
    /// (ordinary pipelining behind one or two in-flight transfers is fine;
    /// a bandwidth-bound backlog is not).
    pub fn backlogged(&self, now: u64, slack: u64) -> bool {
        self.channel_busy.iter().all(|&b| b > now + slack)
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channel_busy.len()
    }

    /// Total channel-busy cycles accumulated across all channels (the
    /// bandwidth-bound component of the stall waterfall).
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Moves any buffered trace events into `into` (no-op when tracing is
    /// disabled).
    pub fn drain_trace(&mut self, into: &mut TraceData) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.drain_into(into);
        }
    }

    /// Accumulated traffic counters.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Consumes the model, yielding its traffic counters without a copy.
    pub fn into_stats(self) -> TrafficStats {
        self.stats
    }

    /// Fixed access latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(&MemConfig::default())
    }

    #[test]
    fn sequential_read_includes_latency_and_transfer() {
        let mut d = dram();
        // 64 bytes = 1 transfer cycle + 100 latency
        assert_eq!(
            d.read(0, MatrixKind::Weight, 64, AccessPattern::Sequential),
            101
        );
    }

    #[test]
    fn random_read_pays_penalty() {
        let mut d = dram();
        // 1 transfer + 2 penalty + 100 latency
        assert_eq!(
            d.read(0, MatrixKind::Weight, 64, AccessPattern::Random),
            103
        );
    }

    #[test]
    fn bandwidth_serialises_requests() {
        let mut d = dram();
        let a = d.read(0, MatrixKind::Weight, 64, AccessPattern::Sequential);
        let b = d.read(0, MatrixKind::Weight, 64, AccessPattern::Sequential);
        assert_eq!(a, 101);
        assert_eq!(b, 102); // second transfer waits for the channel
    }

    #[test]
    fn random_requests_consume_more_channel_time() {
        let mut seq = dram();
        let mut rnd = dram();
        for _ in 0..10 {
            seq.read(0, MatrixKind::Weight, 64, AccessPattern::Sequential);
            rnd.read(0, MatrixKind::Weight, 64, AccessPattern::Random);
        }
        assert_eq!(seq.busy_until(), 10);
        assert_eq!(rnd.busy_until(), 30);
    }

    #[test]
    fn idle_gap_is_not_accumulated() {
        let mut d = dram();
        let _ = d.read(0, MatrixKind::Weight, 64, AccessPattern::Sequential);
        let late = d.read(1000, MatrixKind::Weight, 64, AccessPattern::Sequential);
        assert_eq!(late, 1101);
    }

    #[test]
    fn large_request_occupies_many_cycles() {
        let mut d = dram();
        // 640 bytes = 10 transfer cycles
        assert_eq!(
            d.read(0, MatrixKind::Combination, 640, AccessPattern::Sequential),
            110
        );
    }

    #[test]
    fn writes_are_posted() {
        let mut d = dram();
        let done = d.write(0, MatrixKind::Output, 64, AccessPattern::Sequential);
        assert_eq!(done, 1); // no latency on the requester side
        assert_eq!(d.stats().kind(MatrixKind::Output).write_bytes, 64);
    }

    #[test]
    fn two_channels_serve_in_parallel() {
        let cfg = MemConfig {
            dram_channels: 2,
            ..MemConfig::default()
        };
        let mut d = Dram::new(&cfg);
        let a = d.read(0, MatrixKind::Weight, 64, AccessPattern::Sequential);
        let b = d.read(0, MatrixKind::Weight, 64, AccessPattern::Sequential);
        assert_eq!(a, 101);
        assert_eq!(b, 101); // second request lands on the free channel
        let c = d.read(0, MatrixKind::Weight, 64, AccessPattern::Sequential);
        assert_eq!(c, 102); // third queues behind one of them
        assert_eq!(d.channels(), 2);
    }

    #[test]
    fn saturated_tracks_channel_occupancy() {
        let mut d = dram();
        assert!(!d.saturated(0), "idle channel is not saturated");
        // 640 bytes occupy the single channel for cycles 0..10.
        d.read(0, MatrixKind::Weight, 640, AccessPattern::Sequential);
        assert!(d.saturated(0));
        assert!(d.saturated(9));
        assert!(!d.saturated(10), "free again once the transfer ends");

        let cfg = MemConfig {
            dram_channels: 2,
            ..MemConfig::default()
        };
        let mut d2 = Dram::new(&cfg);
        d2.read(0, MatrixKind::Weight, 640, AccessPattern::Sequential);
        assert!(!d2.saturated(0), "one free channel means not saturated");
        d2.read(0, MatrixKind::Weight, 640, AccessPattern::Sequential);
        assert!(d2.saturated(0));
    }

    #[test]
    fn backlogged_applies_slack_to_every_channel() {
        let mut d = dram();
        // Channel busy for cycles 0..10: a 5-cycle horizon sees a backlog,
        // a 20-cycle horizon does not.
        d.read(0, MatrixKind::Weight, 640, AccessPattern::Sequential);
        assert!(d.backlogged(0, 5));
        assert!(!d.backlogged(0, 20));
        assert!(!d.backlogged(9, 5));
    }

    #[test]
    fn busy_cycles_accumulate_transfer_time() {
        let mut d = dram();
        d.read(0, MatrixKind::Weight, 64, AccessPattern::Sequential); // 1
        d.read(0, MatrixKind::Weight, 64, AccessPattern::Random); // 3
        d.write(0, MatrixKind::Output, 640, AccessPattern::Sequential); // 10
        assert_eq!(d.busy_cycles(), 14);
    }

    #[test]
    fn reads_pick_the_earliest_free_channel() {
        let cfg = MemConfig {
            dram_channels: 2,
            ..MemConfig::default()
        };
        let mut d = Dram::new(&cfg);
        let lat = cfg.dram_latency;
        // First transfer lands on channel 0 (busy 0..10), second on the
        // idle channel 1 (0..1), third on channel 1 again because it frees
        // first (1..3). Channel 0 would have finished it at 12, not 3.
        let ready = [
            d.read(0, MatrixKind::Weight, 640, AccessPattern::Sequential),
            d.read(0, MatrixKind::Weight, 64, AccessPattern::Sequential),
            d.read(0, MatrixKind::Weight, 128, AccessPattern::Sequential),
        ];
        assert_eq!(ready, [10 + lat, 1 + lat, 3 + lat]);
        assert_eq!(d.busy_until(), 10);
        assert_eq!(d.busy_cycles(), 13);
    }

    #[test]
    fn trace_records_channel_intervals() {
        use crate::trace::{TraceData, TraceKind, Track};
        let cfg = MemConfig {
            trace: true,
            ..MemConfig::default()
        };
        let mut d = Dram::new(&cfg);
        d.read(0, MatrixKind::Weight, 64, AccessPattern::Sequential);
        d.write(5, MatrixKind::Output, 64, AccessPattern::Random);
        let mut data = TraceData::new();
        d.drain_trace(&mut data);
        assert_eq!(data.events.len(), 2);
        assert!(data.events.iter().all(|e| e.track == Track::DramChannel(0)));
        assert_eq!((data.events[0].ts, data.events[0].dur), (0, 1));
        assert_eq!((data.events[1].ts, data.events[1].dur), (5, 3));
        match data.events[1].kind {
            TraceKind::DramBusy {
                kind,
                bytes,
                is_write,
            } => {
                assert_eq!(kind, MatrixKind::Output);
                assert_eq!(bytes, 64);
                assert!(is_write);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn traffic_is_tagged_by_kind() {
        let mut d = dram();
        d.read(0, MatrixKind::SparseA, 64, AccessPattern::Sequential);
        d.read(0, MatrixKind::Combination, 128, AccessPattern::Random);
        d.write(0, MatrixKind::Output, 64, AccessPattern::Random);
        assert_eq!(d.stats().kind(MatrixKind::SparseA).read_bytes, 64);
        assert_eq!(d.stats().kind(MatrixKind::Combination).read_bytes, 128);
        assert_eq!(d.stats().kind(MatrixKind::Output).write_bytes, 64);
        assert_eq!(d.stats().kind(MatrixKind::Weight).total_bytes(), 0);
    }
}
