//! Memory-subsystem configuration.

use crate::prefetch::PrefetchPolicy;
use hymm_sparse::SparseError;

/// Configuration of the off-chip memory and all on-chip buffers, defaulting
/// to the paper's Table III parameters at a 1 GHz accelerator clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemConfig {
    /// Off-chip bandwidth in bytes per cycle. The paper assumes 64 GB/s; at
    /// 1 GHz that is 64 B per cycle.
    pub dram_bytes_per_cycle: u64,
    /// Fixed off-chip access latency in cycles.
    pub dram_latency: u64,
    /// Extra channel-occupancy cycles charged per **random** (non-streaming)
    /// DRAM request, modelling row-buffer misses: scattered 64-byte accesses
    /// achieve only a fraction of the peak streaming bandwidth.
    pub dram_random_penalty: u64,
    /// Number of independent DRAM channels (extension; the paper assumes a
    /// single 64 GB/s channel). Each channel provides `dram_bytes_per_cycle`
    /// of bandwidth; requests are placed on the earliest-free channel.
    pub dram_channels: usize,
    /// Dense matrix buffer capacity in bytes (256 KB in Table III).
    pub dmb_bytes: usize,
    /// Line size in bytes (the 64-byte vector format of §IV).
    pub line_bytes: usize,
    /// Number of miss status holding registers in the DMB.
    pub mshr_count: usize,
    /// DMB hit latency in cycles.
    pub dmb_hit_latency: u64,
    /// Load/store queue entries (128 in Table III).
    pub lsq_entries: usize,
    /// SMQ pointer buffer capacity in bytes (4 KB in Table III).
    pub smq_ptr_bytes: usize,
    /// SMQ index buffer capacity in bytes (12 KB in Table III).
    pub smq_idx_bytes: usize,
    /// **Index-stream lookahead**: lines of the sparse pointer/index/value
    /// stream the SMQ fetches ahead of consumption (bounded by the index
    /// buffer; kept small so the stream does not monopolise DRAM
    /// bandwidth). This is *not* the data prefetcher — dense-line
    /// prefetching into the DMB is controlled by [`MemConfig::prefetch`].
    pub smq_lookahead_lines: usize,
    /// Data-prefetch policy on the DMB miss path (see
    /// [`crate::prefetch`]). `Off` by default; the disabled path is
    /// bit-identical to a build without the subsystem.
    pub prefetch: PrefetchPolicy,
    /// Prefetch degree: lines issued per demand-miss trigger (`next-line`)
    /// or SMQ hints drained per demand load (`smq-stream`).
    pub prefetch_degree: usize,
    /// Maximum MSHRs prefetches may hold concurrently. Kept below
    /// [`MemConfig::mshr_count`] so demand misses are never starved.
    pub prefetch_mshr_cap: usize,
    /// Use HyMM's class-ordered eviction (W first, then XW, retain AXW —
    /// paper §IV-D). When `false` the DMB falls back to plain global LRU,
    /// the ablation baseline.
    pub class_eviction: bool,
    /// Record structured trace events (see [`crate::trace`]). Off by
    /// default; the disabled path is cycle- and allocation-identical to a
    /// build without tracing.
    pub trace: bool,
    /// Per-component event-ring capacity when tracing is on. Oldest events
    /// are dropped (and counted) once a ring fills.
    pub trace_capacity: usize,
}

/// Largest accepted [`MemConfig::prefetch_degree`]. The `next-line`
/// prefetcher issues one candidate per step on every demand miss, so an
/// unbounded degree stalls the simulation; 64 matches the engines' hint
/// queue depth and is far above any preset, DSE point or sweep (at most 8).
pub const MAX_PREFETCH_DEGREE: usize = 64;

/// Largest accepted [`MemConfig::dmb_bytes`] (64 MiB). The line table is
/// sized up front from the capacity, so an unbounded value is an unbounded
/// allocation; the DSE space tops out at 1 MiB.
pub const MAX_DMB_BYTES: usize = 64 << 20;

/// Largest accepted [`MemConfig::mshr_count`]. The DMB sizes its MSHR queue
/// and line table from it up front; presets and the DSE space use at most 64.
pub const MAX_MSHRS: usize = 1024;

/// Largest accepted [`MemConfig::lsq_entries`]. The LSQ is sized up front
/// from it; presets and the DSE space use at most 256.
pub const MAX_LSQ_ENTRIES: usize = 4096;

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            dram_bytes_per_cycle: 64,
            dram_latency: 100,
            dram_random_penalty: 2,
            dram_channels: 1,
            dmb_bytes: 256 * 1024,
            line_bytes: 64,
            mshr_count: 32,
            dmb_hit_latency: 2,
            lsq_entries: 128,
            smq_ptr_bytes: 4 * 1024,
            smq_idx_bytes: 12 * 1024,
            smq_lookahead_lines: 32,
            prefetch: PrefetchPolicy::Off,
            prefetch_degree: 2,
            prefetch_mshr_cap: 8,
            class_eviction: true,
            trace: false,
            trace_capacity: 1 << 20,
        }
    }
}

impl MemConfig {
    /// Validates the memory-side parameters, returning
    /// [`SparseError::InvalidConfig`] for values that would otherwise panic
    /// deep inside construction or silently corrupt the line math:
    ///
    /// - `line_bytes == 0` (every capacity below divides by it);
    /// - `dmb_bytes` zero or not a multiple of `line_bytes` (the line table
    ///   is sized in whole lines — a ragged buffer would silently truncate);
    /// - `mshr_count == 0` (the DMB cannot admit a single miss);
    /// - `lsq_entries == 0` (no load could ever be queued);
    /// - `dmb_bytes`, `mshr_count` or `lsq_entries` above [`MAX_DMB_BYTES`],
    ///   [`MAX_MSHRS`] or [`MAX_LSQ_ENTRIES`] (each sizes an allocation made
    ///   before the first cycle);
    /// - `prefetch_mshr_cap >= mshr_count` (the demand-priority contract
    ///   reserves at least one MSHR for demand misses; the DMB used to clamp
    ///   this silently, which configuration generators cannot observe);
    /// - `prefetch_degree > MAX_PREFETCH_DEGREE` (each demand miss would
    ///   loop that many times).
    ///
    /// Config generators — the DSE in particular — rely on this instead of
    /// re-checking knob combinations themselves.
    pub fn validate(&self) -> Result<(), SparseError> {
        if self.line_bytes == 0 {
            return Err(SparseError::InvalidConfig(
                "line_bytes must be at least 1".to_string(),
            ));
        }
        if self.dmb_bytes == 0 || !self.dmb_bytes.is_multiple_of(self.line_bytes) {
            return Err(SparseError::InvalidConfig(format!(
                "dmb_bytes must be a positive multiple of line_bytes ({}), got {}",
                self.line_bytes, self.dmb_bytes
            )));
        }
        if self.dmb_bytes > MAX_DMB_BYTES {
            return Err(SparseError::InvalidConfig(format!(
                "dmb_bytes must be at most {MAX_DMB_BYTES}, got {}",
                self.dmb_bytes
            )));
        }
        if !(1..=MAX_MSHRS).contains(&self.mshr_count) {
            return Err(SparseError::InvalidConfig(format!(
                "mshr_count must be in 1..={MAX_MSHRS}, got {}",
                self.mshr_count
            )));
        }
        if !(1..=MAX_LSQ_ENTRIES).contains(&self.lsq_entries) {
            return Err(SparseError::InvalidConfig(format!(
                "lsq_entries must be in 1..={MAX_LSQ_ENTRIES}, got {}",
                self.lsq_entries
            )));
        }
        if self.prefetch_mshr_cap >= self.mshr_count {
            return Err(SparseError::InvalidConfig(format!(
                "prefetch_mshr_cap ({}) must leave at least one of the {} MSHRs for demand misses",
                self.prefetch_mshr_cap, self.mshr_count
            )));
        }
        if self.prefetch_degree > MAX_PREFETCH_DEGREE {
            return Err(SparseError::InvalidConfig(format!(
                "prefetch_degree must be at most {MAX_PREFETCH_DEGREE}, got {}",
                self.prefetch_degree
            )));
        }
        Ok(())
    }

    /// Number of 64-byte lines the DMB can hold.
    pub fn dmb_lines(&self) -> usize {
        self.dmb_bytes / self.line_bytes
    }

    /// `f32` elements per line.
    pub fn elems_per_line(&self) -> usize {
        self.line_bytes / 4
    }

    /// Lines needed to hold one dense row of `dim` `f32` elements.
    pub fn lines_per_row(&self, dim: usize) -> usize {
        dim.div_ceil(self.elems_per_line())
    }

    /// A fresh event ring when tracing is enabled, `None` otherwise — the
    /// shape every component stores (`Option<Box<_>>` keeps the disabled
    /// path to a single pointer-null test).
    pub fn trace_ring(&self) -> Option<Box<crate::trace::TraceRing>> {
        self.trace
            .then(|| Box::new(crate::trace::TraceRing::new(self.trace_capacity)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_three() {
        let c = MemConfig::default();
        assert_eq!(c.dmb_bytes, 262_144);
        assert_eq!(c.dmb_lines(), 4096);
        assert_eq!(c.lsq_entries, 128);
        assert_eq!(c.smq_ptr_bytes + c.smq_idx_bytes, 16 * 1024);
        assert_eq!(c.dram_bytes_per_cycle, 64);
    }

    #[test]
    fn prefetch_defaults_off_and_capped() {
        let c = MemConfig::default();
        assert!(c.prefetch.is_off());
        assert!(c.prefetch_degree >= 1);
        assert!(
            c.prefetch_mshr_cap < c.mshr_count,
            "the prefetch cap must leave MSHRs for demand misses"
        );
    }

    #[test]
    fn default_config_validates() {
        assert!(MemConfig::default().validate().is_ok());
    }

    #[test]
    fn rejects_ragged_or_zero_dmb() {
        for (dmb, line) in [(0usize, 64usize), (100, 64), (256, 0)] {
            let c = MemConfig {
                dmb_bytes: dmb,
                line_bytes: line,
                ..MemConfig::default()
            };
            match c.validate() {
                Err(SparseError::InvalidConfig(msg)) => {
                    assert!(
                        msg.contains("dmb_bytes") || msg.contains("line_bytes"),
                        "msg: {msg}"
                    )
                }
                other => panic!("expected InvalidConfig for dmb={dmb} line={line}, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_zero_mshrs_and_lsq_entries() {
        for (mshr, lsq, want) in [(0usize, 128usize, "mshr_count"), (32, 0, "lsq_entries")] {
            let c = MemConfig {
                mshr_count: mshr,
                lsq_entries: lsq,
                ..MemConfig::default()
            };
            match c.validate() {
                Err(SparseError::InvalidConfig(msg)) => assert!(msg.contains(want), "msg: {msg}"),
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn sizing_knobs_are_bounded_above() {
        let at_max = MemConfig {
            dmb_bytes: MAX_DMB_BYTES,
            mshr_count: MAX_MSHRS,
            lsq_entries: MAX_LSQ_ENTRIES,
            ..MemConfig::default()
        };
        assert!(at_max.validate().is_ok());
        for (past, want) in [
            (
                MemConfig {
                    dmb_bytes: MAX_DMB_BYTES + 64,
                    ..at_max
                },
                "dmb_bytes",
            ),
            (
                MemConfig {
                    mshr_count: MAX_MSHRS + 1,
                    ..at_max
                },
                "mshr_count",
            ),
            (
                MemConfig {
                    lsq_entries: MAX_LSQ_ENTRIES + 1,
                    ..at_max
                },
                "lsq_entries",
            ),
        ] {
            match past.validate() {
                Err(SparseError::InvalidConfig(msg)) => assert!(msg.contains(want), "msg: {msg}"),
                other => panic!("expected InvalidConfig naming {want}, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_prefetch_cap_that_starves_demand() {
        // cap == mshr_count and cap > mshr_count both leave no demand MSHR.
        for cap in [4usize, 9] {
            let c = MemConfig {
                mshr_count: 4,
                prefetch_mshr_cap: cap,
                ..MemConfig::default()
            };
            match c.validate() {
                Err(SparseError::InvalidConfig(msg)) => {
                    assert!(msg.contains("prefetch_mshr_cap"), "msg: {msg}")
                }
                other => panic!("expected InvalidConfig for cap {cap}, got {other:?}"),
            }
        }
        // cap strictly below the MSHR count is fine, including zero (which
        // simply disables speculative occupancy).
        for cap in [0usize, 3] {
            let c = MemConfig {
                mshr_count: 4,
                prefetch_mshr_cap: cap,
                ..MemConfig::default()
            };
            assert!(c.validate().is_ok(), "cap {cap} should validate");
        }
    }

    #[test]
    fn lines_per_row_rounds_up() {
        let c = MemConfig::default();
        assert_eq!(c.elems_per_line(), 16);
        assert_eq!(c.lines_per_row(16), 1);
        assert_eq!(c.lines_per_row(17), 2);
        assert_eq!(c.lines_per_row(1), 1);
    }
}
