//! Accelerator configuration.

use hymm_mem::MemConfig;
use hymm_sparse::SparseError;

/// Which SpDeMM dataflow the accelerator runs (paper §V: "The RWP dataflow
/// represents GROW, and the OP architecture represents GCNAX").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataflow {
    /// Pure row-wise product on the unsorted graph (GROW-style baseline).
    RowWise,
    /// Pure outer product on the unsorted graph (GCNAX-style baseline).
    Outer,
    /// HyMM: degree sorting + region tiling, OP on region 1, RWP on
    /// regions 2/3, near-memory accumulator.
    Hybrid,
    /// Pure column-wise product (AWB-GCN-style; Table I's fourth family —
    /// an extension, not part of the paper's evaluation).
    ColumnWise,
}

impl Dataflow {
    /// All dataflows in the paper's comparison order.
    pub const ALL: [Dataflow; 3] = [Dataflow::Outer, Dataflow::RowWise, Dataflow::Hybrid];

    /// The paper's three dataflows plus the column-wise-product extension.
    pub const EXTENDED: [Dataflow; 4] = [
        Dataflow::Outer,
        Dataflow::ColumnWise,
        Dataflow::RowWise,
        Dataflow::Hybrid,
    ];

    /// Label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            Dataflow::RowWise => "RWP",
            Dataflow::Outer => "OP",
            Dataflow::Hybrid => "HyMM",
            Dataflow::ColumnWise => "CWP",
        }
    }

    /// Parses a table label (case-insensitive). The inverse of
    /// [`Dataflow::label`].
    pub fn parse(s: &str) -> Option<Dataflow> {
        Dataflow::EXTENDED
            .into_iter()
            .find(|d| d.label().eq_ignore_ascii_case(s))
    }
}

/// Folds pre-hashed words into one FNV-1a digest, tagged by position.
///
/// The composition half of the content-hash scheme: subsystems hash their
/// own state ([`AcceleratorConfig::content_hash`] for the architectural
/// knobs, `DatasetSpec::content_hash` in `hymm-graph` for the workload) and
/// callers that need a joint key — such as the `hymm-serve` request
/// dedupe/cache — combine the digests with this instead of inventing
/// another mixing function. Word order matters.
pub fn combine_hashes(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut byte = |b: u8| {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    };
    for (i, w) in words.iter().enumerate() {
        byte(i as u8);
        for b in w.to_le_bytes() {
            byte(b);
        }
    }
    h
}

/// How partial outputs produced by the outer product are merged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MergePolicy {
    /// HyMM's near-memory accumulator beside the DMB: a write hit merges in
    /// place without occupying a PE (paper §IV-D "Write with accumulation").
    NearMemory,
    /// Conventional read-modify-write through the PE adder: each merge
    /// costs a buffer read, a PE add and a write back (baseline OP engines).
    PeReadModifyWrite,
    /// No merging on the fly: partial products are materialised to a log
    /// and merged in a separate pass (traditional outer-product
    /// implementations, the "without accumulator" series of Fig. 10).
    Materialize,
}

/// Largest accepted [`AcceleratorConfig::num_pes`]. Lane counts multiply
/// into the PE array's lane-operation counter, which would wrap silently in
/// a release build; 1024 is far above any preset, DSE point or sweep (at
/// most 32).
pub const MAX_PE_LANES: usize = 1024;

/// Largest accepted [`AcceleratorConfig::mac_latency`] in cycles. The
/// latency multiplies into the PE array's busy-cycle counters, which would
/// wrap silently in a release build; 256 is far above any preset, DSE point
/// or sweep (at most 4).
pub const MAX_MAC_LATENCY: u64 = 256;

/// Full accelerator configuration, defaulting to the paper's Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorConfig {
    /// Memory subsystem parameters.
    pub mem: MemConfig,
    /// Number of MAC lanes in the PE array (16 in Table III). One
    /// scalar-vector operation uses all lanes for one cycle per 64-byte
    /// chunk.
    pub num_pes: usize,
    /// Merge policy for the hybrid dataflow's OP phase.
    pub hybrid_merge: MergePolicy,
    /// Merge policy for the pure-OP baseline.
    pub baseline_merge: MergePolicy,
    /// Maximum loads outstanding ahead of the PE (memory-level-parallelism
    /// window; bounded by the LSQ in hardware).
    pub mlp_window: usize,
    /// Output-row tile size for the OP engine, in rows. `None` derives it
    /// from the DMB capacity (half the buffer for outputs, as GCNAX-style
    /// loop tiling does).
    pub op_tile_rows: Option<usize>,
    /// Tiling threshold as a fraction of nodes for the hybrid dataflow
    /// (20 % in the paper, clamped to what the DMB can hold).
    pub tiling_fraction: f64,
    /// Whether the LSQ forwards combination-phase stores to
    /// aggregation-phase loads (paper §IV-B). Disable for ablation.
    pub lsq_forwarding: bool,
    /// MAC latency in cycles from issue to result (1 in Table III). With
    /// [`Self::mac_pipelined`] the issue port still accepts one operation
    /// per cycle; without it the initiation interval equals the latency.
    pub mac_latency: u64,
    /// Whether the MAC pipeline accepts a new issue every cycle regardless
    /// of latency (initiation interval 1). Irrelevant at `mac_latency == 1`.
    pub mac_pipelined: bool,
    /// Per-lane operand gating à la FlexVector's flexible VRF: a row
    /// shorter than the vector width charges only the occupied lanes'
    /// energy, and the engines may pack several short rows into one issue
    /// slot (each issue stays slot-granular). Under gating the CWP
    /// extension's lane efficiency becomes a derived quantity instead of
    /// [`Self::cwp_lane_efficiency`].
    pub lane_gating: bool,
    /// Useful fraction of MAC lanes per cycle for the column-wise-product
    /// extension (models AWB-GCN's row imbalance before rebalancing).
    pub cwp_lane_efficiency: f64,
    /// Run the `crate::audit` invariant checks at every phase boundary and
    /// at report time, panicking on any violation. Observation-only: timing
    /// and statistics are identical with the flag on or off.
    pub audit: bool,
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        AcceleratorConfig {
            mem: MemConfig::default(),
            num_pes: 16,
            hybrid_merge: MergePolicy::NearMemory,
            baseline_merge: MergePolicy::Materialize,
            mlp_window: 64,
            op_tile_rows: None,
            tiling_fraction: 0.20,
            lsq_forwarding: true,
            mac_latency: 1,
            mac_pipelined: false,
            lane_gating: false,
            cwp_lane_efficiency: 0.8,
            audit: false,
        }
    }
}

impl AcceleratorConfig {
    /// Validates the configuration, returning
    /// [`SparseError::InvalidConfig`] for values that would otherwise panic
    /// deep inside construction (`num_pes == 0` in `PeArray`), silently
    /// wrap cycle counters (`num_pes` above [`MAX_PE_LANES`], `mac_latency`
    /// above [`MAX_MAC_LATENCY`]) or corrupt utilisation math (a NaN,
    /// non-positive or >1 CWP lane efficiency), and a `tiling_fraction`
    /// outside `[0, 1]` that the tiling would silently clamp or, for NaN,
    /// refuse only once a hybrid run starts. The memory side is
    /// delegated to [`MemConfig::validate`] (line-granular DMB capacity,
    /// non-zero MSHR/LSQ, demand-priority prefetch cap, bounded prefetch
    /// degree). Called by [`crate::sim::run_gcn_layer_prepared`]
    /// before any hardware state is built; configuration generators — the
    /// DSE in particular — rely on it instead of re-checking knob
    /// combinations themselves.
    pub fn validate(&self) -> Result<(), SparseError> {
        self.mem.validate()?;
        if self.num_pes == 0 {
            return Err(SparseError::InvalidConfig(
                "num_pes must be at least 1".to_string(),
            ));
        }
        if self.num_pes > MAX_PE_LANES {
            return Err(SparseError::InvalidConfig(format!(
                "num_pes (MAC lanes) must be at most {MAX_PE_LANES}, got {}",
                self.num_pes
            )));
        }
        if self.mac_latency == 0 {
            return Err(SparseError::InvalidConfig(
                "mac_latency must be at least 1 cycle".to_string(),
            ));
        }
        if self.mac_latency > MAX_MAC_LATENCY {
            return Err(SparseError::InvalidConfig(format!(
                "mac_latency must be at most {MAX_MAC_LATENCY} cycles, got {}",
                self.mac_latency
            )));
        }
        let e = self.cwp_lane_efficiency;
        if !e.is_finite() || e <= 0.0 || e > 1.0 {
            return Err(SparseError::InvalidConfig(format!(
                "cwp_lane_efficiency must be a finite value in (0, 1], got {e}"
            )));
        }
        if !(0.0..=1.0).contains(&self.tiling_fraction) {
            return Err(SparseError::InvalidConfig(format!(
                "tiling_fraction must be in [0, 1], got {}",
                self.tiling_fraction
            )));
        }
        Ok(())
    }

    /// MAC initiation interval implied by the latency/pipelining knobs:
    /// cycles between back-to-back issues on the vector port.
    pub fn mac_initiation_interval(&self) -> u64 {
        if self.mac_pipelined {
            1
        } else {
            self.mac_latency.max(1)
        }
    }

    /// Effective OP output-tile size in rows.
    pub fn op_tile_rows(&self) -> usize {
        self.op_tile_rows
            .unwrap_or_else(|| (self.mem.dmb_lines() / 2).max(1))
    }

    /// Rows of a `dim`-wide dense matrix the DMB can hold (used to clamp
    /// the hybrid tiling threshold, paper §IV-E).
    pub fn dmb_capacity_rows(&self, dim: usize) -> usize {
        (self.mem.dmb_lines() / self.mem.lines_per_row(dim)).max(1)
    }

    /// Output rows per CWP tile: one output-column slice (4 B per row) must
    /// fit in half the DMB.
    pub fn cwp_tile_rows(&self) -> usize {
        (self.mem.dmb_bytes / 8).max(self.mem.elems_per_line())
    }

    /// Stable 64-bit content hash of every **architecturally visible** knob
    /// — the identity the DSE memoises evaluations by.
    ///
    /// Host-observability knobs are deliberately excluded: `audit`,
    /// `mem.trace` and `mem.trace_capacity` are pinned
    /// cycle-identical by the audit and trace tests, so two
    /// configs differing only there produce the same [`crate::stats::SimReport`]
    /// and may legitimately share a memo entry. Everything that can move a
    /// cycle or a byte is folded in (floats by IEEE bit pattern, enums by
    /// label), with a per-field tag so field reordering or a new knob
    /// cannot silently collide.
    pub fn content_hash(&self) -> u64 {
        // FNV-1a, 64-bit: tiny, dependency-free, stable across platforms.
        struct Fnv(u64);
        impl Fnv {
            fn byte(&mut self, b: u8) {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
            fn word(&mut self, tag: u8, v: u64) {
                self.byte(tag);
                for b in v.to_le_bytes() {
                    self.byte(b);
                }
            }
        }
        let mut f = Fnv(0xcbf2_9ce4_8422_2325);
        let m = &self.mem;
        f.word(0x01, m.dram_bytes_per_cycle);
        f.word(0x02, m.dram_latency);
        f.word(0x03, m.dram_random_penalty);
        f.word(0x04, m.dram_channels as u64);
        f.word(0x05, m.dmb_bytes as u64);
        f.word(0x06, m.line_bytes as u64);
        f.word(0x07, m.mshr_count as u64);
        f.word(0x08, m.dmb_hit_latency);
        f.word(0x09, m.lsq_entries as u64);
        f.word(0x0a, m.smq_ptr_bytes as u64);
        f.word(0x0b, m.smq_idx_bytes as u64);
        f.word(0x0c, m.smq_lookahead_lines as u64);
        f.word(0x0d, m.prefetch.label().len() as u64);
        for b in m.prefetch.label().bytes() {
            f.byte(b);
        }
        f.word(0x0e, m.prefetch_degree as u64);
        f.word(0x0f, m.prefetch_mshr_cap as u64);
        f.word(0x10, m.class_eviction as u64);
        f.word(0x20, self.num_pes as u64);
        let merge_tag = |p: MergePolicy| match p {
            MergePolicy::NearMemory => 0u64,
            MergePolicy::PeReadModifyWrite => 1,
            MergePolicy::Materialize => 2,
        };
        f.word(0x21, merge_tag(self.hybrid_merge));
        f.word(0x22, merge_tag(self.baseline_merge));
        f.word(0x23, self.mlp_window as u64);
        f.word(0x24, self.op_tile_rows.map_or(u64::MAX, |r| r as u64));
        f.word(0x25, self.tiling_fraction.to_bits());
        f.word(0x26, self.lsq_forwarding as u64);
        f.word(0x27, self.mac_latency);
        f.word(0x28, self.mac_pipelined as u64);
        f.word(0x29, self.lane_gating as u64);
        f.word(0x2a, self.cwp_lane_efficiency.to_bits());
        f.0
    }
}

/// Named configuration presets applied by the bench binaries' `--preset`
/// flag before any individual knob override.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Preset {
    /// The paper's Table III configuration — [`AcceleratorConfig::default`],
    /// untouched.
    Default,
    /// The best iso-area-budget configuration found by the `dse` binary
    /// (stall-guided search over the 972-point default space, ≤2× the
    /// Table III total area at 7 nm; CR+AP at `--scale 600`): 32 gated MAC
    /// lanes (FlexVector-style flexible VRF, 2 short rows per issue slot at
    /// the suite's uniform layer width of 16), a 512 KB DMB with 64 MSHRs,
    /// smq-stream data prefetching at degree 4, and a 0.10 hybrid tiling
    /// fraction. Measured at the search's reference point: 1.09× combined
    /// three-dataflow speedup over Table III (OP 1.11×) at 1.80× area. See
    /// DESIGN.md §13 for the search and the full before/after.
    Tuned,
}

impl Preset {
    /// Every preset, in `--help` order.
    pub const ALL: [Preset; 2] = [Preset::Default, Preset::Tuned];

    /// Label used by `--preset` and experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            Preset::Default => "default",
            Preset::Tuned => "tuned",
        }
    }

    /// Parses a `--preset` argument value.
    pub fn parse(s: &str) -> Option<Preset> {
        Preset::ALL.into_iter().find(|p| p.label() == s)
    }

    /// Applies the preset onto a configuration (the `Default` preset is a
    /// no-op, so flags layered on top always see Table III as the base).
    pub fn apply(&self, config: &mut AcceleratorConfig) {
        match self {
            Preset::Default => {}
            Preset::Tuned => {
                config.num_pes = 32;
                config.lane_gating = true;
                config.mem.dmb_bytes = 512 * 1024;
                config.mem.mshr_count = 64;
                config.mem.prefetch = hymm_mem::PrefetchPolicy::SmqStream;
                config.mem.prefetch_degree = 4;
                config.tiling_fraction = 0.10;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = AcceleratorConfig::default();
        assert_eq!(c.num_pes, 16);
        assert_eq!(c.tiling_fraction, 0.20);
        assert_eq!(c.hybrid_merge, MergePolicy::NearMemory);
        assert_eq!(c.op_tile_rows(), 2048);
    }

    #[test]
    fn dmb_capacity_rows_for_layer_dim() {
        let c = AcceleratorConfig::default();
        assert_eq!(c.dmb_capacity_rows(16), 4096);
        assert_eq!(c.dmb_capacity_rows(32), 2048);
    }

    #[test]
    fn default_config_validates() {
        assert!(AcceleratorConfig::default().validate().is_ok());
    }

    #[test]
    fn rejects_zero_pes() {
        let c = AcceleratorConfig {
            num_pes: 0,
            ..AcceleratorConfig::default()
        };
        match c.validate() {
            Err(SparseError::InvalidConfig(msg)) => assert!(msg.contains("num_pes")),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn rejects_zero_mac_latency() {
        let c = AcceleratorConfig {
            mac_latency: 0,
            ..AcceleratorConfig::default()
        };
        match c.validate() {
            Err(SparseError::InvalidConfig(msg)) => assert!(msg.contains("mac_latency")),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_cwp_lane_efficiency() {
        for bad in [f64::NAN, f64::INFINITY, 0.0, -0.3, 1.5] {
            let c = AcceleratorConfig {
                cwp_lane_efficiency: bad,
                ..AcceleratorConfig::default()
            };
            match c.validate() {
                Err(SparseError::InvalidConfig(msg)) => {
                    assert!(msg.contains("cwp_lane_efficiency"), "msg: {msg}")
                }
                other => panic!("expected InvalidConfig for {bad}, got {other:?}"),
            }
        }
    }

    #[test]
    fn initiation_interval_follows_pipelining() {
        let mut c = AcceleratorConfig {
            mac_latency: 4,
            ..AcceleratorConfig::default()
        };
        assert_eq!(c.mac_initiation_interval(), 4);
        c.mac_pipelined = true;
        assert_eq!(c.mac_initiation_interval(), 1);
    }

    #[test]
    fn dataflow_labels() {
        assert_eq!(Dataflow::Hybrid.label(), "HyMM");
        assert_eq!(Dataflow::ALL.len(), 3);
    }

    #[test]
    fn validate_covers_the_memory_side() {
        let mut c = AcceleratorConfig::default();
        c.mem.mshr_count = 0;
        match c.validate() {
            Err(SparseError::InvalidConfig(msg)) => assert!(msg.contains("mshr_count"), "{msg}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        let mut c = AcceleratorConfig::default();
        c.mem.dmb_bytes = 1000; // not a multiple of the 64 B line
        assert!(c.validate().is_err());
        let mut c = AcceleratorConfig::default();
        c.mem.lsq_entries = 0;
        assert!(c.validate().is_err());
        let mut c = AcceleratorConfig::default();
        c.mem.prefetch_mshr_cap = c.mem.mshr_count;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_bounds_the_tiling_fraction() {
        for ok in [0.0, 0.2, 1.0] {
            let c = AcceleratorConfig {
                tiling_fraction: ok,
                ..AcceleratorConfig::default()
            };
            assert!(c.validate().is_ok(), "{ok}");
        }
        for bad in [-0.1, 1.5, 5.0, f64::NAN, f64::INFINITY] {
            let c = AcceleratorConfig {
                tiling_fraction: bad,
                ..AcceleratorConfig::default()
            };
            match c.validate() {
                Err(SparseError::InvalidConfig(msg)) => {
                    assert!(msg.contains("tiling_fraction"), "{msg}")
                }
                other => panic!("{bad}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn content_hash_is_stable_and_field_sensitive() {
        let base = AcceleratorConfig::default();
        assert_eq!(base.content_hash(), base.clone().content_hash());
        // Every architecturally visible knob must move the hash.
        let mut variants: Vec<AcceleratorConfig> = vec![
            AcceleratorConfig {
                num_pes: 32,
                ..base.clone()
            },
            AcceleratorConfig {
                tiling_fraction: 0.25,
                ..base.clone()
            },
            AcceleratorConfig {
                lane_gating: true,
                ..base.clone()
            },
            AcceleratorConfig {
                mac_latency: 4,
                ..base.clone()
            },
        ];
        let mut c = base.clone();
        c.mem.dmb_bytes = 512 * 1024;
        variants.push(c);
        let mut c = base.clone();
        c.mem.mshr_count = 64;
        variants.push(c);
        let mut c = base.clone();
        c.mem.prefetch = hymm_mem::PrefetchPolicy::SmqStream;
        variants.push(c);
        let mut hashes: Vec<u64> = variants.iter().map(|v| v.content_hash()).collect();
        hashes.push(base.content_hash());
        let distinct: std::collections::HashSet<u64> = hashes.iter().copied().collect();
        assert_eq!(distinct.len(), hashes.len(), "hash collision across knobs");
    }

    #[test]
    fn content_hash_ignores_host_observability_knobs() {
        // audit / tracing are pinned cycle-identical, so two configs
        // differing only there share a memo entry by design.
        let base = AcceleratorConfig::default();
        let mut host = AcceleratorConfig {
            audit: true,
            ..base.clone()
        };
        host.mem.trace = true;
        host.mem.trace_capacity = 16;
        assert_eq!(base.content_hash(), host.content_hash());
    }

    #[test]
    fn dataflow_parse_round_trips() {
        for d in Dataflow::EXTENDED {
            assert_eq!(Dataflow::parse(d.label()), Some(d));
            assert_eq!(Dataflow::parse(&d.label().to_lowercase()), Some(d));
        }
        assert_eq!(Dataflow::parse("nope"), None);
    }

    #[test]
    fn combine_hashes_is_order_and_value_sensitive() {
        let a = combine_hashes(&[1, 2, 3]);
        assert_eq!(a, combine_hashes(&[1, 2, 3]));
        assert_ne!(a, combine_hashes(&[3, 2, 1]));
        assert_ne!(a, combine_hashes(&[1, 2]));
        assert_ne!(a, combine_hashes(&[1, 2, 4]));
        // A zero word still advances the state (tag byte per position).
        assert_ne!(combine_hashes(&[0]), combine_hashes(&[0, 0]));
    }

    #[test]
    fn preset_labels_roundtrip_and_default_is_noop() {
        for p in Preset::ALL {
            assert_eq!(Preset::parse(p.label()), Some(p));
        }
        assert_eq!(Preset::parse("mystery"), None);
        let mut c = AcceleratorConfig::default();
        Preset::Default.apply(&mut c);
        assert_eq!(c, AcceleratorConfig::default());
    }

    #[test]
    fn tuned_preset_validates_within_twice_default_area() {
        let mut c = AcceleratorConfig::default();
        Preset::Tuned.apply(&mut c);
        assert!(c.validate().is_ok());
        assert_ne!(
            c.content_hash(),
            AcceleratorConfig::default().content_hash()
        );
        let base = crate::area::estimate_area(&AcceleratorConfig::default()).total_7nm();
        let tuned = crate::area::estimate_area(&c).total_7nm();
        assert!(
            tuned <= 2.0 * base,
            "tuned preset busts the iso-area budget: {tuned:.3} vs 2x{base:.3}"
        );
    }
}
