//! The processing-engine (PE) array.
//!
//! HyMM's 16 PEs perform scalar-vector multiply-accumulate: a broadcast
//! sparse scalar times a 64-byte dense vector, one 16-lane operation per
//! cycle (paper §IV-C). Each PE holds a stationary buffer — output rows stay
//! stationary in RWP mode, input rows in OP mode — which this timing model
//! reflects by charging no buffer traffic for stationary operands.
//!
//! The array is parametric (DESIGN.md §12): lane count, MAC latency and
//! pipelining are configurable. Latency `L` is the cycles from issue to
//! result; the initiation interval (II) is the cycles between back-to-back
//! issues — 1 when pipelined, `L` when not. The issue port accepts one
//! vector operation per II (the paper's one-chunk-per-cycle port at the
//! Table III default of `L = 1`). Per-lane operand gating models a flexible
//! vector register file à la FlexVector: a row shorter than the vector width
//! charges only the occupied lanes' energy (`mac_lane_ops`) while timing
//! still pays the full issue slot. The same flexible VRF is what lets the
//! engines co-issue several short rows in one slot
//! ([`PeArray::execute_packed_mac`]) and makes the CWP extension's lane
//! occupancy exact — so enabling gating can shorten schedules at the engine
//! level even though each individual issue keeps its slot-granular timing.
//!
//! The array distinguishes **useful** MAC work from **merge** work (partial
//! output read-modify-write adds): both occupy the array, but only useful
//! MACs count towards the paper's Fig. 8 ALU-utilisation metric, whose text
//! attributes the OP baseline's low utilisation to "wasted cycles caused by
//! merging partial outputs and waiting for off-chip memory access".
//!
//! Counter taxonomy:
//! - `mac_ops` — logical MAC operations (one per sparse row operation or
//!   legacy chunk), invariant across lane count, latency and pipelining.
//! - `mac_issues` — issue slots consumed on the vector port.
//! - `mac_cycles` — port occupancy in cycles; always `mac_issues × II`.
//! - `mac_lane_ops` — lane-level multiply events, the energy proxy: with
//!   gating only occupied lanes count, without it every issue charges all
//!   lanes.

use crate::config::AcceleratorConfig;

/// The PE array timing model.
///
/// # Example
///
/// ```
/// use hymm_core::pe::PeArray;
///
/// let mut pe = PeArray::new(16);
/// let done = pe.execute_mac(10, 1); // operands ready at cycle 10
/// assert_eq!(done, 11);
/// assert_eq!(pe.mac_cycles(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PeArray {
    lanes: usize,
    /// Cycles from issue to result.
    latency: u64,
    /// Cycles between back-to-back issues (1 if pipelined, else `latency`).
    ii: u64,
    /// Per-lane operand gating (flexible VRF): energy charges occupied lanes
    /// only, and the engines may co-issue short rows in one slot.
    gating: bool,
    /// First cycle the issue port can accept another operation.
    issue_free: u64,
    /// Cycle the deepest in-flight operation drains.
    drain_until: u64,
    mac_cycles: u64,
    merge_cycles: u64,
    mac_ops: u64,
    merge_ops: u64,
    mac_issues: u64,
    merge_issues: u64,
    mac_lane_ops: u64,
}

impl PeArray {
    /// Creates an idle array with `lanes` MAC lanes and the paper's Table III
    /// timing (single-cycle MACs, no gating).
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn new(lanes: usize) -> PeArray {
        PeArray::with_timing(lanes, 1, false, false)
    }

    /// Creates an idle array with explicit timing: `latency` cycles from
    /// issue to result, an initiation interval of 1 when `pipelined` (else
    /// `latency`), and per-lane operand `gating` for the energy model.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0` or `latency == 0`. Callers going through
    /// [`crate::sim`] hit [`AcceleratorConfig::validate`] first and get a
    /// `SparseError::InvalidConfig` instead.
    pub fn with_timing(lanes: usize, latency: u64, pipelined: bool, gating: bool) -> PeArray {
        assert!(lanes > 0, "PE array needs at least one lane");
        assert!(latency > 0, "PE MAC latency must be at least one cycle");
        PeArray {
            lanes,
            latency,
            ii: if pipelined { 1 } else { latency },
            gating,
            issue_free: 0,
            drain_until: 0,
            mac_cycles: 0,
            merge_cycles: 0,
            mac_ops: 0,
            merge_ops: 0,
            mac_issues: 0,
            merge_issues: 0,
            mac_lane_ops: 0,
        }
    }

    /// Creates the array described by an [`AcceleratorConfig`].
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; run
    /// [`AcceleratorConfig::validate`] first for a `Result`.
    pub fn from_config(config: &AcceleratorConfig) -> PeArray {
        PeArray::with_timing(
            config.num_pes,
            config.mac_latency,
            config.mac_pipelined,
            config.lane_gating,
        )
    }

    /// Books `issues` consecutive slots on the issue port, the first no
    /// earlier than `ready`; returns the cycle the last result drains.
    fn issue(&mut self, ready: u64, issues: u64) -> u64 {
        let start = self.issue_free.max(ready);
        if issues == 0 {
            self.issue_free = start;
            self.drain_until = self.drain_until.max(start);
            return start;
        }
        let done = start + (issues - 1) * self.ii + self.latency;
        self.issue_free = start + issues * self.ii;
        self.drain_until = self.drain_until.max(done);
        done
    }

    /// Executes `chunks` full-width scalar-vector MAC operations whose
    /// operands are ready at `ready`; returns the completion cycle. Each
    /// chunk occupies every lane (legacy chunk-granular interface).
    pub fn execute_mac(&mut self, ready: u64, chunks: u64) -> u64 {
        self.mac_ops += chunks;
        self.mac_issues += chunks;
        self.mac_cycles += chunks * self.ii;
        self.mac_lane_ops += chunks * self.lanes as u64;
        self.issue(ready, chunks)
    }

    /// Executes one logical row operation — a broadcast scalar times a
    /// `width`-element dense row — splitting it across
    /// `ceil(width / lanes)` issue slots. Under gating only the occupied
    /// lanes charge energy; timing always pays whole slots.
    pub fn execute_row_mac(&mut self, ready: u64, width: usize) -> u64 {
        let w = width.max(1) as u64;
        let lanes = self.lanes as u64;
        let slots = w.div_ceil(lanes);
        self.mac_ops += 1;
        self.mac_issues += slots;
        self.mac_cycles += slots * self.ii;
        self.mac_lane_ops += if self.gating { w } else { slots * lanes };
        self.issue(ready, slots)
    }

    /// Co-issues `rows` independent row operations of `width` elements each
    /// in a single slot (engine-level row packing: legal only when
    /// `rows × width ≤ lanes`, which callers guarantee by construction).
    /// All packed rows complete together; returns that completion cycle.
    pub fn execute_packed_mac(&mut self, ready: u64, rows: u64, width: usize) -> u64 {
        let w = width.max(1) as u64;
        debug_assert!(rows >= 1, "packed issue needs at least one row");
        debug_assert!(
            rows * w <= self.lanes as u64,
            "packed rows must fit the vector width ({rows}x{w} > {} lanes)",
            self.lanes
        );
        self.mac_ops += rows;
        self.mac_issues += 1;
        self.mac_cycles += self.ii;
        self.mac_lane_ops += if self.gating {
            rows * w
        } else {
            self.lanes as u64
        };
        self.issue(ready, 1)
    }

    /// Executes `count` independent scalar MACs spread across the lanes
    /// (the column-wise-product extension's row-parallel pass). Without
    /// gating the caller's `effective_lanes` models AWB-GCN-style static
    /// imbalance; with gating the occupancy is exact — `ceil(count/lanes)`
    /// slots with only the occupied lanes charging energy, making the lane
    /// efficiency a derived quantity instead of a configured one.
    pub fn execute_scalar_macs(&mut self, ready: u64, count: u64, effective_lanes: u64) -> u64 {
        let count = count.max(1);
        let lanes = self.lanes as u64;
        let slots = if self.gating {
            count.div_ceil(lanes)
        } else {
            count.div_ceil(effective_lanes.max(1))
        }
        .max(1);
        self.mac_ops += count;
        self.mac_issues += slots;
        self.mac_cycles += slots * self.ii;
        self.mac_lane_ops += if self.gating { count } else { slots * lanes };
        self.issue(ready, slots)
    }

    /// Executes `chunks` partial-output merge additions (read-modify-write
    /// through the PE adder); returns the completion cycle.
    pub fn execute_merge(&mut self, ready: u64, chunks: u64) -> u64 {
        self.merge_ops += chunks;
        self.merge_issues += chunks;
        self.merge_cycles += chunks * self.ii;
        self.issue(ready, chunks)
    }

    /// Cycle up to which results are still draining from the pipeline.
    pub fn busy_until(&self) -> u64 {
        self.drain_until
    }

    /// First cycle the issue port can accept a new operation with no wait.
    /// For a pipelined array this is earlier than [`Self::busy_until`]: the
    /// next operation issues behind the port, not behind the drain (at the
    /// default single-cycle MAC the two coincide).
    pub fn issue_free(&self) -> u64 {
        self.issue_free
    }

    /// Number of MAC lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Cycles from issue to result.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Cycles between back-to-back issues (1 when pipelined).
    pub fn initiation_interval(&self) -> u64 {
        self.ii
    }

    /// Whether per-lane operand gating is enabled.
    pub fn gating(&self) -> bool {
        self.gating
    }

    /// Cycles the issue port was occupied by useful MAC work.
    pub fn mac_cycles(&self) -> u64 {
        self.mac_cycles
    }

    /// Cycles the issue port was occupied merging partial outputs.
    pub fn merge_cycles(&self) -> u64 {
        self.merge_cycles
    }

    /// Logical MAC operations executed (invariant across lane count,
    /// latency and pipelining).
    pub fn mac_ops(&self) -> u64 {
        self.mac_ops
    }

    /// Merge operations executed.
    pub fn merge_ops(&self) -> u64 {
        self.merge_ops
    }

    /// Issue slots consumed by MAC work (`mac_cycles == mac_issues × II`).
    pub fn mac_issues(&self) -> u64 {
        self.mac_issues
    }

    /// Issue slots consumed by merge work.
    pub fn merge_issues(&self) -> u64 {
        self.merge_issues
    }

    /// Lane-level multiply events — the energy proxy. Equal to
    /// `mac_issues × lanes` without gating, at most that with it.
    pub fn mac_lane_ops(&self) -> u64 {
        self.mac_lane_ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialises_back_to_back_ops() {
        let mut pe = PeArray::new(16);
        assert_eq!(pe.execute_mac(0, 1), 1);
        assert_eq!(pe.execute_mac(0, 1), 2); // array busy, queues behind
        assert_eq!(pe.mac_cycles(), 2);
    }

    #[test]
    fn waits_for_operands() {
        let mut pe = PeArray::new(16);
        assert_eq!(pe.execute_mac(100, 2), 102);
        assert_eq!(pe.busy_until(), 102);
    }

    #[test]
    fn merge_and_mac_tracked_separately() {
        let mut pe = PeArray::new(16);
        pe.execute_mac(0, 3);
        pe.execute_merge(0, 2);
        assert_eq!(pe.mac_cycles(), 3);
        assert_eq!(pe.merge_cycles(), 2);
        assert_eq!(pe.busy_until(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn rejects_zero_lanes() {
        let _ = PeArray::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn rejects_zero_latency() {
        let _ = PeArray::with_timing(16, 0, false, false);
    }

    #[test]
    fn default_timing_matches_legacy_model() {
        // At Table III timing (latency 1, II 1) every interface degenerates
        // to the seed's busy_until = start + chunks contract.
        let mut pe = PeArray::new(16);
        assert_eq!(pe.execute_row_mac(10, 16), 11);
        assert_eq!(pe.issue_free(), 11);
        assert_eq!(pe.busy_until(), 11);
        assert_eq!(pe.mac_cycles(), 1);
        assert_eq!(pe.mac_ops(), 1);
        assert_eq!(pe.mac_lane_ops(), 16);
    }

    #[test]
    fn unpipelined_latency_multiplies_occupancy() {
        let mut pe = PeArray::with_timing(16, 4, false, false);
        // II == latency == 4: two chunks take 8 cycles of port occupancy.
        assert_eq!(pe.execute_mac(0, 2), 8);
        assert_eq!(pe.mac_cycles(), 8);
        assert_eq!(pe.issue_free(), 8);
        assert_eq!(pe.busy_until(), 8);
    }

    #[test]
    fn pipelined_port_frees_before_the_drain() {
        let mut pe = PeArray::with_timing(16, 4, true, false);
        // II 1, latency 4: two chunks issue at 0 and 1, last drains at 5.
        assert_eq!(pe.execute_mac(0, 2), 5);
        assert_eq!(pe.mac_cycles(), 2);
        assert_eq!(pe.issue_free(), 2); // port free while draining
        assert_eq!(pe.busy_until(), 5);
        // A third op issues behind the port, not behind the drain.
        assert_eq!(pe.execute_mac(0, 1), 6);
    }

    #[test]
    fn wide_row_splits_into_slots() {
        let mut pe = PeArray::new(16);
        // 48 elements over 16 lanes = 3 slots, one logical op.
        assert_eq!(pe.execute_row_mac(0, 48), 3);
        assert_eq!(pe.mac_issues(), 3);
        assert_eq!(pe.mac_ops(), 1);
        assert_eq!(pe.mac_lane_ops(), 48);
    }

    #[test]
    fn gating_charges_occupied_lanes_only() {
        let mut ungated = PeArray::with_timing(32, 1, false, false);
        let mut gated = PeArray::with_timing(32, 1, false, true);
        // A 16-wide row on a 32-lane array: same timing, half the energy.
        assert_eq!(ungated.execute_row_mac(0, 16), gated.execute_row_mac(0, 16));
        assert_eq!(ungated.mac_cycles(), gated.mac_cycles());
        assert_eq!(ungated.mac_lane_ops(), 32);
        assert_eq!(gated.mac_lane_ops(), 16);
    }

    #[test]
    fn packed_rows_share_one_slot() {
        let mut pe = PeArray::with_timing(32, 1, false, false);
        // Two 16-wide rows co-issued: one slot, two logical ops.
        assert_eq!(pe.execute_packed_mac(5, 2, 16), 6);
        assert_eq!(pe.mac_cycles(), 1);
        assert_eq!(pe.mac_ops(), 2);
        assert_eq!(pe.mac_issues(), 1);
        assert_eq!(pe.mac_lane_ops(), 32);
    }

    #[test]
    fn scalar_macs_gated_occupancy_is_exact() {
        let mut pe = PeArray::with_timing(16, 1, false, true);
        // 20 scalar MACs over 16 lanes gated: 2 slots, 20 lane events.
        assert_eq!(pe.execute_scalar_macs(0, 20, 12), 2);
        assert_eq!(pe.mac_ops(), 20);
        assert_eq!(pe.mac_lane_ops(), 20);
        let mut ungated = PeArray::with_timing(16, 1, false, false);
        // Ungated: the configured effective lanes (12) drive occupancy.
        assert_eq!(ungated.execute_scalar_macs(0, 20, 12), 2);
        assert_eq!(ungated.mac_lane_ops(), 32);
    }

    #[test]
    fn zero_chunk_issue_leaves_port_state() {
        let mut pe = PeArray::new(16);
        pe.execute_mac(0, 3);
        assert_eq!(pe.execute_mac(10, 0), 10);
        assert_eq!(pe.issue_free(), 10);
        assert_eq!(pe.mac_cycles(), 3);
    }
}
