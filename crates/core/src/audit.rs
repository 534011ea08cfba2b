//! Runtime invariant audit.
//!
//! Cheap, always-compilable consistency checks over the machine's redundant
//! counters. Simulator bugs rarely crash — they show up as *different but
//! plausible* cycle counts — so each check here ties together two
//! independently maintained views of the same quantity and flags any
//! disagreement:
//!
//! - **DMB occupancy conservation**: every line that ever entered the buffer
//!   is accounted for as evicted, dropped by a flush/invalidate, or still
//!   resident (`line_fills == evictions + line_drops + occupancy`). Catches
//!   lost or double-counted lines in the open-addressed line table.
//! - **DRAM traffic accounting**: the per-kind traffic table must sum to the
//!   independently tracked grand total. Catches kind-indexing bugs that
//!   would silently skew the Fig. 11 breakdown.
//! - **Cycle monotonicity across phases**: phase boundaries never run
//!   backwards, and the report's total covers every phase. Catches cursor
//!   mix-ups in the engines' absolute-cycle `max()` chains.
//! - **LSQ forward-vs-store consistency**: forwards cannot outnumber loads
//!   and require at least one store in flight. Catches stale entries in the
//!   open-addressed forward index.
//! - **Stall attribution completeness**: every phase's stall classes sum
//!   exactly to the phase's cycles, and the report's classes sum to the
//!   report's total. Catches counter-snapshot drift in the stall waterfall.
//! - **Prefetch accounting**: a prefetch can be claimed useful or evicted
//!   unused at most once (`useful + evicted_unused <= issued`), late claims
//!   never outnumber useful ones, and late cycles require late events.
//!   Catches double-counted or lost speculative fills.
//! - **PE issue accounting**: port occupancy equals issue slots times the
//!   initiation interval for MAC and merge work alike, and the lane-level
//!   energy counter equals `slots × lanes` without gating (at most that
//!   with it). Catches drift between the timing and energy views of the
//!   parametric PE model.
//!
//! The checks are observation-only: they read counters, never advance time
//! or touch state, so enabling [`AcceleratorConfig::audit`] cannot change
//! timing or statistics. With the flag off (the default) nothing here runs.
//!
//! [`AcceleratorConfig::audit`]: crate::config::AcceleratorConfig::audit

use crate::machine::Machine;
use crate::stats::{PhaseReport, SimReport};
use std::fmt;

/// One violated invariant, with enough detail to debug it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// Short stable name of the invariant, e.g. `"dmb-conservation"`.
    pub invariant: &'static str,
    /// Human-readable description of the disagreement.
    pub details: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.details)
    }
}

/// Checks every machine-level invariant; returns all violations found.
pub fn check_machine(m: &Machine) -> Vec<AuditViolation> {
    let mut out = Vec::new();
    check_dmb(m, &mut out);
    check_dram(m.dram.stats(), &mut out);
    check_lsq(m, &mut out);
    check_prefetch(&m.dmb.prefetch_stats(), &mut out);
    check_phases(&m.phases, &mut out);
    check_pe(m, &mut out);
    out
}

fn check_pe(m: &Machine, out: &mut Vec<AuditViolation>) {
    let pe = &m.pe;
    let ii = pe.initiation_interval();
    if pe.mac_cycles() != pe.mac_issues() * ii {
        out.push(AuditViolation {
            invariant: "pe-issue-accounting",
            details: format!(
                "mac_cycles {} != mac_issues {} x II {}",
                pe.mac_cycles(),
                pe.mac_issues(),
                ii
            ),
        });
    }
    if pe.merge_cycles() != pe.merge_issues() * ii {
        out.push(AuditViolation {
            invariant: "pe-issue-accounting",
            details: format!(
                "merge_cycles {} != merge_issues {} x II {}",
                pe.merge_cycles(),
                pe.merge_issues(),
                ii
            ),
        });
    }
    let cap = pe.mac_issues() * pe.lanes() as u64;
    if pe.gating() {
        if pe.mac_lane_ops() > cap {
            out.push(AuditViolation {
                invariant: "pe-lane-energy",
                details: format!(
                    "gated mac_lane_ops {} exceed mac_issues {} x lanes {}",
                    pe.mac_lane_ops(),
                    pe.mac_issues(),
                    pe.lanes()
                ),
            });
        }
    } else if pe.mac_lane_ops() != cap {
        out.push(AuditViolation {
            invariant: "pe-lane-energy",
            details: format!(
                "ungated mac_lane_ops {} != mac_issues {} x lanes {}",
                pe.mac_lane_ops(),
                pe.mac_issues(),
                pe.lanes()
            ),
        });
    }
    if pe.mac_ops() == 0 && pe.mac_cycles() > 0 {
        out.push(AuditViolation {
            invariant: "pe-issue-accounting",
            details: format!("{} mac cycles recorded with zero mac ops", pe.mac_cycles()),
        });
    }
}

fn check_prefetch(s: &hymm_mem::PrefetchStats, out: &mut Vec<AuditViolation>) {
    // Useful and evicted-unused are terminal, mutually exclusive outcomes of
    // an issued prefetch; lines still resident or in flight account for the
    // slack.
    if s.useful + s.evicted_unused > s.issued {
        out.push(AuditViolation {
            invariant: "prefetch-accounting",
            details: format!(
                "useful {} + evicted_unused {} > issued {}",
                s.useful, s.evicted_unused, s.issued
            ),
        });
    }
    if s.late > s.useful {
        out.push(AuditViolation {
            invariant: "prefetch-accounting",
            details: format!("late {} > useful {}", s.late, s.useful),
        });
    }
    if s.late_cycles > 0 && s.late == 0 {
        out.push(AuditViolation {
            invariant: "prefetch-accounting",
            details: format!(
                "{} late cycles recorded with zero late events",
                s.late_cycles
            ),
        });
    }
}

fn check_dmb(m: &Machine, out: &mut Vec<AuditViolation>) {
    let fills = m.dmb.line_fills();
    let balance = m.dmb.evictions() + m.dmb.line_drops() + m.dmb.occupancy() as u64;
    if fills != balance {
        out.push(AuditViolation {
            invariant: "dmb-conservation",
            details: format!(
                "line_fills {} != evictions {} + drops {} + occupancy {}",
                fills,
                m.dmb.evictions(),
                m.dmb.line_drops(),
                m.dmb.occupancy()
            ),
        });
    }
    if m.dmb.dirty_evictions() > m.dmb.evictions() {
        out.push(AuditViolation {
            invariant: "dmb-dirty-evictions",
            details: format!(
                "dirty_evictions {} > evictions {}",
                m.dmb.dirty_evictions(),
                m.dmb.evictions()
            ),
        });
    }
    if m.dmb.occupancy() > m.dmb.capacity_lines() + m.config.mem.mshr_count {
        out.push(AuditViolation {
            invariant: "dmb-capacity",
            details: format!(
                "occupancy {} exceeds capacity {} + mshr_count {}",
                m.dmb.occupancy(),
                m.dmb.capacity_lines(),
                m.config.mem.mshr_count
            ),
        });
    }
}

fn check_dram(stats: &hymm_mem::TrafficStats, out: &mut Vec<AuditViolation>) {
    let total = stats.total();
    let sum = stats.per_kind_sum();
    if total != sum {
        out.push(AuditViolation {
            invariant: "dram-accounting",
            details: format!("per-kind sum {sum:?} != tracked total {total:?}"),
        });
    }
}

fn check_lsq(m: &Machine, out: &mut Vec<AuditViolation>) {
    let s = m.lsq.stats();
    if s.forwards > s.loads {
        out.push(AuditViolation {
            invariant: "lsq-forwarding",
            details: format!("forwards {} > loads {}", s.forwards, s.loads),
        });
    }
    if s.forwards > 0 && s.stores == 0 {
        out.push(AuditViolation {
            invariant: "lsq-forwarding",
            details: format!("{} forwards recorded with zero stores", s.forwards),
        });
    }
    if m.lsq.occupancy() > m.lsq.capacity() {
        out.push(AuditViolation {
            invariant: "lsq-capacity",
            details: format!(
                "occupancy {} > capacity {}",
                m.lsq.occupancy(),
                m.lsq.capacity()
            ),
        });
    }
}

fn check_phases(phases: &[PhaseReport], out: &mut Vec<AuditViolation>) {
    for (i, p) in phases.iter().enumerate() {
        if p.end_cycle < p.start_cycle {
            out.push(AuditViolation {
                invariant: "phase-monotonicity",
                details: format!(
                    "phase {i} {:?} ends at {} before it starts at {}",
                    p.name, p.end_cycle, p.start_cycle
                ),
            });
        }
        if p.stalls.total() != p.cycles() {
            out.push(AuditViolation {
                invariant: "stall-attribution",
                details: format!(
                    "phase {i} {:?} stall classes sum to {} but the phase spans {} cycles",
                    p.name,
                    p.stalls.total(),
                    p.cycles()
                ),
            });
        }
    }
    for (i, pair) in phases.windows(2).enumerate() {
        let (a, b) = (&pair[0], &pair[1]);
        if b.start_cycle < a.start_cycle || b.end_cycle < a.end_cycle {
            out.push(AuditViolation {
                invariant: "phase-monotonicity",
                details: format!(
                    "phase {} {:?} [{}, {}] runs backwards relative to {:?} [{}, {}]",
                    i + 1,
                    b.name,
                    b.start_cycle,
                    b.end_cycle,
                    a.name,
                    a.start_cycle,
                    a.end_cycle
                ),
            });
        }
    }
}

/// Checks the aggregate invariants of one finished **layer** report.
///
/// Only valid for single-layer reports: [`SimReport::merge`] concatenates
/// phase lists whose cycle bases restart at zero, so the cross-phase checks
/// do not transfer to merged reports.
pub fn check_report(r: &SimReport) -> Vec<AuditViolation> {
    let mut out = Vec::new();
    check_dram(&r.dram, &mut out);
    check_prefetch(&r.prefetch, &mut out);
    check_phases(&r.phases, &mut out);
    if r.dmb_dirty_evictions > r.dmb_evictions {
        out.push(AuditViolation {
            invariant: "dmb-dirty-evictions",
            details: format!(
                "dirty_evictions {} > evictions {}",
                r.dmb_dirty_evictions, r.dmb_evictions
            ),
        });
    }
    if r.lsq.forwards > r.lsq.loads {
        out.push(AuditViolation {
            invariant: "lsq-forwarding",
            details: format!("forwards {} > loads {}", r.lsq.forwards, r.lsq.loads),
        });
    }
    if r.lsq.capacity_stall_cycles > 0 && r.lsq.capacity_stalls == 0 {
        out.push(AuditViolation {
            invariant: "lsq-capacity",
            details: format!(
                "{} capacity-stall cycles recorded with zero stall events",
                r.lsq.capacity_stall_cycles
            ),
        });
    }
    if (r.mac_ops == 0) != (r.mac_cycles == 0) {
        out.push(AuditViolation {
            invariant: "pe-issue-accounting",
            details: format!(
                "mac_ops {} inconsistent with mac_cycles {}",
                r.mac_ops, r.mac_cycles
            ),
        });
    }
    if (r.mac_lane_ops == 0) != (r.mac_cycles == 0) {
        out.push(AuditViolation {
            invariant: "pe-lane-energy",
            details: format!(
                "mac_lane_ops {} inconsistent with mac_cycles {}",
                r.mac_lane_ops, r.mac_cycles
            ),
        });
    }
    if r.stalls.total() != r.cycles {
        out.push(AuditViolation {
            invariant: "stall-attribution",
            details: format!(
                "report stall classes sum to {} but the report spans {} cycles",
                r.stalls.total(),
                r.cycles
            ),
        });
    }
    if let Some(last_end) = r.phases.iter().map(|p| p.end_cycle).max() {
        if r.cycles < last_end {
            out.push(AuditViolation {
                invariant: "phase-monotonicity",
                details: format!(
                    "total cycles {} below the last phase end {last_end}",
                    r.cycles
                ),
            });
        }
    }
    let phase_bytes: u64 = r.phases.iter().map(|p| p.dram_bytes).sum();
    if phase_bytes > r.dram.total().total_bytes() {
        out.push(AuditViolation {
            invariant: "dram-accounting",
            details: format!(
                "per-phase DRAM bytes {} exceed the total {}",
                phase_bytes,
                r.dram.total().total_bytes()
            ),
        });
    }
    let (mut rh, mut rm, mut wh, mut wm) = (0u64, 0u64, 0u64, 0u64);
    for p in &r.phases {
        rh += p.dmb_hits.read_hits;
        rm += p.dmb_hits.read_misses;
        wh += p.dmb_hits.write_hits;
        wm += p.dmb_hits.write_misses;
    }
    if rh > r.dmb_hits.read_hits
        || rm > r.dmb_hits.read_misses
        || wh > r.dmb_hits.write_hits
        || wm > r.dmb_hits.write_misses
    {
        out.push(AuditViolation {
            invariant: "dmb-hit-attribution",
            details: format!(
                "per-phase hit deltas ({rh}/{rm}/{wh}/{wm}) exceed layer totals \
                 ({}/{}/{}/{})",
                r.dmb_hits.read_hits,
                r.dmb_hits.read_misses,
                r.dmb_hits.write_hits,
                r.dmb_hits.write_misses
            ),
        });
    }
    out
}

/// Panics with every violation listed if `violations` is non-empty.
/// `context` names the call site (phase name, "report", ...).
pub fn enforce(context: &str, violations: &[AuditViolation]) {
    if violations.is_empty() {
        return;
    }
    let mut msg = format!("audit failed at {context}:");
    for v in violations {
        msg.push_str("\n  ");
        msg.push_str(&v.to_string());
    }
    panic!("{msg}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcceleratorConfig;
    use hymm_mem::stats::HitStats;

    fn phase(name: &'static str, start: u64, end: u64) -> PhaseReport {
        use crate::stats::StallBreakdown;
        PhaseReport {
            name,
            start_cycle: start,
            end_cycle: end,
            nnz: 1,
            dmb_hits: HitStats::default(),
            dram_bytes: 0,
            // All-idle attribution keeps the stall-sum invariant satisfied.
            stalls: StallBreakdown::attribute(end.saturating_sub(start), 0, 0, 0, 0, 0, 0, 0),
        }
    }

    #[test]
    fn fresh_machine_is_clean() {
        let m = Machine::new(&AcceleratorConfig::default());
        assert!(check_machine(&m).is_empty());
    }

    #[test]
    fn empty_report_is_clean() {
        assert!(check_report(&SimReport::empty()).is_empty());
    }

    #[test]
    fn backwards_phase_is_flagged() {
        let mut r = SimReport::empty();
        r.cycles = 100;
        r.phases.push(phase("a", 50, 40));
        let v = check_report(&r);
        assert!(
            v.iter().any(|v| v.invariant == "phase-monotonicity"),
            "{v:?}"
        );
    }

    #[test]
    fn out_of_order_phases_are_flagged() {
        let mut r = SimReport::empty();
        r.cycles = 100;
        r.phases.push(phase("a", 40, 60));
        r.phases.push(phase("b", 10, 20));
        let v = check_report(&r);
        assert!(
            v.iter().any(|v| v.invariant == "phase-monotonicity"),
            "{v:?}"
        );
    }

    #[test]
    fn cycles_below_phase_end_is_flagged() {
        let mut r = SimReport::empty();
        r.cycles = 30;
        r.phases.push(phase("a", 0, 60));
        let v = check_report(&r);
        assert!(
            v.iter().any(|v| v.invariant == "phase-monotonicity"),
            "{v:?}"
        );
    }

    #[test]
    fn impossible_forward_count_is_flagged() {
        let mut r = SimReport::empty();
        r.lsq.loads = 1;
        r.lsq.forwards = 2;
        let v = check_report(&r);
        assert!(v.iter().any(|v| v.invariant == "lsq-forwarding"), "{v:?}");
    }

    #[test]
    fn stall_sum_mismatch_is_flagged() {
        let mut r = SimReport::empty();
        r.cycles = 10;
        let v = check_report(&r);
        assert!(
            v.iter().any(|v| v.invariant == "stall-attribution"),
            "{v:?}"
        );
        r.stalls.idle = 10;
        let v = check_report(&r);
        assert!(
            v.iter().all(|v| v.invariant != "stall-attribution"),
            "{v:?}"
        );
    }

    #[test]
    fn phase_stall_sum_mismatch_is_flagged() {
        let mut r = SimReport::empty();
        r.cycles = 100;
        r.stalls.idle = 100;
        let mut p = phase("a", 0, 50);
        p.stalls.idle = 0; // break the per-phase sum
        r.phases.push(p);
        let v = check_report(&r);
        assert!(
            v.iter().any(|v| v.invariant == "stall-attribution"),
            "{v:?}"
        );
    }

    #[test]
    fn stall_cycles_without_events_is_flagged() {
        let mut r = SimReport::empty();
        r.lsq.capacity_stall_cycles = 7;
        let v = check_report(&r);
        assert!(v.iter().any(|v| v.invariant == "lsq-capacity"), "{v:?}");
    }

    #[test]
    fn impossible_prefetch_accounting_is_flagged() {
        let mut r = SimReport::empty();
        r.prefetch.issued = 1;
        r.prefetch.useful = 1;
        r.prefetch.evicted_unused = 1; // claimed twice
        let v = check_report(&r);
        assert!(
            v.iter().any(|v| v.invariant == "prefetch-accounting"),
            "{v:?}"
        );

        let mut r = SimReport::empty();
        r.prefetch.issued = 2;
        r.prefetch.useful = 1;
        r.prefetch.late = 2; // more late claims than useful ones
        let v = check_report(&r);
        assert!(
            v.iter().any(|v| v.invariant == "prefetch-accounting"),
            "{v:?}"
        );

        let mut r = SimReport::empty();
        r.prefetch.late_cycles = 9; // cycles without events
        let v = check_report(&r);
        assert!(
            v.iter().any(|v| v.invariant == "prefetch-accounting"),
            "{v:?}"
        );
    }

    #[test]
    fn pe_counter_drift_is_flagged() {
        let mut r = SimReport::empty();
        r.mac_cycles = 10; // cycles without ops or lane events
        let v = check_report(&r);
        assert!(
            v.iter().any(|v| v.invariant == "pe-issue-accounting"),
            "{v:?}"
        );
        assert!(v.iter().any(|v| v.invariant == "pe-lane-energy"), "{v:?}");
        r.mac_ops = 1;
        r.mac_lane_ops = 16;
        let v = check_report(&r);
        assert!(
            v.iter()
                .all(|v| v.invariant != "pe-issue-accounting" && v.invariant != "pe-lane-energy"),
            "{v:?}"
        );
    }

    #[test]
    fn enforce_panics_with_details() {
        let violations = vec![AuditViolation {
            invariant: "dmb-conservation",
            details: "one line missing".into(),
        }];
        let err =
            std::panic::catch_unwind(|| enforce("test", &violations)).expect_err("must panic");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("dmb-conservation"), "{msg}");
        assert!(msg.contains("one line missing"), "{msg}");
    }
}
