//! Model-based differential tests: the production DMB (open-addressed line
//! table, intrusive LRU lists, MSHR queue in completion order pinning lines
//! through a per-slot bit) and LSQ (open-addressed forward index) are driven
//! op-for-op against naive reference models built from `Vec`/`HashMap`, and
//! every outcome, counter and membership query must agree. The reference models restate the documented timing rules in the
//! most obvious data structures possible, so any divergence is a bug in the
//! optimised structures rather than a modelling choice.

use hymm_mem::dram::{AccessPattern, Dram};
use hymm_mem::lsq::LoadPath;
use hymm_mem::{Dmb, LineAddr, Lsq, MatrixKind, MemConfig};
use rand::{Rng, SeedableRng};
use rand_pcg::Pcg64;

const KINDS: [MatrixKind; 3] = [
    MatrixKind::Weight,
    MatrixKind::Combination,
    MatrixKind::Output,
];

// ---------------------------------------------------------------------------
// Naive DMB reference model
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct RefLine {
    addr: LineAddr,
    dirty: bool,
    ready_at: u64,
    lru: u64,
}

/// The DMB's documented behaviour on the dumbest possible data structures:
/// resident lines in a flat `Vec`, MSHRs in a `Vec`, victims found by a full
/// scan for the minimum LRU tick.
struct RefDmb {
    capacity: usize,
    line_bytes: u64,
    hit_latency: u64,
    mshr_count: usize,
    class_eviction: bool,
    lines: Vec<RefLine>,
    mshrs: Vec<(LineAddr, u64)>,
    lru_tick: u64,
    read_port_free: u64,
    write_port_free: u64,
    read_hits: u64,
    read_misses: u64,
    write_hits: u64,
    write_misses: u64,
    evictions: u64,
    dirty_evictions: u64,
    mshr_merges: u64,
    mshr_stalls: u64,
}

impl RefDmb {
    fn new(cfg: &MemConfig) -> RefDmb {
        RefDmb {
            capacity: cfg.dmb_lines().max(1),
            line_bytes: cfg.line_bytes as u64,
            hit_latency: cfg.dmb_hit_latency,
            mshr_count: cfg.mshr_count.max(1),
            class_eviction: cfg.class_eviction,
            lines: Vec::new(),
            mshrs: Vec::new(),
            lru_tick: 0,
            read_port_free: 0,
            write_port_free: 0,
            read_hits: 0,
            read_misses: 0,
            write_hits: 0,
            write_misses: 0,
            evictions: 0,
            dirty_evictions: 0,
            mshr_merges: 0,
            mshr_stalls: 0,
        }
    }

    fn find(&self, addr: LineAddr) -> Option<usize> {
        self.lines.iter().position(|l| l.addr == addr)
    }

    fn touch(&mut self, addr: LineAddr) {
        self.lru_tick += 1;
        let tick = self.lru_tick;
        if let Some(i) = self.find(addr) {
            self.lines[i].lru = tick;
        }
    }

    fn reap_mshrs(&mut self, now: u64) {
        self.mshrs.retain(|&(_, ready)| ready > now);
    }

    fn in_flight(&self, addr: LineAddr) -> bool {
        self.mshrs.iter().any(|&(a, _)| a == addr)
    }

    fn evict_one(&mut self, now: u64, dram: &mut Dram) -> bool {
        let candidate = |lines: &[RefLine], this: &RefDmb, class: u8| {
            lines
                .iter()
                .filter(|l| l.addr.kind.evict_class() == class && !this.in_flight(l.addr))
                .min_by_key(|l| l.lru)
                .map(|l| (l.lru, l.addr))
        };
        let victim = if self.class_eviction {
            (0u8..3).find_map(|c| candidate(&self.lines, self, c))
        } else {
            (0u8..3)
                .filter_map(|c| candidate(&self.lines, self, c))
                .min_by_key(|&(lru, _)| lru)
        };
        if let Some((_, addr)) = victim {
            let i = self.find(addr).unwrap();
            let line = self.lines.remove(i);
            self.evictions += 1;
            if line.dirty {
                self.dirty_evictions += 1;
                dram.write(now, addr.kind, self.line_bytes, AccessPattern::Random);
            }
            return true;
        }
        false
    }

    fn insert_line(
        &mut self,
        addr: LineAddr,
        dirty: bool,
        ready_at: u64,
        now: u64,
        dram: &mut Dram,
    ) {
        while self.lines.len() >= self.capacity {
            if !self.evict_one(now, dram) {
                break;
            }
        }
        self.lru_tick += 1;
        self.lines.push(RefLine {
            addr,
            dirty,
            ready_at,
            lru: self.lru_tick,
        });
    }

    fn read(
        &mut self,
        now: u64,
        addr: LineAddr,
        dram: &mut Dram,
        pattern: AccessPattern,
    ) -> (u64, bool) {
        let start = now.max(self.read_port_free);
        self.read_port_free = start + 1;
        self.reap_mshrs(start);

        if let Some(i) = self.find(addr) {
            let ready = (start + self.hit_latency).max(self.lines[i].ready_at);
            self.read_hits += 1;
            self.touch(addr);
            return (ready, true);
        }
        if let Some(&(_, fill)) = self.mshrs.iter().find(|&&(a, _)| a == addr) {
            self.mshr_merges += 1;
            self.read_misses += 1;
            return (fill.max(start + self.hit_latency), false);
        }
        let mut issue = start;
        if self.mshrs.len() >= self.mshr_count {
            let earliest = self.mshrs.iter().map(|&(_, r)| r).min().unwrap_or(issue);
            self.mshr_stalls += 1;
            issue = issue.max(earliest);
            self.reap_mshrs(issue);
        }
        let ready = dram.read(issue, addr.kind, self.line_bytes, pattern);
        self.mshrs.push((addr, ready));
        self.insert_line(addr, false, ready, issue, dram);
        self.read_misses += 1;
        (ready, false)
    }

    fn write(
        &mut self,
        now: u64,
        addr: LineAddr,
        dram: &mut Dram,
        allocate: bool,
        pattern: AccessPattern,
    ) -> (u64, bool) {
        let start = now.max(self.write_port_free);
        self.write_port_free = start + 1;
        self.reap_mshrs(start);

        if let Some(i) = self.find(addr) {
            self.lines[i].dirty = true;
            self.write_hits += 1;
            self.touch(addr);
            return (start + self.hit_latency, true);
        }
        self.write_misses += 1;
        if allocate {
            self.insert_line(addr, true, start + self.hit_latency, start, dram);
            (start + self.hit_latency, false)
        } else {
            dram.write(start, addr.kind, self.line_bytes, pattern);
            (start + 1, false)
        }
    }

    fn flush_kind(&mut self, now: u64, kind: MatrixKind, dram: &mut Dram) -> u64 {
        let mut listed: Vec<LineAddr> = self
            .lines
            .iter()
            .filter(|l| l.addr.kind == kind)
            .map(|l| l.addr)
            .collect();
        listed.sort_unstable_by_key(|a| a.index);
        let mut done = now;
        for addr in listed {
            let i = self.find(addr).unwrap();
            let line = self.lines.remove(i);
            if line.dirty {
                done = done.max(dram.write(done, kind, self.line_bytes, AccessPattern::Sequential));
            }
        }
        done
    }

    fn invalidate_kind(&mut self, kind: MatrixKind) {
        self.lines.retain(|l| l.addr.kind != kind);
    }
}

/// Drives the real DMB and the reference model through the same randomized
/// op stream (reads, allocating and bypassing writes, flushes, invalidates)
/// on tiny buffers with aggressive collision pressure, comparing every
/// outcome and every counter after each op. Each side owns its own DRAM;
/// the DRAM traffic tables must also stay identical. Several DRAM channels
/// make fills complete out of issue order, and some MSHR pools are larger
/// than 64 entries.
#[test]
fn dmb_matches_reference_model() {
    for seq in 0..60u64 {
        let mut rng = Pcg64::seed_from_u64(0xD3B0 ^ seq);
        let cfg = MemConfig {
            dmb_bytes: (2 + (seq as usize % 7)) * 64,
            mshr_count: if seq % 5 == 4 {
                65 + (seq as usize % 40)
            } else {
                1 + (seq as usize % 4)
            },
            dram_channels: 1 + (seq as usize / 3) % 3,
            class_eviction: seq % 3 != 0,
            ..MemConfig::default()
        };
        let mut dmb = Dmb::new(&cfg);
        let mut dram = Dram::new(&cfg);
        let mut model = RefDmb::new(&cfg);
        let mut model_dram = Dram::new(&cfg);

        let index_space = 1 + seq % 23;
        let mut now = 0u64;
        for step in 0..400 {
            let addr = LineAddr::new(
                KINDS[rng.gen_range(0..3usize)],
                rng.gen_range(0..index_space),
            );
            let ctx = format!("seq {seq} step {step} {addr:?}");
            match rng.gen_range(0..10u32) {
                0..=4 => {
                    let pattern = if rng.gen_bool(0.5) {
                        AccessPattern::Random
                    } else {
                        AccessPattern::Sequential
                    };
                    let got = dmb.read(now, addr, &mut dram, pattern);
                    let (ready, hit) = model.read(now, addr, &mut model_dram, pattern);
                    assert_eq!((got.ready, got.hit), (ready, hit), "read {ctx}");
                }
                5..=7 => {
                    let allocate = rng.gen_bool(0.7);
                    let got = dmb.write(now, addr, &mut dram, allocate, AccessPattern::Random);
                    let (ready, hit) =
                        model.write(now, addr, &mut model_dram, allocate, AccessPattern::Random);
                    assert_eq!((got.ready, got.hit), (ready, hit), "write {ctx}");
                }
                8 => {
                    let got = dmb.flush_kind(now, addr.kind, &mut dram);
                    let want = model.flush_kind(now, addr.kind, &mut model_dram);
                    assert_eq!(got, want, "flush {ctx}");
                }
                _ => {
                    dmb.invalidate_kind(addr.kind);
                    model.invalidate_kind(addr.kind);
                }
            }
            // Advance time irregularly so port/MSHR reuse windows vary.
            if rng.gen_bool(0.3) {
                now += rng.gen_range(0..150u64);
            }

            assert_eq!(dmb.occupancy(), model.lines.len(), "occupancy {ctx}");
            assert_eq!(
                (
                    dmb.hit_stats().read_hits,
                    dmb.hit_stats().read_misses,
                    dmb.hit_stats().write_hits,
                    dmb.hit_stats().write_misses
                ),
                (
                    model.read_hits,
                    model.read_misses,
                    model.write_hits,
                    model.write_misses
                ),
                "hit stats {ctx}"
            );
            assert_eq!(dmb.evictions(), model.evictions, "evictions {ctx}");
            assert_eq!(
                dmb.dirty_evictions(),
                model.dirty_evictions,
                "dirty evictions {ctx}"
            );
            assert_eq!(dmb.mshr_merges(), model.mshr_merges, "merges {ctx}");
            assert_eq!(dmb.mshr_stalls(), model.mshr_stalls, "stalls {ctx}");
            assert_eq!(
                dmb.line_fills(),
                dmb.evictions() + dmb.line_drops() + dmb.occupancy() as u64,
                "conservation {ctx}"
            );
            for kind in KINDS {
                for index in 0..index_space {
                    let a = LineAddr::new(kind, index);
                    assert_eq!(
                        dmb.contains(a),
                        model.find(a).is_some(),
                        "membership of {a:?} at {ctx}"
                    );
                }
            }
        }
        assert_eq!(
            dram.stats().total(),
            model_dram.stats().total(),
            "seq {seq}: DRAM totals diverged"
        );
        for kind in MatrixKind::ALL {
            assert_eq!(
                dram.stats().kind(kind),
                model_dram.stats().kind(kind),
                "seq {seq}: DRAM {kind:?} traffic diverged"
            );
        }
    }
}

/// A fill whose line is invalidated in flight stays in its MSHR as an
/// orphan: a re-read merges into it, a write-allocate of the address adopts
/// it, and from then on the line is pinned until the fill completes, even
/// when it is the oldest line of the only class in a full buffer.
#[test]
fn orphaned_fill_merges_and_pins_its_write_allocated_line() {
    let cfg = MemConfig {
        dmb_bytes: 4 * 64,
        mshr_count: 4,
        ..MemConfig::default()
    };
    let mut dmb = Dmb::new(&cfg);
    let mut dram = Dram::new(&cfg);
    let mut model = RefDmb::new(&cfg);
    let mut model_dram = Dram::new(&cfg);
    let kind = MatrixKind::Combination;
    let a = LineAddr::new(kind, 0);

    let miss = dmb.read(0, a, &mut dram, AccessPattern::Random);
    assert_eq!(
        (miss.ready, miss.hit),
        model.read(0, a, &mut model_dram, AccessPattern::Random)
    );
    assert!(!miss.hit);
    dmb.invalidate_kind(kind);
    model.invalidate_kind(kind);
    assert!(!dmb.contains(a));

    let merged = dmb.read(1, a, &mut dram, AccessPattern::Random);
    assert_eq!(
        (merged.ready, merged.hit),
        model.read(1, a, &mut model_dram, AccessPattern::Random)
    );
    assert_eq!((merged.ready, merged.hit), (miss.ready, false));
    assert_eq!(dmb.mshr_merges(), 1, "the re-read merged into the orphan");

    let alloc = dmb.write(2, a, &mut dram, true, AccessPattern::Random);
    assert_eq!(
        (alloc.ready, alloc.hit),
        model.write(2, a, &mut model_dram, true, AccessPattern::Random)
    );
    assert!(dmb.contains(a));

    // Fill the buffer with younger lines of the same class; `a` is the
    // oldest line but stays pinned until its fill completes.
    let mut now = 3;
    for index in 1..12 {
        let b = LineAddr::new(kind, index);
        let got = dmb.write(now, b, &mut dram, true, AccessPattern::Random);
        let want = model.write(now, b, &mut model_dram, true, AccessPattern::Random);
        assert_eq!((got.ready, got.hit), want, "write {b:?} at {now}");
        assert_eq!(dmb.evictions(), model.evictions, "evictions at {now}");
        assert_eq!(dmb.contains(a), model.find(a).is_some(), "pin at {now}");
        assert!(dmb.contains(a), "adopted line evicted at {now}");
        now += 1;
    }
    assert!(
        now < miss.ready,
        "the buffer filled before the fill completed"
    );
    assert_eq!(dmb.occupancy(), 4);

    // Once the fill has completed, `a` is the next victim of its class.
    let late = LineAddr::new(kind, 12);
    let got = dmb.write(miss.ready, late, &mut dram, true, AccessPattern::Random);
    let want = model.write(
        miss.ready,
        late,
        &mut model_dram,
        true,
        AccessPattern::Random,
    );
    assert_eq!((got.ready, got.hit), want);
    assert!(!dmb.contains(a) && model.find(a).is_none());
    assert_eq!(dmb.evictions(), model.evictions);
    assert_eq!(dram.stats().total(), model_dram.stats().total());
}

// ---------------------------------------------------------------------------
// Prefetch resource-discipline model
// ---------------------------------------------------------------------------

/// Drives randomized demand/prefetch interleavings against an external
/// model of the two resource rules the prefetcher must obey:
///
/// 1. **MSHR share** — within any window where no fill can retire, the
///    number of issued prefetches never exceeds `prefetch_mshr_cap`
///    (clamped to `mshr_count - 1`), and prefetches plus demand misses
///    never exceed the pool.
/// 2. **Class ceiling** — a prefetch never shrinks the resident set of any
///    class hotter than its own, issued or dropped.
///
/// The window accounting restarts whenever a demand miss stalls on a full
/// pool (that stall drains retired fills on the DMB's internal clock, which
/// this model cannot see) and across large time jumps that retire
/// everything in flight.
#[test]
fn prefetch_respects_mshr_share_and_class_ceiling() {
    let mut issued_total = 0u64;
    let mut cap_drops_total = 0u64;
    for seq in 0..40u64 {
        let mut rng = Pcg64::seed_from_u64(0xFE7C ^ seq);
        let cfg = MemConfig {
            dmb_bytes: (3 + (seq as usize % 6)) * 64,
            mshr_count: 2 + (seq as usize % 5),
            prefetch_mshr_cap: 1 + (seq as usize % 4),
            class_eviction: seq % 3 != 0,
            ..MemConfig::default()
        };
        let cap = cfg.prefetch_mshr_cap.min(cfg.mshr_count - 1);
        let mut dmb = Dmb::new(&cfg);
        let mut dram = Dram::new(&cfg);
        let index_space = 1 + seq % 17;
        let mut now = 0u64;
        for burst in 0..60 {
            // Far enough ahead that every in-flight fill has retired.
            now += 100_000;
            let mut live_prefetch = 0usize;
            let mut live_demand = 0usize;
            for step in 0..rng.gen_range(1..24usize) {
                let addr = LineAddr::new(
                    KINDS[rng.gen_range(0..3usize)],
                    rng.gen_range(0..index_space),
                );
                let ctx = format!("seq {seq} burst {burst} step {step} {addr:?}");
                if rng.gen_bool(0.5) {
                    let stalls_before = dmb.mshr_stalls();
                    let out = dmb.read(now, addr, &mut dram, AccessPattern::Random);
                    if dmb.mshr_stalls() > stalls_before {
                        // The stall drained the pool on the internal clock;
                        // restart the accounting window.
                        now += 100_000;
                        live_prefetch = 0;
                        live_demand = 0;
                    } else if !out.hit {
                        live_demand += 1;
                    }
                } else {
                    let before: Vec<usize> = KINDS.iter().map(|&k| dmb.resident_lines(k)).collect();
                    let outcome = dmb.prefetch(now, addr, &mut dram, AccessPattern::Random);
                    for (i, &kind) in KINDS.iter().enumerate() {
                        if kind.evict_class() > addr.kind.evict_class() {
                            assert!(
                                dmb.resident_lines(kind) >= before[i],
                                "prefetch displaced hotter class {kind:?} at {ctx}"
                            );
                        }
                    }
                    if outcome.is_none() {
                        live_prefetch += 1;
                        assert!(
                            live_prefetch <= cap,
                            "prefetches exceeded their MSHR share ({live_prefetch} > {cap}) \
                             at {ctx}"
                        );
                        assert!(
                            live_prefetch + live_demand <= cfg.mshr_count,
                            "prefetches starved the demand pool at {ctx}"
                        );
                    }
                }
            }
        }
        let stats = dmb.prefetch_stats();
        issued_total += stats.issued;
        cap_drops_total += stats.dropped_mshr_cap;
    }
    assert!(issued_total > 0, "stream never issued a prefetch");
    assert!(
        cap_drops_total > 0,
        "stream never hit the MSHR share cap; the invariant went unexercised"
    );
}

// ---------------------------------------------------------------------------
// Naive LSQ reference model
// ---------------------------------------------------------------------------

/// Store-to-load forwarding restated as a reverse linear scan over a plain
/// entry list — the obviously-correct version of the open-addressed
/// `ForwardIndex`.
struct RefLsq {
    capacity: usize,
    entries: Vec<(LineAddr, u64, bool)>, // (addr, ready, is_store)
    loads: u64,
    stores: u64,
    forwards: u64,
    capacity_stalls: u64,
}

impl RefLsq {
    fn new(cfg: &MemConfig) -> RefLsq {
        RefLsq {
            capacity: cfg.lsq_entries.max(1),
            entries: Vec::new(),
            loads: 0,
            stores: 0,
            forwards: 0,
            capacity_stalls: 0,
        }
    }

    fn admit(&mut self, now: u64) -> u64 {
        if self.entries.len() < self.capacity {
            return now;
        }
        self.capacity_stalls += 1;
        let oldest = self.entries.remove(0);
        now.max(oldest.1)
    }

    fn youngest_store(&self, addr: LineAddr) -> Option<u64> {
        self.entries
            .iter()
            .rev()
            .find(|&&(a, _, is_store)| is_store && a == addr)
            .map(|&(_, ready, _)| ready)
    }

    fn load(&mut self, now: u64, addr: LineAddr) -> Option<u64> {
        let at = self.admit(now);
        self.loads += 1;
        match self.youngest_store(addr) {
            Some(store_ready) => {
                self.forwards += 1;
                let ready = at.max(store_ready) + 1;
                self.entries.push((addr, ready, false));
                Some(ready)
            }
            None => {
                // Mirror the caller protocol: the issued load completes at
                // `at + 1` in this model, reported via complete_load below.
                self.entries.push((addr, at + 1, false));
                None
            }
        }
    }

    fn store(&mut self, now: u64, addr: LineAddr, data_ready: u64) -> u64 {
        let at = self.admit(now);
        self.stores += 1;
        let ready = at.max(data_ready);
        self.entries.push((addr, ready, true));
        ready
    }
}

/// Randomized load/store streams through a small LSQ: forwarding decisions,
/// forwarded-data timing, store admission cycles, occupancy and all counters
/// must match the reverse-scan model. Exercises retirement of stores from a
/// full queue, which is where the open-addressed forward index does its
/// backward-shift deletions.
#[test]
fn lsq_matches_reference_model() {
    for seq in 0..80u64 {
        let mut rng = Pcg64::seed_from_u64(0x15C0 ^ seq);
        let cfg = MemConfig {
            lsq_entries: 2 + (seq as usize % 6),
            ..MemConfig::default()
        };
        let mut lsq = Lsq::new(&cfg);
        let mut model = RefLsq::new(&cfg);
        let index_space = 1 + seq % 13;
        let mut now = 0u64;
        for step in 0..300 {
            let addr = LineAddr::new(
                KINDS[rng.gen_range(0..3usize)],
                rng.gen_range(0..index_space),
            );
            let ctx = format!("seq {seq} step {step} {addr:?}");
            if rng.gen_bool(0.45) {
                let data_ready = now + rng.gen_range(0..20u64);
                let got = lsq.store(now, addr, data_ready);
                let want = model.store(now, addr, data_ready);
                assert_eq!(got, want, "store {ctx}");
            } else {
                let got = lsq.load(now, addr);
                let want = model.load(now, addr);
                match (got, want) {
                    (LoadPath::Forwarded { ready }, Some(model_ready)) => {
                        assert_eq!(ready, model_ready, "forward {ctx}");
                    }
                    (LoadPath::Issue { at }, None) => {
                        // Complete the issued load exactly as the model does.
                        lsq.complete_load(addr, at + 1);
                    }
                    (got, want) => panic!("path diverged at {ctx}: {got:?} vs {want:?}"),
                }
            }
            now += rng.gen_range(0..3u64);
            assert_eq!(lsq.occupancy(), model.entries.len(), "occupancy {ctx}");
            let s = lsq.stats();
            assert_eq!(
                (s.loads, s.stores, s.forwards, s.capacity_stalls),
                (
                    model.loads,
                    model.stores,
                    model.forwards,
                    model.capacity_stalls
                ),
                "stats {ctx}"
            );
        }
        assert!(
            lsq.stats().capacity_stalls > 0,
            "seq {seq}: stream never filled the queue; retirement untested"
        );
    }
}
