//! The unified dense matrix buffer (DMB).
//!
//! Unlike prior GCN accelerators with separate per-matrix buffers, HyMM's
//! DMB is a single 256 KB buffer shared by `W`, `XW` and `AXW` lines
//! (paper §III/§IV-D). Capacity is managed with an LRU policy that evicts in
//! **class order** — `W` first, then `XW`, retaining `AXW` partial outputs —
//! so whichever dataflow is running automatically gets the space split the
//! paper describes ("the unified buffer holds a substantial quantity of XW"
//! during RWP, more output space during OP).
//!
//! The buffer has one read and one write port (one request each per cycle),
//! a configurable number of MSHRs for outstanding read misses, and a
//! near-memory accumulator used by the engines to merge partial outputs on
//! write hits without occupying the PE adders.
//!
//! # Implementation
//!
//! `read`/`write` sit on the simulator's innermost loop (once per non-zero
//! per engine), so the line table is allocation-free in steady state: line
//! state lives in a pre-sized arena of [`LineSlot`]s, addressed through an
//! open-addressed bucket array (linear probing, backward-shift deletion),
//! and recency is tracked by intrusive doubly-linked LRU lists per eviction
//! class threaded through the arena. Touch, insert, evict and lookup are all
//! O(1). Outstanding fills sit in a queue ordered by completion cycle, and
//! each pins its line through a `filling` bit in the line's slot, so reaping
//! pops from the front and the victim walk reads one bit per line. The
//! timing behaviour is identical to the original map-based implementation —
//! the `timing_golden` integration tests pin it bit-for-bit.

use crate::address::{LineAddr, MatrixKind};
use crate::config::MemConfig;
use crate::dram::{AccessPattern, Dram};
use crate::prefetch::{PrefetchDrop, PrefetchStats};
use crate::stats::HitStats;
use crate::trace::{AccessClass, TraceData, TraceEvent, TraceKind, TraceRing, Track};
use std::collections::VecDeque;

/// Niche marker for intrusive links and bucket entries.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct LineSlot {
    addr: LineAddr,
    dirty: bool,
    /// Speculatively filled by the prefetcher and not yet touched by a
    /// demand access. Cleared by the first demand hit (counted useful);
    /// still set at removal means the prefetch was wasted.
    prefetched: bool,
    /// Cycle at which the line's fill completes (0 for write-allocated).
    ready_at: u64,
    /// An outstanding fill (an MSHR) targets this line, so it may not be
    /// evicted. Set when the fill is issued or an orphaned fill is adopted,
    /// cleared when the fill retires.
    filling: bool,
    /// LRU timestamp; unique per touch. Orders victims across classes when
    /// class eviction is disabled.
    lru: u64,
    /// Intrusive per-class LRU list: towards the older neighbour.
    prev: u32,
    /// Intrusive per-class LRU list: towards the newer neighbour.
    next: u32,
    /// Bucket currently pointing at this slot, kept in step by insert,
    /// backward-shift deletion and growth. Lets eviction — which walks LRU
    /// lists and therefore knows the slot, not the bucket — remove without
    /// re-probing the hash table.
    bucket: u32,
}

/// Fixed-capacity open-addressed map from [`LineAddr`] to arena slots, with
/// intrusive per-class LRU lists (head = oldest, tail = newest).
///
/// Buckets hold arena indices, so backward-shift deletion moves only bucket
/// entries; arena indices stay stable and the intrusive links never need
/// fixing up. Growth happens only if the buffer oversubscribes far beyond
/// `capacity + mshr_count` (not reachable in practice) — steady state never
/// allocates.
#[derive(Debug, Clone)]
struct LineTable {
    /// Arena index per bucket, `NIL` when empty.
    buckets: Vec<u32>,
    mask: usize,
    slots: Vec<LineSlot>,
    free: Vec<u32>,
    len: usize,
    /// Oldest resident line per eviction class.
    heads: [u32; 3],
    /// Newest resident line per eviction class.
    tails: [u32; 3],
    /// MRU probe hint: arena slot of the most recently looked-up or
    /// inserted line, `NIL` when invalid. Engines touch the same line
    /// repeatedly (per-column dense rows, per-row output lines), so one
    /// address compare usually replaces the whole hash walk. The hint is
    /// cleared whenever its slot is removed, so a valid hint always names a
    /// live slot and the `slots[mru].addr == addr` check is sound even
    /// after arena slots are recycled.
    mru: u32,
}

fn hash_addr(addr: LineAddr) -> u64 {
    let key = (addr.index << 3) ^ addr.kind.index() as u64;
    // Fibonacci multiplicative hash; full-width mix is plenty for line
    // indices, which are near-sequential per kind.
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl LineTable {
    fn with_capacity(lines: usize) -> LineTable {
        let buckets = (lines * 2).next_power_of_two().max(8);
        LineTable {
            buckets: vec![NIL; buckets],
            mask: buckets - 1,
            slots: Vec::with_capacity(lines),
            free: Vec::with_capacity(lines),
            len: 0,
            heads: [NIL; 3],
            tails: [NIL; 3],
            mru: NIL,
        }
    }

    fn home_bucket(&self, addr: LineAddr) -> usize {
        (hash_addr(addr) as usize) & self.mask
    }

    /// Bucket currently holding `addr`, if resident.
    fn find_bucket(&self, addr: LineAddr) -> Option<usize> {
        let mut b = self.home_bucket(addr);
        loop {
            let r = self.buckets[b];
            if r == NIL {
                return None;
            }
            if self.slots[r as usize].addr == addr {
                return Some(b);
            }
            b = (b + 1) & self.mask;
        }
    }

    /// Arena slot currently holding `addr`, if resident. Probes the MRU
    /// hint first — one compare against a live slot — and falls back to the
    /// hash walk, refreshing the hint on success.
    fn find_slot(&mut self, addr: LineAddr) -> Option<u32> {
        if self.mru != NIL && self.slots[self.mru as usize].addr == addr {
            return Some(self.mru);
        }
        let idx = self.buckets[self.find_bucket(addr)?];
        self.mru = idx;
        Some(idx)
    }

    #[cfg(test)]
    fn get(&mut self, addr: LineAddr) -> Option<&LineSlot> {
        self.find_slot(addr).map(|idx| &self.slots[idx as usize])
    }

    fn unlink(&mut self, idx: u32) {
        let slot = self.slots[idx as usize];
        let class = slot.addr.kind.evict_class() as usize;
        match slot.prev {
            NIL => self.heads[class] = slot.next,
            p => self.slots[p as usize].next = slot.next,
        }
        match slot.next {
            NIL => self.tails[class] = slot.prev,
            n => self.slots[n as usize].prev = slot.prev,
        }
    }

    fn push_newest(&mut self, idx: u32, class: usize) {
        let tail = self.tails[class];
        self.slots[idx as usize].prev = tail;
        self.slots[idx as usize].next = NIL;
        match tail {
            NIL => self.heads[class] = idx,
            t => self.slots[t as usize].next = idx,
        }
        self.tails[class] = idx;
    }

    /// Prepends at the **oldest** end of the class list — prefetched lines
    /// land here so a wrong prefetch is the next victim of its class rather
    /// than displacing demand-touched lines.
    fn push_oldest(&mut self, idx: u32, class: usize) {
        let head = self.heads[class];
        self.slots[idx as usize].prev = NIL;
        self.slots[idx as usize].next = head;
        match head {
            NIL => self.tails[class] = idx,
            h => self.slots[h as usize].prev = idx,
        }
        self.heads[class] = idx;
    }

    /// Moves a resident line to the newest end of its class list with a
    /// fresh timestamp.
    #[cfg(test)]
    fn touch(&mut self, addr: LineAddr, tick: u64) {
        if let Some(idx) = self.find_slot(addr) {
            self.touch_slot(idx, tick);
        }
    }

    /// [`Self::touch`] for a slot already located by [`Self::find_slot`] —
    /// the hot read/write paths look the line up exactly once.
    fn touch_slot(&mut self, idx: u32, tick: u64) {
        let class = self.slots[idx as usize].addr.kind.evict_class() as usize;
        // Already the newest of its class: unlink + re-append would put it
        // right back, so only the timestamp needs refreshing. Engines hit
        // the same line repeatedly (dense-row chunks, output rows), making
        // this the common case.
        if self.tails[class] != idx {
            self.unlink(idx);
            self.push_newest(idx, class);
        }
        self.slots[idx as usize].lru = tick;
        self.check_after_mutation();
    }

    /// Inserts a line at the newest end of its class; returns its arena
    /// index, which stays valid until the line is removed.
    fn insert(&mut self, addr: LineAddr, dirty: bool, ready_at: u64, tick: u64) -> u32 {
        self.insert_full(addr, dirty, false, ready_at, tick, false)
    }

    /// Inserts a speculative line at the **LRU** end of its class with the
    /// `prefetched` marker set; the MRU probe hint is left on the demand
    /// stream's last line.
    fn insert_prefetched(&mut self, addr: LineAddr, ready_at: u64, tick: u64) -> u32 {
        self.insert_full(addr, false, true, ready_at, tick, true)
    }

    fn insert_full(
        &mut self,
        addr: LineAddr,
        dirty: bool,
        prefetched: bool,
        ready_at: u64,
        tick: u64,
        at_lru: bool,
    ) -> u32 {
        if (self.len + 1) * 4 >= self.buckets.len() * 3 {
            self.grow();
        }
        let slot = LineSlot {
            addr,
            dirty,
            prefetched,
            ready_at,
            filling: false,
            lru: tick,
            prev: NIL,
            next: NIL,
            bucket: NIL,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = slot;
                idx
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        let mut b = self.home_bucket(addr);
        while self.buckets[b] != NIL {
            b = (b + 1) & self.mask;
        }
        self.buckets[b] = idx;
        self.slots[idx as usize].bucket = b as u32;
        self.len += 1;
        let class = addr.kind.evict_class() as usize;
        if at_lru {
            self.push_oldest(idx, class);
        } else {
            self.push_newest(idx, class);
            self.mru = idx;
        }
        self.check_after_mutation();
        idx
    }

    /// Oldest line of `class` with no fill in flight, as `(lru, slot)`. The
    /// walk from the LRU end passes at most the filling lines, so it is
    /// bounded by the MSHR count, not the buffer size.
    fn oldest_unpinned(&self, class: usize) -> Option<(u64, u32)> {
        let mut idx = self.heads[class];
        while idx != NIL {
            let slot = &self.slots[idx as usize];
            if !slot.filling {
                return Some((slot.lru, idx));
            }
            idx = slot.next;
        }
        None
    }

    /// Removes `addr` and returns its state; backward-shift deletion keeps
    /// every remaining probe chain intact without tombstones.
    fn remove(&mut self, addr: LineAddr) -> Option<LineSlot> {
        let bucket = self.find_bucket(addr)?;
        Some(self.remove_bucket(bucket))
    }

    /// [`Self::remove`] for a slot already located (eviction walks the LRU
    /// lists, so it has the slot and its back-referenced bucket — no probe).
    fn remove_slot(&mut self, idx: u32) -> LineSlot {
        self.remove_bucket(self.slots[idx as usize].bucket as usize)
    }

    fn remove_bucket(&mut self, bucket: usize) -> LineSlot {
        let idx = self.buckets[bucket];
        self.unlink(idx);
        self.free.push(idx);
        self.len -= 1;
        if self.mru == idx {
            self.mru = NIL;
        }
        let removed = self.slots[idx as usize];

        let mask = self.mask;
        let mut hole = bucket;
        let mut j = bucket;
        loop {
            j = (j + 1) & mask;
            let r = self.buckets[j];
            if r == NIL {
                break;
            }
            let home = self.home_bucket(self.slots[r as usize].addr);
            // The entry at `j` may fill the hole only if its home bucket is
            // cyclically at or before the hole (probe chains must stay
            // contiguous from each entry's home).
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.buckets[hole] = r;
                self.slots[r as usize].bucket = hole as u32;
                hole = j;
            }
        }
        self.buckets[hole] = NIL;
        self.check_after_mutation();
        removed
    }

    fn grow(&mut self) {
        let new_len = self.buckets.len() * 2;
        self.buckets = vec![NIL; new_len];
        self.mask = new_len - 1;
        // Re-insert every live arena slot; arena indices are unchanged.
        for class in 0..3 {
            let mut idx = self.heads[class];
            while idx != NIL {
                let addr = self.slots[idx as usize].addr;
                let mut b = self.home_bucket(addr);
                while self.buckets[b] != NIL {
                    b = (b + 1) & self.mask;
                }
                self.buckets[b] = idx;
                self.slots[idx as usize].bucket = b as u32;
                idx = self.slots[idx as usize].next;
            }
        }
    }

    /// O(table) structural self-check, compiled in only with the `audit`
    /// feature (and in tests). Verifies the three redundant views of the
    /// table — bucket array, arena free list, intrusive LRU lists — agree:
    /// every probe chain is contiguous from its home bucket (the property
    /// backward-shift deletion must preserve), no address appears twice,
    /// occupancy accounting matches, and each class list is a well-formed
    /// doubly-linked chain covering exactly the resident lines of its class.
    #[cfg(any(test, feature = "audit"))]
    fn check(&self) {
        let mut seen = std::collections::HashSet::new();
        let mut live = 0usize;
        for (j, &r) in self.buckets.iter().enumerate() {
            if r == NIL {
                continue;
            }
            live += 1;
            let slot = &self.slots[r as usize];
            assert_eq!(
                slot.bucket as usize, j,
                "audit: bucket back-reference of {:?} is stale",
                slot.addr
            );
            assert!(
                seen.insert(slot.addr),
                "audit: duplicate resident address {:?}",
                slot.addr
            );
            let mut b = self.home_bucket(slot.addr);
            while b != j {
                assert_ne!(
                    self.buckets[b],
                    NIL,
                    "audit: probe chain for {:?} broken at bucket {b} (home \
                     {}, stored at {j})",
                    slot.addr,
                    self.home_bucket(slot.addr)
                );
                b = (b + 1) & self.mask;
            }
        }
        assert_eq!(live, self.len, "audit: occupied buckets vs len");
        assert_eq!(
            self.slots.len() - self.free.len(),
            self.len,
            "audit: arena minus free list vs len"
        );
        let mut listed = 0usize;
        for class in 0..3 {
            let mut idx = self.heads[class];
            let mut prev = NIL;
            while idx != NIL {
                let slot = &self.slots[idx as usize];
                assert_eq!(slot.prev, prev, "audit: prev link in class {class}");
                assert_eq!(
                    slot.addr.kind.evict_class() as usize,
                    class,
                    "audit: {:?} linked into wrong class list",
                    slot.addr
                );
                assert!(
                    seen.contains(&slot.addr),
                    "audit: listed line {:?} missing from buckets",
                    slot.addr
                );
                listed += 1;
                assert!(listed <= self.len, "audit: cycle in class {class} list");
                prev = idx;
                idx = slot.next;
            }
            assert_eq!(self.tails[class], prev, "audit: tail of class {class}");
        }
        assert_eq!(listed, self.len, "audit: class lists cover residents");
        if self.mru != NIL {
            let hinted = self.slots[self.mru as usize].addr;
            let via_walk = self
                .find_bucket(hinted)
                .map(|b| self.buckets[b])
                .expect("audit: MRU hint names a non-resident address");
            assert_eq!(via_walk, self.mru, "audit: MRU hint points at a stale slot");
        }
    }

    /// Mutation epilogue: a no-op unless the `audit` feature is on.
    #[inline]
    fn check_after_mutation(&self) {
        #[cfg(feature = "audit")]
        self.check();
    }
}

/// One outstanding fill (an MSHR).
#[derive(Debug, Clone, Copy)]
struct Mshr {
    addr: LineAddr,
    ready: u64,
    /// Allocated by the prefetcher rather than a demand miss; counts
    /// against [`MemConfig::prefetch_mshr_cap`] until reaped.
    prefetch: bool,
    /// The line was dropped by `flush_kind`/`invalidate_kind` while its fill
    /// was in flight. An orphan pins nothing; it still holds its MSHR,
    /// merges later reads of its address, and a write-allocate of that
    /// address adopts it.
    orphan: bool,
    /// Arena index of the filling line; stale while `orphan`.
    slot: u32,
}

/// Outcome of a [`Dmb::read`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Cycle at which the data is available to the requester.
    pub ready: u64,
    /// Whether the line was resident (including hit-under-fill).
    pub hit: bool,
}

/// Outcome of a [`Dmb::write`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Cycle at which the write has been accepted by the buffer.
    pub ready: u64,
    /// Whether the target line was already resident — for partial-output
    /// writes this is the "can merge in place" signal.
    pub hit: bool,
}

/// The unified dense matrix buffer.
///
/// # Example
///
/// ```
/// use hymm_mem::dram::{AccessPattern, Dram};
/// use hymm_mem::{Dmb, LineAddr, MatrixKind, MemConfig};
///
/// let config = MemConfig::default();
/// let mut dram = Dram::new(&config);
/// let mut dmb = Dmb::new(&config);
/// let addr = LineAddr::new(MatrixKind::Combination, 7);
/// let miss = dmb.read(0, addr, &mut dram, AccessPattern::Random);
/// assert!(!miss.hit);
/// let hit = dmb.read(miss.ready, addr, &mut dram, AccessPattern::Random);
/// assert!(hit.hit); // second access finds the line resident
/// ```
#[derive(Debug, Clone)]
pub struct Dmb {
    capacity_lines: usize,
    line_bytes: u64,
    hit_latency: u64,
    mshr_count: usize,
    class_eviction: bool,
    lines: LineTable,
    lru_tick: u64,
    /// Outstanding fills sorted by `ready`, ties in issue order: the front
    /// is the next fill to complete.
    mshrs: VecDeque<Mshr>,
    /// Fills in `mshrs` holding prefetches (`<= prefetch_mshr_cap`).
    mshr_prefetch_live: usize,
    /// Cap on `mshr_prefetch_live`, clamped below the pool size so demand
    /// misses always find a slot eventually.
    prefetch_mshr_cap: usize,
    /// Orphaned fills in `mshrs`. Every other fill's line is resident, so
    /// while this is zero a non-resident address has no fill in flight.
    mshr_orphans: usize,
    read_port_free: u64,
    write_port_free: u64,
    /// Reused by `flush_kind`/`invalidate_kind` so drains don't allocate.
    drain_scratch: Vec<LineAddr>,
    hits: HitStats,
    /// Lines ever inserted (fills + write allocations). Together with
    /// `line_drops` this closes the occupancy conservation law the audit
    /// layer checks: `line_fills == evictions + line_drops + occupancy`.
    line_fills: u64,
    /// Lines removed by `flush_kind`/`invalidate_kind` (not evictions).
    line_drops: u64,
    evictions: u64,
    dirty_evictions: u64,
    mshr_merges: u64,
    mshr_stalls: u64,
    /// Total cycles primary misses waited for a free MSHR (the depth behind
    /// `mshr_stalls`).
    mshr_stall_cycles: u64,
    /// Total cycles between presentation and data-ready across read misses
    /// (primary and secondary) — the miss-latency component of the stall
    /// waterfall.
    miss_latency_cycles: u64,
    accumulator_merges: u64,
    /// Data-prefetcher accuracy/coverage/timeliness counters.
    prefetch_stats: PrefetchStats,
    trace: Option<Box<TraceRing>>,
    /// Port-grant cycle of the access currently being served; events emitted
    /// by shared helpers (eviction, MSHR allocation) are stamped with it so
    /// each port's track stays in non-decreasing timestamp order.
    port_ts: u64,
    /// Track of the port currently being served (read or write).
    port_track: Track,
}

impl Dmb {
    /// Creates an empty buffer from the memory configuration.
    pub fn new(config: &MemConfig) -> Dmb {
        let capacity_lines = config.dmb_lines().max(1);
        let mshr_count = config.mshr_count.max(1);
        Dmb {
            capacity_lines,
            line_bytes: config.line_bytes as u64,
            hit_latency: config.dmb_hit_latency,
            mshr_count,
            class_eviction: config.class_eviction,
            // Outstanding fills keep victims pinned, so occupancy can
            // transiently exceed the nominal capacity by the MSHR count.
            lines: LineTable::with_capacity(capacity_lines + mshr_count),
            lru_tick: 0,
            mshrs: VecDeque::with_capacity(mshr_count),
            mshr_prefetch_live: 0,
            prefetch_mshr_cap: config.prefetch_mshr_cap.min(mshr_count.saturating_sub(1)),
            mshr_orphans: 0,
            read_port_free: 0,
            write_port_free: 0,
            drain_scratch: Vec::new(),
            hits: HitStats::default(),
            line_fills: 0,
            line_drops: 0,
            evictions: 0,
            dirty_evictions: 0,
            mshr_merges: 0,
            mshr_stalls: 0,
            mshr_stall_cycles: 0,
            miss_latency_cycles: 0,
            accumulator_merges: 0,
            prefetch_stats: PrefetchStats::default(),
            trace: config.trace_ring(),
            port_ts: 0,
            port_track: Track::DmbRead,
        }
    }

    fn touch_slot(&mut self, idx: u32) {
        self.lru_tick += 1;
        let tick = self.lru_tick;
        self.lines.touch_slot(idx, tick);
    }

    /// Emits an event on the track of the port currently being served,
    /// stamped at that port's grant cycle.
    fn trace_port_event(&mut self, kind: TraceKind) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.push(TraceEvent {
                track: self.port_track,
                kind,
                ts: self.port_ts,
                dur: 0,
            });
        }
    }

    /// Audit: re-derives the MSHR queue's invariants from the line table.
    /// The queue is in completion order and within the pool; each fill
    /// that is not an orphan names a live slot holding its address with the
    /// `filling` bit set, and no other slot has that bit; each orphan's
    /// address is not resident; the orphan and prefetch counts match.
    #[cfg(any(test, feature = "audit"))]
    fn check_mshr_tracking(&self) {
        assert!(
            self.mshrs.len() <= self.mshr_count,
            "audit: {} fills in flight exceed the {} MSHRs",
            self.mshrs.len(),
            self.mshr_count
        );
        assert!(
            self.mshrs
                .iter()
                .zip(self.mshrs.iter().skip(1))
                .all(|(a, b)| a.ready <= b.ready),
            "audit: MSHR queue is out of completion order"
        );
        let mut orphans = 0;
        for m in &self.mshrs {
            if m.orphan {
                orphans += 1;
                assert!(
                    self.lines.find_bucket(m.addr).is_none(),
                    "audit: orphaned fill {:?} is resident",
                    m.addr
                );
                continue;
            }
            let slot = &self.lines.slots[m.slot as usize];
            assert!(
                self.lines.buckets[slot.bucket as usize] == m.slot,
                "audit: fill {:?} names a freed slot",
                m.addr
            );
            assert_eq!(slot.addr, m.addr, "audit: fill names another line's slot");
            assert!(
                slot.filling,
                "audit: line {:?} is not pinned by its fill",
                m.addr
            );
        }
        assert_eq!(orphans, self.mshr_orphans, "audit: orphan count vs queue");
        let pinned = (self.lines.buckets.iter())
            .filter(|&&r| r != NIL && self.lines.slots[r as usize].filling)
            .count();
        assert_eq!(
            pinned,
            self.mshrs.len() - orphans,
            "audit: filling lines vs fills that are not orphans"
        );
        let prefetch_live = self.mshrs.iter().filter(|m| m.prefetch).count();
        assert_eq!(
            prefetch_live, self.mshr_prefetch_live,
            "audit: mshr_prefetch_live vs queue"
        );
        assert!(
            prefetch_live <= self.prefetch_mshr_cap,
            "audit: prefetches exceed their MSHR cap"
        );
    }

    /// MSHR mutation epilogue: a no-op unless the `audit` feature is on.
    #[inline]
    fn check_mshr_after_mutation(&self) {
        #[cfg(feature = "audit")]
        self.check_mshr_tracking();
    }

    /// Completion cycle of the fill in flight for a non-resident `addr`.
    /// Every fill but an orphan has its line resident, so with no orphan the
    /// answer is `None` without a scan.
    fn mshr_lookup(&self, addr: LineAddr) -> Option<u64> {
        if self.mshr_orphans == 0 {
            return None;
        }
        self.mshrs.iter().find(|m| m.addr == addr).map(|m| m.ready)
    }

    /// Traces the allocation of a fill for `addr`, counting it in the
    /// occupancy. Emitted before the evictions that make room for its line.
    fn trace_mshr_allocate(&mut self, addr: LineAddr, ready: u64) {
        if self.trace.is_some() {
            self.trace_port_event(TraceKind::MshrAllocate {
                addr,
                occupancy: self.mshrs.len() as u32 + 1,
                ready,
            });
        }
    }

    /// Queues a fill into the line at arena index `slot` and pins that line.
    fn mshr_insert(&mut self, addr: LineAddr, ready: u64, prefetch: bool, slot: u32) {
        self.lines.slots[slot as usize].filling = true;
        if prefetch {
            self.mshr_prefetch_live += 1;
        }
        // Scan from the back past later completions. On one DRAM channel
        // each read completes strictly after the previous one, so the scan
        // stops at once.
        let mut at = self.mshrs.len();
        while at > 0 && self.mshrs[at - 1].ready > ready {
            at -= 1;
        }
        let fill = Mshr {
            addr,
            ready,
            prefetch,
            orphan: false,
            slot,
        };
        self.mshrs.insert(at, fill);
        self.check_mshr_after_mutation();
    }

    /// Inserts a line after making room; returns its arena index.
    fn insert_line(
        &mut self,
        addr: LineAddr,
        dirty: bool,
        ready_at: u64,
        now: u64,
        dram: &mut Dram,
    ) -> u32 {
        // With every line in flight this leaves the buffer full: oversubscribe
        // rather than deadlock.
        self.make_room_up_to_class(now, 2, dram);
        self.lru_tick += 1;
        let tick = self.lru_tick;
        self.line_fills += 1;
        self.lines.insert(addr, dirty, ready_at, tick)
    }

    /// Retires every fill that has completed by `now`, in completion order,
    /// unpinning each one's line.
    fn reap_mshrs(&mut self, now: u64) {
        // Nothing has completed: skip the audit epilogue too.
        if self.mshrs.front().is_none_or(|m| m.ready > now) {
            return;
        }
        while let Some(m) = self.mshrs.pop_front_if(|m| m.ready <= now) {
            if m.orphan {
                self.mshr_orphans -= 1;
            } else {
                self.lines.slots[m.slot as usize].filling = false;
            }
            if m.prefetch {
                self.mshr_prefetch_live -= 1;
            }
            if let Some(t) = self.trace.as_deref_mut() {
                // Completion-ordered stream: both ports reap on their own
                // clocks, so this track is not monotone.
                t.push(TraceEvent {
                    track: Track::MshrRetire,
                    kind: TraceKind::MshrRetire {
                        addr: m.addr,
                        occupancy: self.mshrs.len() as u32,
                    },
                    ts: now,
                    dur: 0,
                });
                if m.prefetch {
                    t.push(TraceEvent {
                        track: Track::Prefetch,
                        kind: TraceKind::PrefetchFill { addr: m.addr },
                        ts: now,
                        dur: 0,
                    });
                }
            }
        }
        self.check_mshr_after_mutation();
    }

    /// First demand touch of a prefetched line: clears the marker, counts
    /// the prefetch useful, and attributes `waited` residual fill cycles to
    /// the `prefetch-late` class (the hit path's `max(ready_at)` already
    /// models the wait; this only labels it).
    fn demand_claims_prefetch(&mut self, idx: u32, start: u64, waited: u64) {
        let slot = &mut self.lines.slots[idx as usize];
        slot.prefetched = false;
        let addr = slot.addr;
        self.prefetch_stats.useful += 1;
        if waited > 0 {
            self.prefetch_stats.late += 1;
            self.prefetch_stats.late_cycles += waited;
            if let Some(t) = self.trace.as_deref_mut() {
                t.push(TraceEvent {
                    track: Track::Prefetch,
                    kind: TraceKind::PrefetchLate { addr, waited },
                    ts: start,
                    dur: 0,
                });
            }
        }
    }

    /// Records one dropped prefetch candidate.
    fn drop_prefetch(&mut self, now: u64, addr: LineAddr, reason: PrefetchDrop) -> PrefetchDrop {
        self.prefetch_stats.record_drop(reason);
        if let Some(t) = self.trace.as_deref_mut() {
            t.push(TraceEvent {
                track: Track::Prefetch,
                kind: TraceKind::PrefetchDropped { addr, reason },
                ts: now,
                dur: 0,
            });
        }
        reason
    }

    /// Evicts lines until the buffer has room, following class priority
    /// then LRU (or plain global LRU when class eviction is disabled) and
    /// skipping lines with a fill in flight. Only classes `0..=max_class`
    /// are considered — a prefetch never displaces a line of a hotter class
    /// than its own. Returns `false` (leaving any legal evictions it already
    /// made in place) when no such victim exists.
    fn make_room_up_to_class(&mut self, now: u64, max_class: usize, dram: &mut Dram) -> bool {
        while self.lines.len >= self.capacity_lines {
            let victim = if self.class_eviction {
                (0..=max_class).find_map(|c| self.lines.oldest_unpinned(c))
            } else {
                // Plain LRU: oldest tick across the classes.
                (0..=max_class)
                    .filter_map(|c| self.lines.oldest_unpinned(c))
                    .min_by_key(|&(tick, _)| tick)
            };
            let Some((_, idx)) = victim else {
                return false;
            };
            let line = self.lines.remove_slot(idx);
            self.evictions += 1;
            if line.prefetched {
                self.prefetch_stats.evicted_unused += 1;
            }
            if line.dirty {
                self.dirty_evictions += 1;
                // Evicted victims scatter: charged as random traffic.
                dram.write(now, line.addr.kind, self.line_bytes, AccessPattern::Random);
            }
            if self.trace.is_some() {
                self.trace_port_event(TraceKind::DmbEvict {
                    addr: line.addr,
                    dirty: line.dirty,
                });
            }
        }
        true
    }

    /// Presents a speculative fill of `addr` at cycle `now`, issued by the
    /// machine's prefetcher. Consumes **no port time** (the prefetcher has
    /// its own request path into the MSHR pool) and never stalls: any
    /// resource conflict drops the candidate and reports why.
    ///
    /// Returns `None` when the prefetch was issued, `Some(reason)` when it
    /// was dropped.
    pub fn prefetch(
        &mut self,
        now: u64,
        addr: LineAddr,
        dram: &mut Dram,
        pattern: AccessPattern,
    ) -> Option<PrefetchDrop> {
        self.reap_mshrs(now);
        if self.contains(addr) || self.mshr_lookup(addr).is_some() {
            return Some(self.drop_prefetch(now, addr, PrefetchDrop::Redundant));
        }
        if self.mshrs.len() >= self.mshr_count || self.mshr_prefetch_live >= self.prefetch_mshr_cap
        {
            return Some(self.drop_prefetch(now, addr, PrefetchDrop::MshrCap));
        }
        // One access latency of backlog is the horizon: if no channel frees
        // within it, the system is bandwidth-bound and speculative traffic
        // would only push demand transfers further out.
        if dram.backlogged(now, dram.latency()) {
            return Some(self.drop_prefetch(now, addr, PrefetchDrop::DramBusy));
        }
        // Shared-helper events (eviction, MSHR allocate) issued from here
        // belong to the prefetch clock domain.
        self.port_ts = now;
        self.port_track = Track::Prefetch;
        let class = addr.kind.evict_class() as usize;
        if !self.make_room_up_to_class(now, class, dram) {
            return Some(self.drop_prefetch(now, addr, PrefetchDrop::NoVictim));
        }
        let ready = dram.read(now, addr.kind, self.line_bytes, pattern);
        self.trace_mshr_allocate(addr, ready);
        self.lru_tick += 1;
        let tick = self.lru_tick;
        let slot = self.lines.insert_prefetched(addr, ready, tick);
        self.line_fills += 1;
        self.mshr_insert(addr, ready, true, slot);
        self.prefetch_stats.issued += 1;
        if let Some(t) = self.trace.as_deref_mut() {
            t.push(TraceEvent {
                track: Track::Prefetch,
                kind: TraceKind::PrefetchIssue { addr, ready },
                ts: now,
                dur: 0,
            });
        }
        None
    }

    /// Presents a read request at cycle `now`; `pattern` describes how a
    /// resulting DRAM fill would land on the channel (streaming engines pass
    /// [`AccessPattern::Sequential`], scattered ones [`AccessPattern::Random`]).
    pub fn read(
        &mut self,
        now: u64,
        addr: LineAddr,
        dram: &mut Dram,
        pattern: AccessPattern,
    ) -> ReadOutcome {
        let start = now.max(self.read_port_free);
        self.read_port_free = start + 1;
        self.port_ts = start;
        self.port_track = Track::DmbRead;
        self.reap_mshrs(start);

        if let Some(idx) = self.lines.find_slot(addr) {
            let ready = (start + self.hit_latency).max(self.lines.slots[idx as usize].ready_at);
            self.hits.read_hits += 1;
            if self.lines.slots[idx as usize].prefetched {
                self.demand_claims_prefetch(idx, start, ready - (start + self.hit_latency));
            }
            self.touch_slot(idx);
            if self.trace.is_some() {
                self.trace_port_event(TraceKind::DmbAccess {
                    addr,
                    class: AccessClass::ReadHit,
                    ready,
                });
            }
            return ReadOutcome { ready, hit: true };
        }
        if let Some(fill) = self.mshr_lookup(addr) {
            // Secondary miss merged into the outstanding fill.
            self.mshr_merges += 1;
            self.hits.read_misses += 1;
            let ready = fill.max(start + self.hit_latency);
            self.miss_latency_cycles += ready - start;
            if self.trace.is_some() {
                self.trace_port_event(TraceKind::DmbAccess {
                    addr,
                    class: AccessClass::ReadMissMerge,
                    ready,
                });
            }
            return ReadOutcome { ready, hit: false };
        }
        // Primary miss: allocate an MSHR, stalling if none is free.
        let mut issue = start;
        if self.mshrs.len() >= self.mshr_count {
            // The pool is full of fills completing after `start`; the front
            // one frees first.
            self.mshr_stalls += 1;
            issue = issue.max(self.mshrs[0].ready);
            self.mshr_stall_cycles += issue - start;
            if self.trace.is_some() {
                self.trace_port_event(TraceKind::MshrStall {
                    waited: issue - start,
                });
            }
            self.reap_mshrs(issue);
        }
        let ready = dram.read(issue, addr.kind, self.line_bytes, pattern);
        self.trace_mshr_allocate(addr, ready);
        let slot = self.insert_line(addr, false, ready, issue, dram);
        self.mshr_insert(addr, ready, false, slot);
        self.hits.read_misses += 1;
        self.miss_latency_cycles += ready - start;
        if self.trace.is_some() {
            self.trace_port_event(TraceKind::DmbAccess {
                addr,
                class: AccessClass::ReadMissFill,
                ready,
            });
        }
        ReadOutcome { ready, hit: false }
    }

    /// Presents a write request at cycle `now`.
    ///
    /// With `allocate`, a missing line is write-allocated (full-line write —
    /// no fetch); otherwise the write bypasses the buffer straight to DRAM
    /// (used for streaming output rows the engine will never touch again).
    pub fn write(
        &mut self,
        now: u64,
        addr: LineAddr,
        dram: &mut Dram,
        allocate: bool,
        pattern: AccessPattern,
    ) -> WriteOutcome {
        let start = now.max(self.write_port_free);
        self.write_port_free = start + 1;
        self.port_ts = start;
        self.port_track = Track::DmbWrite;
        self.reap_mshrs(start);

        if let Some(idx) = self.lines.find_slot(addr) {
            self.lines.slots[idx as usize].dirty = true;
            self.hits.write_hits += 1;
            if self.lines.slots[idx as usize].prefetched {
                // Write hits never wait on an in-flight fill (full-line
                // overwrite), so no lateness is charged.
                self.demand_claims_prefetch(idx, start, 0);
            }
            self.touch_slot(idx);
            if self.trace.is_some() {
                self.trace_port_event(TraceKind::DmbAccess {
                    addr,
                    class: AccessClass::WriteHit,
                    ready: start + self.hit_latency,
                });
            }
            return WriteOutcome {
                ready: start + self.hit_latency,
                hit: true,
            };
        }
        self.hits.write_misses += 1;
        if allocate {
            let slot = self.insert_line(addr, true, start + self.hit_latency, start, dram);
            if self.mshr_orphans > 0 {
                self.adopt_orphan(addr, slot);
            }
            if self.trace.is_some() {
                self.trace_port_event(TraceKind::DmbAccess {
                    addr,
                    class: AccessClass::WriteMissAlloc,
                    ready: start + self.hit_latency,
                });
            }
            WriteOutcome {
                ready: start + self.hit_latency,
                hit: false,
            }
        } else {
            dram.write(start, addr.kind, self.line_bytes, pattern);
            if self.trace.is_some() {
                self.trace_port_event(TraceKind::DmbAccess {
                    addr,
                    class: AccessClass::WriteMissBypass,
                    ready: start + 1,
                });
            }
            WriteOutcome {
                ready: start + 1,
                hit: false,
            }
        }
    }

    /// Records a near-memory accumulator merge (engines call this when a
    /// partial-output write hit is merged in place).
    pub fn record_accumulator_merge(&mut self) {
        self.accumulator_merges += 1;
    }

    /// Collects every resident address of `kind` into the reusable drain
    /// scratch (all lines of one kind share an eviction class, so only that
    /// class list is walked).
    fn collect_kind(&mut self, kind: MatrixKind) {
        self.drain_scratch.clear();
        let class = kind.evict_class() as usize;
        let mut idx = self.lines.heads[class];
        while idx != NIL {
            let slot = &self.lines.slots[idx as usize];
            if slot.addr.kind == kind {
                self.drain_scratch.push(slot.addr);
            }
            idx = slot.next;
        }
    }

    /// Writes back all dirty lines of `kind` and drops every line of that
    /// kind; returns the cycle at which the last writeback is accepted.
    pub fn flush_kind(&mut self, now: u64, kind: MatrixKind, dram: &mut Dram) -> u64 {
        self.collect_kind(kind);
        // Deterministic order: by line index.
        let mut sorted = std::mem::take(&mut self.drain_scratch);
        sorted.sort_unstable_by_key(|a| a.index);
        let mut done = now;
        for &addr in &sorted {
            if self.drop_line(addr) {
                // Flushes walk line indices in order: streaming writeback.
                done = done.max(dram.write(done, kind, self.line_bytes, AccessPattern::Sequential));
            }
        }
        self.drain_scratch = sorted;
        done
    }

    /// Drops every line of `kind` without writeback (dead data).
    pub fn invalidate_kind(&mut self, kind: MatrixKind) {
        self.collect_kind(kind);
        let addrs = std::mem::take(&mut self.drain_scratch);
        for &addr in &addrs {
            self.drop_line(addr);
        }
        self.drain_scratch = addrs;
    }

    /// Removes a resident line without writeback; returns whether it was
    /// dirty. A fill still in flight for it is left in its MSHR as an
    /// orphan.
    fn drop_line(&mut self, addr: LineAddr) -> bool {
        let line = self.lines.remove(addr).expect("listed line is resident");
        self.line_drops += 1;
        if line.prefetched {
            self.prefetch_stats.evicted_unused += 1;
        }
        if line.filling {
            let fill = (self.mshrs.iter_mut())
                .find(|m| !m.orphan && m.addr == addr)
                .expect("a filling line has its fill in flight");
            fill.orphan = true;
            self.mshr_orphans += 1;
            self.check_mshr_after_mutation();
        }
        line.dirty
    }

    /// Re-pins the write-allocated line at arena index `slot` under the
    /// orphaned fill of its address, if there is one: the fill is in flight
    /// for that address again, so the line may not be evicted until it
    /// retires.
    fn adopt_orphan(&mut self, addr: LineAddr, slot: u32) {
        if let Some(fill) = self.mshrs.iter_mut().find(|m| m.addr == addr) {
            fill.orphan = false;
            fill.slot = slot;
            self.mshr_orphans -= 1;
            self.lines.slots[slot as usize].filling = true;
            self.check_mshr_after_mutation();
        }
    }

    /// Whether a line is currently resident.
    pub fn contains(&self, addr: LineAddr) -> bool {
        // Read-only MRU probe (a valid hint always names a live slot), then
        // the hash walk; residency queries must not disturb LRU state, so
        // the hint is not refreshed here.
        (self.lines.mru != NIL && self.lines.slots[self.lines.mru as usize].addr == addr)
            || self.lines.find_bucket(addr).is_some()
    }

    /// Number of resident lines of `kind`.
    pub fn resident_lines(&self, kind: MatrixKind) -> usize {
        let class = kind.evict_class() as usize;
        let mut count = 0;
        let mut idx = self.lines.heads[class];
        while idx != NIL {
            let slot = &self.lines.slots[idx as usize];
            if slot.addr.kind == kind {
                count += 1;
            }
            idx = slot.next;
        }
        count
    }

    /// Total resident lines.
    pub fn occupancy(&self) -> usize {
        self.lines.len
    }

    /// Capacity in lines.
    pub fn capacity_lines(&self) -> usize {
        self.capacity_lines
    }

    /// Hit/miss counters.
    pub fn hit_stats(&self) -> HitStats {
        self.hits
    }

    /// Lines ever inserted into the buffer (read fills + write allocations).
    pub fn line_fills(&self) -> u64 {
        self.line_fills
    }

    /// Lines removed by [`Self::flush_kind`]/[`Self::invalidate_kind`]
    /// rather than evicted. `line_fills() == evictions() + line_drops() +
    /// occupancy()` at all times; the audit layer enforces it.
    pub fn line_drops(&self) -> u64 {
        self.line_drops
    }

    /// Total evictions (dirty or clean).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Evictions that wrote data back to DRAM.
    pub fn dirty_evictions(&self) -> u64 {
        self.dirty_evictions
    }

    /// Secondary read misses merged into outstanding MSHRs.
    pub fn mshr_merges(&self) -> u64 {
        self.mshr_merges
    }

    /// Requests that stalled waiting for a free MSHR.
    pub fn mshr_stalls(&self) -> u64 {
        self.mshr_stalls
    }

    /// Total cycles primary misses spent waiting for a free MSHR.
    pub fn mshr_stall_cycles(&self) -> u64 {
        self.mshr_stall_cycles
    }

    /// Total cycles between presentation and data-ready across read misses.
    pub fn miss_latency_cycles(&self) -> u64 {
        self.miss_latency_cycles
    }

    /// Data-prefetcher counters (all zero unless [`Dmb::prefetch`] was
    /// driven).
    pub fn prefetch_stats(&self) -> PrefetchStats {
        self.prefetch_stats
    }

    /// Moves any buffered trace events into `into` (no-op when tracing is
    /// disabled).
    pub fn drain_trace(&mut self, into: &mut TraceData) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.drain_into(into);
        }
    }

    /// Near-memory accumulator merges recorded by the engines.
    pub fn accumulator_merges(&self) -> u64 {
        self.accumulator_merges
    }

    /// Allocation fingerprint of the backing storage, for tests asserting
    /// that the steady-state hot path never reallocates.
    #[cfg(test)]
    fn storage_capacities(&self) -> (usize, usize, usize, usize) {
        (
            self.lines.buckets.len(),
            self.lines.slots.capacity(),
            self.lines.free.capacity(),
            self.mshrs.capacity(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(lines: usize) -> MemConfig {
        MemConfig {
            dmb_bytes: lines * 64,
            ..MemConfig::default()
        }
    }

    fn addr(kind: MatrixKind, i: u64) -> LineAddr {
        LineAddr::new(kind, i)
    }

    #[test]
    fn miss_then_hit() {
        let cfg = small_config(8);
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        let a = addr(MatrixKind::Combination, 0);
        let miss = dmb.read(0, a, &mut dram, AccessPattern::Random);
        assert!(!miss.hit);
        assert!(miss.ready >= 101);
        let hit = dmb.read(miss.ready, a, &mut dram, AccessPattern::Random);
        assert!(hit.hit);
        assert_eq!(hit.ready, miss.ready + cfg.dmb_hit_latency);
    }

    #[test]
    fn hit_under_fill_waits_for_data() {
        let cfg = small_config(8);
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        let a = addr(MatrixKind::Combination, 0);
        let miss = dmb.read(0, a, &mut dram, AccessPattern::Random);
        // Request again before the fill completes: counts as hit, but data
        // is not available earlier than the fill.
        let again = dmb.read(5, a, &mut dram, AccessPattern::Random);
        assert!(again.hit);
        assert!(again.ready >= miss.ready);
    }

    #[test]
    fn secondary_miss_merges_into_mshr() {
        let cfg = small_config(8);
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        let a = addr(MatrixKind::Combination, 0);
        let _ = dmb.read(0, a, &mut dram, AccessPattern::Random);
        // Evict knowledge: the line is resident (in-flight), so a second read
        // is a hit-under-fill, not a merge. Exercise the merge path via a
        // different structure: invalidate the line but keep the MSHR.
        dmb.invalidate_kind(MatrixKind::Combination);
        let merged = dmb.read(1, a, &mut dram, AccessPattern::Random);
        assert!(!merged.hit);
        assert_eq!(dmb.mshr_merges(), 1);
        assert_eq!(
            dram.stats().kind(MatrixKind::Combination).reads,
            1,
            "no second DRAM read"
        );
        assert!(merged.ready >= 101);
    }

    #[test]
    fn write_allocate_and_dirty_eviction() {
        let cfg = small_config(2);
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        for i in 0..3 {
            dmb.write(
                0,
                addr(MatrixKind::Output, i),
                &mut dram,
                true,
                AccessPattern::Random,
            );
        }
        assert_eq!(dmb.occupancy(), 2);
        assert_eq!(dmb.evictions(), 1);
        assert_eq!(dmb.dirty_evictions(), 1);
        assert_eq!(dram.stats().kind(MatrixKind::Output).writes, 1);
    }

    #[test]
    fn write_through_bypasses_buffer() {
        let cfg = small_config(4);
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        let out = dmb.write(
            0,
            addr(MatrixKind::Output, 9),
            &mut dram,
            false,
            AccessPattern::Random,
        );
        assert!(!out.hit);
        assert_eq!(dmb.occupancy(), 0);
        assert_eq!(dram.stats().kind(MatrixKind::Output).write_bytes, 64);
    }

    #[test]
    fn eviction_prefers_weight_class() {
        let cfg = small_config(3);
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        // Fill with one line of each class; Output is the LRU-oldest.
        dmb.write(
            0,
            addr(MatrixKind::Output, 0),
            &mut dram,
            true,
            AccessPattern::Random,
        );
        dmb.write(
            1,
            addr(MatrixKind::Combination, 0),
            &mut dram,
            true,
            AccessPattern::Random,
        );
        dmb.write(
            2,
            addr(MatrixKind::Weight, 0),
            &mut dram,
            true,
            AccessPattern::Random,
        );
        // Insert a fourth line: despite Output being oldest, W must go first.
        dmb.write(
            3,
            addr(MatrixKind::Output, 1),
            &mut dram,
            true,
            AccessPattern::Random,
        );
        assert!(dmb.contains(addr(MatrixKind::Output, 0)));
        assert!(dmb.contains(addr(MatrixKind::Combination, 0)));
        assert!(!dmb.contains(addr(MatrixKind::Weight, 0)));
        // And the next one takes XW, still not the partial outputs.
        dmb.write(
            4,
            addr(MatrixKind::Output, 2),
            &mut dram,
            true,
            AccessPattern::Random,
        );
        assert!(!dmb.contains(addr(MatrixKind::Combination, 0)));
        assert!(dmb.contains(addr(MatrixKind::Output, 0)));
    }

    #[test]
    fn lru_within_class() {
        let cfg = small_config(2);
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        dmb.write(
            0,
            addr(MatrixKind::Combination, 0),
            &mut dram,
            true,
            AccessPattern::Random,
        );
        dmb.write(
            1,
            addr(MatrixKind::Combination, 1),
            &mut dram,
            true,
            AccessPattern::Random,
        );
        // Touch line 0 so line 1 becomes LRU.
        let _ = dmb.read(
            2,
            addr(MatrixKind::Combination, 0),
            &mut dram,
            AccessPattern::Random,
        );
        dmb.write(
            3,
            addr(MatrixKind::Combination, 2),
            &mut dram,
            true,
            AccessPattern::Random,
        );
        assert!(dmb.contains(addr(MatrixKind::Combination, 0)));
        assert!(!dmb.contains(addr(MatrixKind::Combination, 1)));
    }

    #[test]
    fn read_port_serialises() {
        let cfg = small_config(8);
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        dmb.write(
            0,
            addr(MatrixKind::Combination, 0),
            &mut dram,
            true,
            AccessPattern::Random,
        );
        dmb.write(
            0,
            addr(MatrixKind::Combination, 1),
            &mut dram,
            true,
            AccessPattern::Random,
        );
        let a = dmb.read(
            10,
            addr(MatrixKind::Combination, 0),
            &mut dram,
            AccessPattern::Random,
        );
        let b = dmb.read(
            10,
            addr(MatrixKind::Combination, 1),
            &mut dram,
            AccessPattern::Random,
        );
        assert_eq!(a.ready + 1, b.ready); // one port, one cycle apart
    }

    #[test]
    fn mshr_tracking_survives_mixed_traffic() {
        // Drive misses, merges, stalls, reaps, orphaning invalidations and
        // adopting write-allocates through a tiny MSHR file on two DRAM
        // channels, re-deriving the queue order, the pins and the orphan
        // count from the line table at every step.
        let mut cfg = small_config(16);
        cfg.mshr_count = 2;
        cfg.dram_channels = 2;
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        let mut now = 0;
        for i in 0..64u64 {
            let a = addr(MatrixKind::Combination, i % 24);
            let pattern = if i % 2 == 0 {
                AccessPattern::Random
            } else {
                AccessPattern::Sequential
            };
            let o = dmb.read(now, a, &mut dram, pattern);
            dmb.check_mshr_tracking();
            if i % 7 == 0 {
                dmb.invalidate_kind(MatrixKind::Combination);
                dmb.check_mshr_tracking();
                dmb.write(now, a, &mut dram, true, AccessPattern::Random);
                dmb.check_mshr_tracking();
            }
            // Alternate between racing ahead of the fills and waiting them
            // out, so both the stall path and the reap path are exercised.
            now = if i % 3 == 0 { o.ready } else { now + 1 };
        }
        assert!(dmb.mshr_stalls() > 0, "stall path was not exercised");
    }

    #[test]
    fn mshr_limit_stalls() {
        let mut cfg = small_config(64);
        cfg.mshr_count = 2;
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        let r0 = dmb.read(
            0,
            addr(MatrixKind::Combination, 0),
            &mut dram,
            AccessPattern::Random,
        );
        let _r1 = dmb.read(
            0,
            addr(MatrixKind::Combination, 1),
            &mut dram,
            AccessPattern::Random,
        );
        let r2 = dmb.read(
            0,
            addr(MatrixKind::Combination, 2),
            &mut dram,
            AccessPattern::Random,
        );
        assert_eq!(dmb.mshr_stalls(), 1);
        assert!(r2.ready > r0.ready);
    }

    #[test]
    fn flush_writes_dirty_lines_only() {
        let cfg = small_config(8);
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        dmb.write(
            0,
            addr(MatrixKind::Output, 0),
            &mut dram,
            true,
            AccessPattern::Random,
        );
        dmb.write(
            0,
            addr(MatrixKind::Output, 1),
            &mut dram,
            true,
            AccessPattern::Random,
        );
        let fill = dmb.read(
            0,
            addr(MatrixKind::Combination, 0),
            &mut dram,
            AccessPattern::Random,
        ); // clean
        let done = dmb.flush_kind(fill.ready, MatrixKind::Output, &mut dram);
        assert!(done >= fill.ready);
        assert_eq!(dram.stats().kind(MatrixKind::Output).writes, 2);
        assert_eq!(dmb.resident_lines(MatrixKind::Output), 0);
        assert_eq!(dmb.resident_lines(MatrixKind::Combination), 1);
        // flushing the clean combination line produces no DRAM writes
        dmb.flush_kind(done, MatrixKind::Combination, &mut dram);
        assert_eq!(dram.stats().kind(MatrixKind::Combination).writes, 0);
    }

    #[test]
    fn hit_stats_accumulate() {
        let cfg = small_config(8);
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        let a = addr(MatrixKind::Combination, 0);
        let m = dmb.read(0, a, &mut dram, AccessPattern::Random);
        let _ = dmb.read(m.ready, a, &mut dram, AccessPattern::Random);
        dmb.write(m.ready, a, &mut dram, true, AccessPattern::Random);
        let h = dmb.hit_stats();
        assert_eq!(h.read_hits, 1);
        assert_eq!(h.read_misses, 1);
        assert_eq!(h.write_hits, 1);
        assert!((h.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    /// Deletion via backward shift must keep colliding keys reachable —
    /// hammer one table with inserts/removes across kinds and indices and
    /// cross-check membership against a model.
    #[test]
    fn line_table_survives_collision_churn() {
        let mut table = LineTable::with_capacity(8);
        let keys: Vec<LineAddr> = (0..64)
            .map(|i| {
                let kind = match i % 3 {
                    0 => MatrixKind::Weight,
                    1 => MatrixKind::Combination,
                    _ => MatrixKind::Output,
                };
                addr(kind, (i * 17) as u64)
            })
            .collect();
        let mut tick = 0u64;
        for round in 0..4usize {
            for (i, &k) in keys.iter().enumerate() {
                if (i + round) % 2 == 0 {
                    tick += 1;
                    if table.get(k).is_none() {
                        table.insert(k, false, 0, tick);
                    }
                } else if table.get(k).is_some() {
                    table.remove(k);
                }
            }
            for (i, &k) in keys.iter().enumerate() {
                assert_eq!(
                    table.get(k).is_some(),
                    (i + round) % 2 == 0,
                    "round {round} key {i}"
                );
            }
        }
    }

    /// Occupancy conservation: every line that ever entered the buffer is
    /// accounted for as evicted, dropped (flush/invalidate) or resident.
    #[test]
    fn fills_balance_evictions_drops_and_occupancy() {
        let cfg = small_config(4);
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        let mut now = 0;
        for i in 0..12u64 {
            now = dmb
                .read(
                    now,
                    addr(MatrixKind::Combination, i),
                    &mut dram,
                    AccessPattern::Random,
                )
                .ready;
            dmb.write(
                now,
                addr(MatrixKind::Output, i % 5),
                &mut dram,
                true,
                AccessPattern::Random,
            );
        }
        dmb.flush_kind(now, MatrixKind::Output, &mut dram);
        dmb.invalidate_kind(MatrixKind::Combination);
        assert!(dmb.line_fills() > 0);
        assert_eq!(
            dmb.line_fills(),
            dmb.evictions() + dmb.line_drops() + dmb.occupancy() as u64
        );
    }

    /// Backward-shift deletion with a probe chain that wraps past the end of
    /// the bucket array: keys homing at the last bucket spill into buckets
    /// 0, 1, ... and removing from the middle of the chain must pull the
    /// wrapped entries back across the boundary (the `wrapping_sub` distance
    /// comparisons in `remove` are only exercised here). Interleaves removes
    /// with fresh inserts on the same home bucket to churn the chain.
    #[test]
    fn backward_shift_deletion_handles_wraparound() {
        let mut table = LineTable::with_capacity(8); // 16 buckets
        let last = table.buckets.len() - 1;
        // Brute-force line indices whose home bucket is the last one.
        let same_home: Vec<LineAddr> = (0..10_000u64)
            .map(|i| addr(MatrixKind::Combination, i))
            .filter(|&a| table.home_bucket(a) == last)
            .take(8)
            .collect();
        assert_eq!(same_home.len(), 8, "need 8 colliding keys for the test");

        let mut tick = 0u64;
        let mut resident: Vec<LineAddr> = Vec::new();
        // Seed a chain of 4: occupies buckets {last, 0, 1, 2}.
        for &k in &same_home[..4] {
            tick += 1;
            table.insert(k, false, 0, tick);
            resident.push(k);
        }
        // Churn: remove from alternating ends of the chain, insert the next
        // colliding key, and cross-check the whole table each step.
        for (round, &fresh) in same_home[4..].iter().enumerate() {
            let victim = if round % 2 == 0 {
                resident.remove(0) // head of chain: sits at the last bucket
            } else {
                resident.pop().unwrap() // tail: sits past the wraparound
            };
            assert!(table.remove(victim).is_some(), "round {round}");
            table.check();
            tick += 1;
            table.insert(fresh, false, 0, tick);
            resident.push(fresh);
            table.check();
            for &k in &resident {
                assert!(table.get(k).is_some(), "round {round} lost {k:?}");
            }
            assert!(table.get(victim).is_none(), "round {round}");
        }
        // Drain completely through the wrapped chain.
        for &k in &resident {
            assert!(table.remove(k).is_some());
            table.check();
        }
        assert_eq!(table.len, 0);
    }

    /// Model-based property harness: drives the open-addressed line table
    /// through randomized insert/touch/remove sequences and cross-checks
    /// membership, occupancy and full per-class LRU order against a naive
    /// `HashMap` + `Vec` reference model after every operation.
    #[test]
    fn line_table_matches_reference_model_over_randomized_sequences() {
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;

        const SEQUENCES: u64 = 1200;
        const KINDS: [MatrixKind; 3] = [
            MatrixKind::Weight,
            MatrixKind::Combination,
            MatrixKind::Output,
        ];

        for seq in 0..SEQUENCES {
            let mut rng = rand_pcg::Pcg64::seed_from_u64(0xD1FF_B0A7 ^ seq);
            let mut table = LineTable::with_capacity(8);
            let mut member: HashMap<LineAddr, bool> = HashMap::new();
            // Reference recency order per class, oldest first.
            let mut order: [Vec<LineAddr>; 3] = [Vec::new(), Vec::new(), Vec::new()];
            let mut tick = 0u64;
            // Small index spaces force collisions and wraparound chains.
            let index_space = 1 + seq % 41;
            let steps = 30 + (seq % 3) * 10;
            for step in 0..steps {
                let a = addr(
                    KINDS[rng.gen_range(0..3usize)],
                    rng.gen_range(0..index_space),
                );
                let class = a.kind.evict_class() as usize;
                match rng.gen_range(0..4u32) {
                    0 | 1 => {
                        // Insert-if-absent with a random dirty bit.
                        if table.get(a).is_none() {
                            tick += 1;
                            table.insert(a, rng.gen_bool(0.5), tick, tick);
                            member.insert(a, true);
                            order[class].push(a);
                        }
                    }
                    2 => {
                        tick += 1;
                        table.touch(a, tick);
                        if member.get(&a).copied().unwrap_or(false) {
                            order[class].retain(|&x| x != a);
                            order[class].push(a);
                        }
                    }
                    _ => {
                        let got = table.remove(a).is_some();
                        let want = member.remove(&a).is_some();
                        assert_eq!(got, want, "seq {seq} step {step} remove {a:?}");
                        if want {
                            order[class].retain(|&x| x != a);
                        }
                    }
                }
                table.check();
                assert_eq!(table.len, member.len(), "seq {seq} step {step}");
            }
            // Final deep comparison: membership and exact LRU order.
            for &a in member.keys() {
                assert!(table.get(a).is_some(), "seq {seq} model has {a:?}");
            }
            for (class, expect) in order.iter().enumerate() {
                let mut walked = Vec::new();
                let mut idx = table.heads[class];
                while idx != NIL {
                    walked.push(table.slots[idx as usize].addr);
                    idx = table.slots[idx as usize].next;
                }
                assert_eq!(&walked, expect, "seq {seq} class {class} LRU order");
            }
        }
    }

    /// MRU fast path vs. hash-walk path, cross-checked against the naive
    /// `HashMap` model: after every operation, a probe through
    /// [`LineTable::find_slot`] (hint first) must agree with a cold hash
    /// walk and with the model — including immediately after removes, which
    /// recycle arena slots and would turn a stale hint into a false hit.
    #[test]
    fn mru_fast_path_matches_hash_walk_model() {
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;

        const KINDS: [MatrixKind; 3] = [
            MatrixKind::Weight,
            MatrixKind::Combination,
            MatrixKind::Output,
        ];
        for seq in 0..400u64 {
            let mut rng = rand_pcg::Pcg64::seed_from_u64(0x5EED_FA57 ^ seq);
            let mut table = LineTable::with_capacity(8);
            let mut model: HashMap<LineAddr, ()> = HashMap::new();
            let mut tick = 0u64;
            let index_space = 1 + seq % 17;
            for step in 0..60 {
                let a = addr(
                    KINDS[rng.gen_range(0..3usize)],
                    rng.gen_range(0..index_space),
                );
                match rng.gen_range(0..5u32) {
                    0 | 1 => {
                        if table.get(a).is_none() {
                            tick += 1;
                            table.insert(a, false, 0, tick);
                            model.insert(a, ());
                        }
                    }
                    2 => {
                        tick += 1;
                        table.touch(a, tick);
                    }
                    _ => {
                        assert_eq!(
                            table.remove(a).is_some(),
                            model.remove(&a).is_some(),
                            "seq {seq} step {step} remove {a:?}"
                        );
                    }
                }
                // Probe a sample of addresses twice: the first find_slot may
                // take the hash walk and set the hint, the second must take
                // the hint — both have to agree with a cold walk and the
                // model.
                for probe_i in 0..3u64 {
                    let p = addr(KINDS[(probe_i % 3) as usize], rng.gen_range(0..index_space));
                    let walk = table.find_bucket(p).map(|b| table.buckets[b]);
                    for round in 0..2 {
                        let fast = table.find_slot(p);
                        assert_eq!(
                            fast, walk,
                            "seq {seq} step {step} round {round} probe {p:?}"
                        );
                        assert_eq!(
                            fast.is_some(),
                            model.contains_key(&p),
                            "seq {seq} step {step} model disagrees on {p:?}"
                        );
                    }
                    if let Some(idx) = walk {
                        assert_eq!(table.slots[idx as usize].addr, p);
                    }
                }
                table.check();
            }
        }
    }

    /// The hot path must not allocate once warm: capacities of every backing
    /// buffer are unchanged across a long, eviction-heavy access stream.
    #[test]
    fn steady_state_reads_and_writes_do_not_reallocate() {
        let mut cfg = small_config(16);
        cfg.mshr_count = 4;
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        let mut now = 0;
        // Warm-up: fault in more lines than the buffer holds.
        for i in 0..64 {
            now = dmb
                .read(
                    now,
                    addr(MatrixKind::Combination, i),
                    &mut dram,
                    AccessPattern::Random,
                )
                .ready;
        }
        let warm = dmb.storage_capacities();
        for i in 0..2048u64 {
            let kind = if i % 3 == 0 {
                MatrixKind::Weight
            } else {
                MatrixKind::Combination
            };
            now = dmb
                .read(now, addr(kind, i % 97), &mut dram, AccessPattern::Random)
                .ready;
            dmb.write(
                now,
                addr(MatrixKind::Output, i % 53),
                &mut dram,
                true,
                AccessPattern::Random,
            );
        }
        assert_eq!(
            dmb.storage_capacities(),
            warm,
            "hot path reallocated backing storage"
        );
        assert!(dmb.evictions() > 1000, "stream was not eviction-heavy");
    }

    #[test]
    fn miss_and_stall_cycle_counters_accumulate() {
        let mut cfg = small_config(64);
        cfg.mshr_count = 2;
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        let m = dmb.read(
            0,
            addr(MatrixKind::Combination, 0),
            &mut dram,
            AccessPattern::Random,
        );
        // Primary miss: latency charged from presentation to data-ready.
        assert_eq!(dmb.miss_latency_cycles(), m.ready);
        let _ = dmb.read(
            0,
            addr(MatrixKind::Combination, 1),
            &mut dram,
            AccessPattern::Random,
        );
        // Third miss with both MSHRs busy waits for the earliest fill.
        let _ = dmb.read(
            0,
            addr(MatrixKind::Combination, 2),
            &mut dram,
            AccessPattern::Random,
        );
        assert_eq!(dmb.mshr_stalls(), 1);
        assert!(dmb.mshr_stall_cycles() > 0);
        // A hit adds no miss latency.
        let before = dmb.miss_latency_cycles();
        let far = dmb.read(
            10_000,
            addr(MatrixKind::Combination, 0),
            &mut dram,
            AccessPattern::Random,
        );
        assert!(far.hit);
        assert_eq!(dmb.miss_latency_cycles(), before);
    }

    #[test]
    fn trace_port_tracks_are_monotone_and_classified() {
        use crate::trace::{AccessClass, TraceData, TraceKind, Track};
        let mut cfg = small_config(4);
        cfg.mshr_count = 2;
        cfg.trace = true;
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        let mut now = 0;
        for i in 0..32u64 {
            let a = addr(MatrixKind::Combination, i);
            now = dmb.read(now, a, &mut dram, AccessPattern::Random).ready;
            // Immediate re-read of the just-filled line: a guaranteed hit.
            now = dmb.read(now, a, &mut dram, AccessPattern::Random).ready;
            dmb.write(
                now,
                addr(MatrixKind::Output, i % 5),
                &mut dram,
                true,
                AccessPattern::Random,
            );
        }
        let mut data = TraceData::new();
        dmb.drain_trace(&mut data);
        assert!(!data.events.is_empty());
        // Per-port timestamp monotonicity (MshrRetire is completion-ordered
        // and exempt).
        for track in [Track::DmbRead, Track::DmbWrite] {
            let ts: Vec<u64> = data
                .events
                .iter()
                .filter(|e| e.track == track)
                .map(|e| e.ts)
                .collect();
            assert!(!ts.is_empty(), "no events on {track:?}");
            assert!(
                ts.windows(2).all(|w| w[0] <= w[1]),
                "{track:?} not monotone"
            );
        }
        // The access stream exercises hits, fills and evictions.
        let has = |pred: &dyn Fn(&TraceKind) -> bool| data.events.iter().any(|e| pred(&e.kind));
        assert!(has(&|k| matches!(
            k,
            TraceKind::DmbAccess {
                class: AccessClass::ReadMissFill,
                ..
            }
        )));
        assert!(has(&|k| matches!(
            k,
            TraceKind::DmbAccess {
                class: AccessClass::ReadHit,
                ..
            }
        )));
        assert!(has(&|k| matches!(k, TraceKind::DmbEvict { .. })));
        assert!(has(&|k| matches!(k, TraceKind::MshrAllocate { .. })));
        assert!(has(&|k| matches!(k, TraceKind::MshrRetire { .. })));
    }
}

#[cfg(test)]
mod eviction_policy_tests {
    use super::*;
    use crate::dram::AccessPattern;

    fn addr(kind: MatrixKind, i: u64) -> LineAddr {
        LineAddr::new(kind, i)
    }

    #[test]
    fn plain_lru_evicts_oldest_regardless_of_class() {
        let cfg = MemConfig {
            dmb_bytes: 3 * 64,
            class_eviction: false,
            ..MemConfig::default()
        };
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        dmb.write(
            0,
            addr(MatrixKind::Output, 0),
            &mut dram,
            true,
            AccessPattern::Random,
        );
        dmb.write(
            1,
            addr(MatrixKind::Combination, 0),
            &mut dram,
            true,
            AccessPattern::Random,
        );
        dmb.write(
            2,
            addr(MatrixKind::Weight, 0),
            &mut dram,
            true,
            AccessPattern::Random,
        );
        // plain LRU: the Output line (oldest) goes first, not the Weight line
        dmb.write(
            3,
            addr(MatrixKind::Output, 1),
            &mut dram,
            true,
            AccessPattern::Random,
        );
        assert!(!dmb.contains(addr(MatrixKind::Output, 0)));
        assert!(dmb.contains(addr(MatrixKind::Weight, 0)));
    }

    #[test]
    fn class_eviction_still_default() {
        let cfg = MemConfig::default();
        assert!(cfg.class_eviction);
    }
}

#[cfg(test)]
mod prefetch_tests {
    use super::*;
    use crate::prefetch::{PrefetchDrop, PrefetchStats};

    fn small_config(lines: usize) -> MemConfig {
        MemConfig {
            dmb_bytes: lines * 64,
            ..MemConfig::default()
        }
    }

    fn addr(kind: MatrixKind, i: u64) -> LineAddr {
        LineAddr::new(kind, i)
    }

    #[test]
    fn issued_prefetch_becomes_a_demand_hit() {
        let cfg = small_config(8);
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        let a = addr(MatrixKind::Combination, 0);
        assert_eq!(
            dmb.prefetch(0, a, &mut dram, AccessPattern::Sequential),
            None
        );
        // Demand arrives well after the fill: a hit with no residual wait.
        let out = dmb.read(500, a, &mut dram, AccessPattern::Sequential);
        assert!(out.hit);
        assert_eq!(out.ready, 500 + cfg.dmb_hit_latency);
        let s = dmb.prefetch_stats();
        assert_eq!((s.issued, s.useful, s.late, s.late_cycles), (1, 1, 0, 0));
    }

    #[test]
    fn late_prefetch_charges_residual_wait() {
        let cfg = small_config(8);
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        let a = addr(MatrixKind::Combination, 0);
        assert_eq!(
            dmb.prefetch(0, a, &mut dram, AccessPattern::Sequential),
            None
        );
        // Fill completes at cycle 101; demand arrives at 0 and must wait for
        // the in-flight fill, not just the hit latency.
        let out = dmb.read(0, a, &mut dram, AccessPattern::Sequential);
        assert!(out.hit, "in-flight prefetch serves demand via the hit path");
        assert_eq!(out.ready, 101);
        let s = dmb.prefetch_stats();
        assert_eq!((s.useful, s.late), (1, 1));
        assert_eq!(s.late_cycles, 101 - cfg.dmb_hit_latency);
        // Nothing lands in the demand-miss class: the wait is labelled
        // prefetch-late instead.
        assert_eq!(dmb.miss_latency_cycles(), 0);
    }

    #[test]
    fn write_hit_claims_prefetch_without_lateness() {
        let cfg = small_config(8);
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        let a = addr(MatrixKind::Output, 0);
        assert_eq!(
            dmb.prefetch(0, a, &mut dram, AccessPattern::Sequential),
            None
        );
        let out = dmb.write(1, a, &mut dram, true, AccessPattern::Random);
        assert!(out.hit);
        let s = dmb.prefetch_stats();
        assert_eq!((s.useful, s.late, s.late_cycles), (1, 0, 0));
    }

    #[test]
    fn prefetched_line_is_first_victim_of_its_class() {
        let cfg = small_config(2);
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        // Demand line first, then a (newer) prefetch of the same class.
        dmb.write(
            0,
            addr(MatrixKind::Combination, 0),
            &mut dram,
            true,
            AccessPattern::Random,
        );
        assert_eq!(
            dmb.prefetch(
                5,
                addr(MatrixKind::Combination, 1),
                &mut dram,
                AccessPattern::Sequential
            ),
            None
        );
        // Capacity pressure after the fill completed: despite being the
        // newest insertion, the unclaimed prefetch sits at the LRU end and
        // goes first.
        dmb.write(
            500,
            addr(MatrixKind::Combination, 2),
            &mut dram,
            true,
            AccessPattern::Random,
        );
        assert!(dmb.contains(addr(MatrixKind::Combination, 0)));
        assert!(!dmb.contains(addr(MatrixKind::Combination, 1)));
        assert_eq!(dmb.prefetch_stats().evicted_unused, 1);
        assert_eq!(dmb.prefetch_stats().useful, 0);
    }

    #[test]
    fn redundant_candidates_are_dropped() {
        let cfg = small_config(8);
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        let a = addr(MatrixKind::Combination, 0);
        let r = dmb.read(0, a, &mut dram, AccessPattern::Random);
        // Resident line.
        assert_eq!(
            dmb.prefetch(r.ready, a, &mut dram, AccessPattern::Sequential),
            Some(PrefetchDrop::Redundant)
        );
        // In-flight prefetch: the second attempt sees the resident entry.
        let b = addr(MatrixKind::Combination, 1);
        assert_eq!(
            dmb.prefetch(r.ready, b, &mut dram, AccessPattern::Sequential),
            None
        );
        assert_eq!(
            dmb.prefetch(r.ready, b, &mut dram, AccessPattern::Sequential),
            Some(PrefetchDrop::Redundant)
        );
        assert_eq!(dmb.prefetch_stats().dropped_redundant, 2);
        assert_eq!(dmb.prefetch_stats().issued, 1);
    }

    #[test]
    fn prefetches_never_exceed_their_mshr_share() {
        let mut cfg = small_config(64);
        cfg.prefetch_mshr_cap = 1;
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        assert_eq!(
            dmb.prefetch(
                0,
                addr(MatrixKind::Combination, 0),
                &mut dram,
                AccessPattern::Sequential
            ),
            None
        );
        dmb.check_mshr_tracking();
        // Second candidate while the first fill is outstanding: over the cap.
        assert_eq!(
            dmb.prefetch(
                0,
                addr(MatrixKind::Combination, 1),
                &mut dram,
                AccessPattern::Sequential
            ),
            Some(PrefetchDrop::MshrCap)
        );
        // A demand miss still allocates: the cap reserves slots for demand.
        let out = dmb.read(
            0,
            addr(MatrixKind::Combination, 2),
            &mut dram,
            AccessPattern::Random,
        );
        assert!(!out.hit);
        assert_eq!(dmb.mshr_stalls(), 0, "demand found a free MSHR");
        dmb.check_mshr_tracking();
        assert_eq!(dmb.prefetch_stats().dropped_mshr_cap, 1);
    }

    #[test]
    fn demand_filled_mshr_pool_drops_prefetches() {
        let mut cfg = small_config(64);
        cfg.mshr_count = 2;
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        let _ = dmb.read(
            0,
            addr(MatrixKind::Combination, 0),
            &mut dram,
            AccessPattern::Random,
        );
        let _ = dmb.read(
            0,
            addr(MatrixKind::Combination, 1),
            &mut dram,
            AccessPattern::Random,
        );
        assert_eq!(
            dmb.prefetch(
                0,
                addr(MatrixKind::Combination, 2),
                &mut dram,
                AccessPattern::Sequential
            ),
            Some(PrefetchDrop::MshrCap)
        );
    }

    #[test]
    fn backlogged_dram_drops_prefetches() {
        let cfg = small_config(8);
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        // A short transfer in flight is ordinary pipelining, not a backlog:
        // the prefetch still issues.
        let _ = dmb.read(
            0,
            addr(MatrixKind::Combination, 0),
            &mut dram,
            AccessPattern::Random,
        );
        assert!(dram.saturated(1));
        assert_eq!(
            dmb.prefetch(
                1,
                addr(MatrixKind::Combination, 1),
                &mut dram,
                AccessPattern::Sequential
            ),
            None
        );
        // A backlog deeper than one access latency does drop the candidate.
        dram.read(
            10,
            MatrixKind::Combination,
            64 * 200,
            AccessPattern::Sequential,
        );
        assert_eq!(
            dmb.prefetch(
                10,
                addr(MatrixKind::Combination, 2),
                &mut dram,
                AccessPattern::Sequential
            ),
            Some(PrefetchDrop::DramBusy)
        );
        assert_eq!(dmb.prefetch_stats().dropped_dram_busy, 1);
    }

    #[test]
    fn prefetch_never_evicts_a_hotter_class() {
        let cfg = small_config(2);
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        // Fill the buffer with AXW partials (the hottest class).
        dmb.write(
            0,
            addr(MatrixKind::Output, 0),
            &mut dram,
            true,
            AccessPattern::Random,
        );
        dmb.write(
            1,
            addr(MatrixKind::Output, 1),
            &mut dram,
            true,
            AccessPattern::Random,
        );
        // A weight prefetch may only displace class-W lines; none exist.
        assert_eq!(
            dmb.prefetch(
                5,
                addr(MatrixKind::Weight, 0),
                &mut dram,
                AccessPattern::Sequential
            ),
            Some(PrefetchDrop::NoVictim)
        );
        assert_eq!(dmb.prefetch_stats().dropped_no_victim, 1);
        assert!(dmb.contains(addr(MatrixKind::Output, 0)));
        assert!(dmb.contains(addr(MatrixKind::Output, 1)));
        // A demand miss in the same state still makes room (unrestricted
        // class walk) — only prefetches are constrained.
        let out = dmb.read(
            5,
            addr(MatrixKind::Weight, 0),
            &mut dram,
            AccessPattern::Random,
        );
        assert!(!out.hit);
        assert!(dmb.contains(addr(MatrixKind::Weight, 0)));
    }

    #[test]
    fn prefetch_consumes_no_port_time() {
        let cfg = small_config(8);
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        let a = addr(MatrixKind::Combination, 0);
        let fill = dmb.read(0, a, &mut dram, AccessPattern::Random);
        // Spaced so each finds the single DRAM channel free again.
        let mut now = fill.ready + 50;
        for i in 1..4u64 {
            assert_eq!(
                dmb.prefetch(
                    now,
                    addr(MatrixKind::Combination, i),
                    &mut dram,
                    AccessPattern::Sequential
                ),
                None
            );
            now += 2;
        }
        // The read port was not advanced by the prefetches.
        let hit = dmb.read(now, a, &mut dram, AccessPattern::Random);
        assert_eq!(hit.ready, now + cfg.dmb_hit_latency);
    }

    #[test]
    fn flush_and_invalidate_count_unused_prefetches() {
        let cfg = small_config(8);
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        assert_eq!(
            dmb.prefetch(
                0,
                addr(MatrixKind::Combination, 0),
                &mut dram,
                AccessPattern::Sequential
            ),
            None
        );
        // Let the fill land before tearing the kind down.
        let _ = dmb.read(
            500,
            addr(MatrixKind::Combination, 1),
            &mut dram,
            AccessPattern::Random,
        );
        dmb.invalidate_kind(MatrixKind::Combination);
        assert_eq!(dmb.prefetch_stats().evicted_unused, 1);
        assert_eq!(
            dmb.prefetch(
                1000,
                addr(MatrixKind::Output, 0),
                &mut dram,
                AccessPattern::Sequential
            ),
            None
        );
        dmb.flush_kind(1500, MatrixKind::Output, &mut dram);
        assert_eq!(dmb.prefetch_stats().evicted_unused, 2);
    }

    #[test]
    fn conservation_holds_with_prefetch_traffic() {
        let cfg = small_config(4);
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        let mut now = 0;
        for i in 0..16u64 {
            let _ = dmb.prefetch(
                now,
                addr(MatrixKind::Combination, i + 100),
                &mut dram,
                AccessPattern::Sequential,
            );
            now = dmb
                .read(
                    now,
                    addr(MatrixKind::Combination, i),
                    &mut dram,
                    AccessPattern::Random,
                )
                .ready;
            dmb.write(
                now,
                addr(MatrixKind::Output, i % 3),
                &mut dram,
                true,
                AccessPattern::Random,
            );
            dmb.check_mshr_tracking();
        }
        dmb.flush_kind(now, MatrixKind::Output, &mut dram);
        dmb.invalidate_kind(MatrixKind::Combination);
        assert_eq!(
            dmb.line_fills(),
            dmb.evictions() + dmb.line_drops() + dmb.occupancy() as u64
        );
        let s = dmb.prefetch_stats();
        assert!(s.issued > 0);
        assert_eq!(s.issued, s.useful + s.evicted_unused);
    }

    #[test]
    fn demand_only_traffic_leaves_counters_zero() {
        let cfg = small_config(4);
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        let mut now = 0;
        for i in 0..32u64 {
            now = dmb
                .read(
                    now,
                    addr(MatrixKind::Combination, i % 9),
                    &mut dram,
                    AccessPattern::Random,
                )
                .ready;
            dmb.write(
                now,
                addr(MatrixKind::Output, i % 5),
                &mut dram,
                true,
                AccessPattern::Random,
            );
        }
        assert_eq!(dmb.prefetch_stats(), PrefetchStats::default());
    }

    #[test]
    fn prefetch_lifecycle_is_traced() {
        use crate::trace::{TraceData, TraceKind, Track};
        let mut cfg = small_config(8);
        cfg.trace = true;
        let mut dram = Dram::new(&cfg);
        let mut dmb = Dmb::new(&cfg);
        let a = addr(MatrixKind::Combination, 0);
        assert_eq!(
            dmb.prefetch(0, a, &mut dram, AccessPattern::Sequential),
            None
        );
        // Late demand claim, a redundant drop, and a reap after the fill.
        let out = dmb.read(0, a, &mut dram, AccessPattern::Sequential);
        assert_eq!(
            dmb.prefetch(out.ready, a, &mut dram, AccessPattern::Sequential),
            Some(PrefetchDrop::Redundant)
        );
        let _ = dmb.read(
            out.ready + 10,
            addr(MatrixKind::Combination, 1),
            &mut dram,
            AccessPattern::Random,
        );
        let mut data = TraceData::new();
        dmb.drain_trace(&mut data);
        let on_track = |k: &dyn Fn(&TraceKind) -> bool| {
            data.events
                .iter()
                .any(|e| e.track == Track::Prefetch && k(&e.kind))
        };
        assert!(on_track(&|k| matches!(k, TraceKind::PrefetchIssue { .. })));
        assert!(on_track(&|k| matches!(k, TraceKind::PrefetchLate { .. })));
        assert!(on_track(&|k| matches!(
            k,
            TraceKind::PrefetchDropped { .. }
        )));
        assert!(on_track(&|k| matches!(k, TraceKind::PrefetchFill { .. })));
    }
}
