//! The load/store queue (LSQ).
//!
//! The 128-entry LSQ (paper Table III) sits between the SMQ/PEs and the DMB.
//! Its two architectural jobs (paper §IV-B):
//!
//! 1. **Store-to-load forwarding** — combination-phase stores of `XW` rows
//!    are forwarded to aggregation-phase loads of the same rows without a
//!    round trip through the buffer or DRAM.
//! 2. **Latency hiding** — entries admit new operations while older missed
//!    loads are still outstanding; capacity is the memory-level-parallelism
//!    window of the engines.
//!
//! The paper notes the LSQ "does not need to track the order of store
//! instructions" because every output address is written exactly once per
//! phase, which is why this model keeps a simple FIFO.

use crate::address::LineAddr;
use crate::config::MemConfig;
use crate::trace::{LsqOpKind, TraceData, TraceEvent, TraceKind, TraceRing, Track};
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy)]
struct Entry {
    addr: LineAddr,
    /// Cycle at which the entry's data is available (loads) or drained
    /// (stores).
    ready: u64,
    is_store: bool,
}

#[derive(Debug, Clone, Copy)]
struct ForwardSlot {
    addr: LineAddr,
    /// Data-ready cycle of the youngest queued store to `addr` — the one
    /// forwarding semantics select.
    youngest_ready: u64,
    /// Queued stores to `addr`; the slot dies when the last one retires.
    stores: u32,
}

/// Open-addressed index from address to the youngest queued store, replacing
/// the O(queue) reverse scan on every load. Sized for the queue capacity up
/// front (a full queue has at most `capacity` distinct store addresses), so
/// it never allocates after construction; removal uses backward-shift
/// deletion to stay tombstone-free.
#[derive(Debug, Clone)]
struct ForwardIndex {
    slots: Vec<Option<ForwardSlot>>,
    mask: usize,
}

impl ForwardIndex {
    fn with_capacity(entries: usize) -> ForwardIndex {
        let len = (entries * 2).next_power_of_two().max(8);
        ForwardIndex {
            slots: vec![None; len],
            mask: len - 1,
        }
    }

    fn home(&self, addr: LineAddr) -> usize {
        let key = (addr.index << 3) ^ addr.kind.index() as u64;
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize) & self.mask
    }

    /// Slot holding `addr`, or the empty slot where it would be inserted.
    fn probe(&self, addr: LineAddr) -> usize {
        let mut b = self.home(addr);
        while let Some(s) = &self.slots[b] {
            if s.addr == addr {
                return b;
            }
            b = (b + 1) & self.mask;
        }
        b
    }

    fn youngest_store(&self, addr: LineAddr) -> Option<u64> {
        self.slots[self.probe(addr)].map(|s| s.youngest_ready)
    }

    fn push_store(&mut self, addr: LineAddr, ready: u64) {
        let b = self.probe(addr);
        match &mut self.slots[b] {
            Some(s) => {
                s.youngest_ready = ready;
                s.stores += 1;
            }
            slot @ None => {
                *slot = Some(ForwardSlot {
                    addr,
                    youngest_ready: ready,
                    stores: 1,
                })
            }
        }
    }

    /// Retires one queued store to `addr` (FIFO retirement pops the oldest,
    /// so a surviving slot still names the youngest store's ready cycle).
    fn retire_store(&mut self, addr: LineAddr) {
        let b = self.probe(addr);
        let Some(s) = &mut self.slots[b] else { return };
        s.stores -= 1;
        if s.stores > 0 {
            return;
        }
        // Backward-shift deletion keeps probe chains contiguous.
        let mask = self.mask;
        let mut hole = b;
        let mut j = b;
        loop {
            j = (j + 1) & mask;
            let Some(entry) = self.slots[j] else { break };
            let home = self.home(entry.addr);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = Some(entry);
                hole = j;
            }
        }
        self.slots[hole] = None;
    }

    fn clear(&mut self) {
        self.slots.fill(None);
    }
}

/// Outcome of admitting a load into the LSQ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadPath {
    /// The load's address matched a store entry; data is forwarded.
    Forwarded {
        /// Cycle at which the forwarded data is available.
        ready: u64,
    },
    /// The load must be issued to the DMB at the given cycle; the caller
    /// performs the access and then calls [`Lsq::complete_load`].
    Issue {
        /// Earliest cycle at which the buffer access may start (after any
        /// capacity stall).
        at: u64,
    },
}

/// Counters exported by the LSQ.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsqStats {
    /// Loads admitted.
    pub loads: u64,
    /// Stores admitted.
    pub stores: u64,
    /// Loads satisfied by store-to-load forwarding.
    pub forwards: u64,
    /// Admissions delayed by a full queue.
    pub capacity_stalls: u64,
    /// Total cycles admissions waited for a full queue to drain (the stall
    /// *depth* behind `capacity_stalls`).
    pub capacity_stall_cycles: u64,
}

impl LsqStats {
    /// Accumulates another counter set — the single place report merging
    /// sums LSQ fields, so a new counter cannot silently be dropped.
    pub fn merge(&mut self, other: &LsqStats) {
        self.loads += other.loads;
        self.stores += other.stores;
        self.forwards += other.forwards;
        self.capacity_stalls += other.capacity_stalls;
        self.capacity_stall_cycles += other.capacity_stall_cycles;
    }
}

/// The load/store queue.
///
/// # Example
///
/// ```
/// use hymm_mem::lsq::LoadPath;
/// use hymm_mem::{LineAddr, Lsq, MatrixKind, MemConfig};
///
/// let mut lsq = Lsq::new(&MemConfig::default());
/// let addr = LineAddr::new(MatrixKind::Combination, 3);
/// lsq.store(0, addr, 10); // XW[3] produced at cycle 10
/// match lsq.load(5, addr) {
///     LoadPath::Forwarded { ready } => assert_eq!(ready, 11),
///     LoadPath::Issue { .. } => unreachable!("store is still queued"),
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Lsq {
    capacity: usize,
    entries: VecDeque<Entry>,
    forwards: ForwardIndex,
    /// Queued (un-retired) stores per [`MatrixKind`], indexed by
    /// `kind.index()`. A load may skip the forward-index probe entirely when
    /// its kind's count is zero: forwarding matches the exact `LineAddr`
    /// (kind + index), so no queued store of another kind can ever forward
    /// to it.
    queued_stores: [u32; 5],
    stats: LsqStats,
    trace: Option<Box<TraceRing>>,
}

impl Lsq {
    /// Creates an empty LSQ from the memory configuration.
    pub fn new(config: &MemConfig) -> Lsq {
        let capacity = config.lsq_entries.max(1);
        Lsq {
            capacity,
            // Occupancy never exceeds capacity, so neither buffer ever grows.
            entries: VecDeque::with_capacity(capacity),
            forwards: ForwardIndex::with_capacity(capacity),
            queued_stores: [0; 5],
            stats: LsqStats::default(),
            trace: config.trace_ring(),
        }
    }

    /// Makes room for a new entry; returns the (possibly stalled) admission
    /// cycle.
    fn admit(&mut self, now: u64) -> u64 {
        if self.entries.len() < self.capacity {
            return now;
        }
        self.stats.capacity_stalls += 1;
        // The oldest entry retires once its data is ready.
        let oldest = self.entries.pop_front().expect("queue is full");
        if oldest.is_store {
            self.forwards.retire_store(oldest.addr);
            self.queued_stores[oldest.addr.kind.index()] -= 1;
        }
        let at = now.max(oldest.ready);
        self.stats.capacity_stall_cycles += at - now;
        at
    }

    fn trace_op(&mut self, at: u64, op: LsqOpKind) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.push(TraceEvent {
                track: Track::Lsq,
                kind: TraceKind::LsqOp {
                    op,
                    occupancy: self.entries.len() as u32,
                },
                ts: at,
                dur: 0,
            });
        }
    }

    /// Admits a load of `addr` at cycle `now`.
    ///
    /// If a store to the same address is in flight, the data is forwarded in
    /// one cycle. Otherwise the caller must perform the DMB access starting
    /// at the returned cycle and report its completion via
    /// [`Lsq::complete_load`].
    pub fn load(&mut self, now: u64, addr: LineAddr) -> LoadPath {
        let at = self.admit(now);
        self.stats.loads += 1;
        if self.queued_stores[addr.kind.index()] == 0 {
            // No queued store of this kind exists, so no address can match.
            self.trace_op(at, LsqOpKind::Load);
            return LoadPath::Issue { at };
        }
        if let Some(store_ready) = self.forwards.youngest_store(addr) {
            self.stats.forwards += 1;
            let ready = at.max(store_ready) + 1;
            self.entries.push_back(Entry {
                addr,
                ready,
                is_store: false,
            });
            self.trace_op(at, LsqOpKind::LoadForwarded);
            LoadPath::Forwarded { ready }
        } else {
            self.trace_op(at, LsqOpKind::Load);
            LoadPath::Issue { at }
        }
    }

    /// Records the completion cycle of a load previously returned as
    /// [`LoadPath::Issue`].
    pub fn complete_load(&mut self, addr: LineAddr, ready: u64) {
        self.entries.push_back(Entry {
            addr,
            ready,
            is_store: false,
        });
    }

    /// Admits a store of `addr` whose data is available at `data_ready`;
    /// returns the cycle at which the store occupies its entry (the caller
    /// then drains it to the DMB).
    pub fn store(&mut self, now: u64, addr: LineAddr, data_ready: u64) -> u64 {
        let at = self.admit(now);
        self.stats.stores += 1;
        let ready = at.max(data_ready);
        self.entries.push_back(Entry {
            addr,
            ready,
            is_store: true,
        });
        self.forwards.push_store(addr, ready);
        self.queued_stores[addr.kind.index()] += 1;
        self.trace_op(at, LsqOpKind::Store);
        ready
    }

    /// Whether a queued (un-retired) store to `addr` exists — a load of the
    /// address would forward rather than reach the DMB. Read-only probe used
    /// by the prefetcher to skip addresses the LSQ already covers; it does
    /// not admit an entry or advance any clock.
    pub fn has_queued_store(&self, addr: LineAddr) -> bool {
        if self.queued_stores[addr.kind.index()] == 0 {
            return false;
        }
        self.forwards.youngest_store(addr).is_some()
    }

    /// Current occupancy.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Counters.
    pub fn stats(&self) -> LsqStats {
        self.stats
    }

    /// Moves any buffered trace events into `into` (no-op when tracing is
    /// disabled).
    pub fn drain_trace(&mut self, into: &mut TraceData) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.drain_into(into);
        }
    }

    /// Drops all entries (between GCN layers, when address spaces are
    /// reused for new matrices).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.forwards.clear();
        self.queued_stores = [0; 5];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::MatrixKind;

    fn lsq(capacity: usize) -> Lsq {
        let cfg = MemConfig {
            lsq_entries: capacity,
            ..MemConfig::default()
        };
        Lsq::new(&cfg)
    }

    fn a(i: u64) -> LineAddr {
        LineAddr::new(MatrixKind::Combination, i)
    }

    #[test]
    fn load_with_no_store_issues() {
        let mut q = lsq(4);
        match q.load(5, a(0)) {
            LoadPath::Issue { at } => assert_eq!(at, 5),
            other => panic!("expected issue, got {other:?}"),
        }
    }

    #[test]
    fn store_to_load_forwarding() {
        let mut q = lsq(4);
        q.store(0, a(3), 10);
        match q.load(2, a(3)) {
            LoadPath::Forwarded { ready } => assert_eq!(ready, 11), // store data at 10, +1 forward
            other => panic!("expected forward, got {other:?}"),
        }
        assert_eq!(q.stats().forwards, 1);
    }

    #[test]
    fn forwarding_uses_youngest_store() {
        let mut q = lsq(8);
        q.store(0, a(3), 10);
        q.store(0, a(3), 20);
        match q.load(30, a(3)) {
            LoadPath::Forwarded { ready } => assert_eq!(ready, 31),
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn no_forward_from_other_address() {
        let mut q = lsq(4);
        q.store(0, a(1), 10);
        assert!(matches!(q.load(2, a(2)), LoadPath::Issue { .. }));
    }

    #[test]
    fn capacity_stall_waits_for_oldest() {
        let mut q = lsq(2);
        q.store(0, a(0), 100);
        q.store(0, a(1), 50);
        // Queue full; oldest (ready at 100) must retire first.
        let at = match q.load(10, a(9)) {
            LoadPath::Issue { at } => at,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(at, 100);
        assert_eq!(q.stats().capacity_stalls, 1);
        assert_eq!(q.stats().capacity_stall_cycles, 90); // waited 10 → 100
    }

    #[test]
    fn stats_merge_sums_every_counter() {
        let a = LsqStats {
            loads: 1,
            stores: 2,
            forwards: 3,
            capacity_stalls: 4,
            capacity_stall_cycles: 5,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(
            b,
            LsqStats {
                loads: 2,
                stores: 4,
                forwards: 6,
                capacity_stalls: 8,
                capacity_stall_cycles: 10,
            }
        );
    }

    #[test]
    fn trace_records_ops_when_enabled() {
        use crate::trace::{LsqOpKind, TraceData, TraceKind};
        let cfg = MemConfig {
            lsq_entries: 4,
            trace: true,
            ..MemConfig::default()
        };
        let mut q = Lsq::new(&cfg);
        q.store(0, a(3), 10);
        let _ = q.load(2, a(3)); // forwarded
        let _ = q.load(2, a(7)); // issue
        let mut data = TraceData::new();
        q.drain_trace(&mut data);
        let ops: Vec<LsqOpKind> = data
            .events
            .iter()
            .map(|e| match e.kind {
                TraceKind::LsqOp { op, .. } => op,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(
            ops,
            [LsqOpKind::Store, LsqOpKind::LoadForwarded, LsqOpKind::Load]
        );
    }

    #[test]
    fn complete_load_records_entry() {
        let mut q = lsq(2);
        if let LoadPath::Issue { at } = q.load(0, a(0)) {
            q.complete_load(a(0), at + 100);
        }
        assert_eq!(q.occupancy(), 1);
    }

    #[test]
    fn retired_store_keeps_forwarding_from_younger_duplicate() {
        let mut q = lsq(2);
        q.store(0, a(0), 10);
        q.store(0, a(0), 20);
        // Queue full: the next load retires the older duplicate store; the
        // younger one must still forward.
        match q.load(0, a(0)) {
            LoadPath::Forwarded { ready } => assert_eq!(ready, 21),
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn has_queued_store_is_read_only() {
        let mut q = lsq(4);
        assert!(!q.has_queued_store(a(3)));
        q.store(0, a(3), 10);
        assert!(q.has_queued_store(a(3)));
        assert!(!q.has_queued_store(a(4)));
        // The probe admits nothing: occupancy and stats are untouched.
        assert_eq!(q.occupancy(), 1);
        assert_eq!(q.stats().loads, 0);
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = lsq(2);
        q.store(0, a(0), 1);
        q.clear();
        assert_eq!(q.occupancy(), 0);
        // forwarding no longer possible
        assert!(matches!(q.load(2, a(0)), LoadPath::Issue { .. }));
    }
}
