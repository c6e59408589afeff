//! The timed memory system: per-processor L1/L2 caches with MSHRs,
//! split-transaction buses, interleaved memory banks, the mesh network
//! and the timing of coherence transactions.
//!
//! Timing uses the *resource-reservation timeline* approach: when a miss
//! is issued, its whole path (bus request, directory, bank, data return,
//! forwarding, invalidations) is walked once, reserving each shared
//! resource no earlier than the previous stage's completion. The
//! resulting fill time is recorded in the MSHR so later same-line
//! accesses coalesce onto it; an event releases the MSHR and installs the
//! tags at fill time. This captures latency, overlap limits (MSHRs) and
//! bandwidth contention without per-message simulation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mempar_obs::{MetricsRegistry, TraceEventKind, Tracer};
use mempar_stats::{LatencyStat, MemCounters, MshrOccupancy, Utilization};

use crate::cache::{LineState, MshrFile, MshrOutcome, TagArray};
use crate::config::{MachineConfig, Topology};
use crate::interconnect::{Bus, MemoryBanks, Mesh};
use crate::protocol::{CohTxn, Coherence, DataSource, Protocol};
use crate::resource::Resource;

/// Result of a timed cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The access will complete (data ready / store globally performed)
    /// at the given cycle.
    Done {
        /// Completion cycle.
        complete_at: u64,
        /// True when this access missed past the L2 (an external miss).
        l2_miss: bool,
    },
    /// No MSHR was available — retry next cycle. When the blocking file
    /// provably cannot free a register before some cycle (every
    /// outstanding fill is scheduled later), `until` carries that bound
    /// and the core may sleep until then instead of re-polling; `None`
    /// means no bound can be promised and the access must retry every
    /// cycle.
    Retry {
        /// Earliest cycle a re-attempt could succeed, when provable.
        until: Option<u64>,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// Install `line` in proc's L2 with the given state and free its MSHR.
    FillL2 {
        proc: u32,
        line: u64,
        state: LineState,
    },
    /// Install `line` in proc's L1 and free its L1 MSHR.
    FillL1 { proc: u32, line: u64 },
}

#[derive(Debug, PartialEq, Eq)]
struct Event {
    time: u64,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq, self.kind).cmp(&(other.time, other.seq, other.kind))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug)]
struct CacheLevel {
    tags: TagArray,
    mshrs: MshrFile,
    port: Resource,
    hit_latency: u64,
}

/// The full memory system shared by all simulated processors.
pub struct MemSystem {
    cfg: MachineConfig,
    line_shift: u32,
    l1: Vec<CacheLevel>,
    l2: Vec<CacheLevel>,
    buses: Vec<Bus>,
    banks: Vec<MemoryBanks>,
    mesh: Mesh,
    proto: Coherence,
    /// Pooled coherence-transaction buffer, reused across every global
    /// transaction so the steady state allocates nothing (taken with
    /// `mem::take` around each protocol call, then put back).
    txn: CohTxn,
    events: BinaryHeap<Reverse<Event>>,
    seq: u64,
    /// Per-processor counters.
    counters: Vec<MemCounters>,
    /// Per-processor L2 read-miss latency (address generation → fill).
    read_latency: Vec<LatencyStat>,
    /// Per-processor L2 MSHR occupancy histograms, maintained lazily:
    /// `occ_from[p]` is the first cycle not yet accounted, and every
    /// occupancy-changing entry point (an access, or an L2 fill) first
    /// books the cycles since then at the still-current occupancy.
    /// Equivalent to the per-cycle sampling the strict driver used to
    /// do — occupancy is constant between mutations, and the drivers
    /// execute a contiguous cycle range — at a per-mutation (not
    /// per-cycle) cost. [`MemSystem::close_occupancy`] books the tail.
    occupancy: Vec<MshrOccupancy>,
    /// First cycle not yet booked into `occupancy` (see above).
    occ_from: Vec<u64>,
    /// True while servicing a software prefetch (suppresses demand-read
    /// statistics so prefetches do not skew latency/miss metrics).
    in_prefetch: bool,
    /// Structured event tracer; disabled by default, in which case every
    /// trace site reduces to one inlined branch (see `crates/obs`).
    tracer: Tracer,
    home_of_addr: Box<dyn Fn(u64) -> usize + Send>,
}

impl std::fmt::Debug for MemSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemSystem")
            .field("config", &self.cfg.name)
            .field("nprocs", &self.cfg.nprocs)
            .field("pending_events", &self.events.len())
            .finish_non_exhaustive()
    }
}

impl MemSystem {
    /// Builds the memory system for `cfg` with the default (full-map
    /// directory) coherence protocol. `home_of_addr` maps a byte address
    /// to its NUMA home node (derived from the program's
    /// [`SimMem`](mempar_ir::SimMem) layout).
    pub fn new(cfg: &MachineConfig, home_of_addr: Box<dyn Fn(u64) -> usize + Send>) -> Self {
        Self::with_protocol(cfg, home_of_addr, Protocol::Directory)
    }

    /// Builds the memory system for `cfg` with a specific coherence
    /// protocol driving its global transactions.
    pub fn with_protocol(
        cfg: &MachineConfig,
        home_of_addr: Box<dyn Fn(u64) -> usize + Send>,
        protocol: Protocol,
    ) -> Self {
        cfg.validate();
        let n = cfg.nprocs;
        let line_shift = cfg.l2.line_bytes.trailing_zeros();
        let l1 = match &cfg.l1 {
            Some(p) => (0..n)
                .map(|_| CacheLevel {
                    tags: TagArray::new(p),
                    mshrs: MshrFile::new(p.mshrs),
                    port: Resource::new(),
                    hit_latency: p.hit_latency as u64,
                })
                .collect(),
            None => Vec::new(),
        };
        let l2 = (0..n)
            .map(|_| CacheLevel {
                tags: TagArray::new(&cfg.l2),
                mshrs: MshrFile::new(cfg.l2.mshrs),
                port: Resource::new(),
                hit_latency: cfg.l2.hit_latency as u64,
            })
            .collect();
        let (buses, banks) = match cfg.topology {
            Topology::Numa => (
                (0..n).map(|_| Bus::new(&cfg.bus)).collect(),
                (0..n).map(|_| MemoryBanks::new(&cfg.mem)).collect(),
            ),
            Topology::SmpBus => (vec![Bus::new(&cfg.bus)], vec![MemoryBanks::new(&cfg.mem)]),
        };
        MemSystem {
            line_shift,
            l1,
            l2,
            buses,
            banks,
            mesh: Mesh::new(cfg.mesh_side(), &cfg.net),
            proto: Coherence::new(protocol),
            txn: CohTxn::default(),
            // Outstanding events are bounded by MSHR capacity: at most
            // one fill event per L1 MSHR and two per L2 MSHR (an
            // upgrade-after-fill can briefly double-book a line).
            events: BinaryHeap::with_capacity(
                n * (cfg.l1.as_ref().map_or(0, |p| p.mshrs) + 2 * cfg.l2.mshrs) + 64,
            ),
            seq: 0,
            counters: vec![MemCounters::default(); n],
            read_latency: vec![LatencyStat::default(); n],
            occupancy: vec![MshrOccupancy::new(cfg.l2.mshrs); n],
            occ_from: vec![0; n],
            in_prefetch: false,
            tracer: Tracer::disabled(),
            home_of_addr,
            cfg: cfg.clone(),
        }
    }

    /// Installs a tracer; L2 miss/MSHR events will be recorded into it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Removes and returns the tracer, leaving a disabled one behind.
    pub fn take_tracer(&mut self) -> Tracer {
        std::mem::replace(&mut self.tracer, Tracer::disabled())
    }

    /// Mutable access to the tracer (for recording events that originate
    /// outside the memory system, e.g. processor stall transitions).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// True when an enabled tracer is installed.
    pub fn trace_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// The line number of `addr`.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    fn schedule(&mut self, time: u64, kind: EventKind) {
        self.seq += 1;
        self.events.push(Reverse(Event {
            time,
            seq: self.seq,
            kind,
        }));
    }

    /// Processes all fills due at or before `now`. Call once per
    /// executed cycle before processor issue/retire.
    pub fn tick(&mut self, now: u64) {
        while let Some(Reverse(ev)) = self.events.peek() {
            if ev.time > now {
                break;
            }
            let Reverse(ev) = self.events.pop().expect("peeked");
            match ev.kind {
                EventKind::FillL2 { proc, line, state } => {
                    // The fill applies before this cycle's (virtual)
                    // occupancy sample, so the booked span ends at the
                    // fill time and the release is visible from it.
                    self.occ_flush(proc as usize, ev.time);
                    self.apply_l2_fill(proc as usize, line, state, ev.time)
                }
                EventKind::FillL1 { proc, line } => self.apply_l1_fill(proc as usize, line),
            }
        }
    }

    /// Books occupancy-histogram cycles `occ_from[proc]..end` at the
    /// current (pre-mutation) occupancy. `end` is exclusive: a mutation
    /// during cycle `t` is first visible to the cycle-`t + 1` sample
    /// (accesses run after the cycle's sample point), while an L2 fill
    /// at `t` is visible to cycle `t` itself (fills apply before it).
    #[inline]
    fn occ_flush(&mut self, proc: usize, end: u64) {
        let from = self.occ_from[proc];
        if end > from {
            let (r, t) = self.l2[proc].mshrs.occupancy();
            self.occupancy[proc].sample_n(r, t, end - from);
            self.occ_from[proc] = end;
        }
    }

    /// Books the remaining occupancy-histogram cycles through `end`
    /// (exclusive) at the final occupancy. Call once when the run's
    /// clock stops, with one past the last executed cycle.
    pub fn close_occupancy(&mut self, end: u64) {
        for p in 0..self.cfg.nprocs {
            self.occ_flush(p, end);
        }
    }

    /// The time of the earliest scheduled fill event, if any. Used by the
    /// event stepper to bound how far the clock may jump.
    pub fn next_event_time(&self) -> Option<u64> {
        self.events.peek().map(|Reverse(ev)| ev.time)
    }

    fn apply_l2_fill(&mut self, proc: usize, line: u64, state: LineState, now: u64) {
        if self.tracer.is_enabled() {
            self.tracer
                .record(now, proc as u32, TraceEventKind::MissFill { line });
            self.tracer
                .record(now, proc as u32, TraceEventKind::MshrRelease { line });
        }
        self.l2[proc].mshrs.release(line);
        // The line may have been invalidated-in-flight; install fresh.
        if self.l2[proc].tags.peek(line) != LineState::Invalid {
            // Upgrade completing: just set the (ownership) state; clean
            // read fills leave whatever state the line already reached.
            if state.is_dirty() {
                self.l2[proc].tags.set_state(line, state);
            }
            return;
        }
        if let Some(victim) = self.l2[proc].tags.fill(line, state) {
            self.evict_line(proc, victim.line, victim.dirty, now);
        }
    }

    fn apply_l1_fill(&mut self, proc: usize, line: u64) {
        self.l1[proc].mshrs.release(line);
        if self.l1[proc].tags.peek(line) == LineState::Invalid {
            // L1 victims are clean from the hierarchy's point of view
            // (dirtiness is tracked at the L2).
            let _ = self.l1[proc].tags.fill(line, LineState::Shared);
        }
    }

    fn evict_line(&mut self, proc: usize, line: u64, dirty: bool, now: u64) {
        // Inclusion: drop the L1 copy.
        if let Some(l1) = self.l1.get_mut(proc) {
            l1.tags.invalidate(line);
        }
        self.proto.evict(line, proc);
        if dirty {
            self.counters[proc].writebacks += 1;
            // Writeback consumes bus + bank bandwidth off the critical path.
            let home = (self.home_of_addr)(line << self.line_shift);
            match self.cfg.topology {
                Topology::SmpBus => {
                    let t = self.buses[0].data(now, self.cfg.l2.line_bytes as u32);
                    self.banks[0].access(line, t);
                }
                Topology::Numa => {
                    if home == proc {
                        let t = self.buses[proc].data(now, self.cfg.l2.line_bytes as u32);
                        self.banks[proc].access(line, t);
                    } else {
                        let t = self
                            .mesh
                            .send(proc, home, self.cfg.l2.line_bytes as u32 + 8, now);
                        self.banks[home].access(line, t);
                    }
                }
            }
        }
    }

    /// Issues a non-binding software prefetch: starts the read miss (if
    /// any) through the normal MSHR/coherence path, but drops it silently
    /// when no MSHR is free and keeps it out of the demand-read
    /// statistics.
    pub fn prefetch(&mut self, proc: usize, addr: u64, now: u64) {
        self.occ_flush(proc, now);
        self.counters[proc].prefetches += 1;
        self.in_prefetch = true;
        let _ = self.access_inner(proc, addr, false, now);
        self.in_prefetch = false;
    }

    /// Performs a timed access by `proc` to `addr` at cycle `now`.
    ///
    /// For loads, the completion time is when data is available; for
    /// stores, when the write is globally performed (ownership granted).
    pub fn access(&mut self, proc: usize, addr: u64, is_write: bool, now: u64) -> Access {
        // `now` is one past the issuing cycle, which is exactly where a
        // registration becomes visible to occupancy samples.
        self.occ_flush(proc, now);
        let r = self.access_inner(proc, addr, is_write, now);
        if !matches!(r, Access::Retry { .. }) {
            if is_write {
                self.counters[proc].stores += 1;
            } else {
                self.counters[proc].loads += 1;
            }
        }
        r
    }

    fn access_inner(&mut self, proc: usize, addr: u64, is_write: bool, now: u64) -> Access {
        let line = self.line_of(addr);
        if self.l1.is_empty() {
            return self.access_l2(proc, line, is_write, now, now);
        }

        // ---- L1 ----
        let l1_state = self.l1[proc].tags.probe(line);
        let l1_lat = self.l1[proc].hit_latency;
        if l1_state != LineState::Invalid {
            // Presence in L1; exclusivity is tracked at the L2.
            let l2_state = self.l2[proc].tags.peek(line);
            if !is_write || l2_state.write_hits() {
                if is_write && l2_state != LineState::Modified {
                    // Silent E -> M: ownership without a transaction.
                    self.l2[proc].tags.set_state(line, LineState::Modified);
                    self.proto.silent_upgrade(line, proc);
                }
                return Access::Done {
                    complete_at: now + l1_lat,
                    l2_miss: false,
                };
            }
            // Write to a shared line: upgrade through the L2 path.
            return self.access_l2(proc, line, true, now + l1_lat, now);
        }
        // L1 miss.
        match self.l1[proc].mshrs.register(line, is_write) {
            MshrOutcome::Coalesced { fill_at } => {
                self.counters[proc].coalesced += 1;
                debug_assert_ne!(fill_at, u64::MAX, "L1 fill times are always known");
                // A write coalescing onto a read fill may still need an
                // upgrade; the L2 state check happens when the write
                // "replays" at fill time.
                if is_write {
                    let l2_state = self.l2[proc].tags.peek(line);
                    if !l2_state.write_hits() {
                        return self.access_l2(proc, line, true, fill_at, now);
                    }
                    if l2_state != LineState::Modified {
                        self.l2[proc].tags.set_state(line, LineState::Modified);
                        self.proto.silent_upgrade(line, proc);
                    }
                }
                Access::Done {
                    complete_at: fill_at + 1,
                    l2_miss: false,
                }
            }
            MshrOutcome::Full => {
                // A full L1 file frees registers only when fills apply
                // (at the top of a cycle, before cores issue), and no
                // path adds entries while it is full, so the earliest
                // fill is an exact first-possibly-successful retry cycle.
                Access::Retry {
                    until: self.l1[proc].mshrs.next_fill_time(),
                }
            }
            MshrOutcome::Allocated => {
                self.counters[proc].l1_misses += 1;
                let r = self.access_l2(proc, line, is_write, now + l1_lat, now);
                match r {
                    Access::Retry { .. } => {
                        // Roll back the L1 MSHR: nothing else saw it this cycle.
                        self.l1[proc].mshrs.release(line);
                        // No bound: this path re-counts the L1 miss on
                        // every attempt, so eliding intermediate polls
                        // would change the miss counters.
                        Access::Retry { until: None }
                    }
                    Access::Done {
                        complete_at,
                        l2_miss,
                    } => {
                        // L1 fill arrives with the data.
                        self.l1[proc].mshrs.set_fill_time(line, complete_at);
                        self.schedule(
                            complete_at,
                            EventKind::FillL1 {
                                proc: proc as u32,
                                line,
                            },
                        );
                        Access::Done {
                            complete_at: complete_at + 1,
                            l2_miss,
                        }
                    }
                }
            }
        }
    }

    /// L2-and-beyond access. `now` is when the L2 sees the request;
    /// `issued_at` is when the processor issued it (for latency stats).
    fn access_l2(
        &mut self,
        proc: usize,
        line: u64,
        is_write: bool,
        now: u64,
        issued_at: u64,
    ) -> Access {
        // Check MSHR availability before consuming any port bandwidth:
        // a retried access that reserved the port every cycle would
        // otherwise snowball the port backlog faster than time advances.
        {
            let peek = self.l2[proc].tags.peek(line);
            let would_hit = if is_write {
                peek.write_hits()
            } else {
                peek != LineState::Invalid
            };
            if !would_hit
                && self.l2[proc].mshrs.get(line).is_none()
                && self.l2[proc].mshrs.free() == 0
            {
                return Access::Retry { until: None };
            }
        }
        let start = self.l2[proc].port.reserve(now, 1);
        let t_lookup = start + self.l2[proc].hit_latency;
        let state = self.l2[proc].tags.probe(line);
        let hit = if is_write {
            state.write_hits()
        } else {
            state != LineState::Invalid
        };
        if hit {
            if is_write && state != LineState::Modified {
                // Silent E -> M: ownership without a transaction.
                self.l2[proc].tags.set_state(line, LineState::Modified);
                self.proto.silent_upgrade(line, proc);
            }
            return Access::Done {
                complete_at: t_lookup,
                l2_miss: false,
            };
        }
        let upgrade = is_write && state.upgradeable();
        match self.l2[proc].mshrs.register(line, is_write) {
            MshrOutcome::Coalesced { fill_at } => {
                self.counters[proc].coalesced += 1;
                debug_assert_ne!(fill_at, u64::MAX);
                self.tracer
                    .record(t_lookup, proc as u32, TraceEventKind::Coalesce { line });
                let entry = self.l2[proc].mshrs.get(line).expect("coalesced entry");
                if is_write && entry.writes == 1 && entry.reads > 0 {
                    // First write joining a read miss: upgrade after fill.
                    let (t, install) = self.global_transaction(proc, line, true, fill_at);
                    // Extend the MSHR's life to the upgrade completion.
                    self.l2[proc].mshrs.set_fill_time(line, t);
                    self.schedule(
                        t,
                        EventKind::FillL2 {
                            proc: proc as u32,
                            line,
                            state: install,
                        },
                    );
                    return Access::Done {
                        complete_at: t,
                        l2_miss: true,
                    };
                }
                Access::Done {
                    complete_at: fill_at,
                    l2_miss: true,
                }
            }
            MshrOutcome::Full => Access::Retry { until: None },
            MshrOutcome::Allocated => {
                self.counters[proc].l2_misses += 1;
                if !is_write && !self.in_prefetch {
                    self.counters[proc].l2_read_misses += 1;
                }
                if self.tracer.is_enabled() {
                    // Snapshot occupancy after registration so the new
                    // miss counts itself (1 == fully serialized).
                    let (reads, total) = self.l2[proc].mshrs.occupancy();
                    self.tracer
                        .record(t_lookup, proc as u32, TraceEventKind::MshrAlloc { line });
                    self.tracer.record(
                        t_lookup,
                        proc as u32,
                        TraceEventKind::MissIssue {
                            line,
                            write: is_write,
                            reads_outstanding: reads as u32,
                            total_outstanding: total as u32,
                        },
                    );
                }
                let (fill_at, install) = if upgrade {
                    self.global_upgrade(proc, line, t_lookup)
                } else {
                    self.global_transaction(proc, line, is_write, t_lookup)
                };
                self.l2[proc].mshrs.set_fill_time(line, fill_at);
                self.schedule(
                    fill_at,
                    EventKind::FillL2 {
                        proc: proc as u32,
                        line,
                        state: install,
                    },
                );
                if !is_write && !self.in_prefetch {
                    self.read_latency[proc].record((fill_at - issued_at) as f64);
                }
                Access::Done {
                    complete_at: fill_at,
                    l2_miss: true,
                }
            }
        }
    }

    /// An ownership upgrade (or Dragon update): no data transfer to the
    /// requester, but other copies must be invalidated — or updated —
    /// through the home/snoop path. Returns the completion time and the
    /// state the requester's line reaches.
    fn global_upgrade(&mut self, proc: usize, line: u64, t0: u64) -> (u64, LineState) {
        // The pooled buffer is taken out of `self` for the duration of
        // the transaction so its lists can be borrowed while `&mut self`
        // models the message timing, then put back for reuse.
        let mut txn = std::mem::take(&mut self.txn);
        txn.reset();
        self.proto.write_miss(line, proc, &mut txn);
        self.counters[proc].upgrades += 1;
        let home = self.effective_home(line);
        let t_home = self.leg_to_home(proc, home, 8, t0) + self.cfg.dir_cycles as u64;
        let t_acks = self.invalidate_all(proc, home, line, &txn.invalidees, t_home);
        let t_acks = t_acks.max(self.update_all(home, line, &txn.updatees, t_home));
        let result = (self.leg_from_home(home, proc, 8, t_acks), txn.install);
        self.txn = txn;
        result
    }

    /// A full miss transaction (read or write). Returns the fill time and
    /// the state the line installs in.
    fn global_transaction(
        &mut self,
        proc: usize,
        line: u64,
        is_write: bool,
        t0: u64,
    ) -> (u64, LineState) {
        let home = self.effective_home(line);
        let line_bytes = self.cfg.l2.line_bytes as u32;
        let mut txn = std::mem::take(&mut self.txn);
        txn.reset();
        let result = if is_write {
            self.proto.write_miss(line, proc, &mut txn);
            let t_home = self.leg_to_home(proc, home, 8, t0) + self.cfg.dir_cycles as u64;
            let t_acks = self.invalidate_all(proc, home, line, &txn.invalidees, t_home);
            let t_acks = t_acks.max(self.update_all(home, line, &txn.updatees, t_home));
            let t = match txn.source {
                DataSource::Memory => {
                    let t_mem = self.bank_access(home, line, t_acks);
                    self.count_locality(proc, home);
                    self.leg_from_home(home, proc, line_bytes + 8, t_mem)
                }
                DataSource::CacheToCache { owner } => {
                    self.counters[proc].cache_to_cache += 1;
                    self.owner_to_requester(home, owner, proc, t_acks)
                }
            };
            (t, txn.install)
        } else {
            self.proto.read_miss(line, proc, &mut txn);
            let t_home = self.leg_to_home(proc, home, 8, t0) + self.cfg.dir_cycles as u64;
            let t = match txn.source {
                DataSource::Memory => {
                    // Clean-exclusive holders lose exclusivity when the
                    // line becomes shared (MESI/MOESI/Dragon; the
                    // directory never reaches Exclusive).
                    for &p in &txn.demote {
                        if self.l2[p].tags.peek(line) == LineState::Exclusive {
                            self.l2[p].tags.set_state(line, LineState::Shared);
                        }
                    }
                    let t_mem = self.bank_access(home, line, t_home);
                    self.count_locality(proc, home);
                    self.leg_from_home(home, proc, line_bytes + 8, t_mem)
                }
                DataSource::CacheToCache { owner } => {
                    self.counters[proc].cache_to_cache += 1;
                    // The supplier keeps a copy. With a memory update
                    // (directory, MESI) its dirty data is written back
                    // off-path and it drops to Shared; without one
                    // (MOESI, Dragon) a dirty supplier stays the owner
                    // (M -> Owned). (The owner's own fill may still be
                    // in flight, in which case there is no installed
                    // line to transition yet.)
                    match self.l2[owner].tags.peek(line) {
                        LineState::Modified => {
                            let next = if txn.memory_update {
                                LineState::Shared
                            } else {
                                LineState::Owned
                            };
                            self.l2[owner].tags.set_state(line, next);
                        }
                        LineState::Exclusive => {
                            self.l2[owner].tags.set_state(line, LineState::Shared);
                        }
                        _ => {}
                    }
                    if txn.memory_update {
                        self.banks_writeback(home, line, t_home);
                    }
                    self.owner_to_requester(home, owner, proc, t_home)
                }
            };
            (t, txn.install)
        };
        self.txn = txn;
        result
    }

    /// Directory home for timing purposes (node 0 for SMP configs).
    fn effective_home(&self, line: u64) -> usize {
        match self.cfg.topology {
            Topology::SmpBus => 0,
            Topology::Numa => (self.home_of_addr)(line << self.line_shift),
        }
    }

    /// Request leg: requester → home.
    fn leg_to_home(&mut self, proc: usize, home: usize, bytes: u32, t: u64) -> u64 {
        match self.cfg.topology {
            Topology::SmpBus => self.buses[0].request(t),
            Topology::Numa => {
                if proc == home {
                    self.buses[proc].request(t)
                } else {
                    self.mesh.send(proc, home, bytes, t)
                }
            }
        }
    }

    /// Response leg: home → requester.
    fn leg_from_home(&mut self, home: usize, proc: usize, bytes: u32, t: u64) -> u64 {
        let fill_overhead = 4; // L2 install
        match self.cfg.topology {
            Topology::SmpBus => self.buses[0].data(t, bytes) + fill_overhead,
            Topology::Numa => {
                if proc == home {
                    self.buses[proc].data(t, bytes) + fill_overhead
                } else {
                    self.mesh.send(home, proc, bytes, t) + fill_overhead
                }
            }
        }
    }

    /// Memory-bank access at the home node; returns data-ready time.
    fn bank_access(&mut self, home: usize, line: u64, t: u64) -> u64 {
        let idx = match self.cfg.topology {
            Topology::SmpBus => 0,
            Topology::Numa => home,
        };
        self.banks[idx].access(line, t)
    }

    /// Off-critical-path writeback bandwidth at the home node.
    fn banks_writeback(&mut self, home: usize, line: u64, t: u64) {
        let idx = match self.cfg.topology {
            Topology::SmpBus => 0,
            Topology::Numa => home,
        };
        self.banks[idx].access(line, t);
    }

    fn count_locality(&mut self, proc: usize, home: usize) {
        if self.cfg.topology == Topology::Numa && proc != home {
            self.counters[proc].remote_misses += 1;
        } else {
            self.counters[proc].local_misses += 1;
        }
    }

    /// Forwarding leg for cache-to-cache transfers:
    /// home → owner (forward), owner lookup, owner → requester (data).
    fn owner_to_requester(&mut self, home: usize, owner: usize, proc: usize, t: u64) -> u64 {
        let line_bytes = self.cfg.l2.line_bytes as u32;
        let lookup = self.l2[owner].hit_latency;
        match self.cfg.topology {
            Topology::SmpBus => {
                // Snooping owner supplies data over the shared bus.
                let t_owner = t + lookup;
                self.buses[0].data(t_owner, line_bytes) + 4
            }
            Topology::Numa => {
                let t_fwd = self.mesh.send(home, owner, 8, t);
                // Intervention: the owner's controller processes the
                // forwarded request, reads tags and the full line from
                // its data array — the protocol overhead that makes
                // cache-to-cache the slowest miss class (210-310 cycles
                // vs 180-260 remote in Section 4.1).
                let t_owner =
                    self.l2[owner].port.reserve(t_fwd, 1) + 2 * lookup + self.cfg.dir_cycles as u64;
                self.mesh.send(owner, proc, line_bytes + 8, t_owner) + 4
            }
        }
    }

    /// Sends invalidations to every processor in `invalidees`, applying
    /// them to their caches, and returns when all acks have reached home.
    fn invalidate_all(
        &mut self,
        _proc: usize,
        home: usize,
        line: u64,
        invalidees: &[usize],
        t: u64,
    ) -> u64 {
        let mut done = t;
        for &victim in invalidees {
            self.counters[victim].invalidations += 1;
            if let Some(l1) = self.l1.get_mut(victim) {
                l1.tags.invalidate(line);
            }
            self.l2[victim].tags.invalidate(line);
            let t_ack = match self.cfg.topology {
                Topology::SmpBus => t, // snooped on the same bus transaction
                Topology::Numa => {
                    let t_inv = self.mesh.send(home, victim, 8, t);
                    self.mesh.send(victim, home, 8, t_inv)
                }
            };
            done = done.max(t_ack);
        }
        done
    }

    /// Broadcasts the written word to every processor in `updatees`
    /// (write-update protocols): their copies stay valid and current,
    /// but a former exclusive/dirty holder is now merely a sharer.
    /// Returns when all updates (and their acks) have reached home.
    fn update_all(&mut self, home: usize, line: u64, updatees: &[usize], t: u64) -> u64 {
        if updatees.is_empty() {
            return t;
        }
        // On a shared bus one broadcast transaction reaches every
        // snooper; word + address is one bus cycle of data.
        let bus_done = match self.cfg.topology {
            Topology::SmpBus => self.buses[0].data(t, 8),
            Topology::Numa => t,
        };
        let mut done = bus_done;
        for &victim in updatees {
            self.counters[victim].updates += 1;
            let state = self.l2[victim].tags.peek(line);
            if state != LineState::Invalid && state != LineState::Shared {
                self.l2[victim].tags.set_state(line, LineState::Shared);
            }
            let t_ack = match self.cfg.topology {
                Topology::SmpBus => bus_done, // snooped off the broadcast
                Topology::Numa => {
                    // Point-to-point: word + address out, ack back.
                    let t_upd = self.mesh.send(home, victim, 16, t);
                    self.mesh.send(victim, home, 8, t_upd)
                }
            };
            done = done.max(t_ack);
        }
        done
    }

    // ---- statistics accessors -----------------------------------------

    /// Per-processor counters.
    pub fn counters(&self, proc: usize) -> &MemCounters {
        &self.counters[proc]
    }

    /// Aggregated counters across processors.
    pub fn total_counters(&self) -> MemCounters {
        let mut t = MemCounters::default();
        for c in &self.counters {
            t.merge(c);
        }
        t
    }

    /// Per-processor L2 read-miss latency distribution.
    pub fn read_latency(&self, proc: usize) -> &LatencyStat {
        &self.read_latency[proc]
    }

    /// Aggregated read-miss latency distribution.
    pub fn total_read_latency(&self) -> LatencyStat {
        let mut t = LatencyStat::default();
        for l in &self.read_latency {
            t.merge(l);
        }
        t
    }

    /// Per-processor L2 MSHR occupancy histogram (Figure 4).
    pub fn occupancy(&self, proc: usize) -> &MshrOccupancy {
        &self.occupancy[proc]
    }

    /// Merged occupancy histogram across processors.
    pub fn total_occupancy(&self) -> MshrOccupancy {
        let mut t = MshrOccupancy::new(self.cfg.l2.mshrs);
        for o in &self.occupancy {
            t.merge(o);
        }
        t
    }

    /// Bus utilization over `elapsed` cycles (averaged over buses).
    pub fn bus_utilization(&self, elapsed: u64) -> Utilization {
        let mut u = Utilization::default();
        for b in &self.buses {
            let x = b.utilization(elapsed);
            u.busy += x.busy;
            u.total += x.total;
        }
        u
    }

    /// Memory-bank utilization over `elapsed` cycles.
    pub fn bank_utilization(&self, elapsed: u64) -> Utilization {
        let mut u = Utilization::default();
        for b in &self.banks {
            let x = b.utilization(elapsed);
            u.busy += x.busy;
            u.total += x.total;
        }
        u
    }

    /// Registers this memory system's end-of-run statistics into `reg`
    /// under the `sim.*` dot-path convention (see
    /// [`MetricsRegistry`]); `elapsed` is the run's cycle count, used for
    /// utilization fractions.
    pub fn export_metrics(&self, elapsed: u64, reg: &mut MetricsRegistry) {
        let t = self.total_counters();
        reg.counter("sim.mem.loads", t.loads);
        reg.counter("sim.mem.stores", t.stores);
        reg.counter("sim.mem.prefetches", t.prefetches);
        reg.counter("sim.mem.writebacks", t.writebacks);
        reg.counter("sim.mem.local_miss", t.local_misses);
        reg.counter("sim.mem.remote_miss", t.remote_misses);
        reg.counter("sim.mem.cache_to_cache", t.cache_to_cache);
        reg.counter("sim.cache.l1.miss", t.l1_misses);
        reg.counter("sim.cache.l2.miss", t.l2_misses);
        reg.counter("sim.cache.l2.read_miss", t.l2_read_misses);
        reg.counter("sim.cache.l2.coalesced", t.coalesced);
        reg.counter("sim.coh.invalidations", t.invalidations);
        reg.counter("sim.coh.upgrades", t.upgrades);
        reg.counter("sim.coh.updates", t.updates);
        self.proto.export_metrics(reg);

        let lat = self.total_read_latency();
        reg.gauge("sim.cache.l2.read_latency.mean", lat.mean());
        reg.gauge("sim.cache.l2.read_latency.max", lat.max);
        reg.counter("sim.cache.l2.read_latency.count", lat.count);

        reg.gauge(
            "sim.bus.utilization",
            self.bus_utilization(elapsed).fraction(),
        );
        reg.gauge(
            "sim.bank.utilization",
            self.bank_utilization(elapsed).fraction(),
        );
        if self.cfg.topology == Topology::Numa && self.cfg.nprocs > 1 {
            self.mesh
                .export_metrics("sim.mesh.utilization", elapsed, reg);
        }
        for (i, b) in self.buses.iter().enumerate() {
            b.export_metrics(&format!("sim.bus{i}.utilization"), elapsed, reg);
        }
        for (i, b) in self.banks.iter().enumerate() {
            b.export_metrics(&format!("sim.bank{i}.utilization"), elapsed, reg);
        }

        let occ = self.total_occupancy();
        reg.gauge(
            "sim.cache.l2.mshr.mean_read_occupancy",
            occ.mean_read_occupancy(),
        );
        reg.histogram("sim.cache.l2.mshr.read_occupancy", occ.read_histogram());
        reg.histogram("sim.cache.l2.mshr.total_occupancy", occ.total_histogram());

        for p in 0..self.cfg.nprocs {
            let c = &self.counters[p];
            let pre = format!("sim.proc{p}");
            reg.counter(&format!("{pre}.l2.miss"), c.l2_misses);
            reg.counter(&format!("{pre}.l2.read_miss"), c.l2_read_misses);
            reg.counter(&format!("{pre}.l2.coalesced"), c.coalesced);
            reg.gauge(
                &format!("{pre}.l2.read_latency.mean"),
                self.read_latency[p].mean(),
            );
            reg.gauge(
                &format!("{pre}.l2.mshr.mean_read_occupancy"),
                self.occupancy[p].mean_read_occupancy(),
            );
            self.l2[p]
                .mshrs
                .export_metrics(&format!("{pre}.l2.mshr"), reg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uni() -> MemSystem {
        let cfg = MachineConfig::base_simulated(1, 64 * 1024);
        MemSystem::new(&cfg, Box::new(|_| 0))
    }

    #[test]
    fn cold_miss_then_hits() {
        let mut m = uni();
        let a = 0x10000u64;
        let r = m.access(0, a, false, 0);
        let Access::Done {
            complete_at: t_miss,
            l2_miss,
        } = r
        else {
            panic!("unexpected retry")
        };
        assert!(l2_miss);
        // Unloaded local miss should land in the right ballpark (~85
        // cycles in the paper's base system).
        assert!((60..=120).contains(&t_miss), "local miss latency {t_miss}");
        m.tick(t_miss + 1);
        let now = t_miss + 2;
        let r2 = m.access(0, a, false, now);
        let Access::Done {
            complete_at,
            l2_miss,
        } = r2
        else {
            panic!()
        };
        assert!(!l2_miss);
        assert_eq!(complete_at, now + 1, "L1 hit after fill");
    }

    #[test]
    fn same_line_coalesces() {
        let mut m = uni();
        let r1 = m.access(0, 0x20000, false, 0);
        let r2 = m.access(0, 0x20008, false, 0); // same 64B line
        let Access::Done {
            complete_at: t1, ..
        } = r1
        else {
            panic!()
        };
        let Access::Done {
            complete_at: t2, ..
        } = r2
        else {
            panic!()
        };
        // The second access rides the first's fill (plus L1 handoff).
        assert!(t2 <= t1 + 8, "t1={t1} t2={t2}");
        assert_eq!(m.counters(0).l2_misses, 1);
        assert!(m.counters(0).coalesced >= 1);
    }

    #[test]
    fn different_lines_overlap() {
        let mut m = uni();
        let mut times = Vec::new();
        for i in 0..4u64 {
            let r = m.access(0, 0x40000 + i * 64, false, 0);
            let Access::Done { complete_at, .. } = r else {
                panic!()
            };
            times.push(complete_at);
        }
        // Four misses overlap: the last finishes far sooner than 4x the first.
        let serial = times[0] * 4;
        assert!(
            *times.last().expect("nonempty") < serial * 3 / 4,
            "times={times:?}"
        );
    }

    #[test]
    fn mshr_limit_forces_retry() {
        let cfg = MachineConfig::base_simulated(1, 64 * 1024);
        let mut m = MemSystem::new(&cfg, Box::new(|_| 0));
        let mshrs = cfg.l2.mshrs;
        let mut retries = 0;
        for i in 0..(mshrs as u64 + 4) {
            match m.access(0, 0x80000 + i * 64, false, 0) {
                Access::Retry { .. } => retries += 1,
                Access::Done { .. } => {}
            }
        }
        assert!(retries >= 4, "expected retries once MSHRs fill");
    }

    #[test]
    fn occupancy_sampled() {
        let mut m = uni();
        for i in 0..4u64 {
            let _ = m.access(0, 0x90000 + i * 64, false, 0);
        }
        m.tick(1);
        // Occupancy books lazily; close the accounting to observe it.
        m.close_occupancy(2);
        assert!(m.occupancy(0).read_at_least(4) > 0.0);
    }

    #[test]
    fn store_miss_counts_not_read() {
        let mut m = uni();
        let _ = m.access(0, 0xa0000, true, 0);
        assert_eq!(m.counters(0).l2_misses, 1);
        assert_eq!(m.counters(0).l2_read_misses, 0);
        assert_eq!(m.counters(0).stores, 1);
    }

    #[test]
    fn write_after_read_line_upgrades() {
        let mut m = uni();
        let a = 0xb0000u64;
        let Access::Done { complete_at: t, .. } = m.access(0, a, false, 0) else {
            panic!()
        };
        m.tick(t + 1);
        // Write hits L1 presence but the L2 line is only Shared: upgrade.
        let Access::Done {
            complete_at: t2,
            l2_miss,
        } = m.access(0, a, true, t + 2)
        else {
            panic!()
        };
        assert!(l2_miss, "upgrade counted as external transaction");
        assert!(t2 > t + 3);
        m.tick(t2 + 1);
        // Second write now hits exclusively.
        let Access::Done {
            complete_at: t3,
            l2_miss,
        } = m.access(0, a, true, t2 + 2)
        else {
            panic!()
        };
        assert!(!l2_miss);
        assert_eq!(t3, t2 + 3);
    }

    fn mp4() -> MemSystem {
        let cfg = MachineConfig::base_simulated(4, 64 * 1024);
        // Home by 1 MB address block for test purposes.
        MemSystem::new(&cfg, Box::new(|addr| ((addr >> 20) as usize) % 4))
    }

    #[test]
    fn remote_miss_slower_than_local() {
        let mut m = mp4();
        // line homes: lines 0.. are at node 0.
        let local_addr = 0u64; // home 0, requester 0
        let remote_addr = 1u64 << 20; // home 1
        let Access::Done {
            complete_at: t_local,
            ..
        } = m.access(0, local_addr, false, 0)
        else {
            panic!()
        };
        let Access::Done {
            complete_at: t_remote,
            ..
        } = m.access(0, remote_addr, false, 0)
        else {
            panic!()
        };
        assert!(
            t_remote > t_local + 30,
            "remote {t_remote} should be well above local {t_local}"
        );
        assert_eq!(m.counters(0).remote_misses, 1);
        assert_eq!(m.counters(0).local_misses, 1);
    }

    #[test]
    fn cache_to_cache_transfer() {
        let mut m = mp4();
        let a = 0u64; // home node 0
                      // Proc 1 writes the line (becomes owner).
        let Access::Done {
            complete_at: t1, ..
        } = m.access(1, a, true, 0)
        else {
            panic!()
        };
        m.tick(t1 + 1);
        // Proc 2 reads: must be served cache-to-cache from proc 1.
        let Access::Done {
            complete_at: t2, ..
        } = m.access(2, a, false, t1 + 2)
        else {
            panic!()
        };
        assert!(t2 > t1);
        assert_eq!(m.counters(2).cache_to_cache, 1);
    }

    #[test]
    fn write_invalidates_remote_copies() {
        let mut m = mp4();
        let a = 0u64;
        let Access::Done {
            complete_at: t0, ..
        } = m.access(1, a, false, 0)
        else {
            panic!()
        };
        m.tick(t0 + 1);
        // Proc 1 has it shared; proc 2 writes.
        let Access::Done {
            complete_at: t1, ..
        } = m.access(2, a, true, t0 + 2)
        else {
            panic!()
        };
        m.tick(t1 + 1);
        assert_eq!(m.counters(1).invalidations, 1);
        // Proc 1's next read is a (coherence) miss served c2c from proc 2.
        let Access::Done {
            complete_at: _t2,
            l2_miss,
        } = m.access(1, a, false, t1 + 2)
        else {
            panic!()
        };
        assert!(l2_miss);
        assert_eq!(m.counters(1).cache_to_cache, 1);
    }

    #[test]
    fn exemplar_single_level_works() {
        let cfg = MachineConfig::exemplar(2);
        let mut m = MemSystem::new(&cfg, Box::new(|_| 0));
        let Access::Done {
            complete_at,
            l2_miss,
        } = m.access(0, 0x1000, false, 0)
        else {
            panic!()
        };
        assert!(l2_miss);
        m.tick(complete_at + 1);
        let Access::Done {
            complete_at: t2,
            l2_miss,
        } = m.access(0, 0x1000, false, complete_at + 2)
        else {
            panic!()
        };
        assert!(!l2_miss);
        assert_eq!(t2, complete_at + 2 + cfg.l2.hit_latency as u64);
    }

    /// Section 4.1 calibration: unloaded latencies must land in the
    /// paper's stated ranges (local ~85, remote 180-260, c2c 210-310).
    #[test]
    fn unloaded_latencies_match_section_4_1() {
        let cfg = MachineConfig::base_simulated(16, 64 * 1024);
        // Home by 1 MB address block across 16 nodes.
        let mut m = MemSystem::new(&cfg, Box::new(|addr| ((addr >> 20) as usize) % 16));
        // Local: proc 0 reads an address homed at node 0.
        let Access::Done {
            complete_at: local, ..
        } = m.access(0, 64, false, 0)
        else {
            panic!()
        };
        assert!((60..=110).contains(&local), "local {local}");
        // Remote: proc 0 reads an address homed at a far node.
        let far_addr = 15u64 << 20;
        let Access::Done {
            complete_at: remote,
            ..
        } = m.access(0, far_addr, false, 1000)
        else {
            panic!()
        };
        let remote_lat = remote - 1000;
        assert!(
            (140..=300).contains(&remote_lat),
            "remote {remote_lat} outside the 180-260 band (±margin)"
        );
        assert!(remote_lat > local + 40, "remote must clearly exceed local");
        // Cache-to-cache at the same total mesh distance as the remote
        // fetch (0->15->10->0 = 12 hops, like 0->15->0): proc 10 dirties
        // a line homed at node 15; proc 0 reads.
        let shared = (15u64 << 20) + 4096;
        let Access::Done {
            complete_at: t1, ..
        } = m.access(10, shared, true, 2000)
        else {
            panic!()
        };
        m.tick(t1 + 1);
        let Access::Done {
            complete_at: c2c, ..
        } = m.access(0, shared, false, t1 + 2)
        else {
            panic!()
        };
        let c2c_lat = c2c - (t1 + 2);
        assert!(
            (170..=380).contains(&c2c_lat),
            "c2c {c2c_lat} outside the 210-310 band (±margin)"
        );
        assert!(
            c2c_lat > remote_lat,
            "3-hop transfers are the slowest class: c2c {c2c_lat} vs remote {remote_lat}"
        );
    }

    #[test]
    fn prefetch_starts_miss_without_counting_demand() {
        let mut m = uni();
        m.prefetch(0, 0xd0000, 0);
        assert_eq!(m.counters(0).prefetches, 1);
        assert_eq!(m.counters(0).l2_read_misses, 0, "not a demand read");
        assert_eq!(m.counters(0).loads, 0);
        assert_eq!(m.counters(0).l2_misses, 1, "but the line is being fetched");
        // A demand load shortly after rides the prefetch's MSHR.
        let Access::Done { complete_at, .. } = m.access(0, 0xd0000, false, 2) else {
            panic!()
        };
        let Access::Done {
            complete_at: cold, ..
        } = m.access(0, 0xe0000, false, 2)
        else {
            panic!()
        };
        assert!(
            complete_at <= cold,
            "prefetched line ready no later than a cold miss: {complete_at} vs {cold}"
        );
        assert!(m.counters(0).coalesced >= 1);
    }

    #[test]
    fn prefetch_dropped_when_mshrs_full() {
        let mut m = uni();
        for i in 0..10u64 {
            let _ = m.access(0, 0xf0000 + i * 64, false, 0);
        }
        // All 10 MSHRs busy: the prefetch is silently dropped.
        m.prefetch(0, 0x200000, 0);
        assert_eq!(m.counters(0).prefetches, 1);
        let (_, total) = (0, 0);
        let _ = total;
        // No eleventh outstanding miss materialized.
        assert_eq!(m.counters(0).l2_misses, 10);
    }

    #[test]
    fn bank_and_bus_utilization_accumulate() {
        let mut m = uni();
        for i in 0..8u64 {
            let _ = m.access(0, 0xc0000 + i * 64, false, 0);
        }
        assert!(m.bus_utilization(1000).fraction() > 0.0);
        assert!(m.bank_utilization(1000).fraction() > 0.0);
    }
}
