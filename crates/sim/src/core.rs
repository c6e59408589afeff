//! The out-of-order processor core.
//!
//! Models the ILP features the paper's argument rests on: a fixed-size
//! instruction window with in-order retirement (Section 2.1), multi-way
//! fetch/retire, out-of-order issue over a pool of pipelined functional
//! units, non-blocking loads through the memory queue, write buffering
//! under release consistency (stores retire once issued), and a bounded
//! number of unresolved branches.
//!
//! Execution-time accounting follows Section 5.2: each cycle contributes
//! `retired/width` busy time; the remainder is attributed to the first
//! instruction that could not retire.

use std::collections::{BinaryHeap, VecDeque};

use mempar_ir::{DynOp, FpUnit, OpKind, SrcList};
use mempar_stats::{Breakdown, StallClass};

use crate::config::ProcParams;
use crate::memsys::{Access, MemSystem};
use crate::sync::SyncState;

const READY_UNKNOWN: u64 = u64::MAX;

/// "End of waiter list" / "no waiters".
const NO_WAITER: u64 = u64::MAX;

#[derive(Debug, Clone)]
struct Entry {
    op: DynOp,
    /// Max ready time of sources resolved so far.
    ready_at: u64,
    /// Sources whose producers have not issued yet (completion unknown).
    /// Kept current eagerly: when a producer issues, its waiter walk
    /// removes the source and folds the completion time into `ready_at`.
    pending: SrcList,
    issued: bool,
    /// Completion time (u64::MAX until known).
    complete_at: u64,
    /// For branches: counted as resolved in the unresolved-branch limit.
    branch_resolved: bool,
    /// Cycle the op entered the window (for latency accounting).
    fetched_at: u64,
    /// Head of this entry's waiter list — consumers of its dst parked
    /// until it issues. A node packs `(waiter_seq << 2) | src_slot`;
    /// `NO_WAITER` ends the list.
    first_waiter: u64,
    /// Per-pending-source-slot link to the next waiter of the same
    /// producer (the waiter lists are threaded through the entries).
    next_waiter: [u64; mempar_ir::MAX_SRCS],
    /// Set when the memory system refused this op with a provable
    /// release bound ([`Access::Retry`]'s `until`): the earliest cycle a
    /// re-attempt could succeed. The wake scan sleeps until then instead
    /// of re-polling a full MSHR file every cycle; a stale bound (`<=
    /// now`) falls back to next-cycle retry.
    mshr_wait: u64,
}

/// Ready times for in-flight destination vregs, stored as an open-slot
/// tagged table instead of a `HashMap` (the lookup is the hottest line
/// in the issue scan).
///
/// The interpreter allocates dst vregs sequentially and the window
/// retires in order, so live dsts occupy a contiguous numeric span no
/// wider than the window: with capacity above that span, `vreg & mask`
/// is collision-free. A collision between two *live* vregs (possible
/// only for hand-built traces) triggers a grow-and-rebuild in the core.
/// Tag 0 means "empty" — vreg 0 is the interpreter's "no register"
/// sentinel and never appears as a dst.
#[derive(Debug)]
struct VregFile {
    tags: Vec<u32>,
    times: Vec<u64>,
    /// Producer entry sequence numbers, meaningful while the recorded
    /// time is `READY_UNKNOWN` (consumer fetch uses them to hook into
    /// the producer's waiter list). A dst vreg reused while its previous
    /// producer is still unissued would rebind the slot — real traces
    /// never do that (vregs are fresh per dynamic op).
    seqs: Vec<u64>,
    mask: usize,
}

impl VregFile {
    fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(8);
        VregFile {
            tags: vec![0; cap],
            times: vec![0; cap],
            seqs: vec![0; cap],
            mask: cap - 1,
        }
    }

    fn capacity(&self) -> usize {
        self.tags.len()
    }

    /// The recorded ready time, or `None` when the vreg is absent
    /// (absent = the producer retired = the value is ready).
    #[inline]
    fn get(&self, vreg: u32) -> Option<u64> {
        let slot = vreg as usize & self.mask;
        if self.tags[slot] == vreg {
            Some(self.times[slot])
        } else {
            None
        }
    }

    /// Ready time plus producer seq (`seq` meaningful only while the
    /// time is `READY_UNKNOWN`).
    #[inline]
    fn get_full(&self, vreg: u32) -> Option<(u64, u64)> {
        let slot = vreg as usize & self.mask;
        if self.tags[slot] == vreg {
            Some((self.times[slot], self.seqs[slot]))
        } else {
            None
        }
    }

    /// Inserts or updates; returns false when the slot holds a different
    /// live vreg (caller must grow and retry).
    #[inline]
    fn try_insert(&mut self, vreg: u32, time: u64, seq: u64) -> bool {
        debug_assert_ne!(vreg, 0, "vreg 0 is the empty-slot sentinel");
        let slot = vreg as usize & self.mask;
        let tag = self.tags[slot];
        if tag == 0 || tag == vreg {
            self.tags[slot] = vreg;
            self.times[slot] = time;
            self.seqs[slot] = seq;
            true
        } else {
            false
        }
    }

    #[inline]
    fn remove(&mut self, vreg: u32) {
        let slot = vreg as usize & self.mask;
        if self.tags[slot] == vreg {
            self.tags[slot] = 0;
        }
    }
}

/// Bitset over reorder-buffer positions (bit `i` = `rob[i]`).
///
/// The issue stage is the simulator's hottest loop; in memory-stalled
/// phases the window is mostly issued entries waiting on fills, which a
/// position walk would re-visit every cycle just to skip. Tracking the
/// positions that can still *do* something lets both issue scans — the
/// candidate walk and load/store disambiguation — jump straight to them,
/// whole empty words at a time. Position bits renumber on retirement via
/// [`RobBits::shift_down`], mirroring the window's `pop_front`s.
#[derive(Debug)]
struct RobBits {
    words: Vec<u64>,
}

impl RobBits {
    fn new(window: usize) -> Self {
        RobBits {
            words: vec![0; window.div_ceil(64).max(1)],
        }
    }

    #[inline]
    fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    fn clear(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Drops the lowest `k` bits (entries popped from the window head)
    /// and renumbers the rest down by `k`.
    fn shift_down(&mut self, k: usize) {
        if k == 0 {
            return;
        }
        let wshift = k / 64;
        let bshift = (k % 64) as u32;
        for i in 0..self.words.len() {
            let lo = self.words.get(i + wshift).copied().unwrap_or(0);
            let hi = self.words.get(i + wshift + 1).copied().unwrap_or(0);
            self.words[i] = if bshift == 0 {
                lo
            } else {
                (lo >> bshift) | (hi << (64 - bshift))
            };
        }
    }
}

/// A small unordered multiset of completion times. Both uses are bounded
/// by the memory queue depth (a handful of entries), where linear scans
/// beat heap maintenance and the backing buffer is reused for the whole
/// run — no steady-state allocation.
#[derive(Debug)]
struct TimeBag {
    times: Vec<u64>,
    /// Cached minimum of `times` (`u64::MAX` when empty), so the no-op
    /// drain — by far the common case — is a single compare.
    min: u64,
}

impl TimeBag {
    fn with_capacity(n: usize) -> Self {
        TimeBag {
            times: Vec::with_capacity(n),
            min: u64::MAX,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.times.len()
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    #[inline]
    fn push(&mut self, t: u64) {
        self.times.push(t);
        self.min = self.min.min(t);
    }

    /// Removes every time `<= now`.
    #[inline]
    fn drain_through(&mut self, now: u64) {
        if self.min > now {
            return;
        }
        let mut i = 0;
        let mut min = u64::MAX;
        while i < self.times.len() {
            let t = self.times[i];
            if t <= now {
                self.times.swap_remove(i);
            } else {
                min = min.min(t);
                i += 1;
            }
        }
        self.min = min;
    }

    /// Smallest retained time strictly after `now`, ignoring entries that
    /// lazy draining has not removed yet (they are `<= now`, hence already
    /// complete): exactly the minimum a drained bag would report.
    #[inline]
    fn min_after(&self, now: u64) -> Option<u64> {
        if self.min > now {
            return (self.min != u64::MAX).then_some(self.min);
        }
        self.times.iter().copied().filter(|&t| t > now).min()
    }
}

/// One simulated processor core.
#[derive(Debug)]
pub struct Core {
    /// Processor index in the system.
    pub id: usize,
    params: ProcParams,
    rob: VecDeque<Entry>,
    vreg_ready: VregFile,
    unresolved_branches: usize,
    /// In-flight memory ops (loads to completion, stores to global
    /// performance); bounded by the memory queue size.
    mem_inflight: TimeBag,
    /// Outstanding stores (for release fences). Every entry is pushed and
    /// drained in lockstep with a matching `mem_inflight` entry, so it
    /// shares the memory-queue bound.
    pending_stores: TimeBag,
    /// True while a fetched Barrier/FlagWait blocks further fetch: the
    /// interpreter must not run ahead of acquire synchronization, or it
    /// would functionally read values the producer has not written yet.
    sync_fetch_block: bool,
    /// True once the trace source is exhausted (Halt fetched).
    pub trace_done: bool,
    /// True once Halt has retired.
    pub halted: bool,
    /// Cycle at which the core halted.
    pub halt_cycle: u64,
    /// Execution-time breakdown (Figure 3 accounting).
    pub breakdown: Breakdown,
    /// Retired instruction count.
    pub retired: u64,
    /// Instructions retired by the most recent [`Core::retire`] call
    /// (event scheduling: a retiring core may retire again next cycle).
    retired_last_cycle: u32,
    /// Stall class charged by the most recent [`Core::retire`] call, or
    /// `None` when the core retired a full width (or halted). The system
    /// driver turns transitions of this into trace stall spans.
    last_stall: Option<StallClass>,
    l1_ports: u32,
    /// `frac_tab[r]` is `r / width` in `f64`, computed once with the very
    /// division retire would otherwise perform per call (bit-identical
    /// values, no per-retire divide).
    frac_tab: Vec<f64>,
    /// Window entries not yet issued. When zero (and no issued branch
    /// still awaits resolution bookkeeping) the issue stage is a provable
    /// no-op and is skipped entirely.
    unissued: usize,
    /// Issued branches not yet marked resolved by the issue scan (the
    /// scan is what decrements `unresolved_branches` for them).
    issued_unresolved_branches: usize,
    /// Set by the most recent [`Core::issue`] call when the scan left a
    /// ready instruction unissued behind a per-cycle resource limit
    /// (FU/port/queue/MSHR/store disambiguation). Exactly the condition
    /// under which [`Core::next_event_time`] answers `now + 1`, cached so
    /// the scheduler need not rescan the window to learn it.
    issue_blocked: bool,
    /// Window positions the issue scan must visit, split by kind so the
    /// scan can drop one side wholesale: `cand` holds non-memory
    /// candidates (plus issued branches awaiting resolution bookkeeping),
    /// `cand_mem` holds unissued loads and stores. Everything else in
    /// the window is settled and the scan skips it. The split pays in
    /// memory-saturated phases: the moment the load/store gates
    /// (address units, cache ports, memory queue) fill for a cycle they
    /// stay full for the rest of the scan — every counter is monotone
    /// within it — so all remaining `cand_mem` visits are provable
    /// refusals and the walk masks them off in one step.
    cand: RobBits,
    /// Unissued load/store positions (see [`Core::cand`]).
    cand_mem: RobBits,
    /// Window positions holding stores (issued or not), for load
    /// disambiguation without walking non-store entries.
    store_pos: RobBits,
    /// Sequence number of `rob[0]` (position `i` holds entry
    /// `head_seq + i`), so parked entries survive window renumbering.
    head_seq: u64,
    /// Unissued entries whose sources all resolved to a known future
    /// ready time, keyed `(ready_at, seq)`: parked out of the candidate
    /// set until their cycle comes instead of being re-visited every
    /// scan. Only entries that cannot retire unissued may park here.
    deferred: BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
}

impl Core {
    /// A new core with the given parameters. `l1_ports` bounds memory
    /// issues per cycle (the L1's port count, or the L2's for single-level
    /// hierarchies).
    pub fn new(id: usize, params: &ProcParams, l1_ports: u32) -> Self {
        Core {
            id,
            params: params.clone(),
            rob: VecDeque::with_capacity(params.window),
            vreg_ready: VregFile::with_capacity(4 * params.window),
            unresolved_branches: 0,
            mem_inflight: TimeBag::with_capacity(params.mem_queue),
            pending_stores: TimeBag::with_capacity(params.mem_queue),
            sync_fetch_block: false,
            trace_done: false,
            halted: false,
            halt_cycle: 0,
            breakdown: Breakdown::new(),
            retired: 0,
            retired_last_cycle: 0,
            last_stall: None,
            l1_ports,
            frac_tab: (0..=params.width)
                .map(|r| f64::from(r) / f64::from(params.width))
                .collect(),
            unissued: 0,
            issued_unresolved_branches: 0,
            issue_blocked: false,
            cand: RobBits::new(params.window),
            cand_mem: RobBits::new(params.window),
            store_pos: RobBits::new(params.window),
            head_seq: 0,
            deferred: BinaryHeap::new(),
        }
    }

    /// True when the core retired something last cycle or can fetch now —
    /// the cheap "will plausibly act next cycle" test that lets
    /// [`Core::next_event_time`] answer `now + 1` without a window scan.
    fn made_progress(&self) -> bool {
        !self.halted && (self.retired_last_cycle > 0 || self.fetch_room() > 0)
    }

    /// Window slots still free this cycle.
    pub fn fetch_room(&self) -> usize {
        if self.trace_done
            || self.sync_fetch_block
            || self.unresolved_branches >= self.params.max_branches
        {
            return 0;
        }
        (self.params.window - self.rob.len()).min(self.params.width as usize)
    }

    /// Inserts a fetched op into the window.
    ///
    /// # Panics
    /// Panics if the window is full (callers must respect
    /// [`Core::fetch_room`]).
    pub fn fetch(&mut self, op: DynOp, now: u64) {
        assert!(self.rob.len() < self.params.window, "window overflow");
        let seq = self.head_seq + self.rob.len() as u64;
        let mut ready_at = now;
        let mut pending = SrcList::new();
        let mut next_waiter = [NO_WAITER; mempar_ir::MAX_SRCS];
        for &src in op.srcs.as_slice() {
            match self.vreg_ready.get_full(src) {
                None => {}
                Some((READY_UNKNOWN, pseq)) => {
                    // Producer not issued: park on its waiter list; its
                    // issue wakes this entry (no per-cycle re-polling).
                    let k = pending.len();
                    pending.push(src);
                    if let Some(p) = pseq
                        .checked_sub(self.head_seq)
                        .and_then(|d| self.rob.get_mut(d as usize))
                    {
                        next_waiter[k] = p.first_waiter;
                        p.first_waiter = (seq << 2) | k as u64;
                    }
                    // Producer gone (retired unissued — hand-built
                    // traces only): the source stays pending forever,
                    // matching the lazy scan's behavior.
                }
                Some((t, _)) => ready_at = ready_at.max(t),
            }
        }
        if let Some(dst) = op.dst {
            self.vreg_set(dst, READY_UNKNOWN, seq);
        }
        if matches!(op.kind, OpKind::Branch) {
            self.unresolved_branches += 1;
        }
        if matches!(op.kind, OpKind::Barrier { .. } | OpKind::FlagWait { .. }) {
            // Acquire semantics: stop fetching (and thus functionally
            // executing) past the synchronization until it completes.
            self.sync_fetch_block = true;
        }
        if matches!(op.kind, OpKind::Halt) {
            self.trace_done = true;
        }
        let pos = self.rob.len();
        // Scan-candidate placement: an entry waiting on unissued
        // producers is woken by their waiter walks; one whose sources
        // all resolved to a known future time parks in the deferral
        // heap; head-of-window sync ops never need the scan at all.
        if Self::can_defer(&op.kind) && pending.is_empty() {
            if ready_at > now {
                self.deferred.push(std::cmp::Reverse((ready_at, seq)));
            } else if Self::is_mem_cand(&op.kind) {
                self.cand_mem.set(pos);
            } else {
                self.cand.set(pos);
            }
        }
        if matches!(op.kind, OpKind::Store { .. }) {
            self.store_pos.set(pos);
        }
        self.rob.push_back(Entry {
            op,
            ready_at,
            pending,
            issued: false,
            complete_at: u64::MAX,
            branch_resolved: false,
            fetched_at: now,
            first_waiter: NO_WAITER,
            next_waiter,
            mshr_wait: 0,
        });
        self.unissued += 1;
    }

    /// Drains memory-op completions whose time has passed. Called lazily,
    /// just before the bags are consulted: the issue scan's gates read
    /// `mem_inflight.len()` and the `FlagSet` arm reads
    /// `pending_stores.is_empty()`, both after the drain at the top of
    /// [`Core::issue`]; [`Core::next_event_time`] reads through
    /// [`TimeBag::min_after`], which filters stale entries itself.
    fn drain_mem(&mut self, now: u64) {
        self.mem_inflight.drain_through(now);
        self.pending_stores.drain_through(now);
    }

    /// Issue stage: selects ready instructions oldest-first, obeying
    /// functional-unit counts, memory-queue space and cache ports.
    pub fn issue(&mut self, mem: &mut MemSystem, now: u64) {
        self.issue_blocked = false;
        if self.unissued == 0 && self.issued_unresolved_branches == 0 {
            // Nothing to issue and no branch-resolution bookkeeping left:
            // the scan below would walk the whole window doing nothing.
            // (Completion bags drain lazily before their next reader.)
            return;
        }
        self.drain_mem(now);
        // Wake parked entries whose ready time has arrived.
        while let Some(&std::cmp::Reverse((t, seq))) = self.deferred.peek() {
            if t > now {
                break;
            }
            self.deferred.pop();
            let i = (seq - self.head_seq) as usize;
            if Self::is_mem_cand(&self.rob[i].op.kind) {
                self.cand_mem.set(i);
            } else {
                self.cand.set(i);
            }
        }
        let mut issued = 0u32;
        let mut alu = 0u32;
        let mut fpu = 0u32;
        let mut addr = 0u32;
        let mut l1_accesses = 0u32;
        let fu = self.params.fu;
        let width = self.params.width;

        // Walk only the candidate positions (unissued entries and
        // issued-unresolved branches), oldest first. The body only ever
        // clears the bit at the position it is visiting, so snapshotting
        // each word as the walk reaches it visits exactly the entries a
        // full window walk would — minus the settled ones, whose visit
        // is a provable no-op.
        let mut mem_open = true;
        'scan: for wi in 0..self.cand.words.len() {
            let mut w = self.cand.words[wi];
            if mem_open {
                w |= self.cand_mem.words[wi];
            }
            while w != 0 {
                let i = wi * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                if issued >= width {
                    break 'scan;
                }
                // Resolve pending sources lazily.
                let kind = {
                    let e = &mut self.rob[i];
                    if e.issued {
                        // An issued candidate is a branch awaiting
                        // resolution bookkeeping (the fetch limit).
                        debug_assert!(matches!(e.op.kind, OpKind::Branch) && !e.branch_resolved);
                        if e.complete_at <= now {
                            e.branch_resolved = true;
                            self.unresolved_branches -= 1;
                            self.issued_unresolved_branches -= 1;
                            self.cand.clear(i);
                        }
                        continue;
                    }
                    if !e.pending.is_empty() {
                        let mut still = SrcList::new();
                        let mut ready = e.ready_at;
                        for &src in e.pending.as_slice() {
                            match self.vreg_ready.get(src) {
                                None => {}
                                Some(READY_UNKNOWN) => still.push(src),
                                Some(t) => ready = ready.max(t),
                            }
                        }
                        e.ready_at = ready;
                        e.pending = still;
                        if !e.pending.is_empty() {
                            continue;
                        }
                    }
                    if e.ready_at > now {
                        // All sources resolved to a known future time:
                        // park until then instead of re-visiting every
                        // cycle (ready times never move backward).
                        if Self::can_defer(&e.op.kind) {
                            let at = e.ready_at;
                            let mem = Self::is_mem_cand(&e.op.kind);
                            self.deferred
                                .push(std::cmp::Reverse((at, self.head_seq + i as u64)));
                            if mem {
                                self.cand_mem.clear(i);
                            } else {
                                self.cand.clear(i);
                            }
                        }
                        continue;
                    }
                    e.op.kind
                };
                match kind {
                    OpKind::Int | OpKind::IntMul | OpKind::Branch => {
                        if alu >= fu.alus {
                            self.issue_blocked = true;
                            continue;
                        }
                        alu += 1;
                        issued += 1;
                        let lat = match kind {
                            OpKind::IntMul => fu.int_mul_latency,
                            _ => fu.int_latency,
                        } as u64;
                        self.complete_entry(i, now + lat);
                    }
                    OpKind::Fp { unit } => {
                        if fpu >= fu.fpus {
                            self.issue_blocked = true;
                            continue;
                        }
                        fpu += 1;
                        issued += 1;
                        let lat = match unit {
                            FpUnit::Arith => fu.fp_latency,
                            FpUnit::Div => fu.fp_div_latency,
                            FpUnit::Sqrt => fu.fp_sqrt_latency,
                        } as u64;
                        self.complete_entry(i, now + lat);
                    }
                    OpKind::Load { addr: a } => {
                        if addr >= fu.addr_units
                            || l1_accesses >= self.l1_ports
                            || self.mem_inflight.len() >= self.params.mem_queue
                        {
                            // Gates only fill as the scan proceeds, so
                            // every remaining load/store fails the same
                            // check: drop the whole mem side of the walk.
                            self.issue_blocked = true;
                            mem_open = false;
                            w &= !self.cand_mem.words[wi];
                            continue;
                        }
                        if self.rob[i].mshr_wait > now {
                            // Inside the release bound set by an earlier
                            // `Access::Retry`: the access provably still
                            // fails, so its result is substituted without
                            // the call — including the store-dis-
                            // ambiguation scan, whose `Clear` verdict at
                            // marking time cannot change while the entry
                            // waits (entries ahead of it are older than
                            // it; no new earlier store can appear, and a
                            // non-matching store's address never moves).
                            // The address unit and cache port are still
                            // consumed: the refused attempt occupies them
                            // for the cycle exactly as the real poll
                            // would, so younger ops see the same gates.
                            addr += 1;
                            l1_accesses += 1;
                            continue;
                        }
                        // Disambiguation against earlier stores.
                        match self.scan_earlier_stores(i, a) {
                            StoreCheck::MustWait => {
                                self.issue_blocked = true;
                                continue;
                            }
                            StoreCheck::Forward => {
                                addr += 1;
                                issued += 1;
                                self.complete_entry(i, now + 1);
                            }
                            StoreCheck::Clear => {
                                addr += 1;
                                l1_accesses += 1;
                                match mem.access(self.id, a, false, now + 1) {
                                    Access::Retry { until } => {
                                        // MSHRs full: stay unissued. With a
                                        // provable release bound the wake
                                        // scan sleeps until then; otherwise
                                        // retry next cycle.
                                        match until {
                                            Some(t) => self.rob[i].mshr_wait = t,
                                            None => self.issue_blocked = true,
                                        }
                                    }
                                    Access::Done { complete_at, .. } => {
                                        issued += 1;
                                        self.mem_inflight.push(complete_at);
                                        self.complete_entry(i, complete_at);
                                    }
                                }
                            }
                        }
                    }
                    OpKind::Prefetch { addr: a } => {
                        if addr >= fu.addr_units || l1_accesses >= self.l1_ports {
                            self.issue_blocked = true;
                            continue;
                        }
                        addr += 1;
                        l1_accesses += 1;
                        issued += 1;
                        // Non-binding: fire and forget; the op completes at
                        // issue regardless of the memory system's outcome.
                        mem.prefetch(self.id, a, now + 1);
                        self.complete_entry(i, now + 1);
                    }
                    OpKind::Store { addr: a } => {
                        if addr >= fu.addr_units
                            || l1_accesses >= self.l1_ports
                            || self.mem_inflight.len() >= self.params.mem_queue
                        {
                            // Same monotone-gate argument as the load arm.
                            self.issue_blocked = true;
                            mem_open = false;
                            w &= !self.cand_mem.words[wi];
                            continue;
                        }
                        addr += 1;
                        l1_accesses += 1;
                        if self.rob[i].mshr_wait > now {
                            // Known-Retry elision; see the load path.
                            continue;
                        }
                        match mem.access(self.id, a, true, now + 1) {
                            Access::Retry { until } => match until {
                                Some(t) => self.rob[i].mshr_wait = t,
                                None => self.issue_blocked = true,
                            },
                            Access::Done { complete_at, .. } => {
                                issued += 1;
                                self.mem_inflight.push(complete_at);
                                self.pending_stores.push(complete_at);
                                // Write buffering: the ROB entry completes at
                                // issue; global performance tracked separately.
                                self.complete_entry(i, now + 1);
                            }
                        }
                    }
                    OpKind::FlagSet { .. } => {
                        // Release semantics: wait for earlier stores to drain.
                        if self.pending_stores.is_empty() {
                            issued += 1;
                            self.complete_entry(i, now + 1);
                        }
                    }
                    OpKind::Barrier { .. } | OpKind::FlagWait { .. } | OpKind::Halt => {
                        // Completed at the retire stage via the sync
                        // state; the scan never has work for them.
                        self.cand.clear(i);
                    }
                }
            }
        }
    }

    /// Whether a candidate lives in `cand_mem` (the load/store side of
    /// the split candidate set) rather than `cand`.
    fn is_mem_cand(kind: &OpKind) -> bool {
        matches!(kind, OpKind::Load { .. } | OpKind::Store { .. })
    }

    /// Whether an unissued entry may park in the deferral heap. Ops that
    /// can retire *unissued* (head-of-window sync resolved by the retire
    /// stage) must not: their window position could vanish while parked.
    fn can_defer(kind: &OpKind) -> bool {
        !matches!(
            kind,
            OpKind::Barrier { .. } | OpKind::FlagWait { .. } | OpKind::Halt
        )
    }

    fn complete_entry(&mut self, i: usize, at: u64) {
        let seq = self.head_seq + i as u64;
        let e = &mut self.rob[i];
        e.issued = true;
        e.complete_at = at;
        let dst = e.op.dst;
        let is_branch = matches!(e.op.kind, OpKind::Branch);
        let is_mem = Self::is_mem_cand(&e.op.kind);
        let mut node = e.first_waiter;
        e.first_waiter = NO_WAITER;
        self.unissued -= 1;
        if is_branch {
            // Stays a scan candidate until resolution bookkeeping runs.
            self.issued_unresolved_branches += 1;
        } else if is_mem {
            self.cand_mem.clear(i);
        } else {
            self.cand.clear(i);
        }
        if let Some(dst) = dst {
            self.vreg_set(dst, at, seq);
            // Wake the consumers parked on this entry: fold the now-known
            // completion time into their ready times, and park fully
            // resolved ones in the deferral heap (`at` is always in the
            // future — every latency is at least one cycle — so no wake
            // can make an entry issuable in the current scan).
            while node != NO_WAITER {
                let wseq = node >> 2;
                if wseq < self.head_seq {
                    // A waiter that left the window unissued (sync op
                    // with sources; hand-built traces only) — its next
                    // link is gone with it.
                    debug_assert!(false, "waiter retired while parked");
                    break;
                }
                let k = (node & 3) as usize;
                let we = &mut self.rob[(wseq - self.head_seq) as usize];
                node = we.next_waiter[k];
                we.pending.remove(dst);
                we.ready_at = we.ready_at.max(at);
                if we.pending.is_empty() && Self::can_defer(&we.op.kind) {
                    let t = we.ready_at;
                    self.deferred.push(std::cmp::Reverse((t, wseq)));
                }
            }
        }
    }

    /// Records `vreg`'s ready time, growing the table on a live-slot
    /// collision (only hand-built traces with non-sequential vregs hit
    /// the grow path; see [`VregFile`]).
    fn vreg_set(&mut self, vreg: u32, time: u64, seq: u64) {
        while !self.vreg_ready.try_insert(vreg, time, seq) {
            self.grow_vregs();
        }
    }

    /// Rebuilds the vreg table at a larger capacity from the ROB — its
    /// contents are exactly the in-flight dst ops (unissued ⇒ unknown,
    /// issued ⇒ the completion time), so nothing else needs migrating.
    fn grow_vregs(&mut self) {
        let mut cap = self.vreg_ready.capacity() * 2;
        'retry: loop {
            let mut bigger = VregFile::with_capacity(cap);
            for (i, e) in self.rob.iter().enumerate() {
                if let Some(dst) = e.op.dst {
                    let t = if e.issued {
                        e.complete_at
                    } else {
                        READY_UNKNOWN
                    };
                    if !bigger.try_insert(dst, t, self.head_seq + i as u64) {
                        cap *= 2;
                        continue 'retry;
                    }
                }
            }
            self.vreg_ready = bigger;
            return;
        }
    }

    fn scan_earlier_stores(&self, load_idx: usize, addr: u64) -> StoreCheck {
        // Walk store positions below the load, youngest first, via the
        // store bitset — the first address match decides, same as a full
        // backward window walk.
        let mut wi = load_idx / 64;
        let mut mask = (1u64 << (load_idx % 64)) - 1;
        loop {
            let mut w = self.store_pos.words[wi] & mask;
            while w != 0 {
                let bit = 63 - w.leading_zeros() as usize;
                w &= !(1u64 << bit);
                let e = &self.rob[wi * 64 + bit];
                if let OpKind::Store { addr: sa } = e.op.kind {
                    if sa == addr {
                        return if e.issued {
                            StoreCheck::Forward
                        } else {
                            StoreCheck::MustWait
                        };
                    }
                }
            }
            if wi == 0 {
                return StoreCheck::Clear;
            }
            wi -= 1;
            mask = u64::MAX;
        }
    }

    /// Retire stage: retires up to `width` completed instructions in
    /// order and attributes the cycle per the paper's convention.
    /// Returns true while the core is still running.
    pub fn retire(&mut self, sync: &mut SyncState, now: u64) -> bool {
        if self.halted {
            return false;
        }
        let width = self.params.width;
        let mut retired = 0u32;
        while retired < width {
            let Some(head) = self.rob.front() else { break };
            let can_retire = match head.op.kind {
                OpKind::Barrier { id } => {
                    sync.arrive_barrier(self.id, id, now);
                    sync.barrier_released(id, now)
                }
                OpKind::FlagWait { flag } => sync.flag_set(flag, now),
                OpKind::FlagSet { flag } => {
                    if head.issued && head.complete_at <= now {
                        sync.set_flag(flag, now);
                        true
                    } else {
                        false
                    }
                }
                OpKind::Halt => true,
                _ => head.issued && head.complete_at <= now,
            };
            if !can_retire {
                break;
            }
            let e = self.rob.pop_front().expect("head exists");
            if !e.issued {
                self.unissued -= 1;
            }
            if matches!(e.op.kind, OpKind::Branch) && !e.branch_resolved {
                self.unresolved_branches -= 1;
                if e.issued {
                    self.issued_unresolved_branches -= 1;
                }
            }
            if matches!(e.op.kind, OpKind::Barrier { .. } | OpKind::FlagWait { .. }) {
                self.sync_fetch_block = false;
            }
            if let Some(dst) = e.op.dst {
                // The value is ready (it completed); if its ready time has
                // passed, later-fetched consumers would see it as ready by
                // absence — safe to drop the map entry.
                if e.complete_at <= now {
                    self.vreg_ready.remove(dst);
                }
            }
            self.retired += 1;
            retired += 1;
            if matches!(e.op.kind, OpKind::Halt) {
                self.halted = true;
                self.halt_cycle = now;
                break;
            }
        }
        self.retired_last_cycle = retired;
        if retired > 0 {
            // Window positions renumber past the popped entries (bits set
            // on popped entries — unissued sync ops, unresolved branches —
            // fall off with them; their counters were settled above).
            // Parked entries key on stable sequence numbers, so only the
            // head seq moves.
            self.cand.shift_down(retired as usize);
            self.cand_mem.shift_down(retired as usize);
            self.store_pos.shift_down(retired as usize);
            self.head_seq += u64::from(retired);
        }
        // Attribution (Section 5.2): busy = retired/width; remainder to
        // the first instruction that could not retire.
        let frac = self.frac_tab[retired as usize];
        self.breakdown.busy += frac;
        let stall = (retired < width && !self.halted).then(|| self.head_stall_class());
        if let Some(class) = stall {
            self.breakdown.add_stall(class, 1.0 - frac);
        }
        self.last_stall = stall;
        !self.halted
    }

    /// The stall class charged by the most recent retire call, or `None`
    /// when the core retired at full width (or halted).
    pub fn last_stall(&self) -> Option<StallClass> {
        self.last_stall
    }

    /// The earliest future cycle at which this core might make progress
    /// (retire, issue, or fetch), or `None` when no local event can ever
    /// occur (halted, or genuinely stuck waiting on another processor).
    ///
    /// Called at the end of a cycle, after retire/issue/fetch have run.
    /// The event stepper sleeps the core until this cycle (and jumps the
    /// clock to the minimum across cores and the memory system's fill
    /// events); for the skipped cycles to preserve exact results, every
    /// condition that could change the core's behavior on an
    /// intermediate cycle must map to a candidate here. Conservative answers (`now + 1`) are always safe.
    pub fn next_event_time(&self, sync: &SyncState, now: u64) -> Option<u64> {
        if self.halted {
            return None;
        }
        // A core that fetched or retired this cycle can generally do so
        // again next cycle; don't skip over it.
        if self.made_progress() {
            return Some(now + 1);
        }
        // The issue scan already found a ready instruction blocked on a
        // per-cycle resource: the window scan below would answer `now + 1`
        // through exactly that entry, so skip it.
        if self.issue_blocked {
            return Some(now + 1);
        }
        // u64::MAX stands in for "no candidate"; every real candidate is
        // clamped up to `now + 1` (the earliest actionable cycle).
        const NO_EVENT: u64 = u64::MAX;
        let mut next: u64 = NO_EVENT;
        // Head-of-window synchronization waits resolve at times recorded
        // in the shared sync state (this runs after every core's retire
        // stage for the cycle, so arrivals/sets from this cycle are seen).
        if let Some(head) = self.rob.front() {
            match head.op.kind {
                OpKind::Barrier { id } => {
                    if let Some(t) = sync.barrier_release_time(id) {
                        next = next.min(t.max(now + 1));
                    }
                    // No release time yet: other processors must arrive
                    // first; their own events bound the skip.
                }
                OpKind::FlagWait { flag } => {
                    if let Some(t) = sync.flag_time(flag) {
                        next = next.min(t.max(now + 1));
                    }
                }
                _ => {}
            }
        }
        for e in &self.rob {
            // Nothing beats the very next cycle; stop scanning.
            if next == now + 1 {
                break;
            }
            if e.issued {
                if e.complete_at > now {
                    // Completion: may unblock retirement, dependents, or
                    // (for branches) the unresolved-branch fetch limit.
                    next = next.min(e.complete_at.max(now + 1));
                } else if matches!(e.op.kind, OpKind::Branch) && !e.branch_resolved {
                    // Completed but the issue scan has not yet marked it
                    // resolved (width cut the scan short): it will next cycle.
                    next = now + 1;
                }
                continue;
            }
            match e.op.kind {
                // These act only at the head of the retire stage; head
                // progress is covered by the candidates above.
                OpKind::Barrier { .. } | OpKind::FlagWait { .. } | OpKind::Halt => {}
                OpKind::FlagSet { .. } => {
                    // Issues once earlier stores globally complete.
                    match self.pending_stores.min_after(now) {
                        Some(t) => next = next.min(t),
                        None => next = now + 1,
                    }
                }
                _ => {
                    // Re-resolve pending sources read-only (entries past
                    // the issue scan's width cutoff were not updated this
                    // cycle). A producer still unissued contributes no
                    // candidate: its own entry's candidates cover it.
                    let mut ready = e.ready_at;
                    let mut unknown = false;
                    for &src in e.pending.as_slice() {
                        match self.vreg_ready.get(src) {
                            None => {}
                            Some(READY_UNKNOWN) => {
                                unknown = true;
                                break;
                            }
                            Some(t) => ready = ready.max(t),
                        }
                    }
                    if unknown {
                        continue;
                    }
                    if ready > now {
                        next = next.min(ready);
                    } else if e.mshr_wait > now {
                        // Ready but refused by a full MSHR file that
                        // provably cannot free a register earlier (the
                        // bound set by the last `Access::Retry`): sleep
                        // until then. The issue scan re-polls on any
                        // earlier step of this core and refreshes or
                        // clears the bound.
                        next = next.min(e.mshr_wait);
                    } else {
                        // Ready but unissued: blocked on a per-cycle
                        // resource (FU, port, queue, MSHR, store
                        // disambiguation, issue width) — retry next cycle.
                        next = now + 1;
                    }
                }
            }
        }
        (next != NO_EVENT).then_some(next)
    }

    /// Charges `span` stall cycles in bulk — exactly what `span`
    /// consecutive [`Core::retire`] calls would account on cycles where
    /// nothing can retire (the cycles the scheduler skipped).
    pub fn charge_idle(&mut self, span: u64) {
        if self.halted || span == 0 {
            return;
        }
        self.breakdown
            .add_stall(self.head_stall_class(), span as f64);
    }

    /// The class a cycle that cannot retire at full width is charged to:
    /// the kind of the first instruction that could not retire, or
    /// instruction stall on an empty window.
    fn head_stall_class(&self) -> StallClass {
        match self.rob.front().map(|e| e.op.kind) {
            Some(OpKind::Load { .. } | OpKind::Store { .. } | OpKind::Prefetch { .. }) => {
                StallClass::DataMemory
            }
            Some(OpKind::Barrier { .. } | OpKind::FlagWait { .. } | OpKind::FlagSet { .. }) => {
                StallClass::Sync
            }
            Some(_) => StallClass::Cpu,
            None => StallClass::Instruction,
        }
    }

    /// The flag the head-of-window instruction is waiting on, if it is a
    /// `FlagWait`. Flags set at cycle `t` are visible to higher-numbered
    /// processors retiring at `t`, so the event-driven stepper uses this
    /// to pull sleeping waiters into the round that sets their flag.
    pub(crate) fn head_flag_wait(&self) -> Option<u32> {
        match self.rob.front().map(|e| e.op.kind) {
            Some(OpKind::FlagWait { flag }) => Some(flag),
            _ => None,
        }
    }

    /// Whether the head-of-window instruction is a synchronization wait.
    ///
    /// [`Core::next_event_time`] consults shared sync state *only*
    /// through its head-of-window `Barrier`/`FlagWait` candidates (the
    /// window scan's candidates — completion times, operand-ready times,
    /// store drains — are all core-local). A sync version change can
    /// therefore move the wake time only of cores for which this returns
    /// true, or that are asleep with no wake candidate at all; everyone
    /// else would recompute the exact value they already hold.
    pub(crate) fn head_sync_wait(&self) -> bool {
        matches!(
            self.rob.front().map(|e| e.op.kind),
            Some(OpKind::Barrier { .. } | OpKind::FlagWait { .. })
        )
    }

    /// Number of instructions currently in the window.
    pub fn window_occupancy(&self) -> usize {
        self.rob.len()
    }

    /// Registers this core's end-of-run statistics under
    /// `sim.proc<id>.core.*`.
    pub fn export_metrics(&self, reg: &mut mempar_obs::MetricsRegistry) {
        let pre = format!("sim.proc{}.core", self.id);
        reg.counter(&format!("{pre}.retired"), self.retired);
        reg.gauge(&format!("{pre}.busy"), self.breakdown.busy);
        reg.gauge(&format!("{pre}.stall.cpu"), self.breakdown.cpu_stall);
        reg.gauge(&format!("{pre}.stall.data"), self.breakdown.data);
        reg.gauge(&format!("{pre}.stall.sync"), self.breakdown.sync);
        reg.gauge(&format!("{pre}.stall.instr"), self.breakdown.instr);
        reg.gauge(&format!("{pre}.halt_cycle"), self.halt_cycle as f64);
    }

    /// Oldest unretired op's age in cycles (diagnostics/deadlock checks).
    pub fn head_age(&self, now: u64) -> u64 {
        self.rob
            .front()
            .map(|e| now.saturating_sub(e.fetched_at))
            .unwrap_or(0)
    }

    /// Debug description of the window head (deadlock diagnostics).
    pub fn head_desc(&self, now: u64) -> String {
        match self.rob.front() {
            None => "empty".into(),
            Some(e) => format!(
                "{:?} issued={} ready_at={} pending={:?} complete_at={} now={} memq={} stores={}",
                e.op.kind,
                e.issued,
                e.ready_at,
                e.pending.as_slice(),
                e.complete_at,
                now,
                self.mem_inflight.len(),
                self.pending_stores.len()
            ),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StoreCheck {
    /// No earlier store to the address.
    Clear,
    /// An earlier store has issued: forward its data.
    Forward,
    /// An earlier store's data is not available yet.
    MustWait,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use mempar_ir::SrcList;

    fn setup() -> (Core, MemSystem, SyncState) {
        let cfg = MachineConfig::base_simulated(1, 64 * 1024);
        let core = Core::new(0, &cfg.proc, 2);
        let mem = MemSystem::new(&cfg, Box::new(|_| 0));
        let sync = SyncState::new(1);
        (core, mem, sync)
    }

    fn op(kind: OpKind, srcs: &[u32], dst: Option<u32>) -> DynOp {
        DynOp {
            kind,
            srcs: srcs.iter().copied().collect::<SrcList>(),
            dst,
        }
    }

    /// Runs until the core halts; returns cycles taken.
    fn run(core: &mut Core, mem: &mut MemSystem, sync: &mut SyncState, ops: Vec<DynOp>) -> u64 {
        let mut it = ops.into_iter();
        let mut now = 0u64;
        loop {
            mem.tick(now);
            if !core.retire(sync, now) {
                return now;
            }
            core.issue(mem, now);
            for _ in 0..core.fetch_room() {
                match it.next() {
                    Some(o) => core.fetch(o, now),
                    None => break,
                }
            }
            now += 1;
            assert!(now < 1_000_000, "runaway core test");
        }
    }

    #[test]
    fn independent_ints_pipeline() {
        let (mut core, mut mem, mut sync) = setup();
        let mut ops: Vec<DynOp> = (0..100)
            .map(|i| op(OpKind::Int, &[], Some(i + 1)))
            .collect();
        ops.push(DynOp::nullary(OpKind::Halt));
        let cycles = run(&mut core, &mut mem, &mut sync, ops);
        // 100 int ops on 2 ALUs: ~50 cycles + pipeline fill.
        assert!((45..80).contains(&cycles), "cycles={cycles}");
        assert_eq!(core.retired, 101);
    }

    #[test]
    fn dependent_chain_serializes() {
        let (mut core, mut mem, mut sync) = setup();
        let mut ops = Vec::new();
        for i in 0..50u32 {
            let srcs: &[u32] = if i == 0 { &[] } else { &[i] };
            ops.push(op(
                OpKind::Fp {
                    unit: FpUnit::Arith,
                },
                srcs,
                Some(i + 1),
            ));
        }
        ops.push(DynOp::nullary(OpKind::Halt));
        let cycles = run(&mut core, &mut mem, &mut sync, ops);
        // 50 dependent 3-cycle FP ops: at least 150 cycles.
        assert!(cycles >= 150, "cycles={cycles}");
    }

    #[test]
    fn load_miss_blocks_retirement_and_is_data_stall() {
        let (mut core, mut mem, mut sync) = setup();
        let ops = vec![
            op(OpKind::Load { addr: 0x10000 }, &[], Some(1)),
            DynOp::nullary(OpKind::Halt),
        ];
        let cycles = run(&mut core, &mut mem, &mut sync, ops);
        assert!(cycles > 50, "a cold miss takes dozens of cycles: {cycles}");
        assert!(
            core.breakdown.data > core.breakdown.cpu_stall,
            "stall should be attributed to data memory: {:?}",
            core.breakdown
        );
    }

    #[test]
    fn clustered_misses_overlap() {
        // The paper's core claim at the microarchitecture level: misses to
        // N different lines in the same window overlap, while N misses to
        // the same line sequence... (same line coalesces trivially). Here:
        // compare N independent misses vs N dependent (chained) misses.
        let n = 8u32;
        let (mut core, mut mem, mut sync) = setup();
        let mut ops = Vec::new();
        for i in 0..n {
            ops.push(op(
                OpKind::Load {
                    addr: 0x100000 + u64::from(i) * 4096,
                },
                &[],
                Some(i + 1),
            ));
        }
        ops.push(DynOp::nullary(OpKind::Halt));
        let clustered = run(&mut core, &mut mem, &mut sync, ops);

        let (mut core2, mut mem2, mut sync2) = setup();
        let mut ops2 = Vec::new();
        for i in 0..n {
            let srcs: &[u32] = if i == 0 { &[] } else { &[i] };
            ops2.push(op(
                OpKind::Load {
                    addr: 0x200000 + u64::from(i) * 4096,
                },
                srcs,
                Some(i + 1),
            ));
        }
        ops2.push(DynOp::nullary(OpKind::Halt));
        let serial = run(&mut core2, &mut mem2, &mut sync2, ops2);
        assert!(
            clustered * 3 < serial * 2,
            "clustered={clustered} serial={serial}"
        );
    }

    #[test]
    fn store_retires_before_completion() {
        let (mut core, mut mem, mut sync) = setup();
        let ops = vec![
            op(OpKind::Store { addr: 0x30000 }, &[], None),
            DynOp::nullary(OpKind::Halt),
        ];
        let cycles = run(&mut core, &mut mem, &mut sync, ops);
        // The store misses (cold) but retires immediately after issue.
        assert!(cycles < 20, "write buffering hides the store: {cycles}");
    }

    #[test]
    fn store_load_forwarding() {
        let (mut core, mut mem, mut sync) = setup();
        let ops = vec![
            op(OpKind::Store { addr: 0x40000 }, &[], None),
            op(OpKind::Load { addr: 0x40000 }, &[], Some(1)),
            DynOp::nullary(OpKind::Halt),
        ];
        let cycles = run(&mut core, &mut mem, &mut sync, ops);
        assert!(cycles < 20, "forwarded load should not miss: {cycles}");
    }

    #[test]
    fn flag_set_waits_for_stores_and_wait_sees_it() {
        let (mut core, mut mem, mut sync) = setup();
        let ops = vec![
            op(OpKind::Store { addr: 0x50000 }, &[], None),
            DynOp::nullary(OpKind::FlagSet { flag: 3 }),
            DynOp::nullary(OpKind::FlagWait { flag: 3 }),
            DynOp::nullary(OpKind::Halt),
        ];
        let cycles = run(&mut core, &mut mem, &mut sync, ops);
        // FlagSet must wait for the store's global completion (a miss).
        assert!(cycles > 50, "release fence waits for the store: {cycles}");
        assert!(core.breakdown.sync > 0.0);
    }

    #[test]
    fn window_fills_limit_fetch() {
        let (mut core, _mem, _sync) = setup();
        let mut fetched = 0;
        for i in 0..200u32 {
            if core.fetch_room() == 0 {
                break;
            }
            core.fetch(
                op(
                    OpKind::Fp {
                        unit: FpUnit::Arith,
                    },
                    &[i],
                    Some(i + 1000),
                ),
                0,
            );
            fetched += 1;
        }
        assert_eq!(fetched, 64, "window size bounds in-flight ops");
    }

    #[test]
    fn branch_limit_bounds_fetch() {
        let (mut core, _mem, _sync) = setup();
        // A dependence on a never-completing producer keeps the branches
        // unresolved; the counter is what bounds fetch.
        // Seq far past the ROB: the waiter registration treats it as a
        // retired-unissued producer and leaves the source pending.
        core.vreg_set(9999, READY_UNKNOWN, u64::MAX);
        for _ in 0..16 {
            core.fetch(op(OpKind::Branch, &[9999], None), 0);
        }
        assert_eq!(core.fetch_room(), 0, "16 unresolved branches block fetch");
    }

    #[test]
    fn busy_time_accounts_retires() {
        let (mut core, mut mem, mut sync) = setup();
        let mut ops: Vec<DynOp> = (0..40).map(|i| op(OpKind::Int, &[], Some(i + 1))).collect();
        ops.push(DynOp::nullary(OpKind::Halt));
        run(&mut core, &mut mem, &mut sync, ops);
        let b = &core.breakdown;
        assert!(b.busy > 0.0);
        // Busy time ≈ retired/width.
        assert!((b.busy - 41.0 / 4.0).abs() < 6.0, "{b:?}");
    }
}
