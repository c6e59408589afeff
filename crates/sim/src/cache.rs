//! Set-associative tag arrays and miss-status-holding registers.

use crate::config::CacheParams;

/// Coherence/validity state of a cached line.
///
/// The tag array itself is protocol-agnostic: it stores whatever state
/// the [`Coherence`](crate::Coherence) machine installs. The full-map
/// directory uses only `Invalid`/`Shared`/`Modified`; MESI, MOESI and
/// Dragon add `Exclusive`, MOESI and Dragon add `Owned` (Dragon's `Sm`
/// maps onto `Owned`, its `Sc` onto `Shared`). A write's path depends on
/// the state alone, under every protocol: see [`LineState::write_hits`]
/// and [`LineState::upgradeable`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum LineState {
    /// Not present.
    #[default]
    Invalid,
    /// Present, clean, possibly shared with other caches.
    Shared,
    /// Present, clean, and the only cached copy (MESI `E`): a write may
    /// proceed silently, without a global transaction.
    Exclusive,
    /// Present, dirty, and shared with other caches (MOESI `O`, Dragon
    /// `Sm`): this cache supplies the line and writes it back on
    /// eviction; memory is stale.
    Owned,
    /// Present with exclusive ownership, possibly dirty.
    Modified,
}

impl LineState {
    /// Whether an evicted line in this state carries dirty data that
    /// must be written back (memory is stale).
    pub fn is_dirty(self) -> bool {
        matches!(self, LineState::Modified | LineState::Owned)
    }

    /// Whether a write to a copy in this state completes without any
    /// global transaction: `Modified`, or `Exclusive` upgraded silently
    /// to `Modified`.
    pub fn write_hits(self) -> bool {
        matches!(self, LineState::Modified | LineState::Exclusive)
    }

    /// Whether a write to a copy in this state needs only permission (or,
    /// in Dragon, only the broadcast), not data — the no-data upgrade
    /// timing path.
    pub fn upgradeable(self) -> bool {
        matches!(self, LineState::Shared | LineState::Owned)
    }
}

/// Sentinel line number marking an invalid way. Keeping the invariant
/// `state == Invalid ⇔ line == NO_LINE` lets every tag scan compare one
/// field per way (a hot path: multiple probes per simulated cycle) and
/// exit as soon as the tag matches. Real line numbers are
/// `addr >> line_shift` of in-range simulated addresses and can never
/// reach `u64::MAX`.
const NO_LINE: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
struct Way {
    /// Line number (full address >> line shift); [`NO_LINE`] when invalid.
    line: u64,
    state: LineState,
    /// LRU stamp (bigger = more recent).
    lru: u64,
}

/// A victim line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The evicted line number.
    pub line: u64,
    /// Whether it was in a dirty state ([`LineState::Modified`] or
    /// [`LineState::Owned`]) and needs writeback.
    pub dirty: bool,
}

/// A set-associative, LRU, write-allocate tag array.
///
/// The array works on *line numbers* (`addr >> line_shift`); data contents
/// live in the functional [`SimMem`](mempar_ir::SimMem), so the cache only
/// tracks presence and state — exactly what the timing model needs.
#[derive(Debug, Clone)]
pub struct TagArray {
    /// `sets - 1`: the set-index mask, precomputed at construction so the
    /// per-access path does no arithmetic on the configured geometry.
    set_mask: u64,
    assoc: usize,
    ways: Vec<Way>,
    stamp: u64,
}

impl TagArray {
    /// Builds a tag array for the given geometry.
    pub fn new(params: &CacheParams) -> Self {
        let sets = params.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        TagArray {
            set_mask: sets as u64 - 1,
            assoc: params.assoc,
            ways: vec![
                Way {
                    line: NO_LINE,
                    state: LineState::Invalid,
                    lru: 0
                };
                sets * params.assoc
            ],
            stamp: 0,
        }
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    #[inline]
    fn slot_range(&self, line: u64) -> std::ops::Range<usize> {
        debug_assert_ne!(line, NO_LINE, "probe of the invalid-line sentinel");
        let s = self.set_of(line) * self.assoc;
        s..s + self.assoc
    }

    /// Looks up `line`, updating LRU on hit; returns its state.
    pub fn probe(&mut self, line: u64) -> LineState {
        self.stamp += 1;
        for i in self.slot_range(line) {
            let w = &mut self.ways[i];
            if w.line == line {
                w.lru = self.stamp;
                return w.state;
            }
        }
        LineState::Invalid
    }

    /// Looks up without touching LRU.
    pub fn peek(&self, line: u64) -> LineState {
        for i in self.slot_range(line) {
            let w = &self.ways[i];
            if w.line == line {
                return w.state;
            }
        }
        LineState::Invalid
    }

    /// Inserts `line` with `state`, evicting the LRU way if needed.
    /// Returns the victim when a valid line was displaced.
    ///
    /// # Panics
    /// Panics (debug) if the line is already present — callers must use
    /// [`TagArray::set_state`] for state changes.
    pub fn fill(&mut self, line: u64, state: LineState) -> Option<Victim> {
        debug_assert_eq!(self.peek(line), LineState::Invalid, "double fill");
        debug_assert_ne!(state, LineState::Invalid);
        self.stamp += 1;
        let range = self.slot_range(line);
        // Prefer an invalid way.
        let mut victim_idx = range.start;
        let mut victim_lru = u64::MAX;
        for i in range {
            let w = &self.ways[i];
            if w.line == NO_LINE {
                victim_idx = i;
                break;
            }
            if w.lru < victim_lru {
                victim_lru = w.lru;
                victim_idx = i;
            }
        }
        let old = self.ways[victim_idx];
        self.ways[victim_idx] = Way {
            line,
            state,
            lru: self.stamp,
        };
        if old.state != LineState::Invalid {
            Some(Victim {
                line: old.line,
                dirty: old.state.is_dirty(),
            })
        } else {
            None
        }
    }

    /// Changes the state of a present line (upgrade/downgrade).
    ///
    /// # Panics
    /// Panics (debug) if the line is absent.
    pub fn set_state(&mut self, line: u64, state: LineState) {
        debug_assert_ne!(state, LineState::Invalid, "use invalidate instead");
        for i in self.slot_range(line) {
            let w = &mut self.ways[i];
            if w.line == line {
                w.state = state;
                return;
            }
        }
        debug_assert!(false, "set_state on absent line {line:#x}");
    }

    /// Invalidates `line` if present; returns whether it was dirty.
    pub fn invalidate(&mut self, line: u64) -> bool {
        for i in self.slot_range(line) {
            let w = &mut self.ways[i];
            if w.line == line {
                let dirty = w.state.is_dirty();
                w.state = LineState::Invalid;
                w.line = NO_LINE;
                return dirty;
            }
        }
        false
    }
}

/// One miss-status holding register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrEntry {
    /// The outstanding line.
    pub line: u64,
    /// Merged read requests.
    pub reads: u32,
    /// Merged write requests.
    pub writes: u32,
    /// Absolute cycle when the fill completes (u64::MAX while unknown).
    pub fill_at: u64,
}

impl MshrEntry {
    /// Whether this MSHR is occupied by (at least one) read miss, the
    /// classification used by Figure 4(a).
    pub fn is_read(&self) -> bool {
        self.reads > 0
    }
}

/// Outcome of attempting to register a miss with the MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new MSHR was allocated; the caller must start the miss and later
    /// call [`MshrFile::set_fill_time`] / [`MshrFile::release`].
    Allocated,
    /// Merged with an outstanding miss to the same line; the fill time is
    /// that miss's (u64::MAX while still unknown).
    Coalesced {
        /// The outstanding miss's fill time.
        fill_at: u64,
    },
    /// All MSHRs are busy with other lines — the access must retry.
    Full,
}

/// "End of free list" sentinel for the MSHR slot chain.
const NO_SLOT: u32 = u32::MAX;

/// Multiplier for Fibonacci hashing (2^64 / φ, odd). Line numbers are
/// dense and strided; multiplying by an odd constant and keeping high
/// bits spreads any stride pattern across the index.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// A file of MSHRs with same-line coalescing.
///
/// Storage is a fixed slot array threaded by an intrusive free list,
/// plus an open-addressed line→slot index sized at twice the capacity
/// (load factor ≤ 50%, so probe chains stay short and linear probing
/// with backward-shift deletion is cheap). Allocate, coalesce,
/// [`MshrFile::set_fill_time`], [`MshrFile::release`] and
/// [`MshrFile::get`] are all O(1); [`MshrFile::occupancy`] — called once
/// per processor per simulated cycle — reads two incrementally
/// maintained counters. Nothing allocates after construction.
#[derive(Debug, Clone)]
pub struct MshrFile {
    cap: usize,
    slots: Vec<MshrEntry>,
    /// Intrusive free list through unoccupied slots.
    next_free: Vec<u32>,
    free_head: u32,
    /// Occupied slot count.
    occupied: usize,
    /// Occupied slots holding at least one read ([`MshrEntry::is_read`]).
    read_occupied: usize,
    /// Open-addressed probe keys ([`NO_LINE`] = empty)...
    index_lines: Vec<u64>,
    /// ...and the slot each key maps to.
    index_slots: Vec<u32>,
}

impl MshrFile {
    /// A file with `cap` registers.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0);
        let index_size = (cap * 2).next_power_of_two();
        MshrFile {
            cap,
            slots: vec![
                MshrEntry {
                    line: NO_LINE,
                    reads: 0,
                    writes: 0,
                    fill_at: u64::MAX,
                };
                cap
            ],
            next_free: (0..cap)
                .map(|i| if i + 1 < cap { i as u32 + 1 } else { NO_SLOT })
                .collect(),
            free_head: 0,
            occupied: 0,
            read_occupied: 0,
            index_lines: vec![NO_LINE; index_size],
            index_slots: vec![NO_SLOT; index_size],
        }
    }

    #[inline]
    fn index_start(&self, line: u64) -> usize {
        debug_assert_ne!(line, NO_LINE, "lookup of the invalid-line sentinel");
        (line.wrapping_mul(HASH_MUL) >> 32) as usize & (self.index_lines.len() - 1)
    }

    /// The slot holding `line`, if outstanding.
    #[inline]
    fn index_get(&self, line: u64) -> Option<u32> {
        let mask = self.index_lines.len() - 1;
        let mut i = self.index_start(line);
        loop {
            let k = self.index_lines[i];
            if k == line {
                return Some(self.index_slots[i]);
            }
            if k == NO_LINE {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Maps `line` (known absent) to `slot`.
    fn index_insert(&mut self, line: u64, slot: u32) {
        let mask = self.index_lines.len() - 1;
        let mut i = self.index_start(line);
        while self.index_lines[i] != NO_LINE {
            debug_assert_ne!(self.index_lines[i], line, "duplicate MSHR index key");
            i = (i + 1) & mask;
        }
        self.index_lines[i] = line;
        self.index_slots[i] = slot;
    }

    /// Unmaps `line`, returning its slot; backward-shift deletion keeps
    /// every probe chain contiguous so lookups never need tombstones.
    fn index_remove(&mut self, line: u64) -> Option<u32> {
        let mask = self.index_lines.len() - 1;
        let mut i = self.index_start(line);
        loop {
            let k = self.index_lines[i];
            if k == line {
                break;
            }
            if k == NO_LINE {
                return None;
            }
            i = (i + 1) & mask;
        }
        let slot = self.index_slots[i];
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let k = self.index_lines[j];
            if k == NO_LINE {
                break;
            }
            // An entry may move back into the hole only if that does not
            // lift it above its ideal slot: its probe distance at `j`
            // must reach at least back to `i`.
            let ideal = self.index_start(k);
            if (j.wrapping_sub(ideal) & mask) >= (j.wrapping_sub(i) & mask) {
                self.index_lines[i] = k;
                self.index_slots[i] = self.index_slots[j];
                i = j;
            }
        }
        self.index_lines[i] = NO_LINE;
        Some(slot)
    }

    /// Registers a miss on `line`; `is_write` marks write misses.
    pub fn register(&mut self, line: u64, is_write: bool) -> MshrOutcome {
        if let Some(slot) = self.index_get(line) {
            let e = &mut self.slots[slot as usize];
            if is_write {
                e.writes += 1;
            } else {
                if e.reads == 0 {
                    self.read_occupied += 1;
                }
                e.reads += 1;
            }
            return MshrOutcome::Coalesced { fill_at: e.fill_at };
        }
        if self.occupied >= self.cap {
            return MshrOutcome::Full;
        }
        let slot = self.free_head;
        self.free_head = self.next_free[slot as usize];
        self.slots[slot as usize] = MshrEntry {
            line,
            reads: u32::from(!is_write),
            writes: u32::from(is_write),
            fill_at: u64::MAX,
        };
        self.index_insert(line, slot);
        self.occupied += 1;
        if !is_write {
            self.read_occupied += 1;
        }
        MshrOutcome::Allocated
    }

    /// Sets the fill time of the outstanding miss on `line`.
    ///
    /// # Panics
    /// Panics (debug) if no such miss is outstanding.
    pub fn set_fill_time(&mut self, line: u64, fill_at: u64) {
        if let Some(slot) = self.index_get(line) {
            self.slots[slot as usize].fill_at = fill_at;
        } else {
            debug_assert!(false, "set_fill_time on absent MSHR {line:#x}");
        }
    }

    /// Releases the MSHR for `line` (at fill time).
    pub fn release(&mut self, line: u64) {
        if let Some(slot) = self.index_remove(line) {
            let e = &mut self.slots[slot as usize];
            self.occupied -= 1;
            if e.is_read() {
                self.read_occupied -= 1;
            }
            e.line = NO_LINE;
            self.next_free[slot as usize] = self.free_head;
            self.free_head = slot;
        }
    }

    /// The entry for `line`, if outstanding.
    pub fn get(&self, line: u64) -> Option<&MshrEntry> {
        self.index_get(line).map(|slot| &self.slots[slot as usize])
    }

    /// The earliest scheduled fill among outstanding entries — a lower
    /// bound on the next cycle a register can free. `None` when the file
    /// is empty or any entry's fill time is still unknown (no bound can
    /// be promised then: an unknown fill may be scheduled arbitrarily
    /// soon). A full file with all fills known can provably not accept a
    /// new line before this time, which is what lets a blocked issue
    /// stage sleep instead of re-polling every cycle.
    pub fn next_fill_time(&self) -> Option<u64> {
        if self.occupied == 0 {
            return None;
        }
        let mut min = u64::MAX;
        for e in &self.slots {
            if e.line != NO_LINE {
                if e.fill_at == u64::MAX {
                    return None;
                }
                min = min.min(e.fill_at);
            }
        }
        Some(min)
    }

    /// `(read_mshrs, total_mshrs)` currently occupied — the per-cycle
    /// sample behind Figure 4.
    pub fn occupancy(&self) -> (usize, usize) {
        (self.read_occupied, self.occupied)
    }

    /// Number of free registers.
    pub fn free(&self) -> usize {
        self.cap - self.occupied
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Registers this file's geometry and end-of-run occupancy under
    /// `prefix` (e.g. `sim.proc0.l2.mshr`).
    pub fn export_metrics(&self, prefix: &str, reg: &mut mempar_obs::MetricsRegistry) {
        let (reads, total) = self.occupancy();
        reg.gauge(&format!("{prefix}.capacity"), self.cap as f64);
        reg.gauge(&format!("{prefix}.occupied"), total as f64);
        reg.gauge(&format!("{prefix}.occupied_read"), reads as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_path_partitions_the_states() {
        use LineState::*;
        for s in [Invalid, Shared, Exclusive, Owned, Modified] {
            let paths = [s == Invalid, s.write_hits(), s.upgradeable()];
            assert_eq!(paths.iter().filter(|&&p| p).count(), 1, "{s:?}");
        }
    }

    fn small_cache() -> TagArray {
        TagArray::new(&CacheParams {
            size_bytes: 4 * 64, // 4 lines
            assoc: 2,
            line_bytes: 64,
            hit_latency: 1,
            ports: 1,
            mshrs: 4,
        })
    }

    #[test]
    fn probe_miss_then_hit() {
        let mut c = small_cache();
        assert_eq!(c.probe(100), LineState::Invalid);
        assert_eq!(c.fill(100, LineState::Shared), None);
        assert_eq!(c.probe(100), LineState::Shared);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small_cache(); // 2 sets x 2 ways
                                   // Lines 0, 2, 4 map to set 0.
        c.fill(0, LineState::Shared);
        c.fill(2, LineState::Shared);
        c.probe(0); // make line 0 most recent
        let v = c.fill(4, LineState::Shared).expect("evicts");
        assert_eq!(v.line, 2);
        assert!(!v.dirty);
        assert_eq!(c.peek(0), LineState::Shared);
        assert_eq!(c.peek(2), LineState::Invalid);
    }

    #[test]
    fn dirty_victims_reported() {
        let mut c = small_cache();
        c.fill(0, LineState::Modified);
        c.fill(2, LineState::Shared);
        let v = c.fill(4, LineState::Shared).expect("evicts");
        assert_eq!(v.line, 0);
        assert!(v.dirty);
    }

    #[test]
    fn invalidate_and_state_changes() {
        let mut c = small_cache();
        c.fill(7, LineState::Shared);
        c.set_state(7, LineState::Modified);
        assert_eq!(c.peek(7), LineState::Modified);
        assert!(c.invalidate(7));
        assert_eq!(c.peek(7), LineState::Invalid);
        assert!(!c.invalidate(7));
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut c = small_cache();
        c.fill(0, LineState::Shared);
        c.fill(1, LineState::Shared); // set 1
        c.fill(2, LineState::Shared);
        assert_eq!(c.peek(0), LineState::Shared);
        assert_eq!(c.peek(1), LineState::Shared);
        assert_eq!(c.peek(2), LineState::Shared);
    }

    #[test]
    fn mshr_coalescing() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.register(5, false), MshrOutcome::Allocated);
        assert_eq!(
            m.register(5, false),
            MshrOutcome::Coalesced { fill_at: u64::MAX }
        );
        m.set_fill_time(5, 100);
        assert_eq!(m.register(5, true), MshrOutcome::Coalesced { fill_at: 100 });
        let e = m.get(5).expect("present");
        assert_eq!(e.reads, 2);
        assert_eq!(e.writes, 1);
        assert!(e.is_read());
    }

    #[test]
    fn mshr_full_then_release() {
        let mut m = MshrFile::new(2);
        m.register(1, false);
        m.register(2, true);
        assert_eq!(m.register(3, false), MshrOutcome::Full);
        assert_eq!(m.occupancy(), (1, 2));
        m.release(1);
        assert_eq!(m.free(), 1);
        assert_eq!(m.register(3, false), MshrOutcome::Allocated);
    }

    #[test]
    fn write_only_mshr_not_read() {
        let mut m = MshrFile::new(2);
        m.register(9, true);
        assert_eq!(m.occupancy(), (0, 1));
        // A read coalescing onto the write-only entry flips its class.
        m.register(9, false);
        assert_eq!(m.occupancy(), (1, 1));
        m.release(9);
        assert_eq!(m.occupancy(), (0, 0));
    }

    #[test]
    fn mshr_index_survives_collision_churn() {
        // Exercise the open-addressed index across many allocate/release
        // generations with arbitrary interleaving and release order, and
        // cross-check against a naive model.
        let cap = 10;
        let mut m = MshrFile::new(cap);
        let mut model: Vec<(u64, u64)> = Vec::new(); // (line, fill_at)
        let mut x = 0x1234_5678_9abc_def0u64;
        for step in 0..20_000u64 {
            // xorshift for a deterministic, scattered line stream.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = x % 37; // small space forces reuse + collisions
            match m.register(line, step % 3 == 0) {
                MshrOutcome::Allocated => {
                    assert!(model.len() < cap, "allocated past capacity");
                    assert!(!model.iter().any(|&(l, _)| l == line));
                    m.set_fill_time(line, step);
                    model.push((line, step));
                }
                MshrOutcome::Coalesced { fill_at } => {
                    let &(_, t) = model.iter().find(|&&(l, _)| l == line).expect("tracked");
                    assert_eq!(fill_at, t);
                }
                MshrOutcome::Full => {
                    assert_eq!(model.len(), cap);
                    // Release an arbitrary tracked line (not FIFO order).
                    let victim = model.swap_remove((step % cap as u64) as usize).0;
                    m.release(victim);
                }
            }
            assert_eq!(m.free(), cap - model.len());
            for &(l, t) in &model {
                assert_eq!(m.get(l).expect("indexed").fill_at, t);
            }
        }
    }
}
