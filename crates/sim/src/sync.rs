//! Synchronization state shared by the simulated processors: barriers and
//! release/acquire flags (the paper's LU uses flags instead of barriers
//! for pipelined producer/consumer synchronization).

use std::collections::HashMap;

/// Cycles between the last arrival at a barrier and its release.
const BARRIER_RELEASE_COST: u64 = 16;

#[derive(Debug, Clone, Copy, Default)]
struct BarrierState {
    arrived: u64,
    release_at: Option<u64>,
}

/// Barrier and flag state.
#[derive(Debug, Clone)]
pub struct SyncState {
    nprocs: usize,
    barriers: HashMap<u32, BarrierState>,
    flags: HashMap<u32, u64>,
    /// Bumped on every event that can wake another processor earlier than
    /// its locally computed next-event time: a barrier-release being
    /// scheduled, or a flag being set. The event-driven stepper watches
    /// this to know when sleeping cores need their wake times recomputed.
    version: u64,
    /// Append-only log of flags in set order. A flag set at cycle `t` is
    /// visible to higher-numbered processors retiring at `t` in the same
    /// phase, so the event stepper consults the log's tail to pull
    /// flag-waiters into the current round.
    flag_log: Vec<u32>,
}

impl SyncState {
    /// State for `nprocs` processors.
    pub fn new(nprocs: usize) -> Self {
        assert!((1..=64).contains(&nprocs), "1..=64 processors supported");
        SyncState {
            nprocs,
            barriers: HashMap::new(),
            flags: HashMap::new(),
            version: 0,
            flag_log: Vec::new(),
        }
    }

    /// Marks `proc` as arrived at barrier `id` (idempotent). When the last
    /// processor arrives the barrier is scheduled for release.
    pub fn arrive_barrier(&mut self, proc: usize, id: u32, now: u64) {
        let nprocs = self.nprocs;
        let b = self.barriers.entry(id).or_default();
        b.arrived |= 1 << proc;
        if b.release_at.is_none() && b.arrived.count_ones() as usize == nprocs {
            b.release_at = Some(now + BARRIER_RELEASE_COST);
            self.version += 1;
        }
    }

    /// Monotone counter of wake-capable sync events (barrier releases
    /// scheduled, flags set). See the field documentation.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The set-order flag log (append-only; grows by one per first set of
    /// a flag).
    pub fn flag_log(&self) -> &[u32] {
        &self.flag_log
    }

    /// True when barrier `id` has been released by cycle `now`.
    pub fn barrier_released(&self, id: u32, now: u64) -> bool {
        self.barriers
            .get(&id)
            .and_then(|b| b.release_at)
            .is_some_and(|t| t <= now)
    }

    /// The cycle barrier `id` releases (None until the last processor has
    /// arrived). Used by the event stepper to find the next cycle at
    /// which a waiting core can make progress.
    pub fn barrier_release_time(&self, id: u32) -> Option<u64> {
        self.barriers.get(&id).and_then(|b| b.release_at)
    }

    /// The cycle `flag` was set (None while unset).
    pub fn flag_time(&self, flag: u32) -> Option<u64> {
        self.flags.get(&flag).copied()
    }

    /// Sets `flag` at cycle `now` (release side; earlier sets win).
    pub fn set_flag(&mut self, flag: u32, now: u64) {
        if let std::collections::hash_map::Entry::Vacant(e) = self.flags.entry(flag) {
            e.insert(now);
            self.version += 1;
            self.flag_log.push(flag);
        }
    }

    /// True when `flag` has been set by cycle `now`.
    pub fn flag_set(&self, flag: u32, now: u64) -> bool {
        self.flags.get(&flag).is_some_and(|&t| t <= now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_waits_for_all() {
        let mut s = SyncState::new(3);
        s.arrive_barrier(0, 0, 10);
        s.arrive_barrier(1, 0, 20);
        assert!(!s.barrier_released(0, 1000));
        s.arrive_barrier(2, 0, 30);
        assert!(!s.barrier_released(0, 30));
        assert!(s.barrier_released(0, 30 + BARRIER_RELEASE_COST));
    }

    #[test]
    fn barrier_arrival_idempotent() {
        let mut s = SyncState::new(2);
        s.arrive_barrier(0, 5, 1);
        s.arrive_barrier(0, 5, 2);
        assert!(!s.barrier_released(5, 1000));
        s.arrive_barrier(1, 5, 3);
        assert!(s.barrier_released(5, 3 + BARRIER_RELEASE_COST));
    }

    #[test]
    fn distinct_barriers_independent() {
        let mut s = SyncState::new(1);
        s.arrive_barrier(0, 0, 5);
        assert!(s.barrier_released(0, 5 + BARRIER_RELEASE_COST));
        assert!(!s.barrier_released(1, 1_000_000));
    }

    #[test]
    fn flags_set_once() {
        let mut s = SyncState::new(2);
        assert!(!s.flag_set(7, 100));
        s.set_flag(7, 50);
        s.set_flag(7, 80); // later set does not move the time
        assert!(!s.flag_set(7, 49));
        assert!(s.flag_set(7, 50));
    }
}
