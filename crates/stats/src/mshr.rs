//! MSHR occupancy, miss counters, latency and utilization statistics.

/// Per-cycle histogram of occupied MSHRs — the measurement behind
/// Figure 4 of the paper.
///
/// `sample` is called once per simulated cycle with the number of MSHRs
/// holding read misses and the total number occupied.
#[derive(Debug, Clone, PartialEq)]
pub struct MshrOccupancy {
    capacity: usize,
    cycles: u64,
    /// `read_hist[n]` = cycles with exactly `n` read-miss MSHRs occupied.
    read_hist: Vec<u64>,
    /// `total_hist[n]` = cycles with exactly `n` MSHRs occupied overall.
    total_hist: Vec<u64>,
}

impl MshrOccupancy {
    /// New histogram for a cache with `capacity` MSHRs.
    pub fn new(capacity: usize) -> Self {
        MshrOccupancy {
            capacity,
            cycles: 0,
            read_hist: vec![0; capacity + 1],
            total_hist: vec![0; capacity + 1],
        }
    }

    /// MSHR capacity this histogram was created for.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records one cycle's occupancy.
    ///
    /// # Panics
    /// Panics (debug) when counts exceed capacity — that would mean the
    /// cache model violated its own MSHR limit.
    pub fn sample(&mut self, reads: usize, total: usize) {
        self.sample_n(reads, total, 1);
    }

    /// Records `cycles` consecutive cycles at the same occupancy — the
    /// bulk form used when the simulator skips over event-free spans.
    /// Exactly equivalent to calling [`MshrOccupancy::sample`] `cycles`
    /// times (all counters are integers).
    pub fn sample_n(&mut self, reads: usize, total: usize, cycles: u64) {
        debug_assert!(reads <= total && total <= self.capacity);
        self.cycles += cycles;
        self.read_hist[reads.min(self.capacity)] += cycles;
        self.total_hist[total.min(self.capacity)] += cycles;
    }

    /// Merges another histogram (e.g. from another processor's L2).
    pub fn merge(&mut self, other: &MshrOccupancy) {
        assert_eq!(self.capacity, other.capacity, "MSHR capacity mismatch");
        self.cycles += other.cycles;
        for i in 0..=self.capacity {
            self.read_hist[i] += other.read_hist[i];
            self.total_hist[i] += other.total_hist[i];
        }
    }

    /// Cycles sampled.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Fraction of time at least `n` read-miss MSHRs were occupied
    /// (Figure 4(a)'s Y axis for X = `n`).
    pub fn read_at_least(&self, n: usize) -> f64 {
        self.at_least(&self.read_hist, n)
    }

    /// Fraction of time at least `n` MSHRs (reads + writes) were occupied
    /// (Figure 4(b)).
    pub fn total_at_least(&self, n: usize) -> f64 {
        self.at_least(&self.total_hist, n)
    }

    fn at_least(&self, hist: &[u64], n: usize) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let c: u64 = hist[n.min(self.capacity)..].iter().sum();
        c as f64 / self.cycles as f64
    }

    /// Mean number of read-miss MSHRs occupied (average read memory
    /// parallelism).
    pub fn mean_read_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .read_hist
            .iter()
            .enumerate()
            .map(|(n, &c)| n as u64 * c)
            .sum();
        sum as f64 / self.cycles as f64
    }

    /// The full "fraction of time ≥ N" curve for reads, N = 0..=capacity.
    pub fn read_curve(&self) -> Vec<f64> {
        (0..=self.capacity).map(|n| self.read_at_least(n)).collect()
    }

    /// The full "fraction of time ≥ N" curve for reads + writes.
    pub fn total_curve(&self) -> Vec<f64> {
        (0..=self.capacity)
            .map(|n| self.total_at_least(n))
            .collect()
    }

    /// The raw read histogram: index `n` = cycles with exactly `n`
    /// read-miss MSHRs occupied.
    pub fn read_histogram(&self) -> &[u64] {
        &self.read_hist
    }

    /// The raw total histogram: index `n` = cycles with exactly `n` MSHRs
    /// occupied overall.
    pub fn total_histogram(&self) -> &[u64] {
        &self.total_hist
    }
}

/// Miss/traffic counters from the memory hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemCounters {
    /// Demand loads issued to the hierarchy.
    pub loads: u64,
    /// Demand stores issued to the hierarchy.
    pub stores: u64,
    /// L1 misses (loads + stores, after coalescing).
    pub l1_misses: u64,
    /// L2 misses (i.e. external misses).
    pub l2_misses: u64,
    /// L2 *read* misses (the paper's focus).
    pub l2_read_misses: u64,
    /// Misses satisfied by local memory.
    pub local_misses: u64,
    /// Misses satisfied by a remote home memory.
    pub remote_misses: u64,
    /// Misses satisfied cache-to-cache.
    pub cache_to_cache: u64,
    /// Coalesced (merged into an outstanding MSHR) accesses.
    pub coalesced: u64,
    /// Invalidation messages sent.
    pub invalidations: u64,
    /// Update messages received (write-update protocols: the written
    /// word delivered to a still-valid remote copy).
    pub updates: u64,
    /// Ownership upgrades issued (writes that needed permission but no
    /// data transfer).
    pub upgrades: u64,
    /// Writebacks of dirty lines.
    pub writebacks: u64,
    /// Software prefetches issued to the hierarchy.
    pub prefetches: u64,
}

impl MemCounters {
    /// Element-wise sum.
    pub fn merge(&mut self, o: &MemCounters) {
        self.loads += o.loads;
        self.stores += o.stores;
        self.l1_misses += o.l1_misses;
        self.l2_misses += o.l2_misses;
        self.l2_read_misses += o.l2_read_misses;
        self.local_misses += o.local_misses;
        self.remote_misses += o.remote_misses;
        self.cache_to_cache += o.cache_to_cache;
        self.coalesced += o.coalesced;
        self.invalidations += o.invalidations;
        self.updates += o.updates;
        self.upgrades += o.upgrades;
        self.writebacks += o.writebacks;
        self.prefetches += o.prefetches;
    }
}

/// Accumulates a latency distribution (e.g. L2 read-miss total latency,
/// from address generation to completion, as in Section 5.1).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStat {
    /// Number of samples.
    pub count: u64,
    /// Sum of latencies (cycles).
    pub sum: f64,
    /// Maximum observed (cycles).
    pub max: f64,
}

impl LatencyStat {
    /// Records one latency sample.
    pub fn record(&mut self, cycles: f64) {
        self.count += 1;
        self.sum += cycles;
        if cycles > self.max {
            self.max = cycles;
        }
    }

    /// Mean latency in cycles (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Merges another distribution.
    pub fn merge(&mut self, o: &LatencyStat) {
        self.count += o.count;
        self.sum += o.sum;
        if o.max > self.max {
            self.max = o.max;
        }
    }
}

/// Busy-fraction tracker for a shared resource (bus, memory bank).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Utilization {
    /// Cycles the resource was busy.
    pub busy: u64,
    /// Total observed cycles.
    pub total: u64,
}

impl Utilization {
    /// Records `busy` out of `total` additional cycles.
    pub fn record(&mut self, busy: u64, total: u64) {
        debug_assert!(busy <= total);
        self.busy += busy;
        self.total += total;
    }

    /// The utilization in [0, 1].
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.busy as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_curves() {
        let mut m = MshrOccupancy::new(4);
        m.sample(0, 0);
        m.sample(2, 3);
        m.sample(4, 4);
        m.sample(1, 1);
        assert_eq!(m.cycles(), 4);
        assert_eq!(m.read_at_least(0), 1.0);
        assert_eq!(m.read_at_least(1), 0.75);
        assert_eq!(m.read_at_least(2), 0.5);
        assert_eq!(m.read_at_least(4), 0.25);
        assert_eq!(m.total_at_least(3), 0.5);
        assert!((m.mean_read_occupancy() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn occupancy_merge() {
        let mut a = MshrOccupancy::new(2);
        a.sample(1, 1);
        let mut b = MshrOccupancy::new(2);
        b.sample(2, 2);
        a.merge(&b);
        assert_eq!(a.cycles(), 2);
        assert_eq!(a.read_at_least(1), 1.0);
        assert_eq!(a.read_at_least(2), 0.5);
    }

    #[test]
    fn occupancy_curve_is_monotone() {
        let mut m = MshrOccupancy::new(8);
        for i in 0..100u64 {
            let r = (i % 9) as usize;
            m.sample(r, r);
        }
        let curve = m.read_curve();
        for w in curve.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert_eq!(curve[0], 1.0);
    }

    #[test]
    fn occupancy_json_round_trips_fields() {
        let mut m = MshrOccupancy::new(2);
        m.sample(1, 2);
        m.sample(1, 1);
        assert_eq!((m.capacity(), m.cycles()), (2, 2));
        assert_eq!(m.read_histogram(), &[0, 2, 0]);
        assert_eq!(m.total_histogram(), &[0, 1, 1]);
    }

    #[test]
    fn latency_stat() {
        let mut l = LatencyStat::default();
        l.record(100.0);
        l.record(300.0);
        assert_eq!(l.mean(), 200.0);
        assert_eq!(l.max, 300.0);
        let mut l2 = LatencyStat::default();
        l2.record(500.0);
        l.merge(&l2);
        assert_eq!(l.count, 3);
        assert_eq!(l.max, 500.0);
        assert_eq!(LatencyStat::default().mean(), 0.0);
    }

    #[test]
    fn utilization_fraction() {
        let mut u = Utilization::default();
        u.record(25, 100);
        u.record(25, 100);
        assert_eq!(u.fraction(), 0.25);
        assert_eq!(Utilization::default().fraction(), 0.0);
    }

    #[test]
    fn counters_merge() {
        let mut a = MemCounters {
            loads: 1,
            l2_misses: 2,
            ..Default::default()
        };
        let b = MemCounters {
            loads: 3,
            cache_to_cache: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.loads, 4);
        assert_eq!(a.l2_misses, 2);
        assert_eq!(a.cache_to_cache, 1);
    }
}
