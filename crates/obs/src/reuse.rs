//! Sampled reuse-distance profiling over the dynamic-op address stream.
//!
//! The paper's `f`/α model takes per-reference miss probabilities as
//! *analytic* inputs: every leading line touch of a regular reference
//! misses, irregular references miss with a profiled `P_m`. This module
//! measures locality instead. It computes **LRU stack distances** (reuse
//! distances) over a functional run's dynamic-op stream — the number of
//! distinct cache lines touched between consecutive accesses to the same
//! line — and converts the resulting histogram into per-array miss
//! probabilities for each modeled cache level: for a fully-associative
//! LRU cache of `C` lines, an access hits iff its reuse distance is
//! `< C`, and cold first touches always miss.
//!
//! Exact stack-distance computation is an Olken-style order-statistics
//! structure; at billions of ops that is too expensive, so the profiler
//! samples in the style of SHARDS (Waldspurger et al., FAST'15):
//!
//! * A line is **monitored** iff `hash(line) < threshold` — a spatial
//!   filter, so every access to a monitored line is observed and
//!   distances stay exact *among monitored lines*.
//! * The monitored set is bounded (`max_samples`): on overflow the line
//!   with the largest hash is evicted and `threshold` drops to that
//!   hash, lowering the effective sampling rate `R = threshold / 2^64`.
//! * A sampled distance `d` estimates a true distance `d / R`, because
//!   the spatial filter thins the distinct-line count uniformly.
//!
//! The profiler observes one op stream: the single-processor functional
//! pre-pass behind `--locality measured`. All state lives in ordered
//! structures (`BTreeMap`, a Fenwick tree over slot indices, a
//! `BinaryHeap` popped to exhaustion) — iteration order never depends on
//! hash-map layout, making reports reproducible byte-for-byte for a fixed
//! seed.
//!
//! See DESIGN.md §12 for the algorithm walk-through and the overhead
//! accounting in BENCH_sim.json.

use std::collections::{BTreeMap, BinaryHeap};

use mempar_analysis::{analyze_inner_loop, MachineSummary, MissProfile};
use mempar_ir::Program;
use mempar_stats::{format_rows, Row};
use mempar_transform::{innermost_loops, loop_at};

use crate::json::escape_json;
use crate::registry::histogram_percentiles;

/// SplitMix64: a full-period 64-bit mixer; the profiler's spatial filter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Profiler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReuseConfig {
    /// Seed mixed into the spatial hash; two runs with the same seed
    /// produce byte-identical reports.
    pub seed: u64,
    /// Bound on simultaneously monitored lines (the SHARDS reservoir).
    /// Cost per access is O(log max_samples).
    pub max_samples: usize,
    /// Log2-distance histogram bins (bin `b > 0` covers scaled distances
    /// `[2^(b-1), 2^b)`, bin 0 is distance 0).
    pub hist_bins: usize,
}

impl Default for ReuseConfig {
    fn default() -> Self {
        ReuseConfig {
            seed: 0x5eed_0ca1_175e_ed00,
            max_samples: 4096,
            hist_bins: 40,
        }
    }
}

/// One modeled cache level: a name (`l1`, `l2`, …) and its capacity in
/// lines. The hit model is fully-associative LRU — a deliberate
/// simplification of the sim's set-associative arrays, biased toward
/// slightly *overestimating* hits only under pathological conflict
/// patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReuseLevel {
    /// Level name, used in reports and JSON.
    pub name: String,
    /// Capacity in cache lines.
    pub lines: u64,
}

/// One monitored line's bookkeeping inside a stream.
#[derive(Debug, Clone, Copy)]
struct SampledLine {
    slot: usize,
}

/// The stream's Olken state: recency order as slot indices (monotonically
/// allocated, periodically compacted) with a Fenwick tree counting
/// occupied slots, so "distinct monitored lines since last access" is
/// two O(log n) operations.
#[derive(Debug, Default)]
struct StreamState {
    /// line → slot.
    table: BTreeMap<u64, SampledLine>,
    /// slot → line (`u64::MAX` = vacated).
    slots: Vec<u64>,
    /// Fenwick tree over `slots` occupancy.
    fenwick: Vec<u64>,
    next_slot: usize,
}

const FREE: u64 = u64::MAX;

impl StreamState {
    fn with_capacity(cap: usize) -> Self {
        StreamState {
            table: BTreeMap::new(),
            slots: vec![FREE; cap],
            fenwick: vec![0; cap + 1],
            next_slot: 0,
        }
    }

    fn fenwick_add(&mut self, slot: usize, delta: i64) {
        let mut i = slot + 1;
        while i < self.fenwick.len() {
            self.fenwick[i] = self.fenwick[i].wrapping_add(delta as u64);
            i += i & i.wrapping_neg();
        }
    }

    /// Occupied slots with index `<= slot`.
    fn prefix(&self, slot: usize) -> u64 {
        let mut i = slot + 1;
        let mut sum = 0u64;
        while i > 0 {
            sum = sum.wrapping_add(self.fenwick[i]);
            i -= i & i.wrapping_neg();
        }
        sum
    }

    fn vacate(&mut self, slot: usize) {
        debug_assert_ne!(self.slots[slot], FREE);
        self.slots[slot] = FREE;
        self.fenwick_add(slot, -1);
    }

    /// Allocates the most-recent slot for `line`, compacting first when
    /// the slot arena is exhausted. Compaction preserves relative order
    /// and rewrites the table's slot indices, so it is invisible to
    /// distance queries.
    fn place(&mut self, line: u64) -> usize {
        if self.next_slot == self.slots.len() {
            let mut k = 0usize;
            for i in 0..self.slots.len() {
                let l = self.slots[i];
                if l != FREE {
                    self.slots[k] = l;
                    self.table.get_mut(&l).expect("occupied slot in table").slot = k;
                    k += 1;
                }
            }
            for s in self.slots[k..].iter_mut() {
                *s = FREE;
            }
            for f in self.fenwick.iter_mut() {
                *f = 0;
            }
            self.next_slot = k;
            for i in 0..k {
                self.fenwick_add(i, 1);
            }
        }
        let slot = self.next_slot;
        self.next_slot += 1;
        self.slots[slot] = line;
        self.fenwick_add(slot, 1);
        slot
    }
}

/// Per-array accumulators.
#[derive(Debug, Clone)]
struct ArrayAcc {
    accesses: u64,
    sampled: u64,
    cold: u64,
    hist: Vec<u64>,
    /// Σ 1/R over sampled accesses.
    weight: f64,
    /// Σ 1/R over sampled accesses that miss, per level.
    miss_weight: Vec<f64>,
}

impl ArrayAcc {
    fn new(hist_bins: usize, levels: usize) -> Self {
        ArrayAcc {
            accesses: 0,
            sampled: 0,
            cold: 0,
            hist: vec![0; hist_bins],
            weight: 0.0,
            miss_weight: vec![0.0; levels],
        }
    }
}

/// The streaming reuse-distance profiler. Feed it every memory op with
/// [`ReuseProfiler::observe`]; read the result with
/// [`ReuseProfiler::report`].
#[derive(Debug)]
pub struct ReuseProfiler {
    cfg: ReuseConfig,
    line_shift: u32,
    levels: Vec<ReuseLevel>,
    stream: StreamState,
    /// Max-heap of (hash, line) over all monitored lines.
    heap: BinaryHeap<(u64, u64)>,
    threshold: u64,
    accesses: u64,
    sampled: u64,
    evictions: u64,
    arrays: Vec<ArrayAcc>,
}

impl ReuseProfiler {
    /// A profiler over a program with `narrays` arrays (index `narrays`
    /// is the "(other)" bucket for unattributed addresses). `line_shift`
    /// is log2 of the line size the distances are counted in; `levels`
    /// are the cache capacities to derive miss probabilities for,
    /// innermost first.
    pub fn new(cfg: ReuseConfig, line_shift: u32, levels: Vec<ReuseLevel>, narrays: usize) -> Self {
        assert!(cfg.max_samples > 0 && cfg.hist_bins > 0);
        ReuseProfiler {
            arrays: vec![ArrayAcc::new(cfg.hist_bins, levels.len()); narrays + 1],
            stream: StreamState::with_capacity((4 * cfg.max_samples).max(64)),
            heap: BinaryHeap::new(),
            threshold: u64::MAX,
            accesses: 0,
            sampled: 0,
            evictions: 0,
            cfg,
            line_shift,
            levels,
        }
    }

    /// The current effective sampling rate `R = threshold / 2^64`.
    pub fn sampling_rate(&self) -> f64 {
        self.threshold as f64 / 1.844_674_407_370_955_2e19
    }

    /// Observes one memory access. `array` attributes the address to a
    /// program array index (`None` → the "(other)" bucket).
    pub fn observe(&mut self, addr: u64, array: Option<usize>) {
        self.accesses += 1;
        let ai = array
            .filter(|&a| a < self.arrays.len() - 1)
            .unwrap_or(self.arrays.len() - 1);
        self.arrays[ai].accesses += 1;
        let line = addr >> self.line_shift;
        let hash = splitmix64(line ^ self.cfg.seed);
        if hash >= self.threshold {
            return;
        }
        let weight = 1.0 / self.sampling_rate();
        self.sampled += 1;
        let acc = &mut self.arrays[ai];
        acc.sampled += 1;
        acc.weight += weight;
        let st = &mut self.stream;
        if let Some(&SampledLine { slot }) = st.table.get(&line) {
            // Reuse: distance = monitored lines touched more recently.
            let dist = st.table.len() as u64 - st.prefix(slot);
            st.vacate(slot);
            let ns = st.place(line);
            st.table.get_mut(&line).expect("hit stays resident").slot = ns;
            let scaled = (dist as f64 * weight).round() as u64;
            let bin = (64 - scaled.leading_zeros() as usize).min(self.cfg.hist_bins - 1);
            acc.hist[bin] += 1;
            for (l, lvl) in self.levels.iter().enumerate() {
                if scaled >= lvl.lines {
                    acc.miss_weight[l] += weight;
                }
            }
        } else {
            // Cold first touch of a monitored line: a compulsory miss at
            // every level.
            acc.cold += 1;
            for w in acc.miss_weight.iter_mut() {
                *w += weight;
            }
            let ns = st.place(line);
            st.table.insert(line, SampledLine { slot: ns });
            self.heap.push((hash, line));
            if st.table.len() > self.cfg.max_samples {
                self.shrink();
            }
        }
    }

    /// Evicts the largest-hash monitored line(s) and lowers the
    /// threshold to the evicted hash — the SHARDS fixed-size policy.
    fn shrink(&mut self) {
        while self.stream.table.len() > self.cfg.max_samples {
            let (hash, line) = self.heap.pop().expect("live lines imply heap entries");
            self.threshold = hash;
            self.evict(line);
        }
        // Hash ties at the new threshold are no longer monitorable
        // (`hash < threshold` fails); drop them too so the reservoir
        // matches the filter exactly.
        while let Some(&(hash, line)) = self.heap.peek() {
            if hash < self.threshold {
                break;
            }
            self.heap.pop();
            self.evict(line);
        }
    }

    fn evict(&mut self, line: u64) {
        let e = self
            .stream
            .table
            .remove(&line)
            .expect("heap tracks resident lines");
        self.stream.vacate(e.slot);
        self.evictions += 1;
    }

    /// Distills the run into a [`ReuseReport`]. `array_names` maps array
    /// indices to display names (the program's declaration order).
    pub fn report(&self, array_names: &[String]) -> ReuseReport {
        assert_eq!(array_names.len() + 1, self.arrays.len());
        let mut arrays = Vec::new();
        for (i, acc) in self.arrays.iter().enumerate() {
            if acc.accesses == 0 {
                continue;
            }
            let name = array_names
                .get(i)
                .cloned()
                .unwrap_or_else(|| "(other)".into());
            let [p50, p95, p99] = histogram_percentiles(&acc.hist)
                .map(|p| p.map(bin_rep))
                .unwrap_or([0; 3]);
            let miss_prob: Vec<f64> = acc
                .miss_weight
                .iter()
                .map(|&w| {
                    if acc.weight > 0.0 {
                        (w / acc.weight).clamp(0.0, 1.0)
                    } else {
                        0.0
                    }
                })
                .collect();
            let p_ext = miss_prob.last().copied().unwrap_or(0.0);
            arrays.push(ArrayReuse {
                name,
                accesses: acc.accesses,
                sampled: acc.sampled,
                cold: acc.cold,
                hist: acc.hist.clone(),
                p50,
                p95,
                p99,
                miss_prob,
                // Measured accesses-per-miss at the external level; 0
                // encodes "no misses observed".
                l_m: if p_ext > 0.0 { 1.0 / p_ext } else { 0.0 },
            });
        }
        ReuseReport {
            sampling_rate: self.sampling_rate(),
            accesses: self.accesses,
            sampled: self.sampled,
            evictions: self.evictions,
            levels: self.levels.clone(),
            arrays,
        }
    }
}

/// Representative scaled distance of log2 bin `b` (its lower edge).
fn bin_rep(bin: usize) -> u64 {
    if bin == 0 {
        0
    } else {
        1u64 << (bin - 1)
    }
}

/// Measured locality of one array.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayReuse {
    /// Array name (or `(other)` for unattributed addresses).
    pub name: String,
    /// Total accesses (sampled or not).
    pub accesses: u64,
    /// Sampled accesses.
    pub sampled: u64,
    /// Sampled cold first touches.
    pub cold: u64,
    /// Log2 histogram of rate-corrected reuse distances.
    pub hist: Vec<u64>,
    /// Median scaled reuse distance (bin lower edge).
    pub p50: u64,
    /// 95th-percentile scaled reuse distance.
    pub p95: u64,
    /// 99th-percentile scaled reuse distance.
    pub p99: u64,
    /// Per-level measured miss probability (cold included), in the
    /// report's level order.
    pub miss_prob: Vec<f64>,
    /// Measured accesses per external-cache miss (0 = no misses seen).
    pub l_m: f64,
}

/// A run's complete measured-locality report.
#[derive(Debug, Clone, PartialEq)]
pub struct ReuseReport {
    /// Final effective sampling rate.
    pub sampling_rate: f64,
    /// Total accesses observed.
    pub accesses: u64,
    /// Sampled accesses.
    pub sampled: u64,
    /// Reservoir evictions (threshold reductions).
    pub evictions: u64,
    /// Modeled cache levels, innermost first.
    pub levels: Vec<ReuseLevel>,
    /// Per-array measurements, declaration order, `(other)` last.
    pub arrays: Vec<ArrayReuse>,
}

impl ReuseReport {
    /// Measured external-cache miss probability for array index `i` in
    /// declaration order, when the array was observed.
    pub fn miss_prob_of(&self, name: &str) -> Option<f64> {
        self.arrays
            .iter()
            .find(|a| a.name == name)
            .and_then(|a| a.miss_prob.last().copied())
    }

    /// Renders the report as an aligned text table (one row per array).
    pub fn format_table(&self, title: &str) -> String {
        let mut headers: Vec<String> = ["accesses", "sampled", "cold", "p50", "p95", "p99"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        for l in &self.levels {
            headers.push(format!("p({})", l.name));
        }
        headers.push("L_m".into());
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let rows: Vec<Row> = self
            .arrays
            .iter()
            .map(|a| {
                let mut cells = vec![
                    format!("{}", a.accesses),
                    format!("{}", a.sampled),
                    format!("{}", a.cold),
                    format!("{}", a.p50),
                    format!("{}", a.p95),
                    format!("{}", a.p99),
                ];
                for p in &a.miss_prob {
                    cells.push(format!("{p:.3}"));
                }
                cells.push(if a.l_m > 0.0 {
                    format!("{:.1}", a.l_m)
                } else {
                    "-".into()
                });
                Row::new(&a.name, cells)
            })
            .collect();
        let mut out = format_rows(title, &header_refs, &rows);
        out.push_str(&format!(
            "  (sampling rate {:.4}, {} of {} accesses sampled, {} evictions)\n",
            self.sampling_rate, self.sampled, self.accesses, self.evictions
        ));
        out
    }

    /// JSON object export (the `report` member of the `--reuse-out`
    /// file; see schemas/obs-reuse.schema.json).
    pub fn to_json(&self) -> String {
        let levels: Vec<String> = self
            .levels
            .iter()
            .map(|l| {
                format!(
                    "{{\"name\": \"{}\", \"lines\": {}}}",
                    escape_json(&l.name),
                    l.lines
                )
            })
            .collect();
        let arrays: Vec<String> = self
            .arrays
            .iter()
            .map(|a| {
                let hist: Vec<String> = a.hist.iter().map(u64::to_string).collect();
                let probs: Vec<String> = a.miss_prob.iter().map(|p| format!("{p:.6}")).collect();
                format!(
                    "      {{\"name\": \"{}\", \"accesses\": {}, \"sampled\": {}, \"cold\": {}, \
                     \"p50\": {}, \"p95\": {}, \"p99\": {}, \"hist\": [{}], \
                     \"miss_prob\": [{}], \"l_m\": {:.4}}}",
                    escape_json(&a.name),
                    a.accesses,
                    a.sampled,
                    a.cold,
                    a.p50,
                    a.p95,
                    a.p99,
                    hist.join(", "),
                    probs.join(", "),
                    a.l_m
                )
            })
            .collect();
        format!(
            "{{\n    \"sampling_rate\": {:.6}, \"accesses\": {}, \"sampled\": {}, \
             \"evictions\": {},\n    \"levels\": [{}],\n    \"arrays\": [\n{}\n    ]\n  }}",
            self.sampling_rate,
            self.accesses,
            self.sampled,
            self.evictions,
            levels.join(", "),
            arrays.join(",\n")
        )
    }
}

/// One predicted-vs-measured row of the calibration table: the leading
/// reference of one array in one innermost nest, under the analytic and
/// the measured locality model.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRow {
    /// Array name.
    pub array: String,
    /// Innermost-nest index (program order).
    pub nest: usize,
    /// Static (predicted) iterations per line, `L_m`.
    pub l_m_pred: f64,
    /// Measured accesses per external-cache miss (0 = no misses seen).
    pub l_m_meas: f64,
    /// The reference's miss probability under the analytic model.
    pub p_pred: f64,
    /// The reference's miss probability under the measured model.
    pub p_meas: f64,
    /// The nest's `f` under the analytic model.
    pub f_pred: f64,
    /// The nest's `f` under the measured model.
    pub f_meas: f64,
    /// The nest's recurrence bound α (same under both models).
    pub alpha: f64,
}

/// The predicted-vs-measured calibration report for one program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaReport {
    /// Rows in nest order, first leading read reference per array.
    pub rows: Vec<DeltaRow>,
}

impl DeltaReport {
    /// Renders the delta table.
    pub fn format_table(&self, title: &str) -> String {
        let rows: Vec<Row> = self
            .rows
            .iter()
            .map(|r| {
                Row::new(
                    &r.array,
                    vec![
                        format!("{:.0}", r.l_m_pred),
                        if r.l_m_meas > 0.0 {
                            format!("{:.1}", r.l_m_meas)
                        } else {
                            "-".into()
                        },
                        format!("{:.3}", r.p_pred),
                        format!("{:.3}", r.p_meas),
                        format!("{:.2}", r.f_pred),
                        format!("{:.2}", r.f_meas),
                        format!("{:.2}", r.alpha),
                    ],
                )
            })
            .collect();
        format_rows(
            title,
            &[
                "L_m pred", "L_m meas", "P_m pred", "P_m meas", "f pred", "f meas", "alpha",
            ],
            &rows,
        )
    }

    /// JSON object export (the `delta` member of the `--reuse-out` file).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "      {{\"array\": \"{}\", \"nest\": {}, \"l_m_pred\": {:.4}, \
                     \"l_m_meas\": {:.4}, \"p_pred\": {:.6}, \"p_meas\": {:.6}, \
                     \"f_pred\": {:.4}, \"f_meas\": {:.4}, \"alpha\": {:.4}}}",
                    escape_json(&r.array),
                    r.nest,
                    r.l_m_pred,
                    r.l_m_meas,
                    r.p_pred,
                    r.p_meas,
                    r.f_pred,
                    r.f_meas,
                    r.alpha
                )
            })
            .collect();
        format!("{{\n    \"rows\": [\n{}\n    ]\n  }}", rows.join(",\n"))
    }
}

/// Builds the predicted-vs-measured calibration report: every innermost
/// nest is analyzed twice — under `analytic` (the paper's model) and
/// under `measured` (a profile carrying
/// [`mempar_analysis::ArrayLocality`] records) — and each array's first
/// leading read reference contributes one row. `report` supplies the
/// measured `L_m` column.
pub fn locality_delta(
    prog: &Program,
    m: &MachineSummary,
    analytic: &MissProfile,
    measured: &MissProfile,
    report: &ReuseReport,
) -> DeltaReport {
    let mut rows: Vec<DeltaRow> = Vec::new();
    for (nest_idx, path) in innermost_loops(prog).iter().enumerate() {
        let Some(lp) = loop_at(prog, path) else {
            continue;
        };
        let a_pred = analyze_inner_loop(prog, &lp.body, lp.var, m, analytic);
        let a_meas = analyze_inner_loop(prog, &lp.body, lp.var, m, measured);
        for rp in a_pred.refs.leading() {
            if rp.is_write {
                continue;
            }
            let name = &prog.array(rp.array).name;
            if rows.iter().any(|r| &r.array == name) {
                continue;
            }
            // `collect_refs` is deterministic, so ids line up across the
            // two analyses of the same body.
            let rm = &a_meas.refs.refs[rp.id];
            rows.push(DeltaRow {
                array: name.clone(),
                nest: nest_idx,
                l_m_pred: f64::from(rp.l_m),
                l_m_meas: report
                    .arrays
                    .iter()
                    .find(|a| &a.name == name)
                    .map_or(0.0, |a| a.l_m),
                p_pred: rp.p_miss,
                p_meas: rm.p_miss,
                f_pred: a_pred.f,
                f_meas: a_meas.f,
                alpha: a_pred.recurrences.alpha,
            });
        }
    }
    DeltaReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;
    use mempar_analysis::ArrayLocality;
    use mempar_ir::{ArrayId, ProgramBuilder};

    fn exact_cfg() -> ReuseConfig {
        ReuseConfig {
            max_samples: 1 << 20,
            ..ReuseConfig::default()
        }
    }

    fn levels(lines: &[(&str, u64)]) -> Vec<ReuseLevel> {
        lines
            .iter()
            .map(|&(name, lines)| ReuseLevel {
                name: name.into(),
                lines,
            })
            .collect()
    }

    /// Feed a line-index pattern (one access per line id, line size 64).
    fn feed(p: &mut ReuseProfiler, pattern: &[u64]) {
        for &l in pattern {
            p.observe(l << 6, Some(0));
        }
    }

    #[test]
    fn exact_distances_without_sampling_pressure() {
        let mut p = ReuseProfiler::new(exact_cfg(), 6, levels(&[("l2", 2)]), 1);
        // 0 1 2 0: the re-access to 0 has stack distance 2.
        feed(&mut p, &[0, 1, 2, 0]);
        assert!((p.sampling_rate() - 1.0).abs() < 1e-9);
        let rep = p.report(&["a".into()]);
        assert_eq!(rep.accesses, 4);
        let a = &rep.arrays[0];
        assert_eq!(a.cold, 3);
        assert_eq!(a.sampled, 4);
        // Distance 2 lands in bin 2 ([2,4)).
        assert_eq!(a.hist[2], 1);
        assert_eq!(a.hist.iter().sum::<u64>(), 1);
        // With a 2-line cache the reuse at distance 2 misses: 4 sampled
        // accesses, 3 cold + 1 capacity miss -> p = 1.0.
        assert_eq!(a.miss_prob, vec![1.0]);
        // Immediate reuse is a hit: 0 0 at distance 0.
        let mut p2 = ReuseProfiler::new(exact_cfg(), 6, levels(&[("l2", 2)]), 1);
        feed(&mut p2, &[0, 0, 1, 0]);
        let rep2 = p2.report(&["a".into()]);
        let a2 = &rep2.arrays[0];
        // Distances: 0 (hit), then 0->0 with 1 intervening line (hit).
        assert_eq!(a2.cold, 2);
        assert!((a2.miss_prob[0] - 0.5).abs() < 1e-12, "{:?}", a2.miss_prob);
    }

    #[test]
    fn sweep_hits_when_cache_holds_working_set() {
        let n = 16u64;
        let pattern: Vec<u64> = (0..n).chain(0..n).collect();
        // Cache holds 64 lines: the second sweep (distance 15) hits.
        let mut big = ReuseProfiler::new(exact_cfg(), 6, levels(&[("l2", 64)]), 1);
        feed(&mut big, &pattern);
        let rep = big.report(&["a".into()]);
        let a = &rep.arrays[0];
        assert_eq!(a.cold, n);
        assert!((a.miss_prob[0] - 0.5).abs() < 1e-12, "only compulsory");
        assert_eq!(a.p50, 8, "distance 15 bins to [8,16)");
        // Cache holds 8 lines: the same reuses all miss.
        let mut small = ReuseProfiler::new(exact_cfg(), 6, levels(&[("l2", 8)]), 1);
        feed(&mut small, &pattern);
        let rep = small.report(&["a".into()]);
        assert_eq!(rep.arrays[0].miss_prob, vec![1.0]);
        // Measured L_m = accesses per miss = 1/1.0.
        assert!((rep.arrays[0].l_m - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bounded_sampling_approximates_exact() {
        // A deterministic mixed-locality stream over 512 lines: hot head
        // (0..8) plus an LCG walk over the full range.
        let mut pattern = Vec::new();
        let mut x = 12345u64;
        for i in 0..30_000u64 {
            pattern.push(i % 8);
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            pattern.push((x >> 33) % 512);
        }
        // Level boundaries sit well away from the hot set's ~15-line
        // reuse distance, so rounding under rate correction cannot flip
        // half the population across a boundary.
        let lv = levels(&[("l1", 64), ("l2", 2048)]);
        let mut exact = ReuseProfiler::new(exact_cfg(), 6, lv.clone(), 1);
        feed(&mut exact, &pattern);
        let mut sampled = ReuseProfiler::new(
            ReuseConfig {
                max_samples: 64,
                ..ReuseConfig::default()
            },
            6,
            lv,
            1,
        );
        feed(&mut sampled, &pattern);
        assert!(sampled.sampling_rate() < 1.0, "pressure lowered the rate");
        let e = exact.report(&["a".into()]);
        let s = sampled.report(&["a".into()]);
        for l in 0..2 {
            let (pe, ps) = (e.arrays[0].miss_prob[l], s.arrays[0].miss_prob[l]);
            assert!(
                (pe - ps).abs() < 0.15,
                "level {l}: exact {pe:.3} vs sampled {ps:.3}"
            );
        }
    }

    #[test]
    fn reports_are_seed_stable() {
        let mut pattern = Vec::new();
        let mut x = 99u64;
        for _ in 0..5_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
            pattern.push((x >> 40) % 300);
        }
        let cfg = ReuseConfig {
            max_samples: 32,
            ..ReuseConfig::default()
        };
        let run = || {
            let mut p = ReuseProfiler::new(cfg, 6, levels(&[("l2", 64)]), 1);
            feed(&mut p, &pattern);
            p.report(&["a".into()]).to_json()
        };
        assert_eq!(run(), run(), "same seed, same bytes");
        // A different seed samples different lines but estimates the
        // same distribution.
        let mut other = ReuseProfiler::new(
            ReuseConfig {
                seed: 0xdead_beef,
                ..cfg
            },
            6,
            levels(&[("l2", 64)]),
            1,
        );
        feed(&mut other, &pattern);
        let op = other.report(&["a".into()]).arrays[0].miss_prob[0];
        let mut base = ReuseProfiler::new(cfg, 6, levels(&[("l2", 64)]), 1);
        feed(&mut base, &pattern);
        let bp = base.report(&["a".into()]).arrays[0].miss_prob[0];
        assert!((op - bp).abs() < 0.2, "seed-robust estimate: {op} vs {bp}");
    }

    #[test]
    fn compaction_preserves_distances() {
        // max_samples 16 -> slot arena 64; hammer two lines until many
        // compactions have happened, distances must stay exact.
        let cfg = ReuseConfig {
            max_samples: 16,
            ..ReuseConfig::default()
        };
        let mut p = ReuseProfiler::new(cfg, 6, levels(&[("l2", 4)]), 1);
        let pattern: Vec<u64> = (0..500).map(|i| i % 2).collect();
        feed(&mut p, &pattern);
        let rep = p.report(&["a".into()]);
        let a = &rep.arrays[0];
        // Every non-cold access reuses at distance 1 (bin 1).
        assert_eq!(a.hist[1], 498);
        assert_eq!(a.cold, 2);
        assert!((a.miss_prob[0] - 2.0 / 500.0).abs() < 1e-9);
    }

    #[test]
    fn eviction_tracks_reservoir_bound() {
        let cfg = ReuseConfig {
            max_samples: 8,
            ..ReuseConfig::default()
        };
        let mut p = ReuseProfiler::new(cfg, 6, levels(&[("l2", 4)]), 1);
        feed(&mut p, &(0..10_000u64).collect::<Vec<_>>());
        assert!(p.stream.table.len() <= 8);
        assert!(p.sampling_rate() < 0.1, "rate {}", p.sampling_rate());
        let rep = p.report(&["a".into()]);
        assert_eq!(rep.accesses, 10_000);
        assert!(rep.evictions > 0);
    }

    #[test]
    fn report_table_and_json_are_well_formed() {
        let mut p = ReuseProfiler::new(exact_cfg(), 6, levels(&[("l1", 4), ("l2", 64)]), 1);
        feed(&mut p, &[0, 1, 2, 0, 1, 2, 50, 51]);
        // One unattributed access.
        p.observe(1 << 40, None);
        let rep = p.report(&["a".into()]);
        assert_eq!(rep.arrays.len(), 2, "a plus (other)");
        assert_eq!(rep.arrays[1].name, "(other)");
        let table = rep.format_table("reuse");
        assert!(table.contains("p(l1)") && table.contains("p(l2)"));
        assert!(table.contains("sampling rate"));
        let json = format!("{{\"report\": {}}}", rep.to_json());
        validate_json(&json).expect("reuse JSON well-formed");
        assert!(rep.miss_prob_of("a").is_some());
        assert_eq!(rep.miss_prob_of("nope"), None);
    }

    #[test]
    fn delta_report_reflects_measured_profile() {
        // A streaming reduction: analytic p = 1; a hot measurement
        // lowers the measured p and thus f.
        let mut b = ProgramBuilder::new("stream");
        let a = b.array_f64("a", &[1024]);
        let s = b.scalar_f64("sum", 0.0);
        let i = b.var("i");
        b.for_const(i, 0, 1024, |b| {
            let v = b.load(a, &[b.idx(i)]);
            let acc = b.scalar(s);
            let e = b.add(acc, v);
            b.assign_scalar(s, e);
        });
        let prog = b.finish();
        let m = MachineSummary::base();
        let analytic = MissProfile::pessimistic();
        let mut measured = MissProfile::pessimistic();
        measured.set(a, 0.02);
        measured.set_measured(
            ArrayId::from_raw(0),
            ArrayLocality {
                access_miss_prob: 0.02,
                l_m: 50.0,
            },
        );
        let mut prof = ReuseProfiler::new(exact_cfg(), 6, levels(&[("l2", 1024)]), 1);
        feed(&mut prof, &(0..128u64).collect::<Vec<_>>());
        let report = prof.report(&["a".into()]);
        let delta = locality_delta(&prog, &m, &analytic, &measured, &report);
        assert_eq!(delta.rows.len(), 1);
        let r = &delta.rows[0];
        assert_eq!(r.array, "a");
        assert_eq!(r.p_pred, 1.0);
        assert!((r.p_meas - 0.16).abs() < 1e-9, "0.02 * L_m 8 = 0.16");
        assert!(r.f_meas < r.f_pred, "hot array lowers f");
        let table = delta.format_table("delta");
        assert!(table.contains("P_m meas") && table.contains("f pred"));
        let json = format!("{{\"delta\": {}}}", delta.to_json());
        validate_json(&json).expect("delta JSON well-formed");
    }
}
