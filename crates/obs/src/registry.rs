//! The metrics registry: named counters, gauges and histograms that
//! simulator components register into after a run, with JSON snapshot
//! export.
//!
//! Naming convention: dot-separated paths rooted at the producing
//! subsystem — `sim.cache.l2.miss`, `sim.mem.remote_miss`,
//! `sim.proc0.core.retired`, `sim.bus.utilization`. Per-processor
//! metrics carry a `proc<N>` path segment; unqualified names aggregate
//! over processors. Iteration and export order is lexicographic, so
//! snapshots are deterministic.

use std::collections::BTreeMap;

use crate::json::escape_json;

/// One registered metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotonic event count.
    Counter(u64),
    /// Point-in-time measurement.
    Gauge(f64),
    /// Bin counts (semantics are the registrant's, e.g. "cycles with
    /// exactly `i` MSHRs occupied").
    Histogram(Vec<u64>),
}

/// A sorted name → [`Metric`] map.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    map: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to the counter `name` (creating it at 0).
    pub fn counter(&mut self, name: &str, v: u64) {
        match self
            .map
            .entry(name.to_string())
            .or_insert(Metric::Counter(0))
        {
            Metric::Counter(c) => *c += v,
            other => *other = Metric::Counter(v),
        }
    }

    /// Sets the gauge `name` to `v`.
    pub fn gauge(&mut self, name: &str, v: f64) {
        self.map.insert(name.to_string(), Metric::Gauge(v));
    }

    /// Sets the histogram `name` to `bins`.
    pub fn histogram(&mut self, name: &str, bins: &[u64]) {
        self.map
            .insert(name.to_string(), Metric::Histogram(bins.to_vec()));
    }

    /// Looks a metric up by exact name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.map.get(name)
    }

    /// The counter's value, when `name` is a counter.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.map.get(name) {
            Some(Metric::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates metrics in lexicographic name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// JSON snapshot:
    /// `{"metrics": {"<name>": {"type": ..., "value"|"bins": ...}, ...}}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"metrics\": {\n");
        let lines: Vec<String> = self
            .map
            .iter()
            .map(|(name, m)| {
                let body = match m {
                    Metric::Counter(c) => format!("{{\"type\": \"counter\", \"value\": {c}}}"),
                    Metric::Gauge(g) => {
                        format!("{{\"type\": \"gauge\", \"value\": {}}}", fmt_f64(*g))
                    }
                    Metric::Histogram(bins) => {
                        let joined: Vec<String> = bins.iter().map(u64::to_string).collect();
                        match histogram_percentiles(bins) {
                            Some([p50, p95, p99]) => format!(
                                "{{\"type\": \"histogram\", \"bins\": [{}], \
                                 \"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99}}}",
                                joined.join(", ")
                            ),
                            None => format!(
                                "{{\"type\": \"histogram\", \"bins\": [{}]}}",
                                joined.join(", ")
                            ),
                        }
                    }
                };
                format!("    \"{}\": {body}", escape_json(name))
            })
            .collect();
        s.push_str(&lines.join(",\n"));
        s.push_str("\n  }\n}\n");
        s
    }
}

/// The p50/p95/p99 summary of a histogram: for each percentile `p`, the
/// smallest bin index whose cumulative count covers `p`% of the total
/// population. `None` when the histogram is empty or all-zero. What a
/// bin index *means* is the registrant's convention (occupancy level,
/// log2 reuse distance, ...), so the summary is reported in bin units.
pub fn histogram_percentiles(bins: &[u64]) -> Option<[usize; 3]> {
    let total: u64 = bins.iter().sum();
    if total == 0 {
        return None;
    }
    let mut out = [0usize; 3];
    for (slot, pct) in [(0usize, 50u64), (1, 95), (2, 99)] {
        let mut cum = 0u64;
        for (i, b) in bins.iter().enumerate() {
            cum += b;
            // cum/total >= pct/100, in integer arithmetic.
            if cum * 100 >= pct * total {
                out[slot] = i;
                break;
            }
        }
    }
    Some(out)
}

/// Shortest-roundtrip float formatting that stays valid JSON (no NaN or
/// infinity — clamped to null-ish 0, which cannot occur for the
/// simulator's ratios but keeps the exporter total).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` prints integral floats without a dot; keep them numbers
        // (JSON allows that) — nothing more to do.
        s
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;

    #[test]
    fn counters_accumulate() {
        let mut r = MetricsRegistry::new();
        r.counter("sim.cache.l2.miss", 3);
        r.counter("sim.cache.l2.miss", 4);
        assert_eq!(r.counter_value("sim.cache.l2.miss"), Some(7));
        assert_eq!(r.counter_value("missing"), None);
    }

    #[test]
    fn export_is_sorted_and_valid() {
        let mut r = MetricsRegistry::new();
        r.gauge("sim.bus.utilization", 0.25);
        r.counter("sim.cache.l2.miss", 10);
        r.histogram("sim.cache.l2.mshr.read_occupancy", &[5, 3, 1]);
        let json = r.to_json();
        validate_json(&json).expect("registry JSON must be well-formed");
        let bus = json.find("sim.bus.utilization").unwrap();
        let miss = json.find("sim.cache.l2.miss").unwrap();
        assert!(bus < miss, "lexicographic export order");
        // [5,3,1]: total 9 — p50 lands in bin 0 (5/9), p95/p99 in bin 2.
        assert!(json.contains("\"p50\": 0, \"p95\": 2, \"p99\": 2"));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn gauge_overwrites() {
        let mut r = MetricsRegistry::new();
        r.gauge("g", 1.0);
        r.gauge("g", 2.5);
        assert_eq!(r.get("g"), Some(&Metric::Gauge(2.5)));
    }

    #[test]
    fn percentile_summary() {
        assert_eq!(histogram_percentiles(&[]), None);
        assert_eq!(histogram_percentiles(&[0, 0]), None);
        assert_eq!(histogram_percentiles(&[1]), Some([0, 0, 0]));
        // 100 samples spread evenly over 10 bins: p50 at bin 4 (cum 50),
        // p95 at bin 9 (cum 100 covers 95 only at the last bin).
        assert_eq!(histogram_percentiles(&[10; 10]), Some([4, 9, 9]));
        // Heavy head: 98% at bin 0, a 2% outlier tail at bin 7 — p95 is
        // covered by the head, p99 needs the tail.
        let mut bins = vec![0u64; 8];
        bins[0] = 98;
        bins[7] = 2;
        assert_eq!(histogram_percentiles(&bins), Some([0, 0, 7]));
    }
}
