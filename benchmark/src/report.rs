//! The metric catalogue `BENCHMARK.json` declares, and the text and JSON
//! the benchmark prints.

use std::collections::BTreeMap;

use mempar_obs::escape_json;

use crate::stats::Summary;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics a user of the pipeline sees, measured with tracing off. Each is
/// defined on every workload and is never zero.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("pass_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("reduction_pct", "%", "higher"),
];

/// Printed as lines with tracing off, but not declared: the times
/// `pass_s` is rescaled from, which move with the host's other work as
/// much as with the program, and the reference loop's median time that
/// rescales them.
pub const RAW: &[MetricDef] = &[
    m("pass_cpu_s", "s", "lower"),
    m("pass_wall_s", "s", "lower"),
    m("reference_loop_s", "s", "lower"),
];

/// Metrics of single layers, from the traced run. A layer a workload does
/// not reach reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("workloads.build_s", "s", "lower"),
    m("workloads.memory_s", "s", "lower"),
    m("workloads.outputs_s", "s", "lower"),
    m("ir.compile_s", "s", "lower"),
    m("ir.drain_s", "s", "lower"),
    m("ir.ops", "count", "lower"),
    m("ir.ns_per_op", "ns", "lower"),
    m("core.profile_s", "s", "lower"),
    m("transform.cluster_s", "s", "lower"),
    m("transform.unrolled_nests", "count", "higher"),
    m("transform.space_s", "s", "lower"),
    m("transform.apply_s", "s", "lower"),
    m("transform.apply_ok", "count", "higher"),
    m("transform.apply_illegal", "count", "lower"),
    m("analysis.predict_s", "s", "lower"),
    m("sim.run_s", "s", "lower"),
    m("sim.ns_per_instr", "ns", "lower"),
    m("sim.ns_per_cycle", "ns", "lower"),
    m("sim.invalidations", "count", "lower"),
    m("sim.remote_misses", "count", "lower"),
    m("sim.cache_to_cache", "count", "lower"),
    m("sim.upgrades", "count", "lower"),
    m("sim.bus_util", "frac", "higher"),
    m("sim.bank_util", "frac", "higher"),
    m("sim.l1_misses", "count", "lower"),
    m("sim.l2_read_misses", "count", "lower"),
    m("sim.coalesced", "count", "higher"),
    m("sim.writebacks", "count", "lower"),
    m("sim.read_miss_latency_ns", "ns", "lower"),
    m("sim.mshr_read_occupancy_base", "mshrs", "higher"),
    m("sim.mshr_read_occupancy_clustered", "mshrs", "higher"),
    m("sim.busy_frac", "frac", "higher"),
    m("sim.data_stall_frac", "frac", "lower"),
    m("sim.sync_frac", "frac", "lower"),
    m("tune.profile_s", "s", "lower"),
    m("tune.search_s", "s", "lower"),
    m("tune.score_cover_s", "s", "lower"),
    m("tune.search_other_s", "s", "lower"),
    m("tune.enumerated", "count", "lower"),
    m("tune.scored", "count", "lower"),
    m("tune.pruned_illegal", "count", "higher"),
    m("tune.pruned_predicted", "count", "higher"),
    m("tune.memo_hits", "count", "higher"),
    m("tune.memo_misses", "count", "lower"),
    m("tune.memo_hit_ratio", "ratio", "higher"),
    m("tune.oracle_s_per_cand", "s", "lower"),
    m("tune.sim_s_per_cand", "s", "lower"),
    m("tune.tuned_vs_default", "ratio", "higher"),
    m("unattributed_s", "s", "lower"),
    m("trace_overhead", "ratio", "lower"),
];

/// One emitted metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub def: MetricDef,
    pub value: Summary,
}

/// Pairs every metric of `defs` with its value, in catalogue order.
/// Fails if a declared metric has no value or a value is not declared, so
/// the benchmark emits exactly what `BENCHMARK.json` declares.
pub fn collect(
    defs: &[MetricDef],
    mut values: BTreeMap<&'static str, Summary>,
) -> Result<Vec<Metric>, String> {
    let metrics = defs
        .iter()
        .map(|&def| {
            values
                .remove(def.name)
                .map(|value| Metric { def, value })
                .ok_or_else(|| format!("metric {} was not measured", def.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    match values.keys().next() {
        Some(extra) => Err(format!("metric {extra} is not declared")),
        None => Ok(metrics),
    }
}

/// `<workload> <metric> <value> <unit> (median; q1 .., q3 .., n ..)`.
pub fn text_line(workload: &str, m: &Metric) -> String {
    let v = &m.value;
    format!(
        "{workload} {} {:.6} {} (median; q1 {:.6}, q3 {:.6}, n {})",
        m.def.name, v.median, m.def.unit, v.q1, v.q3, v.n
    )
}

/// The result line: `{"correct", "attempted", "failed", "metrics":
/// {"<name>": {"value", "unit"}}}`. Each key is the metric name, prefixed
/// with `<workload>.` when the run covered several workloads.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &Metric)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(key, m)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape_json(key),
                m.value.median,
                escape_json(m.def.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(section, name, unit, better)` for each metric `BENCHMARK.json`
    /// declares, read with a scan that relies only on its fixed layout:
    /// `end_to_end` then `per_layer`, one object per line.
    fn declared() -> Vec<(&'static str, String, String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        mempar_obs::validate_json(&text).expect("BENCHMARK.json is valid JSON");
        let field = |line: &str, key: &str| -> Option<String> {
            let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
            Some(rest[..rest.find('"')?].to_string())
        };
        let mut section = "";
        let mut out = Vec::new();
        for line in text.lines() {
            if line.contains("\"end_to_end\"") {
                section = "end_to_end";
            } else if line.contains("\"per_layer\"") {
                section = "per_layer";
            } else if line.contains("\"workloads\"") {
                section = "";
            }
            if let (false, Some(name)) = (section.is_empty(), field(line, "name")) {
                let unit = field(line, "unit").expect("every metric has a unit");
                let better = field(line, "better").expect("every metric has a direction");
                out.push((section, name, unit, better));
            }
        }
        out
    }

    fn catalogue(
        section: &'static str,
        defs: &[MetricDef],
    ) -> Vec<(&'static str, String, String, String)> {
        defs.iter()
            .map(|d| (section, d.name.into(), d.unit.into(), d.better.into()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let mut expected = catalogue("end_to_end", END_TO_END);
        expected.extend(catalogue("per_layer", PER_LAYER));
        assert_eq!(declared(), expected);
        for (_, name, unit, better) in expected {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(unit.len() <= 16 && !unit.is_empty(), "{unit}");
            assert!(better == "lower" || better == "higher", "{better}");
        }
    }

    #[test]
    fn collect_rejects_missing_and_undeclared_metrics() {
        let defs = &END_TO_END[..2];
        let full: BTreeMap<_, _> = defs.iter().map(|d| (d.name, Summary::exact(1.0))).collect();
        assert_eq!(collect(defs, full.clone()).expect("complete").len(), 2);

        let mut missing = full.clone();
        missing.remove("pass_s");
        assert!(collect(defs, missing).unwrap_err().contains("pass_s"));

        let mut extra = full;
        extra.insert("bogus", Summary::exact(1.0));
        assert!(collect(defs, extra).unwrap_err().contains("bogus"));
    }

    #[test]
    fn json_line_is_valid_and_keeps_every_digit() {
        let values: BTreeMap<_, _> = END_TO_END
            .iter()
            .map(|d| (d.name, Summary::of(&[0.812_734_567_891, 0.9, 1.1])))
            .collect();
        let metrics = collect(END_TO_END, values).expect("complete");
        let keyed: Vec<(String, &Metric)> = metrics
            .iter()
            .map(|m| (m.def.name.to_string(), m))
            .collect();
        let line = json_line(true, 12, 0, &keyed);
        mempar_obs::validate_json(&line).expect("result line is valid JSON");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.9, \"unit\": \"s\"}"));
        assert!(line.contains("\"reduction_pct\": {\"value\": 0.9, \"unit\": \"%\"}"));
        let precise = Summary::exact(0.812_734_567_891);
        let m = Metric {
            def: END_TO_END[0],
            value: precise,
        };
        assert!(json_line(true, 1, 0, &[("setup_s".into(), &m)]).contains("0.812734567891"));
        assert_eq!(
            text_line("artifact-up", &metrics[1]),
            "artifact-up pass_s 0.900000 s (median; q1 0.812735, q3 1.100000, n 3)"
        );
    }
}
