//! Search-trace export: `tune.*` counters into the obs metrics
//! registry, and per-candidate Chrome/Perfetto slices.

use mempar_obs::{escape_json, MetricsRegistry};

use crate::tuner::TuneReport;

/// Registers the report's search totals as `tune.*` metrics
/// (counters for the deterministic totals, gauges for the ratios).
/// Composes with the simulator's own registry content, so one snapshot
/// carries both.
pub fn export_metrics(report: &TuneReport, reg: &mut MetricsRegistry) {
    let s = &report.stats;
    reg.counter("tune.nests", s.nests);
    reg.counter("tune.space.full", s.space_full);
    reg.counter("tune.space.enumerated", s.enumerated);
    reg.counter("tune.pruned.illegal", s.pruned_illegal);
    reg.counter("tune.pruned.predicted", s.pruned_predicted);
    reg.counter("tune.scored", s.scored);
    reg.counter("tune.reused", s.reused);
    reg.counter("tune.memo.hits", s.memo_hits);
    reg.counter("tune.memo.misses", s.memo_misses);
    reg.counter("tune.oracle.failures", report.oracle_failures.len() as u64);
    reg.counter("tune.cycles.base", report.base_cycles);
    reg.counter("tune.cycles.default", report.default_cycles);
    reg.counter("tune.cycles.tuned", report.tuned_cycles);
    reg.gauge("tune.speedup.vs_default", report.tuned_vs_default());
    reg.gauge("tune.speedup.vs_base", report.tuned_vs_base());
}

/// Renders the reports' candidate scoring slices as a Chrome trace
/// (`chrome://tracing` / Perfetto "X" complete events). One process
/// per report, one thread row per nest; each slice is one scored
/// candidate, with cycles/digest/memo/reuse provenance in `args`.
pub fn tune_trace_json(reports: &[&TuneReport]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (pid, r) in reports.iter().enumerate() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"tune {}\"}}}}",
            escape_json(&r.name)
        ));
        // Stable thread ids per nest label, in first-seen order.
        let mut nests: Vec<&str> = Vec::new();
        for c in &r.candidates {
            if !nests.iter().any(|n| *n == c.nest) {
                nests.push(&c.nest);
            }
        }
        for (tid, nest) in nests.iter().enumerate() {
            out.push_str(&format!(
                ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape_json(nest)
            ));
        }
        for c in &r.candidates {
            let tid = nests.iter().position(|n| *n == c.nest).unwrap_or(0);
            out.push_str(&format!(
                ",{{\"name\":\"{}\",\"cat\":\"tune\",\"ph\":\"X\",\"pid\":{pid},\
                 \"tid\":{tid},\"ts\":{},\"dur\":{},\"args\":{{\"cycles\":{},\
                 \"predicted_f\":{:.3},\"digest\":\"{:#018x}\",\"memo_hit\":{},\"reused\":{}}}}}",
                escape_json(&c.label),
                c.start_us,
                c.dur_us.max(1),
                c.cycles,
                c.predicted,
                c.digest,
                c.memo_hit,
                c.reused
            ));
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::{CandidateTrace, SearchStats, TuneReport};
    use mempar_obs::validate_json;

    fn report() -> TuneReport {
        TuneReport {
            name: "t".into(),
            config: "c".into(),
            opts: "event/bytecode/directory".into(),
            base_cycles: 100,
            default_cycles: 90,
            tuned_cycles: 80,
            winner: "search".into(),
            nests: vec![],
            stats: SearchStats {
                nests: 1,
                scored: 2,
                reused: 1,
                ..SearchStats::default()
            },
            candidates: vec![CandidateTrace {
                nest: "[0]j".into(),
                label: "uaj4+sr".into(),
                digest: 0xdead,
                cycles: 80,
                predicted: 4.0,
                memo_hit: false,
                reused: true,
                start_us: 10,
                dur_us: 25,
            }],
            oracle_failures: vec![],
        }
    }

    #[test]
    fn metrics_land_under_tune_prefix() {
        let mut reg = MetricsRegistry::new();
        export_metrics(&report(), &mut reg);
        assert_eq!(reg.counter_value("tune.scored"), Some(2));
        assert_eq!(reg.counter_value("tune.reused"), Some(1));
        assert_eq!(reg.counter_value("tune.cycles.tuned"), Some(80));
        assert!(validate_json(&reg.to_json()).is_ok());
    }

    #[test]
    fn trace_is_valid_chrome_json() {
        let r = report();
        let json = tune_trace_json(&[&r]);
        validate_json(&json).expect("well-formed trace");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("uaj4+sr"));
        assert!(json.contains("memo_hit"));
        assert!(json.contains("\"reused\":true"));
    }
}
