//! Chrome `trace_event` JSON export — the format Perfetto and
//! `chrome://tracing` load directly.
//!
//! Mapping: each simulated processor is a thread (`tid`) inside the
//! run's process (`pid`); one simulated cycle is one trace-time unit
//! (the viewer displays it as a microsecond — the real clock rate is
//! recorded in `otherData.clock_mhz`). Misses and stalls become complete
//! (`"ph": "X"`) duration events, MSHR occupancy becomes a counter
//! (`"ph": "C"`) track reconstructed from allocate/release events, and
//! coalesces/horizon jumps become instants (`"ph": "i"`).

use mempar_stats::StallClass;

use crate::json::escape_json;
use crate::trace::{TraceEvent, TraceEventKind, SYSTEM_PROC};

/// One simulated run to export (several runs — e.g. base vs clustered —
/// can share a file as separate processes).
#[derive(Debug, Clone, Copy)]
pub struct ChromeRun<'a> {
    /// Process name shown in the viewer (e.g. `latbench/clustered`).
    pub name: &'a str,
    /// Process id; must be unique across the exported runs.
    pub pid: u32,
    /// The run's events, oldest first (from [`crate::Tracer::events`]).
    pub events: &'a [TraceEvent],
    /// Cycle to close still-open spans at (the run's wall clock).
    pub end_cycle: u64,
}

fn stall_name(c: StallClass) -> &'static str {
    match c {
        StallClass::Cpu => "stall:cpu",
        StallClass::DataMemory => "stall:data",
        StallClass::Sync => "stall:sync",
        StallClass::Instruction => "stall:instr",
    }
}

/// Exports `runs` as one Chrome `trace_event` JSON document.
pub fn chrome_trace_json(runs: &[ChromeRun], clock_mhz: u32) -> String {
    let mut out: Vec<String> = Vec::new();
    for run in runs {
        emit_run(run, &mut out);
    }
    let mut s = String::from("{\n\"traceEvents\": [\n");
    s.push_str(&out.join(",\n"));
    s.push_str(&format!(
        "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {{\"clock_mhz\": {clock_mhz}, \"time_unit\": \"cycles\"}}\n}}\n"
    ));
    s
}

fn emit_run(run: &ChromeRun, out: &mut Vec<String>) {
    let pid = run.pid;
    out.push(format!(
        "{{\"ph\": \"M\", \"pid\": {pid}, \"name\": \"process_name\", \"args\": {{\"name\": \"{}\"}}}}",
        escape_json(run.name)
    ));

    // Open miss spans per (proc, line); open stall span per proc;
    // reconstructed MSHR occupancy per proc.
    let mut open_miss: Vec<(u32, u64, u64, bool, u32, u32)> = Vec::new();
    let mut open_stall: Vec<(u32, StallClass, u64)> = Vec::new();
    let mut outstanding: Vec<(u32, i64)> = Vec::new();
    let mut tids_seen: Vec<u32> = Vec::new();

    let note_tid = |tid: u32, tids: &mut Vec<u32>, out: &mut Vec<String>| {
        if !tids.contains(&tid) {
            tids.push(tid);
            let name = if tid == SYSTEM_PROC {
                "scheduler".to_string()
            } else {
                format!("proc {tid}")
            };
            // The scheduler row uses tid 0xffff to stay within viewer-
            // friendly ranges while sorting after real processors.
            let tid_num = if tid == SYSTEM_PROC { 0xffff } else { tid };
            out.push(format!(
                "{{\"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid_num}, \"name\": \"thread_name\", \"args\": {{\"name\": \"{name}\"}}}}"
            ));
        }
    };

    let counter = |proc: u32,
                   time: u64,
                   delta: i64,
                   outstanding: &mut Vec<(u32, i64)>,
                   out: &mut Vec<String>| {
        let idx = match outstanding.iter().position(|(p, _)| *p == proc) {
            Some(i) => i,
            None => {
                outstanding.push((proc, 0));
                outstanding.len() - 1
            }
        };
        // A ring that wrapped may deliver a release without its alloc.
        let slot = &mut outstanding[idx].1;
        *slot = (*slot + delta).max(0);
        out.push(format!(
            "{{\"ph\": \"C\", \"pid\": {pid}, \"tid\": {proc}, \"ts\": {time}, \"name\": \"mshrs p{proc}\", \"args\": {{\"outstanding\": {slot}}}}}"
        ));
    };

    for ev in run.events {
        note_tid(ev.proc, &mut tids_seen, out);
        match ev.kind {
            TraceEventKind::MissIssue {
                line,
                write,
                reads_outstanding,
                total_outstanding,
            } => {
                open_miss.push((
                    ev.proc,
                    line,
                    ev.time,
                    write,
                    reads_outstanding,
                    total_outstanding,
                ));
            }
            TraceEventKind::MissFill { line } => {
                if let Some(i) = open_miss
                    .iter()
                    .position(|&(p, l, ..)| p == ev.proc && l == line)
                {
                    let (proc, line, t0, write, reads, total) = open_miss.remove(i);
                    out.push(miss_span(pid, proc, line, t0, ev.time, write, reads, total));
                }
                // A fill whose issue fell off the ring is dropped.
            }
            TraceEventKind::MshrAlloc { .. } => {
                counter(ev.proc, ev.time, 1, &mut outstanding, out);
            }
            TraceEventKind::MshrRelease { .. } => {
                counter(ev.proc, ev.time, -1, &mut outstanding, out);
            }
            TraceEventKind::Coalesce { line } => {
                out.push(format!(
                    "{{\"ph\": \"i\", \"pid\": {pid}, \"tid\": {}, \"ts\": {}, \"s\": \"t\", \"cat\": \"mshr\", \"name\": \"coalesce\", \"args\": {{\"line\": \"0x{line:x}\"}}}}",
                    ev.proc, ev.time
                ));
            }
            TraceEventKind::StallBegin { class } => {
                open_stall.push((ev.proc, class, ev.time));
            }
            TraceEventKind::StallEnd { class } => {
                if let Some(i) = open_stall
                    .iter()
                    .position(|&(p, c, _)| p == ev.proc && c == class)
                {
                    let (proc, class, t0) = open_stall.remove(i);
                    out.push(stall_span(pid, proc, class, t0, ev.time));
                }
            }
            TraceEventKind::HorizonJump { span } => {
                out.push(format!(
                    "{{\"ph\": \"i\", \"pid\": {pid}, \"tid\": 65535, \"ts\": {}, \"s\": \"p\", \"cat\": \"scheduler\", \"name\": \"horizon jump\", \"args\": {{\"span\": {span}}}}}",
                    ev.time
                ));
            }
        }
    }
    // Close anything still open at the end of the run.
    for (proc, line, t0, write, reads, total) in open_miss {
        out.push(miss_span(
            pid,
            proc,
            line,
            t0,
            run.end_cycle.max(t0),
            write,
            reads,
            total,
        ));
    }
    for (proc, class, t0) in open_stall {
        out.push(stall_span(pid, proc, class, t0, run.end_cycle.max(t0)));
    }
}

#[allow(clippy::too_many_arguments)]
fn miss_span(
    pid: u32,
    proc: u32,
    line: u64,
    t0: u64,
    t1: u64,
    write: bool,
    reads: u32,
    total: u32,
) -> String {
    let cat = if write { "miss:write" } else { "miss:read" };
    format!(
        "{{\"ph\": \"X\", \"pid\": {pid}, \"tid\": {proc}, \"ts\": {t0}, \"dur\": {}, \"cat\": \"{cat}\", \"name\": \"miss 0x{line:x}\", \"args\": {{\"reads_at_issue\": {reads}, \"total_at_issue\": {total}}}}}",
        t1.saturating_sub(t0).max(1)
    )
}

fn stall_span(pid: u32, proc: u32, class: StallClass, t0: u64, t1: u64) -> String {
    format!(
        "{{\"ph\": \"X\", \"pid\": {pid}, \"tid\": {proc}, \"ts\": {t0}, \"dur\": {}, \"cat\": \"stall\", \"name\": \"{}\", \"args\": {{}}}}",
        t1.saturating_sub(t0).max(1),
        stall_name(class)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;
    use crate::trace::Tracer;

    fn sample_events() -> Vec<TraceEvent> {
        let mut t = Tracer::with_capacity(64);
        t.record(5, 0, TraceEventKind::MshrAlloc { line: 0x40 });
        t.record(
            5,
            0,
            TraceEventKind::MissIssue {
                line: 0x40,
                write: false,
                reads_outstanding: 1,
                total_outstanding: 1,
            },
        );
        t.record(
            6,
            0,
            TraceEventKind::StallBegin {
                class: StallClass::DataMemory,
            },
        );
        t.record(7, 0, TraceEventKind::Coalesce { line: 0x40 });
        t.record(30, SYSTEM_PROC, TraceEventKind::HorizonJump { span: 50 });
        t.record(90, 0, TraceEventKind::MissFill { line: 0x40 });
        t.record(90, 0, TraceEventKind::MshrRelease { line: 0x40 });
        t.record(
            91,
            0,
            TraceEventKind::StallEnd {
                class: StallClass::DataMemory,
            },
        );
        t.events()
    }

    #[test]
    fn export_is_valid_json_with_expected_phases() {
        let events = sample_events();
        let runs = [ChromeRun {
            name: "unit",
            pid: 0,
            events: &events,
            end_cycle: 100,
        }];
        let json = chrome_trace_json(&runs, 300);
        validate_json(&json).expect("chrome trace must be well-formed JSON");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"X\""), "duration events present");
        assert!(json.contains("\"ph\": \"C\""), "counter events present");
        assert!(json.contains("\"ph\": \"i\""), "instant events present");
        assert!(json.contains("miss 0x40"));
        assert!(json.contains("stall:data"));
        assert!(json.contains("horizon jump"));
        assert!(json.contains("\"clock_mhz\": 300"));
    }

    #[test]
    fn unmatched_spans_close_at_end() {
        let mut t = Tracer::with_capacity(8);
        t.record(
            10,
            1,
            TraceEventKind::MissIssue {
                line: 0x80,
                write: false,
                reads_outstanding: 1,
                total_outstanding: 1,
            },
        );
        t.record(
            12,
            1,
            TraceEventKind::StallBegin {
                class: StallClass::Sync,
            },
        );
        let events = t.events();
        let runs = [ChromeRun {
            name: "open",
            pid: 3,
            events: &events,
            end_cycle: 42,
        }];
        let json = chrome_trace_json(&runs, 300);
        validate_json(&json).expect("valid");
        assert!(json.contains("\"dur\": 32"), "miss closed at end: {json}");
        assert!(json.contains("\"dur\": 30"), "stall closed at end");
    }

    #[test]
    fn stray_fill_after_wraparound_is_dropped() {
        let events = [TraceEvent {
            time: 9,
            proc: 0,
            kind: TraceEventKind::MissFill { line: 0x99 },
        }];
        let runs = [ChromeRun {
            name: "wrapped",
            pid: 0,
            events: &events,
            end_cycle: 10,
        }];
        let json = chrome_trace_json(&runs, 300);
        validate_json(&json).expect("valid");
        assert!(!json.contains("0x99"), "fill without issue is dropped");
    }
}
