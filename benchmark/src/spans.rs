//! Spans recorded around public calls into each layer, and the interval
//! arithmetic that turns them into per-layer self times.
//!
//! A span is named `<crate>.<call>`. Its self time is its interval minus
//! the union of its children's intervals. The benchmark's jobs run on one
//! thread, but spans of one name could run at the same time on two (the
//! base and clustered simulations under `rayon::join`, as
//! `run_pair_with` runs them), so a name's self time is the measure of the
//! *union* of its spans' self intervals: wall time during which that
//! layer, and no layer below it, was running.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Name of the root span around one job of a traced pass. Its self time
/// is glue between layer calls and counts as unattributed.
pub const JOB: &str = "job";

/// A half-open interval `[start, end)` in nanoseconds since the tracer's
/// epoch.
pub type Interval = (u64, u64);

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub job: u32,
    pub name: &'static str,
    /// Small per-process thread index; `None` for spans reconstructed
    /// from a report whose thread is not known (the tuner's candidates).
    pub thread: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn interval(&self) -> Interval {
        (self.start_ns, self.end_ns)
    }

    fn to_json(&self) -> String {
        let opt = |v: Option<String>| v.unwrap_or_else(|| "null".into());
        format!(
            "{{\"id\": {}, \"parent\": {}, \"job\": {}, \"name\": \"{}\", \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            self.id,
            opt(self.parent.map(|p| p.to_string())),
            self.job,
            self.name,
            opt(self.thread.map(|t| t.to_string())),
            self.start_ns,
            self.end_ns
        )
    }
}

/// Collects spans in memory; they are written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    next_job: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            next_job: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A context for a new job: spans opened on it are roots.
    pub fn job(&self) -> Ctx<'_> {
        Ctx {
            tracer: Some(self),
            job: self.next_job.fetch_add(1, Ordering::Relaxed),
            parent: None,
        }
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("a span writer panicked"))
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("a span writer panicked")
            .push(span);
    }
}

/// Where a span is opened: which tracer (none when untraced), which job,
/// and which parent span. Copyable so both sides of a `rayon::join` can
/// open spans under the same parent.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'t> {
    tracer: Option<&'t Tracer>,
    job: u32,
    parent: Option<u64>,
}

impl<'t> Ctx<'t> {
    /// A context that records nothing: `span` just calls its closure.
    pub fn untraced() -> Ctx<'static> {
        Ctx {
            tracer: None,
            job: 0,
            parent: None,
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the context for
    /// the span's children.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce(Ctx<'t>) -> R) -> R {
        let Some(tracer) = self.tracer else {
            return f(*self);
        };
        let id = tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = tracer.now_ns();
        let out = f(Ctx {
            parent: Some(id),
            ..*self
        });
        let end_ns = tracer.now_ns();
        tracer.push(Span {
            id,
            parent: self.parent,
            job: self.job,
            name,
            thread: Some(thread_index()),
            start_ns,
            end_ns,
        });
        out
    }

    /// Nanoseconds since the tracer's epoch (0 when untraced).
    pub fn now_ns(&self) -> u64 {
        self.tracer.map_or(0, Tracer::now_ns)
    }

    /// Records a child span whose interval was measured elsewhere, on an
    /// unknown thread.
    pub fn record(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        if let Some(tracer) = self.tracer {
            tracer.push(Span {
                id: tracer.next_id.fetch_add(1, Ordering::Relaxed),
                parent: self.parent,
                job: self.job,
                name,
                thread: None,
                start_ns,
                end_ns,
            });
        }
    }
}

/// A small, stable index for the calling thread (0 for the first thread
/// that records a span).
fn thread_index() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local!(static INDEX: Cell<Option<u32>> = const { Cell::new(None) });
    INDEX.with(|i| match i.get() {
        Some(v) => v,
        None => {
            let v = NEXT.fetch_add(1, Ordering::Relaxed);
            i.set(Some(v));
            v
        }
    })
}

/// Sorts and merges intervals into a disjoint, ascending list.
fn union(mut iv: Vec<Interval>) -> Vec<Interval> {
    iv.retain(|&(s, e)| e > s);
    iv.sort_unstable();
    let mut out: Vec<Interval> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// `outer` minus a disjoint ascending list of intervals.
fn subtract(outer: Interval, minus: &[Interval]) -> Vec<Interval> {
    let mut out = Vec::new();
    let mut cursor = outer.0;
    for &(s, e) in minus {
        if e <= cursor || s >= outer.1 {
            continue;
        }
        if s > cursor {
            out.push((cursor, s));
        }
        cursor = cursor.max(e);
    }
    if cursor < outer.1 {
        out.push((cursor, outer.1));
    }
    out
}

/// Total length of a disjoint interval list.
fn measure(iv: &[Interval]) -> u64 {
    iv.iter().map(|&(s, e)| e - s).sum()
}

/// Self time in nanoseconds per span name (see the module docs).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<Interval>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s.interval());
        }
    }
    let mut own: BTreeMap<&'static str, Vec<Interval>> = BTreeMap::new();
    for s in spans {
        let kids = union(children.remove(&s.id).unwrap_or_default());
        own.entry(s.name)
            .or_default()
            .extend(subtract(s.interval(), &kids));
    }
    own.into_iter()
        .map(|(name, iv)| (name, measure(&union(iv))))
        .collect()
}

/// Sum of the durations of every span named `name` (thread time, not wall
/// time: concurrent spans both count).
pub fn total_duration(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// A traced pass's wall time split into layer self times plus what no
/// layer span covers.
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    /// Self nanoseconds per span name, without the [`JOB`] roots.
    pub layers: BTreeMap<&'static str, u64>,
    /// Job-root self time plus the gaps between jobs.
    pub unattributed_ns: u64,
    pub wall_ns: u64,
}

impl Split {
    /// Splits the pass `[pass.0, pass.1)` whose spans are `spans`.
    pub fn of(spans: &[Span], pass: Interval) -> Split {
        let mut layers = self_times(spans);
        let job_self = layers.remove(JOB).unwrap_or(0);
        let jobs: Vec<Interval> = spans
            .iter()
            .filter(|s| s.name == JOB)
            .map(Span::interval)
            .collect();
        let gaps = measure(&subtract(pass, &union(jobs)));
        Split {
            layers,
            unattributed_ns: job_self + gaps,
            wall_ns: pass.1 - pass.0,
        }
    }

    /// Relative gap between the wall time and the sum of its parts. Near
    /// zero unless spans of two different layers overlap in time, or a
    /// span escapes its parent or the pass.
    pub fn residual(&self) -> f64 {
        let parts: u64 = self.layers.values().sum::<u64>() + self.unattributed_ns;
        (parts as f64 - self.wall_ns as f64).abs() / (self.wall_ns.max(1) as f64)
    }
}

/// The spans as a JSON document: `{"spans": [{"id", "parent", "job",
/// "name", "thread", "start_ns", "end_ns"}, ...]}`.
pub fn spans_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans.iter().map(|s| format!("  {}", s.to_json())).collect();
    format!("{{\"spans\": [\n{}\n]}}\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, thread: u32, iv: Interval) -> Span {
        Span {
            id,
            parent,
            job: 0,
            name,
            thread: Some(thread),
            start_ns: iv.0,
            end_ns: iv.1,
        }
    }

    #[test]
    fn union_merges_overlaps_and_drops_empty_intervals() {
        let u = union(vec![(5, 9), (0, 2), (1, 3), (8, 12), (20, 20)]);
        assert_eq!(u, vec![(0, 3), (5, 12)]);
        assert_eq!(measure(&u), 10);
    }

    #[test]
    fn subtract_clips_to_the_outer_interval() {
        assert_eq!(subtract((0, 10), &[(2, 4), (6, 15)]), vec![(0, 2), (4, 6)]);
        assert_eq!(subtract((5, 10), &[(0, 6)]), vec![(6, 10)]);
        assert_eq!(subtract((0, 10), &[]), vec![(0, 10)]);
        assert!(subtract((0, 10), &[(0, 10)]).is_empty());
    }

    #[test]
    fn self_time_with_children_overlapping_on_two_threads() {
        // A job [0, 100) whose pair of simulations runs on two threads:
        // thread 0 [20, 70), thread 1 [25, 80). The job's self time is
        // what the union [20, 80) leaves: 40 ns. The two sim spans share
        // a name, so the layer gets the union of their self intervals
        // (60 ns of wall time), not the 105 ns of thread time.
        let spans = vec![
            span(0, None, JOB, 0, (0, 100)),
            span(1, Some(0), "sim.run", 0, (20, 70)),
            span(2, Some(0), "sim.run", 1, (25, 80)),
            span(3, Some(0), "core.profile", 0, (5, 15)),
        ];
        let t = self_times(&spans);
        assert_eq!(t[JOB], 30);
        assert_eq!(t["sim.run"], 60);
        assert_eq!(t["core.profile"], 10);
        assert_eq!(total_duration(&spans, "sim.run"), 105);

        // The pass runs [0, 110): 10 ns after the job belong to no job.
        let split = Split::of(&spans, (0, 110));
        assert_eq!(split.unattributed_ns, 30 + 10);
        assert_eq!(split.layers.values().sum::<u64>(), 70);
        assert_eq!(split.residual(), 0.0);
    }

    #[test]
    fn nested_children_take_time_from_their_parent_only() {
        // search [0, 100) > score [10, 50) on an unknown thread > nothing.
        let spans = vec![
            span(0, None, JOB, 0, (0, 100)),
            span(1, Some(0), "tune.search", 0, (0, 100)),
            Span {
                thread: None,
                ..span(2, Some(1), "tune.score", 0, (10, 50))
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t[JOB], 0);
        assert_eq!(t["tune.search"], 60);
        assert_eq!(t["tune.score"], 40);
        assert_eq!(Split::of(&spans, (0, 100)).residual(), 0.0);
    }

    #[test]
    fn overlapping_layers_show_up_as_residual() {
        // Two different layers running at once: their self times sum to
        // more than the wall time, which the residual exposes.
        let spans = vec![
            span(0, None, JOB, 0, (0, 100)),
            span(1, Some(0), "sim.run", 0, (0, 100)),
            span(2, Some(0), "ir.drain", 1, (0, 100)),
        ];
        let split = Split::of(&spans, (0, 100));
        assert!(split.residual() > 0.99);
    }

    #[test]
    fn tracer_records_parent_links_across_threads() {
        let tracer = Tracer::new();
        let job = tracer.job();
        job.span(JOB, |ctx| {
            rayon::join(
                || ctx.span("sim.run", |_| ()),
                || ctx.span("sim.run", |_| ()),
            );
            ctx.record("tune.score", 1, 2);
        });
        let spans = tracer.take();
        assert_eq!(spans.len(), 4);
        let root = spans.iter().find(|s| s.name == JOB).expect("root span");
        assert_eq!(root.parent, None);
        assert!(spans
            .iter()
            .filter(|s| s.name != JOB)
            .all(|s| s.parent == Some(root.id) && s.job == root.job));
        let threads: std::collections::BTreeSet<_> = spans
            .iter()
            .filter(|s| s.name == "sim.run")
            .map(|s| s.thread)
            .collect();
        assert_eq!(threads.len(), 2, "join ran its sides on two threads");
        assert!(tracer.take().is_empty());
        mempar_obs::validate_json(&spans_json(&spans)).expect("spans JSON is valid");
    }

    #[test]
    fn untraced_context_records_nothing() {
        let ctx = Ctx::untraced();
        assert_eq!(ctx.span("sim.run", |_| 7), 7);
        assert_eq!(ctx.now_ns(), 0);
    }
}
