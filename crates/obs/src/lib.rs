//! Observability for the `mempar` simulator: structured event tracing,
//! a metrics registry, and the miss-clustering profiler.
//!
//! The paper's whole argument is about *where* read misses land in time —
//! whether leading references cluster their misses inside one instruction
//! window or serialize them. The simulator reproduces the aggregate
//! numbers; this crate opens the box:
//!
//! * [`Tracer`] — a zero-cost-when-disabled, ring-buffered recorder of
//!   [`TraceEvent`]s (miss issue/fill, MSHR allocate/release, coalesces,
//!   stall begin/end transitions, event-horizon jumps). Recording is pure
//!   observation: an enabled tracer never changes simulated results.
//! * [`chrome_trace_json`] — exports a trace as Chrome `trace_event` JSON
//!   that loads directly in Perfetto or `chrome://tracing`.
//! * [`MetricsRegistry`] — named counters/gauges/histograms that every
//!   simulator component registers into (naming convention
//!   `sim.cache.l2.miss`, `sim.proc0.core.retired`, …), with JSON
//!   snapshot export.
//! * [`profile_misses`] — joins trace events against the leading
//!   references found by `mempar-analysis`, reporting per static
//!   reference: miss count, mean overlap (read misses outstanding at
//!   issue), serialization ratio, and achieved-vs-predicted `f/α` — a
//!   direct empirical check of the unroll-and-jam model.
//! * [`ReuseProfiler`] — a streaming, SHARDS-sampled reuse-distance
//!   profiler over a functional run's address stream, producing per-array
//!   measured miss probabilities per cache level ([`ReuseReport`]) and
//!   the predicted-vs-measured calibration table ([`locality_delta`])
//!   behind the harness `--locality measured` mode.
//!
//! See DESIGN.md §8 for the event taxonomy and how to read a clustering
//! profile.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chrome;
mod json;
mod profile;
mod registry;
mod reuse;
mod trace;

pub use chrome::{chrome_trace_json, ChromeRun};
pub use json::{escape_json, validate_json};
pub use profile::{profile_misses, RefClusterRow, RefProfile};
pub use registry::{histogram_percentiles, Metric, MetricsRegistry};
pub use reuse::{
    locality_delta, ArrayReuse, DeltaReport, DeltaRow, ReuseConfig, ReuseLevel, ReuseProfiler,
    ReuseReport,
};
pub use trace::{TraceEvent, TraceEventKind, Tracer, SYSTEM_PROC};
