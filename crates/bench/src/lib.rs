//! Shared infrastructure for the benchmark harness binaries that
//! regenerate every table and figure of the paper (see DESIGN.md for the
//! experiment index).
//!
//! Binaries (run with `cargo run --release -p mempar-bench --bin <name>`):
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table1` | Table 1 (base simulated configuration) |
//! | `table2` | Table 2 (workload catalog) |
//! | `latbench` | §5.1 (Latbench stall/latency/utilization) |
//! | `fig3` | Figure 3 (execution-time breakdowns, `--mode up/mp/up-1ghz/mp-1ghz`) |
//! | `table3` | Table 3 (Exemplar-like machine reductions) |
//! | `fig4` | Figure 4 (L2 MSHR occupancy curves, LU & Ocean) |
//! | `ablation` | Design-choice ablations (window/MSHR/degree sweeps) |
//!
//! All binaries accept `--scale <f>` (default 0.1) to size the inputs as
//! a fraction of Table 2's, and `--apps a,b,c` to restrict the set.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU8, Ordering};

use mempar::{
    chrome_trace_json, run_pair_with, ChromeRun, Engine, Locality, LocalityArtifacts,
    MachineConfig, ObservedRun, PairOptions, PairOutcome, Protocol, RunPair, SimOptions, Stepper,
    DEFAULT_TRACE_CAPACITY,
};
use mempar_obs::escape_json;
use mempar_stats::MshrOccupancy;
use mempar_workloads::App;

/// Harness log verbosity. Progress lines go to stderr at `Info` and
/// above; warnings (e.g. output mismatches) are always printed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Only results on stdout and hard warnings on stderr.
    Quiet = 0,
    /// Progress lines (the default).
    Info = 1,
    /// Everything, including per-run diagnostics.
    Debug = 2,
}

static LOG_LEVEL: AtomicU8 = AtomicU8::new(LogLevel::Info as u8);

/// Sets the process-wide harness log level.
pub fn set_log_level(level: LogLevel) {
    LOG_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Whether messages at `level` should be emitted.
pub fn log_enabled(level: LogLevel) -> bool {
    LOG_LEVEL.load(Ordering::Relaxed) >= level as u8
}

/// Command-line options shared by the harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Input-size fraction of the paper's Table 2 sizes.
    pub scale: f64,
    /// Applications to run.
    pub apps: Vec<App>,
    /// Free-form mode string (binary-specific).
    pub mode: String,
    /// Override processor count (0 = use each workload's Table 2 count).
    pub procs: usize,
    /// Worker threads for the experiment matrix (0 = all cores).
    pub threads: usize,
    /// Write a Chrome trace_event JSON of the observed runs here.
    pub trace_out: Option<String>,
    /// Write a metrics-registry JSON snapshot here.
    pub metrics_out: Option<String>,
    /// Print the per-leading-reference miss-clustering profile.
    pub profile_refs: bool,
    /// Functional engine feeding the simulator (`--engine`, default
    /// bytecode).
    pub engine: Engine,
    /// Clock-advance strategy (`--stepper`, default event). Both
    /// steppers yield bit-identical results; they differ only in speed.
    pub stepper: Stepper,
    /// Coherence protocol driving the memory system (`--protocol`,
    /// default directory). Functional results are identical across
    /// protocols; only cycle counts move.
    pub protocol: Protocol,
    /// Locality model feeding the analysis (`--locality`, default
    /// analytic). Measured mode runs the sampled reuse-distance
    /// profiler and calibrates `L_m`/`P_m` against the paper's static
    /// model.
    pub locality: Locality,
    /// Write the measured-locality JSON (reuse report + delta table)
    /// here; requires `--locality measured`.
    pub reuse_out: Option<String>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        let opts = SimOptions::default();
        HarnessArgs {
            scale: 0.1,
            apps: App::applications().to_vec(),
            mode: String::new(),
            procs: 0,
            threads: 0,
            trace_out: None,
            metrics_out: None,
            profile_refs: false,
            engine: Engine::default(),
            stepper: opts.stepper,
            protocol: opts.protocol,
            locality: Locality::default(),
            reuse_out: None,
        }
    }
}

impl HarnessArgs {
    /// Whether any observability output was requested (tracing, metrics
    /// or the reference profile) — binaries use this to decide whether
    /// to attach the tracer to their pair runs.
    pub fn wants_observation(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some() || self.profile_refs
    }

    /// Driver options implied by the flags (stepper, engine, protocol).
    pub fn sim_options(&self) -> SimOptions {
        SimOptions {
            stepper: self.stepper,
            engine: self.engine,
            protocol: self.protocol,
        }
    }

    /// Pair-experiment options implied by the flags: the driver options,
    /// the locality model, and tracing when any observability output was
    /// requested.
    pub fn pair_options(&self) -> PairOptions {
        PairOptions {
            sim: self.sim_options(),
            locality: self.locality,
            trace: self.wants_observation().then_some(DEFAULT_TRACE_CAPACITY),
        }
    }
}

/// The full usage string printed by `--help` and on any argument error.
pub fn usage() -> String {
    let bin = std::env::args()
        .next()
        .map(|p| {
            std::path::Path::new(&p)
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or(p.clone())
        })
        .unwrap_or_else(|| "harness".into());
    let apps: Vec<&str> = App::all().iter().map(|a| a.name()).collect();
    format!(
        "usage: {bin} [--scale <f>] [--apps <a,b,c>] [--mode <m>] [--procs <n>] [--threads <n>]\n\
         \x20       [--engine <e>] [--stepper <s>] [--protocol <p>]\n\
         \x20       [--locality <l>] [--reuse-out <path>]\n\
         \x20       [--trace-out <path>] [--metrics-out <path>] [--profile-refs] [--quiet]\n\
         \n\
         \x20 --scale <f>        input-size fraction of the paper's Table 2 sizes (default 0.1)\n\
         \x20 --apps <list>      comma-separated subset of: {}\n\
         \x20 --mode <m>         binary-specific mode string (fig3: up|mp|up-1ghz|mp-1ghz)\n\
         \x20 --procs <n>        override processor count (0 = each workload's Table 2 count)\n\
         \x20 --threads <n>      worker threads for the experiment matrix (0 = all cores)\n\
         \x20 --engine <e>       functional engine: bytecode (default, fast) | interp (reference)\n\
         \x20 --stepper <s>      clock driver: event (default, fast) | strict (reference);\n\
         \x20                    results are bit-identical across steppers\n\
         \x20 --protocol <p>     coherence protocol: directory (default) | mesi | moesi | dragon;\n\
         \x20                    functional results are identical, only cycle counts move\n\
         \x20 --locality <l>     locality model: analytic (default, the paper's static model) |\n\
         \x20                    measured (sampled reuse-distance profiling calibrates L_m/P_m\n\
         \x20                    and prints the predicted-vs-measured delta table)\n\
         \x20 --reuse-out <p>    write the measured-locality JSON (reuse report + delta table);\n\
         \x20                    requires --locality measured\n\
         \x20 --trace-out <p>    write a Chrome trace_event JSON (open in Perfetto)\n\
         \x20 --metrics-out <p>  write a metrics-registry JSON snapshot\n\
         \x20 --profile-refs     print the per-leading-reference miss-clustering profile\n\
         \x20 --quiet, -q        suppress progress lines on stderr\n\
         \x20 --help, -h         print this message\n\
         \n\
         environment:\n\
         \x20 MEMPAR_LOG         quiet | info | debug (flag --quiet wins over the env)",
        apps.join(",")
    )
}

/// Prints `msg` and the usage string to stderr, then exits with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n\n{}", usage());
    std::process::exit(2);
}

/// Parses the `MEMPAR_LOG` environment variable (`quiet` / `info` /
/// `debug`, case-insensitive). An unset or empty variable keeps the
/// default; an unrecognized value is an argument error (exit 2).
fn log_level_from_env() -> Option<LogLevel> {
    let val = std::env::var("MEMPAR_LOG").ok()?;
    if val.is_empty() {
        return None;
    }
    match val.to_ascii_lowercase().as_str() {
        "quiet" => Some(LogLevel::Quiet),
        "info" => Some(LogLevel::Info),
        "debug" => Some(LogLevel::Debug),
        other => usage_error(&format!(
            "MEMPAR_LOG expects quiet|info|debug, got {other:?}"
        )),
    }
}

/// Parses the shared harness flags (`--scale`, `--apps`, `--mode`,
/// `--procs`, `--threads`, the observability outputs `--trace-out` /
/// `--metrics-out` / `--profile-refs`, and `--quiet`) from the process
/// arguments, honoring `MEMPAR_LOG` for the log level. Unknown flags and
/// malformed values print the full usage string and exit with status 2.
pub fn parse_args() -> HarnessArgs {
    if let Some(level) = log_level_from_env() {
        set_log_level(level);
    }
    let mut out = HarnessArgs::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut take = || {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("missing value for {flag}")))
        };
        match flag.as_str() {
            "--scale" => {
                out.scale = take()
                    .parse()
                    .unwrap_or_else(|_| usage_error("--scale expects a float"))
            }
            "--mode" => out.mode = take(),
            "--procs" => {
                out.procs = take()
                    .parse()
                    .unwrap_or_else(|_| usage_error("--procs expects an integer"))
            }
            "--threads" => {
                out.threads = take()
                    .parse()
                    .unwrap_or_else(|_| usage_error("--threads expects an integer"))
            }
            "--apps" => {
                let list = take();
                out.apps = list
                    .split(',')
                    .map(|name| {
                        App::all()
                            .into_iter()
                            .find(|a| a.name().eq_ignore_ascii_case(name))
                            .unwrap_or_else(|| usage_error(&format!("unknown app {name}")))
                    })
                    .collect();
            }
            "--engine" => out.engine = take().parse().unwrap_or_else(|e: String| usage_error(&e)),
            "--stepper" => out.stepper = take().parse().unwrap_or_else(|e: String| usage_error(&e)),
            "--protocol" => {
                out.protocol = take().parse().unwrap_or_else(|e: String| usage_error(&e))
            }
            "--locality" => {
                out.locality = take().parse().unwrap_or_else(|e: String| usage_error(&e))
            }
            "--reuse-out" => out.reuse_out = Some(take()),
            "--trace-out" => out.trace_out = Some(take()),
            "--metrics-out" => out.metrics_out = Some(take()),
            "--profile-refs" => out.profile_refs = true,
            "--quiet" | "-q" => set_log_level(LogLevel::Quiet),
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    if !out.scale.is_finite() || out.scale <= 0.0 {
        usage_error("--scale expects a positive float");
    }
    if out.reuse_out.is_some() && out.locality != Locality::Measured {
        usage_error("--reuse-out requires --locality measured");
    }
    out
}

/// [`parse_args`] for binaries that run no traced pair: the
/// observability flags would have nothing to export, so they are an
/// argument error (exit 2) rather than silently ignored.
pub fn parse_args_unobserved() -> HarnessArgs {
    let args = parse_args();
    if args.wants_observation() {
        usage_error(
            "--trace-out, --metrics-out and --profile-refs are not supported: \
             this binary runs no traced pair",
        );
    }
    args
}

/// Fans the `jobs` across a thread pool of `threads` workers (0 = all
/// cores) and returns the results **in input order**, regardless of how
/// the scheduler interleaved them — output is deterministic for a given
/// job list even though execution is not.
///
/// Each simulation run is itself single-threaded and deterministic, so
/// the thread count never changes any result, only wall-clock time.
pub fn run_matrix<T, R, F>(threads: usize, jobs: &[T], run: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool construction cannot fail");
    pool.run_indexed(jobs.len(), |i| run(&jobs[i]))
}

/// Runs one application base-vs-clustered on the machine `cfg` at
/// `scale` under `opts`, printing a progress line.
pub fn run_app(app: App, cfg: &MachineConfig, scale: f64, opts: PairOptions) -> PairOutcome {
    let w = app.build(scale);
    if log_enabled(LogLevel::Info) {
        eprintln!(
            "[{}] {} on {} ({} procs)...",
            app.name(),
            w.name,
            cfg.name,
            cfg.nprocs
        );
    }
    let out = run_pair_with(&w, cfg, opts);
    if !out.pair.outputs_match {
        eprintln!(
            "WARNING: {} outputs differ between base and clustered!",
            app.name()
        );
    }
    out
}

/// Serializes the metric snapshots of several observed runs as one JSON
/// document: `{"runs": [{"name", "trace_events", "trace_dropped",
/// "snapshot": {"metrics": ...}}, ...]}`. Hand-rolled JSON: the offline
/// build has no serde.
pub fn metrics_json(runs: &[&ObservedRun]) -> String {
    let mut s = String::from("{\n\"runs\": [\n");
    let entries: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "{{\"name\": \"{}\", \"trace_events\": {}, \"trace_dropped\": {}, \"snapshot\": {}}}",
                escape_json(&r.name),
                r.obs.trace.len(),
                r.obs.dropped,
                r.obs.metrics.to_json().trim_end()
            )
        })
        .collect();
    s.push_str(&entries.join(",\n"));
    s.push_str("\n]\n}\n");
    s
}

/// Writes the observability outputs a binary's `args` requested for the
/// observed runs of `outcomes` (base then clustered, in outcome order;
/// untraced outcomes contribute none): the Chrome trace (`--trace-out`,
/// one viewer process per run), the metrics snapshot (`--metrics-out`)
/// and the per-leading-reference clustering profile tables
/// (`--profile-refs`, printed to stdout).
pub fn write_observation_outputs(args: &HarnessArgs, outcomes: &[PairOutcome]) {
    let runs: Vec<&ObservedRun> = outcomes
        .iter()
        .filter_map(|o| o.observed.as_ref())
        .flatten()
        .collect();
    if let Some(path) = &args.trace_out {
        let chrome_runs: Vec<ChromeRun> = runs
            .iter()
            .enumerate()
            .map(|(i, r)| ChromeRun {
                name: &r.name,
                pid: i as u32,
                events: &r.obs.trace,
                end_cycle: r.obs.end_cycle,
                reuse: r.obs.reuse_samples(),
            })
            .collect();
        let clock_mhz = runs.first().map_or(0, |r| r.obs.clock_mhz);
        let json = chrome_trace_json(&chrome_runs, clock_mhz);
        std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        if log_enabled(LogLevel::Info) {
            eprintln!("wrote trace to {path} (open at https://ui.perfetto.dev)");
        }
        for r in &runs {
            if r.obs.dropped > 0 {
                eprintln!(
                    "WARNING: {}: trace ring dropped {} events (oldest first)",
                    r.name, r.obs.dropped
                );
            }
        }
    }
    if let Some(path) = &args.metrics_out {
        let json = metrics_json(&runs);
        std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        if log_enabled(LogLevel::Info) {
            eprintln!("wrote metrics to {path}");
        }
    }
    if args.profile_refs {
        for r in &runs {
            println!("\n{}", r.profile.format_table(&r.name));
        }
    }
}

/// Serializes per-workload measured-locality artifacts as the
/// `--reuse-out` JSON document (see schemas/obs-reuse.schema.json):
/// `{"workloads": [{"name", "report": {...}, "delta": {...}}, ...]}`.
/// Hand-rolled JSON: the offline build has no serde.
pub fn reuse_json(entries: &[(&str, &LocalityArtifacts)]) -> String {
    let mut s = String::from("{\n\"workloads\": [\n");
    let items: Vec<String> = entries
        .iter()
        .map(|(name, a)| {
            format!(
                "  {{\"name\": \"{}\", \"report\": {}, \"delta\": {}}}",
                escape_json(name),
                a.report.to_json(),
                a.delta.to_json()
            )
        })
        .collect();
    s.push_str(&items.join(",\n"));
    s.push_str("\n]\n}\n");
    s
}

/// Prints the measured-locality tables (reuse report + predicted-vs-
/// measured deltas) for each workload and writes the `--reuse-out` JSON
/// when requested. No-op on an empty entry list.
pub fn write_locality_outputs(args: &HarnessArgs, entries: &[(&str, &LocalityArtifacts)]) {
    for (name, a) in entries {
        println!(
            "\n{}",
            a.report
                .format_table(&format!("{name}: measured reuse (sampled)"))
        );
        println!(
            "{}",
            a.delta
                .format_table(&format!("{name}: predicted vs measured (L_m/P_m/f)"))
        );
    }
    if let Some(path) = &args.reuse_out {
        if entries.is_empty() {
            return;
        }
        let json = reuse_json(entries);
        std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        if log_enabled(LogLevel::Info) {
            eprintln!("wrote measured-locality report to {path}");
        }
    }
}

/// Machine for the simulated uni/multiprocessor experiments (Table 1).
pub fn simulated_config(app: App, scale: f64, mp: bool, ghz: bool) -> MachineConfig {
    let w = app.build(scale);
    // The Woo et al. methodology scales caches with the working set; at
    // reduced input scales, scale the L2 similarly (min 32 KB).
    let l2 = scaled_l2(w.l2_bytes, scale);
    let nprocs = if mp { w.mp_procs.max(1) } else { 1 };
    if ghz {
        MachineConfig::fast_1ghz(nprocs, l2)
    } else {
        MachineConfig::base_simulated(nprocs, l2)
    }
}

/// Scales an L2 size with the input scale, keeping a power of two and a
/// 32 KB floor.
pub fn scaled_l2(base_bytes: usize, scale: f64) -> usize {
    let target = (base_bytes as f64 * scale) as usize;
    let mut size = 32 * 1024;
    while size * 2 <= target {
        size *= 2;
    }
    size
}

/// One simulator-throughput measurement for `BENCH_sim.json`: how many
/// simulated cycles an experiment covered and how long that took on the
/// host.
#[derive(Debug, Clone)]
pub struct SimBenchRecord {
    /// Experiment name (e.g. `latbench-up`).
    pub experiment: String,
    /// Driver mode: `strict-cycle` / `event` (bytecode engine, named by
    /// stepper), `tree-walk` (interpreter engine, event stepper), or
    /// `event-mesi` / `event-moesi` / `event-dragon` (event stepper
    /// under an alternative coherence protocol — these have their own
    /// cycle counts, so they stay out of the cross-mode cycle-equality
    /// assertion).
    pub mode: String,
    /// Simulated cycles covered (summed over the experiment's runs).
    pub cycles: u64,
    /// Simulated processors in the run. Occupancy histograms aggregate
    /// across all of them, so their `cycles` field is `cores ×
    /// (wall cycles + 1)` — the JSON carries the per-core normalization.
    pub cores: usize,
    /// Host wall-clock seconds spent simulating.
    pub wall_seconds: f64,
    /// Merged L2 MSHR occupancy histogram of the run, when recorded.
    pub occupancy: Option<MshrOccupancy>,
}

impl SimBenchRecord {
    /// Simulated cycles per host second.
    pub fn cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.wall_seconds.max(1e-12)
    }
}

/// One isolated front-end measurement for `BENCH_sim.json`: draining the
/// full dynamic-op stream with no timing model attached. A simulated
/// run spends most of its host time in the timing model, so the
/// end-to-end `engine_speedup` sits near 1 by Amdahl's law; the drain is
/// where the engine swap itself is visible (DESIGN.md §9b).
#[derive(Debug, Clone)]
pub struct FrontendBenchRecord {
    /// Experiment name (matches the simulated records).
    pub experiment: String,
    /// Dynamic ops in one full drain of the stream.
    pub ops: u64,
    /// Host seconds for one tree-walking-interpreter drain.
    pub interp_seconds: f64,
    /// Host seconds for one bytecode-VM drain.
    pub bytecode_seconds: f64,
}

impl FrontendBenchRecord {
    /// Interpreter-vs-VM speedup of the isolated front-end.
    pub fn speedup(&self) -> f64 {
        self.interp_seconds / self.bytecode_seconds.max(1e-12)
    }
}

/// One measured-locality overhead measurement for `BENCH_sim.json`: what
/// the sampled reuse-distance profiler costs, both as a functional
/// pre-pass (`measure_locality` against a plain interpreter drain of the
/// same op stream) and as the in-sim fetch-stage tap (an observed event
/// run with the tap on against an identical run with it off). The tap
/// legs must report the same simulated cycle count as the untapped run —
/// the harness asserts zero drift before recording.
#[derive(Debug, Clone)]
pub struct LocalityBenchRecord {
    /// Experiment name (matches the simulated records).
    pub experiment: String,
    /// Dynamic memory accesses seen by the pre-pass profiler.
    pub accesses: u64,
    /// SHARDS sampling rate the pre-pass settled on.
    pub sampling_rate: f64,
    /// Accesses the pre-pass actually monitored (Olken updates).
    pub sampled: u64,
    /// Host seconds for one plain interpreter drain (no profiler).
    pub drain_seconds: f64,
    /// Host seconds for one `measure_locality` pre-pass (drain + profiler).
    pub prepass_seconds: f64,
    /// Host seconds for one observed event run, fetch-stage tap off.
    pub sim_seconds: f64,
    /// Host seconds for one observed event run, fetch-stage tap on.
    pub sim_tap_seconds: f64,
}

impl LocalityBenchRecord {
    /// Pre-pass cost over a plain functional drain (1.0 = free).
    pub fn prepass_overhead(&self) -> f64 {
        self.prepass_seconds / self.drain_seconds.max(1e-12)
    }

    /// In-sim tap cost over an identical untapped observed run.
    pub fn tap_overhead(&self) -> f64 {
        self.sim_tap_seconds / self.sim_seconds.max(1e-12)
    }
}

/// One autotuner measurement for `BENCH_sim.json`: simulated cycles of
/// the untransformed program, of the paper-default clustering driver's
/// output, and of the composition tuner's winner (DESIGN.md §13), plus
/// the search totals. The headline column is `tuned_vs_default` —
/// how much the empirical search buys over the paper's analytic recipe.
#[derive(Debug, Clone)]
pub struct TuneBenchRecord {
    /// Experiment name (e.g. `latbench-up`).
    pub experiment: String,
    /// Simulated cycles of the untransformed program.
    pub base_cycles: u64,
    /// Simulated cycles of the default clustering driver's output.
    pub default_cycles: u64,
    /// Simulated cycles of the tuner's winner (≤ both by construction).
    pub tuned_cycles: u64,
    /// Which source won: `search`, `default-driver`, or `base`.
    pub winner: String,
    /// Compositions surviving constraint propagation.
    pub enumerated: u64,
    /// Candidates the simulator actually scored.
    pub scored: u64,
    /// Host wall-clock seconds the whole search took.
    pub wall_seconds: f64,
}

impl TuneBenchRecord {
    /// A record from a finished tune report.
    pub fn from_report(report: &mempar_tune::TuneReport, wall_seconds: f64) -> Self {
        TuneBenchRecord {
            experiment: report.name.clone(),
            base_cycles: report.base_cycles,
            default_cycles: report.default_cycles,
            tuned_cycles: report.tuned_cycles,
            winner: report.winner.clone(),
            enumerated: report.stats.enumerated,
            scored: report.stats.scored,
            wall_seconds,
        }
    }

    /// `default_cycles / tuned_cycles` (>1 = the search beat the paper
    /// recipe; never <1).
    pub fn tuned_vs_default(&self) -> f64 {
        self.default_cycles as f64 / self.tuned_cycles.max(1) as f64
    }

    /// `base_cycles / tuned_cycles` (>1 = faster than untransformed).
    pub fn tuned_vs_base(&self) -> f64 {
        self.base_cycles as f64 / self.tuned_cycles.max(1) as f64
    }
}

/// The occupancy histogram JSON with the explicit `cores` count and the
/// per-core normalization spliced in: the raw `cycles` field aggregates
/// samples across every processor (`cores × (wall cycles + 1)`), which
/// reads confusingly against the experiment's cycle count, so
/// `cycles_per_core` carries the per-processor sample count alongside.
fn occupancy_json(o: &MshrOccupancy, cores: usize) -> String {
    let base = o.to_json();
    let body = base.strip_prefix('{').unwrap_or(&base);
    format!(
        "{{\"cores\": {}, \"cycles_per_core\": {}, {}",
        cores,
        o.cycles() / cores.max(1) as u64,
        body
    )
}

/// Serializes the records (plus per-experiment event-vs-strict and
/// bytecode-vs-tree-walk speedups, the isolated
/// front-end drain measurements, the measured-locality profiler
/// overhead legs, and the composition-tuner `tuned_vs_default` legs) as
/// the `BENCH_sim.json` document. Hand-rolled JSON: the offline build
/// has no serde.
pub fn bench_sim_json(
    scale: f64,
    records: &[SimBenchRecord],
    frontend: &[FrontendBenchRecord],
    locality: &[LocalityBenchRecord],
    tune: &[TuneBenchRecord],
) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"scale\": {scale},\n"));
    s.push_str("  \"experiments\": [\n");
    for (i, r) in records.iter().enumerate() {
        let occupancy = match &r.occupancy {
            Some(o) => format!(", \"mshr_occupancy\": {}", occupancy_json(o, r.cores)),
            None => String::new(),
        };
        s.push_str(&format!(
            "    {{\"experiment\": \"{}\", \"mode\": \"{}\", \"cycles\": {}, \"cores\": {}, \"wall_seconds\": {:.6}, \"cycles_per_sec\": {:.1}{}}}{}\n",
            r.experiment,
            r.mode,
            r.cycles,
            r.cores,
            r.wall_seconds,
            r.cycles_per_sec(),
            occupancy,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"speedups\": [\n");
    let find = |experiment: &str, mode: &str| {
        records
            .iter()
            .find(|s| s.experiment == experiment && s.mode == mode)
    };
    let mut lines = Vec::new();
    for r in records.iter().filter(|r| r.mode == "event") {
        let mut fields = vec![format!("\"experiment\": \"{}\"", r.experiment)];
        let ratio_vs = |base: &SimBenchRecord, leg: &SimBenchRecord| {
            leg.cycles_per_sec() / base.cycles_per_sec().max(1e-12)
        };
        if let Some(strict) = find(&r.experiment, "strict-cycle") {
            fields.push(format!("\"event_vs_strict\": {:.2}", ratio_vs(strict, r)));
        }
        if let Some(tree) = find(&r.experiment, "tree-walk") {
            fields.push(format!("\"engine_speedup\": {:.2}", ratio_vs(tree, r)));
        }
        // What each coherence machine costs relative to the directory
        // baseline, in simulated cycles (not host throughput).
        for (col, mode) in [
            ("mesi_cycles_vs_directory", "event-mesi"),
            ("moesi_cycles_vs_directory", "event-moesi"),
            ("dragon_cycles_vs_directory", "event-dragon"),
        ] {
            if let Some(leg) = find(&r.experiment, mode) {
                fields.push(format!(
                    "\"{col}\": {:.3}",
                    leg.cycles as f64 / r.cycles.max(1) as f64
                ));
            }
        }
        if let Some(f) = frontend.iter().find(|f| f.experiment == r.experiment) {
            fields.push(format!("\"frontend_speedup\": {:.2}", f.speedup()));
        }
        if let Some(l) = locality.iter().find(|l| l.experiment == r.experiment) {
            fields.push(format!(
                "\"reuse_prepass_overhead\": {:.2}",
                l.prepass_overhead()
            ));
            fields.push(format!("\"reuse_tap_overhead\": {:.2}", l.tap_overhead()));
        }
        if let Some(t) = tune.iter().find(|t| t.experiment == r.experiment) {
            fields.push(format!("\"tuned_vs_default\": {:.3}", t.tuned_vs_default()));
        }
        if fields.len() > 1 {
            lines.push(format!("    {{{}}}", fields.join(", ")));
        }
    }
    s.push_str(&lines.join(",\n"));
    s.push_str("\n  ],\n  \"frontend\": [\n");
    let flines: Vec<String> = frontend
        .iter()
        .map(|f| {
            format!(
                "    {{\"experiment\": \"{}\", \"ops\": {}, \"interp_ns_per_op\": {:.2}, \"bytecode_ns_per_op\": {:.2}, \"frontend_speedup\": {:.2}}}",
                f.experiment,
                f.ops,
                f.interp_seconds * 1e9 / f.ops.max(1) as f64,
                f.bytecode_seconds * 1e9 / f.ops.max(1) as f64,
                f.speedup()
            )
        })
        .collect();
    s.push_str(&flines.join(",\n"));
    s.push_str("\n  ],\n  \"locality\": [\n");
    let llines: Vec<String> = locality
        .iter()
        .map(|l| {
            format!(
                "    {{\"experiment\": \"{}\", \"accesses\": {}, \"sampling_rate\": {:.6}, \"sampled\": {}, \"drain_ns_per_access\": {:.2}, \"prepass_ns_per_access\": {:.2}, \"prepass_overhead\": {:.2}, \"sim_tap_overhead\": {:.2}}}",
                l.experiment,
                l.accesses,
                l.sampling_rate,
                l.sampled,
                l.drain_seconds * 1e9 / l.accesses.max(1) as f64,
                l.prepass_seconds * 1e9 / l.accesses.max(1) as f64,
                l.prepass_overhead(),
                l.tap_overhead()
            )
        })
        .collect();
    s.push_str(&llines.join(",\n"));
    s.push_str("\n  ],\n  \"tune\": [\n");
    let tlines: Vec<String> = tune
        .iter()
        .map(|t| {
            format!(
                "    {{\"experiment\": \"{}\", \"base_cycles\": {}, \"default_cycles\": {}, \"tuned_cycles\": {}, \"winner\": \"{}\", \"tuned_vs_default\": {:.3}, \"tuned_vs_base\": {:.3}, \"enumerated\": {}, \"scored\": {}, \"wall_seconds\": {:.6}}}",
                t.experiment,
                t.base_cycles,
                t.default_cycles,
                t.tuned_cycles,
                t.winner,
                t.tuned_vs_default(),
                t.tuned_vs_base(),
                t.enumerated,
                t.scored,
                t.wall_seconds
            )
        })
        .collect();
    s.push_str(&tlines.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// Times `f`, returning its result and the elapsed wall seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = std::time::Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// One row of a Figure 3-style summary for stdout.
pub fn summarize_pair(pair: &RunPair) -> String {
    let b = pair.base.mean_breakdown();
    let c = pair.clustered.mean_breakdown();
    format!(
        "{:<11} base {:>12} cy | clust {:>12} cy | reduction {:>5.1}% | data stall {:>5.1}% -> {:>5.1}% | outputs {}",
        pair.name,
        pair.base.cycles,
        pair.clustered.cycles,
        pair.percent_reduction(),
        100.0 * b.data / b.total().max(1e-9),
        100.0 * c.data / b.total().max(1e-9),
        if pair.outputs_match { "ok" } else { "MISMATCH" }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_scaling() {
        assert_eq!(scaled_l2(64 * 1024, 1.0), 64 * 1024);
        assert_eq!(scaled_l2(1024 * 1024, 1.0), 1024 * 1024);
        assert_eq!(scaled_l2(64 * 1024, 0.1), 32 * 1024);
        assert_eq!(scaled_l2(1024 * 1024, 0.1), 64 * 1024);
    }

    #[test]
    fn default_args() {
        let a = HarnessArgs::default();
        assert_eq!(a.apps.len(), 7);
        assert!(a.scale > 0.0);
        assert!(!a.wants_observation());
    }

    #[test]
    fn log_levels_order() {
        assert!(LogLevel::Quiet < LogLevel::Info);
        assert!(LogLevel::Info < LogLevel::Debug);
    }

    #[test]
    fn bench_json_embeds_occupancy() {
        // Two cores' worth of aggregated samples: the JSON must carry
        // the explicit core count and the per-core normalization.
        let mut occ = MshrOccupancy::new(2);
        occ.sample(1, 2);
        occ.sample(1, 1);
        let records = vec![
            SimBenchRecord {
                experiment: "fft-mp".into(),
                mode: "event".into(),
                cycles: 1000,
                cores: 2,
                wall_seconds: 0.5,
                occupancy: Some(occ),
            },
            SimBenchRecord {
                experiment: "fft-mp".into(),
                mode: "strict-cycle".into(),
                cycles: 1000,
                cores: 2,
                wall_seconds: 1.0,
                occupancy: None,
            },
        ];
        let frontend = vec![FrontendBenchRecord {
            experiment: "fft-mp".into(),
            ops: 10_000,
            interp_seconds: 0.3,
            bytecode_seconds: 0.2,
        }];
        let locality = vec![LocalityBenchRecord {
            experiment: "fft-mp".into(),
            accesses: 8_000,
            sampling_rate: 0.125,
            sampled: 1_000,
            drain_seconds: 0.10,
            prepass_seconds: 0.15,
            sim_seconds: 0.50,
            sim_tap_seconds: 0.55,
        }];
        let tune = vec![TuneBenchRecord {
            experiment: "fft-mp".into(),
            base_cycles: 1200,
            default_cycles: 1000,
            tuned_cycles: 800,
            winner: "search".into(),
            enumerated: 40,
            scored: 16,
            wall_seconds: 0.75,
        }];
        let json = bench_sim_json(0.1, &records, &frontend, &locality, &tune);
        assert!(json.contains("\"mshr_occupancy\""));
        assert!(json.contains("\"mean_read_occupancy\""));
        assert!(json.contains("\"cores\": 2"));
        assert!(json.contains("\"cycles_per_core\": 1"));
        assert!(json.contains("\"event_vs_strict\": 2.00"));
        assert!(json.contains("\"frontend_speedup\": 1.50"));
        assert!(json.contains("\"interp_ns_per_op\""));
        assert!(json.contains("\"prepass_overhead\": 1.50"));
        assert!(json.contains("\"sim_tap_overhead\": 1.10"));
        assert!(json.contains("\"reuse_prepass_overhead\": 1.50"));
        assert!(json.contains("\"reuse_tap_overhead\": 1.10"));
        assert!(json.contains("\"sampling_rate\": 0.125000"));
        // The tune leg lands both as its own record and as the
        // headline column on the experiment's speedups row.
        assert!(json.contains("\"tuned_vs_default\": 1.250"));
        assert!(json.contains("\"tuned_vs_base\": 1.500"));
        assert!(json.contains("\"winner\": \"search\""));
        mempar_obs::validate_json(&json).expect("BENCH_sim.json must stay valid JSON");

        // No frontend/locality/tune records must still serialize as
        // valid JSON.
        let json = bench_sim_json(0.1, &records, &[], &[], &[]);
        mempar_obs::validate_json(&json).expect("frontend-less BENCH_sim.json must stay valid");
    }
}
