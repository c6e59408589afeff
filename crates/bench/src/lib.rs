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
//! a fraction of Table 2's; those that select applications accept
//! `--apps a,b,c` to restrict the set. A flag a binary does not read
//! exits 2 (see [`Reads`]).

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU8, Ordering};

use mempar::{
    chrome_trace_json, run_pair_with, ChromeRun, Engine, Locality, LocalityArtifacts,
    MachineConfig, ObservedRun, PairOptions, PairOutcome, Protocol, RunPair, SimOptions, Stepper,
    DEFAULT_TRACE_CAPACITY,
};
use mempar_obs::escape_json;
use mempar_workloads::{App, Workload};

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
         \x20 --mode <m>         binary-specific mode string (fig3: up|mp|up-1ghz|mp-1ghz; tune: up|mp)\n\
         \x20 --procs <n>        override processor count (tune; 0 = each workload's Table 2 count)\n\
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

/// The flags only some binaries read. Each binary passes its own set to
/// [`parse_args`]; a flag outside it exits 2 with usage instead of being
/// silently ignored.
#[derive(Debug, Clone, Copy)]
pub struct Reads {
    /// `--apps`, with the binary's default selection; `None` rejects it.
    pub apps: Option<&'static [App]>,
    /// `--mode`.
    pub mode: bool,
    /// `--procs`.
    pub procs: bool,
    /// `--engine`, `--stepper` and `--protocol`.
    pub sim: bool,
    /// `--locality`.
    pub locality: bool,
    /// `--reuse-out`.
    pub reuse_out: bool,
    /// `--trace-out` and `--metrics-out`.
    pub observation: bool,
    /// `--profile-refs`.
    pub profile_refs: bool,
}

const APPLICATIONS: [App; 7] = App::applications();

impl Reads {
    /// A binary that runs traced base-vs-clustered pairs over the Table 2
    /// applications.
    pub const PAIRS: Reads = Reads {
        apps: Some(&APPLICATIONS),
        mode: false,
        procs: false,
        sim: true,
        locality: true,
        reuse_out: true,
        observation: true,
        profile_refs: true,
    };
    /// A binary that reads none of these flags.
    pub const NONE: Reads = Reads {
        apps: None,
        mode: false,
        procs: false,
        sim: false,
        locality: false,
        reuse_out: false,
        observation: false,
        profile_refs: false,
    };
}

/// Parses the harness flags from the process arguments, honoring
/// `MEMPAR_LOG` for the log level. Unknown flags, flags outside `reads`
/// and malformed values print the full usage string and exit with
/// status 2.
pub fn parse_args(reads: Reads) -> HarnessArgs {
    if let Some(level) = log_level_from_env() {
        set_log_level(level);
    }
    let mut out = HarnessArgs::default();
    if let Some(apps) = reads.apps {
        out.apps = apps.to_vec();
    }
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
            "--mode" if reads.mode => out.mode = take(),
            "--procs" if reads.procs => {
                out.procs = take()
                    .parse()
                    .unwrap_or_else(|_| usage_error("--procs expects an integer"))
            }
            "--threads" => {
                out.threads = take()
                    .parse()
                    .unwrap_or_else(|_| usage_error("--threads expects an integer"))
            }
            "--apps" if reads.apps.is_some() => {
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
            "--engine" if reads.sim => {
                out.engine = take().parse().unwrap_or_else(|e: String| usage_error(&e))
            }
            "--stepper" if reads.sim => {
                out.stepper = take().parse().unwrap_or_else(|e: String| usage_error(&e))
            }
            "--protocol" if reads.sim => {
                out.protocol = take().parse().unwrap_or_else(|e: String| usage_error(&e))
            }
            "--locality" if reads.locality => {
                out.locality = take().parse().unwrap_or_else(|e: String| usage_error(&e))
            }
            "--reuse-out" if reads.reuse_out => out.reuse_out = Some(take()),
            "--trace-out" | "--metrics-out" | "--profile-refs"
                if !reads.observation && !reads.profile_refs =>
            {
                usage_error(&format!(
                    "{flag} is not supported: this binary runs no traced pair"
                ))
            }
            "--trace-out" if reads.observation => out.trace_out = Some(take()),
            "--metrics-out" if reads.observation => out.metrics_out = Some(take()),
            "--profile-refs" if reads.profile_refs => out.profile_refs = true,
            "--mode" | "--procs" | "--apps" | "--engine" | "--stepper" | "--protocol"
            | "--locality" | "--reuse-out" | "--trace-out" | "--metrics-out" | "--profile-refs" => {
                usage_error(&format!("{flag} is not supported: this binary ignores it"))
            }
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

/// Runs one application's built workload `w` base-vs-clustered on the
/// machine `cfg` under `opts`, printing a progress line.
pub fn run_app(app: App, w: &Workload, cfg: &MachineConfig, opts: PairOptions) -> PairOutcome {
    if log_enabled(LogLevel::Info) {
        eprintln!(
            "[{}] {} on {} ({} procs)...",
            app.name(),
            w.name,
            cfg.name,
            cfg.nprocs
        );
    }
    let out = run_pair_with(w, cfg, opts);
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

/// Machine for the simulated uni/multiprocessor experiments (Table 1)
/// on workload `w`, built at `scale`.
pub fn simulated_config(w: &Workload, scale: f64, mp: bool, ghz: bool) -> MachineConfig {
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

/// The line `fig3` and `table3` print when clustering slowed a cell down:
/// `slower than base: <app>(<procs>p) …`, naming every `(app, processors,
/// pair)` cell whose clustered run took more cycles than its base. `None`
/// when no cell did.
pub fn slower_than_base<'a>(
    cells: impl IntoIterator<Item = (&'a str, usize, &'a RunPair)>,
) -> Option<String> {
    let slow: Vec<String> = cells
        .into_iter()
        .filter(|(_, _, pair)| pair.clustered.cycles > pair.base.cycles)
        .map(|(app, procs, _)| format!("{app}({procs}p)"))
        .collect();
    (!slow.is_empty()).then(|| format!("slower than base: {}", slow.join(" ")))
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
}
