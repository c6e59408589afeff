//! The untraced measurement of one workload: set-up, the output check,
//! and the timed passes.
//!
//! The load is a closed loop: one client issues jobs back to back, one
//! (application, machine) cell per job, cells in pass order, and the next
//! job starts only when the previous one has returned.
//!
//! Set-up rounds and jobs are timed in CPU seconds of this process, with
//! the reference loop of [`crate::speed`] run before each; jobs are also
//! timed in wall seconds.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use mempar::Locality;
use mempar_tune::tune_workload;
use mempar_workloads::Workload;

use crate::cells::{build, Bench, Cell};
use crate::jobs::{self, interp_fingerprint, new_tuner, Outcome};
use crate::spans::Ctx;
use crate::speed::{at_nominal, cpu_seconds, reference_loop};
use crate::stats::Summary;

/// Set-up repeats for at least this many rounds and this many seconds;
/// `setup_s` is the median round. A round takes a fraction of a
/// millisecond to a few, so a median over half a second of rounds is not
/// swayed by a brief stall of the host.
const SETUP_ROUNDS: usize = 25;
const SETUP_SECONDS: f64 = 0.5;

/// Every cell is timed at least this often, however long its jobs take.
const MIN_SAMPLES: usize = 2;

/// Jobs attempted and failed, across every phase of a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one job; `ok == false` counts it as failed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// The built inputs of one run.
#[derive(Debug)]
pub struct Setup {
    pub bench: Bench,
    pub seed: u64,
    pub workloads: Vec<Workload>,
    pub cells: Vec<Cell>,
    /// CPU seconds per set-up round, each rescaled to the quiet host's
    /// speed by the reference loop run just before it.
    pub rounds: Vec<f64>,
}

impl Setup {
    /// Builds every application's workload from the seed, several times
    /// over, keeping the last round's.
    pub fn build(bench: Bench, seed: u64) -> Setup {
        let mut rounds = Vec::new();
        let mut workloads = Vec::new();
        let start = Instant::now();
        while rounds.len() < SETUP_ROUNDS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
            // Free the previous round first, so each round builds into the
            // same heap and rounds do not stack up in the peak RSS.
            drop(std::mem::take(&mut workloads));
            let loop_s = reference_loop();
            let t = cpu_seconds();
            workloads = build_all(bench, seed, Ctx::untraced());
            rounds.push(at_nominal(cpu_seconds() - t, loop_s));
        }
        let cells = bench.cells(&workloads);
        Setup {
            bench,
            seed,
            workloads,
            cells,
            rounds,
        }
    }

    pub fn workload(&self, cell: &Cell) -> &Workload {
        &self.workloads[cell.workload]
    }
}

/// One set-up round: every application's workload, each built under its
/// own root span when traced.
pub fn build_all(bench: Bench, seed: u64, ctx: Ctx) -> Vec<Workload> {
    bench
        .apps()
        .into_iter()
        .map(|app| ctx.span("workloads.build", |_| build(app, bench.scale(), seed)))
        .collect()
}

/// What the untimed check pass established for each cell.
#[derive(Debug)]
pub struct Reference {
    /// The outcome every later job of the cell must reproduce; `None`
    /// when the check itself failed, which fails every job of the cell.
    pub outcomes: Vec<Option<Outcome>>,
    /// Percent reduction of simulated execution time per checked cell:
    /// clustered vs base, or tuned vs base.
    pub reductions: Vec<f64>,
}

/// Runs each cell once, outside the timed passes, and checks its outputs
/// independently: the simulated base and clustered memory images must
/// both equal the tree-walking interpreter's image of the base program,
/// and a tuned program must leave the interpreter's image unchanged.
pub fn check_pass(setup: &Setup, tally: &mut Tally) -> Reference {
    let tuner = new_tuner();
    let mut outcomes = Vec::new();
    let mut reductions = Vec::new();
    for cell in &setup.cells {
        let w = setup.workload(cell);
        let cfg = &cell.cfg;
        let checked = catch_unwind(AssertUnwindSafe(|| {
            let expected = interp_fingerprint(w, &w.program, cfg);
            if setup.bench.is_tune() {
                let (tuned, report, _) = tune_workload(w, cfg, &tuner, Locality::Analytic);
                let ok = report.oracle_failures.is_empty()
                    && interp_fingerprint(w, &tuned, cfg) == expected;
                let reduction =
                    100.0 * (1.0 - report.tuned_cycles as f64 / report.base_cycles as f64);
                (ok, Outcome::of_tune(&report), reduction)
            } else {
                let parts = jobs::pair_parts(Ctx::untraced(), w, cfg);
                let ok = parts.pair.outputs_match
                    && parts.base_mem.fingerprint() == expected
                    && parts.clustered_mem.fingerprint() == expected;
                (
                    ok,
                    Outcome::of_pair(&parts.pair),
                    parts.pair.percent_reduction(),
                )
            }
        }));
        let ok = matches!(checked, Ok((true, _, _)));
        tally.record(ok);
        if !ok {
            eprintln!(
                "FAILED output check: {} on {} (seed {})",
                w.name, cfg.name, setup.seed
            );
        }
        match checked {
            Ok((true, outcome, reduction)) => {
                outcomes.push(Some(outcome));
                reductions.push(reduction);
            }
            _ => outcomes.push(None),
        }
    }
    Reference {
        outcomes,
        reductions,
    }
}

/// Every successful timed job's wall seconds, CPU seconds, and CPU seconds
/// rescaled to the quiet host's speed, per cell; and the CPU seconds of
/// the reference loop run before every job.
#[derive(Debug)]
pub struct Timing {
    pub wall: Vec<Vec<f64>>,
    pub cpu: Vec<Vec<f64>>,
    pub nominal: Vec<Vec<f64>>,
    pub loops: Vec<f64>,
}

impl Timing {
    /// The pass's wall time: each cell's median job time, summed over
    /// cells (quartiles likewise; `n` is the fewest samples any cell has).
    pub fn wall_pass(&self) -> Summary {
        pass(&self.wall)
    }

    /// The pass's CPU time, summed from each cell's median likewise.
    pub fn cpu_pass(&self) -> Summary {
        pass(&self.cpu)
    }

    /// The pass's rescaled CPU time, summed from each cell's median
    /// likewise.
    pub fn nominal_pass(&self) -> Summary {
        pass(&self.nominal)
    }
}

fn pass(per_cell: &[Vec<f64>]) -> Summary {
    let parts: Vec<Summary> = per_cell.iter().map(|s| Summary::of(s)).collect();
    Summary::sum(&parts)
}

/// Runs passes over the cells for about `seconds`, timing each job from
/// the outside. The run stops before a job that would end past the
/// deadline, once every cell has been attempted [`MIN_SAMPLES`] times.
/// The tuner is rebuilt at the start of every pass.
pub fn timed_passes(
    setup: &Setup,
    reference: &Reference,
    seconds: f64,
    tally: &mut Tally,
) -> Timing {
    let deadline = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let n = setup.cells.len();
    let mut wall = vec![Vec::new(); n];
    let mut cpu = vec![Vec::new(); n];
    let mut nominal = vec![Vec::new(); n];
    let mut loops = Vec::new();
    let mut attempts = vec![0usize; n];
    'passes: loop {
        let tuner = setup.bench.is_tune().then(new_tuner);
        for (i, cell) in setup.cells.iter().enumerate() {
            let last = wall[i].last().copied().unwrap_or(0.0);
            let sampled = attempts.iter().all(|&a| a >= MIN_SAMPLES);
            if sampled && start.elapsed() + Duration::from_secs_f64(last) > deadline {
                break 'passes;
            }
            attempts[i] += 1;
            let w = setup.workload(cell);
            let loop_s = reference_loop();
            loops.push(loop_s);
            let (t, c) = (Instant::now(), cpu_seconds());
            let outcome = catch_unwind(AssertUnwindSafe(|| match &tuner {
                Some(tuner) => jobs::timed_tune(w, &cell.cfg, tuner),
                None => Some(jobs::timed_pair(w, &cell.cfg)),
            }));
            let (wall_s, cpu_s) = (t.elapsed().as_secs_f64(), cpu_seconds() - c);
            let ok = matches!(
                (&outcome, &reference.outcomes[i]),
                (Ok(Some(got)), Some(want)) if got == want
            );
            tally.record(ok);
            if ok {
                wall[i].push(wall_s);
                cpu[i].push(cpu_s);
                nominal[i].push(at_nominal(cpu_s, loop_s));
            } else {
                eprintln!(
                    "FAILED timed job: {} on {} differs from its checked outcome",
                    w.name, cell.cfg.name
                );
            }
        }
    }
    Timing {
        wall,
        cpu,
        nominal,
        loops,
    }
}

/// Resets the process's peak resident set size (`VmHWM`) to its current
/// size, so the peak read later belongs to this workload alone.
pub fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("warning: cannot reset peak RSS: {e}");
    }
}

/// Peak resident set size since the last reset, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
