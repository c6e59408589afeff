//! The traced run: one set-up round and one pass with a span around every
//! public call, then probes that time the calls a pass makes only inside
//! a layer (the front end's drain, the tuner's enumeration, oracle and
//! scoring simulation) on the base program.
//!
//! Nothing inside the pipeline changes: every span is opened here, around
//! a public function.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};

use mempar::{analyze_inner_loop, locality_profile, machine_summary, Locality, RunPair};
use mempar_ir::{run_parallel_functional_with, run_single_with, BytecodeProgram, Program, Vm};
use mempar_sim::{run_program_with, SimOptions};
use mempar_stats::{Breakdown, MemCounters, Utilization};
use mempar_transform::{innermost_loops, loop_at};
use mempar_tune::{apply_composition, build_space, SpaceOptions, TuneReport};

use crate::cells::{home_policy, Cell};
use crate::jobs::{self, new_tuner, Outcome};
use crate::report::PER_LAYER;
use crate::run::{build_all, Reference, Setup, Tally};
use crate::spans::{self_times, total_duration, Ctx, Span, Split, Tracer, JOB};
use crate::stats::geomean;

/// Largest share of the traced pass's wall time by which the layer self
/// times plus the unattributed remainder may miss it.
pub const MAX_RESIDUAL: f64 = 0.01;

/// Everything the traced run measured.
#[derive(Debug)]
pub struct TracedRun {
    /// Every span: set-up, pass, then probes.
    pub spans: Vec<Span>,
    pub split: Split,
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Per-application lines of the tuner's memo traffic.
    pub tune_lines: Vec<String>,
}

/// What the traced pass and the probes produced, before it becomes
/// metrics.
#[derive(Debug, Default)]
struct Measured {
    setup: Vec<Span>,
    pass: Vec<Span>,
    probes: Vec<Span>,
    pass_interval: (u64, u64),
    pairs: Vec<RunPair>,
    tunes: Vec<TuneReport>,
    ir_ops: u64,
    apply_ok: u64,
    apply_illegal: u64,
}

/// Runs the traced set-up round, pass and probes. Each traced job must
/// reproduce the checked outcome; a job that does not counts as failed.
pub fn traced_run(
    setup: &Setup,
    reference: &Reference,
    untraced_wall_s: f64,
    tally: &mut Tally,
) -> TracedRun {
    let tracer = Tracer::new();
    let mut m = Measured::default();

    build_all(setup.bench, setup.seed, tracer.job());
    m.setup = tracer.take();

    let tuner = setup.bench.is_tune().then(new_tuner);
    let mut clustered = Vec::new();
    let pass_start = tracer.now_ns();
    for (i, cell) in setup.cells.iter().enumerate() {
        let w = setup.workload(cell);
        let job = tracer.job();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            job.span(JOB, |ctx| match &tuner {
                Some(tuner) => {
                    let (_, report) = jobs::tune_parts(ctx, w, &cell.cfg, tuner);
                    let outcome = report
                        .oracle_failures
                        .is_empty()
                        .then(|| Outcome::of_tune(&report));
                    m.tunes.push(report);
                    outcome
                }
                None => {
                    let parts = jobs::pair_parts(ctx, w, &cell.cfg);
                    let outcome = Outcome::of_pair(&parts.pair);
                    clustered.push((cell, parts.clustered_program));
                    m.pairs.push(parts.pair);
                    Some(outcome)
                }
            })
        }));
        let ok = matches!(&outcome, Ok(Some(got)) if Some(got) == reference.outcomes[i].as_ref());
        tally.record(ok);
        if !ok {
            eprintln!(
                "FAILED traced job: {} on {} differs from the untraced outcome",
                w.name, cell.cfg.name
            );
        }
    }
    m.pass_interval = (pass_start, tracer.now_ns());
    m.pass = tracer.take();

    for (cell, prog) in &clustered {
        let w = setup.workload(cell);
        m.ir_ops += ir_probe(tracer.job(), w, &w.program, cell);
        m.ir_ops += ir_probe(tracer.job(), w, prog, cell);
    }
    if setup.bench.is_tune() {
        for cell in &setup.cells {
            let (ok, illegal) = search_probe(tracer.job(), setup, cell);
            m.apply_ok += ok;
            m.apply_illegal += illegal;
            candidate_probe(tracer.job(), setup, cell);
        }
    }
    m.probes = tracer.take();

    let split = Split::of(&m.pass, m.pass_interval);
    let per_layer = per_layer(&m, &split, untraced_wall_s, setup.bench.is_tune());
    let tune_lines = memo_lines(setup.bench.name(), &m.tunes);
    let mut spans = m.setup;
    spans.extend(m.pass);
    spans.extend(m.probes);
    TracedRun {
        spans,
        split,
        per_layer,
        tune_lines,
    }
}

/// The front end alone: compiles `prog` to bytecode and drains every
/// processor's op stream with no timing model. Returns the ops drained.
fn ir_probe(job: Ctx, w: &mempar_workloads::Workload, prog: &Program, cell: &Cell) -> u64 {
    let n = cell.cfg.nprocs;
    let code = job.span("ir.compile", |_| BytecodeProgram::compile(prog));
    let mut mem = w.memory_with_policy(n, home_policy(&cell.cfg));
    job.span("ir.drain", |_| {
        let mut ops = 0u64;
        for pid in 0..n {
            let mut vm = Vm::new(&code, pid, n);
            while let Some(op) = vm.next_op(&mut mem) {
                black_box(&op);
                ops += 1;
            }
        }
        ops
    })
}

/// The tuner's enumeration stage, replayed on the base program's
/// innermost nests: build each nest's space, apply every composition to a
/// clone, and predict each legal one. Returns (applied, illegal).
fn search_probe(job: Ctx, setup: &Setup, cell: &Cell) -> (u64, u64) {
    let w = setup.workload(cell);
    let m = machine_summary(&cell.cfg);
    let (profile, _) = locality_profile(w, &cell.cfg, Locality::Analytic);
    let (mut ok, mut illegal) = (0, 0);
    for path in innermost_loops(&w.program) {
        let space = job.span("transform.space", |_| {
            build_space(&w.program, &path, &SpaceOptions::default())
        });
        for comp in space.enumerate() {
            if comp.is_identity() {
                continue;
            }
            let applied = job.span("transform.apply", |_| {
                let mut cand = w.program.clone();
                apply_composition(&mut cand, &path, &comp, m.line_bytes).map(|inner| (cand, inner))
            });
            match applied {
                Ok((cand, inner)) => {
                    ok += 1;
                    if let Some(l) = loop_at(&cand, &inner) {
                        job.span("analysis.predict", |_| {
                            black_box(analyze_inner_loop(&cand, &l.body, l.var, &m, &profile))
                        });
                    }
                }
                Err(_) => illegal += 1,
            }
        }
    }
    (ok, illegal)
}

/// What scoring one candidate costs, measured on the base program: the
/// tuner's functional oracle (sequential, plus the parallel interleaving
/// on a multiprocessor) and one scoring simulation.
fn candidate_probe(job: Ctx, setup: &Setup, cell: &Cell) {
    let w = setup.workload(cell);
    let cfg = &cell.cfg;
    let policy = home_policy(cfg);
    let engine = SimOptions::default().engine;
    job.span("tune.oracle", |_| {
        let mut seq = w.memory_with_policy(1, policy);
        run_single_with(&w.program, &mut seq, engine);
        if cfg.nprocs > 1 {
            let mut par = w.memory_with_policy(cfg.nprocs, policy);
            run_parallel_functional_with(&w.program, &mut par, cfg.nprocs, engine);
        }
    });
    job.span("tune.sim", |_| {
        let mut mem = w.memory_with_policy(cfg.nprocs, policy);
        black_box(run_program_with(&w.program, &mut mem, cfg, SimOptions::default()).cycles)
    });
}

/// The per-layer metrics, each defined in the README. Layers a workload
/// does not reach stay 0.
fn per_layer(
    m: &Measured,
    split: &Split,
    untraced_wall_s: f64,
    tune: bool,
) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
    let secs = |ns: u64| ns as f64 * 1e-9;
    let setup = self_times(&m.setup);
    let probes = self_times(&m.probes);
    let layer = |name: &str| secs(split.layers.get(name).copied().unwrap_or(0));
    let probe = |name: &str| secs(probes.get(name).copied().unwrap_or(0));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let mut set = |name: &'static str, v: f64| {
        *out.get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric")) = v;
    };
    set(
        "workloads.build_s",
        secs(setup.get("workloads.build").copied().unwrap_or(0)),
    );
    set("workloads.memory_s", layer("workloads.memory"));
    set("workloads.outputs_s", layer("workloads.outputs"));
    set("ir.compile_s", probe("ir.compile"));
    set("ir.drain_s", probe("ir.drain"));
    set("ir.ops", m.ir_ops as f64);
    set(
        "ir.ns_per_op",
        ratio(probe("ir.drain") * 1e9, m.ir_ops as f64),
    );
    set("core.profile_s", layer("core.profile"));
    set("transform.cluster_s", layer("transform.cluster"));
    let unrolled = m
        .pairs
        .iter()
        .flat_map(|p| &p.report.decisions)
        .filter(|d| d.uaj_degree > 1)
        .count();
    set("transform.unrolled_nests", unrolled as f64);
    set("transform.space_s", probe("transform.space"));
    set("transform.apply_s", probe("transform.apply"));
    set("transform.apply_ok", m.apply_ok as f64);
    set("transform.apply_illegal", m.apply_illegal as f64);
    set("analysis.predict_s", probe("analysis.predict"));

    // Simulated statistics of every base and clustered run, pooled.
    let mut counters = MemCounters::default();
    let (mut bus, mut bank) = (Utilization::default(), Utilization::default());
    let mut breakdown = Breakdown::new();
    let (mut retired, mut cycles, mut misses, mut miss_ns) = (0, 0, 0, 0.0);
    for r in m.pairs.iter().flat_map(|p| [&p.base, &p.clustered]) {
        counters.merge(&r.counters);
        bus.record(r.bus_util.busy, r.bus_util.total);
        bank.record(r.bank_util.busy, r.bank_util.total);
        breakdown += r.mean_breakdown();
        retired += r.retired;
        cycles += r.cycles;
        misses += r.read_latency.count;
        miss_ns += r.read_latency.sum * 1000.0 / r.clock_mhz as f64;
    }
    let sim_ns = total_duration(&m.pass, "sim.run") as f64;
    set("sim.run_s", layer("sim.run"));
    set("sim.ns_per_instr", ratio(sim_ns, retired as f64));
    set("sim.ns_per_cycle", ratio(sim_ns, cycles as f64));
    set("sim.invalidations", counters.invalidations as f64);
    set("sim.remote_misses", counters.remote_misses as f64);
    set("sim.cache_to_cache", counters.cache_to_cache as f64);
    set("sim.upgrades", counters.upgrades as f64);
    set("sim.bus_util", bus.fraction());
    set("sim.bank_util", bank.fraction());
    set("sim.l1_misses", counters.l1_misses as f64);
    set("sim.l2_read_misses", counters.l2_read_misses as f64);
    set("sim.coalesced", counters.coalesced as f64);
    set("sim.writebacks", counters.writebacks as f64);
    set("sim.read_miss_latency_ns", ratio(miss_ns, misses as f64));
    let mean_occupancy =
        |f: &dyn Fn(&RunPair) -> f64| ratio(m.pairs.iter().map(f).sum(), m.pairs.len() as f64);
    set(
        "sim.mshr_read_occupancy_base",
        mean_occupancy(&|p| p.base.occupancy.mean_read_occupancy()),
    );
    set(
        "sim.mshr_read_occupancy_clustered",
        mean_occupancy(&|p| p.clustered.occupancy.mean_read_occupancy()),
    );
    let total = breakdown.total();
    set("sim.busy_frac", ratio(breakdown.busy, total));
    set("sim.data_stall_frac", ratio(breakdown.data, total));
    set("sim.sync_frac", ratio(breakdown.sync, total));

    if tune {
        let stats = |f: &dyn Fn(&TuneReport) -> u64| m.tunes.iter().map(f).sum::<u64>() as f64;
        let (hits, misses) = memo_deltas(&m.tunes)
            .iter()
            .fold((0, 0), |(h, s), &(dh, ds)| (h + dh, s + ds));
        set("tune.profile_s", layer("tune.profile"));
        set(
            "tune.search_s",
            secs(total_duration(&m.pass, "tune.search")),
        );
        set("tune.score_cover_s", layer("tune.score"));
        set("tune.search_other_s", layer("tune.search"));
        set("tune.enumerated", stats(&|r| r.stats.enumerated));
        set("tune.scored", stats(&|r| r.stats.scored));
        set("tune.pruned_illegal", stats(&|r| r.stats.pruned_illegal));
        set(
            "tune.pruned_predicted",
            stats(&|r| r.stats.pruned_predicted),
        );
        set("tune.memo_hits", hits as f64);
        set("tune.memo_misses", misses as f64);
        set(
            "tune.memo_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        );
        let cells = m.tunes.len() as f64;
        set(
            "tune.oracle_s_per_cand",
            ratio(secs(total_duration(&m.probes, "tune.oracle")), cells),
        );
        set(
            "tune.sim_s_per_cand",
            ratio(secs(total_duration(&m.probes, "tune.sim")), cells),
        );
        let vs_default: Vec<f64> = m.tunes.iter().map(TuneReport::tuned_vs_default).collect();
        set("tune.tuned_vs_default", geomean(&vs_default));
    }
    set("unattributed_s", secs(split.unattributed_ns));
    set(
        "trace_overhead",
        ratio(secs(split.wall_ns), untraced_wall_s),
    );
    out
}

/// Memo hits and misses of each report on its own. A report copies the
/// running totals of the tuner's shared memo, so a pass's later reports
/// include every earlier one's traffic; the per-application figure is
/// the difference from the previous report.
fn memo_deltas(reports: &[TuneReport]) -> Vec<(u64, u64)> {
    let mut prev = (0, 0);
    reports
        .iter()
        .map(|r| {
            let now = (r.stats.memo_hits, r.stats.memo_misses);
            let delta = (now.0 - prev.0, now.1 - prev.1);
            prev = now;
            delta
        })
        .collect()
}

fn memo_lines(workload: &str, reports: &[TuneReport]) -> Vec<String> {
    reports
        .iter()
        .zip(memo_deltas(reports))
        .map(|(r, (hits, misses))| {
            format!(
                "{workload} {} on {}: {hits} memo hits, {misses} memo misses, {} scored, tuned/default x{:.3}",
                r.name,
                r.config,
                r.stats.scored,
                r.tuned_vs_default()
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::collect;
    use crate::stats::Summary;
    use mempar_tune::SearchStats;

    fn report(hits: u64, misses: u64) -> TuneReport {
        TuneReport {
            name: "w".into(),
            config: "c".into(),
            opts: String::new(),
            base_cycles: 100,
            default_cycles: 90,
            tuned_cycles: 60,
            winner: "search".into(),
            nests: Vec::new(),
            stats: SearchStats {
                memo_hits: hits,
                memo_misses: misses,
                ..SearchStats::default()
            },
            candidates: Vec::new(),
            oracle_failures: Vec::new(),
        }
    }

    #[test]
    fn memo_traffic_is_reported_per_application() {
        let reports = [report(0, 5), report(2, 9), report(2, 12)];
        assert_eq!(memo_deltas(&reports), vec![(0, 5), (2, 4), (0, 3)]);
        let m = Measured {
            tunes: reports.to_vec(),
            ..Measured::default()
        };
        let split = Split::of(&[], (0, 1_000_000_000));
        let out = per_layer(&m, &split, 2.0, true);
        assert_eq!(out["tune.memo_hits"], 2.0);
        assert_eq!(out["tune.memo_misses"], 12.0);
        assert!((out["tune.tuned_vs_default"] - 1.5).abs() < 1e-12);
        assert_eq!(out["trace_overhead"], 0.5);
        assert_eq!(out["unattributed_s"], 1.0);
    }

    #[test]
    fn every_workload_kind_emits_every_declared_metric() {
        for tune in [false, true] {
            let out = per_layer(&Measured::default(), &Split::of(&[], (0, 1)), 1.0, tune);
            let values = out
                .into_iter()
                .map(|(k, v)| (k, Summary::exact(v)))
                .collect();
            let metrics =
                collect(PER_LAYER, values).expect("per-layer metrics match the catalogue");
            assert_eq!(metrics.len(), PER_LAYER.len());
        }
    }
}
