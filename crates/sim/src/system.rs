//! The whole-system driver: cores + interpreters + memory system.

use mempar_ir::{BytecodeProgram, Engine, Executor, Interp, Program, SimMem, Vm};
use mempar_obs::{MetricsRegistry, ReuseProfiler, ReuseSample, TraceEvent, TraceEventKind, Tracer};
use mempar_stats::{Breakdown, LatencyStat, MemCounters, MshrOccupancy, StallClass, Utilization};

use crate::config::MachineConfig;
use crate::core::Core;
use crate::memsys::MemSystem;
use crate::protocol::Protocol;
use crate::sync::SyncState;

/// Cycles without any retirement before the driver declares deadlock.
pub(crate) const DEADLOCK_WINDOW: u64 = 4_000_000;

/// How the driver advances the simulated clock. Both steppers produce
/// bit-identical results (the equality-cube tests assert this); they
/// differ only in how much host work each simulated cycle costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stepper {
    /// Step every core every cycle — the reference driver the equality
    /// tests compare against.
    Strict,
    /// Discrete-event stepping: each core carries its own next-event
    /// time and is only stepped in rounds where it is scheduled, so
    /// stalled or sync-blocked processors cost no per-cycle host work.
    Event,
}

impl std::fmt::Display for Stepper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Stepper::Strict => "strict",
            Stepper::Event => "event",
        })
    }
}

impl std::str::FromStr for Stepper {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "strict" => Ok(Stepper::Strict),
            "event" => Ok(Stepper::Event),
            other => Err(format!(
                "unknown stepper '{other}' (expected strict or event)"
            )),
        }
    }
}

/// Options controlling the simulation driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Clock-advance strategy (see [`Stepper`]). Results are identical
    /// across steppers (the determinism tests assert this); simulation
    /// speed improves by the per-core dead-cycle fraction. Defaults to
    /// [`Stepper::Event`].
    pub stepper: Stepper,
    /// Which functional engine feeds each core's fetch stage: the
    /// tree-walking interpreter or the bytecode register VM. Both yield
    /// bit-identical op streams (the difftest and golden-trace gates
    /// assert this); the VM is the faster default.
    pub engine: Engine,
    /// Which coherence protocol drives the memory system's global
    /// transactions (see [`Protocol`]). Functional results and dynamic-op
    /// streams are identical across protocols (the protocol cube asserts
    /// this); only cycle counts move. Defaults to the paper's full-map
    /// directory.
    pub protocol: Protocol,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            stepper: Stepper::Event,
            engine: Engine::default(),
            protocol: Protocol::Directory,
        }
    }
}

/// Results of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Configuration name the run used.
    pub config: String,
    /// Wall-clock cycles (last processor's halt).
    pub cycles: u64,
    /// Wall-clock nanoseconds under the configuration's clock.
    pub ns: f64,
    /// Per-processor execution-time breakdowns. Processors that finish
    /// early are padded with sync stall up to the wall clock, mirroring
    /// the spin-at-exit behavior of SPMD codes.
    pub breakdowns: Vec<Breakdown>,
    /// Total retired instructions.
    pub retired: u64,
    /// Aggregated memory counters.
    pub counters: MemCounters,
    /// Aggregated L2 read-miss latency (address generation → fill).
    pub read_latency: LatencyStat,
    /// Merged L2 MSHR occupancy histogram (Figure 4).
    pub occupancy: MshrOccupancy,
    /// Per-processor occupancy histograms.
    pub occupancy_per_proc: Vec<MshrOccupancy>,
    /// Bus utilization.
    pub bus_util: Utilization,
    /// Memory-bank utilization.
    pub bank_util: Utilization,
    /// MHz of the simulated clock.
    pub clock_mhz: u32,
}

impl SimResult {
    /// Mean per-processor breakdown (each padded to the wall clock), the
    /// quantity plotted in Figure 3.
    pub fn mean_breakdown(&self) -> Breakdown {
        let n = self.breakdowns.len().max(1) as f64;
        let mut sum = Breakdown::new();
        for b in &self.breakdowns {
            sum += *b;
        }
        sum.scaled(1.0 / n)
    }

    /// Average stall time charged per L2 read miss, in nanoseconds —
    /// Latbench's metric in Section 5.1.
    pub fn avg_read_miss_stall_ns(&self) -> f64 {
        let misses = self.counters.l2_read_misses.max(1) as f64;
        let stall_cycles: f64 = self.breakdowns.iter().map(|b| b.data).sum();
        stall_cycles / misses * 1000.0 / self.clock_mhz as f64
    }

    /// Average *total* L2 read-miss latency in nanoseconds (address
    /// generation to completion) — grows under contention even as stall
    /// time falls (Section 5.1's 171 ns → 316 ns observation).
    pub fn avg_read_miss_latency_ns(&self) -> f64 {
        self.read_latency.mean() * 1000.0 / self.clock_mhz as f64
    }
}

/// Runs `prog` on the machine described by `cfg`.
///
/// `mem` must have been created for the same processor count and have had
/// its arrays initialized; it is consumed functionally during the run
/// (final contents are the program's output — callers can verify them).
pub fn run_program(prog: &Program, mem: &mut SimMem, cfg: &MachineConfig) -> SimResult {
    run_program_with(prog, mem, cfg, SimOptions::default())
}

/// [`run_program`] with explicit driver options (see [`SimOptions`]).
pub fn run_program_with(
    prog: &Program,
    mem: &mut SimMem,
    cfg: &MachineConfig,
    opts: SimOptions,
) -> SimResult {
    run_inner(prog, mem, cfg, opts, Tracer::disabled(), None).0
}

/// Everything the observability layer captures from one traced run (see
/// [`run_program_observed`]).
#[derive(Debug)]
pub struct SimObservation {
    /// Trace events in time order (oldest first; ring-bounded).
    pub trace: Vec<TraceEvent>,
    /// Events discarded by the ring buffer (oldest-first overwrite).
    pub dropped: u64,
    /// End-of-run metrics from every simulated component.
    pub metrics: MetricsRegistry,
    /// `addr >> line_shift` = the line numbers trace events carry.
    pub line_shift: u32,
    /// Simulated clock, for trace-time → wall-time conversion.
    pub clock_mhz: u32,
    /// The run's wall clock in cycles (closes still-open trace spans).
    pub end_cycle: u64,
    /// The drained reuse profiler, when the run was tapped with one:
    /// build a [`mempar_obs::ReuseReport`] from it; its `sim.reuse.*`
    /// metrics are already merged into [`Self::metrics`].
    pub reuse: Option<ReuseProfiler>,
}

impl SimObservation {
    /// Sampled reuse-distance events of the tapped run (empty when no
    /// profiler was attached), exported as a Perfetto counter track.
    pub fn reuse_samples(&self) -> &[ReuseSample] {
        self.reuse.as_ref().map_or(&[], |r| r.samples())
    }
}

/// [`run_program_with`], additionally recording structured trace events
/// into `tracer` and collecting a metrics snapshot. With `reuse`, a
/// [`ReuseProfiler`] taps the dynamic op stream at the fetch stage and
/// comes back drained in [`SimObservation::reuse`]. The [`SimResult`] is
/// bit-identical to an untraced, untapped run's (the observability and
/// locality tests assert this): both only copy values the simulator
/// already computes.
pub fn run_program_observed(
    prog: &Program,
    mem: &mut SimMem,
    cfg: &MachineConfig,
    opts: SimOptions,
    tracer: Tracer,
    reuse: Option<ReuseProfiler>,
) -> (SimResult, SimObservation) {
    let (result, mut memsys, cores, reuse) = run_inner(prog, mem, cfg, opts, tracer, reuse);
    let mut metrics = MetricsRegistry::new();
    memsys.export_metrics(result.cycles.max(1), &mut metrics);
    for core in &cores {
        core.export_metrics(&mut metrics);
    }
    if let Some(rp) = &reuse {
        rp.export_metrics(&mut metrics);
    }
    let t = memsys.take_tracer();
    metrics.counter("sim.trace.events", t.len() as u64);
    metrics.counter("sim.trace.dropped", t.dropped());
    let (trace, dropped) = t.into_events();
    let obs = SimObservation {
        trace,
        dropped,
        metrics,
        line_shift: cfg.l2.line_bytes.trailing_zeros(),
        clock_mhz: cfg.proc.clock_mhz,
        end_cycle: result.cycles,
        reuse,
    };
    (result, obs)
}

/// Mutable machine state threaded through a stepper driver: everything
/// the per-round phases touch, bundled so the strict loop and the
/// event-driven scheduler (see [`crate::sched`]) share one setup and
/// teardown.
pub(crate) struct DriverState<'m, 'p> {
    pub(crate) memsys: MemSystem,
    pub(crate) cores: Vec<Core>,
    pub(crate) interps: Vec<Executor<'p>>,
    pub(crate) sync: SyncState,
    pub(crate) stall_state: Vec<Option<StallClass>>,
    pub(crate) tracing: bool,
    pub(crate) mem: &'m mut SimMem,
    /// Reuse-distance profiler tapping the fetch-order address stream
    /// (`None` in normal runs — the common path pays one branch).
    pub(crate) reuse: Option<ReuseProfiler>,
}

/// Emits stall begin/end transitions for `core` from the retire stage's
/// per-cycle attribution (`charge_idle` continues the same class across
/// skipped spans, so no event is needed there).
pub(crate) fn trace_stall_transition(
    memsys: &mut MemSystem,
    stall_state: &mut [Option<StallClass>],
    core: &Core,
    now: u64,
) {
    let p = core.id;
    let cur = core.last_stall();
    if cur != stall_state[p] {
        let t = memsys.tracer_mut();
        if let Some(prev) = stall_state[p] {
            t.record(now, p as u32, TraceEventKind::StallEnd { class: prev });
        }
        if let Some(new) = cur {
            t.record(now, p as u32, TraceEventKind::StallBegin { class: new });
        }
        stall_state[p] = cur;
    }
}

/// Fetch stage for one core. Re-checks the fetch room on every op:
/// fetching a barrier or flag-wait must stop the group immediately, or
/// later ops would be functionally evaluated before the synchronization
/// they depend on.
pub(crate) fn fetch_stage(
    core: &mut Core,
    interp: &mut Executor,
    mem: &mut SimMem,
    now: u64,
    reuse: &mut Option<ReuseProfiler>,
) {
    let mut fetched = 0;
    while fetched < core.fetch_room() {
        match interp.next_op(mem) {
            Some(op) => {
                // Reuse-distance tap: observe the dynamic address stream in
                // program (fetch) order, before `op` moves into the window.
                // Pure observation — it never touches timing state, so a
                // disabled profiler leaves the run bit-identical.
                if let Some(rp) = reuse.as_mut() {
                    if let Some(addr) = op.kind.addr() {
                        let array = mem.array_of_addr(addr).map(|a| a.index());
                        rp.observe(core.id, now, addr, array);
                    }
                }
                core.fetch(op, now);
                fetched += 1;
            }
            None => break,
        }
    }
}

/// Deadlock diagnostics shared by all steppers.
pub(crate) fn deadlock_panic<'a>(cores: impl Iterator<Item = &'a Core>, now: u64) -> ! {
    let diag: Vec<String> = cores
        .map(|c| {
            format!(
                "p{}: halted={} window={} head_age={} head: {}",
                c.id,
                c.halted,
                c.window_occupancy(),
                c.head_age(now),
                c.head_desc(now)
            )
        })
        .collect();
    panic!("simulation deadlock at cycle {now}: {}", diag.join("; "));
}

fn run_inner(
    prog: &Program,
    mem: &mut SimMem,
    cfg: &MachineConfig,
    opts: SimOptions,
    tracer: Tracer,
    reuse: Option<ReuseProfiler>,
) -> (SimResult, MemSystem, Vec<Core>, Option<ReuseProfiler>) {
    cfg.validate();
    assert_eq!(
        mem.nprocs(),
        cfg.nprocs,
        "SimMem laid out for a different processor count"
    );
    let nprocs = cfg.nprocs;
    let home = mem.home_map();
    let mut memsys = MemSystem::with_protocol(
        cfg,
        Box::new(move |line_addr| home.home_node(line_addr)),
        opts.protocol,
    );
    memsys.set_tracer(tracer);
    let tracing = memsys.trace_enabled();
    let stall_state: Vec<Option<StallClass>> = vec![None; nprocs];
    let l1_ports = cfg.l1.as_ref().map(|l| l.ports).unwrap_or(cfg.l2.ports);
    let cores: Vec<Core> = (0..nprocs)
        .map(|p| Core::new(p, &cfg.proc, l1_ports))
        .collect();
    // One functional executor per core; the bytecode program is compiled
    // once and shared by every core's VM.
    let bytecode = match opts.engine {
        Engine::Bytecode => Some(BytecodeProgram::compile(prog)),
        Engine::Interp => None,
    };
    let interps: Vec<Executor> = (0..nprocs)
        .map(|p| match &bytecode {
            Some(code) => Executor::Vm(Vm::new(code, p, nprocs)),
            None => Executor::Interp(Interp::new(prog, p, nprocs)),
        })
        .collect();
    let sync = SyncState::new(nprocs);

    let mut st = DriverState {
        memsys,
        cores,
        interps,
        sync,
        stall_state,
        tracing,
        mem,
        reuse,
    };
    match opts.stepper {
        Stepper::Strict => cycle_loop(&mut st),
        Stepper::Event => crate::sched::event_loop(&mut st),
    }
    let DriverState {
        mut memsys,
        cores,
        reuse,
        ..
    } = st;

    let wall = cores.iter().map(|c| c.halt_cycle).max().unwrap_or(0);
    // The drivers executed (directly or via accounted skips) every cycle
    // through `wall`; book the occupancy tail at the final state.
    memsys.close_occupancy(wall + 1);
    let breakdowns: Vec<Breakdown> = cores
        .iter()
        .map(|c| {
            let mut b = c.breakdown;
            let pad = (wall - c.halt_cycle) as f64;
            b.sync += pad;
            b
        })
        .collect();
    let occupancy_per_proc: Vec<MshrOccupancy> =
        (0..nprocs).map(|p| memsys.occupancy(p).clone()).collect();
    let result = SimResult {
        config: cfg.name.clone(),
        cycles: wall,
        ns: cfg.cycles_to_ns(wall as f64),
        breakdowns,
        retired: cores.iter().map(|c| c.retired).sum(),
        counters: memsys.total_counters(),
        read_latency: memsys.total_read_latency(),
        occupancy: memsys.total_occupancy(),
        occupancy_per_proc,
        bus_util: memsys.bus_utilization(wall.max(1)),
        bank_util: memsys.bank_utilization(wall.max(1)),
        clock_mhz: cfg.proc.clock_mhz,
    };
    (result, memsys, cores, reuse)
}

/// The per-cycle driver behind [`Stepper::Strict`]: every core runs
/// retire → issue → fetch every cycle.
fn cycle_loop(st: &mut DriverState) {
    let mut now: u64 = 0;
    let mut last_retired: u64 = 0;
    let mut last_progress_cycle: u64 = 0;
    loop {
        st.memsys.tick(now);
        let mut all_halted = true;
        for core in st.cores.iter_mut() {
            if core.retire(&mut st.sync, now) {
                all_halted = false;
            }
        }
        if st.tracing {
            for core in st.cores.iter() {
                trace_stall_transition(&mut st.memsys, &mut st.stall_state, core, now);
            }
        }
        if all_halted {
            break;
        }
        for core in st.cores.iter_mut() {
            if !core.halted {
                core.issue(&mut st.memsys, now);
            }
        }
        for (core, interp) in st.cores.iter_mut().zip(st.interps.iter_mut()) {
            if core.halted {
                continue;
            }
            fetch_stage(core, interp, st.mem, now, &mut st.reuse);
        }
        // Deadlock diagnostics.
        let retired: u64 = st.cores.iter().map(|c| c.retired).sum();
        if retired != last_retired {
            last_retired = retired;
            last_progress_cycle = now;
        } else if now - last_progress_cycle > DEADLOCK_WINDOW {
            deadlock_panic(st.cores.iter(), now);
        }
        now += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempar_ir::{AffineExpr, ArrayData, Dist, Index, ProgramBuilder};

    /// Sequential sweep over a large array: every line missed once.
    fn streaming_program(n: usize) -> (Program, mempar_ir::ArrayId) {
        let mut b = ProgramBuilder::new("stream");
        let a = b.array_f64("a", &[n]);
        let s = b.scalar_f64("sum", 0.0);
        let i = b.var("i");
        b.for_const(i, 0, n as i64, |b| {
            let v = b.load(a, &[b.idx(i)]);
            let acc = b.scalar(s);
            let e = b.add(acc, v);
            b.assign_scalar(s, e);
        });
        (b.finish(), a)
    }

    #[test]
    fn uniprocessor_run_completes_and_accounts() {
        let (p, a) = streaming_program(4096);
        let cfg = MachineConfig::base_simulated(1, 64 * 1024);
        let mut mem = SimMem::new(&p, 1);
        mem.set_array(a, ArrayData::f64_fill(4096, 1.0));
        let r = run_program(&p, &mut mem, &cfg);
        assert!(r.cycles > 4096, "must take real time");
        // 4096 doubles = 512 lines; cold cache: 512 L2 read misses.
        assert_eq!(r.counters.l2_read_misses, 512);
        // Breakdown components sum to wall time (1 processor).
        let b = r.mean_breakdown();
        assert!(
            (b.total() - r.cycles as f64).abs() < 2.0,
            "b={b:?} wall={}",
            r.cycles
        );
        assert!(b.data > 0.0, "streaming misses must show as data stall");
    }

    #[test]
    fn multiprocessor_partitions_work() {
        let n = 8192;
        let mut b = ProgramBuilder::new("par-stream");
        let a = b.array_f64("a", &[n]);
        let c = b.array_f64("c", &[n]);
        let i = b.var("i");
        b.for_dist(i, 0, n as i64, Dist::Block, |b| {
            let v = b.load(a, &[b.idx(i)]);
            let two = b.constf(2.0);
            let m = b.mul(v, two);
            b.assign_array(c, &[Index::affine(AffineExpr::var(i))], m);
        });
        b.barrier();
        let p = b.finish();

        let cfg1 = MachineConfig::base_simulated(1, 64 * 1024);
        let mut mem1 = SimMem::new(&p, 1);
        mem1.set_array(a, ArrayData::f64_fill(n, 1.5));
        let r1 = run_program(&p, &mut mem1, &cfg1);

        let cfg4 = MachineConfig::base_simulated(4, 64 * 1024);
        let mut mem4 = SimMem::new(&p, 4);
        mem4.set_array(a, ArrayData::f64_fill(n, 1.5));
        let r4 = run_program(&p, &mut mem4, &cfg4);

        // Results identical, speedup real.
        assert_eq!(mem1.read_f64(c), mem4.read_f64(c));
        assert!(
            (r4.cycles as f64) < 0.5 * r1.cycles as f64,
            "4 procs should be at least 2x faster: {} vs {}",
            r4.cycles,
            r1.cycles
        );
    }

    #[test]
    fn barrier_sync_time_counted() {
        // Imbalanced work then a barrier: fast procs accrue sync stall.
        let n = 4096;
        let mut b = ProgramBuilder::new("imbalanced");
        let a = b.array_f64("a", &[n]);
        let s = b.scalar_f64("sum", 0.0);
        let i = b.var("i");
        let j = b.var("j");
        // Cyclic distribution of a triangular loop: proc 0 gets iterations
        // 0..n/2 with tiny bodies... simpler: proc 0 does nothing extra.
        b.for_dist(j, 0, 2, Dist::Block, |b| {
            b.for_affine(
                i,
                AffineExpr::konst(0),
                AffineExpr::scaled_var(j, (n / 2) as i64, 0),
                |b| {
                    let v = b.load(a, &[b.idx(i)]);
                    let acc = b.scalar(s);
                    let e = b.add(acc, v);
                    b.assign_scalar(s, e);
                },
            );
        });
        b.barrier();
        let p = b.finish();
        let cfg = MachineConfig::base_simulated(2, 64 * 1024);
        let mut mem = SimMem::new(&p, 2);
        mem.set_array(a, ArrayData::f64_fill(n, 1.0));
        let r = run_program(&p, &mut mem, &cfg);
        // Processor 0 ran the empty half: nearly all its time is sync.
        assert!(
            r.breakdowns[0].sync > 0.5 * r.cycles as f64,
            "idle proc should be sync-bound: {:?}",
            r.breakdowns[0]
        );
    }

    #[test]
    fn flags_order_producer_consumer() {
        // Proc 0 writes then sets a flag; proc 1 waits then reads.
        let mut b = ProgramBuilder::new("flag-sync");
        let a = b.array_f64("a", &[8]);
        let out = b.array_f64("out", &[8]);
        let p_v = b.var("p");
        let i = b.var("i");
        b.flags(1);
        b.for_dist(p_v, 0, 2, Dist::Block, |b| {
            let cond0 = mempar_ir::Cond::lt(AffineExpr::var(p_v), AffineExpr::konst(1));
            b.if_then_else(
                cond0,
                |b| {
                    b.for_const(i, 0, 8, |b| {
                        let c = b.constf(7.0);
                        b.assign_array(a, &[Index::affine(AffineExpr::var(i))], c);
                    });
                    b.flag_set(AffineExpr::konst(0));
                },
                |b| {
                    b.flag_wait(AffineExpr::konst(0));
                    b.for_const(i, 0, 8, |b| {
                        let v = b.load(a, &[b.idx(i)]);
                        b.assign_array(out, &[Index::affine(AffineExpr::var(i))], v);
                    });
                },
            );
        });
        let p = b.finish();
        let cfg = MachineConfig::base_simulated(2, 64 * 1024);
        let mut mem = SimMem::new(&p, 2);
        let r = run_program(&p, &mut mem, &cfg);
        assert!(r.cycles > 0);
        assert!(
            r.breakdowns[1].sync > 0.0,
            "consumer waits on the flag: {:?}",
            r.breakdowns[1]
        );
        // Acquire semantics in the timed run: the consumer's reads (which
        // are functionally evaluated at fetch) must see the producer's
        // writes — the fetch stage may not run ahead of the flag wait.
        assert!(
            mem.read_f64(out).iter().all(|&v| v == 7.0),
            "consumer read stale values: {:?}",
            mem.read_f64(out)
        );
    }

    /// Same property across a barrier, with the producer's writes delayed
    /// behind cold misses: no processor's fetch may slip past a barrier.
    #[test]
    fn barrier_orders_values_in_timed_run() {
        let n = 512usize;
        let mut b = ProgramBuilder::new("barrier-values");
        let a = b.array_f64("a", &[n]);
        let out = b.array_f64("out", &[n]);
        let i = b.var("i");
        let i2 = b.var("i2");
        // Phase 1: everyone fills its block of `a` (cold misses).
        b.for_dist(i, 0, n as i64, Dist::Block, |b| {
            let c = b.constf(3.5);
            b.assign_array(a, &[Index::affine(AffineExpr::var(i))], c);
        });
        b.barrier();
        // Phase 2: everyone reads the *other end* of `a` (cyclic), so the
        // values cross processors.
        b.for_dist(i2, 0, n as i64, Dist::Cyclic, |b| {
            let v = b.load(a, &[b.idx(i2)]);
            b.assign_array(out, &[Index::affine(AffineExpr::var(i2))], v);
        });
        let p = b.finish();
        let cfg = MachineConfig::base_simulated(4, 64 * 1024);
        let mut mem = SimMem::new(&p, 4);
        run_program(&p, &mut mem, &cfg);
        assert!(
            mem.read_f64(out).iter().all(|&v| v == 3.5),
            "a fetch slipped past the barrier"
        );
    }

    #[test]
    fn exemplar_config_runs() {
        let (p, a) = streaming_program(2048);
        let cfg = MachineConfig::exemplar(1);
        let mut mem = SimMem::new(&p, 1);
        mem.set_array(a, ArrayData::f64_fill(2048, 1.0));
        let r = run_program(&p, &mut mem, &cfg);
        // 2048 doubles at 32B lines = 512 misses.
        assert_eq!(r.counters.l2_read_misses, 512);
        assert!(r.ns > 0.0);
    }

    #[test]
    fn occupancy_histogram_collected() {
        let (p, a) = streaming_program(4096);
        let cfg = MachineConfig::base_simulated(1, 64 * 1024);
        let mut mem = SimMem::new(&p, 1);
        mem.set_array(a, ArrayData::f64_fill(4096, 1.0));
        let r = run_program(&p, &mut mem, &cfg);
        assert!(r.occupancy.cycles() > 0);
        assert!(r.occupancy.read_at_least(1) > 0.0);
    }
}
