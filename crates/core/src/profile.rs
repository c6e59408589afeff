//! Miss-rate profiling for irregular references (`P_m`, Section 3.2.2).
//!
//! The paper measures `P_m` "through cache simulation or profiling".
//! This module runs the program functionally, feeds its data references
//! through a cache with the target geometry, and reports per-array miss
//! rates, which [`MissProfile`] then supplies to the analysis.

use mempar_analysis::{ArrayLocality, MissProfile};
use mempar_ir::{ArrayId, BytecodeProgram, OpKind, Program, SimMem, Vm};
use mempar_obs::{ReuseConfig, ReuseLevel, ReuseProfiler, ReuseReport};
use mempar_sim::{CacheParams, LineState, MachineConfig, TagArray};

/// Runs `prog` functionally on one processor (on the bytecode VM) and
/// measures per-array miss rates in a cache of the given geometry. The
/// memory image is consumed (callers profile on a scratch copy).
pub fn profile_miss_rates(prog: &Program, mem: &mut SimMem, cache: &CacheParams) -> MissProfile {
    let mut tags = TagArray::new(cache);
    let shift = cache.line_bytes.trailing_zeros();
    let narrays = prog.arrays.len();
    let mut accesses = vec![0u64; narrays];
    let mut misses = vec![0u64; narrays];
    let code = BytecodeProgram::compile(prog);
    let mut vm = Vm::new(&code, 0, 1);
    while let Some(op) = vm.next_op(mem) {
        let (addr, is_write) = match op.kind {
            OpKind::Load { addr } => (addr, false),
            OpKind::Store { addr } => (addr, true),
            _ => continue,
        };
        let line = addr >> shift;
        let hit = tags.probe(line) != LineState::Invalid;
        if !hit {
            tags.fill(
                line,
                if is_write {
                    LineState::Modified
                } else {
                    LineState::Shared
                },
            );
        }
        if let Some(a) = mem.array_of_addr(addr) {
            accesses[a.index()] += 1;
            if !hit {
                misses[a.index()] += 1;
            }
        }
    }
    let mut profile = MissProfile::pessimistic();
    for i in 0..narrays {
        if accesses[i] > 0 {
            profile.set(
                ArrayId::from_raw(i as u32),
                misses[i] as f64 / accesses[i] as f64,
            );
        }
    }
    profile
}

/// The cache levels the reuse profiler derives miss probabilities for:
/// fully-associative LRU models of the configured L1 (when present) and
/// L2 capacities, innermost first. Distances are counted in L2 lines, so
/// each level's capacity is expressed in L2-line units.
pub fn reuse_levels(cfg: &MachineConfig) -> Vec<ReuseLevel> {
    let mut levels = Vec::new();
    if let Some(l1) = &cfg.l1 {
        levels.push(ReuseLevel {
            name: "l1".into(),
            lines: (l1.size_bytes / cfg.l2.line_bytes.max(1)) as u64,
        });
    }
    levels.push(ReuseLevel {
        name: "l2".into(),
        lines: (cfg.l2.size_bytes / cfg.l2.line_bytes.max(1)) as u64,
    });
    levels
}

/// The measured-locality pre-pass behind `--locality measured`: runs
/// `prog` functionally on one processor (on the bytecode VM), feeds its
/// data references through the sampled reuse-distance profiler, and
/// distills the result into a [`MissProfile`] carrying per-array
/// measured miss probabilities (`set` for irregular `P_m`,
/// `set_measured` for the regular-reference per-line model) plus the
/// full [`ReuseReport`]. The memory image is consumed (callers profile
/// on a scratch copy).
pub fn measure_locality(
    prog: &Program,
    mem: &mut SimMem,
    cfg: &MachineConfig,
    reuse_cfg: ReuseConfig,
) -> (MissProfile, ReuseReport) {
    // Distances are counted in L2 lines.
    let mut profiler = ReuseProfiler::new(
        reuse_cfg,
        cfg.l2.line_bytes.trailing_zeros(),
        reuse_levels(cfg),
        prog.arrays.len(),
    );
    let code = BytecodeProgram::compile(prog);
    let mut vm = Vm::new(&code, 0, 1);
    while let Some(op) = vm.next_op(mem) {
        if let Some(addr) = op.kind.addr() {
            profiler.observe(addr, mem.array_of_addr(addr).map(|a| a.index()));
        }
    }
    let names: Vec<String> = prog.arrays.iter().map(|a| a.name.clone()).collect();
    let report = profiler.report(&names);
    let mut profile = MissProfile::pessimistic();
    for (i, name) in names.iter().enumerate() {
        let Some(a) = report.arrays.iter().find(|a| &a.name == name) else {
            continue;
        };
        let p_ext = a.miss_prob.last().copied().unwrap_or(1.0);
        let id = ArrayId::from_raw(i as u32);
        profile.set(id, p_ext);
        profile.set_measured(
            id,
            ArrayLocality {
                access_miss_prob: p_ext,
                l_m: a.l_m,
            },
        );
    }
    (profile, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempar_ir::{ArrayData, ArrayRef, Index, ProgramBuilder};

    fn cache_64k() -> CacheParams {
        CacheParams {
            size_bytes: 64 * 1024,
            assoc: 4,
            line_bytes: 64,
            hit_latency: 10,
            ports: 1,
            mshrs: 10,
        }
    }

    #[test]
    fn streaming_misses_once_per_line() {
        let n = 4096;
        let mut b = ProgramBuilder::new("stream");
        let a = b.array_f64("a", &[n]);
        let s = b.scalar_f64("s", 0.0);
        let i = b.var("i");
        b.for_const(i, 0, n as i64, |b| {
            let v = b.load(a, &[b.idx(i)]);
            let acc = b.scalar(s);
            let e = b.add(acc, v);
            b.assign_scalar(s, e);
        });
        let p = b.finish();
        let mut mem = SimMem::new(&p, 1);
        mem.set_array(a, ArrayData::f64_fill(n, 1.0));
        let prof = profile_miss_rates(&p, &mut mem, &cache_64k());
        // One miss per 8 elements: P = 1/8.
        assert!((prof.p_for(a) - 0.125).abs() < 0.01, "{}", prof.p_for(a));
    }

    #[test]
    fn random_gather_misses_often() {
        // Gather over a 4 MB table: mostly misses.
        let table = 1 << 19;
        let mut b = ProgramBuilder::new("gather");
        let ind = b.array_i64("ind", &[4096]);
        let data = b.array_f64("data", &[table]);
        let s = b.scalar_f64("s", 0.0);
        let i = b.var("i");
        b.for_const(i, 0, 4096, |b| {
            let iv = ArrayRef::new(ind, vec![Index::affine(mempar_ir::AffineExpr::var(i))]);
            let v = b.load_ref(ArrayRef::new(data, vec![Index::indirect(iv)]));
            let acc = b.scalar(s);
            let e = b.add(acc, v);
            b.assign_scalar(s, e);
        });
        let p = b.finish();
        let mut mem = SimMem::new(&p, 1);
        // Scattered indices (stride 8191 mod table).
        mem.set_array(
            ind,
            ArrayData::I64((0..4096i64).map(|x| (x * 8191) % (table as i64)).collect()),
        );
        let prof = profile_miss_rates(&p, &mut mem, &cache_64k());
        assert!(
            prof.p_for(data) > 0.9,
            "scattered gather should miss: {}",
            prof.p_for(data)
        );
        // The index stream itself is spatial.
        assert!(prof.p_for(ind) < 0.2);
    }

    #[test]
    fn measured_locality_sees_streaming_spatial_reuse() {
        let n = 8192;
        let mut b = ProgramBuilder::new("stream");
        let a = b.array_f64("a", &[n]);
        let s = b.scalar_f64("s", 0.0);
        let i = b.var("i");
        b.for_const(i, 0, n as i64, |b| {
            let v = b.load(a, &[b.idx(i)]);
            let acc = b.scalar(s);
            let e = b.add(acc, v);
            b.assign_scalar(s, e);
        });
        let p = b.finish();
        let mut mem = SimMem::new(&p, 1);
        mem.set_array(a, ArrayData::f64_fill(n, 1.0));
        let cfg = MachineConfig::base_simulated(1, 64 * 1024);
        let (profile, report) = measure_locality(&p, &mut mem, &cfg, ReuseConfig::default());
        assert!(profile.has_measured(), "measured records must be present");
        // One cold miss per 8-element line: per-access miss prob 1/8.
        let p_a = report.miss_prob_of("a").expect("array a observed");
        assert!((p_a - 0.125).abs() < 0.03, "streaming miss prob: {p_a}");
        let loc = profile.measured_for(a).expect("a is measured");
        assert!((loc.l_m - 8.0).abs() < 1.5, "measured L_m: {}", loc.l_m);
    }

    #[test]
    fn tiny_working_set_hits() {
        let mut b = ProgramBuilder::new("hot");
        let a = b.array_f64("a", &[8]);
        let s = b.scalar_f64("s", 0.0);
        let t = b.var("t");
        let i = b.var("i");
        b.for_const(t, 0, 64, |b| {
            b.for_const(i, 0, 8, |b| {
                let v = b.load(a, &[b.idx(i)]);
                let acc = b.scalar(s);
                let e = b.add(acc, v);
                b.assign_scalar(s, e);
            });
        });
        let p = b.finish();
        let mut mem = SimMem::new(&p, 1);
        let prof = profile_miss_rates(&p, &mut mem, &cache_64k());
        assert!(prof.p_for(a) < 0.01, "hot array nearly always hits");
    }
}
