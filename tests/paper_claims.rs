//! End-to-end directional checks of the paper's headline claims, at
//! test-friendly scales. These don't chase the paper's absolute numbers
//! (our substrate is a different simulator); they assert the *shape* of
//! every major result.

use mempar::{run_pair, run_pair_with, run_program, Locality, MachineConfig, PairOptions};
use mempar_bench::simulated_config;
use mempar_ir::{AffineExpr, ArrayData, ArrayRef, Dist, Index, ProgramBuilder, SimMem};
use mempar_workloads::{latbench, App, LatbenchParams};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Section 2.1/5.1: clustered misses overlap — Latbench speeds up by a
/// large factor and per-miss stall collapses while *total* per-miss
/// latency rises (contention).
#[test]
fn latbench_clustering_overlaps_misses() {
    let w = latbench(LatbenchParams {
        chains: 32,
        chain_len: 96,
        pool: 1 << 15,
        seed: 9,
    });
    let cfg = MachineConfig::base_simulated(1, w.l2_bytes);
    let pair = run_pair(&w, &cfg);
    assert!(pair.outputs_match);
    assert!(
        pair.percent_reduction() > 40.0,
        "expected large reduction, got {:.1}%",
        pair.percent_reduction()
    );
    // The test-sized pool is partially cache-resident, so the speedup is
    // below the paper's 5.34x but must still be decisive.
    let stall_speedup =
        pair.base.avg_read_miss_stall_ns() / pair.clustered.avg_read_miss_stall_ns();
    assert!(stall_speedup > 2.0, "stall speedup {stall_speedup:.2}");
    assert!(
        pair.clustered.avg_read_miss_latency_ns() > pair.base.avg_read_miss_latency_ns(),
        "total latency should grow under contention"
    );
    assert!(
        pair.clustered.bus_util.fraction() > 2.0 * pair.base.bus_util.fraction(),
        "bus utilization must rise sharply"
    );
}

/// Figure 4: clustering converts LU from ~1 outstanding read miss to
/// several, while Ocean's base already has some parallelism.
#[test]
fn fig4_lu_gains_read_parallelism() {
    let w = App::Lu.build(0.25); // 128x128 against a 32 KB L2
    let cfg = MachineConfig::base_simulated(1, 32 * 1024);
    let pair = run_pair(&w, &cfg);
    assert!(pair.outputs_match);
    let base = pair.base.occupancy.mean_read_occupancy();
    let clust = pair.clustered.occupancy.mean_read_occupancy();
    assert!(
        clust > base * 1.2,
        "LU mean read-MSHR occupancy must rise: {base:.3} -> {clust:.3}"
    );
    assert!(
        pair.clustered.occupancy.read_at_least(4) > pair.base.occupancy.read_at_least(4),
        "deep clustering (>=4 outstanding) must appear"
    );
    // On the multiprocessor Figure 4 plots, the direction holds too.
    let w = App::Lu.build(0.03);
    let mp = run_pair(&w, &MachineConfig::base_simulated(4, 32 * 1024));
    assert!(mp.outputs_match);
    let (base, clust) = (
        mp.base.occupancy.mean_read_occupancy(),
        mp.clustered.occupancy.mean_read_occupancy(),
    );
    assert!(
        clust >= base,
        "LU 4p read occupancy fell: {base:.3} -> {clust:.3}"
    );
}

#[test]
fn fig4_ocean_base_already_clustered() {
    let w = App::Ocean.build(0.05);
    let cfg = MachineConfig::base_simulated(1, 32 * 1024);
    let pair = run_pair(&w, &cfg);
    // The stencil's distinct rows give the *base* version real read
    // parallelism (>= 2 misses outstanding a nontrivial fraction of
    // time) — the reason the paper sees little Ocean improvement.
    assert!(pair.outputs_match);
    assert!(
        pair.base.occupancy.read_at_least(2) > 0.05,
        "base Ocean should already overlap: {:.3}",
        pair.base.occupancy.read_at_least(2)
    );
    // Figure 4 runs Ocean on the multiprocessor: same grid there too.
    let w = App::Ocean.build(0.03);
    let mp = run_pair(&w, &MachineConfig::base_simulated(4, 32 * 1024));
    assert!(mp.outputs_match);
}

/// Section 3.1's sparse-matrix loop: `sum[j] += val[j,i] * b[colidx[j,i]]`.
/// One row's gathers are mutually independent, so the *untransformed*
/// code already keeps several read misses in flight — which is why the
/// driver declines to transform it (`f >= lp`).
#[test]
fn base_irregular_gathers_already_overlap() {
    let (rows, nnz, cols) = (512, 16, 1 << 16);
    let mut b = ProgramBuilder::new("spmv");
    let colidx = b.array_i64("colidx", &[rows, nnz]);
    let val = b.array_f64("val", &[rows, nnz]);
    let dense = b.array_f64("b", &[cols]);
    let sum = b.array_f64("sum", &[rows]);
    let acc = b.scalar_f64("acc", 0.0);
    let j = b.var("j");
    let i = b.var("i");
    b.for_dist(j, 0, rows as i64, Dist::Block, |b| {
        let zero = b.constf(0.0);
        b.assign_scalar(acc, zero);
        b.for_const(i, 0, nnz as i64, |b| {
            let v = b.load(val, &[b.idx(j), b.idx(i)]);
            let idx = ArrayRef::new(
                colidx,
                vec![
                    Index::affine(AffineExpr::var(j)),
                    Index::affine(AffineExpr::var(i)),
                ],
            );
            let gathered = b.load_ref(ArrayRef::new(dense, vec![Index::indirect(idx)]));
            let prod = b.mul(v, gathered);
            let a0 = b.scalar(acc);
            let e = b.add(a0, prod);
            b.assign_scalar(acc, e);
        });
        let fin = b.scalar(acc);
        b.assign_array(sum, &[b.idx(j)], fin);
    });
    let prog = b.finish();
    let mut rng = StdRng::seed_from_u64(3);
    let idx_data: Vec<i64> = (0..rows * nnz)
        .map(|_| rng.gen_range(0..cols as i64))
        .collect();
    let val_data: Vec<f64> = (0..rows * nnz).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut mem = SimMem::new(&prog, 1);
    mem.set_array(colidx, ArrayData::I64(idx_data));
    mem.set_array(val, ArrayData::F64(val_data));
    mem.set_array(
        dense,
        ArrayData::F64((0..cols).map(|x| (x % 97) as f64 * 0.01).collect()),
    );
    let base = run_program(
        &prog,
        &mut mem,
        &MachineConfig::base_simulated(1, 64 * 1024),
    );
    assert!(
        base.occupancy.read_at_least(2) > 0.3,
        "base gathers already overlap: {:.3}",
        base.occupancy.read_at_least(2)
    );
}

/// Section 5.2: the uniprocessor benefit exceeds... at minimum, both
/// configurations must benefit on a memory-bound recurrence workload.
#[test]
fn erlebacher_benefits_uni_and_multi() {
    let w = App::Erlebacher.build(0.08);
    let up = run_pair(&w, &MachineConfig::base_simulated(1, 32 * 1024));
    assert!(up.outputs_match);
    assert!(
        up.percent_reduction() > 5.0,
        "uniprocessor reduction {:.1}%",
        up.percent_reduction()
    );
    let w2 = App::Erlebacher.build(0.08);
    let mp = run_pair(&w2, &MachineConfig::base_simulated(4, 32 * 1024));
    assert!(mp.outputs_match);
    assert!(
        mp.percent_reduction() > 0.0,
        "multiprocessor reduction {:.1}%",
        mp.percent_reduction()
    );
}

/// The 1 GHz variant (Section 5.2): with a wider processor-memory gap,
/// memory stall dominates more, and clustering still wins.
#[test]
fn one_ghz_variant_still_wins() {
    let w = latbench(LatbenchParams {
        chains: 16,
        chain_len: 64,
        pool: 1 << 14,
        seed: 4,
    });
    let pair = run_pair(&w, &MachineConfig::fast_1ghz(1, w.l2_bytes));
    assert!(pair.outputs_match);
    assert!(pair.percent_reduction() > 40.0);
}

/// Table 3's machine: the Exemplar-like SMP also benefits.
#[test]
fn exemplar_machine_benefits() {
    let w = App::Mst.build(0.15);
    let pair = run_pair(&w, &MachineConfig::exemplar(1));
    assert!(pair.outputs_match);
    assert!(
        pair.percent_reduction() > 5.0,
        "MST on the Exemplar-like machine: {:.1}%",
        pair.percent_reduction()
    );
}

/// Calibrating the transform driver with *measured* locality (the
/// sampled reuse-distance profile) must never degrade its choices: on
/// every Table-2 workload, the measured-mode clustered run is at least
/// as fast as the analytic-mode one (small tolerance for decision-point
/// ties), outputs still match, and the calibration artifacts carry a
/// populated predicted-vs-measured delta table.
#[test]
fn measured_locality_never_degrades_clustering() {
    for app in App::all() {
        let w = app.build(0.04);
        let cfg = MachineConfig::base_simulated(1, 32 * 1024);
        let analytic = run_pair(&w, &cfg);
        let out = run_pair_with(
            &w,
            &cfg,
            PairOptions {
                locality: Locality::Measured,
                ..PairOptions::default()
            },
        );
        let measured = out.pair;
        assert!(measured.outputs_match, "{}: outputs diverged", app.name());
        let a = out.locality.expect("measured mode returns artifacts");
        assert!(
            !a.delta.rows.is_empty(),
            "{}: empty delta table",
            app.name()
        );
        let (ac, mc) = (analytic.clustered.cycles, measured.clustered.cycles);
        assert!(
            mc as f64 <= ac as f64 * 1.02,
            "{}: measured locality degraded clustering: {ac} -> {mc} cycles",
            app.name()
        );
    }
}

/// The L2 miss *count* stays nearly unchanged (Section 5.2: "locality is
/// preserved"): clustering must not trade locality for parallelism.
#[test]
fn clustering_preserves_locality() {
    for app in [App::Erlebacher, App::Ocean, App::Mst] {
        let w = app.build(0.05);
        let cfg = MachineConfig::base_simulated(1, 32 * 1024);
        let pair = run_pair(&w, &cfg);
        assert!(pair.outputs_match, "{}: outputs diverged", app.name());
        let base = pair.base.counters.l2_misses as f64;
        let clust = pair.clustered.counters.l2_misses as f64;
        assert!(
            clust < base * 1.3,
            "{}: miss count should stay near base: {base} -> {clust}",
            app.name()
        );
    }
}

/// Figure 3(a) under both locality models: clustering must gain on
/// average over the multiprocessor applications, and every cell's
/// reduction must exceed `floor` percent. Jamming a distributed loop
/// within each processor's own block is what keeps every cell near or
/// above its base; jamming it as written once made Ocean 2.2x slower at
/// scale 0.1.
fn multiprocessor_leg(scale: f64, floor: f64) {
    for locality in [Locality::Analytic, Locality::Measured] {
        let mut cells = Vec::new();
        for app in App::all().into_iter().filter(|a| a.runs_multiprocessor()) {
            let w = app.build(scale);
            let cfg = simulated_config(&w, scale, true, false);
            let opts = PairOptions {
                locality,
                ..PairOptions::default()
            };
            let pair = run_pair_with(&w, &cfg, opts).pair;
            assert!(pair.outputs_match, "{}: outputs diverged", app.name());
            cells.push((app.name(), pair.percent_reduction()));
        }
        let avg = cells.iter().map(|c| c.1).sum::<f64>() / cells.len() as f64;
        assert!(
            avg > 0.0,
            "{locality:?} scale {scale}: mp average {avg:.1}% ({cells:?})"
        );
        for (app, r) in &cells {
            assert!(
                *r > floor,
                "{locality:?} scale {scale}: {app} is {:.1}% slower than base",
                -r
            );
        }
    }
}

#[test]
fn multiprocessor_clustering_gains_at_scale_005() {
    multiprocessor_leg(0.05, -10.0);
}

#[test]
#[ignore = "about 30 s in a debug build; CI runs it with the ignored acceptance sweeps"]
fn multiprocessor_clustering_gains_at_scale_01() {
    multiprocessor_leg(0.1, -10.0);
}

/// At scale 0.25 Erlebacher's 16 processors own 2-3 `j` planes each, so
/// the block caps `j`'s jam at 3 and the driver jams the enclosing `k`
/// sweeps instead; capped at `j`, the cell was 3.2% slower than base.
#[test]
#[ignore = "about 15 s in a release build; CI runs it with the ignored acceptance sweeps"]
fn multiprocessor_clustering_never_loses_at_scale_025() {
    multiprocessor_leg(0.25, 0.0);
}
