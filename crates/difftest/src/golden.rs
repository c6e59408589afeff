//! Golden-trace regression gates.
//!
//! A golden snapshot captures, for one program + input, everything a
//! semantic change to the interpreter or simulator could perturb:
//!
//! * the order-sensitive [`TraceDigest`] of the uniprocessor dynamic-op
//!   stream (op counts by class plus an FNV hash over every op's kind,
//!   address, operands and destination);
//! * the final memory-image fingerprint after a sequential run;
//! * the final memory-image fingerprint after a parallel functional run
//!   (when the program is meaningful under SPMD execution);
//! * integer [`mempar_sim::SimResult`] summary counters (cycles,
//!   retired instructions, hierarchy miss counts) for a small simulated
//!   configuration.
//!
//! Snapshots are rendered to a canonical `key: value` text form and
//! compared byte-for-byte against files committed under
//! `tests/corpus/golden/`. Any drift fails the gate with a line diff;
//! intentional changes are re-blessed by rerunning with `MEMPAR_BLESS=1`.

use std::fmt::Write as _;
use std::path::Path;

use mempar_ir::{digest_ops, run_parallel_functional, Engine, Program, SimMem};
use mempar_sim::{run_program, run_program_with, MachineConfig, Protocol, SimOptions};

/// Environment variable that switches [`check_golden`] from compare
/// mode to (re)record mode.
pub const BLESS_ENV: &str = "MEMPAR_BLESS";

/// Renders the canonical snapshot text for `prog` with initial memory
/// produced by `fresh_mem` (called once per section so every section
/// starts from identical input data).
///
/// `par_nprocs` enables the parallel-functional section; pass `None`
/// for programs whose redundant SPMD execution is not deterministic.
/// `sim_l2_bytes` enables the simulator-summary section.
pub fn snapshot(
    name: &str,
    prog: &Program,
    fresh_mem: impl Fn(usize) -> SimMem,
    par_nprocs: Option<usize>,
    sim_l2_bytes: Option<usize>,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "name: {name}");

    // Uniprocessor dynamic-op stream digest + sequential memory image.
    let mut mem = fresh_mem(1);
    let digest = digest_ops(prog, &mut mem, 1, Engine::Interp);
    let _ = writeln!(s, "trace.ops: {}", digest.ops);
    let _ = writeln!(s, "trace.loads: {}", digest.loads);
    let _ = writeln!(s, "trace.stores: {}", digest.stores);
    let _ = writeln!(s, "trace.fp: {}", digest.fp);
    let _ = writeln!(s, "trace.int: {}", digest.int);
    let _ = writeln!(s, "trace.branches: {}", digest.branches);
    let _ = writeln!(s, "trace.sync: {}", digest.sync);
    let _ = writeln!(s, "trace.prefetches: {}", digest.prefetches);
    let _ = writeln!(s, "trace.hash: {:#018x}", digest.hash());
    let _ = writeln!(s, "seq.mem_fingerprint: {:#018x}", mem.fingerprint());

    if let Some(nprocs) = par_nprocs {
        let mut pmem = fresh_mem(nprocs);
        run_parallel_functional(prog, &mut pmem, nprocs);
        let _ = writeln!(s, "par.nprocs: {nprocs}");
        let _ = writeln!(s, "par.mem_fingerprint: {:#018x}", pmem.fingerprint());
    }

    if let Some(l2_bytes) = sim_l2_bytes {
        let cfg = MachineConfig::base_simulated(1, l2_bytes);
        let mut smem = fresh_mem(1);
        let r = run_program(prog, &mut smem, &cfg);
        let _ = writeln!(s, "sim.config: {}", r.config);
        let _ = writeln!(s, "sim.cycles: {}", r.cycles);
        let _ = writeln!(s, "sim.retired: {}", r.retired);
        let _ = writeln!(s, "sim.loads: {}", r.counters.loads);
        let _ = writeln!(s, "sim.stores: {}", r.counters.stores);
        let _ = writeln!(s, "sim.l2_misses: {}", r.counters.l2_misses);
        let _ = writeln!(s, "sim.l2_read_misses: {}", r.counters.l2_read_misses);
        let _ = writeln!(s, "sim.prefetches: {}", r.counters.prefetches);
        let _ = writeln!(s, "sim.mem_fingerprint: {:#018x}", smem.fingerprint());
    }
    s
}

/// Renders the canonical per-protocol cycle snapshot for `prog`.
///
/// Unlike [`snapshot`], which pins the protocol-independent semantics,
/// this section pins the *timing* of one coherence machine: the cycle
/// count plus every coherence-traffic counter (cache-to-cache supplies,
/// invalidations, updates, upgrades, writebacks). The functional lines
/// (retired, loads, stores, memory fingerprint) are included too — they
/// must be byte-identical across all four protocol snapshots of the
/// same program, which makes cross-protocol drift visible in a plain
/// `diff` of the committed files.
pub fn protocol_snapshot(
    name: &str,
    prog: &Program,
    fresh_mem: impl Fn(usize) -> SimMem,
    nprocs: usize,
    l2_bytes: usize,
    protocol: Protocol,
) -> String {
    let cfg = MachineConfig::base_simulated(nprocs, l2_bytes);
    let mut mem = fresh_mem(nprocs);
    let r = run_program_with(
        prog,
        &mut mem,
        &cfg,
        SimOptions {
            protocol,
            ..SimOptions::default()
        },
    );
    let mut s = String::new();
    let _ = writeln!(s, "name: {name}");
    let _ = writeln!(s, "protocol: {protocol}");
    let _ = writeln!(s, "sim.config: {}", r.config);
    let _ = writeln!(s, "sim.cycles: {}", r.cycles);
    let _ = writeln!(s, "sim.retired: {}", r.retired);
    let _ = writeln!(s, "sim.loads: {}", r.counters.loads);
    let _ = writeln!(s, "sim.stores: {}", r.counters.stores);
    let _ = writeln!(s, "sim.l2_misses: {}", r.counters.l2_misses);
    let _ = writeln!(s, "sim.l2_read_misses: {}", r.counters.l2_read_misses);
    let _ = writeln!(s, "sim.cache_to_cache: {}", r.counters.cache_to_cache);
    let _ = writeln!(s, "sim.invalidations: {}", r.counters.invalidations);
    let _ = writeln!(s, "sim.updates: {}", r.counters.updates);
    let _ = writeln!(s, "sim.upgrades: {}", r.counters.upgrades);
    let _ = writeln!(s, "sim.writebacks: {}", r.counters.writebacks);
    let _ = writeln!(s, "sim.mem_fingerprint: {:#018x}", mem.fingerprint());
    s
}

/// Compares `actual` against the committed snapshot at `path`.
///
/// With [`BLESS_ENV`] set, rewrites the file instead and succeeds. A
/// missing file or any byte difference is an error whose message shows
/// the first diverging lines and the re-bless command.
pub fn check_golden(path: &Path, actual: &str) -> Result<(), String> {
    if std::env::var_os(BLESS_ENV).is_some() {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, actual)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        return Ok(());
    }
    let expected = std::fs::read_to_string(path).map_err(|_| {
        format!(
            "missing golden snapshot {}\n(record it with {BLESS_ENV}=1 cargo test)",
            path.display()
        )
    })?;
    if expected == actual {
        return Ok(());
    }
    let mut msg = format!(
        "golden snapshot drift in {}\n(intentional? re-bless with {BLESS_ENV}=1 cargo test)\n",
        path.display()
    );
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            let _ = writeln!(msg, "  line {}: expected `{e}`, got `{a}`", i + 1);
        }
    }
    let (ne, na) = (expected.lines().count(), actual.lines().count());
    if ne != na {
        let _ = writeln!(msg, "  line count: expected {ne}, got {na}");
    }
    Err(msg)
}

/// The pinned generator seeds snapshotted under `tests/corpus/golden/`.
/// Chosen once, arbitrarily; stability of the *list* is what matters.
pub const PINNED_GEN_SEEDS: [u64; 10] = [101, 103, 107, 109, 113, 127, 131, 137, 139, 149];

/// Builds the snapshot text for one pinned generator seed.
pub fn snapshot_gen_seed(seed: u64) -> String {
    let built = crate::spec::materialize(&crate::gen::gen_spec(seed));
    let par = if built.mode.parallel_checked() {
        Some(built.nprocs)
    } else {
        None
    };
    snapshot(
        &format!("gen-{seed}"),
        &built.prog,
        |n| built.memory(n),
        par,
        Some(64 * 1024),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tiny_snapshot() -> String {
        snapshot_gen_seed(PINNED_GEN_SEEDS[0])
    }

    #[test]
    fn snapshot_is_deterministic() {
        assert_eq!(tiny_snapshot(), tiny_snapshot());
    }

    #[test]
    fn snapshot_has_all_sections() {
        let s = tiny_snapshot();
        assert!(s.contains("trace.hash: 0x"));
        assert!(s.contains("seq.mem_fingerprint: 0x"));
        assert!(s.contains("sim.cycles: "));
    }

    #[test]
    fn check_golden_reports_drift_with_line_diff() {
        let dir = std::env::temp_dir().join("mempar-golden-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path: PathBuf = dir.join("drift.golden");
        std::fs::write(&path, "a: 1\nb: 2\n").unwrap();
        let err = check_golden(&path, "a: 1\nb: 3\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains(BLESS_ENV), "{err}");
        assert!(check_golden(&path, "a: 1\nb: 2\n").is_ok());
        let missing = dir.join("no-such.golden");
        let _ = std::fs::remove_file(&missing);
        assert!(check_golden(&missing, "x\n")
            .unwrap_err()
            .contains("missing"));
    }
}
