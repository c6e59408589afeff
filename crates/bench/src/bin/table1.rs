//! Prints Table 1 — the base simulated configuration — as encoded in
//! [`MachineConfig::base_simulated`], for comparison with the paper.

use mempar::MachineConfig;
use mempar_bench::{parse_args_unobserved, run_matrix};
use mempar_stats::{format_rows, Row};

/// Each Table 1 row as a function of the configuration, so the listing
/// flows through the same `run_matrix` path as every other harness
/// binary (and `--threads`/`--help` behave uniformly).
const ROWS: &[fn(&MachineConfig) -> Row] = &[
    |c| Row::new("Clock rate", vec![format!("{} MHz", c.proc.clock_mhz)]),
    |c| {
        Row::new(
            "Fetch rate",
            vec![format!("{} instructions/cycle", c.proc.width)],
        )
    },
    |c| {
        Row::new(
            "Instruction window",
            vec![format!("{} in-flight", c.proc.window)],
        )
    },
    |c| Row::new("Memory queue size", vec![format!("{}", c.proc.mem_queue)]),
    |c| {
        Row::new(
            "Outstanding branches",
            vec![format!("{}", c.proc.max_branches)],
        )
    },
    |c| {
        Row::new(
            "Functional units",
            vec![format!(
                "{} ALUs, {} FPUs, {} address units",
                c.proc.fu.alus, c.proc.fu.fpus, c.proc.fu.addr_units
            )],
        )
    },
    |c| {
        Row::new(
            "FU latencies",
            vec![format!(
                "{} (addr/ALU), {} (FPU), {} (imul/idiv), {} (fdiv), {} (fsqrt)",
                c.proc.fu.int_latency,
                c.proc.fu.fp_latency,
                c.proc.fu.int_mul_latency,
                c.proc.fu.fp_div_latency,
                c.proc.fu.fp_sqrt_latency
            )],
        )
    },
    |c| {
        let l1 = c.l1.as_ref().expect("base config has an L1");
        Row::new(
            "L1 D-cache",
            vec![format!(
                "{} KB, {}-way, {} ports, {} MSHRs, {}B line",
                l1.size_bytes / 1024,
                l1.assoc,
                l1.ports,
                l1.mshrs,
                l1.line_bytes
            )],
        )
    },
    |c| {
        Row::new(
            "L2 cache",
            vec![format!(
                "64 KB or 1 MB (per app), {}-way, {} port, {} MSHRs, {}B line, pipelined",
                c.l2.assoc, c.l2.ports, c.l2.mshrs, c.l2.line_bytes
            )],
        )
    },
    |c| {
        Row::new(
            "Memory banks",
            vec![format!(
                "{}-way, {:?} interleaving",
                c.mem.banks, c.mem.interleave
            )],
        )
    },
    |c| {
        Row::new(
            "Bus",
            vec![format!(
                "{}x processor cycle, {} bits, split transaction",
                c.bus.cycle_ratio,
                c.bus.width_bytes * 8
            )],
        )
    },
    |c| {
        Row::new(
            "Network",
            vec![format!(
                "2D mesh, {}x processor cycle, {} bits, flit delay {} network cycles/hop",
                c.net.cycle_ratio,
                c.net.flit_bytes * 8,
                c.net.hop_cycles
            )],
        )
    },
];

fn main() {
    let args = parse_args_unobserved();
    let c = MachineConfig::base_simulated(16, 64 * 1024);
    let l1 = c.l1.as_ref().expect("base config has an L1");
    let rows = run_matrix(args.threads, ROWS, |f| f(&c));
    println!(
        "{}",
        format_rows("Table 1: base simulated configuration", &["value"], &rows)
    );
    println!(
        "Unloaded latencies (cycles): L1 hit {}, L2 hit {}, local memory ~85,",
        l1.hit_latency, c.l2.hit_latency
    );
    println!("remote 180-260, cache-to-cache 210-310 (see sim tests for calibration).");
}
