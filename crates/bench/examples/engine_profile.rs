//! Quick engine-throughput probe: ops/sec for the tree-walking
//! interpreter vs the bytecode VM on each workload. Used to guide VM
//! optimization; the recorded numbers live in `BENCH_sim.json`.

use std::time::Instant;

use mempar_ir::{BytecodeProgram, DynOp, Interp, OpKind, SrcList, Vm};
use mempar_workloads::App;

/// Minimal op pump: measures the per-call floor of the `next_op`
/// protocol itself (call + 40-byte `Option<DynOp>` move + drain loop).
struct Pump {
    n: u64,
}

impl Pump {
    #[inline(never)]
    fn next(&mut self) -> Option<DynOp> {
        if self.n == 0 {
            return None;
        }
        self.n -= 1;
        let mut srcs = SrcList::new();
        srcs.push((self.n as u32) | 1);
        Some(DynOp {
            kind: OpKind::Load { addr: self.n * 8 },
            srcs,
            dst: Some(self.n as u32),
        })
    }
}

fn main() {
    {
        let reps = 20_000_000u64;
        let t = Instant::now();
        let mut pump = Pump { n: reps };
        let mut loads = 0u64;
        while let Some(op) = pump.next() {
            if matches!(op.kind, OpKind::Load { .. }) {
                loads += 1;
            }
        }
        assert_eq!(loads, reps);
        println!(
            "protocol floor: {:.2} ns/op",
            t.elapsed().as_secs_f64() * 1e9 / reps as f64
        );
    }
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.03);
    println!(
        "{:<12} {:>12} {:>10} {:>10} {:>8}",
        "app", "ops", "tw ns/op", "vm ns/op", "speedup"
    );
    for app in App::all() {
        let w = app.build(scale);
        let code = BytecodeProgram::compile(&w.program);
        // Warm + count.
        let mut ops = 0u64;
        {
            let mut mem = w.memory(1);
            let mut vm = Vm::new(&code, 0, 1);
            while vm.next_op(&mut mem).is_some() {
                ops += 1;
            }
        }
        let reps = (2_000_000 / ops.max(1)).clamp(1, 50) as u32;
        let tw = {
            let t = Instant::now();
            for _ in 0..reps {
                let mut mem = w.memory(1);
                let mut it = Interp::new(&w.program, 0, 1);
                while it.next_op(&mut mem).is_some() {}
            }
            t.elapsed().as_secs_f64() / reps as f64
        };
        let vm = {
            let t = Instant::now();
            for _ in 0..reps {
                let mut mem = w.memory(1);
                let mut vm = Vm::new(&code, 0, 1);
                while vm.next_op(&mut mem).is_some() {}
            }
            t.elapsed().as_secs_f64() / reps as f64
        };
        println!(
            "{:<12} {:>12} {:>10.2} {:>10.2} {:>7.2}x",
            app.name(),
            ops,
            tw * 1e9 / ops as f64,
            vm * 1e9 / ops as f64,
            tw / vm
        );
    }
}
