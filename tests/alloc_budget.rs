//! Steady-state allocation budget for the simulation hot path.
//!
//! The event-driven multiprocessor fast path is designed to be
//! allocation-free in steady state: every per-access structure
//! (coherence transactions, MSHR slots, wake lists, completion bags,
//! interconnect routes) draws from buffers sized during setup and reused
//! for the whole run. This test pins that property with a counting
//! global allocator and the *two-scale delta* method: run the same
//! workload at two problem scales and compare allocation counts. Setup
//! cost (machine construction, program build, result assembly) is the
//! same for both runs, so any allocation that happens per simulated
//! access shows up as a delta that grows with the scale — a workload
//! ~2x the size making tens of thousands of extra allocations means
//! someone put an allocation back on the per-access path.
//!
//! The budget is deliberately loose (the measured delta is ~300, from
//! buffers crossing their high-water marks later in the bigger run) so
//! the test only fires on structural regressions, not on a buffer
//! gaining a few growth doublings.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mempar_sim::{run_program_with, MachineConfig, SimOptions, Stepper};
use mempar_workloads::App;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(p, l, n)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Runs fft-mp under the event stepper and returns (cycles, allocation
/// count attributable to the run).
fn run_counted(scale: f64) -> (u64, u64) {
    let w = App::Fft.build(scale);
    let nprocs = w.mp_procs.max(1);
    let cfg = MachineConfig::base_simulated(nprocs, w.l2_bytes);
    let mut mem = w.memory(nprocs);
    let opts = SimOptions {
        stepper: Stepper::Event,
        ..SimOptions::default()
    };
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let r = run_program_with(&w.program, &mut mem, &cfg, opts);
    let a1 = ALLOCS.load(Ordering::Relaxed);
    (r.cycles, a1 - a0)
}

/// Doubling the simulated work must not meaningfully move the allocation
/// count: the hot path allocates per *structure high-water mark*, never
/// per access. fft-mp at scale 0.1 retires ~870k instructions through
/// ~30k coherence misses; one allocation per miss would blow this budget
/// by an order of magnitude.
#[test]
fn event_hot_path_is_allocation_free_in_steady_state() {
    // Warm-up run so one-time lazy init (workload tables, etc.) does not
    // pollute the comparison.
    let _ = run_counted(0.05);

    let (cycles_small, allocs_small) = run_counted(0.05);
    let (cycles_big, allocs_big) = run_counted(0.1);
    // Sanity: the big run really does ~2x the work.
    assert!(cycles_big > cycles_small + cycles_small / 2);

    let delta = allocs_big.saturating_sub(allocs_small);
    assert!(
        delta < 5_000,
        "allocation count grew with simulated work: {allocs_small} at scale \
         0.05 vs {allocs_big} at scale 0.1 (delta {delta}); something is \
         allocating on the per-access path"
    );

    // Absolute ceiling on setup + run, so setup-path regressions (e.g. a
    // per-line Vec in a table constructor) stay visible too.
    assert!(
        allocs_big < 50_000,
        "run made {allocs_big} allocations in total; setup should stay in \
         the low thousands"
    );
}
