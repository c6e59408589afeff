//! CPU time, and how fast the host's CPU runs while it is measured.
//!
//! The benchmark times jobs in CPU seconds of its own process, which leave
//! out the time it waits for a CPU while the host runs other work. The CPU
//! itself still slows when neighbours load the shared caches, memory or a
//! sibling hyperthread: on a 2-vCPU host shared with other tenants, the
//! same job's CPU time drifts by 10% to 2x for minutes at a time. A fixed
//! reference loop, timed just before every job, slows with it. A job's
//! CPU seconds divided by that loop's time, times the loop's time on a
//! quiet host ([`NOMINAL_S`]), are the seconds the job would have taken
//! at that quiet speed.
//!
//! The loop walks a table at random in two phases: one within 256 KB,
//! which stays in a core's L2 as the simulator's hot structures do, and
//! one over 4 MB, which reaches the shared last-level cache and memory,
//! where the simulator's larger images live and where neighbours contend
//! most. Each phase alone tracked the host less well: the L2 phase missed
//! slowdowns of memory-heavy jobs, and the 4 MB phase overstated slowdowns
//! of the others.
//!
//! The loop is the benchmark's own code and never changes, so a change to
//! the program moves the rescaled times exactly as it moves the CPU
//! seconds.

use std::hint::black_box;
use std::sync::OnceLock;

/// Words in the reference loop's table: 4 MB.
const TABLE_WORDS: usize = 1 << 19;
/// Words the first phase walks: 256 KB.
const HOT_WORDS: usize = 1 << 15;
/// Steps of the first phase (about 3 ms on the recording host) and of the
/// second (about 14 ms).
const HOT_STEPS: u64 = 400_000;
const WIDE_STEPS: u64 = 200_000;
/// CPU seconds one reference loop takes on the recording host (Intel Xeon,
/// 2 vCPUs) when it is quiet: the speed rescaled times are given at.
pub const NOMINAL_S: f64 = 0.017;

/// CPU seconds this process has run so far, on all its threads
/// (`CLOCK_PROCESS_CPUTIME_ID`). Time it waits for a CPU is not counted:
/// neither the time the host runs other processes nor, in a virtual
/// machine whose kernel accounts steal time, the time the hypervisor
/// runs other guests.
pub fn cpu_seconds() -> f64 {
    use std::ffi::{c_int, c_long};

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a writable `struct timespec`, two C longs on Linux,
    // and the clock id is Linux's process CPU clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Runs the reference loop once and returns its CPU seconds: pseudo-random
/// walks over a fixed table, mixing dependent loads, integer arithmetic
/// and data-dependent branches.
pub fn reference_loop() -> f64 {
    let table = table();
    let start = cpu_seconds();
    black_box(walk(&table[..HOT_WORDS], black_box(HOT_STEPS)));
    black_box(walk(table, black_box(WIDE_STEPS)));
    cpu_seconds() - start
}

/// `cpu_s` measured just after a reference loop that took `loop_s`,
/// rescaled to the quiet host's speed.
pub fn at_nominal(cpu_s: f64, loop_s: f64) -> f64 {
    cpu_s * NOMINAL_S / loop_s
}

fn table() -> &'static [u64] {
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut x = 1u64;
        (0..TABLE_WORDS)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                x
            })
            .collect()
    })
}

/// A walk of `steps` over `table`, whose length is a power of two.
fn walk(table: &[u64], steps: u64) -> u64 {
    let mask = table.len() - 1;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v = table[(x ^ acc) as usize & mask];
        if v & 1 == 0 {
            acc = acc.wrapping_add(v);
        } else {
            acc ^= v.rotate_left(7);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn cpu_clock_advances_with_work() {
        let (start, c0) = (Instant::now(), cpu_seconds());
        let mut x = 0u64;
        while cpu_seconds() - c0 < 0.02 {
            x = black_box(x.wrapping_add(1));
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "the CPU clock did not advance"
            );
        }
        assert!(cpu_seconds() >= c0 + 0.02);
    }

    #[test]
    fn reference_loop_does_fixed_work() {
        // The same walk every time: its result pins the work it does.
        assert_eq!(walk(table(), 1000), walk(table(), 1000));
        assert_ne!(walk(table(), 1000), walk(table(), 1001));
        assert_ne!(walk(&table()[..HOT_WORDS], 1000), walk(table(), 1000));
        let t = reference_loop();
        assert!(t > 0.0 && t < 1.0, "{t}");
        assert_eq!(at_nominal(3.0, NOMINAL_S * 2.0), 1.5);
    }
}
