//! The discrete-event stepper behind [`Stepper::Event`]: instead of
//! stepping every core every cycle (strict), each core carries its own
//! wake time and is stepped only in rounds where it is scheduled.
//! Event-dense multiprocessor runs stop paying per-cycle costs for cores
//! that are stalled on a miss or parked at a barrier. The loop is
//! single-threaded: every phase runs on the calling thread in fixed core
//! order.
//!
//! Exactness rests on two invariants (see DESIGN.md §10):
//!
//! 1. *No component steps past its scheduled time.* A core's wake time
//!    comes from [`Core::next_event_time`], whose contract is that every
//!    condition able to change the core's behavior on an intermediate
//!    cycle maps to a candidate. Cycles a core sits out are therefore
//!    provably no-op retire/issue/fetch calls, and their stall
//!    attribution is settled in bulk by [`Core::charge_idle`] at the
//!    next step (the stall class cannot change while the head is stuck).
//!    The clock likewise never jumps past a memory-system fill, so
//!    occupancy samples and fill application stay cycle-exact.
//!
//! 2. *Sync operations pin the horizon.* A sleeping core (no wake
//!    candidate) is necessarily parked on an unreleased barrier or an
//!    unset flag — only another processor can wake it. Both paths bump
//!    [`SyncState::version`], which forces a wake recompute at the end
//!    of the round for every live core the change can reach — cores
//!    whose window head is a sync wait, plus sleepers; every other
//!    core's wake candidates are core-local, so its held wake time
//!    stays exact. Barrier releases are always
//!    scheduled in the future, so the recompute sees them in time; a
//!    flag *set in the current round* is visible same-cycle to
//!    higher-numbered processors in strict mode, so the retire phase
//!    additionally consults the round's fresh tail of
//!    [`SyncState::flag_log`] to pull those waiters into the current
//!    round.

use mempar_obs::{TraceEventKind, SYSTEM_PROC};

use crate::system::{
    deadlock_panic, fetch_stage, trace_stall_transition, DriverState, DEADLOCK_WINDOW,
};

#[cfg(doc)]
use crate::{core::Core, sync::SyncState, system::Stepper};

/// "No wake scheduled": the core sleeps until shared sync state changes
/// (or forever, when the run is deadlocked).
const NO_WAKE: u64 = u64::MAX;

/// Runs the machine in `st` to completion under the event stepper.
///
/// Each round runs at one simulated cycle `now` (the minimum over all
/// wake times and the next memory-system fill): tick memory, then
/// retire/trace/issue/fetch exactly the cores scheduled for this cycle,
/// in core order — the same order and the same calls the strict driver
/// makes on this cycle, minus calls that are provable no-ops.
pub(crate) fn event_loop(st: &mut DriverState) {
    let nprocs = st.cores.len();
    // Next cycle each core must be stepped (`NO_WAKE` = asleep).
    // Everything starts due at cycle 0, mirroring the strict driver's
    // first cycle.
    let mut wake = vec![0u64; nprocs];
    // First cycle not yet charged to each core's stall breakdown.
    let mut charged_until = vec![0u64; nprocs];
    // Cores whose wake time must be recomputed this round, and how many
    // (a round with nothing marked — a fill-event-only round — skips the
    // recompute entirely).
    let mut need = vec![false; nprocs];
    let mut pending: usize = 0;
    // Minimum wake time and the cores that hold it, in core order. Both
    // are rebuilt by every recompute and stay exact when it is skipped
    // (nothing marked means no wake time moved). When the round's clock
    // lands on `wake_min`, `due_min` is exactly the set of cores due by
    // schedule, so the retire phase walks it instead of every core.
    let mut wake_min: u64 = 0;
    let mut due_min: Vec<usize> = (0..nprocs).collect();
    // Cores stepped this round, in core order. Lets the trace/issue/mark
    // phases walk only the stepped set; reused across rounds so the
    // steady-state loop never allocates.
    let mut due: Vec<usize> = Vec::with_capacity(nprocs);
    // Cores not yet halted; a core can only halt in its own retire call,
    // so the count stays exact without any rescan.
    let mut live = st.cores.iter().filter(|c| !c.halted).count();
    let mut now: u64 = 0;
    let mut last_progress_cycle: u64 = 0;
    loop {
        st.memsys.tick(now);
        let flag_mark = st.sync.flag_log().len();
        let version_mark = st.sync.version();
        due.clear();
        let mut retired_delta: u64 = 0;
        let mut retire = |st: &mut DriverState, p: usize| {
            let core = &mut st.cores[p];
            core.charge_idle(now - charged_until[p]);
            let before = core.retired;
            core.retire(&mut st.sync, now);
            retired_delta += core.retired - before;
            charged_until[p] = now + 1;
            if core.halted {
                live -= 1;
            }
            due.push(p);
        };
        // Fast path: walk the precomputed due set while no flag has been
        // set this round. The due set is exact for rounds landing on
        // `wake_min` (every other round schedules no core), and any fresh
        // flag drops to the strict in-order scan below for the remaining
        // cores, so same-cycle flag visibility is preserved exactly: cores
        // before the switch point are lower-numbered than the setter,
        // which strict visibility never reaches anyway.
        let mut next_p = 0;
        if wake_min == now {
            let mut d = 0;
            while d < due_min.len() && st.sync.flag_log().len() == flag_mark {
                let p = due_min[d];
                d += 1;
                next_p = p + 1;
                if !st.cores[p].halted {
                    retire(st, p);
                }
            }
        }
        if st.sync.flag_log().len() > flag_mark {
            // A flag was set this round: finish with the full scan — due
            // by schedule, or pulled in by the flag (same-cycle visibility
            // to higher-numbered processors, as under strict stepping).
            for (p, &w) in wake.iter().enumerate().skip(next_p) {
                let core = &st.cores[p];
                let is_due = !core.halted
                    && (w <= now
                        || core
                            .head_flag_wait()
                            .is_some_and(|f| st.sync.flag_log()[flag_mark..].contains(&f)));
                if is_due {
                    retire(st, p);
                }
            }
        }
        if st.tracing {
            // Only stepped cores can change stall class (charge_idle
            // continues the class of the last step across skipped
            // rounds), so the strict driver's per-cycle transition scan
            // reduces to the stepped set.
            for &p in &due {
                trace_stall_transition(&mut st.memsys, &mut st.stall_state, &st.cores[p], now);
            }
        }
        if live == 0 {
            break;
        }
        for &p in &due {
            let core = &mut st.cores[p];
            if !core.halted {
                core.issue(&mut st.memsys, now);
                fetch_stage(core, &mut st.interps[p], st.mem, now);
            }
        }
        // Deadlock diagnostics, matching the per-cycle driver. Retire
        // counts only move in the retire phase above, so summing the
        // per-step deltas is exact.
        if retired_delta > 0 {
            last_progress_cycle = now;
        } else if now - last_progress_cycle > DEADLOCK_WINDOW {
            deadlock_panic(st.cores.iter(), now);
        }
        // Mark wake recomputes: every stepped core, plus — on a sync
        // version change — every live core the change can actually reach.
        // Sync events are the only way another processor's action can
        // move a core's wake *earlier*, and `Core::next_event_time` reads
        // sync state only through its head-of-window `Barrier`/`FlagWait`
        // candidates, so the reachable set is exactly the cores whose
        // head is a sync wait plus cores asleep with no candidate
        // (parked, by invariant 2, on sync). An unstepped core outside
        // that set would recompute the value it already holds: its
        // window is untouched since its last recompute, and every
        // candidate behind its current wake exceeds `now` (else it would
        // have been stepped), so the `now+1` clamps still bind
        // identically.
        for &p in &due {
            if !need[p] {
                need[p] = true;
                pending += 1;
            }
        }
        if st.sync.version() != version_mark {
            for (p, core) in st.cores.iter().enumerate() {
                if !need[p] && !core.halted && (wake[p] == NO_WAKE || core.head_sync_wait()) {
                    need[p] = true;
                    pending += 1;
                }
            }
        }
        // The recompute reads `st.sync` as it stands now. Sync state
        // changes only inside the retire phase, and `next_event_time`
        // reads it only through barrier-release and flag-set times, which
        // are published by the same calls that bump the version — so a
        // core whose wake is held from an earlier round saw the same
        // values then.
        if pending > 0 {
            pending = 0;
            wake_min = NO_WAKE;
            due_min.clear();
            for (p, core) in st.cores.iter().enumerate() {
                if need[p] {
                    need[p] = false;
                    wake[p] = core.next_event_time(&st.sync, now).unwrap_or(NO_WAKE);
                }
                // Single pass: a new minimum restarts the due list;
                // matches extend it. Amortized O(cores) — each index is
                // pushed at most once per restart, and restarts strictly
                // lower the minimum.
                match wake[p].cmp(&wake_min) {
                    std::cmp::Ordering::Less => {
                        wake_min = wake[p];
                        due_min.clear();
                        due_min.push(p);
                    }
                    std::cmp::Ordering::Equal => due_min.push(p),
                    std::cmp::Ordering::Greater => {}
                }
            }
        }
        let next = st.memsys.next_event_time().unwrap_or(NO_WAKE).min(wake_min);
        if next == NO_WAKE {
            // No event anywhere: the run can never progress again. Jump
            // to the diagnostic horizon so the deadlock check above fires
            // with the same cycle number strict stepping reports.
            now = last_progress_cycle + DEADLOCK_WINDOW + 1;
            continue;
        }
        if st.tracing && next > now + 1 {
            // Whole-system gap. (Occupancy accounting is lazy inside the
            // memory system; stall attribution is per-core and settles
            // via `charged_until` at each core's next step.)
            let span = next - now - 1;
            st.memsys
                .tracer_mut()
                .record(now, SYSTEM_PROC, TraceEventKind::HorizonJump { span });
        }
        now = next;
    }
}
