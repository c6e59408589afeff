//! Property-based tests on the coherence state machine.
//!
//! The one `Coherence` machine is driven under each of the four
//! protocols with random legal event sequences (read misses, writes,
//! evictions — legality judged exactly the way `MemSystem` judges it:
//! reads only miss on `Invalid` lines, writes take the silent-upgrade
//! path when `LineState::write_hits` says so) while a tiny reference
//! model, written independently of the machine's four protocol
//! properties, mirrors the outcome-application rules the memory system
//! uses. After every event the model and the oracle must agree,
//! and the classic single-writer invariants must hold:
//!
//! * at most one processor holds a dirty (`Modified`/`Owned`) copy of
//!   any line;
//! * a `Modified` or `Exclusive` copy is the *only* copy;
//! * Dragon never invalidates on a write (update lists instead);
//! * MESI never supplies dirty data cache-to-cache without writing
//!   memory back and downgrading the owner, while MOESI does exactly
//!   the opposite (the supplier keeps the line `Owned`);
//! * a cache-to-cache supplier actually holds the line;
//! * a write to a held copy that is not a write hit is `upgradeable`
//!   (the no-data permission/update path);
//! * the directory and MESI never leave a copy `Owned`, and the
//!   directory never installs `Exclusive` — the premise that lets the
//!   `Modified | Exclusive` write-hit and `Shared | Owned` upgrade rules
//!   be properties of the state alone, under all four protocols;
//! * the oracle's population gauges match the model's holder counts.

use mempar_sim::{Coherence, DataSource, LineState, Protocol};
use proptest::prelude::*;

const NPROCS: usize = 4;
const NLINES: u64 = 8;

/// The reference model: per-line, per-processor `LineState`, updated by
/// the same rules `MemSystem` applies to its tag arrays.
type Model = [[LineState; NPROCS]; NLINES as usize];

fn check_invariants(protocol: Protocol, proto: &Coherence, model: &Model, step: usize) {
    let mut lines = 0;
    let mut sharers = 0;
    for (line, procs) in model.iter().enumerate() {
        let dirty = procs.iter().filter(|s| s.is_dirty()).count();
        prop_assert!(
            dirty <= 1,
            "{protocol} step {step}: line {line} dirty in {dirty} caches: {procs:?}"
        );
        let holders = procs.iter().filter(|&&s| s != LineState::Invalid).count();
        for (p, &s) in procs.iter().enumerate() {
            let forbidden = match protocol {
                Protocol::Directory => matches!(s, LineState::Owned | LineState::Exclusive),
                Protocol::Mesi => s == LineState::Owned,
                Protocol::Moesi | Protocol::Dragon => false,
            };
            prop_assert!(
                !forbidden,
                "{protocol} step {step}: proc {p} holds line {line} {s:?}"
            );
            if matches!(s, LineState::Modified | LineState::Exclusive) {
                prop_assert_eq!(
                    holders,
                    1,
                    "{} step {}: proc {} holds line {} {:?} alongside other copies: {:?}",
                    protocol,
                    step,
                    p,
                    line,
                    s,
                    procs
                );
            }
        }
        if holders > 0 {
            lines += 1;
            sharers += holders;
        }
    }
    prop_assert_eq!(
        proto.line_count(),
        lines,
        "{} step {}: oracle tracks {} lines, model holds {}",
        protocol,
        step,
        proto.line_count(),
        lines
    );
    prop_assert_eq!(
        proto.total_sharers(),
        sharers,
        "{} step {}: oracle counts {} sharers, model holds {}",
        protocol,
        step,
        proto.total_sharers(),
        sharers
    );
}

/// Drives one protocol through `ops`, mirroring `MemSystem`'s
/// outcome-application rules in `model` and checking invariants after
/// every event.
fn drive(protocol: Protocol, ops: &[(u8, usize, u64)]) {
    let mut proto = Coherence::new(protocol);
    let mut model: Model = [[LineState::Invalid; NPROCS]; NLINES as usize];
    for (step, &(op, proc, line)) in ops.iter().enumerate() {
        let pre = model[line as usize];
        match op {
            // Read: the memory system consults the oracle only on a
            // miss; a valid copy is a pure cache hit.
            0 => {
                if pre[proc] != LineState::Invalid {
                    continue;
                }
                let out = proto.read_req(line, proc);
                prop_assert!(
                    !out.demote.contains(&proc),
                    "{protocol} step {step}: read demotes the requester"
                );
                match out.install {
                    LineState::Shared => {}
                    LineState::Exclusive => {
                        let others = pre
                            .iter()
                            .enumerate()
                            .any(|(p, &s)| p != proc && s != LineState::Invalid);
                        prop_assert!(
                            !others,
                            "{protocol} step {step}: read installs Exclusive over live copies"
                        );
                    }
                    s => prop_assert!(false, "{protocol} step {step}: read installs {s:?}"),
                }
                if let DataSource::CacheToCache { owner } = out.source {
                    prop_assert_ne!(
                        pre[owner],
                        LineState::Invalid,
                        "{} step {}: supplier {} does not hold line {}",
                        protocol,
                        step,
                        owner,
                        line
                    );
                    if pre[owner].is_dirty() {
                        match protocol {
                            // Illinois-MESI has no dirty-shared state:
                            // supplying dirty data must write memory
                            // back and downgrade the owner.
                            Protocol::Mesi | Protocol::Directory => prop_assert!(
                                out.memory_update,
                                "{protocol} step {step}: dirty supply without memory update"
                            ),
                            // MOESI/Dragon keep the supplier
                            // responsible (`Owned`); memory stays stale.
                            Protocol::Moesi | Protocol::Dragon => prop_assert!(
                                !out.memory_update,
                                "{protocol} step {step}: dirty supply updated memory"
                            ),
                        }
                    }
                    match model[line as usize][owner] {
                        LineState::Modified => {
                            model[line as usize][owner] = if out.memory_update {
                                LineState::Shared
                            } else {
                                LineState::Owned
                            };
                        }
                        LineState::Exclusive => {
                            model[line as usize][owner] = LineState::Shared;
                        }
                        _ => {}
                    }
                } else {
                    for &p in &out.demote {
                        if model[line as usize][p] == LineState::Exclusive {
                            model[line as usize][p] = LineState::Shared;
                        }
                    }
                }
                model[line as usize][proc] = out.install;
            }
            // Write: silent upgrade when the held state completes
            // locally; otherwise a global transaction.
            1 => {
                if pre[proc].write_hits() {
                    if pre[proc] != LineState::Modified {
                        proto.silent_upgrade(line, proc);
                        model[line as usize][proc] = LineState::Modified;
                    }
                    continue;
                }
                if pre[proc] != LineState::Invalid {
                    prop_assert!(
                        pre[proc].upgradeable(),
                        "{protocol} step {step}: write to a held {:?} copy is neither a hit nor upgradeable",
                        pre[proc]
                    );
                }
                let out = proto.write_req(line, proc);
                prop_assert!(
                    !out.invalidees.contains(&proc) && !out.updatees.contains(&proc),
                    "{protocol} step {step}: write targets the requester"
                );
                if protocol == Protocol::Dragon {
                    prop_assert!(
                        out.invalidees.is_empty(),
                        "{protocol} step {step}: write-update protocol invalidated {:?}",
                        out.invalidees
                    );
                    let mut others: Vec<usize> = pre
                        .iter()
                        .enumerate()
                        .filter(|&(p, &s)| p != proc && s != LineState::Invalid)
                        .map(|(p, _)| p)
                        .collect();
                    others.sort_unstable();
                    prop_assert_eq!(
                        out.updatees.clone(),
                        others,
                        "{} step {}: update list misses a live copy",
                        protocol,
                        step
                    );
                    prop_assert_eq!(
                        out.install,
                        if out.updatees.is_empty() {
                            LineState::Modified
                        } else {
                            LineState::Owned
                        },
                        "{} step {}: Dragon install state",
                        protocol,
                        step
                    );
                } else {
                    prop_assert!(
                        out.updatees.is_empty(),
                        "{protocol} step {step}: invalidation protocol sent updates"
                    );
                    prop_assert_eq!(
                        out.install,
                        LineState::Modified,
                        "{} step {}: write install state",
                        protocol,
                        step
                    );
                }
                if let DataSource::CacheToCache { owner } = out.source {
                    prop_assert_ne!(
                        pre[owner],
                        LineState::Invalid,
                        "{} step {}: write supplier {} does not hold line {}",
                        protocol,
                        step,
                        owner,
                        line
                    );
                }
                for &p in &out.invalidees {
                    model[line as usize][p] = LineState::Invalid;
                }
                for &p in &out.updatees {
                    if !matches!(
                        model[line as usize][p],
                        LineState::Invalid | LineState::Shared
                    ) {
                        model[line as usize][p] = LineState::Shared;
                    }
                }
                model[line as usize][proc] = out.install;
            }
            // Evict: only a held line can be evicted.
            _ => {
                if pre[proc] == LineState::Invalid {
                    continue;
                }
                proto.evict(line, proc);
                model[line as usize][proc] = LineState::Invalid;
            }
        }
        check_invariants(protocol, &proto, &model, step);
    }
}

proptest! {
    /// Random legal event sequences under every protocol: the machine
    /// must track the reference model exactly and never violate the
    /// single-writer invariants.
    #[test]
    fn protocol_oracles_match_reference_model(
        ops in proptest::collection::vec(
            (0u8..3, 0usize..NPROCS, 0u64..NLINES),
            1..100,
        ),
    ) {
        for protocol in Protocol::all() {
            drive(protocol, &ops);
        }
    }
}
