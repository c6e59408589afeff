//! The coherence state machine every [`Protocol`] runs on.
//!
//! One [`Coherence`] tracks, per line, which processors hold a copy and
//! which one (if any) owns it. The four protocols share every transition
//! but four, and each of those is a property of the [`Protocol`] value:
//!
//! * [`Protocol::installs_exclusive`] (MESI, MOESI, Dragon): a read that
//!   finds no other holder installs `Exclusive`, and a later write hit on
//!   that copy upgrades silently (`E → M`, no bus transaction). The
//!   directory is MSI: every read installs `Shared`.
//! * [`Protocol::keeps_owned`] (MOESI, Dragon): a dirty owner supplying a
//!   read keeps the line (`M → O`) with memory stale until the owned copy
//!   is evicted. Without it (directory, MESI) the dirty supply writes the
//!   line back to home, leaving every copy clean-shared.
//! * [`Protocol::supplies_clean`] (Illinois-MESI): with no dirty owner,
//!   any current holder still answers a read snoop — the owner if there
//!   is one, else the lowest-numbered sharer — so memory is touched only
//!   for truly uncached lines. Without it a read that finds only clean
//!   copies is served by memory and demotes a clean-`Exclusive` holder.
//! * [`Protocol::updates_on_write`] (Dragon): a write to a line with
//!   other holders broadcasts the written word instead of invalidating
//!   them. The writer ends up `Sm` — "shared-modified", mapped onto
//!   [`LineState::Owned`] — and keeps supplying reads; the other holders
//!   sit in `Sc` ("shared-clean", [`LineState::Shared`]).
//!
//! Common to all four: a write to an unshared line installs `Modified`,
//! and an invalidating write leaves the writer the line's only holder.
//! In the directory's MSI a line never has an owner and other holders at
//! once, so its invalidation list — the other holders, ascending — is
//! its sharers, or else its owner.

use super::{CohTxn, DataSource, Protocol};
use crate::cache::LineState;
use crate::linetable::LineTable;

/// Per-line holder record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct HolderEntry {
    /// Bitmask of processors holding a copy (owner included).
    holders: u64,
    /// Processor responsible for supplying the line, if any.
    owner: Option<u8>,
    /// Whether the owner's copy is dirty (memory is stale).
    owner_dirty: bool,
}

impl HolderEntry {
    /// Holders other than `proc`.
    fn others(&self, proc: usize) -> u64 {
        self.holders & !(1u64 << proc)
    }
}

/// The cache-coherence state machine, for any [`Protocol`].
///
/// It is an *oracle*: it tracks, per line, which processors hold a copy
/// and who is responsible for supplying it, mirroring what a full-map
/// directory or the union of snoop filters would know. The memory system
/// calls it at transaction-issue time and applies the outcome to the tag
/// arrays (the timing model) itself.
#[derive(Debug)]
pub struct Coherence {
    kind: Protocol,
    lines: LineTable<HolderEntry>,
}

impl Coherence {
    /// An empty machine (all lines uncached) running `kind`.
    pub fn new(kind: Protocol) -> Self {
        Coherence {
            kind,
            lines: LineTable::default(),
        }
    }

    /// Handles a read miss by `proc` on `line`, writing the outcome into
    /// the caller's pooled buffer. `txn` must arrive
    /// [reset](CohTxn::reset); only the fields the outcome uses are
    /// written. Processor lists are pushed in ascending order (their
    /// order is timing-visible — see [`CohTxn::invalidees`]).
    pub(crate) fn read_miss(&mut self, line: u64, proc: usize, txn: &mut CohTxn) {
        let e = self.lines.entry(line);
        let others = e.others(proc);
        e.holders |= 1u64 << proc;
        if others == 0 && self.kind.installs_exclusive() {
            e.owner = Some(proc as u8);
            e.owner_dirty = false;
            txn.install = LineState::Exclusive;
            return;
        }
        txn.install = LineState::Shared;
        if let Some(o) = e.owner.filter(|&o| o as usize != proc && e.owner_dirty) {
            txn.source = DataSource::CacheToCache { owner: o as usize };
            if self.kind.keeps_owned() {
                // The dirty owner keeps the line (M -> O, or Dragon's
                // Sm); memory is not updated.
                return;
            }
            // The supply writes home back in the same transaction (the
            // paper's directory keeps memory current).
            txn.memory_update = true;
        } else if self.kind.supplies_clean() {
            // Illinois: some cache always supplies — the owner if one
            // exists, else the lowest-numbered clean sharer.
            let supplier = match e.owner {
                Some(o) if o as usize != proc => o as usize,
                _ => others.trailing_zeros() as usize,
            };
            txn.source = DataSource::CacheToCache { owner: supplier };
        } else if let Some(o) = e.owner.filter(|&o| o as usize != proc) {
            // Only clean copies exist: memory supplies, and a clean-E
            // holder loses exclusivity.
            txn.demote.push(o as usize);
        }
        // Either way every copy is now clean and shared.
        e.owner = None;
        e.owner_dirty = false;
    }

    /// Handles a write miss or upgrade by `proc` on `line`, writing the
    /// outcome into the caller's pooled buffer (same contract as
    /// [`Coherence::read_miss`]).
    pub(crate) fn write_miss(&mut self, line: u64, proc: usize, txn: &mut CohTxn) {
        let e = self.lines.entry(line);
        let others = e.others(proc);
        txn.source = match e.owner {
            Some(o) if o as usize != proc && e.owner_dirty => {
                DataSource::CacheToCache { owner: o as usize }
            }
            _ if others != 0 && self.kind.supplies_clean() => DataSource::CacheToCache {
                owner: others.trailing_zeros() as usize,
            },
            _ => DataSource::Memory,
        };
        if self.kind.updates_on_write() {
            // Every other copy receives the word and stays valid; a
            // shared writer holds the line Sm.
            push_mask_procs(others, &mut txn.updatees);
            txn.install = if others != 0 {
                LineState::Owned
            } else {
                LineState::Modified
            };
        } else {
            push_mask_procs(others, &mut txn.invalidees);
            txn.install = LineState::Modified;
            e.holders = 0;
        }
        e.holders |= 1u64 << proc;
        e.owner = Some(proc as u8);
        e.owner_dirty = true;
    }

    /// Handles a read miss by `proc` on `line` in a freshly allocated
    /// transaction — the convenience form, for tests and tools, of the
    /// pooled `read_miss` the simulator's hot path uses.
    pub fn read_req(&mut self, line: u64, proc: usize) -> CohTxn {
        let mut txn = CohTxn::default();
        self.read_miss(line, proc, &mut txn);
        txn
    }

    /// Handles a write miss or upgrade by `proc` on `line` in a freshly
    /// allocated transaction (convenience form of `write_miss`).
    pub fn write_req(&mut self, line: u64, proc: usize) -> CohTxn {
        let mut txn = CohTxn::default();
        self.write_miss(line, proc, &mut txn);
        txn
    }

    /// Records that `proc` evicted its copy of `line`: removes it from
    /// the holders, clears its ownership, and drops the entry when the
    /// last copy goes.
    pub fn evict(&mut self, line: u64, proc: usize) {
        if let Some(e) = self.lines.get_mut(line) {
            e.holders &= !(1u64 << proc);
            if e.owner == Some(proc as u8) {
                e.owner = None;
                e.owner_dirty = false;
            }
            if e.holders == 0 {
                self.lines.remove(line);
            }
        }
    }

    /// Notification that `proc` wrote a line it held clean-`Exclusive`:
    /// the silent `E → M` transition needs no bus transaction, but the
    /// oracle must learn the copy is now dirty.
    pub fn silent_upgrade(&mut self, line: u64, proc: usize) {
        let e = self.lines.entry(line);
        e.holders |= 1u64 << proc;
        e.owner = Some(proc as u8);
        e.owner_dirty = true;
    }

    /// Number of lines with live protocol state.
    pub fn line_count(&self) -> usize {
        self.lines.len()
    }

    /// Total holder population across all tracked lines.
    pub fn total_sharers(&self) -> usize {
        self.lines
            .values()
            .map(|e| e.holders.count_ones() as usize)
            .sum()
    }

    /// Registers end-of-run protocol population gauges, including the
    /// backing table's size and load factor (`sim.coh.table.*`).
    pub(crate) fn export_metrics(&self, reg: &mut mempar_obs::MetricsRegistry) {
        let (lines, slots) = (self.line_count(), self.lines.capacity());
        reg.gauge("sim.coh.lines", lines as f64);
        reg.gauge("sim.coh.sharers", self.total_sharers() as f64);
        reg.gauge("sim.coh.table.slots", slots as f64);
        reg.gauge("sim.coh.table.load", lines as f64 / slots.max(1) as f64);
    }
}

/// Pushes the processors set in `mask` onto `out`, lowest first —
/// ascending order is load-bearing (see [`CohTxn::invalidees`]).
fn push_mask_procs(mask: u64, out: &mut Vec<usize>) {
    let mut m = mask;
    while m != 0 {
        out.push(m.trailing_zeros() as usize);
        m &= m - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evict_clears_ownership_and_counts() {
        let mut m = Coherence::new(Protocol::Moesi);
        let e = m.lines.entry(7);
        e.holders = 0b11;
        e.owner = Some(1);
        e.owner_dirty = true;
        assert_eq!(m.line_count(), 1);
        assert_eq!(m.total_sharers(), 2);
        m.evict(7, 1);
        let e = m.lines.entry(7);
        assert_eq!(e.holders, 0b01, "still held by 0");
        assert_eq!(e.owner, None);
        assert!(!e.owner_dirty);
        m.evict(7, 0);
        assert_eq!(m.line_count(), 0);
    }

    #[test]
    fn push_mask_procs_orders_low_first() {
        let mut v = Vec::new();
        push_mask_procs(0, &mut v);
        assert_eq!(v, Vec::<usize>::new());
        push_mask_procs(0b1011, &mut v);
        assert_eq!(v, vec![0, 1, 3]);
    }

    mod directory {
        use super::*;

        fn directory() -> Coherence {
            Coherence::new(Protocol::Directory)
        }

        #[test]
        fn cold_read_comes_from_memory() {
            let mut d = directory();
            let r = d.read_req(10, 0);
            assert_eq!(r.source, DataSource::Memory);
            assert!(!r.memory_update);
            assert_eq!(r.install, LineState::Shared);
            assert_eq!((d.line_count(), d.total_sharers()), (1, 1));
        }

        #[test]
        fn second_reader_shares() {
            let mut d = directory();
            d.read_req(10, 0);
            assert_eq!(d.read_req(10, 1).source, DataSource::Memory);
            assert_eq!((d.line_count(), d.total_sharers()), (1, 2));
        }

        #[test]
        fn read_of_modified_line_is_c2c_and_downgrades() {
            let mut d = directory();
            assert_eq!(d.write_req(10, 2).install, LineState::Modified);
            let r = d.read_req(10, 0);
            assert_eq!(r.source, DataSource::CacheToCache { owner: 2 });
            assert!(r.memory_update, "a dirty supply writes home back");
            assert_eq!(d.total_sharers(), 2);
            // The old owner is now a plain sharer: a write finds no owner
            // to supply and invalidates both copies.
            let w = d.write_req(10, 3);
            assert_eq!(w.source, DataSource::Memory);
            assert_eq!(w.invalidees, vec![0, 2]);
        }

        #[test]
        fn write_invalidates_sharers() {
            let mut d = directory();
            d.read_req(10, 0);
            d.read_req(10, 1);
            d.read_req(10, 2);
            let g = d.write_req(10, 0);
            assert_eq!(g.source, DataSource::Memory);
            assert_eq!(g.invalidees, vec![1, 2]);
            assert_eq!(g.install, LineState::Modified);
            assert_eq!((d.line_count(), d.total_sharers()), (1, 1));
            // The writer owns the line and supplies the next reader.
            assert_eq!(
                d.read_req(10, 1).source,
                DataSource::CacheToCache { owner: 0 }
            );
        }

        #[test]
        fn write_of_remote_modified_is_c2c() {
            let mut d = directory();
            d.write_req(10, 3);
            let g = d.write_req(10, 1);
            assert_eq!(g.source, DataSource::CacheToCache { owner: 3 });
            assert_eq!(g.invalidees, vec![3]);
            assert_eq!(d.total_sharers(), 1, "ownership moved, not shared");
            assert_eq!(
                d.read_req(10, 0).source,
                DataSource::CacheToCache { owner: 1 }
            );
        }

        #[test]
        fn rewrite_by_owner_is_silent() {
            let mut d = directory();
            d.write_req(10, 1);
            let g = d.write_req(10, 1);
            assert!(g.invalidees.is_empty());
            assert_eq!(g.source, DataSource::Memory);
        }

        #[test]
        fn eviction_clears_state() {
            let mut d = directory();
            d.read_req(10, 0);
            d.evict(10, 0);
            assert_eq!((d.line_count(), d.total_sharers()), (0, 0));
            d.write_req(11, 5);
            d.evict(11, 5);
            assert_eq!((d.line_count(), d.total_sharers()), (0, 0));
            assert_eq!(d.read_req(11, 0).source, DataSource::Memory);
        }
    }

    mod mesi {
        use super::*;

        fn mesi() -> Coherence {
            Coherence::new(Protocol::Mesi)
        }

        #[test]
        fn first_read_is_exclusive_from_memory() {
            let mut p = mesi();
            let r = p.read_req(5, 0);
            assert_eq!(r.source, DataSource::Memory);
            assert_eq!(r.install, LineState::Exclusive);
            assert!(!r.memory_update);
        }

        #[test]
        fn second_read_supplied_clean_cache_to_cache() {
            let mut p = mesi();
            p.read_req(5, 0);
            let r = p.read_req(5, 1);
            assert_eq!(r.source, DataSource::CacheToCache { owner: 0 });
            assert!(!r.memory_update, "clean supply must not touch memory");
            assert_eq!(r.install, LineState::Shared);
        }

        #[test]
        fn dirty_supply_updates_memory() {
            let mut p = mesi();
            p.write_req(5, 0);
            let r = p.read_req(5, 1);
            assert_eq!(r.source, DataSource::CacheToCache { owner: 0 });
            assert!(r.memory_update, "dirty supply writes home back");
            // Now clean-shared: a third read is a clean supply.
            let r2 = p.read_req(5, 2);
            assert!(!r2.memory_update);
        }

        #[test]
        fn write_invalidates_all_other_holders() {
            let mut p = mesi();
            p.read_req(5, 0);
            p.read_req(5, 1);
            p.read_req(5, 2);
            let w = p.write_req(5, 1);
            assert_eq!(w.invalidees, vec![0, 2]);
            assert!(w.updatees.is_empty());
            assert_eq!(w.install, LineState::Modified);
            assert_eq!(p.total_sharers(), 1);
        }

        #[test]
        fn silent_upgrade_marks_dirty() {
            let mut p = mesi();
            p.read_req(5, 0); // E
            p.silent_upgrade(5, 0); // E -> M, no transaction
            let r = p.read_req(5, 1);
            assert!(r.memory_update, "silently-dirtied copy supplies dirty");
        }
    }

    mod moesi {
        use super::*;

        fn moesi() -> Coherence {
            Coherence::new(Protocol::Moesi)
        }

        #[test]
        fn dirty_supplier_keeps_ownership() {
            let mut p = moesi();
            p.write_req(5, 0); // 0 holds M
            let r = p.read_req(5, 1);
            assert_eq!(r.source, DataSource::CacheToCache { owner: 0 });
            assert!(!r.memory_update, "MOESI sharing leaves memory stale");
            // Owner 0 still supplies for the next reader too (now from O).
            let r2 = p.read_req(5, 2);
            assert_eq!(r2.source, DataSource::CacheToCache { owner: 0 });
            assert!(!r2.memory_update);
        }

        #[test]
        fn clean_read_comes_from_memory_and_demotes_exclusive() {
            let mut p = moesi();
            p.read_req(5, 0); // 0 holds E (clean)
            let r = p.read_req(5, 1);
            assert_eq!(r.source, DataSource::Memory, "no clean C2C in MOESI");
            assert_eq!(r.demote, vec![0]);
            assert_eq!(r.install, LineState::Shared);
        }

        #[test]
        fn write_over_owned_line_invalidates_sharers() {
            let mut p = moesi();
            p.write_req(5, 0);
            p.read_req(5, 1); // 0: O, 1: S
            let w = p.write_req(5, 1);
            assert_eq!(w.source, DataSource::CacheToCache { owner: 0 });
            assert_eq!(w.invalidees, vec![0]);
            assert_eq!(p.total_sharers(), 1);
        }

        #[test]
        fn evicting_owner_clears_dirty_ownership() {
            let mut p = moesi();
            p.write_req(5, 0);
            p.read_req(5, 1); // 0 owns dirty
            p.evict(5, 0);
            // With the owner gone, memory serves the next reader. (The
            // timing model pays the writeback on the eviction itself via
            // Victim::dirty.)
            let r = p.read_req(5, 2);
            assert_eq!(r.source, DataSource::Memory);
        }
    }

    mod dragon {
        use super::*;

        fn dragon() -> Coherence {
            Coherence::new(Protocol::Dragon)
        }

        #[test]
        fn writes_never_invalidate() {
            let mut p = dragon();
            p.read_req(5, 0);
            p.read_req(5, 1);
            p.read_req(5, 2);
            let w = p.write_req(5, 1);
            assert!(w.invalidees.is_empty(), "Dragon must never invalidate");
            assert_eq!(w.updatees, vec![0, 2]);
            assert_eq!(w.install, LineState::Owned);
            assert_eq!(p.total_sharers(), 3, "all copies stay valid");
        }

        #[test]
        fn unshared_write_installs_modified() {
            let mut p = dragon();
            let w = p.write_req(5, 0);
            assert_eq!(w.install, LineState::Modified);
            assert!(w.updatees.is_empty());
        }

        #[test]
        fn sm_holder_supplies_reads_and_keeps_ownership() {
            let mut p = dragon();
            p.read_req(5, 1);
            p.write_req(5, 0); // 0: Sm, 1: Sc
            let r = p.read_req(5, 2);
            assert_eq!(r.source, DataSource::CacheToCache { owner: 0 });
            assert!(!r.memory_update, "memory stays stale under Sm");
            let r2 = p.read_req(5, 3);
            assert_eq!(r2.source, DataSource::CacheToCache { owner: 0 });
        }

        #[test]
        fn update_transfers_ownership_to_latest_writer() {
            let mut p = dragon();
            p.write_req(5, 0); // 0: M
            let w = p.write_req(5, 1); // update; 1 becomes Sm, 0 drops to Sc
            assert_eq!(w.updatees, vec![0]);
            assert_eq!(w.source, DataSource::CacheToCache { owner: 0 });
            let r = p.read_req(5, 2);
            assert_eq!(
                r.source,
                DataSource::CacheToCache { owner: 1 },
                "the latest writer is the supplier"
            );
        }
    }
}
