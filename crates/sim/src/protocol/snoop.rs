//! Snooping MESI, MOESI and Dragon as one state machine.
//!
//! The three bus protocols share every transition but two, and each of
//! those is a property of the [`Protocol`] value:
//!
//! * [`Protocol::supplies_clean`] (Illinois-MESI): any current holder
//!   answers a read snoop — the owner if there is one, else the
//!   lowest-numbered sharer — so memory is touched only for truly
//!   uncached lines, and a dirty supply writes the line back to home,
//!   leaving every copy clean-shared. Without it (MOESI, Dragon) only a
//!   dirty owner supplies, and it keeps the line (`M → O`) with memory
//!   stale until the owned copy is evicted; a read that finds only clean
//!   copies is served by memory and demotes a clean-`Exclusive` holder.
//! * [`Protocol::updates_on_write`] (Dragon): a write to a line with
//!   other holders broadcasts the written word instead of invalidating
//!   them. The writer ends up `Sm` — "shared-modified", mapped onto
//!   [`LineState::Owned`] — and keeps supplying reads; the other holders
//!   sit in `Sc` ("shared-clean", [`LineState::Shared`]).
//!
//! Common to all three: a read that finds no other holder installs
//! `Exclusive`, a later write hit on that copy upgrades silently
//! (`E → M`, no bus transaction), and a write to an unshared line
//! installs `Modified`.

use super::{push_mask_procs, CohTxn, CoherenceProtocol, DataSource, Protocol};
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

/// Line-indexed holder map, backed by the open-addressed [`LineTable`].
#[derive(Debug, Clone, Default)]
struct HolderMap {
    entries: LineTable<HolderEntry>,
}

impl HolderMap {
    fn entry(&mut self, line: u64) -> &mut HolderEntry {
        self.entries.entry(line)
    }

    /// Removes `proc` from `line`'s holders, clearing ownership and
    /// dropping the entry when the last copy goes.
    fn evict(&mut self, line: u64, proc: usize) {
        if let Some(e) = self.entries.get_mut(line) {
            e.holders &= !(1u64 << proc);
            if e.owner == Some(proc as u8) {
                e.owner = None;
                e.owner_dirty = false;
            }
            if e.holders == 0 {
                self.entries.remove(line);
            }
        }
    }

    fn line_count(&self) -> usize {
        self.entries.len()
    }

    fn table_slots(&self) -> usize {
        self.entries.capacity()
    }

    fn total_sharers(&self) -> usize {
        self.entries
            .values()
            .map(|e| e.holders.count_ones() as usize)
            .sum()
    }
}

/// The snooping state machine for MESI, MOESI or Dragon (`kind`).
#[derive(Debug)]
pub(crate) struct Snoop {
    kind: Protocol,
    lines: HolderMap,
}

impl Snoop {
    /// An empty machine (all lines uncached) for a snooping `kind`.
    pub fn new(kind: Protocol) -> Self {
        Snoop {
            kind,
            lines: HolderMap::default(),
        }
    }
}

impl CoherenceProtocol for Snoop {
    fn kind(&self) -> Protocol {
        self.kind
    }

    fn read_miss(&mut self, line: u64, proc: usize, txn: &mut CohTxn) {
        let e = self.lines.entry(line);
        let others = e.others(proc);
        e.holders |= 1u64 << proc;
        if others == 0 {
            e.owner = Some(proc as u8);
            e.owner_dirty = false;
            txn.install = LineState::Exclusive;
            return;
        }
        txn.install = LineState::Shared;
        let clean = self.kind.supplies_clean();
        let dirty_owner = e.owner.filter(|&o| o as usize != proc && e.owner_dirty);
        if let (Some(o), false) = (dirty_owner, clean) {
            // The dirty owner supplies and keeps the line (M -> O, or
            // Dragon's Sm); memory is not updated.
            txn.source = DataSource::CacheToCache { owner: o as usize };
            return;
        }
        if clean {
            // Illinois: some cache always supplies — the owner if one
            // exists, else the lowest-numbered clean sharer. A dirty
            // supply also writes home back.
            let supplier = match e.owner {
                Some(o) if o as usize != proc => o as usize,
                _ => others.trailing_zeros() as usize,
            };
            txn.source = DataSource::CacheToCache { owner: supplier };
            txn.memory_update = dirty_owner.is_some();
        } else if let Some(o) = e.owner.filter(|&o| o as usize != proc) {
            // Only clean copies exist: memory supplies, and a clean-E
            // holder loses exclusivity.
            txn.demote.push(o as usize);
        }
        // Either way every copy is now clean and shared.
        e.owner = None;
        e.owner_dirty = false;
    }

    fn write_miss(&mut self, line: u64, proc: usize, txn: &mut CohTxn) {
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

    fn evict(&mut self, line: u64, proc: usize) {
        self.lines.evict(line, proc);
    }

    fn silent_upgrade(&mut self, line: u64, proc: usize) {
        let e = self.lines.entry(line);
        e.holders |= 1u64 << proc;
        e.owner = Some(proc as u8);
        e.owner_dirty = true;
    }

    fn write_hits(&self, state: LineState) -> bool {
        matches!(state, LineState::Modified | LineState::Exclusive)
    }

    fn upgradeable(&self, state: LineState) -> bool {
        // A write to a shared copy needs only permission (or, in Dragon,
        // only the broadcast). MESI never holds a line `Owned`, so this
        // is its `Shared`-only rule too.
        matches!(state, LineState::Shared | LineState::Owned)
    }

    fn line_count(&self) -> usize {
        self.lines.line_count()
    }

    fn total_sharers(&self) -> usize {
        self.lines.total_sharers()
    }

    fn table_slots(&self) -> usize {
        self.lines.table_slots()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holder_map_evicts_and_counts() {
        let mut m = HolderMap::default();
        let e = m.entry(7);
        e.holders = 0b11;
        e.owner = Some(1);
        e.owner_dirty = true;
        assert_eq!(m.line_count(), 1);
        assert_eq!(m.total_sharers(), 2);
        m.evict(7, 1);
        let e = m.entry(7);
        assert_eq!(e.holders, 0b01, "still held by 0");
        assert_eq!(e.owner, None);
        assert!(!e.owner_dirty);
        m.evict(7, 0);
        assert_eq!(m.line_count(), 0);
    }

    mod mesi {
        use super::*;

        fn mesi() -> Snoop {
            Snoop::new(Protocol::Mesi)
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

        fn moesi() -> Snoop {
            Snoop::new(Protocol::Moesi)
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

        fn dragon() -> Snoop {
            Snoop::new(Protocol::Dragon)
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
