//! Full-map directory coherence state.
//!
//! One logical directory tracks, per cache line, which processors hold it
//! and whether one of them owns it exclusively. The timing of the
//! resulting message exchanges is modeled by the caller
//! ([`MemSystem`](crate::memsys::MemSystem)); this module is the protocol
//! state machine.

use crate::cache::LineState;
use crate::linetable::LineTable;
use crate::protocol::{push_mask_procs, CohTxn, CoherenceProtocol, DataSource, Protocol};

/// Directory record for one line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct DirEntry {
    /// Bitmask of sharers.
    sharers: u64,
    /// Exclusive owner, if the line is modified in a cache.
    owner: Option<u8>,
}

/// Full-map directory.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    entries: LineTable<DirEntry>,
}

impl Directory {
    /// An empty directory (all lines uncached).
    pub fn new() -> Self {
        Self::default()
    }
}

/// The MSI directory: every cache-to-cache read supply also writes
/// memory back (downgrading the owner to sharer), fills install
/// `Shared`/`Modified` only, and `Exclusive` is never used, so a write
/// to a present line always takes a transaction unless the line is
/// already `Modified`.
impl CoherenceProtocol for Directory {
    fn kind(&self) -> Protocol {
        Protocol::Directory
    }

    /// A modified owner supplies the line and is downgraded to sharer.
    fn read_miss(&mut self, line: u64, proc: usize, txn: &mut CohTxn) {
        let e = self.entries.entry(line);
        txn.source = match e.owner {
            Some(o) if o as usize != proc => DataSource::CacheToCache { owner: o as usize },
            _ => DataSource::Memory,
        };
        if let Some(o) = e.owner.take() {
            e.sharers |= 1 << o;
        }
        e.sharers |= 1 << proc;
        // The paper's directory keeps memory current: a dirty owner
        // supplying a read writes home back in the same transaction.
        txn.memory_update = matches!(txn.source, DataSource::CacheToCache { .. });
        txn.install = LineState::Shared;
    }

    fn write_miss(&mut self, line: u64, proc: usize, txn: &mut CohTxn) {
        let e = self.entries.entry(line);
        txn.source = match e.owner {
            Some(o) if o as usize != proc => DataSource::CacheToCache { owner: o as usize },
            _ => DataSource::Memory,
        };
        push_mask_procs(e.sharers & !(1u64 << proc), &mut txn.invalidees);
        if let Some(o) = e.owner {
            // Append the owner unless it is the requester or already in
            // the list via the sharer mask (it never is in MSI, where
            // owner and sharers are exclusive — this mirrors the
            // belt-and-braces `contains` check the list-building loop
            // used to do).
            if o as usize != proc && e.sharers & (1u64 << o) == 0 {
                txn.invalidees.push(o as usize);
            }
        }
        e.sharers = 0;
        e.owner = Some(proc as u8);
        txn.install = LineState::Modified;
    }

    fn evict(&mut self, line: u64, proc: usize) {
        if let Some(e) = self.entries.get_mut(line) {
            e.sharers &= !(1u64 << proc);
            if e.owner == Some(proc as u8) {
                e.owner = None;
            }
            if e.sharers == 0 && e.owner.is_none() {
                self.entries.remove(line);
            }
        }
    }

    fn silent_upgrade(&mut self, _line: u64, _proc: usize) {
        // MSI has no Exclusive state; writes to Modified lines are
        // already owned and need no notification.
    }

    fn write_hits(&self, state: LineState) -> bool {
        state == LineState::Modified
    }

    fn upgradeable(&self, state: LineState) -> bool {
        state == LineState::Shared
    }

    fn line_count(&self) -> usize {
        self.entries.len()
    }

    /// Sharer-list population, exclusive owners included.
    fn total_sharers(&self) -> usize {
        self.entries
            .values()
            .map(|e| e.sharers.count_ones() as usize + usize::from(e.owner.is_some()))
            .sum()
    }

    fn table_slots(&self) -> usize {
        self.entries.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_read_comes_from_memory() {
        let mut d = Directory::new();
        let r = d.read_req(10, 0);
        assert_eq!(r.source, DataSource::Memory);
        assert!(!r.memory_update);
        assert_eq!(r.install, LineState::Shared);
        assert_eq!((d.line_count(), d.total_sharers()), (1, 1));
    }

    #[test]
    fn second_reader_shares() {
        let mut d = Directory::new();
        d.read_req(10, 0);
        assert_eq!(d.read_req(10, 1).source, DataSource::Memory);
        assert_eq!((d.line_count(), d.total_sharers()), (1, 2));
    }

    #[test]
    fn read_of_modified_line_is_c2c_and_downgrades() {
        let mut d = Directory::new();
        assert_eq!(d.write_req(10, 2).install, LineState::Modified);
        let r = d.read_req(10, 0);
        assert_eq!(r.source, DataSource::CacheToCache { owner: 2 });
        assert!(r.memory_update, "a dirty supply writes home back");
        assert_eq!(d.total_sharers(), 2);
        // The old owner is now a plain sharer: a write finds no owner to
        // supply and invalidates both copies.
        let w = d.write_req(10, 3);
        assert_eq!(w.source, DataSource::Memory);
        assert_eq!(w.invalidees, vec![0, 2]);
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut d = Directory::new();
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
        let mut d = Directory::new();
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
        let mut d = Directory::new();
        d.write_req(10, 1);
        let g = d.write_req(10, 1);
        assert!(g.invalidees.is_empty());
        assert_eq!(g.source, DataSource::Memory);
    }

    #[test]
    fn eviction_clears_state() {
        let mut d = Directory::new();
        d.read_req(10, 0);
        d.evict(10, 0);
        assert_eq!((d.line_count(), d.total_sharers()), (0, 0));
        d.write_req(11, 5);
        d.evict(11, 5);
        assert_eq!((d.line_count(), d.total_sharers()), (0, 0));
        assert_eq!(d.read_req(11, 0).source, DataSource::Memory);
    }
}
