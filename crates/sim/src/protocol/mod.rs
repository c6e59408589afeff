//! Cache-coherence protocols.
//!
//! The memory system ([`MemSystem`](crate::memsys::MemSystem)) owns the
//! *timing* of a miss — buses, directory/snoop latency, banks, mesh legs,
//! MSHRs — while the [`Coherence`] state machine decides what each
//! transaction does: where the data comes from, which remote copies are
//! invalidated or updated, and which [`LineState`] the requester
//! installs. Swapping the protocol never changes functional results or
//! the dynamic-op stream (functional execution happens at fetch, against
//! [`SimMem`](mempar_ir::SimMem)); it only moves cycles. The
//! cross-protocol conformance suite (`tests/oracle_matrix.rs`) asserts
//! exactly that.
//!
//! One machine serves the four [`Protocol`] values: the paper's CC-NUMA
//! full-map directory (MSI states, the default and the machine every
//! committed golden snapshot but the per-protocol ones uses) and the
//! snooping MESI, MOESI and Dragon. Their differences are four
//! properties of the enum — see the `machine` module.

mod machine;

use crate::cache::LineState;
pub use machine::Coherence;

/// Where a miss's data comes from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DataSource {
    /// Home memory (the line is uncached, or only clean copies exist and
    /// the protocol does not supply clean data cache-to-cache).
    #[default]
    Memory,
    /// Another processor's cache supplies the line.
    CacheToCache {
        /// The supplying processor.
        owner: usize,
    },
}

/// Which coherence protocol drives the memory system — selectable per
/// run via [`SimOptions::protocol`](crate::SimOptions::protocol) and the
/// harness binaries' `--protocol` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// CC-NUMA full-map directory, MSI states (the paper's machine; the
    /// default).
    Directory,
    /// Snooping Illinois-MESI (clean cache-to-cache supply).
    Mesi,
    /// Snooping MOESI (dirty-shared `Owned` state, no writeback on
    /// sharing).
    Moesi,
    /// Snooping Dragon write-update (bus updates instead of
    /// invalidations).
    Dragon,
}

impl Protocol {
    /// Every protocol, in CLI order.
    pub fn all() -> [Protocol; 4] {
        [
            Protocol::Directory,
            Protocol::Mesi,
            Protocol::Moesi,
            Protocol::Dragon,
        ]
    }

    /// Whether a read that finds no other holder installs `Exclusive`,
    /// so a later write completes silently (MESI, MOESI, Dragon).
    /// Otherwise every read installs `Shared` (the MSI directory).
    pub fn installs_exclusive(self) -> bool {
        self != Protocol::Directory
    }

    /// Whether a dirty owner that supplies a read keeps the line `Owned`,
    /// with memory stale (MOESI, Dragon). Otherwise the supply writes
    /// home back and the owner drops to `Shared` (directory, MESI).
    pub fn keeps_owned(self) -> bool {
        matches!(self, Protocol::Moesi | Protocol::Dragon)
    }

    /// Whether a clean copy answers a read snoop (Illinois-MESI): any
    /// holder supplies a read. Otherwise only a dirty owner supplies,
    /// and a read that finds only clean copies is served by memory.
    pub fn supplies_clean(self) -> bool {
        self == Protocol::Mesi
    }

    /// Whether writes update the other holders instead of invalidating
    /// them (Dragon).
    pub fn updates_on_write(self) -> bool {
        self == Protocol::Dragon
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Protocol::Directory => "directory",
            Protocol::Mesi => "mesi",
            Protocol::Moesi => "moesi",
            Protocol::Dragon => "dragon",
        })
    }
}

impl std::str::FromStr for Protocol {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "directory" => Ok(Protocol::Directory),
            "mesi" => Ok(Protocol::Mesi),
            "moesi" => Ok(Protocol::Moesi),
            "dragon" => Ok(Protocol::Dragon),
            other => Err(format!(
                "unknown protocol '{other}' (expected directory, mesi, moesi, or dragon)"
            )),
        }
    }
}

/// A pooled coherence-transaction buffer.
///
/// The memory system owns one and threads it through every
/// `Coherence::read_miss` / `Coherence::write_miss` call, so the
/// per-request answer — including the invalidee/updatee/demote lists —
/// reuses the same three `Vec` allocations for the whole run instead of
/// allocating fresh outcome structs per miss. [`CohTxn::reset`] clears the lists but
/// keeps their capacity; after warm-up the steady state allocates
/// nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CohTxn {
    /// Where the data comes from.
    pub source: DataSource,
    /// Whether home memory is updated as part of this transaction (a
    /// dirty supplier writing back while downgrading). The memory system
    /// charges writeback bank bandwidth and downgrades the supplier to
    /// `Shared` when set; a cache-to-cache supply without it leaves a
    /// dirty supplier `Owned`. Only meaningful for reads.
    pub memory_update: bool,
    /// The state the requester's L2 installs at fill time.
    pub install: LineState,
    /// Processors whose copies are invalidated, ascending. Order is
    /// timing-visible: the memory system reserves mesh links in list
    /// order.
    pub invalidees: Vec<usize>,
    /// Processors whose copies receive the written word instead
    /// (write-update protocols), ascending; their lines stay valid but
    /// any exclusive/dirty holder drops to `Shared`.
    pub updatees: Vec<usize>,
    /// Processors whose clean-`Exclusive` copies drop to `Shared`,
    /// ascending. Only meaningful for memory-sourced reads.
    pub demote: Vec<usize>,
}

impl CohTxn {
    /// Clears the buffer for reuse, keeping list capacity. Callers must
    /// reset before every `read_miss`/`write_miss` — the machine only
    /// writes the fields an outcome uses.
    pub fn reset(&mut self) {
        self.source = DataSource::Memory;
        self.memory_update = false;
        self.install = LineState::Invalid;
        self.invalidees.clear();
        self.updatees.clear();
        self.demote.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_round_trips_display_fromstr() {
        for p in Protocol::all() {
            assert_eq!(p.to_string().parse::<Protocol>(), Ok(p));
        }
        assert!("mosi".parse::<Protocol>().is_err());
        assert_eq!("MESI".parse::<Protocol>(), Ok(Protocol::Mesi));
    }

    #[test]
    fn properties_select_the_protocols() {
        // (protocol, installs_exclusive, keeps_owned, supplies_clean,
        // updates_on_write)
        let table = [
            (Protocol::Directory, false, false, false, false),
            (Protocol::Mesi, true, false, true, false),
            (Protocol::Moesi, true, true, false, false),
            (Protocol::Dragon, true, true, false, true),
        ];
        assert_eq!(table.map(|row| row.0), Protocol::all());
        for (p, exclusive, owned, clean, update) in table {
            assert_eq!(
                (
                    p.installs_exclusive(),
                    p.keeps_owned(),
                    p.supplies_clean(),
                    p.updates_on_write()
                ),
                (exclusive, owned, clean, update),
                "{p}"
            );
        }
    }
}
