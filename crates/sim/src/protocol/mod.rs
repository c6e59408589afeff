//! Pluggable cache-coherence protocols.
//!
//! The memory system ([`MemSystem`](crate::memsys::MemSystem)) owns the
//! *timing* of a miss — buses, directory/snoop latency, banks, mesh legs,
//! MSHRs — while a [`CoherenceProtocol`] is the *state machine* deciding
//! what each transaction does: where the data comes from, which remote
//! copies are invalidated or updated, and which [`LineState`] the
//! requester installs. Swapping the protocol never changes functional
//! results or the dynamic-op stream (functional execution happens at
//! fetch, against [`SimMem`](mempar_ir::SimMem)); it only moves cycles.
//! The cross-protocol conformance suite (`tests/oracle_matrix.rs`)
//! asserts exactly that.
//!
//! Two state machines serve the four [`Protocol`] values:
//!
//! * **Directory** — the paper's CC-NUMA full-map directory (MSI states),
//!   the default and the machine every committed golden snapshot uses;
//! * **MESI, MOESI, Dragon** — one snooping machine with `Exclusive`
//!   (silent `E → M` write hits) and `Owned`, whose two differences are
//!   properties of the enum: [`Protocol::supplies_clean`] (MESI) and
//!   [`Protocol::updates_on_write`] (Dragon). See the `snoop` module.

mod snoop;

use crate::cache::LineState;
use crate::directory::Directory;
use snoop::Snoop;

/// Where a miss's data comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataSource {
    /// Home memory (the line is uncached, or only clean copies exist and
    /// the protocol does not supply clean data cache-to-cache).
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

    /// Builds a fresh state machine for this protocol.
    pub fn build(self) -> Box<dyn CoherenceProtocol> {
        match self {
            Protocol::Directory => Box::new(Directory::new()),
            snooping => Box::new(Snoop::new(snooping)),
        }
    }

    /// Whether a clean copy answers a read snoop (Illinois-MESI): any
    /// holder supplies a read, and a dirty supply writes home back.
    /// Otherwise only a dirty owner supplies, and it keeps the line
    /// `Owned` with memory stale (MOESI, Dragon).
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
/// The memory system owns one and threads it through every protocol
/// call ([`CoherenceProtocol::read_miss`] /
/// [`CoherenceProtocol::write_miss`]), so the per-request answer —
/// including the invalidee/updatee/demote lists — reuses the same three
/// `Vec` allocations for the whole run instead of allocating fresh
/// outcome structs per miss. [`CohTxn::reset`] clears the lists but
/// keeps their capacity; after warm-up the steady state allocates
/// nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
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

impl Default for CohTxn {
    fn default() -> Self {
        CohTxn {
            source: DataSource::Memory,
            memory_update: false,
            install: LineState::Invalid,
            invalidees: Vec::new(),
            updatees: Vec::new(),
            demote: Vec::new(),
        }
    }
}

impl CohTxn {
    /// Clears the buffer for reuse, keeping list capacity. Callers must
    /// reset before every `read_miss`/`write_miss` — implementations
    /// only write the fields they use.
    pub fn reset(&mut self) {
        self.source = DataSource::Memory;
        self.memory_update = false;
        self.install = LineState::Invalid;
        self.invalidees.clear();
        self.updatees.clear();
        self.demote.clear();
    }
}

/// A cache-coherence state machine.
///
/// Implementations are *oracles*: they track, per line, which processors
/// hold a copy and who is responsible for supplying it, mirroring what a
/// real directory or the union of snoop filters would know. The memory
/// system calls them at transaction-issue time and applies the returned
/// outcome to the tag arrays (timing model) itself.
pub trait CoherenceProtocol: Send + std::fmt::Debug {
    /// Which protocol this is.
    fn kind(&self) -> Protocol;

    /// Handles a read miss by `proc` on `line`, writing the outcome into
    /// the caller's pooled buffer. `txn` arrives [reset](CohTxn::reset);
    /// implementations fill only the fields they use. Any processor
    /// lists must be pushed in ascending order (their order is
    /// timing-visible — see [`CohTxn::invalidees`]).
    fn read_miss(&mut self, line: u64, proc: usize, txn: &mut CohTxn);

    /// Handles a write miss or upgrade by `proc` on `line`, writing the
    /// outcome into the caller's pooled buffer (same contract as
    /// [`CoherenceProtocol::read_miss`]).
    fn write_miss(&mut self, line: u64, proc: usize, txn: &mut CohTxn);

    /// Handles a read miss in a freshly allocated transaction — the
    /// convenience form of [`CoherenceProtocol::read_miss`] for tests
    /// and tools; the simulator's hot path uses the pooled form.
    fn read_req(&mut self, line: u64, proc: usize) -> CohTxn {
        let mut txn = CohTxn::default();
        self.read_miss(line, proc, &mut txn);
        txn
    }

    /// Handles a write miss or upgrade in a freshly allocated
    /// transaction (convenience form of [`CoherenceProtocol::write_miss`]).
    fn write_req(&mut self, line: u64, proc: usize) -> CohTxn {
        let mut txn = CohTxn::default();
        self.write_miss(line, proc, &mut txn);
        txn
    }

    /// Records that `proc` evicted its copy of `line`.
    fn evict(&mut self, line: u64, proc: usize);

    /// Notification that `proc` wrote a line it held clean-`Exclusive`:
    /// the silent `E → M` transition needs no bus transaction, but the
    /// oracle must learn the copy is now dirty.
    fn silent_upgrade(&mut self, line: u64, proc: usize);

    /// L2 states in which a write completes without any global
    /// transaction (`Modified` everywhere; also `Exclusive` for the
    /// silent-upgrade protocols).
    fn write_hits(&self, state: LineState) -> bool;

    /// L2 states from which a write needs only permission, not data —
    /// the no-data upgrade (or update) timing path.
    fn upgradeable(&self, state: LineState) -> bool;

    /// Number of lines with live protocol state.
    fn line_count(&self) -> usize;

    /// Total holder population across all tracked lines.
    fn total_sharers(&self) -> usize;

    /// Slot capacity of the backing line table (for occupancy gauges).
    fn table_slots(&self) -> usize;

    /// Registers end-of-run protocol population gauges, including the
    /// backing table's size and load factor (`sim.coh.table.*`).
    fn export_metrics(&self, reg: &mut mempar_obs::MetricsRegistry) {
        let (lines, slots) = (self.line_count(), self.table_slots());
        reg.gauge("sim.coh.lines", lines as f64);
        reg.gauge("sim.coh.sharers", self.total_sharers() as f64);
        reg.gauge("sim.coh.table.slots", slots as f64);
        reg.gauge("sim.coh.table.load", lines as f64 / slots.max(1) as f64);
    }
}

/// Pushes the processors set in `mask` onto `out`, lowest first —
/// ascending order is load-bearing (see [`CohTxn::invalidees`]).
pub(crate) fn push_mask_procs(mask: u64, out: &mut Vec<usize>) {
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
    fn protocol_round_trips_display_fromstr() {
        for p in Protocol::all() {
            assert_eq!(p.to_string().parse::<Protocol>(), Ok(p));
        }
        assert!("mosi".parse::<Protocol>().is_err());
        assert_eq!("MESI".parse::<Protocol>(), Ok(Protocol::Mesi));
    }

    #[test]
    fn build_matches_kind() {
        for p in Protocol::all() {
            assert_eq!(p.build().kind(), p);
        }
    }

    #[test]
    fn properties_select_the_snooping_protocols() {
        let pick = |f: fn(Protocol) -> bool| -> Vec<Protocol> {
            Protocol::all().into_iter().filter(|&p| f(p)).collect()
        };
        assert_eq!(pick(Protocol::supplies_clean), vec![Protocol::Mesi]);
        assert_eq!(pick(Protocol::updates_on_write), vec![Protocol::Dragon]);
    }

    #[test]
    fn push_mask_procs_orders_low_first() {
        let mut v = Vec::new();
        push_mask_procs(0, &mut v);
        assert_eq!(v, Vec::<usize>::new());
        push_mask_procs(0b1011, &mut v);
        assert_eq!(v, vec![0, 1, 3]);
    }
}
