//! Machine configuration (Table 1 of the paper, plus variants).

use mempar_ir::{HomePolicy, Interleave};

/// Parameters of one cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheParams {
    /// Total size in bytes.
    pub size_bytes: usize,
    /// Associativity (1 = direct mapped).
    pub assoc: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Hit latency in processor cycles.
    pub hit_latency: u32,
    /// Number of access ports (accepted accesses per cycle).
    pub ports: u32,
    /// Miss status holding registers (simultaneous outstanding misses).
    pub mshrs: usize,
}

impl CacheParams {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.assoc)
    }
}

/// Functional-unit counts and latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuParams {
    /// Integer ALUs.
    pub alus: u32,
    /// Floating-point units.
    pub fpus: u32,
    /// Address-generation units.
    pub addr_units: u32,
    /// Plain ALU / address-generation latency.
    pub int_latency: u32,
    /// Integer multiply/divide latency.
    pub int_mul_latency: u32,
    /// Common FP latency (add/mul).
    pub fp_latency: u32,
    /// FP divide latency.
    pub fp_div_latency: u32,
    /// FP square-root latency.
    pub fp_sqrt_latency: u32,
}

/// Processor core parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcParams {
    /// Clock in MHz (only used to convert cycles to nanoseconds).
    pub clock_mhz: u32,
    /// Fetch/decode/retire width.
    pub width: u32,
    /// Instruction window (reorder buffer) entries.
    pub window: usize,
    /// Memory queue entries (in-flight memory operations).
    pub mem_queue: usize,
    /// Maximum unresolved branches in the window.
    pub max_branches: usize,
    /// Functional units.
    pub fu: FuParams,
}

/// DRAM / memory-bank parameters (per node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemParams {
    /// Banks per node.
    pub banks: usize,
    /// Bank occupancy per access in processor cycles.
    pub bank_cycles: u32,
    /// Interleaving scheme across banks.
    pub interleave: Interleave,
}

/// Split-transaction bus parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusParams {
    /// Processor cycles per bus cycle (e.g. 3 for a 167 MHz bus under a
    /// 500 MHz core).
    pub cycle_ratio: u32,
    /// Bus width in bytes (per bus cycle).
    pub width_bytes: u32,
    /// Bus cycles for the address/request phase.
    pub addr_cycles: u32,
}

impl BusParams {
    /// Processor cycles to transfer `bytes` of data.
    pub fn data_cycles(&self, bytes: u32) -> u32 {
        bytes.div_ceil(self.width_bytes) * self.cycle_ratio
    }

    /// Processor cycles for the request phase.
    pub fn request_cycles(&self) -> u32 {
        self.addr_cycles * self.cycle_ratio
    }
}

/// 2-D mesh network parameters (CC-NUMA configurations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetParams {
    /// Processor cycles per network cycle (e.g. 2 for 250 MHz vs 500 MHz).
    pub cycle_ratio: u32,
    /// Link width in bytes per network cycle.
    pub flit_bytes: u32,
    /// Network cycles of latency per hop.
    pub hop_cycles: u32,
    /// Network-interface latency (processor cycles) on entry and exit.
    pub ni_cycles: u32,
}

/// System topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// CC-NUMA: one memory + directory per node, 2-D mesh between nodes.
    Numa,
    /// Bus-based SMP: one shared memory behind one shared bus
    /// (the Exemplar hypernode).
    SmpBus,
}

/// Full machine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Human-readable name for reports.
    pub name: String,
    /// Number of processors.
    pub nprocs: usize,
    /// Core parameters.
    pub proc: ProcParams,
    /// First-level data cache; `None` models single-level hierarchies
    /// (the PA-8000's one-level data cache).
    pub l1: Option<CacheParams>,
    /// Lowest-level (external-miss) cache. MSHR occupancy statistics are
    /// collected here, as in Figure 4.
    pub l2: CacheParams,
    /// Memory banks per node.
    pub mem: MemParams,
    /// Bus between L2 and memory.
    pub bus: BusParams,
    /// Mesh network (ignored for [`Topology::SmpBus`]).
    pub net: NetParams,
    /// NUMA or SMP organization.
    pub topology: Topology,
    /// Extra directory-access latency at the home node (cycles).
    pub dir_cycles: u32,
}

impl MachineConfig {
    /// The base simulated configuration of Table 1 (500 MHz, 4-wide,
    /// 64-entry window, 10 MSHRs at both cache levels, 64-byte lines).
    ///
    /// `l2_bytes` is per-application in the paper (64 KB for Erlebacher,
    /// FFT, LU and Mp3d; 1 MB for Em3d, MST and Ocean).
    pub fn base_simulated(nprocs: usize, l2_bytes: usize) -> Self {
        MachineConfig {
            name: format!("base-sim-{nprocs}p"),
            nprocs,
            proc: ProcParams {
                clock_mhz: 500,
                width: 4,
                window: 64,
                mem_queue: 32,
                max_branches: 16,
                fu: FuParams {
                    alus: 2,
                    fpus: 2,
                    addr_units: 2,
                    int_latency: 1,
                    int_mul_latency: 7,
                    fp_latency: 3,
                    fp_div_latency: 16,
                    fp_sqrt_latency: 33,
                },
            },
            l1: Some(CacheParams {
                size_bytes: 16 * 1024,
                assoc: 1,
                line_bytes: 64,
                hit_latency: 1,
                ports: 2,
                mshrs: 10,
            }),
            l2: CacheParams {
                size_bytes: l2_bytes,
                assoc: 4,
                line_bytes: 64,
                hit_latency: 10,
                ports: 1,
                mshrs: 10,
            },
            mem: MemParams {
                banks: 4,
                bank_cycles: 30,
                interleave: Interleave::Permutation,
            },
            bus: BusParams {
                cycle_ratio: 3,  // 167 MHz under 500 MHz
                width_bytes: 32, // 256 bits
                addr_cycles: 1,
            },
            net: NetParams {
                cycle_ratio: 2, // 250 MHz under 500 MHz
                flit_bytes: 8,  // 64 bits
                hop_cycles: 2,
                ni_cycles: 8,
            },
            topology: Topology::Numa,
            dir_cycles: 24,
        }
    }

    /// The 1 GHz variant of Section 5.2: the processor clock doubles while
    /// every memory/interconnect parameter stays identical in *nanoseconds*
    /// (so their values in processor cycles double).
    pub fn fast_1ghz(nprocs: usize, l2_bytes: usize) -> Self {
        let mut c = Self::base_simulated(nprocs, l2_bytes);
        c.name = format!("1ghz-sim-{nprocs}p");
        c.proc.clock_mhz = 1000;
        // Caches are on-chip: same cycle latencies. External components
        // keep their real-time latencies, doubling in processor cycles.
        c.mem.bank_cycles *= 2;
        c.bus.cycle_ratio *= 2;
        c.net.cycle_ratio *= 2;
        c.net.ni_cycles *= 2;
        c.dir_cycles *= 2;
        c
    }

    /// An Exemplar-like SMP node: 180 MHz PA-8000-style cores (4-wide,
    /// 56-entry window), single-level 1 MB direct-mapped data cache with
    /// 32-byte lines and 10 outstanding misses, skewed-interleaved shared
    /// memory behind a shared bus.
    pub fn exemplar(nprocs: usize) -> Self {
        MachineConfig {
            name: format!("exemplar-{nprocs}p"),
            nprocs,
            proc: ProcParams {
                clock_mhz: 180,
                width: 4,
                window: 56,
                mem_queue: 28,
                max_branches: 16,
                fu: FuParams {
                    alus: 2,
                    fpus: 2,
                    addr_units: 2,
                    int_latency: 1,
                    int_mul_latency: 7,
                    fp_latency: 3,
                    fp_div_latency: 17,
                    fp_sqrt_latency: 17,
                },
            },
            l1: None,
            l2: CacheParams {
                size_bytes: 1024 * 1024,
                assoc: 1,
                line_bytes: 32,
                hit_latency: 2,
                ports: 2,
                mshrs: 10,
            },
            mem: MemParams {
                banks: 8,
                bank_cycles: 50,
                interleave: Interleave::Skewed,
            },
            bus: BusParams {
                cycle_ratio: 2,
                width_bytes: 32,
                addr_cycles: 1,
            },
            net: NetParams {
                cycle_ratio: 2,
                flit_bytes: 8,
                hop_cycles: 2,
                ni_cycles: 8,
            },
            topology: Topology::SmpBus,
            dir_cycles: 8,
        }
    }

    /// Cycles → nanoseconds under this configuration's clock.
    pub fn cycles_to_ns(&self, cycles: f64) -> f64 {
        cycles * 1000.0 / self.proc.clock_mhz as f64
    }

    /// Mesh side length (smallest square covering `nprocs`).
    pub fn mesh_side(&self) -> usize {
        let mut s = 1;
        while s * s < self.nprocs {
            s += 1;
        }
        s
    }

    /// The line size the memory hierarchy operates on.
    pub fn line_bytes(&self) -> usize {
        self.l2.line_bytes
    }

    /// Where each array's pages live: block placement across the nodes
    /// of a CC-NUMA machine (the SPLASH convention), one central memory
    /// behind a bus-based SMP.
    pub fn home_policy(&self) -> HomePolicy {
        match self.topology {
            Topology::Numa => HomePolicy::BlockPerArray,
            Topology::SmpBus => HomePolicy::Centralized,
        }
    }

    /// Basic consistency checks.
    ///
    /// # Panics
    /// Panics when the configuration is internally inconsistent (e.g. L1
    /// line differs from L2 line — the model keeps one line size).
    pub fn validate(&self) {
        assert!(self.nprocs >= 1);
        if let Some(l1) = &self.l1 {
            assert_eq!(
                l1.line_bytes, self.l2.line_bytes,
                "one line size across the hierarchy"
            );
            assert!(l1.sets().is_power_of_two());
        }
        assert!(self.l2.sets().is_power_of_two());
        assert!(self.l2.line_bytes.is_power_of_two());
        assert!(self.mem.banks.is_power_of_two());
        assert!(self.proc.window >= self.proc.width as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_matches_table1() {
        let c = MachineConfig::base_simulated(16, 64 * 1024);
        c.validate();
        assert_eq!(c.proc.clock_mhz, 500);
        assert_eq!(c.proc.width, 4);
        assert_eq!(c.proc.window, 64);
        assert_eq!(c.proc.mem_queue, 32);
        let l1 = c.l1.as_ref().expect("base config has an L1");
        assert_eq!(l1.size_bytes, 16 * 1024);
        assert_eq!(l1.assoc, 1);
        assert_eq!(l1.mshrs, 10);
        assert_eq!(c.l2.assoc, 4);
        assert_eq!(c.l2.mshrs, 10);
        assert_eq!(c.l2.line_bytes, 64);
        assert_eq!(c.mem.banks, 4);
        assert_eq!(c.mem.interleave, Interleave::Permutation);
        assert_eq!(c.topology, Topology::Numa);
    }

    #[test]
    fn one_ghz_doubles_external_latencies() {
        let base = MachineConfig::base_simulated(1, 64 * 1024);
        let fast = MachineConfig::fast_1ghz(1, 64 * 1024);
        assert_eq!(fast.proc.clock_mhz, 1000);
        assert_eq!(fast.mem.bank_cycles, 2 * base.mem.bank_cycles);
        assert_eq!(fast.bus.cycle_ratio, 2 * base.bus.cycle_ratio);
        // Same real time per bank access.
        let t_base = base.cycles_to_ns(base.mem.bank_cycles as f64);
        let t_fast = fast.cycles_to_ns(fast.mem.bank_cycles as f64);
        assert!((t_base - t_fast).abs() < 1e-9);
    }

    #[test]
    fn exemplar_shape() {
        let c = MachineConfig::exemplar(8);
        c.validate();
        assert!(c.l1.is_none());
        assert_eq!(c.l2.line_bytes, 32);
        assert_eq!(c.l2.size_bytes, 1024 * 1024);
        assert_eq!(c.proc.window, 56);
        assert_eq!(c.topology, Topology::SmpBus);
        assert_eq!(c.mem.interleave, Interleave::Skewed);
    }

    #[test]
    fn bus_cycle_math() {
        let b = BusParams {
            cycle_ratio: 3,
            width_bytes: 32,
            addr_cycles: 1,
        };
        assert_eq!(b.request_cycles(), 3);
        assert_eq!(b.data_cycles(64), 6);
        assert_eq!(b.data_cycles(8), 3);
    }

    #[test]
    fn mesh_side_covers_procs() {
        for n in 1..=16 {
            let c = MachineConfig::base_simulated(n, 64 * 1024);
            let s = c.mesh_side();
            assert!(s * s >= n);
            assert!((s - 1) * (s - 1) < n);
        }
    }

    #[test]
    fn cache_sets() {
        let c = CacheParams {
            size_bytes: 16 * 1024,
            assoc: 1,
            line_bytes: 64,
            hit_latency: 1,
            ports: 2,
            mshrs: 10,
        };
        assert_eq!(c.sets(), 256);
    }
}
