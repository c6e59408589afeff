//! Buses, interleaved memory banks and the 2-D mesh network.

use crate::config::{BusParams, MemParams, NetParams};
use crate::resource::{Resource, ResourcePool};
use mempar_ir::bank_of;

/// One node's memory banks.
#[derive(Debug, Clone)]
pub struct MemoryBanks {
    pool: ResourcePool,
    params: MemParams,
}

impl MemoryBanks {
    /// Builds the banks for one node.
    pub fn new(params: &MemParams) -> Self {
        MemoryBanks {
            pool: ResourcePool::new(params.banks),
            params: params.clone(),
        }
    }

    /// Reserves the bank that owns `line`; returns the access end time.
    pub fn access(&mut self, line: u64, at: u64) -> u64 {
        let bank = bank_of(line, self.params.banks, self.params.interleave);
        self.pool
            .reserve_unit(bank, at, self.params.bank_cycles as u64)
            + self.params.bank_cycles as u64
    }

    /// Aggregate utilization over `elapsed` cycles.
    pub fn utilization(&self, elapsed: u64) -> mempar_stats::Utilization {
        self.pool.utilization(elapsed)
    }

    /// Registers this node's bank utilization gauge under `name`.
    pub fn export_metrics(&self, name: &str, elapsed: u64, reg: &mut mempar_obs::MetricsRegistry) {
        reg.gauge(name, self.utilization(elapsed).fraction());
    }
}

/// A split-transaction bus with separate address and data channels:
/// the request (address) phase and the data (response) phase reserve
/// independent resources, so new requests slip in while earlier
/// transactions await their data — the defining property of a
/// split-transaction bus.
#[derive(Debug, Clone)]
pub struct Bus {
    addr_channel: Resource,
    data_channel: Resource,
    params: BusParams,
}

impl Bus {
    /// Builds a bus.
    pub fn new(params: &BusParams) -> Self {
        Bus {
            addr_channel: Resource::new(),
            data_channel: Resource::new(),
            params: params.clone(),
        }
    }

    /// Reserves the request phase starting no earlier than `at`;
    /// returns its end time.
    pub fn request(&mut self, at: u64) -> u64 {
        let dur = self.params.request_cycles() as u64;
        self.addr_channel.reserve(at, dur) + dur
    }

    /// Reserves a data transfer of `bytes`; returns its end time.
    pub fn data(&mut self, at: u64, bytes: u32) -> u64 {
        let dur = self.params.data_cycles(bytes) as u64;
        self.data_channel.reserve(at, dur) + dur
    }

    /// Utilization over `elapsed` cycles (data channel — the contended
    /// one; this is the ">85% bus utilization" measurement of §5.1).
    pub fn utilization(&self, elapsed: u64) -> mempar_stats::Utilization {
        self.data_channel.utilization(elapsed)
    }

    /// Registers this bus's data-channel utilization gauge under `name`.
    pub fn export_metrics(&self, name: &str, elapsed: u64, reg: &mut mempar_obs::MetricsRegistry) {
        reg.gauge(name, self.utilization(elapsed).fraction());
    }
}

/// A 2-D mesh with dimension-ordered (X then Y) routing and per-directed-
/// link occupancy.
///
/// Dimension-ordered routes are static, so the link sequence for every
/// (from, to) pair is computed once at construction and `send` just walks
/// a precomputed slice of link indices — no per-hop coordinate
/// arithmetic on the hot path. For the simulated machines this table is
/// tiny (a 4×4 mesh has 256 pairs of at most 6 hops).
#[derive(Debug, Clone)]
pub struct Mesh {
    side: usize,
    ni: u64,
    hop_lat: u64,
    cycle_ratio: u64,
    flit_bytes: u32,
    /// Directed links indexed by (from_node * 4 + direction).
    links: Vec<Resource>,
    /// `routes[route_off[from*n+to]..route_off[from*n+to+1]]` is the link
    /// index sequence from `from` to `to`, in traversal order.
    route_off: Vec<u32>,
    routes: Vec<u32>,
}

/// Directions for link indexing.
const EAST: usize = 0;
const WEST: usize = 1;
const NORTH: usize = 2;
const SOUTH: usize = 3;

impl Mesh {
    /// A `side x side` mesh.
    pub fn new(side: usize, params: &NetParams) -> Self {
        let n = side * side;
        let mut route_off = Vec::with_capacity(n * n + 1);
        let mut routes = Vec::new();
        route_off.push(0u32);
        for from in 0..n {
            for to in 0..n {
                let (mut x, mut y) = (from % side, from / side);
                let (x1, y1) = (to % side, to / side);
                while x != x1 {
                    let (dir, nx) = if x < x1 { (EAST, x + 1) } else { (WEST, x - 1) };
                    routes.push(((y * side + x) * 4 + dir) as u32);
                    x = nx;
                }
                while y != y1 {
                    let (dir, ny) = if y < y1 {
                        (SOUTH, y + 1)
                    } else {
                        (NORTH, y - 1)
                    };
                    routes.push(((y * side + x) * 4 + dir) as u32);
                    y = ny;
                }
                route_off.push(routes.len() as u32);
            }
        }
        Mesh {
            side,
            ni: params.ni_cycles as u64,
            hop_lat: (params.hop_cycles * params.cycle_ratio) as u64,
            cycle_ratio: params.cycle_ratio as u64,
            flit_bytes: params.flit_bytes,
            links: vec![Resource::new(); n * 4],
            route_off,
            routes,
        }
    }

    fn coords(&self, node: usize) -> (usize, usize) {
        (node % self.side, node / self.side)
    }

    /// Number of hops between two nodes (Manhattan distance).
    pub fn hops(&self, from: usize, to: usize) -> u64 {
        let (x0, y0) = self.coords(from);
        let (x1, y1) = self.coords(to);
        (x0.abs_diff(x1) + y0.abs_diff(y1)) as u64
    }

    /// Sends `bytes` from `from` to `to` starting at `at`; returns the
    /// arrival time (including NI latency on both ends).
    ///
    /// Each hop adds the per-hop latency; each traversed link is occupied
    /// for the message's serialization time, modeling wormhole-style
    /// bandwidth contention.
    pub fn send(&mut self, from: usize, to: usize, bytes: u32, at: u64) -> u64 {
        if from == to {
            return at + self.ni;
        }
        let flits = bytes.div_ceil(self.flit_bytes).max(1) as u64;
        let occupancy = flits * self.cycle_ratio;
        let pair = from * self.side * self.side + to;
        let mut t = at + self.ni;
        for i in self.route_off[pair] as usize..self.route_off[pair + 1] as usize {
            let link = self.routes[i] as usize;
            t = self.links[link].reserve(t, occupancy) + self.hop_lat;
        }
        // Tail serialization plus exit NI.
        t + occupancy + self.ni
    }

    /// Aggregate link utilization over `elapsed` cycles (summed over all
    /// directed links; the fraction is the mean per-link busy fraction).
    pub fn utilization(&self, elapsed: u64) -> mempar_stats::Utilization {
        let mut u = mempar_stats::Utilization::default();
        for l in &self.links {
            let x = l.utilization(elapsed);
            u.busy += x.busy;
            u.total += x.total;
        }
        u
    }

    /// Registers the mesh-link utilization gauge under `name`.
    pub fn export_metrics(&self, name: &str, elapsed: u64, reg: &mut mempar_obs::MetricsRegistry) {
        reg.gauge(name, self.utilization(elapsed).fraction());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempar_ir::Interleave;

    fn net() -> NetParams {
        NetParams {
            cycle_ratio: 2,
            flit_bytes: 8,
            hop_cycles: 2,
            ni_cycles: 8,
        }
    }

    #[test]
    fn banks_serialize_same_bank() {
        let mp = MemParams {
            banks: 4,
            bank_cycles: 10,
            interleave: Interleave::Sequential,
        };
        let mut b = MemoryBanks::new(&mp);
        let t1 = b.access(0, 0);
        let t2 = b.access(4, 0); // same bank (line 4 % 4 == 0)
        let t3 = b.access(1, 0); // different bank
        assert_eq!(t1, 10);
        assert_eq!(t2, 20);
        assert_eq!(t3, 10);
    }

    #[test]
    fn bus_phases_queue() {
        let bp = BusParams {
            cycle_ratio: 3,
            width_bytes: 32,
            addr_cycles: 1,
        };
        let mut bus = Bus::new(&bp);
        let r = bus.request(0);
        assert_eq!(r, 3);
        let r2 = bus.request(0); // queues on the address channel
        assert_eq!(r2, 6);
        let d = bus.data(0, 64); // independent data channel
        assert_eq!(d, 6);
        let d2 = bus.data(0, 64);
        assert_eq!(d2, 12);
    }

    #[test]
    fn mesh_hops_manhattan() {
        let m = Mesh::new(4, &net());
        assert_eq!(m.hops(0, 0), 0);
        assert_eq!(m.hops(0, 3), 3);
        assert_eq!(m.hops(0, 15), 6);
        assert_eq!(m.hops(5, 6), 1);
    }

    #[test]
    fn mesh_latency_grows_with_distance() {
        let mut m = Mesh::new(4, &net());
        let near = m.send(0, 1, 16, 0);
        let mut m2 = Mesh::new(4, &net());
        let far = m2.send(0, 15, 16, 0);
        assert!(far > near);
        // Local "send" is just NI latency.
        let mut m3 = Mesh::new(4, &net());
        assert_eq!(m3.send(2, 2, 16, 100), 108);
    }

    #[test]
    fn mesh_links_contend() {
        let mut m = Mesh::new(2, &net());
        let a = m.send(0, 1, 64, 0);
        let b = m.send(0, 1, 64, 0); // same link, queues
        assert!(b > a);
        let c = m.send(1, 0, 64, 0); // opposite direction: independent link
        assert_eq!(c, a);
    }
}
