//! The simulated flat address space in which a program's arrays live.

use crate::program::{ArrayId, ElemType, Program, ELEM_BYTES};

/// Page size used for NUMA home-node assignment.
pub const PAGE_BYTES: u64 = 4096;

/// Alignment of array base addresses (covers any cache-line size we model).
const ARRAY_ALIGN: u64 = 256;

/// Initial contents for one array.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayData {
    /// All elements zero.
    Zero,
    /// Explicit doubles.
    F64(Vec<f64>),
    /// Explicit integers.
    I64(Vec<i64>),
}

impl ArrayData {
    /// `n` copies of `v`.
    pub fn f64_fill(n: usize, v: f64) -> Self {
        ArrayData::F64(vec![v; n])
    }

    /// Number of elements provided (`None` for [`ArrayData::Zero`], which
    /// adapts to the declared size).
    pub fn len(&self) -> Option<usize> {
        match self {
            ArrayData::Zero => None,
            ArrayData::F64(v) => Some(v.len()),
            ArrayData::I64(v) => Some(v.len()),
        }
    }

    /// True when explicitly empty.
    pub fn is_empty(&self) -> bool {
        self.len() == Some(0)
    }
}

/// How simulated pages are assigned home nodes in a multiprocessor run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HomePolicy {
    /// Each array is split into `nprocs` contiguous chunks; chunk `p` is
    /// homed at node `p`. Mirrors the block data placement the SPLASH-2
    /// codes use so that block-distributed loops touch mostly local data.
    #[default]
    BlockPerArray,
    /// Everything homed at node 0 (an SMP with one memory, or the Exemplar
    /// hypernode where placement is not distinguished).
    Centralized,
}

#[derive(Debug, Clone)]
struct Region {
    base: u64,
    bytes: u64,
}

/// The simulated memory: array layout plus functional contents.
///
/// Addresses handed to the timing simulator come from this layout, so
/// cache indexing, bank interleaving and NUMA homing all see realistic
/// address streams.
#[derive(Debug, Clone)]
pub struct SimMem {
    regions: Vec<Region>,
    /// Raw 8-byte cells, indexed by address / 8.
    data: Vec<u64>,
    elem_types: Vec<ElemType>,
    nprocs: usize,
    policy: HomePolicy,
    total_bytes: u64,
}

impl SimMem {
    /// Lays out every array of `prog` and zero-initializes contents.
    pub fn new(prog: &Program, nprocs: usize) -> Self {
        Self::with_policy(prog, nprocs, HomePolicy::default())
    }

    /// Lays out with an explicit NUMA policy.
    pub fn with_policy(prog: &Program, nprocs: usize, policy: HomePolicy) -> Self {
        assert!(nprocs >= 1, "need at least one processor");
        let mut regions = Vec::with_capacity(prog.arrays.len());
        // Leave page 0 unused so that address 0 can act as a null pointer.
        let mut cursor = PAGE_BYTES;
        for a in &prog.arrays {
            let base = round_up(cursor, ARRAY_ALIGN);
            let bytes = a.byte_len();
            regions.push(Region { base, bytes });
            cursor = base + bytes;
        }
        let total_bytes = round_up(cursor, ELEM_BYTES);
        SimMem {
            regions,
            data: vec![0u64; (total_bytes / ELEM_BYTES) as usize],
            elem_types: prog.arrays.iter().map(|a| a.elem).collect(),
            nprocs,
            policy,
            total_bytes,
        }
    }

    /// Number of processors this layout was built for.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Total simulated bytes laid out.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Base address of array `a`.
    pub fn base(&self, a: ArrayId) -> u64 {
        self.regions[a.index()].base
    }

    /// Sets the contents of array `a`.
    ///
    /// # Panics
    /// Panics when the provided data's length does not match the declared
    /// array size, or its type does not match the declaration.
    pub fn set_array(&mut self, a: ArrayId, data: ArrayData) {
        let region = self.regions[a.index()].clone();
        let n = (region.bytes / ELEM_BYTES) as usize;
        let start = (region.base / ELEM_BYTES) as usize;
        match data {
            ArrayData::Zero => {
                self.data[start..start + n].fill(0);
            }
            ArrayData::F64(v) => {
                assert_eq!(v.len(), n, "f64 data length mismatch for array");
                assert_eq!(
                    self.elem_types[a.index()],
                    ElemType::F64,
                    "array declared integer but given f64 data"
                );
                for (i, x) in v.into_iter().enumerate() {
                    self.data[start + i] = x.to_bits();
                }
            }
            ArrayData::I64(v) => {
                assert_eq!(v.len(), n, "i64 data length mismatch for array");
                for (i, x) in v.into_iter().enumerate() {
                    self.data[start + i] = x as u64;
                }
            }
        }
    }

    /// Reads the raw 8-byte cell at `addr`.
    ///
    /// # Panics
    /// Panics on unaligned or out-of-range addresses.
    pub fn load_bits(&self, addr: u64) -> u64 {
        debug_assert_eq!(addr % ELEM_BYTES, 0, "unaligned load at {addr:#x}");
        self.data[(addr / ELEM_BYTES) as usize]
    }

    /// Writes the raw 8-byte cell at `addr`.
    pub fn store_bits(&mut self, addr: u64, bits: u64) {
        debug_assert_eq!(addr % ELEM_BYTES, 0, "unaligned store at {addr:#x}");
        self.data[(addr / ELEM_BYTES) as usize] = bits;
    }

    /// Element address of `a[flat_index]`.
    pub fn elem_addr(&self, a: ArrayId, flat_index: u64) -> u64 {
        let r = &self.regions[a.index()];
        let addr = r.base + flat_index * ELEM_BYTES;
        debug_assert!(
            addr < r.base + r.bytes,
            "index {flat_index} out of bounds for array at {:#x}",
            r.base
        );
        addr
    }

    /// Reads array `a` back as doubles (for result verification).
    pub fn read_f64(&self, a: ArrayId) -> Vec<f64> {
        let r = &self.regions[a.index()];
        let start = (r.base / ELEM_BYTES) as usize;
        let n = (r.bytes / ELEM_BYTES) as usize;
        self.data[start..start + n]
            .iter()
            .map(|&b| f64::from_bits(b))
            .collect()
    }

    /// Reads array `a` back as integers.
    pub fn read_i64(&self, a: ArrayId) -> Vec<i64> {
        let r = &self.regions[a.index()];
        let start = (r.base / ELEM_BYTES) as usize;
        let n = (r.bytes / ELEM_BYTES) as usize;
        self.data[start..start + n]
            .iter()
            .map(|&b| b as i64)
            .collect()
    }

    /// A fingerprint of the whole memory image — used by the semantic
    /// equivalence tests (transformed programs must produce the same image).
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over the raw cells.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &cell in &self.data {
            for byte in cell.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }

    /// The array containing `addr`, if any (used by the miss-rate
    /// profiler to attribute cache misses to arrays).
    pub fn array_of_addr(&self, addr: u64) -> Option<crate::program::ArrayId> {
        let idx = match self.regions.binary_search_by(|r| r.base.cmp(&addr)) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let r = &self.regions[idx];
        if addr < r.base + r.bytes {
            Some(crate::program::ArrayId::from_raw(idx as u32))
        } else {
            None
        }
    }

    /// Extracts a cheap, standalone copy of the NUMA home mapping
    /// (policy + region table, no data) for use by the timing simulator.
    pub fn home_map(&self) -> HomeMap {
        HomeMap {
            regions: self.regions.iter().map(|r| (r.base, r.bytes)).collect(),
            nprocs: self.nprocs,
            policy: self.policy,
        }
    }
}

/// Memory-bank interleaving scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interleave {
    /// Sequential: bank = line mod banks.
    Sequential,
    /// Permutation-based (Sohi): XOR-fold of the line address, supporting
    /// a wide variety of strides (the simulated system of the paper).
    Permutation,
    /// Skewed (Harper & Jump): bank = (line + line/banks) mod banks
    /// (the Convex Exemplar's memory).
    Skewed,
}

/// Selects the memory bank for a line address.
///
/// The simulated system uses permutation-based interleaving (Sohi) to
/// spread strided streams over banks; the Exemplar uses a skewed scheme
/// (Harper & Jump). The simulator's banks and the transformation driver's
/// bank-conflict estimate both call this one function.
pub fn bank_of(line: u64, banks: usize, scheme: Interleave) -> usize {
    debug_assert!(banks.is_power_of_two());
    let mask = (banks - 1) as u64;
    let b = match scheme {
        Interleave::Sequential => line & mask,
        Interleave::Permutation => {
            let s = banks.trailing_zeros();
            (line ^ (line >> s) ^ (line >> (2 * s)) ^ (line >> (3 * s))) & mask
        }
        Interleave::Skewed => (line + (line >> banks.trailing_zeros())) & mask,
    };
    b as usize
}

fn round_up(x: u64, align: u64) -> u64 {
    x.div_ceil(align) * align
}

/// A standalone copy of a [`SimMem`]'s NUMA home mapping.
#[derive(Debug, Clone)]
pub struct HomeMap {
    regions: Vec<(u64, u64)>,
    nprocs: usize,
    policy: HomePolicy,
}

impl HomeMap {
    /// The NUMA home node of `addr` under the originating layout's
    /// policy.
    pub fn home_node(&self, addr: u64) -> usize {
        if self.nprocs == 1 {
            return 0;
        }
        match self.policy {
            HomePolicy::Centralized => 0,
            HomePolicy::BlockPerArray => {
                let idx = match self.regions.binary_search_by(|&(b, _)| b.cmp(&addr)) {
                    Ok(i) => i,
                    Err(0) => return 0,
                    Err(i) => i - 1,
                };
                let (base, bytes) = self.regions[idx];
                if addr >= base + bytes {
                    return 0;
                }
                let chunk = (bytes / self.nprocs as u64).max(PAGE_BYTES);
                (((addr - base) / chunk) as usize).min(self.nprocs - 1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ArrayDecl, Program};

    fn prog_with_arrays(dims: &[&[usize]]) -> Program {
        Program {
            name: "t".into(),
            arrays: dims
                .iter()
                .enumerate()
                .map(|(i, d)| ArrayDecl {
                    name: format!("a{i}"),
                    dims: d.to_vec(),
                    elem: ElemType::F64,
                })
                .collect(),
            ..Program::default()
        }
    }

    #[test]
    fn layout_is_aligned_and_disjoint() {
        let p = prog_with_arrays(&[&[10], &[3, 7], &[100]]);
        let m = SimMem::new(&p, 1);
        let mut prev_end = 0;
        for i in 0..3 {
            let a = ArrayId::from_raw(i);
            let base = m.base(a);
            assert_eq!(base % ARRAY_ALIGN, 0);
            assert!(base >= prev_end);
            prev_end = base + p.array(a).byte_len();
        }
        assert!(m.total_bytes() >= prev_end);
    }

    #[test]
    fn store_load_roundtrip() {
        let p = prog_with_arrays(&[&[4]]);
        let mut m = SimMem::new(&p, 1);
        let a = ArrayId::from_raw(0);
        m.set_array(a, ArrayData::F64(vec![1.0, 2.0, 3.0, 4.0]));
        let addr = m.elem_addr(a, 2);
        assert_eq!(f64::from_bits(m.load_bits(addr)), 3.0);
        m.store_bits(addr, 9.5f64.to_bits());
        assert_eq!(m.read_f64(a), vec![1.0, 2.0, 9.5, 4.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_array_length_checked() {
        let p = prog_with_arrays(&[&[4]]);
        let mut m = SimMem::new(&p, 1);
        m.set_array(ArrayId::from_raw(0), ArrayData::F64(vec![1.0]));
    }

    #[test]
    fn fingerprint_sensitive_to_contents() {
        let p = prog_with_arrays(&[&[8]]);
        let mut m1 = SimMem::new(&p, 1);
        let m2 = m1.clone();
        assert_eq!(m1.fingerprint(), m2.fingerprint());
        m1.store_bits(m1.elem_addr(ArrayId::from_raw(0), 0), 1);
        assert_ne!(m1.fingerprint(), m2.fingerprint());
    }

    #[test]
    fn home_block_per_array_splits_evenly() {
        let p = prog_with_arrays(&[&[1 << 16]]); // 512 KB
        let m = SimMem::with_policy(&p, 4, HomePolicy::BlockPerArray);
        let home = m.home_map();
        let a = ArrayId::from_raw(0);
        let first = home.home_node(m.elem_addr(a, 0));
        let last = home.home_node(m.elem_addr(a, (1 << 16) - 1));
        assert_eq!(first, 0);
        assert_eq!(last, 3);
        // Monotone nondecreasing across the array.
        let mut prev = 0;
        for i in (0..(1 << 16)).step_by(997) {
            let h = home.home_node(m.elem_addr(a, i));
            assert!(h >= prev);
            prev = h;
        }
    }

    #[test]
    fn bank_selection_covers_all_banks() {
        for scheme in [
            Interleave::Sequential,
            Interleave::Permutation,
            Interleave::Skewed,
        ] {
            let mut seen = [false; 4];
            for line in 0..64u64 {
                seen[bank_of(line, 4, scheme)] = true;
            }
            assert!(seen.iter().all(|&s| s), "{scheme:?} misses banks");
        }
    }

    #[test]
    fn permutation_spreads_power_of_two_strides() {
        // Stride of exactly `banks` lines hits one bank under sequential
        // interleaving but multiple banks under permutation.
        let banks = 4;
        let seq: std::collections::HashSet<_> = (0..16u64)
            .map(|i| bank_of(i * banks as u64, banks, Interleave::Sequential))
            .collect();
        let perm: std::collections::HashSet<_> = (0..16u64)
            .map(|i| bank_of(i * banks as u64, banks, Interleave::Permutation))
            .collect();
        assert_eq!(seq.len(), 1);
        assert!(perm.len() > 1);
    }

    #[test]
    fn home_uniprocessor_is_zero() {
        let p = prog_with_arrays(&[&[64]]);
        let m = SimMem::with_policy(&p, 1, HomePolicy::BlockPerArray);
        assert_eq!(m.home_map().home_node(m.base(ArrayId::from_raw(0))), 0);
    }
}
