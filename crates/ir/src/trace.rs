//! Dynamic instructions produced by the interpreter and consumed by the
//! cycle-level simulator.
//!
//! The trace is *execution-driven*: ops are produced on demand as the
//! simulated processor fetches, so a full trace never needs to be
//! materialized. Register dependences are expressed through *virtual
//! register* numbers: each value-producing op is assigned a fresh vreg and
//! later ops name the vregs they consume. Vregs are monotonically
//! increasing per processor, which lets the simulator treat any vreg not
//! currently in flight as already available.

/// Maximum number of source operands carried by one dynamic op.
pub const MAX_SRCS: usize = 3;

/// A compact, fixed-capacity list of source vregs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SrcList {
    srcs: [u32; MAX_SRCS],
    len: u8,
}

impl SrcList {
    /// The empty source list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a source, keeping at most [`MAX_SRCS`] (later sources replace
    /// the oldest slot beyond capacity, which is conservative for timing:
    /// the most recently produced values are the ones most likely still in
    /// flight).
    pub fn push(&mut self, vreg: u32) {
        if self.srcs[..self.len as usize].contains(&vreg) {
            return;
        }
        if (self.len as usize) < MAX_SRCS {
            self.srcs[self.len as usize] = vreg;
            self.len += 1;
        } else {
            // Replace the smallest (oldest) vreg.
            let (pos, _) = self
                .srcs
                .iter()
                .enumerate()
                .min_by_key(|&(_, &v)| v)
                .expect("non-empty");
            if self.srcs[pos] < vreg {
                self.srcs[pos] = vreg;
            }
        }
    }

    /// The sources as a slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.srcs[..self.len as usize]
    }

    /// Removes the first occurrence of `vreg`, keeping order; returns
    /// whether it was present.
    pub fn remove(&mut self, vreg: u32) -> bool {
        let n = self.len as usize;
        for i in 0..n {
            if self.srcs[i] == vreg {
                self.srcs.copy_within(i + 1..n, i);
                self.len -= 1;
                return true;
            }
        }
        false
    }

    /// Number of sources.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when there are no sources.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl FromIterator<u32> for SrcList {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        let mut s = SrcList::new();
        for v in iter {
            s.push(v);
        }
        s
    }
}

/// Floating-point functional-unit class, with the base-configuration
/// latencies of Table 1 in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpUnit {
    /// Add/sub/mul and other “most FPU” ops: 3 cycles.
    Arith,
    /// FP divide: 16 cycles.
    Div,
    /// FP square root: 33 cycles.
    Sqrt,
}

impl FpUnit {
    /// Base-configuration latency in cycles.
    pub fn base_latency(self) -> u32 {
        match self {
            FpUnit::Arith => 3,
            FpUnit::Div => 16,
            FpUnit::Sqrt => 33,
        }
    }
}

/// The kind of a dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpKind {
    /// A data load of 8 bytes from `addr`.
    Load {
        /// Virtual (simulated) byte address.
        addr: u64,
    },
    /// A data store of 8 bytes to `addr`.
    Store {
        /// Virtual (simulated) byte address.
        addr: u64,
    },
    /// A floating-point operation on the given unit class.
    Fp {
        /// Functional-unit class (determines latency).
        unit: FpUnit,
    },
    /// An integer ALU operation (index arithmetic, compares).
    Int,
    /// An integer multiply/divide (7 cycles in the base configuration).
    IntMul,
    /// A (loop or guard) branch; assumed correctly predicted but occupying
    /// one of the limited unresolved-branch slots until its sources resolve.
    Branch,
    /// Global barrier; retires when every processor has reached it.
    Barrier {
        /// Sequence number of this barrier on the executing processor;
        /// processors synchronize on equal ids.
        id: u32,
    },
    /// Flag set with release semantics (waits for earlier stores to drain).
    FlagSet {
        /// Flag index.
        flag: u32,
    },
    /// Flag wait with acquire semantics (completes when the flag is set).
    FlagWait {
        /// Flag index.
        flag: u32,
    },
    /// A non-binding software prefetch of the line containing `addr`:
    /// starts the miss (if any) but produces no value and never blocks
    /// retirement.
    Prefetch {
        /// Virtual (simulated) byte address.
        addr: u64,
    },
    /// End-of-program marker (retires instantly; lets the simulator detect
    /// completion in the retire stage).
    Halt,
}

impl OpKind {
    /// True for loads and stores.
    pub fn is_mem(&self) -> bool {
        matches!(self, OpKind::Load { .. } | OpKind::Store { .. })
    }

    /// The memory address for loads/stores.
    pub fn addr(&self) -> Option<u64> {
        match *self {
            OpKind::Load { addr } | OpKind::Store { addr } => Some(addr),
            _ => None,
        }
    }
}

/// One dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynOp {
    /// What the instruction does.
    pub kind: OpKind,
    /// Vregs whose values the instruction consumes.
    pub srcs: SrcList,
    /// Vreg produced, if any.
    pub dst: Option<u32>,
}

impl DynOp {
    /// An op with no sources and no destination.
    pub fn nullary(kind: OpKind) -> Self {
        DynOp {
            kind,
            srcs: SrcList::new(),
            dst: None,
        }
    }

    /// A stable single-line rendering (`LOAD 0x2140 [v3 v7] -> v9`) used
    /// by golden-trace snapshots; any change to this format invalidates
    /// committed snapshots, so extend it rather than reshuffling it.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = match self.kind {
            OpKind::Load { addr } => format!("LOAD 0x{addr:x}"),
            OpKind::Store { addr } => format!("STORE 0x{addr:x}"),
            OpKind::Fp { unit } => match unit {
                FpUnit::Arith => "FP".to_string(),
                FpUnit::Div => "FDIV".to_string(),
                FpUnit::Sqrt => "FSQRT".to_string(),
            },
            OpKind::Int => "INT".to_string(),
            OpKind::IntMul => "IMUL".to_string(),
            OpKind::Branch => "BR".to_string(),
            OpKind::Barrier { id } => format!("BARRIER #{id}"),
            OpKind::FlagSet { flag } => format!("FLAGSET {flag}"),
            OpKind::FlagWait { flag } => format!("FLAGWAIT {flag}"),
            OpKind::Prefetch { addr } => format!("PREFETCH 0x{addr:x}"),
            OpKind::Halt => "HALT".to_string(),
        };
        if !self.srcs.is_empty() {
            s.push_str(" [");
            for (k, v) in self.srcs.as_slice().iter().enumerate() {
                if k > 0 {
                    s.push(' ');
                }
                let _ = write!(s, "v{v}");
            }
            s.push(']');
        }
        if let Some(d) = self.dst {
            let _ = write!(s, " -> v{d}");
        }
        s
    }
}

/// Order-sensitive digest of a dynamic-op stream: per-kind counts plus an
/// FNV-1a hash over a stable encoding of every op (kind, address/id,
/// sources, destination). Two runs produce equal digests iff they fetched
/// the same ops with the same operands in the same order — the primitive
/// behind the golden-trace regression gates in `crates/difftest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceDigest {
    /// Total ops absorbed (including `Halt`).
    pub ops: u64,
    /// Data loads.
    pub loads: u64,
    /// Data stores.
    pub stores: u64,
    /// Floating-point ops (all unit classes).
    pub fp: u64,
    /// Integer ALU + multiply ops.
    pub int: u64,
    /// Branches.
    pub branches: u64,
    /// Barriers, flag sets and flag waits.
    pub sync: u64,
    /// Software prefetches.
    pub prefetches: u64,
    hash: u64,
}

impl Default for TraceDigest {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceDigest {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    /// `PRIME_POW[k]` is `FNV_PRIME^k` (wrapping).
    const PRIME_POW: [u64; 9] = {
        let mut pow = [1u64; 9];
        let mut k = 1;
        while k < 9 {
            pow[k] = pow[k - 1].wrapping_mul(Self::FNV_PRIME);
            k += 1;
        }
        pow
    };

    /// An empty digest.
    pub fn new() -> Self {
        TraceDigest {
            ops: 0,
            loads: 0,
            stores: 0,
            fp: 0,
            int: 0,
            branches: 0,
            sync: 0,
            prefetches: 0,
            hash: Self::FNV_OFFSET,
        }
    }

    /// FNV-1a over the word's eight little-endian bytes. A zero byte
    /// only multiplies the hash by the prime, so the word's high zero
    /// bytes fold into one multiply by a power of it.
    fn mix(&mut self, word: u64) {
        let len = 8 - (word.leading_zeros() / 8) as usize;
        let mut rest = word;
        for _ in 0..len {
            self.hash ^= rest & 0xff;
            self.hash = self.hash.wrapping_mul(Self::FNV_PRIME);
            rest >>= 8;
        }
        self.hash = self.hash.wrapping_mul(Self::PRIME_POW[8 - len]);
    }

    /// Folds one op into the digest.
    pub fn absorb(&mut self, op: &DynOp) {
        self.ops += 1;
        let (tag, payload): (u64, u64) = match op.kind {
            OpKind::Load { addr } => {
                self.loads += 1;
                (1, addr)
            }
            OpKind::Store { addr } => {
                self.stores += 1;
                (2, addr)
            }
            OpKind::Fp { unit } => {
                self.fp += 1;
                let u = match unit {
                    FpUnit::Arith => 0,
                    FpUnit::Div => 1,
                    FpUnit::Sqrt => 2,
                };
                (3, u)
            }
            OpKind::Int => {
                self.int += 1;
                (4, 0)
            }
            OpKind::IntMul => {
                self.int += 1;
                (5, 0)
            }
            OpKind::Branch => {
                self.branches += 1;
                (6, 0)
            }
            OpKind::Barrier { id } => {
                self.sync += 1;
                (7, id as u64)
            }
            OpKind::FlagSet { flag } => {
                self.sync += 1;
                (8, flag as u64)
            }
            OpKind::FlagWait { flag } => {
                self.sync += 1;
                (9, flag as u64)
            }
            OpKind::Prefetch { addr } => {
                self.prefetches += 1;
                (10, addr)
            }
            OpKind::Halt => (11, 0),
        };
        self.mix(tag);
        self.mix(payload);
        for &s in op.srcs.as_slice() {
            self.mix(s as u64);
        }
        self.mix(op.dst.map_or(u64::MAX, |d| d as u64));
    }

    /// The accumulated stream hash.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// A stable multi-line rendering for snapshot files.
    pub fn render(&self) -> String {
        format!(
            "ops {}\nloads {}\nstores {}\nfp {}\nint {}\nbranches {}\nsync {}\nprefetches {}\nstream-hash {:016x}",
            self.ops,
            self.loads,
            self.stores,
            self.fp,
            self.int,
            self.branches,
            self.sync,
            self.prefetches,
            self.hash,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn srclist_dedups() {
        let mut s = SrcList::new();
        s.push(4);
        s.push(4);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn srclist_keeps_most_recent_when_full() {
        let mut s = SrcList::new();
        s.push(1);
        s.push(2);
        s.push(3);
        s.push(10); // evicts 1
        let mut v = s.as_slice().to_vec();
        v.sort_unstable();
        assert_eq!(v, vec![2, 3, 10]);
        s.push(0); // older than everything: dropped
        let mut v = s.as_slice().to_vec();
        v.sort_unstable();
        assert_eq!(v, vec![2, 3, 10]);
    }

    #[test]
    fn srclist_from_iter() {
        let s: SrcList = [7u32, 8, 7].into_iter().collect();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn fp_latencies_match_table1() {
        assert_eq!(FpUnit::Arith.base_latency(), 3);
        assert_eq!(FpUnit::Div.base_latency(), 16);
        assert_eq!(FpUnit::Sqrt.base_latency(), 33);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = DynOp::nullary(OpKind::Load { addr: 8 });
        let b = DynOp::nullary(OpKind::Store { addr: 8 });
        let mut ab = TraceDigest::new();
        ab.absorb(&a);
        ab.absorb(&b);
        let mut ba = TraceDigest::new();
        ba.absorb(&b);
        ba.absorb(&a);
        assert_eq!(ab.ops, 2);
        assert_eq!(ab.loads, 1);
        assert_eq!(ab.stores, 1);
        assert_ne!(ab.hash(), ba.hash(), "hash must see order");
        assert_eq!(ab, ab);
    }

    #[test]
    fn mix_matches_bytewise_fnv1a() {
        fn reference(mut hash: u64, word: u64) -> u64 {
            for b in word.to_le_bytes() {
                hash ^= b as u64;
                hash = hash.wrapping_mul(TraceDigest::FNV_PRIME);
            }
            hash
        }
        let mut words = vec![0, 1, 0xff, 0x100, u32::MAX as u64, u64::MAX];
        // xorshift64, shifted right by a varying amount so every
        // significant-byte count shows up.
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for i in 0..4096u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            words.push(x >> (i % 64));
        }
        let mut d = TraceDigest::new();
        let mut want = TraceDigest::FNV_OFFSET;
        for w in words {
            d.mix(w);
            want = reference(want, w);
            assert_eq!(d.hash, want, "word {w:#x}");
        }
    }

    #[test]
    fn digest_sees_operands() {
        let plain = DynOp::nullary(OpKind::Int);
        let with_dst = DynOp {
            dst: Some(3),
            ..plain
        };
        let mut d1 = TraceDigest::new();
        d1.absorb(&plain);
        let mut d2 = TraceDigest::new();
        d2.absorb(&with_dst);
        assert_ne!(d1.hash(), d2.hash());
    }

    #[test]
    fn render_is_stable() {
        let op = DynOp {
            kind: OpKind::Load { addr: 0x2140 },
            srcs: [3u32, 7].into_iter().collect(),
            dst: Some(9),
        };
        assert_eq!(op.render(), "LOAD 0x2140 [v3 v7] -> v9");
        assert_eq!(DynOp::nullary(OpKind::Halt).render(), "HALT");
        let mut d = TraceDigest::new();
        d.absorb(&op);
        assert!(d.render().starts_with("ops 1\nloads 1\n"));
    }

    #[test]
    fn opkind_mem_helpers() {
        assert!(OpKind::Load { addr: 8 }.is_mem());
        assert_eq!(OpKind::Store { addr: 16 }.addr(), Some(16));
        assert_eq!(OpKind::Int.addr(), None);
        assert!(!OpKind::Barrier { id: 0 }.is_mem());
    }
}
