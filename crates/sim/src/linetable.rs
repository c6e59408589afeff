//! A sharded, open-addressed hash table keyed by cache-line number —
//! the storage behind the coherence state machine's per-line records.
//!
//! `std::collections::HashMap` served here through PR 8, but its SipHash
//! hashing and bucket indirection dominated the directory's cost on
//! miss-heavy multiprocessor runs. Line numbers are in-range simulated
//! addresses shifted right, so they can never reach `u64::MAX` — the
//! same argument that gives the tag arrays their `NO_LINE` sentinel —
//! which lets this table store bare `u64` keys with an empty sentinel,
//! one multiply for the hash (Fibonacci hashing spreads the strided line
//! streams the workloads generate), and linear probing over a flat
//! key/value pair of arrays.
//!
//! The table is split into a fixed power-of-two number of shards by high
//! hash bits. Shards bound the cost of a resize (each shard rehashes
//! independently, so a growth spike touches 1/8th of the table) and keep
//! probe regions compact while the working set cycles. Deletion uses
//! backward shifting, so there are no tombstones and lookups stay
//! O(probe chain) forever. In steady state — the working set resident —
//! no operation allocates.
//!
//! Iteration order over shards/slots is *not* insertion order; nothing
//! timing-visible may depend on it. The only iterating consumers are the
//! order-independent population sums ([`LineTable::len`] /
//! [`LineTable::values`]).

/// Empty-slot sentinel. Real line numbers are `addr >> line_shift` of
/// in-range simulated addresses and can never reach `u64::MAX`.
const EMPTY: u64 = u64::MAX;

/// Multiplier for Fibonacci hashing (2^64 / φ, odd).
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Shard count = 2^SHARD_BITS.
const SHARD_BITS: u32 = 3;

/// Initial slot count per shard (power of two).
const INITIAL_SLOTS: usize = 64;

#[inline]
fn hash(line: u64) -> u64 {
    line.wrapping_mul(HASH_MUL)
}

/// One shard: parallel key/value arrays with linear probing.
#[derive(Debug, Clone)]
struct TableShard<V> {
    keys: Vec<u64>,
    vals: Vec<V>,
    len: usize,
}

impl<V: Copy + Default> TableShard<V> {
    fn new() -> Self {
        TableShard {
            keys: vec![EMPTY; INITIAL_SLOTS],
            vals: vec![V::default(); INITIAL_SLOTS],
            len: 0,
        }
    }

    /// Probe start for `line` (low hash bits; the shard selector uses
    /// the high bits, so the two are independent).
    #[inline]
    fn start(&self, line: u64) -> usize {
        hash(line) as usize & (self.keys.len() - 1)
    }

    #[inline]
    fn find(&self, line: u64) -> Option<usize> {
        let mask = self.keys.len() - 1;
        let mut i = self.start(line);
        loop {
            let k = self.keys[i];
            if k == line {
                return Some(i);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    fn insert_new(&mut self, line: u64, val: V) -> usize {
        // Grow at 3/4 load so probe chains stay short.
        if (self.len + 1) * 4 > self.keys.len() * 3 {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut i = self.start(line);
        while self.keys[i] != EMPTY {
            debug_assert_ne!(self.keys[i], line, "insert_new of present line");
            i = (i + 1) & mask;
        }
        self.keys[i] = line;
        self.vals[i] = val;
        self.len += 1;
        i
    }

    fn grow(&mut self) {
        let new_size = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_size]);
        let old_vals = std::mem::replace(&mut self.vals, vec![V::default(); new_size]);
        let mask = new_size - 1;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY {
                let mut i = hash(k) as usize & mask;
                while self.keys[i] != EMPTY {
                    i = (i + 1) & mask;
                }
                self.keys[i] = k;
                self.vals[i] = v;
            }
        }
    }

    /// Removes the entry at `i`, backward-shifting later chain members
    /// so no probe path breaks (no tombstones).
    fn remove_at(&mut self, mut i: usize) -> V {
        let mask = self.keys.len() - 1;
        let out = self.vals[i];
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let k = self.keys[j];
            if k == EMPTY {
                break;
            }
            // An entry may move back into the hole only if that does not
            // lift it above its ideal slot: its probe distance at `j`
            // must reach at least back to `i`.
            let ideal = hash(k) as usize & mask;
            if (j.wrapping_sub(ideal) & mask) >= (j.wrapping_sub(i) & mask) {
                self.keys[i] = k;
                self.vals[i] = self.vals[j];
                i = j;
            }
        }
        self.keys[i] = EMPTY;
        self.len -= 1;
        out
    }
}

/// Sharded open-addressed map from line number to a small Copy record.
#[derive(Debug, Clone)]
pub(crate) struct LineTable<V> {
    shards: Vec<TableShard<V>>,
}

impl<V: Copy + Default> Default for LineTable<V> {
    fn default() -> Self {
        LineTable {
            shards: (0..1usize << SHARD_BITS)
                .map(|_| TableShard::new())
                .collect(),
        }
    }
}

impl<V: Copy + Default> LineTable<V> {
    #[inline]
    fn shard_of(&self, line: u64) -> usize {
        (hash(line) >> (64 - SHARD_BITS)) as usize
    }

    /// Mutable access to the value for `line`, if present.
    #[inline]
    pub fn get_mut(&mut self, line: u64) -> Option<&mut V> {
        let si = self.shard_of(line);
        let s = &mut self.shards[si];
        s.find(line).map(|i| &mut s.vals[i])
    }

    /// The value for `line`, inserting a default record if absent.
    #[inline]
    pub fn entry(&mut self, line: u64) -> &mut V {
        let si = self.shard_of(line);
        let s = &mut self.shards[si];
        let i = match s.find(line) {
            Some(i) => i,
            None => s.insert_new(line, V::default()),
        };
        &mut s.vals[i]
    }

    /// Removes `line`'s record, returning it if present.
    pub fn remove(&mut self, line: u64) -> Option<V> {
        let si = self.shard_of(line);
        let s = &mut self.shards[si];
        s.find(line).map(|i| s.remove_at(i))
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len).sum()
    }

    /// Total slot capacity across shards (for occupancy gauges).
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.keys.len()).sum()
    }

    /// Iterates live values (arbitrary order — use only for
    /// order-independent reductions).
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.shards.iter().flat_map(|s| {
            s.keys
                .iter()
                .zip(&s.vals)
                .filter(|(&k, _)| k != EMPTY)
                .map(|(_, v)| v)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut t = LineTable::<u64>::default();
        for line in 0..1000u64 {
            *t.entry(line * 7) = line;
        }
        assert_eq!(t.len(), 1000);
        for line in 0..1000u64 {
            assert_eq!(t.get_mut(line * 7).copied(), Some(line));
        }
        assert_eq!(t.get_mut(3), None);
        for line in (0..1000u64).step_by(2) {
            assert_eq!(t.remove(line * 7), Some(line));
        }
        assert_eq!(t.len(), 500);
        for line in 0..1000u64 {
            let want = (line % 2 == 1).then_some(line);
            assert_eq!(t.get_mut(line * 7).copied(), want);
        }
    }

    #[test]
    fn churn_matches_hashmap_model() {
        use std::collections::HashMap;
        let mut t = LineTable::<u32>::default();
        let mut model: HashMap<u64, u32> = HashMap::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for step in 0..100_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // A small key space forces collision chains, reinsertion
            // after deletion, and growth across every shard.
            let line = x % 4096;
            match x % 3 {
                0 => {
                    *t.entry(line) = step;
                    model.insert(line, step);
                }
                1 => {
                    assert_eq!(t.remove(line), model.remove(&line));
                }
                _ => {
                    assert_eq!(t.get_mut(line).copied(), model.get(&line).copied());
                }
            }
        }
        assert_eq!(t.len(), model.len());
        let mut got: Vec<u32> = t.values().copied().collect();
        let mut want: Vec<u32> = model.values().copied().collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn stride_patterns_stay_spread() {
        // Power-of-two strides are the workloads' worst case; the
        // Fibonacci hash must keep probe chains from clustering enough
        // to matter (correctness here; cost is covered by benches).
        let mut t = LineTable::<u8>::default();
        for i in 0..10_000u64 {
            *t.entry(i * 1024) = 1;
        }
        assert_eq!(t.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(t.get_mut(i * 1024).copied(), Some(1));
        }
    }
}
