//! The score memo: simulated cycle counts keyed by *(program trace
//! digest, simulation options, machine fingerprint)*.
//!
//! Two candidate programs that emit identical dynamic-op streams cost
//! the same cycles under the same machine and options, so their scores
//! are shared — across candidates within one nest, across nests, and
//! across the difftest generator's stream when a [`ScoreMemo`] is
//! reused. The key deliberately includes every knob that can change the
//! simulated cycle count:
//!
//! * the order-sensitive [`TraceDigest`] stream hash of **all** procs
//!   (so distribution changes re-key even when proc 0's stream is
//!   unchanged);
//! * the stepper, execution engine, and coherence protocol from
//!   [`SimOptions`] — equal digests under *different* options must
//!   never share a score;
//! * a fingerprint of the whole [`MachineConfig`] (caches, core,
//!   memory, bus, mesh, processor count, topology).
//!
//! Each entry remembers the options signature it was inserted under and
//! every lookup asserts it matches — a collision between different
//! `SimOptions` is a bug in key construction, not a cache hit.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mempar_sim::{MachineConfig, SimOptions};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Stable signature of the score-relevant [`SimOptions`] knobs.
pub fn opts_signature(opts: SimOptions) -> String {
    format!("{:?}/{:?}/{:?}", opts.stepper, opts.engine, opts.protocol).to_lowercase()
}

/// Stable fingerprint of the whole [`MachineConfig`]: a hash of its
/// `Debug` rendering, so every field that can move a simulated cycle
/// count (caches, core, memory banks, bus, mesh, topology) re-keys.
pub fn config_fingerprint(cfg: &MachineConfig) -> u64 {
    fnv(format!("{cfg:?}").as_bytes())
}

/// Full memo key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MemoKey {
    /// All-proc trace-stream hash of the candidate program.
    pub digest: u64,
    /// [`opts_signature`] of the scoring options.
    pub opts: String,
    /// [`config_fingerprint`] of the scoring machine.
    pub config: u64,
}

#[derive(Debug, Clone)]
struct MemoEntry {
    cycles: u64,
    /// Redundant copy of the options signature for the soundness
    /// assert: must always equal `key.opts` on hit.
    opts: String,
}

/// Thread-shared score cache with hit/miss counters.
///
/// Lookups are served in caller order, and a miss counts as scored
/// before the next key is looked up, however the scoring runs are then
/// spread across threads. So the hit/miss totals depend only on the
/// sequence of keys, never on the tuner's thread count.
#[derive(Debug, Default)]
pub struct ScoreMemo {
    map: Mutex<HashMap<MemoKey, MemoEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ScoreMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks `key` up; on miss, runs `score` and stores its result.
    /// Returns the cycles and whether they came from the memo.
    ///
    /// # Panics
    ///
    /// As [`ScoreMemo::get_or_score_all`].
    pub fn get_or_insert(&self, key: &MemoKey, score: impl FnOnce() -> u64) -> (u64, bool) {
        self.get_or_score_all(std::slice::from_ref(key), |_| vec![score()])[0]
    }

    /// Looks `keys` up in order, as if each miss were scored before the
    /// next lookup: the first occurrence of an uncached key is a miss,
    /// and every later occurrence in the batch is a hit. `score`
    /// receives the positions of those first occurrences and returns
    /// their cycles in the same order; it runs outside the lock, so it
    /// may fan the simulations out. Returns `(cycles, hit)` per key.
    ///
    /// # Panics
    ///
    /// Panics when a hit's stored options signature disagrees with the
    /// key's — that would mean two different `SimOptions` shared a
    /// cached score — or when `score` returns the wrong number of
    /// results.
    pub fn get_or_score_all(
        &self,
        keys: &[MemoKey],
        score: impl FnOnce(&[usize]) -> Vec<u64>,
    ) -> Vec<(u64, bool)> {
        // Each key resolves to a cached score or to a slot in `missed`.
        let mut missed: Vec<usize> = Vec::new();
        let resolved: Vec<Result<u64, usize>> = {
            let map = self.map.lock().expect("memo lock poisoned");
            keys.iter()
                .enumerate()
                .map(|(i, key)| {
                    if let Some(e) = map.get(key) {
                        assert_eq!(
                            e.opts, key.opts,
                            "memo soundness: digest {:#x} hit under options '{}' was cached under '{}'",
                            key.digest, key.opts, e.opts
                        );
                        return Ok(e.cycles);
                    }
                    Err(match missed.iter().position(|&m| keys[m] == *key) {
                        Some(slot) => slot,
                        None => {
                            missed.push(i);
                            missed.len() - 1
                        }
                    })
                })
                .collect()
        };
        let scores = if missed.is_empty() {
            Vec::new()
        } else {
            score(&missed)
        };
        assert_eq!(scores.len(), missed.len(), "one score per missed key");
        let mut map = self.map.lock().expect("memo lock poisoned");
        for (&i, &cycles) in missed.iter().zip(&scores) {
            map.insert(
                keys[i].clone(),
                MemoEntry {
                    cycles,
                    opts: keys[i].opts.clone(),
                },
            );
        }
        self.misses
            .fetch_add(missed.len() as u64, Ordering::Relaxed);
        self.hits
            .fetch_add((keys.len() - missed.len()) as u64, Ordering::Relaxed);
        resolved
            .into_iter()
            .enumerate()
            .map(|(i, r)| match r {
                Ok(cycles) => (cycles, true),
                Err(slot) => (scores[slot], missed[slot] != i),
            })
            .collect()
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (scoring runs) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct cached scores.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempar_sim::{Protocol, Stepper};

    fn key(digest: u64, opts: SimOptions) -> MemoKey {
        MemoKey {
            digest,
            opts: opts_signature(opts),
            config: 7,
        }
    }

    #[test]
    fn equal_digests_different_options_never_share() {
        let memo = ScoreMemo::new();
        let event = SimOptions::default();
        let strict = SimOptions {
            stepper: Stepper::Strict,
            ..SimOptions::default()
        };
        let mesi = SimOptions {
            protocol: Protocol::Mesi,
            ..SimOptions::default()
        };
        let (a, hit_a) = memo.get_or_insert(&key(42, event), || 100);
        let (b, hit_b) = memo.get_or_insert(&key(42, strict), || 200);
        let (c, hit_c) = memo.get_or_insert(&key(42, mesi), || 300);
        assert_eq!((a, b, c), (100, 200, 300));
        assert!(!hit_a && !hit_b && !hit_c, "distinct options always miss");
        // Same digest + same options is the only sharing path.
        let (a2, hit) = memo.get_or_insert(&key(42, event), || unreachable!());
        assert_eq!(a2, 100);
        assert!(hit);
        assert_eq!(memo.len(), 3);
    }

    #[test]
    fn batch_lookups_count_as_if_serial() {
        let memo = ScoreMemo::new();
        let opts = SimOptions::default();
        memo.get_or_insert(&key(1, opts), || 10);
        let keys = [key(2, opts), key(1, opts), key(3, opts), key(2, opts)];
        let got = memo.get_or_score_all(&keys, |missed| {
            assert_eq!(missed, [0, 2], "only first sightings of unseen keys score");
            vec![20, 30]
        });
        assert_eq!(got, [(20, false), (10, true), (30, false), (20, true)]);
        assert_eq!((memo.hits(), memo.misses()), (2, 3));
        let all_cached = memo.get_or_score_all(&keys, |_| unreachable!());
        assert!(all_cached.iter().all(|&(_, hit)| hit));
    }

    #[test]
    fn config_fingerprint_covers_the_whole_machine() {
        let base = MachineConfig::base_simulated(1, 64 * 1024);
        let mut l1 = base.clone();
        l1.l1.as_mut().expect("base machine has an L1").size_bytes *= 2;
        let mut banks = base.clone();
        banks.mem.bank_cycles += 1;
        for other in [&l1, &banks] {
            assert_ne!(config_fingerprint(&base), config_fingerprint(other));
        }
        assert_eq!(config_fingerprint(&base), config_fingerprint(&base.clone()));
    }

    #[test]
    fn options_signature_separates_every_knob() {
        let base = SimOptions::default();
        for opts in [
            SimOptions {
                stepper: Stepper::Strict,
                ..base
            },
            SimOptions {
                engine: mempar_ir::Engine::Interp,
                ..base
            },
            SimOptions {
                protocol: Protocol::Moesi,
                ..base
            },
        ] {
            assert_ne!(opts_signature(base), opts_signature(opts));
        }
    }
}
