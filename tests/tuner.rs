//! Tuner determinism and memo-soundness gates.
//!
//! * The winning composition, its score and the memo hit/miss
//!   counters must be identical at `--threads 1` and `--threads N` —
//!   candidate fan-out changes wall-clock only, never the result.
//! * A memo-warm rerun (same tuner, same program) must reproduce the
//!   cold run's outcome bit-identically.
//! * Scores cached under one `SimOptions` must never be served to
//!   another, even for byte-identical op streams.
//!
//! Coverage: the pinned generator corpus plus a block of fresh seeds
//! (quick tier here, the full 100-seed block behind `--ignored`), plus
//! Latbench as a real workload.

use mempar::{profile_miss_rates, MachineConfig};
use mempar_analysis::Locality;
use mempar_difftest::{gen_spec, materialize, PINNED_GEN_SEEDS};
use mempar_tune::{opts_signature, tune_workload, MemoKey, TuneOptions, TuneReport, Tuner};
use mempar_workloads::{latbench, App, LatbenchParams};

fn tune_seed(tuner: &Tuner, seed: u64) -> TuneReport {
    let built = materialize(&gen_spec(seed));
    let nprocs = if built.mode.parallel_checked() {
        built.nprocs
    } else {
        1
    };
    let cfg = MachineConfig::base_simulated(nprocs, 64 * 1024);
    let mut pmem = built.memory(1);
    let profile = profile_miss_rates(&built.prog, &mut pmem, &cfg.l2);
    let mem_at = |n: usize| built.memory(n);
    let (_, report) =
        tuner.tune_program(&format!("gen-{seed}"), &built.prog, &cfg, &profile, &mem_at);
    report
}

fn opts_with_threads(threads: usize) -> TuneOptions {
    TuneOptions {
        threads,
        ..TuneOptions::default()
    }
}

fn assert_thread_invariance(seeds: impl Iterator<Item = u64>) {
    let serial = Tuner::new(opts_with_threads(1));
    let wide = Tuner::new(opts_with_threads(4));
    for seed in seeds {
        let a = tune_seed(&serial, seed);
        let b = tune_seed(&wide, seed);
        assert_eq!(
            a.outcome_signature(),
            b.outcome_signature(),
            "seed {seed}: 1-thread and 4-thread tunes must agree"
        );
        assert_eq!(
            (a.stats.memo_hits, a.stats.memo_misses),
            (b.stats.memo_hits, b.stats.memo_misses),
            "seed {seed}: memo traffic must not depend on the thread count"
        );
    }
}

#[test]
fn threads_do_not_change_the_winner_quick() {
    assert_thread_invariance(PINNED_GEN_SEEDS.iter().copied().chain(0..10));
}

#[test]
#[ignore = "acceptance-scale; run via cargo test -- --ignored (CI test job)"]
fn threads_do_not_change_the_winner_full() {
    assert_thread_invariance(PINNED_GEN_SEEDS.iter().copied().chain(0..100));
}

#[test]
fn memo_warm_rerun_is_bit_identical() {
    let tuner = Tuner::new(TuneOptions::default());
    for seed in PINNED_GEN_SEEDS.iter().copied().chain(0..10) {
        let cold = tune_seed(&tuner, seed);
        let warm = tune_seed(&tuner, seed);
        assert_eq!(
            cold.outcome_signature(),
            warm.outcome_signature(),
            "seed {seed}: memo-warm rerun drifted"
        );
        // The warm run really did come from the memo: every candidate
        // score (and the base/default probes) was already cached.
        assert!(
            warm.candidates.iter().all(|c| c.memo_hit),
            "seed {seed}: warm rerun should hit on every candidate"
        );
    }
}

#[test]
fn latbench_tune_is_thread_and_memo_invariant() {
    let w = latbench(LatbenchParams {
        chains: 16,
        chain_len: 64,
        pool: 1 << 15,
        seed: 3,
    });
    let cfg = MachineConfig::base_simulated(1, w.l2_bytes);
    let serial = Tuner::new(opts_with_threads(1));
    let wide = Tuner::new(opts_with_threads(4));
    let (_, a, _) = tune_workload(&w, &cfg, &serial, Locality::Analytic);
    let (_, b, _) = tune_workload(&w, &cfg, &wide, Locality::Analytic);
    let (_, warm, _) = tune_workload(&w, &cfg, &wide, Locality::Analytic);
    assert_eq!(a.outcome_signature(), b.outcome_signature());
    assert_eq!(b.outcome_signature(), warm.outcome_signature());
    assert!(a.tuned_cycles < a.base_cycles, "{}", a.summary());
}

/// Candidates whose IR equals the nest's incumbent or an earlier
/// sibling take that program's verdict instead of being judged again,
/// and still count as one memo lookup each.
#[test]
fn identical_candidates_reuse_their_twin() {
    let scale = 0.015;
    let w = App::Latbench.build(scale);
    let cfg = MachineConfig::base_simulated(1, mempar_bench::scaled_l2(w.l2_bytes, scale));
    let tuner = Tuner::new(opts_with_threads(1));
    let (_, r, _) = tune_workload(&w, &cfg, &tuner, Locality::Analytic);
    assert!(r.oracle_failures.is_empty(), "{:?}", r.oracle_failures);
    assert_eq!(r.stats.reused, 4, "{}", r.summary());
    assert_eq!(r.candidates.iter().filter(|c| c.reused).count(), 4);
    assert!(r.candidates.iter().filter(|c| c.reused).all(|c| c.memo_hit));
    // Every scored candidate plus the base and default-driver programs.
    assert_eq!(r.stats.memo_hits + r.stats.memo_misses, r.stats.scored + 2);
}

/// End-to-end memo-key soundness: take digests of real scored
/// candidates from a real tune, then probe the same memo under every
/// other (stepper, engine, protocol) signature — each must MISS, never
/// serve the cached score.
#[test]
fn cached_scores_never_cross_sim_options() {
    use mempar::{Protocol, SimOptions, Stepper};
    let tuner = Tuner::new(TuneOptions::default());
    let report = tune_seed(&tuner, 3);
    assert!(!report.candidates.is_empty(), "need scored candidates");
    let cfg = MachineConfig::base_simulated(1, 64 * 1024);
    let config = mempar_tune::config_fingerprint(&cfg);
    let base_sig = opts_signature(SimOptions::default());
    let variants = [
        SimOptions {
            stepper: Stepper::Strict,
            ..SimOptions::default()
        },
        SimOptions {
            engine: mempar::Engine::Interp,
            ..SimOptions::default()
        },
        SimOptions {
            protocol: Protocol::Mesi,
            ..SimOptions::default()
        },
        SimOptions {
            protocol: Protocol::Moesi,
            ..SimOptions::default()
        },
        SimOptions {
            protocol: Protocol::Dragon,
            ..SimOptions::default()
        },
    ];
    // Candidates can share digests (identical op streams); probe each
    // distinct digest once per variant — the probe itself caches.
    let mut digests: Vec<u64> = report.candidates.iter().map(|c| c.digest).collect();
    digests.sort_unstable();
    digests.dedup();
    for digest in digests {
        for v in variants {
            let sig = opts_signature(v);
            assert_ne!(sig, base_sig, "every variant must re-key");
            let key = MemoKey {
                digest,
                opts: sig,
                config,
            };
            let sentinel = u64::MAX - 1;
            let (got, hit) = tuner.memo.get_or_insert(&key, || sentinel);
            assert!(
                !hit && got == sentinel,
                "digest {digest:#x} cached under '{base_sig}' leaked to '{}'",
                key.opts
            );
        }
    }
}
