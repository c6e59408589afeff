//! The search driver: per-nest coordinate descent over the propagated
//! composition space, scored by the event-stepper simulator, with the
//! paper-default clustering driver as a floor.

use std::time::Instant;

use mempar::machine_summary;
use mempar_analysis::{analyze_inner_loop, MissProfile};
use mempar_ir::{digest_ops, run_parallel_functional_with, run_single_with, Program, SimMem};
use mempar_sim::{run_program_with, MachineConfig, SimOptions};
use mempar_transform::{cluster_program, innermost_loops, loop_at, NestPath};

use crate::memo::{config_fingerprint, opts_signature, MemoKey, ScoreMemo};
use crate::space::{apply_composition, build_space, Composition, SpaceOptions};

/// Tuner configuration.
#[derive(Debug, Clone, Default)]
pub struct TuneOptions {
    /// Options every scoring simulation runs under.
    pub sim: SimOptions,
    /// Worker threads candidates fan out across (0 = auto). Thread
    /// count changes neither the winner nor the memo counters (the
    /// determinism tests assert both).
    pub threads: usize,
    /// Knob menus for the per-nest space.
    pub space: SpaceOptions,
}

/// Simulator budget per nest: survivors of prediction pruning.
const MAX_SCORED_PER_NEST: usize = 8;

/// Search totals for the report and the `tune.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Innermost nests considered.
    pub nests: u64,
    /// Product of unpropagated domains, summed over nests.
    pub space_full: u64,
    /// Compositions surviving propagation + exclusions.
    pub enumerated: u64,
    /// Candidates dropped by composed-legality failure in `apply`.
    pub pruned_illegal: u64,
    /// Candidates dropped by the f/α prediction ranking.
    pub pruned_predicted: u64,
    /// Candidates that survived pruning and were scored (deterministic).
    pub scored: u64,
    /// Scored candidates whose program was `==` to the nest's incumbent
    /// or to an earlier candidate of the same nest, and so took that
    /// program's oracle verdict, digest and cycles without re-running
    /// them.
    pub reused: u64,
    /// Memo hits so far: a running total over every tune the `Tuner`
    /// has run, since its memo is shared. Independent of thread count.
    /// One tune's own hits are the difference from the previous report.
    pub memo_hits: u64,
    /// Memo misses (actual simulations) so far, a running total like
    /// `memo_hits`.
    pub memo_misses: u64,
}

/// What the search decided for one nest.
#[derive(Debug, Clone)]
pub struct NestOutcome {
    /// Nest label (`path/var`).
    pub nest: String,
    /// Winning composition label, or `keep` when nothing beat the
    /// incumbent.
    pub chosen: String,
    /// Incumbent cycles entering this nest.
    pub before_cycles: u64,
    /// Cycles after this nest's decision.
    pub after_cycles: u64,
    /// Candidates scored for this nest.
    pub scored: usize,
}

/// One scored candidate, for the Perfetto slice export.
#[derive(Debug, Clone)]
pub struct CandidateTrace {
    /// Nest label.
    pub nest: String,
    /// Composition label.
    pub label: String,
    /// All-proc trace digest (the memo key).
    pub digest: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Predicted `min(f, target)` that ranked it.
    pub predicted: f64,
    /// Whether the score came from the memo.
    pub memo_hit: bool,
    /// Whether the verdict was copied from an IR-identical incumbent or
    /// sibling instead of being judged (see [`SearchStats::reused`]).
    pub reused: bool,
    /// Wall-clock start relative to the tune, microseconds (trace
    /// only — never part of the deterministic outcome).
    pub start_us: u64,
    /// Wall-clock scoring duration, microseconds.
    pub dur_us: u64,
}

/// Everything one [`Tuner::tune_program`] run learned.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// Program/workload name.
    pub name: String,
    /// Machine configuration name.
    pub config: String,
    /// Options signature the scores were produced under.
    pub opts: String,
    /// Cycles of the untransformed program.
    pub base_cycles: u64,
    /// Cycles of the paper-default clustering driver's output.
    pub default_cycles: u64,
    /// Cycles of the returned (best) program.
    pub tuned_cycles: u64,
    /// Which source won: `search`, `default-driver`, or `base`.
    pub winner: String,
    /// Per-nest decisions, in search order.
    pub nests: Vec<NestOutcome>,
    /// Search totals.
    pub stats: SearchStats,
    /// Per-candidate scoring slices.
    pub candidates: Vec<CandidateTrace>,
    /// Oracle mismatches (candidate changed program semantics); each
    /// entry names the nest and composition. Always empty unless a
    /// legality bug slipped through — the difftest sweep gates on this.
    pub oracle_failures: Vec<String>,
}

impl TuneReport {
    /// `default_cycles / tuned_cycles` — the honest headline: >1 means
    /// the search beat the paper-default driver, 1.0 means it matched
    /// (the tuner never returns a program slower than the driver's).
    pub fn tuned_vs_default(&self) -> f64 {
        self.default_cycles as f64 / self.tuned_cycles as f64
    }

    /// `base_cycles / tuned_cycles` (>1 = faster than untransformed).
    pub fn tuned_vs_base(&self) -> f64 {
        self.base_cycles as f64 / self.tuned_cycles as f64
    }

    /// The deterministic core of the report: identical across tuner
    /// thread counts and between cold and memo-warm runs. Excludes
    /// the memo hit/miss totals (a warm run hits more), the reuse count
    /// and wall-clock timings.
    pub fn outcome_signature(&self) -> String {
        let mut s = format!(
            "{} cfg={} opts={} base={} default={} tuned={} winner={}\n",
            self.name,
            self.config,
            self.opts,
            self.base_cycles,
            self.default_cycles,
            self.tuned_cycles,
            self.winner
        );
        for n in &self.nests {
            s.push_str(&format!(
                "nest {} chosen={} {}->{} scored={}\n",
                n.nest, n.chosen, n.before_cycles, n.after_cycles, n.scored
            ));
        }
        s.push_str(&format!(
            "nests={} full={} enum={} illegal={} pred={} scored={}\n",
            self.stats.nests,
            self.stats.space_full,
            self.stats.enumerated,
            self.stats.pruned_illegal,
            self.stats.pruned_predicted,
            self.stats.scored
        ));
        for f in &self.oracle_failures {
            s.push_str(&format!("oracle-failure {f}\n"));
        }
        s
    }

    /// Human-readable delta table (the `tune` binary's payload).
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{:<14} base {:>12} | default {:>12} ({:+.1}%) | tuned {:>12} ({:+.1}%) | tuned/default x{:.3} [{}]\n",
            self.name,
            self.base_cycles,
            self.default_cycles,
            percent(self.base_cycles, self.default_cycles),
            self.tuned_cycles,
            percent(self.base_cycles, self.tuned_cycles),
            self.tuned_vs_default(),
            self.winner
        );
        for n in &self.nests {
            s.push_str(&format!(
                "  {:<20} {:<18} {:>12} -> {:>12} ({} scored)\n",
                n.nest, n.chosen, n.before_cycles, n.after_cycles, n.scored
            ));
        }
        s
    }
}

fn percent(base: u64, new: u64) -> f64 {
    if base == 0 {
        return 0.0;
    }
    (new as f64 - base as f64) / base as f64 * 100.0
}

/// A factory for fresh simulation memories at a given processor count.
/// Candidates share no mutable state — every functional check and
/// every scoring run gets its own image.
pub type MemFactory<'a> = &'a (dyn Fn(usize) -> SimMem + Sync);

/// The composition autotuner. Holds the score memo, so reusing one
/// tuner across programs (the difftest stream, the bench matrix)
/// shares scores between repeated subproblems.
#[derive(Debug, Default)]
pub struct Tuner {
    /// Search configuration.
    pub opts: TuneOptions,
    /// Shared score cache.
    pub memo: ScoreMemo,
}

struct Candidate {
    index: usize,
    comp: Composition,
    prog: Program,
    predicted: f64,
}

/// Where a candidate's verdict comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// Judged itself: its program differs from every one before it.
    Own,
    /// `==` to the nest's incumbent.
    Incumbent,
    /// `==` to the earlier candidate at this position, which is `Own`.
    Sibling(usize),
}

/// A program's oracle result and digest, with the wall-clock interval
/// (microseconds since the tune began) spent finding them.
#[derive(Debug, Clone, Copy)]
struct Verdict {
    oracle_ok: bool,
    digest: u64,
    start_us: u64,
    end_us: u64,
}

struct Scored {
    index: usize,
    label: String,
    digest: u64,
    cycles: u64,
    predicted: f64,
    memo_hit: bool,
    oracle_ok: bool,
    reused: bool,
    start_us: u64,
    dur_us: u64,
}

impl Tuner {
    /// A tuner with the given options and an empty memo.
    pub fn new(opts: TuneOptions) -> Self {
        Tuner {
            opts,
            memo: ScoreMemo::new(),
        }
    }

    /// Drains every processor's dynamic-op stream into one digest on a
    /// fresh memory image — the memo key's program identity.
    fn digest(&self, prog: &Program, nprocs: usize, mem_at: MemFactory) -> u64 {
        digest_ops(prog, &mut mem_at(nprocs), nprocs, self.opts.sim.engine).hash()
    }

    /// Functional-equivalence oracle: the candidate must leave the same
    /// memory image as the baseline, sequentially and (for
    /// multiprocessor configs) under the parallel functional
    /// interleaving.
    fn oracle_fingerprints(&self, prog: &Program, nprocs: usize, mem_at: MemFactory) -> (u64, u64) {
        let mut seq_mem = mem_at(1);
        run_single_with(prog, &mut seq_mem, self.opts.sim.engine);
        let seq = seq_mem.fingerprint();
        let par = if nprocs > 1 {
            let mut par_mem = mem_at(nprocs);
            run_parallel_functional_with(prog, &mut par_mem, nprocs, self.opts.sim.engine);
            par_mem.fingerprint()
        } else {
            seq
        };
        (seq, par)
    }

    fn memo_key(&self, digest: u64, config: u64) -> MemoKey {
        MemoKey {
            digest,
            opts: opts_signature(self.opts.sim),
            config,
        }
    }

    fn simulate(&self, prog: &Program, cfg: &MachineConfig, mem_at: MemFactory) -> u64 {
        let mut mem = mem_at(cfg.nprocs);
        run_program_with(prog, &mut mem, cfg, self.opts.sim).cycles
    }

    /// Scores `prog` in simulated cycles, through the memo; `config` is
    /// `cfg`'s [`config_fingerprint`]. Returns the cycles, the digest and
    /// whether the memo hit.
    fn score(
        &self,
        prog: &Program,
        cfg: &MachineConfig,
        config: u64,
        mem_at: MemFactory,
    ) -> (u64, u64, bool) {
        let digest = self.digest(prog, cfg.nprocs, mem_at);
        let (cycles, hit) = self.memo.get_or_insert(&self.memo_key(digest, config), || {
            self.simulate(prog, cfg, mem_at)
        });
        (cycles, digest, hit)
    }

    /// Tunes `prog` on `cfg`: returns the fastest semantics-preserving
    /// variant found (never slower than the untransformed program or
    /// the paper-default driver's output) and the search report.
    ///
    /// `mem_at` must build a *fresh* initialized memory for any
    /// processor count — candidates are scored and oracle-checked on
    /// independent images.
    pub fn tune_program(
        &self,
        name: &str,
        prog: &Program,
        cfg: &MachineConfig,
        profile: &MissProfile,
        mem_at: MemFactory,
    ) -> (Program, TuneReport) {
        let epoch = Instant::now();
        let m = machine_summary(cfg);
        let config = config_fingerprint(cfg);
        let nprocs = cfg.nprocs;
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(self.opts.threads)
            .build()
            .expect("thread pool construction cannot fail");

        let mut stats = SearchStats::default();
        let mut candidates_trace = Vec::new();
        let mut oracle_failures = Vec::new();

        let (ref_seq, ref_par) = self.oracle_fingerprints(prog, nprocs, mem_at);
        let (base_cycles, base_digest, _) = self.score(prog, cfg, config, mem_at);

        // Incumbent: the best program so far, improved nest by nest.
        let mut best = prog.clone();
        let mut best_cycles = base_cycles;
        let mut best_digest = base_digest;

        // Reverse program order, like the clustering driver: transforms
        // insert statements at or after their own position only, so
        // paths of not-yet-visited (earlier) nests stay valid. A parent
        // consumed by a structural transform retires its other inner
        // nests.
        let mut nest_paths = innermost_loops(prog);
        nest_paths.reverse();
        let mut consumed_parents: Vec<NestPath> = Vec::new();
        let mut outcomes = Vec::new();

        for path in &nest_paths {
            if let Some(parent) = path.parent() {
                if consumed_parents.contains(&parent) {
                    continue;
                }
            }
            stats.nests += 1;
            let nest_label = nest_label(&best, path);

            let space = build_space(&best, path, &self.opts.space);
            stats.space_full += space.stats.full;
            stats.enumerated += space.stats.enumerated;

            // Build + predict every enumerated composition (cheap: IR
            // clone + static analysis, no simulation).
            let mut cands: Vec<Candidate> = Vec::new();
            for (index, comp) in space.enumerate().into_iter().enumerate() {
                if comp.is_identity() {
                    continue; // the incumbent is the identity's score
                }
                let mut cand = best.clone();
                match apply_composition(&mut cand, path, &comp, m.line_bytes) {
                    Ok(inner) => {
                        let predicted = match loop_at(&cand, &inner) {
                            Some(l) => {
                                let an = analyze_inner_loop(&cand, &l.body, l.var, &m, profile);
                                an.f.min(an.target_f(&m))
                            }
                            None => 0.0,
                        };
                        cands.push(Candidate {
                            index,
                            comp,
                            prog: cand,
                            predicted,
                        });
                    }
                    Err(_) => stats.pruned_illegal += 1,
                }
            }

            // Prediction pruning: keep the top-K by predicted clustered
            // misses per window; stable sort keeps enumeration order on
            // ties, so the cut is deterministic.
            cands.sort_by(|a, b| {
                b.predicted
                    .partial_cmp(&a.predicted)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            if cands.len() > MAX_SCORED_PER_NEST {
                stats.pruned_predicted += (cands.len() - MAX_SCORED_PER_NEST) as u64;
                cands.truncate(MAX_SCORED_PER_NEST);
            }
            stats.scored += cands.len() as u64;

            // Judge each distinct program once. Identical IR on the same
            // memory, machine and options has the same oracle result,
            // digest and cycles, so a candidate `==` to the incumbent or
            // to an earlier sibling takes that program's verdict. The
            // lookup stays within the nest: programs of earlier nests
            // are not kept.
            let origin: Vec<Origin> = (0..cands.len())
                .map(|i| {
                    if cands[i].prog == best {
                        Origin::Incumbent
                    } else {
                        (0..i)
                            .find(|&j| cands[j].prog == cands[i].prog)
                            .map_or(Origin::Own, Origin::Sibling)
                    }
                })
                .collect();
            stats.reused += origin.iter().filter(|&&o| o != Origin::Own).count() as u64;

            // Fan the oracle and digest drains out across the pool over
            // the distinct programs. Results come back in order
            // regardless of thread count.
            let own: Vec<usize> = (0..cands.len())
                .filter(|&i| origin[i] == Origin::Own)
                .collect();
            let mut judged = pool
                .run_indexed(own.len(), |k| {
                    let prog = &cands[own[k]].prog;
                    let start_us = epoch.elapsed().as_micros() as u64;
                    let (seq, par) = self.oracle_fingerprints(prog, nprocs, mem_at);
                    let oracle_ok = seq == ref_seq && par == ref_par;
                    let digest = if oracle_ok {
                        self.digest(prog, nprocs, mem_at)
                    } else {
                        0
                    };
                    Verdict {
                        oracle_ok,
                        digest,
                        start_us,
                        end_us: epoch.elapsed().as_micros() as u64,
                    }
                })
                .into_iter();
            let now_us = epoch.elapsed().as_micros() as u64;
            let copied = |oracle_ok, digest| Verdict {
                oracle_ok,
                digest,
                start_us: now_us,
                end_us: now_us,
            };
            let mut verdicts: Vec<Verdict> = Vec::with_capacity(cands.len());
            for o in &origin {
                let v = match *o {
                    Origin::Own => judged.next().expect("one verdict per distinct program"),
                    // The incumbent passed the oracle: it is the base
                    // program or a candidate that did.
                    Origin::Incumbent => copied(true, best_digest),
                    Origin::Sibling(j) => copied(verdicts[j].oracle_ok, verdicts[j].digest),
                };
                verdicts.push(v);
            }

            // Memo lookups in candidate order, then the simulations of
            // the digests the memo has not seen, fanned out: the memo
            // counters never depend on the thread count.
            let passed: Vec<usize> = (0..cands.len())
                .filter(|&i| verdicts[i].oracle_ok)
                .collect();
            let keys: Vec<MemoKey> = passed
                .iter()
                .map(|&i| self.memo_key(verdicts[i].digest, config))
                .collect();
            let mut sim_end_us = vec![None; cands.len()];
            let looked_up = self.memo.get_or_score_all(&keys, |missed| {
                let runs = pool.run_indexed(missed.len(), |m| {
                    let cycles = self.simulate(&cands[passed[missed[m]]].prog, cfg, mem_at);
                    (cycles, epoch.elapsed().as_micros() as u64)
                });
                missed
                    .iter()
                    .zip(runs)
                    .map(|(&k, (cycles, end_us))| {
                        sim_end_us[passed[k]] = Some(end_us);
                        cycles
                    })
                    .collect()
            });
            let mut looked_up = looked_up.into_iter();

            let scored: Vec<Scored> = cands
                .iter()
                .zip(&verdicts)
                .enumerate()
                .map(|(i, (c, v))| {
                    let (cycles, memo_hit) = if v.oracle_ok {
                        looked_up.next().expect("one lookup per passing candidate")
                    } else {
                        (u64::MAX, false)
                    };
                    let end_us = sim_end_us[i].unwrap_or(v.end_us);
                    Scored {
                        index: c.index,
                        label: c.comp.label(),
                        digest: v.digest,
                        cycles,
                        predicted: c.predicted,
                        memo_hit,
                        oracle_ok: v.oracle_ok,
                        reused: origin[i] != Origin::Own,
                        start_us: v.start_us,
                        dur_us: end_us - v.start_us,
                    }
                })
                .collect();

            for s in &scored {
                if !s.oracle_ok {
                    oracle_failures.push(format!("{nest_label} {}", s.label));
                    continue;
                }
                candidates_trace.push(CandidateTrace {
                    nest: nest_label.clone(),
                    label: s.label.clone(),
                    digest: s.digest,
                    cycles: s.cycles,
                    predicted: s.predicted,
                    memo_hit: s.memo_hit,
                    reused: s.reused,
                    start_us: s.start_us,
                    dur_us: s.dur_us,
                });
            }

            // Winner: strictly better than the incumbent; ties broken
            // by enumeration index (deterministic).
            let winner = scored
                .iter()
                .filter(|s| s.oracle_ok)
                .min_by_key(|s| (s.cycles, s.index));
            let before = best_cycles;
            let mut chosen = "keep".to_string();
            if let Some(w) = winner {
                if w.cycles < best_cycles {
                    let c = cands
                        .iter()
                        .find(|c| c.index == w.index)
                        .expect("winner comes from cands");
                    let structural = c.comp.interchange || c.comp.strip > 0 || c.comp.uaj > 1;
                    if structural {
                        if let Some(parent) = path.parent() {
                            consumed_parents.push(parent);
                        }
                    }
                    best = c.prog.clone();
                    best_cycles = w.cycles;
                    best_digest = w.digest;
                    chosen = c.comp.label();
                }
            }
            outcomes.push(NestOutcome {
                nest: nest_label,
                chosen,
                before_cycles: before,
                after_cycles: best_cycles,
                scored: scored.len(),
            });
        }

        // The paper-default driver is the floor: score its output and
        // keep whichever is faster. Honest accounting requires the
        // driver's output to pass the same oracle.
        let mut default_prog = prog.clone();
        cluster_program(&mut default_prog, &m, profile);
        let (def_seq, def_par) = self.oracle_fingerprints(&default_prog, nprocs, mem_at);
        let default_cycles = if def_seq == ref_seq && def_par == ref_par {
            let (c, _, _) = self.score(&default_prog, cfg, config, mem_at);
            c
        } else {
            // Should be impossible (it would be a driver legality bug);
            // record it and treat the driver as a no-op.
            oracle_failures.push("default-driver output diverged".to_string());
            base_cycles
        };

        let (tuned, tuned_cycles, winner) = if default_cycles < best_cycles {
            (default_prog, default_cycles, "default-driver")
        } else if best_cycles < base_cycles {
            (best, best_cycles, "search")
        } else {
            (prog.clone(), base_cycles, "base")
        };

        stats.memo_hits = self.memo.hits();
        stats.memo_misses = self.memo.misses();

        let report = TuneReport {
            name: name.to_string(),
            config: cfg.name.clone(),
            opts: opts_signature(self.opts.sim),
            base_cycles,
            default_cycles,
            tuned_cycles,
            winner: winner.to_string(),
            nests: outcomes,
            stats,
            candidates: candidates_trace,
            oracle_failures,
        };
        (tuned, report)
    }
}

fn nest_label(prog: &Program, path: &NestPath) -> String {
    let var = loop_at(prog, path)
        .map(|l| prog.var_name(l.var).to_string())
        .unwrap_or_else(|| "?".to_string());
    let idx: Vec<String> = path.0.iter().map(|i| i.to_string()).collect();
    format!("[{}]{}", idx.join("."), var)
}
