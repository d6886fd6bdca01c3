//! The OZZ fuzzing loop (Figure 6).
//!
//! Each iteration follows the paper's three-step workflow: generate and run
//! a single-threaded input while profiling memory accesses and barriers
//! (§4.2), calculate scheduling hints for every syscall pair (§4.3), then
//! construct and run multi-threaded inputs under those hints, watching the
//! kernel's bug-detecting oracles (§4.4). Coverage (KCov-style, per
//! instrumentation site) gates corpus growth; crashes are deduplicated by
//! title like Syzkaller's dashboard.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use kernelsim::{
    BugSwitches, ExecMode, Kctx, MachinePool, MachineSnapshot, MemoryModel, ReorderType,
    RestoreCounters, Syscall,
};
use kutil::{fnv1a64, splitmix64};
use oemu::{Iid, ScheduleTrace};

use crate::hints::{calc_hints_for, HintKind};
use crate::mti::build_mtis;
use crate::profile_sti_on;
use crate::sti::{Sti, StiGen};

/// Ordering strategy for scheduling hints within a pair — the §4.3 search
/// heuristic and its ablations (DESIGN.md §7).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum HintOrder {
    /// The paper's heuristic: maximal reorder-set first.
    MaxReorderFirst,
    /// Ablation: minimal reorder-set first.
    MinReorderFirst,
    /// Ablation: deterministic pseudo-random order (seeded).
    Shuffled,
}

impl HintOrder {
    /// Stable text name, used by campaign checkpoints.
    pub fn name(self) -> &'static str {
        match self {
            HintOrder::MaxReorderFirst => "max-reorder-first",
            HintOrder::MinReorderFirst => "min-reorder-first",
            HintOrder::Shuffled => "shuffled",
        }
    }

    /// Parses a name produced by [`HintOrder::name`].
    pub fn parse(s: &str) -> Result<HintOrder, String> {
        match s {
            "max-reorder-first" => Ok(HintOrder::MaxReorderFirst),
            "min-reorder-first" => Ok(HintOrder::MinReorderFirst),
            "shuffled" => Ok(HintOrder::Shuffled),
            other => Err(format!("unknown hint order {other:?}")),
        }
    }
}

/// Fuzzer configuration.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// RNG seed (campaigns are fully deterministic given the seed).
    pub seed: u64,
    /// Kernel build (which seeded bugs are present).
    pub bugs: BugSwitches,
    /// Cap on hints executed per syscall pair, in priority order.
    pub max_hints_per_pair: usize,
    /// Probability weight of mutating a corpus entry vs generating fresh.
    pub mutate_ratio: f64,
    /// Hint-ordering strategy (the §4.3 heuristic or an ablation).
    pub hint_order: HintOrder,
    /// Run tests on pooled, reset machines (the in-vivo discipline)
    /// instead of booting a machine per test. Campaign output is
    /// byte-identical either way — pinned by `tests/pool_fidelity.rs` —
    /// only throughput differs.
    pub reuse_machines: bool,
    /// Inert: there is one pair executor. Kept only because the `ozzbench`
    /// benchmark passes it to [`Kctx::set_exec_mode`]; nothing reads it.
    pub exec_mode: ExecMode,
    /// Memory model the campaign's machines emulate. Part of machine
    /// identity (pool shelves key on it) and fed to the hint calculator,
    /// whose barrier grouping asks the model what bounds reordering.
    /// Defaults to [`MemoryModel::from_env`] (`OZZ_MEMMODEL=pso`/`arm`
    /// selects a weaker model; unset means TSO).
    pub memory_model: MemoryModel,
    /// Benchmark baseline knob: force every machine restore down the full
    /// `clone_from` path and disable undo journaling entirely, reproducing
    /// the pre-journal reset cost (including zero journaling overhead on
    /// the write path). Campaign output is byte-identical either way —
    /// the incremental path is semantically invisible — only restore cost
    /// differs. Not serialized into checkpoints: like `reuse_machines`, it
    /// is a perf knob, not campaign state.
    pub force_full_restore: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            bugs: BugSwitches::all(),
            max_hints_per_pair: 8,
            mutate_ratio: 0.5,
            hint_order: HintOrder::MaxReorderFirst,
            reuse_machines: true,
            exec_mode: ExecMode::Stepped,
            memory_model: MemoryModel::from_env(),
            force_full_restore: false,
        }
    }
}

/// A deduplicated crash found during fuzzing, with the diagnosis the paper
/// reports to developers (§4.1): the hypothetical barrier location and the
/// reordering that was enforced.
#[derive(Clone, Debug)]
pub struct FoundBug {
    /// Crash title (dedup key).
    pub title: String,
    /// Where the missing barrier belongs.
    pub barrier_location: String,
    /// Store-store or load-load (which OEMU mechanism fired).
    pub reorder_type: ReorderType,
    /// Total tests executed when this bug was first triggered.
    pub tests_to_find: u64,
    /// Rank of the triggering hint within its pair's sorted hint list
    /// (0 = the maximal-reorder hint; the §4.3 heuristic statistic).
    pub hint_rank: usize,
    /// The concurrent syscall pair.
    pub pair: (Syscall, Syscall),
    /// The full STI the pair was drawn from (setup prefix included), so a
    /// replay can rebuild the exact pre-pair machine state.
    pub sti: Arc<Sti>,
    /// Indices of the pair within [`FoundBug::sti`] (`i < j`).
    pub pair_indices: (usize, usize),
    /// Schedule trace of the crashing execution, recorded by re-running
    /// the triggering MTI in record mode (byte-identical to the original
    /// run — executions are deterministic given the controls).
    pub trace: ScheduleTrace,
    /// FNV-1a of the crashing run's [`Kctx::state_digest`]: the fidelity
    /// target a replay must hit ([`crate::repro::reproduce_from_trace`]).
    pub digest_fnv: u64,
}

/// Campaign statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FuzzStats {
    /// STIs generated and profiled.
    pub stis_run: u64,
    /// MTIs executed (the paper's "tests").
    pub mtis_run: u64,
    /// Crash occurrences (before dedup).
    pub crashes_total: u64,
    /// Instrumentation sites covered (KCov analog).
    pub coverage: usize,
    /// Consecutive STIs (counting back from the latest) whose hint pipeline
    /// produced zero MTIs — the liveness signal [`Fuzzer::run_until`] and
    /// the sharded runner stall on.
    pub barren_stis: u64,
    /// Set when a bounded run aborted because [`STALL_LIMIT`] consecutive
    /// STIs produced no MTIs: the MTI budget could never be consumed, so
    /// looping on `mtis_run` alone would spin forever.
    pub stalled: bool,
}

/// How many consecutive MTI-less STIs a bounded run tolerates before it
/// declares the workload stalled and returns (surfaced as
/// [`FuzzStats::stalled`]).
pub const STALL_LIMIT: u64 = 256;

/// The OZZ fuzzer.
pub struct Fuzzer {
    cfg: FuzzConfig,
    gen: StiGen,
    corpus: Vec<Sti>,
    /// Mirror of `corpus` for O(1) duplicate checks in [`Fuzzer::import_corpus`]
    /// (the corpus `Vec` stays authoritative for ordering and mutation picks).
    corpus_set: HashSet<Sti>,
    coverage: HashSet<Iid>,
    found: BTreeMap<String, FoundBug>,
    /// Crash occurrences per title (before dedup) — the crash database's
    /// per-shard sighting counts.
    crash_counts: BTreeMap<String, u64>,
    stats: FuzzStats,
    rng_pick: u64,
    /// Reset machines, reused across steps when `cfg.reuse_machines` is
    /// set. Private per fuzzer: shards in a parallel campaign never contend
    /// on a shelf.
    pool: MachinePool,
}

/// Initial scramble state of the corpus-pick stream (golden ratio), XORed
/// with a SplitMix64 expansion of the campaign seed so distinct seeds (and
/// therefore distinct shards) draw decorrelated pick streams.
const PICK_INIT: u64 = 0x9e37_79b9_7f4a_7c15;
const PICK_MUL: u64 = 0x5851_f42d_4c95_7f2d;

fn pick_draw(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(PICK_MUL).wrapping_add(1);
    *state
}

/// The corpus scheduler's two decisions — mutate-vs-generate, and *which*
/// corpus entry to mutate — each from its own draw. Returns the corpus
/// index to mutate, or `None` to generate fresh.
///
/// Both draws are always consumed (a fixed two-draw stride per STI), so
/// the decision taken never perturbs the stream position. Deriving both
/// decisions from a single draw — the old code — correlated them: the
/// toss conditions on high bits of the very value whose residue picks the
/// index, biasing which corpus entries ever get mutated.
fn corpus_pick(state: &mut u64, corpus_len: usize, mutate_ratio: f64) -> Option<usize> {
    let toss = (pick_draw(state) >> 33) as f64 / (1u64 << 31) as f64;
    let idx_draw = pick_draw(state);
    if corpus_len == 0 || toss >= mutate_ratio {
        return None;
    }
    Some((idx_draw % corpus_len as u64) as usize)
}

impl Fuzzer {
    /// Creates a fuzzer.
    pub fn new(cfg: FuzzConfig) -> Self {
        let gen = StiGen::new(cfg.seed);
        let mut sm = cfg.seed;
        let rng_pick = PICK_INIT ^ splitmix64(&mut sm);
        Fuzzer {
            cfg,
            gen,
            corpus: Vec::new(),
            corpus_set: HashSet::new(),
            coverage: HashSet::new(),
            found: BTreeMap::new(),
            crash_counts: BTreeMap::new(),
            stats: FuzzStats::default(),
            rng_pick,
            pool: MachinePool::new(),
        }
    }

    /// Runs one full iteration (STI → profile → hints → MTIs); returns the
    /// number of *new* unique crashes found in this iteration.
    pub fn step(&mut self) -> usize {
        let mtis_before = self.stats.mtis_run;
        let sti = self.next_sti();
        self.stats.stis_run += 1;
        // Step 1 (§4.2): run the STI with profiling — on a pooled machine
        // (checked out in exact boot state) or a freshly booted one.
        let machine = self.cfg.reuse_machines.then(|| {
            self.pool
                .checkout_with_model(&self.cfg.bugs, self.cfg.memory_model)
        });
        if let Some(m) = &machine {
            if self.cfg.force_full_restore {
                m.kctx().set_force_full_restore(true);
            }
        }
        let traces = match &machine {
            Some(m) => profile_sti_on(m.kctx(), &sti),
            None => {
                let k = Kctx::new_with_model(self.cfg.bugs.clone(), self.cfg.memory_model);
                profile_sti_on(&k, &sti)
            }
        };
        // KCov-style coverage gates corpus growth.
        let before = self.coverage.len();
        for t in &traces {
            for e in &t.events {
                self.coverage.insert(e.iid());
            }
        }
        if self.coverage.len() > before {
            self.corpus.push(sti.clone());
            self.corpus_set.insert(sti.clone());
        }
        self.stats.coverage = self.coverage.len();
        // Steps 2+3 (§4.3, §4.4): hints and MTI execution. Hints are
        // recomputed per pair; rank bookkeeping feeds the heuristic
        // validation experiment.
        let mut new_uniques = 0;
        let order = self.cfg.hint_order;
        let seed = self.cfg.seed;
        let model = self.cfg.memory_model;
        let mtis = build_mtis(
            &sti,
            |i, j| {
                let mut hints = calc_hints_for(&traces[i].events, &traces[j].events, model);
                match order {
                    HintOrder::MaxReorderFirst => {}
                    HintOrder::MinReorderFirst => hints.reverse(),
                    HintOrder::Shuffled => {
                        // Deterministic per-pair shuffle (splitmix over the
                        // seed and pair indices).
                        let mut state = seed ^ ((i as u64) << 32) ^ (j as u64);
                        for idx in (1..hints.len()).rev() {
                            state = state
                                .wrapping_mul(0x5851_f42d_4c95_7f2d)
                                .wrapping_add(0x14057b7e_f767_814f);
                            let pick = (state >> 33) as usize % (idx + 1);
                            hints.swap(idx, pick);
                        }
                    }
                }
                hints
            },
            self.cfg.max_hints_per_pair,
        );
        // Rank within each pair (build_mtis preserves per-pair hint order).
        let mut rank_of_pair: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        // Pooled per-pair setup reuse: every MTI of one pair shares the
        // single-threaded setup prefix, so it runs once per pair — the
        // machine resets to boot state, runs setup, and is snapshotted;
        // subsequent hints of the pair restore the snapshot instead.
        // (The snapshot carries any oracle reports setup raised, so each
        // hint's outcome drains exactly what a fresh-boot run would.)
        let mut cur_pair: Option<(usize, usize)> = None;
        let mut post_setup: Option<MachineSnapshot> = None;
        for mti in mtis {
            let rank = rank_of_pair.entry((mti.i, mti.j)).or_insert(0);
            let this_rank = *rank;
            *rank += 1;
            self.stats.mtis_run += 1;
            let out = match &machine {
                Some(m) => {
                    let k = m.kctx();
                    if cur_pair != Some((mti.i, mti.j)) {
                        k.reset();
                        mti.run_setup(k);
                        post_setup = Some(k.snapshot());
                        cur_pair = Some((mti.i, mti.j));
                    } else {
                        k.restore(post_setup.as_ref().expect("snapshot set with cur_pair"));
                    }
                    mti.run_pair_pooled(m)
                }
                None => {
                    let k = Kctx::new_with_model(self.cfg.bugs.clone(), self.cfg.memory_model);
                    mti.run_on(&k)
                }
            };
            if out.crashed() {
                self.stats.crashes_total += out.crashes.len() as u64;
                for crash in &out.crashes {
                    *self.crash_counts.entry(crash.title.clone()).or_default() += 1;
                }
                // A first sighting gets its schedule recorded: the MTI is
                // re-executed once in record mode (same controls, same
                // plan — deterministic, so the same crash) and the trace
                // travels with the report. The re-run consumes no RNG and
                // no test budget, so campaign schedules are unchanged.
                let any_new = out
                    .crashes
                    .iter()
                    .any(|c| !self.found.contains_key(&c.title));
                let recorded = if any_new {
                    Some(match &machine {
                        Some(m) => {
                            m.kctx()
                                .restore(post_setup.as_ref().expect("snapshot set with cur_pair"));
                            mti.run_pair_pooled_recorded(m)
                        }
                        None => {
                            let k =
                                Kctx::new_with_model(self.cfg.bugs.clone(), self.cfg.memory_model);
                            mti.run_recorded_on(&k)
                        }
                    })
                } else {
                    None
                };
                for crash in &out.crashes {
                    if !self.found.contains_key(&crash.title) {
                        let rec = recorded.as_ref().expect("recorded on first sighting");
                        new_uniques += 1;
                        self.found.insert(
                            crash.title.clone(),
                            FoundBug {
                                title: crash.title.clone(),
                                barrier_location: mti.hint.barrier_location(),
                                reorder_type: match mti.hint.kind {
                                    HintKind::StoreBarrier => ReorderType::StoreStore,
                                    HintKind::LoadBarrier => ReorderType::LoadLoad,
                                },
                                tests_to_find: self.stats.mtis_run,
                                hint_rank: this_rank,
                                pair: mti.pair(),
                                sti: Arc::clone(&mti.sti),
                                pair_indices: (mti.i, mti.j),
                                trace: rec.trace.clone(),
                                digest_fnv: fnv1a64(rec.digest.as_bytes()),
                            },
                        );
                    }
                }
            }
        }
        if let Some(m) = machine {
            // Hand the profile buffers back to the engine's spare pool so
            // the next step's `take_profile` reuses them, then shelve the
            // machine (checkin resets it to boot state).
            for t in traces {
                m.kctx().engine.recycle_profile_events(t.events);
            }
            self.pool.checkin(m);
        }
        // Liveness accounting: a step that yielded no MTIs cannot make
        // progress against an MTI budget.
        if self.stats.mtis_run == mtis_before {
            self.stats.barren_stis += 1;
        } else {
            self.stats.barren_stis = 0;
        }
        new_uniques
    }

    /// Runs iterations until `max_tests` MTIs have executed, `target`
    /// unique crashes were found, or [`STALL_LIMIT`] consecutive STIs
    /// produced no MTIs (a hint-free workload would otherwise spin forever
    /// without `mtis_run` ever advancing); a stall is surfaced as
    /// [`FuzzStats::stalled`].
    pub fn run_until(&mut self, max_tests: u64, target: usize) {
        while self.stats.mtis_run < max_tests && self.found.len() < target {
            self.step();
            if self.stats.barren_stis >= STALL_LIMIT {
                self.stats.stalled = true;
                break;
            }
        }
    }

    /// Picks the next STI: a corpus mutation or a fresh generation, each
    /// decision from its own deterministic draw.
    fn next_sti(&mut self) -> Sti {
        match corpus_pick(&mut self.rng_pick, self.corpus.len(), self.cfg.mutate_ratio) {
            Some(idx) => {
                let base = self.corpus[idx].clone();
                self.gen.mutate(&base)
            }
            None => self.gen.generate(),
        }
    }

    /// Unique crashes found so far, keyed by title.
    pub fn found(&self) -> &BTreeMap<String, FoundBug> {
        &self.found
    }

    /// Campaign statistics.
    pub fn stats(&self) -> &FuzzStats {
        &self.stats
    }

    /// Machine-restore observability: incremental-vs-fallback counts summed
    /// over this fuzzer's shelved machines (all of them, between steps).
    /// Excluded from determinism comparisons and checkpoints — like wall
    /// times, these measure *how* the campaign ran, not what it found.
    pub fn restore_counters(&self) -> RestoreCounters {
        self.pool.restore_counters()
    }

    /// Corpus size.
    pub fn corpus_len(&self) -> usize {
        self.corpus.len()
    }

    /// The corpus — coverage-earning STIs plus imports — oldest first.
    pub fn corpus(&self) -> &[Sti] {
        &self.corpus
    }

    /// Appends foreign corpus entries (cross-shard broadcast) that are not
    /// already present, preserving their order; returns how many were new.
    /// Imports do not touch coverage — they only widen the mutation pool.
    pub fn import_corpus(&mut self, entries: &[Sti]) -> usize {
        let mut imported = 0;
        for e in entries {
            if !self.corpus_set.contains(e) {
                self.corpus_set.insert(e.clone());
                self.corpus.push(e.clone());
                imported += 1;
            }
        }
        imported
    }

    /// Machines booted over the fuzzer's lifetime when machine reuse is on
    /// (0 until the first step). A fresh-boot campaign would instead boot
    /// once per STI profile plus once per MTI.
    pub fn machine_boots(&self) -> u64 {
        self.pool.boots()
    }

    /// Covered instrumentation sites, sorted (for deterministic cross-shard
    /// coverage union).
    pub fn coverage_iids(&self) -> Vec<Iid> {
        let mut v: Vec<Iid> = self.coverage.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Crash occurrences per title (before dedup), oldest-title first.
    pub fn crash_counts(&self) -> &BTreeMap<String, u64> {
        &self.crash_counts
    }

    /// Captures the fuzzer's complete resumable state.
    pub fn checkpoint(&self) -> FuzzerCheckpoint {
        FuzzerCheckpoint {
            gen_state: self.gen.rng_state(),
            rng_pick: self.rng_pick,
            corpus: self.corpus.clone(),
            coverage: self.coverage_iids(),
            found: self.found.values().cloned().collect(),
            crash_counts: self.crash_counts.clone(),
            stats: self.stats.clone(),
        }
    }

    /// Rebuilds a fuzzer mid-campaign from a checkpoint. The resumed
    /// fuzzer's future output is byte-identical to the snapshotted one's:
    /// every deterministic input (RNG streams, corpus order, coverage set,
    /// found map) is restored; the machine pool — reset to boot state
    /// between steps by construction — is rebuilt lazily.
    pub fn from_checkpoint(cfg: FuzzConfig, ck: FuzzerCheckpoint) -> Fuzzer {
        let mut stats = ck.stats;
        stats.coverage = ck.coverage.len();
        Fuzzer {
            cfg,
            gen: StiGen::from_rng_state(ck.gen_state),
            corpus_set: ck.corpus.iter().cloned().collect(),
            corpus: ck.corpus,
            coverage: ck.coverage.into_iter().collect(),
            found: ck.found.into_iter().map(|b| (b.title.clone(), b)).collect(),
            crash_counts: ck.crash_counts,
            stats,
            rng_pick: ck.rng_pick,
            pool: MachinePool::new(),
        }
    }
}

/// Resumable snapshot of a [`Fuzzer`]'s complete deterministic state.
///
/// Everything that influences future campaign output is captured: the STI
/// generator's RNG, the corpus-pick stream, the corpus itself (order
/// matters — the pick stream indexes it), the coverage set, the found-bug
/// map (schedule traces included) and the statistics. The machine pool is
/// deliberately *not* captured: pooled machines are reset to boot state
/// between steps, so a resumed fuzzer rebooting its pool lazily produces
/// byte-identical output — only [`Fuzzer::machine_boots`], a throughput
/// counter, differs. Likewise [`FuzzConfig::reuse_machines`] is a perf
/// knob, not state.
#[derive(Clone, Debug)]
pub struct FuzzerCheckpoint {
    /// [`crate::sti::StiGen`] RNG state.
    pub gen_state: [u64; 4],
    /// Corpus-pick scramble state.
    pub rng_pick: u64,
    /// Corpus entries, oldest first.
    pub corpus: Vec<Sti>,
    /// Covered instrumentation sites, sorted.
    pub coverage: Vec<Iid>,
    /// Unique crashes found, in title order.
    pub found: Vec<FoundBug>,
    /// Crash occurrences per title (before dedup).
    pub crash_counts: BTreeMap<String, u64>,
    /// Statistics snapshot.
    pub stats: FuzzStats,
}

/// Convenience: a fresh machine with the given switches (re-exported for
/// benches that need raw access).
pub fn boot_kernel(bugs: BugSwitches) -> std::sync::Arc<Kctx> {
    Kctx::new(bugs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernelsim::BugId;

    #[test]
    fn fuzzer_is_deterministic() {
        let run = |seed| {
            let mut f = Fuzzer::new(FuzzConfig {
                seed,
                ..FuzzConfig::default()
            });
            for _ in 0..5 {
                f.step();
            }
            (
                f.stats().mtis_run,
                f.found().keys().cloned().collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn fuzzer_finds_bugs_on_buggy_kernel() {
        let mut f = Fuzzer::new(FuzzConfig {
            seed: 1,
            ..FuzzConfig::default()
        });
        f.run_until(3000, 3);
        assert!(
            !f.found().is_empty(),
            "the all-bugs kernel must yield crashes within the budget: {:?}",
            f.stats()
        );
        for bug in f.found().values() {
            assert!(bug.tests_to_find <= f.stats().mtis_run);
            assert!(!bug.barrier_location.is_empty());
        }
    }

    #[test]
    fn fuzzer_finds_nothing_on_fixed_kernel() {
        let mut f = Fuzzer::new(FuzzConfig {
            seed: 1,
            bugs: BugSwitches::none(),
            ..FuzzConfig::default()
        });
        for _ in 0..40 {
            f.step();
        }
        assert!(
            f.found().is_empty(),
            "no false positives on the patched kernel: {:?}",
            f.found().keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn coverage_grows_and_gates_corpus() {
        let mut f = Fuzzer::new(FuzzConfig {
            seed: 9,
            ..FuzzConfig::default()
        });
        f.step();
        let c1 = f.stats().coverage;
        assert!(c1 > 0);
        for _ in 0..10 {
            f.step();
        }
        assert!(f.stats().coverage >= c1);
        assert!(f.corpus_len() >= 1);
    }

    /// Pins the corpus-pick stream. The pick scramble is part of the
    /// campaign-schedule contract (like the `DetRng` golden tests): if this
    /// fails, every seeded campaign silently changed shape.
    #[test]
    fn golden_corpus_pick_stream() {
        let run = |seed: u64| {
            let mut sm = seed;
            let mut state = PICK_INIT ^ splitmix64(&mut sm);
            (0..8)
                .map(|_| corpus_pick(&mut state, 4, 0.5))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            run(0),
            vec![Some(0), Some(2), None, None, None, Some(2), Some(0), None]
        );
        assert_eq!(
            run(7),
            vec![None, None, None, Some(2), None, Some(2), Some(0), Some(2)]
        );
    }

    /// The two scheduler decisions must come from independent draws: the
    /// stream position after each call is the same (two draws) whether the
    /// call mutated or generated, and conditioning on the mutate outcome
    /// must not bias which corpus index is reachable.
    #[test]
    fn corpus_pick_decisions_are_decorrelated() {
        let mut state = PICK_INIT;
        let mut hits = [0u32; 5];
        let mut mutates = 0u32;
        for _ in 0..10_000 {
            if let Some(idx) = corpus_pick(&mut state, 5, 0.5) {
                hits[idx] += 1;
                mutates += 1;
            }
        }
        assert!(
            (4_500..=5_500).contains(&mutates),
            "ratio 0.5 gave {mutates}/10000 mutations"
        );
        for (i, &h) in hits.iter().enumerate() {
            let expect = mutates / 5;
            assert!(
                h >= expect * 8 / 10 && h <= expect * 12 / 10,
                "index {i} picked {h} times (expected ~{expect}): \
                 the pick is biased by the toss draw"
            );
        }
        // The fixed stride: the state advances exactly twice per call.
        let mut a = PICK_INIT ^ 1;
        let mut b = PICK_INIT ^ 1;
        corpus_pick(&mut a, 0, 1.0); // forced generate (empty corpus)
        corpus_pick(&mut b, 9, 1.0); // forced mutate
        assert_eq!(a, b, "decision outcome must not shift the stream");
    }

    /// A workload whose STIs never yield MTIs (here: a zero hint budget)
    /// must not hang `run_until`; the stall is surfaced in the stats.
    #[test]
    fn run_until_stalls_instead_of_spinning_on_hint_free_workload() {
        let mut f = Fuzzer::new(FuzzConfig {
            seed: 3,
            max_hints_per_pair: 0,
            ..FuzzConfig::default()
        });
        f.run_until(1_000, 1);
        let s = f.stats();
        assert_eq!(s.mtis_run, 0, "no hints, no MTIs");
        assert!(s.stalled, "the stall must be surfaced");
        assert_eq!(
            s.stis_run, STALL_LIMIT,
            "bounded by consecutive barren STIs"
        );
        assert_eq!(s.barren_stis, STALL_LIMIT);
    }

    #[test]
    fn productive_runs_never_report_a_stall() {
        let mut f = Fuzzer::new(FuzzConfig {
            seed: 1,
            ..FuzzConfig::default()
        });
        f.run_until(300, usize::MAX);
        assert!(!f.stats().stalled);
        assert!(f.stats().mtis_run >= 300);
    }

    #[test]
    fn corpus_import_dedupes_and_appends() {
        let mut f = Fuzzer::new(FuzzConfig::default());
        for _ in 0..5 {
            f.step();
        }
        let own: Vec<Sti> = f.corpus().to_vec();
        assert_eq!(f.import_corpus(&own), 0, "own entries are duplicates");
        // A shape generation cannot produce (templates emit ≥3 calls and
        // mutation only perturbs them), so it is certainly not in the corpus.
        let foreign = Sti {
            calls: vec![Syscall::WqPost; 8],
        };
        assert_eq!(f.import_corpus(std::slice::from_ref(&foreign)), 1);
        assert_eq!(f.corpus().last(), Some(&foreign));
        assert_eq!(f.import_corpus(std::slice::from_ref(&foreign)), 0);
    }

    /// A fuzzer resumed from a mid-campaign checkpoint must continue the
    /// exact run the snapshot interrupted: identical stats, coverage,
    /// corpus, crash counts and found set after the same further steps.
    #[test]
    fn checkpoint_resume_continues_byte_identically() {
        let cfg = FuzzConfig {
            seed: 11,
            ..FuzzConfig::default()
        };
        let mut a = Fuzzer::new(cfg.clone());
        for _ in 0..6 {
            a.step();
        }
        let mut b = Fuzzer::from_checkpoint(cfg, a.checkpoint());
        for _ in 0..6 {
            a.step();
            b.step();
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.coverage_iids(), b.coverage_iids());
        assert_eq!(a.corpus(), b.corpus());
        assert_eq!(a.crash_counts(), b.crash_counts());
        let keys = |f: &Fuzzer| f.found().keys().cloned().collect::<Vec<_>>();
        assert_eq!(keys(&a), keys(&b));
        for (ka, kb) in a.found().values().zip(b.found().values()) {
            assert_eq!(ka.digest_fnv, kb.digest_fnv);
            assert_eq!(ka.tests_to_find, kb.tests_to_find);
            assert_eq!(ka.trace.to_text(), kb.trace.to_text());
        }
    }

    #[test]
    fn hint_order_names_roundtrip() {
        for order in [
            HintOrder::MaxReorderFirst,
            HintOrder::MinReorderFirst,
            HintOrder::Shuffled,
        ] {
            assert_eq!(HintOrder::parse(order.name()), Ok(order));
        }
        assert!(HintOrder::parse("sideways").is_err());
    }

    #[test]
    fn campaign_finds_a_specific_seeded_bug() {
        // A focused campaign on the TLS kernel build finds Figure 7's bug
        // and diagnoses a store barrier.
        let mut f = Fuzzer::new(FuzzConfig {
            seed: 4,
            bugs: BugSwitches::only([BugId::TlsSkProt]),
            ..FuzzConfig::default()
        });
        f.run_until(4000, 1);
        let bug = f
            .found()
            .get(BugId::TlsSkProt.expected_title())
            .expect("Figure 7 bug found");
        assert_eq!(bug.reorder_type, ReorderType::StoreStore);
        assert!(bug.barrier_location.contains("smp_wmb"));
    }
}
