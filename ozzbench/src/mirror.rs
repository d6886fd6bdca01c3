//! Traced mirrors of the program's entry points, built from public calls.
//!
//! The benchmark adds no instrumentation inside the program: the traced
//! run re-implements `Fuzzer::step`, the campaign engine's round loop, trace
//! replay and triage out of the same public functions they call, and wraps
//! each call in a span. A mirror is only trusted when it reproduces the
//! untraced result exactly, so every traced run compares the two (see
//! `workloads`). The mirrors cover the configuration the workloads use:
//! `FuzzConfig::default()` on pooled machines, one worker thread.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

use kernelsim::{execute, BugSwitches, ExecRequest, Kctx, MachinePool, ReorderType};
use kutil::{fnv1a64, splitmix64};
use oemu::{EngineStats, Iid, ScheduleTrace};
use ozz::crashdb::CrashDb;
use ozz::fuzzer::{FoundBug, FuzzConfig, FuzzStats, STALL_LIMIT};
use ozz::hints::{calc_hints_for, HintKind};
use ozz::mti::{build_mtis, run_setup_prefix};
use ozz::profile_sti_on;
use ozz::report::TriageReport;
use ozz::repro::TraceReplay;
use ozz::sti::{Sti, StiGen};
use ozz::triage::{BisectOutcome, Minimized, Reproducer, Triager};

use crate::trace::{self, add, span, Counter, Layer};

// The corpus-pick stream of `ozz::fuzzer` (private there): the mirror must
// draw exactly the same mutate-vs-generate decisions.
const PICK_INIT: u64 = 0x9e37_79b9_7f4a_7c15;
const PICK_MUL: u64 = 0x5851_f42d_4c95_7f2d;

fn pick_draw(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(PICK_MUL).wrapping_add(1);
    *state
}

fn corpus_pick(state: &mut u64, corpus_len: usize, mutate_ratio: f64) -> Option<usize> {
    let toss = (pick_draw(state) >> 33) as f64 / (1u64 << 31) as f64;
    let idx_draw = pick_draw(state);
    if corpus_len == 0 || toss >= mutate_ratio {
        return None;
    }
    Some((idx_draw % corpus_len as u64) as usize)
}

/// Adds the engine-statistics delta of one execution to the counters.
fn count_exec(before: EngineStats, after: EngineStats) {
    add(Counter::Execs, 1);
    add(Counter::Commits, after.commits - before.commits);
    add(Counter::Delayed, after.delayed - before.delayed);
    add(Counter::Forwards, after.forwards - before.forwards);
    add(
        Counter::VersionedReads,
        after.versioned_reads - before.versioned_reads,
    );
    add(Counter::Barriers, after.barriers - before.barriers);
}

/// `ozz::fuzzer::Fuzzer` for the default configuration, one span per call.
pub struct MirrorFuzzer {
    cfg: FuzzConfig,
    gen: StiGen,
    corpus: Vec<Sti>,
    corpus_set: HashSet<Sti>,
    coverage: HashSet<Iid>,
    found: BTreeMap<String, FoundBug>,
    crash_counts: BTreeMap<String, u64>,
    stats: FuzzStats,
    rng_pick: u64,
    pool: MachinePool,
}

impl MirrorFuzzer {
    pub fn new(cfg: FuzzConfig) -> MirrorFuzzer {
        let mut sm = cfg.seed;
        MirrorFuzzer {
            gen: StiGen::new(cfg.seed),
            rng_pick: PICK_INIT ^ splitmix64(&mut sm),
            cfg,
            corpus: Vec::new(),
            corpus_set: HashSet::new(),
            coverage: HashSet::new(),
            found: BTreeMap::new(),
            crash_counts: BTreeMap::new(),
            stats: FuzzStats::default(),
            pool: MachinePool::new(),
        }
    }

    pub fn stats(&self) -> &FuzzStats {
        &self.stats
    }

    pub fn found(&self) -> &BTreeMap<String, FoundBug> {
        &self.found
    }

    pub fn crash_counts(&self) -> &BTreeMap<String, u64> {
        &self.crash_counts
    }

    pub fn corpus(&self) -> &[Sti] {
        &self.corpus
    }

    pub fn coverage(&self) -> &HashSet<Iid> {
        &self.coverage
    }

    /// Adds the pool's restore-path counters (call once, between steps).
    pub fn count_restores(&self) {
        let rc = self.pool.restore_counters();
        add(Counter::WordsReplayed, rc.words_replayed);
        add(Counter::FullFallbacks, rc.full_fallbacks);
    }

    pub fn import_corpus(&mut self, entries: &[Sti]) {
        for e in entries {
            if !self.corpus_set.contains(e) {
                self.corpus_set.insert(e.clone());
                self.corpus.push(e.clone());
            }
        }
    }

    /// `Fuzzer::step`.
    pub fn step(&mut self) {
        trace::begin();
        let mtis_before = self.stats.mtis_run;
        let sti = span(Layer::Sti, || {
            match corpus_pick(&mut self.rng_pick, self.corpus.len(), self.cfg.mutate_ratio) {
                Some(idx) => {
                    let base = self.corpus[idx].clone();
                    self.gen.mutate(&base)
                }
                None => self.gen.generate(),
            }
        });
        self.stats.stis_run += 1;
        trace::begin();
        let boots = self.pool.boots();
        let m = self
            .pool
            .checkout_with_model(&self.cfg.bugs, self.cfg.memory_model);
        trace::end(if self.pool.boots() > boots {
            Layer::Boot
        } else {
            Layer::PoolCheckout
        });
        let k = m.kctx();
        k.set_exec_mode(self.cfg.exec_mode);
        let traces = span(Layer::Profile, || profile_sti_on(k, &sti));
        add(
            Counter::ProfileEvents,
            traces.iter().map(|t| t.events.len() as u64).sum(),
        );
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

        let model = self.cfg.memory_model;
        let generated = Cell::new(0u64);
        let mtis = span(Layer::MtiBuild, || {
            build_mtis(
                &sti,
                |i, j| {
                    let hints = span(Layer::Hints, || {
                        calc_hints_for(&traces[i].events, &traces[j].events, model)
                    });
                    generated.set(generated.get() + hints.len() as u64);
                    hints
                },
                self.cfg.max_hints_per_pair,
            )
        });
        add(Counter::HintsGenerated, generated.get());
        add(Counter::HintsExecuted, mtis.len() as u64);

        let mut rank_of_pair: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        let mut cur_pair = None;
        let mut post_setup = None;
        for mti in mtis {
            let rank = rank_of_pair.entry((mti.i, mti.j)).or_insert(0);
            let this_rank = *rank;
            *rank += 1;
            self.stats.mtis_run += 1;
            if cur_pair != Some((mti.i, mti.j)) {
                span(Layer::Reset, || k.reset());
                span(Layer::Setup, || mti.run_setup(k));
                post_setup = Some(span(Layer::Snapshot, || k.snapshot()));
                cur_pair = Some((mti.i, mti.j));
            } else {
                let snap = post_setup.as_ref().expect("snapshot set with cur_pair");
                span(Layer::Restore, || k.restore(snap));
            }
            let stats_before = k.engine.stats();
            let out = span(Layer::Pair, || mti.run_pair_pooled(&m));
            count_exec(stats_before, k.engine.stats());
            if !out.crashed() {
                continue;
            }
            add(Counter::CrashingPairs, 1);
            self.stats.crashes_total += out.crashes.len() as u64;
            for crash in &out.crashes {
                *self.crash_counts.entry(crash.title.clone()).or_default() += 1;
            }
            if out
                .crashes
                .iter()
                .all(|c| self.found.contains_key(&c.title))
            {
                continue;
            }
            let snap = post_setup.as_ref().expect("snapshot set with cur_pair");
            let rec = span(Layer::Record, || {
                span(Layer::Restore, || k.restore(snap));
                mti.run_pair_pooled_recorded(&m)
            });
            for crash in &out.crashes {
                if self.found.contains_key(&crash.title) {
                    continue;
                }
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
        for t in traces {
            k.engine.recycle_profile_events(t.events);
        }
        span(Layer::PoolCheckin, || self.pool.checkin(m));
        if self.stats.mtis_run == mtis_before {
            self.stats.barren_stis += 1;
        } else {
            self.stats.barren_stis = 0;
        }
        trace::end(Layer::FuzzerStep);
    }
}

/// The deterministic part of a campaign report, as both the untraced
/// `CampaignReport` and the mirror produce it.
#[derive(Debug, PartialEq, Eq)]
pub struct CampaignSummary {
    /// `(stis_run, mtis_run, crashes_total, coverage)`.
    pub stats: (u64, u64, u64, usize),
    /// Per found title: tests to find, hint rank, digest, trace text.
    pub found: Vec<(String, u64, usize, u64, String)>,
    /// Crash database: `(digest, title, count)` per record.
    pub crashdb: Vec<(u64, String, u64)>,
    pub rounds: u64,
}

impl CampaignSummary {
    pub fn new(
        stats: &FuzzStats,
        found: &BTreeMap<String, FoundBug>,
        crashdb: &CrashDb,
        rounds: u64,
    ) -> CampaignSummary {
        CampaignSummary {
            stats: (
                stats.stis_run,
                stats.mtis_run,
                stats.crashes_total,
                stats.coverage,
            ),
            found: found
                .values()
                .map(|b| {
                    (
                        b.title.clone(),
                        b.tests_to_find,
                        b.hint_rank,
                        b.digest_fnv,
                        b.trace.to_text(),
                    )
                })
                .collect(),
            crashdb: crashdb
                .records()
                .map(|r| (r.digest_fnv, r.title.clone(), r.count))
                .collect(),
            rounds,
        }
    }
}

struct Stream {
    slice: u64,
    epoch: u64,
    corpus_mark: usize,
    bugs_sent: BTreeSet<String>,
    counts_sent: BTreeMap<String, u64>,
    done: bool,
    fuzzer: MirrorFuzzer,
}

struct EpochReport {
    bugs: Vec<FoundBug>,
    sightings: Vec<(String, u64)>,
    corpus: Vec<Sti>,
}

/// `ozz::parallel`'s shard seed: the raw seed for shard 0, the shard-th
/// value of the seed's splitmix chain otherwise.
fn shard_seed(seed: u64, shard: usize) -> u64 {
    let mut sm = seed;
    let mut derived = seed;
    for _ in 0..shard {
        derived = splitmix64(&mut sm);
    }
    derived
}

fn run_epoch(st: &mut Stream, epoch_mtis: u64, expected: &[String]) -> EpochReport {
    let f = &mut st.fuzzer;
    let target = st.slice.min((st.epoch + 1) * epoch_mtis);
    let mut found_all = false;
    while f.stats().mtis_run < target {
        f.step();
        if expected.iter().all(|t| f.found().contains_key(t)) {
            found_all = true;
            break;
        }
        if f.stats().barren_stis >= STALL_LIMIT {
            break;
        }
    }
    let stalled = f.stats().barren_stis >= STALL_LIMIT;
    st.done = found_all || stalled || f.stats().mtis_run >= st.slice;
    let bugs: Vec<FoundBug> = f
        .found()
        .iter()
        .filter(|(title, _)| !st.bugs_sent.contains(*title))
        .map(|(_, b)| b.clone())
        .collect();
    st.bugs_sent.extend(bugs.iter().map(|b| b.title.clone()));
    let mut sightings = Vec::new();
    for (title, &n) in f.crash_counts() {
        let sent = st.counts_sent.get(title).copied().unwrap_or(0);
        if n > sent {
            sightings.push((title.clone(), n - sent));
            st.counts_sent.insert(title.clone(), n);
        }
    }
    let corpus = f.corpus()[st.corpus_mark..].to_vec();
    st.epoch += 1;
    EpochReport {
        bugs,
        sightings,
        corpus,
    }
}

/// `CampaignBuilder::new(seed).shards(shards).workers(1).budget(budget)
/// .target(bugs, expected).run()` with the default epoch length: mirror
/// shards interleaved round by round on this thread.
pub fn campaign(
    seed: u64,
    shards: usize,
    budget: u64,
    bugs: &BugSwitches,
    expected: &[String],
) -> CampaignSummary {
    trace::begin();
    let epoch_mtis = ozz::parallel::DEFAULT_EPOCH_MTIS;
    let mut streams: Vec<Stream> = (0..shards)
        .map(|shard| Stream {
            slice: budget / shards as u64 + u64::from((shard as u64) < budget % shards as u64),
            epoch: 0,
            corpus_mark: 0,
            bugs_sent: BTreeSet::new(),
            counts_sent: BTreeMap::new(),
            done: false,
            fuzzer: MirrorFuzzer::new(FuzzConfig {
                seed: shard_seed(seed, shard),
                bugs: bugs.clone(),
                ..FuzzConfig::default()
            }),
        })
        .collect();
    let model_name = streams[0].fuzzer.cfg.memory_model.name().to_string();
    let switches_key = bugs.key();
    let mut found: BTreeMap<String, FoundBug> = BTreeMap::new();
    let mut crashdb = CrashDb::new();
    let mut round = 0u64;
    loop {
        let live: Vec<usize> = (0..shards).filter(|&s| !streams[s].done).collect();
        if live.is_empty() {
            break;
        }
        let mut reports: BTreeMap<usize, EpochReport> = BTreeMap::new();
        for &s in &live {
            let report = span(Layer::CampaignEpoch, || {
                run_epoch(&mut streams[s], epoch_mtis, expected)
            });
            reports.insert(s, report);
        }
        let stop = span(Layer::CampaignMerge, || {
            for report in reports.values() {
                for bug in &report.bugs {
                    found
                        .entry(bug.title.clone())
                        .or_insert_with(|| bug.clone());
                }
            }
            for (&s, report) in &reports {
                for (title, n) in &report.sightings {
                    let bug = found.get(title).expect("sighted title was merged");
                    crashdb.record(bug, s, round, &model_name, &switches_key, *n);
                }
            }
            round += 1;
            let stop = expected.iter().all(|t| found.contains_key(t));
            if !stop {
                for &s in &live {
                    if streams[s].done {
                        continue;
                    }
                    let entries: Vec<Sti> = reports
                        .iter()
                        .filter(|(&r, _)| r != s)
                        .flat_map(|(_, report)| report.corpus.iter().cloned())
                        .collect();
                    let st = &mut streams[s];
                    st.fuzzer.import_corpus(&entries);
                    st.corpus_mark = st.fuzzer.corpus().len();
                }
            }
            stop
        });
        if stop || streams.iter().all(|st| st.done) {
            break;
        }
    }
    add(Counter::Rounds, round);
    let mut coverage: HashSet<Iid> = HashSet::new();
    let mut stats = FuzzStats::default();
    for st in &streams {
        st.fuzzer.count_restores();
        coverage.extend(st.fuzzer.coverage().iter().copied());
        let s = st.fuzzer.stats();
        stats.stis_run += s.stis_run;
        stats.mtis_run += s.mtis_run;
        stats.crashes_total += s.crashes_total;
    }
    stats.coverage = coverage.len();
    let summary = CampaignSummary::new(&stats, &found, &crashdb, round);
    drop(streams);
    trace::end(Layer::CampaignRun);
    summary
}

/// `ozz::repro::replay_trace`.
pub fn replay_trace(
    bugs: BugSwitches,
    sti: &Sti,
    i: usize,
    j: usize,
    trace_in: &ScheduleTrace,
) -> TraceReplay {
    span(Layer::ReproReplay, || {
        let k = span(Layer::Boot, || Kctx::new_with_model(bugs, trace_in.model));
        span(Layer::Setup, || run_setup_prefix(&k, &sti.calls, i, j));
        let before = k.engine.stats();
        let (outcome, report) = span(Layer::ExecReplay, || {
            execute(
                &k,
                ExecRequest::replay(trace_in, sti.calls[i], sti.calls[j]),
            )
            .into_replayed()
        });
        count_exec(before, k.engine.stats());
        let digest = span(Layer::Digest, || k.state_digest());
        TraceReplay {
            outcome,
            digest,
            diverged: report.diverged,
        }
    })
}

/// `ozz::triage::Triager::triage`: minimize, bisect, render the report.
pub fn triage(triager: &Triager, r: &Reproducer) -> (Minimized, BisectOutcome) {
    span(Layer::Triage, || {
        let min = span(Layer::TriageMinimize, || triager.minimize(r));
        let (bisect, probes) = span(Layer::TriageBisect, || triager.bisect(r, &min));
        add(Counter::TriageReplays, min.stats.replays);
        add(Counter::BisectProbes, probes);
        add(Counter::EventsAfter, min.stats.events_after as u64);
        let _report = TriageReport::new(r, &min, &bisect);
        (min, bisect)
    })
}
