//! The workloads: set-up, the repeated measured unit, the correctness
//! checks, and the traced run that mirrors the unit.
//!
//! Every workload is closed-loop and single-threaded: one caller issues the
//! next operation when the previous one returns. A run sets up
//! `plan.setups` times, then repeats one *unit* of identical work — the same
//! inputs, all derived from the run seed — until `seconds` have passed, and
//! at least [`MIN_REPS`] times. Identical repetitions allow two things:
//! every repetition must produce the same result, which checks determinism;
//! and the repetition the host's other tenants disturbed least can be told
//! apart from the rest, since interference only ever slows the same work
//! down.

use std::collections::BTreeMap;
use std::time::Instant;

use kernelsim::{BugId, BugSwitches, MemoryModel};
use kutil::{fnv1a64, splitmix64, DetRng};
use ozz::campaign::{CampaignBuilder, CampaignReport};
use ozz::fuzzer::{FoundBug, FuzzConfig, FuzzStats, Fuzzer, STALL_LIMIT};
use ozz::repro::{replay_trace, TraceReplay};
use ozz::triage::{record_reproducer_under, BisectOutcome, Reproducer, Triager};

use crate::host::minor_faults;
use crate::mirror::{self, CampaignSummary, MirrorFuzzer};
use crate::trace::{self, Recorder};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Steady,
    Sharded,
    Discover,
    Replay,
    Triage,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Steady,
        Workload::Sharded,
        Workload::Discover,
        Workload::Replay,
        Workload::Triage,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Sharded => "sharded",
            Workload::Discover => "discover",
            Workload::Replay => "replay",
            Workload::Triage => "triage",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Sizes of the set-ups and units. `Plan::FULL` is the benchmark; tests use
/// a smaller one.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Set-up repetitions per run; `setup_s` is their median.
    pub setups: usize,
    /// MTIs of the campaign each `steady`, `sharded` and `discover` set-up
    /// runs.
    pub warmup_mtis: u64,
    /// `steady`: campaigns per unit, and each one's MTIs.
    pub steady_campaigns: u64,
    pub steady_mtis: u64,
    /// `sharded`: shard streams and MTI budget of the unit's campaign.
    pub shards: usize,
    pub sharded_budget: u64,
    /// `discover`: campaigns per unit, and each one's MTI cap.
    pub discover_campaigns: u64,
    pub discover_cap: u64,
    /// `replay` and `triage`: rounds over the reproducers per unit.
    pub replay_rounds: usize,
    pub triage_rounds: usize,
}

impl Plan {
    pub const FULL: Plan = Plan {
        setups: 7,
        warmup_mtis: 2_000,
        steady_campaigns: 4,
        steady_mtis: 25_000,
        shards: 4,
        sharded_budget: 40_000,
        discover_campaigns: 100,
        discover_cap: 20_000,
        replay_rounds: 30,
        triage_rounds: 5,
    };

    /// The sizes printed with the host fingerprint.
    pub fn settings(&self) -> Vec<(&'static str, String)> {
        vec![
            ("setups", self.setups.to_string()),
            ("warmup_mtis", self.warmup_mtis.to_string()),
            ("steady_campaigns", self.steady_campaigns.to_string()),
            ("steady_mtis", self.steady_mtis.to_string()),
            ("shards", self.shards.to_string()),
            ("sharded_budget", self.sharded_budget.to_string()),
            ("discover_campaigns", self.discover_campaigns.to_string()),
            ("discover_cap", self.discover_cap.to_string()),
            ("replay_rounds", self.replay_rounds.to_string()),
            ("triage_rounds", self.triage_rounds.to_string()),
        ]
    }
}

/// Repetitions a run makes even when `seconds` ends sooner.
const MIN_REPS: usize = 3;

/// A `steady` latency sample: the `Fuzzer::step` calls that run this many
/// MTIs, the campaign engine's default batch.
const STEADY_BATCH_MTIS: u64 = ozz::parallel::DEFAULT_EPOCH_MTIS;

/// One repetition of a unit.
#[derive(Default)]
pub struct Rep {
    /// Work items done: MTIs, replays or triages.
    pub work: u64,
    pub wall_s: f64,
    /// The unit's timed operations, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Checked operations, and how many failed their check.
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Fingerprint of the unit's deterministic result.
    pub result: u64,
}

/// What an untraced run measured.
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub reps: Vec<Rep>,
}

/// What a traced run measured.
pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of the untraced reference passes and of the traced mirror
    /// passes over the same units.
    pub reference_s: f64,
    pub mirror_s: f64,
    /// Work items (MTIs, replays or triages) in the mirror passes.
    pub work: u64,
    /// Minor page faults per work item in the reference passes.
    pub faults_per_work: f64,
    pub recorder: Recorder,
    pub problems: Vec<String>,
}

/// A workload after set-up: its unit, runnable untraced and mirrored.
trait Unit {
    fn run(&self) -> Rep;
    /// The unit through the traced mirrors: the result fingerprint, and
    /// problems the checks found.
    fn mirror(&self) -> (u64, Vec<String>);
}

// Seed streams: set-up inputs never coincide with measured inputs.
const SETUP: u64 = 1;
const MEASURE: u64 = 2;

/// Input seed `i` of `stream`, derived from the run seed.
fn derive(seed: u64, stream: u64, i: u64) -> u64 {
    let mut s = seed ^ (stream << 56) ^ i;
    splitmix64(&mut s)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn fingerprint(x: &impl std::fmt::Debug) -> u64 {
    fnv1a64(format!("{x:?}").as_bytes())
}

fn new_titles() -> Vec<String> {
    BugId::NEW
        .iter()
        .map(|b| b.expected_title().to_string())
        .collect()
}

fn corpus_bugs() -> Vec<BugId> {
    BugId::NEW
        .iter()
        .chain(BugId::KNOWN.iter())
        .chain(BugId::EXTENDED.iter())
        .copied()
        .collect()
}

fn corpus_titles() -> Vec<String> {
    corpus_bugs()
        .iter()
        .map(|b| b.expected_title().to_string())
        .collect()
}

/// The set-up of workload `w`. `steady`, `sharded` and `discover` run the
/// first `warmup_mtis` MTIs of a campaign on the set-up seed (it hunts every
/// corpus title, so it spends that whole budget); `replay` and `triage`
/// record a reproducer for each of the 24 corpus bugs under TSO and return
/// them.
fn set_up(w: Workload, seed: u64, plan: &Plan) -> Result<Vec<Reproducer>, String> {
    let s = derive(seed, SETUP, 0);
    match w {
        Workload::Steady => {
            let mut f = Fuzzer::new(steady_cfg(s));
            while f.stats().mtis_run < plan.warmup_mtis {
                f.step();
            }
            Ok(Vec::new())
        }
        Workload::Sharded => {
            campaign(s, plan.shards, plan.warmup_mtis, corpus_titles());
            Ok(Vec::new())
        }
        Workload::Discover => {
            campaign(s, 1, plan.warmup_mtis, corpus_titles());
            Ok(Vec::new())
        }
        Workload::Replay | Workload::Triage => corpus_bugs()
            .into_iter()
            .map(|b| {
                record_reproducer_under(b, MemoryModel::Tso).ok_or(format!("{b}: no reproducer"))
            })
            .collect(),
    }
}

/// The unit of workload `w`, from the reproducers of its first set-up.
fn build_unit(
    w: Workload,
    seed: u64,
    plan: &Plan,
    corpus: Vec<Reproducer>,
) -> Result<Box<dyn Unit>, String> {
    let seeds = |n: u64| (0..n).map(|i| derive(seed, MEASURE, i)).collect();
    Ok(match w {
        Workload::Steady => Box::new(Steady {
            seeds: seeds(plan.steady_campaigns),
            mtis: plan.steady_mtis,
        }),
        Workload::Sharded => Box::new(Campaigns {
            seeds: seeds(1),
            shards: plan.shards,
            budget: plan.sharded_budget,
            expected: corpus_titles(),
            discover: false,
        }),
        Workload::Discover => Box::new(Campaigns {
            seeds: seeds(plan.discover_campaigns),
            shards: 1,
            budget: plan.discover_cap,
            expected: new_titles(),
            discover: true,
        }),
        Workload::Replay => {
            // The sbitmap reproducer needs the §6.2 migration override,
            // which a fresh-boot replay does not apply.
            let corpus: Vec<Reproducer> = corpus
                .into_iter()
                .filter(|r| !r.migration_override)
                .collect();
            let digests = corpus
                .iter()
                .map(|r| check_replay(r, &replay_once(r), None))
                .collect::<Result<Vec<u64>, String>>()?;
            let order = order(seed, corpus.len(), plan.replay_rounds);
            Box::new(Replay {
                corpus,
                digests,
                order,
            })
        }
        Workload::Triage => {
            let order = order(seed, corpus.len(), plan.triage_rounds);
            Box::new(Triage { corpus, order })
        }
    })
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Sets up once, builds the unit, then repeats it. The set-up runs again
/// before each of the first repetitions, so its `plan.setups` timings
/// spread over the run instead of sharing one moment of host load.
pub fn measure(w: Workload, seed: u64, seconds: f64, plan: &Plan) -> Result<Measured, String> {
    let (corpus, first) = timed(|| set_up(w, seed, plan));
    let unit = build_unit(w, seed, plan, corpus?)?;
    let mut setup_s = vec![first];
    let set_up_next = |setup_s: &mut Vec<f64>| -> Result<(), String> {
        let (res, t) = timed(|| set_up(w, seed, plan));
        setup_s.push(t);
        res.map(drop)
    };
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        if setup_s.len() < plan.setups {
            set_up_next(&mut setup_s)?;
        }
        let mut rep = unit.run();
        if reps.first().is_some_and(|first| first.result != rep.result) {
            rep.failed = rep.attempted;
            rep.problems
                .push(format!("repetition {} gave a different result", reps.len()));
        }
        reps.push(rep);
    }
    while setup_s.len() < plan.setups {
        set_up_next(&mut setup_s)?;
    }
    Ok(Measured { setup_s, reps })
}

pub fn traced(w: Workload, seed: u64, seconds: f64, plan: &Plan) -> Result<Traced, String> {
    let unit = build_unit(w, seed, plan, set_up(w, seed, plan)?)?;
    let (mut attempted, mut failed, mut work, mut faults) = (0, 0, 0, 0);
    let (mut reference_s, mut mirror_s) = (0.0, 0.0);
    let mut problems = Vec::new();
    trace::start();
    let start = Instant::now();
    while work == 0 || start.elapsed().as_secs_f64() < seconds {
        let faults0 = minor_faults();
        let rep = unit.run();
        faults += minor_faults() - faults0;
        reference_s += rep.wall_s;
        let t = Instant::now();
        let (result, mirror_problems) = unit.mirror();
        mirror_s += t.elapsed().as_secs_f64();
        attempted += rep.attempted;
        work += rep.work;
        failed += rep.failed;
        problems.extend(rep.problems);
        if result != rep.result || !mirror_problems.is_empty() {
            failed += rep.attempted;
            problems.extend(mirror_problems);
            problems.push(format!(
                "mirror result {result:016x} differs from the reference {:016x}",
                rep.result
            ));
        }
    }
    Ok(Traced {
        attempted,
        failed,
        reference_s,
        mirror_s,
        work,
        faults_per_work: faults as f64 / work as f64,
        recorder: trace::finish(),
        problems,
    })
}

// ---------------------------------------------------------------------
// steady: serial campaigns, timed per 64-MTI batch of steps.
// ---------------------------------------------------------------------

fn steady_cfg(seed: u64) -> FuzzConfig {
    FuzzConfig {
        seed,
        bugs: BugSwitches::all(),
        ..FuzzConfig::default()
    }
}

/// `steady`'s unit: for each seed, a fresh `Fuzzer` on the all-bugs kernel
/// stepped until `mtis` MTIs have run. Several campaigns per unit keep one
/// seed's campaign content from deciding the run's numbers.
struct Steady {
    seeds: Vec<u64>,
    mtis: u64,
}

/// The deterministic result of a serial campaign.
fn serial_result(
    stats: &FuzzStats,
    found: &BTreeMap<String, FoundBug>,
    crash_counts: &BTreeMap<String, u64>,
) -> u64 {
    fingerprint(&(
        CampaignSummary::new(stats, found, &Default::default(), 0),
        crash_counts,
    ))
}

/// Problems with a finished serial campaign: every NEW bug must be found,
/// the per-title crash counts must add up, and it must not stall.
fn check_serial(f: &Fuzzer) -> Vec<String> {
    let mut problems: Vec<String> = new_titles()
        .into_iter()
        .filter(|t| !f.found().contains_key(t))
        .map(|t| format!("NEW bug not found: {t}"))
        .collect();
    let counted: u64 = f.crash_counts().values().sum();
    if counted != f.stats().crashes_total {
        problems.push(format!(
            "crash counts sum to {counted}, crashes_total is {}",
            f.stats().crashes_total
        ));
    }
    if f.stats().barren_stis >= STALL_LIMIT {
        problems.push("campaign stalled".into());
    }
    problems
}

impl Unit for Steady {
    fn run(&self) -> Rep {
        let mut rep = Rep::default();
        let mut results = Vec::new();
        let start = Instant::now();
        for &seed in &self.seeds {
            let mut f = Fuzzer::new(steady_cfg(seed));
            while f.stats().mtis_run < self.mtis && f.stats().barren_stis < STALL_LIMIT {
                let t = Instant::now();
                let target = (f.stats().mtis_run + STEADY_BATCH_MTIS).min(self.mtis);
                while f.stats().mtis_run < target && f.stats().barren_stis < STALL_LIMIT {
                    f.step();
                }
                rep.latencies_ms.push(ms_since(t));
            }
            let problems = check_serial(&f);
            rep.attempted += 1;
            rep.failed += u64::from(!problems.is_empty());
            rep.problems.extend(problems);
            rep.work += f.stats().mtis_run;
            results.push(serial_result(f.stats(), f.found(), f.crash_counts()));
        }
        rep.wall_s = start.elapsed().as_secs_f64();
        rep.result = fingerprint(&results);
        rep
    }

    fn mirror(&self) -> (u64, Vec<String>) {
        let results: Vec<u64> = self
            .seeds
            .iter()
            .map(|&seed| {
                let mut m = MirrorFuzzer::new(steady_cfg(seed));
                while m.stats().mtis_run < self.mtis && m.stats().barren_stis < STALL_LIMIT {
                    m.step();
                }
                m.count_restores();
                serial_result(m.stats(), m.found(), m.crash_counts())
            })
            .collect();
        (fingerprint(&results), Vec::new())
    }
}

// ---------------------------------------------------------------------
// sharded and discover: `CampaignBuilder` campaigns.
// ---------------------------------------------------------------------

/// A campaign on the all-bugs kernel, one worker thread.
fn campaign(seed: u64, shards: usize, budget: u64, expected: Vec<String>) -> CampaignReport {
    CampaignBuilder::new(seed)
        .shards(shards)
        .workers(1)
        .budget(budget)
        .target(BugSwitches::all(), expected)
        .run()
}

/// The unit of `sharded` and `discover`: one campaign per seed.
///
/// `sharded` runs one 4-shard campaign whose expected set holds all 24
/// corpus titles; the sbitmap and wrong-value bugs never crash, so it
/// spends its whole budget with four machines alive and the engine's
/// rounds, merges and corpus broadcasts running. Its latency is the
/// engine's own per-batch wall time (`ShardStats::batch_micros`), since the
/// campaign is one call. `discover` runs default Table 3 campaigns, each
/// stopping once all 11 NEW bugs are found; its latency is a campaign's.
struct Campaigns {
    seeds: Vec<u64>,
    shards: usize,
    budget: u64,
    expected: Vec<String>,
    discover: bool,
}

impl Campaigns {
    /// Problems with a finished campaign: the crash database must tally
    /// every crash; a `discover` campaign must find all its targets within
    /// its cap, a `sharded` one must spend its whole budget.
    fn check(&self, r: &CampaignReport) -> Vec<String> {
        let mut bad = Vec::new();
        let tallied: u64 = r.crashes.records().map(|rec| rec.count).sum();
        if tallied != r.stats.crashes_total {
            bad.push(format!(
                "crashdb tallies {tallied} crashes, crashes_total is {}",
                r.stats.crashes_total
            ));
        }
        let missing: Vec<&String> = self
            .expected
            .iter()
            .filter(|t| !r.found.contains_key(*t))
            .collect();
        if self.discover && !missing.is_empty() {
            bad.push(format!("not found within the cap: {missing:?}"));
        }
        if !self.discover && r.stats.mtis_run < self.budget {
            bad.push(format!("ran {} of {} MTIs", r.stats.mtis_run, self.budget));
        }
        bad
    }
}

impl Unit for Campaigns {
    fn run(&self) -> Rep {
        let mut rep = Rep::default();
        let mut summaries = Vec::new();
        let start = Instant::now();
        for &seed in &self.seeds {
            let t = Instant::now();
            let r = campaign(seed, self.shards, self.budget, self.expected.clone());
            let wall_ms = ms_since(t);
            if self.discover {
                rep.latencies_ms.push(wall_ms);
            } else {
                for s in &r.shard_stats {
                    rep.latencies_ms
                        .extend(s.batch_micros.iter().map(|&us| us as f64 / 1e3));
                }
            }
            rep.attempted += 1;
            rep.work += r.stats.mtis_run;
            let bad = self.check(&r);
            if !bad.is_empty() {
                rep.failed += 1;
                rep.problems.extend(
                    bad.into_iter()
                        .map(|b| format!("campaign {seed:016x}: {b}")),
                );
            }
            summaries.push(CampaignSummary::new(
                &r.stats, &r.found, &r.crashes, r.rounds,
            ));
        }
        rep.wall_s = start.elapsed().as_secs_f64();
        rep.result = fingerprint(&summaries);
        rep
    }

    fn mirror(&self) -> (u64, Vec<String>) {
        let summaries: Vec<CampaignSummary> = self
            .seeds
            .iter()
            .map(|&seed| {
                mirror::campaign(
                    seed,
                    self.shards,
                    self.budget,
                    &BugSwitches::all(),
                    &self.expected,
                )
            })
            .collect();
        (fingerprint(&summaries), Vec::new())
    }
}

// ---------------------------------------------------------------------
// replay and triage: recorded reproducers for the whole bug corpus.
// ---------------------------------------------------------------------

fn bug_of(r: &Reproducer) -> BugId {
    r.bug.expect("recorded reproducers name their bug")
}

/// `rounds` rounds over `n` reproducers, each round in its own seeded
/// order.
fn order(seed: u64, n: usize, rounds: usize) -> Vec<usize> {
    let mut rng = DetRng::new(derive(seed, MEASURE, 0));
    let mut out = Vec::with_capacity(n * rounds);
    for _ in 0..rounds {
        let mut round: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut round);
        out.extend(round);
    }
    out
}

fn replay_once(r: &Reproducer) -> TraceReplay {
    replay_trace(BugSwitches::only([bug_of(r)]), &r.sti, r.i, r.j, &r.trace)
}

/// A replay's check: it must follow the trace, show the recorded symptom
/// and land on the reference digest. Returns the digest's fingerprint.
fn check_replay(r: &Reproducer, rep: &TraceReplay, want: Option<u64>) -> Result<u64, String> {
    let fnv = fnv1a64(rep.digest.as_bytes());
    if rep.diverged {
        return Err(format!("{}: replay diverged", bug_of(r)));
    }
    if !r.verdict.holds(&rep.outcome) {
        return Err(format!(
            "{}: replay missed {}",
            bug_of(r),
            r.verdict.describe()
        ));
    }
    match want {
        Some(w) if w != fnv => Err(format!(
            "{}: digest {fnv:016x}, expected {w:016x}",
            bug_of(r)
        )),
        _ => Ok(fnv),
    }
}

/// `replay`'s unit: `replay_rounds` seeded rounds of `repro::replay_trace`
/// over the 23 reproducers that replay on a fresh boot. `digests` holds
/// each one's digest from a set-up replay.
struct Replay {
    corpus: Vec<Reproducer>,
    digests: Vec<u64>,
    order: Vec<usize>,
}

impl Unit for Replay {
    fn run(&self) -> Rep {
        let mut rep = Rep::default();
        let start = Instant::now();
        let mut digests = Vec::with_capacity(self.order.len());
        for &idx in &self.order {
            let t = Instant::now();
            let out = replay_once(&self.corpus[idx]);
            rep.latencies_ms.push(ms_since(t));
            rep.attempted += 1;
            digests.push(fnv1a64(out.digest.as_bytes()));
            if let Err(e) = check_replay(&self.corpus[idx], &out, Some(self.digests[idx])) {
                rep.failed += 1;
                rep.problems.push(e);
            }
        }
        rep.wall_s = start.elapsed().as_secs_f64();
        rep.work = rep.attempted;
        rep.result = fingerprint(&digests);
        rep
    }

    fn mirror(&self) -> (u64, Vec<String>) {
        let mut digests = Vec::with_capacity(self.order.len());
        let mut problems = Vec::new();
        for &idx in &self.order {
            let r = &self.corpus[idx];
            let out =
                mirror::replay_trace(BugSwitches::only([bug_of(r)]), &r.sti, r.i, r.j, &r.trace);
            digests.push(fnv1a64(out.digest.as_bytes()));
            if let Err(e) = check_replay(r, &out, Some(self.digests[idx])) {
                problems.push(e);
            }
        }
        (fingerprint(&digests), problems)
    }
}

/// `triage`'s unit: `triage_rounds` seeded rounds of `Triager::triage` over
/// all 24 reproducers, each on its single-bug build.
struct Triage {
    corpus: Vec<Reproducer>,
    order: Vec<usize>,
}

/// Checks a triage outcome: bisection must name the reproducer's own bug,
/// and every triage of a bug in the unit must give the minimized digest and
/// culprit of its first. Returns the per-bug outcomes in corpus order.
fn check_triages(
    corpus: &[Reproducer],
    order: &[usize],
    outcomes: &[(u64, BisectOutcome)],
) -> (Vec<Option<(u64, BisectOutcome)>>, Vec<String>) {
    let mut first: Vec<Option<(u64, BisectOutcome)>> = vec![None; corpus.len()];
    let mut problems = Vec::new();
    for (&idx, out) in order.iter().zip(outcomes) {
        let bug = bug_of(&corpus[idx]);
        if out.1 != BisectOutcome::Culprit(bug) {
            problems.push(format!("{bug}: bisection gave {:?}", out.1));
        }
        match &first[idx] {
            Some(f) if f != out => problems.push(format!("{bug}: triage result changed")),
            Some(_) => {}
            None => first[idx] = Some(out.clone()),
        }
    }
    (first, problems)
}

fn triager(r: &Reproducer) -> Triager {
    Triager::new(BugSwitches::only([bug_of(r)]))
}

impl Unit for Triage {
    fn run(&self) -> Rep {
        let mut rep = Rep::default();
        let mut outcomes = Vec::with_capacity(self.order.len());
        let start = Instant::now();
        for &idx in &self.order {
            let r = &self.corpus[idx];
            let t = Instant::now();
            let res = triager(r).triage(r);
            rep.latencies_ms.push(ms_since(t));
            outcomes.push((res.minimized.digest_fnv, res.bisect));
        }
        rep.wall_s = start.elapsed().as_secs_f64();
        let (first, problems) = check_triages(&self.corpus, &self.order, &outcomes);
        rep.attempted = outcomes.len() as u64;
        rep.work = rep.attempted;
        rep.failed = if problems.is_empty() {
            0
        } else {
            rep.attempted
        };
        rep.problems = problems;
        rep.result = fingerprint(&first);
        rep
    }

    fn mirror(&self) -> (u64, Vec<String>) {
        let outcomes: Vec<(u64, BisectOutcome)> = self
            .order
            .iter()
            .map(|&idx| {
                let r = &self.corpus[idx];
                let (min, bisect) = mirror::triage(&triager(r), r);
                (min.digest_fnv, bisect)
            })
            .collect();
        let (first, problems) = check_triages(&self.corpus, &self.order, &outcomes);
        (fingerprint(&first), problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smaller plan for the smoke runs below: one set-up, short units.
    const SMOKE: Plan = Plan {
        setups: 1,
        warmup_mtis: 40,
        steady_campaigns: 1,
        steady_mtis: 20_000,
        shards: 4,
        sharded_budget: 800,
        discover_campaigns: 2,
        discover_cap: 20_000,
        replay_rounds: 1,
        triage_rounds: 1,
    };

    /// Every workload, untraced and traced, at a fraction of its size:
    /// the correctness, determinism and mirror-equality checks must pass.
    #[test]
    fn every_workload_passes_its_checks_at_smoke_size() {
        for w in Workload::ALL {
            let m = measure(w, 7, 0.01, &SMOKE).expect("set-up succeeds");
            assert_eq!(m.reps.len(), MIN_REPS, "{w:?}");
            for rep in &m.reps {
                assert_eq!(rep.failed, 0, "{w:?}: {:?}", rep.problems);
                assert!(rep.attempted >= 1 && rep.work >= 1 && rep.wall_s > 0.0);
                assert!(!rep.latencies_ms.is_empty());
            }
            let t = traced(w, 7, 0.01, &SMOKE).expect("set-up succeeds");
            assert_eq!(t.failed, 0, "{w:?} traced: {:?}", t.problems);
            assert!(t.recorder.span_count() > 0);
            let covered = t.recorder.root_ns() as f64 / (t.mirror_s * 1e9);
            assert!(covered > 0.95, "{w:?}: spans cover {covered}");
        }
    }

    #[test]
    fn derived_seeds_are_distinct_per_stream_and_index() {
        let mut seen = std::collections::BTreeSet::new();
        for stream in [SETUP, MEASURE] {
            for i in 0..100 {
                assert!(seen.insert(derive(2024, stream, i)));
            }
        }
    }

    #[test]
    fn order_visits_every_index_once_per_round() {
        let o = order(3, 5, 2);
        for round in o.chunks(5) {
            let mut r = round.to_vec();
            r.sort_unstable();
            assert_eq!(r, vec![0, 1, 2, 3, 4]);
        }
        assert_eq!(o, order(3, 5, 2), "the order is a function of the seed");
    }
}
