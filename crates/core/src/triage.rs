//! Triage: trace minimization, input shrinking, and patch bisection.
//!
//! A raw [`FoundBug`] carries a full [`ScheduleTrace`] — every
//! instrumented engine event of the crashing execution, often dozens of
//! lines — plus the whole generated STI. A human debugging the kernel
//! ordering bug needs the opposite: the *minimal* reproducer and the
//! *culprit patch*. This module closes that gap in three steps:
//!
//! 1. **Trace minimization** ([`Triager::minimize`]): project the full
//!    trace to its *decisions* (delayed stores, versioned loads — the
//!    sparse form, [`ScheduleTrace::sparsify`]) and delta-debug that
//!    decision set plus the switch script down to a fixed point, accepting
//!    a candidate only if its replay still produces the same oracle
//!    [`Verdict`] without divergence.
//! 2. **Input shrinking** (same entry point): drop the STI calls after the
//!    pair, then delta-debug the setup prefix under the minimized trace,
//!    remapping the pair indices.
//! 3. **Patch bisection** ([`Triager::bisect`]): log₂-probe the buggy
//!    build's enabled [`BugSwitches`] with the minimized reproducer to
//!    name the culprit switch — the one whose revert is necessary and
//!    sufficient for the symptom. Verification failure (or an
//!    already-fixed build) reports [`BisectOutcome::Inconclusive`], never
//!    a wrong patch.
//!
//! # What a triage costs
//!
//! Replay from a reset machine is deterministic, so a [`Triager`] pays
//! once for each thing it uses:
//!
//! - **One boot per build.** The triager owns one [`MachinePool`] and
//!   shelves one machine of its own build, which every minimization
//!   candidate and every bisection probe on that build reuse. A probe on
//!   another build boots, replays once (the memo answers repeats) and
//!   drops its machine. A triage therefore boots once per distinct build
//!   it replays on: two for a single-bug reproducer (its own build and the
//!   fixed one), while holding at most one idle machine.
//! - **One replay per distinct candidate.** Candidate outcomes (crash
//!   reports, return values, divergence) are memoized, keyed by the build,
//!   the migration override, the STI, the pair and the trace (which names
//!   its memory model). The memo is cleared when a minimization starts and
//!   serves it and the bisection that follows: on a single-bug build the
//!   bisection's first and culprit probes are the minimization's final
//!   verification, and cost nothing.
//! - **One state digest per minimization.** Candidate replays render no
//!   digest. The final verification (or the sparse-projection fallback)
//!   always replays, because it reads the post-run machine, and renders
//!   the one digest [`Minimized::digest_fnv`] fingerprints. Bisection
//!   renders none.
//!
//! The shrinking loop is deterministic (no RNG) and runs to a fixed
//! point, so minimization is idempotent and byte-reproducible — pinned by
//! `tests/triage_minimal.rs` under all three memory models, by the
//! corpus-wide `tests/golden/triage_table.txt`, and by golden minimized
//! traces under `tests/golden/`.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

use kernelsim::{BugId, BugSwitches, ExecRequest, Kctx, MachinePool, RunOutcome, Syscall};
use kutil::fnv1a64;
use kutil::sync::Mutex;
use oemu::{MemoryModel, ScheduleTrace};

use crate::fuzzer::{FoundBug, FuzzConfig, Fuzzer};
use crate::hints::calc_hints;
use crate::mti::build_mtis;
use crate::profile_sti_on;
use crate::report::TriageReport;
use crate::repro::replay_trace_on;
use crate::sti::{directed_bug_sti, Sti};

/// What counts as "the bug reproduced" on a run outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// A crash report with exactly this title.
    Title(String),
    /// The wrong-value symptom of the two silent bugs (Table 4's `✓*` tls
    /// row and the filemap data-loss row): the pair's second syscall
    /// returned 0 where the correct execution returns nonzero.
    RetBZero,
}

impl Verdict {
    /// The verdict for `bug`'s expected symptom.
    pub fn for_bug(bug: BugId) -> Verdict {
        match bug {
            BugId::KnownTlsErr | BugId::ExtFilemap => Verdict::RetBZero,
            _ => Verdict::Title(bug.expected_title().to_string()),
        }
    }

    /// Whether the verdict holds on `out`.
    pub fn holds(&self, out: &RunOutcome) -> bool {
        match self {
            Verdict::Title(t) => out.crashes.iter().any(|c| &c.title == t),
            Verdict::RetBZero => out.ret_b == 0,
        }
    }

    /// Human-readable form for reports.
    pub fn describe(&self) -> String {
        match self {
            Verdict::Title(t) => format!("crash '{t}'"),
            Verdict::RetBZero => "wrong value (cpu1 returned 0)".to_string(),
        }
    }
}

/// A recorded reproducer: everything triage needs to re-run the bug.
#[derive(Clone, Debug)]
pub struct Reproducer {
    /// The targeted bug, when the recording was directed at one.
    pub bug: Option<BugId>,
    /// The syscall sequence.
    pub sti: Sti,
    /// Index of the pair's first syscall.
    pub i: usize,
    /// Index of the pair's second syscall (`i < j`).
    pub j: usize,
    /// The recorded schedule (full or already sparse).
    pub trace: ScheduleTrace,
    /// The symptom a candidate replay must re-produce.
    pub verdict: Verdict,
    /// Re-apply the §6.2 per-CPU migration override on every candidate
    /// machine (the sbitmap row is unreproducible without it).
    pub migration_override: bool,
}

impl Reproducer {
    /// A reproducer from a fuzzer-found bug's embedded trace.
    pub fn from_found(bug: &FoundBug) -> Reproducer {
        Reproducer {
            bug: None,
            sti: (*bug.sti).clone(),
            i: bug.pair_indices.0,
            j: bug.pair_indices.1,
            trace: bug.trace.clone(),
            verdict: Verdict::Title(bug.title.clone()),
            migration_override: false,
        }
    }
}

/// Records a crashing schedule for `bug` under the ambient
/// ([`MemoryModel::from_env`]) memory model. See
/// [`record_reproducer_under`].
pub fn record_reproducer(bug: BugId) -> Option<Reproducer> {
    record_reproducer_under(bug, MemoryModel::from_env())
}

/// Records a crashing schedule for `bug` on its directed STI under
/// `model`: the §6.2 pair-×-hint sweep in record mode (first recorded run
/// showing the symptom wins), falling back to a short seeded campaign for
/// bugs whose trigger needs a longer setup prefix. Returns `None` when
/// neither finds the symptom within the budget.
pub fn record_reproducer_under(bug: BugId, model: MemoryModel) -> Option<Reproducer> {
    let sti = directed_bug_sti(bug);
    let verdict = Verdict::for_bug(bug);
    let migration = bug == BugId::KnownSbitmap;
    let bugs = BugSwitches::only([bug]);
    let pool = MachinePool::new();
    let m = pool.checkout_with_model(&bugs, model);
    if migration {
        m.kctx().set_migration_override(true);
    }
    let traces = profile_sti_on(m.kctx(), &sti);
    let mtis = build_mtis(
        &sti,
        |i, j| calc_hints(&traces[i].events, &traces[j].events),
        32,
    );
    for mti in mtis {
        let k = m.kctx();
        k.reset();
        if migration {
            k.set_migration_override(true);
        }
        mti.run_setup(k);
        // Record without a state digest: the sweep keeps only the trace
        // of the run that shows the symptom.
        mti.install_controls(k);
        let (a, b) = mti.pair();
        let (outcome, trace) = m
            .execute(ExecRequest::recorded(mti.plan(), a, b))
            .into_recorded();
        // The wrong-value verdict only means something on the pair that
        // ends in the value-returning call (oracle-matrix semantics).
        let hit = match (&verdict, bug) {
            (Verdict::RetBZero, BugId::KnownTlsErr) => {
                b == (Syscall::TlsPollErr { fd: 0 }) && outcome.ret_b == 0
            }
            _ => verdict.holds(&outcome),
        };
        if hit {
            return Some(Reproducer {
                bug: Some(bug),
                sti: (*mti.sti).clone(),
                i: mti.i,
                j: mti.j,
                trace,
                verdict,
                migration_override: migration,
            });
        }
    }
    // Fallback: a focused seeded campaign on the single-bug build. The
    // FoundBug embeds its own recorded trace. Run until *this* bug's title
    // shows up — other titles can surface first (under the Arm model even
    // switched-off code can crash, since `READ_ONCE` is not a load barrier
    // there), and stopping at the first find would miss the target.
    let mut f = Fuzzer::new(FuzzConfig {
        seed: 2024,
        bugs,
        memory_model: model,
        ..FuzzConfig::default()
    });
    loop {
        let before = f.found().len();
        f.run_until(30_000, before + 1);
        if f.found().contains_key(bug.expected_title()) {
            break;
        }
        let stats = f.stats();
        if stats.mtis_run >= 30_000 || stats.stalled || f.found().len() == before {
            return None;
        }
    }
    let fb = f.found().get(bug.expected_title())?;
    let mut r = Reproducer::from_found(fb);
    r.bug = Some(bug);
    Some(r)
}

/// Cost and size accounting of one minimization.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MinimizeStats {
    /// Replayable events (steps + switches) of the original trace.
    pub events_before: usize,
    /// Replayable events of the minimized trace.
    pub events_after: usize,
    /// STI length before shrinking.
    pub calls_before: usize,
    /// STI length after shrinking.
    pub calls_after: usize,
    /// Candidate replays executed (sparsification check, trace ddmin, STI
    /// ddmin, final verification). A candidate the minimization already
    /// replayed is answered from the triager's memo and not counted again;
    /// the final verification always replays.
    pub replays: u64,
    /// Wall time of the whole minimization.
    pub wall_ms: f64,
}

impl MinimizeStats {
    /// Event reduction as a percentage of the original size.
    pub fn reduction_pct(&self) -> f64 {
        if self.events_before == 0 {
            return 0.0;
        }
        100.0 * (self.events_before - self.events_after) as f64 / self.events_before as f64
    }
}

/// A minimized reproducer: the fixed-point trace and shrunk input.
#[derive(Clone, Debug)]
pub struct Minimized {
    /// The minimal sparse schedule.
    pub trace: ScheduleTrace,
    /// The shrunk syscall sequence.
    pub sti: Sti,
    /// Pair index of the first syscall in the shrunk STI.
    pub i: usize,
    /// Pair index of the second syscall in the shrunk STI.
    pub j: usize,
    /// FNV-1a fingerprint of the minimized replay's post-run state digest.
    pub digest_fnv: u64,
    /// Size and cost accounting.
    pub stats: MinimizeStats,
}

/// Outcome of a patch bisection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BisectOutcome {
    /// The one enabled switch whose revert is necessary and sufficient
    /// for the symptom, verified on both sides.
    Culprit(BugId),
    /// No verified culprit — an already-fixed build, a reproducer that no
    /// longer fires, or a failed necessity/sufficiency check. Never a
    /// guess: the message says which check failed.
    Inconclusive(String),
}

/// The full triage result: minimization, bisection, and the rendered
/// report.
#[derive(Clone, Debug)]
pub struct TriageResult {
    /// The minimized reproducer.
    pub minimized: Minimized,
    /// The named culprit switch (or why there is none).
    pub bisect: BisectOutcome,
    /// Builds probed during bisection.
    pub bisect_probes: u64,
    /// The human-readable report.
    pub report: TriageReport,
}

/// The inputs that decide a candidate replay's outcome. The trace names
/// its memory model, which is the model the machine boots under.
#[derive(Clone, PartialEq, Eq, Hash)]
struct ReplayKey {
    build: BugSwitches,
    migration_override: bool,
    sti: Sti,
    pair: (usize, usize),
    trace: ScheduleTrace,
}

impl ReplayKey {
    fn new(
        build: &BugSwitches,
        r: &Reproducer,
        sti: &Sti,
        i: usize,
        j: usize,
        trace: &ScheduleTrace,
    ) -> ReplayKey {
        ReplayKey {
            build: build.clone(),
            migration_override: r.migration_override,
            sti: sti.clone(),
            pair: (i, j),
            trace: trace.clone(),
        }
    }
}

/// A replay's outcome and whether it diverged from its trace.
type Replayed = (RunOutcome, bool);

/// The candidate outcomes replayed since the current minimization began,
/// and how many replays computing them took.
#[derive(Default)]
struct Memo {
    outcomes: HashMap<ReplayKey, Replayed>,
    replays: u64,
}

/// The triage driver, configured with the buggy build under scrutiny. It
/// keeps one pooled machine of that build and the candidate memo of the
/// current minimization (see the module docs).
pub struct Triager {
    /// The build the bug was observed on — the candidate set bisection
    /// searches, and the build minimization replays against.
    pub bugs: BugSwitches,
    pool: MachinePool,
    memo: Mutex<Memo>,
}

impl fmt::Debug for Triager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Triager")
            .field("bugs", &self.bugs)
            .field("machine_boots", &self.machine_boots())
            .finish_non_exhaustive()
    }
}

impl Triager {
    /// A triager for the given buggy build.
    pub fn new(bugs: BugSwitches) -> Triager {
        Triager {
            bugs,
            pool: MachinePool::new(),
            memo: Mutex::default(),
        }
    }

    /// Machines this triager has booted over its lifetime. One triage
    /// boots once per distinct build it replays on; only the machine of the
    /// triager's own build is kept for the next one.
    pub fn machine_boots(&self) -> u64 {
        self.pool.boots()
    }

    /// Minimizes `r`'s trace and STI to a fixed point (see the module
    /// docs). Deterministic and idempotent: minimizing the minimized
    /// reproducer returns it byte-identically.
    pub fn minimize(&self, r: &Reproducer) -> Minimized {
        let start = Instant::now();
        *self.memo.lock() = Memo::default();
        let events_before = r.trace.event_count();
        let calls_before = r.sti.calls.len();
        // Candidate acceptance: a non-diverged replay with the verdict.
        let check = |sti: &Sti, i: usize, j: usize, t: &ScheduleTrace| {
            self.fires(&self.bugs, r, sti, i, j, t)
        };
        let stats = |sti: &Sti, trace: &ScheduleTrace| MinimizeStats {
            events_before,
            events_after: trace.event_count(),
            calls_before,
            calls_after: sti.calls.len(),
            replays: self.memo.lock().replays,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
        };

        // 1. Sparse projection. It must reproduce (the decisions plus the
        // switch script are exactly what produced the recording); if the
        // replay contract is ever broken, degrade to the original trace
        // rather than emitting a non-reproducing "minimization".
        let sparse = if r.trace.sparse {
            r.trace.clone()
        } else {
            r.trace.sparsify()
        };
        if !check(&r.sti, r.i, r.j, &sparse) {
            let digest_fnv = self
                .verify(r, &r.sti, r.i, r.j, &r.trace)
                .expect("the recorded trace must replay its own verdict");
            return Minimized {
                trace: r.trace.clone(),
                sti: r.sti.clone(),
                i: r.i,
                j: r.j,
                digest_fnv,
                stats: stats(&r.sti, &r.trace),
            };
        }

        // 2. Delta-debug decisions and switches to a joint fixed point.
        let mut trace = sparse;
        loop {
            let keep = shrink(trace.steps.len(), |keep| {
                check(&r.sti, r.i, r.j, &trace.with_step_subset(keep))
            });
            let after_steps = trace.with_step_subset(&keep);
            let keep = shrink(after_steps.switches.len(), |keep| {
                check(&r.sti, r.i, r.j, &after_steps.with_switch_subset(keep))
            });
            let next = after_steps.with_switch_subset(&keep);
            let done = next == trace;
            trace = next;
            if done {
                break;
            }
        }

        // 3. Shrink the input: calls after the pair never execute under
        // replay — drop them outright — then delta-debug the setup prefix
        // under the minimized trace, remapping the pair indices.
        let base: Vec<Syscall> = r.sti.calls[..=r.j].to_vec();
        let setup: Vec<usize> = (0..r.j).filter(|&x| x != r.i).collect();
        let keep = shrink(setup.len(), |keep| {
            let (sti, i, j) = rebuild_sti(&base, &setup, keep, r.i, r.j);
            check(&sti, i, j, &trace)
        });
        let (sti, i, j) = rebuild_sti(&base, &setup, &keep, r.i, r.j);

        // 4. Final verification — also yields the minimized state digest.
        let digest_fnv = self
            .verify(r, &sti, i, j, &trace)
            .expect("every accepted candidate reproduced; the fixed point must too");
        Minimized {
            stats: stats(&sti, &trace),
            trace,
            sti,
            i,
            j,
            digest_fnv,
        }
    }

    /// Bisects the buggy build's enabled switches with the minimized
    /// reproducer: log₂ halving on "does the symptom still fire with only
    /// this half enabled", with two-sided verification — a culprit must
    /// reproduce alone (sufficiency) and the symptom must die once it is
    /// reverted (necessity). When the symptom survives the revert, the
    /// search repeats on the remainder to *enumerate* every sufficient
    /// switch; more than one means the patch is genuinely ambiguous and the
    /// outcome is an [`BisectOutcome::Inconclusive`] naming them all —
    /// never a guess. Returns the probe count alongside the outcome: every
    /// verdict consulted, including those answered from the memo.
    pub fn bisect(&self, r: &Reproducer, min: &Minimized) -> (BisectOutcome, u64) {
        let enabled: Vec<BugId> = self.bugs.iter().collect();
        let mut probes = 0u64;
        let mut fires = |set: &BugSwitches| -> bool {
            probes += 1;
            self.fires(set, r, &min.sti, min.i, min.j, &min.trace)
        };
        if enabled.is_empty() {
            return (
                BisectOutcome::Inconclusive(
                    "the build has no bug switches enabled (already fixed)".into(),
                ),
                probes,
            );
        }
        // Enumerate every individually-sufficient switch: bisect the
        // still-suspect set, verify the find reproduces alone, revert it,
        // and repeat until the symptom dies. A single survivor passed both
        // checks — sufficiency in the loop, necessity by the loop's exit
        // condition (the symptom died once it was reverted).
        let mut remaining = enabled.clone();
        let mut culprits: Vec<BugId> = Vec::new();
        loop {
            let still_fires = fires(&BugSwitches::only(remaining.iter().copied()));
            if !still_fires {
                break;
            }
            if remaining.is_empty() {
                // The symptom fires with every switch reverted: under the
                // Arm model some fixes are insufficient by design
                // (`READ_ONCE` is not a load barrier there), and no patch
                // can be named for it.
                return (
                    BisectOutcome::Inconclusive(
                        "the symptom fires even with every switch reverted — \
                         not attributable to any patch under this memory model"
                            .into(),
                    ),
                    probes,
                );
            }
            let mut suspects = remaining.clone();
            while suspects.len() > 1 {
                let half = &suspects[..suspects.len() / 2];
                if fires(&BugSwitches::only(half.iter().copied())) {
                    suspects = half.to_vec();
                } else {
                    suspects = suspects[suspects.len() / 2..].to_vec();
                }
            }
            let culprit = suspects[0];
            if !fires(&BugSwitches::only([culprit])) {
                return (
                    BisectOutcome::Inconclusive(format!(
                        "sufficiency check failed: {culprit} alone does not reproduce"
                    )),
                    probes,
                );
            }
            culprits.push(culprit);
            remaining.retain(|&b| b != culprit);
        }
        match culprits.len() {
            0 => (
                BisectOutcome::Inconclusive(
                    "the minimized reproducer does not fire on this build (already fixed?)".into(),
                ),
                probes,
            ),
            1 => (BisectOutcome::Culprit(culprits[0]), probes),
            _ => {
                let names: Vec<String> = culprits.iter().map(|c| c.to_string()).collect();
                (
                    BisectOutcome::Inconclusive(format!(
                        "the symptom has {} independent causes on this build: {} — \
                         each reproduces it alone",
                        culprits.len(),
                        names.join(", ")
                    )),
                    probes,
                )
            }
        }
    }

    /// Whether `r`'s verdict holds on a non-diverged replay of the
    /// candidate `(sti, i, j, trace)` on `build`. Each distinct candidate
    /// is replayed once; repeats read the memo.
    fn fires(
        &self,
        build: &BugSwitches,
        r: &Reproducer,
        sti: &Sti,
        i: usize,
        j: usize,
        trace: &ScheduleTrace,
    ) -> bool {
        let key = ReplayKey::new(build, r, sti, i, j, trace);
        let mut memo = self.memo.lock();
        let memo = &mut *memo;
        let (outcome, diverged) = match memo.outcomes.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                memo.replays += 1;
                let (replayed, ()) = self.replay(e.key(), |_| ());
                e.insert(replayed)
            }
        };
        !*diverged && r.verdict.holds(outcome)
    }

    /// The candidate's final verification on the triager's own build: it
    /// always replays, records the outcome in the memo, and returns the
    /// fingerprint of the post-run state digest when `r`'s verdict holds.
    fn verify(
        &self,
        r: &Reproducer,
        sti: &Sti,
        i: usize,
        j: usize,
        trace: &ScheduleTrace,
    ) -> Option<u64> {
        let key = ReplayKey::new(&self.bugs, r, sti, i, j, trace);
        let ((outcome, diverged), digest) = self.replay(&key, Kctx::state_digest);
        let holds = !diverged && r.verdict.holds(&outcome);
        let mut memo = self.memo.lock();
        memo.replays += 1;
        memo.outcomes.insert(key, (outcome, diverged));
        holds.then(|| fnv1a64(digest.as_bytes()))
    }

    /// Replays `key` on a machine checked out of the pool and lets `after`
    /// read the post-run machine. Only a machine of the triager's own build
    /// goes back to the pool: with the memo, a bisection replays on any
    /// other build at most once, so shelving that machine would only hold
    /// its memory.
    fn replay<T>(&self, key: &ReplayKey, after: impl FnOnce(&Kctx) -> T) -> (Replayed, T) {
        let m = self.pool.checkout_with_model(&key.build, key.trace.model);
        if key.migration_override {
            m.kctx().set_migration_override(true);
        }
        let (outcome, report) = replay_trace_on(&m, &key.sti, key.pair.0, key.pair.1, &key.trace);
        let read = after(m.kctx());
        if key.build == self.bugs {
            self.pool.checkin(m);
        }
        ((outcome, report.diverged), read)
    }

    /// The full pipeline: minimize, bisect, render the report.
    pub fn triage(&self, r: &Reproducer) -> TriageResult {
        let minimized = self.minimize(r);
        let (bisect, bisect_probes) = self.bisect(r, &minimized);
        let report = TriageReport::new(r, &minimized, &bisect);
        TriageResult {
            minimized,
            bisect,
            bisect_probes,
            report,
        }
    }

    /// [`Triager::triage`] for a fuzzer-found bug's embedded trace.
    pub fn triage_found(&self, bug: &FoundBug) -> TriageResult {
        self.triage(&Reproducer::from_found(bug))
    }
}

/// Deterministic delta debugging over index set `0..len`: repeatedly try
/// removing contiguous chunks (size `len`, then halving down to 1, chunks
/// aligned on the current kept sequence, left to right), keeping any
/// removal `reproduces` accepts, until a whole size-ladder pass removes
/// nothing. The result is a fixed point of the procedure itself — running
/// it again returns the same indices — which is what makes minimization
/// idempotent.
fn shrink(len: usize, mut reproduces: impl FnMut(&[usize]) -> bool) -> Vec<usize> {
    let mut kept: Vec<usize> = (0..len).collect();
    loop {
        let before = kept.len();
        let mut size = kept.len();
        while size >= 1 {
            let mut start = 0;
            while start < kept.len() {
                let end = (start + size).min(kept.len());
                let cand: Vec<usize> = kept[..start]
                    .iter()
                    .chain(kept[end..].iter())
                    .copied()
                    .collect();
                if reproduces(&cand) {
                    // The next chunk slid into `start`; retry in place.
                    kept = cand;
                } else {
                    start = end;
                }
            }
            if size == 1 {
                break;
            }
            size /= 2;
        }
        if kept.len() == before {
            return kept;
        }
    }
}

/// Rebuilds a candidate STI from the pair's base calls (`..=j`), the
/// setup-index table, and the kept positions into it; returns the calls in
/// original order with the pair indices remapped.
fn rebuild_sti(
    base: &[Syscall],
    setup: &[usize],
    keep: &[usize],
    i: usize,
    j: usize,
) -> (Sti, usize, usize) {
    let mut indices: Vec<usize> = keep.iter().map(|&p| setup[p]).collect();
    indices.push(i);
    indices.push(j);
    indices.sort_unstable();
    let calls: Vec<Syscall> = indices.iter().map(|&x| base[x]).collect();
    let ni = indices.iter().position(|&x| x == i).expect("i kept");
    let nj = indices.iter().position(|&x| x == j).expect("j kept");
    (Sti { calls }, ni, nj)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `shrink` on a predicate that needs a known subset must return
    /// exactly that subset, deterministically.
    #[test]
    fn shrink_finds_the_needed_subset() {
        let needed = [2usize, 5, 6];
        let pred = |keep: &[usize]| needed.iter().all(|n| keep.contains(n));
        let got = shrink(8, pred);
        assert_eq!(got, needed.to_vec());
        // Idempotent: shrinking a minimal set changes nothing (indices are
        // positions into the kept sequence on re-entry).
        let again = shrink(3, |keep| keep.len() == 3 || keep.len() >= 3);
        assert_eq!(again, vec![0, 1, 2]);
    }

    #[test]
    fn shrink_handles_trivial_predicates() {
        assert_eq!(shrink(5, |_| true), Vec::<usize>::new());
        assert_eq!(shrink(5, |k| k.len() == 5), vec![0, 1, 2, 3, 4]);
        assert_eq!(shrink(0, |_| true), Vec::<usize>::new());
    }

    #[test]
    fn rebuild_sti_remaps_pair_indices() {
        use Syscall::*;
        let base = [VmciQpCreate, WqPost, PipeRead, VmciQpAttach];
        // pair (1, 3); setup = [0, 2]; keep only setup position 1 (= call 2)
        let (sti, i, j) = rebuild_sti(&base, &[0, 2], &[1], 1, 3);
        assert_eq!(sti.calls, vec![WqPost, PipeRead, VmciQpAttach]);
        assert_eq!((i, j), (0, 2));
        let (sti, i, j) = rebuild_sti(&base, &[0, 2], &[], 1, 3);
        assert_eq!(sti.calls, vec![WqPost, VmciQpAttach]);
        assert_eq!((i, j), (0, 1));
    }

    /// End-to-end on the Figure 1 bug: record, minimize, check the trace
    /// shrank and still reproduces, and the bisector names the bug.
    #[test]
    fn figure1_minimizes_and_bisects() {
        let bug = BugId::KnownWatchQueuePost;
        let r = record_reproducer(bug).expect("figure 1 records");
        let triager = Triager::new(BugSwitches::only([bug]));
        let min = triager.minimize(&r);
        assert!(min.trace.sparse);
        assert!(min.stats.events_after <= min.stats.events_before);
        assert!(
            min.stats.events_after < min.stats.events_before,
            "a full recording always has non-decision steps to drop"
        );
        // The minimized trace replays the verdict on a fresh boot too.
        let rep = crate::repro::replay_trace(
            BugSwitches::only([bug]),
            &min.sti,
            min.i,
            min.j,
            &min.trace,
        );
        assert!(!rep.diverged);
        assert!(r.verdict.holds(&rep.outcome));
        let (outcome, _) = triager.bisect(&r, &min);
        assert_eq!(outcome, BisectOutcome::Culprit(bug));
    }

    #[test]
    fn bisect_on_fixed_build_is_inconclusive() {
        let bug = BugId::KnownWatchQueuePost;
        let r = record_reproducer(bug).expect("figure 1 records");
        let buggy = Triager::new(BugSwitches::only([bug]));
        let min = buggy.minimize(&r);
        let fixed = Triager::new(BugSwitches::none());
        let (outcome, _) = fixed.bisect(&r, &min);
        assert!(matches!(outcome, BisectOutcome::Inconclusive(_)));
    }
}
