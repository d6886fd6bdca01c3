//! Bounded exhaustive schedule exploration for small MTIs.
//!
//! The fuzzer searches the reordering space with the §4.3 heuristic: one
//! hint per hypothetical barrier position, maximal reorder set first. This
//! crate instead *enumerates* the space — for a fixed syscall pair, every
//! admissible reordering schedule within a bound — and runs each one through
//! the same engine, giving ground truth for which pairs can crash and under
//! which schedules. Admissibility encodes the LKMM-style rules the engine
//! itself enforces (§3):
//!
//! - a delayed store may not be held across a store-ordering barrier
//!   (`smp_mb`/`smp_wmb`/release), so delay sets are drawn from within one
//!   store-barrier-bounded group of the profiled trace;
//! - a versioned load may not read past a load-ordering barrier
//!   (`smp_mb`/`smp_rmb`/acquire/`READ_ONCE`), so version sets are drawn
//!   from within one load-barrier-bounded group;
//! - the scheduling point (where the other CPU runs) follows the delayed
//!   stores (Figure 5a, break *after*) or precedes the versioned loads
//!   (Figure 5b, break *before*).
//!
//! Unlike the hint generator — whose reorder sets slide one access at a
//! time and are therefore prefixes (stores) or suffixes (loads) of a group
//! — the explorer tries **every subset** up to [`Bound::max_reorder`] and
//! every scheduling point up to [`Bound::max_sched_points`] per group.
//! Each schedule executes in record mode, so a crashing schedule carries a
//! replayable [`ScheduleTrace`]; [`differential_pair`] replays each one and
//! cross-checks the explorer's crash titles against the hint pipeline's
//! (every explorer-found crash must be reachable from some generated hint).

use std::collections::BTreeSet;
use std::sync::Arc;

use kernelsim::{run_one, BugId, BugSwitches, MachinePool, MemoryModel};
use oemu::{AccessKind, AccessRecord, BarrierKind, Iid, ScheduleTrace, Tid, TraceEvent};
use ozz::hints::{calc_hints_for, filter_out, HintKind, PairSide, SchedHint};
use ozz::mti::Mti;
use ozz::profile_sti_on;
use ozz::repro::replay_trace;
use ozz::sti::{known_bug_sti, Sti};

/// Enumeration bounds. Exhaustiveness is per-bound: within the bound every
/// admissible schedule runs; a hit on any cap is surfaced as
/// [`Exploration::truncated`], never silently.
#[derive(Clone, Copy, Debug)]
pub struct Bound {
    /// Largest reorder set per schedule (delayed-store or versioned-load
    /// count) — the paper's store-buffer-size analog.
    pub max_reorder: usize,
    /// Scheduling points tried per barrier-bounded group: the last N for
    /// the store test (nearest the real barrier), the first N for the load
    /// test.
    pub max_sched_points: usize,
    /// Hard cap on schedules per pair (keeps a pathological pair bounded).
    pub max_schedules: usize,
}

impl Default for Bound {
    fn default() -> Self {
        Bound {
            max_reorder: 3,
            max_sched_points: 4,
            max_schedules: 512,
        }
    }
}

/// One executed schedule and its observations.
#[derive(Clone, Debug)]
pub struct ExploredSchedule {
    /// The schedule, expressed as a synthetic scheduling hint (the same
    /// vocabulary the fuzzer uses, so it runs through the same [`Mti`]
    /// choreography).
    pub hint: SchedHint,
    /// Crash titles this schedule raised (empty: benign).
    pub titles: Vec<String>,
    /// Recorded schedule trace — replayable evidence.
    pub trace: ScheduleTrace,
    /// Post-run machine-state digest.
    pub digest: String,
}

/// Result of exploring one syscall pair.
#[derive(Clone, Debug)]
pub struct Exploration {
    /// Every schedule run, in deterministic enumeration order.
    pub schedules: Vec<ExploredSchedule>,
    /// A bound was hit; the enumeration is a prefix, not the full space.
    pub truncated: bool,
}

impl Exploration {
    /// The schedules that crashed.
    pub fn crashing(&self) -> impl Iterator<Item = &ExploredSchedule> {
        self.schedules.iter().filter(|s| !s.titles.is_empty())
    }

    /// Distinct crash titles across all schedules — the pair's ground-truth
    /// crash surface (within the bound).
    pub fn crash_titles(&self) -> BTreeSet<String> {
        self.crashing()
            .flat_map(|s| s.titles.iter().cloned())
            .collect()
    }
}

/// Explores every admissible schedule (within `bound`) of the pair
/// `(sti.calls[i], sti.calls[j])` on a `bugs` kernel, executing each in
/// record mode on a pooled machine with per-pair setup snapshot reuse —
/// exactly the fuzzer's execution discipline. Uses the process-default
/// memory model ([`MemoryModel::from_env`], TSO unless overridden);
/// [`explore_pair_under`] pins it.
pub fn explore_pair(
    bugs: &BugSwitches,
    sti: &Sti,
    i: usize,
    j: usize,
    bound: &Bound,
) -> Exploration {
    explore_pair_under(bugs, sti, i, j, bound, MemoryModel::from_env())
}

/// [`explore_pair`] with the memory model pinned. The machine boots under
/// `model`, admissibility (which barriers bound the delay and version
/// groups) is judged by `model`'s predicates, and every recorded trace
/// carries the model tag, so replays stay on-model.
pub fn explore_pair_under(
    bugs: &BugSwitches,
    sti: &Sti,
    i: usize,
    j: usize,
    bound: &Bound,
    model: MemoryModel,
) -> Exploration {
    let pool = MachinePool::new();
    let m = pool.checkout_with_model(bugs, model);
    let traces = profile_sti_on(m.kctx(), sti);
    let (hints, truncated) =
        enumerate_schedules(&traces[i].events, &traces[j].events, bound, model);

    let shared = Arc::new(sti.clone());
    let k = m.kctx();
    k.reset();
    for (idx, &call) in sti.calls.iter().enumerate().take(j) {
        if idx != i {
            run_one(k, Tid(0), call);
        }
    }
    let post_setup = k.snapshot();

    let mut schedules = Vec::with_capacity(hints.len());
    for hint in hints {
        let mti = Mti {
            sti: Arc::clone(&shared),
            i,
            j,
            hint,
        };
        k.restore(&post_setup);
        let rec = mti.run_pair_pooled_recorded(&m);
        schedules.push(ExploredSchedule {
            hint: mti.hint,
            titles: rec
                .outcome
                .crashes
                .iter()
                .map(|c| c.title.clone())
                .collect(),
            trace: rec.trace,
            digest: rec.digest,
        });
    }
    Exploration {
        schedules,
        truncated,
    }
}

/// Enumerates the admissible schedules of a pair from its profiled traces,
/// as synthetic [`SchedHint`]s. Deterministic: group order, then scheduling
/// point, then subset in combination order. `model` decides which barriers
/// bound a group — on Arm a `READ_ONCE` no longer closes a load group, so
/// the admissible space is strictly larger.
fn enumerate_schedules(
    si: &[TraceEvent],
    sj: &[TraceEvent],
    bound: &Bound,
    model: MemoryModel,
) -> (Vec<SchedHint>, bool) {
    let (fi, fj) = filter_out(si, sj);
    let mut out = Vec::new();
    let mut truncated = false;
    for (side, events, full) in [(PairSide::First, &fi, si), (PairSide::Second, &fj, sj)] {
        for kind in [HintKind::StoreBarrier, HintKind::LoadBarrier] {
            for group in barrier_groups(events, kind, model) {
                enumerate_group(&group, kind, side, full, bound, &mut out, &mut truncated);
            }
        }
    }
    (out, truncated)
}

/// Splits filtered events into groups bounded by barriers of the tested
/// type — the same grouping Algorithm 1 uses: reordering across a real
/// barrier is inadmissible. Which barriers count is a property of `model`
/// (the same predicates the engine itself consults).
fn barrier_groups(
    events: &[TraceEvent],
    kind: HintKind,
    model: MemoryModel,
) -> Vec<Vec<AccessRecord>> {
    let bounds = |b: BarrierKind| match kind {
        HintKind::StoreBarrier => model.barrier_orders_stores(b),
        HintKind::LoadBarrier => model.barrier_orders_loads(b),
    };
    let mut groups = Vec::new();
    let mut g: Vec<AccessRecord> = Vec::new();
    for e in events {
        match e {
            TraceEvent::Access(a) => g.push(*a),
            TraceEvent::Barrier(b) if bounds(b.kind) => groups.push(std::mem::take(&mut g)),
            TraceEvent::Barrier(_) => {}
        }
    }
    groups.push(g);
    groups.retain(|g| g.len() >= 2);
    groups
}

/// Emits every admissible schedule of one group: each scheduling point ×
/// each subset (≤ `max_reorder`) of the reorderable instructions on the
/// correct side of it. Reorder sets are per-*instruction* (distinct `Iid`),
/// matching the engine's Table 2 control granularity.
fn enumerate_group(
    group: &[AccessRecord],
    kind: HintKind,
    side: PairSide,
    full_trace: &[TraceEvent],
    bound: &Bound,
    out: &mut Vec<SchedHint>,
    truncated: &mut bool,
) {
    let wanted = match kind {
        HintKind::StoreBarrier => AccessKind::Store,
        HintKind::LoadBarrier => AccessKind::Load,
    };
    // Candidate scheduling points: positions with at least one reorderable
    // instruction on the admissible side (before, for the store test's
    // break-after; after, for the load test's break-before).
    let mut points: Vec<usize> = (0..group.len())
        .filter(|&p| {
            let range: &[AccessRecord] = match kind {
                HintKind::StoreBarrier => &group[..p],
                HintKind::LoadBarrier => &group[p + 1..],
            };
            range.iter().any(|a| a.kind == wanted)
        })
        .collect();
    match kind {
        // Nearest the group's real boundary first, like the hint generator.
        HintKind::StoreBarrier => points.reverse(),
        HintKind::LoadBarrier => {}
    }
    if points.len() > bound.max_sched_points {
        points.truncate(bound.max_sched_points);
        *truncated = true;
    }
    for p in points {
        let sched = group[p];
        let sched_hit = occurrence_of(full_trace, &sched);
        let candidates: Vec<AccessRecord> = {
            let range: &[AccessRecord] = match kind {
                HintKind::StoreBarrier => &group[..p],
                HintKind::LoadBarrier => &group[p + 1..],
            };
            // First dynamic occurrence per Iid: Table 2 controls are
            // per-instruction, so one representative per site.
            let mut seen: BTreeSet<Iid> = BTreeSet::new();
            range
                .iter()
                .filter(|a| a.kind == wanted && seen.insert(a.iid))
                .copied()
                .collect()
        };
        let max_r = bound.max_reorder.min(candidates.len());
        if candidates.len() > bound.max_reorder {
            *truncated = true;
        }
        for size in 1..=max_r {
            for combo in combinations(candidates.len(), size) {
                if out.len() >= bound.max_schedules {
                    *truncated = true;
                    return;
                }
                out.push(SchedHint {
                    kind,
                    reorderer: side,
                    sched,
                    sched_hit,
                    reorder: combo.iter().map(|&c| candidates[c]).collect(),
                });
            }
        }
    }
}

/// All `size`-element index combinations of `0..n`, lexicographic.
fn combinations(n: usize, size: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(size);
    fn rec(start: usize, n: usize, size: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == size {
            out.push(cur.clone());
            return;
        }
        for k in start..n {
            cur.push(k);
            rec(k + 1, n, size, cur, out);
            cur.pop();
        }
    }
    rec(0, n, size, &mut cur, &mut out);
    out
}

/// 1-based occurrence index of `target.iid` at `target.ts` in the full
/// trace — the breakpoint hit count for instructions inside loops.
fn occurrence_of(full_trace: &[TraceEvent], target: &AccessRecord) -> u32 {
    let mut n = 0;
    for e in full_trace {
        if let TraceEvent::Access(a) = e {
            if a.iid == target.iid && a.ts <= target.ts {
                n += 1;
            }
        }
    }
    n.max(1)
}

/// Outcome of the explorer-vs-hint-generator cross-check on one pair.
#[derive(Clone, Debug)]
pub struct Differential {
    /// Crash titles the exhaustive exploration found.
    pub explorer_titles: BTreeSet<String>,
    /// Crash titles the hint pipeline (Algorithms 1+2, all hints) found.
    pub hint_titles: BTreeSet<String>,
    /// Explorer-found titles the hint pipeline missed — must be empty: a
    /// crash the heuristic search cannot reach is a hint-generator bug.
    pub explorer_only: BTreeSet<String>,
    /// Crashing schedules whose recorded trace failed to replay to the
    /// identical verdict and digest — must be 0.
    pub replay_failures: usize,
    /// Schedules the explorer ran.
    pub schedules_run: usize,
    /// The exploration hit a bound.
    pub truncated: bool,
}

impl Differential {
    /// The differential passes: hints cover the explorer's crash surface
    /// and every crashing schedule replays faithfully.
    pub fn ok(&self) -> bool {
        self.explorer_only.is_empty() && self.replay_failures == 0
    }
}

/// Runs the differential on one pair: explore exhaustively, replay-confirm
/// every crashing schedule, run the hint pipeline on the same pair, and
/// compare crash surfaces. Runs under the process-default memory model
/// ([`MemoryModel::from_env`]); [`differential_pair_under`] pins it.
pub fn differential_pair(
    bugs: &BugSwitches,
    sti: &Sti,
    i: usize,
    j: usize,
    bound: &Bound,
) -> Differential {
    differential_pair_under(bugs, sti, i, j, bound, MemoryModel::from_env())
}

/// [`differential_pair`] with the memory model pinned: explorer, replay,
/// and hint pipeline all run against `model`-booted machines, so the check
/// validates the hint generator's model-aware grouping per model.
pub fn differential_pair_under(
    bugs: &BugSwitches,
    sti: &Sti,
    i: usize,
    j: usize,
    bound: &Bound,
    model: MemoryModel,
) -> Differential {
    let exploration = explore_pair_under(bugs, sti, i, j, bound, model);

    let mut replay_failures = 0;
    for s in exploration.crashing() {
        let rep = replay_trace(bugs.clone(), sti, i, j, &s.trace);
        let titles: Vec<String> = rep
            .outcome
            .crashes
            .iter()
            .map(|c| c.title.clone())
            .collect();
        if rep.diverged || titles != s.titles || rep.digest != s.digest {
            replay_failures += 1;
        }
    }

    // The hint pipeline on the same pair, every hint (no budget cap): the
    // reproduction-style choreography of `ozz::repro`.
    let pool = MachinePool::new();
    let m = pool.checkout_with_model(bugs, model);
    let traces = profile_sti_on(m.kctx(), sti);
    let hints = calc_hints_for(&traces[i].events, &traces[j].events, model);
    let shared = Arc::new(sti.clone());
    let mut hint_titles: BTreeSet<String> = BTreeSet::new();
    for hint in hints {
        let mti = Mti {
            sti: Arc::clone(&shared),
            i,
            j,
            hint,
        };
        let k = m.kctx();
        k.reset();
        mti.run_setup(k);
        let out = mti.run_pair_pooled(&m);
        hint_titles.extend(out.crashes.iter().map(|c| c.title.clone()));
    }

    let explorer_titles = exploration.crash_titles();
    let explorer_only = explorer_titles.difference(&hint_titles).cloned().collect();
    Differential {
        explorer_titles,
        hint_titles,
        explorer_only,
        replay_failures,
        schedules_run: exploration.schedules.len(),
        truncated: exploration.truncated,
    }
}

/// A named small MTI the explorer runs as a litmus case: a known bug, its
/// directed STI, and the racing pair.
#[derive(Clone, Debug)]
pub struct LitmusCase {
    /// Case name (CLI argument of the `explore` binary).
    pub name: &'static str,
    /// Kernel build: only the case's bug switch enabled.
    pub bugs: BugSwitches,
    /// The directed input.
    pub sti: Sti,
    /// Indices of the racing pair within the STI.
    pub pair: (usize, usize),
    /// The crash title the buggy kernel must expose.
    pub expected_title: &'static str,
}

/// The litmus corpus: small two-call MTIs with one seeded bug each,
/// covering both reordering types (store-store and load-load).
pub fn litmus_names() -> Vec<&'static str> {
    vec!["watch_queue", "fget", "vlan", "unix"]
}

/// Looks up a litmus case by name.
pub fn litmus_case(name: &str) -> Option<LitmusCase> {
    let bug = match name {
        "watch_queue" => BugId::KnownWatchQueuePost,
        "fget" => BugId::KnownFget,
        "vlan" => BugId::KnownVlan,
        "unix" => BugId::KnownUnix,
        _ => return None,
    };
    let name = match name {
        "watch_queue" => "watch_queue",
        "fget" => "fget",
        "vlan" => "vlan",
        _ => "unix",
    };
    Some(LitmusCase {
        name,
        bugs: BugSwitches::only([bug]),
        sti: known_bug_sti(bug).expect("litmus bugs have directed STIs"),
        pair: (0, 1),
        expected_title: bug.expected_title(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combinations_are_exhaustive_and_ordered() {
        assert_eq!(combinations(3, 2), vec![vec![0, 1], vec![0, 2], vec![1, 2]]);
        assert_eq!(combinations(4, 1).len(), 4);
        assert_eq!(combinations(5, 3).len(), 10);
        assert!(combinations(2, 3).is_empty(), "size > n yields nothing");
    }

    #[test]
    fn explorer_finds_the_watch_queue_crash() {
        let case = litmus_case("watch_queue").unwrap();
        let exp = explore_pair(
            &case.bugs,
            &case.sti,
            case.pair.0,
            case.pair.1,
            &Bound::default(),
        );
        assert!(
            exp.crash_titles().contains(case.expected_title),
            "exhaustive enumeration must reach the Figure 1 crash; found: {:?}",
            exp.crash_titles()
        );
        // Ground truth is two-sided: benign schedules exist too (e.g. the
        // subsets that delay only the flag store).
        assert!(exp.schedules.iter().any(|s| s.titles.is_empty()));
    }

    #[test]
    fn fixed_kernel_has_no_crashing_schedule() {
        // The in-vivo analog of a litmus "forbidden outcome": with the
        // patch applied, *no* admissible schedule within the bound crashes.
        let case = litmus_case("watch_queue").unwrap();
        let exp = explore_pair(
            &BugSwitches::none(),
            &case.sti,
            case.pair.0,
            case.pair.1,
            &Bound::default(),
        );
        assert!(!exp.schedules.is_empty(), "schedules still enumerate");
        assert!(
            exp.crash_titles().is_empty(),
            "patched kernel crashes under no admissible schedule"
        );
    }

    #[test]
    fn tight_bounds_truncate_loudly() {
        let case = litmus_case("watch_queue").unwrap();
        let exp = explore_pair(
            &case.bugs,
            &case.sti,
            0,
            1,
            &Bound {
                max_reorder: 1,
                max_sched_points: 1,
                max_schedules: 2,
            },
        );
        assert!(exp.truncated, "hitting a cap must be surfaced");
        assert!(exp.schedules.len() <= 2);
    }

    #[test]
    fn differential_passes_on_a_store_store_case() {
        let case = litmus_case("watch_queue").unwrap();
        let d = differential_pair(
            &case.bugs,
            &case.sti,
            case.pair.0,
            case.pair.1,
            &Bound::default(),
        );
        assert!(
            d.ok(),
            "hint generator must cover the explorer: explorer_only={:?} replay_failures={}",
            d.explorer_only,
            d.replay_failures
        );
        assert!(d.explorer_titles.contains(case.expected_title));
        assert!(d.hint_titles.contains(case.expected_title));
    }

    #[test]
    fn differential_passes_under_every_memory_model() {
        // Satellite check: the model-aware hint generator must cover the
        // model-aware exhaustive explorer on every model, and every
        // crashing trace (tagged with its model) must replay on-model.
        let case = litmus_case("watch_queue").unwrap();
        for model in MemoryModel::ALL {
            let d = differential_pair_under(
                &case.bugs,
                &case.sti,
                case.pair.0,
                case.pair.1,
                &Bound::default(),
                model,
            );
            assert!(
                d.ok(),
                "{model:?}: explorer_only={:?} replay_failures={}",
                d.explorer_only,
                d.replay_failures
            );
            assert!(
                d.explorer_titles.contains(case.expected_title),
                "{model:?} must still reach the crash"
            );
        }
    }

    #[test]
    fn arm_enumerates_at_least_the_tso_load_space() {
        // The Arm model stops treating READ_ONCE as a load barrier, so its
        // admissible schedule space is a superset of TSO's for any pair.
        let case = litmus_case("fget").unwrap();
        let b = Bound::default();
        let tso = explore_pair_under(&case.bugs, &case.sti, 0, 1, &b, MemoryModel::Tso);
        let arm = explore_pair_under(&case.bugs, &case.sti, 0, 1, &b, MemoryModel::Arm);
        assert!(
            arm.schedules.len() >= tso.schedules.len(),
            "arm admits {} schedules, tso {}",
            arm.schedules.len(),
            tso.schedules.len()
        );
    }

    #[test]
    fn differential_passes_on_a_load_load_case() {
        let case = litmus_case("fget").unwrap();
        let d = differential_pair(
            &case.bugs,
            &case.sti,
            case.pair.0,
            case.pair.1,
            &Bound::default(),
        );
        assert!(d.ok(), "explorer_only={:?}", d.explorer_only);
        assert!(d.explorer_titles.contains(case.expected_title));
    }
}
