//! Directed reproduction of previously-reported bugs (§6.2, Table 4).
//!
//! The paper's methodology: collect fix patches from git history, revert
//! them (here: enable the bug switch), extract an input that reaches the
//! patched code from the Syzkaller dashboard (here: [`known_bug_sti`]), and
//! feed it to OZZ as a single-threaded input. OZZ then profiles it,
//! computes scheduling hints, and runs MTIs until the bug triggers,
//! counting tests.
//!
//! Two special rows are reproduced faithfully:
//!
//! - **sbitmap (#6)** is *not* reproducible under CPU pinning — the
//!   per-CPU hint slot never becomes shared — and the §6.2 verification
//!   (forcing both threads onto one CPU's slot) makes it reproducible.
//! - **tls (#8)** has no crash symptom; reproduction is detected by the
//!   wrong syscall return value (`✓*`).
//!
//! Besides the hint-driven search above, this module offers *trace-based*
//! reproduction: a [`crate::fuzzer::FoundBug`] carries the recorded
//! schedule of its crashing execution, and [`reproduce_from_trace`] replays
//! that schedule directly — no hints, no search, one run — checking the
//! crash title and the machine-state digest byte-for-byte.

use kernelsim::{
    execute, BugId, BugSwitches, ExecRequest, Kctx, MachinePool, PooledMachine, ReorderType,
    ReplayReport, RunOutcome, Syscall,
};
use kutil::fnv1a64;
use oemu::ScheduleTrace;

use crate::fuzzer::FoundBug;
use crate::hints::calc_hints;
use crate::mti::{build_mtis, run_setup_prefix};
use crate::profile_sti_on;
use crate::sti::{known_bug_sti, Sti};

/// Outcome of one Table 4 reproduction attempt.
#[derive(Clone, Debug)]
pub struct ReproResult {
    /// The targeted bug.
    pub bug: BugId,
    /// Whether the bug was triggered.
    pub reproduced: bool,
    /// Whether the symptom was a wrong value rather than a crash (`✓*`).
    pub wrong_value: bool,
    /// MTI executions until the trigger (the paper's "# of tests"), or the
    /// total budget spent when not reproduced.
    pub tests: u64,
    /// Reordering type of the triggering hint.
    pub reorder_type: ReorderType,
}

/// Attempts to reproduce a known bug; `migration_override` applies the
/// §6.2 manual per-CPU modification used to verify the sbitmap analysis.
pub fn reproduce(bug: BugId, migration_override: bool) -> ReproResult {
    let sti = known_bug_sti(bug).expect("Table 4 bugs have repro inputs");
    let bugs = BugSwitches::only([bug]);
    let configure = |k: &Kctx| {
        if migration_override {
            k.set_migration_override(true);
        }
    };
    // One pooled machine serves the whole attempt: profile on it, then
    // reset it back to boot state (re-applying the §6.2 configuration —
    // the boot snapshot predates it) before each MTI.
    let pool = MachinePool::new();
    let m = pool.checkout(&bugs);
    configure(m.kctx());
    let traces = profile_sti_on(m.kctx(), &sti);
    let mtis = build_mtis(
        &sti,
        |i, j| calc_hints(&traces[i].events, &traces[j].events),
        32,
    );
    let mut tests = 0;
    for mti in mtis {
        tests += 1;
        let k = m.kctx();
        k.reset();
        configure(k);
        mti.run_setup(k);
        let out = mti.run_pair_pooled(&m);
        // Crash-symptom reproduction.
        if out.crashes.iter().any(|c| c.title == bug.expected_title()) {
            return ReproResult {
                bug,
                reproduced: true,
                wrong_value: false,
                tests,
                reorder_type: bug.reorder_type(),
            };
        }
        // Wrong-value reproduction (the ✓* row): the poll returned 0 —
        // "done" observed without the error code.
        if bug == BugId::KnownTlsErr {
            let (_, b) = mti.pair();
            if b == (Syscall::TlsPollErr { fd: 0 }) && out.ret_b == 0 {
                return ReproResult {
                    bug,
                    reproduced: true,
                    wrong_value: true,
                    tests,
                    reorder_type: bug.reorder_type(),
                };
            }
        }
    }
    ReproResult {
        bug,
        reproduced: false,
        wrong_value: false,
        tests,
        reorder_type: bug.reorder_type(),
    }
}

/// Runs the full Table 4 experiment: every known bug, pinned CPUs.
pub fn table4() -> Vec<ReproResult> {
    BugId::KNOWN.iter().map(|&b| reproduce(b, false)).collect()
}

/// Result of replaying a recorded schedule ([`replay_trace`]).
#[derive(Clone, Debug)]
pub struct TraceReplay {
    /// The replayed run's outcome (crash reports, return values).
    pub outcome: RunOutcome,
    /// Post-run [`Kctx::state_digest`].
    pub digest: String,
    /// The replay departed from the trace (different event stream, or
    /// leftover script) — its outcome then says nothing about the recording.
    pub diverged: bool,
}

/// Replays a recorded schedule on a freshly booted `bugs` kernel: runs the
/// STI's setup prefix (everything before `j` except `i`) single-threaded,
/// then the pair `(calls[i], calls[j])` slaved to `trace`. No Table 2
/// controls and no breakpoint are installed — the trace alone dictates
/// which stores sit in the buffer, which loads read old versions, and
/// where the token changes hands. The machine boots under the trace's
/// recorded memory model so the replay sees the recording's semantics.
pub fn replay_trace(
    bugs: BugSwitches,
    sti: &Sti,
    i: usize,
    j: usize,
    trace: &ScheduleTrace,
) -> TraceReplay {
    let k = Kctx::new_with_model(bugs, trace.model);
    run_setup_prefix(&k, &sti.calls, i, j);
    let (outcome, report) =
        execute(&k, ExecRequest::replay(trace, sti.calls[i], sti.calls[j])).into_replayed();
    TraceReplay {
        outcome,
        digest: k.state_digest(),
        diverged: report.diverged,
    }
}

/// [`replay_trace`] on a pooled machine in boot state: runs the setup
/// prefix, then the pair slaved to `trace`, and returns the outcome with
/// the replay report. It renders no state digest: a caller that needs one
/// reads [`Kctx::state_digest`] off the machine afterwards. The machine's
/// boot model must match the trace's — [`kernelsim::MachinePool`]
/// checkouts key on it. Trace minimization replays every candidate this
/// way, so a candidate costs one replay and one reset, not a boot.
pub fn replay_trace_on(
    m: &PooledMachine,
    sti: &Sti,
    i: usize,
    j: usize,
    trace: &ScheduleTrace,
) -> (RunOutcome, ReplayReport) {
    run_setup_prefix(m.kctx(), &sti.calls, i, j);
    m.execute(ExecRequest::replay(trace, sti.calls[i], sti.calls[j]))
        .into_replayed()
}

/// Replays a fuzzer-found bug from its embedded trace and checks full
/// fidelity: the replay must follow the trace to the end, re-raise the
/// recorded crash title, and land on the byte-identical machine state
/// (digest fingerprint match).
pub fn reproduce_from_trace(bug: &FoundBug, bugs: BugSwitches) -> bool {
    let (i, j) = bug.pair_indices;
    let replay = replay_trace(bugs, &bug.sti, i, j, &bug.trace);
    !replay.diverged
        && replay.outcome.crashes.iter().any(|c| c.title == bug.title)
        && fnv1a64(replay.digest.as_bytes()) == bug.digest_fnv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watch_queue_figure1_reproduces() {
        let r = reproduce(BugId::KnownWatchQueuePost, false);
        assert!(r.reproduced);
        assert!(!r.wrong_value);
        assert_eq!(r.reorder_type, ReorderType::StoreStore);
        assert!(r.tests >= 1);
    }

    #[test]
    fn load_load_bugs_reproduce() {
        for bug in [BugId::KnownFget, BugId::KnownNbd, BugId::KnownUnix] {
            let r = reproduce(bug, false);
            assert!(r.reproduced, "{bug} must reproduce");
            assert_eq!(r.reorder_type, ReorderType::LoadLoad);
        }
    }

    #[test]
    fn store_store_bugs_reproduce() {
        for bug in [BugId::KnownVlan, BugId::KnownXskUmem, BugId::KnownXskState] {
            let r = reproduce(bug, false);
            assert!(r.reproduced, "{bug} must reproduce");
            assert_eq!(r.reorder_type, ReorderType::StoreStore);
        }
    }

    #[test]
    fn tls_err_reproduces_as_wrong_value() {
        let r = reproduce(BugId::KnownTlsErr, false);
        assert!(r.reproduced, "the ✓* row");
        assert!(r.wrong_value, "symptom is a wrong value, not a crash");
    }

    #[test]
    fn sbitmap_fails_under_pinning_but_reproduces_with_migration() {
        let pinned = reproduce(BugId::KnownSbitmap, false);
        assert!(!pinned.reproduced, "the ✗ row: per-CPU + pinning");
        let migrated = reproduce(BugId::KnownSbitmap, true);
        assert!(migrated.reproduced, "the §6.2 verification");
    }

    #[test]
    fn table4_shape_matches_paper() {
        let results = table4();
        assert_eq!(results.len(), 9);
        let reproduced = results.iter().filter(|r| r.reproduced).count();
        assert_eq!(reproduced, 8, "8 of 9 reproduce");
        let failed: Vec<_> = results.iter().filter(|r| !r.reproduced).collect();
        assert_eq!(failed[0].bug, BugId::KnownSbitmap);
    }
}
