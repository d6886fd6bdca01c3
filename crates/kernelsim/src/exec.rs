//! Test execution: running syscalls on simulated CPUs.
//!
//! The concurrent runner is the machine-level half of OZZ's MTI execution
//! (§4.4): two syscalls run on two simulated CPUs serialised by the custom
//! scheduler, with whatever reordering instructions the caller installed in
//! the engine. A simulated oops ([`Oops`]) terminates the faulting CPU —
//! its syscall returns [`ECRASH`] — while the other CPU keeps running, and
//! the harvested crash reports come back in the [`RunOutcome`].
//!
//! One pair execution is fully described by an [`ExecRequest`]: the two
//! syscalls plus an [`ExecDrive`] saying what steers the interleaving — a
//! live [`SchedulePlan`], the same plan in record mode, or a previously
//! recorded [`ScheduleTrace`] to replay. [`execute`] is the single
//! dispatch point; every drive funnels through it, so the
//! record/replay/model flags cannot be combined inconsistently.
//!
//! Both legs of a pair run interleaved on the calling thread under
//! [`ksched::StepScheduler`]: a context switch is a nested function call,
//! so pair execution spawns no threads. Syscall pairs and the closure pairs
//! of [`run_concurrent_closures`] share one leg runner, which installs the
//! scheduler on the machine for the run; the machine then gates only the
//! instructions the scheduler can act on — the breakpoint's instruction of
//! a live plan, every instruction of a record or replay drive.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use kmem::CrashReport;
use ksched::{SchedulePlan, StepScheduler};
use kutil::sync::Mutex;
use oemu::{ScheduleTrace, Tid};

use crate::kctx::{KResult, Kctx, Oops, ECRASH};
use crate::syscalls::{dispatch, Syscall};

/// The executor selector of earlier releases, now single-valued: every
/// pair runs on the [`StepScheduler`]. It survives only as the type of
/// `ozz::fuzzer::FuzzConfig::exec_mode`, which the `ozzbench` benchmark
/// passes to [`Kctx::set_exec_mode`]; nothing reads it.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum ExecMode {
    /// Both simulated CPUs interleaved on the calling thread.
    #[default]
    Stepped,
}

/// Result of one concurrent test run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Crash reports harvested from the oracles.
    pub crashes: Vec<CrashReport>,
    /// Return value of the syscall on CPU 0 ([`ECRASH`] if it oopsed).
    pub ret_a: i64,
    /// Return value of the syscall on CPU 1 ([`ECRASH`] if it oopsed).
    pub ret_b: i64,
}

impl RunOutcome {
    /// Whether any oracle fired.
    pub fn crashed(&self) -> bool {
        !self.crashes.is_empty()
    }

    /// Title of the first crash, if any.
    pub fn title(&self) -> Option<&str> {
        self.crashes.first().map(|c| c.title.as_str())
    }
}

/// Fidelity report of a trace-replay run (see [`ExecDrive::Replay`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayReport {
    /// The execution departed from the trace at some point.
    pub diverged: bool,
    /// Engine steps consumed.
    pub steps_consumed: usize,
    /// Engine steps in the trace.
    pub steps_total: usize,
}

/// What steers the interleaving decisions of one pair execution.
#[derive(Clone, Debug)]
pub enum ExecDrive<'t> {
    /// A live run under a schedule plan, with whatever Table 2 reordering
    /// controls the caller installed in the engine.
    Live(SchedulePlan),
    /// A live run under a plan with the full decision stream recorded;
    /// the reply carries the resulting [`ScheduleTrace`].
    Record(SchedulePlan),
    /// A run slaved to a recorded trace (no control sets needed); the
    /// reply carries a [`ReplayReport`]. A sparse trace
    /// ([`ScheduleTrace::sparse`]) replays by reinstalling its decisions
    /// as engine controls and slaving only the scheduler to the switch
    /// script; a full trace slaves the engine to the event stream.
    Replay(&'t ScheduleTrace),
}

/// One concurrent pair execution, fully specified: the two syscalls and
/// what drives their interleaving. Built with [`ExecRequest::live`],
/// [`ExecRequest::recorded`], or [`ExecRequest::replay`] and run by
/// [`execute`] (or [`crate::PooledMachine::execute`] on a pooled machine)
/// — the record/replay/model flags all travel together, so they cannot be
/// combined inconsistently.
#[derive(Clone, Debug)]
pub struct ExecRequest<'t> {
    /// Syscall on simulated CPU 0.
    pub a: Syscall,
    /// Syscall on simulated CPU 1.
    pub b: Syscall,
    /// Live / record / replay.
    pub drive: ExecDrive<'t>,
}

impl ExecRequest<'static> {
    /// A live run of `a` ∥ `b` under `plan`.
    pub fn live(plan: SchedulePlan, a: Syscall, b: Syscall) -> Self {
        ExecRequest {
            a,
            b,
            drive: ExecDrive::Live(plan),
        }
    }

    /// A recorded run of `a` ∥ `b` under `plan`.
    pub fn recorded(plan: SchedulePlan, a: Syscall, b: Syscall) -> Self {
        ExecRequest {
            a,
            b,
            drive: ExecDrive::Record(plan),
        }
    }
}

impl<'t> ExecRequest<'t> {
    /// A replay of `a` ∥ `b` slaved to `trace`.
    pub fn replay(trace: &'t ScheduleTrace, a: Syscall, b: Syscall) -> Self {
        ExecRequest {
            a,
            b,
            drive: ExecDrive::Replay(trace),
        }
    }
}

/// Everything one pair execution can produce. Which optional parts are
/// present is determined by the request's [`ExecDrive`]:
/// `trace` is `Some` iff the drive was `Record`, `replay` is `Some` iff
/// the drive was `Replay`.
#[derive(Clone, Debug)]
pub struct ExecReply {
    /// Crash reports and per-CPU return values.
    pub outcome: RunOutcome,
    /// The recorded decision stream (`Record` drives only).
    pub trace: Option<ScheduleTrace>,
    /// Replay fidelity (`Replay` drives only).
    pub replay: Option<ReplayReport>,
}

impl ExecReply {
    /// Unpacks a `Record` reply into `(outcome, trace)`.
    ///
    /// # Panics
    ///
    /// Panics if the request's drive was not [`ExecDrive::Record`].
    pub fn into_recorded(self) -> (RunOutcome, ScheduleTrace) {
        let trace = self.trace.expect("reply to a Record request");
        (self.outcome, trace)
    }

    /// Unpacks a `Replay` reply into `(outcome, report)`.
    ///
    /// # Panics
    ///
    /// Panics if the request's drive was not [`ExecDrive::Replay`].
    pub fn into_replayed(self) -> (RunOutcome, ReplayReport) {
        let report = self.replay.expect("reply to a Replay request");
        (self.outcome, report)
    }
}

/// A leg's result: the syscall's value (or [`ECRASH`]), or the payload of
/// a harness panic, held until both legs have run and then resumed.
type LegResult = std::thread::Result<i64>;

/// Runs `body` as CPU `t`'s syscall with oops isolation and the
/// syscall-exit store-buffer flush. A simulated oops kills the task without
/// returning to userspace (no exit flush; the report is in the sink).
fn isolated(k: &Kctx, t: Tid, body: impl FnOnce(&Kctx) -> KResult<i64>) -> i64 {
    match body(k) {
        Ok(ret) => {
            k.syscall_exit(t);
            ret
        }
        Err(Oops) => ECRASH,
    }
}

/// Runs one syscall on CPU `t` with oops isolation and the syscall-exit
/// store-buffer flush. Returns the syscall's value, or [`ECRASH`].
pub fn run_one(k: &Kctx, t: Tid, sc: Syscall) -> i64 {
    isolated(k, t, |k| dispatch(k, t, sc))
}

/// Runs a sequence of syscalls single-threaded on CPU 0 (the STI execution
/// of §4.2); returns each syscall's value.
pub fn run_sti(k: &Kctx, calls: &[Syscall]) -> Vec<i64> {
    calls.iter().map(|&sc| run_one(k, Tid(0), sc)).collect()
}

/// Runs two closures concurrently on CPUs 0 and 1 under `plan`.
///
/// The closures receive the [`Kctx`] and must perform their accesses as the
/// thread they were placed on (`a` as `Tid(0)`, `b` as `Tid(1)`). They
/// become the step scheduler's legs, hence `Send + 'static`. Crash reports
/// are drained into the outcome.
pub fn run_concurrent_closures(
    k: &Arc<Kctx>,
    plan: SchedulePlan,
    a: impl FnOnce(&Kctx) -> KResult<i64> + Send + 'static,
    b: impl FnOnce(&Kctx) -> KResult<i64> + Send + 'static,
) -> RunOutcome {
    run_legs(k, &Arc::new(StepScheduler::new(2, plan)), a, b)
}

/// Runs one [`ExecRequest`] on a machine — the single public dispatch
/// point for concurrent pair execution ([`crate::PooledMachine::execute`]
/// forwards here). Engine-side record/replay bracketing lives here too, so
/// a request can never, say, start replay consumption without the matching
/// model check or leave a recording dangling.
///
/// For `Record` drives the reply's trace fully determines the outcome —
/// scheduler switch points plus every engine delay/versioning decision —
/// and replaying it (a `Replay` drive) against the same pre-run kernel
/// state reproduces the identical outcome and `state_digest`.
pub fn execute(k: &Arc<Kctx>, req: ExecRequest<'_>) -> ExecReply {
    let ExecRequest { a, b, drive } = req;
    match drive {
        ExecDrive::Live(plan) => ExecReply {
            outcome: run_pair(k, &Arc::new(StepScheduler::new(2, plan)), a, b),
            trace: None,
            replay: None,
        },
        ExecDrive::Record(plan) => {
            k.engine.start_trace_recording();
            let sched = Arc::new(StepScheduler::recording(2, plan));
            let outcome = run_pair(k, &sched, a, b);
            let trace = ScheduleTrace {
                model: k.engine.memory_model(),
                first: plan.first,
                switches: sched.take_switch_log(),
                steps: k.engine.take_recorded_trace(),
                sparse: false,
            };
            ExecReply {
                outcome,
                trace: Some(trace),
                replay: None,
            }
        }
        ExecDrive::Replay(trace) if trace.sparse => {
            check_replay_model(k, trace);
            run_sparse_replay(k, trace, a, b)
        }
        ExecDrive::Replay(trace) => {
            check_replay_model(k, trace);
            k.engine.start_trace_replay(trace.steps.clone());
            let outcome = run_pair(k, &replaying(trace), a, b);
            let status = k.engine.finish_trace_replay();
            ExecReply {
                outcome,
                trace: None,
                replay: Some(ReplayReport {
                    diverged: status.diverged,
                    steps_consumed: status.consumed,
                    steps_total: status.total,
                }),
            }
        }
    }
}

/// Replays a *sparse* trace: the trace carries only the ordering decisions
/// (delayed stores, versioned loads) plus the switch script, so instead of
/// slaving the engine to an event stream, the decisions are reinstalled as
/// Table 2 controls and only the scheduler follows the script. The run is
/// otherwise live — and internally recorded, so fidelity is still
/// checkable: the replay diverged iff some scripted decision never fired
/// with its scripted effect. (Scheduler fidelity needs no separate check:
/// a switch that fails to fire changes the interleaving, which either
/// suppresses a decision — caught here — or changes the outcome/digest the
/// caller compares.)
fn run_sparse_replay(k: &Arc<Kctx>, trace: &ScheduleTrace, a: Syscall, b: Syscall) -> ExecReply {
    for step in &trace.steps {
        match *step {
            oemu::TraceStep::Store {
                tid,
                iid,
                delayed: true,
            } => k.engine.delay_store_at(tid, iid),
            oemu::TraceStep::Load {
                tid,
                iid,
                src: oemu::LoadSrc::Versioned,
            } => k.engine.read_old_value_at(tid, iid),
            // A sparse trace holds decisions only; tolerate (and ignore)
            // anything else so a hand-pruned full trace still replays.
            _ => {}
        }
    }
    k.engine.start_trace_recording();
    let outcome = run_pair(k, &replaying(trace), a, b);
    // The listed steps are a multiset: each must match an executed step of
    // its own, so a decision listed twice needs two executions.
    let mut executed = k.engine.take_recorded_trace();
    let mut consumed = 0;
    for step in &trace.steps {
        if let Some(at) = executed.iter().position(|e| e == step) {
            executed.swap_remove(at);
            consumed += 1;
        }
    }
    ExecReply {
        outcome,
        trace: None,
        replay: Some(ReplayReport {
            diverged: consumed != trace.steps.len(),
            steps_consumed: consumed,
            steps_total: trace.steps.len(),
        }),
    }
}

/// A step scheduler slaved to `trace`'s switch script.
fn replaying(trace: &ScheduleTrace) -> Arc<StepScheduler> {
    Arc::new(StepScheduler::replaying(
        2,
        trace.first,
        trace.switches.clone(),
    ))
}

/// Runs the syscalls `a` ∥ `b` as the legs of `sched`.
fn run_pair(k: &Arc<Kctx>, sched: &Arc<StepScheduler>, a: Syscall, b: Syscall) -> RunOutcome {
    run_legs(
        k,
        sched,
        move |k| dispatch(k, Tid(0), a),
        move |k| dispatch(k, Tid(1), b),
    )
}

/// The pair executor: installs `a` and `b` as the legs of CPUs 0 and 1,
/// runs them to completion on the calling thread, and drains the crash
/// reports. A harness panic in either leg reaches the caller only after
/// both legs ran and the scheduler is detached, a-then-b.
fn run_legs(
    k: &Arc<Kctx>,
    sched: &Arc<StepScheduler>,
    a: impl FnOnce(&Kctx) -> KResult<i64> + Send + 'static,
    b: impl FnOnce(&Kctx) -> KResult<i64> + Send + 'static,
) -> RunOutcome {
    k.set_step_scheduler(Some(Arc::clone(sched)));
    let cell_a = install_leg(k, sched, Tid(0), a);
    let cell_b = install_leg(k, sched, Tid(1), b);
    sched.run();
    k.set_step_scheduler(None);
    k.engine.clear_controls(Tid(0));
    k.engine.clear_controls(Tid(1));
    let settle = |cell: Arc<Mutex<Option<LegResult>>>| {
        let r = cell.lock().take().expect("leg ran to completion");
        r.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    };
    let ret_a = settle(cell_a);
    let ret_b = settle(cell_b);
    RunOutcome {
        crashes: k.sink.take(),
        ret_a,
        ret_b,
    }
}

/// Boxes `body` into CPU `t`'s leg — scheduler start, oops isolation,
/// syscall-exit flush, finish — writing its result into the returned cell.
/// The leg catches a harness panic so that the peer leg still runs; it
/// costs nothing when nothing panics.
fn install_leg(
    k: &Arc<Kctx>,
    sched: &Arc<StepScheduler>,
    t: Tid,
    body: impl FnOnce(&Kctx) -> KResult<i64> + Send + 'static,
) -> Arc<Mutex<Option<LegResult>>> {
    let cell = Arc::new(Mutex::new(None));
    let (kk, sch, out) = (Arc::clone(k), Arc::clone(sched), Arc::clone(&cell));
    sched.set_leg(
        t,
        Box::new(move || {
            sch.leg_start(t);
            let r = catch_unwind(AssertUnwindSafe(|| isolated(&kk, t, body)));
            sch.leg_finish(t);
            *out.lock() = Some(r);
        }),
    );
    cell
}

/// A trace's decision stream only makes sense on a machine running the
/// model that recorded it — a mismatch would replay garbage and report it
/// as mere divergence, so fail loudly instead.
fn check_replay_model(k: &Kctx, trace: &ScheduleTrace) {
    assert_eq!(
        trace.model,
        k.engine.memory_model(),
        "replaying a {} trace on a {} machine",
        trace.model.name(),
        k.engine.memory_model().name()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugSwitches;
    use crate::syscalls::Syscall;
    use ksched::{BreakWhen, Breakpoint};
    use oemu::AccessKind;

    #[test]
    fn run_sti_executes_in_order() {
        let k = Kctx::new(BugSwitches::none());
        let rets = run_sti(
            &k,
            &[
                Syscall::WqPost,
                Syscall::PipeRead,
                Syscall::TlsInit { fd: 0 },
                Syscall::SetSockOpt { fd: 0 },
            ],
        );
        assert_eq!(rets.len(), 4);
        assert_eq!(rets[0], 0);
        assert!(rets[1] > 0, "read returns the note length");
        assert_eq!(rets[2], 0);
        assert_eq!(rets[3], 0);
    }

    #[test]
    fn concurrent_sequential_plan_is_benign() {
        let k = Kctx::new(BugSwitches::all());
        let out = execute(
            &k,
            ExecRequest::live(
                SchedulePlan::sequential(Tid(0)),
                Syscall::WqPost,
                Syscall::PipeRead,
            ),
        )
        .outcome;
        assert!(!out.crashed(), "in-order execution never crashes: {out:?}");
        assert_eq!(out.ret_a, 0);
    }

    #[test]
    fn figure5a_store_barrier_test_finds_figure1_bug() {
        // The full MTI pipeline by hand: profile the writer, install the
        // maximal hypothetical-store-barrier hint (delay everything before
        // the last store, break after it), and run concurrently.
        let k = Kctx::new(BugSwitches::all());
        k.engine.set_profiling(true);
        run_one(&k, Tid(0), Syscall::WqPost);
        let profile = k.engine.take_profile(Tid(0));
        k.engine.set_profiling(false);
        let stores: Vec<_> = profile
            .accesses()
            .filter(|a| a.kind == AccessKind::Store)
            .collect();
        let (last, rest) = stores.split_last().expect("writer has stores");
        // Fresh machine: the profiling run consumed a ring slot.
        let k = Kctx::new(BugSwitches::all());
        for a in rest {
            k.engine.delay_store_at(Tid(0), a.iid);
        }
        let plan = SchedulePlan {
            first: Tid(0),
            breakpoint: Some(Breakpoint {
                iid: last.iid,
                when: BreakWhen::After,
                hit: 1,
            }),
        };
        let out = execute(
            &k,
            ExecRequest::live(plan, Syscall::WqPost, Syscall::PipeRead),
        )
        .outcome;
        assert!(out.crashed(), "Figure 1 bug must manifest: {out:?}");
        assert_eq!(
            out.title().unwrap(),
            "BUG: unable to handle kernel NULL pointer dereference in pipe_read"
        );
        assert_eq!(out.ret_b, ECRASH);
        assert_eq!(out.ret_a, 0, "the writer survives");
    }

    #[test]
    fn crash_in_one_cpu_does_not_kill_the_other() {
        let k = Kctx::new(BugSwitches::all());
        let out = run_concurrent_closures(
            &k,
            SchedulePlan::sequential(Tid(0)),
            |k| {
                let _f = k.enter(Tid(0), "explode");
                k.read(Tid(0), oemu::iid!(), 0)?; // null deref
                unreachable!()
            },
            |_k| Ok(42),
        );
        assert_eq!(out.ret_a, ECRASH);
        assert_eq!(out.ret_b, 42);
        assert_eq!(out.crashes.len(), 1);
    }

    #[test]
    fn fixed_kernel_survives_figure5a_forcing() {
        let k = Kctx::new(BugSwitches::none());
        k.engine.set_profiling(true);
        run_one(&k, Tid(0), Syscall::WqPost);
        let profile = k.engine.take_profile(Tid(0));
        k.engine.set_profiling(false);
        let stores: Vec<_> = profile
            .accesses()
            .filter(|a| a.kind == AccessKind::Store)
            .collect();
        let (last, rest) = stores.split_last().unwrap();
        let k = Kctx::new(BugSwitches::none());
        for a in rest {
            k.engine.delay_store_at(Tid(0), a.iid);
        }
        let plan = SchedulePlan {
            first: Tid(0),
            breakpoint: Some(Breakpoint {
                iid: last.iid,
                when: BreakWhen::After,
                hit: 1,
            }),
        };
        let out = execute(
            &k,
            ExecRequest::live(plan, Syscall::WqPost, Syscall::PipeRead),
        )
        .outcome;
        assert!(!out.crashed(), "patched kernel survives: {out:?}");
    }

    #[test]
    fn bug_on_oracle_reports_assertion() {
        let k = Kctx::new(BugSwitches::none());
        let out = run_concurrent_closures(
            &k,
            SchedulePlan::sequential(Tid(0)),
            |k| {
                let _f = k.enter(Tid(0), "some_fn");
                k.bug_on(Tid(0), true, "invariant broken")?;
                Ok(0)
            },
            |_k| Ok(0),
        );
        assert!(out.crashed());
        assert_eq!(
            out.title().unwrap(),
            "kernel BUG at some_fn: invariant broken"
        );
    }
}
