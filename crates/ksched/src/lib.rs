//! The custom scheduler (§4.4.1, Appendix §10.3).
//!
//! OZZ needs a mechanism to deterministically control thread interleaving in
//! addition to OEMU's control over memory-access reordering. The paper
//! implements this in the hypervisor: the fuzzer delivers a scheduling point
//! through a hypercall, the hypervisor installs a breakpoint, keeps exactly
//! one virtual CPU running at a time, and switches vCPUs when the breakpoint
//! is hit (Figure 9).
//!
//! This crate provides that contract as the [`StepScheduler`]: both
//! simulated CPUs are *legs* (boxed closures) run on one OS thread, and a
//! gate that fires simply calls the peer leg as a nested function and
//! resumes when it returns. This is sound because a pair run performs at
//! most one deliberate handoff (the single optional breakpoint disarms when
//! it fires), so the suspended side always sits below the running side on
//! the call stack.
//!
//! Crucially — and this is the property §2.3 says breakpoint-based tools
//! destroy and OEMU restores — suspending a CPU does **not** flush its
//! virtual store buffer, so delayed stores stay invisible across the
//! switch, exactly like a suspended vCPU whose in-flight stores the paper's
//! OEMU keeps buffered.
//!
//! Like the hypervisor, which traps only on its breakpoint, a scheduler
//! reports up front which instructions its gates can act on
//! ([`StepScheduler::gate_filter`], a [`GateFilter`] read without a lock):
//! a plan acts only at its breakpoint's instruction, a sequential plan
//! nowhere, and record and replay modes at every gate, because their
//! switch log counts every gate call. A gate at any other instruction
//! returns at once, and callers may skip it entirely.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use oemu::{iid, Tid};
//! use ksched::{BreakWhen, Breakpoint, SchedulePlan, StepScheduler};
//!
//! let point = iid!();
//! let plan = SchedulePlan {
//!     first: Tid(0),
//!     breakpoint: Some(Breakpoint { iid: point, when: BreakWhen::After, hit: 1 }),
//! };
//! let sched = Arc::new(StepScheduler::new(2, plan));
//! let order = Arc::new(kutil::sync::Mutex::new(Vec::new()));
//! let (sc, ord) = (Arc::clone(&sched), Arc::clone(&order));
//! sched.set_leg(Tid(0), Box::new(move || {
//!     sc.leg_start(Tid(0));
//!     ord.lock().push("t0-a");
//!     sc.gate_after(Tid(0), point); // breakpoint: runs leg 1 inline
//!     ord.lock().push("t0-b");
//!     sc.leg_finish(Tid(0));
//! }));
//! let (sc, ord) = (Arc::clone(&sched), Arc::clone(&order));
//! sched.set_leg(Tid(1), Box::new(move || {
//!     sc.leg_start(Tid(1));
//!     ord.lock().push("t1");
//!     sc.leg_finish(Tid(1));
//! }));
//! sched.run();
//! assert_eq!(*order.lock(), vec!["t0-a", "t1", "t0-b"]);
//! ```

#![deny(missing_docs)]

use kutil::sync::Mutex;
use oemu::{BarrierKind, Iid, MemoryModel, SwitchPoint, Tid};

/// The scheduler-facing capability view of a memory model.
///
/// Planning layers above the scheduler — hint generation, exhaustive
/// schedule enumeration — must know which barriers bound a reorder group
/// and whether a release store can itself be overtaken. Those are
/// properties of the emulated memory model, not of the scheduler, but the
/// planners consume them in scheduling vocabulary ("does this barrier
/// close the group my breakpoint targets?"), so `ModelCaps` packages
/// OEMU's model predicates under that vocabulary and keeps the planners
/// free of hard-coded TSO assumptions.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ModelCaps {
    model: MemoryModel,
}

impl ModelCaps {
    /// The capability view of `model`.
    pub fn of(model: MemoryModel) -> Self {
        ModelCaps { model }
    }

    /// The wrapped model.
    pub fn model(self) -> MemoryModel {
        self.model
    }

    /// Whether barrier `b` closes a **store** reorder group: a delayed
    /// store may not be held across it, so store-test hints must draw
    /// their reorder sets from within one such group (Algorithm 1's
    /// grouping rule).
    pub fn bounds_store_group(self, b: BarrierKind) -> bool {
        self.model.barrier_orders_stores(b)
    }

    /// Whether barrier `b` closes a **load** reorder group: a versioned
    /// load may not read past it. On the Arm-like model `READ_ONCE` no
    /// longer qualifies, so load groups — and with them the admissible
    /// version sets — grow.
    pub fn bounds_load_group(self, b: BarrierKind) -> bool {
        self.model.barrier_orders_loads(b)
    }

    /// Whether a release store can itself sit in the store buffer while a
    /// later plain store commits (PSO and Arm-like). Under TSO a release
    /// store is never delayable, so a store-test hint that delays one is a
    /// no-op the planner may skip.
    pub fn release_store_is_delayable(self) -> bool {
        self.model.release_store_is_delayable()
    }
}

/// Whether the context switch fires before or after the matched access.
///
/// The hypothetical **store** barrier test (Figure 5a) interleaves *after*
/// the scheduling-point access (the store past the hypothetical barrier has
/// committed; the delayed ones have not). The hypothetical **load** barrier
/// test (Figure 5b) interleaves *before* it (the other syscall must run
/// first to populate the store history).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum BreakWhen {
    /// Switch before the access executes.
    Before,
    /// Switch after the access executes.
    After,
}

/// A scheduling point: switch threads at the `hit`-th execution of `iid`.
#[derive(Copy, Clone, Debug)]
pub struct Breakpoint {
    /// Instrumented access to break on.
    pub iid: Iid,
    /// Break before or after the access.
    pub when: BreakWhen,
    /// 1-based occurrence count (an instruction in a loop executes many
    /// times; the profile tells the fuzzer which occurrence to target).
    pub hit: u32,
}

/// A deterministic schedule for one multi-threaded input.
#[derive(Copy, Clone, Debug)]
pub struct SchedulePlan {
    /// Thread that runs first (the paper's `start_first()`).
    pub first: Tid,
    /// Optional scheduling point; without one, threads simply run to
    /// completion in order.
    pub breakpoint: Option<Breakpoint>,
}

impl SchedulePlan {
    /// A plan with no context switch: `first` runs to completion, then the
    /// other threads in index order.
    pub fn sequential(first: Tid) -> Self {
        SchedulePlan {
            first,
            breakpoint: None,
        }
    }
}

/// How the scheduler decides context switches for one run.
#[derive(Copy, Clone, PartialEq, Eq)]
enum SchedMode {
    /// Live plan-driven execution (the default).
    Plan,
    /// Live plan-driven execution, logging each breakpoint handoff as a
    /// [`SwitchPoint`] for later replay.
    Record,
    /// Slaved to a recorded switch log instead of a breakpoint.
    Replay,
}

struct State {
    active: Tid,
    finished: Vec<bool>,
    /// Breakpoint armed for the currently-running first thread.
    armed: Option<Breakpoint>,
    hits: u32,
    switches: u32,
    /// Per-thread count of gate calls (record/replay modes only): the
    /// stable coordinate system switch points are keyed by. Counts every
    /// gate call — both phases, matching or not — so it is independent of
    /// which breakpoint was armed.
    gate_counts: Vec<u32>,
    /// Recorded handoffs (record mode output / replay mode script).
    switch_log: Vec<SwitchPoint>,
    /// Cursor into `switch_log` (replay mode).
    cursor: usize,
}

/// One simulated CPU's execution as a value: the closure the step scheduler
/// invokes when that CPU is scheduled.
pub type Leg = Box<dyn FnOnce() + Send>;

/// The instructions at which a scheduler's gates can act, fixed when the
/// scheduler is built and read without a lock
/// ([`StepScheduler::gate_filter`]). A gate at any other instruction is a
/// no-op, so callers may skip it entirely.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum GateFilter {
    /// No gate acts: a sequential plan.
    Nowhere,
    /// Only gates at this instruction act: a plan's breakpoint.
    At(Iid),
    /// Every gate acts: record and replay modes count every gate call,
    /// because the switch log is keyed by per-thread gate counts.
    Everywhere,
}

impl GateFilter {
    /// Whether a gate at `iid` can act.
    pub fn admits(self, iid: Iid) -> bool {
        match self {
            GateFilter::Nowhere => false,
            GateFilter::At(at) => at == iid,
            GateFilter::Everywhere => true,
        }
    }
}

/// The pair scheduler: both simulated CPUs run interleaved on the calling
/// OS thread, and a context switch is a nested function call.
///
/// The state machine tracks the active thread, the armed [`Breakpoint`] and
/// its hit count, per-thread gate counts and the switch log. A gate that
/// fires *calls* the peer's [`Leg`] and continues when it returns.
///
/// The nested-call model is complete for everything the planner can
/// express: a [`SchedulePlan`] carries at most one breakpoint, which disarms
/// when it fires, so a run performs at most one deliberate handoff and the
/// suspended leg always resumes in stack (LIFO) order. Replaying a switch
/// log with more than one [`SwitchPoint`] would need non-LIFO resumption,
/// so [`replaying`](StepScheduler::replaying) rejects it; recorded logs
/// never contain more than one, and the trace parser refuses a second
/// `switch` line.
pub struct StepScheduler {
    state: Mutex<State>,
    legs: Mutex<Vec<Option<Leg>>>,
    nthreads: usize,
    mode: SchedMode,
    filter: GateFilter,
}

impl StepScheduler {
    fn with_mode(
        nthreads: usize,
        first: Tid,
        breakpoint: Option<Breakpoint>,
        mode: SchedMode,
        switch_log: Vec<SwitchPoint>,
    ) -> Self {
        assert!(first.0 < nthreads, "first thread out of range");
        let filter = match (mode, breakpoint) {
            (SchedMode::Plan, Some(bp)) => GateFilter::At(bp.iid),
            (SchedMode::Plan, None) => GateFilter::Nowhere,
            (SchedMode::Record | SchedMode::Replay, _) => GateFilter::Everywhere,
        };
        StepScheduler {
            state: Mutex::new(State {
                active: first,
                finished: vec![false; nthreads],
                armed: breakpoint,
                hits: 0,
                switches: 0,
                gate_counts: vec![0; nthreads],
                switch_log,
                cursor: 0,
            }),
            legs: Mutex::new((0..nthreads).map(|_| None).collect()),
            nthreads,
            mode,
            filter,
        }
    }

    /// Creates a step scheduler for `nthreads` simulated CPUs following
    /// `plan`.
    ///
    /// # Panics
    ///
    /// Panics if `plan.first` is out of range.
    pub fn new(nthreads: usize, plan: SchedulePlan) -> Self {
        Self::with_mode(
            nthreads,
            plan.first,
            plan.breakpoint,
            SchedMode::Plan,
            Vec::new(),
        )
    }

    /// Like [`StepScheduler::new`], but every breakpoint-driven handoff is
    /// logged as a [`SwitchPoint`]; collect the log with
    /// [`take_switch_log`](StepScheduler::take_switch_log) after the run.
    pub fn recording(nthreads: usize, plan: SchedulePlan) -> Self {
        Self::with_mode(
            nthreads,
            plan.first,
            plan.breakpoint,
            SchedMode::Record,
            Vec::new(),
        )
    }

    /// Creates a step scheduler slaved to a recorded switch log with at most
    /// one entry: no breakpoint, the token moves exactly where (and when, in
    /// per-thread gate counts) the log says it moved. Implicit handoffs at
    /// leg exit follow the normal finish path, as they did at record time.
    ///
    /// # Panics
    ///
    /// Panics if `switches` holds more than one entry.
    pub fn replaying(nthreads: usize, first: Tid, switches: Vec<SwitchPoint>) -> Self {
        assert!(
            switches.len() <= 1,
            "multi-switch logs need non-LIFO resumption"
        );
        Self::with_mode(nthreads, first, None, SchedMode::Replay, switches)
    }

    /// The instructions at which this scheduler's gates can act, without
    /// taking a lock. A plan acts only at its breakpoint's instruction and
    /// a sequential plan nowhere; record and replay modes act at every gate.
    pub fn gate_filter(&self) -> GateFilter {
        self.filter
    }

    /// Takes the switch log recorded by a
    /// [`recording`](StepScheduler::recording) scheduler.
    pub fn take_switch_log(&self) -> Vec<SwitchPoint> {
        std::mem::take(&mut self.state.lock().switch_log)
    }

    /// Installs the closure that *is* thread `tid`'s execution. Must be set
    /// for every thread before [`run`](StepScheduler::run).
    pub fn set_leg(&self, tid: Tid, leg: Leg) {
        self.legs.lock()[tid.0] = Some(leg);
    }

    /// A leg's first call. A leg is only ever *invoked* while it holds the
    /// token, so this merely asserts the invariant.
    pub fn leg_start(&self, tid: Tid) {
        debug_assert_eq!(
            self.state.lock().active,
            tid,
            "a leg runs only while it holds the token"
        );
    }

    /// A leg's last call: marks `tid` finished and hands the token to the
    /// next runnable thread — which, if this leg ran nested inside a peer's
    /// gate, is the suspended peer the gate returns into.
    pub fn leg_finish(&self, tid: Tid) {
        let mut st = self.state.lock();
        st.finished[tid.0] = true;
        if let Some(next) = self.next_runnable(&st, tid) {
            st.active = next;
        }
    }

    /// Gate checked *before* an instrumented access executes.
    pub fn gate_before(&self, tid: Tid, iid: Iid) {
        self.gate(tid, iid, BreakWhen::Before);
    }

    /// Gate checked *after* an instrumented access executes.
    pub fn gate_after(&self, tid: Tid, iid: Iid) {
        self.gate(tid, iid, BreakWhen::After);
    }

    fn gate(&self, tid: Tid, iid: Iid, phase: BreakWhen) {
        if !self.filter.admits(iid) {
            return;
        }
        let next = {
            let mut st = self.state.lock();
            debug_assert_eq!(st.active, tid, "only the token holder may execute");
            if self.mode != SchedMode::Plan {
                st.gate_counts[tid.0] += 1;
            }
            if self.mode == SchedMode::Replay {
                // Replay: fire exactly at the recorded per-thread gate
                // count. A target that already finished cannot be resumed;
                // skipping the entry keeps the run alive and the
                // engine-side step cursor reports the divergence.
                let mut next = None;
                if let Some(&sp) = st.switch_log.get(st.cursor) {
                    if sp.tid == tid && sp.nth_gate == st.gate_counts[tid.0] {
                        st.cursor += 1;
                        if sp.to.0 < self.nthreads && !st.finished[sp.to.0] {
                            st.active = sp.to;
                            st.switches += 1;
                            next = Some(sp.to);
                        }
                    }
                }
                next
            } else {
                let Some(bp) = st.armed else { return };
                if bp.iid != iid || bp.when != phase {
                    return;
                }
                st.hits += 1;
                if st.hits < bp.hit {
                    return;
                }
                // Fire: disarm and hand the token to the next runnable
                // thread (the Figure 9 suspend/resume pair). When the peer
                // already finished, that is a self-handoff.
                st.armed = None;
                match self.next_runnable(&st, tid) {
                    Some(next) => {
                        if self.mode == SchedMode::Record {
                            let nth_gate = st.gate_counts[tid.0];
                            st.switch_log.push(SwitchPoint {
                                tid,
                                nth_gate,
                                to: next,
                            });
                        }
                        st.active = next;
                        st.switches += 1;
                        Some(next)
                    }
                    None => None,
                }
            }
        };
        // Suspend/resume: run the peer's leg as a nested call (with no
        // locks held). A handoff to self — the peer already finished — is
        // counted above but needs no call.
        if let Some(next) = next {
            if next != tid {
                let leg = self.legs.lock()[next.0]
                    .take()
                    .expect("handoff target leg is pending");
                leg();
            }
        }
    }

    /// Runs all legs to completion on the calling thread, honouring the
    /// plan (or recorded log): the active leg runs until it fires a gate —
    /// which runs the peer leg nested — or finishes, after which the token
    /// moves to the next unfinished leg.
    ///
    /// # Panics
    ///
    /// Panics if a leg was not installed via
    /// [`set_leg`](StepScheduler::set_leg).
    pub fn run(&self) {
        loop {
            let next = {
                let st = self.state.lock();
                if st.finished.iter().all(|&f| f) {
                    None
                } else {
                    Some(st.active)
                }
            };
            let Some(tid) = next else { break };
            let leg = self.legs.lock()[tid.0]
                .take()
                .expect("every leg is installed before run()");
            leg();
        }
    }

    /// Number of deliberate context switches that occurred.
    pub fn switches(&self) -> u32 {
        self.state.lock().switches
    }

    /// Whether every leg has finished.
    pub fn all_finished(&self) -> bool {
        self.state.lock().finished.iter().all(|&f| f)
    }

    fn next_runnable(&self, st: &State, current: Tid) -> Option<Tid> {
        (1..=self.nthreads)
            .map(|off| Tid((current.0 + off) % self.nthreads))
            .find(|t| !st.finished[t.0])
    }
}

#[cfg(test)]
mod caps_tests {
    use super::*;

    #[test]
    fn caps_mirror_the_model_predicates() {
        for model in MemoryModel::ALL {
            let caps = ModelCaps::of(model);
            assert_eq!(caps.model(), model);
            for b in [
                BarrierKind::Full,
                BarrierKind::Rmb,
                BarrierKind::Wmb,
                BarrierKind::Acquire,
                BarrierKind::Release,
                BarrierKind::ReadOnce,
            ] {
                assert_eq!(caps.bounds_store_group(b), model.barrier_orders_stores(b));
                assert_eq!(caps.bounds_load_group(b), model.barrier_orders_loads(b));
            }
            assert_eq!(
                caps.release_store_is_delayable(),
                model.release_store_is_delayable()
            );
        }
    }

    #[test]
    fn arm_alone_lets_loads_cross_read_once() {
        assert!(ModelCaps::of(MemoryModel::Tso).bounds_load_group(BarrierKind::ReadOnce));
        assert!(ModelCaps::of(MemoryModel::Pso).bounds_load_group(BarrierKind::ReadOnce));
        assert!(!ModelCaps::of(MemoryModel::Arm).bounds_load_group(BarrierKind::ReadOnce));
    }

    #[test]
    fn only_tso_pins_release_stores() {
        assert!(!ModelCaps::of(MemoryModel::Tso).release_store_is_delayable());
        assert!(ModelCaps::of(MemoryModel::Pso).release_store_is_delayable());
        assert!(ModelCaps::of(MemoryModel::Arm).release_store_is_delayable());
    }
}

#[cfg(test)]
mod step_tests {
    use super::*;
    use oemu::iid;
    use std::sync::Arc;

    /// Runs two bodies on a step scheduler the way `kernelsim::exec` does:
    /// wrap each in leg_start/leg_finish, install, run.
    fn run_two_stepped(
        sched: &Arc<StepScheduler>,
        body0: impl FnOnce(&StepScheduler) + Send + 'static,
        body1: impl FnOnce(&StepScheduler) + Send + 'static,
    ) {
        let sc = Arc::clone(sched);
        sched.set_leg(
            Tid(0),
            Box::new(move || {
                sc.leg_start(Tid(0));
                body0(&sc);
                sc.leg_finish(Tid(0));
            }),
        );
        let sc = Arc::clone(sched);
        sched.set_leg(
            Tid(1),
            Box::new(move || {
                sc.leg_start(Tid(1));
                body1(&sc);
                sc.leg_finish(Tid(1));
            }),
        );
        sched.run();
    }

    fn run_two(
        plan: SchedulePlan,
        body0: impl FnOnce(&StepScheduler) + Send + 'static,
        body1: impl FnOnce(&StepScheduler) + Send + 'static,
    ) -> Arc<StepScheduler> {
        let sched = Arc::new(StepScheduler::new(2, plan));
        run_two_stepped(&sched, body0, body1);
        sched
    }

    #[test]
    fn sequential_plan_runs_first_to_completion() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let (o0, o1) = (Arc::clone(&order), Arc::clone(&order));
        run_two(
            SchedulePlan::sequential(Tid(1)),
            move |_| o0.lock().push(0),
            move |_| o1.lock().push(1),
        );
        assert_eq!(*order.lock(), vec![1, 0]);
    }

    #[test]
    fn after_breakpoint_runs_peer_nested() {
        let point = iid!();
        let order = Arc::new(Mutex::new(Vec::new()));
        let (o0, o1) = (Arc::clone(&order), Arc::clone(&order));
        let sched = run_two(
            SchedulePlan {
                first: Tid(0),
                breakpoint: Some(Breakpoint {
                    iid: point,
                    when: BreakWhen::After,
                    hit: 1,
                }),
            },
            move |sc| {
                o0.lock().push("t0-pre");
                sc.gate_after(Tid(0), point);
                o0.lock().push("t0-post");
            },
            move |sc| {
                o1.lock().push("t1");
                sc.gate_after(Tid(1), iid!());
            },
        );
        assert_eq!(*order.lock(), vec!["t0-pre", "t1", "t0-post"]);
        assert_eq!(sched.switches(), 1);
        assert!(sched.all_finished());
    }

    #[test]
    fn before_breakpoint_switches_before_the_access() {
        let point = iid!();
        let order = Arc::new(Mutex::new(Vec::new()));
        let (o0, o1) = (Arc::clone(&order), Arc::clone(&order));
        run_two(
            SchedulePlan {
                first: Tid(0),
                breakpoint: Some(Breakpoint {
                    iid: point,
                    when: BreakWhen::Before,
                    hit: 1,
                }),
            },
            move |sc| {
                o0.lock().push("t0-pre");
                sc.gate_before(Tid(0), point);
                o0.lock().push("t0-access");
            },
            move |_| o1.lock().push("t1"),
        );
        assert_eq!(*order.lock(), vec!["t0-pre", "t1", "t0-access"]);
    }

    #[test]
    fn hit_count_targets_nth_occurrence() {
        let point = iid!();
        let order = Arc::new(Mutex::new(Vec::new()));
        let (o0, o1) = (Arc::clone(&order), Arc::clone(&order));
        run_two(
            SchedulePlan {
                first: Tid(0),
                breakpoint: Some(Breakpoint {
                    iid: point,
                    when: BreakWhen::After,
                    hit: 3,
                }),
            },
            move |sc| {
                for i in 0..5 {
                    o0.lock().push(format!("t0-{i}"));
                    sc.gate_after(Tid(0), point);
                }
            },
            move |_| o1.lock().push("t1".to_string()),
        );
        assert_eq!(
            *order.lock(),
            vec!["t0-0", "t0-1", "t0-2", "t1", "t0-3", "t0-4"]
        );
    }

    #[test]
    fn unhit_breakpoint_degrades_to_sequential() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let (o0, o1) = (Arc::clone(&order), Arc::clone(&order));
        let sched = run_two(
            SchedulePlan {
                first: Tid(0),
                breakpoint: Some(Breakpoint {
                    iid: iid!(), // never gated on
                    when: BreakWhen::After,
                    hit: 1,
                }),
            },
            move |_| o0.lock().push(0),
            move |_| o1.lock().push(1),
        );
        assert_eq!(*order.lock(), vec![0, 1]);
        assert_eq!(sched.switches(), 0);
    }

    #[test]
    fn nonmatching_gates_do_not_fire() {
        let point = iid!();
        let other = iid!();
        let order = Arc::new(Mutex::new(Vec::new()));
        let (o0, o1) = (Arc::clone(&order), Arc::clone(&order));
        run_two(
            SchedulePlan {
                first: Tid(0),
                breakpoint: Some(Breakpoint {
                    iid: point,
                    when: BreakWhen::After,
                    hit: 1,
                }),
            },
            move |sc| {
                sc.gate_after(Tid(0), other); // different iid
                sc.gate_before(Tid(0), point); // matching iid, wrong phase
                o0.lock().push("t0");
                sc.gate_after(Tid(0), point); // fires here
                o0.lock().push("t0-post");
            },
            move |_| o1.lock().push("t1"),
        );
        assert_eq!(*order.lock(), vec!["t0", "t1", "t0-post"]);
    }

    #[test]
    fn three_threads_rotate_in_order() {
        let sched = Arc::new(StepScheduler::new(3, SchedulePlan::sequential(Tid(0))));
        let order = Arc::new(Mutex::new(Vec::new()));
        for t in 0..3 {
            let (sc, ord) = (Arc::clone(&sched), Arc::clone(&order));
            sched.set_leg(
                Tid(t),
                Box::new(move || {
                    sc.leg_start(Tid(t));
                    ord.lock().push(t);
                    sc.leg_finish(Tid(t));
                }),
            );
        }
        sched.run();
        assert_eq!(*order.lock(), vec![0, 1, 2]);
    }

    #[test]
    fn recorded_switch_log_replays_the_same_interleaving() {
        let point = iid!();
        // Bodies with a non-matching gate before the firing one, so the
        // nth_gate coordinate is exercised.
        let mk_bodies = |ord: &Arc<Mutex<Vec<&'static str>>>| {
            let (o0, o1) = (Arc::clone(ord), Arc::clone(ord));
            (
                move |sc: &StepScheduler| {
                    o0.lock().push("t0-a");
                    sc.gate_before(Tid(0), point);
                    sc.gate_after(Tid(0), point); // fires
                    o0.lock().push("t0-b");
                    sc.gate_after(Tid(0), iid!());
                },
                move |sc: &StepScheduler| {
                    o1.lock().push("t1");
                    sc.gate_after(Tid(1), iid!());
                },
            )
        };

        let rec = Arc::new(StepScheduler::recording(
            2,
            SchedulePlan {
                first: Tid(0),
                breakpoint: Some(Breakpoint {
                    iid: point,
                    when: BreakWhen::After,
                    hit: 1,
                }),
            },
        ));
        let order = Arc::new(Mutex::new(Vec::new()));
        let (b0, b1) = mk_bodies(&order);
        run_two_stepped(&rec, b0, b1);
        assert_eq!(*order.lock(), vec!["t0-a", "t1", "t0-b"]);
        let log = rec.take_switch_log();
        assert_eq!(
            log,
            vec![SwitchPoint {
                tid: Tid(0),
                nth_gate: 2,
                to: Tid(1),
            }]
        );

        // Replay with no breakpoint at all: the log alone must reproduce
        // the interleaving.
        let rep = Arc::new(StepScheduler::replaying(2, Tid(0), log));
        let order = Arc::new(Mutex::new(Vec::new()));
        let (b0, b1) = mk_bodies(&order);
        run_two_stepped(&rep, b0, b1);
        assert_eq!(*order.lock(), vec!["t0-a", "t1", "t0-b"]);
        assert_eq!(rep.switches(), 1);
    }

    #[test]
    fn empty_switch_log_replays_sequentially() {
        let rep = Arc::new(StepScheduler::replaying(2, Tid(1), Vec::new()));
        let order = Arc::new(Mutex::new(Vec::new()));
        let (o0, o1) = (Arc::clone(&order), Arc::clone(&order));
        run_two_stepped(
            &rep,
            move |sc| {
                o0.lock().push(0);
                sc.gate_after(Tid(0), iid!());
            },
            move |sc| {
                o1.lock().push(1);
                sc.gate_after(Tid(1), iid!());
            },
        );
        assert_eq!(*order.lock(), vec![1, 0], "first=1 runs to completion");
    }

    #[test]
    #[should_panic(expected = "multi-switch logs")]
    fn multi_switch_replay_is_rejected() {
        let sp = |tid, nth_gate, to| SwitchPoint {
            tid: Tid(tid),
            nth_gate,
            to: Tid(to),
        };
        StepScheduler::replaying(2, Tid(0), vec![sp(0, 1, 1), sp(1, 1, 0)]);
    }

    #[test]
    fn plan_gates_act_only_at_the_breakpoint_instruction() {
        let point = iid!();
        let other = iid!();
        let plan = SchedulePlan {
            first: Tid(0),
            breakpoint: Some(Breakpoint {
                iid: point,
                when: BreakWhen::After,
                hit: 2,
            }),
        };
        let sched = Arc::new(StepScheduler::new(2, plan));
        assert_eq!(sched.gate_filter(), GateFilter::At(point));
        assert!(sched.gate_filter().admits(point));
        assert!(!sched.gate_filter().admits(other));
        // Gates the filter rejects are no-ops: they neither count toward
        // the hit count nor need the token (thread 1 gates while thread 0
        // holds it).
        let order = Arc::new(Mutex::new(Vec::new()));
        let (o0, o1) = (Arc::clone(&order), Arc::clone(&order));
        sched.gate_after(Tid(1), other);
        run_two_stepped(
            &sched,
            move |sc| {
                for i in 0..3 {
                    sc.gate_after(Tid(0), other);
                    sc.gate_after(Tid(0), point); // fires on its second hit
                    o0.lock().push(format!("t0-{i}"));
                }
            },
            move |sc| {
                sc.gate_before(Tid(1), other);
                o1.lock().push("t1".to_string());
            },
        );
        assert_eq!(*order.lock(), vec!["t0-0", "t1", "t0-1", "t0-2"]);
        assert_eq!(sched.switches(), 1);
    }

    #[test]
    fn sequential_plan_acts_nowhere() {
        let sched = Arc::new(StepScheduler::new(2, SchedulePlan::sequential(Tid(0))));
        assert_eq!(sched.gate_filter(), GateFilter::Nowhere);
        let point = iid!();
        assert!(!sched.gate_filter().admits(point));
        run_two_stepped(
            &sched,
            move |sc| sc.gate_after(Tid(0), point),
            move |sc| sc.gate_before(Tid(1), point),
        );
        assert_eq!(sched.switches(), 0);
    }

    /// Record and replay schedulers key the switch log by per-thread gate
    /// counts, so every gate acts — including gates at instructions the
    /// plan's breakpoint never names — and the recorded `nth_gate` counts
    /// them all.
    #[test]
    fn record_and_replay_act_at_every_gate() {
        let point = iid!();
        let other = iid!();
        let plan = SchedulePlan {
            first: Tid(0),
            breakpoint: Some(Breakpoint {
                iid: point,
                when: BreakWhen::After,
                hit: 1,
            }),
        };
        let rec = Arc::new(StepScheduler::recording(2, plan));
        assert_eq!(rec.gate_filter(), GateFilter::Everywhere);
        let body0 = move |sc: &StepScheduler| {
            for _ in 0..3 {
                sc.gate_after(Tid(0), other);
            }
            sc.gate_after(Tid(0), point);
        };
        run_two_stepped(&rec, body0, |_| {});
        let log = rec.take_switch_log();
        assert_eq!(
            log,
            vec![SwitchPoint {
                tid: Tid(0),
                nth_gate: 4,
                to: Tid(1),
            }]
        );
        let rep = Arc::new(StepScheduler::replaying(2, Tid(0), log));
        assert_eq!(rep.gate_filter(), GateFilter::Everywhere);
        run_two_stepped(&rep, body0, |_| {});
        assert_eq!(rep.switches(), 1);
    }

    #[test]
    fn self_handoff_when_peer_finished_is_counted() {
        // The breakpoint fires on the *second* thread after the first
        // already finished: next_runnable wraps around to self, and the
        // switch is counted and (in record mode) logged.
        let point = iid!();
        let rec = Arc::new(StepScheduler::recording(
            2,
            SchedulePlan {
                first: Tid(0),
                breakpoint: Some(Breakpoint {
                    iid: point,
                    when: BreakWhen::After,
                    hit: 1,
                }),
            },
        ));
        let order = Arc::new(Mutex::new(Vec::new()));
        let (o0, o1) = (Arc::clone(&order), Arc::clone(&order));
        run_two_stepped(
            &rec,
            move |_| o0.lock().push("t0"),
            move |sc| {
                o1.lock().push("t1-pre");
                sc.gate_after(Tid(1), point); // fires; only self is runnable
                o1.lock().push("t1-post");
            },
        );
        assert_eq!(*order.lock(), vec!["t0", "t1-pre", "t1-post"]);
        assert_eq!(rec.switches(), 1);
        assert_eq!(
            rec.take_switch_log(),
            vec![SwitchPoint {
                tid: Tid(1),
                nth_gate: 1,
                to: Tid(1),
            }]
        );
    }
}
