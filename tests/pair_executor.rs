//! The pair executor's contract, seen through closure pairs.
//!
//! Both simulated CPUs run on the calling thread under
//! [`ksched::StepScheduler`]: a breakpoint that fires runs the peer CPU as
//! a nested call and resumes the suspended one when it returns. These
//! tests pin what that means at the `run_concurrent_closures` surface —
//! the interleaving each plan produces, an oops on the nested CPU staying
//! on that CPU, and a panic that is not an oops reaching the caller.

use std::panic::{catch_unwind, AssertUnwindSafe};

use kernelsim::{run_concurrent_closures, BugSwitches, KResult, Kctx, ECRASH};
use kmem::LockId;
use ksched::{BreakWhen, Breakpoint, SchedulePlan};
use oemu::{iid, Iid, Tid};

fn break_at(iid: Iid, when: BreakWhen) -> SchedulePlan {
    SchedulePlan {
        first: Tid(0),
        breakpoint: Some(Breakpoint { iid, when, hit: 1 }),
    }
}

#[test]
fn each_plan_places_the_peer_where_it_says() {
    // CPU 0 stores x then loads y; CPU 1 loads x then stores y. Each CPU
    // returns the value it loaded, so the pair of return values spells
    // out where CPU 1 ran relative to CPU 0's two accesses.
    let store_x = iid!();
    let run = |plan: SchedulePlan| {
        let k = Kctx::new(BugSwitches::none());
        let (x, y) = (k.kzalloc(8, "x"), k.kzalloc(8, "y"));
        let out = run_concurrent_closures(
            &k,
            plan,
            move |k| {
                let _f = k.enter(Tid(0), "cpu0");
                k.write(Tid(0), store_x, x, 1)?;
                Ok(k.read(Tid(0), iid!(), y)? as i64)
            },
            move |k| {
                let _f = k.enter(Tid(1), "cpu1");
                let seen = k.read(Tid(1), iid!(), x)?;
                k.write(Tid(1), iid!(), y, 2)?;
                Ok(seen as i64)
            },
        );
        assert!(!out.crashed());
        (out.ret_a, out.ret_b)
    };
    assert_eq!(run(SchedulePlan::sequential(Tid(0))), (0, 1), "0 then 1");
    assert_eq!(run(SchedulePlan::sequential(Tid(1))), (2, 0), "1 then 0");
    assert_eq!(
        run(break_at(store_x, BreakWhen::After)),
        (2, 1),
        "1 runs between 0's store and 0's load"
    );
    assert_eq!(
        run(break_at(store_x, BreakWhen::Before)),
        (2, 0),
        "1 runs before 0's store"
    );
}

#[test]
fn oops_on_the_nested_cpu_lets_the_suspended_one_finish() {
    // CPU 1 runs nested inside CPU 0's breakpoint, stores, and oopses.
    // The oops unwinds CPU 1 only: CPU 0 resumes, sees CPU 1's store and
    // returns normally.
    let k = Kctx::new(BugSwitches::none());
    let flag = k.kzalloc(8, "flag");
    let mark = iid!();
    let out = run_concurrent_closures(
        &k,
        break_at(mark, BreakWhen::After),
        move |k| {
            let _f = k.enter(Tid(0), "survivor");
            k.write(Tid(0), mark, flag, 1)?;
            Ok(k.read(Tid(0), iid!(), flag)? as i64)
        },
        move |k| {
            let _f = k.enter(Tid(1), "victim");
            k.write(Tid(1), iid!(), flag, 2)?;
            k.read(Tid(1), iid!(), 0x20)?; // NULL dereference
            Ok(0)
        },
    );
    assert_eq!(out.ret_b, ECRASH);
    assert_eq!(out.ret_a, 2, "CPU 0 resumed after the nested oops");
    assert_eq!(out.crashes.len(), 1);
    assert_eq!(
        out.title(),
        Some("BUG: unable to handle kernel NULL pointer dereference in victim")
    );
}

#[test]
fn oops_in_a_nested_helper_leaves_the_lock_held_and_the_store_buffered() {
    // An oops kills the task where it stands. The function frames it
    // leaves are popped, but nothing else runs on the way out: the lock
    // stays held and the delayed store stays in the buffer, because a
    // task that dies never reaches its unlock or the syscall-exit flush.
    let k = Kctx::new(BugSwitches::none());
    let obj = k.kzalloc(8, "obj");
    let lock = LockId(0x51);
    let delayed = iid!();
    k.engine.delay_store_at(Tid(0), delayed);
    fn nested_helper(k: &Kctx) -> KResult<u64> {
        let _f = k.enter(Tid(0), "nested_helper");
        k.read(Tid(0), iid!(), 0x18) // NULL dereference
    }
    let out = run_concurrent_closures(
        &k,
        SchedulePlan::sequential(Tid(0)),
        move |k| {
            let _f = k.enter(Tid(0), "outer");
            k.lock(Tid(0), lock)?;
            k.write(Tid(0), delayed, obj, 1)?;
            nested_helper(k)?;
            k.unlock(Tid(0), lock);
            Ok(0)
        },
        |_k| Ok(7),
    );
    assert_eq!((out.ret_a, out.ret_b), (ECRASH, 7));
    assert_eq!(out.crashes.len(), 1, "one report");
    assert_eq!(
        out.title(),
        Some("BUG: unable to handle kernel NULL pointer dereference in nested_helper")
    );
    assert_eq!(k.current_fn(Tid(0)), "kernel", "every frame was popped");
    assert_eq!(
        k.lockdep.held_by(Tid(0)),
        vec![lock],
        "the lock is still held"
    );
    assert!(
        k.engine.pending_stores(Tid(0)) > 0,
        "no syscall-exit flush after an oops"
    );
    assert_eq!(
        k.engine.raw_load(obj),
        0,
        "the delayed store never committed"
    );
}

#[test]
fn non_oops_panic_reaches_the_caller_after_both_cpus_ran() {
    // A panic that is not a simulated oops is a harness or simulator bug,
    // not a kernel crash. The executor still runs the other CPU, detaches
    // the scheduler, and then re-raises the panic to the caller.
    let k = Kctx::new(BugSwitches::none());
    let cell = k.kzalloc(8, "cell");
    let caught = catch_unwind(AssertUnwindSafe(|| {
        run_concurrent_closures(
            &k,
            SchedulePlan::sequential(Tid(0)),
            |_k| panic!("not an oops"),
            move |k| {
                k.write(Tid(1), iid!(), cell, 9)?;
                Ok(0)
            },
        )
    }));
    let payload = caught.expect_err("the panic reaches the caller");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"not an oops"));
    assert_eq!(k.read(Tid(0), iid!(), cell), Ok(9), "CPU 1 still ran");
    let out = run_concurrent_closures(&k, SchedulePlan::sequential(Tid(0)), |_k| Ok(1), |_k| Ok(2));
    assert_eq!(
        (out.ret_a, out.ret_b),
        (1, 2),
        "the machine runs the next pair"
    );
    assert!(!out.crashed());
}
