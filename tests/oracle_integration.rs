//! Oracle integration: the bug-detecting oracles (§3 "Benefits of in-vivo
//! emulation") observing reordered executions with full runtime context.

use kernelsim::{run_concurrent_closures, BugSwitches, Kctx, ECRASH};
use kmem::LockId;
use ksched::{BreakWhen, Breakpoint, SchedulePlan};
use oemu::{iid, Iid, Tid};

/// A schedule that suspends CPU 0 right after the access at `iid` — while
/// its delayed stores are still in flight (the store buffer does not flush
/// on a scheduler suspension, only at syscall exit).
fn break_after(iid: Iid) -> SchedulePlan {
    SchedulePlan {
        first: Tid(0),
        breakpoint: Some(Breakpoint {
            iid,
            when: BreakWhen::After,
            hit: 1,
        }),
    }
}

#[test]
fn kasan_uaf_requires_runtime_context() {
    // The §3 double-free/UAF argument: only an in-vivo oracle that knows
    // *when* the object was freed can classify the access. Reorder a
    // pointer-update store past a publication flag so the reader
    // dereferences a freed object.
    let k = Kctx::new(BugSwitches::none());
    let t0 = Tid(0);
    let holder = k.kzalloc(16, "holder");
    let obj_old = k.kzalloc(16, "victim");
    k.write(t0, iid!(), holder, obj_old).unwrap();
    k.syscall_exit(t0);

    // Writer: free the old object, install a new one — with the install
    // store delayed, like the sbitmap bug.
    let install = iid!();
    k.engine.delay_store_at(t0, install);
    let out = run_concurrent_closures(
        &k,
        break_after(install),
        move |k| {
            let _f = k.enter(Tid(0), "writer");
            k.kfree(Tid(0), obj_old)?;
            let obj_new = k.kzalloc(16, "replacement");
            k.write(Tid(0), install, holder, obj_new)?;
            // No barrier: the reader on the other CPU sees the stale
            // pointer while the object is already quarantined.
            Ok(0)
        },
        move |k| {
            let _f = k.enter(Tid(1), "reader");
            let p = k.read(Tid(1), iid!(), holder)?;
            k.read(Tid(1), iid!(), p)?; // UAF: p is the freed object
            Ok(0)
        },
    );
    assert!(out.crashed());
    assert_eq!(out.ret_b, ECRASH);
    assert_eq!(out.crashes[0].title, "KASAN: use-after-free Read in reader");
}

#[test]
fn lockdep_reports_inversion_across_cpus() {
    let k = Kctx::new(BugSwitches::none());
    let (a, b) = (LockId(1), LockId(2));
    let out = run_concurrent_closures(
        &k,
        SchedulePlan::sequential(Tid(0)),
        move |k| {
            let _f = k.enter(Tid(0), "path_ab");
            k.lock(Tid(0), a)?;
            k.lock(Tid(0), b)?;
            k.unlock(Tid(0), b);
            k.unlock(Tid(0), a);
            Ok(0)
        },
        move |k| {
            let _f = k.enter(Tid(1), "path_ba");
            k.lock(Tid(1), b)?;
            k.lock(Tid(1), a)?; // closes the cycle
            Ok(0)
        },
    );
    assert!(out.crashed());
    assert!(out.crashes[0]
        .title
        .contains("possible circular locking dependency"));
}

#[test]
fn oracles_see_reordered_values_not_program_order() {
    // The KASAN check runs on the value the emulated machine actually
    // observes: a delayed store means the reader's dereference target is
    // the *old* word, and the fault is attributed to the reader's frame.
    let k = Kctx::new(BugSwitches::none());
    let cell = k.kzalloc(8, "cell");
    let valid = k.kzalloc(8, "valid_target");
    let delayed = iid!();
    k.engine.delay_store_at(Tid(0), delayed);
    let out = run_concurrent_closures(
        &k,
        break_after(delayed),
        move |k| {
            let _f = k.enter(Tid(0), "publisher");
            k.write(Tid(0), delayed, cell, valid)?;
            Ok(0)
        },
        move |k| {
            let _f = k.enter(Tid(1), "consumer");
            let p = k.read(Tid(1), iid!(), cell)?;
            k.read(Tid(1), iid!(), p)?; // p == 0: the delayed store is invisible
            Ok(0)
        },
    );
    assert_eq!(
        out.title().unwrap(),
        "BUG: unable to handle kernel NULL pointer dereference in consumer"
    );
}

#[test]
fn crash_titles_stable_for_dedup() {
    // Two identical crashing runs produce the same title (the fuzzer's
    // dedup key) — including the faulting frame.
    let run = || {
        let k = Kctx::new(BugSwitches::none());
        let out = run_concurrent_closures(
            &k,
            SchedulePlan::sequential(Tid(0)),
            |k| {
                let _f = k.enter(Tid(0), "some_path");
                k.read(Tid(0), iid!(), 0x20)?;
                Ok(0)
            },
            |_k| Ok(0),
        );
        out.title().unwrap().to_string()
    };
    assert_eq!(run(), run());
}
