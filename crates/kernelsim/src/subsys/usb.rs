//! USB core: Extended #4 \[95\] — "Fix hang in usb_kill_urb by adding memory
//! barriers", the suite's **store-load** (SB-shaped) bug.
//!
//! The kill path sets `urb->reject` and then reads `urb->use_count`; the
//! submit path bumps `use_count` and then reads `reject`. This is exactly
//! the store-buffering litmus: without full barriers, each CPU's store can
//! be delayed past its own subsequent load, so *both* read the old value —
//! the killer concludes the URB is idle while the submitter proceeds,
//! historically hanging `usb_kill_urb` forever. The simulated kernel
//! detects the inconsistent joint state with a `BUG_ON` standing in for the
//! hang (a watchdog's view of the deadlock).
//!
//! OEMU reaches this with a *delayed store overtaking a load* — the
//! store-load half of §3.1's mechanism, which none of the Table 3/4 bugs
//! exercises.

use std::sync::Arc;

use oemu::{iid, Tid};

use crate::bugs::BugId;
use crate::kctx::{KResult, Kctx, EBUSY, EINVAL};

// struct urb layout.
const URB_REJECT: u64 = 0x00;
const URB_USE_COUNT: u64 = 0x08;
const URB_IN_FLIGHT: u64 = 0x10;
const URB_KILLED: u64 = 0x18;

/// Boot-time globals of the USB subsystem.
pub struct UsbGlobals {
    /// The URB the kill and submit paths race on.
    pub urb: u64,
}

/// Boots the subsystem.
pub fn boot(k: &Arc<Kctx>) -> UsbGlobals {
    UsbGlobals {
        urb: k.kzalloc(32, "urb"),
    }
}

/// `usb_kill_urb`: reject further submissions, then check for users.
pub fn usb_kill_urb(k: &Kctx, t: Tid) -> KResult<i64> {
    let _f = k.enter(t, "usb_kill_urb");
    let urb = k.globals().usb.urb;
    k.write(t, iid!(), urb + URB_REJECT, 1)?;
    if !k.bug(BugId::ExtUsbKillUrb) {
        // The [95] fix: the reject store must be visible before the
        // use-count check — a full barrier, since it orders a store
        // against a *load* (neither smp_wmb nor smp_rmb suffices).
        k.smp_mb(t, iid!());
    }
    // The second half of the fix: the use-count read must have acquire
    // semantics, pairing with the completion path's release — otherwise
    // the in-flight check below can be satisfied *before* this load and
    // observe the pre-completion state (a load-load reorder the fuzzer
    // found against an earlier, mb-only version of this function).
    let users = if k.bug(BugId::ExtUsbKillUrb) {
        k.read(t, iid!(), urb + URB_USE_COUNT)?
    } else {
        k.load_acquire(t, iid!(), urb + URB_USE_COUNT)?
    };
    if users != 0 {
        // Someone is mid-submit: they will observe reject and back out.
        return Ok(EBUSY);
    }
    // No users and reject is (supposedly) visible: the URB is dead. A
    // submission in flight at this point means the SB reordering happened —
    // upstream, this is where usb_kill_urb slept forever.
    k.bug_on(
        t,
        k.read(t, iid!(), urb + URB_IN_FLIGHT)? == 1,
        "URB killed while in flight",
    )?;
    k.write_once(t, iid!(), urb + URB_KILLED, 1)?;
    Ok(0)
}

/// `usb_submit_urb`: register as a user, then check for rejection. A
/// successful submission leaves the transfer *in flight* — completion is
/// asynchronous ([`usb_complete`], the host controller's IRQ).
pub fn usb_submit_urb(k: &Kctx, t: Tid) -> KResult<i64> {
    let _f = k.enter(t, "usb_submit_urb");
    let urb = k.globals().usb.urb;
    if k.read_once(t, iid!(), urb + URB_KILLED)? == 1 {
        return Ok(EINVAL); // already dead
    }
    if k.read(t, iid!(), urb + URB_IN_FLIGHT)? == 1 {
        return Ok(EBUSY); // one transfer at a time on this URB
    }
    k.write(t, iid!(), urb + URB_USE_COUNT, 1)?;
    if !k.bug(BugId::ExtUsbKillUrb) {
        // The submit half of the [95] pair.
        k.smp_mb(t, iid!());
    }
    let reject = k.read(t, iid!(), urb + URB_REJECT)?;
    if reject == 1 {
        // Back out: the killer is waiting for use_count to drop.
        k.write(t, iid!(), urb + URB_USE_COUNT, 0)?;
        return Ok(EINVAL);
    }
    // Hand the transfer to the host controller.
    k.write(t, iid!(), urb + URB_IN_FLIGHT, 1)?;
    Ok(0)
}

/// `usb_complete`: the host controller's completion interrupt — retires
/// the in-flight transfer and drops the use count.
pub fn usb_complete(k: &Kctx, t: Tid) -> KResult<i64> {
    let _f = k.enter(t, "usb_hcd_giveback_urb");
    let urb = k.globals().usb.urb;
    if k.read(t, iid!(), urb + URB_IN_FLIGHT)? == 0 {
        return Ok(EINVAL); // nothing in flight
    }
    k.write(t, iid!(), urb + URB_IN_FLIGHT, 0)?;
    k.store_release(t, iid!(), urb + URB_USE_COUNT, 0)?;
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugSwitches;
    use crate::exec::{execute, ExecRequest};
    use crate::syscalls::Syscall;
    use crate::testutil::{expect_no_crash, profile_store_iids};
    use ksched::{BreakWhen, Breakpoint, SchedulePlan};
    use oemu::AccessKind;

    #[test]
    fn in_order_submit_complete_kill() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        assert_eq!(usb_submit_urb(&k, t0), Ok(0));
        k.syscall_exit(t0);
        assert_eq!(
            usb_kill_urb(&k, t1).unwrap(),
            EBUSY,
            "in-flight transfer blocks kill"
        );
        k.syscall_exit(t1);
        assert_eq!(usb_complete(&k, t0), Ok(0));
        k.syscall_exit(t0);
        assert_eq!(usb_kill_urb(&k, t1), Ok(0));
        k.syscall_exit(t1);
        assert_eq!(usb_submit_urb(&k, t0), Ok(EINVAL), "killed URB rejects");
        assert!(k.sink.is_empty());
    }

    #[test]
    fn double_submit_is_ebusy() {
        let k = Kctx::new(BugSwitches::all());
        let t = Tid(0);
        assert_eq!(usb_submit_urb(&k, t), Ok(0));
        k.syscall_exit(t);
        assert_eq!(usb_submit_urb(&k, t), Ok(EBUSY));
        assert_eq!(usb_complete(&k, t), Ok(0));
        k.syscall_exit(t);
        assert_eq!(usb_complete(&k, t), Ok(EINVAL), "nothing left in flight");
    }

    #[test]
    fn in_order_kill_then_submit() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        assert_eq!(usb_kill_urb(&k, t0), Ok(0));
        k.syscall_exit(t0);
        assert_eq!(usb_submit_urb(&k, t1), Ok(EINVAL));
        assert!(k.sink.is_empty());
    }

    /// The SB-shaped MTI: delay the kill path's reject store past its
    /// use-count load (store-load reordering), break after the load, and
    /// let the submit run in the window.
    fn run_sb_mti(k: &std::sync::Arc<Kctx>) -> crate::exec::RunOutcome {
        let trace = {
            let scratch = Kctx::new(k.switches().clone());
            scratch.engine.set_profiling(true);
            usb_kill_urb(&scratch, Tid(0)).unwrap();
            scratch.engine.take_profile(Tid(0))
        };
        let accesses: Vec<_> = trace.accesses().copied().collect();
        let reject_store = accesses
            .iter()
            .find(|a| a.kind == AccessKind::Store)
            .expect("kill stores reject");
        let use_load = accesses
            .iter()
            .find(|a| a.kind == AccessKind::Load)
            .expect("kill loads use_count");
        k.engine.delay_store_at(Tid(0), reject_store.iid);
        let plan = SchedulePlan {
            first: Tid(0),
            breakpoint: Some(Breakpoint {
                iid: use_load.iid,
                when: BreakWhen::After,
                hit: 1,
            }),
        };
        execute(
            k,
            ExecRequest::live(plan, Syscall::UsbKillUrb, Syscall::UsbSubmitUrb),
        )
        .outcome
    }

    #[test]
    fn e4_store_load_reorder_kills_an_in_flight_urb() {
        let k = Kctx::new(BugSwitches::all());
        let out = run_sb_mti(&k);
        assert!(out.crashed(), "the SB outcome must manifest: {out:?}");
        assert_eq!(
            out.title().unwrap(),
            "kernel BUG at usb_kill_urb: URB killed while in flight"
        );
    }

    #[test]
    fn e4_full_barriers_forbid_the_sb_outcome() {
        // With smp_mb in both paths the delayed store flushes at the
        // barrier, before the use-count load executes.
        let k = Kctx::new(BugSwitches::none());
        let out = run_sb_mti(&k);
        assert!(!out.crashed(), "fixed kernel survives: {out:?}");
    }

    #[test]
    fn wmb_would_not_fix_it() {
        // The classic SB lesson: a store barrier does not order a store
        // against a later *load*. Verify via the litmus-style forcing that
        // delaying past an smp_wmb-equivalent flush point is the only thing
        // the fix prevents — i.e. the delayed store really does overtake
        // the load when only store-ordering is at play.
        let k = Kctx::new(BugSwitches::all());
        let (t0, _t1) = (Tid(0), Tid(1));
        let iids = profile_store_iids(&k, t0, |k| usb_kill_urb(k, t0));
        k.engine.delay_store_at(t0, iids[0]);
        // Alone (no concurrent submit), the reordering is benign.
        expect_no_crash(&k, |k| usb_kill_urb(k, t0));
    }
}
