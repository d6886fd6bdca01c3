//! VMCI queue pairs: Bug #3 (S-S) — `general protection fault in
//! add_wait_queue`.
//!
//! The queue-pair broker hands out a queue pair whose embedded wait-queue
//! head must be initialised before the pair is published. The broker's
//! debug pattern pre-poisons the head slot (like `CONFIG_DEBUG_LIST`'s
//! `LIST_POISON`), so when the publication overtakes the initialisation the
//! attaching peer walks a poison pointer — a wild, non-canonical address
//! that faults as a general protection fault rather than a NULL
//! dereference, matching the paper's Table 3 row.

use std::sync::Arc;

use oemu::{iid, Tid};

use crate::bugs::BugId;
use crate::kctx::{KResult, Kctx, EAGAIN, EBUSY};

/// The `LIST_POISON`-style debug pattern pre-written into wait-queue slots.
pub const WQ_POISON: u64 = 0xdead_4ead_0000_0100;

// struct vmci_qp layout.
const QP_WQ_HEAD: u64 = 0x00;
const QP_HANDLE: u64 = 0x08;
// struct qp_broker layout.
const BROKER_QP: u64 = 0x00;
// wait_queue_head layout.
const WQ_NEXT: u64 = 0x00;

/// Boot-time globals of the VMCI subsystem.
pub struct VmciGlobals {
    /// The queue-pair broker.
    pub broker: u64,
    /// The preallocated queue pair (head slot poisoned at boot).
    pub qp: u64,
}

/// Boots the subsystem: the queue pair exists but is unpublished, with its
/// wait-queue slot poisoned.
pub fn boot(k: &Arc<Kctx>) -> VmciGlobals {
    let broker = k.kzalloc(16, "qp_broker");
    let qp = k.kzalloc(16, "vmci_qp");
    k.engine.raw_store(qp + QP_WQ_HEAD, WQ_POISON);
    VmciGlobals { broker, qp }
}

/// `qp_broker_create`: initialises the queue pair and publishes it (writer
/// of Bug #3).
pub fn vmci_qp_create(k: &Kctx, t: Tid) -> KResult<i64> {
    let _f = k.enter(t, "qp_broker_create");
    let g = k.globals();
    if k.read(t, iid!(), g.vmci.broker + BROKER_QP)? != 0 {
        return Ok(EBUSY);
    }
    let wq = k.kzalloc(16, "wait_queue_head");
    // Self-linked empty wait queue.
    k.write(t, iid!(), wq + WQ_NEXT, wq)?;
    k.write(t, iid!(), g.vmci.qp + QP_WQ_HEAD, wq)?;
    k.write(t, iid!(), g.vmci.qp + QP_HANDLE, 7)?;
    if !k.bug(BugId::VmciQueuePair) {
        // The pair must be fully initialised before the broker exposes it.
        k.smp_wmb(t, iid!());
    }
    k.write_once(t, iid!(), g.vmci.broker + BROKER_QP, g.vmci.qp)?;
    Ok(0)
}

/// `qp_broker_attach`: looks up the published pair and sleeps on its wait
/// queue (reader of Bug #3).
pub fn vmci_qp_attach(k: &Kctx, t: Tid) -> KResult<i64> {
    let _f = k.enter(t, "qp_broker_attach");
    let g = k.globals();
    let qp = k.read_once(t, iid!(), g.vmci.broker + BROKER_QP)?;
    if qp == 0 {
        return Ok(EAGAIN); // not created yet
    }
    let wq = k.read(t, iid!(), qp + QP_WQ_HEAD)?;
    add_wait_queue(k, t, wq)
}

/// `add_wait_queue`: links the caller onto the wait-queue head. With the
/// poison pattern still in the head slot, the first touch faults wildly.
fn add_wait_queue(k: &Kctx, t: Tid, wq: u64) -> KResult<i64> {
    let _f = k.enter(t, "add_wait_queue");
    let first = k.read(t, iid!(), wq + WQ_NEXT)?;
    k.write(t, iid!(), wq + WQ_NEXT, first)?;
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugSwitches;
    use crate::testutil::{delay_all_plain_stores_during, expect_crash, expect_no_crash};

    #[test]
    fn in_order_create_then_attach_works() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        assert_eq!(vmci_qp_create(&k, t0), Ok(0));
        k.syscall_exit(t0);
        assert_eq!(vmci_qp_attach(&k, t1), Ok(0));
        assert!(k.sink.is_empty());
    }

    #[test]
    fn attach_before_create_is_eagain() {
        let k = Kctx::new(BugSwitches::all());
        assert_eq!(vmci_qp_attach(&k, Tid(0)), Ok(EAGAIN));
    }

    #[test]
    fn double_create_rejected() {
        let k = Kctx::new(BugSwitches::none());
        let t = Tid(0);
        assert_eq!(vmci_qp_create(&k, t), Ok(0));
        k.syscall_exit(t);
        assert_eq!(vmci_qp_create(&k, t), Ok(EBUSY));
    }

    #[test]
    fn bug3_publish_reorder_is_gpf_in_add_wait_queue() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        let title = expect_crash(&k, |k| {
            delay_all_plain_stores_during(k, t0, |k| vmci_qp_create(k, t0))?;
            vmci_qp_attach(k, t1)
        });
        assert_eq!(title, "general protection fault in add_wait_queue");
    }

    #[test]
    fn bug3_fixed_kernel_survives_same_forcing() {
        let k = Kctx::new(BugSwitches::none());
        let (t0, t1) = (Tid(0), Tid(1));
        expect_no_crash(&k, |k| {
            delay_all_plain_stores_during(k, t0, |k| vmci_qp_create(k, t0))?;
            vmci_qp_attach(k, t1)
        });
    }
}
