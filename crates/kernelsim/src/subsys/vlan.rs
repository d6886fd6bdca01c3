//! 802.1Q vlan: Known #1 \[120\] (S-S) — "fix a data race when get vlan
//! device".
//!
//! Registering a vlan device publishes the device pointer into the group
//! array. The reverted fix added the write barrier ensuring the device is
//! fully initialised (in particular its ops table) before it is reachable;
//! without it, a concurrent ioctl path fetches the device and calls through
//! a NULL ops pointer.

use std::sync::Arc;

use oemu::{iid, Tid};

use crate::bugs::BugId;
use crate::kctx::{KResult, Kctx, EBADF, EBUSY, EINVAL};

/// Number of vlan ids on the group.
pub const NUM_VLANS: u64 = 4;

// struct vlan_group layout: the device array starts at offset 0.
const GRP_ARR: u64 = 0x00;
// struct net_device layout.
const DEV_OPS: u64 = 0x00;
const DEV_MTU: u64 = 0x08;

/// Boot-time globals of the vlan subsystem.
pub struct VlanGlobals {
    /// The vlan group.
    pub grp: u64,
}

/// Boots the subsystem.
pub fn boot(k: &Arc<Kctx>) -> VlanGlobals {
    k.fns.register("vlan_dev_open");
    VlanGlobals {
        grp: k.kzalloc(NUM_VLANS * 8, "vlan_group"),
    }
}

/// `register_vlan_device`: initialises and publishes a vlan device (Known
/// #1 writer).
pub fn vlan_add(k: &Kctx, t: Tid, id: u64) -> KResult<i64> {
    if id >= NUM_VLANS {
        return Ok(EBADF);
    }
    let _f = k.enter(t, "register_vlan_device");
    let g = k.globals();
    let slot = g.vlan.grp + GRP_ARR + id * 8;
    if k.read(t, iid!(), slot)? != 0 {
        return Ok(EBUSY);
    }
    let dev = k.kzalloc(16, "net_device");
    k.write(
        t,
        iid!(),
        dev + DEV_OPS,
        k.fns.lookup("vlan_dev_open").expect("registered at boot"),
    )?;
    k.write(t, iid!(), dev + DEV_MTU, 1500)?;
    if !k.bug(BugId::KnownVlan) {
        // The [120] fix: the device must be complete before it is visible
        // through the group array.
        k.smp_wmb(t, iid!());
    }
    k.write_once(t, iid!(), slot, dev)?;
    Ok(0)
}

/// `vlan_ioctl` → `vlan_dev_ioctl`: looks up the device and calls its ops
/// (Known #1 reader).
pub fn vlan_get(k: &Kctx, t: Tid, id: u64) -> KResult<i64> {
    if id >= NUM_VLANS {
        return Ok(EBADF);
    }
    let _f = k.enter(t, "vlan_dev_ioctl");
    let g = k.globals();
    let dev = k.read_once(t, iid!(), g.vlan.grp + GRP_ARR + id * 8)?;
    if dev == 0 {
        return Ok(EINVAL); // no such vlan
    }
    let ops = k.read(t, iid!(), dev + DEV_OPS)?;
    k.call_fn(t, ops)?;
    k.read(t, iid!(), dev + DEV_MTU).map(|v| v as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugSwitches;
    use crate::testutil::{delay_all_plain_stores_during, expect_crash, expect_no_crash};

    #[test]
    fn in_order_add_then_get_works() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        assert_eq!(vlan_add(&k, t0, 2), Ok(0));
        k.syscall_exit(t0);
        assert_eq!(vlan_get(&k, t1, 2), Ok(1500));
        assert!(k.sink.is_empty());
    }

    #[test]
    fn get_of_missing_vlan_is_einval() {
        let k = Kctx::new(BugSwitches::all());
        assert_eq!(vlan_get(&k, Tid(0), 1), Ok(EINVAL));
    }

    #[test]
    fn duplicate_id_rejected() {
        let k = Kctx::new(BugSwitches::none());
        let t = Tid(0);
        assert_eq!(vlan_add(&k, t, 1), Ok(0));
        k.syscall_exit(t);
        assert_eq!(vlan_add(&k, t, 1), Ok(EBUSY));
        assert_eq!(vlan_add(&k, t, 99), Ok(EBADF));
    }

    #[test]
    fn known1_publish_reorder_crashes_ioctl() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        let title = expect_crash(&k, |k| {
            delay_all_plain_stores_during(k, t0, |k| vlan_add(k, t0, 2))?;
            vlan_get(k, t1, 2)
        });
        assert_eq!(
            title,
            "BUG: unable to handle kernel NULL pointer dereference in vlan_dev_ioctl"
        );
    }

    #[test]
    fn known1_fixed_kernel_survives_same_forcing() {
        let k = Kctx::new(BugSwitches::none());
        let (t0, t1) = (Tid(0), Tid(1));
        expect_no_crash(&k, |k| {
            delay_all_plain_stores_during(k, t0, |k| vlan_add(k, t0, 2))?;
            let r = vlan_get(k, t1, 2)?;
            assert!(r == 1500 || r == EINVAL);
            Ok(())
        });
    }
}
