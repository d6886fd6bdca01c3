//! Network block device: Known #7 \[78\] (L-L) — "nbd: fix
//! null-ptr-dereference while accessing 'nbd->config'".
//!
//! The config refcount and the config pointer are published by the
//! allocation path in the right order, but the lockless ioctl path checked
//! the refcount and then loaded the pointer with no load ordering between
//! them; a speculated pointer load could observe NULL even though the
//! refcount read as live. The fix orders the two reads.

use std::sync::Arc;

use oemu::{iid, Tid};

use crate::bugs::BugId;
use crate::kctx::{KResult, Kctx, EBUSY, EINVAL};

// struct nbd_device layout.
const NBD_CONFIG: u64 = 0x00;
const NBD_CONFIG_REFS: u64 = 0x08;
// struct nbd_config layout.
const CFG_SOCKS: u64 = 0x00;
const CFG_BLKSIZE: u64 = 0x08;

/// Boot-time globals of the nbd subsystem.
pub struct NbdGlobals {
    /// The nbd device.
    pub nbd: u64,
}

/// Boots the subsystem.
pub fn boot(k: &Arc<Kctx>) -> NbdGlobals {
    NbdGlobals {
        nbd: k.kzalloc(16, "nbd_device"),
    }
}

/// `nbd_alloc_and_init_config`: builds the config and takes the first
/// reference (writer side — correctly ordered).
pub fn nbd_alloc_config(k: &Kctx, t: Tid) -> KResult<i64> {
    let _f = k.enter(t, "nbd_alloc_and_init_config");
    let g = k.globals();
    let nbd = g.nbd.nbd;
    if k.read(t, iid!(), nbd + NBD_CONFIG_REFS)? != 0 {
        return Ok(EBUSY);
    }
    let cfg = k.kzalloc(16, "nbd_config");
    let socks = k.kzalloc(32, "nbd_socks");
    k.write(t, iid!(), cfg + CFG_SOCKS, socks)?;
    k.write(t, iid!(), cfg + CFG_BLKSIZE, 4096)?;
    k.write(t, iid!(), nbd + NBD_CONFIG, cfg)?;
    // Writer publication is correct: the refcount store releases the
    // config pointer and contents.
    k.store_release(t, iid!(), nbd + NBD_CONFIG_REFS, 1)?;
    Ok(0)
}

/// `nbd_ioctl`: lockless fast path checking the refcount before using the
/// config (Known #7 reader).
pub fn nbd_ioctl(k: &Kctx, t: Tid) -> KResult<i64> {
    let _f = k.enter(t, "nbd_ioctl");
    let g = k.globals();
    let nbd = g.nbd.nbd;
    let refs = k.read(t, iid!(), nbd + NBD_CONFIG_REFS)?;
    if refs == 0 {
        return Ok(EINVAL); // not configured
    }
    if !k.bug(BugId::KnownNbd) {
        // The [78] fix: order the config load after the refcount check.
        k.smp_rmb(t, iid!());
    }
    let cfg = k.read(t, iid!(), nbd + NBD_CONFIG)?;
    let socks = k.read(t, iid!(), cfg + CFG_SOCKS)?;
    let nconn = k.read(t, iid!(), socks)?;
    let _ = nconn;
    k.read(t, iid!(), cfg + CFG_BLKSIZE).map(|v| v as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugSwitches;
    use crate::testutil::{expect_crash, expect_no_crash, version_all_plain_loads_with_setup};

    #[test]
    fn in_order_alloc_then_ioctl_works() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        assert_eq!(nbd_alloc_config(&k, t0), Ok(0));
        k.syscall_exit(t0);
        assert_eq!(nbd_ioctl(&k, t1), Ok(4096));
        assert!(k.sink.is_empty());
    }

    #[test]
    fn ioctl_before_config_is_einval() {
        let k = Kctx::new(BugSwitches::all());
        assert_eq!(nbd_ioctl(&k, Tid(0)), Ok(EINVAL));
    }

    #[test]
    fn double_alloc_rejected() {
        let k = Kctx::new(BugSwitches::none());
        let t = Tid(0);
        assert_eq!(nbd_alloc_config(&k, t), Ok(0));
        k.syscall_exit(t);
        assert_eq!(nbd_alloc_config(&k, t), Ok(EBUSY));
    }

    #[test]
    fn known7_load_reorder_crashes_ioctl() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        let title = expect_crash(&k, |k| {
            nbd_alloc_config(k, t0)?;
            k.syscall_exit(t0);
            version_all_plain_loads_with_setup(
                k,
                t1,
                |k| {
                    nbd_alloc_config(k, t0)?;
                    k.syscall_exit(t0);
                    Ok(())
                },
                |k| nbd_ioctl(k, t1),
            )
        });
        assert_eq!(
            title,
            "BUG: unable to handle kernel NULL pointer dereference in nbd_ioctl"
        );
    }

    #[test]
    fn known7_rmb_fix_survives_same_forcing() {
        let k = Kctx::new(BugSwitches::none());
        let (t0, t1) = (Tid(0), Tid(1));
        expect_no_crash(&k, |k| {
            nbd_alloc_config(k, t0)?;
            k.syscall_exit(t0);
            version_all_plain_loads_with_setup(
                k,
                t1,
                |k| {
                    nbd_alloc_config(k, t0)?;
                    k.syscall_exit(t0);
                    Ok(())
                },
                |k| {
                    let r = nbd_ioctl(k, t1)?;
                    assert!(r == 4096 || r == EINVAL);
                    Ok(())
                },
            )
        });
    }
}
