//! AF_UNIX sockets: Known #9 \[106\] (L-L) — "missing barriers in some of
//! unix_sock ->addr and ->path accesses".
//!
//! `unix_bind` builds the address object and publishes `u->addr` with
//! release ordering; the lockless readers (`unix_getname` and friends) must
//! pair it with an acquire load. The reverted fix is exactly that pairing:
//! with a plain load of `u->addr`, the dependent name-buffer load can be
//! satisfied with its pre-publication (NULL) value.

use std::sync::Arc;

use oemu::{iid, Tid};

use crate::bugs::BugId;
use crate::kctx::{KResult, Kctx, EBADF, EBUSY, EINVAL};

/// Number of unix sockets.
pub const NSOCKS: usize = 2;

// struct unix_sock layout.
const U_ADDR: u64 = 0x00;
// struct unix_address layout.
const ADDR_LEN: u64 = 0x00;
const ADDR_NAME: u64 = 0x08;

/// Boot-time globals of the unix subsystem.
pub struct UnixGlobals {
    /// The unix sockets.
    pub socks: [u64; NSOCKS],
}

/// Boots the subsystem.
pub fn boot(k: &Arc<Kctx>) -> UnixGlobals {
    UnixGlobals {
        socks: std::array::from_fn(|_| k.kzalloc(8, "unix_sock")),
    }
}

fn sock(k: &Kctx, fd: u64) -> Option<u64> {
    k.globals().unix.socks.get(fd as usize).copied()
}

/// `unix_bind`: builds and publishes the socket address (writer side —
/// correctly release-ordered).
pub fn unix_bind(k: &Kctx, t: Tid, fd: u64) -> KResult<i64> {
    let Some(u) = sock(k, fd) else { return Ok(EBADF) };
    let _f = k.enter(t, "unix_bind");
    if k.read(t, iid!(), u + U_ADDR)? != 0 {
        return Ok(EBUSY); // already bound
    }
    let addr = k.kzalloc(16, "unix_address");
    let name = k.kzalloc(16, "sun_path");
    k.write(t, iid!(), name, 0x2f746d70)?; // "/tmp"
    k.write(t, iid!(), addr + ADDR_NAME, name)?;
    k.write(t, iid!(), addr + ADDR_LEN, 4)?;
    k.store_release(t, iid!(), u + U_ADDR, addr)?;
    Ok(0)
}

/// `unix_getname`: lockless read of the bound address (Known #9 reader).
pub fn unix_getname(k: &Kctx, t: Tid, fd: u64) -> KResult<i64> {
    let Some(u) = sock(k, fd) else { return Ok(EBADF) };
    let _f = k.enter(t, "unix_getname");
    let addr = if k.bug(BugId::KnownUnix) {
        // Buggy: plain load, unpaired with the writer's release.
        k.read(t, iid!(), u + U_ADDR)?
    } else {
        // The [106] fix: acquire load pairing.
        k.load_acquire(t, iid!(), u + U_ADDR)?
    };
    if addr == 0 {
        return Ok(EINVAL); // autobind: no name yet
    }
    let name = k.read(t, iid!(), addr + ADDR_NAME)?;
    let first = k.read(t, iid!(), name)?;
    let len = k.read(t, iid!(), addr + ADDR_LEN)?;
    let _ = first;
    Ok(len as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugSwitches;
    use crate::testutil::{expect_crash, expect_no_crash, version_all_plain_loads_with_setup};

    #[test]
    fn in_order_bind_then_getname_works() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        assert_eq!(unix_bind(&k, t0, 0), Ok(0));
        k.syscall_exit(t0);
        assert_eq!(unix_getname(&k, t1, 0), Ok(4));
        assert!(k.sink.is_empty());
    }

    #[test]
    fn getname_before_bind_is_einval() {
        let k = Kctx::new(BugSwitches::all());
        assert_eq!(unix_getname(&k, Tid(0), 0), Ok(EINVAL));
        assert_eq!(unix_getname(&k, Tid(0), 9), Ok(EBADF));
    }

    #[test]
    fn double_bind_rejected() {
        let k = Kctx::new(BugSwitches::none());
        let t = Tid(0);
        assert_eq!(unix_bind(&k, t, 1), Ok(0));
        k.syscall_exit(t);
        assert_eq!(unix_bind(&k, t, 1), Ok(EBUSY));
    }

    #[test]
    fn known9_load_reorder_crashes_getname() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        let title = expect_crash(&k, |k| {
            unix_bind(k, t0, 0)?;
            k.syscall_exit(t0);
            version_all_plain_loads_with_setup(
                k,
                t1,
                |k| {
                    unix_bind(k, t0, 0)?;
                    k.syscall_exit(t0);
                    Ok(())
                },
                |k| unix_getname(k, t1, 0),
            )
        });
        assert_eq!(
            title,
            "BUG: unable to handle kernel NULL pointer dereference in unix_getname"
        );
    }

    #[test]
    fn known9_acquire_fix_survives_same_forcing() {
        let k = Kctx::new(BugSwitches::none());
        let (t0, t1) = (Tid(0), Tid(1));
        expect_no_crash(&k, |k| {
            unix_bind(k, t0, 0)?;
            k.syscall_exit(t0);
            version_all_plain_loads_with_setup(
                k,
                t1,
                |k| {
                    unix_bind(k, t0, 0)?;
                    k.syscall_exit(t0);
                    Ok(())
                },
                |k| {
                    let r = unix_getname(k, t1, 0)?;
                    assert!(r == 4 || r == EINVAL);
                    Ok(())
                },
            )
        });
    }
}
