//! SMC sockets: Bug #8 and Bug #10 (both S-S).
//!
//! - **Bug #8**: the first `connect` on an SMC socket creates the internal
//!   TCP socket (`smc->clcsock`) and then marks the socket active. Without
//!   a barrier the state store can become visible first, and a concurrent
//!   `connect` observing the active state dereferences a NULL `clcsock` —
//!   the `NULL pointer dereference in connect` of Table 3.
//! - **Bug #10**: the accept path hands a `struct file` to a deferred-fput
//!   worker by storing the file pointer and then raising a pending flag.
//!   With the stores reordered, the worker sees the flag with a NULL file
//!   and `fput` writes through it — `KASAN: null-ptr-deref Write in fput`.

use std::sync::Arc;

use oemu::{iid, RmwOrder, Tid};

use crate::bugs::BugId;
use crate::kctx::{KResult, Kctx, EAGAIN, EBADF};

/// Number of SMC sockets.
pub const NSOCKS: usize = 2;
/// `smc->sk_state` value once connected.
pub const SMC_ACTIVE: u64 = 1;

// struct smc_sock layout.
const SMC_STATE: u64 = 0x00;
const SMC_CLCSOCK: u64 = 0x08;
const SMC_FILE: u64 = 0x10;
const SMC_PENDING_FPUT: u64 = 0x18;
// struct socket (clcsock) layout.
const CLC_OPS: u64 = 0x00;
// struct file layout.
const FILE_COUNT: u64 = 0x00;

/// Boot-time globals of the SMC subsystem.
pub struct SmcGlobals {
    /// The SMC sockets.
    pub socks: [u64; NSOCKS],
}

/// Boots the subsystem.
pub fn boot(k: &Arc<Kctx>) -> SmcGlobals {
    k.fns.register("kernel_connect");
    SmcGlobals {
        socks: std::array::from_fn(|_| k.kzalloc(32, "smc_sock")),
    }
}

fn sock(k: &Kctx, fd: u64) -> Option<u64> {
    k.globals().smc.socks.get(fd as usize).copied()
}

/// `smc_connect`: first caller creates and publishes the clcsock; later
/// callers route through it (writer *and* reader of Bug #8 — the race is
/// between two concurrent connects on the same socket).
pub fn smc_connect(k: &Kctx, t: Tid, fd: u64) -> KResult<i64> {
    let Some(smc) = sock(k, fd) else { return Ok(EBADF) };
    let _f = k.enter(t, "connect");
    let state = k.read_once(t, iid!(), smc + SMC_STATE)?;
    if state == SMC_ACTIVE {
        // Fast path: the socket is connected; use the internal socket. The
        // reader half of the barrier pair is present — the historical bug
        // is that the *writer* half below is missing, so this rmb alone
        // cannot prevent the reordering (§2.2: both barriers are needed).
        k.smp_rmb(t, iid!());
        let clc = k.read(t, iid!(), smc + SMC_CLCSOCK)?;
        let ops = k.read(t, iid!(), clc + CLC_OPS)?;
        k.call_fn(t, ops)?;
        return Ok(0);
    }
    // Slow path: build the internal TCP socket and activate.
    let clc = k.kzalloc(16, "socket(clc)");
    k.write(
        t,
        iid!(),
        clc + CLC_OPS,
        k.fns.lookup("kernel_connect").expect("registered at boot"),
    )?;
    k.write(t, iid!(), smc + SMC_CLCSOCK, clc)?;
    if !k.bug(BugId::SmcClcsock) {
        // The clcsock must be visible before the socket looks active.
        k.smp_wmb(t, iid!());
    }
    k.write_once(t, iid!(), smc + SMC_STATE, SMC_ACTIVE)?;
    Ok(0)
}

/// Accept path: publishes a freshly installed file for the deferred fput
/// worker (writer of Bug #10).
pub fn smc_accept(k: &Kctx, t: Tid, fd: u64) -> KResult<i64> {
    let Some(smc) = sock(k, fd) else { return Ok(EBADF) };
    let _f = k.enter(t, "smc_accept");
    if k.read(t, iid!(), smc + SMC_PENDING_FPUT)? != 0 {
        return Ok(EAGAIN); // previous file still pending
    }
    let file = k.kzalloc(16, "file");
    k.write(t, iid!(), file + FILE_COUNT, 1)?;
    k.write(t, iid!(), smc + SMC_FILE, file)?;
    if !k.bug(BugId::SmcFput) {
        // The file pointer must be visible before the worker is signalled.
        k.smp_wmb(t, iid!());
    }
    k.write_once(t, iid!(), smc + SMC_PENDING_FPUT, 1)?;
    Ok(0)
}

/// Deferred-fput worker (reader of Bug #10): drops the published file's
/// reference.
pub fn smc_fput_worker(k: &Kctx, t: Tid, fd: u64) -> KResult<i64> {
    let Some(smc) = sock(k, fd) else { return Ok(EBADF) };
    let _f = k.enter(t, "smc_close_work");
    let pending = k.read_once(t, iid!(), smc + SMC_PENDING_FPUT)?;
    if pending == 0 {
        return Ok(EAGAIN);
    }
    let file = k.read(t, iid!(), smc + SMC_FILE)?;
    fput(k, t, file)?;
    k.write(t, iid!(), smc + SMC_FILE, 0)?;
    k.write_once(t, iid!(), smc + SMC_PENDING_FPUT, 0)?;
    Ok(0)
}

/// `fput`: atomically drops the file refcount — a *write* access, so a NULL
/// file produces exactly the paper's `KASAN: null-ptr-deref Write in fput`.
fn fput(k: &Kctx, t: Tid, file: u64) -> KResult<()> {
    let _f = k.enter(t, "fput");
    let old = k.rmw(
        t,
        iid!(),
        file + FILE_COUNT,
        |v| v.wrapping_sub(1),
        RmwOrder::Full,
    )?;
    if old == 1 {
        k.kfree(t, file)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugSwitches;
    use crate::testutil::{delay_all_plain_stores_during, expect_crash, expect_no_crash};

    #[test]
    fn in_order_double_connect_works() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        assert_eq!(smc_connect(&k, t0, 0), Ok(0));
        k.syscall_exit(t0);
        assert_eq!(smc_connect(&k, t1, 0), Ok(0), "fast path through clcsock");
        assert!(k.sink.is_empty());
    }

    #[test]
    fn in_order_accept_then_worker_frees_file() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        assert_eq!(smc_accept(&k, t0, 0), Ok(0));
        k.syscall_exit(t0);
        assert_eq!(smc_fput_worker(&k, t1, 0), Ok(0));
        assert!(k.sink.is_empty());
        assert_eq!(k.kmem.stats().frees, 1, "refcount dropped to zero");
    }

    #[test]
    fn worker_without_pending_file_is_quiet() {
        let k = Kctx::new(BugSwitches::all());
        assert_eq!(smc_fput_worker(&k, Tid(0), 0), Ok(EAGAIN));
    }

    #[test]
    fn bug8_state_reorder_crashes_concurrent_connect() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        let title = expect_crash(&k, |k| {
            delay_all_plain_stores_during(k, t0, |k| smc_connect(k, t0, 0))?;
            smc_connect(k, t1, 0)
        });
        assert_eq!(
            title,
            "BUG: unable to handle kernel NULL pointer dereference in connect"
        );
    }

    #[test]
    fn bug8_fixed_kernel_survives_same_forcing() {
        let k = Kctx::new(BugSwitches::none());
        let (t0, t1) = (Tid(0), Tid(1));
        expect_no_crash(&k, |k| {
            delay_all_plain_stores_during(k, t0, |k| smc_connect(k, t0, 0))?;
            smc_connect(k, t1, 0)
        });
    }

    #[test]
    fn bug10_fput_reorder_is_null_write() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        let title = expect_crash(&k, |k| {
            delay_all_plain_stores_during(k, t0, |k| smc_accept(k, t0, 0))?;
            smc_fput_worker(k, t1, 0)
        });
        assert_eq!(title, "KASAN: null-ptr-deref Write in fput");
    }

    #[test]
    fn bug10_fixed_kernel_survives_same_forcing() {
        let k = Kctx::new(BugSwitches::none());
        let (t0, t1) = (Tid(0), Tid(1));
        expect_no_crash(&k, |k| {
            delay_all_plain_stores_during(k, t0, |k| smc_accept(k, t0, 0))?;
            smc_fput_worker(k, t1, 0)
        });
    }
}
