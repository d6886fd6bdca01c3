//! XDP sockets (xsk): Bugs #4 and #7, and the two previously-reported xsk
//! bugs of Table 4 (#3 \[103\] and #4 \[101\]).
//!
//! Three publication races live on the xsk socket:
//!
//! - **Known #3 \[103\]** (S-S): umem registration publishes `xs->umem`
//!   before the page array is visible (`xsk: add missing write- and
//!   data-dependency barrier`); the RX path then walks a NULL page array.
//! - **Bug #4** (S-S): the buffer pool is published before its fill ring;
//!   `xsk_poll` dereferences a NULL ring.
//! - **Bug #7 / Known #4 \[101\]** (S-S): `xs->state = XSK_BOUND` becomes
//!   visible before `xs->tx`, and `xsk_generic_xmit` dereferences a NULL
//!   TX queue. Bug #7 is the modern regression of the same publication the
//!   5.3-era patch \[101\] fixed, so they share this code path with separate
//!   switches.

use std::sync::Arc;

use oemu::{iid, Tid};

use crate::bugs::BugId;
use crate::kctx::{KResult, Kctx, EAGAIN, EBADF, EBUSY};

/// Number of xsk sockets.
pub const NSOCKS: usize = 2;
/// `xs->state` value once bound.
pub const XSK_BOUND: u64 = 2;

// struct xdp_sock layout.
const XS_STATE: u64 = 0x00;
const XS_TX: u64 = 0x08;
const XS_POOL: u64 = 0x10;
const XS_UMEM: u64 = 0x18;
// struct xsk_buff_pool layout.
const POOL_FQ: u64 = 0x00;
const POOL_SIZE: u64 = 0x08;
// struct xsk_queue layout.
const Q_NENTRIES: u64 = 0x00;
const Q_PROD: u64 = 0x08;
// struct xdp_umem layout.
const UMEM_PGS: u64 = 0x00;
const UMEM_NPGS: u64 = 0x08;

/// Boot-time globals of the xsk subsystem.
pub struct XskGlobals {
    /// The xsk sockets.
    pub socks: [u64; NSOCKS],
}

/// Boots the subsystem.
pub fn boot(k: &Arc<Kctx>) -> XskGlobals {
    XskGlobals {
        socks: std::array::from_fn(|_| k.kzalloc(32, "xdp_sock")),
    }
}

fn sock(k: &Kctx, fd: u64) -> Option<u64> {
    k.globals().xsk.socks.get(fd as usize).copied()
}

/// `xdp_umem_reg`: registers a umem on the socket (Known #3 writer).
pub fn xsk_reg_umem(k: &Kctx, t: Tid, fd: u64) -> KResult<i64> {
    let Some(xs) = sock(k, fd) else { return Ok(EBADF) };
    let _f = k.enter(t, "xdp_umem_reg");
    if k.read(t, iid!(), xs + XS_UMEM)? != 0 {
        return Ok(EBUSY);
    }
    let umem = k.kzalloc(16, "xdp_umem");
    let pgs = k.kzalloc(64, "umem_pgs");
    k.write(t, iid!(), umem + UMEM_PGS, pgs)?;
    k.write(t, iid!(), umem + UMEM_NPGS, 8)?;
    if !k.bug(BugId::KnownXskUmem) {
        // The [103] fix: publish only after the page array is visible.
        k.smp_wmb(t, iid!());
    }
    k.write_once(t, iid!(), xs + XS_UMEM, umem)?;
    Ok(0)
}

/// RX fast path: walks the umem page array (Known #3 reader).
pub fn xsk_rx(k: &Kctx, t: Tid, fd: u64) -> KResult<i64> {
    let Some(xs) = sock(k, fd) else { return Ok(EBADF) };
    let _f = k.enter(t, "xsk_rx");
    let umem = k.read_once(t, iid!(), xs + XS_UMEM)?;
    if umem == 0 {
        return Ok(EAGAIN);
    }
    let pgs = k.read(t, iid!(), umem + UMEM_PGS)?;
    let npgs = k.read(t, iid!(), umem + UMEM_NPGS)?;
    // Touch the first page descriptor; a NULL page array oopses here.
    let first = k.read(t, iid!(), pgs)?;
    k.bug_on(t, npgs == 0, "umem registered with zero pages")?;
    Ok(first as i64)
}

/// `xsk_bind`: creates the pool and TX queue and publishes the socket as
/// bound (writer of Bugs #4 and #7 / Known #4).
pub fn xsk_bind(k: &Kctx, t: Tid, fd: u64) -> KResult<i64> {
    let Some(xs) = sock(k, fd) else { return Ok(EBADF) };
    let _f = k.enter(t, "xsk_bind");
    if k.read(t, iid!(), xs + XS_STATE)? != 0 {
        return Ok(EBUSY);
    }
    // Pool setup (Bug #4).
    let pool = k.kzalloc(16, "xsk_buff_pool");
    let fq = k.kzalloc(16, "xsk_queue(fill)");
    k.write(t, iid!(), fq + Q_NENTRIES, 64)?;
    k.write(t, iid!(), pool + POOL_FQ, fq)?;
    k.write(t, iid!(), pool + POOL_SIZE, 64)?;
    if !k.bug(BugId::XskPoolPublish) {
        k.smp_wmb(t, iid!());
    }
    k.write_once(t, iid!(), xs + XS_POOL, pool)?;
    // TX queue setup and bind publication (Bug #7 / Known #4).
    let tx = k.kzalloc(16, "xsk_queue(tx)");
    k.write(t, iid!(), tx + Q_NENTRIES, 16)?;
    k.write(t, iid!(), xs + XS_TX, tx)?;
    if !k.bug(BugId::XskStateBound) && !k.bug(BugId::KnownXskState) {
        // The [101] fix: `smp_wmb` between the queue stores and the state
        // store, paired with the readers' dependent ordering.
        k.smp_wmb(t, iid!());
    }
    k.write_once(t, iid!(), xs + XS_STATE, XSK_BOUND)?;
    Ok(0)
}

/// `xsk_poll`: checks readiness through the buffer pool (Bug #4 reader).
pub fn xsk_poll(k: &Kctx, t: Tid, fd: u64) -> KResult<i64> {
    let Some(xs) = sock(k, fd) else { return Ok(EBADF) };
    let _f = k.enter(t, "xsk_poll");
    let pool = k.read_once(t, iid!(), xs + XS_POOL)?;
    if pool == 0 {
        return Ok(0); // not bound yet: no events
    }
    let fq = k.read(t, iid!(), pool + POOL_FQ)?;
    let prod = k.read(t, iid!(), fq + Q_PROD)?;
    Ok(prod as i64)
}

/// `sendmsg` on a bound socket → `xsk_generic_xmit` (reader of Bug #7 /
/// Known #4).
pub fn xsk_sendmsg(k: &Kctx, t: Tid, fd: u64) -> KResult<i64> {
    let Some(xs) = sock(k, fd) else { return Ok(EBADF) };
    let _f = k.enter(t, "xsk_sendmsg");
    let state = k.read_once(t, iid!(), xs + XS_STATE)?;
    if state != XSK_BOUND {
        return Ok(EAGAIN);
    }
    xsk_generic_xmit(k, t, xs)
}

fn xsk_generic_xmit(k: &Kctx, t: Tid, xs: u64) -> KResult<i64> {
    let _f = k.enter(t, "xsk_generic_xmit");
    let tx = k.read(t, iid!(), xs + XS_TX)?;
    let nentries = k.read(t, iid!(), tx + Q_NENTRIES)?;
    let prod = k.read(t, iid!(), tx + Q_PROD)?;
    k.write(t, iid!(), tx + Q_PROD, (prod + 1) % nentries.max(1))?;
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugSwitches;
    use crate::testutil::{delay_all_plain_stores_during, expect_crash, expect_no_crash};

    #[test]
    fn in_order_bind_then_io_works() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        assert_eq!(xsk_reg_umem(&k, t0, 0), Ok(0));
        assert_eq!(xsk_bind(&k, t0, 0), Ok(0));
        k.syscall_exit(t0);
        assert_eq!(xsk_poll(&k, t1, 0), Ok(0));
        assert_eq!(xsk_sendmsg(&k, t1, 0), Ok(0));
        assert_eq!(xsk_rx(&k, t1, 0), Ok(0));
        assert!(k.sink.is_empty());
    }

    #[test]
    fn unbound_socket_is_quiet() {
        let k = Kctx::new(BugSwitches::all());
        let t = Tid(0);
        assert_eq!(xsk_poll(&k, t, 0), Ok(0));
        assert_eq!(xsk_sendmsg(&k, t, 0), Ok(EAGAIN));
        assert_eq!(xsk_rx(&k, t, 0), Ok(EAGAIN));
    }

    #[test]
    fn double_bind_rejected() {
        let k = Kctx::new(BugSwitches::none());
        let t = Tid(0);
        assert_eq!(xsk_bind(&k, t, 0), Ok(0));
        k.syscall_exit(t);
        assert_eq!(xsk_bind(&k, t, 0), Ok(EBUSY));
        assert_eq!(xsk_reg_umem(&k, t, 0), Ok(0));
        k.syscall_exit(t);
        assert_eq!(xsk_reg_umem(&k, t, 0), Ok(EBUSY));
    }

    #[test]
    fn bug4_pool_publish_reorder_crashes_poll() {
        // Bug #4 needs a mid-syscall interleaving: xsk_bind's later TX
        // barrier (present when only Bug #4 is seeded) would flush the
        // delayed pool stores, so the reader must run right after the pool
        // publication — the Figure 5a schedule with a breakpoint.
        use crate::exec::{execute, ExecRequest};
        use crate::syscalls::Syscall;
        use crate::testutil::profile_store_iids;
        use ksched::{BreakWhen, Breakpoint, SchedulePlan};

        let k = Kctx::new(BugSwitches::only([BugId::XskPoolPublish]));
        let t0 = Tid(0);
        let stores = profile_store_iids(&k, t0, |k| xsk_bind(k, t0, 0));
        // Program order: fq nentries, pool fq, pool size, pool publish, ...
        for &iid in &stores[..3] {
            k.engine.delay_store_at(t0, iid);
        }
        let plan = SchedulePlan {
            first: t0,
            breakpoint: Some(Breakpoint {
                iid: stores[3],
                when: BreakWhen::After,
                hit: 1,
            }),
        };
        let out = execute(
            &k,
            ExecRequest::live(plan, Syscall::XskBind { fd: 0 }, Syscall::XskPoll { fd: 0 }),
        )
        .outcome;
        assert!(out.crashed(), "Bug #4 must manifest: {out:?}");
        assert_eq!(
            out.title().unwrap(),
            "BUG: unable to handle kernel NULL pointer dereference in xsk_poll"
        );
    }

    #[test]
    fn bug7_state_publish_reorder_crashes_xmit() {
        let k = Kctx::new(BugSwitches::only([BugId::XskStateBound]));
        let (t0, t1) = (Tid(0), Tid(1));
        let title = expect_crash(&k, |k| {
            delay_all_plain_stores_during(k, t0, |k| xsk_bind(k, t0, 0))?;
            xsk_sendmsg(k, t1, 0)
        });
        assert_eq!(
            title,
            "BUG: unable to handle kernel NULL pointer dereference in xsk_generic_xmit"
        );
    }

    #[test]
    fn known3_umem_publish_reorder_crashes_rx() {
        let k = Kctx::new(BugSwitches::only([BugId::KnownXskUmem]));
        let (t0, t1) = (Tid(0), Tid(1));
        let title = expect_crash(&k, |k| {
            delay_all_plain_stores_during(k, t0, |k| xsk_reg_umem(k, t0, 0))?;
            xsk_rx(k, t1, 0)
        });
        assert_eq!(
            title,
            "BUG: unable to handle kernel NULL pointer dereference in xsk_rx"
        );
    }

    #[test]
    fn fixed_kernel_survives_all_three_forcings() {
        let k = Kctx::new(BugSwitches::none());
        let (t0, t1) = (Tid(0), Tid(1));
        expect_no_crash(&k, |k| {
            delay_all_plain_stores_during(k, t0, |k| xsk_reg_umem(k, t0, 0))?;
            xsk_rx(k, t1, 0)
        });
        let k = Kctx::new(BugSwitches::none());
        expect_no_crash(&k, |k| {
            delay_all_plain_stores_during(k, t0, |k| xsk_bind(k, t0, 0))?;
            xsk_poll(k, t1, 0)?;
            xsk_sendmsg(k, t1, 0)
        });
    }

    #[test]
    fn separate_sockets_do_not_interfere() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        assert_eq!(xsk_bind(&k, t0, 0), Ok(0));
        k.syscall_exit(t0);
        assert_eq!(xsk_sendmsg(&k, t1, 1), Ok(EAGAIN), "fd 1 is not bound");
    }
}
