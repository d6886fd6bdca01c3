//! BPF sockmap psock: Bug #6 (S-S).
//!
//! `sk_psock_init` saves the socket's original `data_ready` callback into
//! `psock->saved_data_ready` before installing the verdict hook. Without a
//! write barrier the hook installation (and the psock publication) can
//! become visible first, so the hook runs, finds the psock, and calls a
//! NULL `saved_data_ready` — the paper's `NULL pointer dereference in
//! sk_psock_verdict_data_ready`.

use std::sync::Arc;

use oemu::{iid, Tid};

use crate::bugs::BugId;
use crate::kctx::{KResult, Kctx, EBADF, EBUSY};

/// Number of sockmap-capable sockets.
pub const NSOCKS: usize = 2;

// struct sock layout (bpf view).
const SK_PSOCK: u64 = 0x00;
const SK_DATA_READY: u64 = 0x08;
// struct sk_psock layout.
const PSOCK_SAVED_READY: u64 = 0x00;
const PSOCK_VERDICT: u64 = 0x08;

/// Boot-time globals of the sockmap subsystem.
pub struct BpfGlobals {
    /// The sockets.
    pub socks: [u64; NSOCKS],
}

/// Boots the subsystem: sockets start with the default `data_ready`.
pub fn boot(k: &Arc<Kctx>) -> BpfGlobals {
    let default_ready = k.fns.register("sock_def_readable");
    k.fns.register("sk_psock_verdict_data_ready");
    k.fns.register("sk_psock_verdict_recv");
    BpfGlobals {
        socks: std::array::from_fn(|_| {
            let sk = k.kzalloc(16, "sock(bpf)");
            k.engine.raw_store(sk + SK_DATA_READY, default_ready);
            sk
        }),
    }
}

fn sock(k: &Kctx, fd: u64) -> Option<u64> {
    k.globals().bpf.socks.get(fd as usize).copied()
}

/// `sk_psock_init` + `sk_psock_start_verdict`: attach a psock to the socket
/// (writer of Bug #6).
pub fn psock_init(k: &Kctx, t: Tid, fd: u64) -> KResult<i64> {
    let Some(sk) = sock(k, fd) else { return Ok(EBADF) };
    let _f = k.enter(t, "sk_psock_init");
    if k.read(t, iid!(), sk + SK_PSOCK)? != 0 {
        return Ok(EBUSY);
    }
    let psock = k.kzalloc(16, "sk_psock");
    let saved = k.read(t, iid!(), sk + SK_DATA_READY)?;
    k.write(t, iid!(), psock + PSOCK_SAVED_READY, saved)?;
    k.write(
        t,
        iid!(),
        psock + PSOCK_VERDICT,
        k.fns
            .lookup("sk_psock_verdict_recv")
            .expect("registered at boot"),
    )?;
    if !k.bug(BugId::PsockSavedReady) {
        // The psock must be fully initialised before the hook can find it.
        k.smp_wmb(t, iid!());
    }
    k.write_once(t, iid!(), sk + SK_PSOCK, psock)?;
    k.write_once(
        t,
        iid!(),
        sk + SK_DATA_READY,
        k.fns
            .lookup("sk_psock_verdict_data_ready")
            .expect("registered at boot"),
    )?;
    Ok(0)
}

/// Data arrival on the socket: invokes the current `data_ready` callback
/// (reader of Bug #6).
pub fn sock_recvmsg(k: &Kctx, t: Tid, fd: u64) -> KResult<i64> {
    let Some(sk) = sock(k, fd) else { return Ok(EBADF) };
    let _f = k.enter(t, "sock_recvmsg");
    let ready = k.read_once(t, iid!(), sk + SK_DATA_READY)?;
    match k.call_fn(t, ready)? {
        "sk_psock_verdict_data_ready" => sk_psock_verdict_data_ready(k, t, sk),
        _ => Ok(0), // sock_def_readable: benign
    }
}

fn sk_psock_verdict_data_ready(k: &Kctx, t: Tid, sk: u64) -> KResult<i64> {
    let _f = k.enter(t, "sk_psock_verdict_data_ready");
    let psock = k.read_once(t, iid!(), sk + SK_PSOCK)?;
    if psock == 0 {
        return Ok(0); // hook raced with detach: nothing to do
    }
    let verdict = k.read(t, iid!(), psock + PSOCK_VERDICT)?;
    k.call_fn(t, verdict)?;
    let saved = k.read(t, iid!(), psock + PSOCK_SAVED_READY)?;
    // Chain to the original callback — NULL when the init stores were
    // reordered past the hook installation.
    k.call_fn(t, saved)?;
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugSwitches;
    use crate::testutil::{expect_crash, expect_no_crash, profile_store_iids};

    #[test]
    fn in_order_attach_then_recv_works() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        assert_eq!(psock_init(&k, t0, 0), Ok(0));
        k.syscall_exit(t0);
        assert_eq!(sock_recvmsg(&k, t1, 0), Ok(0));
        assert!(k.sink.is_empty());
    }

    #[test]
    fn recv_without_psock_uses_default_path() {
        let k = Kctx::new(BugSwitches::all());
        assert_eq!(sock_recvmsg(&k, Tid(0), 0), Ok(0));
        assert!(k.sink.is_empty());
    }

    #[test]
    fn double_attach_rejected() {
        let k = Kctx::new(BugSwitches::none());
        let t = Tid(0);
        assert_eq!(psock_init(&k, t, 0), Ok(0));
        k.syscall_exit(t);
        assert_eq!(psock_init(&k, t, 0), Ok(EBUSY));
    }

    /// The Bug #6 hint: delay the psock field initialisation but let both
    /// publication stores commit (Algorithm 1's third-largest hint for this
    /// group).
    fn delay_psock_init_stores(k: &Kctx, t: Tid) {
        let iids = profile_store_iids(k, t, |k| psock_init(k, t, 0));
        // Program order: saved_ready, verdict, psock publish, hook install.
        k.engine.delay_store_at(t, iids[0]);
        k.engine.delay_store_at(t, iids[1]);
    }

    #[test]
    fn bug6_reorder_crashes_verdict_data_ready() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        delay_psock_init_stores(&k, t0);
        let title = expect_crash(&k, |k| {
            psock_init(k, t0, 0)?;
            sock_recvmsg(k, t1, 0)
        });
        assert_eq!(
            title,
            "BUG: unable to handle kernel NULL pointer dereference in sk_psock_verdict_data_ready"
        );
    }

    #[test]
    fn bug6_fixed_kernel_survives_same_forcing() {
        let k = Kctx::new(BugSwitches::none());
        let (t0, t1) = (Tid(0), Tid(1));
        delay_psock_init_stores(&k, t0);
        expect_no_crash(&k, |k| {
            psock_init(k, t0, 0)?;
            sock_recvmsg(k, t1, 0)
        });
    }

    #[test]
    fn hook_races_with_unpublished_psock_benignly() {
        // Delaying the psock publication itself (the maximal hint) hits the
        // hook's NULL-psock guard — no crash, matching the kernel.
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        let iids = profile_store_iids(&k, t0, |k| psock_init(k, t0, 0));
        for &iid in &iids[..3] {
            k.engine.delay_store_at(t0, iid);
        }
        expect_no_crash(&k, |k| {
            psock_init(k, t0, 0)?;
            sock_recvmsg(k, t1, 0)
        });
    }
}
