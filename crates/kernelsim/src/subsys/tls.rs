//! TLS sockets: Figure 7 (Bug #9), Bug #5, and the `tls_err_abort`
//! wrong-value bug (Table 4 #8).
//!
//! - **Bug #9** (S-S, Figure 7): `tls_init` allocates the TLS context,
//!   saves the original `sk->sk_prot` into `ctx->sk_proto`, and swaps the
//!   socket's proto table for `tls_prots`. The historical "fix" annotated
//!   the swap with `WRITE_ONCE`/`READ_ONCE` — which silences KCSAN but
//!   provides no ordering — so the swap can still become visible before the
//!   context is initialised, and a concurrent `setsockopt` calls through a
//!   NULL `ctx->sk_proto` (execution order `#9 → #20 → #28 → #6`).
//! - **Bug #5** (L-L): `tls_getsockopt` reads the context pointer and then
//!   its fields with no load ordering; a speculated field load observes the
//!   pre-initialisation value across the function boundary (one of the bugs
//!   §7 notes KCSAN cannot model).
//! - **Known #8 \[50\]** (S-S, `✓*` in Table 4): `tls_err_abort` publishes
//!   the done flag before the error code is visible, so the reader returns
//!   a *wrong value* rather than crashing.

use std::sync::Arc;

use oemu::{iid, Tid};

use crate::bugs::BugId;
use crate::kctx::{KResult, Kctx, EAGAIN, EBADF, EBUSY};

/// Number of TLS-capable sockets.
pub const NSOCKS: usize = 2;
/// Error code `tls_err_abort` publishes (`EPIPE`).
pub const TLS_ERR: u64 = 32;

// struct sock layout.
const SK_PROT: u64 = 0x00;
const SK_DATA: u64 = 0x08;
const SK_ERR: u64 = 0x10;
const SK_DONE: u64 = 0x18;
// struct tls_context layout.
const CTX_SK_PROTO: u64 = 0x00;
const CTX_TX_CONF: u64 = 0x08;
// struct proto layout (ops table).
const PROT_SETSOCKOPT: u64 = 0x00;
const PROT_GETSOCKOPT: u64 = 0x08;

/// Boot-time globals of the TLS subsystem.
pub struct TlsGlobals {
    /// The TLS-capable sockets.
    pub socks: [u64; NSOCKS],
    /// The base (TCP) proto table.
    pub base_prots: u64,
    /// The TLS proto table (`tls_prots` in Figure 7).
    pub tls_prots: u64,
}

/// Boots the subsystem: sockets start with the TCP proto table installed.
pub fn boot(k: &Arc<Kctx>) -> TlsGlobals {
    let base_prots = k.kzalloc(16, "proto(tcp)");
    k.engine.raw_store(
        base_prots + PROT_SETSOCKOPT,
        k.fns.register("tcp_setsockopt"),
    );
    k.engine.raw_store(
        base_prots + PROT_GETSOCKOPT,
        k.fns.register("tcp_getsockopt"),
    );
    let tls_prots = k.kzalloc(16, "proto(tls)");
    k.engine.raw_store(
        tls_prots + PROT_SETSOCKOPT,
        k.fns.register("tls_setsockopt"),
    );
    k.engine.raw_store(
        tls_prots + PROT_GETSOCKOPT,
        k.fns.register("tls_getsockopt"),
    );
    let socks = std::array::from_fn(|_| {
        let sk = k.kzalloc(32, "sock");
        k.engine.raw_store(sk + SK_PROT, base_prots);
        sk
    });
    TlsGlobals {
        socks,
        base_prots,
        tls_prots,
    }
}

fn sock(k: &Kctx, fd: u64) -> Option<u64> {
    k.globals().tls.socks.get(fd as usize).copied()
}

/// `tls_init`: Figure 7 lines 3-11 (Thread A).
pub fn tls_init(k: &Kctx, t: Tid, fd: u64) -> KResult<i64> {
    let Some(sk) = sock(k, fd) else { return Ok(EBADF) };
    let _f = k.enter(t, "tls_init");
    let g = k.globals();
    if k.read(t, iid!(), sk + SK_DATA)? != 0 {
        return Ok(EBUSY); // TLS already initialised on this socket
    }
    let ctx = k.kzalloc(16, "tls_context"); // line 4: kzalloc
    k.write(t, iid!(), sk + SK_DATA, ctx)?; // line 5
    let prot = k.read_once(t, iid!(), sk + SK_PROT)?; // line 7
    k.write(t, iid!(), ctx + CTX_SK_PROTO, prot)?; // line 6
    k.write(t, iid!(), ctx + CTX_TX_CONF, 1)?;
    if !k.bug(BugId::TlsSkProt) {
        // Line 8: the barrier the mis-fix omitted.
        k.smp_wmb(t, iid!());
    }
    k.write_once(t, iid!(), sk + SK_PROT, g.tls.tls_prots)?; // lines 9-10
    Ok(0)
}

/// `sock_common_setsockopt`: Figure 7 lines 18-22 (Thread B).
pub fn sock_setsockopt(k: &Kctx, t: Tid, fd: u64) -> KResult<i64> {
    let Some(sk) = sock(k, fd) else { return Ok(EBADF) };
    let _f = k.enter(t, "sock_common_setsockopt");
    let prot = k.read_once(t, iid!(), sk + SK_PROT)?; // line 20
    let f = k.read(t, iid!(), prot + PROT_SETSOCKOPT)?;
    match k.call_fn(t, f)? {
        "tls_setsockopt" => tls_setsockopt(k, t, sk),
        _ => Ok(0), // tcp_setsockopt: benign
    }
}

/// `tls_setsockopt`: Figure 7 lines 25-30.
fn tls_setsockopt(k: &Kctx, t: Tid, sk: u64) -> KResult<i64> {
    let _f = k.enter(t, "tls_setsockopt");
    let ctx = k.read(t, iid!(), sk + SK_DATA)?; // line 26-27
    let sk_proto = k.read(t, iid!(), ctx + CTX_SK_PROTO)?; // line 28
    let f = k.read(t, iid!(), sk_proto + PROT_SETSOCKOPT)?;
    k.call_fn(t, f)?; // line 29
    Ok(0)
}

/// `sock_common_getsockopt`, dispatching to `tls_getsockopt` (Bug #5, L-L).
///
/// The setsockopt path got its `READ_ONCE(sk->sk_prot)` annotation in the
/// historical data-race fix, but this getsockopt path missed it: with a
/// plain load of `sk_prot`, the dependent loads deep inside
/// `tls_getsockopt` can be satisfied before it — a reordering that crosses
/// a function boundary, which §7 highlights as beyond KCSAN's single-access
/// model. The fix annotates the dispatch load, which OEMU honours as an
/// implied load barrier (§3.2, LKMM Case 6).
pub fn sock_getsockopt(k: &Kctx, t: Tid, fd: u64) -> KResult<i64> {
    let Some(sk) = sock(k, fd) else { return Ok(EBADF) };
    let _f = k.enter(t, "sock_common_getsockopt");
    let prot = if k.bug(BugId::TlsGetsockopt) {
        k.read(t, iid!(), sk + SK_PROT)?
    } else {
        k.read_once(t, iid!(), sk + SK_PROT)?
    };
    let f = k.read(t, iid!(), prot + PROT_GETSOCKOPT)?;
    match k.call_fn(t, f)? {
        "tls_getsockopt" => tls_getsockopt(k, t, sk),
        _ => Ok(0), // tcp_getsockopt: benign
    }
}

/// `tls_getsockopt`: reads the TLS context published by [`tls_init`]; the
/// crash site of Bug #5.
fn tls_getsockopt(k: &Kctx, t: Tid, sk: u64) -> KResult<i64> {
    let _f = k.enter(t, "tls_getsockopt");
    let ctx = k.read(t, iid!(), sk + SK_DATA)?;
    let sk_proto = k.read(t, iid!(), ctx + CTX_SK_PROTO)?;
    let f = k.read(t, iid!(), sk_proto + PROT_GETSOCKOPT)?;
    k.call_fn(t, f)?;
    Ok(0)
}

/// `tls_err_abort` (Known #8 \[50\], S-S): record the error, then publish
/// completion. Without the barrier the done flag can become visible first.
pub fn tls_err_abort(k: &Kctx, t: Tid, fd: u64) -> KResult<i64> {
    let Some(sk) = sock(k, fd) else { return Ok(EBADF) };
    let _f = k.enter(t, "tls_err_abort");
    k.write(t, iid!(), sk + SK_ERR, TLS_ERR)?;
    if !k.bug(BugId::KnownTlsErr) {
        k.smp_wmb(t, iid!());
    }
    k.write_once(t, iid!(), sk + SK_DONE, 1)?;
    Ok(0)
}

/// Poll side of Known #8: returns the error once done, `EAGAIN` before.
/// The buggy reordering makes this return 0 — a wrong value, the paper's
/// `✓*` symptom — instead of [`TLS_ERR`].
pub fn tls_poll_err(k: &Kctx, t: Tid, fd: u64) -> KResult<i64> {
    let Some(sk) = sock(k, fd) else { return Ok(EBADF) };
    let _f = k.enter(t, "tls_poll_err");
    let done = k.read_once(t, iid!(), sk + SK_DONE)?;
    if done == 0 {
        return Ok(EAGAIN);
    }
    k.read(t, iid!(), sk + SK_ERR).map(|v| v as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugSwitches;
    use crate::testutil::{
        delay_all_plain_stores_during, expect_crash, expect_no_crash,
        version_all_plain_loads_with_setup,
    };

    #[test]
    fn in_order_init_then_setsockopt_works() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        assert_eq!(tls_init(&k, t0, 0), Ok(0));
        k.syscall_exit(t0);
        assert_eq!(sock_setsockopt(&k, t1, 0), Ok(0));
        assert_eq!(sock_getsockopt(&k, t1, 0), Ok(0));
        assert!(k.sink.is_empty());
    }

    #[test]
    fn setsockopt_before_init_uses_tcp_path() {
        let k = Kctx::new(BugSwitches::all());
        assert_eq!(sock_setsockopt(&k, Tid(0), 0), Ok(0));
        assert!(k.sink.is_empty());
    }

    #[test]
    fn double_init_returns_ebusy() {
        let k = Kctx::new(BugSwitches::none());
        let t = Tid(0);
        assert_eq!(tls_init(&k, t, 0), Ok(0));
        k.syscall_exit(t);
        assert_eq!(tls_init(&k, t, 0), Ok(EBUSY));
    }

    #[test]
    fn bad_fd_rejected() {
        let k = Kctx::new(BugSwitches::none());
        assert_eq!(tls_init(&k, Tid(0), 99), Ok(EBADF));
        assert_eq!(sock_setsockopt(&k, Tid(0), 99), Ok(EBADF));
    }

    #[test]
    fn bug9_figure7_store_reorder_crashes() {
        // Order #9 -> #20 -> #28 -> #6: the proto swap overtakes the
        // context initialisation.
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        let title = expect_crash(&k, |k| {
            delay_all_plain_stores_during(k, t0, |k| tls_init(k, t0, 0))?;
            sock_setsockopt(k, t1, 0)
        });
        assert_eq!(
            title,
            "BUG: unable to handle kernel NULL pointer dereference in tls_setsockopt"
        );
    }

    #[test]
    fn bug9_fixed_kernel_survives_same_forcing() {
        let k = Kctx::new(BugSwitches::none());
        let (t0, t1) = (Tid(0), Tid(1));
        expect_no_crash(&k, |k| {
            delay_all_plain_stores_during(k, t0, |k| tls_init(k, t0, 0))?;
            sock_setsockopt(k, t1, 0)
        });
    }

    #[test]
    fn bug5_load_reorder_crashes_getsockopt() {
        // With the dispatch load unannotated, the reader's window stays
        // open and every dependent load may be versioned to its
        // pre-publication value — the cross-function L-L reorder.
        let k = Kctx::new(BugSwitches::only([BugId::TlsGetsockopt]));
        let (t0, t1) = (Tid(0), Tid(1));
        let title = expect_crash(&k, |k| {
            tls_init(k, t0, 0)?;
            k.syscall_exit(t0);
            version_all_plain_loads_with_setup(
                k,
                t1,
                |k| {
                    tls_init(k, t0, 0)?;
                    k.syscall_exit(t0);
                    Ok(())
                },
                |k| sock_getsockopt(k, t1, 0),
            )
        });
        assert_eq!(
            title,
            "BUG: unable to handle kernel NULL pointer dereference in tls_getsockopt"
        );
    }

    #[test]
    fn bug5_fixed_kernel_survives_same_forcing() {
        // READ_ONCE on the dispatch load closes the versioning window, so
        // the same forcing cannot observe pre-publication values.
        let k = Kctx::new(BugSwitches::none());
        let (t0, t1) = (Tid(0), Tid(1));
        expect_no_crash(&k, |k| {
            tls_init(k, t0, 0)?;
            k.syscall_exit(t0);
            version_all_plain_loads_with_setup(
                k,
                t1,
                |k| {
                    tls_init(k, t0, 0)?;
                    k.syscall_exit(t0);
                    Ok(())
                },
                |k| sock_getsockopt(k, t1, 0),
            )
        });
    }

    #[test]
    fn known8_err_abort_reorder_returns_wrong_value() {
        // The ✓* row of Table 4: no crash, but the reader observes done
        // without the error code.
        let k = Kctx::new(BugSwitches::only([BugId::KnownTlsErr]));
        let (t0, t1) = (Tid(0), Tid(1));
        delay_all_plain_stores_during(&k, t0, |k| tls_err_abort(k, t0, 0)).unwrap();
        assert_eq!(tls_poll_err(&k, t1, 0), Ok(0), "wrong value: error lost");
        assert!(k.sink.is_empty(), "no oracle fires for wrong values");
    }

    #[test]
    fn known8_fixed_kernel_returns_error() {
        let k = Kctx::new(BugSwitches::none());
        let (t0, t1) = (Tid(0), Tid(1));
        delay_all_plain_stores_during(&k, t0, |k| tls_err_abort(k, t0, 0)).unwrap();
        assert_eq!(tls_poll_err(&k, t1, 0), Ok(TLS_ERR as i64));
    }

    #[test]
    fn poll_before_abort_is_eagain() {
        let k = Kctx::new(BugSwitches::none());
        assert_eq!(tls_poll_err(&k, Tid(0), 0), Ok(EAGAIN));
    }
}
