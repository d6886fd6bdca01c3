//! The simulated kernel's system-call surface.
//!
//! [`Syscall`] is the value-level form of one invocation (what the paper's
//! Syzlang programs encode); [`dispatch`] is the kernel entry point. The
//! fuzzer-side argument templates (resource kinds, ranges) live in the
//! `ozz` crate; this module only defines what the kernel accepts.

use oemu::Tid;

use crate::kctx::{KResult, Kctx};
use crate::subsys;

/// One system-call invocation with concrete arguments.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Syscall {
    // watch_queue + pipe.
    /// `ioctl(IOC_WATCH_QUEUE_SET_FILTER)` — install a filter of `nwords`
    /// bitmap words.
    WqSetFilter {
        /// Bitmap words (clamped to 1..=4).
        nwords: u64,
    },
    /// Post one notification into the watch queue's pipe.
    WqPost,
    /// `read` on the notification pipe.
    PipeRead,
    // TLS.
    /// `setsockopt(SOL_TCP, TCP_ULP, "tls")`.
    TlsInit {
        /// Socket index.
        fd: u64,
    },
    /// `setsockopt` routed through the socket's current proto table.
    SetSockOpt {
        /// Socket index.
        fd: u64,
    },
    /// `getsockopt` routed through the socket's current proto table.
    GetSockOpt {
        /// Socket index.
        fd: u64,
    },
    /// Abort the TLS stream with an error.
    TlsErrAbort {
        /// Socket index.
        fd: u64,
    },
    /// Poll the TLS stream for a pending error.
    TlsPollErr {
        /// Socket index.
        fd: u64,
    },
    // RDS.
    /// Requeue transmission onto the next message.
    RdsSendXmit,
    /// Transmit one fragment over the loopback transport.
    RdsLoopXmit,
    // XDP / xsk.
    /// Register a umem on the socket.
    XskRegUmem {
        /// Socket index.
        fd: u64,
    },
    /// Bind the socket (creates pool and TX queue).
    XskBind {
        /// Socket index.
        fd: u64,
    },
    /// `poll` on the socket.
    XskPoll {
        /// Socket index.
        fd: u64,
    },
    /// `sendmsg` on the socket.
    XskSendmsg {
        /// Socket index.
        fd: u64,
    },
    /// RX-path processing on the socket.
    XskRx {
        /// Socket index.
        fd: u64,
    },
    // BPF sockmap.
    /// Attach a psock to the socket.
    PsockInit {
        /// Socket index.
        fd: u64,
    },
    /// Deliver data to the socket (runs `data_ready`).
    SockRecvmsg {
        /// Socket index.
        fd: u64,
    },
    // SMC.
    /// `connect` on the SMC socket.
    SmcConnect {
        /// Socket index.
        fd: u64,
    },
    /// `accept`: install a file and signal the fput worker.
    SmcAccept {
        /// Socket index.
        fd: u64,
    },
    /// The deferred fput worker.
    SmcFputWorker {
        /// Socket index.
        fd: u64,
    },
    // VMCI.
    /// Create and publish the queue pair.
    VmciQpCreate,
    /// Attach to the published queue pair.
    VmciQpAttach,
    // GSM.
    /// Open a DLCI channel.
    GsmDlciAlloc {
        /// Channel index.
        idx: u64,
    },
    /// Read a DLCI channel's configuration.
    GsmDlciConfig {
        /// Channel index.
        idx: u64,
    },
    // vlan.
    /// Register a vlan device.
    VlanAdd {
        /// vlan id.
        id: u64,
    },
    /// `ioctl` on a vlan device.
    VlanGet {
        /// vlan id.
        id: u64,
    },
    // fs.
    /// Install a file into the fd table.
    FdInstall {
        /// Slot index.
        fd: u64,
    },
    /// Lockless `__fget_light` fast path.
    FgetLight {
        /// Slot index.
        fd: u64,
    },
    // nbd.
    /// Allocate and publish the device config.
    NbdAllocConfig,
    /// `ioctl` on the device.
    NbdIoctl,
    // unix.
    /// `bind` the unix socket.
    UnixBind {
        /// Socket index.
        fd: u64,
    },
    /// `getsockname` on the unix socket.
    UnixGetname {
        /// Socket index.
        fd: u64,
    },
    // sbitmap.
    /// Retire and refresh this CPU's slot instance.
    SbitmapClear,
    /// Allocate this CPU's slot.
    SbitmapGet,
    // fs/buffer (extended corpus).
    /// Replace the page's buffer head under the bit lock.
    BhReplace,
    /// Evict and free the page's buffer head under the bit lock.
    BhEvict,
    // Tracing ring buffer (extended corpus).
    /// Reserve, fill, and commit one event.
    RingBufferWrite {
        /// Event payload.
        data: u64,
    },
    /// Consume the next committed event.
    RingBufferRead,
    // mm/filemap (extended corpus).
    /// Buffered write: fill the page, publish uptodate.
    FilemapWrite {
        /// Data value (0 is canonicalised away).
        val: u64,
    },
    /// Lockless buffered-read fast path.
    FilemapRead,
    // USB core (extended corpus).
    /// Submit a transfer on the URB.
    UsbSubmitUrb,
    /// Completion interrupt for the in-flight transfer.
    UsbComplete,
    /// Kill the URB.
    UsbKillUrb,
}

impl Syscall {
    /// The kernel-side entry function name, for reports and dedup.
    pub fn name(&self) -> &'static str {
        match self {
            Syscall::WqSetFilter { .. } => "watch_queue_set_filter",
            Syscall::WqPost => "post_one_notification",
            Syscall::PipeRead => "pipe_read",
            Syscall::TlsInit { .. } => "tls_init",
            Syscall::SetSockOpt { .. } => "sock_common_setsockopt",
            Syscall::GetSockOpt { .. } => "sock_common_getsockopt",
            Syscall::TlsErrAbort { .. } => "tls_err_abort",
            Syscall::TlsPollErr { .. } => "tls_poll_err",
            Syscall::RdsSendXmit => "rds_send_xmit",
            Syscall::RdsLoopXmit => "rds_loop_xmit",
            Syscall::XskRegUmem { .. } => "xdp_umem_reg",
            Syscall::XskBind { .. } => "xsk_bind",
            Syscall::XskPoll { .. } => "xsk_poll",
            Syscall::XskSendmsg { .. } => "xsk_sendmsg",
            Syscall::XskRx { .. } => "xsk_rx",
            Syscall::PsockInit { .. } => "sk_psock_init",
            Syscall::SockRecvmsg { .. } => "sock_recvmsg",
            Syscall::SmcConnect { .. } => "smc_connect",
            Syscall::SmcAccept { .. } => "smc_accept",
            Syscall::SmcFputWorker { .. } => "smc_close_work",
            Syscall::VmciQpCreate => "qp_broker_create",
            Syscall::VmciQpAttach => "qp_broker_attach",
            Syscall::GsmDlciAlloc { .. } => "gsm_dlci_alloc",
            Syscall::GsmDlciConfig { .. } => "gsm_dlci_config",
            Syscall::VlanAdd { .. } => "register_vlan_device",
            Syscall::VlanGet { .. } => "vlan_dev_ioctl",
            Syscall::FdInstall { .. } => "fd_install",
            Syscall::FgetLight { .. } => "__fget_light",
            Syscall::NbdAllocConfig => "nbd_alloc_and_init_config",
            Syscall::NbdIoctl => "nbd_ioctl",
            Syscall::UnixBind { .. } => "unix_bind",
            Syscall::UnixGetname { .. } => "unix_getname",
            Syscall::SbitmapClear => "sbitmap_queue_clear",
            Syscall::SbitmapGet => "sbitmap_queue_get",
            Syscall::BhReplace => "bh_replace",
            Syscall::BhEvict => "bh_evict",
            Syscall::RingBufferWrite { .. } => "ring_buffer_write",
            Syscall::RingBufferRead => "ring_buffer_read",
            Syscall::FilemapWrite { .. } => "filemap_write",
            Syscall::FilemapRead => "filemap_read",
            Syscall::UsbSubmitUrb => "usb_submit_urb",
            Syscall::UsbComplete => "usb_hcd_giveback_urb",
            Syscall::UsbKillUrb => "usb_kill_urb",
        }
    }
}

// Token serialization: `VariantName` for unit variants, `VariantName=N`
// for the single-argument ones. The `to_token` match is exhaustive, so
// adding a syscall without listing it here is a compile error — the
// checkpoint format can never silently lag the syscall surface.
macro_rules! syscall_tokens {
    (
        unit { $($u:ident),* $(,)? }
        arg { $($v:ident { $field:ident }),* $(,)? }
    ) => {
        impl Syscall {
            /// Serializes to a stable, whitespace-free text token
            /// (`VariantName` or `VariantName=arg`) for checkpoints.
            pub fn to_token(&self) -> String {
                match *self {
                    $(Syscall::$u => stringify!($u).to_string(),)*
                    $(Syscall::$v { $field } =>
                        format!(concat!(stringify!($v), "={}"), $field),)*
                }
            }

            /// Parses a [`Syscall::to_token`] token back.
            pub fn from_token(s: &str) -> Result<Syscall, String> {
                if let Some((name, arg)) = s.split_once('=') {
                    let n: u64 = arg
                        .parse()
                        .map_err(|e| format!("bad syscall arg {s:?}: {e}"))?;
                    match name {
                        $(stringify!($v) => Ok(Syscall::$v { $field: n }),)*
                        _ => Err(format!("unknown syscall token {s:?}")),
                    }
                } else {
                    match s {
                        $(stringify!($u) => Ok(Syscall::$u),)*
                        _ => Err(format!("unknown syscall token {s:?}")),
                    }
                }
            }
        }
    };
}

syscall_tokens! {
    unit {
        WqPost, PipeRead, RdsSendXmit, RdsLoopXmit, VmciQpCreate,
        VmciQpAttach, NbdAllocConfig, NbdIoctl, SbitmapClear, SbitmapGet,
        BhReplace, BhEvict, RingBufferRead, FilemapRead, UsbSubmitUrb,
        UsbComplete, UsbKillUrb,
    }
    arg {
        WqSetFilter { nwords }, TlsInit { fd }, SetSockOpt { fd },
        GetSockOpt { fd }, TlsErrAbort { fd }, TlsPollErr { fd },
        XskRegUmem { fd }, XskBind { fd }, XskPoll { fd },
        XskSendmsg { fd }, XskRx { fd }, PsockInit { fd },
        SockRecvmsg { fd }, SmcConnect { fd }, SmcAccept { fd },
        SmcFputWorker { fd }, GsmDlciAlloc { idx }, GsmDlciConfig { idx },
        VlanAdd { id }, VlanGet { id }, FdInstall { fd },
        FgetLight { fd }, UnixBind { fd }, UnixGetname { fd },
        RingBufferWrite { data }, FilemapWrite { val },
    }
}

/// The kernel entry point: dispatches one syscall on simulated CPU `t`.
pub fn dispatch(k: &Kctx, t: Tid, sc: Syscall) -> KResult<i64> {
    match sc {
        Syscall::WqSetFilter { nwords } => {
            subsys::watch_queue::watch_queue_set_filter(k, t, nwords)
        }
        Syscall::WqPost => subsys::watch_queue::post_one_notification(k, t),
        Syscall::PipeRead => subsys::watch_queue::pipe_read(k, t),
        Syscall::TlsInit { fd } => subsys::tls::tls_init(k, t, fd),
        Syscall::SetSockOpt { fd } => subsys::tls::sock_setsockopt(k, t, fd),
        Syscall::GetSockOpt { fd } => subsys::tls::sock_getsockopt(k, t, fd),
        Syscall::TlsErrAbort { fd } => subsys::tls::tls_err_abort(k, t, fd),
        Syscall::TlsPollErr { fd } => subsys::tls::tls_poll_err(k, t, fd),
        Syscall::RdsSendXmit => subsys::rds::rds_send_xmit(k, t),
        Syscall::RdsLoopXmit => subsys::rds::rds_loop_xmit(k, t),
        Syscall::XskRegUmem { fd } => subsys::xsk::xsk_reg_umem(k, t, fd),
        Syscall::XskBind { fd } => subsys::xsk::xsk_bind(k, t, fd),
        Syscall::XskPoll { fd } => subsys::xsk::xsk_poll(k, t, fd),
        Syscall::XskSendmsg { fd } => subsys::xsk::xsk_sendmsg(k, t, fd),
        Syscall::XskRx { fd } => subsys::xsk::xsk_rx(k, t, fd),
        Syscall::PsockInit { fd } => subsys::bpf_psock::psock_init(k, t, fd),
        Syscall::SockRecvmsg { fd } => subsys::bpf_psock::sock_recvmsg(k, t, fd),
        Syscall::SmcConnect { fd } => subsys::smc::smc_connect(k, t, fd),
        Syscall::SmcAccept { fd } => subsys::smc::smc_accept(k, t, fd),
        Syscall::SmcFputWorker { fd } => subsys::smc::smc_fput_worker(k, t, fd),
        Syscall::VmciQpCreate => subsys::vmci::vmci_qp_create(k, t),
        Syscall::VmciQpAttach => subsys::vmci::vmci_qp_attach(k, t),
        Syscall::GsmDlciAlloc { idx } => subsys::gsm::gsm_dlci_alloc(k, t, idx),
        Syscall::GsmDlciConfig { idx } => subsys::gsm::gsm_dlci_config(k, t, idx),
        Syscall::VlanAdd { id } => subsys::vlan::vlan_add(k, t, id),
        Syscall::VlanGet { id } => subsys::vlan::vlan_get(k, t, id),
        Syscall::FdInstall { fd } => subsys::fs_fdtable::fd_install(k, t, fd),
        Syscall::FgetLight { fd } => subsys::fs_fdtable::fget_light(k, t, fd),
        Syscall::NbdAllocConfig => subsys::nbd::nbd_alloc_config(k, t),
        Syscall::NbdIoctl => subsys::nbd::nbd_ioctl(k, t),
        Syscall::UnixBind { fd } => subsys::unix_sock::unix_bind(k, t, fd),
        Syscall::UnixGetname { fd } => subsys::unix_sock::unix_getname(k, t, fd),
        Syscall::SbitmapClear => subsys::sbitmap::sbitmap_queue_clear(k, t),
        Syscall::SbitmapGet => subsys::sbitmap::sbitmap_queue_get(k, t),
        Syscall::BhReplace => subsys::buffer_head::bh_replace(k, t),
        Syscall::BhEvict => subsys::buffer_head::bh_evict(k, t),
        Syscall::RingBufferWrite { data } => subsys::ring_buffer::ring_buffer_write(k, t, data),
        Syscall::RingBufferRead => subsys::ring_buffer::ring_buffer_read(k, t),
        Syscall::FilemapWrite { val } => subsys::filemap::filemap_write(k, t, val),
        Syscall::FilemapRead => subsys::filemap::filemap_read(k, t),
        Syscall::UsbSubmitUrb => subsys::usb::usb_submit_urb(k, t),
        Syscall::UsbComplete => subsys::usb::usb_complete(k, t),
        Syscall::UsbKillUrb => subsys::usb::usb_kill_urb(k, t),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugSwitches;
    use crate::exec::run_one;

    /// Every syscall, with benign arguments, for smoke testing.
    pub fn all_syscalls() -> Vec<Syscall> {
        vec![
            Syscall::WqSetFilter { nwords: 1 },
            Syscall::WqPost,
            Syscall::PipeRead,
            Syscall::TlsInit { fd: 0 },
            Syscall::SetSockOpt { fd: 0 },
            Syscall::GetSockOpt { fd: 0 },
            Syscall::TlsErrAbort { fd: 0 },
            Syscall::TlsPollErr { fd: 0 },
            Syscall::RdsSendXmit,
            Syscall::RdsLoopXmit,
            Syscall::XskRegUmem { fd: 0 },
            Syscall::XskBind { fd: 0 },
            Syscall::XskPoll { fd: 0 },
            Syscall::XskSendmsg { fd: 0 },
            Syscall::XskRx { fd: 0 },
            Syscall::PsockInit { fd: 0 },
            Syscall::SockRecvmsg { fd: 0 },
            Syscall::SmcConnect { fd: 0 },
            Syscall::SmcAccept { fd: 0 },
            Syscall::SmcFputWorker { fd: 0 },
            Syscall::VmciQpCreate,
            Syscall::VmciQpAttach,
            Syscall::GsmDlciAlloc { idx: 0 },
            Syscall::GsmDlciConfig { idx: 0 },
            Syscall::VlanAdd { id: 0 },
            Syscall::VlanGet { id: 0 },
            Syscall::FdInstall { fd: 0 },
            Syscall::FgetLight { fd: 0 },
            Syscall::NbdAllocConfig,
            Syscall::NbdIoctl,
            Syscall::UnixBind { fd: 0 },
            Syscall::UnixGetname { fd: 0 },
            Syscall::SbitmapClear,
            Syscall::SbitmapGet,
            Syscall::BhReplace,
            Syscall::BhEvict,
            Syscall::RingBufferWrite { data: 0xfeed },
            Syscall::RingBufferRead,
            Syscall::FilemapWrite { val: 7 },
            Syscall::FilemapRead,
            Syscall::UsbSubmitUrb,
            Syscall::UsbComplete,
            Syscall::UsbKillUrb,
        ]
    }

    #[test]
    fn every_syscall_runs_in_order_without_crashing() {
        // Even on the all-bugs kernel, sequential execution is benign: OOO
        // bugs need reordering or interleaving to manifest.
        for switches in [BugSwitches::none(), BugSwitches::all()] {
            let k = crate::kctx::Kctx::new(switches);
            for sc in all_syscalls() {
                run_one(&k, oemu::Tid(0), sc);
            }
            assert!(
                k.sink.is_empty(),
                "in-order execution must never crash: {:?}",
                k.sink.take()
            );
        }
    }

    #[test]
    fn every_syscall_runs_twice_idempotently() {
        let k = crate::kctx::Kctx::new(BugSwitches::all());
        for sc in all_syscalls().into_iter().chain(all_syscalls()) {
            run_one(&k, oemu::Tid(0), sc);
        }
        assert!(k.sink.is_empty());
    }

    #[test]
    fn tokens_roundtrip_for_every_syscall() {
        for sc in all_syscalls() {
            let tok = sc.to_token();
            assert!(
                !tok.contains(char::is_whitespace),
                "token {tok:?} must be whitespace-free"
            );
            assert_eq!(Syscall::from_token(&tok), Ok(sc), "{tok}");
        }
        assert_eq!(
            Syscall::from_token("TlsInit=3"),
            Ok(Syscall::TlsInit { fd: 3 })
        );
        assert!(Syscall::from_token("NoSuchCall").is_err());
        assert!(Syscall::from_token("TlsInit=abc").is_err());
        assert!(Syscall::from_token("WqPost=1").is_err());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Syscall::WqPost.name(), "post_one_notification");
        assert_eq!(Syscall::TlsInit { fd: 1 }.name(), "tls_init");
        assert_eq!(Syscall::SbitmapGet.name(), "sbitmap_queue_get");
    }
}
