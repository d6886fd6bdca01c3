//! The simulated kernel's subsystems.
//!
//! Each module re-implements, from the upstream patches and code the paper
//! cites, the minimal slice of a Linux subsystem in which OZZ found or
//! reproduced an out-of-order bug. Every shared-memory access goes through
//! the instrumented [`Kctx`](crate::kctx::Kctx) helpers, so OEMU can delay
//! stores and version loads exactly as it would with the paper's LLVM
//! instrumentation. Each historical bug is guarded by a
//! [`BugId`](crate::bugs::BugId) switch selecting the pre-fix variant.
//!
//! An access that can fault returns a [`KResult`](crate::kctx::KResult),
//! and kernel code propagates the oops with `?`, so a dead task runs no
//! further kernel code. Instruction ids are source positions: `iid!()`
//! records file, line and column, and the golden traces pin them. An edit
//! that moves an instrumented access changes every pinned trace and digest
//! that contains it, which is why `in_xmit_busy` and `page_buffers_busy`
//! call their CPU `me` (the name keeps their test-and-set at its column).

pub mod bpf_psock;
pub mod buffer_head;
pub mod filemap;
pub mod fs_fdtable;
pub mod gsm;
pub mod nbd;
pub mod rds;
pub mod ring_buffer;
pub mod sbitmap;
pub mod smc;
pub mod tls;
pub mod unix_sock;
pub mod usb;
pub mod vlan;
pub mod vmci;
pub mod watch_queue;
pub mod xsk;
