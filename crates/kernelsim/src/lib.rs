//! kernelsim: a miniature Linux-like kernel substrate for OZZ.
//!
//! This crate is the reproduction's stand-in for the instrumented Linux
//! kernel of the paper. It provides:
//!
//! - [`Kctx`]: one booted simulated machine — OEMU engine, slab allocator
//!   and KASAN/lockdep/oops oracles, optional custom scheduler, seeded-bug
//!   switches — exposing Linux-flavoured instrumented access helpers
//!   (`read`/`write`, `READ_ONCE`/`WRITE_ONCE`, `smp_*`, acquire/release,
//!   atomic bitops, `kzalloc`/`kfree`, indirect calls);
//! - [`subsys`]: one module per subsystem in which the paper found (Table
//!   3) or reproduced (Table 4) an OOO bug, each re-implemented from the
//!   cited upstream code/patches with the historical buggy variant behind a
//!   [`BugId`] switch;
//! - [`Syscall`]/[`dispatch`]: the system-call surface the fuzzer drives;
//! - [`run_sti`]/[`execute`]: STI (sequential) and MTI (concurrent,
//!   scheduler-controlled) execution with oops isolation. One MTI run is
//!   an [`ExecRequest`] (pair + live/record/replay drive) handed to the
//!   single dispatch point [`execute`] (or
//!   [`PooledMachine::execute`] for pooled machines).
//!
//! The design invariant, verified by the subsystem test suites: **in-order
//! execution never crashes, even with every bug switch enabled** — the
//! seeded bugs manifest only under memory-access reordering (plus the right
//! interleaving), exactly like their upstream counterparts on weakly-ordered
//! hardware.

mod bitops;
mod bugs;
mod exec;
mod kctx;
mod pool;
pub mod subsys;
mod syscalls;
pub mod testutil;

pub use bitops::{
    clear_bit, clear_bit_unlock, find_first_bit, set_bit, test_and_clear_bit, test_and_set_bit,
    test_bit,
};
pub use bugs::{BugId, BugSwitches, ReorderType};
pub use exec::{
    execute, run_concurrent_closures, run_one, run_sti, ExecDrive, ExecMode, ExecReply,
    ExecRequest, ReplayReport, RunOutcome,
};
pub use kctx::{
    FnFrame, Globals, KResult, Kctx, MachineSnapshot, Oops, EAGAIN, EBADF, EBUSY, ECRASH, EINVAL,
    MAX_CPUS,
};
pub use oemu::MemoryModel;
pub use pool::{MachinePool, PooledMachine, RestoreCounters};
pub use syscalls::{dispatch, Syscall};
