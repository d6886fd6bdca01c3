//! File-descriptor table: Known #5 \[30\] (L-L) — "fs: use acquire ordering
//! in `__fget_light`".
//!
//! `fd_install` publishes a fully-constructed `struct file` into the fd
//! table with release ordering. The lockless fast path `__fget_light` must
//! read the table slot with *acquire* ordering; with a plain load, the
//! dependent reads of the file's fields (here `f_op`) can be satisfied
//! before the slot read, observing the pre-construction state.

use std::sync::Arc;

use oemu::{iid, Tid};

use crate::bugs::BugId;
use crate::kctx::{KResult, Kctx, EBADF, EBUSY};

/// Number of fd slots.
pub const NUM_FDS: u64 = 4;

// struct fdtable layout: fd array at offset 0.
const FDT_FD: u64 = 0x00;
// struct file layout.
const FILE_F_OP: u64 = 0x00;
const FILE_F_MODE: u64 = 0x08;

/// Boot-time globals of the fs subsystem.
pub struct FsGlobals {
    /// The fd table.
    pub fdt: u64,
}

/// Boots the subsystem.
pub fn boot(k: &Arc<Kctx>) -> FsGlobals {
    k.fns.register("generic_file_read_iter");
    FsGlobals {
        fdt: k.kzalloc(NUM_FDS * 8, "fdtable"),
    }
}

/// `fd_install`: publishes a new file into the table (writer side —
/// correctly release-ordered; the bug is in the reader).
pub fn fd_install(k: &Kctx, t: Tid, fd: u64) -> KResult<i64> {
    if fd >= NUM_FDS {
        return Ok(EBADF);
    }
    let _f = k.enter(t, "fd_install");
    let g = k.globals();
    let slot = g.fs.fdt + FDT_FD + fd * 8;
    if k.read(t, iid!(), slot)? != 0 {
        return Ok(EBUSY);
    }
    let file = k.kzalloc(16, "file");
    k.write(
        t,
        iid!(),
        file + FILE_F_OP,
        k.fns
            .lookup("generic_file_read_iter")
            .expect("registered at boot"),
    )?;
    k.write(t, iid!(), file + FILE_F_MODE, 0o666)?;
    k.store_release(t, iid!(), slot, file)?;
    Ok(0)
}

/// `__fget_light` + a read through the file ops (Known #5 reader).
pub fn fget_light(k: &Kctx, t: Tid, fd: u64) -> KResult<i64> {
    if fd >= NUM_FDS {
        return Ok(EBADF);
    }
    let _f = k.enter(t, "__fget_light");
    let g = k.globals();
    let slot = g.fs.fdt + FDT_FD + fd * 8;
    let file = if k.bug(BugId::KnownFget) {
        // Buggy: plain load; dependent field loads may be satisfied early.
        k.read(t, iid!(), slot)?
    } else {
        // The [30] fix: acquire ordering on the slot read.
        k.load_acquire(t, iid!(), slot)?
    };
    if file == 0 {
        return Ok(EBADF); // empty slot
    }
    let f_op = k.read(t, iid!(), file + FILE_F_OP)?;
    k.call_fn(t, f_op)?;
    k.read(t, iid!(), file + FILE_F_MODE).map(|v| v as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugSwitches;
    use crate::testutil::{expect_crash, expect_no_crash, version_all_plain_loads_with_setup};

    #[test]
    fn in_order_install_then_fget_works() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        assert_eq!(fd_install(&k, t0, 1), Ok(0));
        k.syscall_exit(t0);
        assert_eq!(fget_light(&k, t1, 1), Ok(0o666));
        assert!(k.sink.is_empty());
    }

    #[test]
    fn empty_slot_is_ebadf() {
        let k = Kctx::new(BugSwitches::all());
        assert_eq!(fget_light(&k, Tid(0), 0), Ok(EBADF));
        assert_eq!(fget_light(&k, Tid(0), 99), Ok(EBADF));
    }

    #[test]
    fn duplicate_install_rejected() {
        let k = Kctx::new(BugSwitches::none());
        let t = Tid(0);
        assert_eq!(fd_install(&k, t, 0), Ok(0));
        k.syscall_exit(t);
        assert_eq!(fd_install(&k, t, 0), Ok(EBUSY));
    }

    #[test]
    fn known5_load_reorder_crashes_fget() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        let title = expect_crash(&k, |k| {
            fd_install(k, t0, 1)?;
            k.syscall_exit(t0);
            version_all_plain_loads_with_setup(
                k,
                t1,
                |k| {
                    fd_install(k, t0, 1)?;
                    k.syscall_exit(t0);
                    Ok(())
                },
                |k| fget_light(k, t1, 1),
            )
        });
        assert_eq!(
            title,
            "BUG: unable to handle kernel NULL pointer dereference in __fget_light"
        );
    }

    #[test]
    fn known5_acquire_fix_survives_same_forcing() {
        let k = Kctx::new(BugSwitches::none());
        let (t0, t1) = (Tid(0), Tid(1));
        expect_no_crash(&k, |k| {
            fd_install(k, t0, 1)?;
            k.syscall_exit(t0);
            version_all_plain_loads_with_setup(
                k,
                t1,
                |k| {
                    fd_install(k, t0, 1)?;
                    k.syscall_exit(t0);
                    Ok(())
                },
                |k| {
                    let r = fget_light(k, t1, 1)?;
                    assert!(r == 0o666 || r == EBADF);
                    Ok(())
                },
            )
        });
    }
}
