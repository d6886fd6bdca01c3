//! sbitmap: Known #6 \[60\] (S-S) — the bug OZZ **cannot** reproduce (§6.2).
//!
//! "sbitmap: order READ/WRITE freed instance and setting clear bit": the
//! wake-up path frees the old per-slot instance, installs a fresh one, and
//! clears the slot's allocation bit. Without the write barrier the bit
//! clear can become visible before the new instance pointer, so a
//! concurrent allocator reuses the slot and reads the *freed* instance.
//!
//! The trap — and the reason the paper reports this row as not reproduced —
//! is that the slot is reached through a **per-CPU** hint. OZZ pins each
//! concurrent thread to its own CPU before running syscalls, so the writer
//! and the reader always resolve different per-CPU slots and never collide;
//! in the deployed kernel the collision needed a thread *migration* after
//! the per-CPU address was taken. [`Kctx::set_migration_override`] applies
//! the paper's manual kernel modification (force both threads to CPU 0's
//! slot), after which OZZ reproduces the bug — exactly the verification
//! experiment described in §6.2.

use std::sync::Arc;

use oemu::{iid, Tid};

use crate::bitops::{test_and_set_bit, test_bit};
use crate::bugs::BugId;
use crate::kctx::{KResult, Kctx, EAGAIN, MAX_CPUS};

// struct sbitmap_queue layout.
const SBQ_WORD: u64 = 0x00;
const SBQ_SLOTS: u64 = 0x08; // per-CPU instance pointers, one word per CPU

/// Boot-time globals of the sbitmap subsystem.
pub struct SbitmapGlobals {
    /// The sbitmap queue (bit word + per-CPU slot array).
    pub sbq: u64,
}

/// Boots the subsystem: every per-CPU slot starts with a live instance and
/// its allocation bit set (slot busy).
pub fn boot(k: &Arc<Kctx>) -> SbitmapGlobals {
    let sbq = k.kzalloc(SBQ_SLOTS + (MAX_CPUS as u64) * 8, "sbitmap_queue");
    let mut word = 0u64;
    for cpu in 0..MAX_CPUS as u64 {
        let inst = k.kmem.kzalloc(16, "sbq_wait_state");
        k.engine.raw_store(inst, 0x5b + cpu);
        k.engine.raw_store(sbq + SBQ_SLOTS + cpu * 8, inst);
        word |= 1 << cpu;
    }
    k.engine.raw_store(sbq + SBQ_WORD, word);
    SbitmapGlobals { sbq }
}

/// `sbitmap_queue_clear` (the `sbq_wake_up` path): retire the current
/// instance of this CPU's slot, install a fresh one, and clear the
/// allocation bit (Known #6 writer).
pub fn sbitmap_queue_clear(k: &Kctx, t: Tid) -> KResult<i64> {
    let _f = k.enter(t, "sbitmap_queue_clear");
    let g = k.globals();
    let sbq = g.sbitmap.sbq;
    let cpu = k.cpu_of(t) as u64;
    let slot = sbq + SBQ_SLOTS + cpu * 8;
    if !test_bit(k, t, iid!(), cpu as u32, sbq + SBQ_WORD)? {
        return Ok(EAGAIN); // slot is already free
    }
    let old = k.read(t, iid!(), slot)?;
    if old != 0 {
        k.kfree(t, old)?;
    }
    let fresh = k.kzalloc(16, "sbq_wait_state");
    k.write(t, iid!(), fresh, 0x6c)?;
    k.write(t, iid!(), slot, fresh)?;
    if !k.bug(BugId::KnownSbitmap) {
        // The [60] fix: the new instance must be visible before the bit
        // clear makes the slot allocatable.
        k.smp_wmb(t, iid!());
    }
    // clear_bit is atomic but unordered — the same shape as Figure 8.
    crate::bitops::clear_bit(k, t, iid!(), cpu as u32, sbq + SBQ_WORD)?;
    Ok(0)
}

/// `sbitmap_queue_get`: allocate this CPU's slot and read its instance
/// (Known #6 reader).
pub fn sbitmap_queue_get(k: &Kctx, t: Tid) -> KResult<i64> {
    let _f = k.enter(t, "sbitmap_queue_get");
    let g = k.globals();
    let sbq = g.sbitmap.sbq;
    let cpu = k.cpu_of(t) as u64;
    if test_and_set_bit(k, t, iid!(), cpu as u32, sbq + SBQ_WORD)? {
        return Ok(EAGAIN); // slot busy
    }
    let inst = k.read(t, iid!(), sbq + SBQ_SLOTS + cpu * 8)?;
    // Touch the instance: a stale pointer here is a read of a freed object.
    let tag = k.read(t, iid!(), inst)?;
    Ok(tag as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugSwitches;
    use crate::testutil::{expect_crash, expect_no_crash, profile_store_iids};

    #[test]
    fn in_order_clear_then_get_works() {
        let k = Kctx::new(BugSwitches::all());
        let t = Tid(0);
        assert_eq!(sbitmap_queue_clear(&k, t), Ok(0));
        k.syscall_exit(t);
        assert_eq!(sbitmap_queue_get(&k, t), Ok(0x6c));
        assert!(k.sink.is_empty());
    }

    #[test]
    fn get_of_busy_slot_is_eagain() {
        let k = Kctx::new(BugSwitches::all());
        assert_eq!(sbitmap_queue_get(&k, Tid(0)), Ok(EAGAIN), "boot slots busy");
    }

    #[test]
    fn clear_of_free_slot_is_eagain() {
        let k = Kctx::new(BugSwitches::all());
        let t = Tid(0);
        sbitmap_queue_clear(&k, t).unwrap();
        k.syscall_exit(t);
        assert_eq!(sbitmap_queue_clear(&k, t), Ok(EAGAIN));
    }

    /// Delays the writer's instance-install store, letting the relaxed
    /// clear_bit overtake it — the Known #6 reordering.
    fn delay_instance_install(k: &Kctx, t: Tid) {
        let iids = profile_store_iids(k, t, |k| sbitmap_queue_clear(k, t));
        // Stores in program order: fresh-instance tag, slot install.
        k.engine.delay_store_at(t, iids[1]);
    }

    #[test]
    fn known6_not_reproducible_under_cpu_pinning() {
        // OZZ pins thread 0 to CPU 0 and thread 1 to CPU 1: the writer
        // retires slot 0 while the reader allocates slot 1, so the
        // reordering never reaches shared state — the ✗ row of Table 4.
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        delay_instance_install(&k, t0);
        expect_no_crash(&k, |k| {
            sbitmap_queue_clear(k, t0)?;
            let r = sbitmap_queue_get(k, t1)?;
            assert_eq!(r, EAGAIN, "cpu1's slot is still busy from boot");
            Ok(())
        });
    }

    #[test]
    fn known6_reproducible_with_migration_override() {
        // §6.2's verification: force both threads onto CPU 0's per-CPU
        // slot (the manual kernel modification), and the UAF manifests.
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        k.set_migration_override(true);
        delay_instance_install(&k, t0);
        let title = expect_crash(&k, |k| {
            sbitmap_queue_clear(k, t0)?;
            sbitmap_queue_get(k, t1)
        });
        assert_eq!(title, "KASAN: use-after-free Read in sbitmap_queue_get");
    }

    #[test]
    fn known6_fixed_kernel_survives_even_with_migration() {
        let k = Kctx::new(BugSwitches::none());
        let (t0, t1) = (Tid(0), Tid(1));
        k.set_migration_override(true);
        delay_instance_install(&k, t0);
        expect_no_crash(&k, |k| {
            sbitmap_queue_clear(k, t0)?;
            let r = sbitmap_queue_get(k, t1)?;
            assert_eq!(r, 0x6c);
            Ok(())
        });
    }
}
