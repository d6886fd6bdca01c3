//! fs/buffer: Extended #1 \[82\] — the 2007 "buffer: memorder fix" and the
//! double-free consequence the paper's §3 uses to motivate in-vivo testing.
//!
//! A page's buffer-head slot is protected by a bit lock. The replace path
//! frees the old head, installs a fresh one, and drops the lock; the
//! historical bug released the lock with an unordered bit clear, so the
//! install store could still be in the store buffer when another CPU
//! acquired the lock — which then freed the *stale* (already freed)
//! pointer. Only an oracle that knows the allocator's runtime state can
//! classify that second `kfree` as a double free, which is exactly the
//! §3 argument against in-vitro trace analysis.

use std::sync::Arc;

use oemu::{iid, Tid};

use crate::bitops::{clear_bit, clear_bit_unlock, test_and_set_bit};
use crate::bugs::BugId;
use crate::kctx::{KResult, Kctx, EBUSY};

/// Bit index of the buffer lock in the page flags.
pub const BH_LOCK: u32 = 4;

// struct page (buffer view) layout.
const PAGE_FLAGS: u64 = 0x00;
const PAGE_BH: u64 = 0x08;
// struct buffer_head layout.
const BH_DATA: u64 = 0x00;

/// Boot-time globals of the buffer subsystem.
pub struct BufferGlobals {
    /// The page whose buffer-head slot the paths race on.
    pub page: u64,
}

/// Boots the subsystem: the page starts with a live buffer head attached.
pub fn boot(k: &Arc<Kctx>) -> BufferGlobals {
    let page = k.kzalloc(16, "page");
    let bh = k.kmem.kzalloc(16, "buffer_head");
    k.engine.raw_store(bh + BH_DATA, 0xb0);
    k.engine.raw_store(page + PAGE_BH, bh);
    BufferGlobals { page }
}

fn page_buffers_busy(k: &Kctx, me: Tid, page: u64) -> KResult<bool> {
    test_and_set_bit(k, me, iid!(), BH_LOCK, page + PAGE_FLAGS)
}

fn unlock_page_buffers(k: &Kctx, t: Tid, page: u64) -> KResult<()> {
    if k.bug(BugId::ExtBufferDoubleFree) {
        // The pre-2007 code: an unordered release.
        clear_bit(k, t, iid!(), BH_LOCK, page + PAGE_FLAGS)
    } else {
        // Piggin's memorder fix: release semantics on the unlock.
        clear_bit_unlock(k, t, iid!(), BH_LOCK, page + PAGE_FLAGS)
    }
}

/// `bh_replace`: under the lock, free the current buffer head and install
/// a fresh one (the writeback path's re-allocation).
pub fn bh_replace(k: &Kctx, t: Tid) -> KResult<i64> {
    let _f = k.enter(t, "bh_replace");
    let page = k.globals().buffer.page;
    if page_buffers_busy(k, t, page)? {
        return Ok(EBUSY);
    }
    let old = k.read(t, iid!(), page + PAGE_BH)?;
    if old != 0 {
        k.kfree(t, old)?;
    }
    let fresh = k.kzalloc(16, "buffer_head");
    k.write(t, iid!(), fresh + BH_DATA, 0xb1)?;
    // Invariant: page->bh never points at a freed head outside the lock.
    // Only a release-ordered unlock upholds it.
    k.write(t, iid!(), page + PAGE_BH, fresh)?;
    unlock_page_buffers(k, t, page)?;
    Ok(0)
}

/// `bh_evict`: under the lock, detach and free the page's buffer head
/// (the memory-pressure path). The crash site of Extended #1: with the
/// stale pointer still visible, this frees an already-freed head.
pub fn bh_evict(k: &Kctx, t: Tid) -> KResult<i64> {
    let _f = k.enter(t, "bh_evict");
    let page = k.globals().buffer.page;
    if page_buffers_busy(k, t, page)? {
        return Ok(EBUSY);
    }
    let bh = k.read(t, iid!(), page + PAGE_BH)?;
    if bh != 0 {
        k.kfree(t, bh)?;
        k.write(t, iid!(), page + PAGE_BH, 0)?;
    }
    unlock_page_buffers(k, t, page)?;
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugSwitches;
    use crate::testutil::{expect_crash, expect_no_crash, profile_store_iids};

    #[test]
    fn in_order_replace_then_evict_works() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        assert_eq!(bh_replace(&k, t0), Ok(0));
        k.syscall_exit(t0);
        assert_eq!(bh_evict(&k, t1), Ok(0));
        k.syscall_exit(t1);
        assert_eq!(bh_evict(&k, t1), Ok(0), "empty slot is a no-op");
        assert!(k.sink.is_empty());
    }

    #[test]
    fn lock_excludes_concurrent_paths() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        let page = k.globals().buffer.page;
        assert!(!page_buffers_busy(&k, t0, page).unwrap());
        assert_eq!(bh_replace(&k, t1), Ok(EBUSY));
        assert_eq!(bh_evict(&k, t1), Ok(EBUSY));
        unlock_page_buffers(&k, t0, page).unwrap();
        assert_eq!(bh_evict(&k, t1), Ok(0));
    }

    /// Delays the install store inside `bh_replace`'s critical section so
    /// the unordered bit clear overtakes it.
    fn delay_install(k: &Kctx, t: Tid) {
        let iids = profile_store_iids(k, t, |k| bh_replace(k, t));
        // Stores in program order: fresh->data, page->bh install.
        k.engine.delay_store_at(t, iids[1]);
    }

    #[test]
    fn e1_unordered_unlock_is_a_double_free() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        delay_install(&k, t0);
        let title = expect_crash(&k, |k| {
            bh_replace(k, t0)?;
            // The stale page->bh (freed inside t0's critical section) is
            // what t1's evict observes and frees again.
            bh_evict(k, t1)
        });
        assert_eq!(title, "KASAN: double-free in bh_evict");
    }

    #[test]
    fn e1_memorder_fix_survives_same_forcing() {
        let k = Kctx::new(BugSwitches::none());
        let (t0, t1) = (Tid(0), Tid(1));
        delay_install(&k, t0);
        expect_no_crash(&k, |k| {
            bh_replace(k, t0)?;
            bh_evict(k, t1)
        });
    }
}
