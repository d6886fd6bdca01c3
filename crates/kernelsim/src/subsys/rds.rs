//! RDS transmit path: Bug #1 (Figure 8) — the incorrect customised lock.
//!
//! `acquire_in_xmit`/`release_in_xmit` implement a try-lock with atomic bit
//! operations. The buggy variant releases with `clear_bit`, which carries
//! **no ordering**: the critical section's stores can drain from the store
//! buffer *after* the lock bit clears, so a second CPU acquires the lock and
//! observes a torn protected state. Here the protected invariant is
//! `xmit_sg < current message length`; the torn state pairs a freshly
//! switched (smaller) message with a stale scatter-gather cursor, and the
//! reader's fragment fetch walks off the end of the message — the paper's
//! `KASAN: slab-out-of-bounds Read in rds_loop_xmit`.
//!
//! The fix is `clear_bit_unlock`, whose release semantics flush the critical
//! section before the bit clears. Note that this bug contains **no data
//! race** — every access is inside the custom lock — which is why the paper
//! singles it out as undetectable by data-race detectors (§6.1, case study
//! 2).

use std::sync::Arc;

use oemu::{iid, Tid};

use crate::bitops::{clear_bit, clear_bit_unlock, test_and_set_bit};
use crate::bugs::BugId;
use crate::kctx::{KResult, Kctx, EAGAIN, EBUSY};

/// Bit index of the transmit lock in `cp_flags`.
pub const IN_XMIT: u32 = 2;

// struct rds_conn_path layout.
const CP_FLAGS: u64 = 0x00;
const CP_XMIT_SG: u64 = 0x08;
const CP_XMIT_MSG: u64 = 0x10;
// struct rds_message layout.
const MSG_LEN: u64 = 0x00;
const MSG_DATA: u64 = 0x08;

/// Fragment count of the large message.
pub const BIG_FRAGS: u64 = 8;
/// Fragment count of the small message.
pub const SMALL_FRAGS: u64 = 1;

/// Boot-time globals of the RDS subsystem.
pub struct RdsGlobals {
    /// The connection path.
    pub cp: u64,
    /// A queued message with [`BIG_FRAGS`] fragments.
    pub msg_big: u64,
    /// A queued message with [`SMALL_FRAGS`] fragment (its data array is
    /// exactly one word, so any stale cursor overruns it).
    pub msg_small: u64,
}

/// Boots the subsystem: the connection starts pointed at the big message
/// with the cursor at zero.
pub fn boot(k: &Arc<Kctx>) -> RdsGlobals {
    let cp = k.kzalloc(24, "rds_conn_path");
    let msg_big = alloc_msg(k, BIG_FRAGS);
    let msg_small = alloc_msg(k, SMALL_FRAGS);
    k.engine.raw_store(cp + CP_XMIT_MSG, msg_big);
    RdsGlobals {
        cp,
        msg_big,
        msg_small,
    }
}

fn alloc_msg(k: &Kctx, frags: u64) -> u64 {
    let msg = k.kzalloc(MSG_DATA + frags * 8, "rds_message");
    k.engine.raw_store(msg + MSG_LEN, frags);
    for i in 0..frags {
        k.engine.raw_store(msg + MSG_DATA + i * 8, 0xAA00 + i);
    }
    msg
}

/// Figure 8 left, `acquire_in_xmit` negated: whether the try-lock failed.
fn in_xmit_busy(k: &Kctx, me: Tid, cp: u64) -> KResult<bool> {
    test_and_set_bit(k, me, iid!(), IN_XMIT, cp + CP_FLAGS)
}

/// `release_in_xmit`: Figure 8 right — the seeded bug is using the
/// unordered `clear_bit` instead of `clear_bit_unlock`.
fn release_in_xmit(k: &Kctx, t: Tid, cp: u64) -> KResult<()> {
    if k.bug(BugId::RdsClearBit) {
        clear_bit(k, t, iid!(), IN_XMIT, cp + CP_FLAGS)
    } else {
        clear_bit_unlock(k, t, iid!(), IN_XMIT, cp + CP_FLAGS)
    }
}

/// `rds_send_xmit`: under the lock, requeue transmission onto the *other*
/// message — reset the cursor, then switch the message pointer.
pub fn rds_send_xmit(k: &Kctx, t: Tid) -> KResult<i64> {
    let _f = k.enter(t, "rds_send_xmit");
    let g = k.globals();
    let cp = g.rds.cp;
    if in_xmit_busy(k, t, cp)? {
        return Ok(EBUSY);
    }
    let cur = k.read(t, iid!(), cp + CP_XMIT_MSG)?;
    let next = if cur == g.rds.msg_big {
        g.rds.msg_small
    } else {
        g.rds.msg_big
    };
    // Invariant: `xmit_sg < msg->m_len`. The reset must be visible no later
    // than the message switch — which only the release-ordered unlock
    // guarantees.
    k.write(t, iid!(), cp + CP_XMIT_SG, 0)?;
    k.write(t, iid!(), cp + CP_XMIT_MSG, next)?;
    release_in_xmit(k, t, cp)?;
    Ok(0)
}

/// `rds_loop_xmit`: under the lock, transmit the next fragment of the
/// current message and advance the cursor (wrapping at the end).
pub fn rds_loop_xmit(k: &Kctx, t: Tid) -> KResult<i64> {
    let _f = k.enter(t, "rds_loop_xmit");
    let g = k.globals();
    let cp = g.rds.cp;
    if in_xmit_busy(k, t, cp)? {
        return Ok(EBUSY);
    }
    let msg = k.read(t, iid!(), cp + CP_XMIT_MSG)?;
    if msg == 0 {
        release_in_xmit(k, t, cp)?;
        return Ok(EAGAIN);
    }
    let sg = k.read(t, iid!(), cp + CP_XMIT_SG)?;
    // The loopback transport trusts the under-lock invariant and fetches
    // the fragment without a bounds check, like the upstream code did.
    let frag = k.read(t, iid!(), msg + MSG_DATA + sg * 8)?;
    let m_len = k.read(t, iid!(), msg + MSG_LEN)?;
    let next_sg = if sg + 1 >= m_len { 0 } else { sg + 1 };
    k.write(t, iid!(), cp + CP_XMIT_SG, next_sg)?;
    release_in_xmit(k, t, cp)?;
    Ok(frag as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugSwitches;
    use crate::kctx::Kctx;
    use crate::testutil::{expect_crash, expect_no_crash, profile_store_iids};

    #[test]
    fn in_order_xmit_cycles_through_messages() {
        let k = Kctx::new(BugSwitches::all());
        let t = Tid(0);
        // Advance the cursor on the big message, then requeue twice.
        assert_eq!(rds_loop_xmit(&k, t), Ok(0xAA00));
        assert_eq!(rds_loop_xmit(&k, t), Ok(0xAA01));
        assert_eq!(rds_send_xmit(&k, t), Ok(0)); // switch to small
        assert_eq!(rds_loop_xmit(&k, t), Ok(0xAA00));
        assert_eq!(rds_send_xmit(&k, t), Ok(0)); // back to big
        assert_eq!(rds_loop_xmit(&k, t), Ok(0xAA00));
        assert!(k.sink.is_empty());
    }

    #[test]
    fn lock_excludes_concurrent_entry() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        let cp = k.globals().rds.cp;
        assert!(!in_xmit_busy(&k, t0, cp).unwrap());
        assert_eq!(rds_loop_xmit(&k, t1), Ok(EBUSY));
        assert_eq!(rds_send_xmit(&k, t1), Ok(EBUSY));
        release_in_xmit(&k, t0, cp).unwrap();
        assert_eq!(rds_send_xmit(&k, t1), Ok(0));
    }

    /// Installs the bug-triggering forcing: delay the cursor reset inside
    /// `rds_send_xmit`'s critical section so the (relaxed) `clear_bit`
    /// overtakes it.
    fn delay_cursor_reset(k: &Kctx, t: Tid) {
        let iids = profile_store_iids(k, t, |k| rds_send_xmit(k, t));
        // Stores in program order: xmit_sg reset, xmit_msg switch. Delay
        // only the reset — the second-largest scheduling hint Algorithm 1
        // would produce for this group.
        k.engine.delay_store_at(t, iids[0]);
    }

    #[test]
    fn bug1_clear_bit_breaks_mutual_exclusion() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        // Pump the cursor to 1 on the big message.
        assert_eq!(rds_loop_xmit(&k, t0), Ok(0xAA00));
        k.syscall_exit(t0);
        delay_cursor_reset(&k, t0);
        let title = expect_crash(&k, |k| {
            // The requeue's cursor reset stays in t0's store buffer, but
            // clear_bit commits: the lock looks free with a torn state.
            rds_send_xmit(k, t0)?;
            // t1 acquires the "free" lock and fetches fragment 1 of the
            // one-fragment message.
            rds_loop_xmit(k, t1)
        });
        assert_eq!(title, "KASAN: slab-out-of-bounds Read in rds_loop_xmit");
    }

    #[test]
    fn bug1_clear_bit_unlock_fixes_it() {
        let k = Kctx::new(BugSwitches::none());
        let (t0, t1) = (Tid(0), Tid(1));
        assert_eq!(rds_loop_xmit(&k, t0), Ok(0xAA00));
        k.syscall_exit(t0);
        delay_cursor_reset(&k, t0);
        expect_no_crash(&k, |k| {
            rds_send_xmit(k, t0)?;
            rds_loop_xmit(k, t1)
        });
    }

    #[test]
    fn no_crash_without_cursor_progress() {
        // With the cursor still at zero, the torn state is within bounds of
        // the small message, so the same reordering is benign.
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        delay_cursor_reset(&k, t0);
        expect_no_crash(&k, |k| {
            rds_send_xmit(k, t0)?;
            rds_loop_xmit(k, t1)
        });
    }
}
