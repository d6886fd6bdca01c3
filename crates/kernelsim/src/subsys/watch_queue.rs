//! watch_queue + pipe: the paper's running example (Figure 1) and Bug #2.
//!
//! Two seeded bugs live here:
//!
//! - **Known #2 \[31\]** (Figure 1, S-S and L-L): `post_one_notification`
//!   initialises a ring-buffer entry and bumps `head`; `pipe_read` checks
//!   `head > tail` and dereferences the entry's `ops`. Without the
//!   `smp_wmb`/`smp_rmb` pair, either store-store reordering in the writer
//!   (order `#8 → #14 → #18 → #6`) or load-load reordering in the reader
//!   (order `#18 → #6 → #8 → #14`) exposes the uninitialised function
//!   pointer.
//! - **Bug #2** (Table 3, S-S): `watch_queue_set_filter` publishes the
//!   filter before its bitmap pointer is visible; the post path then hands
//!   a NULL bitmap to `_find_first_bit`.

use std::sync::Arc;

use oemu::{iid, Tid};

use crate::bitops::find_first_bit;
use crate::bugs::BugId;
use crate::kctx::{KResult, Kctx, EAGAIN};

/// Ring size (power of two).
pub const RING: u64 = 8;
/// Byte length recorded per posted notification.
pub const NOTE_LEN: u64 = 24;

// struct pipe_inode_info layout (words).
const PIPE_HEAD: u64 = 0x00;
const PIPE_TAIL: u64 = 0x08;
const PIPE_BUFS: u64 = 0x40;
// struct pipe_buffer layout (3 words per ring slot).
const BUF_LEN: u64 = 0x00;
const BUF_OPS: u64 = 0x08;
const BUF_STRIDE: u64 = 24;
// struct watch_queue layout.
const WQ_FILTER: u64 = 0x00;
// struct watch_filter layout.
const FILT_BITMAP: u64 = 0x00;
const FILT_NWORDS: u64 = 0x08;
// struct pipe_buf_operations layout.
const OPS_CONFIRM: u64 = 0x00;

/// Boot-time globals of the watch_queue subsystem.
pub struct WqGlobals {
    /// The pipe backing the watch queue.
    pub pipe: u64,
    /// The watch_queue object.
    pub wqueue: u64,
    /// The `wq_pipe_ops` operations table.
    pub wq_pipe_ops: u64,
}

/// Boots the subsystem: allocates the pipe, the queue, and the ops table.
pub fn boot(k: &Arc<Kctx>) -> WqGlobals {
    let pipe = k.kzalloc(PIPE_BUFS + RING * BUF_STRIDE, "pipe_inode_info");
    let wqueue = k.kzalloc(16, "watch_queue");
    let wq_pipe_ops = k.kzalloc(16, "pipe_buf_operations");
    let confirm = k.fns.register("wq_pipe_buf_confirm");
    k.engine.raw_store(wq_pipe_ops + OPS_CONFIRM, confirm);
    WqGlobals {
        pipe,
        wqueue,
        wq_pipe_ops,
    }
}

/// `watch_queue_set_filter`: installs a notification filter (Bug #2 writer).
pub fn watch_queue_set_filter(k: &Kctx, t: Tid, nwords: u64) -> KResult<i64> {
    let _f = k.enter(t, "watch_queue_set_filter");
    let g = k.globals();
    let nwords = nwords.clamp(1, 4);
    let filt = k.kzalloc(16, "watch_filter");
    let bitmap = k.kzalloc(nwords * 8, "filter_bitmap");
    // Accept type 2 events (arbitrary but non-empty).
    k.write(t, iid!(), bitmap, 0b100)?;
    k.write(t, iid!(), filt + FILT_BITMAP, bitmap)?;
    k.write(t, iid!(), filt + FILT_NWORDS, nwords)?;
    if !k.bug(BugId::WatchQueueFilter) {
        // Upstream fix: the filter contents must be visible before the
        // filter pointer is published.
        k.smp_wmb(t, iid!());
    }
    k.write_once(t, iid!(), g.wq.wqueue + WQ_FILTER, filt)?;
    Ok(0)
}

/// `post_one_notification`: Figure 1's left-hand side, preceded by the
/// filter check that crashes for Bug #2.
pub fn post_one_notification(k: &Kctx, t: Tid) -> KResult<i64> {
    let _f = k.enter(t, "post_one_notification");
    let g = k.globals();
    // Filter check (Bug #2 reader): an unpublished bitmap pointer reaches
    // `_find_first_bit` as NULL.
    let filt = k.read_once(t, iid!(), g.wq.wqueue + WQ_FILTER)?;
    if filt != 0 {
        let bitmap = k.read(t, iid!(), filt + FILT_BITMAP)?;
        let nwords = k.read(t, iid!(), filt + FILT_NWORDS)?;
        let first = find_first_bit(k, t, iid!(), bitmap, nwords.max(1))?;
        if first == nwords.max(1) * 64 {
            // Filter accepts nothing.
            return Ok(0);
        }
    }
    // Figure 1, lines 4-8.
    let pipe = g.wq.pipe;
    let head = k.read(t, iid!(), pipe + PIPE_HEAD)?;
    let tail = k.read(t, iid!(), pipe + PIPE_TAIL)?;
    if head.wrapping_sub(tail) >= RING {
        return Ok(EAGAIN); // ring full
    }
    let buf = pipe + PIPE_BUFS + (head % RING) * BUF_STRIDE;
    k.write(t, iid!(), buf + BUF_LEN, NOTE_LEN)?;
    k.write(t, iid!(), buf + BUF_OPS, g.wq.wq_pipe_ops)?;
    if !k.bug(BugId::KnownWatchQueuePost) {
        // Figure 1, line 7: complete the entry before `head` moves.
        k.smp_wmb(t, iid!());
    }
    k.write(t, iid!(), pipe + PIPE_HEAD, head + 1)?;
    Ok(0)
}

/// `pipe_read`: Figure 1's right-hand side.
pub fn pipe_read(k: &Kctx, t: Tid) -> KResult<i64> {
    let _f = k.enter(t, "pipe_read");
    let g = k.globals();
    let pipe = g.wq.pipe;
    // Figure 1, line 14.
    let head = k.read(t, iid!(), pipe + PIPE_HEAD)?;
    let tail = k.read(t, iid!(), pipe + PIPE_TAIL)?;
    if head == tail {
        return Ok(EAGAIN); // empty
    }
    if !k.bug(BugId::KnownWatchQueuePost) {
        // Figure 1, line 15: do not speculate entry reads past the
        // emptiness check.
        k.smp_rmb(t, iid!());
    }
    // Figure 1, lines 16-18.
    let buf = pipe + PIPE_BUFS + (tail % RING) * BUF_STRIDE;
    let len = k.read(t, iid!(), buf + BUF_LEN)?;
    let ops = k.read(t, iid!(), buf + BUF_OPS)?;
    let confirm = k.read(t, iid!(), ops + OPS_CONFIRM)?;
    k.call_fn(t, confirm)?;
    // A committed `ops` with a still-delayed `len` is equally fatal in the
    // real kernel (a zero-length read of a posted notification).
    k.bug_on(t, len == 0, "uninitialised pipe_buffer length")?;
    k.write(t, iid!(), pipe + PIPE_TAIL, tail + 1)?;
    Ok(len as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugSwitches;
    use crate::kctx::Kctx;
    use crate::testutil::{expect_crash, expect_no_crash};
    use oemu::Tid;

    #[test]
    fn in_order_post_then_read_works() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        assert_eq!(post_one_notification(&k, t0), Ok(0));
        k.syscall_exit(t0);
        assert_eq!(pipe_read(&k, t1), Ok(NOTE_LEN as i64));
        assert!(k.sink.is_empty());
    }

    #[test]
    fn empty_ring_returns_eagain() {
        let k = Kctx::new(BugSwitches::none());
        assert_eq!(pipe_read(&k, Tid(0)), Ok(EAGAIN));
    }

    #[test]
    fn ring_full_returns_eagain() {
        let k = Kctx::new(BugSwitches::none());
        let t = Tid(0);
        for _ in 0..RING {
            assert_eq!(post_one_notification(&k, t), Ok(0));
        }
        assert_eq!(post_one_notification(&k, t), Ok(EAGAIN));
    }

    #[test]
    fn figure1_store_store_reorder_crashes_buggy_kernel() {
        // Order #8 -> #14 -> #18 -> #6: delay the entry-init stores, let
        // `head += 1` commit, then read from another CPU.
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        let title = expect_crash(&k, |k| {
            crate::testutil::delay_all_plain_stores_during(k, t0, |k| {
                post_one_notification(k, t0)
            })?;
            pipe_read(k, t1)
        });
        assert_eq!(
            title,
            "BUG: unable to handle kernel NULL pointer dereference in pipe_read"
        );
    }

    #[test]
    fn figure1_fixed_kernel_survives_same_forcing() {
        // With smp_wmb in place the delayed stores flush at the barrier, so
        // the same control choices cannot expose the entry.
        let k = Kctx::new(BugSwitches::none());
        let (t0, t1) = (Tid(0), Tid(1));
        expect_no_crash(&k, |k| {
            crate::testutil::delay_all_plain_stores_during(k, t0, |k| {
                post_one_notification(k, t0)
            })?;
            let r = pipe_read(k, t1)?;
            assert!(r == NOTE_LEN as i64 || r == EAGAIN);
            Ok(())
        });
    }

    #[test]
    fn figure1_load_load_reorder_crashes_buggy_kernel() {
        // Order #18 -> #6 -> #8 -> #14: the reader's entry loads are
        // versioned so they read pre-publication values even though `head`
        // reads the updated value.
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        let title = expect_crash(&k, |k| {
            post_one_notification(k, t0)?;
            k.syscall_exit(t0);
            crate::testutil::version_all_plain_loads_with_setup(
                k,
                t1,
                |k| {
                    post_one_notification(k, t0)?;
                    k.syscall_exit(t0);
                    Ok(())
                },
                |k| pipe_read(k, t1),
            )
        });
        assert_eq!(
            title,
            "BUG: unable to handle kernel NULL pointer dereference in pipe_read"
        );
    }

    #[test]
    fn bug2_filter_publish_reorder_crashes_in_find_first_bit() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        let title = expect_crash(&k, |k| {
            crate::testutil::delay_all_plain_stores_during(k, t0, |k| {
                watch_queue_set_filter(k, t0, 2)
            })?;
            post_one_notification(k, t1)
        });
        assert_eq!(
            title,
            "BUG: unable to handle kernel NULL pointer dereference in _find_first_bit"
        );
    }

    #[test]
    fn bug2_fixed_kernel_survives() {
        let k = Kctx::new(BugSwitches::none());
        let (t0, t1) = (Tid(0), Tid(1));
        expect_no_crash(&k, |k| {
            crate::testutil::delay_all_plain_stores_during(k, t0, |k| {
                watch_queue_set_filter(k, t0, 2)
            })?;
            post_one_notification(k, t1)
        });
    }

    #[test]
    fn filter_accepting_event_still_posts() {
        let k = Kctx::new(BugSwitches::none());
        let t = Tid(0);
        watch_queue_set_filter(&k, t, 1).unwrap();
        k.syscall_exit(t);
        assert_eq!(post_one_notification(&k, t), Ok(0));
        assert_eq!(pipe_read(&k, t), Ok(NOTE_LEN as i64));
    }
}
