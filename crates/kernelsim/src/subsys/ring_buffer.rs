//! Tracing ring buffer: Extended #2 \[115\] — "Fix race while reader and
//! writer are on the same page".
//!
//! The writer reserves a slot, fills the event payload, and publishes by
//! advancing the commit cursor; the reader consumes entries strictly below
//! the cursor. The reverted fix is the barrier pair making the payload
//! visible before the cursor moves — without it, the reader on the same
//! page consumes an entry whose payload store is still in flight. The
//! kernel's own invariant (`event->type != 0` for committed events) is the
//! oracle here, standing in for the ring-buffer self-checks that caught the
//! upstream bug.

use std::sync::Arc;

use oemu::{iid, Tid};

use crate::bugs::BugId;
use crate::kctx::{KResult, Kctx, EAGAIN};

/// Ring capacity in events (power of two).
pub const RB_SIZE: u64 = 8;

// struct ring_buffer_per_cpu layout.
const RB_COMMIT: u64 = 0x00;
const RB_READER: u64 = 0x08;
const RB_EVENTS: u64 = 0x10;
const EVENT_STRIDE: u64 = 16;
// struct ring_buffer_event layout.
const EV_TYPE: u64 = 0x00;
const EV_DATA: u64 = 0x08;

/// Boot-time globals of the ring-buffer subsystem.
pub struct RingBufferGlobals {
    /// The per-CPU buffer the paths race on.
    pub rb: u64,
}

/// Boots the subsystem.
pub fn boot(k: &Arc<Kctx>) -> RingBufferGlobals {
    RingBufferGlobals {
        rb: k.kzalloc(RB_EVENTS + RB_SIZE * EVENT_STRIDE, "ring_buffer_per_cpu"),
    }
}

/// `ring_buffer_write`: reserve, fill, commit.
pub fn ring_buffer_write(k: &Kctx, t: Tid, data: u64) -> KResult<i64> {
    let _f = k.enter(t, "ring_buffer_write");
    let rb = k.globals().ring_buffer.rb;
    let commit = k.read(t, iid!(), rb + RB_COMMIT)?;
    let reader = k.read(t, iid!(), rb + RB_READER)?;
    if commit.wrapping_sub(reader) >= RB_SIZE {
        return Ok(EAGAIN); // ring full
    }
    let ev = rb + RB_EVENTS + (commit % RB_SIZE) * EVENT_STRIDE;
    k.write(t, iid!(), ev + EV_TYPE, 1)?; // TYPE_DATA: committed marker
    k.write(t, iid!(), ev + EV_DATA, data)?;
    if !k.bug(BugId::ExtRingBuffer) {
        // The [115] fix: the payload must be visible before the commit
        // cursor exposes the entry to a same-page reader.
        k.smp_wmb(t, iid!());
    }
    k.write(t, iid!(), rb + RB_COMMIT, commit + 1)?;
    Ok(0)
}

/// `ring_buffer_read`: consume the next committed entry.
pub fn ring_buffer_read(k: &Kctx, t: Tid) -> KResult<i64> {
    let _f = k.enter(t, "ring_buffer_read");
    let rb = k.globals().ring_buffer.rb;
    let commit = k.read(t, iid!(), rb + RB_COMMIT)?;
    let reader = k.read(t, iid!(), rb + RB_READER)?;
    if reader == commit {
        return Ok(EAGAIN); // empty
    }
    if !k.bug(BugId::ExtRingBuffer) {
        // Reader half of the pair: no speculation past the cursor check.
        k.smp_rmb(t, iid!());
    }
    let ev = rb + RB_EVENTS + (reader % RB_SIZE) * EVENT_STRIDE;
    let ty = k.read(t, iid!(), ev + EV_TYPE)?;
    let data = k.read(t, iid!(), ev + EV_DATA)?;
    // The ring buffer's self-check: an entry below the commit cursor must
    // carry a committed type. Consuming a zero type is the upstream crash.
    k.bug_on(t, ty == 0, "consumed uninitialised ring entry")?;
    k.write(t, iid!(), rb + RB_READER, reader + 1)?;
    Ok(data as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugSwitches;
    use crate::testutil::{delay_all_plain_stores_during, expect_crash, expect_no_crash};

    #[test]
    fn in_order_write_then_read_roundtrips() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        assert_eq!(ring_buffer_write(&k, t0, 0xfeed), Ok(0));
        k.syscall_exit(t0);
        assert_eq!(ring_buffer_read(&k, t1), Ok(0xfeed));
        assert!(k.sink.is_empty());
    }

    #[test]
    fn empty_and_full_conditions() {
        let k = Kctx::new(BugSwitches::none());
        let t = Tid(0);
        assert_eq!(ring_buffer_read(&k, t), Ok(EAGAIN), "empty ring");
        for i in 0..RB_SIZE {
            assert_eq!(ring_buffer_write(&k, t, i), Ok(0));
            k.syscall_exit(t);
        }
        assert_eq!(ring_buffer_write(&k, t, 99), Ok(EAGAIN), "full ring");
    }

    #[test]
    fn wraparound_preserves_fifo() {
        let k = Kctx::new(BugSwitches::none());
        let t = Tid(0);
        for round in 0..3 {
            for i in 0..RB_SIZE {
                let v = round * 100 + i;
                assert_eq!(ring_buffer_write(&k, t, v), Ok(0));
                k.syscall_exit(t);
                assert_eq!(ring_buffer_read(&k, t), Ok(v as i64));
                k.syscall_exit(t);
            }
        }
    }

    #[test]
    fn e2_commit_reorder_exposes_uninitialised_entry() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        let title = expect_crash(&k, |k| {
            delay_all_plain_stores_during(k, t0, |k| ring_buffer_write(k, t0, 0xfeed))?;
            ring_buffer_read(k, t1)
        });
        assert_eq!(
            title,
            "kernel BUG at ring_buffer_read: consumed uninitialised ring entry"
        );
    }

    #[test]
    fn e2_fixed_kernel_survives_same_forcing() {
        let k = Kctx::new(BugSwitches::none());
        let (t0, t1) = (Tid(0), Tid(1));
        expect_no_crash(&k, |k| {
            delay_all_plain_stores_during(k, t0, |k| ring_buffer_write(k, t0, 0xfeed))?;
            let r = ring_buffer_read(k, t1)?;
            assert!(r == 0xfeed || r == EAGAIN);
            Ok(())
        });
    }
}
