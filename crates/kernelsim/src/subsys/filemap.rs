//! mm/filemap: Extended #3 \[62\] — "avoid buffered read/write race to read
//! inconsistent data".
//!
//! The buffered-write path fills the page and then marks it up-to-date;
//! the lockless read fast path checks the flag and copies the data.
//! Without the barrier pair, the flag can become visible before the data —
//! the reader returns stale bytes for a page the kernel claims is
//! up-to-date. Like the paper's Table 4 #8 (`✓*`), the symptom is a
//! **wrong value**, not a crash: no oracle fires, and only a harness
//! checking syscall results can see it.

use std::sync::Arc;

use oemu::{iid, Tid};

use crate::bugs::BugId;
use crate::kctx::{KResult, Kctx, EAGAIN};

// struct page (filemap view) layout.
const PAGE_UPTODATE: u64 = 0x00;
const PAGE_DATA: u64 = 0x08;

/// Boot-time globals of the filemap subsystem.
pub struct FilemapGlobals {
    /// The page cache page the paths race on.
    pub page: u64,
}

/// Boots the subsystem.
pub fn boot(k: &Arc<Kctx>) -> FilemapGlobals {
    FilemapGlobals {
        page: k.kzalloc(16, "page(filemap)"),
    }
}

/// `filemap_write`: fill the page, then publish it up-to-date.
pub fn filemap_write(k: &Kctx, t: Tid, val: u64) -> KResult<i64> {
    let _f = k.enter(t, "filemap_write");
    let page = k.globals().filemap.page;
    let val = if val == 0 { 0x5eed } else { val };
    k.write(t, iid!(), page + PAGE_DATA, val)?;
    if !k.bug(BugId::ExtFilemap) {
        // The [62] fix: data before the uptodate flag.
        k.smp_wmb(t, iid!());
    }
    k.write_once(t, iid!(), page + PAGE_UPTODATE, 1)?;
    Ok(0)
}

/// `filemap_read`: the lockless fast path — returns the page data if the
/// page is up-to-date, `EAGAIN` otherwise. Returning 0 *with* the flag set
/// is the inconsistent-data symptom.
pub fn filemap_read(k: &Kctx, t: Tid) -> KResult<i64> {
    let _f = k.enter(t, "filemap_read");
    let page = k.globals().filemap.page;
    let uptodate = k.read_once(t, iid!(), page + PAGE_UPTODATE)?;
    if uptodate == 0 {
        return Ok(EAGAIN);
    }
    k.read(t, iid!(), page + PAGE_DATA).map(|v| v as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugSwitches;
    use crate::testutil::delay_all_plain_stores_during;

    #[test]
    fn in_order_write_then_read_returns_data() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        assert_eq!(filemap_write(&k, t0, 0x1234), Ok(0));
        k.syscall_exit(t0);
        assert_eq!(filemap_read(&k, t1), Ok(0x1234));
        assert!(k.sink.is_empty());
    }

    #[test]
    fn read_before_write_is_eagain() {
        let k = Kctx::new(BugSwitches::all());
        assert_eq!(filemap_read(&k, Tid(0)), Ok(EAGAIN));
    }

    #[test]
    fn zero_writes_are_canonicalised() {
        // A data value of zero would be indistinguishable from "stale";
        // the writer never stores it, keeping the wrong-value detection
        // unambiguous.
        let k = Kctx::new(BugSwitches::none());
        let t = Tid(0);
        filemap_write(&k, t, 0).unwrap();
        k.syscall_exit(t);
        assert_eq!(filemap_read(&k, t), Ok(0x5eed));
    }

    #[test]
    fn e3_reorder_returns_inconsistent_data() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        delay_all_plain_stores_during(&k, t0, |k| filemap_write(k, t0, 0x1234)).unwrap();
        assert_eq!(
            filemap_read(&k, t1).unwrap(),
            0,
            "uptodate observed with stale data — the wrong-value symptom"
        );
        assert!(k.sink.is_empty(), "no oracle fires for wrong values");
    }

    #[test]
    fn e3_fixed_kernel_returns_consistent_data() {
        let k = Kctx::new(BugSwitches::none());
        let (t0, t1) = (Tid(0), Tid(1));
        delay_all_plain_stores_during(&k, t0, |k| filemap_write(k, t0, 0x1234)).unwrap();
        let r = filemap_read(&k, t1).unwrap();
        assert!(r == 0x1234 || r == EAGAIN, "never inconsistent: {r}");
    }
}
