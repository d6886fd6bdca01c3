//! Linux-style atomic bit operations over simulated memory.
//!
//! The ordering semantics follow `Documentation/atomic_bitops.txt`:
//! `test_and_set_bit` is fully ordered on success, `clear_bit` is entirely
//! unordered (relaxed), and `clear_bit_unlock` has release semantics. The
//! difference between the last two is exactly the paper's Bug #1 / Figure 8:
//! releasing a custom bit-lock with `clear_bit` lets the critical section's
//! stores drain *after* the lock bit clears.

use oemu::{Iid, RmwOrder, Tid};

use crate::kctx::{KResult, Kctx};

/// `test_and_set_bit(nr, addr)` — fully ordered; returns the old bit.
pub fn test_and_set_bit(k: &Kctx, t: Tid, iid: Iid, nr: u32, addr: u64) -> KResult<bool> {
    let mask = 1u64 << nr;
    let old = k.rmw(t, iid, addr, |v| v | mask, RmwOrder::Full)?;
    Ok(old & mask != 0)
}

/// `test_and_clear_bit(nr, addr)` — fully ordered; returns the old bit.
pub fn test_and_clear_bit(k: &Kctx, t: Tid, iid: Iid, nr: u32, addr: u64) -> KResult<bool> {
    let mask = 1u64 << nr;
    let old = k.rmw(t, iid, addr, |v| v & !mask, RmwOrder::Full)?;
    Ok(old & mask != 0)
}

/// `set_bit(nr, addr)` — atomic but unordered.
pub fn set_bit(k: &Kctx, t: Tid, iid: Iid, nr: u32, addr: u64) -> KResult<()> {
    let mask = 1u64 << nr;
    k.rmw(t, iid, addr, |v| v | mask, RmwOrder::Relaxed)?;
    Ok(())
}

/// `clear_bit(nr, addr)` — atomic but **unordered**: it does not wait for
/// earlier stores, which is why it must never release a lock.
pub fn clear_bit(k: &Kctx, t: Tid, iid: Iid, nr: u32, addr: u64) -> KResult<()> {
    let mask = 1u64 << nr;
    k.rmw(t, iid, addr, |v| v & !mask, RmwOrder::Relaxed)?;
    Ok(())
}

/// `clear_bit_unlock(nr, addr)` — release semantics: every store issued
/// before it is visible before the bit clears. The correct way to release a
/// bit lock (the Figure 8 fix).
pub fn clear_bit_unlock(k: &Kctx, t: Tid, iid: Iid, nr: u32, addr: u64) -> KResult<()> {
    let mask = 1u64 << nr;
    k.rmw(t, iid, addr, |v| v & !mask, RmwOrder::Release)?;
    Ok(())
}

/// `test_bit(nr, addr)` — a `READ_ONCE` of the containing word.
pub fn test_bit(k: &Kctx, t: Tid, iid: Iid, nr: u32, addr: u64) -> KResult<bool> {
    Ok(k.read_once(t, iid, addr)? & (1u64 << nr) != 0)
}

/// `_find_first_bit(bitmap, nwords)` — scans a bitmap for the first set
/// bit; returns `nwords * 64` when none is set. Faults (through the KASAN
/// check inside [`Kctx::read`]) when `bitmap` is null or bogus — the crash
/// site of the paper's Bug #2.
pub fn find_first_bit(k: &Kctx, t: Tid, iid: Iid, bitmap: u64, nwords: u64) -> KResult<u64> {
    let _f = k.enter(t, "_find_first_bit");
    for w in 0..nwords {
        let word = k.read(t, iid, bitmap + w * 8)?;
        if word != 0 {
            return Ok(w * 64 + word.trailing_zeros() as u64);
        }
    }
    Ok(nwords * 64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugSwitches;
    use oemu::iid;

    fn fresh() -> (std::sync::Arc<Kctx>, Tid, u64) {
        let k = Kctx::new(BugSwitches::none());
        let addr = k.kzalloc(8, "flags");
        (k, Tid(0), addr)
    }

    #[test]
    fn test_and_set_acts_as_trylock() {
        let (k, t, addr) = fresh();
        assert!(
            !test_and_set_bit(&k, t, iid!(), 2, addr).unwrap(),
            "first wins"
        );
        assert!(
            test_and_set_bit(&k, t, iid!(), 2, addr).unwrap(),
            "second loses"
        );
        assert!(test_bit(&k, t, iid!(), 2, addr).unwrap());
        clear_bit(&k, t, iid!(), 2, addr).unwrap();
        assert!(!test_bit(&k, t, iid!(), 2, addr).unwrap());
    }

    #[test]
    fn set_and_clear_are_per_bit() {
        let (k, t, addr) = fresh();
        set_bit(&k, t, iid!(), 0, addr).unwrap();
        set_bit(&k, t, iid!(), 5, addr).unwrap();
        clear_bit(&k, t, iid!(), 0, addr).unwrap();
        assert!(!test_bit(&k, t, iid!(), 0, addr).unwrap());
        assert!(test_bit(&k, t, iid!(), 5, addr).unwrap());
    }

    #[test]
    fn test_and_clear_returns_old() {
        let (k, t, addr) = fresh();
        set_bit(&k, t, iid!(), 1, addr).unwrap();
        assert!(test_and_clear_bit(&k, t, iid!(), 1, addr).unwrap());
        assert!(!test_and_clear_bit(&k, t, iid!(), 1, addr).unwrap());
    }

    #[test]
    fn clear_bit_does_not_flush_delayed_stores() {
        let (k, t, addr) = fresh();
        let data = k.kzalloc(8, "data");
        let istore = iid!();
        k.engine.delay_store_at(t, istore);
        set_bit(&k, t, iid!(), 0, addr).unwrap();
        k.write(t, istore, data, 1).unwrap(); // delayed
        clear_bit(&k, t, iid!(), 0, addr).unwrap();
        assert_eq!(k.engine.raw_load(data), 0, "clear_bit is unordered");
        assert!(!test_bit(&k, t, iid!(), 0, addr).unwrap());
    }

    #[test]
    fn clear_bit_unlock_flushes_delayed_stores() {
        let (k, t, addr) = fresh();
        let data = k.kzalloc(8, "data");
        let istore = iid!();
        k.engine.delay_store_at(t, istore);
        set_bit(&k, t, iid!(), 0, addr).unwrap();
        k.write(t, istore, data, 1).unwrap(); // delayed
        clear_bit_unlock(&k, t, iid!(), 0, addr).unwrap();
        assert_eq!(k.engine.raw_load(data), 1, "unlock has release semantics");
    }

    #[test]
    fn find_first_bit_scans_words() {
        let (k, t, _) = fresh();
        let bm = k.kzalloc(24, "bitmap");
        assert_eq!(
            find_first_bit(&k, t, iid!(), bm, 3),
            Ok(192),
            "empty bitmap"
        );
        k.write(t, iid!(), bm + 8, 1 << 9).unwrap();
        assert_eq!(find_first_bit(&k, t, iid!(), bm, 3), Ok(64 + 9));
    }

    #[test]
    fn find_first_bit_on_null_bitmap_oopses() {
        let (k, t, _) = fresh();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            find_first_bit(&k, t, iid!(), 0, 1).unwrap();
        }));
        assert!(r.is_err());
        let reports = k.sink.take();
        assert_eq!(
            reports[0].title,
            "BUG: unable to handle kernel NULL pointer dereference in _find_first_bit"
        );
    }
}
