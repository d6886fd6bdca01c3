//! GSM 0710 multiplexer: Bug #11 (L-L) — `NULL pointer dereference in
//! gsm_dlci_config`.
//!
//! The mux publishes DLCI channel objects into a table with correct *store*
//! ordering, but the buggy reader fetches the table entry with a plain load
//! and then dereferences the channel's config pointer. On a weakly-ordered
//! machine (and under OEMU's versioned loads) the dependent config load can
//! be satisfied with the pre-initialisation value even though the table
//! entry itself reads as published — the Alpha-permitted address-dependency
//! reordering of LKMM Case 6. The fix annotates the table read with
//! `READ_ONCE`, which OEMU honours as an implied load barrier (§3.2).

use std::sync::Arc;

use oemu::{iid, Tid};

use crate::bugs::BugId;
use crate::kctx::{KResult, Kctx, EBADF, EBUSY, EINVAL};

/// Number of DLCI slots on the mux.
pub const NUM_DLCI: u64 = 4;

// struct gsm_mux layout: the dlci table starts at offset 0.
const GSM_DLCI: u64 = 0x00;
// struct gsm_dlci layout.
const DLCI_CONFIG: u64 = 0x00;
const DLCI_STATE: u64 = 0x08;
// struct gsm_config layout.
const CFG_K: u64 = 0x00;

/// Boot-time globals of the GSM subsystem.
pub struct GsmGlobals {
    /// The mux object (holding the DLCI table).
    pub gsm: u64,
}

/// Boots the subsystem.
pub fn boot(k: &Arc<Kctx>) -> GsmGlobals {
    GsmGlobals {
        gsm: k.kzalloc(NUM_DLCI * 8, "gsm_mux"),
    }
}

/// `gsm_dlci_alloc`: creates a channel and publishes it in the table
/// (writer side — correctly ordered; the bug is in the reader).
pub fn gsm_dlci_alloc(k: &Kctx, t: Tid, idx: u64) -> KResult<i64> {
    if idx >= NUM_DLCI {
        return Ok(EBADF);
    }
    let _f = k.enter(t, "gsm_dlci_alloc");
    let g = k.globals();
    let slot = g.gsm.gsm + GSM_DLCI + idx * 8;
    if k.read(t, iid!(), slot)? != 0 {
        return Ok(EBUSY);
    }
    let dlci = k.kzalloc(16, "gsm_dlci");
    let cfg = k.kzalloc(8, "gsm_config");
    k.write(t, iid!(), cfg + CFG_K, 3)?;
    k.write(t, iid!(), dlci + DLCI_CONFIG, cfg)?;
    k.write(t, iid!(), dlci + DLCI_STATE, 1)?;
    // Writer-side publication is correct: release-ordered table store.
    k.store_release(t, iid!(), slot, dlci)?;
    Ok(0)
}

/// `gsm_dlci_config`: reads a channel's configuration (reader of Bug #11).
pub fn gsm_dlci_config(k: &Kctx, t: Tid, idx: u64) -> KResult<i64> {
    if idx >= NUM_DLCI {
        return Ok(EBADF);
    }
    let _f = k.enter(t, "gsm_dlci_config");
    let g = k.globals();
    let slot = g.gsm.gsm + GSM_DLCI + idx * 8;
    let dlci = if k.bug(BugId::GsmDlci) {
        // Buggy: a plain load does not order the dependent config load.
        k.read(t, iid!(), slot)?
    } else {
        // Fixed: READ_ONCE implies a load barrier in OEMU (LKMM Case 6).
        k.read_once(t, iid!(), slot)?
    };
    if dlci == 0 {
        return Ok(EINVAL); // channel not open
    }
    let cfg = k.read(t, iid!(), dlci + DLCI_CONFIG)?;
    let kval = k.read(t, iid!(), cfg + CFG_K)?;
    Ok(kval as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugSwitches;
    use crate::testutil::{expect_crash, expect_no_crash, version_all_plain_loads_with_setup};

    #[test]
    fn in_order_alloc_then_config_works() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        assert_eq!(gsm_dlci_alloc(&k, t0, 1), Ok(0));
        k.syscall_exit(t0);
        assert_eq!(gsm_dlci_config(&k, t1, 1), Ok(3));
        assert!(k.sink.is_empty());
    }

    #[test]
    fn config_of_closed_channel_is_einval() {
        let k = Kctx::new(BugSwitches::all());
        assert_eq!(gsm_dlci_config(&k, Tid(0), 2), Ok(EINVAL));
    }

    #[test]
    fn out_of_range_slot_rejected() {
        let k = Kctx::new(BugSwitches::all());
        assert_eq!(gsm_dlci_alloc(&k, Tid(0), 9), Ok(EBADF));
        assert_eq!(gsm_dlci_config(&k, Tid(0), 9), Ok(EBADF));
    }

    #[test]
    fn double_alloc_rejected() {
        let k = Kctx::new(BugSwitches::none());
        let t = Tid(0);
        assert_eq!(gsm_dlci_alloc(&k, t, 0), Ok(0));
        k.syscall_exit(t);
        assert_eq!(gsm_dlci_alloc(&k, t, 0), Ok(EBUSY));
    }

    #[test]
    fn bug11_load_reorder_crashes_config() {
        let k = Kctx::new(BugSwitches::all());
        let (t0, t1) = (Tid(0), Tid(1));
        let title = expect_crash(&k, |k| {
            gsm_dlci_alloc(k, t0, 1)?;
            k.syscall_exit(t0);
            version_all_plain_loads_with_setup(
                k,
                t1,
                |k| {
                    gsm_dlci_alloc(k, t0, 1)?;
                    k.syscall_exit(t0);
                    Ok(())
                },
                |k| gsm_dlci_config(k, t1, 1),
            )
        });
        assert_eq!(
            title,
            "BUG: unable to handle kernel NULL pointer dereference in gsm_dlci_config"
        );
    }

    #[test]
    fn bug11_fixed_reader_survives_same_forcing() {
        // READ_ONCE on the table entry closes the versioning window, so the
        // dependent load cannot observe the pre-initialisation value.
        let k = Kctx::new(BugSwitches::none());
        let (t0, t1) = (Tid(0), Tid(1));
        expect_no_crash(&k, |k| {
            gsm_dlci_alloc(k, t0, 1)?;
            k.syscall_exit(t0);
            version_all_plain_loads_with_setup(
                k,
                t1,
                |k| {
                    gsm_dlci_alloc(k, t0, 1)?;
                    k.syscall_exit(t0);
                    Ok(())
                },
                |k| {
                    let r = gsm_dlci_config(k, t1, 1)?;
                    assert!(r == 3 || r == EINVAL);
                    Ok(())
                },
            )
        });
    }
}
