//! Test-support helpers: miniature versions of the OZZ forcing pipeline.
//!
//! These helpers let subsystem unit tests exercise the seeded bugs without
//! the full fuzzer: they profile a scenario on a *scratch* machine with the
//! same bug switches (instruction ids are stable across machines, exactly
//! like the paper's instruction addresses across reboots), then install the
//! maximal reordering the hypothetical-barrier test would choose — delay
//! every store but the last (Figure 5a), or version every load but the
//! first (Figure 5b) — and run the scenario for real.

use oemu::{AccessKind, Iid, Tid};

use crate::kctx::{KResult, Kctx, Oops};

/// Profiles `f` on a scratch machine and returns the iids of the store
/// accesses `t` executed, in program order (duplicates removed).
pub fn profile_store_iids<R>(k: &Kctx, t: Tid, f: impl Fn(&Kctx) -> KResult<R>) -> Vec<Iid> {
    profile_iids(k, t, AccessKind::Store, |_| Ok(()), f)
}

/// Profiles `f` on a scratch machine and returns the iids of the load
/// accesses `t` executed, in program order (duplicates removed).
pub fn profile_load_iids<R>(k: &Kctx, t: Tid, f: impl Fn(&Kctx) -> KResult<R>) -> Vec<Iid> {
    profile_iids(k, t, AccessKind::Load, |_| Ok(()), f)
}

/// [`profile_load_iids`] with a setup phase replayed on the scratch machine
/// first, so the profiled reader takes the path it will take for real.
pub fn profile_load_iids_with_setup<S, R>(
    k: &Kctx,
    t: Tid,
    setup: impl Fn(&Kctx) -> KResult<S>,
    f: impl Fn(&Kctx) -> KResult<R>,
) -> Vec<Iid> {
    profile_iids(k, t, AccessKind::Load, setup, f)
}

fn profile_iids<S, R>(
    k: &Kctx,
    t: Tid,
    kind: AccessKind,
    setup: impl Fn(&Kctx) -> KResult<S>,
    f: impl Fn(&Kctx) -> KResult<R>,
) -> Vec<Iid> {
    // The scratch machine must reach the same kernel state the real run
    // will profile in, so the setup syscalls run first (unprofiled) — the
    // analog of the STI prefix before the targeted pair.
    let scratch = Kctx::new(k.switches().clone());
    assert!(setup(&scratch).is_ok(), "setup crashed during profiling");
    scratch.engine.set_profiling(true);
    // The scenario must be benign in order; a scratch crash means the test
    // scenario itself is wrong.
    assert!(f(&scratch).is_ok(), "scenario crashed during profiling");
    let profile = scratch.engine.take_profile(t);
    let mut seen = std::collections::HashSet::new();
    profile
        .accesses()
        .filter(|a| a.kind == kind)
        .map(|a| a.iid)
        .filter(|iid| seen.insert(*iid))
        .collect()
}

/// The maximal hypothetical **store** barrier forcing: delays every store
/// `t` performs in `f` except the last (which, like `W(d)` in Figure 5a,
/// overtakes them), then runs `f` on the real machine.
pub fn delay_all_plain_stores_during<R>(
    k: &Kctx,
    t: Tid,
    f: impl Fn(&Kctx) -> KResult<R>,
) -> KResult<R> {
    let iids = profile_iids(k, t, AccessKind::Store, |_| Ok(()), &f);
    if let Some((_last, rest)) = iids.split_last() {
        for &iid in rest {
            k.engine.delay_store_at(t, iid);
        }
    }
    let r = f(k)?;
    k.engine.clear_controls(t);
    Ok(r)
}

/// The maximal hypothetical **load** barrier forcing: versions every load
/// `t` performs in `f` except the first (which, like `R(w)` in Figure 5b,
/// reads the updated value), then runs `f` on the real machine. `setup`
/// replays the scenario's preceding state changes on the scratch machine so
/// the profiled reader takes the same path it will take for real.
pub fn version_all_plain_loads_with_setup<S, R>(
    k: &Kctx,
    t: Tid,
    setup: impl Fn(&Kctx) -> KResult<S>,
    f: impl Fn(&Kctx) -> KResult<R>,
) -> KResult<R> {
    let iids = profile_iids(k, t, AccessKind::Load, setup, &f);
    if let Some((_first, rest)) = iids.split_first() {
        for &iid in rest {
            k.engine.read_old_value_at(t, iid);
        }
    }
    let r = f(k)?;
    k.engine.clear_controls(t);
    Ok(r)
}

/// Runs `f`, expecting a simulated kernel oops; returns the crash title.
///
/// # Panics
///
/// Panics if `f` completes without crashing.
pub fn expect_crash<R>(k: &Kctx, f: impl FnOnce(&Kctx) -> KResult<R>) -> String {
    match f(k) {
        Ok(_) => panic!("expected a kernel oops, but the scenario survived"),
        Err(Oops) => last_title(k).expect("oops must leave a report"),
    }
}

/// Runs `f`, expecting no oops and an empty report sink.
///
/// # Panics
///
/// Panics if `f` crashes or any oracle recorded a report.
pub fn expect_no_crash<R>(k: &Kctx, f: impl FnOnce(&Kctx) -> KResult<R>) {
    if f(k).is_err() {
        panic!(
            "unexpected kernel oops: {}",
            last_title(k).unwrap_or_default()
        );
    }
    assert!(
        k.sink.is_empty(),
        "oracles recorded a report in a scenario expected to be benign"
    );
}

/// The title of the report the latest oops recorded.
fn last_title(k: &Kctx) -> Option<String> {
    k.sink.snapshot().pop().map(|r| r.title)
}
