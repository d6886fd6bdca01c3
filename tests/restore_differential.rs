//! Differential pin for the dirty-journal restore path.
//!
//! The undo journal's contract is *invisibility*: an incremental restore
//! must land the machine on state byte-identical to what the full
//! `clone_from` fallback produces — for any workload and any memory
//! model. These tests drive twin machines (one journaling, one with
//! `set_force_full_restore`) through identical randomized MTI batches and
//! compare [`Kctx::state_digest`] after every restore, then pin the
//! journal's edge cases: nested snapshots, restore-after-restore, and
//! `zero_range` over never-written words.
//!
//! Counter assertions ride along: the journaling twin must take *zero*
//! full-restore fallbacks (the benchmark's happy-path claim), while the
//! forced twin must take *only* fallbacks.
//!
//! [`Kctx::state_digest`]: kernelsim::Kctx::state_digest

use std::sync::Arc;

use kernelsim::{BugId, BugSwitches, Kctx, MemoryModel, PooledMachine};
use kutil::DetRng;
use oemu::{Iid, Tid};
use ozz::hints::calc_hints;
use ozz::mti::{build_mtis, Mti};
use ozz::profile_sti_on;
use ozz::sti::known_bug_sti;

/// Builds a deterministic MTI corpus for `bug` by profiling on `k`.
/// Profiling mutates the machine, so callers reset before comparing.
fn corpus(bug: BugId, k: &Arc<Kctx>, cap: usize) -> Vec<Mti> {
    let sti = known_bug_sti(bug).expect("table-4 sti");
    let traces = profile_sti_on(k, &sti);
    build_mtis(
        &sti,
        |i, j| calc_hints(&traces[i].events, &traces[j].events),
        cap,
    )
}

/// Boots the twins: `dirty` restores through the undo journal, `full` is
/// forced down the pre-journal `clone_from` path.
fn twins(model: MemoryModel) -> (PooledMachine, PooledMachine) {
    let dirty = PooledMachine::boot_with_model(BugSwitches::all(), model);
    let full = PooledMachine::boot_with_model(BugSwitches::all(), model);
    full.kctx().set_force_full_restore(true);
    (dirty, full)
}

#[test]
fn incremental_restore_is_byte_identical_across_models() {
    for (mi, model) in [MemoryModel::Tso, MemoryModel::Pso, MemoryModel::Arm]
        .into_iter()
        .enumerate()
    {
        let (dirty, full) = twins(model);
        let mtis = corpus(BugId::KnownWatchQueuePost, dirty.kctx(), 24);
        dirty.kctx().reset();
        full.kctx().reset();

        let snap_d = dirty.kctx().snapshot();
        let snap_f = full.kctx().snapshot();
        assert_eq!(
            dirty.kctx().state_digest(),
            full.kctx().state_digest(),
            "{model:?}: twins diverged before any restore"
        );

        let mut rng = DetRng::new(0xd1ff + 16 * mi as u64);
        for round in 0..6u32 {
            let batch = 1 + rng.gen_range(0..4u64);
            for _ in 0..batch {
                let pick = rng.gen_range(0..mtis.len() as u64) as usize;
                for m in [&dirty, &full] {
                    mtis[pick].run_setup(m.kctx());
                    mtis[pick].run_pair_pooled(m);
                }
            }
            dirty.kctx().restore(&snap_d);
            full.kctx().restore(&snap_f);
            assert_eq!(
                dirty.kctx().state_digest(),
                full.kctx().state_digest(),
                "{model:?} round {round}: incremental restore \
                 landed on different state than the full path"
            );
        }

        let d = dirty.kctx().engine.stats();
        assert_eq!(
            d.restore_full_fallbacks, 0,
            "{model:?}: the journaling twin fell back"
        );
        assert!(d.restores_incremental >= 6, "journal path never taken");
        assert!(d.restore_words_replayed > 0, "nothing was ever rolled back");
        let f = full.kctx().engine.stats();
        assert_eq!(
            f.restores_incremental, 0,
            "{model:?}: the forced twin journaled"
        );
        assert!(f.restore_full_fallbacks >= 6);
    }
}

#[test]
fn nested_snapshots_and_repeat_restores_match_the_full_path() {
    let (dirty, full) = twins(MemoryModel::Tso);
    let mtis = corpus(BugId::KnownWatchQueuePost, dirty.kctx(), 12);
    dirty.kctx().reset();
    full.kctx().reset();

    let run = |pick: usize| {
        for m in [&dirty, &full] {
            mtis[pick].run_setup(m.kctx());
            mtis[pick].run_pair_pooled(m);
        }
    };
    let compare = |what: &str| {
        assert_eq!(
            dirty.kctx().state_digest(),
            full.kctx().state_digest(),
            "twins diverged after {what}"
        );
    };

    // Outer snapshot, mutate, inner snapshot, mutate.
    let outer_d = dirty.kctx().snapshot();
    let outer_f = full.kctx().snapshot();
    run(0);
    let inner_d = dirty.kctx().snapshot();
    let inner_f = full.kctx().snapshot();
    run(1);

    // Inner restore, then restore-after-restore with nothing in between:
    // the journal frame stays armed and replays an empty delta.
    dirty.kctx().restore(&inner_d);
    full.kctx().restore(&inner_f);
    compare("the inner restore");
    dirty.kctx().restore(&inner_d);
    full.kctx().restore(&inner_f);
    compare("a repeat restore with an empty delta");

    // Mutate again and unwind through both nesting levels.
    run(2);
    dirty.kctx().restore(&inner_d);
    full.kctx().restore(&inner_f);
    compare("a second inner restore");
    dirty.kctx().restore(&outer_d);
    full.kctx().restore(&outer_f);
    compare("the outer restore through a popped inner frame");

    // The outer frame is still armed: mutating and restoring again stays
    // incremental and exact.
    run(3);
    dirty.kctx().restore(&outer_d);
    full.kctx().restore(&outer_f);
    compare("an outer restore-after-restore");

    assert_eq!(dirty.kctx().engine.stats().restore_full_fallbacks, 0);
    assert!(dirty.kctx().engine.stats().restores_incremental >= 5);
}

#[test]
fn zero_range_over_never_written_words_restores_exactly() {
    // `kzalloc` zeroes fresh object words with `zero_range`; slots never
    // written before journal nothing (removing an absent key is a no-op),
    // so a restore across an allocate-write-free storm must still be
    // byte-exact and cheap.
    let (dirty, full) = twins(MemoryModel::Tso);
    dirty.kctx().reset();
    full.kctx().reset();

    let snap_d = dirty.kctx().snapshot();
    let snap_f = full.kctx().snapshot();
    let baseline = dirty.kctx().state_digest();

    for m in [&dirty, &full] {
        let k = m.kctx();
        let mut addrs = Vec::new();
        for i in 0..8u64 {
            // Fresh heap objects: every word is zeroed by the allocator
            // without having ever been written.
            let a = k.kzalloc(64, "restore_differential");
            if i % 2 == 0 {
                k.write(Tid(0), Iid(900 + i), a + 8, 0xbeef ^ i).unwrap();
            }
            addrs.push(a);
        }
        for (i, a) in addrs.iter().enumerate() {
            if i % 3 == 0 {
                k.kfree(Tid(0), *a).unwrap();
            }
        }
    }
    assert_eq!(
        dirty.kctx().state_digest(),
        full.kctx().state_digest(),
        "twins diverged during the alloc/free storm"
    );

    dirty.kctx().restore(&snap_d);
    full.kctx().restore(&snap_f);
    assert_eq!(dirty.kctx().state_digest(), baseline);
    assert_eq!(full.kctx().state_digest(), baseline);
    assert_eq!(dirty.kctx().engine.stats().restore_full_fallbacks, 0);
}
