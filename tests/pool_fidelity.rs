//! Reset fidelity: pooled machines are indistinguishable from fresh boots.
//!
//! The machine pool's contract is that [`Kctx::reset`] rolls a machine back
//! to *exact* boot state, so a campaign run on pooled, reset machines must
//! produce byte-identical results to one that boots a fresh machine for
//! every test. This is
//! the reproduction's analog of the paper's in-vivo guarantee: reusing a
//! long-lived VM across tests must not change what the tests observe.
//!
//! These tests run whole campaigns both ways and compare everything the
//! fuzzer reports: the full `FoundBug` map rendering (titles, diagnoses,
//! tests-to-find, hint ranks, pairs), the campaign statistics, and the
//! covered instrumentation sites.

use kernelsim::{BugId, BugSwitches, MachinePool, PooledMachine};
use ozz::fuzzer::{FuzzConfig, Fuzzer};
use ozz::hints::calc_hints;
use ozz::mti::build_mtis;
use ozz::profile_sti_on;
use ozz::sti::known_bug_sti;

/// Runs a campaign to `budget` MTIs with or without machine reuse and
/// renders every observable output.
fn campaign_outputs(seed: u64, budget: u64, reuse_machines: bool) -> (String, String, String) {
    let mut fuzzer = Fuzzer::new(FuzzConfig {
        seed,
        bugs: BugSwitches::all(),
        reuse_machines,
        ..FuzzConfig::default()
    });
    while fuzzer.stats().mtis_run < budget {
        fuzzer.step();
    }
    (
        format!("{:#?}", fuzzer.found()),
        format!("{:?}", fuzzer.stats()),
        format!("{:?}", fuzzer.coverage_iids()),
    )
}

#[test]
fn reset_equals_fresh_boot() {
    for seed in [2024, 7] {
        let pooled = campaign_outputs(seed, 400, true);
        let fresh = campaign_outputs(seed, 400, false);
        assert!(!pooled.0.is_empty());
        assert_eq!(
            pooled.0, fresh.0,
            "seed {seed}: pooled campaign found different bugs than fresh boots"
        );
        assert_eq!(
            pooled.1, fresh.1,
            "seed {seed}: campaign statistics diverged"
        );
        assert_eq!(pooled.2, fresh.2, "seed {seed}: coverage diverged");
    }
}

#[test]
fn pooled_campaign_boots_once_per_switch_set() {
    let mut fuzzer = Fuzzer::new(FuzzConfig {
        seed: 2024,
        bugs: BugSwitches::all(),
        ..FuzzConfig::default()
    });
    while fuzzer.stats().mtis_run < 200 {
        fuzzer.step();
    }
    assert_eq!(
        fuzzer.machine_boots(),
        1,
        "one switch set, sequential steps: a single machine serves the campaign"
    );
}

#[test]
fn pool_boots_once_per_distinct_switch_set_and_shelves_precisely() {
    // Every single-bug build is a distinct shelf key: the pool must boot
    // exactly once per key, then serve every later checkout from the
    // shelf — and its idle count must account for each shelved machine.
    let keys: Vec<BugSwitches> = BugId::NEW
        .iter()
        .chain(BugId::KNOWN.iter())
        .chain(BugId::EXTENDED.iter())
        .map(|&b| BugSwitches::only([b]))
        .collect();
    let pool = MachinePool::new();

    let machines: Vec<_> = keys.iter().map(|k| pool.checkout(k)).collect();
    assert_eq!(pool.boots(), keys.len() as u64, "one boot per distinct key");
    assert_eq!(pool.idle(), 0, "all machines are checked out");
    for m in machines {
        pool.checkin(m);
    }
    assert_eq!(pool.idle(), keys.len(), "every machine is shelved");

    let machines: Vec<_> = keys.iter().map(|k| pool.checkout(k)).collect();
    assert_eq!(
        pool.boots(),
        keys.len() as u64,
        "a full second sweep is served without a single new boot"
    );
    assert_eq!(pool.idle(), 0);
    for m in machines {
        pool.checkin(m);
    }

    // Two simultaneous checkouts of the SAME key cannot share a machine:
    // the second one is a miss and boots.
    let a = pool.checkout(&keys[0]);
    let b = pool.checkout(&keys[0]);
    assert_eq!(pool.boots(), keys.len() as u64 + 1);
    pool.checkin(a);
    pool.checkin(b);
    assert_eq!(pool.idle(), keys.len() + 1);
}

#[test]
fn checkout_after_oops_is_byte_identical_to_fresh_boot() {
    // Crash a pooled machine (a real oops, not just dirty state), check it
    // back in, and check it out again: the machine the pool hands back
    // must be indistinguishable — full state digest — from a fresh boot.
    let bugs = BugSwitches::only([BugId::KnownWatchQueuePost]);
    let pool = MachinePool::new();
    let m = pool.checkout(&bugs);

    let sti = known_bug_sti(BugId::KnownWatchQueuePost).expect("table-4 sti");
    let traces = profile_sti_on(m.kctx(), &sti);
    let mtis = build_mtis(
        &sti,
        |i, j| calc_hints(&traces[i].events, &traces[j].events),
        32,
    );
    let mut crashed = false;
    for mti in &mtis {
        m.kctx().reset();
        mti.run_setup(m.kctx());
        let out = mti.run_pair_pooled(&m);
        if !out.crashes.is_empty() {
            crashed = true;
            break;
        }
    }
    assert!(
        crashed,
        "the directed watch_queue sweep must oops the machine"
    );

    pool.checkin(m);
    let again = pool.checkout(&bugs);
    assert_eq!(
        pool.boots(),
        1,
        "the oopsed machine is reused, not replaced"
    );
    let fresh = PooledMachine::boot(bugs);
    assert_eq!(
        again.kctx().state_digest(),
        fresh.kctx().state_digest(),
        "post-oops reset left residue a fresh boot does not have"
    );
}
