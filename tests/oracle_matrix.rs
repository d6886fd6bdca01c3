//! Oracle matrix: every seeded bug × {buggy, fixed}.
//!
//! For each of the 24 `BugId`s the simulated kernel can compile in, the
//! buggy variant must expose its expected symptom within a fixed budget —
//! a directed pair-×-hint sweep of the bug's repro STI (the §6.2
//! choreography), falling back to a short seeded campaign for bugs whose
//! trigger needs a longer setup prefix — and the fixed variant must NEVER
//! report it, under the exact same sweep. Two bugs have wrong-value
//! symptoms instead of crash titles (Table 4's `✓*` row and the filemap
//! data-loss bug); one (sbitmap) needs the §6.2 migration override.

use kernelsim::{BugId, BugSwitches, Kctx, MachinePool, Syscall};
use ozz::fuzzer::{FuzzConfig, Fuzzer};
use ozz::hints::calc_hints;
use ozz::mti::build_mtis;
use ozz::profile_sti_on;
use ozz::sti::directed_bug_sti;

/// Whether `bug`'s symptom — its crash title, or the wrong-value condition
/// for the two silent bugs — appears on a run outcome.
fn symptom_in(bug: BugId, mti: &ozz::mti::Mti, out: &kernelsim::RunOutcome) -> bool {
    match bug {
        BugId::KnownTlsErr => {
            let (_, b) = mti.pair();
            b == (Syscall::TlsPollErr { fd: 0 }) && out.ret_b == 0
        }
        BugId::ExtFilemap => out.ret_b == 0,
        _ => out.crashes.iter().any(|c| c.title == bug.expected_title()),
    }
}

/// The directed sweep: every pair × every hint (cap 32) of the bug's STI
/// on a `switches` kernel, with the §6.2 migration override where the
/// paper needed it. Returns whether the symptom appeared.
fn directed_sweep(bug: BugId, switches: &BugSwitches) -> bool {
    let sti = directed_bug_sti(bug);
    let migration = bug == BugId::KnownSbitmap;
    let configure = |k: &Kctx| {
        if migration {
            k.set_migration_override(true);
        }
    };
    let pool = MachinePool::new();
    let m = pool.checkout(switches);
    configure(m.kctx());
    let traces = profile_sti_on(m.kctx(), &sti);
    let mtis = build_mtis(
        &sti,
        |i, j| calc_hints(&traces[i].events, &traces[j].events),
        32,
    );
    for mti in mtis {
        let k = m.kctx();
        k.reset();
        configure(k);
        mti.run_setup(k);
        let out = mti.run_pair_pooled(&m);
        if symptom_in(bug, &mti, &out) {
            return true;
        }
    }
    false
}

/// Fallback for buggy kernels the directed sweep misses: a focused seeded
/// campaign (fixed seed, fixed budget) on the single-bug build.
fn campaign_finds(bug: BugId, budget: u64) -> bool {
    let mut f = Fuzzer::new(FuzzConfig {
        seed: 2024,
        bugs: BugSwitches::only([bug]),
        ..FuzzConfig::default()
    });
    f.run_until(budget, 1);
    f.found().contains_key(bug.expected_title())
}

fn all_bugs() -> Vec<BugId> {
    BugId::NEW
        .iter()
        .chain(BugId::KNOWN.iter())
        .chain(BugId::EXTENDED.iter())
        .copied()
        .collect()
}

#[test]
fn every_buggy_variant_exposes_its_symptom() {
    let mut missed = Vec::new();
    for bug in all_bugs() {
        let found = directed_sweep(bug, &BugSwitches::only([bug])) || campaign_finds(bug, 30_000);
        if !found {
            missed.push(bug);
        }
    }
    assert!(
        missed.is_empty(),
        "buggy kernels must expose their bugs within the budget; missed: {missed:?}"
    );
}

#[test]
fn directed_sweep_alone_exposes_the_golden_trio() {
    // One bug per reorder flavour (the golden-trace corpus) needs no
    // campaign fallback: the directed sweep alone surfaces its title.
    for bug in [
        BugId::TlsSkProt,
        BugId::RdsClearBit,
        BugId::KnownWatchQueuePost,
    ] {
        assert!(
            directed_sweep(bug, &BugSwitches::only([bug])),
            "{bug}: the directed sweep must expose the bug on its own"
        );
    }
}

#[test]
fn fixed_variant_never_reports_under_the_same_sweep() {
    let fixed = BugSwitches::none();
    for bug in all_bugs() {
        assert!(
            !directed_sweep(bug, &fixed),
            "{bug}: the patched kernel must survive the full directed sweep"
        );
    }
}

#[test]
fn fixed_variant_survives_a_fuzzing_campaign() {
    // Defense in depth over the per-bug sweep: a general campaign against
    // the fully patched kernel reports nothing at all.
    let mut f = Fuzzer::new(FuzzConfig {
        seed: 2024,
        bugs: BugSwitches::none(),
        ..FuzzConfig::default()
    });
    f.run_until(1_000, 1);
    assert!(
        f.found().is_empty(),
        "no false positives: {:?}",
        f.found().keys().collect::<Vec<_>>()
    );
}
