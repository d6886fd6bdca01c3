//! The triage table: what `Triager::triage` makes of every corpus bug under
//! every memory model, pinned byte-for-byte in `tests/golden/triage_table.txt`.
//!
//! One line per (model, bug): replayable events before and after
//! minimization, STI calls before and after, the FNV-1a fingerprint of the
//! minimized trace's text, the minimized replay's `digest_fnv`, the
//! candidate replays the minimization spent, and the bisection outcome on
//! the bug's single-bug build. The outcome columns are the triage contract;
//! `replays` is its cost, which only falls when triage stops repeating work.
//!
//! The test sweeps the three models itself (through
//! `record_reproducer_under`), so it ignores `OZZ_MEMMODEL`. Regenerate
//! after an *intentional* change with:
//!
//! ```text
//! OZZ_REGEN_GOLDEN=1 cargo test --test triage_table
//! ```

use std::fs;
use std::path::PathBuf;

use kernelsim::{BugId, BugSwitches};
use kutil::fnv1a64;
use oemu::MemoryModel;
use ozz::triage::{record_reproducer_under, BisectOutcome, MinimizeStats, Triager};

fn all_bugs() -> Vec<BugId> {
    BugId::NEW
        .iter()
        .chain(BugId::KNOWN.iter())
        .chain(BugId::EXTENDED.iter())
        .copied()
        .collect()
}

fn table_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/triage_table.txt")
}

fn regen_requested() -> bool {
    std::env::var("OZZ_REGEN_GOLDEN").is_ok_and(|v| v == "1")
}

fn bisect_column(outcome: &BisectOutcome) -> String {
    match outcome {
        BisectOutcome::Culprit(b) => format!("culprit {b:?}"),
        BisectOutcome::Inconclusive(why) => format!("inconclusive: {why}"),
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Triages every corpus bug under `model`; returns the table lines and the
/// minimization statistics in corpus order.
fn triage_model(model: MemoryModel) -> (Vec<String>, Vec<MinimizeStats>) {
    let mut lines = Vec::new();
    let mut stats = Vec::new();
    for bug in all_bugs() {
        let r = record_reproducer_under(bug, model)
            .unwrap_or_else(|| panic!("{bug} must record under {}", model.name()));
        let res = Triager::new(BugSwitches::only([bug])).triage(&r);
        let min = &res.minimized;
        let s = min.stats;
        lines.push(format!(
            "{:<4} {:<22} {:>3} -> {:<3} {:>2} -> {:<2} 0x{:016x} 0x{:016x} {:>3}  {}",
            model.name(),
            format!("{bug:?}"),
            s.events_before,
            s.events_after,
            s.calls_before,
            s.calls_after,
            fnv1a64(min.trace.to_text().as_bytes()),
            min.digest_fnv,
            s.replays,
            bisect_column(&res.bisect),
        ));
        stats.push(s);
    }
    (lines, stats)
}

#[test]
fn triage_table_is_stable_across_models() {
    let mut text = String::from(
        "# model bug events_before -> events_after calls_before -> calls_after \
         trace_fnv digest_fnv replays bisect\n",
    );
    for model in MemoryModel::ALL {
        let (lines, stats) = triage_model(model);
        for l in lines {
            text.push_str(&l);
            text.push('\n');
        }
        if model == MemoryModel::Tso {
            // The corpus medians the minimizer is known for: a recorded
            // schedule of 10 events shrinks to 2, an 80% reduction.
            let before = median(stats.iter().map(|s| s.events_before as f64).collect());
            let after = median(stats.iter().map(|s| s.events_after as f64).collect());
            let reduction = median(stats.iter().map(MinimizeStats::reduction_pct).collect());
            assert_eq!((before, after), (10.0, 2.0), "tso event medians");
            assert_eq!(reduction, 80.0, "tso median reduction");
        }
    }
    let path = table_path();
    if regen_requested() {
        fs::write(&path, &text).unwrap();
    }
    let pinned = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun with OZZ_REGEN_GOLDEN=1 to (re)generate the table",
            path.display()
        )
    });
    assert_eq!(
        pinned, text,
        "triage table drifted; regenerate if the change is intentional"
    );
}
