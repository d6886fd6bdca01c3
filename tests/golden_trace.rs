//! Golden-trace corpus: pinned schedule recordings for three seeded bugs.
//!
//! Each file under `tests/golden/` holds a serialized [`ScheduleTrace`]
//! that crashes its bug, plus the pinned verdict (crash title) and the
//! FNV-1a fingerprint of the post-run [`state_digest`]. The replay test
//! parses the file, re-runs the pair slaved to the trace on a fresh
//! kernel, and asserts the identical verdict and digest — so any engine
//! change that silently alters replay semantics fails loudly here.
//!
//! Regenerate after an *intentional* semantic change with:
//!
//! ```text
//! OZZ_REGEN_GOLDEN=1 cargo test --test golden_trace
//! ```
//!
//! [`state_digest`]: kernelsim::Kctx::state_digest

use std::fs;
use std::path::PathBuf;

use kernelsim::{BugId, BugSwitches, Syscall};
use kutil::fnv1a64;
use oemu::{MemoryModel, ScheduleTrace};
use ozz::hints::calc_hints;
use ozz::mti::build_mtis;
use ozz::profile_sti;
use ozz::repro::replay_trace;
use ozz::sti::{known_bug_sti, Sti};
use ozz::triage::{record_reproducer_under, Triager};

/// The corpus: (file stem, bug, directed STI). The STI is part of the
/// test, not the golden file — traces only make sense against the exact
/// syscall pair they were recorded from.
fn corpus() -> Vec<(&'static str, BugId, Sti)> {
    use Syscall::*;
    vec![
        (
            "tls",
            BugId::TlsSkProt,
            Sti {
                calls: vec![
                    TlsInit { fd: 0 },
                    SetSockOpt { fd: 0 },
                    GetSockOpt { fd: 0 },
                ],
            },
        ),
        (
            "rds",
            BugId::RdsClearBit,
            Sti {
                calls: vec![RdsLoopXmit, RdsSendXmit, RdsLoopXmit],
            },
        ),
        (
            "watch_queue",
            BugId::KnownWatchQueuePost,
            known_bug_sti(BugId::KnownWatchQueuePost).expect("table-4 sti"),
        ),
    ]
}

fn golden_path(stem: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{stem}.trace"))
}

struct Golden {
    pair: (usize, usize),
    title: String,
    digest_fnv: u64,
    trace: ScheduleTrace,
}

fn parse_golden(text: &str) -> Golden {
    let (header, trace) = text
        .split_once("--- trace ---")
        .expect("golden file must contain a '--- trace ---' separator");
    let mut pair = None;
    let mut title = None;
    let mut digest_fnv = None;
    for line in header.lines().filter(|l| !l.trim().is_empty()) {
        let (key, val) = line.split_once('=').expect("header lines are key=value");
        match key.trim() {
            "bug" => {} // informational; the corpus table is authoritative
            "pair" => {
                let (i, j) = val.trim().split_once(' ').expect("pair is 'i j'");
                pair = Some((i.parse().unwrap(), j.parse().unwrap()));
            }
            "title" => title = Some(val.trim().to_string()),
            "digest_fnv" => {
                let v = val.trim().strip_prefix("0x").unwrap_or(val.trim());
                digest_fnv = Some(u64::from_str_radix(v, 16).unwrap());
            }
            other => panic!("unknown golden header key '{other}'"),
        }
    }
    Golden {
        pair: pair.expect("pair header"),
        title: title.expect("title header"),
        digest_fnv: digest_fnv.expect("digest_fnv header"),
        trace: ScheduleTrace::parse(trace).expect("golden trace parses"),
    }
}

/// Record a crashing trace for `bug` on its directed STI: the first
/// pair × hint whose recorded run reports the expected title.
fn record_crashing(bug: BugId, sti: &Sti) -> (usize, usize, String, u64, ScheduleTrace) {
    let bugs = BugSwitches::only([bug]);
    let traces = profile_sti(sti, bugs.clone());
    let mtis = build_mtis(
        sti,
        |i, j| calc_hints(&traces[i].events, &traces[j].events),
        32,
    );
    for mti in mtis {
        let rec = mti.run_recorded(bugs.clone());
        if rec
            .outcome
            .crashes
            .iter()
            .any(|c| c.title == bug.expected_title())
        {
            return (
                mti.i,
                mti.j,
                bug.expected_title().to_string(),
                fnv1a64(rec.digest.as_bytes()),
                rec.trace,
            );
        }
    }
    panic!("{bug}: no crashing schedule found for the directed STI");
}

fn regen_requested() -> bool {
    std::env::var("OZZ_REGEN_GOLDEN").map_or(false, |v| v == "1")
}

#[test]
fn golden_traces_replay_to_pinned_verdict_and_digest() {
    for (stem, bug, sti) in corpus() {
        let path = golden_path(stem);
        if regen_requested() {
            let (i, j, title, fnv, trace) = record_crashing(bug, &sti);
            let text = format!(
                "bug={bug}\npair={i} {j}\ntitle={title}\ndigest_fnv=0x{fnv:016x}\n--- trace ---\n{}",
                trace.to_text()
            );
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(&path, text).unwrap();
        }
        let text = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e}\nrun with OZZ_REGEN_GOLDEN=1 to (re)generate the corpus",
                path.display()
            )
        });
        let g = parse_golden(&text);

        let r = replay_trace(BugSwitches::only([bug]), &sti, g.pair.0, g.pair.1, &g.trace);
        assert!(
            !r.diverged,
            "{stem}: golden trace no longer replays faithfully"
        );
        assert!(
            r.outcome.crashes.iter().any(|c| c.title == g.title),
            "{stem}: replay lost the pinned crash '{}'; got {:?}",
            g.title,
            r.outcome
                .crashes
                .iter()
                .map(|c| &c.title)
                .collect::<Vec<_>>()
        );
        assert_eq!(
            fnv1a64(r.digest.as_bytes()),
            g.digest_fnv,
            "{stem}: replay reached a different kernel state than the recording"
        );
    }
}

/// Pinned *minimized* traces: the full record-and-minimize pipeline for
/// each corpus bug must land byte-for-byte on `tests/golden/<stem>.min.trace`,
/// so any minimizer behavior change shows up as a review diff. Pinned under
/// TSO — the memory-model matrix is `tests/triage_minimal.rs`'s job; a
/// golden file is a byte pin, not a matrix sweep.
#[test]
fn golden_minimized_traces_are_stable() {
    for (stem, bug, _sti) in corpus() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(format!("{stem}.min.trace"));
        let r = record_reproducer_under(bug, MemoryModel::Tso)
            .unwrap_or_else(|| panic!("{bug} must record"));
        let min = Triager::new(BugSwitches::only([bug])).minimize(&r);
        let text = format!(
            "bug={bug}\npair={} {}\ncalls={}\nevents={} of {}\ndigest_fnv=0x{:016x}\n--- trace ---\n{}",
            min.i,
            min.j,
            min.sti.calls.len(),
            min.stats.events_after,
            min.stats.events_before,
            min.digest_fnv,
            min.trace.to_text()
        );
        if regen_requested() {
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(&path, &text).unwrap();
        }
        let pinned = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e}\nrun with OZZ_REGEN_GOLDEN=1 to (re)generate the corpus",
                path.display()
            )
        });
        assert_eq!(
            pinned, text,
            "{stem}: minimized golden drifted; regenerate if the change is intentional"
        );
        // The pinned schedule also replays to the verdict on a fresh boot.
        let rep = replay_trace(BugSwitches::only([bug]), &min.sti, min.i, min.j, &min.trace);
        assert!(!rep.diverged, "{stem}: minimized golden diverged on replay");
        assert!(
            r.verdict.holds(&rep.outcome),
            "{stem}: minimized golden lost its verdict"
        );
        assert_eq!(fnv1a64(rep.digest.as_bytes()), min.digest_fnv);
    }
}

/// Sparse replay counts decisions as a multiset: each listed decision must
/// match an execution of its own. The watch_queue golden's one versioned
/// load, listed two or three times, must therefore diverge — the run
/// performs that load once.
#[test]
fn repeated_sparse_decisions_diverge() {
    let bug = BugId::KnownWatchQueuePost;
    let r = record_reproducer_under(bug, MemoryModel::Tso).expect("watch_queue must record");
    let min = Triager::new(BugSwitches::only([bug])).minimize(&r);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/watch_queue.min.trace");
    let text = fs::read_to_string(&path).expect("pinned minimized golden");
    let (_, trace) = text.split_once("--- trace ---").expect("trace separator");
    let load = trace
        .lines()
        .find(|l| l.starts_with("load 1 ") && l.ends_with(" ver"))
        .expect("the golden's versioned load");
    for copies in 1..=3 {
        let repeated = trace.replace(load, &vec![load; copies].join("\n"));
        let t = ScheduleTrace::parse(&repeated).expect("repeated trace parses");
        let rep = replay_trace(BugSwitches::only([bug]), &min.sti, min.i, min.j, &t);
        assert_eq!(rep.diverged, copies > 1, "{copies} copies of {load:?}");
    }
}

/// The trace part of all six pinned files (full and minimized), by name.
fn golden_trace_bodies() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (stem, _, _) in corpus() {
        for name in [format!("{stem}.trace"), format!("{stem}.min.trace")] {
            let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("tests/golden")
                .join(&name);
            let text =
                fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let (_, trace) = text.split_once("--- trace ---").expect("trace separator");
            out.push((name, trace.trim_start().to_string()));
        }
    }
    out
}

/// A pair trace names CPUs 0 and 1 only. Rewriting any tid of a pinned
/// trace to CPU 2 — in `first`, either end of `switch`, or a step line —
/// must fail at parse time with an error naming the rewritten line.
#[test]
fn golden_traces_reject_a_tid_outside_the_pair() {
    for (name, body) in golden_trace_bodies() {
        ScheduleTrace::parse(&body).unwrap_or_else(|e| panic!("{name}: {e}"));
        let lines: Vec<&str> = body.lines().collect();
        let mut rewritten = 0;
        for (n, line) in lines.iter().enumerate() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let tid_fields: &[usize] = match fields.first().copied() {
                Some("first" | "store" | "load" | "rmw" | "barrier" | "flush") => &[1],
                Some("switch") => &[1, 3],
                _ => &[],
            };
            for &f in tid_fields {
                let mut bad = fields.clone();
                bad[f] = "2";
                let bad_line = bad.join(" ");
                let mut edited = lines.clone();
                edited[n] = &bad_line;
                let err = ScheduleTrace::parse(&edited.join("\n"))
                    .expect_err(&format!("{name}: {bad_line:?} is rejected"));
                assert!(
                    err.contains(&bad_line),
                    "{name}: the error names the line: {err}"
                );
                rewritten += 1;
            }
        }
        assert!(
            rewritten >= 3,
            "{name}: first, switch and a step were rewritten"
        );
    }
}

/// Recording emits at most one `switch`, and every pinned trace holds
/// exactly one. The step executor resumes a suspended CPU in stack order
/// only, so a second `switch` line must fail at parse time, naming it.
#[test]
fn golden_traces_hold_one_switch_and_reject_a_second() {
    for (name, body) in golden_trace_bodies() {
        let trace = ScheduleTrace::parse(&body).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(trace.switches.len(), 1, "{name}: one recorded handoff");
        let switch = body
            .lines()
            .find(|l| l.starts_with("switch "))
            .expect("the switch line");
        let sp = trace.switches[0];
        let back = format!("switch {} 1 {}", sp.to.0, sp.tid.0);
        for second in [switch.to_string(), back] {
            let doubled = body.replacen(switch, &format!("{switch}\n{second}"), 1);
            let err = ScheduleTrace::parse(&doubled)
                .expect_err(&format!("{name}: a second {second:?} is rejected"));
            assert!(
                err.contains(&second),
                "{name}: the error names the line: {err}"
            );
        }
    }
}

#[test]
fn golden_traces_do_not_crash_the_patched_kernel() {
    // The same schedule on the fixed kernel must not report the pinned
    // title: the traces capture a *reordering*, not an unconditional
    // assertion failure. (The event stream differs once the bug's store
    // pattern changes, so divergence is acceptable — a crash is not.)
    for (stem, _bug, sti) in corpus() {
        let text = match fs::read_to_string(golden_path(stem)) {
            Ok(t) => t,
            Err(_) => continue, // regen-only run; the other test enforces presence
        };
        let g = parse_golden(&text);
        let r = replay_trace(BugSwitches::none(), &sti, g.pair.0, g.pair.1, &g.trace);
        assert!(
            !r.outcome.crashes.iter().any(|c| c.title == g.title),
            "{stem}: patched kernel crashed under the golden schedule"
        );
    }
}
