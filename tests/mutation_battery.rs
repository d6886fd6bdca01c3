//! Hostile-input battery: a persisted file either parses or fails with a
//! typed error, never a panic.
//!
//! The inputs are the six golden traces, the crash database and the
//! checkpoint of a freshly halted 2-shard campaign. Each unmutated input
//! must round-trip through its parser byte for byte. Mutants come from a
//! seeded [`DetRng`]: truncation at a byte, deletion, duplication or swap of
//! lines, and a bumped digit. Every mutant must parse or return an error,
//! and every checkpoint mutant that parses must resume for one round.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use kernelsim::BugSwitches;
use kutil::rng::DetRng;
use oemu::ScheduleTrace;
use ozz::campaign::CampaignBuilder;
use ozz::checkpoint::CampaignCheckpoint;
use ozz::crashdb::CrashDb;

const TRACE_MUTANTS: usize = 600;
const CRASHDB_MUTANTS: usize = 1_000;
const CHECKPOINT_MUTANTS: usize = 1_500;

/// One mutation of `text`, chosen and placed by `rng`.
fn mutate(text: &str, rng: &mut DetRng) -> (String, &'static str) {
    let mut lines: Vec<&str> = text.lines().collect();
    let n = lines.len();
    let what = match rng.gen_range(0..5u32) {
        0 => {
            let mut at = rng.gen_range(0..text.len());
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            return (text[..at].to_string(), "truncation");
        }
        1 => {
            lines.remove(rng.gen_range(0..n));
            "deletion"
        }
        2 => {
            let at = rng.gen_range(0..n);
            lines.insert(at, lines[at]);
            "duplication"
        }
        3 => {
            lines.swap(rng.gen_range(0..n), rng.gen_range(0..n));
            "swap"
        }
        _ => {
            let digits: Vec<usize> = text
                .bytes()
                .enumerate()
                .filter(|(_, b)| b.is_ascii_digit())
                .map(|(i, _)| i)
                .collect();
            let at = digits[rng.gen_range(0..digits.len())];
            let mut bytes = text.as_bytes().to_vec();
            bytes[at] = if bytes[at] == b'9' {
                b'0'
            } else {
                bytes[at] + 1
            };
            let bumped = String::from_utf8(bytes).expect("a digit stays ASCII");
            return (bumped, "digit bump");
        }
    };
    (lines.join("\n") + "\n", what)
}

/// Runs `count` mutants of `text` through `parse`; panics naming the first
/// mutant whose parse panicked. Returns the mutants that parsed.
fn battery<T>(
    name: &str,
    text: &str,
    seed: u64,
    count: usize,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Vec<T> {
    let mut rng = DetRng::new(seed);
    let mut parsed = Vec::new();
    for i in 0..count {
        let (mutant, what) = mutate(text, &mut rng);
        match catch_unwind(AssertUnwindSafe(|| parse(&mutant))) {
            Ok(Ok(value)) => parsed.push(value),
            Ok(Err(_)) => {}
            Err(_) => panic!("{name} mutant {i} ({what}) panicked the parser:\n{mutant}"),
        }
    }
    parsed
}

fn golden_traces() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    ["watch_queue", "tls", "rds"]
        .iter()
        .flat_map(|bug| [bug.to_string(), format!("{bug}.min")])
        .map(|stem| {
            let file = std::fs::read_to_string(dir.join(format!("{stem}.trace")))
                .expect("golden trace readable");
            let (_, trace) = file.split_once("--- trace ---\n").expect("trace section");
            (stem, trace.to_string())
        })
        .collect()
}

#[test]
fn golden_trace_mutants_parse_or_fail_typed() {
    for (k, (stem, text)) in golden_traces().into_iter().enumerate() {
        let trace = ScheduleTrace::parse(&text).expect("golden trace parses");
        assert_eq!(trace.to_text(), text, "{stem}: exact round trip");
        battery(&stem, &text, 0x7ace + k as u64, TRACE_MUTANTS, |m| {
            ScheduleTrace::parse(m)
        });
    }
}

/// A 2-shard campaign on the all-bugs kernel, halted after two rounds:
/// its checkpoint text and its crash database text.
fn halted_campaign() -> (String, String) {
    let dir = std::env::temp_dir().join(format!("ozz-mutation-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let ckpt = dir.join("campaign.ckpt");
    let report = CampaignBuilder::new(2024)
        .budget(4_000)
        .shards(2)
        .workers(1)
        .epoch_mtis(16)
        .target(BugSwitches::all(), vec!["never".into()])
        .checkpoint_to(&ckpt)
        .halt_after_epochs(2)
        .run();
    assert!(report.halted);
    let text = std::fs::read_to_string(&ckpt).expect("checkpoint written");
    let _ = std::fs::remove_dir_all(&dir);
    (text, report.crashes.to_text())
}

#[test]
fn crashdb_and_checkpoint_mutants_parse_or_fail_typed_and_resume() {
    let (checkpoint, crashdb) = halted_campaign();
    let db = CrashDb::parse(&crashdb).expect("fresh crash database parses");
    assert!(!db.to_text().is_empty());
    assert_eq!(db.to_text(), crashdb, "crash database: exact round trip");
    let ck = CampaignCheckpoint::parse(&checkpoint).expect("fresh checkpoint parses");
    assert!(!ck.found.is_empty(), "the checkpoint embeds found bugs");
    assert_eq!(ck.to_text(), checkpoint, "checkpoint: exact round trip");

    battery("crashdb", &crashdb, 0xdb, CRASHDB_MUTANTS, CrashDb::parse);
    let parsed = battery(
        "checkpoint",
        &checkpoint,
        0xc0de,
        CHECKPOINT_MUTANTS,
        CampaignCheckpoint::parse,
    );
    assert!(!parsed.is_empty(), "some checkpoint mutants parse");
    for (i, ck) in parsed.into_iter().enumerate() {
        let text = ck.to_text();
        let resumed = catch_unwind(AssertUnwindSafe(|| {
            CampaignBuilder::new(0)
                .resume(ck)
                .workers(1)
                .halt_after_epochs(1)
                .run()
        }));
        assert!(
            resumed.is_ok(),
            "parsed mutant {i} panicked on resume:\n{text}"
        );
    }
}
