//! Kill/resume equivalence across process boundaries.
//!
//! The campaign checkpoint is specified to capture *everything* the
//! engine needs: corpus, coverage, RNG streams, statistics, crash
//! diagnoses with embedded schedule traces, and the per-shard broadcast
//! protocol state. These tests enforce the strongest form of that claim:
//! a campaign halted mid-budget and resumed **in a fresh process** must
//! render byte-identically to an uninterrupted run — for multiple seeds.
//!
//! The fresh process is this same test binary re-executed with
//! `resume_helper --exact`: the helper is an env-gated test that resumes
//! from `OZZ_RESUME_CHECKPOINT` and writes its rendered report to
//! `OZZ_RESUME_OUT` (it passes trivially when the variables are unset).

use std::path::PathBuf;

use kernelsim::BugSwitches;
use ozz::campaign::{CampaignBuilder, CampaignReport};

const SHARDS: usize = 3;
const WORKERS: usize = 2;
const BUDGET: u64 = 600;
const EPOCH_MTIS: u64 = 48;
const HALT_AFTER: u64 = 2;

/// Everything determinism-pinned in a report, rendered to text. Steal
/// counts and batch timings are deliberately absent (observability only);
/// instruction ids round-trip because checkpoint parsing re-registers
/// them by token.
fn render(r: &CampaignReport) -> String {
    let shard_lines: Vec<String> = r
        .shard_stats
        .iter()
        .map(|s| {
            format!(
                "shard {} {:?} epochs {} done {}",
                s.shard, s.fuzz, s.epochs, s.done
            )
        })
        .collect();
    format!(
        "found {:#?}\nstats {:?}\ncoverage {:?}\nrounds {}\nshards {}\ncrashdb:\n{}",
        r.found,
        r.stats,
        r.coverage,
        r.rounds,
        shard_lines.join("\n"),
        r.crashes.to_text()
    )
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ozz-resume-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs the uninterrupted reference campaign in-process.
fn full_run(seed: u64) -> CampaignReport {
    CampaignBuilder::new(seed)
        .shards(SHARDS)
        .workers(WORKERS)
        .budget(BUDGET)
        .epoch_mtis(EPOCH_MTIS)
        .run()
}

/// Halts a campaign mid-budget, writing the checkpoint to `ckpt`.
fn halted_run(seed: u64, ckpt: &PathBuf) -> CampaignReport {
    CampaignBuilder::new(seed)
        .shards(SHARDS)
        .workers(WORKERS)
        .budget(BUDGET)
        .epoch_mtis(EPOCH_MTIS)
        .checkpoint_to(ckpt)
        .halt_after_epochs(HALT_AFTER)
        .run()
}

fn assert_resumes_identically_in_fresh_process(seed: u64) {
    let dir = scratch_dir(&seed.to_string());
    let ckpt = dir.join("campaign.ckpt");
    let out = dir.join("resumed.txt");

    let reference = render(&full_run(seed));
    let halted = halted_run(seed, &ckpt);
    assert!(
        halted.halted,
        "seed {seed}: the campaign must halt mid-budget"
    );
    assert!(
        ckpt.exists(),
        "seed {seed}: the checkpoint file was written"
    );
    assert_ne!(
        render(&halted),
        reference,
        "seed {seed}: the halted campaign stopped early, so its render must differ"
    );

    // Resume in a *fresh process*: re-exec this test binary against the
    // env-gated helper below. Nothing from this process's memory survives
    // — only the checkpoint file crosses the boundary.
    let exe = std::env::current_exe().expect("test binary path");
    let status = std::process::Command::new(exe)
        .args(["resume_helper", "--exact", "--nocapture"])
        .env("OZZ_RESUME_CHECKPOINT", &ckpt)
        .env("OZZ_RESUME_OUT", &out)
        .status()
        .expect("spawn resume helper process");
    assert!(status.success(), "seed {seed}: resume helper failed");

    let resumed = std::fs::read_to_string(&out).expect("helper wrote its render");
    assert_eq!(
        resumed, reference,
        "seed {seed}: fresh-process resume diverged from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fresh-process half of the tests above. Gated on the env vars the
/// parent sets; a plain `cargo test` run passes straight through it.
#[test]
fn resume_helper() {
    let Ok(ckpt) = std::env::var("OZZ_RESUME_CHECKPOINT") else {
        return;
    };
    let out = std::env::var("OZZ_RESUME_OUT").expect("OZZ_RESUME_OUT set with the checkpoint");
    let report = CampaignBuilder::resume_from(&ckpt)
        .expect("checkpoint file parses")
        .workers(WORKERS)
        .run();
    assert!(!report.halted, "the resumed campaign runs to completion");
    std::fs::write(&out, render(&report)).expect("write the resumed render");
}

/// A checkpoint embeds each found bug's schedule trace, and loading it runs
/// those traces through the trace parser. A trace corrupted inside the
/// checkpoint — a CPU outside the pair, or a second `switch` — must fail
/// the resume with `InvalidData` naming the line, before any shard runs.
#[test]
fn checkpoint_with_a_corrupt_trace_fails_to_resume() {
    let dir = scratch_dir("corrupt");
    let ckpt = dir.join("campaign.ckpt");
    assert!(halted_run(2024, &ckpt).halted);
    let text = std::fs::read_to_string(&ckpt).expect("checkpoint written");
    assert!(
        CampaignBuilder::resume_from(&ckpt).is_ok(),
        "the intact checkpoint loads"
    );

    let lines: Vec<&str> = text.lines().collect();
    let first = lines
        .iter()
        .position(|l| l.starts_with("first "))
        .expect("the checkpoint embeds a found bug's trace");
    let switch = lines
        .iter()
        .position(|l| l.starts_with("switch "))
        .expect("the embedded trace records its handoff");
    // Each corruption replaces one line in place, so every blob keeps its
    // line count and only the trace parser can object.
    for (at, bad, why) in [
        (first, "first 7".to_string(), "tid 7 is not 0 or 1"),
        (switch + 1, lines[switch].to_string(), "second switch"),
    ] {
        let mut edited = lines.clone();
        edited[at] = &bad;
        let path = dir.join("corrupt.ckpt");
        std::fs::write(&path, edited.join("\n") + "\n").expect("write corrupt checkpoint");
        let Err(err) = CampaignBuilder::resume_from(&path) else {
            panic!("a checkpoint with {bad:?} at line {} resumed", at + 1);
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains(&bad) && msg.contains(why),
            "the error names the line and says {why:?}: {msg}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fuzzer records a diagnosis the first time it sights a title, so every
/// title a stream's fuzzer tallies has one. A checkpoint whose tally names
/// an undiagnosed title must fail to resume with `InvalidData` naming the
/// title, instead of panicking at the first merge that reports it.
#[test]
fn checkpoint_with_an_undiagnosed_tally_fails_to_resume() {
    let dir = scratch_dir("tally");
    let ckpt = dir.join("campaign.ckpt");
    let halted = CampaignBuilder::new(2024)
        .budget(400_000)
        .shards(2)
        .epoch_mtis(500)
        .target(BugSwitches::all(), vec!["never".into()])
        .checkpoint_to(&ckpt)
        .halt_after_epochs(3)
        .run();
    assert!(halted.halted);
    let text = std::fs::read_to_string(&ckpt).expect("checkpoint written");

    // The fuzzer's tally map follows its `crashes N` line.
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let at = lines
        .windows(2)
        .position(|w| w[0].starts_with("crashes ") && w[1].starts_with("tally "))
        .expect("a fuzzer tallied a crash")
        + 1;
    let (name, _) = lines[at].rsplit_once(' ').expect("tally line");
    let title = kutil::codec::unescape(name.strip_prefix("tally ").unwrap()).unwrap();
    lines[at] = lines[at].replacen("tally ", "tally x", 1);
    let path = dir.join("undiagnosed.ckpt");
    std::fs::write(&path, lines.join("\n") + "\n").expect("write edited checkpoint");

    let err = match CampaignBuilder::resume_from(&path) {
        // Without the parse-time check the campaign runs into the title at
        // its first merge.
        Ok(resumed) => {
            let report = resumed.run();
            panic!(
                "the undiagnosed tally x{title:?} resumed and ran {} rounds",
                report.rounds
            );
        }
        Err(err) => err,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("x{title}")),
        "the error names the title: {msg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fresh_process_resume_is_byte_identical_seed_2024() {
    assert_resumes_identically_in_fresh_process(2024);
}

#[test]
fn fresh_process_resume_is_byte_identical_seed_7() {
    assert_resumes_identically_in_fresh_process(7);
}
