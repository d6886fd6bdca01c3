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
use std::sync::OnceLock;

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

/// The lines of a 2-shard campaign halted after 3 rounds, with every bug
/// compiled in and a target it never finds, so a resume would run on; the
/// campaign runs once per test binary.
fn halted_two_shard_lines() -> Vec<String> {
    static TEXT: OnceLock<String> = OnceLock::new();
    let text = TEXT.get_or_init(|| {
        let dir = scratch_dir("two-shard");
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
        let _ = std::fs::remove_dir_all(&dir);
        text
    });
    text.lines().map(str::to_string).collect()
}

/// Resumes the edited checkpoint `lines` and returns the `InvalidData`
/// error that loading it must give. Without a parse-time check the edit
/// loads, and the resumed campaign panics in the engine instead.
fn resume_error(tag: &str, lines: &[String]) -> String {
    let dir = scratch_dir(tag);
    let path = dir.join("edited.ckpt");
    std::fs::write(&path, lines.join("\n") + "\n").expect("write edited checkpoint");
    let loaded = CampaignBuilder::resume_from(&path);
    let _ = std::fs::remove_dir_all(&dir);
    match loaded {
        Ok(resumed) => {
            let report = resumed.run();
            panic!("the {tag} edit resumed and ran {} rounds", report.rounds);
        }
        Err(err) => {
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            err.to_string()
        }
    }
}

/// Replaces the first line equal to `from` with `to`.
fn replace_line(lines: &mut [String], from: &str, to: &str) {
    let at = lines
        .iter()
        .position(|l| l == from)
        .unwrap_or_else(|| panic!("the checkpoint has a {from:?} line"));
    lines[at] = to.to_string();
}

/// A fuzzer records a diagnosis the first time it sights a title, so every
/// title a stream's fuzzer tallies has one. A checkpoint whose tally names
/// an undiagnosed title must fail to resume with `InvalidData` naming the
/// title, instead of panicking at the first merge that reports it.
#[test]
fn checkpoint_with_an_undiagnosed_tally_fails_to_resume() {
    // The fuzzer's tally map follows its `crashes N` line.
    let mut lines = halted_two_shard_lines();
    let at = lines
        .windows(2)
        .position(|w| w[0].starts_with("crashes ") && w[1].starts_with("tally "))
        .expect("a fuzzer tallied a crash")
        + 1;
    let (name, _) = lines[at].rsplit_once(' ').expect("tally line");
    let title = kutil::codec::unescape(name.strip_prefix("tally ").unwrap()).unwrap();
    lines[at] = lines[at].replacen("tally ", "tally x", 1);
    let msg = resume_error("tally", &lines);
    assert!(
        msg.contains(&format!("x{title}")),
        "the error names the title: {msg}"
    );
}

/// A count is read before the entries it counts, so a hostile count must
/// not size an allocation: this one would ask for terabytes.
#[test]
fn checkpoint_with_a_huge_count_fails_to_resume() {
    let mut lines = halted_two_shard_lines();
    let at = lines
        .iter()
        .position(|l| l.starts_with("corpus "))
        .expect("a fuzzer records its corpus");
    lines[at] = "corpus 99999999999999".to_string();
    let msg = resume_error("huge-count", &lines);
    assert!(
        msg.contains("sti"),
        "the error names the missing entry: {msg}"
    );
}

/// A campaign of zero shards would assert in the engine.
#[test]
fn checkpoint_with_zero_shards_fails_to_resume() {
    let mut lines = halted_two_shard_lines();
    replace_line(&mut lines, "shards 2", "shards 0");
    let msg = resume_error("zero-shards", &lines);
    assert!(msg.contains("shards 0"), "the error names the field: {msg}");
}

/// An epoch of zero MTIs would never make progress.
#[test]
fn checkpoint_with_zero_epoch_mtis_fails_to_resume() {
    let mut lines = halted_two_shard_lines();
    replace_line(&mut lines, "epoch_mtis 500", "epoch_mtis 0");
    let msg = resume_error("zero-epoch", &lines);
    assert!(
        msg.contains("epoch_mtis 0"),
        "the error names the field: {msg}"
    );
}

/// The engine runs one stream per shard, so the counts must agree.
#[test]
fn checkpoint_whose_streams_miss_a_shard_fails_to_resume() {
    let mut lines = halted_two_shard_lines();
    replace_line(&mut lines, "shards 2", "shards 3");
    let msg = resume_error("stream-count", &lines);
    assert!(
        msg.contains("streams 2") && msg.contains("shards 3"),
        "the error names both counts: {msg}"
    );
}

/// A stream broadcasts the corpus entries past its mark, so the mark must
/// lie inside its corpus.
#[test]
fn checkpoint_with_a_corpus_mark_past_the_corpus_fails_to_resume() {
    let mut lines = halted_two_shard_lines();
    let at = lines
        .iter()
        .position(|l| l.starts_with("corpus_mark "))
        .expect("a stream records its corpus mark");
    lines[at] = "corpus_mark 1000000".to_string();
    let msg = resume_error("corpus-mark", &lines);
    assert!(
        msg.contains("corpus_mark 1000000"),
        "the error names the field: {msg}"
    );
}

/// The engine merges a stream's sightings under titles the stream already
/// sent, so every sent title must be in the campaign's found set. Renaming
/// a found bug leaves its stream's sent title dangling.
#[test]
fn checkpoint_whose_sent_title_is_not_found_fails_to_resume() {
    let mut lines = halted_two_shard_lines();
    let found = lines
        .iter()
        .position(|l| l.starts_with("found "))
        .expect("the campaign's found set");
    let at = found
        + lines[found..]
            .iter()
            .position(|l| l.starts_with("title "))
            .expect("a found bug");
    let title = lines[at].clone();
    lines[at] = lines[at].replacen("title ", "title x", 1);
    let msg = resume_error("sent-title", &lines);
    assert!(
        msg.contains("bugs_sent") && msg.contains(&title["title ".len()..]),
        "the error names the field and the title: {msg}"
    );
}

#[test]
fn fresh_process_resume_is_byte_identical_seed_2024() {
    assert_resumes_identically_in_fresh_process(2024);
}

#[test]
fn fresh_process_resume_is_byte_identical_seed_7() {
    assert_resumes_identically_in_fresh_process(7);
}
