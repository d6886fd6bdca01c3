//! The unified campaign API: one builder for serial, sharded, and
//! resumed fuzzing campaigns.
//!
//! [`CampaignBuilder`] is the single entry point for running OZZ at any
//! scale — serial, sharded, and resumed campaigns all construct through
//! one fluent surface (the old free-function shims are gone):
//!
//! ```
//! use ozz::campaign::CampaignBuilder;
//!
//! let report = CampaignBuilder::new(2024)
//!     .shards(4)   // logical shard streams (affects the merged result)
//!     .workers(2)  // OS threads (pure throughput knob; never affects it)
//!     .budget(2000)
//!     .run();
//! assert_eq!(report.stats.mtis_run, report.shard_stats.iter().map(|s| s.fuzz.mtis_run).sum());
//! ```
//!
//! The merged [`CampaignReport`] is a pure function of the campaign's
//! semantic settings (seed, shards, budget, epoch length, target);
//! `workers` and machine reuse only change how fast it is produced. See [`crate::parallel`] for the work-stealing engine that
//! guarantees this.
//!
//! # Checkpoint and resume
//!
//! A campaign with [`CampaignBuilder::checkpoint_to`] set serializes its
//! full state — every shard's corpus, coverage, RNG streams, statistics,
//! and crash diagnoses with embedded schedule traces — at each round
//! boundary. A killed campaign resumes from the file and produces output
//! byte-identical to an uninterrupted run, even in a fresh process on
//! another machine:
//!
//! ```no_run
//! use ozz::campaign::CampaignBuilder;
//!
//! let report = CampaignBuilder::resume_from("campaign.ckpt")
//!     .expect("readable checkpoint")
//!     .run();
//! ```
//!
//! [`CampaignBuilder::halt_after_epochs`] simulates the kill
//! deterministically: the campaign stops at a round boundary with the
//! checkpoint attached to the report, which is how the resume-equivalence
//! tests drive a mid-budget kill without process signals.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use kernelsim::BugSwitches;
use oemu::{Iid, MemoryModel};

use crate::checkpoint::CampaignCheckpoint;
use crate::crashdb::CrashDb;
use crate::fuzzer::{FoundBug, FuzzConfig, FuzzStats, HintOrder};
use crate::parallel::{run_engine, EngineConfig, DEFAULT_EPOCH_MTIS};

/// One shard's contribution to a campaign, with scheduling observability.
///
/// `fuzz` is deterministic (a pure function of the campaign's semantic
/// settings); `steals`, `batch_micros`, and the restore counters depend on
/// thread timing and machine-pool history and are excluded from
/// determinism-pinned comparisons.
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// The shard id.
    pub shard: usize,
    /// The shard fuzzer's statistics (`stalled` set if the shard stalled).
    pub fuzz: FuzzStats,
    /// Rounds (epochs) this shard completed.
    pub epochs: u64,
    /// Batches run by a worker other than the shard's previous one.
    pub steals: u64,
    /// Wall time of each batch, in microseconds.
    pub batch_micros: Vec<u64>,
    /// Memory pre-images replayed by the shard's incremental machine
    /// restores (undo-journal work; see `EngineStats::restore_words_replayed`).
    pub restore_words_replayed: u64,
    /// Machine restores that fell back to the full `clone_from` path.
    /// Zero on the happy path — every reset rolls back incrementally.
    pub restore_full_fallbacks: u64,
    /// Whether the shard finished (slice exhausted, target found, or
    /// stalled) rather than being cut short by an early stop or halt.
    pub done: bool,
}

/// The merged outcome of a campaign.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Unique crashes across all shards; first diagnosis in
    /// (round, shard) order wins a title.
    pub found: BTreeMap<String, FoundBug>,
    /// Per-shard statistics, indexed by shard id.
    pub shard_stats: Vec<ShardStats>,
    /// Aggregate statistics (sums, with union coverage).
    pub stats: FuzzStats,
    /// Union instruction coverage across all shards, sorted.
    pub coverage: Vec<Iid>,
    /// The campaign's crash database: every crash occurrence deduplicated
    /// by digest, with triage tallies.
    pub crashes: CrashDb,
    /// Rounds the campaign ran.
    pub rounds: u64,
    /// The final checkpoint, when the campaign halted mid-budget via
    /// [`CampaignBuilder::halt_after_epochs`].
    pub checkpoint: Option<CampaignCheckpoint>,
    /// Whether the campaign halted mid-budget (resume to continue).
    pub halted: bool,
}

/// Builder for a fuzzing campaign of any scale. See the [module
/// docs](self) for an overview.
#[derive(Clone, Debug)]
pub struct CampaignBuilder {
    cfg: FuzzConfig,
    shards: usize,
    workers: Option<usize>,
    budget: Option<u64>,
    epoch_mtis: u64,
    expected: Vec<String>,
    checkpoint_to: Option<PathBuf>,
    checkpoint_every: u64,
    halt_after: Option<u64>,
    resume: Option<CampaignCheckpoint>,
}

impl CampaignBuilder {
    /// A Table 3-style campaign on the all-bugs kernel: hunt every
    /// new-bug crash title until found or the MTI budget runs out.
    pub fn new(seed: u64) -> CampaignBuilder {
        CampaignBuilder {
            cfg: FuzzConfig {
                seed,
                bugs: BugSwitches::all(),
                ..FuzzConfig::default()
            },
            shards: 1,
            workers: None,
            budget: None,
            epoch_mtis: DEFAULT_EPOCH_MTIS,
            expected: kernelsim::BugId::NEW
                .iter()
                .map(|b| b.expected_title().to_string())
                .collect(),
            checkpoint_to: None,
            checkpoint_every: 1,
            halt_after: None,
            resume: None,
        }
    }

    /// Sets the total MTI budget, split across shards. Required unless
    /// resuming (a checkpoint carries its own budget).
    pub fn budget(mut self, budget: u64) -> CampaignBuilder {
        self.budget = Some(budget);
        self
    }

    /// Splits the campaign into `shards` logical streams with private
    /// fuzzers and cross-shard corpus broadcast. Part of the campaign's
    /// identity: changing it changes the merged result.
    pub fn shards(mut self, shards: usize) -> CampaignBuilder {
        assert!(shards > 0, "a campaign needs at least one shard");
        self.shards = shards;
        self
    }

    /// Sets the OS worker-thread count (default: one per shard). A pure
    /// throughput knob — any value produces the same merged report.
    pub fn workers(mut self, workers: usize) -> CampaignBuilder {
        assert!(workers > 0, "a campaign needs at least one worker");
        self.workers = Some(workers);
        self
    }

    /// Overrides the epoch length (MTIs per shard between rounds).
    pub fn epoch_mtis(mut self, epoch_mtis: u64) -> CampaignBuilder {
        assert!(epoch_mtis > 0, "an epoch must make progress");
        self.epoch_mtis = epoch_mtis;
        self
    }

    /// Overrides the kernel build and the crash titles the campaign
    /// stops on once all are found.
    pub fn target(mut self, bugs: BugSwitches, expected: Vec<String>) -> CampaignBuilder {
        self.cfg.bugs = bugs;
        self.expected = expected;
        self
    }

    /// Selects the memory model the campaign's kernels run under.
    pub fn memory_model(mut self, model: MemoryModel) -> CampaignBuilder {
        self.cfg.memory_model = model;
        self
    }

    /// Overrides the scheduling-hint exploration order.
    pub fn hint_order(mut self, order: HintOrder) -> CampaignBuilder {
        self.cfg.hint_order = order;
        self
    }

    /// Escape hatch: arbitrary [`FuzzConfig`] tuning (mutation ratio,
    /// hint caps, machine reuse, ...). `seed` and `bugs` set here are
    /// honored like any other field.
    pub fn tune(mut self, f: impl FnOnce(&mut FuzzConfig)) -> CampaignBuilder {
        f(&mut self.cfg);
        self
    }

    /// Writes the campaign state to `path` at round boundaries (see
    /// [`CampaignBuilder::checkpoint_every`]) and at campaign end, via an
    /// atomic tmp-file rename.
    pub fn checkpoint_to(mut self, path: impl AsRef<Path>) -> CampaignBuilder {
        self.checkpoint_to = Some(path.as_ref().to_path_buf());
        self
    }

    /// Checkpoints every `rounds` rounds (default 1: every round).
    pub fn checkpoint_every(mut self, rounds: u64) -> CampaignBuilder {
        assert!(rounds > 0, "checkpoint cadence must be nonzero");
        self.checkpoint_every = rounds;
        self
    }

    /// Deterministic simulated kill: stop at the first round boundary at
    /// or after `rounds` completed rounds (absolute, including rounds
    /// replayed from a resumed checkpoint), attaching the checkpoint to
    /// [`CampaignReport::checkpoint`]. A campaign that finishes earlier
    /// ignores the halt.
    pub fn halt_after_epochs(mut self, rounds: u64) -> CampaignBuilder {
        self.halt_after = Some(rounds);
        self
    }

    /// Resumes from an in-memory checkpoint. The checkpoint's semantic
    /// settings (seed, shards, budget, epoch length, kernel build,
    /// target, fuzzer tuning) override the builder's; perf knobs
    /// (`workers`, executor mode, machine reuse) stay builder-level.
    pub fn resume(mut self, ck: CampaignCheckpoint) -> CampaignBuilder {
        self.resume = Some(ck);
        self
    }

    /// [`CampaignBuilder::resume`] from a checkpoint file.
    pub fn resume_from(path: impl AsRef<Path>) -> std::io::Result<CampaignBuilder> {
        Ok(CampaignBuilder::new(0).resume(CampaignCheckpoint::load(path.as_ref())?))
    }

    /// Runs the campaign to completion (or to its halt point).
    ///
    /// # Panics
    ///
    /// If neither [`CampaignBuilder::budget`] nor a resume source was
    /// set — a campaign without a budget would never stop.
    pub fn run(self) -> CampaignReport {
        let budget = match (&self.resume, self.budget) {
            (Some(_), _) => 0, // the checkpoint's budget wins
            (None, Some(b)) => b,
            (None, None) => panic!("a campaign needs .budget(n) or a resume source"),
        };
        run_engine(EngineConfig {
            workers: self.workers.unwrap_or(self.shards),
            shards: self.shards,
            budget,
            epoch_mtis: self.epoch_mtis,
            expected: self.expected,
            checkpoint_to: self.checkpoint_to,
            checkpoint_every: self.checkpoint_every,
            halt_after: self.halt_after,
            resume: self.resume,
            cfg: self.cfg,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernelsim::BugId;

    #[test]
    fn builder_defaults_match_the_table3_campaign() {
        let b = CampaignBuilder::new(9);
        assert_eq!(b.shards, 1);
        assert_eq!(b.epoch_mtis, DEFAULT_EPOCH_MTIS);
        assert_eq!(b.expected.len(), BugId::NEW.len());
        assert_eq!(b.cfg.seed, 9);
    }

    #[test]
    #[should_panic(expected = "a campaign needs .budget(n) or a resume source")]
    fn run_without_budget_panics() {
        CampaignBuilder::new(1).run();
    }

    #[test]
    fn tune_reaches_the_fuzz_config() {
        let b = CampaignBuilder::new(1).tune(|cfg| cfg.mutate_ratio = 0.25);
        assert_eq!(b.cfg.mutate_ratio, 0.25);
    }

    #[test]
    fn targeted_campaign_stops_on_its_own_bug_set() {
        let bug = BugId::KnownWatchQueuePost;
        let r = CampaignBuilder::new(7)
            .budget(4000)
            .target(
                BugSwitches::only([bug]),
                vec![bug.expected_title().to_string()],
            )
            .run();
        assert!(r.found.contains_key(bug.expected_title()));
        assert!(!r.halted);
        assert!(r.rounds >= 1);
    }

    #[test]
    fn halt_attaches_a_resumable_checkpoint() {
        let full = CampaignBuilder::new(11).shards(2).budget(400).run();
        let halted = CampaignBuilder::new(11)
            .shards(2)
            .budget(400)
            .halt_after_epochs(1)
            .run();
        assert!(halted.halted);
        let ck = halted.checkpoint.expect("halt attaches the checkpoint");
        assert_eq!(ck.round, 1);
        let resumed = CampaignBuilder::new(0).resume(ck).run();
        assert!(!resumed.halted);
        assert_eq!(
            format!("{:#?}", full.found),
            format!("{:#?}", resumed.found),
            "kill/resume must be invisible in the diagnoses"
        );
        assert_eq!(full.stats, resumed.stats);
        assert_eq!(full.coverage, resumed.coverage);
        assert_eq!(full.crashes, resumed.crashes);
        assert_eq!(full.rounds, resumed.rounds);
    }

    #[test]
    fn campaign_report_carries_the_crash_database() {
        let r = CampaignBuilder::new(3).shards(2).budget(600).run();
        // Every diagnosed title also has a crash-database record, and the
        // database counts at least one sighting per diagnosis.
        for (title, bug) in &r.found {
            let rec = r
                .crashes
                .get(bug.digest_fnv)
                .unwrap_or_else(|| panic!("no crashdb record for {title}"));
            assert_eq!(&rec.title, title);
            assert!(rec.count >= 1);
        }
        assert_eq!(
            r.stats.crashes_total,
            r.crashes.records().map(|rec| rec.count).sum::<u64>(),
            "the database tallies every crash occurrence"
        );
    }
}
