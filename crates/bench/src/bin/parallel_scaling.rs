//! Campaign-service scaling: MTI throughput at 1/2/4/8 workers.
//!
//! The work-stealing engine is deterministic by construction — worker
//! count changes only *when* batches run, never what they compute — so
//! scaling can be measured honestly on any machine:
//!
//! 1. **Measure** one campaign at `workers = 1` (inline, no threads),
//!    recording the wall cost of every `(shard, round)` batch.
//! 2. **Model** the engine's own greedy affinity-then-steal dispatch over
//!    those measured costs for 1/2/4/8 workers, yielding a deterministic
//!    makespan per worker count. This is the speedup a machine with that
//!    many free cores realises, computed without needing the cores: the
//!    round barrier and the dispatch order are exactly the engine's.
//! 3. **Cross-check** with a real 8-worker run: its merged report must be
//!    byte-identical to the 1-worker run (the determinism contract), and
//!    its steal counters are reported alongside the model.
//!
//! Wall-clock keys (`wall_*`) are also emitted for the two real runs and
//! are strictly *measured* numbers: `wall_speedup_8w` is the real ratio,
//! `host_cores` says how many CPUs the host actually offers, and
//! `wall_8w_oversubscribed` flags when 8 workers exceed `host_cores` —
//! in that regime the measured speedup is expected to be ≤ 1 (thread
//! overhead with no parallelism to buy), which is exactly what the keys
//! report. The modeled keys (`modeled_*`) are the scaling signal a
//! machine with free cores realises; they never masquerade as wall
//! measurements.
//!
//! The campaign targets the *patched* kernel with an unfindable sentinel
//! title so no early-stop shortens the measured work: every configuration
//! executes exactly the same `budget` MTIs.
//!
//! Run with: `cargo run --release --bin parallel_scaling [budget] [shards]`

use std::time::Instant;

use kernelsim::BugSwitches;
use ozz::campaign::{CampaignBuilder, CampaignReport};

const SEED: u64 = 7;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn campaign(budget: u64, shards: usize, workers: usize) -> (CampaignReport, f64) {
    let start = Instant::now();
    let report = CampaignBuilder::new(SEED)
        .shards(shards)
        .workers(workers)
        .budget(budget)
        .target(BugSwitches::none(), vec!["<unfindable>".into()])
        .run();
    (report, start.elapsed().as_secs_f64())
}

/// Deterministic makespan of the engine's dispatch policy over measured
/// batch costs: per round, deal each live shard's batch to the worker
/// that frees up first, preferring affinity and stealing the lowest
/// pending shard otherwise — exactly `ozz::parallel`'s policy. Returns
/// `(makespan_micros, steals)`.
fn model_dispatch(batches: &[Vec<u64>], workers: usize) -> (u64, u64) {
    let shards = batches.len();
    let rounds = batches.iter().map(|b| b.len()).max().unwrap_or(0);
    let mut affinity: Vec<usize> = (0..shards).map(|s| s % workers).collect();
    let mut makespan = 0u64;
    let mut steals = 0u64;
    for r in 0..rounds {
        let mut pending: Vec<usize> = (0..shards).filter(|&s| r < batches[s].len()).collect();
        let mut clock = vec![0u64; workers];
        while !pending.is_empty() {
            // The worker that frees up first takes the next batch.
            let w = (0..workers).min_by_key(|&w| clock[w]).expect("workers > 0");
            let pick = pending
                .iter()
                .position(|&s| affinity[s] == w)
                .unwrap_or_else(|| {
                    steals += 1;
                    0 // steal the lowest pending shard id
                });
            let s = pending.remove(pick);
            clock[w] += batches[s][r];
            affinity[s] = w;
        }
        // Round barrier: the next round starts when the slowest worker
        // finishes this one.
        makespan += clock.into_iter().max().expect("workers > 0");
    }
    (makespan, steals)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let budget: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(3200);
    let shards: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(32);
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("Campaign scaling: {budget} MTIs over {shards} shards ({host_cores} host cores)\n");

    // Discarded warm-up: the first campaign in a fresh process pays all
    // the cold-start costs (pool boots, page faults, allocator growth),
    // which would otherwise be billed entirely to whichever timed arm
    // runs first and skew `wall_speedup_8w` by run order rather than
    // worker count.
    let _ = campaign(budget, shards, 1);
    let (one, wall_1w) = campaign(budget, shards, 1);
    let (eight, wall_8w) = campaign(budget, shards, 8);
    assert_eq!(
        format!("{:#?}", one.found),
        format!("{:#?}", eight.found),
        "worker count leaked into the merge"
    );
    assert_eq!(one.stats, eight.stats, "worker count leaked into the stats");

    let batches: Vec<Vec<u64>> = one
        .shard_stats
        .iter()
        .map(|s| s.batch_micros.clone())
        .collect();
    let total_batches: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let steal_total_8w: u64 = eight.shard_stats.iter().map(|s| s.steals).sum();
    let steal_max_shard_8w: u64 = eight
        .shard_stats
        .iter()
        .map(|s| s.steals)
        .max()
        .unwrap_or(0);

    let mut modeled = Vec::new();
    let base = model_dispatch(&batches, 1).0 as f64;
    for &w in &WORKER_COUNTS {
        let (makespan, model_steals) = model_dispatch(&batches, w);
        let mtis_per_sec = budget as f64 * 1e6 / makespan as f64;
        let speedup = base / makespan as f64;
        println!(
            "{{\"group\":\"parallel_scaling\",\"name\":\"modeled\",\"workers\":{w},\
             \"makespan_us\":{makespan},\"mtis_per_sec\":{mtis_per_sec:.1},\
             \"speedup_vs_1w\":{speedup:.2},\"efficiency\":{:.2},\"steals\":{model_steals}}}",
            speedup / w as f64
        );
        modeled.push((w, mtis_per_sec, speedup));
    }
    let wall_speedup_8w = wall_1w / wall_8w;
    let oversubscribed = host_cores < 8;
    println!(
        "\nwall (measured): 1w {:.1} MTIs/s | 8w {:.1} MTIs/s | speedup {wall_speedup_8w:.2}x{}",
        budget as f64 / wall_1w,
        budget as f64 / wall_8w,
        if oversubscribed {
            format!(" (8 workers on {host_cores} cores: oversubscribed, <=1x expected)")
        } else {
            String::new()
        }
    );
    println!(
        "steals: real 8w run stole {steal_total_8w}/{total_batches} batches (max {steal_max_shard_8w} on one shard)"
    );

    let speedup_8w = modeled.iter().find(|(w, ..)| *w == 8).expect("ran 8w").2;
    let steal_modeled_8w = model_dispatch(&batches, 8).1;
    let json = format!(
        "{{\n  \"bench\": \"parallel_scaling\",\n  \"seed\": {SEED},\n  \"budget\": {budget},\n  \
         \"shards\": {shards},\n  \"rounds\": {rounds},\n  \"host_cores\": {host_cores},\n  \
         \"wall_mtis_per_sec_1w\": {w1:.1},\n  \"wall_mtis_per_sec_8w\": {w8:.1},\n  \
         \"wall_speedup_8w\": {wall_speedup_8w:.2},\n  \
         \"wall_8w_oversubscribed\": {oversubscribed},\n  \
         {modeled_keys},\n  \"modeled_speedup_8w\": {speedup_8w:.2},\n  \
         {efficiency_keys},\n  \
         \"steal_total_8w\": {steal_total_8w},\n  \"steal_max_shard_8w\": {steal_max_shard_8w},\n  \
         \"steal_rate_8w\": {steal_rate:.3},\n  \"steal_modeled_8w\": {steal_modeled_8w},\n  \
         \"total_batches\": {total_batches}\n}}\n",
        rounds = one.rounds,
        w1 = budget as f64 / wall_1w,
        w8 = budget as f64 / wall_8w,
        modeled_keys = modeled
            .iter()
            .map(|(w, rate, _)| format!("\"modeled_mtis_per_sec_{w}w\": {rate:.1}"))
            .collect::<Vec<_>>()
            .join(",\n  "),
        efficiency_keys = modeled
            .iter()
            .map(|(w, _, sp)| format!("\"scaling_efficiency_{w}w\": {:.3}", sp / *w as f64))
            .collect::<Vec<_>>()
            .join(",\n  "),
        steal_rate = steal_total_8w as f64 / total_batches as f64,
    );
    std::fs::write("BENCH_parallel_scaling.json", &json)
        .expect("write BENCH_parallel_scaling.json");
    println!("\nwrote BENCH_parallel_scaling.json");
    print!("{json}");
}
