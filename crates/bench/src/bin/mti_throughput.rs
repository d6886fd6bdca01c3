//! MTI execution throughput: fresh boots vs machine pool vs restore path.
//!
//! The paper runs tests in-vivo inside long-lived VMs; this reproduction's
//! analog is the machine pool — reset-to-boot-snapshot machines that run
//! test after test. Every arm runs both legs of each pair on the calling
//! thread (the step scheduler), so the arms differ only in how a machine
//! reaches each test's starting state. This bench runs the same seeded
//! campaign several ways:
//!
//! - **fresh**: boot a machine per test;
//! - **stepped**: reset pooled machines with `force_full_restore` on —
//!   every reset pays the full `clone_from` cost, preserving this arm's
//!   historical meaning as the full-restore baseline;
//! - **stepped_dirty**: identical campaign with the default incremental
//!   restore — resets roll back the dirty-set undo journal instead of
//!   copying the machine, so reset cost is proportional to state touched.
//!   Its `restore_*` / `journal_*` counters are emitted alongside; a
//!   healthy run takes zero full-restore fallbacks.
//!
//! All arms produce byte-identical campaign results (pinned by
//! `tests/pool_fidelity.rs` and `tests/restore_differential.rs`); only the
//! throughput differs. A further dimension reruns the (incremental) arm
//! under the PSO and Arm-like memory models: the model is a per-access
//! branch in the engine, so those rates must stay in the same band as TSO.
//!
//! Usage: `mti_throughput [mti_budget] [reps]` (defaults 600, 3). Writes
//! `BENCH_mti_throughput.json` with the median-of-reps rates into the
//! working directory.

use std::time::Instant;

use kernelsim::{BugSwitches, MemoryModel, RestoreCounters};
use ozz::fuzzer::{FuzzConfig, Fuzzer};

/// One campaign to `budget` MTIs; returns MTIs/second and the pool's
/// restore-path counters (meaningful only for the pooled arms).
fn run_arm(
    reuse_machines: bool,
    model: MemoryModel,
    force_full_restore: bool,
    budget: u64,
) -> (f64, RestoreCounters) {
    let mut fuzzer = Fuzzer::new(FuzzConfig {
        seed: 2024,
        bugs: BugSwitches::all(),
        reuse_machines,
        memory_model: model,
        force_full_restore,
        ..FuzzConfig::default()
    });
    let start = Instant::now();
    while fuzzer.stats().mtis_run < budget {
        fuzzer.step();
    }
    let rate = fuzzer.stats().mtis_run as f64 / start.elapsed().as_secs_f64();
    (rate, fuzzer.restore_counters())
}

fn median(mut rates: Vec<f64>) -> f64 {
    rates.sort_by(|a, b| a.total_cmp(b));
    rates[rates.len() / 2]
}

fn main() {
    let budget: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(600);
    let reps: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    println!("MTI throughput: fresh vs stepped vs dirty ({budget} MTIs x {reps} reps)\n");

    let mut fresh_rates = Vec::with_capacity(reps);
    let mut stepped_rates = Vec::with_capacity(reps);
    let mut dirty_rates = Vec::with_capacity(reps);
    let mut pso_rates = Vec::with_capacity(reps);
    let mut arm_rates = Vec::with_capacity(reps);
    let mut dirty_counters = RestoreCounters::default();
    for rep in 0..reps {
        let tso = MemoryModel::Tso;
        let (fresh, _) = run_arm(false, tso, false, budget);
        let (stepped, _) = run_arm(true, tso, true, budget);
        let (dirty, counters) = run_arm(true, tso, false, budget);
        let (pso, _) = run_arm(true, MemoryModel::Pso, false, budget);
        let (arm, _) = run_arm(true, MemoryModel::Arm, false, budget);
        println!(
            "rep {rep}: fresh {fresh:>9.1} MTIs/s | stepped {stepped:>9.1} MTIs/s | \
             dirty {dirty:>9.1} MTIs/s | pso {pso:>9.1} MTIs/s | arm {arm:>9.1} MTIs/s"
        );
        fresh_rates.push(fresh);
        stepped_rates.push(stepped);
        dirty_rates.push(dirty);
        pso_rates.push(pso);
        arm_rates.push(arm);
        // The campaign is deterministic, so the counters are identical
        // across reps — keeping the last rep's is keeping all of them.
        dirty_counters = counters;
    }

    let fresh = median(fresh_rates);
    let stepped = median(stepped_rates);
    let dirty = median(dirty_rates);
    let pso = median(pso_rates);
    let arm = median(arm_rates);
    // The machine-reuse gain (pool with the default restore vs a boot per
    // test) and the restore-path gain (incremental vs full restore). Each
    // ratio isolates one mechanism.
    let speedup = dirty / fresh;
    let dirty_speedup = dirty / stepped;
    let words_per_restore = if dirty_counters.incremental > 0 {
        dirty_counters.words_replayed as f64 / dirty_counters.incremental as f64
    } else {
        0.0
    };
    println!("\nmedian fresh:   {fresh:>9.1} MTIs/s (boot per test)");
    println!("median stepped: {stepped:>9.1} MTIs/s (pooled, full restore)");
    println!("median dirty:   {dirty:>9.1} MTIs/s (pooled, incremental dirty-journal restore)");
    println!("median pso:     {pso:>9.1} MTIs/s (pooled dirty, PSO model)");
    println!("median arm:     {arm:>9.1} MTIs/s (pooled dirty, Arm-like model)");
    println!("dirty/fresh:    {speedup:.2}x (machine-reuse gain)");
    println!("dirty/stepped:  {dirty_speedup:.2}x (restore-path gain, both pooled)");
    println!(
        "dirty restores: {} incremental ({:.1} words replayed each, journal peak {} words), \
         {} full fallbacks",
        dirty_counters.incremental,
        words_per_restore,
        dirty_counters.journal_peak_words,
        dirty_counters.full_fallbacks
    );

    let json = format!(
        "{{\n  \"budget\": {budget},\n  \"reps\": {reps},\n  \
         \"fresh_mtis_per_sec\": {fresh:.1},\n  \
         \"stepped_mtis_per_sec\": {stepped:.1},\n  \
         \"stepped_dirty_mtis_per_sec\": {dirty:.1},\n  \
         \"stepped_pso_mtis_per_sec\": {pso:.1},\n  \
         \"stepped_arm_mtis_per_sec\": {arm:.1},\n  \
         \"speedup\": {speedup:.2},\n  \
         \"stepped_dirty_speedup\": {dirty_speedup:.2},\n  \
         \"restores_incremental\": {inc},\n  \
         \"restore_words_replayed\": {words},\n  \
         \"restore_words_per_restore\": {words_per_restore:.1},\n  \
         \"restore_full_fallbacks\": {falls},\n  \
         \"journal_peak_words\": {peak}\n}}\n",
        inc = dirty_counters.incremental,
        words = dirty_counters.words_replayed,
        falls = dirty_counters.full_fallbacks,
        peak = dirty_counters.journal_peak_words,
    );
    std::fs::write("BENCH_mti_throughput.json", json).expect("write BENCH_mti_throughput.json");
    println!("\nwrote BENCH_mti_throughput.json");
}
