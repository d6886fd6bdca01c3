#!/usr/bin/env bash
# Tier-1 gate for the OZZ reproduction workspace.
#
# The workspace is hermetic: zero crates-io dependencies, every build step
# must succeed with no network access. `--offline` is passed explicitly
# (belt) even though `.cargo/config.toml` already forces offline mode
# (suspenders), so the gate holds in a checkout that strips dotfiles.
set -euo pipefail
cd "$(dirname "$0")"

echo "== tier-1: release build (offline) =="
cargo build --release --offline

echo "== tier-1: test suite (offline) =="
cargo test -q --offline

echo "== workspace tests (all crates, offline) =="
cargo test --workspace -q --offline

echo "== memory models: litmus + LKMM properties under tso/pso/arm, oracle matrix under pso =="
# The TSO run repeats the default-env run on purpose: it pins that an
# explicit OZZ_MEMMODEL=tso is byte-identical to leaving it unset. The
# golden-trace gate stays on the default (TSO) model — goldens are a TSO
# contract. The oracle matrix runs under TSO in the record/replay step
# below and under PSO here; Arm stays out until the Arm model honours
# address dependencies, because 2 of the matrix's 4 tests fail there
# (a patched kernel reports a crash, two buggy variants miss theirs).
for m in tso pso arm; do
    echo "--  OZZ_MEMMODEL=$m"
    OZZ_MEMMODEL=$m cargo test -q --offline -p litmus
    OZZ_MEMMODEL=$m cargo test -q --offline --test lkmm_properties
done
OZZ_MEMMODEL=pso cargo test -q --offline --test oracle_matrix

echo "== restore differential (incremental == full, all models) =="
cargo test -q --offline --test restore_differential

echo "== rustdoc (all crates, no warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace -q

echo "== campaign determinism (work-stealing merge, worker invariance) =="
cargo test -q --offline --test parallel_determinism

echo "== checkpoint/resume equivalence (kill + fresh-process resume) =="
cargo test -q --offline --test checkpoint_resume

echo "== campaign scaling smoke (8-worker steal dispatch + makespan model) =="
cargo build --release --offline -p bench --bin parallel_scaling
./target/release/parallel_scaling
cat BENCH_parallel_scaling.json

echo "== mti throughput smoke (fresh vs stepped vs dirty) =="
cargo build --release --offline -p bench --bin mti_throughput
./target/release/mti_throughput 200 1
cat BENCH_mti_throughput.json
grep -q '"stepped_dirty_mtis_per_sec"' BENCH_mti_throughput.json \
    || { echo "error: dirty-restore arm missing from BENCH_mti_throughput.json" >&2; exit 1; }
grep -q '"restore_full_fallbacks": 0' BENCH_mti_throughput.json \
    || { echo "error: dirty-restore arm took a full-restore fallback" >&2; exit 1; }

echo "== record/replay fidelity + oracle matrix + golden traces =="
cargo test -q --offline --test trace_replay --test oracle_matrix --test golden_trace

echo "== triage battery (minimize + bisect, all models) =="
# The workspace runs above already cover the default (tso) cell; the loop
# pins the full model matrix explicitly, including the Arm cells where
# attribution degrades to a principled Inconclusive.
for m in tso pso arm; do
    echo "--  OZZ_MEMMODEL=$m"
    OZZ_MEMMODEL=$m cargo test -q --offline --test triage_minimal
done

echo "== bounded exhaustive explorer smoke (hint-generator differential) =="
cargo run -q --release --offline -p modelcheck --bin explore -- watch_queue

echo "== trace replay bench (search vs replay) =="
cargo build --release --offline -p bench --bin trace_replay
./target/release/trace_replay 30000 3
cat BENCH_trace_replay.json

echo "== formatting =="
cargo fmt --check

echo "== deprecation gate (workspace builds clean with -D deprecated) =="
# Last workspace build step on purpose: changing RUSTFLAGS re-keys every
# compilation unit, so running this mid-script would force a second full
# rebuild of everything after it (ozzbench, below, builds in a target
# directory of its own).
RUSTFLAGS="-D deprecated" cargo build --workspace --all-targets --offline

echo "== hermeticity: no crates-io dependencies declared =="
if grep -rn 'rand = \|parking_lot\|crossbeam\|proptest\|criterion =' \
    Cargo.toml crates/*/Cargo.toml; then
    echo "error: external dependency declared in a manifest" >&2
    exit 1
fi

echo "== ozzbench tests (unit, mirror equality, per-workload smoke) =="
# The benchmark is a package of its own; building it here means an API
# change that breaks it fails this gate instead of the benchmark run. It
# runs last so that a failure here never hides the gates above; its
# `every_workload_passes_its_checks_at_smoke_size` fails since the replay
# workload got faster than its smoke-size assertions allow, until the
# benchmark change on the ROADMAP relaxes them.
cargo test --release --offline --manifest-path ozzbench/Cargo.toml

echo "ci.sh: all gates passed"
