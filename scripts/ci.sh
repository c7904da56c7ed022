#!/usr/bin/env bash
# Offline CI gate: build, test, lint. No network access required — the
# workspace has zero external dependencies (see README "Offline builds").
#
# Usage: scripts/ci.sh [--full|--chaos]
#   --full    also exercise the feature-gated targets: property-tests
#             (larger randomized-test case counts), a build of the
#             microbenchmarks (the default gate lints them), every
#             release-build gate at full size, the full chaos batch
#             (two mid-batch server kills) and every table/figure binary
#             at smoke size.
#   --chaos   also run the full rdp-serve suite with the `chaos` feature
#             (service-level fault injection against the job server).
#
# The default gate already includes the chaos *smoke* batch (one server
# kill mid-batch), the acceptance bar for the serve layer, and the
# fault-injection resilience suite of the placer.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
  echo "==> $*"
  "$@"
}

run cargo build --release --workspace
run cargo test --workspace -q
# The microbenchmark targets (crates/bench/benches) need the
# `rdp-bench/bench` feature; without it `--all-targets` skips them.
run cargo clippy --workspace --all-targets --features rdp-bench/bench -- -D warnings
# Rustdoc: broken, private or redundant intra-doc links fail the gate.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
# The router's randomized sweeps at full case count (a few seconds): A*
# path optimality and scratch purity, the per-source search tree's
# certificate (every tree path equal to the A* path, on random and
# tie-rich grids in both layer modes), and the warm-start contract.
run cargo test -p rdp-route --features property-tests -q --test maze_optimality --test incremental_equivalence
# The repository benchmark harness is a workspace of its own, so the
# workspace test above does not reach it: run its tests (every workload
# at smoke scale, plus its correctness checks) explicitly.
run cargo test --manifest-path rdpbench/Cargo.toml -q
# The harness also builds against the library API (e.g. the parallel
# layer's pool methods), so an API change must not leave it warning.
run cargo clippy --manifest-path rdpbench/Cargo.toml --all-targets -- -D warnings
# Release-build gates, smoke sizes (tests/release_gates.rs): the fused
# gradient pass at the run's thread count is bitwise equal to the pass at
# one thread at 10k/50k cells and no more than 15% slower than the
# checked-in BENCH_scale.json at equal kernel threads (a skip notice
# otherwise); CG+bell and Nesterov+electro both place a small design
# legally; the auto() estimator ladder routes no worse than
# probabilistic-only rounds at 10k cells.
run cargo test --release -q --test release_gates -- --ignored --nocapture smoke_
# Service-level chaos smoke: seeded worker panics, NaN gradients, budget
# exhaustion and one mid-batch server kill across concurrent jobs; every
# job must land terminal with placements bitwise identical to a serial
# one-job-at-a-time run.
run cargo test -p rdp-serve --features chaos -q --test chaos
# Fault-injection resilience suite: the only tests that drive the placer's
# rollback, fallback and budget-truncation paths (rdp-core with the
# `fault-inject` feature; the 1/2/8-thread invariance sweep happens inside
# the tests themselves).
run cargo test -p rdp-core --features fault-inject -q
run cargo clippy -p rdp-core --all-targets --features fault-inject -- -D warnings

if [[ "${1:-}" == "--chaos" ]]; then
  run cargo test -p rdp-serve --features chaos -q
  run cargo clippy -p rdp-serve --all-targets --features chaos -- -D warnings
fi

if [[ "${1:-}" == "--full" ]]; then
  run cargo test --workspace -q --features rdp/property-tests,rdp-db/property-tests,rdp-route/property-tests
  run cargo build --workspace --benches --features rdp-bench/bench
  # Learned-estimator reproducibility: retraining from the fixed seed must
  # reproduce the checked-in weight file byte for byte.
  run cargo run --release -- train-estimator --check
  # Every release-build gate at full size: the smoke gates above plus all
  # four solver x density combinations at 10k cells, the learned round
  # >= 3x faster than an incremental router round at 100k, the fused pass
  # bitwise against one thread at 500k/1M, the 1M reduced-effort flow, and
  # the 100k-cell case (both fused passes at 1/2/4/8 threads, the bell
  # pass against the reference oracle).
  run cargo test --release -q --test release_gates --test determinism -- --ignored --nocapture
  # Full chaos batch: twelve faulted jobs, two mid-batch server kills.
  run cargo test -p rdp-serve --features chaos -q --test chaos -- --ignored
  # The T1-T5 and figure binaries at smoke size: the only callers of the
  # baseline presets (B1-B4, the T5 ablations), which the default gate
  # only lints.
  run scripts/experiments.sh --smoke
fi

echo "ci: OK"
