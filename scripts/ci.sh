#!/usr/bin/env bash
# Offline CI gate: build, test, lint. No network access required — the
# workspace has zero external dependencies (see README "Offline builds").
#
# Usage: scripts/ci.sh [--full|--chaos]
#   --full    also exercise the feature-gated targets: property-tests
#             (larger randomized-test case counts), the bench binaries and
#             the full chaos batch (two mid-batch server kills).
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
run cargo clippy --workspace --all-targets -- -D warnings
# The router's randomized sweeps at full case count (about 1 s): A* path
# optimality and scratch purity, which the per-round request sharing
# relies on, and the warm-start contract.
run cargo test -p rdp-route --features property-tests -q --test maze_optimality --test incremental_equivalence
# The repository benchmark harness is a workspace of its own, so the
# workspace test above does not reach it: run its tests (every workload
# at smoke scale, plus its correctness checks) explicitly.
run cargo test --manifest-path rdpbench/Cargo.toml -q
# The harness also builds against the library API (e.g. the parallel
# layer's pool methods), so an API change must not leave it warning.
run cargo clippy --manifest-path rdpbench/Cargo.toml --all-targets -- -D warnings
# Fused-gradient regression gate: compare the smoke sweep against a
# recorded baseline (default: the checked-in BENCH_scale.json). bench_scale
# exits non-zero when the fused pass regresses >15% at equal thread count;
# baselines from a different thread count are skipped with a notice.
BENCH_SCALE_BASELINE="${BENCH_SCALE_BASELINE:-BENCH_scale.json}" \
  run cargo run --release -p rdp-bench --bin bench_scale -- --smoke
# Solver A/B gate: CG+bell and Nesterov+electrostatic must both reach a
# fully legal placement on a small design.
run cargo run --release -p rdp-bench --bin bench_solver_ab -- --smoke
# Kernel thread-invariance smoke: the wirelength, bell, electrostatic (FFT
# Poisson) and congestion kernels must be bitwise identical at 1/2/4/8
# threads on a generated design.
run cargo run --release -p rdp-bench --bin bench_parallel -- --smoke
# Estimator-ladder smoke: learned-tier thread invariance, the accuracy
# gate of the checked-in weights on a fresh design (rank correlations vs
# the routed truth must clear the gates stamped into the weight file),
# per-round tier costs at 10k cells and the prob-vs-auto flow A/B.
run cargo run --release -p rdp-bench --bin bench_estimator -- --smoke
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
  run cargo clippy --workspace --all-targets --features rdp-bench/bench -- -D warnings
  run cargo run --release -p rdp-bench --bin bench_router -- --smoke
  run cargo run --release -p rdp-bench --bin bench_incremental -- --smoke
  run cargo run --release -p rdp-bench --bin bench_route3d -- --smoke
  # Learned-estimator reproducibility: retraining from the fixed seed must
  # reproduce the checked-in weight file byte for byte.
  run cargo run --release -- train-estimator --check
  # Full estimator ladder bench: adds the 100k-cell per-round sweep and
  # the learned >= 3x-vs-incremental-router assertion.
  run cargo run --release -p rdp-bench --bin bench_estimator
  # All four solver × density-model combinations on the larger design.
  run cargo run --release -p rdp-bench --bin bench_solver_ab
  # Full 10k→1M scaling sweep (including the 100k-cell CG-vs-Nesterov
  # solver A/B) and the 100k-cell thread-invariance case (release build:
  # the debug gate would take hours at this size).
  run cargo run --release -p rdp-bench --bin bench_scale
  run cargo test --release -q --test determinism -- --ignored
  # Full chaos batch: twelve faulted jobs, two mid-batch server kills.
  run cargo test -p rdp-serve --features chaos -q --test chaos -- --ignored
  # Surface degraded-parallelism runs loudly: a true flag means the host
  # ran every parallel kernel inline (1 effective thread), so the recorded
  # timings demonstrate no multi-thread speedup.
  for f in BENCH_scale.json target/experiments/BENCH_scale.json target/experiments/BENCH_parallel.json; do
    if [[ -f "$f" ]] && grep -q '"degraded_parallelism": true' "$f"; then
      echo "WARNING: $f was recorded with degraded parallelism (effective_threads() == 1)" >&2
    fi
  done
fi

echo "ci: OK"
