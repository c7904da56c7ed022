#!/usr/bin/env bash
# Regenerates every table and figure of EXPERIMENTS.md: builds the ten
# table/figure binaries of rdp-bench, runs each one, and writes their
# outputs under target/experiments/.
#
# Usage: scripts/experiments.sh [--smoke]
#   --smoke   run each binary on its reduced-size suite (a quick check
#             that every experiment still runs end to end).
#
# Every binary runs even when an earlier one fails; the script then exits
# nonzero and names each failure.
set -euo pipefail
cd "$(dirname "$0")/.."

args=()
case "${1:-}" in
  "") ;;
  --smoke) args=(--smoke) ;;
  *) echo "usage: scripts/experiments.sh [--smoke]" >&2; exit 2 ;;
esac

bins=(table1_suite table2_dac2012 table3_hierarchical table4_wirelength_ablation
      table5_component_ablation fig_congestion_map fig_convergence
      fig_inflation_sweep fig_runtime_breakdown fig_density_sweep)

build=()
for bin in "${bins[@]}"; do
  build+=(--bin "$bin")
done
echo "==> cargo build --release -p rdp-bench ${build[*]}"
cargo build --release -p rdp-bench "${build[@]}"

target_dir="${CARGO_TARGET_DIR:-target}"
failed=()
for bin in "${bins[@]}"; do
  echo "==> $bin ${args[*]}"
  if ! "$target_dir/release/$bin" "${args[@]}"; then
    failed+=("$bin")
  fi
done

if ((${#failed[@]} > 0)); then
  echo "experiments: FAILED: ${failed[*]}" >&2
  exit 1
fi
echo "experiments: OK (${#bins[@]} binaries)"
