#!/usr/bin/env sh
# Performance regression gate: re-run `perf_stack --smoke` and compare the
# named cases' parallel_ms against the committed baseline
# (BENCH_perf_stack.json at the repo root). A case more than 25% slower
# than its baseline fails the gate; bit_identical failures fail it too
# (perf_stack itself exits non-zero on those).
#
# Usage:
#
#   scripts/perf_gate.sh BUILD_DIR [BASELINE_JSON]
#
# Smoke timings are single-rep and sub-millisecond, so the 1.25x ratio is
# cushioned by a 0.25 ms absolute slack — the gate is meant to catch real
# regressions (an accidental O(n^2), a dropped parallel path), not CI
# scheduling jitter.
set -eu

build_dir=${1:?usage: perf_gate.sh BUILD_DIR [BASELINE_JSON]}
build_dir=$(CDPATH= cd -- "$build_dir" && pwd)
script_dir=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
baseline=${2:-"$script_dir/../BENCH_perf_stack.json"}

[ -f "$baseline" ] || {
  echo "perf_gate: baseline $baseline not found" >&2
  exit 1
}

work_dir=$(mktemp -d)
trap 'rm -rf "$work_dir"' EXIT INT TERM
current="$work_dir/perf_stack.json"

echo "perf_gate: running perf_stack --alloc-report"
"$build_dir/perf_stack" --alloc-report || {
  echo "perf_gate: serve hot path allocates at steady state" >&2
  exit 1
}

echo "perf_gate: running perf_stack --smoke"
"$build_dir/perf_stack" --smoke --out "$current" || {
  echo "perf_gate: perf_stack failed (bit-identity violation or crash)" >&2
  exit 1
}

# One case object per line in the JSON — extract "<name> <parallel_ms>".
extract() { # file
  sed -n 's/.*"name": "\([a-z_]*\)".*"parallel_ms": \([0-9.]*\).*/\1 \2/p' "$1"
}
extract "$baseline" >"$work_dir/base.txt"
extract "$current" >"$work_dir/cur.txt"

# The gated cases: the stack's headline hot paths. Sub-0.1 ms cases are
# covered by the absolute slack more than the ratio.
cases="svr_train svr_batch_predict pareto_front predict_plus_pareto matrix_multiply simd_kernel_matrix stream_featurize protocol_request_codec protocol_response_codec protocol_parse_arena serving_hotpath"

fail=0
for name in $cases; do
  base_ms=$(awk -v n="$name" '$1 == n { print $2; exit }' "$work_dir/base.txt")
  cur_ms=$(awk -v n="$name" '$1 == n { print $2; exit }' "$work_dir/cur.txt")
  if [ -z "$base_ms" ] || [ -z "$cur_ms" ]; then
    echo "perf_gate: case $name missing (baseline='$base_ms' current='$cur_ms')" >&2
    fail=1
    continue
  fi
  verdict=$(awk -v b="$base_ms" -v c="$cur_ms" \
    'BEGIN { print (c > b * 1.25 + 0.25) ? "REGRESSED" : "ok" }')
  printf 'perf_gate: %-20s baseline %8.3f ms   current %8.3f ms   %s\n' \
    "$name" "$base_ms" "$cur_ms" "$verdict"
  [ "$verdict" = "ok" ] || fail=1
done

# The observability overhead contract: the serving row with mode
# "obs-overhead" reports instrumented-vs-disabled throughput cost in
# percent (min over alternating pairs, so machine noise is already
# filtered). Gated against an absolute bound, not the baseline — the
# contract is "metrics cost <= 3% of serving throughput", full stop.
obs_pct=$(sed -n 's/.*"mode": "obs-overhead".*"overhead_pct": \([0-9.]*\).*/\1/p' "$current")
if [ -z "$obs_pct" ]; then
  echo "perf_gate: obs-overhead row missing from perf_stack output" >&2
  fail=1
else
  obs_verdict=$(awk -v p="$obs_pct" 'BEGIN { print (p > 3.0) ? "REGRESSED" : "ok" }')
  printf 'perf_gate: %-20s overhead %6.2f %%   (bound 3.00 %%)   %s\n' \
    "obs-overhead" "$obs_pct" "$obs_verdict"
  [ "$obs_verdict" = "ok" ] || fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "perf_gate: FAILED — a gated case regressed more than 25% (+0.25 ms slack) or the obs-overhead bound was exceeded" >&2
  exit 1
fi
echo "perf_gate: OK"
