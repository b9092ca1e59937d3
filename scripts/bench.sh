#!/usr/bin/env bash
# Benchmark runner: the hot-path JSON baseline.
#
# Usage:
#   scripts/bench.sh                       # regenerate BENCH_hotpath.json
#   scripts/bench.sh --quick               # CI gate: quick-scale hotpath JSON
#                                          # to a temp file + schema validation
#                                          # + end-to-end regression tolerance
#                                          # vs the committed baseline
#
# The --quick gate fails if any floorplan's end-to-end ns/instruction is more
# than TOLERANCE (25%) slower than BENCH_hotpath.json. It is
# machine-independent: every end-to-end row is sampled interleaved with its
# own calibration measurement (the frozen legacy BFS), and the gate compares
# per-row ns_per_instruction/calibration ratios, so a slower or busier runner
# shifts both sides of each row alike.
#
# Outputs:
#   BENCH_hotpath.json   stable-schema (lsqca-bench-hotpath-v2) baseline with
#                        absolute simulator throughput per floorplan, written
#                        at the repository root.
set -euo pipefail

cd "$(dirname "$0")/.."

# Fractional end-to-end regression the --quick gate allows.
readonly TOLERANCE=0.25

# Benchmarks measure simulation, so the crash-safe result store must not short
# circuit it: a warm store would turn every timed sweep into a disk read and
# report nonsense speedups. Workloads compile in process; compilation is not
# what the benches time.
export LSQCA_NO_STORE=1

# Validates that a hotpath JSON document carries the lsqca-bench-hotpath-v2
# schema with its end-to-end section.
validate_hotpath_json() {
  local file="$1"
  local ok=0
  for needle in \
    '"schema": "lsqca-bench-hotpath-v2"' \
    '"end_to_end"' \
    '"calibration_ns_per_op"' \
    '"ns_per_instruction"'; do
    if ! grep -qF "$needle" "$file"; then
      echo "error: $file is missing $needle (schema lsqca-bench-hotpath-v2)" >&2
      ok=1
    fi
  done
  return "$ok"
}

# Validates that a metrics document carries the lsqca-metrics-v2 schema with
# the core lifecycle counters (compile, warm, execute, walk split, store).
validate_metrics_json() {
  local file="$1"
  local ok=0
  for needle in \
    '"schema": "lsqca-metrics-v2"' \
    '"counters"' \
    '"gauges"' \
    '"sim.warmed"' \
    '"sim.runs"' \
    '"sim.memory_walks"' \
    '"sim.memory_pass"' \
    '"sim.timing_pass"' \
    '"workloads.compiled"' \
    '"result_store.computed"'; do
    if ! grep -qF "$needle" "$file"; then
      echo "error: $file is missing $needle (schema lsqca-metrics-v2)" >&2
      ok=1
    fi
  done
  return "$ok"
}

# Extracts `<floorplan>\t<ns_per_instruction>\t<calibration_ns_per_op>` lines
# from a hotpath JSON document's end_to_end section (the pretty-printed
# lsqca-json layout, where each row's calibration follows its ns/instruction).
extract_end_to_end() {
  awk '
    function value(line) {
      sub(/^[^:]*: */, "", line)
      sub(/,.*/, "", line)
      return line
    }
    /"floorplan":/ {
      line = $0
      sub(/.*"floorplan": *"/, "", line)
      sub(/".*/, "", line)
      floorplan = line
    }
    /"ns_per_instruction":/ { ns = value($0) }
    /"calibration_ns_per_op":/ {
      if (floorplan != "") {
        printf "%s\t%s\t%s\n", floorplan, ns, value($0)
        floorplan = ""
      }
    }
  ' "$1"
}

# Fails if any end-to-end row in $2 regressed more than TOLERANCE against the
# committed baseline $1, comparing each row's ns_per_instruction/calibration
# ratio, so the result does not depend on the absolute speed of the machine
# either report was recorded on.
check_regression() {
  local baseline="$1" fresh="$2"
  local ok=0
  while IFS=$'\t' read -r floorplan base_ns base_cal; do
    local fresh_ns fresh_cal
    IFS=$'\t' read -r fresh_ns fresh_cal < <(extract_end_to_end "$fresh" |
      awk -F'\t' -v fp="$floorplan" '$1 == fp { print $2 "\t" $3 }') || true
    if [[ -z "$fresh_ns" || -z "$fresh_cal" ]]; then
      echo "error: fresh report is missing end-to-end entry for '$floorplan'" >&2
      ok=1
      continue
    fi
    if awk -v base="$base_ns" -v fresh="$fresh_ns" \
         -v bcal="$base_cal" -v fcal="$fresh_cal" -v tol="$TOLERANCE" \
         'BEGIN { exit !((fresh / fcal) > (base / bcal) * (1 + tol)) }'; then
      echo "error: end-to-end regression on '$floorplan': ${fresh_ns} ns/instruction (calibration ${fresh_cal}) vs baseline ${base_ns} (calibration ${base_cal}, tolerance ${TOLERANCE})" >&2
      ok=1
    else
      echo "  ${floorplan}: ${fresh_ns} ns/instruction (calibration ${fresh_cal}) vs baseline ${base_ns} (calibration ${base_cal}) OK"
    fi
  done < <(extract_end_to_end "$baseline")
  return "$ok"
}

if [[ "${1:-}" == "--quick" ]]; then
  # CI gate mode: build, emit the quick-scale hotpath report to a temp file
  # (the committed BENCH_hotpath.json baseline is left untouched), validate
  # its schema, and fail on an end-to-end throughput regression beyond the
  # tolerance.
  echo "== building (release, quick gate) =="
  cargo build --release -p lsqca-bench
  out="$(mktemp /tmp/lsqca-hotpath-XXXXXX.json)"
  metrics="$(mktemp /tmp/lsqca-metrics-XXXXXX.json)"
  retry=""
  # The reports are only read here: remove them however the gate ends.
  trap 'rm -f "$out" "$metrics" ${retry:+"$retry"}' EXIT
  echo "== quick-scale hotpath report =="
  # `--metrics-out` exports the registry without enabling spans, so the
  # timed end-to-end section below measures the span-free path; the
  # registry counters it still bumps are part of what the regression gate
  # against the committed baseline times.
  ./target/release/experiments hotpath --json --metrics-out "$metrics" > "$out"
  validate_hotpath_json "$out"
  echo "schema lsqca-bench-hotpath-v2 OK: $out"
  echo "== metrics artifact schema =="
  validate_metrics_json "$metrics"
  echo "schema lsqca-metrics-v2 OK: $metrics"
  if [[ -f BENCH_hotpath.json ]]; then
    echo "== end-to-end regression gate (tolerance ${TOLERANCE}) =="
    if ! check_regression BENCH_hotpath.json "$out"; then
      # Shared runners see CPU-contention bursts long enough to poison a
      # whole min-of-samples window. A genuine regression reproduces on a
      # fresh measurement; a burst almost never spans two full runs.
      echo "== regression reported; re-measuring once to rule out a noise burst =="
      retry="$(mktemp /tmp/lsqca-hotpath-XXXXXX.json)"
      ./target/release/experiments hotpath --json > "$retry"
      validate_hotpath_json "$retry"
      check_regression BENCH_hotpath.json "$retry"
    fi
  else
    echo "warning: no committed BENCH_hotpath.json baseline; skipping regression gate" >&2
  fi
  exit 0
fi

echo "== building (release) =="
cargo build --release --workspace

echo "== hot-path baseline =="
# Validate into a temp file first so a schema regression cannot clobber the
# committed baseline.
tmp="$(mktemp /tmp/lsqca-hotpath-XXXXXX.json)"
trap 'rm -f "$tmp"' EXIT
./target/release/experiments hotpath --json > "$tmp"
validate_hotpath_json "$tmp"
mv "$tmp" BENCH_hotpath.json
echo "wrote BENCH_hotpath.json:"
./target/release/experiments hotpath
