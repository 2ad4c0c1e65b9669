#!/bin/sh
# bench.sh — run the simulator benchmarks and emit a machine-readable JSON
# summary. CI runs it once as a smoke test; timing comparisons between
# commits belong to the repository benchmark (perfbench/), and allocation
# counts are pinned by go test (TestHotPathAllocs, TestSWFStreamReadAllocs).
#
# Usage:
#   scripts/bench.sh [pattern] [count] [out.json]
#
#   pattern   go test -bench regexp   (default: BenchmarkSimulator)
#   count     repetitions per bench   (default: 3)
#   out.json  JSON output path        (default: stdout; raw go test output
#                                      always goes to stderr so benchstat
#                                      users can tee it)
#
# The JSON groups runs by benchmark name and reports the per-run series plus
# the minimum ns/op (the least-noise statistic) and the B/op and allocs/op,
# which are deterministic per run. Custom b.ReportMetric columns (the
# streaming benchmarks emit jobs/s and peak-heap-MB) are carried through as
# per-run series keyed by their unit:
#
#   {"benchmarks": [{"name": ..., "runs": N,
#                    "ns_per_op": [...], "min_ns_per_op": ...,
#                    "jobs/s": [...],                      # custom metrics, if any
#                    "bytes_per_op": ..., "allocs_per_op": ...}, ...]}
#
# For statistically rigorous before/after comparisons prefer benchstat on the
# raw output (see the Performance section in DESIGN.md).
set -eu

pattern=${1:-BenchmarkSimulator}
count=${2:-3}
out=${3:-}

cd "$(dirname "$0")/.."

# The root package holds the simulator and sweep benchmarks; internal/twin
# holds the digital-twin session benchmark and internal/trace the SWF codec
# benchmarks.
raw=$(go test -run '^$' -bench "$pattern" -benchmem -count "$count" . ./internal/twin ./internal/trace)
printf '%s\n' "$raw" >&2

json=$(printf '%s\n' "$raw" | awk '
  /^Benchmark/ {
    # BenchmarkName-P  iters  X ns/op  [V unit]...  Y B/op  Z allocs/op
    # Columns come in value/unit pairs; custom b.ReportMetric units land
    # between ns/op and B/op, so parse by unit instead of position.
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (!(name in order)) { order[name] = ++n; names[n] = name }
    for (f = 3; f < NF; f += 2) {
      v = $f
      u = $(f + 1)
      if (u == "ns/op") {
        ns[name] = ns[name] sep[name] v
        sep[name] = ", "
        min_ns[name] = (min_ns[name] == "" || v + 0 < min_ns[name] + 0) ? v : min_ns[name]
      } else if (u == "B/op") {
        bytes[name] = v
      } else if (u == "allocs/op") {
        allocs[name] = v
      } else {
        key = name SUBSEP u
        if (!(key in xsep)) {
          units[name] = units[name] usep[name] u
          usep[name] = "\t"
        }
        extra[key] = extra[key] xsep[key] v
        xsep[key] = ", "
      }
    }
  }
  END {
    printf "{\n  \"benchmarks\": [\n"
    for (i = 1; i <= n; i++) {
      name = names[i]
      printf "    {\"name\": \"%s\", \"runs\": %d,\n", name, split(ns[name], _, ", ")
      printf "     \"ns_per_op\": [%s],\n", ns[name]
      printf "     \"min_ns_per_op\": %s,\n", min_ns[name]
      m = split(units[name], us, "\t")
      for (j = 1; j <= m; j++)
        printf "     \"%s\": [%s],\n", us[j], extra[name SUBSEP us[j]]
      printf "     \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", bytes[name], allocs[name], (i < n) ? "," : ""
    }
    printf "  ]\n}\n"
  }')

if [ -n "$out" ]; then
    printf '%s\n' "$json" > "$out"
    echo "wrote $out" >&2
else
    printf '%s\n' "$json"
fi
