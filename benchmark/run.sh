#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       One run of one workload, as BENCHMARK.json's driver calls it:
#       `--trace 0` gives the end-to-end metrics (ddc-bench-e2e),
#       `--trace 1` the per-layer ones (ddc-bench-layers). The last
#       line of standard output is the result object.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--repeat R]
#       All four workloads, both ways: prints every metric by name with
#       its unit, and exits non-zero on a wrong answer or a failed
#       operation. With `--repeat R` the four end-to-end runs are made R
#       times, each with another seed; per metric it prints the median,
#       (max-min)/median and the quartile spread the driver uses, and
#       fails if a spread exceeds the metric's bound in BENCHMARK.json.
#
# Either way it first builds `ddc` and the two benchmark binaries,
# `--release --offline`, into one target directory (CARGO_TARGET_DIR if
# set, else target/ at the root), so the binaries find `ddc` beside them.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"
cd "$ROOT"

TARGET="${CARGO_TARGET_DIR:-target}"
case "$TARGET" in /*) ;; *) TARGET="$ROOT/$TARGET" ;; esac
export CARGO_TARGET_DIR="$TARGET"
BIN="$TARGET/release"

# A killed run must not leave a server behind: on two cores it would
# share a core with every later run. The binaries kill their children
# on every exit path they control; this covers the ones they do not
# (SIGTERM, SIGINT). The pattern names this checkout's own `ddc`.
trap 'pkill -KILL -f "^$BIN/ddc serve " 2>/dev/null || true' EXIT

# Build output goes to standard error: standard output is the result.
cargo build --release --offline --manifest-path "$ROOT/Cargo.toml" -p ddc-cli >&2
cargo build --release --offline --manifest-path "$HERE/Cargo.toml" >&2

workload="" seed=1 seconds=15 trace=0 repeat=0
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
    case "$1" in
        --workload) workload="$2" ;;
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        --trace) trace="$2" ;;
        --repeat) repeat="$2" ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
    shift 2
done

run_one() { # workload seed trace
    local bin="ddc-bench-e2e"
    [ "$3" = 1 ] && bin="ddc-bench-layers"
    "$BIN/$bin" --workload "$1" --seed "$2" --seconds "$seconds" --trace "$3"
}

if [ -n "$workload" ]; then
    run_one "$workload" "$seed" "$trace"
    exit $?
fi

WORKLOADS="core_d2_mixed core_d3_query serve_mixed durable_paged_mixed"
status=0

# Prints "# …" lines as they are and the result line as one metric per
# line; fails if the run was not correct or an operation failed.
show() { # workload
    python3 -c '
import json, sys
workload, ok = sys.argv[1], True
for line in sys.stdin:
    if line.startswith("#"):
        print(line.rstrip())
        continue
    result = json.loads(line)
    for name, m in result["metrics"].items():
        print("%-22s %-32s %16.6g %s" % (workload, name, m["value"], m["unit"]))
    ok = result["correct"] and result["failed"] == 0
    print("%-22s correct=%s attempted=%d failed=%d" % (
        workload, result["correct"], result["attempted"], result["failed"]))
sys.exit(0 if ok else 1)' "$1"
}

if [ "$repeat" -le 0 ]; then
    for w in $WORKLOADS; do
        for t in 0 1; do
            run_one "$w" "$seed" "$t" | show "$w" || status=1
        done
    done
    exit $status
fi

OUT="$HERE/out"
mkdir -p "$OUT"
LOG="$OUT/repeat-$$.jsonl"
: > "$LOG"
for r in $(seq 1 "$repeat"); do
    for w in $WORKLOADS; do
        echo "run $r/$repeat: $w" >&2
        line="$(run_one "$w" $((seed + r - 1)) 0 | tail -n 1)" || status=1
        echo "{\"workload\": \"$w\", \"result\": $line}" >> "$LOG"
    done
done

python3 - "$LOG" "$ROOT/BENCHMARK.json" <<'EOF' || status=1
import json, statistics, sys
runs = [json.loads(l) for l in open(sys.argv[1])]
bounds = {m["name"]: m["bound"] for m in json.load(open(sys.argv[2]))["end_to_end"]}
bad = False
print("%-22s %-14s %14s %10s %10s %7s" % ("workload", "metric", "median", "range/med", "iqr/med", "bound"))
for workload in dict.fromkeys(r["workload"] for r in runs):
    results = [r["result"] for r in runs if r["workload"] == workload]
    if not all(r["correct"] and r["failed"] == 0 for r in results):
        print("%-22s WRONG ANSWER OR FAILED OPERATION" % workload)
        bad = True
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        spread = (max(values) - min(values)) / median
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
        iqr = (q[2] - q[0]) / median
        # setup_s is judged on its medians only, as the driver does.
        over = name != "setup_s" and iqr > bound
        bad |= over
        print("%-22s %-14s %14.6g %10.4f %10.4f %7.2f%s" % (
            workload, name, median, spread, iqr, bound, "  OVER" if over else ""))
sys.exit(1 if bad else 0)
EOF
rm -f "$LOG"
exit $status
