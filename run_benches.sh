#!/bin/bash
# Runs every bench binary; exits non-zero on the first failing bench and
# names it, so a broken benchmark can't scroll by unnoticed.
#
# The repo root is derived from this script's own location, so it works from
# any checkout and any cwd. Benches emit one-line JSON records of the form
# {"bench": ..., "metric": ..., "value": ...}; those lines are collected into
# BENCH_results.json (a JSON array), each stamped with the short commit hash,
# so the perf trajectory across PRs is machine-readable and attributable. A
# tree whose tracked files (BENCH_results.json aside) differ from HEAD is
# stamped <hash>-dirty: its numbers belong to no commit.
set -euo pipefail
cd "$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ "$commit" != unknown ] &&
    ! git diff --quiet HEAD -- . ':(exclude)BENCH_results.json'; then
  commit="$commit-dirty"
fi

json_lines="$(mktemp)"
bench_out="$(mktemp)"
trap 'rm -f "$json_lines" "$bench_out"' EXIT

for b in build/bench/*; do
  if [ -x "$b" ] && [ -f "$b" ]; then
    echo "===== $b ====="
    if ! "$b" 2>&1 | tee "$bench_out"; then
      echo "FAILED: $b" >&2
      exit 1
    fi
    # Stamp each record with the commit it measured. A bench that emits no
    # records is a regression (every bench is required to report at least
    # one metric), as is a record line that fails to parse as JSON: both
    # used to scroll by silently and leave holes in BENCH_results.json.
    if ! grep '^{"bench"' "$bench_out" \
        | sed "s/^{/{\"commit\": \"$commit\", /" >> "$json_lines"; then
      echo "FAILED: $b emitted no JSON records" >&2
      exit 1
    fi
    echo
  fi
done

awk 'BEGIN { print "[" }
     { printf "%s  %s", (NR > 1 ? ",\n" : ""), $0 }
     END { if (NR > 0) printf "\n"; print "]" }' "$json_lines" > BENCH_results.json

# Validate the aggregate file: every record must be well-formed JSON with
# the bench/metric/value triple. jq if present, python3 otherwise.
if command -v jq > /dev/null 2>&1; then
  if ! jq -e 'all(.[]; has("bench") and has("metric") and has("value"))' \
      BENCH_results.json > /dev/null; then
    echo "FAILED: BENCH_results.json is malformed" >&2
    exit 1
  fi
elif command -v python3 > /dev/null 2>&1; then
  if ! python3 - << 'EOF'
import json, sys
with open("BENCH_results.json") as f:
    recs = json.load(f)
sys.exit(0 if all(
    isinstance(r, dict) and "bench" in r and "metric" in r and "value" in r
    for r in recs) else 1)
EOF
  then
    echo "FAILED: BENCH_results.json is malformed" >&2
    exit 1
  fi
fi
echo "wrote BENCH_results.json ($(grep -c '"bench"' BENCH_results.json || true) records)"
