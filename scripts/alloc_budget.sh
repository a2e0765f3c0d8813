#!/usr/bin/env bash
# Allocation-budget gate: allocs/op is timing-independent, so even a CI
# runner can gate on it. For every row of BENCH_alloc_budget.json, run
# that benchmark and fail if one operation allocates more than
# limit_percent over the recorded allocs_per_op.
#
#   scripts/alloc_budget.sh
set -euo pipefail
cd "$(dirname "$0")/.."

budgets=BENCH_alloc_budget.json
percent=$(awk -F'[:,]' '/"limit_percent"/ {print $2+0}' "$budgets")
# "name allocs" per row: remember each name, emit it at its allocs_per_op.
rows=$(awk -F'"' '/"name":/ {name=$4} /"allocs_per_op":/ {split($3, v, /[: ,]+/); print name, v[2]}' "$budgets")
test -n "$percent" && test -n "$rows"

fail=0
while read -r name budget; do
  out=$(go test ./internal/core -run '^$' -bench "^${name}\$" -benchtime=20x -benchmem)
  allocs=$(awk -v n="$name" 'index($1, n) == 1 {print $(NF-1)}' <<<"$out")
  limit=$(( budget * (100 + percent) / 100 ))
  echo "$name: allocs/op=$allocs recorded=$budget limit=$limit"
  if [ -z "$allocs" ] || [ "$allocs" -gt "$limit" ]; then
    fail=1
  fi
done <<<"$rows"
exit $fail
