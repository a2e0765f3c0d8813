#!/usr/bin/env bash
# Allocation-budget gate: allocs/op and bytes/op are timing-independent, so
# even a CI runner can gate on them. For every row of
# BENCH_alloc_budget.json, run that benchmark and fail if one operation
# allocates more than limit_percent over the recorded allocs_per_op or the
# recorded bytes_per_op. Both, because they catch different regressions: a
# 26 KB string per reach is one allocation, a boxed int per event is eight
# bytes.
#
#   scripts/alloc_budget.sh
set -euo pipefail
cd "$(dirname "$0")/.."

budgets=BENCH_alloc_budget.json
percent=$(awk -F'[:,]' '/"limit_percent"/ {print $2+0}' "$budgets")
# "name bytes allocs" per row: remember each name and its bytes_per_op,
# emit them at its allocs_per_op (the last of the three in a row).
rows=$(awk -F'"' '
  /"name":/ {name=$4}
  /"bytes_per_op":/ {split($3, v, /[: ,]+/); bytes=v[2]}
  /"allocs_per_op":/ {split($3, v, /[: ,]+/); print name, bytes, v[2]}' "$budgets")
test -n "$percent" && test -n "$rows"

fail=0
while read -r name bytes_budget allocs_budget; do
  out=$(go test ./internal/core -run '^$' -bench "^${name}\$" -benchtime=20x -benchmem)
  # "... N ns/op  B B/op  A allocs/op"
  read -r bytes allocs < <(awk -v n="$name" 'index($1, n) == 1 {print $(NF-3), $(NF-1)}' <<<"$out") || true
  bytes_limit=$(( bytes_budget * (100 + percent) / 100 ))
  allocs_limit=$(( allocs_budget * (100 + percent) / 100 ))
  echo "$name: allocs/op=${allocs:-?} recorded=$allocs_budget limit=$allocs_limit; bytes/op=${bytes:-?} recorded=$bytes_budget limit=$bytes_limit"
  if [ -z "${allocs:-}" ] || [ -z "${bytes:-}" ] || [ "$allocs" -gt "$allocs_limit" ] || [ "$bytes" -gt "$bytes_limit" ]; then
    fail=1
  fi
done <<<"$rows"
exit $fail
