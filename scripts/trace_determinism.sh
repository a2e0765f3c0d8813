#!/usr/bin/env bash
# Two-run trace determinism gate: search each named failure twice at the
# CLI and require the two JSONL traces to be identical — `trace -diff`
# (exits 1 and prints the first divergences) and then byte for byte. Any
# scheduling nondeterminism in a target, the sim layers or the explorer
# shows up here first. The trace must also count the rounds its outcome
# names: every round that runs emits one `round` event, on every strategy
# row, so `trace -stats`' `rounds:` equals the outcome line's `rounds=`.
# And `trace` must render every event the search emits: a type it has no
# rendering for prints as its raw `{"event":...}` line, which fails here.
#
#   scripts/trace_determinism.sh [anduril flags] -- f23 f26 ...
#
# Flags before `--` are passed to both anduril runs (e.g. -addressing=path).
set -euo pipefail
cd "$(dirname "$0")/.."

flags=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  flags+=("$1")
  shift
done
if [ $# -lt 2 ]; then
  echo "usage: $0 [anduril flags] -- failure..." >&2
  exit 2
fi
shift

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
go build -o "$TMP/anduril" ./cmd/anduril
go build -o "$TMP/trace" ./cmd/trace

for f in "$@"; do
  "$TMP/anduril" -failure "$f" ${flags[@]+"${flags[@]}"} -trace "$TMP/$f-a.trace.jsonl" > /dev/null
  "$TMP/anduril" -failure "$f" ${flags[@]+"${flags[@]}"} -trace "$TMP/$f-b.trace.jsonl" > /dev/null
  "$TMP/trace" -diff "$TMP/$f-a.trace.jsonl" "$TMP/$f-b.trace.jsonl"
  cmp "$TMP/$f-a.trace.jsonl" "$TMP/$f-b.trace.jsonl"
  counted="$("$TMP/trace" -stats "$TMP/$f-a.trace.jsonl" | sed -n 's/^rounds: *//p')"
  ran="$("$TMP/trace" -event outcome "$TMP/$f-a.trace.jsonl" | sed -n 's/.* rounds=\([0-9]*\) .*/\1/p')"
  if [ -z "$ran" ] || [ "$counted" != "$ran" ]; then
    echo "$f: trace -stats counts ${counted:-no} rounds, the outcome ${ran:-none}" >&2
    exit 1
  fi
  "$TMP/trace" "$TMP/$f-a.trace.jsonl" > "$TMP/$f-a.txt"
  if raw="$(grep -m1 '^{"event":' "$TMP/$f-a.txt")"; then
    echo "$f: trace has no rendering for $raw" >&2
    exit 1
  fi
  echo "$f: two runs byte-identical, $ran rounds traced"
done
