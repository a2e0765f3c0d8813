#!/usr/bin/env bash
# Soak gate for the reproduction daemon: start anduril-server on a fresh
# journal, push a large mixed job set through it via `andurilctl soak`
# (many submissions fanned over fewer distinct specs, so dedupe is
# exercised at scale), and let the ctl verify every finished job against
# an in-process serial run — state, submission counts, canonical report
# bytes and trace bytes must all match exactly. Then, for one failure of
# each fault class, the job a spec naming only the failure runs must have
# the trace `anduril -failure X` writes at its default flags: the CLI and
# the daemon run one search. Finishes with a SIGTERM drain, which must
# exit 0.
#
# Tunables (env): JOBS (default 1000), DISTINCT (40), SEED (1),
# ADDR (127.0.0.1:18477).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-1000}"
DISTINCT="${DISTINCT:-40}"
SEED="${SEED:-1}"
ADDR="${ADDR:-127.0.0.1:18477}"

BIN="$(mktemp -d)"
DATA="$(mktemp -d)"
LOG="$BIN/server.log"

go build -o "$BIN/anduril-server" ./cmd/anduril-server
go build -o "$BIN/andurilctl" ./cmd/andurilctl
go build -o "$BIN/anduril" ./cmd/anduril

cleanup() {
  [ -n "${SRV_PID:-}" ] && kill "$SRV_PID" 2>/dev/null || true
}
trap cleanup EXIT

"$BIN/anduril-server" -data-dir "$DATA" -addr "$ADDR" >"$LOG" 2>&1 &
SRV_PID=$!

# Wait for readiness; dump the daemon log if it never comes up.
for _ in $(seq 1 100); do
  if "$BIN/andurilctl" health -server "http://$ADDR" >/dev/null 2>&1; then
    break
  fi
  if ! kill -0 "$SRV_PID" 2>/dev/null; then
    echo "server_soak: daemon died during startup" >&2
    cat "$LOG" >&2
    exit 1
  fi
  sleep 0.1
done

if ! "$BIN/andurilctl" soak -server "http://$ADDR" \
  -jobs "$JOBS" -distinct "$DISTINCT" -seed "$SEED" -timeout 20m; then
  echo "server_soak: soak failed; daemon log:" >&2
  cat "$LOG" >&2
  exit 1
fi

# One search: env (f23), pair (f30), partial (f33) and site (f4).
for id in f4 f23 f30 f33; do
  key="$("$BIN/andurilctl" submit -server "http://$ADDR" -failure "$id" -wait | awk 'NR == 1 { print $2 }')"
  "$BIN/andurilctl" trace -server "http://$ADDR" "$key" >"$BIN/daemon-$id.trace.jsonl"
  "$BIN/anduril" -failure "$id" -trace - 2>/dev/null >"$BIN/cli-$id.trace.jsonl"
  if ! cmp "$BIN/daemon-$id.trace.jsonl" "$BIN/cli-$id.trace.jsonl"; then
    echo "server_soak: $id: the daemon's trace differs from the CLI's" >&2
    exit 1
  fi
done

# Graceful drain must be clean (exit 0).
kill -TERM "$SRV_PID"
if ! wait "$SRV_PID"; then
  echo "server_soak: drain exited nonzero; daemon log:" >&2
  cat "$LOG" >&2
  exit 1
fi
SRV_PID=""
echo "server_soak: OK ($JOBS submissions over $DISTINCT specs; CLI and daemon traces equal)"
