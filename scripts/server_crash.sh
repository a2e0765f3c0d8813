#!/usr/bin/env bash
# Crash gate for the reproduction daemon: submit a soak set, then
# repeatedly SIGKILL the daemon mid-execution and restart it on the same
# journal, and finally verify the complete set. `andurilctl soak
# -verify-only` re-derives the identical job set from the seed, so the
# final phase detects lost jobs (missing from /jobs), duplicated jobs
# (extra entries or wrong submission counts), and any divergence from a
# serial run (canonical report bytes and trace bytes must match exactly).
#
# A running search keeps nothing on disk: a kill loses it, and the restart
# re-admits the job and runs it again from its spec. What a kill can land
# inside is the journal's writes — admission, a resubmission's count, and
# the completion commit's trace, report and record renames. -workers 1, a
# set of ~110 distinct specs and a sub-second stagger keep a backlog under
# every kill: a job here is milliseconds of work, so with a worker per CPU
# and seconds between kills the whole set finishes inside the submit phase
# and every kill lands on an idle daemon. The gate therefore counts the
# daemon's "re-admitted job" lines per restart and fails as vacuous unless
# most restarts found unfinished work to re-admit. The kill offsets are a
# fixed stagger, not random — CI must be reproducible — but they drift
# against the job cadence, so successive kills land at different points of
# the journal write sequence.
#
# Tunables (env): JOBS (default 400), DISTINCT (150), SEED (7),
# KILLS (6), ADDR (127.0.0.1:18478).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-400}"
DISTINCT="${DISTINCT:-150}"
SEED="${SEED:-7}"
KILLS="${KILLS:-6}"
ADDR="${ADDR:-127.0.0.1:18478}"

BIN="$(mktemp -d)"
DATA="$(mktemp -d)"
LOG="$BIN/server.log"

go build -o "$BIN/anduril-server" ./cmd/anduril-server
go build -o "$BIN/andurilctl" ./cmd/andurilctl

cleanup() {
  [ -n "${SRV_PID:-}" ] && kill "$SRV_PID" 2>/dev/null || true
}
trap cleanup EXIT

fail() {
  echo "server_crash: $1; daemon log:" >&2
  cat "$LOG" >&2
  exit 1
}

start_daemon() {
  "$BIN/anduril-server" -data-dir "$DATA" -addr "$ADDR" \
    -workers 1 >>"$LOG" 2>&1 &
  SRV_PID=$!
  for _ in $(seq 1 100); do
    if "$BIN/andurilctl" health -server "http://$ADDR" >/dev/null 2>&1; then
      return 0
    fi
    if ! kill -0 "$SRV_PID" 2>/dev/null; then
      fail "daemon died during startup"
    fi
    sleep 0.1
  done
  fail "daemon never became ready"
}

start_daemon
"$BIN/andurilctl" soak -server "http://$ADDR" \
  -jobs "$JOBS" -distinct "$DISTINCT" -seed "$SEED" -submit-only \
  || fail "submit phase failed"

readmitted() { grep -c 're-admitted job' "$LOG" || true; }

# Kill -9 at staggered offsets (0.1-0.5 s) while the backlog executes.
# Each restart must re-admit every unfinished job from the journal; a
# restart that re-admitted nothing killed an idle daemon and tested nothing.
BUSY=0
for i in $(seq 1 "$KILLS"); do
  sleep "0.$(( (i * 3) % 5 + 1 ))"
  kill -9 "$SRV_PID" 2>/dev/null || true
  wait "$SRV_PID" 2>/dev/null || true
  before="$(readmitted)"
  start_daemon
  found=$(( $(readmitted) - before ))
  [ "$found" -gt 0 ] && BUSY=$(( BUSY + 1 ))
  echo "server_crash: kill #$i done, restart re-admitted $found jobs"
done
NEED=$(( (KILLS * 2 + 2) / 3 )) # 4 of the default 6
[ "$BUSY" -ge "$NEED" ] \
  || fail "vacuous: only $BUSY of $KILLS kills hit a daemon with unfinished jobs (need $NEED)"

"$BIN/andurilctl" soak -server "http://$ADDR" \
  -jobs "$JOBS" -distinct "$DISTINCT" -seed "$SEED" -verify-only -timeout 20m \
  || fail "verify phase failed"

kill -TERM "$SRV_PID"
wait "$SRV_PID" || fail "final drain exited nonzero"
SRV_PID=""
echo "server_crash: OK ($KILLS kills survived, $BUSY mid-execution, $(readmitted) re-admissions, $JOBS submissions verified)"
