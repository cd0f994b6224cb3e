#!/usr/bin/env bash
# End-to-end serving gate: a live redoptd on a Unix-domain socket,
# synthetic clients, a kill -9 mid-job, and a restart over the same
# state directory.  The crash-recovery contract under test is byte
# equality: the resumed daemon's final manifests must be identical to an
# uninterrupted reference run's (checkpoints and manifests are
# deterministic, so `cmp` is the whole assertion).  The daemon's
# --trace-out file must also pass redopt-trace --validate.
#
#   scripts/check_serving.sh [BUILD]
#
# Uses build/ by default.  Exit 0 on success, 1 on any divergence.
set -eu
cd "$(dirname "$0")/.."

BUILD=${1:-build}

cmake --build "$BUILD" --target redoptd redopt-trace -j "$(nproc)"
REDOPTD=$(pwd)/$BUILD/tools/redoptd/redoptd
REDOPT_TRACE=$(pwd)/$BUILD/tools/redopt-trace/redopt-trace

OUT=$(mktemp -d -t redopt-serving.XXXXXX)
DAEMON_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$OUT"
}
trap cleanup EXIT

# A deterministic job batch; job-big gets the full default per-job
# budget of rounds, so it is still running when the kill below lands.
"$REDOPTD" --generate 2 --seed 7 > "$OUT/jobs.jsonl"
head -1 "$OUT/jobs.jsonl" | sed 's/"job":"job-0"/"job":"job-a"/' > "$OUT/job-a.json"
sed -n 2p "$OUT/jobs.jsonl" | sed 's/"job":"job-1"/"job":"job-b"/' > "$OUT/job-b.json"
sed 's/"job":"job-a"/"job":"job-big"/; s/"rounds":[0-9]*/"rounds":100000/' \
  "$OUT/job-a.json" > "$OUT/job-big.json"

# wait_for_socket DIR SOCKET: redoptd prints its status line after
# binding; the client retries connects, so a short settle is enough.
start_daemon() { # socket state_dir [extra flags...]
  local socket=$1 state=$2
  shift 2
  "$REDOPTD" --serve --socket "$socket" --state-dir "$state" "$@" \
    > "$state.log" 2>&1 &
  DAEMON_PID=$!
  sleep 0.3
}

submit_all() { # socket
  for job in job-a job-b job-big; do
    "$REDOPTD" --submit "$OUT/$job.json" --socket "$1" > /dev/null
  done
}

wait_done() { # socket state_dir
  for _ in $(seq 1 600); do
    if [ -f "$2/job-a.manifest.json" ] && [ -f "$2/job-b.manifest.json" ] \
       && [ -f "$2/job-big.manifest.json" ]; then
      return 0
    fi
    sleep 0.2
  done
  echo "check_serving.sh: jobs did not finish (see $2.log)" >&2
  return 1
}

echo "=== reference run (uninterrupted) ==="
start_daemon "$OUT/ref.sock" "$OUT/ref" --trace-out "$OUT/ref-trace.json"
submit_all "$OUT/ref.sock"
wait_done "$OUT/ref.sock" "$OUT/ref"
"$REDOPTD" --shutdown --socket "$OUT/ref.sock" > /dev/null
wait "$DAEMON_PID" || true
DAEMON_PID=""

echo "=== crash run (kill -9 mid-job, restart over the same state dir) ==="
start_daemon "$OUT/cr.sock" "$OUT/cr"
submit_all "$OUT/cr.sock"
# Kill once job-big has run a few slices, so the restart re-adopts a
# straggler window and in-flight replies, and long before its last
# round (a fixed sleep lets a fast machine finish all 100,000 rounds).
rounds_done=0
for _ in $(seq 1 1000); do
  rounds_done=$("$REDOPTD" --status job-big --socket "$OUT/cr.sock" 2>/dev/null \
    | sed -n 's/.*"rounds_done":\([0-9]*\).*/\1/p')
  [ "${rounds_done:-0}" -ge 64 ] && break
  sleep 0.01
done
kill -9 "$DAEMON_PID"
DAEMON_PID=""
# The persisted checkpoint must be mid-job: past round 0 (the one written
# at admission) and short of the end (a finished job has none).
ckpt_round=$(sed -n 's/.*"next_round":\([0-9]*\).*/\1/p' "$OUT/cr/job-big.ckpt.json" \
  2>/dev/null || true)
if [ "${ckpt_round:-0}" -eq 0 ] || [ "$ckpt_round" -ge 100000 ]; then
  echo "check_serving.sh: kill did not land mid-job (status rounds_done=${rounds_done:-?}," \
    "checkpoint next_round=${ckpt_round:-none})" >&2
  exit 1
fi
echo "  killed with job-big's checkpoint at round $ckpt_round"

start_daemon "$OUT/cr.sock" "$OUT/cr"
grep -q "resumed" "$OUT/cr.log"
wait_done "$OUT/cr.sock" "$OUT/cr"
"$REDOPTD" --status job-big --socket "$OUT/cr.sock"
"$REDOPTD" --shutdown --socket "$OUT/cr.sock" > /dev/null
wait "$DAEMON_PID" || true
DAEMON_PID=""

echo "=== manifests must be byte-identical ==="
for job in job-a job-b job-big; do
  cmp "$OUT/ref/$job.manifest.json" "$OUT/cr/$job.manifest.json"
  echo "  $job: OK"
done
# No checkpoint may survive a completed run.
if ls "$OUT/cr"/*.ckpt.json 2>/dev/null; then
  echo "check_serving.sh: stale checkpoint left behind" >&2
  exit 1
fi

echo "=== trace file must pass redopt-trace --validate ==="
"$REDOPT_TRACE" --validate "$OUT/ref-trace.json"

echo "check_serving.sh: OK"
