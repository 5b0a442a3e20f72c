#!/usr/bin/env bash
# End-to-end crash drill for sharded campaigns, exercising the real
# axdse-campaign binary and a real SIGKILL (the in-process equivalents live
# in tests/dse_shard_test.cpp):
#
#   1. run the Table-3 quick grid single-process -> reference JSON/CSV
#   2. start a shard worker armed with AXDSE_FAULT=shard.executed:1: it
#      claims the first chunk and dies with SIGKILL the instant the chunk
#      finishes executing — after the work, before the result document is
#      committed, with its lease still held
#   3. two surviving workers then run concurrently on the same state
#      directory, reclaim the dead worker's stale lease, and finish
#   4. merge the state directory and cmp against the reference documents
#      (must be byte-identical: no chunk lost, none double-counted)
#   5. a `run --checkpoint-dir` armed with AXDSE_FAULT=shard.executed:2 dies
#      by SIGKILL holding the lease of its worker id "campaign"; a shard
#      worker reclaims it once stale and finishes; merge and cmp
#   6. a second killed `run` is resumed by `run` itself (its own id's lease
#      is reclaimed at once); cmp, and the state directory must be empty
#
# Usage: scripts/shard_smoke.sh [build-dir]   (default: build)

set -euo pipefail

BUILD_DIR="${1:-build}"
CAMPAIGN="$BUILD_DIR/tools/axdse-campaign"
[ -x "$CAMPAIGN" ] || {
  echo "shard_smoke: build axdse_campaign first ($CAMPAIGN)" >&2
  exit 2
}

WORK="$(mktemp -d "${TMPDIR:-/tmp}/axdse-shard-smoke.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

# The campaign-sweep quick grid: all 8 registry kernels x all 5 agents,
# 2 seeds x 120 steps per cell. cache=private keeps every chunk fully
# deterministic regardless of chunk grouping.
SPEC="kernels=matmul@10,fir@100,iir@128,conv2d@16,dct@4,dot@64,sobel3x3@12,kmeans1d@96 \
agents=all steps=120 seeds=2 seed=1 kernel-seed=2023 \
alpha=0.15 gamma=0.95 reward-cap=500 cache=private"
CHUNK_CELLS=2  # 40 cells -> 20 chunks

echo "== reference: uninterrupted single-process run =="
"$CAMPAIGN" run --chunk-cells="$CHUNK_CELLS" \
  --json="$WORK/ref.json" --csv="$WORK/ref.csv" $SPEC

echo "== casualty: worker dies by SIGKILL after executing, before committing =="
SHARD_DIR="$WORK/shard-state"
SHARD_FLAGS="--shard-dir=$SHARD_DIR --chunk-cells=$CHUNK_CELLS \
--lease-ttl-ms=2000 --heartbeat-ms=200 --poll-ms=100"

RC_DEAD=0
AXDSE_FAULT=shard.executed:1 \
  "$CAMPAIGN" shard $SHARD_FLAGS --worker-id=casualty $SPEC \
  >"$WORK/casualty.log" 2>&1 || RC_DEAD=$?
# The armed worker must have died by SIGKILL (128+9), not exited cleanly.
[ "$RC_DEAD" -eq 137 ] || {
  echo "shard_smoke: casualty should have been SIGKILLed (got $RC_DEAD)" >&2
  cat "$WORK/casualty.log" >&2
  exit 1
}
# It died holding its claim: the lease file must still be on disk, the
# chunk's result document must not.
ls "$SHARD_DIR"/chunk-*.lease >/dev/null 2>&1 || {
  echo "shard_smoke: dead worker left no lease behind" >&2
  ls -la "$SHARD_DIR" >&2
  exit 1
}

echo "== survivors: 2 concurrent workers reclaim and finish =="
"$CAMPAIGN" shard $SHARD_FLAGS --worker-id=worker-1 $SPEC \
  >"$WORK/w1.log" 2>&1 &
W1=$!
"$CAMPAIGN" shard $SHARD_FLAGS --worker-id=worker-2 $SPEC \
  >"$WORK/w2.log" 2>&1 &
W2=$!
RC1=0; RC2=0
wait "$W1" || RC1=$?
wait "$W2" || RC2=$?
echo "survivor exits: w1=$RC1 w2=$RC2"
cat "$WORK"/w1.log "$WORK"/w2.log

# The survivors must have finished the whole campaign despite the death.
[ "$RC1" -eq 0 ] && [ "$RC2" -eq 0 ] || {
  echo "shard_smoke: surviving workers did not complete" >&2
  exit 1
}
# Someone reclaimed the casualty's stale lease.
grep -qE "reclaimed=[1-9]" "$WORK/w1.log" "$WORK/w2.log" || {
  echo "shard_smoke: no survivor reported a reclaimed chunk" >&2
  exit 1
}

echo "== merge and compare =="
"$CAMPAIGN" merge --shard-dir="$SHARD_DIR" \
  --json="$WORK/merged.json" --csv="$WORK/merged.csv"
cmp "$WORK/merged.json" "$WORK/ref.json"
cmp "$WORK/merged.csv" "$WORK/ref.csv"

# Runs an `axdse-campaign run --checkpoint-dir=$1` armed to die by SIGKILL
# after executing its second chunk, before committing it.
killed_run() {
  local rc=0
  AXDSE_FAULT=shard.executed:2 \
    "$CAMPAIGN" run --chunk-cells="$CHUNK_CELLS" --checkpoint-dir="$1" $SPEC \
    >"$1.log" 2>&1 || rc=$?
  [ "$rc" -eq 137 ] || {
    echo "shard_smoke: armed run should have been SIGKILLed (got $rc)" >&2
    cat "$1.log" >&2
    exit 1
  }
}

echo "== killed run, finished by a shard worker =="
RUN_DIR="$WORK/run-state"
killed_run "$RUN_DIR"
"$CAMPAIGN" shard --shard-dir="$RUN_DIR" --chunk-cells="$CHUNK_CELLS" \
  --lease-ttl-ms=2000 --heartbeat-ms=200 --poll-ms=100 \
  --worker-id=rescuer $SPEC >"$WORK/rescuer.log" 2>&1 || {
  echo "shard_smoke: rescuer did not complete the run's directory" >&2
  cat "$WORK/rescuer.log" >&2
  exit 1
}
cat "$WORK/rescuer.log"
grep -q "reclaimed=1" "$WORK/rescuer.log" || {
  echo "shard_smoke: rescuer did not reclaim the dead run's lease" >&2
  exit 1
}
"$CAMPAIGN" merge --shard-dir="$RUN_DIR" \
  --json="$WORK/rescued.json" --csv="$WORK/rescued.csv"
cmp "$WORK/rescued.json" "$WORK/ref.json"
cmp "$WORK/rescued.csv" "$WORK/ref.csv"

echo "== killed run, resumed by run =="
RESUME_DIR="$WORK/resume-state"
killed_run "$RESUME_DIR"
"$CAMPAIGN" run --chunk-cells="$CHUNK_CELLS" --checkpoint-dir="$RESUME_DIR" \
  --json="$WORK/resumed.json" --csv="$WORK/resumed.csv" $SPEC
cmp "$WORK/resumed.json" "$WORK/ref.json"
cmp "$WORK/resumed.csv" "$WORK/ref.csv"
[ -z "$(ls -A "$RESUME_DIR")" ] || {
  echo "shard_smoke: completed run left files in its directory" >&2
  ls -la "$RESUME_DIR" >&2
  exit 1
}
echo "shard_smoke OK: merged and resumed documents byte-identical after SIGKILL"
