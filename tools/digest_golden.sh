#!/bin/sh
# Digest golden test: re-runs fixed chaos and explorer sweeps and diffs
# their per-seed result lines (trace digests, oracle verdicts, counts)
# against the files recorded in tests/golden/.  Any behaviour change in
# the replication path moves a digest and fails this test.  Two chaos runs
# also write every observability artifact (metrics registry, JSONL event
# stream, Chrome trace, post-mortem, health feed): the metrics JSON is
# pinned verbatim and the other four by cksum, so a change to what the
# observer plane reports fails it too.
#
#   tools/digest_golden.sh TOOLS_DIR GOLDEN_DIR            check
#   tools/digest_golden.sh --record TOOLS_DIR GOLDEN_DIR   re-record
#
# TOOLS_DIR holds the built chaos_main and explore_main.  Re-record only
# for an intentional digest cut: run with --record on the change, commit
# the rewritten files together with it, and say in the commit message why
# the digests moved.
set -u

record=0
if [ "${1:-}" = "--record" ]; then
  record=1
  shift
fi
if [ $# -ne 2 ]; then
  echo "usage: $0 [--record] TOOLS_DIR GOLDEN_DIR" >&2
  exit 2
fi
tools=$1
golden=$2

status=0
# check NAME COMMAND...: compare (or record) COMMAND's stdout as NAME.txt.
check() {
  name=$1
  shift
  out=$("$@")
  if [ $record -eq 1 ]; then
    printf '%s\n' "$out" > "$golden/$name.txt"
  elif ! printf '%s\n' "$out" | diff -u "$golden/$name.txt" -; then
    echo "digest golden '$name' drifted" >&2
    status=1
  fi
}

check chaos_default "$tools/chaos_main" --seeds 16
check chaos_multibackup_overload_restart \
  "$tools/chaos_main" --seeds 16 --backups 2 --overload --crash-restart
# Partition primary from successor with fencing on: every seed fails over
# and the deposed primary steps down (the only golden that reaches
# step_down() with fencing on).
check chaos_partition_failover "$tools/chaos_main" --seeds 16 --backups 2 --partition
check chaos_sharded "$tools/chaos_main" --seeds 8 --shards 4 --threads 4 --objects 8
# Durable shards: each shard restarts its crashed replica like a classic seed.
check chaos_sharded_crash_restart \
  "$tools/chaos_main" --seeds 8 --shards 4 --threads 4 --objects 8 --crash-restart
check explore_default sh -c "\"$tools/explore_main\" | grep trajectories"
# Three nodes: the multi-backup failover states the 2-node pair never reaches.
check explore_multibackup sh -c \
  "\"$tools/explore_main\" --backups 2 --objects 2 --faults 2 --quiet | grep trajectories"
# Staggered same-kind overload pairs (throttle_bandwidth on 19, 44 and 67,
# inflate_latency on 94): the second fault starts before the first ends,
# so each end action runs while the other fault holds the link.
check chaos_overlapping_overload sh -c "for s in 19 44 67 94; do \
  \"$tools/chaos_main\" --seed \$s --backups 2 --overload --crash-restart; done"
# FaultPlan reproducers of failing seeds: every schedule verb but
# crash_backup, shard storms included.
check chaos_reproducer_no_failover "$tools/chaos_main" --seeds 4 --sabotage no-failover \
  --overload --shards 2 --objects 8
check chaos_reproducer_split_brain "$tools/chaos_main" --seeds 2 --sabotage split-brain
check chaos_reproducer_torn_write "$tools/chaos_main" --seeds 2 --sabotage torn-write --overload

# sabotage MODE: the explorer's counterexample artifact for a planted bug,
# verbatim, the cksum of its post-mortem, and chaos_main's replay of it
# (which prints the artifact's FaultPlan reproducer).
sabotage() {
  dir=$(mktemp -d)
  "$tools/explore_main" --sabotage "$1" --emit "$dir/ce.txt" --quiet > /dev/null
  check "explore_sabotage_$2" sh -c "cat \"$dir/ce.txt\"; cksum < \"$dir/ce.txt.postmortem.jsonl\"; \
    \"$tools/chaos_main\" --replay \"$dir/ce.txt\""
  rm -rf "$dir"
}
sabotage split-brain split_brain
sabotage no-failover no_failover
sabotage torn-write torn_write

# artifacts NAME CHAOS_ARGS...: one chaos run writing every observability
# artifact into a scratch directory; pins NAME_metrics.txt (the registry
# JSON) and NAME_cksum.txt (cksum of the other four files).
artifacts() {
  art=$1
  shift
  dir=$(mktemp -d)
  "$tools/chaos_main" "$@" --flight-recorder --jsonl-out "$dir/events.jsonl" \
    --trace-out "$dir/trace.json" --metrics-out "$dir/metrics.json" \
    --postmortem "$dir/postmortem.jsonl" --health-out "$dir/health.jsonl" > /dev/null
  check "${art}_metrics" cat "$dir/metrics.json"
  check "${art}_cksum" sh -c "cd \"$dir\" && for f in events.jsonl trace.json postmortem.jsonl health.jsonl; do echo \"\$(cksum < \$f) \$f\"; done"
  rm -rf "$dir"
}

# Batched: shed, QoS downgrade/restore, resync, crash, NACK and batch paths.
artifacts artifacts_batch --seed 7 --backups 2 --overload --crash-restart
# One kUpdate frame per update: loss-injected and retransmission events.
artifacts artifacts_no_batch --seed 7 --backups 2 --overload --crash-restart \
  --no-batch
exit $status
