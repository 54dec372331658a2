#!/bin/sh
# Digest golden test: re-runs fixed chaos and explorer sweeps and diffs
# their per-seed result lines (trace digests, oracle verdicts, counts)
# against the files recorded in tests/golden/.  Any behaviour change in
# the replication path moves a digest and fails this test.
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
check chaos_sharded "$tools/chaos_main" --seeds 8 --shards 4 --threads 4 --objects 8
check explore_default sh -c "\"$tools/explore_main\" | grep trajectories"
exit $status
