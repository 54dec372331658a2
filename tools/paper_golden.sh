#!/bin/sh
# Paper golden test: runs one figure or validation program and diffs its
# stdout (the table the paper's figure plots, with the paper's claim)
# against the file recorded in tests/golden/paper/.  The programs are
# seed-deterministic, so any change to what a figure reports fails here.
#
#   tools/paper_golden.sh PROGRAM GOLDEN            check
#   tools/paper_golden.sh --record PROGRAM GOLDEN   re-record
#
# Re-record only for an intentional change to a figure: commit the new
# file with the change and say in the commit message why the table moved.
set -u

record=0
if [ "${1:-}" = "--record" ]; then
  record=1
  shift
fi
if [ $# -ne 2 ]; then
  echo "usage: $0 [--record] PROGRAM GOLDEN" >&2
  exit 2
fi
program=$1
golden=$2

out=$(mktemp)
trap 'rm -f "$out"' EXIT
if ! "$program" > "$out"; then
  echo "$program failed" >&2
  exit 1
fi
if [ $record -eq 1 ]; then
  cp "$out" "$golden"
elif ! diff -u "$golden" "$out"; then
  echo "paper golden '$golden' drifted" >&2
  exit 1
fi
