#!/usr/bin/env bash
# End-to-end checks of the fastdnamlpp command line on an 8x200 synthetic
# dataset, one case per ctest entry (tests/CMakeLists.txt):
#
#   tests/test_cli.sh FASTDNAMLPP serial-equals-cluster|unwritable-out|
#                                 malformed-number|resume-other-dataset
set -u
BINARY=$1
CASE=$2
DATA=(--taxa=8 --sites=200 --seed=3 --quiet)
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

fail() { echo "FAIL ($CASE): $*" >&2; exit 1; }
# Runs the binary with stdout/stderr captured; STATUS is its exit code.
run() { "$BINARY" "$@" > "$WORK/stdout" 2> "$WORK/stderr"; STATUS=$?; }
expect() { [ "$STATUS" -eq "$1" ] || fail "$2: exit $STATUS, want $1"; }

case "$CASE" in
  serial-equals-cluster)  # byte-identical result files, lnL line included
    run "${DATA[@]}" --out="$WORK/serial.out"; expect 0 serial
    run "${DATA[@]}" --workers=2 --out="$WORK/cluster.out"; expect 0 cluster
    grep -q '^lnL -[0-9]*\.[0-9]\{6\}$' "$WORK/serial.out" || fail "no lnL line"
    cmp "$WORK/serial.out" "$WORK/cluster.out" || fail "results differ" ;;
  unwritable-out)  # every output file into a missing directory
    for flags in "--out=$WORK/no/best.nwk" "--bootstrap=2 --out=$WORK/no/boot.nwk" \
                 "--jumble=2 --svg=$WORK/no/compare.svg"; do
      run "${DATA[@]}" $flags; expect 1 "$flags"
      grep -q "error writing $WORK/no/" "$WORK/stderr" || fail "$flags: no error"
      ! grep -q '^wrote' "$WORK/stdout" || fail "$flags: claims a write"
    done ;;
  malformed-number)  # usage errors, not an abort
    run "${DATA[@]}" --workers=four; expect 2 --workers=four
    grep -qF -- "--workers=four" "$WORK/stderr" || fail "flag not named"
    run "${DATA[@]}" --workers=0; expect 2 --workers=0 ;;
  resume-other-dataset)  # names both fingerprints, which differ
    run "${DATA[@]}" --checkpoint="$WORK/run.ckpt"; expect 0 checkpoint
    run --taxa=9 --sites=200 --seed=3 --resume="$WORK/run.ckpt"; expect 1 resume
    read -r found expected < <(sed -nE \
      's/.*fingerprint ([0-9]+) but the loaded alignment\/model has ([0-9]+).*/\1 \2/p' \
      "$WORK/stderr")
    [ -n "${found:-}" ] || fail "fingerprints not named"
    [ "$found" != "$expected" ] || fail "fingerprints equal" ;;
  *) fail "unknown case" ;;
esac
echo "PASS ($CASE)"
