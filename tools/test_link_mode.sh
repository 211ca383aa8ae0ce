#!/bin/sh
# Checks that the built qirkit executable is linked the way configure said.
# Usage: test_link_mode.sh <qirkit> <static-pie|dynamic> [<readelf>]
#
# static-pie: a position-independent executable (ELF type DYN) with no
# program interpreter and no shared-library dependencies.
# dynamic: an executable loaded through a program interpreter (ld.so).
set -u
QIRKIT="$1"
MODE="$2"
READELF="${3:-readelf}"

fail() { echo "LINK MODE TEST FAILED ($MODE): $1" >&2; exit 1; }

[ -x "$QIRKIT" ] || fail "no executable at $QIRKIT"
HEADER="$("$READELF" -h "$QIRKIT")" || fail "readelf -h failed"
SEGMENTS="$("$READELF" -lW "$QIRKIT")" || fail "readelf -l failed"
DYNAMIC="$("$READELF" -dW "$QIRKIT")" || fail "readelf -d failed"

case "$MODE" in
  static-pie)
    echo "$HEADER" | grep -Eq 'Type:[[:space:]]+DYN' ||
      fail "ELF type is not DYN: $(echo "$HEADER" | grep 'Type:')"
    echo "$SEGMENTS" | grep -Eq '^[[:space:]]*INTERP[[:space:]]' &&
      fail "has a PT_INTERP segment"
    echo "$DYNAMIC" | grep -q '(NEEDED)' &&
      fail "needs shared libraries: $(echo "$DYNAMIC" | grep '(NEEDED)')"
    ;;
  dynamic)
    echo "$SEGMENTS" | grep -Eq '^[[:space:]]*INTERP[[:space:]]' ||
      fail "has no PT_INTERP segment"
    ;;
  *)
    fail "unknown link mode '$MODE'"
    ;;
esac
echo "qirkit is linked $MODE"
