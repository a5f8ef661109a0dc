#!/usr/bin/env bash
# Command-line checks of the fault-campaign driver.
#
#   out-dir       --out=DIR names a directory that does not exist yet,
#                 two levels deep: the run must create it and leave both
#                 fault_corpus.txt and fault_report.txt in it.
#   unknown-flag  a misspelt flag (--case=8) exits 2 with a message on
#                 stderr and runs no case (nothing on stdout).
#
# Usage: fault_campaign_cli.sh /path/to/fault_campaign out-dir|unknown-flag
set -u

BIN=${1:?usage: fault_campaign_cli.sh /path/to/fault_campaign MODE}
MODE=${2:?usage: fault_campaign_cli.sh /path/to/fault_campaign MODE}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/gecko_faultcli.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

case "$MODE" in
  out-dir)
    OUT="$WORK/nested/out"
    "$BIN" --cases=64 --seed=1 --out="$OUT" >"$WORK/stdout" 2>"$WORK/err"
    rc=$?
    if [ $rc -ne 0 ]; then
        echo "FAIL: fault_campaign --out=$OUT exited $rc"
        cat "$WORK/err"
        exit 1
    fi
    for f in fault_corpus.txt fault_report.txt; do
        if [ ! -f "$OUT/$f" ]; then
            echo "FAIL: $OUT/$f missing"
            exit 1
        fi
    done
    if ! cmp -s "$OUT/fault_report.txt" "$WORK/stdout"; then
        echo "FAIL: fault_report.txt differs from the printed report"
        exit 1
    fi
    echo "PASS: both artifacts written under a fresh nested --out"
    ;;
  unknown-flag)
    "$BIN" --case=8 >"$WORK/stdout" 2>"$WORK/err"
    rc=$?
    if [ $rc -ne 2 ]; then
        echo "FAIL: --case=8 exited $rc, want 2"
        exit 1
    fi
    if ! grep -q -- "--case=8" "$WORK/err"; then
        echo "FAIL: stderr does not name the flag"
        cat "$WORK/err"
        exit 1
    fi
    if [ -s "$WORK/stdout" ]; then
        echo "FAIL: cases ran despite the unknown flag"
        head -3 "$WORK/stdout"
        exit 1
    fi
    echo "PASS: unknown flag rejected with exit 2"
    ;;
  *)
    echo "unknown mode: $MODE"
    exit 2
    ;;
esac
