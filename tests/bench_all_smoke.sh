#!/usr/bin/env bash
# Smoke test of the figure-suite runner: bench_all runs two figures in its
# --quick pass and its aggregate must carry the quantum-loop telemetry
# of every child.  fig_adaptive runs defended cells under a tone, so
# the fused kernel engages (about 18 M fused quanta); table2_comparison
# is compile-only and reports none.
#
# Checks: exit status 0, a `fused_quanta` key in every figure row, and
# a nonzero `total_fused_quanta`.
#
# Usage: bench_all_smoke.sh /path/to/bench_all
set -u

BENCH=${1:?usage: bench_all_smoke.sh /path/to/bench_all}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/gecko_benchall.XXXXXX")
trap 'rm -rf "$WORK"' EXIT
OUT="$WORK/suite.json"

"$BENCH" --quick --out="$OUT" fig_adaptive table2_comparison \
    2>"$WORK/err"
rc=$?
if [ $rc -ne 0 ]; then
    echo "FAIL: bench_all exited $rc"
    cat "$WORK/err"
    exit 1
fi

rows=$(grep -o '"figure":"[^"]*"' "$OUT" | wc -l)
fused=$(grep -o '"fused_quanta":[0-9]*' "$OUT" | wc -l)
if [ "$rows" -ne 2 ] || [ "$fused" -ne "$rows" ]; then
    echo "FAIL: $rows figure rows, $fused with fused_quanta"
    cat "$OUT"
    exit 1
fi

total=$(grep -o '"total_fused_quanta":[0-9]*' "$OUT" | cut -d: -f2)
if [ -z "$total" ] || [ "$total" -eq 0 ]; then
    echo "FAIL: total_fused_quanta is '${total}', want nonzero"
    cat "$OUT"
    exit 1
fi
echo "PASS: $rows figure rows, total_fused_quanta=$total"
