#!/usr/bin/env bash
# EXPERIMENTS.md's scorecard is the literal output of
#   bblab scorecard --markdown --scale 0.25 --days 1.5
# (seed 2014 is the CLI default), between its BEGIN/END scorecard
# markers. The measured column of the obs.* rows reports live process
# counters (DESIGN.md §11), so it is blanked on both sides; every other
# byte, verdicts included, must match.
# Usage: docs_scorecard_test.sh path/to/bblab path/to/EXPERIMENTS.md
set -u

BBLAB=$1
DOC=$2
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

mask_live_rows() {
  awk -F' \\| ' 'BEGIN { OFS = " | " } /^\| `obs\./ { $3 = "" } { print }'
}

sed -n '/^<!-- BEGIN scorecard/,/^<!-- END scorecard/p' "$DOC" | sed '1d;$d' \
  | mask_live_rows >"$WORK/doc"
if [ ! -s "$WORK/doc" ]; then
  echo "FAIL: no scorecard between the BEGIN/END markers of $DOC"
  exit 1
fi

"$BBLAB" scorecard --markdown --scale 0.25 --days 1.5 >"$WORK/raw" 2>"$WORK/err"
rc=$?
# Exit 1 is a pass rate under 70%: the table still prints and is compared.
if [ "$rc" -gt 1 ]; then
  echo "FAIL: bblab scorecard exited $rc"
  cat "$WORK/err"
  exit 1
fi
mask_live_rows <"$WORK/raw" >"$WORK/cli"

if ! diff -u "$WORK/doc" "$WORK/cli"; then
  echo "FAIL: EXPERIMENTS.md's scorecard differs from bblab's (- doc, + bblab)"
  exit 1
fi
echo "docs_scorecard_test: OK"
