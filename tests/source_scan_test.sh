#!/usr/bin/env bash
# Source scan: calls that must not appear in product code (src/ and
# tools/). Each rule is an extended regex and the reason it is banned; the
# test prints every offending line and fails.
#
# - Number parsing of untrusted text goes through core/parse.h's
#   parse_number. std::sto*, strto* and ato* skip leading blanks, accept
#   '+', hex and trailing garbage (or report it only through an
#   out-parameter), and wrap a negative into an unsigned result.
#
# usage: source_scan_test.sh <repository root>
set -euo pipefail
root=${1:?usage: source_scan_test.sh <repository root>}
cd "$root"

rules=(
  '\b(sto(i|l|ll|ul|ull|f|d|ld)|strto(l|ll|ul|ull|f|d|ld|imax|umax)|ato(i|l|ll|f))[[:space:]]*\('
  'parse numbers with parse_number (core/parse.h)'
)

status=0
for ((i = 0; i < ${#rules[@]}; i += 2)); do
  pattern=${rules[i]}
  reason=${rules[i + 1]}
  if hits=$(grep -rnE --include='*.h' --include='*.cpp' "$pattern" src tools); then
    echo "FAIL: $reason:"
    sed 's/^/  /' <<<"$hits"
    status=1
  fi
done
if ((status == 0)); then echo "ok: no banned call under src/ or tools/"; fi
exit $status
