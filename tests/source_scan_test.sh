#!/usr/bin/env bash
# Source scan: calls that must not appear in product code (src/ and
# tools/). Each rule is an extended regex, the directories it covers and
# the reason it is banned; the test prints every offending line and fails.
#
# - Number parsing of untrusted text goes through core/parse.h's
#   parse_number. std::sto*, strto* and ato* skip leading blanks, accept
#   '+', hex and trailing garbage (or report it only through an
#   out-parameter), and wrap a negative into an unsigned result.
# - No std::unordered_* container under src/: its iteration order is the
#   standard library's, so any output that walks one would differ between
#   libraries. Use std::map, or a sorted vector.
# - No statement may draw from an Rng twice. Two draws in one argument
#   list, or as the operands of one operator, happen in an unspecified
#   order, so the output would depend on the compiler. A draw is a call
#   of an Rng sampling method (with or without a receiver) or an
#   `...rng` variable passed as an argument; fork() does not draw. The
#   text is cut into statements at ';', '{' and '}' after comments and
#   string literals are blanked. The rule is conservative: it also flags
#   two draws around '?:', '&&', '||' or ',', which are sequenced.
#
# usage: source_scan_test.sh <repository root>
set -euo pipefail
root=${1:?usage: source_scan_test.sh <repository root>}
cd "$root"

rules=(
  '\b(sto(i|l|ll|ul|ull|f|d|ld)|strto(l|ll|ul|ull|f|d|ld|imax|umax)|ato(i|l|ll|f))[[:space:]]*\('
  'src tools'
  'parse numbers with parse_number (core/parse.h)'
  'std::unordered_'
  'src'
  'iteration order of std::unordered_* is the library'"'"'s; use std::map or a sorted vector'
)

status=0
for ((i = 0; i < ${#rules[@]}; i += 3)); do
  pattern=${rules[i]}
  read -ra dirs <<<"${rules[i + 1]}"
  reason=${rules[i + 2]}
  if hits=$(grep -rnE --include='*.h' --include='*.cpp' "$pattern" "${dirs[@]}"); then
    echo "FAIL: $reason:"
    sed 's/^/  /' <<<"$hits"
    status=1
  fi
done

mapfile -t sources < <(find src tools \( -name '*.h' -o -name '*.cpp' \) | sort)
if ! perl - "${sources[@]}" <<'PERL'; then
use strict;
use warnings;
my $draw = qr/\b(?:next_u64|uniform_int|uniform|bernoulli|normal|lognormal|exponential
                 |pareto|poisson|index|weighted|shuffle)\s*\(|[(,]\s*\w*rng\s*[,)]/x;
my $status = 0;
for my $file (@ARGV) {
  open my $fh, '<', $file or die "$file: $!";
  my $src = do { local $/; <$fh> };
  close $fh;
  # Blank comments and string literals, keeping newlines for line numbers.
  $src =~ s{//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"}{(my $m = $&) =~ s/[^\n]/ /g; $m}gse;
  my $line = 1;
  for my $stmt (split /(?<=[;{}])/, $src) {
    if ((() = $stmt =~ /$draw/g) >= 2) {
      my ($lead) = $stmt =~ /\A(\s*)/;
      (my $text = $stmt) =~ s/\s+/ /g;
      print "FAIL: two Rng draws in one statement (unspecified order):\n";
      printf "  %s:%d:%s\n", $file, $line + (() = $lead =~ /\n/g), $text;
      $status = 1;
    }
    $line += () = $stmt =~ /\n/g;
  }
}
exit $status;
PERL
  status=1
fi
if ((status == 0)); then echo "ok: no banned call under src/ or tools/"; fi
exit $status
