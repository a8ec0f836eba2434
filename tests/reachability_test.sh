#!/usr/bin/env bash
# Reachability: every header under src/ must be included, directly or
# transitively, from a product entry point, that is the bblab CLI and
# daemon (tools/bblab_cli.cpp) or the end-to-end benchmark driver
# (perfbench/driver.cpp). The walk follows `#include "..."` lines that
# resolve under src/; reaching src/X.h also follows src/X.cpp, because
# the implementation is what pulls in the header's own dependencies.
# A header that no entry point reaches is code that only tests or
# harness binaries call; the test names every one and fails.
#
# usage: reachability_test.sh <repository root>
set -euo pipefail
root=${1:?usage: reachability_test.sh <repository root>}
cd "$root"

entries=(tools/bblab_cli.cpp perfbench/driver.cpp)
for entry in "${entries[@]}"; do
  [[ -f $entry ]] || { echo "FAIL: entry point $entry is missing"; exit 1; }
done

declare -A reached=()
queue=("${entries[@]}")
while ((${#queue[@]} > 0)); do
  file=${queue[0]}
  queue=("${queue[@]:1}")
  while IFS= read -r include; do
    path=src/$include
    [[ -f $path && -z ${reached[$path]:-} ]] || continue
    reached[$path]=1
    queue+=("$path")
    impl=${path%.h}.cpp
    if [[ $path == *.h && -f $impl && -z ${reached[$impl]:-} ]]; then
      reached[$impl]=1
      queue+=("$impl")
    fi
  done < <(sed -n 's/^[[:space:]]*#[[:space:]]*include[[:space:]]*"\([^"]*\)".*/\1/p' "$file")
done

headers=()
while IFS= read -r header; do headers+=("$header"); done < <(find src -name '*.h' | sort)
unreached=()
for header in "${headers[@]}"; do
  [[ -n ${reached[$header]:-} ]] || unreached+=("$header")
done
if ((${#unreached[@]} > 0)); then
  echo "FAIL: ${#unreached[@]} of ${#headers[@]} src/ headers are reached from neither" \
       "${entries[*]}:"
  printf '  %s\n' "${unreached[@]}"
  exit 1
fi
echo "ok: all ${#headers[@]} src/ headers are reachable from ${entries[*]}"
