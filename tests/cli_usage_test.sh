#!/usr/bin/env bash
# Failure-path contract of the bblab CLI: every bad invocation — unknown
# command, unknown option, option missing its value, malformed or
# out-of-range numeric value, subcommand missing its argument — prints the
# usage text to stderr, prints NOTHING to stdout, and exits 2 before any
# work starts (no dataset, no thread pool, no output directory, no cache
# change). A run that loses shards to --deadline exits 4 instead.
#
# --threads is only ever given values that bblab rejects: an accepted large
# value would start that many threads.
set -u

BBLAB=$1
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
fails=0

check() {
  local desc=$1
  shift
  local out err code
  out=$("$@" 2>"$WORK/err")
  code=$?
  err=$(cat "$WORK/err")
  if [ "$code" -ne 2 ]; then
    echo "FAIL ($desc): exit code $code, want 2"
    fails=1
  fi
  if [ -n "$out" ]; then
    echo "FAIL ($desc): stdout not empty: '$out'"
    fails=1
  fi
  case "$err" in
    *"usage: bblab"*) ;;
    *)
      echo "FAIL ($desc): stderr does not show usage"
      fails=1
      ;;
  esac
}

check "no command"              "$BBLAB"
check "unknown command"         "$BBLAB" frobnicate
check "unknown option"          "$BBLAB" markets --bogus
check "option missing value"    "$BBLAB" generate --seed
check "cache-dir missing value" "$BBLAB" generate --cache-dir
check "experiment no name"      "$BBLAB" experiment
check "experiment bad name"     "$BBLAB" experiment tab99
check "figure no name"          "$BBLAB" figure
check "figure bad name"         "$BBLAB" figure fig99
check "figure given a table"    "$BBLAB" figure tab1
check "experiment given figure" "$BBLAB" experiment fig3
check "ingest no file"          "$BBLAB" ingest
check "pack no path"            "$BBLAB" pack
check "cat no path"             "$BBLAB" cat
check "cache no subcommand"     "$BBLAB" cache
check "cache bad subcommand"    "$BBLAB" cache frobnicate
check "cache rm no key"         "$BBLAB" cache rm
check "checkpoint is unknown"   "$BBLAB" generate --checkpoint "$WORK/ckpt"
check "resume is unknown"       "$BBLAB" generate --resume
check "deadline missing value"  "$BBLAB" generate --deadline
check "retries zero"            "$BBLAB" generate --retries 0
check "fs-faults missing spec"  "$BBLAB" generate --fs-faults
check "fs-faults bad spec"      "$BBLAB" generate --fs-faults bogus@3
check "fs-faults bad index"     "$BBLAB" generate --fs-faults eio@x
check "fs-faults signed index"  "$BBLAB" generate --fs-faults eio@-1
check "log-level missing value" "$BBLAB" generate --log-level
check "log-level invalid"       "$BBLAB" generate --log-level verbose
check "metrics-out no path"     "$BBLAB" generate --metrics-out
check "trace-out no path"       "$BBLAB" generate --trace-out

# Numeric values: the whole token must parse, and be in range.
NEVER="$WORK/never"
check "seed not a number"       "$BBLAB" experiment tab5 --seed abc --scale 0.01 --days 0.1
check "seed negative"           "$BBLAB" generate --out "$NEVER" --seed -1
check "seed overflows u64"      "$BBLAB" generate --out "$NEVER" --seed 18446744073709551616
check "seed with sign"          "$BBLAB" generate --out "$NEVER" --seed +7
check "seed with space"         "$BBLAB" generate --out "$NEVER" --seed " 7"
check "scale trailing garbage"  "$BBLAB" generate --out "$NEVER" --scale 0.01x
check "scale not a number"      "$BBLAB" generate --out "$NEVER" --scale abc
check "scale zero"              "$BBLAB" generate --out "$NEVER" --scale 0
check "scale negative"          "$BBLAB" generate --out "$NEVER" --scale -0.5
check "scale infinite"          "$BBLAB" generate --out "$NEVER" --scale inf
check "scale nan"               "$BBLAB" generate --out "$NEVER" --scale nan
check "days zero"               "$BBLAB" generate --out "$NEVER" --days 0
check "days trailing garbage"   "$BBLAB" generate --out "$NEVER" --days 1d
check "days empty"              "$BBLAB" generate --out "$NEVER" --days ""
check "deadline negative"       "$BBLAB" generate --out "$NEVER" --deadline -1
check "deadline nan"            "$BBLAB" generate --out "$NEVER" --deadline nan
check "deadline infinite"       "$BBLAB" generate --out "$NEVER" --deadline inf
check "deadline suffix"         "$BBLAB" generate --out "$NEVER" --deadline 5s
check "faults unknown key"      "$BBLAB" generate --out "$NEVER" --faults bogus=1
check "faults out of range"     "$BBLAB" generate --out "$NEVER" --faults churn=-3
check "threads trailing garbage" "$BBLAB" generate --out "$NEVER" --scale 0.01x --threads 1x
check "threads garbage alone"   "$BBLAB" generate --out "$NEVER" --threads 1x
check "threads not a number"    "$BBLAB" generate --out "$NEVER" --threads abc
check "threads above ceiling"   "$BBLAB" generate --out "$NEVER" --threads 257
check "threads empty"           "$BBLAB" generate --out "$NEVER" --threads ""
check "serve threads ceiling"   timeout 30 "$BBLAB" serve --socket "$WORK/s.sock" --threads 257
check "serve threads garbage"   timeout 30 "$BBLAB" serve --socket "$WORK/s.sock" --threads 2x
check "retries garbage"         "$BBLAB" generate --out "$NEVER" --retries 3x
check "retries negative"        "$BBLAB" generate --out "$NEVER" --retries -2
check "retries overflow int"    "$BBLAB" generate --out "$NEVER" --retries 2147483648
check "max-open-bytes suffix"   timeout 30 "$BBLAB" serve --socket "$WORK/s.sock" --max-open-bytes 10GB
check "max-open-bytes overflow" timeout 30 "$BBLAB" serve --socket "$WORK/s.sock" --max-open-bytes 99999999999999999999
if [ -e "$NEVER" ] || [ -e "$WORK/s.sock" ] || [ -e "$WORK/ckpt" ]; then
  echo "FAIL: a rejected invocation created output before exiting"
  fails=1
fi

# cache trim reads its budget as a byte count: "1e9" and "10GB" are usage
# errors, and the entry already in the cache survives them.
export BBLAB_CACHE_DIR="$WORK/cache"
if "$BBLAB" generate --cache --seed 5 --scale 0.01 --days 0.1 --threads 1 \
    --out "$WORK/gen" >/dev/null 2>&1; then
  check "max-cache-bytes exponent" "$BBLAB" cache trim --max-cache-bytes 1e9
  check "max-cache-bytes suffix"   "$BBLAB" cache trim --max-cache-bytes 10GB
  check "max-cache-bytes negative" "$BBLAB" cache trim --max-cache-bytes -1
  entries=$("$BBLAB" cache ls | sed '$d' | wc -l)
  if [ "$entries" -ne 1 ]; then
    echo "FAIL: rejected cache trim changed the cache: $entries entries, want 1"
    fails=1
  fi
else
  echo "FAIL: could not populate a cache entry for the trim checks"
  fails=1
fi

# --deadline needs no cache: on one thread every shard of two or more
# households overruns 0.1 ms, is quarantined, and the run exits 4.
"$BBLAB" generate --scale 0.05 --days 0.5 --threads 1 --deadline 0.0001 --qc-report \
  --out "$WORK/late" >/dev/null 2>"$WORK/late.err"
code=$?
if [ "$code" -ne 4 ]; then
  echo "FAIL: generate --deadline 0.0001 without a cache: exit code $code, want 4"
  fails=1
fi
if ! grep -q "deadline-exceeded" "$WORK/late.err"; then
  echo "FAIL: generate --deadline 0.0001: the QC report lists no deadline-exceeded row"
  fails=1
fi

if [ "$fails" -ne 0 ]; then
  exit 1
fi
echo "PASS: all bad invocations -> usage on stderr, empty stdout, exit 2"
