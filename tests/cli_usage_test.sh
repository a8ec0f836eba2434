#!/usr/bin/env bash
# Failure-path contract of the bblab CLI: every bad invocation — unknown
# command, unknown option, option missing its value, subcommand missing
# its argument — prints the usage text to stderr, prints NOTHING to
# stdout, and exits 2.
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
check "ingest no file"          "$BBLAB" ingest
check "pack no path"            "$BBLAB" pack
check "cat no path"             "$BBLAB" cat
check "cache no subcommand"     "$BBLAB" cache
check "cache bad subcommand"    "$BBLAB" cache frobnicate
check "cache rm no key"         "$BBLAB" cache rm
check "checkpoint missing dir"  "$BBLAB" generate --checkpoint
check "resume sans checkpoint"  "$BBLAB" generate --resume
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

if [ "$fails" -ne 0 ]; then
  exit 1
fi
echo "PASS: all bad invocations -> usage on stderr, empty stdout, exit 2"
