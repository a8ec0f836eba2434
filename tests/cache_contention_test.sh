#!/usr/bin/env bash
# Concurrency and hygiene contract of the artifact cache: two processes
# racing to populate the same fingerprint must converge on exactly one
# cached run, one segment per shard, with identical outputs and no
# temp-file residue (each segment is published by atomic rename, so the
# later rename of identical bytes wins), and a stale *.tmp orphaned by a
# killed writer is swept the next time any process opens the cache.
set -u

BBLAB=$1
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
ARGS="--seed 99 --scale 0.02 --days 0.3"
CACHE="$WORK/cache"
fails=0

fail() {
  echo "FAIL: $*"
  fails=1
}

md5_tree() {
  (cd "$1" && find . -type f | sort | xargs md5sum) | md5sum | cut -d' ' -f1
}

# --- two concurrent publishers, one winner ----------------------------------
"$BBLAB" generate $ARGS --cache --cache-dir "$CACHE" --out "$WORK/a" \
  >/dev/null 2>&1 &
pid_a=$!
"$BBLAB" generate $ARGS --cache --cache-dir "$CACHE" --out "$WORK/b" \
  >/dev/null 2>&1 &
pid_b=$!
wait "$pid_a" || fail "concurrent run A exited non-zero"
wait "$pid_b" || fail "concurrent run B exited non-zero"

[ "$(md5_tree "$WORK/a")" = "$(md5_tree "$WORK/b")" ] \
  || fail "concurrent runs produced different outputs"

entries=$("$BBLAB" cache ls --cache-dir "$CACHE" | sed '$d' | wc -l)
[ "$entries" -eq 1 ] || fail "want exactly 1 cached run, found $entries"

residue=$(find "$CACHE" -name '*.tmp' | wc -l)
[ "$residue" -eq 0 ] || fail "$residue *.tmp files left behind"

# A third run must reuse every shard, not regenerate. generate() logs
# "shards: N planned, R reused, ...".
"$BBLAB" generate $ARGS --cache --cache-dir "$CACHE" --log-level info \
  --out "$WORK/c" >/dev/null 2>"$WORK/err_c" || fail "cache-hit run exited non-zero"
grep -Eq "shards: ([0-9]+) planned, \1 reused" "$WORK/err_c" \
  || fail "third run missed the cache"
planned=$(sed -n 's/.*shards: \([0-9]*\) planned.*/\1/p' "$WORK/err_c")
segments=$(find "$CACHE/objects" -name '*.bbs' | wc -l)
[ "$segments" = "$planned" ] || fail "want $planned segments, one per shard, found $segments"
[ "$(md5_tree "$WORK/a")" = "$(md5_tree "$WORK/c")" ] \
  || fail "cache hit produced different outputs"

# --- stale tmp sweep on open ------------------------------------------------
planted="$CACHE/objects/de/adbeef.p99999.0.tmp"
mkdir -p "$(dirname "$planted")"
echo "orphaned by a killed writer" >"$planted"
# A zero TTL makes every tmp immediately stale; any cache open sweeps.
BBLAB_CACHE_TMP_TTL_S=0 "$BBLAB" cache ls --cache-dir "$CACHE" >/dev/null 2>&1 \
  || fail "cache ls exited non-zero"
[ ! -e "$planted" ] || fail "stale tmp survived the sweep"

# The surviving entry must still be readable after the sweep.
"$BBLAB" generate $ARGS --cache --cache-dir "$CACHE" --log-level info \
  --out "$WORK/d" >/dev/null 2>"$WORK/err_d" || fail "post-sweep run exited non-zero"
grep -Eq "shards: ([0-9]+) planned, \1 reused" "$WORK/err_d" \
  || fail "post-sweep run missed the cache"

if [ "$fails" -ne 0 ]; then
  echo "cache_contention_test: FAILED"
  exit 1
fi
echo "cache_contention_test: OK"
