#!/usr/bin/env bash
# End-to-end check of the snapshot + cache subsystem through the CLI:
#   1. `generate --cache` output is byte-identical to an uncached run, and
#      runs at 1, 2 and 8 threads all reuse the SAME cached run, shard for
#      shard, and produce byte-identical CSVs (parallelism is excluded from
#      the cache key).
#   2. pack -> cat round-trips; cat on a corrupted snapshot, or on one
#      stamped with an older format version, fails with a typed error and a
#      non-zero exit, never a crash; cat on a FIFO fails with an I/O error
#      (not mappable), not a format error.
#   3. cache ls / rm KEY / rm all manage entries as advertised, a
#      whole-dataset file of an older build included.
set -u

BBLAB=$1
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
export BBLAB_CACHE_DIR="$WORK/cache"
ARGS="--seed 99 --scale 0.02 --days 0.3"
fails=0

fail() {
  echo "FAIL: $*"
  fails=1
}

# --- 1. cache hits are byte-identical across thread counts -----------------
"$BBLAB" generate $ARGS --out "$WORK/plain" >/dev/null 2>&1 \
  || { echo "FAIL: baseline generate"; exit 1; }
for t in 1 2 8; do
  "$BBLAB" generate $ARGS --cache --threads "$t" --log-level info --out "$WORK/t$t" \
    >/dev/null 2>"$WORK/log$t" || fail "generate --cache --threads $t"
done
# generate() logs "shards: N planned, R reused, S simulated, Q quarantined".
grep -q "planned, 0 reused" "$WORK/log1" || fail "first cached run reused shards"
grep -Eq "shards: ([0-9]+) planned, \1 reused" "$WORK/log2" \
  || fail "second run did not reuse every shard"
grep -Eq "shards: ([0-9]+) planned, \1 reused" "$WORK/log8" \
  || fail "third run did not reuse every shard"
for t in 1 2 8; do
  diff -r "$WORK/plain" "$WORK/t$t" >/dev/null \
    || fail "--cache --threads $t output differs from uncached run"
done
entries=$("$BBLAB" cache ls | sed '$d' | wc -l)
[ "$entries" -eq 1 ] || fail "expected 1 cache entry for 3 runs, got $entries"

# --- 2. pack / cat / corruption rejection ----------------------------------
"$BBLAB" pack "$WORK/snap.bbs" $ARGS --cache >/dev/null 2>&1 || fail "pack"
"$BBLAB" cat "$WORK/snap.bbs" >"$WORK/cat.out" 2>/dev/null || fail "cat"
grep -q "bbs format v2" "$WORK/cat.out" || fail "cat: missing format banner"
for section in config dasu fcc upgrades markets qc; do
  grep -q "^$section " "$WORK/cat.out" || fail "cat: missing section $section"
done
grep -q "records: dasu=" "$WORK/cat.out" || fail "cat: missing record counts"

# A snapshot stamped with an older format version is refused with a typed
# error naming both versions, and a clean exit status 1.
python3 - "$WORK/snap.bbs" "$WORK/v1.bbs" <<'EOF'
import sys
data = bytearray(open(sys.argv[1], 'rb').read())
data[12:16] = (1).to_bytes(4, 'little')  # header version field
open(sys.argv[2], 'wb').write(data)
EOF
"$BBLAB" cat "$WORK/v1.bbs" >/dev/null 2>"$WORK/v1.err"
status=$?
[ "$status" -eq 1 ] || fail "cat on a v1 snapshot exited $status, want 1"
grep -q "^error: format-mismatch: snapshot format version 1, this library reads version 2" \
  "$WORK/v1.err" || fail "cat on a v1 snapshot: no typed version error"

# A FIFO is not a corrupt snapshot: cat must refuse it as unmappable (an
# I/O error naming the path), not as a format mismatch, and must not hang
# whether or not the writer has opened its end yet.
mkfifo "$WORK/pipe.bbs"
timeout 30 sh -c 'cat "$1" >"$2"' _ "$WORK/snap.bbs" "$WORK/pipe.bbs" \
  2>/dev/null &
writer=$!
timeout 30 "$BBLAB" cat "$WORK/pipe.bbs" >/dev/null 2>"$WORK/fifo.err"
status=$?
kill "$writer" 2>/dev/null
wait "$writer" 2>/dev/null
[ "$status" -eq 1 ] || fail "cat on a FIFO exited $status, want 1"
grep -q "^error: .*$WORK/pipe.bbs.*not mappable" "$WORK/fifo.err" \
  || fail "cat on a FIFO: no not-mappable error naming the path"
grep -q "format-mismatch" "$WORK/fifo.err" \
  && fail "cat on a FIFO reported a corrupt snapshot"

python3 - "$WORK/snap.bbs" <<'EOF'
import sys
path = sys.argv[1]
data = bytearray(open(path, 'rb').read())
data[len(data) // 2] ^= 0x20  # flip one payload bit mid-file
open(path, 'wb').write(data)
EOF
if "$BBLAB" cat "$WORK/snap.bbs" >/dev/null 2>"$WORK/cat.err"; then
  fail "cat accepted a corrupted snapshot"
fi
grep -q "error:" "$WORK/cat.err" || fail "corrupted cat: no typed error message"

# --- 3. cache ls / rm ------------------------------------------------------
key=$("$BBLAB" cache ls | head -n 1 | cut -d' ' -f1)
[ -n "$key" ] || fail "cache ls printed no key"
"$BBLAB" cache rm "$key" >/dev/null || fail "cache rm $key"
"$BBLAB" cache rm "$key" >/dev/null 2>&1 && fail "cache rm of absent key succeeded"
"$BBLAB" cache rm not-a-key >/dev/null 2>&1 && fail "cache rm accepted a malformed key"
"$BBLAB" generate $ARGS --cache --out "$WORK/repop" >/dev/null 2>&1
# A whole-dataset file as builds before per-shard segments wrote it.
old_file="$BBLAB_CACHE_DIR/objects/ab/cdef0123456789abcdef0123456789.bbs"
mkdir -p "$(dirname "$old_file")" && echo "old" >"$old_file"
"$BBLAB" cache ls | grep -q "^abcdef0123456789abcdef0123456789 " \
  || fail "cache ls does not list a whole-dataset file"
"$BBLAB" cache rm all >/dev/null || fail "cache rm all"
entries=$("$BBLAB" cache ls | sed '$d' | wc -l)
[ "$entries" -eq 0 ] || fail "cache not empty after rm all"
[ -e "$old_file" ] && fail "cache rm all left a whole-dataset file"

if [ "$fails" -ne 0 ]; then
  exit 1
fi
echo "PASS: cache byte-identical across threads; pack/cat/rm behave"
