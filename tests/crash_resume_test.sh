#!/usr/bin/env bash
# Crash/resume acceptance check for shard reuse through the artifact
# cache: SIGKILL the generator at randomized filesystem-operation indices
# (the kill@N fault fires mid-write, leaving torn segments and stale tmp
# files), run again over the same --cache-dir, and demand the final
# dataset be byte-identical — by md5, at 1 / 2 / 8 threads — to an
# uninterrupted run without a cache. Also checks the injected-crash exit
# code (64), that a publish failing for good still yields the complete
# dataset (exit 0) with the next run re-simulating only that shard, and
# the degraded-run exit code (4) of a deadline overrun.
set -u

BBLAB=$1
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
ARGS="--seed 99 --scale 0.02 --days 0.3"
fails=0

fail() {
  echo "FAIL: $*"
  fails=1
}

md5_tree() {
  (cd "$1" && find . -type f | sort | xargs md5sum) | md5sum | cut -d' ' -f1
}

for t in 1 2 8; do
  "$BBLAB" generate $ARGS --threads "$t" --out "$WORK/base$t" >/dev/null 2>&1 \
    || fail "baseline generate --threads $t exited non-zero"
  base=$(md5_tree "$WORK/base$t")
  echo "baseline md5 @$t threads: $base"

  # --- SIGKILL at randomized op indices, then run again --------------------
  cache="$WORK/cache_kill$t"
  for k in 3 9 17 33 65 $((RANDOM % 500 + 100)); do
    "$BBLAB" generate $ARGS --threads "$t" --cache-dir "$cache" \
      --fs-faults "kill@$k" --out "$WORK/killed" >/dev/null 2>&1
    code=$?
    # 137 = killed mid-run; 0 = the op index was past the end of the run
    # (every shard already published); 4 would mean a shard was lost,
    # which a SIGKILL must never cause.
    if [ "$code" -ne 137 ] && [ "$code" -ne 0 ]; then
      fail "kill@$k @$t threads: exit code $code, want 137 or 0"
    fi
  done
  "$BBLAB" generate $ARGS --threads "$t" --cache-dir "$cache" \
    --out "$WORK/resumed$t" >/dev/null 2>&1 \
    || fail "final run @$t threads exited non-zero"
  got=$(md5_tree "$WORK/resumed$t")
  [ "$got" = "$base" ] || fail "resumed md5 @$t threads: $got != $base"
done
base=$(md5_tree "$WORK/base1")

# --- injected crash (exception, not signal): distinct exit code 64 ----------
"$BBLAB" generate $ARGS --cache-dir "$WORK/cache_crash" --fs-faults crash@9 \
  >/dev/null 2>"$WORK/crash_err"
code=$?
[ "$code" -eq 64 ] || fail "crash@9: exit code $code, want 64"
grep -q "injected crash" "$WORK/crash_err" \
  || fail "crash@9: stderr does not mention the injected crash"
"$BBLAB" generate $ARGS --cache-dir "$WORK/cache_crash" \
  --out "$WORK/after_crash" >/dev/null 2>&1 \
  || fail "run after crash@9 exited non-zero"
[ "$(md5_tree "$WORK/after_crash")" = "$base" ] || fail "post-crash md5 differs"

# --- permanent I/O failure: merged anyway (0); the next run re-simulates it --
"$BBLAB" generate $ARGS --cache-dir "$WORK/cache_enospc" --fs-faults enospc@7 \
  --out "$WORK/enospc" >/dev/null 2>"$WORK/enospc_err"
code=$?
[ "$code" -eq 0 ] || fail "enospc@7: exit code $code, want 0"
grep -q "not published" "$WORK/enospc_err" \
  || fail "enospc@7: stderr does not report the unpublished shard"
[ "$(md5_tree "$WORK/enospc")" = "$base" ] || fail "enospc@7 md5 differs"
"$BBLAB" generate $ARGS --cache-dir "$WORK/cache_enospc" --log-level info \
  --out "$WORK/healed" >/dev/null 2>"$WORK/healed_err" \
  || fail "healing run exited non-zero"
grep -q ", 1 simulated, 0 quarantined" "$WORK/healed_err" \
  || fail "healing run did not re-simulate exactly the unpublished shard"
[ "$(md5_tree "$WORK/healed")" = "$base" ] || fail "healed md5 differs"

# --- deadline overrun: degraded completion (4), then a clean run heals ------
"$BBLAB" generate $ARGS --threads 1 --cache-dir "$WORK/cache_late" \
  --deadline 0.0001 --out "$WORK/degraded" >/dev/null 2>&1
code=$?
[ "$code" -eq 4 ] || fail "--deadline 0.0001: exit code $code, want 4 (degraded)"
"$BBLAB" generate $ARGS --cache-dir "$WORK/cache_late" \
  --out "$WORK/late_healed" >/dev/null 2>&1 \
  || fail "run after the deadline overrun exited non-zero"
[ "$(md5_tree "$WORK/late_healed")" = "$base" ] || fail "post-deadline md5 differs"

if [ "$fails" -ne 0 ]; then
  echo "crash_resume_test: FAILED"
  exit 1
fi
echo "crash_resume_test: OK"
