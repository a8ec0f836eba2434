#!/usr/bin/env bash
# Determinism acceptance check for the work-stealing pool: the full
# dataset (every generated CSV) and the figure renderings must be
# byte-identical — compared by md5 — no matter how many threads the
# engine schedules across, and equal to the golden digests pinned below. Steal order is adversarially timing-dependent,
# so any ordering leak into results shows up here as an md5 mismatch.
set -u

# Golden digests of the seed-99 outputs below. They pin the exact bytes
# the pipeline produces, so a change meant to keep every output identical
# (an exact rewrite of a hot path) is checked here rather than by eye. A
# change that alters simulation semantics must bump
# kPipelineSemanticsVersion and update these together.
EXPECTED_DATASET=d495beab92a3fd0e08b843246f09e143
# The same dataset under a fault plan that drops, zeroes and spikes
# samples and fails a few households: it pins the faulted observation
# path the clean golden never runs.
EXPECTED_FAULTED_DATASET=1a388f61dce77b7e54924cb2e53e50e3
FAULTS="churn=0.3,blackout=0.2,reset=0.3,wrap=0.3,skew=0.5,fail=0.01"
declare -A EXPECTED_FIGURE=(
  [fig1]=bdb85f331edde708ca4a42623baa02fb
  [fig2]=fecca2d68ef94a572bc783ec66ec7586
  [fig6]=d5eba37890050e431fada1870ae268bf
  [fig10]=dd17027d3e93bcd87014395822de4daa
)

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
  # Stable fingerprint of a directory: md5 of every file, sorted by path.
  (cd "$1" && find . -type f | sort | xargs md5sum) | md5sum | cut -d' ' -f1
}

# --- datasets: generate at 1 / 2 / 8 threads -------------------------------
for t in 1 2 8; do
  "$BBLAB" generate $ARGS --threads "$t" --out "$WORK/gen$t" >/dev/null 2>&1 \
    || fail "generate --threads $t exited non-zero"
done
base=$(md5_tree "$WORK/gen1")
echo "dataset md5 @1 thread: $base"
[ "$base" = "$EXPECTED_DATASET" ] \
  || fail "dataset md5 $base != golden $EXPECTED_DATASET"
for t in 2 8; do
  got=$(md5_tree "$WORK/gen$t")
  [ "$got" = "$base" ] || fail "dataset md5 differs at $t threads: $got != $base"
done

# --- faulted datasets: generate at 1 / 8 threads ----------------------------
for t in 1 8; do
  "$BBLAB" generate $ARGS --faults "$FAULTS" --threads "$t" --out "$WORK/faulted$t" \
      >/dev/null 2>&1 \
    || fail "generate --faults --threads $t exited non-zero"
  got=$(md5_tree "$WORK/faulted$t")
  echo "faulted dataset md5 @$t threads: $got"
  [ "$got" = "$EXPECTED_FAULTED_DATASET" ] \
    || fail "faulted dataset md5 at $t threads $got != golden $EXPECTED_FAULTED_DATASET"
done

# --- observability is a pure side channel ----------------------------------
# The same generations with --metrics-out/--trace-out enabled must produce
# byte-identical datasets at every thread count, and the side files must
# actually appear (non-empty, structurally recognizable).
for t in 1 2 8; do
  "$BBLAB" generate $ARGS --threads "$t" --out "$WORK/obs$t" \
      --metrics-out "$WORK/run$t.json" --trace-out "$WORK/trace$t.json" \
      >/dev/null 2>&1 \
    || fail "generate --threads $t with obs flags exited non-zero"
  got=$(md5_tree "$WORK/obs$t")
  [ "$got" = "$base" ] || fail "dataset md5 differs with obs at $t threads: $got != $base"
  grep -q '"schema": "bblab-run-report"' "$WORK/run$t.json" \
    || fail "run$t.json missing run-report schema marker"
  grep -q '"traceEvents"' "$WORK/trace$t.json" \
    || fail "trace$t.json missing traceEvents"
done
echo "dataset md5 with --metrics-out/--trace-out: unchanged"

# --- figures: stdout rendering at 1 / 2 / 8 threads ------------------------
# Every figure in the artifact registry, as the usage text lists them;
# the four with a golden digest must also match it.
FIGURES=$("$BBLAB" 2>&1 | sed -n 's/^  figure <\(.*\)>$/\1/p' | tr '|' ' ')
for fig in "${!EXPECTED_FIGURE[@]}"; do
  case " $FIGURES " in
    *" $fig "*) ;;
    *) fail "pinned figure $fig missing from the usage text" ;;
  esac
done
for fig in $FIGURES; do
  "$BBLAB" figure "$fig" $ARGS --threads 1 >"$WORK/$fig.1" 2>/dev/null \
    || fail "figure $fig --threads 1 exited non-zero"
  base=$(md5sum <"$WORK/$fig.1" | cut -d' ' -f1)
  echo "$fig md5 @1 thread: $base"
  if [ -n "${EXPECTED_FIGURE[$fig]:-}" ]; then
    [ "$base" = "${EXPECTED_FIGURE[$fig]}" ] \
      || fail "$fig md5 $base != golden ${EXPECTED_FIGURE[$fig]}"
  fi
  for t in 2 8; do
    "$BBLAB" figure "$fig" $ARGS --threads "$t" >"$WORK/$fig.$t" 2>/dev/null \
      || fail "figure $fig --threads $t exited non-zero"
    got=$(md5sum <"$WORK/$fig.$t" | cut -d' ' -f1)
    [ "$got" = "$base" ] || fail "$fig md5 differs at $t threads: $got != $base"
  done
  # Figure stdout must not change when observability is on (the obs
  # summary goes to stderr, the report/trace to side files).
  "$BBLAB" figure "$fig" $ARGS --threads 2 \
      --metrics-out "$WORK/$fig.run.json" --trace-out "$WORK/$fig.trace.json" \
      >"$WORK/$fig.obs" 2>/dev/null \
    || fail "figure $fig with obs flags exited non-zero"
  got=$(md5sum <"$WORK/$fig.obs" | cut -d' ' -f1)
  [ "$got" = "$base" ] || fail "$fig md5 differs with obs flags: $got != $base"
done

if [ "$fails" -ne 0 ]; then
  echo "determinism_md5_test: FAILED"
  exit 1
fi
echo "determinism_md5_test: OK"
