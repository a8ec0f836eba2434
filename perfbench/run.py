#!/usr/bin/env python3
"""End-to-end benchmark for the broadband_lab pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload study|serve_hot|serve_cold \
        --seed N --seconds T --trace 0|1

Builds perfbench_driver in Release under .bench_build/, has it build the
workload's fixtures in a separate process, runs the measurement, and
prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
reports the per-layer ones, derived from span self times of a run whose
rounds alternate untraced and traced. Lines before the last one give the
provenance (source digest, build type, nproc, seed, thread and connection
counts), operation counts, sample counts and, for `study`, the md5 of the
rendered output.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ("study", "serve_hot", "serve_cold")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
# The latency percentile each workload reports as tail_ms: the highest
# one with at least ten samples beyond it at the benchmark's run length.
TAIL_PERCENTILE = {"study": 75, "serve_hot": 99, "serve_cold": 99}
# In a traced study pass the layer self times must cover the pass's wall
# time to within this share.
RECONCILE_TOLERANCE_PCT = 2.0


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("library sources (src/) not found; run from the repository root")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    with open(os.path.join(".bench_build", "build.log"), "w") as log:
        for cmd in (["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD_DIR, "-j", jobs,
                     "--target", "perfbench_driver"]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                fail("build failed; see .bench_build/build.log")


def run_driver(args, timeout):
    try:
        proc = subprocess.run([DRIVER] + args, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("driver timed out: " + " ".join(args))
    if proc.returncode:
        fail("driver exited %d: %s" % (proc.returncode, " ".join(args)))
    return proc.stdout


def provenance():
    """Commit (when the checkout has git metadata) and a digest of the
    sources the benchmark builds."""
    sha = "unavailable"
    head = os.path.join(".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            ref = f.read().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = os.path.join(".git", ref[5:])
            if os.path.isfile(ref_file):
                with open(ref_file) as f:
                    sha = f.read().strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()}


def percentile(values, p):
    """Linear-interpolated percentile of a non-empty list."""
    s = sorted(values)
    pos = (len(s) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def self_times(events):
    """Attach `self` (duration minus time covered by child spans on the
    same thread, in microseconds) and `path` (names of the enclosing
    spans, outermost first) to every complete span event."""
    by_tid = {}
    for i, ev in enumerate(events):
        ev["order"] = i
        by_tid.setdefault(ev["tid"], []).append(ev)
    for evs in by_tid.values():
        # A thread records a span when it closes, so of two spans with the
        # same start and duration the later-recorded one encloses the other.
        evs.sort(key=lambda e: (e["ts"], -e["dur"], -e["order"]))
        stack = []
        for ev in evs:
            ev["self"] = ev["dur"]
            while stack and stack[-1]["ts"] + stack[-1]["dur"] <= ev["ts"]:
                stack.pop()
            if stack:
                parent = stack[-1]
                parent["self"] -= min(ev["dur"], parent["ts"] + parent["dur"] - ev["ts"])
            ev["path"] = [s["name"] for s in stack]
            stack.append(ev)
    return events


def overhead(untraced, traced, spread):
    """Tracing overhead in percent, with the flag for a reading below
    minus the run-to-run spread (which no real overhead can produce)."""
    base = statistics.median(untraced)
    pct = (statistics.median(traced) - base) / base * 100.0
    flag = 1 if pct < -spread else 0
    if flag:
        print("perfbench: trace overhead %.2f%% is below -%.2f%% run-to-run spread; "
              "the measurement is broken" % (pct, spread), file=sys.stderr)
    return pct, flag


def study_layers(raw, events, rounds):
    roots = sorted((e for e in events if e["name"] == "bench.study"), key=lambda e: e["ts"])
    n = len(roots)
    if n == 0:
        fail("traced study run recorded no passes")
    # Spans of the pass: everything nested in a bench.study span. Each is
    # charged to the layer of the benchmark span it sits in, so spans the
    # library opens inside a layer count towards that layer.
    inside = [e for e in events if e["path"][:1] == ["bench.study"]]

    def total_ms(name, detail=None):
        return sum(e["dur"] for e in inside if e["name"] == name and
                   (detail is None or e.get("args", {}).get("detail") == detail)) / 1e3 / n

    shard_max = []
    for r in roots:
        shards = [e["dur"] for e in inside if e["name"] == "dataset.simulate_shard"
                  and r["ts"] <= e["ts"] <= r["ts"] + r["dur"]]
        shard_max.append(max(shards) / 1e3)
    wall_us = sum(r["dur"] for r in roots)
    layer_us = {"dataset": 0.0, "store": 0.0, "analysis": 0.0}
    for e in inside:
        layer = (e["path"] + [e["name"]])[1].split(".")[0]
        if layer not in layer_us:
            fail("span %s belongs to no layer" % e["name"])
        layer_us[layer] += e["self"]
    gap_pct = (wall_us - sum(layer_us.values())) / wall_us * 100.0

    c = raw["counters"]
    simulate_ms = total_ms("dataset.simulate_shard")
    households = c.get("gen.households_simulated", 0) / n
    m = {
        "dataset.build_markets_ms": total_ms("dataset.build_markets"),
        "dataset.simulate_ms": simulate_ms,
        "dataset.shard_max_ms": statistics.mean(shard_max),
        "dataset.households": households,
        "dataset.households_per_s": households / (simulate_ms / 1e3),
        "store.write_ms": total_ms("store.write"),
        "store.bytes": raw["extra"]["store.bytes"],
        "store.open_ms": total_ms("store.open"),
        "store.decode_ms": total_ms("store.decode"),
        "obs.reconcile_gap_pct": gap_pct,
    }
    for name in {e["args"]["detail"] for e in inside if e["name"] == "analysis.render"}:
        m["analysis.%s_ms" % name] = total_ms("analysis.render", name)

    untraced = [r["wall_s"] for r in rounds if not r["traced"]]
    q = statistics.quantiles(untraced, n=4) if len(untraced) > 1 else [untraced[0]] * 3
    spread = (q[2] - q[0]) / statistics.median(untraced) * 100.0
    pct, flag = overhead(untraced, [r["wall_s"] for r in rounds if r["traced"]], spread)
    m.update({"obs.trace_overhead_pct": pct, "obs.trace_overhead_spread_pct": spread,
              "obs.trace_overhead_flag": flag})
    layers = ", ".join("%s %.1f ms" % (k, v / 1e3 / n) for k, v in layer_us.items())
    print("reconcile: study %.1f ms per traced pass = %s + gap %.2f%% (tolerance %.1f%%)"
          % (wall_us / 1e3 / n, layers, gap_pct, RECONCILE_TOLERANCE_PCT))
    return m, n


def serve_layers(raw, events, rounds):
    def durs(name):
        return [e["dur"] / 1e3 for e in events if e["name"] == name]

    calls = durs("serve.call")
    n = len(calls)
    if n == 0:
        fail("traced serve run recorded no queries")
    client = statistics.mean(calls)
    query = sum(durs("serve.query")) / n
    load = sum(durs("serve.load")) / n
    render = sum(durs("serve.render")) / n
    wait = client - query
    gap = client - (wait + load + render)
    x = raw["extra"]
    lookups = x["lru.hits"] + x["lru.misses"]
    m = {
        "serve.wait_ms": wait,
        "serve.load_ms": load,
        "serve.render_ms": render,
        "serve.bytes_out_per_query": raw["counters"].get("serve.bytes_out", 0) / n,
        "lru.hit_ratio": x["lru.hits"] / lookups if lookups else 0.0,
        "lru.hits": x["lru.hits"],
        "lru.misses": x["lru.misses"],
        "lru.evictions": x["lru.evictions"],
        "obs.reconcile_gap_pct": gap / client * 100.0,
    }

    def mean_latency(r):
        return statistics.mean(r["lat_ms"])

    untraced = [mean_latency(r) for r in rounds if not r["traced"]]
    spread = (max(untraced) - min(untraced)) / statistics.median(untraced) * 100.0
    pct, flag = overhead(untraced, [mean_latency(r) for r in rounds if r["traced"]], spread)
    m.update({"obs.trace_overhead_pct": pct, "obs.trace_overhead_spread_pct": spread,
              "obs.trace_overhead_flag": flag})
    print("reconcile: client %.3f ms = wait %.3f + load %.3f + render %.3f + gap %.3f ms"
          % (client, wait, load, render, gap))
    return m, n


def per_layer(workload, raw, per_layer_spec, run_dir):
    with open(os.path.join(run_dir, "trace.json")) as f:
        trace = json.load(f)
    events = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    dropped = [e["name"] for e in trace["traceEvents"] if e.get("ph") == "I"]
    if dropped:
        fail("trace buffer overflowed: " + ", ".join(dropped))
    self_times(events)
    rounds = raw["rounds"]
    if workload == "study":
        m, ops = study_layers(raw, events, rounds)
    else:
        m, ops = serve_layers(raw, events, rounds)
    # Counts common to every workload, per operation (study pass or query).
    c = raw["counters"]
    executed = c.get("pool.tasks_executed", 0)
    m.update({
        "netsim.fluid_runs": c.get("fluid.runs", 0) / ops,
        "netsim.fluid_flows": c.get("fluid.flows", 0) / ops,
        "netsim.fluid_bins": c.get("fluid.bins", 0) / ops,
        "core.pool_tasks": executed / ops,
        "core.pool_steal_ratio": c.get("pool.tasks_stolen", 0) / executed if executed else 0.0,
        "stats.radix_keys": c.get("stats.radix_keys", 0) / ops,
        "stats.ecdf_queries": c.get("stats.ecdf_queries", 0) / ops,
        "stats.binomial_tests": c.get("stats.binomial_tests", 0) / ops,
    })
    print("traced: %d operations; counts are per operation, core.pool_steal_ratio = "
          "%d stolen / %d executed" % (ops, c.get("pool.tasks_stolen", 0), executed))
    # Layers a workload does not exercise read 0.
    return {spec["name"]: m.get(spec["name"], 0.0) for spec in per_layer_spec}, m


def end_to_end(workload, raw):
    rounds = raw["rounds"]
    lat = [v for r in rounds for v in r["lat_ms"]]
    p = TAIL_PERCENTILE[workload]
    tail = percentile(lat, p)
    beyond = sum(1 for v in lat if v > tail)
    print("samples: %d latencies, p50 %.4f ms, p%d %.4f ms with %d beyond; %d set-ups"
          % (len(lat), statistics.median(lat), p, tail, beyond, len(raw["setup_s"])))
    if beyond < 10:
        print("perfbench: only %d samples beyond p%d" % (beyond, p), file=sys.stderr)
    wall = sum(r["wall_s"] for r in rounds)
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "p50_ms": statistics.median(lat),
        "tail_ms": tail,
        "ops_per_s": sum(r["ok"] for r in rounds) / wall,
        "cpu_ms_per_op": sum(r["cpu_s"] for r in rounds) * 1e3 / sum(r["sent"] for r in rounds),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = parser.parse_args()
    if a.seconds < 1 or a.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    build()
    run_dir = os.path.join(".bench_build", "run-%s-%d" % (a.workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        common = ["--workload", a.workload, "--seed", str(a.seed), "--dir", run_dir]
        if a.workload != "study":
            run_driver(["fixtures"] + common, timeout=120)
        out = run_driver(["measure"] + common + ["--seconds", str(a.seconds),
                                                 "--trace", str(a.trace)],
                         timeout=a.seconds + 120)
        raw = json.loads(out.strip().splitlines()[-1])
        if raw["provenance"]["build_type"] != "Release":
            fail("driver is not a Release build")
        prov = dict(provenance(), **raw["provenance"])
        print("provenance: " + json.dumps(prov, sort_keys=True))

        rounds = raw["rounds"]
        attempted = sum(r["sent"] for r in rounds)
        ok = sum(r["ok"] for r in rounds)
        failed = sum(r["failed"] for r in rounds)
        mismatched = sum(r["mismatched"] for r in rounds)
        print("operations: sent %d, ok %d, failed %d (oracle mismatches %d)"
              % (attempted, ok, failed, mismatched))
        x = raw["extra"]
        if a.workload == "serve_cold":
            print("fixtures: %d snapshot bytes, LRU budget %d bytes (%.2fx), largest "
                  "snapshot %.2fx the largest small one" % (x["snapshot_bytes"],
                  x["max_open_bytes"], x["snapshot_bytes"] / x["max_open_bytes"],
                  x["big_over_small"]))
        correct = attempted >= 1 and failed == 0 and ok == attempted
        if a.workload == "study":
            with open(os.path.join(run_dir, "study_render.txt"), "rb") as f:
                print("study output md5 for seed %d: %s" % (a.seed, hashlib.md5(f.read()).hexdigest()))

        if a.trace:
            metrics, derived = per_layer(a.workload, raw, spec["per_layer"], run_dir)
            if a.workload == "study" and abs(derived["obs.reconcile_gap_pct"]) > RECONCILE_TOLERANCE_PCT:
                print("perfbench: study layers do not reconcile with wall time", file=sys.stderr)
                correct = False
            units = {s["name"]: s["unit"] for s in spec["per_layer"]}
        else:
            metrics = end_to_end(a.workload, raw)
            units = {s["name"]: s["unit"] for s in spec["end_to_end"]}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
