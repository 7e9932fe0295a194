#!/usr/bin/env python3
"""Outside-in benchmark of the DAPPER simulator (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload perf_attack --seed 1 --seconds 25 --trace 0

Builds perfbench's own Release binary under .bench_build/perfbench from
the checkout's src/, derives the operation seeds from --seed, runs the
workload for --seconds in one process and prints, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1).

    python3 perfbench/run.py --workload trace_mix --spread 10

runs the workload ten times in a row (seeds seed .. seed+9, then the
first seed once more) and prints, for every metric, the median, the
quartiles and the interquartile range divided by the median. Every run
keeps a digest of each operation's stat dict and flags (correct: false)
a dict that differs from an earlier run of the same simulator seed; the
repeat of the first seed exercises that check.
"""

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "dapper_perfbench"
DIGESTS = BUILD / "digests.json"
TRACES = ROOT / "traces"

# Operations per round: distinct scenarios (simulator seeds) drawn from
# --seed. Host work per operation depends on its seed, so each run
# averages over several; a long operation gets fewer.
OPS_PER_ROUND = {"perf_attack": 4, "trace_mix": 2, "throttle_writes": 32}
WORKLOADS = tuple(OPS_PER_ROUND)
DEFAULT_SEED = 1  # the held-out seed for confirming claims is 7

# A run must end well inside 180 s once the binary is built; the first
# run in a checkout may also build it.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then let make decide what is stale."""
    BUILD.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + BUILD_LIMIT_S
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        left = deadline - time.monotonic()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=max(1.0, left))
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")


def check_manifest():
    """Hash the DTR files ourselves against traces/MANIFEST.sha256."""
    errors = []
    try:
        text = (TRACES / "MANIFEST.sha256").read_text()
    except OSError as e:
        raise SystemExit(f"perfbench: cannot read the trace manifest: {e}")
    lines = [l.split() for l in text.splitlines() if l.strip()]
    if len(lines) != 4:
        errors.append(f"manifest lists {len(lines)} traces, expected 4")
    for digest, name in lines:
        actual = hashlib.sha256((TRACES / name).read_bytes()).hexdigest()
        if actual != digest:
            errors.append(f"{name}: sha256 {actual} != manifest {digest}")
    return errors


def source_fingerprint():
    """Hash of everything the binary is built from, keying the digests."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE, TRACES):
        for path in sorted(base.rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def op_seeds(workload, seed):
    """The generated inputs: the simulator seeds of one round."""
    rng = random.Random(seed)
    return [rng.randrange(1 << 20, 1 << 31)
            for _ in range(OPS_PER_ROUND[workload])]


def run_binary(workload, seed, seconds, trace, deadline):
    cmd = [str(BINARY), "--workload", workload, "--seconds", str(seconds),
           "--trace", str(trace)]
    for s in op_seeds(workload, seed):
        cmd += ["--op-seed", str(s)]
    if trace:
        cmd += ["--trace-out", str(BUILD / f"trace-{workload}-{seed}.json")]
    env = dict(os.environ, DAPPER_TRACE_DIR=str(TRACES))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("perfbench: run exceeded its time limit")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: binary exited with {proc.returncode}")
    return [json.loads(l) for l in out.splitlines() if l.startswith("{")]


def layer_counts(dicts):
    """Counts summed over the round's operations, cores and channels;
    ratios are taken of the sums."""
    def total(prefix, field):
        return sum(v for d in dicts for k, v in d.items()
                   if k.startswith(prefix) and k.endswith("." + field)
                   and k.count(".") == 2)

    def stat(name):
        return sum(d[name] for d in dicts)

    reads, writes = total("mem.", "reads"), total("mem.", "writes")
    latency = sum(d[f"mem.{c}.avgReadLatency"] * d[f"mem.{c}.readLatencyCount"]
                  for d in dicts for c in range(d["sys.channels"]))
    accesses = stat("llc.hits") + stat("llc.misses")
    return {
        "tracker.mitigations": stat("tracker.mitigations"),
        "cpu.retired": total("core.", "retired"),
        "cpu.mem_reads": total("core.", "memReads"),
        "cache.accesses": accesses,
        "cache.hit_ratio": stat("llc.hits") / accesses,
        "cache.writebacks": stat("llc.writebacks"),
        "mem.reads": reads,
        "mem.writes": writes,
        "mem.activations": total("mem.", "activations"),
        "mem.row_hit_ratio": total("mem.", "rowHits") / (reads + writes),
        "mem.vrr_commands": total("mem.", "vrrCommands"),
        "mem.throttled_acts": total("mem.", "throttledActs"),
        "mem.busy_blocked_ticks": total("mem.", "busyBlockedTicks"),
        "mem.avg_read_latency": latency / total("mem.", "readLatencyCount"),
        "gt.activations": stat("gt.activations"),
        "gt.max_damage": max(d["gt.maxDamage"] for d in dicts),
    }


def end_to_end(ops, end):
    plain = [o for o in ops if o["pass"] == "plain"]
    first = [o for o in plain if o["round"] == 0]
    ipc = math.exp(statistics.fmean(math.log(o["benign_ipc"]) for o in first))
    return {
        "sim_mcycles_per_s": (sum(o["ticks"] for o in plain) / 1e6 /
                              sum(o["run_s"] for o in plain), "Mcycle/s"),
        "setup_s": (statistics.median(o["setup_s"] for o in plain), "s"),
        "peak_rss_mb": (end["peak_rss_kb"] / 1024.0, "MB"),
        "benign_ipc": (ipc, "inst/cycle"),
    }


HOOKS = ("tracker_act", "tracker_throttle", "tracker_periodic",
         "tracker_window")


def per_layer(ops, timer):
    """Host times are medians over rounds of the round's sums over its
    traced operations; counts are those of one round."""
    traced = [o for o in ops if o["pass"] == "traced"]
    empty, call = timer["empty_ns"] * 1e-9, timer["call_ns"] * 1e-9

    def rounds(pass_, fn):
        sums = {}
        for o in ops:
            if o["pass"] == pass_:
                sums[o["round"]] = sums.get(o["round"], 0.0) + fn(o)
        return statistics.median(sums.values())

    def tracker(o, i):
        return sum(o[k][i] for k in HOOKS)

    def wl_self(o):
        return o["next"][1] * 1e-9 - o["next"][0] * empty

    def tr_self(o):
        return tracker(o, 1) * 1e-9 - tracker(o, 0) * empty

    def sim_self(o):
        calls = o["next"][0] + tracker(o, 0)
        return o["run_s"] - wl_self(o) - tr_self(o) - calls * call

    first = [o for o in traced if o["round"] == traced[0]["round"]]
    counts = layer_counts([o["stats"] for o in traced if "stats" in o])
    chunks = [c for o in traced
              for c in o["chunk_s"][:o["ticks"] // o["chunk_ticks"]]]
    run_s = rounds("traced", lambda o: o["run_s"])
    self_s = rounds("traced", sim_self)
    med = statistics.median
    m = {
        "setup.gens_s": (med(o["gens_s"] for o in traced), "s"),
        "setup.system_s": (med(o["system_s"] for o in traced), "s"),
        "sim.run_s": (run_s, "s"),
        "sim.chunk_ms_p50": (med(chunks) * 1e3, "ms"),
        "sim.chunk_ms_p90": (statistics.quantiles(chunks, n=10)[-1] * 1e3,
                             "ms"),
        "sim.self_s": (self_s, "s"),
        "sim.ns_per_act": (self_s * 1e9 / counts["mem.activations"], "ns"),
        "sim.ns_per_kinst": (self_s * 1e12 / counts["cpu.retired"], "ns"),
        "workload.next_calls": (sum(o["next"][0] for o in first), "count"),
        "workload.self_s": (rounds("traced", wl_self), "s"),
    }
    for hook in HOOKS:
        name = "tracker." + hook.split("_")[1] + "_calls"
        m[name] = (sum(o[hook][0] for o in first), "count")
    m["tracker.self_s"] = (rounds("traced", tr_self), "s")
    units = {"cache.hit_ratio": "ratio", "mem.row_hit_ratio": "ratio",
             "mem.busy_blocked_ticks": "cycle",
             "mem.avg_read_latency": "cycle"}
    for name, value in counts.items():
        m[name] = (value, units.get(name, "count"))
    m["trace.overhead_s"] = (run_s - rounds("plain", lambda o: o["run_s"]),
                             "s")
    m["trace.timer_ns"] = (timer["call_ns"], "ns")
    return m


def check_digests(workload, ops):
    """Every passing operation of one simulator seed, in any run of the
    same sources, must export the same stat dict; flag any difference
    between runs (within a run the binary already compares them)."""
    fingerprint = source_fingerprint()
    try:
        digests = json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        digests = {}
    errors = []
    for seed in sorted({o["seed"] for o in ops}):
        key = f"{fingerprint}:{workload}:{seed}"
        hashes = {o["dict_hash"] for o in ops if o["seed"] == seed}
        known = digests.setdefault(key, min(hashes))
        if hashes != {known}:
            errors.append(f"stat dict of simulator seed {seed} differs "
                          f"between runs: {sorted(hashes)} vs {known}")
    tmp = DIGESTS.with_suffix(".tmp")
    tmp.write_text(json.dumps(digests, indent=0, sort_keys=True))
    tmp.replace(DIGESTS)
    return errors


def run_once(args):
    build()
    deadline = time.monotonic() + RUN_LIMIT_S
    errors = check_manifest()
    records = run_binary(args.workload, args.seed, args.seconds, args.trace,
                         deadline)
    ops = [r for r in records if r["kind"] == "op"]
    ends = [r for r in records if r["kind"] == "end"]
    if not ops or not ends:
        raise SystemExit("perfbench: binary printed no operations")
    for r in records:
        if r["kind"] == "check" and not r["ok"]:
            errors.append(f"{r['name']}: {r['detail']}")
    for o in ops:
        for e in o["errors"]:
            log(f"{o['pass']} op round {o['round']}: {e}")
    good = [o for o in ops if not o["errors"]]
    errors += check_digests(args.workload, good)
    # Metrics must print even when every operation of a pass failed.
    measured = good + [o for o in ops if o["errors"] and not any(
        g["pass"] == o["pass"] for g in good)]
    for e in errors:
        log(f"check failed: {e}")

    if args.trace:
        timer = next(r for r in records if r["kind"] == "timer")
        metrics = per_layer(measured, timer)
    else:
        metrics = end_to_end(measured, ends[0])
    return {
        "correct": not errors,
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def spread(args):
    """Run seeds seed .. seed+N-1, then the first seed again: its repeat
    must reproduce every stat dict (run_once's digest check)."""
    seeds = [args.seed + i for i in range(args.spread)] + [args.seed]
    results = []
    for s in seeds:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(s), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        results.append(json.loads(out.stdout.strip().splitlines()[-1]))
        log(f"seed {s}: {json.dumps(results[-1])}")
    print(f"{'metric':28} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>9}")
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results[:-1]]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        rel = (q3 - q1) / abs(q2) if q2 else float("inf")
        print(f"{name:28} {q2:14.6g} {q1:14.6g} {q3:14.6g} {rel:9.4f}")
        summary[name] = {"median": q2, "q1": q1, "q3": q3, "iqr_rel": rel}
    print(json.dumps({"workload": args.workload, "runs": len(results) - 1,
                      "failed": sum(r["failed"] for r in results),
                      "correct": all(r["correct"] for r in results),
                      "repeat_correct": results[-1]["correct"],
                      "spread": summary}))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spread", type=int, default=0, metavar="N",
                   help="run N times in a row and print the spread")
    args = p.parse_args()
    if args.spread:
        spread(args)
    else:
        print(json.dumps(run_once(args)))


if __name__ == "__main__":
    main()
