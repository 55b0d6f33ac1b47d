#!/usr/bin/env python3
"""Smoke test of the benchmark.

Runs every workload in BENCHMARK.json at tiny size (--smoke, one second),
once with --trace 0 and once with --trace 1, and checks that

  * the command exits 0 and its last stdout line is the result object
    with exactly the keys correct, attempted, failed and metrics;
  * every check passed (correct, failed == 0, attempted >= 1);
  * the metrics are exactly the end-to-end (trace 0) or per-layer
    (trace 1) metrics of BENCHMARK.json, each with its unit and a number;
  * end-to-end metrics are above 0, and the span run wrote its spans.

Run from anywhere:  python3 perfbench/smoke.py
Exits 1 and names the failures when any check fails.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)


def check(workload, trace, metrics_def, out):
    problems = []
    if out.returncode != 0:
        problems.append(f"exit status {out.returncode}: {out.stderr.strip()[-400:]}")
    lines = out.stdout.strip().splitlines()
    if not lines:
        return problems + ["no output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        return problems + [f"last line is not JSON: {e}"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if result.get("failed") != 0:
        problems.append(f"failed = {result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted = {result.get('attempted')}")
    metrics = result.get("metrics", {})
    expected = {m["name"]: m["unit"] for m in metrics_def}
    for name in sorted(set(metrics) - set(expected)):
        problems.append(f"unexpected metric {name}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            problems.append(f"missing metric {name}")
            continue
        if sorted(m) != ["unit", "value"] or m["unit"] != unit:
            problems.append(f"metric {name} is {m}, unit should be {unit}")
            continue
        v = m["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"metric {name} has value {v!r}")
        elif trace == 0 and v <= 0:
            problems.append(f"end-to-end metric {name} is {v}")
    if trace == 1:
        target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
        spans = os.path.join(target, "perfbench", "out", f"spans-{workload}-7.jsonl")
        if not os.path.isfile(spans):
            problems.append(f"no span file {spans}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            problems = check(workload, trace, bench[key], run(workload, trace))
            status = "ok" if not problems else "FAIL"
            print(f"{status} {workload} --trace {trace}")
            for p in problems:
                print(f"    {p}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
