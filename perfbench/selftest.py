#!/usr/bin/env python3
"""Tiny-scale self-check of the end-to-end benchmark.

    python3 perfbench/selftest.py

Runs every workload at 1/64 of its vertex count, traced and untraced, and
checks that the result line has the shape BENCHMARK.json declares. It also
checks that the correctness oracle fires on corrupted labels, that a seed
reproduces its modularity in a new process, and that the benchmark exits
non-zero, printing no result, in a directory that holds only BENCHMARK.json
and perfbench/. Takes under a minute once `e2e` is built.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 900  # the first call builds e2e
# 1/64 of each workload's vertex count (road-sharded: a 128 x 128 grid).
VERTICES = {"social-parallel": 512, "road-sharded": 16384}


def bench(workload, *args, cwd=ROOT):
    cmd = [*SPEC["command"], "--workload", workload, "--seconds", "0.5",
           "--vertices", str(VERTICES[workload]), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check(ok, what):
    if not ok:
        sys.exit(f"selftest: FAILED: {what}")
    print(f"ok  {what}")


def check_result(workload, trace):
    proc = bench(workload, "--seed", "7", "--trace", str(trace))
    what = f"{workload} --trace {trace}"
    check(proc.returncode == 0, f"{what} exits 0 ({proc.stderr[-300:]!r})")
    res = result_of(proc)
    check(set(res) == {"correct", "attempted", "failed", "metrics"},
          f"{what} result has exactly the four keys")
    check(res["correct"] is True and res["failed"] == 0
          and res["attempted"] >= 1, f"{what} passes every check")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    metrics = res["metrics"]
    check({m["name"] for m in spec} == set(metrics),
          f"{what} reports exactly the declared metrics")
    bad = [m["name"] for m in spec
           if metrics[m["name"]]["unit"] != m["unit"]
           or not isinstance(metrics[m["name"]]["value"], (int, float))
           or not math.isfinite(metrics[m["name"]]["value"])
           or (not trace and metrics[m["name"]]["value"] <= 0)]
    check(not bad, f"{what} values are finite, nonzero end to end, in the "
          f"declared units (bad: {bad})")
    return metrics


def main():
    layers = {}
    for w in SPEC["workloads"]:
        check_result(w["name"], 0)
        layers[w["name"]] = check_result(w["name"], 1)
        check(layers[w["name"]]["observe.stage_coverage"]["value"] >= 0.95,
              f"{w['name']} stage spans cover 95% of a traced detect")
    check(layers["road-sharded"]["simt.mem.share"]["value"] == 0,
          "road-sharded bypasses the memory model")

    runs = [result_of(bench("social-parallel", "--seed", "3")) for _ in range(2)]
    check(runs[0]["metrics"]["modularity"] == runs[1]["metrics"]["modularity"],
          "a seed reproduces its modularity in a new process")

    proc = bench("social-parallel", "--seed", "7", "--corrupt-labels")
    res = result_of(proc)
    check(proc.returncode == 1 and res["correct"] is False
          and res["failed"] >= 1, "corrupted labels fail the oracle")

    stripped = ROOT / ".bench_build" / "selftest-stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", stripped / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    proc = bench("social-parallel", "--seed", "1", cwd=stripped)
    shutil.rmtree(stripped, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:]
    check(proc.returncode != 0 and not (last and last[0].startswith("{")),
          "without the sources the benchmark fails and prints no result")


if __name__ == "__main__":
    main()
