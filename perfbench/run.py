#!/usr/bin/env python3
"""End-to-end `nulpa detect` benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload social-parallel --seed 1 --seconds 50 --trace 0

Builds `nulpa` and perfbench/e2e from the repository's sources into
.bench_build/ (the first run compiles; later runs reuse the build), and
generates the workload's graph from --seed with `nulpa generate` as a
Matrix Market file in a temporary directory under .bench_build/. It runs
`e2e reference` once, for the reference labels and the byte-identity
checks, then measures for --seconds seconds. --trace 0 starts one
`e2e detect` process after another, each running one detect as a one-shot
`nulpa detect` would, and reports the end-to-end metrics. --trace 1 runs
`e2e layers` and reports the per-layer ones. The last line of standard
output is the result as one JSON object. Exit code 0 when every check
passed, 1 when a detect failed a correctness check, 2 when the benchmark
could not run.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170  # generate plus run, after the build

# workload: (`nulpa generate --kind`, --vertices)
WORKLOADS = {
    "social-parallel": ("social", 32768),
    "road-sharded": ("road", 1024 * 1024),  # a 1024 x 1024 grid
}

# end-to-end metric: (unit, field of an `e2e detect` result, statistic over
# the run's detects). setup_s takes the fastest parse: a parse is short
# enough that each run catches the host in a fast phase, and the median
# spread twice as much over runs (see README.md, Noise).
END_TO_END = {
    "detect_s": ("s", "detect_s", statistics.median),
    "setup_s": ("s", "parse_s", min),
    "edge_visits_per_s": ("1/s", "edge_visits_per_s", statistics.median),
    "modeled_s": ("s", "modeled_s", statistics.median),
    "peak_rss_mb": ("MB", "peak_rss_mb", statistics.median),
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(env):
    """Configures once and builds nulpa and e2e; returns their paths."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B",
                     str(BUILD_DIR), f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                     *generator]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", str(BUILD_DIR), "--parallel", "2"]
    if subprocess.run(compile_cmd, stdout=sys.stderr, env=env).returncode:
        fail("build failed")
    return BUILD_DIR / "tools" / "nulpa", BUILD_DIR / "e2e"


def provenance(seed):
    """Host threads, build type, seed and source identity of this result."""
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    digest = hashlib.sha256()
    for base in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return {"hardware_threads": len(os.sched_getaffinity(0)),
            "build_type": BUILD_TYPE, "seed": seed, "git_commit": commit,
            "source_sha256": digest.hexdigest()[:16]}


def run_json(cmd, env, deadline):
    """Runs `cmd` to its end and passes its stderr through. Returns its exit
    code, the JSON object on its last stdout line (None if there is none)
    and the stdout lines before it."""
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=deadline - time.monotonic())
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, lines[:-1]


def tail(xs):
    """The highest percentile with at least 10 samples beyond it, once that
    is p75 or above (40 samples). With fewer samples it would sit near the
    median, so the tail is the maximum instead. Returns (value, percentile,
    samples)."""
    xs = sorted(xs)
    k = len(xs) - 11 if len(xs) >= 40 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def measure_detects(e2e_args, ref, args, env, deadline):
    """One `e2e detect` process after another for --seconds seconds.
    Returns (attempted, failed, samples per detect result field)."""
    ref_args = [f"--ref-digest={ref['digest']}",
                f"--ref-modularity={ref['modularity']!r}",
                f"--ref-modeled-s={ref['modeled_s']!r}"]
    samples = {field: [] for _, field, _ in END_TO_END.values()}
    attempted = failed = 0
    start = time.monotonic()
    while attempted == 0 or time.monotonic() - start < args.seconds:
        corrupt = ["--corrupt-labels"] if args.corrupt_labels and not attempted else []
        code, d, _ = run_json([*e2e_args("detect"), *ref_args, *corrupt], env,
                              deadline)
        attempted += 1
        if code != 0 or not isinstance(d, dict) or d.get("ok") is not True:
            failed += 1
            continue
        for field, xs in samples.items():
            xs.append(d[field])
    return attempted, failed, samples


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-check knobs: shrink the graph, and make the oracle fire.
    parser.add_argument("--vertices", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-labels", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    kind, vertices = WORKLOADS[args.workload]
    vertices = args.vertices or vertices

    tmp_root = BUILD_ROOT / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp_root))
    nulpa, e2e = build(env)
    deadline = time.monotonic() + RUN_TIMEOUT_S

    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    mtx = work / "input.mtx"

    def e2e_args(command):
        return [str(e2e), command, "--workload", args.workload, "--input",
                str(mtx), "--labels", str(work / "labels.txt")]

    try:
        gen = subprocess.run(
            [str(nulpa), "generate", "--kind", kind, "--vertices",
             str(vertices), "--seed", str(args.seed), "--output", str(mtx)],
            capture_output=True, text=True, env=env,
            timeout=deadline - time.monotonic())
        sys.stderr.write(gen.stderr)
        if gen.returncode:
            fail("input generation failed")
        print(f"input: {gen.stdout.strip()}, {mtx.stat().st_size} MTX bytes")

        code, ref, lines = run_json(e2e_args("reference"), env, deadline)
        print("\n".join(lines))
        if code not in (0, 1) or not isinstance(ref, dict):
            fail(f"e2e reference exited with code {code} and no result")
        attempted, failed = ref["attempted"], ref["failed"]

        if args.trace:
            code, result, lines = run_json(
                [*e2e_args("layers"), "--seconds", str(args.seconds)], env,
                deadline)
            print("\n".join(lines))
            if code not in (0, 1) or not isinstance(result, dict):
                fail(f"e2e layers exited with code {code} and no result")
            attempted += result["attempted"]
            failed += result["failed"]
            metrics = result["metrics"]
        else:
            n, bad, samples = measure_detects(e2e_args, ref, args, env,
                                              deadline)
            attempted += n
            failed += bad
            if samples["detect_s"]:
                value, pct, count = tail(samples["detect_s"])
                print(f"detect_s_tail: {value:.4f} s, p{pct:.1f} of {count} "
                      f"samples (the maximum below 40)")
                for name in ("detect_s", "setup_s"):
                    print(f"{name} samples: " + " ".join(
                        f"{x:.4f}" for x in samples[END_TO_END[name][1]]))
            print(f"failed_frac: {failed / attempted:.6g} "
                  f"({failed} of {attempted})")
            metrics = {
                name: {"value": stat(samples[field]) if samples[field]
                       else 0.0, "unit": unit}
                for name, (unit, field, stat) in END_TO_END.items()}
            metrics["modularity"] = {"value": ref["modularity"],
                                     "unit": "ratio"}
            for name, m in metrics.items():
                print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    except subprocess.TimeoutExpired:
        fail(f"generate plus run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("provenance: " + json.dumps(provenance(args.seed)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
