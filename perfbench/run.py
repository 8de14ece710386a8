#!/usr/bin/env python3
"""Build the benchmark from source and run one workload of it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds perfbench/bench.exe with
dune (the first build compiles the libraries too), runs it, checks that
its last line is the result object with exactly the metrics BENCHMARK.json
lists for the mode (end_to_end without tracing, per_layer with), and
prints the benchmark's output.  Exits non-zero, printing no result, when
the checkout holds no sources, the build fails or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"no {need} here: run from the root of a source checkout")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")

    build = subprocess.run(
        [dune, "build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed")

    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    run = subprocess.run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        fail(f"benchmark exited with {run.returncode}")

    lines = run.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    listed = spec["per_layer" if args.trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail("the metrics printed are not the ones BENCHMARK.json lists")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
