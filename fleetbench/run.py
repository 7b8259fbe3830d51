#!/usr/bin/env python3
"""The fleet benchmark of the lumos photonic fleet simulator.

    python3 fleetbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 fleetbench/run.py --self-test

Run from the repository root.  Builds fleetbench/ (and through it the lumos
library) with CMake under $CARGO_TARGET_DIR (default .bench_build), runs one
workload with LUMOS_THREADS pinned to min(4, nproc), and prints the binary's
report followed by one result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json, with
--trace 1 its per_layer metrics.  A layer the workload does not run reads 0.
--self-test builds and runs the benchmark's arithmetic tests instead.
fleetbench/README.md lists the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_tron_serial", "serve_tron_sharded", "serve_hybrid_closed",
             "paper_estimates")


def build(targets):
    """Configures (once) and builds `targets`; returns the build directory."""
    base = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(base, "fleetbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", *targets],
                   stdout=sys.stderr, check=True)
    return build_dir


def source_id():
    """The git commit when the tree is a clone, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "fleetbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.workload is None and not args.self_test:
        parser.error("--workload is required")
    try:
        build_dir = build(["fleetbench_tests" if args.self_test else "fleetbench"])
    except subprocess.CalledProcessError as e:
        sys.stderr.write("fleetbench: build failed: %s\n" % e)
        return 1
    if args.self_test:
        return subprocess.run([os.path.join(build_dir, "fleetbench_tests")]).returncode
    env = dict(os.environ, LUMOS_THREADS=str(min(4, os.cpu_count() or 1)))
    proc = subprocess.run(
        [os.path.join(build_dir, "fleetbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--source-id", source_id()],
        stdout=subprocess.PIPE, text=True, env=env)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        return proc.returncode or 1
    report = json.loads(lines[-1])

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["per_layer"] if args.trace else spec["end_to_end"]:
        got = report["metrics"].get(m["name"])
        if got is None and not args.trace:
            sys.stderr.write("fleetbench: no end-to-end metric %s\n" % m["name"])
            return 1
        metrics[m["name"]] = got or {"value": 0, "unit": m["unit"]}
        if metrics[m["name"]]["unit"] != m["unit"]:
            sys.stderr.write("fleetbench: %s is in %s, BENCHMARK.json says %s\n"
                             % (m["name"], metrics[m["name"]]["unit"], m["unit"]))
            return 1
    print("\n".join(lines))
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
