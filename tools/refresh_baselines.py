#!/usr/bin/env python3
"""Regenerate the committed smoke bench baselines (bench/baselines/).

Growing a bench adds fields the committed baselines do not carry yet (the
gate ignores current-file keys absent from the baseline), so after landing a
new field the baselines must be refreshed for CI to start gating it.  A blind
overwrite would also silently absorb *regressions* in the pre-existing fields,
so this tool verifies before it writes:

1. run the smoke benches from --build-dir into a scratch directory;
2. check every committed baseline against its fresh run with bench_check's
   walker and in-file gates at --det-tol 0 with timing off (wall clocks and
   the observer-overhead bound depend on the host): every pre-existing
   deterministic field must be bit-identical, and any finding aborts the
   refresh with the full finding list;
3. run bench_check --self-test against each fresh file (the gate must pass it
   against itself and catch every injected regression, new fields included);
4. only then overwrite the committed baselines.

Pass --det-tol to loosen step 2 when a refresh intentionally changes
pre-existing numbers (say, a cost-model recalibration): the tool then reports
what drifted but proceeds, leaving the diff for review.

Usage:
  python3 tools/refresh_baselines.py [--build-dir build]
      [--baselines bench/baselines] [--det-tol 0.0]
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_check import run_check, self_test  # noqa: E402

BENCHES = [
    ("bench_kernels", "BENCH_kernels_smoke.json"),
    ("bench_serve", "BENCH_serve_smoke.json"),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--build-dir", default="build",
                        help="CMake build directory holding the bench binaries")
    parser.add_argument("--baselines", default="bench/baselines",
                        help="directory of committed smoke baselines")
    parser.add_argument("--det-tol", type=float, default=0.0,
                        help="tolerance for pre-existing deterministic sections "
                             "(default 0.0: bit-identical or abort)")
    args = parser.parse_args()

    failures = 0
    with tempfile.TemporaryDirectory(prefix="bench_refresh_") as scratch:
        fresh_paths = {}
        for binary, name in BENCHES:
            exe = os.path.join(args.build_dir, binary)
            if not os.path.exists(exe):
                print(f"refresh_baselines: {exe} not built; run "
                      f"`cmake --build {args.build_dir} -j` first")
                return 1
            out = os.path.join(scratch, name)
            print(f"refresh_baselines: running {binary} --smoke ...")
            subprocess.run([exe, "--smoke", "--out", out], check=True,
                           stdout=subprocess.DEVNULL)
            fresh_paths[name] = out

        for _, name in BENCHES:
            committed_path = os.path.join(args.baselines, name)
            with open(fresh_paths[name]) as f:
                fresh = json.load(f)
            if not os.path.exists(committed_path):
                print(f"refresh_baselines: {committed_path} is new (no "
                      f"pre-existing sections to verify)")
            else:
                with open(committed_path) as f:
                    committed = json.load(f)
                # The committed file drives the walk, so fields it does not
                # carry yet (the ones this refresh introduces) are not compared.
                findings = run_check(committed, fresh, args.det_tol, math.inf)
                if findings:
                    failures += len(findings)
                    print(f"refresh_baselines: {name}: {len(findings)} "
                          f"finding(s) at det-tol {args.det_tol}:")
                    for path, why in findings:
                        print(f"  {path}: {why}")
                    if args.det_tol == 0.0:
                        continue  # abort this file (and the run) below
                    print(f"refresh_baselines: {name}: --det-tol "
                          f"{args.det_tol} given; proceeding despite drift")
                else:
                    print(f"refresh_baselines: {name}: pre-existing fields "
                          f"bit-identical to the committed baseline")

        if failures and args.det_tol == 0.0:
            print(f"refresh_baselines: aborting without overwriting "
                  f"({failures} drift finding(s); pass --det-tol to accept "
                  f"an intentional change)")
            return 1

        for _, name in BENCHES:
            with open(fresh_paths[name]) as f:
                fresh = json.load(f)
            # The gate must pass the fresh file against itself and catch
            # injected regressions — new fields included — before it
            # becomes the thing CI trusts.
            if self_test(fresh, det_tol=1e-3, time_tol=4.0):
                print(f"refresh_baselines: {name}: fresh file failed the "
                      f"bench_check self-test; not overwriting")
                return 1

        os.makedirs(args.baselines, exist_ok=True)
        for _, name in BENCHES:
            committed_path = os.path.join(args.baselines, name)
            os.replace(fresh_paths[name], committed_path)
            print(f"refresh_baselines: wrote {committed_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
